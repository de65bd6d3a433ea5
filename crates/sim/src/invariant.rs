//! Online coherence-invariant checking: [`InvariantProbe`].
//!
//! The probe reconstructs a *shadow* coherence state from the engine's
//! event stream and checks, while any simulation runs, the same invariant
//! set the `cohort-verif` exhaustive model checker establishes over the
//! abstract protocol:
//!
//! - **SWMR** — at most one writer per line, and no Shared copies coexist
//!   with a Modified owner (checked at every fill against the shadow
//!   state, which the engine's invalidate/downgrade events must have
//!   cleared first);
//! - **data-value (source)** — data is always supplied by the current
//!   owner: a transfer sourced from the shared memory while a core holds
//!   the line Modified would hand out stale data;
//! - **timer protection** — no dispossession (steal or downgrade) of a
//!   held line before its θ release instant, mirrored with the engine's
//!   own [`release_time`] function over the shadow waiter queues;
//! - **liveness** — every broadcast request is eventually filled: at run
//!   completion no shadow waiter queue may retain an entry.
//!
//! Because the shadow state is derived *only* from the event stream, the
//! probe cross-validates the engine's externally visible behaviour rather
//! than re-reading the engine's internals — an engine bug that corrupts
//! `CoherenceMap` *and* emits matching events is caught by the deep scan
//! [`Simulator::validate_coherence`](crate::Simulator::validate_coherence)
//! instead, which the replay harness in `cohort-verif` invokes alongside
//! this probe.
//!
//! Like every probe, attaching it costs nothing when unused: the default
//! [`NoProbe`](crate::NoProbe) engine monomorphises all instrumentation
//! away.
//!
//! # Examples
//!
//! ```
//! use cohort_sim::{InvariantProbe, SimBuilder, SimConfig};
//! use cohort_trace::micro;
//! use cohort_types::TimerValue;
//!
//! let config = SimConfig::builder(2).timer(0, TimerValue::timed(20)?).build()?;
//! let workload = micro::ping_pong(2, 6);
//! let mut sim = SimBuilder::new(config, &workload).probe(InvariantProbe::new()).build()?;
//! sim.run()?;
//! assert!(sim.probe().is_clean(), "{:?}", sim.probe().violations());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;

use cohort_types::{Cycles, LineAddr, TimerValue};

use crate::coherence::ReqKind;
use crate::event::{EventKind, InvalidateCause};
use crate::probe::SimProbe;
use crate::timer::release_time;
use crate::{ProtocolFlavor, SimConfig, SimStats};

/// Which invariant a [`InvariantViolation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// Single-writer / multiple-reader was violated.
    Swmr,
    /// Data was read or supplied from a stale source.
    DataValue,
    /// A holder was dispossessed before its θ release instant.
    TimerProtection,
    /// A request was enqueued but never served.
    Liveness,
    /// The event stream itself is inconsistent (e.g. a fill without a
    /// broadcast, a downgrade of a non-owner).
    Bookkeeping,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InvariantKind::Swmr => "SWMR",
            InvariantKind::DataValue => "data-value",
            InvariantKind::TimerProtection => "timer-protection",
            InvariantKind::Liveness => "liveness",
            InvariantKind::Bookkeeping => "bookkeeping",
        };
        f.write_str(name)
    }
}

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Cycle at which the violating event was observed.
    pub cycle: Cycles,
    /// The violated invariant.
    pub kind: InvariantKind,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[cycle {}] {} violated: {}", self.cycle, self.kind, self.message)
    }
}

/// Shadow coherence state of one core's copy of one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShadowState {
    Invalid,
    Shared,
    Modified,
}

#[derive(Debug, Clone, Copy)]
struct ShadowCopy {
    state: ShadowState,
    /// Fill instant (counter Load).
    anchor: Cycles,
    /// θ loaded at fill time (the live register at the fill instant).
    theta: TimerValue,
    /// The live register was MSI at some point since the fill (a mode
    /// switch to θ = −1 pulls Enable low and legalises immediate release).
    ever_msi: bool,
}

impl ShadowCopy {
    const INVALID: ShadowCopy = ShadowCopy {
        state: ShadowState::Invalid,
        anchor: Cycles::ZERO,
        theta: TimerValue::Msi,
        ever_msi: false,
    };
}

#[derive(Debug, Clone, Copy)]
struct ShadowWaiter {
    core: usize,
    kind: ReqKind,
    enqueued: Cycles,
}

#[derive(Debug, Clone)]
struct ShadowLine {
    copies: Vec<ShadowCopy>,
    waiters: VecDeque<ShadowWaiter>,
}

impl ShadowLine {
    fn new(cores: usize) -> Self {
        ShadowLine { copies: vec![ShadowCopy::INVALID; cores], waiters: VecDeque::new() }
    }
}

/// A [`SimProbe`] that checks coherence invariants online against the
/// event stream of a live run: SWMR, data-value (source), timer protection
/// and liveness (one [`InvariantKind`] each), over a shadow coherence state
/// rebuilt from the events alone.
///
/// Violations accumulate in [`InvariantProbe::violations`].
#[derive(Debug, Clone, Default)]
pub struct InvariantProbe {
    cores: usize,
    flavor: Option<ProtocolFlavor>,
    timers: Vec<TimerValue>,
    priority: Option<Vec<bool>>,
    lines: BTreeMap<LineAddr, ShadowLine>,
    /// Lines with an outstanding broadcast per core (MSHR mirror for the
    /// `j ≠ i` release exclusion).
    inflight: Vec<Vec<LineAddr>>,
    violations: Vec<InvariantViolation>,
}

impl InvariantProbe {
    /// Creates a probe that records violations without interrupting the
    /// run.
    #[must_use]
    pub fn new() -> Self {
        InvariantProbe::default()
    }

    /// The violations observed so far, in event order.
    #[must_use]
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Returns `true` if no invariant violation was observed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Consumes the probe, returning the observed violations.
    #[must_use]
    pub fn into_violations(self) -> Vec<InvariantViolation> {
        self.violations
    }

    fn report(&mut self, cycle: Cycles, kind: InvariantKind, message: String) {
        self.violations.push(InvariantViolation { cycle, kind, message });
    }

    fn line_mut(&mut self, line: LineAddr) -> &mut ShadowLine {
        let cores = self.cores;
        self.lines.entry(line).or_insert_with(|| ShadowLine::new(cores))
    }

    fn has_inflight(&self, core: usize, line: LineAddr) -> bool {
        self.inflight.get(core).is_some_and(|l| l.contains(&line))
    }

    /// The earliest instant at which `holder` may legally be dispossessed
    /// of `line`, mirroring the engine's release computation over the
    /// shadow state. Returns `None` when any release is legal (MSI/θ = 0
    /// copies, a register that went MSI since the fill, a holder waiting
    /// on its own request, or no shadow copy to protect).
    fn earliest_legal_release(&self, holder: usize, line: LineAddr) -> Option<Cycles> {
        let shadow = self.lines.get(&line)?;
        let copy = shadow.copies.get(holder)?;
        if copy.state == ShadowState::Invalid {
            return None;
        }
        match copy.theta.theta() {
            None | Some(0) => return None,
            Some(_) => {}
        }
        if copy.ever_msi || self.has_inflight(holder, line) {
            return None;
        }
        // The earliest queued request that dispossesses this holder is the
        // most generous PendingInv instant (release_time is monotone in
        // it), so checking against it never yields a false positive.
        let owner = copy.state == ShadowState::Modified;
        let pending = shadow
            .waiters
            .iter()
            .filter(|w| w.core != holder && (w.kind.is_get_m() || owner))
            .map(|w| w.enqueued)
            .min()?;
        Some(release_time(copy.anchor, copy.theta, pending.max(copy.anchor)))
    }

    /// Checks that dispossessing `holder` at `cycle` respects its timer.
    fn check_timer_protection(&mut self, cycle: Cycles, holder: usize, line: LineAddr) {
        if let Some(release) = self.earliest_legal_release(holder, line) {
            if cycle < release {
                self.report(
                    cycle,
                    InvariantKind::TimerProtection,
                    format!(
                        "c{holder} dispossessed of {line} at {cycle}, before its \
                         θ release instant {release}"
                    ),
                );
            }
        }
    }

    fn on_broadcast(&mut self, cycle: Cycles, core: usize, line: LineAddr, kind: ReqKind) {
        let waiter = ShadowWaiter { core, kind, enqueued: cycle };
        let priority = self.priority.clone();
        let shadow = self.line_mut(line);
        // Mirror the engine's queueing discipline: critical requests are
        // inserted ahead of queued non-critical waiters.
        match priority {
            Some(critical) if critical.get(core).copied().unwrap_or(false) => {
                let pos = shadow
                    .waiters
                    .iter()
                    .position(|w| !critical.get(w.core).copied().unwrap_or(false))
                    .unwrap_or(shadow.waiters.len());
                shadow.waiters.insert(pos, waiter);
            }
            _ => shadow.waiters.push_back(waiter),
        }
        if let Some(inflight) = self.inflight.get_mut(core) {
            if !inflight.contains(&line) {
                inflight.push(line);
            }
        }
    }

    fn on_transfer_start(&mut self, cycle: Cycles, from: Option<usize>, to: usize, line: LineAddr) {
        // Data-value (source) checks assume the MSI repertoire: under MESI
        // an Exclusive owner is invisible to the event stream (silent
        // upgrades emit nothing), so the shadow state cannot distinguish a
        // legal Exclusive supplier from a stale one.
        if self.flavor != Some(ProtocolFlavor::Msi) {
            return;
        }
        let Some(shadow) = self.lines.get(&line) else { return };
        let modified_holder = shadow
            .copies
            .iter()
            .enumerate()
            .find(|(c, copy)| *c != to && copy.state == ShadowState::Modified)
            .map(|(c, _)| c);
        match (modified_holder, from) {
            (Some(owner), source) if source != Some(owner) => self.report(
                cycle,
                InvariantKind::DataValue,
                format!(
                    "transfer of {line} to c{to} sourced from {source:?} while c{owner} \
                     holds the last committed write"
                ),
            ),
            (None, Some(supplier)) => self.report(
                cycle,
                InvariantKind::DataValue,
                format!(
                    "transfer of {line} to c{to} sourced from c{supplier}, which does \
                     not own the line"
                ),
            ),
            _ => {}
        }
    }

    fn on_fill(&mut self, cycle: Cycles, core: usize, line: LineAddr, kind: ReqKind) {
        let theta = self.timers.get(core).copied().unwrap_or(TimerValue::Msi);
        let shadow = self.line_mut(line);
        let served = shadow
            .waiters
            .iter()
            .position(|w| w.core == core)
            .map(|pos| shadow.waiters.remove(pos));
        // Single-writer / multiple-reader, checked against the *shadow*
        // state: the engine must have emitted the invalidations (GetM) or
        // the owner downgrade (GetS) before the fill completes.
        let conflicts: Vec<String> = shadow
            .copies
            .iter()
            .enumerate()
            .filter(|&(c, copy)| {
                c != core
                    && match kind {
                        ReqKind::GetM => copy.state != ShadowState::Invalid,
                        ReqKind::GetS => copy.state == ShadowState::Modified,
                    }
            })
            .map(|(c, copy)| format!("c{c}:{:?}", copy.state))
            .collect();
        let state = match kind {
            ReqKind::GetM => ShadowState::Modified,
            ReqKind::GetS => ShadowState::Shared,
        };
        shadow.copies[core] = ShadowCopy { state, anchor: cycle, theta, ever_msi: theta.is_msi() };
        if let Some(inflight) = self.inflight.get_mut(core) {
            inflight.retain(|&l| l != line);
        }
        if served.is_none() {
            self.report(
                cycle,
                InvariantKind::Bookkeeping,
                format!("c{core} filled {line} without a matching broadcast"),
            );
        }
        if !conflicts.is_empty() {
            self.report(
                cycle,
                InvariantKind::Swmr,
                format!(
                    "{kind:?} fill of {line} by c{core} while other copies remain \
                     valid ({})",
                    conflicts.join(", ")
                ),
            );
        }
    }

    fn on_invalidate(
        &mut self,
        cycle: Cycles,
        core: usize,
        line: LineAddr,
        cause: InvalidateCause,
    ) {
        // Back-invalidation (LLC inclusion) and self-replacement legally
        // bypass the timer; only a steal must honour the release instant.
        if cause == InvalidateCause::Stolen {
            self.check_timer_protection(cycle, core, line);
        }
        self.line_mut(line).copies[core] = ShadowCopy::INVALID;
    }

    fn on_downgrade(&mut self, cycle: Cycles, core: usize, line: LineAddr) {
        self.check_timer_protection(cycle, core, line);
        let msi_flavor = self.flavor == Some(ProtocolFlavor::Msi);
        let shadow = self.line_mut(line);
        let copy = &mut shadow.copies[core];
        if copy.state == ShadowState::Modified {
            copy.state = ShadowState::Shared;
        } else if msi_flavor {
            // Under MESI an Exclusive owner is shadowed as Shared (its
            // fill was a GetS and the silent upgrade emits no event), so
            // a downgrade of a Shared shadow copy is only suspicious in
            // the MSI repertoire.
            let state = copy.state;
            self.report(
                cycle,
                InvariantKind::Bookkeeping,
                format!("downgrade of {line} in c{core}, whose shadow state is {state:?}"),
            );
        }
    }

    fn on_hit(&mut self, cycle: Cycles, core: usize, line: LineAddr) {
        let present =
            self.lines.get(&line).map_or(ShadowState::Invalid, |shadow| shadow.copies[core].state);
        // A hit on a line the event stream says this core does not hold
        // would return data from nowhere. Cold lines (never transferred)
        // have no shadow entry and no hit can precede their first fill.
        if present == ShadowState::Invalid && self.lines.contains_key(&line) {
            self.report(
                cycle,
                InvariantKind::DataValue,
                format!("c{core} hit {line} without holding a copy"),
            );
        }
    }
}

impl SimProbe for InvariantProbe {
    fn on_start(&mut self, config: &SimConfig) {
        self.cores = config.cores();
        self.flavor = Some(config.flavor());
        self.timers = config.timers().to_vec();
        self.priority = config.waiter_priority().map(<[bool]>::to_vec);
        self.lines.clear();
        self.inflight = vec![Vec::new(); config.cores()];
        self.violations.clear();
    }

    fn on_event(&mut self, cycle: Cycles, kind: &EventKind) {
        match *kind {
            EventKind::Hit { core, line } => self.on_hit(cycle, core, line),
            EventKind::Broadcast { core, line, kind } => self.on_broadcast(cycle, core, line, kind),
            EventKind::TransferStart { from, to, line } => {
                self.on_transfer_start(cycle, from, to, line);
            }
            EventKind::Fill { core, line, kind, .. } => self.on_fill(cycle, core, line, kind),
            EventKind::Downgrade { core, line } => self.on_downgrade(cycle, core, line),
            EventKind::Invalidate { core, line, cause } => {
                self.on_invalidate(cycle, core, line, cause);
            }
            EventKind::TimerSwitch { ref timers } => {
                let went_msi: Vec<usize> =
                    timers.iter().enumerate().filter(|(_, t)| t.is_msi()).map(|(c, _)| c).collect();
                for shadow in self.lines.values_mut() {
                    for &core in &went_msi {
                        if let Some(copy) = shadow.copies.get_mut(core) {
                            copy.ever_msi = true;
                        }
                    }
                }
                self.timers.clone_from(timers);
            }
            EventKind::MissIssued { .. } => {}
        }
    }

    fn on_finish(&mut self, _stats: &SimStats) {
        let stuck: Vec<(LineAddr, ShadowWaiter)> = self
            .lines
            .iter()
            .flat_map(|(&line, shadow)| shadow.waiters.iter().map(move |&w| (line, w)))
            .collect();
        for (line, waiter) in stuck {
            self.report(
                waiter.enqueued,
                InvariantKind::Liveness,
                format!(
                    "c{} enqueued a {:?} for {line} at {} that was never served",
                    waiter.core, waiter.kind, waiter.enqueued
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_for(cores: usize) -> InvariantProbe {
        let config = SimConfig::builder(cores).build().unwrap();
        let mut probe = InvariantProbe::new();
        probe.on_start(&config);
        probe
    }

    fn line() -> LineAddr {
        LineAddr::new(7)
    }

    #[test]
    fn clean_getm_hand_over_is_accepted() {
        let mut p = probe_for(2);
        p.on_event(
            Cycles::new(4),
            &EventKind::Broadcast { core: 0, line: line(), kind: ReqKind::GetM },
        );
        p.on_event(
            Cycles::new(10),
            &EventKind::Fill {
                core: 0,
                line: line(),
                kind: ReqKind::GetM,
                latency: Cycles::new(6),
            },
        );
        p.on_event(
            Cycles::new(20),
            &EventKind::Broadcast { core: 1, line: line(), kind: ReqKind::GetM },
        );
        p.on_event(
            Cycles::new(24),
            &EventKind::Invalidate { core: 0, line: line(), cause: InvalidateCause::Stolen },
        );
        p.on_event(
            Cycles::new(24),
            &EventKind::Fill {
                core: 1,
                line: line(),
                kind: ReqKind::GetM,
                latency: Cycles::new(4),
            },
        );
        p.on_finish(&SimStats::default());
        assert!(p.is_clean(), "{:?}", p.violations());
    }

    #[test]
    fn surviving_copy_on_getm_fill_is_swmr_violation() {
        let mut p = probe_for(2);
        p.on_event(
            Cycles::new(4),
            &EventKind::Broadcast { core: 0, line: line(), kind: ReqKind::GetM },
        );
        p.on_event(
            Cycles::new(10),
            &EventKind::Fill {
                core: 0,
                line: line(),
                kind: ReqKind::GetM,
                latency: Cycles::new(6),
            },
        );
        p.on_event(
            Cycles::new(20),
            &EventKind::Broadcast { core: 1, line: line(), kind: ReqKind::GetM },
        );
        // No Invalidate for c0 before c1's fill: two writers.
        p.on_event(
            Cycles::new(24),
            &EventKind::Fill {
                core: 1,
                line: line(),
                kind: ReqKind::GetM,
                latency: Cycles::new(4),
            },
        );
        assert_eq!(p.violations().len(), 1);
        assert_eq!(p.violations()[0].kind, InvariantKind::Swmr);
    }

    #[test]
    fn stale_source_is_data_value_violation() {
        let mut p = probe_for(2);
        p.on_event(
            Cycles::new(4),
            &EventKind::Broadcast { core: 0, line: line(), kind: ReqKind::GetM },
        );
        p.on_event(
            Cycles::new(10),
            &EventKind::Fill {
                core: 0,
                line: line(),
                kind: ReqKind::GetM,
                latency: Cycles::new(6),
            },
        );
        // c1 reads, but the data comes from the shared memory instead of
        // the Modified owner c0.
        p.on_event(
            Cycles::new(20),
            &EventKind::Broadcast { core: 1, line: line(), kind: ReqKind::GetS },
        );
        p.on_event(Cycles::new(22), &EventKind::TransferStart { from: None, to: 1, line: line() });
        assert_eq!(p.violations().len(), 1);
        assert_eq!(p.violations()[0].kind, InvariantKind::DataValue);
    }

    #[test]
    fn early_steal_from_timed_holder_is_timer_violation() {
        let config =
            SimConfig::builder(2).timer(0, TimerValue::timed(100).unwrap()).build().unwrap();
        let mut p = InvariantProbe::new();
        p.on_start(&config);
        p.on_event(
            Cycles::new(0),
            &EventKind::Broadcast { core: 0, line: line(), kind: ReqKind::GetM },
        );
        p.on_event(
            Cycles::new(10),
            &EventKind::Fill {
                core: 0,
                line: line(),
                kind: ReqKind::GetM,
                latency: Cycles::new(10),
            },
        );
        p.on_event(
            Cycles::new(20),
            &EventKind::Broadcast { core: 1, line: line(), kind: ReqKind::GetM },
        );
        // Release instant is anchor 10 + θ 100 = 110; stealing at 40 is
        // a protection violation, stealing at 110 is legal.
        p.on_event(
            Cycles::new(40),
            &EventKind::Invalidate { core: 0, line: line(), cause: InvalidateCause::Stolen },
        );
        assert_eq!(p.violations().len(), 1);
        assert_eq!(p.violations()[0].kind, InvariantKind::TimerProtection);
    }

    #[test]
    fn steal_at_release_instant_is_legal() {
        let config =
            SimConfig::builder(2).timer(0, TimerValue::timed(100).unwrap()).build().unwrap();
        let mut p = InvariantProbe::new();
        p.on_start(&config);
        p.on_event(
            Cycles::new(0),
            &EventKind::Broadcast { core: 0, line: line(), kind: ReqKind::GetM },
        );
        p.on_event(
            Cycles::new(10),
            &EventKind::Fill {
                core: 0,
                line: line(),
                kind: ReqKind::GetM,
                latency: Cycles::new(10),
            },
        );
        p.on_event(
            Cycles::new(20),
            &EventKind::Broadcast { core: 1, line: line(), kind: ReqKind::GetM },
        );
        p.on_event(
            Cycles::new(110),
            &EventKind::Invalidate { core: 0, line: line(), cause: InvalidateCause::Stolen },
        );
        assert!(p.is_clean(), "{:?}", p.violations());
    }

    #[test]
    fn switch_to_msi_legalises_immediate_release() {
        let config =
            SimConfig::builder(2).timer(0, TimerValue::timed(100).unwrap()).build().unwrap();
        let mut p = InvariantProbe::new();
        p.on_start(&config);
        p.on_event(
            Cycles::new(0),
            &EventKind::Broadcast { core: 0, line: line(), kind: ReqKind::GetM },
        );
        p.on_event(
            Cycles::new(10),
            &EventKind::Fill {
                core: 0,
                line: line(),
                kind: ReqKind::GetM,
                latency: Cycles::new(10),
            },
        );
        p.on_event(
            Cycles::new(15),
            &EventKind::TimerSwitch { timers: vec![TimerValue::Msi, TimerValue::Msi] },
        );
        p.on_event(
            Cycles::new(20),
            &EventKind::Broadcast { core: 1, line: line(), kind: ReqKind::GetM },
        );
        p.on_event(
            Cycles::new(24),
            &EventKind::Invalidate { core: 0, line: line(), cause: InvalidateCause::Stolen },
        );
        assert!(p.is_clean(), "{:?}", p.violations());
    }

    #[test]
    fn unserved_waiter_is_liveness_violation() {
        let mut p = probe_for(2);
        p.on_event(
            Cycles::new(4),
            &EventKind::Broadcast { core: 0, line: line(), kind: ReqKind::GetS },
        );
        p.on_finish(&SimStats::default());
        assert_eq!(p.violations().len(), 1);
        assert_eq!(p.violations()[0].kind, InvariantKind::Liveness);
        assert!(p.violations()[0].to_string().contains("never served"));
    }
}
