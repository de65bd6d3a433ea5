//! The discrete-event scheduler behind the event-driven engine, the
//! [`EngineKind`] selector, and the cross-engine event-log differ.
//!
//! # Architecture
//!
//! The event-driven engine replaces the cycle-round loop's per-instant
//! O(cores + waiters) rescan with a [`BinaryHeap`] of `(wake_at, seq)`
//! entries. Every activity source re-arms itself as it runs:
//!
//! - **cores** arm a wake at their next `ready_at` whenever they retire an
//!   access or issue a miss (and when a completed transfer un-stalls them);
//! - the **bus transaction** arms a wake at its `ends` instant when it is
//!   granted;
//! - **per-line timer releases** are armed for every line with queued
//!   waiters whenever the bus frees (and re-armed if the release instant
//!   moves);
//! - **TDM slot boundaries** are armed while the bus idles, because the
//!   PENDULUM arbiter can only grant on boundaries;
//! - **scheduled mode switches** and **fault activations** are armed from
//!   their schedules directly.
//!
//! Ties are broken by a monotonically increasing sequence number, so the
//! pop order of simultaneous wakes is deterministic; within one instant the
//! engine additionally dispatches phases in the legacy engine's fixed round
//! order (switches → faults → transaction completion → cores in id order →
//! arbitration), which is what makes the two engines bit-identical rather
//! than merely equivalent.
//!
//! # Determinism and bit-identity
//!
//! All state transitions in the machine are pure functions of `(state,
//! now)` guarded by absolute cycle stamps, so processing a component at an
//! instant where it has nothing due is a no-op. The event engine therefore
//! only needs its wake set to be a *superset* of the legacy engine's
//! visited instants restricted to each component — spurious wakes
//! self-heal. The one observable exception is retryable fault injection
//! (line corruption / spurious eviction retry at every visited instant),
//! which the event engine gates on [`Simulator`](crate::Simulator)'s
//! "real instant" test so both engines attempt retries at exactly the
//! same cycles. The [`compare_engines`] differ checks the resulting
//! identity event by event, and the `engine_equivalence` property tests
//! sweep it across protocol presets, mode switches and fault plans.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use cohort_trace::Workload;
use cohort_types::{Cycles, LineAddr, Result, TimerValue};

use crate::event::{Event, EventLogProbe};
use crate::fault::FaultPlan;
use crate::stats::SimStats;
use crate::{SimBuilder, SimConfig};

/// Which driver advances the simulator clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The legacy engine: every visited instant runs a full scheduling
    /// round over all cores and re-derives the next instant by scanning
    /// every wake source. Kept selectable as the bit-identity reference.
    CycleRound,
    /// The discrete-event engine: a binary-heap scheduler of self-re-arming
    /// wake entries dispatches only the components that are due. The
    /// default since the differ proved it bit-identical to the cycle-round
    /// engine.
    #[default]
    EventDriven,
}

/// What a popped wake entry asks the engine to look at. The entry does not
/// carry payload state: due-ness is always re-checked against the live
/// machine state, so stale wakes (a core whose `ready_at` moved, a release
/// instant that shifted) are no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeSource {
    /// A scheduled timer re-programming comes due.
    Switch,
    /// A fault activation instant arrives.
    Fault,
    /// The in-flight bus transaction ends.
    TxnEnd,
    /// A core reaches its `ready_at`.
    Core(usize),
    /// A held line's release instant arrives (head waiter may unblock).
    Release(LineAddr),
    /// A TDM slot boundary while the bus idles.
    Slot,
}

/// One heap entry: wake at `at`, ties broken by insertion sequence.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WakeEntry {
    pub at: u64,
    pub seq: u64,
    pub source: WakeSource,
}

impl PartialEq for WakeEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for WakeEntry {}

impl PartialOrd for WakeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WakeEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The event-driven engine's scheduler state, carried by the simulator so
/// runs can be sliced with `run_until` and the simulator stays `Clone`.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventSched {
    /// Min-heap of pending wakes.
    heap: BinaryHeap<Reverse<WakeEntry>>,
    /// Tie-breaking insertion sequence.
    seq: u64,
    /// Set once the initial wake set has been armed (first run call).
    pub primed: bool,
    /// Gates the machine-side arming hooks; false under the cycle-round
    /// engine, which derives its schedule by scanning.
    pub arming: bool,
    /// Cores that must be stepped at the *next* dispatched instant even
    /// though their `ready_at` is not in the future (the legacy engine
    /// steps every ready core at every visited instant; a core whose wake
    /// lands at or before "now" is picked up at the next instant, exactly
    /// like the legacy `next_event` ignores non-future `ready_at`s).
    pub carry_cores: u64,
    /// Set by `step_core` when a new broadcast candidate appeared (a miss
    /// was issued): the bus should attempt arbitration at this instant.
    pub flag_arb: bool,
    /// Lines whose release instant must be re-derived at the current
    /// instant (popped release wakes, or a miss on a line with waiters
    /// whose effective timer may have dropped to MSI).
    pub dirty_lines: Vec<LineAddr>,
    /// The last TDM slot boundary armed, to avoid duplicate heap entries
    /// while the bus idles across several dispatches within one slot.
    armed_slot: u64,
    /// The last fault-activation instant armed, deduplicating the
    /// per-dispatch re-arm of the pending-activation chain.
    armed_fault: Option<u64>,
}

impl EventSched {
    /// Pushes a wake at `at` (absolute cycles).
    pub fn arm(&mut self, at: u64, source: WakeSource) {
        self.seq += 1;
        self.heap.push(Reverse(WakeEntry { at, seq: self.seq, source }));
    }

    /// Arms a core wake: future instants go on the heap, instants at or
    /// before `now` are carried to the next dispatch (see `carry_cores`).
    pub fn arm_core(&mut self, now: u64, id: usize, ready_at: u64) {
        if ready_at <= now {
            self.carry_cores |= 1 << id;
        } else {
            self.arm(ready_at, WakeSource::Core(id));
        }
    }

    /// Arms the bus-transaction completion wake. A tenure that ends at or
    /// before `now` (zero-latency configurations) completes at the next
    /// instant, mirroring the legacy round order.
    pub fn arm_txn(&mut self, now: u64, ends: u64) {
        self.arm(ends.max(now + 1), WakeSource::TxnEnd);
    }

    /// Arms a TDM slot-boundary wake, deduplicated per boundary.
    pub fn arm_slot(&mut self, boundary: u64) {
        if self.armed_slot != boundary {
            self.armed_slot = boundary;
            self.arm(boundary, WakeSource::Slot);
        }
    }

    /// Arms a fault-activation wake, deduplicated per instant (the next
    /// pending activation is re-derived after every dispatched instant,
    /// so without the dedup the heap would grow by one entry per
    /// dispatch).
    pub fn arm_fault(&mut self, at: u64) {
        if self.armed_fault != Some(at) {
            self.armed_fault = Some(at);
            self.arm(at, WakeSource::Fault);
        }
    }

    /// The earliest pending wake instant, if any.
    pub fn next_wake_at(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Pops every wake due at or before `t`, returning the due-core mask
    /// and whether a fault activation or TDM slot boundary was among them.
    /// Release wakes are queued on `dirty_lines` for the release phase.
    pub fn pop_due(&mut self, t: u64) -> (u64, bool, bool) {
        let mut cores = 0u64;
        let mut fault = false;
        let mut slot = false;
        while let Some(Reverse(e)) = self.heap.peek() {
            if e.at > t {
                break;
            }
            let e = self.heap.pop().expect("peeked entry exists").0;
            match e.source {
                WakeSource::Core(id) => cores |= 1 << id,
                WakeSource::Fault => fault = true,
                WakeSource::Slot => slot = true,
                WakeSource::Release(line) => self.dirty_lines.push(line),
                // Switch and transaction due-ness is re-checked against the
                // live schedule/state; the entry only creates the instant.
                WakeSource::Switch | WakeSource::TxnEnd => {}
            }
        }
        (cores, fault, slot)
    }
}

// ----- cross-engine differ ----------------------------------------------

/// The first point at which the two engines' event logs disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineDivergence {
    /// Index into the chronological event logs.
    pub index: usize,
    /// The cycle-round engine's event at that index, if any.
    pub cycle_round: Option<Event>,
    /// The event-driven engine's event at that index, if any.
    pub event_driven: Option<Event>,
}

impl std::fmt::Display for EngineDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "engines diverge at event {}: cycle-round {:?} vs event-driven {:?}",
            self.index, self.cycle_round, self.event_driven
        )
    }
}

/// Compares two chronological event logs, returning the first divergence
/// (including one log being a strict prefix of the other), or `None` if
/// they are identical.
#[must_use]
pub(crate) fn diff_event_logs(
    cycle_round: &[Event],
    event_driven: &[Event],
) -> Option<EngineDivergence> {
    let shared = cycle_round.len().min(event_driven.len());
    for index in 0..shared {
        if cycle_round[index] != event_driven[index] {
            return Some(EngineDivergence {
                index,
                cycle_round: Some(cycle_round[index].clone()),
                event_driven: Some(event_driven[index].clone()),
            });
        }
    }
    if cycle_round.len() != event_driven.len() {
        return Some(EngineDivergence {
            index: shared,
            cycle_round: cycle_round.get(shared).cloned(),
            event_driven: event_driven.get(shared).cloned(),
        });
    }
    None
}

/// The result of running both engines on the same sealed scenario.
#[derive(Debug, Clone)]
pub struct EngineComparison {
    /// First event-log divergence, or `None` when the logs are identical.
    pub divergence: Option<EngineDivergence>,
    /// Whether the final [`SimStats`] are identical.
    pub stats_match: bool,
    /// Whether the injected-fault records are identical.
    pub faults_match: bool,
    /// Number of events each log would be expected to share.
    pub events_compared: usize,
    /// The cycle-round engine's final statistics.
    pub cycle_round_stats: SimStats,
    /// The event-driven engine's final statistics.
    pub event_driven_stats: SimStats,
}

impl EngineComparison {
    /// `true` when logs, statistics and fault records all match
    /// bit-identically.
    #[must_use]
    pub fn is_identical(&self) -> bool {
        self.divergence.is_none() && self.stats_match && self.faults_match
    }

    /// A one-line human-readable verdict.
    #[must_use]
    pub fn describe(&self) -> String {
        if self.is_identical() {
            format!("engines bit-identical over {} events", self.events_compared)
        } else if let Some(d) = &self.divergence {
            d.to_string()
        } else if !self.stats_match {
            format!(
                "event logs match but stats differ: cycle-round {:?} vs event-driven {:?}",
                self.cycle_round_stats, self.event_driven_stats
            )
        } else {
            "event logs and stats match but injected-fault records differ".to_string()
        }
    }
}

/// Runs one scenario — `config` × `workload` × fault `plan` × scheduled
/// timer `switches` — under both engines and compares their event logs,
/// final statistics and injected-fault records bit for bit.
///
/// This is the differ the ROADMAP's engine transition leaned on: the
/// event-driven engine became the default only because this comparison
/// holds across the seeded scenario sweeps in the `engine_equivalence`
/// tests and the `sim` bench's preset matrix.
///
/// # Errors
///
/// Returns an error if either simulator cannot be built or a run deadlocks.
pub fn compare_engines(
    config: &SimConfig,
    workload: &Workload,
    plan: &FaultPlan,
    switches: &[(Cycles, Vec<TimerValue>)],
) -> Result<EngineComparison> {
    let run = |kind: EngineKind| -> Result<(Vec<Event>, SimStats, Vec<crate::InjectedFault>)> {
        let mut sim = SimBuilder::new(config.clone(), workload)
            .probe(EventLogProbe::new())
            .faults(plan.clone())
            .engine(kind)
            .build()?;
        for (at, timers) in switches {
            sim.schedule_timer_switch(*at, timers.clone())?;
        }
        let stats = sim.run()?;
        let injected = sim.injected_faults().to_vec();
        Ok((sim.into_probe().into_events(), stats, injected))
    };
    let (legacy_log, legacy_stats, legacy_faults) = run(EngineKind::CycleRound)?;
    let (event_log, event_stats, event_faults) = run(EngineKind::EventDriven)?;
    let events_compared = legacy_log.len().max(event_log.len());
    Ok(EngineComparison {
        divergence: diff_event_logs(&legacy_log, &event_log),
        stats_match: legacy_stats == event_stats,
        faults_match: legacy_faults == event_faults,
        events_compared,
        cycle_round_stats: legacy_stats,
        event_driven_stats: event_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(cycle: u64, core: usize) -> Event {
        Event { cycle: Cycles::new(cycle), kind: EventKind::Hit { core, line: LineAddr::new(1) } }
    }

    #[test]
    fn identical_logs_do_not_diverge() {
        let a = vec![ev(1, 0), ev(2, 1)];
        assert_eq!(diff_event_logs(&a, &a.clone()), None);
    }

    #[test]
    fn first_mismatch_is_reported() {
        let a = vec![ev(1, 0), ev(2, 1)];
        let b = vec![ev(1, 0), ev(2, 0)];
        let d = diff_event_logs(&a, &b).expect("diverges");
        assert_eq!(d.index, 1);
        assert_eq!(d.cycle_round, Some(ev(2, 1)));
        assert_eq!(d.event_driven, Some(ev(2, 0)));
    }

    #[test]
    fn prefix_logs_diverge_at_the_tail() {
        let a = vec![ev(1, 0), ev(2, 1)];
        let b = vec![ev(1, 0)];
        let d = diff_event_logs(&a, &b).expect("diverges");
        assert_eq!(d.index, 1);
        assert_eq!(d.cycle_round, Some(ev(2, 1)));
        assert_eq!(d.event_driven, None);
    }

    #[test]
    fn wake_entries_order_by_instant_then_sequence() {
        let mut sched = EventSched::default();
        sched.arm(10, WakeSource::TxnEnd);
        sched.arm(5, WakeSource::Switch);
        sched.arm(10, WakeSource::Core(3));
        assert_eq!(sched.next_wake_at(), Some(5));
        let (cores, fault, slot) = sched.pop_due(10);
        assert_eq!(cores, 1 << 3);
        assert!(!fault && !slot);
        assert_eq!(sched.next_wake_at(), None);
    }

    #[test]
    fn core_wakes_at_or_before_now_are_carried() {
        let mut sched = EventSched::default();
        sched.arm_core(7, 2, 7);
        sched.arm_core(7, 1, 9);
        assert_eq!(sched.carry_cores, 1 << 2);
        assert_eq!(sched.next_wake_at(), Some(9));
    }

    #[test]
    fn slot_arming_deduplicates_per_boundary() {
        let mut sched = EventSched::default();
        sched.arm_slot(54);
        sched.arm_slot(54);
        sched.arm_slot(108);
        assert_eq!(sched.heap.len(), 2);
    }
}
