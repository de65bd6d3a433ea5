//! Deterministic fault injection for the simulator.
//!
//! A [`FaultPlan`] is an explicit, fully-determined list of [`FaultSpec`]s:
//! which fault, on which core, armed from which cycle. Plans are either
//! hand-written (micro tests) or derived from a seed with
//! [`FaultPlan::seeded`], which draws every parameter from the workspace's
//! one splitmix64 ([`cohort_types::splitmix64`]), the stream discipline the
//! GA engine also seeds its per-generation RNGs from — so a fault campaign is reproducible bit-for-bit from `(seed,
//! cores, horizon, count)` alone.
//!
//! # Determinism contract
//!
//! - A [`Simulator`](crate::Simulator) built with [`FaultPlan::empty`] is
//!   **bit-identical** to one built with no plan at all: every injection
//!   hook in the engine is gated on the plan being non-empty and the empty
//!   plan follows the exact unfaulted code paths (event log, metrics and
//!   statistics included).
//! - A non-empty plan injects each fault at the first dispatched instant
//!   at or after its `at` cycle where the fault is applicable; every
//!   pending activation is a wake source, so the first attempt does not
//!   depend on how the caller slices `run_until`.
//!
//! # Fault taxonomy
//!
//! | kind | seam | primary detector |
//! |---|---|---|
//! | [`FaultKind::BusDrop`] | arbitration grant | `WcmlGuard` latency bound |
//! | [`FaultKind::BusDuplicate`] | bus tenure | `WcmlGuard` latency bound |
//! | [`FaultKind::BusDelay`] | bus tenure | `WcmlGuard` latency bound |
//! | [`FaultKind::LineCorruption`] | L1 state | `InvariantProbe` SWMR |
//! | [`FaultKind::SpuriousEviction`] | L1 residency | `InvariantProbe` shadow divergence |
//! | [`FaultKind::TimerStuck`] | holder release | `WcmlGuard` bound / `InvariantProbe` liveness |
//! | [`FaultKind::TimerEarlyExpiry`] | holder release | `InvariantProbe` timer protection |
//! | [`FaultKind::TimerCorruption`] | θ register | `WcmlGuard` latency bound |
//! | [`FaultKind::CoreStall`] | core pipeline | `WcmlGuard` progress |

use cohort_types::{splitmix64, Cycles, TimerValue};

/// One injectable hardware/timing fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A granted broadcast is lost before any device snoops it: the bus
    /// slot is burned, nothing is enqueued, and the requester retries at a
    /// later grant (a lost coherence message on a real bus).
    BusDrop,
    /// The broadcast is replayed on the wire: the tenure that carries it
    /// occupies the bus for one extra request latency.
    BusDuplicate,
    /// The bus holds the granted tenure for `cycles` extra cycles (a
    /// jammed or glitching bus).
    BusDelay {
        /// Extra bus-busy cycles appended to the tenure.
        cycles: u64,
    },
    /// A resident Shared line's state register flips to Modified without a
    /// bus transaction — the corrupted controller believes it observed a
    /// write-granting fill, and the event stream records that belief.
    LineCorruption,
    /// A resident line silently drops out of the private cache. The global
    /// bookkeeping is updated (the hardware's directory saw the writeback
    /// wire) but no event is emitted — probes reconstructing shadow state
    /// from the event stream diverge, exactly like the model checker's
    /// `skip-evict-writeback` mutation.
    SpuriousEviction,
    /// The target core's countdown timers refuse to expire during
    /// `[at, at + cycles)`: releases that would fall inside the window are
    /// withheld until it closes.
    TimerStuck {
        /// Window length in cycles (keep well below the engine's 2 M-cycle
        /// deadlock watchdog).
        cycles: u64,
    },
    /// The target core's countdown timers read expired during
    /// `[at, at + cycles)`: a pending dispossession is served immediately
    /// instead of waiting for the θ boundary — the engine-level twin of
    /// the model checker's `ignore-timer-protection` mutation.
    TimerEarlyExpiry {
        /// Window length in cycles.
        cycles: u64,
    },
    /// The target core's θ threshold register is silently overwritten with
    /// `value` (a register bit-flip). Lines filled afterwards load the
    /// corrupted θ; no `TimerSwitch` event is emitted.
    TimerCorruption {
        /// The corrupted register contents.
        value: TimerValue,
    },
    /// The target core's pipeline freezes for `cycles` cycles (its next
    /// issue slides by that much).
    CoreStall {
        /// Stall length in cycles.
        cycles: u64,
    },
}

impl FaultKind {
    /// A stable, kebab-case identifier for reports and JSON documents.
    #[must_use]
    pub fn slug(&self) -> &'static str {
        match self {
            FaultKind::BusDrop => "bus-drop",
            FaultKind::BusDuplicate => "bus-duplicate",
            FaultKind::BusDelay { .. } => "bus-delay",
            FaultKind::LineCorruption => "line-corruption",
            FaultKind::SpuriousEviction => "spurious-eviction",
            FaultKind::TimerStuck { .. } => "timer-stuck",
            FaultKind::TimerEarlyExpiry { .. } => "timer-early-expiry",
            FaultKind::TimerCorruption { .. } => "timer-corruption",
            FaultKind::CoreStall { .. } => "core-stall",
        }
    }
}

/// One scheduled fault: a kind, a target core and an arming cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// The core the fault targets (bus faults fire on this core's grants,
    /// timer/cache/core faults act on its private state).
    pub core: usize,
    /// The cycle from which the fault is armed. It fires at the first
    /// applicable opportunity at or after this instant.
    pub at: Cycles,
}

/// A deterministic schedule of faults for one simulation run.
///
/// # Examples
///
/// ```
/// use cohort_sim::{FaultKind, FaultPlan, FaultSpec};
/// use cohort_types::Cycles;
///
/// let plan = FaultPlan::new(vec![FaultSpec {
///     kind: FaultKind::BusDelay { cycles: 3000 },
///     core: 1,
///     at: Cycles::new(500),
/// }]);
/// assert_eq!(plan.specs().len(), 1);
/// assert!(FaultPlan::empty().is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    seed: Option<u64>,
}

impl FaultPlan {
    /// The empty plan — a run with it is bit-identical to a fault-free run.
    #[must_use]
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// A plan with an explicit fault list.
    #[must_use]
    pub fn new(specs: Vec<FaultSpec>) -> Self {
        FaultPlan { specs, seed: None }
    }

    /// Derives a `count`-fault plan from `seed`: the `k`-th fault's kind,
    /// target core, arming cycle (in `[1, horizon]`) and magnitude all come
    /// from splitmix64 streams of the seed, mirroring the GA engine's RNG
    /// discipline. Same arguments ⇒ same plan, on every host.
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `horizon` is zero.
    #[must_use]
    pub fn seeded(seed: u64, cores: usize, horizon: u64, count: usize) -> Self {
        assert!(cores > 0, "a fault plan needs at least one core");
        assert!(horizon > 0, "a fault plan needs a non-empty horizon");
        let specs = (0..count)
            .map(|k| {
                let v = splitmix64(seed, k as u64);
                let m = splitmix64(seed, (k as u64) | (1 << 32));
                let kind = match v % 9 {
                    0 => FaultKind::BusDrop,
                    1 => FaultKind::BusDuplicate,
                    2 => FaultKind::BusDelay { cycles: 1_000 + m % 4_000 },
                    3 => FaultKind::LineCorruption,
                    4 => FaultKind::SpuriousEviction,
                    5 => FaultKind::TimerStuck { cycles: 2_000 + m % 8_000 },
                    6 => FaultKind::TimerEarlyExpiry { cycles: 1_000 + m % 4_000 },
                    7 => FaultKind::TimerCorruption {
                        value: TimerValue::timed(1_000 + m % 60_000)
                            .expect("derived θ is within the 16-bit range"),
                    },
                    _ => FaultKind::CoreStall { cycles: 2_000 + m % 8_000 },
                };
                FaultSpec {
                    kind,
                    core: ((v >> 8) as usize) % cores,
                    at: Cycles::new(1 + (v >> 16) % horizon),
                }
            })
            .collect();
        FaultPlan { specs, seed: Some(seed) }
    }

    /// The scheduled faults.
    #[must_use]
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// The generating seed, when the plan came from [`FaultPlan::seeded`].
    #[must_use]
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// `true` when the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// The record of one fault the engine actually applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Index of the spec in the plan.
    pub index: usize,
    /// The injected fault.
    pub kind: FaultKind,
    /// The targeted core.
    pub core: usize,
    /// The cycle the spec was armed from.
    pub scheduled: Cycles,
    /// The cycle the engine applied it (window faults record the window
    /// start; bus faults record the grant they perturbed).
    pub fired: Cycles,
}

/// Runtime fault bookkeeping carried by the simulator: the plan plus
/// per-spec fired flags and the injection log.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    fired: Vec<bool>,
    injected: Vec<InjectedFault>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let fired = vec![false; plan.specs.len()];
        FaultState { plan, fired, injected: Vec::new() }
    }

    /// `true` when every hook may take its unfaulted fast path. This is the
    /// bit-identity gate: an empty plan never perturbs the engine.
    pub(crate) fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    pub(crate) fn injected(&self) -> &[InjectedFault] {
        &self.injected
    }

    /// `true` when the plan contains faults that may desynchronize the L1
    /// arrays from the coherence bookkeeping (relaxes the engine's internal
    /// debug assertions about that agreement).
    #[inline]
    pub(crate) fn may_corrupt_state(&self) -> bool {
        self.plan
            .specs
            .iter()
            .any(|s| matches!(s.kind, FaultKind::LineCorruption | FaultKind::SpuriousEviction))
    }

    fn record(&mut self, index: usize, now: Cycles) {
        self.fired[index] = true;
        let spec = self.plan.specs[index];
        self.injected.push(InjectedFault {
            index,
            kind: spec.kind,
            core: spec.core,
            scheduled: spec.at,
            fired: now,
        });
    }

    /// The earliest arming instant of a not-yet-fired fault, which the
    /// engine arms as a wake (so a first attempt does not depend on how a
    /// caller slices `run_until`).
    #[inline]
    pub(crate) fn next_activation(&self) -> Option<Cycles> {
        self.plan
            .specs
            .iter()
            .zip(&self.fired)
            .filter(|(_, &fired)| !fired)
            .map(|(s, _)| s.at)
            .min()
    }

    /// `true` when some unfired step fault is armed at or before `now`.
    /// The engine attempts these at every instant where some wake source
    /// is genuinely due, until they land.
    #[inline]
    pub(crate) fn has_due_step_fault(&self, now: Cycles) -> bool {
        self.plan.specs.iter().zip(&self.fired).any(|(s, &fired)| {
            !fired
                && s.at <= now
                && !matches!(
                    s.kind,
                    FaultKind::BusDrop | FaultKind::BusDuplicate | FaultKind::BusDelay { .. }
                )
        })
    }

    /// Armed, unfired faults the engine applies from its step loop
    /// (everything except the bus faults, which fire at grant time).
    #[inline]
    pub(crate) fn due_step_faults(&self, now: Cycles) -> Vec<(usize, FaultSpec)> {
        self.plan
            .specs
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                !self.fired[*i]
                    && s.at <= now
                    && !matches!(
                        s.kind,
                        FaultKind::BusDrop | FaultKind::BusDuplicate | FaultKind::BusDelay { .. }
                    )
            })
            .map(|(i, s)| (i, *s))
            .collect()
    }

    /// Marks a step fault as applied at `now`.
    #[inline]
    pub(crate) fn mark_fired(&mut self, index: usize, now: Cycles) {
        self.record(index, now);
    }

    /// Consumes an armed [`FaultKind::BusDrop`] for a grant of `core` at
    /// `now`, if any.
    #[inline]
    pub(crate) fn take_bus_drop(&mut self, now: Cycles, core: usize) -> bool {
        let hit = self.plan.specs.iter().enumerate().find(|(i, s)| {
            !self.fired[*i] && s.core == core && s.at <= now && matches!(s.kind, FaultKind::BusDrop)
        });
        if let Some((i, _)) = hit {
            self.record(i, now);
            true
        } else {
            false
        }
    }

    /// Consumes armed [`FaultKind::BusDelay`]/[`FaultKind::BusDuplicate`]
    /// faults for a tenure granted to `core` at `now`, returning the extra
    /// bus-busy cycles they add (`request_latency` per duplicate).
    #[inline]
    pub(crate) fn take_bus_extra(
        &mut self,
        now: Cycles,
        core: usize,
        request_latency: Cycles,
    ) -> Cycles {
        let mut extra = Cycles::ZERO;
        for i in 0..self.plan.specs.len() {
            if self.fired[i] {
                continue;
            }
            let s = self.plan.specs[i];
            if s.core != core || s.at > now {
                continue;
            }
            match s.kind {
                FaultKind::BusDelay { cycles } => {
                    extra += Cycles::new(cycles);
                    self.record(i, now);
                }
                FaultKind::BusDuplicate => {
                    extra += request_latency;
                    self.record(i, now);
                }
                _ => {}
            }
        }
        extra
    }

    /// Applies the active timer-window faults of `holder` to a computed
    /// release instant. Pure in its inputs (the engine calls it from hit
    /// classification, candidate readiness, next-event scheduling and
    /// switch latching alike, and all must agree).
    #[inline]
    pub(crate) fn adjust_release(&self, holder: usize, normal: Cycles, pending: Cycles) -> Cycles {
        let mut release = normal;
        for s in &self.plan.specs {
            if s.core != holder {
                continue;
            }
            match s.kind {
                FaultKind::TimerStuck { cycles } => {
                    let end = s.at + Cycles::new(cycles);
                    if release >= s.at && release < end {
                        release = end;
                    }
                }
                FaultKind::TimerEarlyExpiry { cycles } => {
                    let end = s.at + Cycles::new(cycles);
                    let forced = pending.max(s.at);
                    if release > s.at && forced < end && forced < release {
                        release = forced;
                    }
                }
                _ => {}
            }
        }
        release
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan::seeded(42, 4, 10_000, 8);
        let b = FaultPlan::seeded(42, 4, 10_000, 8);
        let c = FaultPlan::seeded(43, 4, 10_000, 8);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, c, "different seed, different plan");
        assert_eq!(a.specs().len(), 8);
        assert_eq!(a.seed(), Some(42));
        for s in a.specs() {
            assert!(s.core < 4);
            assert!(s.at.get() >= 1 && s.at.get() <= 10_000);
        }
    }

    #[test]
    fn mix_matches_the_ga_stream_discipline() {
        // Fault schedules draw from the workspace splitmix64, the same
        // finalizer the GA engine uses: identical constants and shift
        // distances mean the same (seed, stream) pair always produces the
        // same draw.
        assert_eq!(splitmix64(0, 0), 0);
        assert_ne!(splitmix64(1, 0), splitmix64(1, 1));
        assert_eq!(splitmix64(7, 3), splitmix64(7, 3));
    }

    #[test]
    fn stuck_window_defers_release_to_window_end() {
        let plan = FaultPlan::new(vec![FaultSpec {
            kind: FaultKind::TimerStuck { cycles: 100 },
            core: 0,
            at: Cycles::new(50),
        }]);
        let state = FaultState::new(plan);
        // A release inside [50, 150) slides to 150.
        assert_eq!(state.adjust_release(0, Cycles::new(80), Cycles::new(70)).get(), 150);
        // Releases outside the window, or of another core, are untouched.
        assert_eq!(state.adjust_release(0, Cycles::new(20), Cycles::new(10)).get(), 20);
        assert_eq!(state.adjust_release(0, Cycles::new(200), Cycles::new(190)).get(), 200);
        assert_eq!(state.adjust_release(1, Cycles::new(80), Cycles::new(70)).get(), 80);
    }

    #[test]
    fn early_expiry_forces_release_at_pending() {
        let plan = FaultPlan::new(vec![FaultSpec {
            kind: FaultKind::TimerEarlyExpiry { cycles: 100 },
            core: 2,
            at: Cycles::new(50),
        }]);
        let state = FaultState::new(plan);
        // A protected release at 120 with a request pending since 60 is
        // forced down to the pending instant.
        assert_eq!(state.adjust_release(2, Cycles::new(120), Cycles::new(60)).get(), 60);
        // Pending before the window: forced to the window start.
        assert_eq!(state.adjust_release(2, Cycles::new(120), Cycles::new(10)).get(), 50);
        // Releases already due before the window stay put.
        assert_eq!(state.adjust_release(2, Cycles::new(30), Cycles::new(10)).get(), 30);
    }

    #[test]
    fn bus_faults_are_consumed_once() {
        let plan = FaultPlan::new(vec![
            FaultSpec { kind: FaultKind::BusDrop, core: 1, at: Cycles::new(10) },
            FaultSpec { kind: FaultKind::BusDelay { cycles: 500 }, core: 1, at: Cycles::new(10) },
        ]);
        let mut state = FaultState::new(plan);
        assert!(!state.take_bus_drop(Cycles::new(5), 1), "not armed yet");
        assert!(!state.take_bus_drop(Cycles::new(20), 0), "wrong core");
        assert!(state.take_bus_drop(Cycles::new(20), 1));
        assert!(!state.take_bus_drop(Cycles::new(30), 1), "one-shot");
        let extra = state.take_bus_extra(Cycles::new(20), 1, Cycles::new(4));
        assert_eq!(extra.get(), 500);
        assert_eq!(state.take_bus_extra(Cycles::new(30), 1, Cycles::new(4)), Cycles::ZERO);
        assert_eq!(state.injected().len(), 2);
        assert!(state.next_activation().is_none());
    }
}
