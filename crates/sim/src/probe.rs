//! The streaming instrumentation API: [`SimProbe`] and its combinators.
//!
//! The engine is generic over one probe ([`Simulator`] defaults to
//! [`NoProbe`]): every observable occurrence — protocol events, bus
//! tenures, arbitration decisions, run completion — is pushed through the
//! probe's callbacks as it happens, instead of being accumulated in an
//! all-or-nothing in-memory log. Probes compose structurally: a tuple of
//! probes is a probe that fans every callback out to its elements, so a
//! run can collect metrics *and* a Chrome trace in one pass.
//!
//! Zero cost when absent: [`SimProbe::ACTIVE`] is an associated `const`,
//! and the engine wraps every callback (including the construction of its
//! arguments) in `if P::ACTIVE { … }`. For [`NoProbe`] that constant is
//! `false`, the branch is statically dead and the instrumented hot path
//! monomorphises to exactly the uninstrumented one.
//!
//! [`Simulator`]: crate::Simulator
//!
//! # Examples
//!
//! Counting protocol events with a custom probe:
//!
//! ```
//! use cohort_sim::{EventKind, SimBuilder, SimConfig, SimProbe};
//! use cohort_trace::micro;
//! use cohort_types::Cycles;
//!
//! #[derive(Default)]
//! struct HitCounter(u64);
//!
//! impl SimProbe for HitCounter {
//!     fn on_event(&mut self, _cycle: Cycles, kind: &EventKind) {
//!         if matches!(kind, EventKind::Hit { .. }) {
//!             self.0 += 1;
//!         }
//!     }
//! }
//!
//! let config = SimConfig::builder(2).build()?;
//! let mut probe = HitCounter::default();
//! let mut sim = SimBuilder::new(config, &micro::ping_pong(2, 4)).probe(&mut probe).build()?;
//! let stats = sim.run()?;
//! assert_eq!(probe.0, stats.cores.iter().map(|core| core.hits).sum::<u64>());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use cohort_types::{Cycles, LineAddr};

use crate::event::EventKind;
use crate::{SimConfig, SimStats};

/// What a bus tenure moved: a bare request broadcast, a data transfer, or
/// a broadcast with the data response fused into the same tenure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenureKind {
    /// A request broadcast occupying the bus for the request latency; the
    /// data response follows in a later tenure.
    Broadcast,
    /// A data transfer from `from` (`None` = the shared memory / LLC).
    Transfer {
        /// The supplying core, or `None` for the shared memory.
        from: Option<usize>,
    },
    /// A broadcast whose data response was fused into the same tenure
    /// (the request was immediately serviceable at the snoop instant).
    Fused {
        /// The supplying core, or `None` for the shared memory.
        from: Option<usize>,
    },
}

impl TenureKind {
    /// The supplying core of the data movement, if any.
    #[must_use]
    pub fn from_core(self) -> Option<usize> {
        match self {
            TenureKind::Broadcast => None,
            TenureKind::Transfer { from } | TenureKind::Fused { from } => from,
        }
    }
}

/// One contiguous occupancy of the shared bus, as granted by the arbiter.
///
/// Tenures never overlap (the bus carries one transaction at a time), so a
/// probe can reconstruct the full bus schedule — and per-core bus shares —
/// from this stream alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusTenure {
    /// The core the arbiter granted the bus to.
    pub core: usize,
    /// The cache line the tenure concerns.
    pub line: LineAddr,
    /// First cycle of the tenure.
    pub start: Cycles,
    /// First cycle after the tenure (`end - start` is the occupancy).
    pub end: Cycles,
    /// What the tenure moved.
    pub kind: TenureKind,
}

impl BusTenure {
    /// Bus cycles the tenure occupies.
    #[must_use]
    pub fn duration(&self) -> Cycles {
        self.end - self.start
    }
}

/// A streaming observer of one simulation run.
///
/// All methods default to no-ops, so a probe implements only what it needs.
/// The engine invokes the callbacks in simulation order; cycle stamps are
/// *nearly* sorted (a fused tenure stamps its data-transfer start a few
/// cycles ahead of the grant instant), exactly like the historical event
/// log — see [`EventLogProbe`](crate::EventLogProbe) for a probe that
/// re-sorts them.
pub trait SimProbe {
    /// Whether the engine should invoke this probe at all. The engine
    /// guards every callback — including the construction of its
    /// arguments — with this constant, so an inactive probe costs nothing.
    const ACTIVE: bool = true;

    /// The run is about to start under `config`.
    fn on_start(&mut self, config: &SimConfig) {
        let _ = config;
    }

    /// A protocol event occurred at `cycle`.
    fn on_event(&mut self, cycle: Cycles, kind: &EventKind) {
        let _ = (cycle, kind);
    }

    /// The arbiter granted the bus for one tenure.
    fn on_bus_tenure(&mut self, tenure: &BusTenure) {
        let _ = tenure;
    }

    /// The arbiter granted `granted` at `cycle` while the cores in
    /// `stalled` also held ready candidates (and therefore wait at least
    /// one more tenure).
    fn on_arbitration(&mut self, cycle: Cycles, granted: usize, stalled: &[usize]) {
        let _ = (cycle, granted, stalled);
    }

    /// The run completed; `stats` is final.
    fn on_finish(&mut self, stats: &SimStats) {
        let _ = stats;
    }
}

/// The default probe: observes nothing, costs nothing.
///
/// `NoProbe::ACTIVE` is `false`, so the engine's instrumentation branches
/// are statically eliminated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl SimProbe for NoProbe {
    const ACTIVE: bool = false;
}

/// A mutable reference to a probe is itself a probe, so a caller can keep
/// ownership of the probe while the simulator runs.
impl<P: SimProbe + ?Sized> SimProbe for &mut P {
    const ACTIVE: bool = true;

    fn on_start(&mut self, config: &SimConfig) {
        (**self).on_start(config);
    }

    fn on_event(&mut self, cycle: Cycles, kind: &EventKind) {
        (**self).on_event(cycle, kind);
    }

    fn on_bus_tenure(&mut self, tenure: &BusTenure) {
        (**self).on_bus_tenure(tenure);
    }

    fn on_arbitration(&mut self, cycle: Cycles, granted: usize, stalled: &[usize]) {
        (**self).on_arbitration(cycle, granted, stalled);
    }

    fn on_finish(&mut self, stats: &SimStats) {
        (**self).on_finish(stats);
    }
}

macro_rules! impl_probe_tuple {
    ($($name:ident : $idx:tt),+) => {
        /// A tuple of probes is a probe stack: every callback fans out to
        /// each element in order.
        impl<$($name: SimProbe),+> SimProbe for ($($name,)+) {
            const ACTIVE: bool = $($name::ACTIVE)||+;

            fn on_start(&mut self, config: &SimConfig) {
                $(self.$idx.on_start(config);)+
            }

            fn on_event(&mut self, cycle: Cycles, kind: &EventKind) {
                $(self.$idx.on_event(cycle, kind);)+
            }

            fn on_bus_tenure(&mut self, tenure: &BusTenure) {
                $(self.$idx.on_bus_tenure(tenure);)+
            }

            fn on_arbitration(&mut self, cycle: Cycles, granted: usize, stalled: &[usize]) {
                $(self.$idx.on_arbitration(cycle, granted, stalled);)+
            }

            fn on_finish(&mut self, stats: &SimStats) {
                $(self.$idx.on_finish(stats);)+
            }
        }
    };
}

impl_probe_tuple!(A: 0, B: 1);
impl_probe_tuple!(A: 0, B: 1, C: 2);
impl_probe_tuple!(A: 0, B: 1, C: 2, D: 3);

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        events: u64,
        tenures: u64,
        grants: u64,
        started: bool,
        finished: bool,
    }

    impl SimProbe for Counter {
        fn on_start(&mut self, _config: &SimConfig) {
            self.started = true;
        }

        fn on_event(&mut self, _cycle: Cycles, _kind: &EventKind) {
            self.events += 1;
        }

        fn on_bus_tenure(&mut self, _tenure: &BusTenure) {
            self.tenures += 1;
        }

        fn on_arbitration(&mut self, _cycle: Cycles, _granted: usize, _stalled: &[usize]) {
            self.grants += 1;
        }

        fn on_finish(&mut self, _stats: &SimStats) {
            self.finished = true;
        }
    }

    #[test]
    fn no_probe_is_statically_inactive() {
        const { assert!(!NoProbe::ACTIVE) };
        const { assert!(!<(NoProbe, NoProbe)>::ACTIVE) };
        const { assert!(<(NoProbe, Counter)>::ACTIVE) };
        const { assert!(<(Counter, NoProbe, NoProbe)>::ACTIVE) };
    }

    #[test]
    fn tuples_fan_out_to_every_element() {
        let mut stack = (Counter::default(), Counter::default());
        let kind = EventKind::Hit { core: 0, line: LineAddr::new(1) };
        stack.on_event(Cycles::ZERO, &kind);
        let tenure = BusTenure {
            core: 0,
            line: LineAddr::new(1),
            start: Cycles::ZERO,
            end: Cycles::new(4),
            kind: TenureKind::Broadcast,
        };
        stack.on_bus_tenure(&tenure);
        stack.on_arbitration(Cycles::ZERO, 0, &[1]);
        assert_eq!(stack.0.events, 1);
        assert_eq!(stack.1.events, 1);
        assert_eq!(stack.0.tenures, 1);
        assert_eq!(stack.1.grants, 1);
    }

    #[test]
    fn tenure_duration_and_source() {
        let tenure = BusTenure {
            core: 2,
            line: LineAddr::new(9),
            start: Cycles::new(10),
            end: Cycles::new(64),
            kind: TenureKind::Fused { from: Some(1) },
        };
        assert_eq!(tenure.duration().get(), 54);
        assert_eq!(tenure.kind.from_core(), Some(1));
        assert_eq!(TenureKind::Broadcast.from_core(), None);
        assert_eq!(TenureKind::Transfer { from: None }.from_core(), None);
    }
}
