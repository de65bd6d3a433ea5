//! Cycle-accurate cache-system simulator with heterogeneous
//! (time-based / MSI) coherence — the [Octopus] substitute of the CoHoRT
//! reproduction.
//!
//! The simulator models the system of the paper's §II and §VIII:
//!
//! - trace-driven cores with non-blocking private caches
//!   (hits-over-misses, configurable MSHRs);
//! - 16 KiB direct-mapped private L1s with 64 B lines;
//! - an inclusive shared LLC, either *perfect* (the paper's headline
//!   configuration) or *finite* (8-way LRU with back-invalidation and a
//!   fixed-latency main memory — the footnote-1 configuration);
//! - a shared snooping bus with pluggable arbitration
//!   ([`ArbiterKind::Rrof`], plain round-robin, PENDULUM-style TDM, FCFS);
//! - CoHoRT's per-core **timer threshold registers**: θ ≥ 0 selects
//!   time-based coherence, the special θ = −1 ([`TimerValue::Msi`]) reduces
//!   the core to standard MSI snooping — both classes coexist in one
//!   coherent system;
//! - run-time re-programming of the timer registers
//!   ([`Simulator::schedule_timer_switch`]), the hardware half of the
//!   paper's mode-switch mechanism.
//!
//! [Octopus]: https://doi.org/10.1109/LCA.2024.3355872
//! [`TimerValue::Msi`]: cohort_types::TimerValue::Msi
//!
//! # Examples
//!
//! A heterogeneous quad-core: two timed cores, two MSI cores, all coherent.
//!
//! ```
//! use cohort_sim::{SimBuilder, SimConfig};
//! use cohort_trace::micro;
//! use cohort_types::TimerValue;
//!
//! let config = SimConfig::builder(4)
//!     .timer(0, TimerValue::timed(100)?)
//!     .timer(1, TimerValue::timed(20)?)
//!     .timer(2, TimerValue::MSI)
//!     .timer(3, TimerValue::MSI)
//!     .build()?;
//! let workload = micro::ping_pong(4, 8);
//! let mut sim = SimBuilder::new(config, &workload).build()?;
//! let stats = sim.run()?;
//! assert!(stats.cores.iter().all(|c| c.accesses() == 8));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
mod cache;
mod chrome_trace;
mod coherence;
mod config;
mod core_model;
mod engine;
mod event;
mod fault;
mod invariant;
mod metrics;
mod probe;
mod sched;
mod stats;
mod timer;
mod watchdog;

pub use arbiter::{Arbiter, Candidate, CandidateKind};
pub use cache::{L1Line, LineState, SetAssocCache};
pub use chrome_trace::ChromeTraceProbe;
pub use coherence::{Owner, ReqKind, Waiter};
pub use config::{
    ArbiterKind, CacheGeometry, DataPath, LlcModel, ProtocolFlavor, SetIndexer, SimConfig,
    SimConfigBuilder,
};
pub use engine::{SimBuilder, Simulator};
pub use event::{Event, EventKind, EventLogProbe, InvalidateCause};
pub use fault::{FaultKind, FaultPlan, FaultSpec, InjectedFault};
pub use invariant::{InvariantKind, InvariantProbe, InvariantViolation};
pub use metrics::{CoreMetrics, MetricsProbe, MetricsReport};
pub use probe::{BusTenure, NoProbe, SimProbe, TenureKind};
pub use stats::{CoreStats, SimStats};
pub use timer::{release_time, CountdownCounter};
pub use watchdog::{WcmlGuard, WcmlViolation, WcmlViolationKind};
