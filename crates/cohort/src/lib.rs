//! **CoHoRT** — criticality- and requirement-aware heterogeneous cache
//! coherence for mixed-criticality systems (reproduction of the DATE 2025
//! paper by Bayes & Hassan).
//!
//! CoHoRT lets every core of a shared-bus multicore run either a
//! **time-based** coherence protocol (a per-core timer θ protects fetched
//! lines from interference, making private-cache hits *guaranteeable*) or
//! the **standard MSI snooping** protocol (θ = −1), while the whole MPSoC
//! stays coherent. This crate ties the substrates together into the
//! system-level API:
//!
//! - [`SystemSpec`]: the mixed-criticality platform model (§II) — cores,
//!   criticality levels, per-mode WCML requirements, latencies;
//! - [`Protocol`]: ready-made configurations for CoHoRT and the paper's
//!   baselines (MSI, MSI+FCFS, PCC, PENDULUM);
//! - [`ModeSetup`]: the offline flow of Fig. 2a — one GA run per
//!   operational mode (each warm-started from the previous mode's
//!   solution), producing the per-core [`ModeSwitchLut`];
//! - [`ModeController`]: the run-time half of §VI — when a requirement
//!   tightens, escalate the mode (degrading lower-criticality cores to MSI
//!   instead of suspending them) until the bound fits;
//! - [`run_experiment`]: the simulation + analysis driver for a single
//!   protocol × workload pair;
//! - [`Sweep`] / [`ExperimentJob`]: the batch sweep engine — a bounded
//!   worker pool (sized from the machine's available parallelism) that
//!   runs many experiments, isolates per-job panics into [`JobError`]s,
//!   reports progress through [`SweepObserver`] hooks and returns every
//!   job's outcome as a structured [`SweepReport`].
//!
//! # Examples
//!
//! End-to-end: specify a system, optimize its timers, simulate, and check
//! the measured WCML against the analytical bound.
//!
//! ```
//! use cohort::{run_experiment, Protocol, SystemSpec};
//! use cohort_trace::micro;
//! use cohort_types::{Criticality, Cycles};
//!
//! let spec = SystemSpec::builder()
//!     .core(Criticality::new(2)?)
//!     .core(Criticality::new(1)?)
//!     .build()?;
//! let workload = micro::line_bursts(2, 4, 50);
//! let timers = vec![
//!     cohort_types::TimerValue::timed(60)?,
//!     cohort_types::TimerValue::MSI,
//! ];
//! let outcome = run_experiment(&spec, &Protocol::Cohort { timers }, &workload)?;
//! let bound = outcome.bounds.as_ref().expect("CoHoRT is analysable")[0];
//! assert!(outcome.stats.cores[0].total_latency <= bound.wcml.expect("bounded"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod controller;
mod degrade;
mod experiment;
pub mod hardware;
mod modes;
mod protocol;
pub mod related;
mod system;

pub use batch::{
    ExperimentJob, JobError, JobProgress, JobResult, Sweep, SweepBuilder, SweepObserver,
    SweepReport, SweepRunner,
};
pub use controller::{ModeController, ModeDecision};
pub use degrade::{
    run_with_watchdog, DegradationReport, PostSwitchCompliance, SwitchRecord, WatchdogPolicy,
};
pub use experiment::{run_experiment, run_experiment_with_metrics, ExperimentOutcome};
pub use modes::{ModeConfiguration, ModeEntry, ModeSetup, ModeSwitchLut};
pub use protocol::{Protocol, ProtocolKind};
pub use system::{CoreSpec, SystemSpec, SystemSpecBuilder};

// Re-export the layered crates so downstream users need one dependency.
pub use cohort_analysis as analysis;
pub use cohort_optim as optim;
pub use cohort_sim as sim;
pub use cohort_trace as trace;
pub use cohort_types as types;
