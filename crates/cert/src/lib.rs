//! # cohort-cert — Monte Carlo certification over the CoHoRT fleet
//!
//! Certification for a mixed-criticality coherence design is a population
//! question, not a single-run question: *across millions of seeded
//! campaigns, how often does the watchdog detect an injected fault, how
//! fast, how often does it convict a clean machine, and what fraction of
//! random task sets are schedulable at each utilisation?* This crate
//! answers it by streaming seeded trials through the existing
//! [`cohort-fleet`](cohort_fleet) service and keeping **only streaming
//! aggregates** — rates with Wilson confidence intervals, log-scale
//! detection-latency histograms, schedulability curves — never a per-run
//! report.
//!
//! The pipeline:
//!
//! 1. [`trial`] — pure seeded samplers. [`FaultCampaignSpace`] maps a seed
//!    to a (workload, fault plan) pair run through
//!    [`cohort::run_with_watchdog`]; every `clean_every`-th seed is a
//!    fault-free **control arm** whose convictions are false convictions
//!    by construction. [`SchedSpace`] maps a seed to a random periodic
//!    task set judged by `cohort-analysis` response-time analysis.
//! 2. [`batch`] — [`CertBatch`] blocks of consecutive seeds implement the
//!    fleet's [`cohort_fleet::CertifyBatch`] trait, so certification jobs
//!    are content-addressed: killed-worker recovery and cross-run
//!    memoization apply exactly as for experiments and GA runs.
//! 3. [`estimate`] — mergeable streaming estimators ([`FaultAggregate`],
//!    [`SchedAggregate`]); merging per-batch aggregates in submission
//!    order is bit-identical to one sequential pass.
//! 4. [`minimize`] — every conviction is auto-minimized through the
//!    `cohort-verif` replay harness into a reproducible
//!    [`Counterexample`] workload: prefix-cut at the violation, greedily
//!    shrunk while it still convicts, double-checked to replay clean on
//!    the faithful engine and to re-convict under the original plan.
//! 5. [`driver`] — [`run_certification`] wires it together over a fleet.
//!
//! Everything is deterministic: two runs of the same [`CertConfig`]
//! produce bit-identical [`CertOutcome::aggregate_json`] documents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod driver;
pub mod estimate;
pub mod minimize;
pub mod trial;

pub use batch::{Campaign, CertBatch};
pub use driver::{run_certification, CertConfig, CertOutcome};
pub use estimate::{
    wilson, FaultAggregate, Rate, SchedAggregate, SchedBucket, CONVICTING_SEEDS_CAP, WILSON_Z95,
};
pub use minimize::Counterexample;
pub use trial::{FaultCampaignSpace, FaultTrialOutcome, SchedSpace, SchedTrialOutcome};
