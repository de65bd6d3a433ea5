//! `cohort-fleet` — a sharded, persistent sweep service for CoHoRT
//! experiment and GA-optimization campaigns.
//!
//! The fleet turns the workspace's one-shot drivers
//! ([`cohort::run_experiment`], [`cohort_optim::GaRun`]) into a service:
//!
//! - **[`JobSpec`]** — a serializable unit of work (an experiment or a GA
//!   run) whose [`JobSpec::fingerprint`] content-addresses everything that
//!   determines its outcome.
//! - **[`ResultStore`]** — a content-addressed result store keyed on those
//!   fingerprints. Optionally mirrored to disk, so the memo persists
//!   across runs and is shared by every client of the same directory.
//!   Every read re-verifies a payload fingerprint; tampering surfaces as
//!   [`cohort_types::Error::StoreCorrupt`].
//! - **[`JobQueue`]** — epoch/lease claim coordination. A crashed or
//!   killed worker's lease expires, the job returns to the queue at the
//!   next [`cohort_types::Epoch`], and a sibling shard re-claims it;
//!   stale completions from the dead epoch are rejected with
//!   [`cohort_types::Error::LeaseExpired`]. Because every job is a pure
//!   function of its spec, the re-run is bit-identical — recovery loses
//!   time, never changes answers.
//! - **[`WorkerShard`]** — the claim/execute/complete loop. GA jobs
//!   stream checkpoints into the store so a re-claim resumes mid-run.
//! - **[`Fleet`] / [`FleetClient`]** — the front end: a builder spawns
//!   the shards, clients absorb bursts of concurrent submissions with
//!   dedup-on-submit (duplicate specs collapse onto one execution, and
//!   specs already in the persistent store skip the queue entirely).
//!
//! See `DESIGN.md` §9 for the architecture and the determinism-on-reclaim
//! argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod clock;
pub mod disk;
mod queue;
mod spec;
mod store;
mod worker;

pub use client::{Fleet, FleetBuilder, FleetClient, FleetHealth, FleetStats, Ticket};
pub use clock::{Clock, SystemClock, TestClock};
pub use disk::{Disk, FaultyDisk, SystemDisk};
pub use queue::{Claim, JobQueue, QuarantineDiag, QueueStats, WaitOutcome};
pub use spec::{CertifyBatch, JobSpec};
pub use store::{payload_fingerprint, CorruptSidecar, ResultStore, StoreBudget, StoreHealth};
pub use worker::{execute_experiment, ga_payload, ShardStats, WorkerId, WorkerShard};
