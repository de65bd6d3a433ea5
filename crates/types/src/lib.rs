//! Shared vocabulary types for the CoHoRT mixed-criticality coherence stack.
//!
//! This crate defines the newtypes and small value types used throughout the
//! reproduction of *CoHoRT: Criticality and Requirement Aware Heterogeneous
//! Coherence for Mixed Criticality Systems* (DATE 2025):
//!
//! - hardware identifiers ([`CoreId`], [`Address`], [`LineAddr`]),
//! - time ([`Cycles`]),
//! - the coherence timer register value ([`TimerValue`]: a non-negative θ or
//!   the special MSI value θ = −1),
//! - the mixed-criticality task model ([`Criticality`], [`Mode`], [`Task`]),
//! - the latency parameters of the modelled memory hierarchy
//!   ([`LatencyConfig`]) and the per-request bound of Eq. 1 they feed
//!   ([`wcl_miss`]),
//! - the fleet coordination vocabulary ([`Fingerprint`] content-addresses,
//!   claim [`Epoch`]s and [`WorkerId`]s),
//! - a common error type ([`Error`]),
//! - and the workspace's shared primitives, each defined once: the
//!   mergeable [`Log2Histogram`], the [`splitmix64`] seeded-stream mixer
//!   and the [`SeedRng`] generator built on it,
//!   the bounded worker pool ([`run_indexed`], [`default_workers`]) and
//!   the dual-stream FNV-1a digest behind [`FingerprintBuilder`].
//!
//! # Examples
//!
//! ```
//! use cohort_types::{Criticality, LatencyConfig, Mode, TimerValue};
//!
//! // The paper's evaluation latencies: hit 1, request 4, data 50.
//! let lat = LatencyConfig::paper();
//! assert_eq!(lat.slot_width().get(), 54);
//!
//! // A core running time-based coherence with a 300-cycle timer...
//! let theta = TimerValue::timed(300)?;
//! assert!(theta.is_timed());
//! // ...and one reduced to plain MSI snooping (θ = −1).
//! assert!(TimerValue::MSI.is_msi());
//!
//! // Five criticality levels as mandated by DO-178C.
//! let level_a = Criticality::new(5)?;
//! assert!(level_a >= Criticality::new(1)?);
//! let _mode = Mode::new(2)?;
//! # Ok::<(), cohort_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod criticality;
mod error;
mod fleet;
mod histogram;
mod ids;
mod latency;
mod pool;
mod seed;
mod task;
mod time;
mod timer;

pub use criticality::{Criticality, Mode};
pub use error::Error;
pub use fleet::{Epoch, Fingerprint, FingerprintBuilder, WorkerId};
pub use histogram::Log2Histogram;
pub use ids::{Address, CoreId, LineAddr};
pub use latency::{wcl_miss, LatencyConfig};
pub use pool::{default_workers, panic_message, run_indexed};
pub use seed::{splitmix64, SampleRange, SeedRng, Uniform};
pub use task::{Requirements, Task};
pub use time::Cycles;
pub use timer::TimerValue;

/// Convenience result alias used across the workspace.
pub type Result<T, E = Error> = core::result::Result<T, E>;
