//! Worst-case timing analysis for CoHoRT and its baselines.
//!
//! This crate implements the paper's §IV and the static cache analysis its
//! optimization engine (§V) uses as a black box:
//!
//! - [`wcl_miss`] — the per-request worst-case latency bound of **Eq. 1**
//!   for CoHoRT's heterogeneous protocol under RROF arbitration;
//! - [`wcml_timed`] / [`wcml_snoop`] — the whole-task worst-case memory
//!   latency of **Eq. 2** (timed cores, with guaranteed hits) and **Eq. 3**
//!   (MSI cores, all accesses assumed misses);
//! - [`guaranteed_hits`] — the in-isolation static cache analysis that
//!   lower-bounds a timed core's hits: a line is only trusted for θ cycles
//!   after each fill, because an adversarial co-runner can steal it at the
//!   first counter expiry; [`stable_hits`] adds the region of timer and
//!   miss-penalty values that replay the same walk;
//! - [`theta_saturation`] — the sweep that finds the timer value at which a
//!   task's guaranteed hits saturate (the upper bound of the optimization
//!   search box);
//! - [`wcl_pcc`] and [`wcl_pendulum`] — per-request bounds for the two
//!   baselines of the evaluation (Figure 5), derived with the same
//!   methodology against this repository's bus model;
//! - [`analyze_cohort`], [`analyze_pcc`], [`analyze_pendulum`] — whole-
//!   system analyses pairing each core with its WCML bound;
//! - [`AnalysisCache`] / [`analysis_cache`] — a process-wide memo of
//!   guaranteed-hit regions and θ-saturation results keyed on trace
//!   fingerprints, shared by the optimization engine's workers (whole-
//!   system analyses walk the traces directly and leave it alone).
//!
//! # Examples
//!
//! ```
//! use cohort_analysis::wcl_miss;
//! use cohort_types::{LatencyConfig, TimerValue};
//!
//! // Quad-core, c0 timed (θ=300), the rest MSI: Eq. 1 for c1 counts c0's
//! // timer once: SW + 3·SW + (300 + SW) with SW = 54.
//! let timers = [
//!     TimerValue::timed(300)?,
//!     TimerValue::MSI,
//!     TimerValue::MSI,
//!     TimerValue::MSI,
//! ];
//! let bound = wcl_miss(1, &timers, &LatencyConfig::paper());
//! assert_eq!(bound.get(), 54 + 3 * 54 + 300 + 54);
//! # Ok::<(), cohort_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod isolation;
mod rta;
mod system;
mod wcl;
mod wcml;

pub use cache::{analysis_cache, AnalysisCache, CacheStats, WalkStats};
pub use isolation::{
    guaranteed_hits, stable_hits, theta_saturation, Envelopes, HitMissCounts, Region, StableHits,
};
pub use rta::{is_schedulable, max_affordable_wcml, response_times, PeriodicTask};
pub use system::{analyze_cohort, analyze_pcc, analyze_pendulum, CoreBound, PendulumParams};
pub use wcl::{wcl_miss, wcl_pcc, wcl_pendulum};
pub use wcml::{wcml_snoop, wcml_timed};
