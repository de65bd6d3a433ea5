//! Runtime WCML watchdog: the [`WcmlGuard`] probe.
//!
//! The guard watches a run's request completions against the Eq. 1 WCML
//! envelope of the *currently programmed* θ registers, flags cores that
//! stop making progress, and accepts coherence-violation convictions from
//! an external checker (e.g. [`Simulator::validate_coherence`] polled by a
//! degradation driver). It is a plain [`SimProbe`], so it composes with
//! [`MetricsProbe`](crate::MetricsProbe) and
//! [`InvariantProbe`](crate::InvariantProbe) through the tuple combinators.
//!
//! The guard only *detects*; it takes no action. A controller (the
//! `cohort` crate's degradation driver) polls [`WcmlGuard::violations`]
//! between [`Simulator::run_until`] slices and decides when to drive the
//! Mode-Switch LUT.
//!
//! [`Simulator`]: crate::Simulator
//! [`Simulator::validate_coherence`]: crate::Simulator::validate_coherence
//! [`Simulator::run_until`]: crate::Simulator::run_until

use std::collections::BTreeSet;

use cohort_types::{wcl_miss, Cycles, LineAddr, TimerValue};

use crate::event::EventKind;
use crate::metrics::MetricsProbe;
use crate::probe::SimProbe;
use crate::{SimConfig, SimStats};

/// What a [`WcmlViolation`] convicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcmlViolationKind {
    /// A request completed above its core's Eq. 1 WCML bound.
    LatencyBound,
    /// Cores still have work but nothing observable happened for longer
    /// than the progress timeout.
    Progress,
    /// An external coherence check (shadow state, deep validation) failed.
    Coherence,
}

impl WcmlViolationKind {
    /// A stable kebab-case identifier for reports.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            WcmlViolationKind::LatencyBound => "latency-bound",
            WcmlViolationKind::Progress => "progress",
            WcmlViolationKind::Coherence => "coherence",
        }
    }
}

/// One watchdog conviction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WcmlViolation {
    /// What was violated.
    pub kind: WcmlViolationKind,
    /// The offending core (the requester for latency violations; `None`
    /// when the conviction is not attributable to one core).
    pub core: Option<usize>,
    /// The line involved, when one is.
    pub line: Option<LineAddr>,
    /// The detection instant (completion cycle for latency violations).
    pub at: Cycles,
    /// When the violated request was issued (latency violations only,
    /// otherwise equals `at`).
    pub issued: Cycles,
    /// Observed request latency in cycles (zero for non-latency kinds).
    pub latency: u64,
    /// The Eq. 1 bound in force when the request completed (zero for
    /// non-latency kinds).
    pub bound: u64,
    /// Free-form detail for coherence convictions.
    pub detail: Option<String>,
}

/// A runtime watchdog probe checking per-request latency against the Eq. 1
/// WCML bound of the live θ registers.
///
/// Bounds are `None` (latency checking disabled) when the configuration is
/// outside the analysis assumptions (non-RROF arbitration, staged data
/// path, multiple MSHRs) or a core's register is −1 (MSI cores have no
/// finite per-request guarantee to enforce). A `TimerSwitch` re-derives
/// every bound from the incoming registers, so the guard follows mode
/// switches automatically.
///
/// # Examples
///
/// ```
/// use cohort_sim::{SimBuilder, SimConfig, WcmlGuard};
/// use cohort_trace::micro;
/// use cohort_types::TimerValue;
///
/// let config = SimConfig::builder(2).timers(vec![TimerValue::timed(100)?; 2]).build()?;
/// let mut guard = WcmlGuard::new();
/// let mut sim = SimBuilder::new(config, &micro::ping_pong(2, 8)).probe(&mut guard).build()?;
/// sim.run()?;
/// assert!(guard.violations().is_empty(), "a clean run stays inside Eq. 1");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct WcmlGuard {
    config: Option<SimConfig>,
    timers: Vec<TimerValue>,
    bounds: Vec<Option<u64>>,
    violations: Vec<WcmlViolation>,
    requests: u64,
    mode_switches: u64,
    last_activity: Cycles,
    progress_flagged_at: Option<Cycles>,
    progress_timeout: Option<u64>,
    coherence_seen: BTreeSet<String>,
}

impl WcmlGuard {
    /// Creates a guard with latency-bound checking only.
    #[must_use]
    pub fn new() -> Self {
        WcmlGuard::default()
    }

    /// Additionally convicts a [`WcmlViolationKind::Progress`] violation
    /// when nothing observable happens for `cycles` while cores still have
    /// work (checked by [`WcmlGuard::check_progress`]).
    #[must_use]
    pub fn with_progress_timeout(mut self, cycles: u64) -> Self {
        self.progress_timeout = Some(cycles);
        self
    }

    /// All convictions so far, in detection order.
    #[must_use]
    pub fn violations(&self) -> &[WcmlViolation] {
        &self.violations
    }

    /// Requests (fills) observed so far.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Timer switches observed so far.
    #[must_use]
    pub fn mode_switches(&self) -> u64 {
        self.mode_switches
    }

    /// The per-core Eq. 1 bounds currently enforced (`None` = unbounded).
    #[must_use]
    pub fn bounds(&self) -> &[Option<u64>] {
        &self.bounds
    }

    /// The θ registers as the guard last observed them.
    #[must_use]
    pub fn timers(&self) -> &[TimerValue] {
        &self.timers
    }

    fn recompute_bounds(&mut self) {
        let Some(config) = &self.config else { return };
        let analysable = MetricsProbe::analysable(config);
        // MSI cores renounce their latency guarantee — that is the
        // degradation the watchdog drives *to*, so it must not keep
        // convicting them afterwards.
        self.bounds = (0..self.timers.len())
            .map(|core| {
                (analysable && self.timers[core].is_timed())
                    .then(|| wcl_miss(core, &self.timers, config.latency()).get())
            })
            .collect();
    }

    /// Driver-assisted progress check between `run_until` slices: convicts
    /// a [`WcmlViolationKind::Progress`] violation when `active` names at
    /// least one unfinished core and nothing observable happened for the
    /// configured timeout. At most one conviction per stall episode.
    pub fn check_progress(&mut self, now: Cycles, active: &[bool]) {
        let Some(timeout) = self.progress_timeout else { return };
        if self.progress_flagged_at == Some(self.last_activity) {
            return; // this stall episode is already convicted
        }
        if active.iter().any(|&a| a) && now.get().saturating_sub(self.last_activity.get()) > timeout
        {
            self.progress_flagged_at = Some(self.last_activity);
            self.violations.push(WcmlViolation {
                kind: WcmlViolationKind::Progress,
                core: active.iter().position(|&a| a),
                line: None,
                at: now,
                issued: self.last_activity,
                latency: 0,
                bound: 0,
                detail: None,
            });
        }
    }

    /// Records an externally detected coherence violation (e.g. a failed
    /// [`Simulator::validate_coherence`] between `run_until` slices).
    /// Identical descriptions are deduplicated, so a driver can poll the
    /// same persistent corruption every slice without flooding the log.
    ///
    /// [`Simulator::validate_coherence`]: crate::Simulator::validate_coherence
    pub fn note_coherence_violation(&mut self, at: Cycles, core: Option<usize>, detail: &str) {
        if !self.coherence_seen.insert(detail.to_owned()) {
            return;
        }
        self.violations.push(WcmlViolation {
            kind: WcmlViolationKind::Coherence,
            core,
            line: None,
            at,
            issued: at,
            latency: 0,
            bound: 0,
            detail: Some(detail.to_owned()),
        });
    }
}

impl SimProbe for WcmlGuard {
    fn on_start(&mut self, config: &SimConfig) {
        self.timers = config.timers().to_vec();
        self.config = Some(config.clone());
        self.bounds.clear();
        self.violations.clear();
        self.requests = 0;
        self.mode_switches = 0;
        self.last_activity = Cycles::ZERO;
        self.progress_flagged_at = None;
        self.coherence_seen.clear();
        self.recompute_bounds();
    }

    fn on_event(&mut self, cycle: Cycles, kind: &EventKind) {
        self.last_activity = self.last_activity.max(cycle);
        match kind {
            EventKind::Fill { core, line, latency, .. } => {
                self.requests += 1;
                if let Some(Some(bound)) = self.bounds.get(*core) {
                    if latency.get() > *bound {
                        self.violations.push(WcmlViolation {
                            kind: WcmlViolationKind::LatencyBound,
                            core: Some(*core),
                            line: Some(*line),
                            at: cycle,
                            issued: Cycles::new(cycle.get().saturating_sub(latency.get())),
                            latency: latency.get(),
                            bound: *bound,
                            detail: None,
                        });
                    }
                }
            }
            EventKind::TimerSwitch { timers } => {
                self.mode_switches += 1;
                self.timers.clone_from(timers);
                self.recompute_bounds();
            }
            _ => {}
        }
    }

    fn on_finish(&mut self, _stats: &SimStats) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coherence::ReqKind;

    fn config(cores: usize, theta: u64) -> SimConfig {
        SimConfig::builder(cores)
            .timers(vec![TimerValue::timed(theta).expect("θ fits"); cores])
            .build()
            .expect("valid config")
    }

    fn fill(core: usize, latency: u64) -> EventKind {
        EventKind::Fill {
            core,
            line: LineAddr::new(7),
            kind: ReqKind::GetS,
            latency: Cycles::new(latency),
        }
    }

    #[test]
    fn convicts_fills_above_the_bound_only() {
        let cfg = config(4, 300);
        let mut guard = WcmlGuard::new();
        guard.on_start(&cfg);
        let bound = guard.bounds()[0].expect("analysable preset has a bound");
        guard.on_event(Cycles::new(100), &fill(0, bound));
        assert!(guard.violations().is_empty(), "at the bound is compliant");
        guard.on_event(Cycles::new(5_000), &fill(0, bound + 1));
        assert_eq!(guard.violations().len(), 1);
        let v = &guard.violations()[0];
        assert_eq!(v.kind, WcmlViolationKind::LatencyBound);
        assert_eq!(v.core, Some(0));
        assert_eq!(v.latency, bound + 1);
        assert_eq!(v.issued.get() + v.latency, v.at.get());
        assert_eq!(guard.requests(), 2);
    }

    #[test]
    fn timer_switch_rebounds_and_msi_cores_are_exempt() {
        let cfg = config(2, 300);
        let mut guard = WcmlGuard::new();
        guard.on_start(&cfg);
        assert!(guard.bounds().iter().all(Option::is_some));
        guard.on_event(
            Cycles::new(10),
            &EventKind::TimerSwitch {
                timers: vec![TimerValue::timed(300).expect("θ fits"), TimerValue::MSI],
            },
        );
        assert!(guard.bounds()[0].is_some());
        assert!(guard.bounds()[1].is_none(), "an MSI core has no bound to enforce");
        // The degraded core's huge latency no longer convicts.
        guard.on_event(Cycles::new(50_000), &fill(1, 40_000));
        assert!(guard.violations().is_empty());
        assert_eq!(guard.mode_switches(), 1);
    }

    #[test]
    fn progress_and_coherence_convictions() {
        let cfg = config(2, 300);
        let mut guard = WcmlGuard::new().with_progress_timeout(1_000);
        guard.on_start(&cfg);
        guard.on_event(Cycles::new(10), &fill(0, 5));
        guard.check_progress(Cycles::new(500), &[true, false]);
        assert!(guard.violations().is_empty(), "inside the timeout");
        guard.check_progress(Cycles::new(2_000), &[true, false]);
        guard.check_progress(Cycles::new(3_000), &[true, false]);
        let progress: Vec<_> =
            guard.violations().iter().filter(|v| v.kind == WcmlViolationKind::Progress).collect();
        assert_eq!(progress.len(), 1, "one conviction per stall episode");
        guard.note_coherence_violation(Cycles::new(100), Some(1), "SWMR violated: L7");
        guard.note_coherence_violation(Cycles::new(200), Some(1), "SWMR violated: L7");
        let coherence: Vec<_> =
            guard.violations().iter().filter(|v| v.kind == WcmlViolationKind::Coherence).collect();
        assert_eq!(coherence.len(), 1, "identical convictions deduplicate");
    }
}
