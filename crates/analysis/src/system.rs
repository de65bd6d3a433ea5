//! Whole-system analyses: one WCML bound per core, for CoHoRT and the
//! evaluation baselines.

use cohort_sim::{CacheGeometry, LlcModel};
use cohort_trace::Workload;
use cohort_types::{Cycles, Error, LatencyConfig, Result, TimerValue};

use crate::{guaranteed_hits, wcl_miss, wcl_pcc, wcl_pendulum, wcml_snoop, wcml_timed};

/// Analysis result for one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreBound {
    /// Guaranteed hits (0 for cores analysed as all-miss).
    pub hits: u64,
    /// Accesses assumed to miss.
    pub misses: u64,
    /// Per-request worst-case latency, `None` if unbounded (PENDULUM nCr).
    pub wcl: Option<Cycles>,
    /// Whole-task WCML bound, `None` if unbounded.
    pub wcml: Option<Cycles>,
}

impl CoreBound {
    /// Mean analytical per-access latency, if bounded.
    #[must_use]
    pub fn mean_latency(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        match (self.wcml, total) {
            (Some(w), t) if t > 0 => Some(w.get() as f64 / t as f64),
            _ => None,
        }
    }
}

/// Analyses a CoHoRT system: every timed core gets Eq. 2 with its
/// guaranteed hits, every MSI core gets Eq. 3 (all accesses misses); both
/// use the Eq. 1 per-request bound.
///
/// The guaranteed-hit analysis is only preserved under a **perfect LLC**
/// (the paper's analysis configuration): with a finite inclusive LLC,
/// back-invalidation can steal a line before its timer window closes, so
/// `llc = Finite` makes every core fall back to the all-miss Eq. 3 bound
/// (with the memory latency folded into the Eq. 1 slot width).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] if the timer vector length mismatches
/// the workload's core count.
///
/// # Examples
///
/// ```
/// use cohort_analysis::analyze_cohort;
/// use cohort_sim::{CacheGeometry, LlcModel};
/// use cohort_trace::micro;
/// use cohort_types::{LatencyConfig, TimerValue};
///
/// let w = micro::line_bursts(2, 4, 25);
/// let timers = [TimerValue::timed(500)?, TimerValue::MSI];
/// let bounds = analyze_cohort(
///     &w,
///     &timers,
///     &LatencyConfig::paper(),
///     &CacheGeometry::paper_l1(),
///     &cohort_sim::LlcModel::Perfect,
/// )?;
/// assert!(bounds[0].hits > 0, "the timed core's reuse is guaranteed");
/// assert_eq!(bounds[1].hits, 0, "the MSI core is analysed all-miss");
/// assert!(bounds[0].wcml.unwrap() < bounds[1].wcml.unwrap());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn analyze_cohort(
    workload: &Workload,
    timers: &[TimerValue],
    latency: &LatencyConfig,
    l1: &CacheGeometry,
    llc: &LlcModel,
) -> Result<Vec<CoreBound>> {
    if timers.len() != workload.cores() {
        return Err(Error::InvalidConfig(format!(
            "expected {} timers, got {}",
            workload.cores(),
            timers.len()
        )));
    }
    Ok(workload
        .traces()
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            let wcl = wcl_miss(i, timers, latency);
            if timers[i].is_timed() && llc.is_perfect() {
                // One walk of the trace, outside the process-wide memo: a
                // one-shot analysis (e.g. a fleet experiment job) must not
                // grow a cache that nothing in that process clears.
                let counts = guaranteed_hits(trace, timers[i], l1, latency.hit, wcl);
                CoreBound {
                    hits: counts.hits,
                    misses: counts.misses,
                    wcl: Some(wcl),
                    wcml: Some(wcml_timed(counts.hits, counts.misses, latency.hit, wcl)),
                }
            } else {
                let accesses = trace.len() as u64;
                CoreBound {
                    hits: 0,
                    misses: accesses,
                    wcl: Some(wcl),
                    wcml: Some(wcml_snoop(accesses, wcl)),
                }
            }
        })
        .collect())
}

/// Analyses the PCC baseline: predictable snooping without timers, so every
/// core is analysed all-miss (Eq. 3) at the PCC per-request bound.
///
/// # Examples
///
/// ```
/// use cohort_analysis::analyze_pcc;
/// use cohort_trace::micro;
/// use cohort_types::LatencyConfig;
///
/// let w = micro::ping_pong(4, 100);
/// let bounds = analyze_pcc(&w, &LatencyConfig::paper());
/// assert!(bounds.iter().all(|b| b.hits == 0 && b.wcml.is_some()));
/// ```
#[must_use]
pub fn analyze_pcc(workload: &Workload, latency: &LatencyConfig) -> Vec<CoreBound> {
    let wcl = wcl_pcc(workload.cores(), latency);
    workload
        .traces()
        .iter()
        .map(|trace| {
            let accesses = trace.len() as u64;
            CoreBound {
                hits: 0,
                misses: accesses,
                wcl: Some(wcl),
                wcml: Some(wcml_snoop(accesses, wcl)),
            }
        })
        .collect()
}

/// Configuration of the PENDULUM baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendulumParams {
    /// Which cores are critical (own TDM slots, priority queues).
    pub critical: Vec<bool>,
    /// The uniform timer value of critical cores (PENDULUM is not
    /// requirement-aware: one θ for everyone).
    pub theta: u64,
}

impl PendulumParams {
    /// Number of critical cores.
    #[must_use]
    pub fn critical_cores(&self) -> usize {
        self.critical.iter().filter(|&&c| c).count()
    }

    /// Number of non-critical cores.
    #[must_use]
    pub fn noncritical_cores(&self) -> usize {
        self.critical.len() - self.critical_cores()
    }
}

/// Analyses the PENDULUM baseline: critical cores are bounded (all
/// accesses assumed misses at the PENDULUM per-request bound — its
/// published analysis predates guaranteed-hit accounting); non-critical
/// cores have **no guarantees** (`wcl`/`wcml` are `None`).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] if the mask length mismatches the
/// workload or no core is critical.
///
/// # Examples
///
/// ```
/// use cohort_analysis::{analyze_pendulum, PendulumParams};
/// use cohort_trace::micro;
/// use cohort_types::LatencyConfig;
///
/// let w = micro::ping_pong(4, 100);
/// let params = PendulumParams { critical: vec![true, true, false, false], theta: 300 };
/// let bounds = analyze_pendulum(&w, &params, &LatencyConfig::paper())?;
/// assert!(bounds[0].wcml.is_some());
/// assert!(bounds[2].wcml.is_none(), "nCr cores are unbounded");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn analyze_pendulum(
    workload: &Workload,
    params: &PendulumParams,
    latency: &LatencyConfig,
) -> Result<Vec<CoreBound>> {
    if params.critical.len() != workload.cores() {
        return Err(Error::InvalidConfig(format!(
            "critical mask covers {} cores, workload has {}",
            params.critical.len(),
            workload.cores()
        )));
    }
    let n_cr = params.critical_cores();
    if n_cr == 0 {
        return Err(Error::InvalidConfig("PENDULUM needs at least one critical core".into()));
    }
    // Keep the analysis and the realizable hardware in lock-step: a θ that
    // does not fit the 16-bit timer register cannot be configured, so it
    // must not be analysable either.
    let _ = TimerValue::timed(params.theta)?;
    let wcl = wcl_pendulum(n_cr, params.noncritical_cores(), params.theta, latency);
    Ok(workload
        .traces()
        .iter()
        .zip(&params.critical)
        .map(|(trace, &critical)| {
            let accesses = trace.len() as u64;
            if critical {
                CoreBound {
                    hits: 0,
                    misses: accesses,
                    wcl: Some(wcl),
                    wcml: Some(wcml_snoop(accesses, wcl)),
                }
            } else {
                CoreBound { hits: 0, misses: accesses, wcl: None, wcml: None }
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohort_trace::{micro, Kernel, KernelSpec};

    #[test]
    fn cohort_beats_pcc_on_reuse_heavy_workloads() {
        // The Figure-5 relationship: guaranteed hits make CoHoRT's WCML
        // tighter than PCC's all-miss bound on a burst-reuse workload.
        let w = KernelSpec::new(Kernel::Ocean, 4).with_total_requests(8_000).generate();
        let timers = vec![TimerValue::timed(40).unwrap(); 4];
        let lat = LatencyConfig::paper();
        let cohort =
            analyze_cohort(&w, &timers, &lat, &CacheGeometry::paper_l1(), &LlcModel::Perfect)
                .unwrap();
        let pcc = analyze_pcc(&w, &lat);
        for (c, p) in cohort.iter().zip(&pcc) {
            assert!(c.hits > 0, "tight reuse must yield guaranteed hits");
            assert!(c.wcml.unwrap() < p.wcml.unwrap());
        }
    }

    #[test]
    fn cohort_wcml_never_exceeds_pcc_even_without_hits() {
        // Even when a kernel's reuse distance defeats the timers (zero
        // guaranteed hits), CoHoRT's direct hand-overs keep its per-request
        // bound — and hence its WCML — below PCC's staged hand-overs, as
        // long as the timer budget stays modest.
        let w = KernelSpec::new(Kernel::Water, 4).with_total_requests(8_000).generate();
        let timers = vec![TimerValue::timed(20).unwrap(); 4];
        let lat = LatencyConfig::paper();
        let cohort =
            analyze_cohort(&w, &timers, &lat, &CacheGeometry::paper_l1(), &LlcModel::Perfect)
                .unwrap();
        let pcc = analyze_pcc(&w, &lat);
        for (c, p) in cohort.iter().zip(&pcc) {
            assert!(c.wcml.unwrap() <= p.wcml.unwrap());
        }
    }

    #[test]
    fn pendulum_bounds_dwarf_cohort() {
        let w = KernelSpec::new(Kernel::Fft, 4).with_total_requests(8_000).generate();
        let timers = vec![TimerValue::timed(50).unwrap(); 4];
        let lat = LatencyConfig::paper();
        let cohort =
            analyze_cohort(&w, &timers, &lat, &CacheGeometry::paper_l1(), &LlcModel::Perfect)
                .unwrap();
        let pend =
            analyze_pendulum(&w, &PendulumParams { critical: vec![true; 4], theta: 300 }, &lat)
                .unwrap();
        for (c, p) in cohort.iter().zip(&pend) {
            assert!(p.wcml.unwrap() > c.wcml.unwrap() * 2);
        }
    }

    #[test]
    fn mask_validation() {
        let w = micro::ping_pong(2, 2);
        assert!(analyze_pendulum(
            &w,
            &PendulumParams { critical: vec![true], theta: 10 },
            &LatencyConfig::paper()
        )
        .is_err());
        assert!(analyze_pendulum(
            &w,
            &PendulumParams { critical: vec![false, false], theta: 10 },
            &LatencyConfig::paper()
        )
        .is_err());
        let timers = vec![TimerValue::MSI];
        assert!(analyze_cohort(
            &w,
            &timers,
            &LatencyConfig::paper(),
            &CacheGeometry::paper_l1(),
            &LlcModel::Perfect
        )
        .is_err());
    }

    #[test]
    fn mean_latency_reflects_bound() {
        let b = CoreBound {
            hits: 50,
            misses: 50,
            wcl: Some(Cycles::new(100)),
            wcml: Some(Cycles::new(5_050)),
        };
        assert!((b.mean_latency().unwrap() - 50.5).abs() < 1e-12);
        let unbounded = CoreBound { hits: 0, misses: 10, wcl: None, wcml: None };
        assert_eq!(unbounded.mean_latency(), None);
    }
}
