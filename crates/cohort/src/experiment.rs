//! Simulation + analysis drivers used by examples, tests and the
//! figure-regeneration benches.

use cohort_analysis::CoreBound;
use cohort_sim::{MetricsProbe, MetricsReport, SimBuilder, SimStats};
use cohort_trace::Workload;
use cohort_types::Result;

use crate::{Protocol, ProtocolKind, SystemSpec};

/// The paired outcome of simulating a protocol and analysing it.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutcome {
    /// Which protocol ran (labels come from [`ProtocolKind::label`]).
    pub protocol: ProtocolKind,
    /// Workload name (figure x-axis).
    pub workload: String,
    /// Measured statistics (the solid bars).
    pub stats: SimStats,
    /// Analytical bounds (the T-bars); `None` for unanalysable baselines.
    pub bounds: Option<Vec<CoreBound>>,
    /// Streamed instrumentation (latency histograms, bus shares, timer
    /// occupancy) when the run was probed; `None` for plain runs, which
    /// keeps their output byte-identical to the pre-probe driver.
    pub metrics: Option<MetricsReport>,
}

impl ExperimentOutcome {
    /// Pairs the simulated `stats` of `protocol` on `workload` with the
    /// protocol's analytical bounds (no metrics report).
    ///
    /// # Errors
    ///
    /// Propagates analysis errors.
    pub fn analyzed(
        spec: &SystemSpec,
        protocol: &Protocol,
        workload: &Workload,
        stats: SimStats,
    ) -> Result<Self> {
        Ok(ExperimentOutcome {
            protocol: protocol.kind(),
            workload: workload.name().to_string(),
            stats,
            bounds: protocol.analyze(spec, workload)?,
            metrics: None,
        })
    }

    /// Measured execution time (Figure 6's numerator).
    #[must_use]
    pub fn execution_time(&self) -> u64 {
        self.stats.execution_time().get()
    }

    /// Checks the soundness obligation: every measured per-core WCML and
    /// per-request latency at or under its analytical bound.
    ///
    /// Returns the first violation as `Err(description)`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated bound.
    pub fn check_soundness(&self) -> core::result::Result<(), String> {
        let Some(bounds) = &self.bounds else { return Ok(()) };
        for (i, (core, bound)) in self.stats.cores.iter().zip(bounds).enumerate() {
            if let Some(wcl) = bound.wcl {
                if core.worst_request > wcl {
                    return Err(format!(
                        "{} on {}: core {i} request {} exceeds WCL {}",
                        self.protocol, self.workload, core.worst_request, wcl
                    ));
                }
            }
            if let Some(wcml) = bound.wcml {
                if core.total_latency > wcml {
                    return Err(format!(
                        "{} on {}: core {i} measured WCML {} exceeds bound {}",
                        self.protocol, self.workload, core.total_latency, wcml
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Runs one protocol on one workload: simulate, then analyse.
///
/// # Errors
///
/// Propagates configuration errors and simulator failures.
///
/// # Examples
///
/// See the crate-level example.
pub fn run_experiment(
    spec: &SystemSpec,
    protocol: &Protocol,
    workload: &Workload,
) -> Result<ExperimentOutcome> {
    let config = protocol.sim_config(spec)?;
    let stats = SimBuilder::new(config, workload).build()?.run()?;
    ExperimentOutcome::analyzed(spec, protocol, workload, stats)
}

/// Runs one protocol on one workload under a [`MetricsProbe`]: identical
/// statistics to [`run_experiment`] (probes observe, they never perturb),
/// plus the streamed [`MetricsReport`] in [`ExperimentOutcome::metrics`].
///
/// # Errors
///
/// Propagates configuration errors and simulator failures.
pub fn run_experiment_with_metrics(
    spec: &SystemSpec,
    protocol: &Protocol,
    workload: &Workload,
) -> Result<ExperimentOutcome> {
    let config = protocol.sim_config(spec)?;
    let mut sim = SimBuilder::new(config, workload).probe(MetricsProbe::new()).build()?;
    let stats = sim.run()?;
    let metrics = sim.into_probe().into_report();
    let outcome = ExperimentOutcome::analyzed(spec, protocol, workload, stats)?;
    Ok(ExperimentOutcome { metrics: Some(metrics), ..outcome })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohort_trace::micro;
    use cohort_types::{run_jobs, Criticality, TimerValue};

    fn spec(n: usize) -> SystemSpec {
        let mut b = SystemSpec::builder();
        for _ in 0..n {
            b = b.core(Criticality::new(1).unwrap());
        }
        b.build().unwrap()
    }

    #[test]
    fn cohort_outcome_is_sound() {
        let s = spec(2);
        let w = micro::line_bursts(2, 4, 30);
        let timers = vec![TimerValue::timed(50).unwrap(), TimerValue::MSI];
        let outcome = run_experiment(&s, &Protocol::Cohort { timers }, &w).unwrap();
        outcome.check_soundness().unwrap();
        assert_eq!(outcome.protocol, ProtocolKind::Cohort);
        assert!(outcome.execution_time() > 0);
    }

    #[test]
    fn all_protocols_run_the_same_workload() {
        let s = spec(2);
        let w = micro::random_shared(2, 16, 120, 0.4, 3);
        let protocols = [
            Protocol::Cohort { timers: vec![TimerValue::timed(25).unwrap(); 2] },
            Protocol::Msi,
            Protocol::MsiFcfs,
            Protocol::Pcc,
            Protocol::Pendulum { critical: vec![true, false], theta: 25 },
        ];
        for p in &protocols {
            let outcome = run_experiment(&s, p, &w).unwrap();
            outcome.check_soundness().unwrap_or_else(|e| panic!("{e}"));
            for (core, trace) in outcome.stats.cores.iter().zip(w.traces()) {
                assert_eq!(core.accesses(), trace.len() as u64, "{}", p.label());
            }
        }
    }

    #[test]
    fn metrics_run_matches_plain_run_and_attaches_a_report() {
        let s = spec(2);
        let w = micro::ping_pong(2, 10);
        let plain = run_experiment(&s, &Protocol::Msi, &w).unwrap();
        let probed = run_experiment_with_metrics(&s, &Protocol::Msi, &w).unwrap();
        assert_eq!(plain.stats, probed.stats, "the probe must not perturb the run");
        assert_eq!(plain.bounds, probed.bounds);
        let report = probed.metrics.expect("probed run carries metrics");
        for (core, stats) in report.cores.iter().zip(&probed.stats.cores) {
            assert_eq!(core.latency.count(), stats.accesses());
        }
    }

    #[test]
    fn sweep_matches_sequential_runs() {
        let s = spec(2);
        let w = micro::random_shared(2, 16, 80, 0.4, 7);
        let protocols =
            [Protocol::Msi, Protocol::Pcc, Protocol::MsiFcfs, Protocol::Msi, Protocol::Pcc];
        let outcomes = run_jobs(&protocols, 2, |p| run_experiment(&s, p, &w)).unwrap();
        assert_eq!(outcomes.len(), protocols.len());
        for (outcome, protocol) in outcomes.iter().zip(&protocols) {
            assert_eq!(*outcome, run_experiment(&s, protocol, &w).unwrap());
        }
    }
}
