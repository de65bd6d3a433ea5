//! The paper cell's run memo and hit-curve memo, end to end. This file
//! holds one test on purpose: it reads the process-wide memo's counters,
//! which any other test running beside it in the same binary would move.

use cohort::{run_experiment, Protocol};
use cohort_analysis::{analysis_cache, CacheStats, WalkStats};
use cohort_bench::{optimize_cohort_timers, sweep_protocols, CritConfig, PENDULUM_THETA};
use cohort_optim::GaConfig;
use cohort_trace::{Kernel, KernelSpec};

#[test]
fn one_kernel_pass_matches_separate_runs_and_serves_the_baselines() {
    let workload = KernelSpec::new(Kernel::Fft, 4).with_total_requests(2_000).generate();
    let ga = GaConfig { population: 8, generations: 3, ..Default::default() };

    analysis_cache().clear();
    let cells: Vec<_> = CritConfig::ALL
        .into_iter()
        .map(|config| sweep_protocols(config, &workload, &ga).unwrap())
        .collect();
    // Per configuration: CoHoRT and PENDULUM differ with the criticality
    // mask, PCC and MSI+FCFS do not, so the second and third
    // configurations are served both baselines.
    assert_eq!(analysis_cache().run_stats(), CacheStats { lookups: 12, hits: 4 });
    assert_eq!(analysis_cache().run_len(), 8);
    // The inline GA's hit-curve queries: lookups − hits walks, less the
    // θ-saturation searches that were not served, each walk serving every
    // later query whose (θ, penalty) lies in its stable region.
    assert_eq!(analysis_cache().stats(), CacheStats { lookups: 213, hits: 176 });
    assert_eq!(analysis_cache().walks(), WalkStats { flat: 15, burst: 18 });

    for (config, runs) in CritConfig::ALL.into_iter().zip(&cells) {
        let spec = config.spec();
        let timers = optimize_cohort_timers(config, &workload, &ga).unwrap();
        let protocols = [
            Protocol::Cohort { timers: timers.clone() },
            Protocol::Pcc,
            Protocol::Pendulum { critical: config.critical_mask(), theta: PENDULUM_THETA },
            Protocol::MsiFcfs,
        ];
        for (run, protocol) in runs.iter().zip(&protocols) {
            let expected = run_experiment(&spec, protocol, &workload).unwrap();
            assert_eq!(run.outcome, expected, "{} {}", config.slug(), protocol.slug());
            let expected_timers = matches!(protocol, Protocol::Cohort { .. }).then_some(&timers);
            assert_eq!(run.timers.as_ref(), expected_timers, "{}", config.slug());
        }
    }
}
