//! Trace walks of the GA's hit-curve queries over one 18-cell paper pass.
//! This file holds one test on purpose: it reads the process-wide memo's
//! counters, which any other test running beside it in the same binary
//! would move.

use cohort_analysis::{analysis_cache, CacheStats, WalkStats};
use cohort_bench::{bench_ga, optimize_cohort_timers, CritConfig, CORES};
use cohort_optim::GaConfig;
use cohort_trace::{Kernel, KernelSpec};
use cohort_types::splitmix64;

/// `perfbench`'s trace-seed mixer: splitmix64 on stream `stream + 1`.
fn mix(seed: u64, stream: u64) -> u64 {
    splitmix64(seed, stream.wrapping_add(1))
}

/// The first pass of `perfbench --workload paper_sweep --seed 7`: its
/// traces at a quarter of the default request count, the timer search of
/// each of its 18 cells on one GA worker, as `sweep_protocols` runs it, on
/// a cold memo.
#[test]
fn a_seed_7_paper_pass_walks_a_pinned_number_of_times() {
    let ga = GaConfig { workers: 1, ..bench_ga(false) };
    let workloads: Vec<_> = Kernel::ALL
        .into_iter()
        .map(|kernel| {
            KernelSpec::new(kernel, CORES)
                .with_total_requests(kernel.default_total_requests() / 4)
                .with_seed(mix(mix(7, 0), kernel as u64))
                .generate()
        })
        .collect();
    analysis_cache().clear();
    for config in CritConfig::ALL {
        for workload in &workloads {
            optimize_cohort_timers(config, workload, &ga).unwrap();
        }
    }
    // Lookups − hits also counts the 24 θ-saturation searches, which are
    // not served on a cold memo.
    assert_eq!(analysis_cache().stats(), CacheStats { lookups: 15_445, hits: 14_686 });
    assert_eq!(analysis_cache().walks(), WalkStats { flat: 416, burst: 319 });
}
