//! Cross-protocol behaviour through the public API: the qualitative
//! relationships the paper's evaluation rests on.

use cohort::{run_experiment, Protocol, SystemSpec};
use cohort_trace::{micro, Kernel, KernelSpec};
use cohort_types::{default_workers, run_jobs, Criticality, TimerValue};

fn spec4() -> SystemSpec {
    let mut b = SystemSpec::builder();
    for _ in 0..4 {
        b = b.core(Criticality::new(2).unwrap());
    }
    b.build().unwrap()
}

#[test]
fn fcfs_baseline_is_fastest_or_close_pendulum_slowest() {
    // The Figure-6 relationship: TDM's idle slots cost throughput; the COTS
    // FCFS arbiter and CoHoRT's RROF are close.
    let s = spec4();
    let w = KernelSpec::new(Kernel::Fft, 4).with_total_requests(3_000).generate();
    let timers = vec![TimerValue::timed(20).unwrap(); 4];
    let cohort = run_experiment(&s, &Protocol::Cohort { timers }, &w).unwrap();
    let fcfs = run_experiment(&s, &Protocol::MsiFcfs, &w).unwrap();
    let pendulum =
        run_experiment(&s, &Protocol::Pendulum { critical: vec![true; 4], theta: 300 }, &w)
            .unwrap();
    let (c, f, p) = (cohort.execution_time(), fcfs.execution_time(), pendulum.execution_time());
    assert!(p > f, "PENDULUM ({p}) must be slower than MSI+FCFS ({f})");
    assert!((c as f64) < (f as f64) * 1.25, "CoHoRT ({c}) must stay within ~25% of MSI+FCFS ({f})");
}

#[test]
fn heterogeneity_is_strictly_coherent() {
    // Mixed protocols must still deliver coherent data: a value written by
    // an MSI core is observed by timed cores and vice versa. We approximate
    // observation by checking ownership hand-overs complete: every core's
    // store to the shared line eventually fills in M (accesses all served).
    let s = spec4();
    let w = micro::ping_pong(4, 25);
    let timers = vec![
        TimerValue::timed(60).unwrap(),
        TimerValue::MSI,
        TimerValue::timed(7).unwrap(),
        TimerValue::MSI,
    ];
    let outcome = run_experiment(&s, &Protocol::Cohort { timers }, &w).unwrap();
    for (i, core) in outcome.stats.cores.iter().enumerate() {
        assert_eq!(core.accesses(), 25, "core {i} completed all stores");
    }
    outcome.check_soundness().unwrap();
}

#[test]
fn pendulum_starves_ncr_but_cohort_does_not() {
    // PENDULUM's documented unfairness vs CoHoRT's bounded service for
    // *every* core: under heavy critical-core load, the non-critical core's
    // worst observed latency under PENDULUM exceeds CoHoRT's — and CoHoRT
    // gives it an analytical bound while PENDULUM gives none.
    let s = spec4();
    let w = micro::ping_pong(4, 40);
    let critical = vec![true, true, true, false];
    let cohort_timers = vec![
        TimerValue::timed(30).unwrap(),
        TimerValue::timed(30).unwrap(),
        TimerValue::timed(30).unwrap(),
        TimerValue::MSI,
    ];
    let cohort = run_experiment(&s, &Protocol::Cohort { timers: cohort_timers }, &w).unwrap();
    let pendulum =
        run_experiment(&s, &Protocol::Pendulum { critical: critical.clone(), theta: 30 }, &w)
            .unwrap();
    assert!(cohort.bounds.as_ref().unwrap()[3].wcml.is_some(), "CoHoRT bounds the nCr core");
    assert!(
        pendulum.bounds.as_ref().unwrap()[3].wcml.is_none(),
        "PENDULUM gives the nCr core no guarantee"
    );
    assert!(
        pendulum.stats.cores[3].worst_request >= cohort.stats.cores[3].worst_request,
        "PENDULUM {} vs CoHoRT {}",
        pendulum.stats.cores[3].worst_request,
        cohort.stats.cores[3].worst_request
    );
}

#[test]
fn parallel_sweep_reproduces_sequential_results() {
    let s = spec4();
    let w = KernelSpec::new(Kernel::Radix, 4).with_total_requests(2_000).generate();
    let protocols = [Protocol::Msi, Protocol::Pcc, Protocol::MsiFcfs];
    let outcomes = run_jobs(&protocols, default_workers(), |p| run_experiment(&s, p, &w)).unwrap();
    for (p, outcome) in protocols.iter().zip(&outcomes) {
        assert_eq!(outcome.protocol, p.kind());
        let sequential = run_experiment(&s, p, &w).unwrap();
        assert_eq!(outcome.stats, sequential.stats, "{}", p.label());
    }
}

#[test]
fn sweep_outcomes_match_the_sequential_driver() {
    let s = spec4();
    let w = micro::ping_pong(4, 10);
    let protocols = [Protocol::Msi, Protocol::MsiFcfs];
    let outcomes = run_jobs(&protocols, default_workers(), |p| run_experiment(&s, p, &w)).unwrap();
    for (p, outcome) in protocols.iter().zip(&outcomes) {
        let sequential = run_experiment(&s, p, &w).unwrap();
        assert_eq!(outcome.stats, sequential.stats, "{}", p.label());
    }
}

#[test]
fn perfect_and_finite_llc_agree_qualitatively() {
    // The paper's footnote 1: the non-perfect LLC shows the same
    // observations. Check the Fig. 6 ordering survives a finite LLC.
    let w = KernelSpec::new(Kernel::Water, 4).with_total_requests(2_500).generate();
    let mut b = SystemSpec::builder();
    for _ in 0..4 {
        b = b.core(Criticality::new(2).unwrap());
    }
    let spec = b
        .llc(cohort_sim::LlcModel::Finite(cohort_sim::CacheGeometry::paper_llc()))
        .latency(cohort_types::LatencyConfig::paper().with_memory(100))
        .build()
        .unwrap();
    let timers = vec![TimerValue::timed(20).unwrap(); 4];
    let cohort = run_experiment(&spec, &Protocol::Cohort { timers }, &w).unwrap();
    let fcfs = run_experiment(&spec, &Protocol::MsiFcfs, &w).unwrap();
    let pendulum =
        run_experiment(&spec, &Protocol::Pendulum { critical: vec![true; 4], theta: 300 }, &w)
            .unwrap();
    cohort.check_soundness().unwrap();
    assert!(pendulum.execution_time() > fcfs.execution_time());
    assert!((cohort.execution_time() as f64) < (fcfs.execution_time() as f64) * 1.3);
}
