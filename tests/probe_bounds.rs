//! The simulator's [`MetricsProbe`] attaches the shared Eq. 1 bound.
//! Eq. 1 has one definition, `cohort_types::wcl_miss`, which
//! `cohort-analysis` re-exports and the probe calls; these tests check
//! that the probe attaches exactly that bound on analysable
//! configurations, none elsewhere, and that measured latencies respect
//! it.

use cohort_sim::{MetricsProbe, SimBuilder, SimConfig};
use cohort_trace::micro;
use cohort_types::TimerValue;

fn timer_sets() -> Vec<Vec<TimerValue>> {
    let t = |v: u64| TimerValue::timed(v).unwrap();
    vec![
        vec![TimerValue::MSI; 4],
        vec![t(24); 4],
        vec![t(40), t(90), TimerValue::MSI, TimerValue::MSI],
        vec![t(1), t(500), t(37), TimerValue::MSI],
        vec![t(64); 2],
        vec![t(10), TimerValue::MSI, t(200), t(33), t(7), TimerValue::MSI],
    ]
}

#[test]
fn probe_bound_matches_the_analysis_crate_exactly() {
    for timers in timer_sets() {
        let cores = timers.len();
        let config = SimConfig::builder(cores).timers(timers.clone()).build().unwrap();
        let latency = *config.latency();
        let workload = micro::ping_pong(cores, 1);
        let mut sim =
            SimBuilder::new(config, &workload).probe(MetricsProbe::new()).build().unwrap();
        sim.run().unwrap();
        let report = sim.into_probe().into_report();

        for (i, core) in report.cores.iter().enumerate() {
            let analytical = cohort_analysis::wcl_miss(i, &timers, &latency).get();
            assert_eq!(
                core.wcl_bound,
                Some(analytical),
                "core {i} of {timers:?}: probe bound drifted from Eq. 1"
            );
        }
    }
}

#[test]
fn probe_bound_is_absent_when_the_analysis_does_not_apply() {
    // TDM arbitration breaks the Eq. 1 assumptions; the probe must report
    // no bound rather than a wrong one.
    let config = SimConfig::builder(4)
        .timers(vec![TimerValue::timed(24).unwrap(); 4])
        .arbiter(cohort_sim::ArbiterKind::Tdm { critical: vec![true; 4] })
        .build()
        .unwrap();
    let workload = micro::ping_pong(4, 4);
    let mut sim = SimBuilder::new(config, &workload).probe(MetricsProbe::new()).build().unwrap();
    sim.run().unwrap();
    let report = sim.into_probe().into_report();
    assert!(report.cores.iter().all(|c| c.wcl_bound.is_none()));
    assert!(report.bound_ok(), "vacuously sound without a bound");
}

#[test]
fn measured_latencies_respect_the_shared_bound_under_contention() {
    // A contended workload on an analysable config: every per-core maximum
    // the probe measured must sit under the bound both crates agree on.
    let timers = vec![
        TimerValue::timed(40).unwrap(),
        TimerValue::timed(90).unwrap(),
        TimerValue::MSI,
        TimerValue::MSI,
    ];
    let config = SimConfig::builder(4).timers(timers.clone()).build().unwrap();
    let latency = *config.latency();
    let workload = micro::random_shared(4, 12, 500, 0.5, 23);
    let mut sim = SimBuilder::new(config, &workload).probe(MetricsProbe::new()).build().unwrap();
    sim.run().unwrap();
    let report = sim.into_probe().into_report();

    assert!(report.bound_ok());
    for (i, core) in report.cores.iter().enumerate() {
        let analytical = cohort_analysis::wcl_miss(i, &timers, &latency).get();
        assert!(
            core.latency.max().get() <= analytical,
            "core {i}: measured {} exceeds Eq. 1 bound {analytical}",
            core.latency.max()
        );
    }
}
