//! One-shot experiment jobs leave the process-wide analysis memo alone.
//! This file holds one test on purpose: it reads the memo's counters,
//! which any other test running beside it in the same binary would move.

use std::sync::Arc;

use cohort::{Protocol, SystemSpec};
use cohort_analysis::{analysis_cache, guaranteed_hits, wcl_miss, CacheStats};
use cohort_fleet::execute_experiment;
use cohort_trace::micro;
use cohort_types::{Criticality, TimerValue};

#[test]
fn experiment_jobs_do_not_grow_the_analysis_memo() {
    let mut b = SystemSpec::builder();
    for _ in 0..3 {
        b = b.core(Criticality::new(1).unwrap());
    }
    let spec = b.build().unwrap();
    let timers =
        vec![TimerValue::timed(40).unwrap(), TimerValue::MSI, TimerValue::timed(300).unwrap()];
    let protocol = Protocol::Cohort { timers: timers.clone() };

    analysis_cache().clear();
    let mut guaranteed = 0;
    for seed in 0..4 {
        let workload = Arc::new(micro::random_shared(3, 24, 300, 0.3, seed));
        let payload = execute_experiment(&spec, &protocol, &workload).unwrap();
        let bounds = payload
            .get("bounds")
            .and_then(serde_json::Value::as_array)
            .expect("CoHoRT is analysed");
        for (core, (bound, trace)) in bounds.iter().zip(workload.traces()).enumerate() {
            let expected_hits = if timers[core].is_timed() {
                let wcl = wcl_miss(core, &timers, spec.latency());
                guaranteed_hits(trace, timers[core], spec.l1(), spec.latency().hit, wcl).hits
            } else {
                0
            };
            guaranteed += expected_hits;
            let count = |field: &str| bound.get(field).and_then(serde_json::Value::as_u64);
            assert_eq!(count("hits"), Some(expected_hits), "seed {seed}, core {core}");
            assert_eq!(
                count("misses"),
                Some(trace.len() as u64 - expected_hits),
                "seed {seed}, core {core}"
            );
        }
    }
    assert!(guaranteed > 0, "the timed cores were analysed with hits");
    assert_eq!(analysis_cache().len(), 0);
    assert_eq!(analysis_cache().stats(), CacheStats::default());
}
