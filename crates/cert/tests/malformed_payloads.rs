//! Malformed-input robustness of the certification payloads.
//!
//! The fleet stores `FaultAggregate` and `SchedAggregate` payloads on disk
//! and parses them back on every memo hit, so a damaged entry reaches
//! `from_json` as outside input: it must come back as a typed error, never
//! a panic, and re-encoding whatever the parse accepted must not panic
//! either. This is a seeded plain `#[test]` loop rather than a `proptest!`
//! so it also runs under the offline stub harness.

use std::panic::{catch_unwind, AssertUnwindSafe};

use serde_json::{json, Map, Value};

use cohort_cert::{
    FaultAggregate, FaultTrialOutcome, Rate, SchedAggregate, SchedBucket, SchedTrialOutcome,
};
use cohort_types::splitmix64;

const CASES: u64 = 4_000;

/// Valid fault and sched payloads that fill every field, with detection
/// latencies spread over many log2 buckets.
fn payloads() -> [Value; 2] {
    let mut fault = FaultAggregate::default();
    for seed in 0..24u64 {
        let outcome = FaultTrialOutcome {
            control: seed % 4 == 0,
            faults_fired: 1,
            violations: seed % 3,
            machine_violations: seed % 2,
            switched: seed % 5 == 1,
            post_switch_compliant: (seed % 5 == 1).then_some(seed % 2 == 0),
            detection_latency: (seed % 3 != 0).then_some(1u64 << (seed % 40)),
        };
        fault.record(seed, &outcome);
    }
    // The bucket edges of the default `SchedSpace`: 10..=149 % in 20 % steps.
    let buckets = (10..150)
        .step_by(20)
        .map(|lo| SchedBucket { lo_pct: lo, hi_pct: (lo + 20).min(150), rate: Rate::default() })
        .collect();
    let mut sched = SchedAggregate { trials: 0, schedulable: 0, buckets };
    for util_pct in (5..150).step_by(7) {
        sched.record(&SchedTrialOutcome { util_pct, schedulable: util_pct < 80 });
    }
    [fault.to_json(), sched.to_json()]
}

fn count_nodes(v: &Value) -> u64 {
    1 + match v {
        Value::Array(items) => items.iter().map(count_nodes).sum(),
        Value::Object(map) => map.iter().map(|(_, child)| count_nodes(child)).sum(),
        _ => 0,
    }
}

/// Rebuilds `v` with one mutation, chosen by `r`, at the node numbered
/// `*target` in pre-order: swap the node's type or push a count out of
/// range, cut an object key in half, or push a rate's successes past its
/// trials.
fn mutate(v: &Value, target: &mut u64, r: u64) -> Value {
    // 0: swap or out-of-range value, 1: cut key, 2: overshoot, 3: none here.
    let op = if *target == 0 { r % 3 } else { 3 };
    *target = target.wrapping_sub(1);
    if op == 0 {
        let swaps = [json!(null), json!(true), json!("7"), json!(-1), json!(0.5), json!([])];
        let counts = [json!({}), json!(u64::MAX), json!(1u64 << 40), json!(65), json!(0)];
        return swaps.into_iter().chain(counts).nth((r >> 8) as usize % 11).expect("in range");
    }
    match v {
        Value::Object(map) => {
            let mut out = Map::new();
            for (i, (key, child)) in map.iter().enumerate() {
                let cut = op == 1 && i == map.len() / 2;
                let key = if cut { &key[..key.len() / 2] } else { key.as_str() };
                out.insert(key.to_string(), mutate(child, target, r));
            }
            if let Some(trials) = out.get("trials").and_then(Value::as_u64).filter(|_| op == 2) {
                out.insert("successes".into(), json!(trials.saturating_add(1)));
            }
            Value::Object(out)
        }
        Value::Array(items) => Value::Array(items.iter().map(|x| mutate(x, target, r)).collect()),
        _ => v.clone(),
    }
}

#[test]
fn malformed_aggregate_payloads_are_errors_not_panics() {
    let [fault, sched] = payloads();
    assert!(FaultAggregate::from_json(&fault).is_ok() && SchedAggregate::from_json(&sched).is_ok());
    let mut rejected = 0u64;
    for case in 0..CASES {
        for (kind, base) in [&fault, &sched].into_iter().enumerate() {
            let mut doc = base.clone();
            // One to three stacked mutations.
            for step in 0..=splitmix64(case, 1) % 3 {
                let r = splitmix64(case, 2 + step);
                doc = mutate(&doc, &mut ((r >> 32) % count_nodes(&doc)), r);
            }
            let parsed = catch_unwind(AssertUnwindSafe(|| match kind {
                0 => FaultAggregate::from_json(&doc).map(|agg| agg.to_json()),
                _ => SchedAggregate::from_json(&doc).map(|agg| agg.to_json()),
            }));
            let Ok(parsed) = parsed else { panic!("from_json or to_json panicked on {doc}") };
            rejected += u64::from(parsed.is_err());
        }
    }
    // The mutations must reach the parsers' error paths, not only benign
    // fields.
    assert!(rejected > CASES / 2, "only {rejected} of {} documents rejected", 2 * CASES);
}
