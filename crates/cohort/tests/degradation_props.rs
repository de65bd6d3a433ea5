//! Property tests for the watchdog's conviction attribution.
//!
//! Mixed coreless/per-core violation streams are generated with the fault
//! kinds that mirror `cohort-verif`'s four model-checker [`Mutation`]
//! classes, so the runtime attribution stays cross-referenced to the
//! protocol-level failure taxonomy:
//!
//! | fault kind driven here          | verif mutation slug        | conviction shape        |
//! |---------------------------------|----------------------------|-------------------------|
//! | `TimerCorruption`               | `ignore-timer-protection`  | per-core latency        |
//! | `LineCorruption`                | `skip-invalidation` (SWMR) | machine-wide coherence  |
//! | `SpuriousEviction`              | `skip-evict-writeback`     | machine-wide coherence  |
//! | `TimerStuck` (withheld release) | `drop-timer-expiry`        | per-core latency        |
//!
//! [`Mutation`]: https://docs.rs/cohort-verif
//!
//! The properties under test: the [`DegradationReport`] is a pure function
//! of its inputs (bit-identical twice, down to the JSON document), the
//! per-core/machine attribution partitions the conviction total, and no
//! coreless violation ever increments a per-core count.

use cohort_prop::prelude::*;

use cohort::{run_with_watchdog, DegradationReport, ModeSwitchLut, WatchdogPolicy};
use cohort_sim::{FaultKind, FaultPlan, FaultSpec, SimConfig};
use cohort_trace::{Trace, TraceOp, Workload};
use cohort_types::{Cycles, TimerValue};

fn timed(theta: u64) -> TimerValue {
    TimerValue::timed(theta).expect("θ fits in 16 bits")
}

/// Both cores hammer the same line — the contention pattern that makes
/// per-core latency convictions possible at all.
fn contended_workload(ops: usize, gap: u64) -> Workload {
    let trace =
        || Trace::from_ops((0..ops).map(|_| TraceOp::store(1).after(gap)).collect::<Vec<_>>());
    Workload::new("prop-degradation", vec![trace(), trace()]).expect("two traces")
}

fn lut() -> ModeSwitchLut {
    ModeSwitchLut::new(vec![vec![timed(50), timed(50)], vec![timed(50), TimerValue::MSI]])
        .expect("valid LUT")
}

/// One arbitrary fault: per-core timing corruption (`ignore-timer-protection`
/// / `drop-timer-expiry` analogues) or coreless coherence corruption
/// (`skip-invalidation` / `skip-evict-writeback` analogues).
fn fault_strategy() -> impl Strategy<Value = FaultSpec> {
    let kind = prop_oneof![
        (5_000u64..=30_000).prop_map(|t| FaultKind::TimerCorruption {
            value: TimerValue::timed(t).expect("≤ 16 bits"),
        }),
        (2_000u64..=10_000).prop_map(|cycles| FaultKind::TimerStuck { cycles }),
        Just(FaultKind::LineCorruption),
        Just(FaultKind::SpuriousEviction),
    ];
    (kind, 0usize..2, 10u64..2_000).prop_map(|(kind, core, at)| FaultSpec {
        kind,
        core,
        at: Cycles::new(at),
    })
}

fn run(faults: &[FaultSpec]) -> DegradationReport {
    let config = SimConfig::builder(2).timers(vec![timed(50); 2]).build().expect("valid config");
    run_with_watchdog(
        config,
        &contended_workload(80, 120),
        &lut(),
        FaultPlan::new(faults.to_vec()),
        &WatchdogPolicy::default(),
    )
    .expect("watchdog run completes")
}

properties! {
    #![cases(12)]

    /// Same faults in, same report out — struct-equal and JSON-equal.
    #[test]
    fn report_is_deterministic(faults in collection::vec(fault_strategy(), 1..4)) {
        let a = run(&faults);
        let b = run(&faults);
        assert_eq!(&a, &b);
        let ja = serde_json::to_string_pretty(&a.to_json()).expect("serialize");
        let jb = serde_json::to_string_pretty(&b.to_json()).expect("serialize");
        assert_eq!(ja, jb);
    }

    /// Attribution partitions the convictions: per-core counts carry
    /// exactly the violations that named a core (latency bounds here), the
    /// machine bucket exactly the coreless ones (coherence sweeps here).
    #[test]
    fn attribution_partitions_convictions(
        faults in collection::vec(fault_strategy(), 1..4),
    ) {
        let report = run(&faults);
        assert_eq!(report.core_violations.len(), 2);
        assert_eq!(
            report.core_violations.iter().sum::<u64>() + report.machine_violations,
            report.violations_total(),
        );
        // In this campaign family progress checking is off and coherence
        // convictions are always coreless, so the partition is exact by
        // kind as well.
        assert_eq!(report.machine_violations, report.coherence_violations);
        assert_eq!(
            report.core_violations.iter().sum::<u64>(),
            report.latency_violations + report.progress_violations,
        );
        // No coreless violation increments a per-core count: every recorded
        // coreless conviction is accounted for by the machine bucket.
        let recorded_coreless =
            report.violations.iter().filter(|v| v.core.is_none()).count() as u64;
        assert!(report.machine_violations >= recorded_coreless);
        // And every escalation names a real core or no core at all.
        for s in &report.switches {
            if let Some(c) = s.trigger {
                assert!(c < 2, "trigger core {c} out of range");
            }
        }
    }
}
