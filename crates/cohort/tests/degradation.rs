//! End-to-end graceful degradation: an injected coherence fault starves a
//! time-based core past its Eq. 1 bound, the runtime watchdog convicts it,
//! the driver escalates the Mode-Switch LUT — degrading the low-criticality
//! core to MSI online — and the post-switch tail runs back inside the
//! envelope. This is the acceptance scenario of the fault-injection PR.

use cohort::{run_with_watchdog, ModeSwitchLut, WatchdogPolicy};
use cohort_sim::{FaultKind, FaultPlan, FaultSpec, SimConfig};
use cohort_trace::{Trace, TraceOp, Workload};
use cohort_types::{Cycles, TimerValue};

fn timed(theta: u64) -> TimerValue {
    TimerValue::timed(theta).expect("θ fits in 16 bits")
}

/// Both cores hammer the same line with a fixed inter-access gap — the
/// ping-pong pattern that makes every θ window visible in the latencies.
fn shared_store_workload(ops: usize, gap: u64) -> Workload {
    let trace =
        || Trace::from_ops((0..ops).map(|_| TraceOp::store(1).after(gap)).collect::<Vec<_>>());
    Workload::new("degradation-ping-pong", vec![trace(), trace()]).expect("two traces")
}

/// Mode 1 keeps both cores time-based; mode 2 degrades the low-criticality
/// core 1 to MSI (the §VI escalation row).
fn lut() -> ModeSwitchLut {
    ModeSwitchLut::new(vec![vec![timed(50), timed(50)], vec![timed(50), TimerValue::MSI]])
        .expect("valid LUT")
}

fn two_timed() -> SimConfig {
    SimConfig::builder(2).timers(vec![timed(50); 2]).build().expect("valid config")
}

#[test]
fn corrupted_timer_triggers_online_degradation_to_msi() {
    // Core 1's θ register is silently rewritten from 50 to 20 000. The next
    // time it owns the shared line, core 0 starves for ~20 000 cycles —
    // far beyond the 212-cycle Eq. 1 bound — and the watchdog escalates to
    // mode 2, whose register write both repairs the corruption and degrades
    // core 1 to MSI. Every request issued after the switch completes inside
    // the (re-derived) bound.
    let plan = FaultPlan::new(vec![FaultSpec {
        kind: FaultKind::TimerCorruption { value: timed(20_000) },
        core: 1,
        at: Cycles::new(10),
    }]);
    let report = run_with_watchdog(
        two_timed(),
        &shared_store_workload(150, 150),
        &lut(),
        plan,
        &WatchdogPolicy::default(),
    )
    .expect("watchdog run completes");

    assert_eq!(report.planned_faults, 1);
    assert_eq!(report.faults.len(), 1, "the corruption fired");
    assert!(report.latency_violations >= 1, "the starved core must convict");
    assert_eq!(report.switches.len(), 1, "one escalation, no flapping");
    assert_eq!(report.switches[0].from, 1);
    assert_eq!(report.switches[0].to, 2);
    assert_eq!(report.final_mode, 2, "degradation is sticky by default");
    let detection = report.detection_latency.expect("fault and conviction both happened");
    assert!(detection > 0, "conviction happens after injection");

    let post = report.post_switch.expect("a switch was taken");
    assert!(post.requests > 0, "the tail must exercise the degraded mode");
    assert_eq!(post.violations, 0, "post-switch requests satisfy Eq. 1");
    assert!(post.compliant);
}

#[test]
fn degradation_report_is_deterministic() {
    let run = || {
        let plan = FaultPlan::new(vec![FaultSpec {
            kind: FaultKind::TimerCorruption { value: timed(20_000) },
            core: 1,
            at: Cycles::new(10),
        }]);
        run_with_watchdog(
            two_timed(),
            &shared_store_workload(150, 150),
            &lut(),
            plan,
            &WatchdogPolicy::default(),
        )
        .expect("watchdog run completes")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical inputs must produce identical reports");
    let ja = serde_json::to_string_pretty(&a.to_json()).expect("serialize");
    let jb = serde_json::to_string_pretty(&b.to_json()).expect("serialize");
    assert_eq!(ja, jb, "and identical JSON documents");
}

#[test]
fn transient_fault_repromotes_after_clean_window() {
    // A one-shot bus jam convicts once; after the escalation, a clean
    // 5 000-cycle window lets the opt-in re-promotion policy step the
    // system back to mode 1.
    let plan = FaultPlan::new(vec![FaultSpec {
        kind: FaultKind::BusDelay { cycles: 5_000 },
        core: 0,
        at: Cycles::new(10),
    }]);
    let policy = WatchdogPolicy { repromote_after: Some(5_000), ..WatchdogPolicy::default() };
    let report =
        run_with_watchdog(two_timed(), &shared_store_workload(150, 100), &lut(), plan, &policy)
            .expect("watchdog run completes");

    assert!(report.latency_violations >= 1, "the jam must convict");
    assert_eq!(report.switches.len(), 2, "one escalation, one re-promotion");
    assert_eq!(report.switches[0].to, 2);
    assert_eq!(report.switches[1].to, 1);
    assert_eq!(report.switches[1].trigger, None, "re-promotion has no triggering core");
    assert_eq!(report.final_mode, 1, "the transient fault is fully recovered");
    let post = report.post_switch.expect("switches were taken");
    assert!(post.compliant, "the restored mode runs inside Eq. 1");
}

/// Both cores only *load* the same line: every copy stays Shared, nothing
/// is invalidated, and no latency bound can be violated. The only possible
/// convictions are machine-wide coherence sweeps.
fn shared_load_workload(ops: usize, gap: u64) -> Workload {
    let trace =
        || Trace::from_ops((0..ops).map(|_| TraceOp::load(1).after(gap)).collect::<Vec<_>>());
    Workload::new("degradation-read-share", vec![trace(), trace()]).expect("two traces")
}

#[test]
fn coreless_violations_are_not_pinned_on_core_zero() {
    // Regression test for the conviction-misattribution bug: a
    // LineCorruption fault flips core 0's Shared copy to Modified without a
    // bus transaction, so the watchdog's deep coherence sweep fails — a
    // *machine-wide* conviction with `core: None`. The old loop attributed
    // it to core 0 via `unwrap_or(0)` and convicted that core; the fixed
    // loop counts it in the machine bucket and escalates without naming a
    // trigger core.
    let plan = FaultPlan::new(vec![FaultSpec {
        kind: FaultKind::LineCorruption,
        core: 0,
        at: Cycles::new(300),
    }]);
    let report = run_with_watchdog(
        two_timed(),
        &shared_load_workload(60, 100),
        &lut(),
        plan,
        &WatchdogPolicy::default(),
    )
    .expect("watchdog run completes");

    assert!(report.coherence_violations >= 1, "the corrupted line must be caught by the sweep");
    assert_eq!(report.latency_violations, 0, "read-sharing never violates a latency bound");
    assert_eq!(
        report.core_violations,
        vec![0, 0],
        "no coreless violation may increment a per-core count"
    );
    assert_eq!(report.machine_violations, report.coherence_violations);
    assert!(!report.switches.is_empty(), "machine-wide convictions still escalate");
    assert_eq!(report.switches[0].trigger, None, "the escalation names no trigger core");
    assert!(report.switches[0].to > report.switches[0].from, "and it is an escalation");
}

#[test]
fn per_core_and_machine_attribution_add_up() {
    // The timer-corruption campaign of the first test, re-checked for the
    // new attribution fields: every conviction lands either on the core
    // that suffered it or in the machine bucket, never both, never neither.
    let plan = FaultPlan::new(vec![FaultSpec {
        kind: FaultKind::TimerCorruption { value: timed(20_000) },
        core: 1,
        at: Cycles::new(10),
    }]);
    let report = run_with_watchdog(
        two_timed(),
        &shared_store_workload(150, 150),
        &lut(),
        plan,
        &WatchdogPolicy::default(),
    )
    .expect("watchdog run completes");

    assert_eq!(report.core_violations.len(), 2);
    assert_eq!(
        report.core_violations.iter().sum::<u64>() + report.machine_violations,
        report.violations_total(),
        "attribution partitions the convictions"
    );
    assert!(report.core_violations.iter().sum::<u64>() >= 1, "the starved core is attributed");
}

#[test]
fn at_top_mode_watchdog_stays_and_keeps_convicting() {
    // A campaign that violates at every mode: the first corruption drives
    // the system to the LUT's top mode (which repairs the register while
    // degrading core 1 to MSI); a second corruption, injected well after the
    // first switch's cooldown, re-violates *at* the top mode. The driver
    // must stay at `lut.modes()` — `mode.next()` never steps past the
    // table — while convictions keep accumulating.
    let table = lut();
    let plan = FaultPlan::new(vec![
        FaultSpec {
            kind: FaultKind::TimerCorruption { value: timed(20_000) },
            core: 1,
            at: Cycles::new(10),
        },
        FaultSpec {
            kind: FaultKind::TimerCorruption { value: timed(20_000) },
            core: 1,
            at: Cycles::new(30_000),
        },
    ]);
    let report = run_with_watchdog(
        two_timed(),
        &shared_store_workload(400, 150),
        &table,
        plan,
        &WatchdogPolicy::default(),
    )
    .expect("watchdog run completes at the top mode instead of erroring past it");

    assert_eq!(report.faults.len(), 2, "both corruptions fired");
    assert_eq!(report.final_mode, table.modes(), "the driver pins at the top mode");
    for s in &report.switches {
        assert!(s.to <= table.modes(), "no switch may step past the table");
        assert!(s.from <= table.modes());
    }
    let escalations = report.switches.iter().filter(|s| s.to > s.from).count();
    assert_eq!(escalations, 1, "the top mode absorbs the second campaign without a switch");
    let last_switch = report.switches.last().expect("one escalation").at;
    let convicted_at_top = report
        .violations
        .iter()
        .filter(|v| v.at.get() > last_switch + WatchdogPolicy::default().cooldown)
        .count();
    assert!(convicted_at_top >= 1, "convictions keep landing while pinned at the top mode");
}

#[test]
fn lut_core_mismatch_is_rejected() {
    let narrow = ModeSwitchLut::new(vec![vec![timed(50)]]).expect("valid 1-core LUT");
    let err = run_with_watchdog(
        two_timed(),
        &shared_store_workload(4, 50),
        &narrow,
        FaultPlan::empty(),
        &WatchdogPolicy::default(),
    );
    assert!(err.is_err());
}
