//! Chaos campaign: seeded fault-injection runs under the runtime WCML
//! watchdog, demonstrating online graceful degradation (§VI escalation to
//! MSI) and closing the loop with the `cohort-verif` replay harness —
//! every latency conviction is exported as a `cohort-trace` workload and
//! re-run clean through the faithful engine.
//!
//! ```text
//! cargo run --release -p cohort-bench --bin chaos -- \
//!     [--quick] [--json results/BENCH_chaos.json]
//! ```
//!
//! Every campaign runs **twice** and the two [`DegradationReport`]s must
//! serialize byte-identically. The report's check runs on every run, so
//! the bin exits non-zero on any non-determinism, watchdog miss, or dirty
//! replay, and CI can use it as a smoke gate.

use std::process::ExitCode;

use cohort::{run_with_watchdog, DegradationReport, ModeSwitchLut, WatchdogPolicy};
use cohort_bench::report::{ReportWriter, CHAOS};
use cohort_bench::CliOptions;
use cohort_sim::{FaultKind, FaultPlan, FaultSpec, SimConfig, WcmlViolationKind};
use cohort_trace::{Trace, TraceOp, Workload};
use cohort_types::{Cycles, Result, TimerValue};
use cohort_verif::{replay_workload, workload_from_violation};
use serde_json::json;

fn timed(theta: u64) -> TimerValue {
    TimerValue::timed(theta).expect("θ fits in 16 bits")
}

/// Every core hammers the same line with a fixed inter-access gap — the
/// ping-pong pattern that makes every θ window visible in the latencies.
fn shared_store_workload(cores: usize, ops: usize, gap: u64) -> Workload {
    let trace =
        || Trace::from_ops((0..ops).map(|_| TraceOp::store(1).after(gap)).collect::<Vec<_>>());
    Workload::new("chaos-ping-pong", (0..cores).map(|_| trace()).collect())
        .expect("at least one core")
}

/// One named fault campaign: a platform, a LUT, a fault plan, a policy.
struct Campaign {
    name: &'static str,
    config: SimConfig,
    workload: Workload,
    lut: ModeSwitchLut,
    plan: FaultPlan,
    policy: WatchdogPolicy,
    /// Whether the campaign is constructed to force an online escalation
    /// (checked, so CI catches a watchdog that stops convicting).
    expect_switch: bool,
}

fn two_core_config() -> SimConfig {
    SimConfig::builder(2).timers(vec![timed(50); 2]).build().expect("valid config")
}

fn four_core_config() -> SimConfig {
    SimConfig::builder(4).timers(vec![timed(50); 4]).build().expect("valid config")
}

/// Mode 1 keeps everyone time-based; mode 2 degrades the low-criticality
/// tail cores to MSI (the §VI escalation row).
fn degrading_lut(cores: usize, keep_timed: usize) -> ModeSwitchLut {
    let mode1 = vec![timed(50); cores];
    let mode2: Vec<TimerValue> =
        (0..cores).map(|i| if i < keep_timed { timed(50) } else { TimerValue::MSI }).collect();
    ModeSwitchLut::new(vec![mode1, mode2]).expect("valid LUT")
}

fn campaigns(quick: bool) -> Vec<Campaign> {
    let ops = if quick { 150 } else { 600 };
    vec![
        // The acceptance scenario: a silently corrupted θ register starves
        // the peer past its Eq. 1 bound, the watchdog convicts online and
        // the LUT escalation degrades the faulty core to MSI.
        Campaign {
            name: "timer-corruption",
            config: two_core_config(),
            workload: shared_store_workload(2, ops, 150),
            lut: degrading_lut(2, 1),
            plan: FaultPlan::new(vec![FaultSpec {
                kind: FaultKind::TimerCorruption { value: timed(20_000) },
                core: 1,
                at: Cycles::new(10),
            }]),
            policy: WatchdogPolicy::default(),
            expect_switch: true,
        },
        // A transient bus jam convicts once; the opt-in re-promotion
        // policy steps the system back after a clean window.
        Campaign {
            name: "bus-jam-repromote",
            config: two_core_config(),
            workload: shared_store_workload(2, ops, 100),
            lut: degrading_lut(2, 1),
            plan: FaultPlan::new(vec![FaultSpec {
                kind: FaultKind::BusDelay { cycles: 5_000 },
                core: 0,
                at: Cycles::new(10),
            }]),
            policy: WatchdogPolicy { repromote_after: Some(5_000), ..WatchdogPolicy::default() },
            expect_switch: true,
        },
        // A seeded pseudo-random storm on the four-core platform: whatever
        // fires, the run must stay deterministic and the report total.
        Campaign {
            name: "seeded-storm",
            config: four_core_config(),
            workload: shared_store_workload(4, ops, 120),
            lut: degrading_lut(4, 2),
            plan: FaultPlan::seeded(0xC0F0_57EE, 4, 40_000, 8),
            policy: WatchdogPolicy { progress_timeout: Some(50_000), ..WatchdogPolicy::default() },
            expect_switch: false,
        },
    ]
}

fn run_campaign(campaign: &Campaign) -> Result<DegradationReport> {
    run_with_watchdog(
        campaign.config.clone(),
        &campaign.workload,
        &campaign.lut,
        campaign.plan.clone(),
        &campaign.policy,
    )
}

/// Exports the first latency conviction as a `cohort-trace` workload and
/// replays it through the faithful (unfaulted) engine — the verif-loop
/// closure. Returns `None` when the campaign produced no latency
/// conviction to export.
fn replay_first_conviction(
    campaign: &Campaign,
    report: &DegradationReport,
) -> Result<Option<serde_json::Value>> {
    let Some(violation) =
        report.violations.iter().find(|v| v.kind == WcmlViolationKind::LatencyBound)
    else {
        return Ok(None);
    };
    let exported = workload_from_violation(&campaign.workload, violation);
    let outcome = replay_workload(campaign.config.clone(), &exported)?;
    Ok(Some(json!({
        "exported_accesses": exported.total_accesses(),
        "replay_accesses": outcome.accesses,
        "engine_clean": outcome.engine_is_clean(),
    })))
}

fn main() -> ExitCode {
    let options = CliOptions::parse_or_exit();
    let quick = options.quick;
    let mut records = Vec::new();
    let mut failed = false;

    for campaign in &campaigns(quick) {
        let (first, second) = match (run_campaign(campaign), run_campaign(campaign)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{}: run failed: {e}", campaign.name);
                failed = true;
                continue;
            }
        };
        let ja = serde_json::to_string_pretty(&first.to_json()).unwrap_or_default();
        let jb = serde_json::to_string_pretty(&second.to_json()).unwrap_or_default();
        let deterministic = first == second && ja == jb && !ja.is_empty();
        if campaign.expect_switch {
            let compliant =
                first.post_switch.as_ref().is_some_and(|p| p.requests > 0 && p.compliant);
            if first.switches.is_empty() || !compliant {
                eprintln!(
                    "{}: expected an online escalation with a compliant post-switch tail",
                    campaign.name
                );
                failed = true;
            }
        }
        let replay = match replay_first_conviction(campaign, &first) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: replay failed: {e}", campaign.name);
                failed = true;
                None
            }
        };

        println!(
            "{:<18} seed {:<12} faults {}/{}  convictions {:>3}  switches {}  final mode {}  \
             detection {}  post-switch {}",
            campaign.name,
            first.seed.map_or_else(|| "manual".to_owned(), |s| format!("{s:#x}")),
            first.faults.len(),
            first.planned_faults,
            first.violations_total(),
            first.switches.len(),
            first.final_mode,
            first.detection_latency.map_or_else(|| "-".to_owned(), |d| format!("{d}cy")),
            first.post_switch.as_ref().map_or_else(
                || "-".to_owned(),
                |p| if p.compliant {
                    format!("ok ({} reqs)", p.requests)
                } else {
                    "VIOLATED".to_owned()
                }
            ),
        );

        let mut record = serde_json::Map::new();
        record.insert("name".into(), json!(campaign.name));
        record.insert("cores".into(), json!(campaign.config.cores() as u64));
        record.insert("deterministic".into(), json!(deterministic));
        record.insert("report".into(), first.to_json());
        record.insert("replay".into(), replay.unwrap_or(serde_json::Value::Null));
        records.push(serde_json::Value::Object(record));
    }

    let report = json!({ "quick": quick, "campaigns": records });
    ReportWriter::new(&CHAOS).write_or_exit(options.json.as_deref(), report);

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
