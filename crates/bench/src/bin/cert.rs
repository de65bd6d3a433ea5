//! Monte Carlo certification campaign: population-scale fault-injection
//! and schedulability trials streamed through the fleet.
//!
//! The run makes the certification claims measurable:
//!
//! 1. **Scale** — tens of thousands of seeded trials flow through
//!    content-addressed `Certify` fleet jobs; only streaming aggregates
//!    survive (rates with Wilson 95% intervals, a log2 detection-latency
//!    histogram, the schedulability curve), never a per-run report.
//! 2. **Determinism** — the whole campaign runs **twice** over one
//!    persistent store; the aggregate documents must be bit-identical
//!    (fleet scheduling must not leak into the estimates) and the second
//!    run must replay entirely from the memo — zero fresh executions.
//! 3. **Reproducibility** — convictions are auto-minimized through the
//!    `cohort-verif` replay harness; every counterexample must re-convict
//!    under its original fault plan and replay clean on the faithful
//!    engine, and is written next to the report as
//!    `cert_counterexample_<seed>.json`.
//!
//! The report's check holds the trial accounting and claims 2 and 3, and
//! runs on every run, so a broken claim exits non-zero with or without
//! `--json`.
//!
//! ```text
//! cargo run --release -p cohort-bench --bin cert -- \
//!     [--quick] [--json results/BENCH_cert.json]
//! ```

use std::time::Instant;

use serde_json::json;

use cohort_bench::report::{ReportWriter, CERT};
use cohort_bench::CliOptions;
use cohort_cert::{run_certification, CertConfig, CertOutcome};

fn canonical(v: &serde_json::Value) -> String {
    serde_json::to_string(v).expect("a Value serializes infallibly")
}

fn campaign_config(quick: bool, counterexample_dir: Option<std::path::PathBuf>) -> CertConfig {
    CertConfig {
        fault_trials: if quick { 2_048 } else { 8_192 },
        sched_trials: if quick { 8_192 } else { 32_768 },
        batch_trials: 256,
        shards: if quick { 2 } else { 4 },
        minimize_limit: 2,
        counterexample_dir,
        ..CertConfig::default()
    }
}

fn print_outcome(outcome: &CertOutcome, seconds: f64) {
    let trials = outcome.fault.trials + outcome.sched.trials;
    println!(
        "  {} trials ({} fault + {} sched) over {} jobs in {seconds:.2} s ({:.0} trials/s)",
        trials,
        outcome.fault.trials,
        outcome.sched.trials,
        outcome.jobs,
        trials as f64 / seconds,
    );
    let detected = &outcome.fault.detected;
    let (lo, hi) =
        cohort_cert::wilson(detected.successes, detected.trials, cohort_cert::WILSON_Z95);
    println!(
        "  detection rate {:.4} (95% CI [{lo:.4}, {hi:.4}]), \
         false convictions {}/{} control trials",
        detected.value(),
        outcome.fault.false_convictions.successes,
        outcome.fault.false_convictions.trials,
    );
    println!(
        "  degradation success {:.4}, max detection latency {} cycles, \
         {} schedulable of {} task sets",
        outcome.fault.degradation_success.value(),
        outcome.fault.detection.max(),
        outcome.sched.schedulable,
        outcome.sched.trials,
    );
    for c in &outcome.counterexamples {
        println!(
            "  counterexample seed {}: {} -> {} -> {} accesses \
             (kind {}, reconvicts {}, replay clean {})",
            c.seed,
            c.original_accesses,
            c.exported_accesses,
            c.minimized_accesses,
            c.kind.slug(),
            c.reconvicts,
            c.replay_clean,
        );
    }
}

fn main() {
    let options = CliOptions::parse_or_exit();
    let quick = options.quick;

    // Counterexamples land next to the report (results/ in CI).
    let counterexample_dir =
        options.json.as_ref().map(|p| p.parent().unwrap_or(std::path::Path::new(".")).to_owned());
    let mut config = campaign_config(quick, counterexample_dir);
    // Both runs share one persistent store: run 1 populates it cold, run
    // 2 must replay the entire campaign from the memo without a single
    // fresh execution.
    let store_dir = std::env::temp_dir().join(format!("cohort-cert-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&store_dir).ok();
    config.store_dir = Some(store_dir.clone());
    let trials_planned = config.fault_trials + config.sched_trials;

    println!("certification campaign ({})", if quick { "quick" } else { "full" });
    println!(
        "\nrun 1: {} fault + {} sched trials in batches of {} over {} shards ...",
        config.fault_trials, config.sched_trials, config.batch_trials, config.shards,
    );
    let start = Instant::now();
    let first = run_certification(&config).expect("campaign runs");
    let first_seconds = start.elapsed().as_secs_f64();
    print_outcome(&first, first_seconds);

    println!("\nrun 2: same campaign, fresh fleet over the warm store ...");
    let start = Instant::now();
    let second = run_certification(&config).expect("campaign runs");
    let second_seconds = start.elapsed().as_secs_f64();
    let identical = canonical(&first.aggregate_json()) == canonical(&second.aggregate_json());
    println!(
        "  {second_seconds:.2} s, {} fresh execution(s), {} store hit(s), \
         aggregates bit-identical: {identical}",
        second.stats.executed, second.stats.store_hits,
    );
    std::fs::remove_dir_all(&store_dir).ok();

    let report = json!({
        "quick": quick,
        "trials": trials_planned,
        "fault": first.fault.to_json(),
        "schedulability": first.sched.to_json(),
        "counterexamples": first
            .counterexamples
            .iter()
            .map(cohort_cert::Counterexample::to_json)
            .collect::<Vec<serde_json::Value>>(),
        "jobs": first.jobs,
        "runs_identical": identical,
        "fleet": json!({
            "submitted": first.stats.queue.submitted,
            "deduplicated": first.stats.queue.deduplicated,
            "executed": first.stats.executed,
            "served": first.stats.served,
            "health": first.stats.health.to_json(),
        }),
        "memoized_run": json!({
            "executed": second.stats.executed,
            "store_hits": second.stats.store_hits,
            "health": second.stats.health.to_json(),
        }),
        "seconds": json!({ "run1": first_seconds, "run2": second_seconds }),
    });
    ReportWriter::new(&CERT).write_or_exit(options.json.as_deref(), report);
}
