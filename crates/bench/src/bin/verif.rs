//! Exhaustive protocol verification driver — the CI entry point of
//! `cohort-verif`.
//!
//! ```text
//! cargo run --release -p cohort-bench --bin verif [-- <mode>] [--ops N]
//! ```
//!
//! Modes:
//!
//! - `exhaustive` — model-check every θ-class mix of 2 and 3 cores on a
//!   single line (plus every 2-core mix on two lines), reporting
//!   states/edges/depth, and fail on any invariant violation;
//! - `mutations`  — flip each transition-rule mutation in turn, require
//!   the checker to produce a counterexample of the matching invariant
//!   class, print the minimal trace, and replay it through the *faithful*
//!   cycle-accurate engine (probe attached), which must come back clean;
//! - `presets`    — model-check the timer tables exported by the
//!   `cohort::Protocol` presets (CoHoRT mix, MSI family, PENDULUM);
//! - `all` (default) — everything above.
//!
//! Exits non-zero on the first failed expectation.

use std::process::ExitCode;

use cohort::Protocol;
use cohort_types::TimerValue;
use cohort_verif::{explore, replay, theta_mixes, CheckReport, ModelConfig, Mutation, ThetaClass};

fn mix_label(mix: &[ThetaClass]) -> String {
    let parts: Vec<String> = mix.iter().map(ToString::to_string).collect();
    format!("[{}]", parts.join(", "))
}

/// Maps a concrete timer register to its verification class.
fn theta_class(timer: TimerValue) -> ThetaClass {
    match timer.theta() {
        None => ThetaClass::Msi,
        Some(0) => ThetaClass::Zero,
        Some(_) => ThetaClass::Timed,
    }
}

/// Prints one explored configuration's reachability summary. Returns
/// `false` (and prints the counterexample) on a violation.
fn check_clean(label: &str, report: &CheckReport) -> bool {
    println!(
        "  {label:<28} {:>9} states {:>10} edges  depth {:>3}  {}",
        report.states,
        report.edges,
        report.depth,
        if report.is_clean() { "ok" } else { "FAIL" }
    );
    if let Some(cx) = &report.counterexample {
        println!("{cx}");
        return false;
    }
    if report.truncated {
        println!("  state cap hit: the space was not exhausted");
        return false;
    }
    true
}

fn run_exhaustive(ops: u8) -> bool {
    let mut ok = true;
    let mut states = 0usize;
    let mut edges = 0usize;
    for cores in [2usize, 3] {
        println!("exhaustive sweep: {cores} cores x 1 line, {ops} ops/core, all θ mixes");
        for mix in theta_mixes(cores) {
            let config = ModelConfig::new(&mix, 1).with_ops(ops);
            let report = explore(&config);
            states += report.states;
            edges += report.edges;
            ok &= check_clean(&mix_label(&mix), &report);
        }
    }
    println!("exhaustive sweep: 2 cores x 2 lines, {ops} ops/core, all θ mixes");
    for mix in theta_mixes(2) {
        let config = ModelConfig::new(&mix, 2).with_ops(ops);
        let report = explore(&config);
        states += report.states;
        edges += report.edges;
        ok &= check_clean(&mix_label(&mix), &report);
    }
    println!("total: {states} states, {edges} edges explored");
    ok
}

fn run_mutations(ops: u8) -> bool {
    let base = ModelConfig::new(&[ThetaClass::Timed, ThetaClass::Msi], 1).with_ops(ops);
    let mut ok = true;
    for mutation in Mutation::ALL {
        println!("mutation `{mutation}`:");
        let mutated = base.clone().with_mutation(mutation);
        let report = explore(&mutated);
        let Some(cx) = report.counterexample else {
            println!("  FAIL: the checker did not catch the mutation");
            ok = false;
            continue;
        };
        let expected = mutation.expected_violation();
        if Some(cx.violation.kind) != expected {
            println!("  FAIL: expected a {:?} violation, got {}", expected, cx.violation);
            ok = false;
            continue;
        }
        print!("{cx}");
        match replay(&base, &cx.trace) {
            Ok(outcome) => {
                println!(
                    "  replay through the faithful engine: {} accesses, {} probe violations, {}",
                    outcome.accesses,
                    outcome.probe_violations.len(),
                    if outcome.engine_is_clean() { "clean" } else { "VIOLATIONS" }
                );
                if !outcome.engine_is_clean() {
                    for v in &outcome.probe_violations {
                        println!("    probe: {v}");
                    }
                    if let Err(e) = &outcome.engine_state {
                        println!("    deep state: {e}");
                    }
                    ok = false;
                }
            }
            Err(e) => {
                println!("  FAIL: replay did not run: {e}");
                ok = false;
            }
        }
    }
    ok
}

fn run_presets(ops: u8) -> bool {
    let cores = 2;
    let presets = [
        Protocol::Cohort { timers: vec![TimerValue::timed(100).expect("valid"), TimerValue::Msi] },
        Protocol::Msi,
        Protocol::MsiFcfs,
        Protocol::Pcc,
        Protocol::Pendulum { critical: vec![true, false], theta: 50 },
    ];
    println!("preset timer tables ({cores} cores, {ops} ops/core):");
    let mut ok = true;
    for preset in presets {
        let table = match preset.timer_table(cores) {
            Ok(table) => table,
            Err(e) => {
                println!("  {:<12} FAIL: {e}", preset.label());
                ok = false;
                continue;
            }
        };
        let mix: Vec<ThetaClass> = table.into_iter().map(theta_class).collect();
        let config = ModelConfig::new(&mix, 1).with_ops(ops);
        ok &= check_clean(&format!("{} {}", preset.label(), mix_label(&mix)), &explore(&config));
    }
    ok
}

fn main() -> ExitCode {
    let mut mode = String::from("all");
    let mut ops: u8 = 3;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "exhaustive" | "mutations" | "presets" | "all" => mode = arg,
            "--ops" => {
                let Some(value) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--ops expects a small integer");
                    return ExitCode::FAILURE;
                };
                ops = value;
            }
            other => {
                eprintln!(
                    "unknown argument `{other}` \
                     (expected: exhaustive | mutations | presets | all, --ops N)"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let mut ok = true;
    if matches!(mode.as_str(), "exhaustive" | "all") {
        ok &= run_exhaustive(ops);
    }
    if matches!(mode.as_str(), "mutations" | "all") {
        ok &= run_mutations(ops);
    }
    if matches!(mode.as_str(), "presets" | "all") {
        ok &= run_presets(ops);
    }

    if ok {
        println!("verification: all checks passed");
        ExitCode::SUCCESS
    } else {
        println!("verification: FAILED");
        ExitCode::FAILURE
    }
}
