//! Validates the machine-readable artifacts of the figure bins. Each flag
//! names a document kind in the validator registry below: a `--report`
//! figure report, a `--trace` Chrome-trace file, an `--optim` GA-engine
//! benchmark report, a `--chaos` fault-campaign report, a `--sim`
//! engine-throughput report, a `--fleet` fleet-service report, a
//! `--lint` static-analysis report, or a `--cert` certification-campaign
//! report. Exits
//! non-zero on the first schema violation — CI runs this after a smoke
//! regeneration.
//!
//! Document identity comes from the shared [`cohort_bench::report`]
//! definitions: the emitters stamp each document with a `"schema"` tag
//! through a `ReportWriter`, and the validators here verify the identical
//! tag — one definition, no drift. Tagless documents written before the
//! tag existed stay valid.
//!
//! ```text
//! cargo run --release -p cohort-bench --bin schema_check -- \
//!     [--report <report.json>] [--trace <trace.json>] \
//!     [--optim <optim.json>] [--chaos <chaos.json>] [--sim <sim.json>] \
//!     [--fleet <fleet.json>] [--lint <lint.json>] [--cert <cert.json>]
//! ```

use std::path::Path;
use std::process::ExitCode;

use cohort_bench::report;
use cohort_cert::{FaultAggregate, SchedAggregate};

type CheckResult = Result<(), String>;

fn get<'v>(
    v: &'v serde_json::Value,
    key: &str,
    what: &str,
) -> Result<&'v serde_json::Value, String> {
    v.get(key).ok_or_else(|| format!("{what}: missing key `{key}`"))
}

fn expect_u64(v: &serde_json::Value, key: &str, what: &str) -> CheckResult {
    get(v, key, what)?
        .as_u64()
        .map(|_| ())
        .ok_or_else(|| format!("{what}: `{key}` is not an unsigned integer"))
}

fn expect_f64(v: &serde_json::Value, key: &str, what: &str) -> CheckResult {
    get(v, key, what)?
        .as_f64()
        .map(|_| ())
        .ok_or_else(|| format!("{what}: `{key}` is not a number"))
}

fn expect_str(v: &serde_json::Value, key: &str, what: &str) -> CheckResult {
    get(v, key, what)?
        .as_str()
        .map(|_| ())
        .ok_or_else(|| format!("{what}: `{key}` is not a string"))
}

/// Checks one element of a report's `"runs"` array.
fn check_run(run: &serde_json::Value, index: usize) -> CheckResult {
    let what = format!("runs[{index}]");
    for key in ["config", "protocol", "workload"] {
        expect_str(run, key, &what)?;
    }
    for key in ["execution_time", "cycles"] {
        expect_u64(run, key, &what)?;
    }
    for key in ["bus_utilisation", "hit_ratio"] {
        expect_f64(run, key, &what)?;
    }
    // Nullable (non-CoHoRT protocols carry no timers) but always present.
    get(run, "timers", &what)?;
    let cores = get(run, "cores", &what)?
        .as_array()
        .ok_or_else(|| format!("{what}: `cores` is not an array"))?;
    if cores.is_empty() {
        return Err(format!("{what}: empty `cores` array"));
    }
    for (i, core) in cores.iter().enumerate() {
        let core_what = format!("{what}.cores[{i}]");
        for key in ["hits", "misses", "total_latency", "worst_request"] {
            expect_u64(core, key, &core_what)?;
        }
        for key in ["wcml_bound", "wcl_bound"] {
            // Bounds are nullable but the keys must exist (stable schema).
            get(core, key, &core_what)?;
        }
    }
    if let Some(metrics) = run.get("metrics") {
        check_metrics(metrics, &what)?;
    }
    Ok(())
}

/// Checks an embedded `MetricsReport` (`--metrics` runs only).
fn check_metrics(metrics: &serde_json::Value, run_what: &str) -> CheckResult {
    let what = format!("{run_what}.metrics");
    for key in ["cycles", "bus_busy", "mode_switches"] {
        expect_u64(metrics, key, &what)?;
    }
    expect_f64(metrics, "bus_utilisation", &what)?;
    let cores = get(metrics, "cores", &what)?
        .as_array()
        .ok_or_else(|| format!("{what}: `cores` is not an array"))?;
    for (i, core) in cores.iter().enumerate() {
        let core_what = format!("{what}.cores[{i}]");
        for key in ["accesses", "latency_p50", "latency_p99", "latency_max", "bus_busy"] {
            expect_u64(core, key, &core_what)?;
        }
        let histogram = get(core, "histogram", &core_what)?
            .as_array()
            .ok_or_else(|| format!("{core_what}: `histogram` is not an array"))?;
        let mut total = 0u64;
        for bucket in histogram {
            total += get(bucket, "count", &core_what)?
                .as_u64()
                .ok_or_else(|| format!("{core_what}: bucket count is not an integer"))?;
        }
        let accesses = get(core, "accesses", &core_what)?.as_u64().unwrap_or(0);
        if total != accesses {
            return Err(format!(
                "{core_what}: histogram counts sum to {total}, accesses is {accesses}"
            ));
        }
    }
    Ok(())
}

/// Checks a `--json` report document.
fn check_report(doc: &serde_json::Value) -> CheckResult {
    report::REPORT.check(doc)?;
    expect_str(doc, "generator", "report")?;
    let runs = get(doc, "runs", "report")?
        .as_array()
        .ok_or_else(|| "report: `runs` is not an array".to_string())?;
    if runs.is_empty() {
        return Err("report: empty `runs` array".into());
    }
    for (i, run) in runs.iter().enumerate() {
        check_run(run, i)?;
    }
    println!("report ok: {} runs", runs.len());
    Ok(())
}

/// Checks an `optim` engine-benchmark document.
fn check_optim(doc: &serde_json::Value) -> CheckResult {
    report::OPTIM.check(doc)?;
    expect_str(doc, "generator", "optim")?;
    if get(doc, "generator", "optim")?.as_str() != Some("optim") {
        return Err("optim: `generator` is not \"optim\"".into());
    }
    for key in ["host_parallelism", "population", "generations", "spins", "requests", "reps"] {
        expect_u64(doc, key, "optim")?;
    }
    expect_f64(doc, "speedup", "optim")?;
    if get(doc, "bit_identical", "optim")?.as_bool() != Some(true) {
        return Err("optim: `bit_identical` must be true".into());
    }
    let runs = get(doc, "runs", "optim")?
        .as_array()
        .ok_or_else(|| "optim: `runs` is not an array".to_string())?;
    if runs.len() != 2 {
        return Err(format!("optim: expected a serial and a parallel run, got {}", runs.len()));
    }
    for (i, run) in runs.iter().enumerate() {
        let what = format!("optim.runs[{i}]");
        for key in ["workers", "evaluations", "cache_hits", "nan_evaluations"] {
            expect_u64(run, key, &what)?;
        }
        for key in ["seconds", "generations_per_sec", "cache_hit_rate", "best_fitness"] {
            expect_f64(run, key, &what)?;
        }
        expect_str(run, "stop", &what)?;
        let rate = get(run, "cache_hit_rate", &what)?.as_f64().unwrap_or(-1.0);
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("{what}: cache_hit_rate {rate} outside [0, 1]"));
        }
    }
    // Parallel evaluation must never change what gets evaluated.
    let evals: Vec<Option<u64>> = runs.iter().map(|r| r.get("evaluations")?.as_u64()).collect();
    if evals[0] != evals[1] {
        return Err(format!("optim: serial/parallel evaluation counts differ: {evals:?}"));
    }
    let timer = get(doc, "timer_problem", "optim")?;
    let what = "optim.timer_problem";
    for key in ["evaluations", "cache_hits"] {
        expect_u64(timer, key, what)?;
    }
    for key in ["seconds", "cache_hit_rate", "best_fitness"] {
        expect_f64(timer, key, what)?;
    }
    expect_str(timer, "stop", what)?;
    if get(timer, "feasible", what)?.as_bool().is_none() {
        return Err(format!("{what}: `feasible` is not a boolean"));
    }
    let kernel = get(doc, "hit_kernel", "optim")?;
    let what = "optim.hit_kernel";
    for key in ["rounds", "calls", "accesses", "hits", "misses"] {
        expect_u64(kernel, key, what)?;
    }
    for key in ["seconds", "ns_per_access"] {
        expect_f64(kernel, key, what)?;
    }
    let field = |key| kernel.get(key).and_then(serde_json::Value::as_u64).unwrap_or(0);
    if field("hits") + field("misses") != field("accesses") {
        return Err(format!("{what}: hits + misses is not the access count"));
    }
    let ns = kernel.get("ns_per_access").and_then(serde_json::Value::as_f64).unwrap_or(0.0);
    if !(ns.is_finite() && ns > 0.0) {
        return Err(format!("{what}: ns_per_access {ns} is not a positive time"));
    }
    println!("optim ok: speedup {}×", get(doc, "speedup", "optim")?.as_f64().unwrap_or(0.0));
    Ok(())
}

/// Checks one embedded `DegradationReport` of a chaos campaign.
fn check_degradation_report(report: &serde_json::Value, what: &str) -> CheckResult {
    for key in [
        "planned_faults",
        "requests",
        "cycles",
        "violations_total",
        "latency_violations",
        "progress_violations",
        "coherence_violations",
        "final_mode",
    ] {
        expect_u64(report, key, what)?;
    }
    // Nullable but always present (stable schema).
    for key in ["seed", "detection_latency", "post_switch"] {
        get(report, key, what)?;
    }
    let faults = get(report, "faults", what)?
        .as_array()
        .ok_or_else(|| format!("{what}: `faults` is not an array"))?;
    for (i, fault) in faults.iter().enumerate() {
        let fault_what = format!("{what}.faults[{i}]");
        expect_str(fault, "kind", &fault_what)?;
        for key in ["core", "scheduled", "fired"] {
            expect_u64(fault, key, &fault_what)?;
        }
    }
    let violations = get(report, "violations", what)?
        .as_array()
        .ok_or_else(|| format!("{what}: `violations` is not an array"))?;
    for (i, violation) in violations.iter().enumerate() {
        let v_what = format!("{what}.violations[{i}]");
        expect_str(violation, "kind", &v_what)?;
        for key in ["at", "issued", "latency", "bound"] {
            expect_u64(violation, key, &v_what)?;
        }
        for key in ["core", "line", "detail"] {
            get(violation, key, &v_what)?;
        }
    }
    let switches = get(report, "switches", what)?
        .as_array()
        .ok_or_else(|| format!("{what}: `switches` is not an array"))?;
    for (i, switch) in switches.iter().enumerate() {
        let s_what = format!("{what}.switches[{i}]");
        for key in ["at", "from", "to"] {
            expect_u64(switch, key, &s_what)?;
        }
        get(switch, "trigger", &s_what)?;
    }
    // Cross-checks: the aggregate counters must be internally consistent.
    let count =
        |key: &str| get(report, key, what).ok().and_then(serde_json::Value::as_u64).unwrap_or(0);
    let total = count("violations_total");
    let sum =
        count("latency_violations") + count("progress_violations") + count("coherence_violations");
    if total != sum {
        return Err(format!("{what}: violations_total {total} ≠ per-kind sum {sum}"));
    }
    // Attribution partition: per-core counts plus the machine-wide bucket
    // must cover every conviction — a coreless violation must never have
    // been pinned on a core.
    expect_u64(report, "machine_violations", what)?;
    let per_core = get(report, "core_violations", what)?
        .as_array()
        .ok_or_else(|| format!("{what}: `core_violations` is not an array"))?;
    let mut attributed = count("machine_violations");
    for (i, core) in per_core.iter().enumerate() {
        attributed += core
            .as_u64()
            .ok_or_else(|| format!("{what}: core_violations[{i}] is not an integer"))?;
    }
    if attributed != total {
        return Err(format!(
            "{what}: core + machine attribution sums to {attributed}, violations_total is {total}"
        ));
    }
    let planned = count("planned_faults");
    if faults.len() as u64 > planned {
        return Err(format!("{what}: {} fired faults exceed {planned} planned", faults.len()));
    }
    if let Some(post) = get(report, "post_switch", what)?.as_object() {
        let post_what = format!("{what}.post_switch");
        let post = serde_json::Value::Object(post.clone());
        for key in ["switch_at", "requests", "violations"] {
            expect_u64(&post, key, &post_what)?;
        }
        if get(&post, "compliant", &post_what)?.as_bool().is_none() {
            return Err(format!("{post_what}: `compliant` is not a boolean"));
        }
        if switches.is_empty() {
            return Err(format!("{what}: post_switch present but no switch was recorded"));
        }
    }
    Ok(())
}

/// Checks a `chaos` campaign document (`--chaos`).
fn check_chaos(doc: &serde_json::Value) -> CheckResult {
    report::CHAOS.check(doc)?;
    if get(doc, "generator", "chaos")?.as_str() != Some("chaos") {
        return Err("chaos: `generator` is not \"chaos\"".into());
    }
    if get(doc, "quick", "chaos")?.as_bool().is_none() {
        return Err("chaos: `quick` is not a boolean".into());
    }
    let campaigns = get(doc, "campaigns", "chaos")?
        .as_array()
        .ok_or_else(|| "chaos: `campaigns` is not an array".to_string())?;
    if campaigns.is_empty() {
        return Err("chaos: empty `campaigns` array".into());
    }
    let mut switched = 0u64;
    for (i, campaign) in campaigns.iter().enumerate() {
        let what = format!("chaos.campaigns[{i}]");
        expect_str(campaign, "name", &what)?;
        expect_u64(campaign, "cores", &what)?;
        if get(campaign, "deterministic", &what)?.as_bool() != Some(true) {
            return Err(format!("{what}: `deterministic` must be true"));
        }
        let report = get(campaign, "report", &what)?;
        check_degradation_report(report, &format!("{what}.report"))?;
        if !get(report, "switches", &what)?.as_array().is_none_or(Vec::is_empty) {
            switched += 1;
        }
        // The verif-loop closure: when a conviction was exported, the
        // faithful engine must have replayed it clean.
        let replay = get(campaign, "replay", &what)?;
        if !matches!(replay, serde_json::Value::Null)
            && get(replay, "engine_clean", &what)?.as_bool() != Some(true)
        {
            return Err(format!("{what}: replayed conviction was not clean"));
        }
    }
    // The smoke gate: at least one campaign must demonstrate an online
    // escalation (the acceptance criterion of the fault-injection PR).
    if switched == 0 {
        return Err("chaos: no campaign recorded a mode switch".into());
    }
    println!("chaos ok: {} campaigns, {switched} with online escalation", campaigns.len());
    Ok(())
}

/// Checks a Chrome-trace (`traceEvents`) document.
fn check_trace(doc: &serde_json::Value) -> CheckResult {
    let events = get(doc, "traceEvents", "trace")?
        .as_array()
        .ok_or_else(|| "trace: `traceEvents` is not an array".to_string())?;
    if events.is_empty() {
        return Err("trace: empty `traceEvents` array".into());
    }
    let mut begins = 0u64;
    let mut ends = 0u64;
    let mut spans = 0u64;
    for (i, event) in events.iter().enumerate() {
        let what = format!("traceEvents[{i}]");
        expect_str(event, "name", &what)?;
        expect_u64(event, "pid", &what)?;
        expect_u64(event, "tid", &what)?;
        let ph = get(event, "ph", &what)?
            .as_str()
            .ok_or_else(|| format!("{what}: `ph` is not a string"))?;
        match ph {
            "M" => {}
            "B" => {
                expect_u64(event, "ts", &what)?;
                begins += 1;
            }
            "E" => {
                expect_u64(event, "ts", &what)?;
                ends += 1;
                if ends > begins {
                    return Err(format!("{what}: `E` without a preceding `B`"));
                }
            }
            "X" => {
                expect_u64(event, "ts", &what)?;
                expect_u64(event, "dur", &what)?;
                spans += 1;
            }
            "i" => expect_u64(event, "ts", &what)?,
            other => return Err(format!("{what}: unknown phase `{other}`")),
        }
    }
    if begins != ends {
        return Err(format!("trace: {begins} `B` events but {ends} `E` events"));
    }
    if begins == 0 {
        return Err("trace: no bus tenures (`B`/`E` pairs) recorded".into());
    }
    println!("trace ok: {} events ({begins} tenures, {spans} miss spans)", events.len());
    Ok(())
}

/// Checks a `sim` simulator-throughput document (`--sim`,
/// `BENCH_sim.json`).
fn check_sim(doc: &serde_json::Value) -> CheckResult {
    report::SIM.check(doc)?;
    if get(doc, "generator", "sim")?.as_str() != Some("sim") {
        return Err("sim: `generator` is not \"sim\"".into());
    }
    if get(doc, "quick", "sim")?.as_bool().is_none() {
        return Err("sim: `quick` is not a boolean".into());
    }
    // The hard gate: running each scenario twice must reproduce the exact
    // event log, stats and fault records.
    if get(doc, "determinism", "sim")?.as_bool() != Some(true) {
        return Err("sim: `determinism` must be true".into());
    }
    expect_u64(doc, "presets_compared", "sim")?;
    let results = get(doc, "results", "sim")?
        .as_array()
        .ok_or_else(|| "sim: `results` is not an array".to_string())?;
    if results.is_empty() {
        return Err("sim: empty `results` array".into());
    }
    for (i, result) in results.iter().enumerate() {
        let what = format!("sim.results[{i}]");
        expect_str(result, "workload", &what)?;
        for key in ["cores", "accesses", "cycles_simulated"] {
            expect_u64(result, key, &what)?;
        }
        expect_f64(result, "cycles_per_sec", &what)?;
        let rate = get(result, "cycles_per_sec", &what)?.as_f64().unwrap_or(0.0);
        if rate <= 0.0 || !rate.is_finite() {
            return Err(format!("{what}: cycles_per_sec {rate} is not a positive finite number"));
        }
    }
    // The headline entry: the sparse DRAM-bound workload the event
    // scheduler exists for must lead the table.
    let first = &results[0];
    let sparse = get(first, "workload", "sim.results[0]")?.as_str().unwrap_or("");
    if !sparse.starts_with("sparse") {
        return Err(format!("sim: first result must be the sparse workload, got `{sparse}`"));
    }
    let sparse_rate = get(first, "cycles_per_sec", "sim.results[0]")?.as_f64().unwrap_or(0.0);
    println!("sim ok: {} workloads, sparse {:.1} M cycles/s", results.len(), sparse_rate / 1e6);
    Ok(())
}

/// Checks a `fleet` service-benchmark document (`--fleet`,
/// `BENCH_fleet.json`).
fn check_fleet(doc: &serde_json::Value) -> CheckResult {
    report::FLEET.check(doc)?;
    if get(doc, "generator", "fleet")?.as_str() != Some("fleet") {
        return Err("fleet: `generator` is not \"fleet\"".into());
    }
    if get(doc, "quick", "fleet")?.as_bool().is_none() {
        return Err("fleet: `quick` is not a boolean".into());
    }
    for key in ["shards", "lease_ms"] {
        expect_u64(doc, key, "fleet")?;
    }

    // The burst section: the dedup-on-submit acceptance gate. A burst of
    // duplicate submissions must have produced a positive dedup hit-rate
    // and a positive throughput.
    let burst = get(doc, "burst", "fleet")?;
    let what = "fleet.burst";
    for key in ["submissions", "distinct_jobs", "executed", "dedup_hits"] {
        expect_u64(burst, key, what)?;
    }
    for key in ["seconds", "submissions_per_sec", "dedup_rate"] {
        expect_f64(burst, key, what)?;
    }
    let count = |key: &str| get(burst, key, what).ok().and_then(serde_json::Value::as_u64);
    let dedup_rate = get(burst, "dedup_rate", what)?.as_f64().unwrap_or(-1.0);
    if !(dedup_rate > 0.0 && dedup_rate <= 1.0) {
        return Err(format!("{what}: dedup_rate {dedup_rate} is not in (0, 1]"));
    }
    let throughput = get(burst, "submissions_per_sec", what)?.as_f64().unwrap_or(0.0);
    if throughput <= 0.0 || !throughput.is_finite() {
        return Err(format!("{what}: submissions_per_sec {throughput} is not positive"));
    }
    if count("executed") > count("distinct_jobs") {
        return Err(format!(
            "{what}: executed {:?} exceeds distinct_jobs {:?}",
            count("executed"),
            count("distinct_jobs")
        ));
    }

    // The kill-recovery section: a worker killed mid-job must have forced
    // a lease reclaim, and the recomputed outcome must be bit-identical.
    let kill = get(doc, "kill_recovery", "fleet")?;
    let what = "fleet.kill_recovery";
    for key in ["reclaims", "resumed", "stale_completions"] {
        expect_u64(kill, key, what)?;
    }
    if get(kill, "reclaims", what)?.as_u64() == Some(0) {
        return Err(format!("{what}: no lease was reclaimed — the chaos hook never fired"));
    }
    if get(kill, "bit_identical", what)?.as_bool() != Some(true) {
        return Err(format!("{what}: `bit_identical` must be true"));
    }

    // The replay section: a second fleet over the same persistent store
    // must answer everything from the memo without executing.
    let replay = get(doc, "replay", "fleet")?;
    let what = "fleet.replay";
    expect_u64(replay, "store_hits", what)?;
    if get(replay, "executed", what)?.as_u64() != Some(0) {
        return Err(format!("{what}: a replayed run must execute nothing"));
    }
    if get(replay, "bit_identical", what)?.as_bool() != Some(true) {
        return Err(format!("{what}: `bit_identical` must be true"));
    }

    // The churn section (schema v2): the chaos campaign must have lost
    // nothing, convicted only the poison job, repaired every corruption
    // bit-identically, absorbed at least one disk fault, and reproduced
    // itself bit for bit.
    let churn = get(doc, "churn", "fleet")?;
    let what = "fleet.churn";
    for key in ["jobs", "cold_executed", "cold_served", "warm_executed", "warm_served"] {
        expect_u64(churn, key, what)?;
    }
    if get(churn, "lost", what)?.as_u64() != Some(0) {
        return Err(format!("{what}: the campaign lost jobs"));
    }
    if get(churn, "runs_identical", what)?.as_bool() != Some(true) {
        return Err(format!("{what}: the two campaign runs must be bit-identical"));
    }
    if get(churn, "kills", what)?.as_u64().unwrap_or(0) == 0 {
        return Err(format!("{what}: no worker was killed — the chaos hook never fired"));
    }
    let quarantine = get(churn, "quarantine", what)?
        .as_array()
        .ok_or_else(|| format!("{what}: `quarantine` is not an array"))?;
    if quarantine.is_empty() {
        return Err(format!("{what}: the poison job was never quarantined"));
    }
    for (i, diag) in quarantine.iter().enumerate() {
        let what = format!("{what}.quarantine[{i}]");
        expect_str(diag, "fingerprint", &what)?;
        expect_u64(diag, "worker", &what)?;
        if get(diag, "attempts", &what)?.as_u64().unwrap_or(0) == 0 {
            return Err(format!("{what}: a conviction must record spent attempts"));
        }
    }
    let cold = check_health(get(churn, "cold_health", what)?, &format!("{what}.cold_health"))?;
    let warm = check_health(get(churn, "warm_health", what)?, &format!("{what}.warm_health"))?;
    if cold.quarantined != quarantine.len() as u64 {
        return Err(format!(
            "{what}: {} quarantine diagnostics listed, cold_health convicted {}",
            quarantine.len(),
            cold.quarantined
        ));
    }
    if warm.repairs == 0 {
        return Err(format!("{what}: the bit-rotted entry was never repaired"));
    }
    if warm.repairs_bit_identical != warm.repairs {
        return Err(format!(
            "{what}: only {} of {} repairs were bit-identical",
            warm.repairs_bit_identical, warm.repairs
        ));
    }
    if get(churn, "disk_faults_injected", what)?.as_u64().unwrap_or(0) == 0
        || cold.disk_retries == 0
    {
        return Err(format!("{what}: no transient disk fault was injected and absorbed"));
    }
    println!(
        "fleet ok: dedup rate {dedup_rate:.2}, {throughput:.0} submissions/s, kill-recovery \
         bit-identical, churn lost nothing ({} conviction(s), {} repair(s))",
        quarantine.len(),
        warm.repairs,
    );
    Ok(())
}

/// The counters a well-formed `FleetHealth` snapshot must carry.
struct HealthCounts {
    quarantined: u64,
    repairs: u64,
    repairs_bit_identical: u64,
    disk_retries: u64,
}

/// Checks one embedded `FleetHealth` snapshot: all nine counters present
/// as unsigned integers, and the bounded disk retries never gave up.
fn check_health(doc: &serde_json::Value, what: &str) -> Result<HealthCounts, String> {
    for key in [
        "reclaims",
        "quarantined",
        "stale_completions",
        "corrupt_quarantined",
        "repairs",
        "repairs_bit_identical",
        "evictions",
        "disk_retries",
        "disk_give_ups",
    ] {
        expect_u64(doc, key, what)?;
    }
    let count = |key: &str| get(doc, key, what).ok().and_then(serde_json::Value::as_u64);
    if count("disk_give_ups") != Some(0) {
        return Err(format!("{what}: the store gave up on a disk operation"));
    }
    Ok(HealthCounts {
        quarantined: count("quarantined").unwrap_or(0),
        repairs: count("repairs").unwrap_or(0),
        repairs_bit_identical: count("repairs_bit_identical").unwrap_or(0),
        disk_retries: count("disk_retries").unwrap_or(0),
    })
}

/// Checks a `lint` static-analysis document (`--lint`, the CI gate's
/// `--json` output).
fn check_lint(doc: &serde_json::Value) -> CheckResult {
    report::LINT.check(doc)?;
    if get(doc, "generator", "lint")?.as_str() != Some("lint") {
        return Err("lint: `generator` is not \"lint\"".into());
    }
    let rep = get(doc, "report", "lint")?;
    let what = "lint.report";
    for key in ["files_scanned", "total", "suppressed", "unsuppressed"] {
        expect_u64(rep, key, what)?;
    }
    let count = |key: &str| get(rep, key, what).ok().and_then(serde_json::Value::as_u64);
    if count("files_scanned") == Some(0) {
        return Err(format!("{what}: zero files scanned — the walker found nothing"));
    }
    let total = count("total").unwrap_or(0);
    let suppressed = count("suppressed").unwrap_or(0);
    let unsuppressed = count("unsuppressed").unwrap_or(0);
    if suppressed + unsuppressed != total {
        return Err(format!(
            "{what}: suppressed {suppressed} + unsuppressed {unsuppressed} != total {total}"
        ));
    }
    // The gate invariant: CI artifacts must be clean.
    if unsuppressed != 0 {
        return Err(format!("{what}: {unsuppressed} unsuppressed diagnostics"));
    }
    let diags = get(rep, "diagnostics", what)?
        .as_array()
        .ok_or_else(|| format!("{what}: `diagnostics` is not an array"))?;
    if diags.len() as u64 != total {
        return Err(format!("{what}: {} diagnostics listed, total says {total}", diags.len()));
    }
    for (index, diag) in diags.iter().enumerate() {
        let what = format!("lint.report.diagnostics[{index}]");
        for key in ["code", "file", "message", "rationale"] {
            expect_str(diag, key, &what)?;
        }
        expect_u64(diag, "line", &what)?;
        // Everything surviving in a clean report is a justified
        // suppression: the justification must be written down.
        if get(diag, "suppressed", &what)?.as_bool() != Some(true) {
            return Err(format!("{what}: unsuppressed diagnostic in a clean report"));
        }
        if get(diag, "justification", &what)?.as_str().is_none_or(str::is_empty) {
            return Err(format!("{what}: suppression carries no justification"));
        }
    }
    println!(
        "lint ok: {} files, {total} diagnostics, all justified",
        count("files_scanned").unwrap_or(0)
    );
    Ok(())
}

/// Checks that a rate document's own `rate` lies inside its own
/// `[wilson_lo, wilson_hi]` within `[0, 1]` (the counts themselves are
/// decoded, and `successes <= trials` enforced, by `cohort-cert`).
fn check_wilson(doc: &serde_json::Value, what: &str) -> CheckResult {
    let num = |key: &str| -> Result<f64, String> {
        get(doc, key, what)?.as_f64().ok_or_else(|| format!("{what}: `{key}` is not a number"))
    };
    let (lo, rate, hi) = (num("wilson_lo")?, num("rate")?, num("wilson_hi")?);
    if !(0.0 <= lo && lo <= rate && rate <= hi && hi <= 1.0) {
        return Err(format!(
            "{what}: interval [{lo}, {hi}] does not bracket rate {rate} in [0, 1]"
        ));
    }
    Ok(())
}

/// Checks a `cert` certification-campaign document (`--cert`,
/// `BENCH_cert.json`).
fn check_cert(doc: &serde_json::Value) -> CheckResult {
    report::CERT.check(doc)?;
    if get(doc, "generator", "cert")?.as_str() != Some("cert") {
        return Err("cert: `generator` is not \"cert\"".into());
    }
    if get(doc, "quick", "cert")?.as_bool().is_none() {
        return Err("cert: `quick` is not a boolean".into());
    }
    for key in ["trials", "jobs"] {
        expect_u64(doc, key, "cert")?;
    }
    // The determinism gate: the campaign ran twice, and both runs must
    // have produced bit-identical aggregates.
    if get(doc, "runs_identical", "cert")?.as_bool() != Some(true) {
        return Err("cert: `runs_identical` must be true".into());
    }

    // The memoization gate (schema v2): both runs share one persistent
    // store, so the second must replay entirely from the memo, and both
    // fleets must have stayed healthy.
    let fleet = get(doc, "fleet", "cert")?;
    check_health(get(fleet, "health", "cert.fleet")?, "cert.fleet.health")?;
    let memo = get(doc, "memoized_run", "cert")?;
    let what = "cert.memoized_run";
    if get(memo, "executed", what)?.as_u64() != Some(0) {
        return Err(format!("{what}: the warm store must replay with zero fresh executions"));
    }
    if get(memo, "store_hits", what)?.as_u64().unwrap_or(0) == 0 {
        return Err(format!("{what}: a replayed campaign must hit the store"));
    }
    check_health(get(memo, "health", what)?, &format!("{what}.health"))?;

    // The fault campaign, decoded by cert's own codec: counts must
    // partition and every rate must sit inside its Wilson interval.
    let fault_doc = get(doc, "fault", "cert")?;
    let what = "cert.fault";
    let fault = FaultAggregate::from_json(fault_doc).map_err(|e| format!("{what}: {e}"))?;
    for key in ["detected", "false_convictions", "degraded", "degradation_success"] {
        check_wilson(get(fault_doc, key, what)?, &format!("{what}.{key}"))?;
    }
    let (control, faulted) = (fault.control_trials, fault.detected.trials);
    if control + faulted != fault.trials {
        return Err(format!(
            "{what}: control {control} + faulted {faulted} != trials {}",
            fault.trials
        ));
    }
    if fault.false_convictions.trials != control {
        return Err(format!(
            "{what}.false_convictions: trials differ from control_trials {control}"
        ));
    }

    // The schedulability curve: bucket trials must sum to the campaign.
    let sched_doc = get(doc, "schedulability", "cert")?;
    let what = "cert.schedulability";
    let sched = SchedAggregate::from_json(sched_doc).map_err(|e| format!("{what}: {e}"))?;
    if sched.schedulable > sched.trials {
        return Err(format!("{what}: more schedulable task sets than trials"));
    }
    if sched.buckets.is_empty() {
        return Err(format!("{what}: empty `curve` array"));
    }
    let curve = get(sched_doc, "curve", what)?.as_array().map_or(&[][..], Vec::as_slice);
    for (i, (bucket, bucket_doc)) in sched.buckets.iter().zip(curve).enumerate() {
        let b_what = format!("{what}.curve[{i}]");
        check_wilson(bucket_doc, &b_what)?;
        if bucket.lo_pct >= bucket.hi_pct {
            return Err(format!(
                "{b_what}: utilisation edges [{}, {}) are empty",
                bucket.lo_pct, bucket.hi_pct
            ));
        }
    }
    let curve_trials: u64 = sched.buckets.iter().map(|b| b.rate.trials).sum();
    if curve_trials != sched.trials {
        return Err(format!(
            "{what}: curve bucket trials sum to {curve_trials}, campaign ran {}",
            sched.trials
        ));
    }
    let count = |sec: &serde_json::Value, key: &str, what: &str| -> Result<u64, String> {
        get(sec, key, what)?
            .as_u64()
            .ok_or_else(|| format!("{what}: `{key}` is not an unsigned integer"))
    };
    let total = count(doc, "trials", "cert")?;
    if fault.trials + sched.trials != total {
        return Err(format!(
            "cert: fault {} + sched {} != trials {total}",
            fault.trials, sched.trials
        ));
    }

    // The reproducibility gate: every minimized counterexample must still
    // convict under its fault plan and replay clean on the faithful
    // engine, and minimization must never have grown the workload.
    let counterexamples = get(doc, "counterexamples", "cert")?
        .as_array()
        .ok_or_else(|| "cert: `counterexamples` is not an array".to_string())?;
    if counterexamples.is_empty() {
        return Err("cert: no conviction was minimized into a counterexample".into());
    }
    for (i, c) in counterexamples.iter().enumerate() {
        let what = format!("cert.counterexamples[{i}]");
        expect_str(c, "kind", &what)?;
        for key in ["seed", "original_accesses", "exported_accesses", "minimized_accesses"] {
            expect_u64(c, key, &what)?;
        }
        let (original, exported, minimized) = (
            count(c, "original_accesses", &what)?,
            count(c, "exported_accesses", &what)?,
            count(c, "minimized_accesses", &what)?,
        );
        if !(minimized <= exported && exported <= original) {
            return Err(format!(
                "{what}: sizes {minimized} <= {exported} <= {original} do not shrink"
            ));
        }
        if get(c, "reconvicts", &what)?.as_bool() != Some(true) {
            return Err(format!("{what}: the minimized workload does not re-convict"));
        }
        if get(c, "replay_clean", &what)?.as_bool() != Some(true) {
            return Err(format!("{what}: the faithful replay was not clean"));
        }
        get(c, "workload", &what)?;
    }
    println!(
        "cert ok: {total} trials, {} counterexamples, aggregates bit-identical",
        counterexamples.len()
    );
    Ok(())
}

/// One entry in the validator registry: the CLI flag that selects it and
/// the checker it dispatches to. New document kinds join by adding a row.
struct Validator {
    flag: &'static str,
    check: fn(&serde_json::Value) -> CheckResult,
}

const VALIDATORS: &[Validator] = &[
    Validator { flag: "--report", check: check_report },
    Validator { flag: "--trace", check: check_trace },
    Validator { flag: "--optim", check: check_optim },
    Validator { flag: "--chaos", check: check_chaos },
    Validator { flag: "--sim", check: check_sim },
    Validator { flag: "--fleet", check: check_fleet },
    Validator { flag: "--lint", check: check_lint },
    Validator { flag: "--cert", check: check_cert },
];

fn usage() -> String {
    let flags: Vec<String> = VALIDATORS.iter().map(|v| format!("[{} <path>]", v.flag)).collect();
    format!("usage: schema_check {}", flags.join(" "))
}

fn load(path: &str) -> Result<serde_json::Value, String> {
    let text =
        std::fs::read_to_string(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut checked = false;
    let mut failed = false;
    while let Some(arg) = args.next() {
        let Some(validator) = VALIDATORS.iter().find(|v| v.flag == arg) else {
            eprintln!("unknown flag `{arg}`");
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        };
        let Some(path) = args.next() else {
            eprintln!("{} needs a path", validator.flag);
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        };
        checked = true;
        if let Err(message) = load(&path).and_then(|doc| (validator.check)(&doc)) {
            eprintln!("schema violation: {message}");
            failed = true;
        }
    }
    if !checked {
        eprintln!("nothing to check");
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
