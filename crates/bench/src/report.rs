//! Every machine-readable document kind the bench bins write, each with
//! the one validator of its invariants.
//!
//! A [`Schema`] names a kind (its `"<kind>/<version>"` tag and the bin
//! that generates it) and holds the kind's check. Every bin writes its
//! document through a [`ReportWriter`]: the writer stamps the tag and the
//! generator, writes the document when `--json` names a path, and then
//! runs the check on every run, so a bin whose document breaks an
//! invariant exits non-zero. Writing comes first, so a failing document
//! still lands on disk. `schema_check` runs the same checks, listed in
//! [`SCHEMAS`], on documents read back from disk. A document without its
//! `"schema"` tag fails.

use std::path::Path;

use serde_json::{json, Value};

use cohort_cert::{FaultAggregate, SchedAggregate};

/// A validator's verdict; the error message names the offending field.
pub type Check<T = ()> = Result<T, String>;

/// One machine-readable document kind and its validator.
#[derive(Debug, Clone, Copy)]
pub struct Schema {
    /// The document kind, e.g. `"report"` or `"fleet"`; `schema_check`
    /// selects it with `--<kind>`.
    pub kind: &'static str,
    /// The kind's schema version; bump on incompatible shape changes.
    pub version: u32,
    /// The bin that writes documents of this kind.
    pub generator: &'static str,
    /// Checks the kind's fields and invariants; returns a summary line.
    body: fn(&Value) -> Check<String>,
}

/// Fig. 5/6 run reports (`{"runs": [...]}`, `repro --json`).
pub const REPORT: Schema =
    Schema { kind: "report", version: 1, generator: "repro", body: check_report };
/// GA engine benchmark reports (`BENCH_optim.json`). Version 2 adds the
/// `hit_kernel` section.
pub const OPTIM: Schema =
    Schema { kind: "optim", version: 2, generator: "optim", body: check_optim };
/// Fault-campaign reports (`BENCH_chaos.json`).
pub const CHAOS: Schema =
    Schema { kind: "chaos", version: 1, generator: "chaos", body: check_chaos };
/// Simulator-throughput reports (`BENCH_sim.json`). Version 2 drops the
/// cycle-round reference engine's rates and the cross-engine verdict.
pub const SIM: Schema = Schema { kind: "sim", version: 2, generator: "sim", body: check_sim };
/// Fleet service benchmark reports (`BENCH_fleet.json`). Version 2 adds
/// the churn chaos campaign and the `FleetHealth` snapshots.
pub const FLEET: Schema =
    Schema { kind: "fleet", version: 2, generator: "fleet", body: check_fleet };
/// Static-analysis reports (`LINT.json`, the `lint` bin).
pub const LINT: Schema = Schema { kind: "lint", version: 1, generator: "lint", body: check_lint };
/// Monte Carlo certification reports (`BENCH_cert.json`). Version 2 adds
/// the cross-run store memoization fields and the `FleetHealth` snapshot.
pub const CERT: Schema = Schema { kind: "cert", version: 2, generator: "cert", body: check_cert };

/// Every document kind, in `schema_check`'s usage order.
pub const SCHEMAS: [&Schema; 7] = [&REPORT, &OPTIM, &CHAOS, &SIM, &FLEET, &LINT, &CERT];

impl Schema {
    /// The tag stamped into (and expected from) documents,
    /// `"<kind>/<version>"`.
    #[must_use]
    pub fn tag(&self) -> String {
        format!("{}/{}", self.kind, self.version)
    }

    /// Checks `doc` as a document of this kind: its `"schema"` tag and
    /// `"generator"` name, then every field and invariant of the kind.
    ///
    /// # Errors
    ///
    /// Returns the first violation, naming the field.
    pub fn check(&self, doc: &Value) -> Check<String> {
        let tag: &str = field(doc, "schema", self.kind)?;
        ensure(tag == self.tag(), || {
            format!("{}: schema tag `{tag}` is not `{}`", self.kind, self.tag())
        })?;
        let generator: &str = field(doc, "generator", self.kind)?;
        ensure(generator == self.generator, || {
            format!("{}: `generator` is not \"{}\"", self.kind, self.generator)
        })?;
        (self.body)(doc)
    }
}

/// The one path from a bin's payload to its document.
#[derive(Debug, Clone, Copy)]
pub struct ReportWriter<'a> {
    schema: &'a Schema,
}

impl<'a> ReportWriter<'a> {
    /// A writer of `schema` documents.
    #[must_use]
    pub fn new(schema: &'a Schema) -> Self {
        ReportWriter { schema }
    }

    /// Puts the `"schema"` tag and the `"generator"` name in front of the
    /// fields of the object `payload`, writes the document to `path` when
    /// one is given (pretty-printed, parent directories created) and then
    /// checks it. Returns the check's summary line.
    ///
    /// # Errors
    ///
    /// Returns the write failure or the first violation.
    pub fn write(&self, path: Option<&Path>, payload: Value) -> Check<String> {
        let Value::Object(fields) = payload else {
            return Err(format!("{}: the payload is not a JSON object", self.schema.kind));
        };
        let stamp = [
            ("schema".to_string(), json!(self.schema.tag())),
            ("generator".to_string(), json!(self.schema.generator)),
        ];
        let doc = Value::Object(stamp.into_iter().chain(fields).collect());
        if let Some(path) = path {
            let io = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent).map_err(io)?;
            }
            let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
            std::fs::write(path, text + "\n").map_err(io)?;
        }
        self.schema.check(&doc)
    }

    /// [`ReportWriter::write`] for a bin's `main`: prints the path written
    /// and the check's summary line, or prints the error and exits with
    /// status 1.
    pub fn write_or_exit(&self, path: Option<&Path>, payload: Value) {
        match self.write(path, payload) {
            Ok(summary) => {
                if let Some(path) = path {
                    println!("wrote {}", path.display());
                }
                println!("{summary}");
            }
            Err(message) => {
                eprintln!("{}: schema violation: {message}", self.schema.generator);
                std::process::exit(1);
            }
        }
    }
}

/// The JSON types a validator reads a field as.
pub trait Field<'v>: Sized {
    /// The type's name in a violation message.
    const NAME: &'static str;
    /// `value` as this type, if it is one.
    fn read(value: &'v Value) -> Option<Self>;
}

macro_rules! field_types {
    ($($ty:ty => $name:literal, $read:expr;)*) => {$(
        impl<'v> Field<'v> for $ty {
            const NAME: &'static str = $name;
            fn read(value: &'v Value) -> Option<Self> {
                $read(value)
            }
        }
    )*};
}

field_types! {
    u64 => "an unsigned integer", Value::as_u64;
    f64 => "a number", Value::as_f64;
    bool => "a boolean", Value::as_bool;
    &'v str => "a string", Value::as_str;
    &'v [Value] => "an array", |v: &'v Value| v.as_array().map(Vec::as_slice);
    // Any value: the key must exist, even when its value may be null.
    &'v Value => "present", Some;
}

/// Reads `doc[key]` as a `T`.
///
/// # Errors
///
/// Names `what` and `key` when the key is missing or holds another type.
pub fn field<'v, T: Field<'v>>(doc: &'v Value, key: &str, what: &str) -> Check<T> {
    let value = doc.get(key).ok_or_else(|| format!("{what}: missing key `{key}`"))?;
    T::read(value).ok_or_else(|| format!("{what}: `{key}` is not {}", T::NAME))
}

/// Checks that every key in `keys` reads as a `T`.
///
/// # Errors
///
/// The first failing [`field`] read.
pub fn fields<'v, T: Field<'v>>(doc: &'v Value, keys: &[&str], what: &str) -> Check {
    keys.iter().try_for_each(|key| field::<T>(doc, key, what).map(drop))
}

/// `Err(message())` unless `holds`.
///
/// # Errors
///
/// When `holds` is false.
pub fn ensure(holds: bool, message: impl FnOnce() -> String) -> Check {
    if holds {
        Ok(())
    } else {
        Err(message())
    }
}

/// Checks that the boolean `doc[key]` is true.
fn require_true(doc: &Value, key: &str, what: &str) -> Check {
    ensure(field(doc, key, what)?, || format!("{what}: `{key}` must be true"))
}

/// Checks a `repro --json` run report.
fn check_report(doc: &Value) -> Check<String> {
    let runs: &[Value] = field(doc, "runs", "report")?;
    ensure(!runs.is_empty(), || "report: empty `runs` array".into())?;
    for (i, run) in runs.iter().enumerate() {
        check_run(run, &format!("runs[{i}]"))?;
    }
    Ok(format!("report ok: {} runs", runs.len()))
}

/// Checks one element of a report's `"runs"` array.
fn check_run(run: &Value, what: &str) -> Check {
    fields::<&str>(run, &["config", "protocol", "workload"], what)?;
    fields::<u64>(run, &["execution_time", "cycles"], what)?;
    fields::<f64>(run, &["bus_utilisation", "hit_ratio"], what)?;
    // Nullable (non-CoHoRT protocols carry no timers) but always present.
    field::<&Value>(run, "timers", what)?;
    let cores: &[Value] = field(run, "cores", what)?;
    ensure(!cores.is_empty(), || format!("{what}: empty `cores` array"))?;
    for (i, core) in cores.iter().enumerate() {
        let what = format!("{what}.cores[{i}]");
        fields::<u64>(core, &["hits", "misses", "total_latency", "worst_request"], &what)?;
        // Bounds are nullable but the keys must exist (stable schema).
        fields::<&Value>(core, &["wcml_bound", "wcl_bound"], &what)?;
    }
    match run.get("metrics") {
        Some(metrics) => check_metrics(metrics, &format!("{what}.metrics")),
        None => Ok(()),
    }
}

/// Checks an embedded `MetricsReport` (`--metrics` runs only).
fn check_metrics(metrics: &Value, what: &str) -> Check {
    fields::<u64>(metrics, &["cycles", "bus_busy", "mode_switches"], what)?;
    field::<f64>(metrics, "bus_utilisation", what)?;
    for (i, core) in field::<&[Value]>(metrics, "cores", what)?.iter().enumerate() {
        let what = format!("{what}.cores[{i}]");
        fields::<u64>(core, &["latency_p50", "latency_p99", "latency_max", "bus_busy"], &what)?;
        let accesses: u64 = field(core, "accesses", &what)?;
        let mut total = 0u128;
        for bucket in field::<&[Value]>(core, "histogram", &what)? {
            total += u128::from(field::<u64>(bucket, "count", &what)?);
        }
        ensure(total == u128::from(accesses), || {
            format!("{what}: histogram counts sum to {total}, accesses is {accesses}")
        })?;
    }
    Ok(())
}

/// Checks an `optim` engine-benchmark document.
fn check_optim(doc: &Value) -> Check<String> {
    let scale = ["host_parallelism", "population", "generations", "spins", "requests", "reps"];
    fields::<u64>(doc, &scale, "optim")?;
    let speedup: f64 = field(doc, "speedup", "optim")?;
    // Parallel evaluation must never change the outcome.
    require_true(doc, "bit_identical", "optim")?;
    let runs: &[Value] = field(doc, "runs", "optim")?;
    ensure(runs.len() == 2, || {
        format!("optim: expected a serial and a parallel run, got {}", runs.len())
    })?;
    let mut evaluations = [0; 2];
    for (i, run) in runs.iter().enumerate() {
        let what = format!("optim.runs[{i}]");
        evaluations[i] = field(run, "evaluations", &what)?;
        fields::<u64>(run, &["workers", "cache_hits", "nan_evaluations"], &what)?;
        fields::<f64>(run, &["seconds", "generations_per_sec", "best_fitness"], &what)?;
        field::<&str>(run, "stop", &what)?;
        let rate: f64 = field(run, "cache_hit_rate", &what)?;
        ensure((0.0..=1.0).contains(&rate), || {
            format!("{what}: cache_hit_rate {rate} outside [0, 1]")
        })?;
    }
    ensure(evaluations[0] == evaluations[1], || {
        format!("optim: serial/parallel evaluation counts differ: {evaluations:?}")
    })?;

    let (timer, what) = (field::<&Value>(doc, "timer_problem", "optim")?, "optim.timer_problem");
    fields::<u64>(timer, &["evaluations", "cache_hits"], what)?;
    fields::<f64>(timer, &["seconds", "cache_hit_rate", "best_fitness"], what)?;
    field::<&str>(timer, "stop", what)?;
    field::<bool>(timer, "feasible", what)?;

    let (kernel, what) = (field::<&Value>(doc, "hit_kernel", "optim")?, "optim.hit_kernel");
    fields::<u64>(kernel, &["rounds", "calls"], what)?;
    field::<f64>(kernel, "seconds", what)?;
    let hits: u64 = field(kernel, "hits", what)?;
    let misses: u64 = field(kernel, "misses", what)?;
    let accesses: u64 = field(kernel, "accesses", what)?;
    ensure(hits.checked_add(misses) == Some(accesses), || {
        format!("{what}: hits + misses is not the access count")
    })?;
    let ns: f64 = field(kernel, "ns_per_access", what)?;
    ensure(ns.is_finite() && ns > 0.0, || {
        format!("{what}: ns_per_access {ns} is not a positive time")
    })?;
    Ok(format!("optim ok: speedup {speedup}×"))
}

/// Checks one embedded `DegradationReport` of a chaos campaign; returns
/// whether it recorded a mode switch.
fn check_degradation(report: &Value, what: &str) -> Check<bool> {
    fields::<u64>(report, &["requests", "cycles", "final_mode"], what)?;
    // Nullable but always present (stable schema).
    fields::<&Value>(report, &["seed", "detection_latency"], what)?;
    let faults: &[Value] = field(report, "faults", what)?;
    for (i, fault) in faults.iter().enumerate() {
        let what = format!("{what}.faults[{i}]");
        field::<&str>(fault, "kind", &what)?;
        fields::<u64>(fault, &["core", "scheduled", "fired"], &what)?;
    }
    for (i, violation) in field::<&[Value]>(report, "violations", what)?.iter().enumerate() {
        let what = format!("{what}.violations[{i}]");
        field::<&str>(violation, "kind", &what)?;
        fields::<u64>(violation, &["at", "issued", "latency", "bound"], &what)?;
        fields::<&Value>(violation, &["core", "line", "detail"], &what)?;
    }
    let switches: &[Value] = field(report, "switches", what)?;
    for (i, switch) in switches.iter().enumerate() {
        let what = format!("{what}.switches[{i}]");
        fields::<u64>(switch, &["at", "from", "to"], &what)?;
        field::<&Value>(switch, "trigger", &what)?;
    }
    // Cross-checks: the aggregate counters must be internally consistent.
    let total: u64 = field(report, "violations_total", what)?;
    let mut sum = 0u128;
    for key in ["latency_violations", "progress_violations", "coherence_violations"] {
        sum += u128::from(field::<u64>(report, key, what)?);
    }
    ensure(sum == u128::from(total), || {
        format!("{what}: violations_total {total} ≠ per-kind sum {sum}")
    })?;
    // Attribution partition: per-core counts plus the machine-wide bucket
    // must cover every conviction — a coreless violation must never have
    // been pinned on a core.
    let mut attributed = u128::from(field::<u64>(report, "machine_violations", what)?);
    for (i, core) in field::<&[Value]>(report, "core_violations", what)?.iter().enumerate() {
        let count = core
            .as_u64()
            .ok_or_else(|| format!("{what}: core_violations[{i}] is not an integer"))?;
        attributed += u128::from(count);
    }
    ensure(attributed == u128::from(total), || {
        format!(
            "{what}: core + machine attribution sums to {attributed}, violations_total is {total}"
        )
    })?;
    let planned: u64 = field(report, "planned_faults", what)?;
    ensure(faults.len() as u64 <= planned, || {
        format!("{what}: {} fired faults exceed {planned} planned", faults.len())
    })?;
    let post: &Value = field(report, "post_switch", what)?;
    if !post.is_null() {
        let what = format!("{what}.post_switch");
        fields::<u64>(post, &["switch_at", "requests", "violations"], &what)?;
        field::<bool>(post, "compliant", &what)?;
        ensure(!switches.is_empty(), || format!("{what}: present but no switch was recorded"))?;
    }
    Ok(!switches.is_empty())
}

/// Checks a `chaos` campaign document.
fn check_chaos(doc: &Value) -> Check<String> {
    field::<bool>(doc, "quick", "chaos")?;
    let campaigns: &[Value] = field(doc, "campaigns", "chaos")?;
    ensure(!campaigns.is_empty(), || "chaos: empty `campaigns` array".into())?;
    let mut switched = 0;
    for (i, campaign) in campaigns.iter().enumerate() {
        let what = format!("chaos.campaigns[{i}]");
        field::<&str>(campaign, "name", &what)?;
        field::<u64>(campaign, "cores", &what)?;
        // Two runs of the campaign must serialize byte-identically.
        require_true(campaign, "deterministic", &what)?;
        let report = field(campaign, "report", &what)?;
        switched += usize::from(check_degradation(report, &format!("{what}.report"))?);
        // The verif-loop closure: when a conviction was exported, the
        // faithful engine must have replayed it clean.
        let replay: &Value = field(campaign, "replay", &what)?;
        if !replay.is_null() {
            require_true(replay, "engine_clean", &format!("{what}.replay"))?;
        }
    }
    // The smoke gate: at least one campaign must demonstrate an online
    // escalation.
    ensure(switched > 0, || "chaos: no campaign recorded a mode switch".into())?;
    Ok(format!("chaos ok: {} campaigns, {switched} with online escalation", campaigns.len()))
}

/// Checks a `sim` simulator-throughput document.
fn check_sim(doc: &Value) -> Check<String> {
    field::<bool>(doc, "quick", "sim")?;
    // The hard gate: running each scenario twice must reproduce the exact
    // event log, stats and fault records.
    require_true(doc, "determinism", "sim")?;
    field::<u64>(doc, "presets_compared", "sim")?;
    let results: &[Value] = field(doc, "results", "sim")?;
    ensure(!results.is_empty(), || "sim: empty `results` array".into())?;
    let mut sparse_rate = 0.0;
    for (i, result) in results.iter().enumerate() {
        let what = format!("sim.results[{i}]");
        fields::<u64>(result, &["cores", "accesses", "cycles_simulated"], &what)?;
        let rate: f64 = field(result, "cycles_per_sec", &what)?;
        ensure(rate > 0.0 && rate.is_finite(), || {
            format!("{what}: cycles_per_sec {rate} is not a positive finite number")
        })?;
        let workload: &str = field(result, "workload", &what)?;
        // The headline entry: the sparse DRAM-bound workload the event
        // scheduler exists for must lead the table.
        if i == 0 {
            ensure(workload.starts_with("sparse"), || {
                format!("sim: first result must be the sparse workload, got `{workload}`")
            })?;
            sparse_rate = rate;
        }
    }
    Ok(format!("sim ok: {} workloads, sparse {:.1} M cycles/s", results.len(), sparse_rate / 1e6))
}

/// Checks a `fleet` service-benchmark document.
fn check_fleet(doc: &Value) -> Check<String> {
    field::<bool>(doc, "quick", "fleet")?;
    fields::<u64>(doc, &["shards", "lease_ms"], "fleet")?;

    // The burst section: the dedup-on-submit acceptance gate. A burst of
    // duplicate submissions must have produced a positive dedup hit-rate
    // and a positive throughput.
    let (burst, what) = (field::<&Value>(doc, "burst", "fleet")?, "fleet.burst");
    fields::<u64>(burst, &["submissions", "dedup_hits"], what)?;
    field::<f64>(burst, "seconds", what)?;
    let dedup_rate: f64 = field(burst, "dedup_rate", what)?;
    ensure(dedup_rate > 0.0 && dedup_rate <= 1.0, || {
        format!("{what}: dedup_rate {dedup_rate} is not in (0, 1]")
    })?;
    let throughput: f64 = field(burst, "submissions_per_sec", what)?;
    ensure(throughput > 0.0 && throughput.is_finite(), || {
        format!("{what}: submissions_per_sec {throughput} is not positive")
    })?;
    let executed: u64 = field(burst, "executed", what)?;
    let distinct: u64 = field(burst, "distinct_jobs", what)?;
    ensure(executed <= distinct, || {
        format!("{what}: executed {executed} exceeds distinct_jobs {distinct}")
    })?;

    // The kill-recovery section: a worker killed mid-job must have forced
    // a lease reclaim, and the recomputed outcome must be bit-identical.
    let (kill, what) = (field::<&Value>(doc, "kill_recovery", "fleet")?, "fleet.kill_recovery");
    fields::<u64>(kill, &["resumed", "stale_completions"], what)?;
    ensure(field::<u64>(kill, "reclaims", what)? > 0, || {
        format!("{what}: no lease was reclaimed — the chaos hook never fired")
    })?;
    require_true(kill, "bit_identical", what)?;

    // The replay section: a second fleet over the same persistent store
    // must answer everything from the memo without executing.
    let (replay, what) = (field::<&Value>(doc, "replay", "fleet")?, "fleet.replay");
    field::<u64>(replay, "store_hits", what)?;
    ensure(field::<u64>(replay, "executed", what)? == 0, || {
        format!("{what}: a replayed run must execute nothing")
    })?;
    require_true(replay, "bit_identical", what)?;

    // The churn section (schema v2): the chaos campaign must have lost
    // nothing, convicted only the poison job, repaired every corruption
    // bit-identically, absorbed at least one disk fault, and reproduced
    // itself bit for bit.
    let (churn, what) = (field::<&Value>(doc, "churn", "fleet")?, "fleet.churn");
    let counts = ["jobs", "cold_executed", "cold_served", "warm_executed", "warm_served"];
    fields::<u64>(churn, &counts, what)?;
    ensure(field::<u64>(churn, "lost", what)? == 0, || format!("{what}: the campaign lost jobs"))?;
    require_true(churn, "runs_identical", what)?;
    ensure(field::<u64>(churn, "kills", what)? > 0, || {
        format!("{what}: no worker was killed — the chaos hook never fired")
    })?;
    let quarantine: &[Value] = field(churn, "quarantine", what)?;
    ensure(!quarantine.is_empty(), || format!("{what}: the poison job was never quarantined"))?;
    for (i, diag) in quarantine.iter().enumerate() {
        let what = format!("{what}.quarantine[{i}]");
        field::<&str>(diag, "fingerprint", &what)?;
        field::<u64>(diag, "worker", &what)?;
        ensure(field::<u64>(diag, "attempts", &what)? > 0, || {
            format!("{what}: a conviction must record spent attempts")
        })?;
    }
    let cold = check_health(field(churn, "cold_health", what)?, &format!("{what}.cold_health"))?;
    let warm = check_health(field(churn, "warm_health", what)?, &format!("{what}.warm_health"))?;
    ensure(cold.quarantined == quarantine.len() as u64, || {
        format!(
            "{what}: {} quarantine diagnostics listed, cold_health convicted {}",
            quarantine.len(),
            cold.quarantined
        )
    })?;
    ensure(warm.repairs > 0, || format!("{what}: the bit-rotted entry was never repaired"))?;
    ensure(warm.repairs_bit_identical == warm.repairs, || {
        format!(
            "{what}: only {} of {} repairs were bit-identical",
            warm.repairs_bit_identical, warm.repairs
        )
    })?;
    let disk_faults: u64 = field(churn, "disk_faults_injected", what)?;
    ensure(disk_faults > 0 && cold.disk_retries > 0, || {
        format!("{what}: no transient disk fault was injected and absorbed")
    })?;
    Ok(format!(
        "fleet ok: dedup rate {dedup_rate:.2}, {throughput:.0} submissions/s, kill-recovery \
         bit-identical, churn lost nothing ({} conviction(s), {} repair(s))",
        quarantine.len(),
        warm.repairs,
    ))
}

/// The counters of a checked `FleetHealth` snapshot that the fleet
/// report's cross-checks read.
struct Health {
    quarantined: u64,
    repairs: u64,
    repairs_bit_identical: u64,
    disk_retries: u64,
}

/// Checks one embedded `FleetHealth` snapshot: all nine counters present
/// as unsigned integers, and the bounded disk retries never gave up.
fn check_health(doc: &Value, what: &str) -> Check<Health> {
    let counts = ["reclaims", "stale_completions", "corrupt_quarantined", "evictions"];
    fields::<u64>(doc, &counts, what)?;
    ensure(field::<u64>(doc, "disk_give_ups", what)? == 0, || {
        format!("{what}: the store gave up on a disk operation")
    })?;
    Ok(Health {
        quarantined: field(doc, "quarantined", what)?,
        repairs: field(doc, "repairs", what)?,
        repairs_bit_identical: field(doc, "repairs_bit_identical", what)?,
        disk_retries: field(doc, "disk_retries", what)?,
    })
}

/// Checks a `lint` static-analysis document: the CI gate's artifact must
/// be clean.
fn check_lint(doc: &Value) -> Check<String> {
    let (rep, what) = (field::<&Value>(doc, "report", "lint")?, "lint.report");
    let files: u64 = field(rep, "files_scanned", what)?;
    ensure(files > 0, || format!("{what}: zero files scanned — the walker found nothing"))?;
    let total: u64 = field(rep, "total", what)?;
    let suppressed: u64 = field(rep, "suppressed", what)?;
    let unsuppressed: u64 = field(rep, "unsuppressed", what)?;
    ensure(suppressed.checked_add(unsuppressed) == Some(total), || {
        format!("{what}: suppressed {suppressed} + unsuppressed {unsuppressed} != total {total}")
    })?;
    ensure(unsuppressed == 0, || format!("{what}: {unsuppressed} unsuppressed diagnostics"))?;
    let diags: &[Value] = field(rep, "diagnostics", what)?;
    ensure(diags.len() as u64 == total, || {
        format!("{what}: {} diagnostics listed, total says {total}", diags.len())
    })?;
    for (i, diag) in diags.iter().enumerate() {
        let what = format!("{what}.diagnostics[{i}]");
        fields::<&str>(diag, &["code", "file", "message", "rationale"], &what)?;
        field::<u64>(diag, "line", &what)?;
        // Everything surviving in a clean report is a justified
        // suppression: the justification must be written down.
        require_true(diag, "suppressed", &what)?;
        ensure(!field::<&str>(diag, "justification", &what)?.is_empty(), || {
            format!("{what}: suppression carries no justification")
        })?;
    }
    Ok(format!("lint ok: {files} files, {total} diagnostics, all justified"))
}

/// Checks that a rate document's own `rate` lies inside its own
/// `[wilson_lo, wilson_hi]` within `[0, 1]` (the counts themselves are
/// decoded, and `successes <= trials` enforced, by `cohort-cert`).
fn check_wilson(doc: &Value, what: &str) -> Check {
    let lo: f64 = field(doc, "wilson_lo", what)?;
    let rate: f64 = field(doc, "rate", what)?;
    let hi: f64 = field(doc, "wilson_hi", what)?;
    ensure(0.0 <= lo && lo <= rate && rate <= hi && hi <= 1.0, || {
        format!("{what}: interval [{lo}, {hi}] does not bracket rate {rate} in [0, 1]")
    })
}

/// Checks a `cert` certification-campaign document.
fn check_cert(doc: &Value) -> Check<String> {
    field::<bool>(doc, "quick", "cert")?;
    let total: u64 = field(doc, "trials", "cert")?;
    let jobs: u64 = field(doc, "jobs", "cert")?;
    // The determinism gate: the campaign ran twice, and both runs must
    // have produced bit-identical aggregates.
    require_true(doc, "runs_identical", "cert")?;

    // The memoization gate (schema v2): both runs share one persistent
    // store, so the first executes every batch and the second must replay
    // entirely from the memo, and both fleets must have stayed healthy.
    let (fleet, what) = (field::<&Value>(doc, "fleet", "cert")?, "cert.fleet");
    ensure(field::<u64>(fleet, "executed", what)? == jobs, || {
        format!("{what}: a cold store must execute all {jobs} jobs")
    })?;
    check_health(field(fleet, "health", what)?, "cert.fleet.health")?;
    let (memo, what) = (field::<&Value>(doc, "memoized_run", "cert")?, "cert.memoized_run");
    ensure(field::<u64>(memo, "executed", what)? == 0, || {
        format!("{what}: the warm store must replay with zero fresh executions")
    })?;
    ensure(field::<u64>(memo, "store_hits", what)? > 0, || {
        format!("{what}: a replayed campaign must hit the store")
    })?;
    check_health(field(memo, "health", what)?, &format!("{what}.health"))?;

    // The fault campaign, decoded by cert's own codec: counts must
    // partition and every rate must sit inside its Wilson interval.
    let (fault_doc, what) = (field::<&Value>(doc, "fault", "cert")?, "cert.fault");
    let fault = FaultAggregate::from_json(fault_doc).map_err(|e| format!("{what}: {e}"))?;
    for key in ["detected", "false_convictions", "degraded", "degradation_success"] {
        check_wilson(field(fault_doc, key, what)?, &format!("{what}.{key}"))?;
    }
    let (control, faulted) = (fault.control_trials, fault.detected.trials);
    ensure(control.checked_add(faulted) == Some(fault.trials), || {
        format!("{what}: control {control} + faulted {faulted} != trials {}", fault.trials)
    })?;
    ensure(fault.false_convictions.trials == control, || {
        format!("{what}.false_convictions: trials differ from control_trials {control}")
    })?;

    // The schedulability curve: bucket trials must sum to the campaign.
    let (sched_doc, what) =
        (field::<&Value>(doc, "schedulability", "cert")?, "cert.schedulability");
    let sched = SchedAggregate::from_json(sched_doc).map_err(|e| format!("{what}: {e}"))?;
    ensure(sched.schedulable <= sched.trials, || {
        format!("{what}: more schedulable task sets than trials")
    })?;
    ensure(!sched.buckets.is_empty(), || format!("{what}: empty `curve` array"))?;
    let curve: &[Value] = field(sched_doc, "curve", what)?;
    for (i, (bucket, bucket_doc)) in sched.buckets.iter().zip(curve).enumerate() {
        let what = format!("{what}.curve[{i}]");
        check_wilson(bucket_doc, &what)?;
        ensure(bucket.lo_pct < bucket.hi_pct, || {
            format!("{what}: utilisation edges [{}, {}) are empty", bucket.lo_pct, bucket.hi_pct)
        })?;
    }
    let curve_trials: u128 = sched.buckets.iter().map(|b| u128::from(b.rate.trials)).sum();
    ensure(curve_trials == u128::from(sched.trials), || {
        format!("{what}: curve bucket trials sum to {curve_trials}, campaign ran {}", sched.trials)
    })?;
    ensure(fault.trials.checked_add(sched.trials) == Some(total), || {
        format!("cert: fault {} + sched {} != trials {total}", fault.trials, sched.trials)
    })?;

    // The reproducibility gate: every minimized counterexample must still
    // convict under its fault plan and replay clean on the faithful
    // engine, and minimization must never have grown the workload.
    let counterexamples: &[Value] = field(doc, "counterexamples", "cert")?;
    ensure(!counterexamples.is_empty(), || {
        "cert: no conviction was minimized into a counterexample".into()
    })?;
    for (i, c) in counterexamples.iter().enumerate() {
        let what = format!("cert.counterexamples[{i}]");
        field::<&str>(c, "kind", &what)?;
        field::<u64>(c, "seed", &what)?;
        let original: u64 = field(c, "original_accesses", &what)?;
        let exported: u64 = field(c, "exported_accesses", &what)?;
        let minimized: u64 = field(c, "minimized_accesses", &what)?;
        ensure(minimized <= exported && exported <= original, || {
            format!("{what}: sizes {minimized} <= {exported} <= {original} do not shrink")
        })?;
        require_true(c, "reconvicts", &what)?;
        require_true(c, "replay_clean", &what)?;
        field::<&Value>(c, "workload", &what)?;
    }
    Ok(format!(
        "cert ok: {total} trials, {} counterexamples, aggregates bit-identical",
        counterexamples.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed artifacts, one per kind that has one.
    const COMMITTED: [(&Schema, &str); 6] = [
        (&OPTIM, include_str!("../../../results/BENCH_optim.json")),
        (&CHAOS, include_str!("../../../results/BENCH_chaos.json")),
        (&SIM, include_str!("../../../results/BENCH_sim.json")),
        (&FLEET, include_str!("../../../results/BENCH_fleet.json")),
        (&LINT, include_str!("../../../results/LINT.json")),
        (&CERT, include_str!("../../../results/BENCH_cert.json")),
    ];

    /// A minimal valid `report/1` document with one run.
    const REPORT_DOC: &str = r#"{
  "schema": "report/1",
  "generator": "repro",
  "runs": [{
    "config": "allcr", "protocol": "cohort", "workload": "fft",
    "execution_time": 10, "cycles": 10, "bus_utilisation": 0.5, "hit_ratio": 0.5,
    "timers": null,
    "cores": [{"hits": 1, "misses": 1, "total_latency": 9, "worst_request": 8,
               "wcml_bound": null, "wcl_bound": null}]
  }]
}"#;

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).unwrap()
    }

    /// `schema`'s verdict on `text` with the first `from` replaced by `to`.
    fn damaged(schema: &Schema, text: &str, from: &str, to: &str) -> String {
        assert!(text.contains(from), "{}: `{from}` not in the document", schema.kind);
        schema.check(&parse(&text.replacen(from, to, 1))).expect_err("the damage must be caught")
    }

    #[test]
    fn committed_documents_pass_their_checks() {
        REPORT.check(&parse(REPORT_DOC)).unwrap();
        for (schema, text) in COMMITTED {
            let summary = schema.check(&parse(text)).unwrap();
            assert!(summary.starts_with(&format!("{} ok", schema.kind)), "{summary}");
        }
    }

    #[test]
    fn every_kind_rejects_a_missing_or_foreign_tag() {
        for (schema, text) in COMMITTED.into_iter().chain([(&REPORT, REPORT_DOC)]) {
            let tag = format!("\"schema\": \"{}\",", schema.tag());
            assert!(damaged(schema, text, &tag, "").contains("missing key `schema`"));
            let foreign = tag.replace(schema.kind, "other");
            assert!(damaged(schema, text, &tag, &foreign).contains("schema tag `other/"));
        }
    }

    #[test]
    fn report_check_gates_the_run_fields() {
        let err = damaged(&REPORT, REPORT_DOC, "\"hits\": 1", "\"hits\": -1");
        assert!(err.contains("runs[0].cores[0]: `hits`"), "{err}");
        let err = damaged(&REPORT, REPORT_DOC, "\"generator\": \"repro\"", "\"generator\": \"x\"");
        assert!(err.contains("`generator`"), "{err}");
    }

    #[test]
    fn optim_check_gates_bit_identity() {
        let err =
            damaged(&OPTIM, COMMITTED[0].1, "\"bit_identical\": true", "\"bit_identical\": false");
        assert!(err.contains("`bit_identical` must be true"), "{err}");
    }

    #[test]
    fn chaos_check_gates_determinism() {
        let text = COMMITTED[1].1;
        let err = damaged(&CHAOS, text, "\"deterministic\": true", "\"deterministic\": false");
        assert!(err.contains("chaos.campaigns[0]: `deterministic` must be true"), "{err}");
    }

    #[test]
    fn sim_check_gates_determinism() {
        let err = damaged(&SIM, COMMITTED[2].1, "\"determinism\": true", "\"determinism\": false");
        assert!(err.contains("`determinism` must be true"), "{err}");
    }

    #[test]
    fn fleet_check_gates_the_churn_campaign() {
        let text = COMMITTED[3].1;
        let err = damaged(&FLEET, text, "\"runs_identical\": true", "\"runs_identical\": false");
        assert!(err.contains("fleet.churn: `runs_identical` must be true"), "{err}");
        let err = damaged(&FLEET, text, "\"kills\": 1", "\"kills\": 0");
        assert!(err.contains("fleet.churn: no worker was killed"), "{err}");
    }

    #[test]
    fn lint_check_gates_a_clean_tree() {
        let err = damaged(&LINT, COMMITTED[4].1, "\"unsuppressed\": 0", "\"unsuppressed\": 1");
        assert!(err.contains("unsuppressed 1 != total"), "{err}");
    }

    #[test]
    fn cert_check_gates_reproducibility() {
        let err = damaged(&CERT, COMMITTED[5].1, "\"reconvicts\": true", "\"reconvicts\": false");
        assert!(err.contains("cert.counterexamples[0]: `reconvicts` must be true"), "{err}");
    }

    #[test]
    fn envelopes_are_stamped_and_checkable() {
        let dir = std::env::temp_dir().join(format!("cohort-report-test-{}", std::process::id()));
        let path = dir.join("nested").join("sim.json");
        let payload = parse(COMMITTED[2].1);
        let Value::Object(fields) = payload else { unreachable!() };
        let unstamped: serde_json::Map =
            fields.into_iter().filter(|(k, _)| k != "schema" && k != "generator").collect();
        let summary = ReportWriter::new(&SIM).write(Some(&path), Value::Object(unstamped)).unwrap();
        assert!(summary.starts_with("sim ok"));
        // Byte for byte what the committed artifact holds.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), COMMITTED[2].1);
        // A failing document is still written before the check rejects it.
        let bad = json!({"quick": true, "determinism": false});
        assert!(ReportWriter::new(&SIM).write(Some(&path), bad).is_err());
        assert!(std::fs::read_to_string(&path).unwrap().contains("\"determinism\": false"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_object_payloads_are_rejected() {
        let err = ReportWriter::new(&SIM).write(None, json!([1, 2])).unwrap_err();
        assert!(err.contains("not a JSON object"), "{err}");
    }

    #[test]
    fn tags_spell_kind_and_version() {
        assert_eq!(REPORT.tag(), "report/1");
        assert_eq!(CERT.tag(), "cert/2");
    }
}
