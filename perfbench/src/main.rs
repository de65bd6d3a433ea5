//! Benchmark entry point: runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_sweep|sim_sparse|fleet_memo> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets up [`SETUPS`] times (reporting the median set-up time)
//! and then measures the end-to-end metrics for `--seconds`. `--trace 1`
//! runs the same stream twice for half the time each, untraced and then
//! traced, checks that both produce the same output digest, writes the
//! spans under `.perfbench-out/` and reports the per-layer metrics.
//! `--host-probe <threads>` prints one host-speed probe and exits.

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cohort_perfbench::fleet::{FleetMemo, FRESH_REQUESTS};
use cohort_perfbench::host::{peak_rss_mb, probe_here_ms, PROBE_FLAG};
use cohort_perfbench::paper::{PaperSweep, DEFAULT_SCALE_DIV};
use cohort_perfbench::sparse::{SimSparse, ACCESSES};
use cohort_perfbench::tracing::{self_time_by_layer, Tracer};
use cohort_perfbench::{median, quantile, Metrics, Recorder, Workload, END_TO_END, PER_LAYER};

/// Where traced runs write their spans, relative to the directory the
/// benchmark runs in.
const SCRATCH: &str = ".perfbench-out";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// How far host-speed scaling may move `results_per_s` from the measured
/// figure before the run is flagged: the largest bound the benchmark gives
/// an end-to-end metric.
const SCALING_FLAG: f64 = 0.25;

const USAGE: &str = "usage: perfbench --workload <paper_sweep|sim_sparse|fleet_memo> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The layers whose self time per result the traced run reports.
const LAYERS: [(&str, &str); 7] = [
    ("bench", "self_ms.bench"),
    ("trace", "self_ms.trace"),
    ("analysis", "self_ms.analysis"),
    ("optim", "self_ms.optim"),
    ("cohort", "self_ms.cohort"),
    ("sim", "self_ms.sim"),
    ("fleet", "self_ms.fleet"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a number"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? == 1),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The timed budget of one phase: the whole run, or half of it for each
/// of the traced run's two phases.
fn phase_budget(args: &Args) -> Duration {
    let whole = Duration::from_secs(args.seconds);
    if args.trace {
        whole / 2
    } else {
        whole
    }
}

fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "paper_sweep" => Some(Box::new(PaperSweep::new(seed, DEFAULT_SCALE_DIV))),
        "sim_sparse" => Some(Box::new(SimSparse::new(seed, ACCESSES))),
        "fleet_memo" => Some(Box::new(FleetMemo::new(seed, FRESH_REQUESTS))),
        _ => None,
    }
}

/// The untraced run: [`SETUPS`] set-ups, then the timed phase.
fn end_to_end(w: &mut dyn Workload, rec: &mut Recorder) -> Metrics {
    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        rec.probe();
        let start = Instant::now();
        w.setup(rec);
        setup_s.push(rec.nominal_s(start.elapsed()));
    }
    w.run(rec, None);
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", median(&mut setup_s));
    metrics.insert("results_per_s", rec.results_per_s());
    metrics.insert("latency_p50_ms", quantile(&mut rec.latencies_ms, 0.5));
    metrics.insert("latency_p90_ms", quantile(&mut rec.latencies_ms, 0.9));
    metrics.insert("peak_rss_mb", peak_rss_mb());
    metrics
}

/// The traced run: the stream untraced, then traced, for half the budget
/// each. Returns the per-layer metrics and the traced pass's recorder,
/// which also carries the untraced pass's checks; a digest mismatch
/// between the passes is a failed check.
fn per_layer(w: &mut dyn Workload, mut plain: Recorder, args: &Args) -> (Metrics, Recorder) {
    w.setup(&mut plain);
    w.run(&mut plain, None);

    let tracer = Tracer::new();
    let mut traced = Recorder::new(phase_budget(args)).probe_threads(w.threads());
    w.setup(&mut traced);
    w.run(&mut traced, Some(&tracer));
    let (untraced_digest, traced_digest) = (plain.output_digest(), traced.output_digest());
    traced.check(untraced_digest == traced_digest, || {
        format!("traced output digest {traced_digest} differs from untraced {untraced_digest}")
    });
    traced.merge_checks(&plain);

    let spans = tracer.spans();
    let mut metrics = Metrics::new();
    w.layer_metrics(&spans, &mut metrics);
    let results = traced.latencies_ms.len().max(1) as f64;
    let self_ns = self_time_by_layer(&spans);
    for (layer, name) in LAYERS {
        metrics.insert(name, self_ns.get(layer).copied().unwrap_or(0) as f64 / results / 1e6);
    }
    let (untraced_rps, traced_rps) = (plain.results_per_s(), traced.results_per_s());
    metrics.insert("untraced.results_per_s", untraced_rps);
    metrics.insert("traced.results_per_s", traced_rps);
    metrics.insert("tracing.overhead_frac", untraced_rps / traced_rps - 1.0);
    metrics.insert("measured.results_per_s", plain.raw_results_per_s());
    metrics.insert("measured.latency_p50_ms", median(&mut plain.raw_latencies_ms.clone()));

    let path = Path::new(SCRATCH).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    (metrics, traced)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(PROBE_FLAG) {
        let threads = argv.get(1).and_then(|t| t.parse().ok()).unwrap_or(1);
        println!("{}", probe_here_ms(threads));
        return ExitCode::SUCCESS;
    }
    let args = match parse(argv.into_iter()) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(mut w) = workload(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut rec = Recorder::new(phase_budget(&args)).probe_threads(w.threads());

    // The generator is a pure function of the seed.
    let stream = w.stream_fingerprint(args.seed);
    rec.check(stream == w.stream_fingerprint(args.seed), || {
        "stream differs on the same seed".into()
    });
    rec.check(stream != w.stream_fingerprint(args.seed.wrapping_add(1)), || {
        "stream is the same on the next seed".into()
    });

    let (metrics, names, rec) = if args.trace {
        let (metrics, traced) = per_layer(w.as_mut(), rec, &args);
        (metrics, &PER_LAYER[..], traced)
    } else {
        (end_to_end(w.as_mut(), &mut rec), &END_TO_END[..], rec)
    };

    // Scaling by the host probe cancels any slowdown the probe shares with
    // the program, so a run in which it moved the figures by more than the
    // largest bound is flagged for a look at the measured figures.
    let scaling = rec.results_per_s() / rec.raw_results_per_s();
    let scaling_flag = (scaling - 1.0).abs() > SCALING_FLAG;
    if scaling_flag {
        eprintln!(
            "perfbench: host-speed scaling moved results_per_s by a factor of {scaling:.3}; \
             the measured figures are in the record line"
        );
    }
    let record = serde_json::json!({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc as u64,
        "probe_threads": w.threads() as u64,
        "results": rec.latencies_ms.len() as u64,
        "failed": rec.failed,
        "failures": rec.failures.clone(),
        "measured_results_per_s": rec.raw_results_per_s(),
        "measured_latency_p50_ms": median(&mut rec.raw_latencies_ms.clone()),
        "host_probe_ms": median(&mut rec.probes_ms.clone()),
        "host_scaling": scaling,
        "host_scaling_flag": scaling_flag,
        "stream_fingerprint": stream.to_hex(),
        "output_digest": rec.output_digest().to_hex(),
    });
    println!("{record}");

    let mut out = serde_json::Map::new();
    for (name, unit) in names {
        let value = metrics.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
        out.insert((*name).to_string(), serde_json::json!({ "value": value, "unit": *unit }));
    }
    let summary = serde_json::json!({
        "correct": rec.failed == 0,
        "attempted": rec.attempted.max(1),
        "failed": rec.failed,
        "metrics": serde_json::Value::Object(out),
    });
    println!("{summary}");
    ExitCode::SUCCESS
}
