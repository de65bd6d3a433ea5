//! Shared harness for regenerating every table and figure of the CoHoRT
//! paper (§VIII). The `repro` bin writes all of them; [`artifacts`]
//! renders each one, and this library holds the common machinery: the
//! three criticality configurations, requirement derivation, protocol
//! sweeps, the `--json` records and the CLI flags.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod report;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use cohort::{
    run_experiment_with_metrics, ExperimentOutcome, JobProgress, Protocol, SweepObserver,
    SystemSpec,
};
use cohort_analysis::analysis_cache;
use cohort_optim::{GaConfig, GaRun, TimerProblem};
use cohort_sim::{ChromeTraceProbe, SimBuilder};
use cohort_trace::{Kernel, KernelSpec, Workload};
use cohort_types::{panic_message, run_indexed, Criticality, Cycles, Error, Result, TimerValue};
use serde_json::json;

/// The uniform timer PENDULUM programs on its critical cores (PENDULUM is
/// not requirement-aware; a single protective value serves everyone).
pub const PENDULUM_THETA: u64 = 300;

/// Slack applied when deriving a task's requirement Γ from its reference
/// bound, in percent: Γ = bound × GAMMA_SLACK_PERCENT / 100.
pub const GAMMA_SLACK_PERCENT: u64 = 115;

/// Number of cores in the paper's evaluation platform.
pub const CORES: usize = 4;

/// The three criticality configurations of Figures 5 and 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CritConfig {
    /// All four cores critical (Fig. 5a / 6a).
    AllCr,
    /// Cores 0–1 critical, 2–3 non-critical (Fig. 5b / 6b).
    TwoCrTwoNcr,
    /// Core 0 critical, 1–3 non-critical (Fig. 5c / 6c).
    OneCrThreeNcr,
}

impl CritConfig {
    /// All three configurations in figure order.
    pub const ALL: [CritConfig; 3] =
        [CritConfig::AllCr, CritConfig::TwoCrTwoNcr, CritConfig::OneCrThreeNcr];

    /// The label used in the paper.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CritConfig::AllCr => "All Cr",
            CritConfig::TwoCrTwoNcr => "2 Cr, 2 nCr",
            CritConfig::OneCrThreeNcr => "1 Cr, 3 nCr",
        }
    }

    /// The spelling used in sweep labels and `--json` records.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            CritConfig::AllCr => "all-cr",
            CritConfig::TwoCrTwoNcr => "2cr2ncr",
            CritConfig::OneCrThreeNcr => "1cr3ncr",
        }
    }

    /// The sub-figure letter in Figures 5 and 6 ("a"/"b"/"c").
    #[must_use]
    pub fn subfigure(self) -> &'static str {
        match self {
            CritConfig::AllCr => "a",
            CritConfig::TwoCrTwoNcr => "b",
            CritConfig::OneCrThreeNcr => "c",
        }
    }

    /// Which cores are critical.
    #[must_use]
    pub fn critical_mask(self) -> Vec<bool> {
        match self {
            CritConfig::AllCr => vec![true; CORES],
            CritConfig::TwoCrTwoNcr => vec![true, true, false, false],
            CritConfig::OneCrThreeNcr => vec![true, false, false, false],
        }
    }

    /// The platform spec: critical cores at level 2, non-critical at 1.
    ///
    /// # Panics
    ///
    /// Never — the levels are static and valid.
    #[must_use]
    pub fn spec(self) -> SystemSpec {
        let mut b = SystemSpec::builder();
        for critical in self.critical_mask() {
            let level = if critical { 2 } else { 1 };
            b = b.core(Criticality::new(level).expect("static levels"));
        }
        b.build().expect("non-empty")
    }
}

/// One protocol's result for a kernel under a configuration.
#[derive(Debug, Clone)]
pub struct ProtocolRun {
    /// The experiment outcome (stats + bounds).
    pub outcome: ExperimentOutcome,
    /// The timers used (CoHoRT only).
    pub timers: Option<Vec<TimerValue>>,
}

/// CoHoRT's per-configuration timer optimization for one workload.
///
/// The paper derives each Cr task's requirement Γ from its system context;
/// since the concrete Γ values are not published, the harness derives them
/// the way a system integrator would: Γ_i = [`GAMMA_SLACK_PERCENT`] % of
/// the WCML bound at a small uniform reference timer (θ = 20) — tight
/// enough to constrain the GA, loose enough to be feasible.
///
/// # Errors
///
/// Propagates analysis errors; an infeasible GA outcome falls back to the
/// best assignment found (and is reported via the bounds).
pub fn optimize_cohort_timers(
    config: CritConfig,
    workload: &Workload,
    ga: &GaConfig,
) -> Result<Vec<TimerValue>> {
    let spec = config.spec();
    let mask = config.critical_mask();

    // Reference bounds at a uniform small timer for the Cr cores.
    let reference: Vec<TimerValue> = mask
        .iter()
        .map(|&c| if c { TimerValue::timed(20).expect("small") } else { TimerValue::MSI })
        .collect();
    let ref_bounds = cohort_analysis::analyze_cohort(
        workload,
        &reference,
        spec.latency(),
        spec.l1(),
        spec.llc(),
    )?;

    let mut builder =
        TimerProblem::builder(workload).latency(*spec.latency()).l1(*spec.l1()).llc(*spec.llc());
    for (i, &critical) in mask.iter().enumerate() {
        if critical {
            let gamma =
                ref_bounds[i].wcml.map(|w| Cycles::new(w.get() * GAMMA_SLACK_PERCENT / 100));
            builder = builder.timed(i, gamma);
        }
    }
    let problem = builder.build()?;
    let outcome = GaRun::new(&problem).config(ga).run();
    Ok(problem.timers_from_genes(&outcome.best))
}

/// Runs one kernel under one configuration for CoHoRT, PCC and PENDULUM
/// (the Figure-5 sweep) plus MSI+FCFS (the Figure-6 baseline).
///
/// The cell is one pool of [`GaConfig::resolved_workers`] threads claiming
/// four tasks in protocol order: the GA timer search (run inline on one
/// thread, which yields the same timers) followed by the CoHoRT run, then
/// PCC, PENDULUM and MSI+FCFS, which do not wait for the GA. Every run
/// goes through the run memo of [`analysis_cache`], so the
/// criticality-free baselines (PCC, MSI+FCFS) simulate once per kernel
/// trace across the three configurations. Results keep the
/// `[CoHoRT, PCC, PENDULUM, MSI+FCFS]` order the figure renderers index
/// by position.
///
/// # Errors
///
/// Propagates simulator/analysis errors (the first failed task's error; a
/// panicking task becomes [`Error::JobPanicked`]).
pub fn sweep_protocols(
    config: CritConfig,
    workload: &Workload,
    ga: &GaConfig,
) -> Result<Vec<ProtocolRun>> {
    sweep_protocols_opts(config, workload, ga, false)
}

/// [`sweep_protocols`] with explicit options: when `collect_metrics` is
/// set, every run executes under a `cohort_sim::MetricsProbe`, bypassing
/// the run memo, and its [`ExperimentOutcome::metrics`] report flows into
/// the `--json` records (the statistics themselves are bit-identical
/// either way).
///
/// # Errors
///
/// Propagates simulator/analysis errors (the first failed task's error).
pub fn sweep_protocols_opts(
    config: CritConfig,
    workload: &Workload,
    ga: &GaConfig,
    collect_metrics: bool,
) -> Result<Vec<ProtocolRun>> {
    let spec = config.spec();
    let run = |protocol: &Protocol| {
        if collect_metrics {
            return run_experiment_with_metrics(&spec, protocol, workload);
        }
        let stats = analysis_cache().simulate(&protocol.sim_config(&spec)?, workload)?;
        ExperimentOutcome::analyzed(&spec, protocol, workload, stats)
    };
    let inline_ga = GaConfig { workers: 1, ..ga.clone() };
    let cohort = || {
        let timers = optimize_cohort_timers(config, workload, &inline_ga)?;
        let outcome = run(&Protocol::Cohort { timers: timers.clone() })?;
        Ok(ProtocolRun { outcome, timers: Some(timers) })
    };
    let baseline = |protocol: Protocol| Ok(ProtocolRun { outcome: run(&protocol)?, timers: None });
    let pcc = || baseline(Protocol::Pcc);
    let pendulum =
        || baseline(Protocol::Pendulum { critical: config.critical_mask(), theta: PENDULUM_THETA });
    let fcfs = || baseline(Protocol::MsiFcfs);
    run_tasks(ga.resolved_workers(), &[&cohort, &pcc, &pendulum, &fcfs])
}

/// One task of a [`run_tasks`] pool.
type Task<'a, R> = &'a (dyn Fn() -> Result<R> + Sync);

/// Runs `tasks` on at most `workers` threads that claim them in order,
/// and returns their results in task order, or the first failed task's
/// error. A panicking task becomes [`Error::JobPanicked`] instead of
/// taking the pool down.
fn run_tasks<R: Send>(workers: usize, tasks: &[Task<'_, R>]) -> Result<Vec<R>> {
    run_indexed(tasks, workers, |_, task| {
        catch_unwind(AssertUnwindSafe(task))
            .unwrap_or_else(|payload| Err(Error::JobPanicked(panic_message(payload.as_ref()))))
    })
    .into_iter()
    .collect()
}

/// A [`SweepObserver`] that prints one line per finished job to stderr.
///
/// Used by the ablation study so a long run shows forward progress
/// without polluting the rendered tables.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConsoleObserver;

impl SweepObserver for ConsoleObserver {
    fn job_finished(&self, index: usize, label: &str, progress: &JobProgress) {
        let status = if progress.ok { "ok" } else { "FAILED" };
        eprintln!(
            "  [{index}] {label}: {status} ({} cycles, bus {:.1}%, {:.2?})",
            progress.cycles,
            progress.bus_utilisation * 100.0,
            progress.wall_time,
        );
    }
}

/// The evaluation workloads at the given scale.
#[must_use]
pub fn kernels(cores: usize, full_scale: bool, quick: bool) -> Vec<Workload> {
    Kernel::ALL
        .into_iter()
        .map(|k| {
            let mut spec = KernelSpec::new(k, cores);
            if full_scale {
                spec = spec.full_scale();
            } else if quick {
                spec = spec.with_total_requests(k.default_total_requests() / 10);
            }
            spec.generate()
        })
        .collect()
}

/// A quick GA configuration for the regeneration binaries (the full Matlab
/// run took the authors up to 20 h; the memoized hit curves make a smaller
/// budget converge here).
#[must_use]
pub fn bench_ga(quick: bool) -> GaConfig {
    if quick {
        GaConfig { population: 16, generations: 10, ..Default::default() }
    } else {
        GaConfig { population: 32, generations: 30, ..Default::default() }
    }
}

/// Geometric mean of a sequence of ratios.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn geomean(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geomean of nothing");
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Machine-readable record of one protocol run (one element of the
/// `--json` report's `"runs"` array).
///
/// Schema per run: config/protocol/workload identity (slugs), the
/// execution time and bus utilisation, per-core measured statistics with
/// their analytical bounds (`null` where no bound exists), and the
/// optimized timers for CoHoRT runs (paper encoding, −1 = MSI).
#[must_use]
pub fn run_to_json(config: CritConfig, run: &ProtocolRun) -> serde_json::Value {
    let outcome = &run.outcome;
    let cores: Vec<serde_json::Value> = outcome
        .stats
        .cores
        .iter()
        .enumerate()
        .map(|(i, core)| {
            let bound = outcome.bounds.as_ref().map(|b| b[i]);
            json!({
                "hits": core.hits,
                "misses": core.misses,
                "total_latency": core.total_latency.get(),
                "worst_request": core.worst_request.get(),
                "wcml_bound": bound.and_then(|b| b.wcml).map(Cycles::get),
                "wcl_bound": bound.and_then(|b| b.wcl).map(Cycles::get),
            })
        })
        .collect();
    let mut record = serde_json::Map::new();
    record.insert("config".into(), json!(config.slug()));
    record.insert("protocol".into(), json!(outcome.protocol.slug()));
    record.insert("workload".into(), json!(outcome.workload.clone()));
    record.insert("execution_time".into(), json!(outcome.execution_time()));
    record.insert("cycles".into(), json!(outcome.stats.cycles.get()));
    record.insert("bus_utilisation".into(), json!(outcome.stats.bus_utilisation()));
    record.insert("hit_ratio".into(), json!(outcome.stats.hit_ratio()));
    record.insert(
        "timers".into(),
        json!(run.timers.as_ref().map(|t| t.iter().map(|v| v.encode()).collect::<Vec<i32>>())),
    );
    record.insert("cores".into(), json!(cores));
    // Present only for probed runs, so probe-off reports are byte-for-byte
    // what the pre-probe harness wrote.
    if let Some(metrics) = &outcome.metrics {
        record.insert("metrics".into(), metrics.to_json());
    }
    serde_json::Value::Object(record)
}

/// Runs `protocol` on `workload` under a [`ChromeTraceProbe`] and writes
/// the Chrome/Perfetto `traceEvents` artifact to `path` (load it in
/// `chrome://tracing` or <https://ui.perfetto.dev>).
///
/// # Errors
///
/// Propagates configuration/simulator errors; filesystem failures surface
/// as [`Error::Codec`].
pub fn write_chrome_trace(
    path: &Path,
    spec: &SystemSpec,
    protocol: &Protocol,
    workload: &Workload,
) -> Result<()> {
    let config = protocol.sim_config(spec)?;
    let mut sim = SimBuilder::new(config, workload).probe(ChromeTraceProbe::new()).build()?;
    sim.run()?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| Error::Codec(e.to_string()))?;
    }
    sim.into_probe().write_to(path).map_err(|e| Error::Codec(e.to_string()))
}

/// Parses the common CLI flags of the bin targets.
#[derive(Debug, Clone, Default)]
pub struct CliOptions {
    /// `--full`: paper-faithful scale (ocean at 2.5 M requests).
    pub full: bool,
    /// `--quick`: 10× reduced scale for smoke runs.
    pub quick: bool,
    /// `--json <path>`: also emit machine-readable per-job results.
    pub json: Option<PathBuf>,
    /// `--metrics`: run the sweeps under a `MetricsProbe` and embed the
    /// latency-histogram/bus/timer reports in the `--json` records.
    pub metrics: bool,
    /// `--trace <path>`: write a Chrome/Perfetto trace of one
    /// representative CoHoRT run.
    pub trace: Option<PathBuf>,
    /// `--workers <n>`: force the parallel worker count where a bin runs
    /// a concurrent engine (the `optim` bin's parallel leg). `0` means
    /// "resolve from host parallelism", matching `GaConfig::workers`.
    pub workers: Option<usize>,
}

/// The usage line shared by every bin's flag-error message.
pub const CLI_USAGE: &str =
    "usage: [--full|--quick] [--json <path>] [--metrics] [--trace <path>] [--workers <n>]";

impl CliOptions {
    /// Parses `std::env::args`-style arguments.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags, a flag missing its value,
    /// or `--full` combined with `--quick`.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut options = CliOptions::default();
        let mut args = args.skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => options.full = true,
                "--quick" => options.quick = true,
                "--json" => {
                    options.json = Some(PathBuf::from(args.next().ok_or("--json needs a path")?));
                }
                "--metrics" => options.metrics = true,
                "--trace" => {
                    options.trace = Some(PathBuf::from(args.next().ok_or("--trace needs a path")?));
                }
                "--workers" => {
                    let count = args.next().ok_or("--workers needs a count")?;
                    options.workers =
                        Some(count.parse().map_err(|_| format!("invalid worker count `{count}`"))?);
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if options.full && options.quick {
            return Err("--full and --quick are mutually exclusive".into());
        }
        Ok(options)
    }

    /// The directory `repro` writes the paper's artifacts to: `results/`
    /// at the default scale, whose committed files CI diffs against a
    /// fresh run, and `out/repro-quick/` or `out/repro-full/` at the other
    /// scales, so a smoke or full-scale run never overwrites them.
    #[must_use]
    pub fn artifact_dir(&self) -> &'static Path {
        Path::new(if self.quick {
            "out/repro-quick"
        } else if self.full {
            "out/repro-full"
        } else {
            "results"
        })
    }

    /// Parses the process arguments, printing the error plus the usage
    /// line and exiting with a nonzero status when they are invalid — the
    /// shared entry point of every bin target.
    #[must_use]
    pub fn parse_or_exit() -> Self {
        Self::parse(std::env::args()).unwrap_or_else(|message| {
            eprintln!("{message}");
            eprintln!("{CLI_USAGE}");
            std::process::exit(2);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohort::ProtocolKind;

    #[test]
    fn config_masks() {
        assert_eq!(CritConfig::AllCr.critical_mask(), vec![true; 4]);
        assert_eq!(CritConfig::OneCrThreeNcr.critical_mask(), vec![true, false, false, false]);
    }

    #[test]
    fn specs_follow_masks() {
        for config in CritConfig::ALL {
            let spec = config.spec();
            assert_eq!(spec.cores(), 4);
            let mask = config.critical_mask();
            for (core, &critical) in spec.core_specs().iter().zip(&mask) {
                assert_eq!(core.criticality().level(), if critical { 2 } else { 1 });
            }
        }
    }

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cli_parsing() {
        let opts = CliOptions::parse(
            [
                "bin",
                "--quick",
                "--json",
                "out/repro.json",
                "--metrics",
                "--trace",
                "out/trace.json",
                "--workers",
                "4",
            ]
            .iter()
            .map(ToString::to_string),
        )
        .unwrap();
        assert!(opts.quick);
        assert_eq!(opts.json.as_deref(), Some(Path::new("out/repro.json")));
        assert!(opts.metrics);
        assert_eq!(opts.trace.as_deref(), Some(Path::new("out/trace.json")));
        assert_eq!(opts.workers, Some(4));
    }

    #[test]
    fn cli_rejects_bad_worker_counts() {
        let err = CliOptions::parse(["bin", "--workers", "many"].iter().map(ToString::to_string))
            .unwrap_err();
        assert!(err.contains("invalid worker count"), "unexpected message: {err}");
    }

    #[test]
    fn full_and_quick_conflict() {
        let err = CliOptions::parse(["bin", "--full", "--quick"].iter().map(ToString::to_string))
            .unwrap_err();
        assert!(err.contains("mutually exclusive"), "unexpected message: {err}");
    }

    #[test]
    fn cli_rejects_unknown_flags_and_missing_values() {
        let err =
            CliOptions::parse(["bin", "--bogus"].iter().map(ToString::to_string)).unwrap_err();
        assert!(err.contains("unknown flag"), "unexpected message: {err}");
        let err = CliOptions::parse(["bin", "--json"].iter().map(ToString::to_string)).unwrap_err();
        assert!(err.contains("needs a path"), "unexpected message: {err}");
        // The removed per-configuration filter is an unknown flag now.
        let err = CliOptions::parse(["bin", "--config", "all-cr"].iter().map(ToString::to_string))
            .unwrap_err();
        assert!(err.contains("unknown flag"), "unexpected message: {err}");
    }

    #[test]
    fn artifact_dir_follows_the_scale_flag() {
        let dir = |args: &[&str]| {
            let options = CliOptions::parse(args.iter().map(ToString::to_string)).unwrap();
            options.artifact_dir().to_path_buf()
        };
        assert_eq!(dir(&["repro"]), Path::new("results"));
        assert_eq!(dir(&["repro", "--metrics", "--json", "a.json"]), Path::new("results"));
        assert_eq!(dir(&["repro", "--quick"]), Path::new("out/repro-quick"));
        assert_eq!(dir(&["repro", "--full"]), Path::new("out/repro-full"));
    }

    #[test]
    fn paper_cell_ga_best_is_pinned() {
        // The all-Cr fft cell of Fig. 5 at default scale and the `repro`
        // GA budget: the timers it ships are the GA's best genome, drawn
        // from the seeded GA streams, so they pin the RNG end to end.
        let w = KernelSpec::new(Kernel::Fft, CORES).generate();
        let timers = optimize_cohort_timers(CritConfig::AllCr, &w, &bench_ga(false)).unwrap();
        let thetas: Vec<Option<u64>> = timers.iter().map(|t| t.theta()).collect();
        assert_eq!(thetas, [Some(12), Some(11), Some(12), Some(12)]);
    }

    #[test]
    fn cell_tasks_keep_order_and_turn_panics_into_errors() {
        let first = || Ok(1);
        let second = || Ok(2);
        assert_eq!(run_tasks(2, &[&first, &second]).unwrap(), [1, 2]);

        let panics = || -> Result<u32> { panic!("cell task died") };
        let fails = || Err(Error::InvalidConfig("bad cell".into()));
        assert_eq!(
            run_tasks(2, &[&first, &panics, &fails]),
            Err(Error::JobPanicked("cell task died".into()))
        );
        // The first failure in task order wins, whichever thread ran it.
        assert_eq!(
            run_tasks(2, &[&fails, &panics, &first]),
            Err(Error::InvalidConfig("bad cell".into()))
        );
    }

    #[test]
    fn quick_sweep_is_sound() {
        // End-to-end smoke: one tiny kernel through the full sweep.
        let w = KernelSpec::new(Kernel::Fft, 4).with_total_requests(2_000).generate();
        let ga = GaConfig { population: 8, generations: 3, ..Default::default() };
        let runs = sweep_protocols(CritConfig::AllCr, &w, &ga).unwrap();
        assert_eq!(runs.len(), 4);
        for run in &runs {
            run.outcome.check_soundness().unwrap_or_else(|e| panic!("{e}"));
        }
        // The renderers index the runs by position: the order is part of
        // the API and must survive the parallel sweep.
        let kinds: Vec<ProtocolKind> = runs.iter().map(|r| r.outcome.protocol).collect();
        assert_eq!(
            kinds,
            [
                ProtocolKind::Cohort,
                ProtocolKind::Pcc,
                ProtocolKind::Pendulum,
                ProtocolKind::MsiFcfs
            ]
        );
        assert!(runs[0].timers.is_some() && runs[1].timers.is_none());
    }

    #[test]
    fn json_records_carry_the_run() {
        let w = KernelSpec::new(Kernel::Fft, 4).with_total_requests(2_000).generate();
        let ga = GaConfig { population: 8, generations: 3, ..Default::default() };
        let runs = sweep_protocols(CritConfig::TwoCrTwoNcr, &w, &ga).unwrap();
        let record = run_to_json(CritConfig::TwoCrTwoNcr, &runs[0]);
        assert_eq!(record.get("config").and_then(serde_json::Value::as_str), Some("2cr2ncr"));
        assert_eq!(record.get("protocol").and_then(serde_json::Value::as_str), Some("cohort"));
        assert_eq!(
            record.get("execution_time").and_then(serde_json::Value::as_u64),
            Some(runs[0].outcome.execution_time())
        );
        let cores = record.get("cores").and_then(serde_json::Value::as_array).unwrap();
        assert_eq!(cores.len(), 4);
        assert_eq!(
            cores[0].get("hits").and_then(serde_json::Value::as_u64),
            Some(runs[0].outcome.stats.cores[0].hits)
        );
        let timers = record.get("timers").and_then(serde_json::Value::as_array).unwrap();
        assert_eq!(timers.len(), 4);
        // The MSI+FCFS baseline has no bounds and no timers: nulls, not
        // absent keys, so downstream tooling sees a stable schema.
        let baseline = run_to_json(CritConfig::TwoCrTwoNcr, &runs[3]);
        assert_eq!(baseline.get("timers"), Some(&serde_json::Value::Null));
        let baseline_cores = baseline.get("cores").and_then(serde_json::Value::as_array).unwrap();
        assert_eq!(baseline_cores[0].get("wcml_bound"), Some(&serde_json::Value::Null));

        let dir = std::env::temp_dir().join("cohort-bench-json-test");
        let path = dir.join("nested").join("report.json");
        let writer = report::ReportWriter::new(&report::REPORT);
        let summary = writer.write(Some(&path), json!({ "runs": [record, baseline] })).unwrap();
        assert_eq!(summary, "report ok: 2 runs");
        let round: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(round.get("generator").and_then(serde_json::Value::as_str), Some("repro"));
        let round_runs = round.get("runs").and_then(serde_json::Value::as_array).unwrap();
        assert_eq!(round_runs.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_sweep_embeds_reports_and_plain_sweep_omits_the_key() {
        let w = KernelSpec::new(Kernel::Fft, 4).with_total_requests(2_000).generate();
        let ga = GaConfig { population: 8, generations: 3, ..Default::default() };
        let plain = sweep_protocols(CritConfig::AllCr, &w, &ga).unwrap();
        let probed = sweep_protocols_opts(CritConfig::AllCr, &w, &ga, true).unwrap();

        for (p, m) in plain.iter().zip(&probed) {
            // The probe must not perturb the simulation itself.
            assert_eq!(p.outcome.stats, m.outcome.stats, "{:?}", p.outcome.protocol);

            let plain_record = run_to_json(CritConfig::AllCr, p);
            assert!(
                plain_record.get("metrics").is_none(),
                "plain records must omit the key entirely (byte-identity)"
            );
            let probed_record = run_to_json(CritConfig::AllCr, m);
            let metrics = probed_record.get("metrics").expect("probed records embed a report");
            assert_eq!(
                metrics.get("cycles").and_then(serde_json::Value::as_u64),
                Some(m.outcome.stats.cycles.get())
            );
            let cores = metrics.get("cores").and_then(serde_json::Value::as_array).unwrap();
            assert_eq!(cores.len(), 4);
        }
    }

    #[test]
    fn chrome_trace_export_writes_a_valid_document() {
        let w = KernelSpec::new(Kernel::Fft, 4).with_total_requests(2_000).generate();
        let ga = GaConfig { population: 8, generations: 3, ..Default::default() };
        let runs = sweep_protocols(CritConfig::AllCr, &w, &ga).unwrap();
        let timers = runs[0].timers.clone().expect("CoHoRT carries timers");

        let dir = std::env::temp_dir().join("cohort-bench-trace-test");
        let path = dir.join("trace.json");
        write_chrome_trace(&path, &CritConfig::AllCr.spec(), &Protocol::Cohort { timers }, &w)
            .unwrap();
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(serde_json::Value::as_array).unwrap();
        assert!(!events.is_empty());
        // 4 core tracks + bus + llc metadata records.
        let names = events
            .iter()
            .filter(|e| e.get("ph").and_then(serde_json::Value::as_str) == Some("M"))
            .count();
        assert_eq!(names, 6);
        std::fs::remove_dir_all(&dir).ok();
    }
}
