//! `paper_sweep`: the paper's own traffic. Each request is one Fig. 5/6
//! cell — a kernel under a criticality configuration: GA timer search,
//! the four-protocol sweep (CoHoRT, PCC, PENDULUM, MSI+FCFS), then the
//! soundness check of every outcome against its Eq. 1 bounds.
//!
//! The untraced run calls `cohort_bench::sweep_protocols`, which `repro`
//! runs for every cell, on its default worker pools. The traced run makes
//! the same calls split up, so that each can be timed.
//!
//! Cells run in `repro` order (configurations outer, kernels inner) and a
//! pass's kernel traces are generated on first use and shared by its three
//! configurations. Every pass over the 18 cells draws fresh trace seeds
//! from the workload seed, so the analysis memo is cold for each pass.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cohort::{ExperimentJob, ExperimentOutcome, Protocol, ProtocolKind, Sweep};
use cohort_analysis::{analysis_cache, analyze_cohort};
use cohort_bench::{
    bench_ga, run_to_json, sweep_protocols, CritConfig, ProtocolRun, CORES, GAMMA_SLACK_PERCENT,
    PENDULUM_THETA,
};
use cohort_optim::{GaConfig, GaRun, TimerProblem};
use cohort_sim::SimBuilder;
use cohort_trace::{Kernel, KernelSpec, Workload};
use cohort_types::{Cycles, Fingerprint, TimerValue};

use crate::tracing::{durations_ms, span, Span, Tracer, NO_REQUEST};
use crate::{median, mix, Metrics, Recorder, STREAM_REQUESTS};

/// Cells in one pass: three configurations × six kernels.
pub const CELLS_PER_PASS: u64 = 18;

/// Kernel traces are generated at the default request count divided by
/// this, so a 30-second run completes a few hundred cells (see README).
pub const DEFAULT_SCALE_DIV: u64 = 4;

/// The protocol order every sweep must preserve (the figure renderers
/// index results by position).
const ORDER: [ProtocolKind; 4] =
    [ProtocolKind::Cohort, ProtocolKind::Pcc, ProtocolKind::Pendulum, ProtocolKind::MsiFcfs];

/// The fixed warm-up: the fft cell of each configuration, on traces no
/// timed pass uses.
const WARMUP: [(CritConfig, Kernel); 3] = [
    (CritConfig::OneCrThreeNcr, Kernel::Fft),
    (CritConfig::TwoCrTwoNcr, Kernel::Fft),
    (CritConfig::AllCr, Kernel::Fft),
];

/// Pass index of the warm-up traces' seed stream (no timed pass reaches it).
const WARMUP_PASS: u64 = u64::MAX - 1;

/// The `(pass, configuration, kernel)` of stream position `index`.
#[must_use]
pub fn cell(index: u64) -> (u64, CritConfig, Kernel) {
    let within = (index % CELLS_PER_PASS) as usize;
    (index / CELLS_PER_PASS, CritConfig::ALL[within / 6], Kernel::ALL[within % 6])
}

/// Counters the traced run keeps beside its spans.
#[derive(Debug, Default)]
struct Counters {
    /// Per GA run: (evaluations, memo hits).
    ga: Mutex<Vec<(u64, u64)>>,
    /// Accesses simulated under `sim.run` spans.
    accesses: AtomicU64,
    /// Σ workers × wall time of every sweep, in nanoseconds.
    sweep_capacity_ns: AtomicU64,
    /// (cycles, hits, misses) summed over the first timed request.
    first: Mutex<Option<(u64, u64, u64)>>,
    /// Analysis-memo (lookups, hits) over the timed phase.
    memo: Mutex<(u64, u64)>,
}

/// The `paper_sweep` workload.
#[derive(Debug)]
pub struct PaperSweep {
    seed: u64,
    scale_div: u64,
    ga: GaConfig,
    /// The current pass and its kernel traces, generated on first use.
    traces: (u64, Vec<Option<Arc<Workload>>>),
    counters: Counters,
}

impl PaperSweep {
    /// The workload for `seed` with traces at 1/`scale_div` of the default
    /// kernel scale.
    #[must_use]
    pub fn new(seed: u64, scale_div: u64) -> Self {
        PaperSweep {
            seed,
            scale_div,
            ga: bench_ga(false),
            traces: (u64::MAX, Vec::new()),
            counters: Counters::default(),
        }
    }

    fn kernel_spec(&self, seed: u64, pass: u64, kernel: Kernel) -> KernelSpec {
        KernelSpec::new(kernel, CORES)
            .with_total_requests(kernel.default_total_requests() / self.scale_div)
            .with_seed(mix(mix(seed, pass), kernel as u64))
    }

    /// The trace of `kernel` in `pass`, generated on the pass's first use.
    fn trace(
        &mut self,
        pass: u64,
        kernel: Kernel,
        tracer: Option<&Tracer>,
        parent: Option<u64>,
        request: u64,
    ) -> Arc<Workload> {
        if self.traces.0 != pass {
            self.traces = (pass, vec![None; Kernel::ALL.len()]);
        }
        if let Some(w) = &self.traces.1[kernel as usize] {
            return Arc::clone(w);
        }
        let spec = self.kernel_spec(self.seed, pass, kernel);
        let w = Arc::new(span(tracer, "trace.generate", parent, request, |_| spec.generate()));
        self.traces.1[kernel as usize] = Some(Arc::clone(&w));
        w
    }

    /// The public calls `optimize_cohort_timers` makes, split so the
    /// reference analysis and the GA run can each be timed and the GA's
    /// counters read. A test pins the result to `optimize_cohort_timers`.
    fn traced_timers(
        &self,
        tracer: &Tracer,
        config: CritConfig,
        workload: &Workload,
        parent: Option<u64>,
        request: u64,
    ) -> cohort_types::Result<Vec<TimerValue>> {
        let spec = config.spec();
        let mask = config.critical_mask();
        let reference: Vec<TimerValue> = mask
            .iter()
            .map(|&c| if c { TimerValue::timed(20).expect("small") } else { TimerValue::MSI })
            .collect();
        let ref_bounds = tracer.time("analysis.reference", parent, request, |_| {
            analyze_cohort(workload, &reference, spec.latency(), spec.l1(), spec.llc())
        })?;
        let mut builder = TimerProblem::builder(workload)
            .latency(*spec.latency())
            .l1(*spec.l1())
            .llc(*spec.llc());
        for (i, &critical) in mask.iter().enumerate() {
            if critical {
                let gamma =
                    ref_bounds[i].wcml.map(|w| Cycles::new(w.get() * GAMMA_SLACK_PERCENT / 100));
                builder = builder.timed(i, gamma);
            }
        }
        let problem = builder.build()?;
        let outcome = tracer
            .time("optim.ga", parent, request, |_| GaRun::new(&problem).config(&self.ga).run());
        self.counters
            .ga
            .lock()
            .expect("counter lock")
            .push((outcome.evaluations, outcome.cache_hits));
        Ok(problem.timers_from_genes(&outcome.best))
    }

    /// The calls `sweep_protocols` makes, each timed: the timer search,
    /// then the four-protocol `Sweep` with a runner that times the
    /// simulation and the analysis of every job.
    fn traced_sweep(
        &self,
        tracer: &Tracer,
        config: CritConfig,
        workload: &Arc<Workload>,
        parent: Option<u64>,
        request: u64,
    ) -> Result<Vec<ProtocolRun>, String> {
        let timers = self
            .traced_timers(tracer, config, workload, parent, request)
            .map_err(|e| format!("timer search failed: {e}"))?;
        let spec = config.spec();
        let protocols = [
            Protocol::Cohort { timers: timers.clone() },
            Protocol::Pcc,
            Protocol::Pendulum { critical: config.critical_mask(), theta: PENDULUM_THETA },
            Protocol::MsiFcfs,
        ];
        let jobs = protocols.into_iter().map(|p| {
            let label = format!("{}/{}/{}", config.slug(), workload.name(), p.slug());
            ExperimentJob::new(spec.clone(), p, Arc::clone(workload)).with_label(label)
        });
        let report = tracer.time("cohort.sweep", parent, request, |id| {
            let runner =
                |job: &ExperimentJob| traced_job(tracer, job, Some(id), request, &self.counters);
            Sweep::builder().jobs(jobs).runner(&runner).build().run()
        });
        let capacity = report.wall_time.as_nanos() as u64 * report.workers as u64;
        self.counters.sweep_capacity_ns.fetch_add(capacity, Ordering::Relaxed);
        let outcomes = report.into_outcomes().map_err(|e| format!("sweep failed: {e}"))?;
        Ok(outcomes
            .into_iter()
            .map(|outcome| {
                let timers = (outcome.protocol == ProtocolKind::Cohort).then(|| timers.clone());
                ProtocolRun { outcome, timers }
            })
            .collect())
    }

    /// One cell: the four protocol runs, checked. Returns the digest of
    /// their records.
    fn run_cell(
        &self,
        config: CritConfig,
        workload: &Arc<Workload>,
        tracer: Option<&Tracer>,
        parent: Option<u64>,
        request: u64,
    ) -> Result<Fingerprint, String> {
        let runs = match tracer {
            None => sweep_protocols(config, workload, &self.ga)
                .map_err(|e| format!("sweep failed: {e}"))?,
            Some(t) => self.traced_sweep(t, config, workload, parent, request)?,
        };
        let kinds: Vec<ProtocolKind> = runs.iter().map(|r| r.outcome.protocol).collect();
        if kinds != ORDER {
            return Err(format!("protocol order {kinds:?} is not {ORDER:?}"));
        }
        let mut digest = Fingerprint::builder();
        let mut totals = (0, 0, 0);
        for run in &runs {
            run.outcome.check_soundness()?;
            totals.0 += run.outcome.stats.cycles.get();
            for core in &run.outcome.stats.cores {
                totals.1 += core.hits;
                totals.2 += core.misses;
            }
            let record = run_to_json(config, run);
            digest = digest.text(&serde_json::to_string(&record).expect("a Value serializes"));
        }
        self.counters.first.lock().expect("counter lock").get_or_insert(totals);
        Ok(digest.finish())
    }
}

/// The sweep runner of the traced run: the same four calls as
/// `run_experiment`, each timed.
fn traced_job(
    tracer: &Tracer,
    job: &ExperimentJob,
    sweep: Option<u64>,
    request: u64,
    counters: &Counters,
) -> cohort_types::Result<ExperimentOutcome> {
    tracer.time("cohort.job", sweep, request, |id| {
        let config = job.protocol.sim_config(&job.spec)?;
        let mut sim = tracer.time("sim.build", Some(id), request, |_| {
            SimBuilder::new(config, &job.workload).build()
        })?;
        let stats = tracer.time("sim.run", Some(id), request, |_| sim.run())?;
        counters.accesses.fetch_add(job.workload.total_accesses(), Ordering::Relaxed);
        let bounds = tracer.time("analysis.bounds", Some(id), request, |_| {
            job.protocol.analyze(&job.spec, &job.workload)
        })?;
        Ok(ExperimentOutcome {
            protocol: job.protocol.kind(),
            workload: job.workload.name().to_string(),
            stats,
            bounds,
            metrics: None,
        })
    })
}

impl crate::Workload for PaperSweep {
    fn stream_fingerprint(&self, seed: u64) -> Fingerprint {
        let mut b = Fingerprint::builder();
        for index in 0..STREAM_REQUESTS {
            let (pass, config, kernel) = cell(index);
            b = b.text(config.slug()).text(kernel.name());
            for trace in self.kernel_spec(seed, pass, kernel).generate().traces() {
                b = b.fingerprint(trace.fingerprint());
            }
        }
        b.finish()
    }

    /// The GA and the sweep run on pools of `available_parallelism()`
    /// workers.
    fn threads(&self) -> usize {
        self.ga.resolved_workers()
    }

    fn setup(&mut self, rec: &mut Recorder) {
        analysis_cache().clear();
        self.traces = (u64::MAX, Vec::new());
        for (config, kernel) in WARMUP {
            let workload = Arc::new(self.kernel_spec(self.seed, WARMUP_PASS, kernel).generate());
            let out = self.run_cell(config, &workload, None, None, NO_REQUEST);
            rec.check(out.is_ok(), || format!("warm-up {} {kernel}: {out:?}", config.slug()));
        }
        self.counters = Counters::default();
    }

    fn run(&mut self, rec: &mut Recorder, tracer: Option<&Tracer>) {
        // Memo keys are trace content, so no pass can hit another pass's
        // (or the warm-up's) entries: each pass starts cold, like one
        // `repro` run, and memory does not grow with the run's length.
        analysis_cache().clear();
        let mut memo = (0, 0);
        rec.start();
        let mut index = 0;
        while !rec.expired() {
            rec.pace();
            let (pass, config, kernel) = cell(index);
            if index > 0 && index % CELLS_PER_PASS == 0 {
                let stats = analysis_cache().stats();
                memo = (memo.0 + stats.lookups, memo.1 + stats.hits);
                analysis_cache().clear();
            }
            let start = Instant::now();
            let out = span(tracer, "bench.request", None, index, |id| {
                let workload = self.trace(pass, kernel, tracer, id, index);
                self.run_cell(config, &workload, tracer, id, index)
                    .map_err(|e| format!("cell {index} ({} {kernel}): {e}", config.slug()))
            });
            let latency = start.elapsed();
            rec.add_busy(latency);
            rec.result(latency, out);
            index += 1;
        }
        let stats = analysis_cache().stats();
        *self.counters.memo.lock().expect("counter lock") =
            (memo.0 + stats.lookups, memo.1 + stats.hits);
    }

    fn layer_metrics(&self, spans: &[Span], out: &mut Metrics) {
        let med = |name: &str| median(&mut durations_ms(spans, name));
        out.insert("trace.generate_ms", med("trace.generate"));
        out.insert("analysis.reference_ms", med("analysis.reference"));
        out.insert("analysis.bounds_ms", med("analysis.bounds"));
        out.insert("optim.ga_ms", med("optim.ga"));
        out.insert("cohort.sweep_ms", med("cohort.sweep"));
        out.insert("sim.build_ms", med("sim.build"));
        out.insert("sim.run_ms", med("sim.run"));

        let (lookups, hits) = *self.counters.memo.lock().expect("counter lock");
        out.insert("analysis.cache_hit_ratio", ratio(hits, lookups));
        let ga = self.counters.ga.lock().expect("counter lock");
        let mut evaluations: Vec<f64> = ga.iter().map(|&(e, _)| e as f64).collect();
        out.insert("optim.evaluations", median(&mut evaluations));
        let (evals, memo_hits) = ga.iter().fold((0, 0), |(e, h), &(de, dh)| (e + de, h + dh));
        out.insert("optim.memo_hit_ratio", ratio(memo_hits, evals + memo_hits));

        let busy: f64 = durations_ms(spans, "cohort.job").iter().sum::<f64>() * 1e6;
        let capacity = self.counters.sweep_capacity_ns.load(Ordering::Relaxed) as f64;
        out.insert("cohort.worker_busy_frac", if capacity > 0.0 { busy / capacity } else { 0.0 });
        let run_s: f64 = durations_ms(spans, "sim.run").iter().sum::<f64>() / 1e3;
        let accesses = self.counters.accesses.load(Ordering::Relaxed) as f64;
        crate::sparse::insert_sim_rates(out, accesses, run_s);
        if let Some((cycles, hits, misses)) = *self.counters.first.lock().expect("counter lock") {
            out.insert("sim.cycles_simulated", cycles as f64);
            out.insert("sim.hits", hits as f64);
            out.insert("sim.misses", misses as f64);
        }
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use cohort_bench::optimize_cohort_timers;

    use super::*;
    use crate::Workload as _;

    /// A budget of one request: the loop checks it before each request.
    const ONE_REQUEST: Duration = Duration::from_millis(1);

    #[test]
    fn cells_follow_repro_order() {
        assert_eq!(cell(0), (0, CritConfig::AllCr, Kernel::Fft));
        assert_eq!(cell(7), (0, CritConfig::TwoCrTwoNcr, Kernel::Lu));
        assert_eq!(cell(18), (1, CritConfig::AllCr, Kernel::Fft));
    }

    #[test]
    fn traced_timers_match_optimize_cohort_timers() {
        let sweep = PaperSweep::new(3, 40);
        let workload = sweep.kernel_spec(3, 0, Kernel::Fft).generate();
        let tracer = Tracer::new();
        for config in CritConfig::ALL {
            let expected = optimize_cohort_timers(config, &workload, &sweep.ga).unwrap();
            let traced = sweep.traced_timers(&tracer, config, &workload, None, 0).unwrap();
            assert_eq!(traced, expected, "{}", config.slug());
        }
    }

    #[test]
    fn traced_and_untraced_cells_digest_identically() {
        let mut sweep = PaperSweep::new(5, 40);
        let tracer = Tracer::new();
        let mut plain = Recorder::new(ONE_REQUEST);
        let mut traced = Recorder::new(ONE_REQUEST);
        sweep.setup(&mut plain);
        sweep.run(&mut plain, None);
        sweep.setup(&mut traced);
        sweep.run(&mut traced, Some(&tracer));
        assert_eq!(
            (plain.failed, traced.failed),
            (0, 0),
            "{:?} {:?}",
            plain.failures,
            traced.failures
        );
        assert_eq!(plain.output_digest(), traced.output_digest());
        assert!(tracer.spans().iter().any(|s| s.name == "sim.run"));
    }
}
