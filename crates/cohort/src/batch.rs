//! The batch sweep engine: a bounded parallel experiment runner with fault
//! isolation and a structured results API.
//!
//! The figure benches sweep kernels × protocols × criticality
//! configurations — dozens of independent, CPU-bound simulation+analysis
//! jobs. This module runs such batches on the workspace's worker pool
//! ([`cohort_types::run_indexed`], sized from
//! [`std::thread::available_parallelism`] by default), and
//! unlike a `Result<Vec<_>>` driver it reports **every** job's outcome:
//! a job that fails — or outright panics — becomes a [`JobError`] in its
//! slot while its siblings run to completion.
//!
//! Progress is observable through the [`SweepObserver`] hook (jobs
//! started/finished, simulated cycles, bus utilisation, per-job wall
//! time), and the per-trace analysis work inside the jobs is shared
//! through `cohort-analysis`'s process-wide memo, so sweeping many timer
//! configurations over the same kernels does not re-walk the traces.
//!
//! # Examples
//!
//! ```
//! use cohort::{ExperimentJob, Protocol, Sweep, SystemSpec};
//! use cohort_trace::micro;
//! use cohort_types::Criticality;
//!
//! let spec = SystemSpec::builder()
//!     .core(Criticality::new(2)?)
//!     .core(Criticality::new(1)?)
//!     .build()?;
//! let workload = micro::ping_pong(2, 8);
//! let report = Sweep::builder()
//!     .job(ExperimentJob::new(spec.clone(), Protocol::Msi, workload.clone()))
//!     .job(ExperimentJob::new(spec, Protocol::Pcc, workload))
//!     .build()
//!     .run();
//! assert_eq!(report.results.len(), 2);
//! assert!(report.results.iter().all(|r| r.outcome.is_ok()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cohort_trace::Workload;
use cohort_types::{default_workers, panic_message, run_indexed, Error, Result};

use crate::experiment::{run_experiment, ExperimentOutcome};
use crate::protocol::{Protocol, ProtocolKind};
use crate::SystemSpec;

/// One experiment of a sweep, owning everything it needs to run.
///
/// Jobs own their inputs (the workload behind an [`Arc`], so fanning one
/// workload out across many protocol jobs stays cheap) — the batch can
/// outlive the scope that built it, be moved into worker threads, and be
/// serialized into reports by `label`.
#[derive(Debug, Clone)]
pub struct ExperimentJob {
    /// The platform to simulate and analyse against.
    pub spec: SystemSpec,
    /// The protocol configuration under test.
    pub protocol: Protocol,
    /// The workload, shared rather than cloned across jobs.
    pub workload: Arc<Workload>,
    /// Human-readable job identifier, unique within a sweep by convention.
    pub label: String,
}

impl ExperimentJob {
    /// Creates a job with the default `"<protocol-slug>/<workload>"` label.
    #[must_use]
    pub fn new(spec: SystemSpec, protocol: Protocol, workload: impl Into<Arc<Workload>>) -> Self {
        let workload = workload.into();
        let label = format!("{}/{}", protocol.slug(), workload.name());
        ExperimentJob { spec, protocol, workload, label }
    }

    /// Replaces the label (e.g. to add a configuration or θ suffix).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// Why one job of a sweep produced no [`ExperimentOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The experiment returned an error (bad configuration, simulator
    /// failure) through the normal `Result` channel.
    Failed(Error),
    /// The job panicked; the worker caught the unwind and carries the
    /// panic message here. Sibling jobs are unaffected.
    Panicked(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Failed(e) => write!(f, "job failed: {e}"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Failed(e) => Some(e),
            JobError::Panicked(_) => None,
        }
    }
}

impl From<JobError> for Error {
    fn from(err: JobError) -> Self {
        match err {
            JobError::Failed(e) => e,
            JobError::Panicked(msg) => Error::JobPanicked(msg),
        }
    }
}

/// What a finished job looked like, as reported to [`SweepObserver`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct JobProgress {
    /// Simulated cycles (0 for failed jobs).
    pub cycles: u64,
    /// Shared-bus utilisation of the run in `[0, 1]` (0 for failed jobs).
    pub bus_utilisation: f64,
    /// Wall-clock time the job spent in simulation + analysis.
    pub wall_time: Duration,
    /// Whether the job produced an outcome.
    pub ok: bool,
}

/// The structured per-job record a sweep returns.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's label, echoed from [`ExperimentJob::label`].
    pub label: String,
    /// Which protocol the job ran.
    pub protocol: ProtocolKind,
    /// The workload's name.
    pub workload: String,
    /// The outcome, or the structured reason there is none.
    pub outcome: core::result::Result<ExperimentOutcome, JobError>,
    /// Wall-clock time the job spent in simulation + analysis.
    pub wall_time: Duration,
}

impl JobResult {
    /// The outcome, if the job succeeded.
    #[must_use]
    pub fn outcome(&self) -> Option<&ExperimentOutcome> {
        self.outcome.as_ref().ok()
    }
}

/// Observer of sweep progress; all methods default to no-ops.
///
/// Implementations must be `Sync`: callbacks arrive concurrently from the
/// worker threads, identified by the job's index within the sweep.
pub trait SweepObserver: Sync {
    /// A worker picked up job `index`.
    fn job_started(&self, index: usize, label: &str) {
        let _ = (index, label);
    }

    /// Job `index` finished (successfully or not).
    fn job_finished(&self, index: usize, label: &str, progress: &JobProgress) {
        let _ = (index, label, progress);
    }
}

/// The do-nothing observer behind [`Sweep::run`].
struct SilentObserver;

impl SweepObserver for SilentObserver {}

/// The job body a sweep executes — the default bodies simulate + analyse,
/// custom runners (tests, alternative execution backends such as the
/// fleet's worker shards) inject their own while keeping the pool, the
/// panic isolation and the reporting.
pub type SweepRunner<'o> = &'o (dyn Fn(&ExperimentJob) -> Result<ExperimentOutcome> + Sync);

/// A configured batch of experiments, ready to run.
///
/// Built with [`Sweep::builder`]. Running is `&self`: the same sweep can
/// be executed repeatedly (results are deterministic for deterministic
/// workloads, independent of worker scheduling). Progress observation and
/// custom job bodies are builder state ([`SweepBuilder::observer`] /
/// [`SweepBuilder::runner`]), so [`Sweep::run`] is the single entry point.
#[derive(Clone)]
pub struct Sweep<'o> {
    jobs: Vec<ExperimentJob>,
    workers: usize,
    observer: Option<&'o dyn SweepObserver>,
    runner: Option<SweepRunner<'o>>,
}

impl std::fmt::Debug for Sweep<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("jobs", &self.jobs)
            .field("workers", &self.workers)
            .field("observer", &self.observer.map(|_| "dyn SweepObserver"))
            .field("runner", &self.runner.map(|_| "dyn Fn"))
            .finish()
    }
}

/// Builder for [`Sweep`].
#[derive(Default)]
pub struct SweepBuilder<'o> {
    jobs: Vec<ExperimentJob>,
    workers: Option<usize>,
    observer: Option<&'o dyn SweepObserver>,
    runner: Option<SweepRunner<'o>>,
}

impl std::fmt::Debug for SweepBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepBuilder")
            .field("jobs", &self.jobs)
            .field("workers", &self.workers)
            .field("observer", &self.observer.map(|_| "dyn SweepObserver"))
            .field("runner", &self.runner.map(|_| "dyn Fn"))
            .finish()
    }
}

impl<'o> SweepBuilder<'o> {
    /// Appends one job.
    #[must_use]
    pub fn job(mut self, job: ExperimentJob) -> Self {
        self.jobs.push(job);
        self
    }

    /// Appends a batch of jobs.
    #[must_use]
    pub fn jobs(mut self, jobs: impl IntoIterator<Item = ExperimentJob>) -> Self {
        self.jobs.extend(jobs);
        self
    }

    /// Overrides the worker-thread cap (clamped to at least 1). The
    /// default is [`std::thread::available_parallelism`].
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Attaches a progress observer; [`Sweep::run`] reports every job
    /// start/finish to it from the worker threads.
    #[must_use]
    pub fn observer(mut self, observer: &'o dyn SweepObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Replaces the job body executed for every job (the default simulates
    /// and analyses through [`run_experiment`]). Tests
    /// and alternative execution backends inject their own while keeping
    /// the pool, the panic isolation and the reporting.
    #[must_use]
    pub fn runner(mut self, runner: SweepRunner<'o>) -> Self {
        self.runner = Some(runner);
        self
    }

    /// Finalises the sweep.
    #[must_use]
    pub fn build(self) -> Sweep<'o> {
        Sweep {
            jobs: self.jobs,
            workers: self.workers.unwrap_or_else(default_workers),
            observer: self.observer,
            runner: self.runner,
        }
    }
}

impl<'o> Sweep<'o> {
    /// Starts building a sweep.
    #[must_use]
    pub fn builder() -> SweepBuilder<'o> {
        SweepBuilder::default()
    }

    /// The configured jobs, in execution-report order.
    #[must_use]
    pub fn jobs(&self) -> &[ExperimentJob] {
        &self.jobs
    }

    /// The worker-thread cap this sweep will run under.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job and returns all results — the single entry point.
    /// Progress goes to the builder-configured observer (silent without
    /// one); the job body is the builder-configured runner, defaulting to
    /// simulate + analyse.
    #[must_use]
    pub fn run(&self) -> SweepReport {
        let observer = self.observer.unwrap_or(&SilentObserver);
        match self.runner {
            Some(runner) => self.run_inner(observer, runner),
            None => self.run_inner(observer, &|job| {
                run_experiment(&job.spec, &job.protocol, &job.workload)
            }),
        }
    }

    /// The engine underneath [`Sweep::run`]: the bounded pool, per-job
    /// panic isolation and progress reporting.
    fn run_inner(&self, observer: &dyn SweepObserver, runner: SweepRunner<'_>) -> SweepReport {
        let started = Instant::now();
        let results = run_indexed(&self.jobs, self.workers, |index, job| {
            observer.job_started(index, &job.label);
            let job_started = Instant::now();
            // A panicking job must not take the batch down: catch the
            // unwind and turn it into data. The runner borrows only `job`
            // (plus `Sync` state such as the analysis memo), so observing
            // a half-completed mutation through the unwind is not a
            // concern — nothing outside the job survives the panic.
            let outcome = match catch_unwind(AssertUnwindSafe(|| runner(job))) {
                Ok(Ok(outcome)) => Ok(outcome),
                Ok(Err(error)) => Err(JobError::Failed(error)),
                Err(payload) => Err(JobError::Panicked(panic_message(payload.as_ref()))),
            };
            let wall_time = job_started.elapsed();
            let progress = JobProgress {
                cycles: outcome.as_ref().map_or(0, |o| o.stats.cycles.get()),
                bus_utilisation: outcome.as_ref().map_or(0.0, |o| o.stats.bus_utilisation()),
                wall_time,
                ok: outcome.is_ok(),
            };
            observer.job_finished(index, &job.label, &progress);
            JobResult {
                label: job.label.clone(),
                protocol: job.protocol.kind(),
                workload: job.workload.name().to_string(),
                outcome,
                wall_time,
            }
        });
        SweepReport {
            results,
            wall_time: started.elapsed(),
            workers: self.workers.min(self.jobs.len().max(1)),
        }
    }
}

/// Everything a sweep produced: one [`JobResult`] per job, input order.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-job results, in the order the jobs were added to the builder.
    pub results: Vec<JobResult>,
    /// Wall-clock duration of the whole batch.
    pub wall_time: Duration,
    /// Number of worker threads the batch ran on.
    pub workers: usize,
}

impl SweepReport {
    /// Iterates over the successful outcomes, in job order.
    pub fn outcomes(&self) -> impl Iterator<Item = &ExperimentOutcome> {
        self.results.iter().filter_map(JobResult::outcome)
    }

    /// Iterates over the failed jobs as `(label, error)`, in job order.
    pub fn errors(&self) -> impl Iterator<Item = (&str, &JobError)> {
        self.results.iter().filter_map(|r| r.outcome.as_ref().err().map(|e| (r.label.as_str(), e)))
    }

    /// Number of jobs that produced an outcome.
    #[must_use]
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|r| r.outcome.is_ok()).count()
    }

    /// Number of jobs that failed or panicked.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.results.len() - self.ok_count()
    }

    /// Collapses the report into the legacy all-or-first-error shape:
    /// every outcome in job order, or the first failure.
    ///
    /// # Errors
    ///
    /// Returns the first job's error ([`Error::JobPanicked`] for panics).
    pub fn into_outcomes(self) -> Result<Vec<ExperimentOutcome>> {
        self.results.into_iter().map(|r| r.outcome.map_err(Error::from)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    use cohort_sim::SimStats;
    use cohort_trace::micro;
    use cohort_types::{Criticality, TimerValue};

    fn spec(n: usize) -> SystemSpec {
        let mut b = SystemSpec::builder();
        for _ in 0..n {
            b = b.core(Criticality::new(1).unwrap());
        }
        b.build().unwrap()
    }

    fn tiny_jobs(n: usize) -> Vec<ExperimentJob> {
        let s = spec(2);
        let w = Arc::new(micro::ping_pong(2, 4));
        (0..n)
            .map(|i| {
                ExperimentJob::new(s.clone(), Protocol::Msi, Arc::clone(&w))
                    .with_label(format!("job-{i}"))
            })
            .collect()
    }

    fn dummy_outcome(job: &ExperimentJob) -> ExperimentOutcome {
        ExperimentOutcome {
            protocol: job.protocol.kind(),
            workload: job.workload.name().to_string(),
            stats: SimStats::default(),
            bounds: None,
            metrics: None,
        }
    }

    #[test]
    fn default_labels_and_overrides() {
        let job = ExperimentJob::new(spec(2), Protocol::Pcc, micro::ping_pong(2, 4));
        assert_eq!(job.label, "pcc/ping-pong");
        let relabeled = job.with_label("fig6/pcc");
        assert_eq!(relabeled.label, "fig6/pcc");
    }

    #[test]
    fn a_panicking_job_is_isolated_and_reported() {
        let runner = |job: &ExperimentJob| {
            assert!(job.label != "job-2", "poisoned job");
            Ok(dummy_outcome(job))
        };
        let sweep = Sweep::builder().jobs(tiny_jobs(5)).workers(2).runner(&runner).build();
        let report = sweep.run();
        assert_eq!(report.results.len(), 5, "siblings of the panicking job complete");
        assert_eq!(report.ok_count(), 4);
        assert_eq!(report.error_count(), 1);
        let (label, error) = report.errors().next().unwrap();
        assert_eq!(label, "job-2");
        assert_eq!(*error, JobError::Panicked("poisoned job".to_string()));
        assert!(error.to_string().contains("poisoned job"));
        // The legacy collapse surfaces the panic as a structured Error.
        let collapsed = report.into_outcomes();
        assert_eq!(collapsed, Err(Error::JobPanicked("poisoned job".to_string())));
    }

    #[test]
    fn a_panicking_job_does_not_poison_the_analysis_memo() {
        // Jobs share the process-wide analysis memo; a job that panics
        // after touching it must not corrupt or disable it for the clean
        // siblings and for later sweeps (satellite of the fault-injection
        // PR: `JobError` outcomes never leave partial state behind).
        use cohort_analysis::{analysis_cache, guaranteed_hits};
        use cohort_sim::CacheGeometry;
        use cohort_types::Cycles;

        let trace = micro::ping_pong(2, 16).traces()[0].clone();
        let l1 = CacheGeometry::paper_l1();
        let (hit, penalty) = (Cycles::new(1), Cycles::new(216));
        let expected = guaranteed_hits(&trace, TimerValue::timed(64).unwrap(), &l1, hit, penalty);

        let runner = |job: &ExperimentJob| {
            let memoized = analysis_cache().guaranteed_hits(
                &trace,
                TimerValue::timed(64).unwrap(),
                &l1,
                hit,
                penalty,
            );
            assert_eq!(memoized, expected, "the shared memo must stay exact");
            assert!(job.label != "job-1", "fault injected into job-1");
            Ok(dummy_outcome(job))
        };
        let sweep = Sweep::builder().jobs(tiny_jobs(6)).workers(3).runner(&runner).build();
        let report = sweep.run();
        assert_eq!(report.ok_count(), 5);
        assert!(matches!(report.results[1].outcome, Err(JobError::Panicked(_))));

        // Later clean runs still go through the memo and match the cold
        // analysis bit-for-bit.
        let after = analysis_cache().guaranteed_hits(
            &trace,
            TimerValue::timed(64).unwrap(),
            &l1,
            hit,
            penalty,
        );
        assert_eq!(after, expected);
    }

    #[test]
    fn failed_jobs_carry_their_error() {
        // A CoHoRT job with the wrong timer-vector length fails cleanly.
        let s = spec(2);
        let w = micro::ping_pong(2, 4);
        let bad = ExperimentJob::new(
            s.clone(),
            Protocol::Cohort { timers: vec![TimerValue::MSI] },
            w.clone(),
        );
        let good = ExperimentJob::new(s, Protocol::Msi, w);
        let report = Sweep::builder().jobs([bad, good]).build().run();
        assert!(matches!(
            report.results[0].outcome,
            Err(JobError::Failed(Error::InvalidConfig(_)))
        ));
        assert!(report.results[1].outcome.is_ok());
        assert_eq!(report.ok_count(), 1);
    }

    #[test]
    fn results_are_deterministic_and_input_ordered() {
        let sweep = Sweep::builder().jobs(tiny_jobs(24)).workers(4).build();
        let a = sweep.run();
        let b = sweep.run();
        for (i, (ra, rb)) in a.results.iter().zip(&b.results).enumerate() {
            assert_eq!(ra.label, format!("job-{i}"), "input order survives the pool");
            assert_eq!(ra.protocol, ProtocolKind::Msi);
            let (oa, ob) = (ra.outcome().unwrap(), rb.outcome().unwrap());
            assert_eq!(oa.stats, ob.stats, "job {i} must not depend on scheduling");
        }
    }

    #[test]
    fn worker_threads_never_exceed_available_parallelism() {
        struct ThreadRecorder<'a>(&'a Mutex<HashSet<std::thread::ThreadId>>);
        impl SweepObserver for ThreadRecorder<'_> {
            fn job_started(&self, _index: usize, _label: &str) {
                self.0.lock().unwrap().insert(std::thread::current().id());
            }
        }
        let limit = default_workers();
        let threads = Mutex::new(HashSet::new());
        let recorder = ThreadRecorder(&threads);
        let runner = |job: &ExperimentJob| {
            std::thread::sleep(Duration::from_millis(1));
            Ok(dummy_outcome(job))
        };
        let sweep =
            Sweep::builder().jobs(tiny_jobs(24)).observer(&recorder).runner(&runner).build();
        let report = sweep.run();
        let distinct = threads.lock().unwrap().len();
        assert!(
            distinct <= limit,
            "24 jobs ran on {distinct} threads, available parallelism is {limit}"
        );
        assert!(report.workers <= limit);
        assert_eq!(report.ok_count(), 24);
    }

    #[test]
    fn observer_sees_every_job_with_progress() {
        struct Recorder<'a>(&'a Mutex<Vec<(usize, String, bool)>>);
        impl SweepObserver for Recorder<'_> {
            fn job_finished(&self, index: usize, label: &str, progress: &JobProgress) {
                self.0.lock().unwrap().push((index, label.to_string(), progress.ok));
                assert!(progress.ok == (progress.cycles > 0));
            }
        }
        let events = Mutex::new(Vec::new());
        let recorder = Recorder(&events);
        let sweep = Sweep::builder().jobs(tiny_jobs(6)).workers(2).observer(&recorder).build();
        let report = sweep.run();
        let mut seen = events.into_inner().unwrap();
        seen.sort_by_key(|(i, _, _)| *i);
        assert_eq!(seen.len(), 6);
        for (i, (index, label, ok)) in seen.into_iter().enumerate() {
            assert_eq!(index, i);
            assert_eq!(label, format!("job-{i}"));
            assert!(ok);
        }
        assert!(report.wall_time >= report.results.iter().map(|r| r.wall_time).max().unwrap());
    }

    #[test]
    fn empty_sweep_reports_nothing() {
        let report = Sweep::builder().build().run();
        assert!(report.results.is_empty());
        assert_eq!(report.error_count(), 0);
        assert_eq!(report.into_outcomes().unwrap(), Vec::<ExperimentOutcome>::new());
    }
}
