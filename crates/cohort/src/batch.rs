//! Owned experiment jobs, and the [`Sweep`] hook that runs a batch of
//! them through a caller-supplied job body.
//!
//! Batches of independent experiments run on the workspace's one
//! fallible pool, [`cohort_types::run_jobs`]: every job runs, a panic
//! becomes [`cohort_types::Error::JobPanicked`], and the results come
//! back in input order or as the first error in input order.
//!
//! [`Sweep`] is a thin shell over that pool for the benchmark's traced
//! paper cell, which injects a timing job body and reads the batch's wall
//! time and worker count. The shell goes when ROADMAP items 2/4 edit the
//! benchmark; new code calls [`cohort_types::run_jobs`] directly.
//!
//! # Examples
//!
//! ```
//! use cohort::{run_experiment, ExperimentJob, Protocol, SystemSpec};
//! use cohort_trace::micro;
//! use cohort_types::{default_workers, run_jobs, Criticality};
//!
//! let spec = SystemSpec::builder()
//!     .core(Criticality::new(2)?)
//!     .core(Criticality::new(1)?)
//!     .build()?;
//! let workload = micro::ping_pong(2, 8);
//! let jobs = [
//!     ExperimentJob::new(spec.clone(), Protocol::Msi, workload.clone()),
//!     ExperimentJob::new(spec, Protocol::Pcc, workload),
//! ];
//! let outcomes = run_jobs(&jobs, default_workers(), |job| {
//!     run_experiment(&job.spec, &job.protocol, &job.workload)
//! })?;
//! assert_eq!(outcomes.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use cohort_trace::Workload;
use cohort_types::{default_workers, run_jobs, Result};

use crate::experiment::{run_experiment, ExperimentOutcome};
use crate::protocol::Protocol;
use crate::SystemSpec;

/// One experiment of a batch, owning everything it needs to run.
///
/// Jobs own their inputs (the workload behind an [`Arc`], so fanning one
/// workload out across many protocol jobs stays cheap), so a batch can
/// outlive the scope that built it and be labelled in reports.
#[derive(Debug, Clone)]
pub struct ExperimentJob {
    /// The platform to simulate and analyse against.
    pub spec: SystemSpec,
    /// The protocol configuration under test.
    pub protocol: Protocol,
    /// The workload, shared rather than cloned across jobs.
    pub workload: Arc<Workload>,
    /// Human-readable job identifier, unique within a batch by convention.
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

/// A job body: what a [`Sweep`] runs for each job.
type Runner<'o> = &'o (dyn Fn(&ExperimentJob) -> Result<ExperimentOutcome> + Sync);

/// A batch of jobs run on [`cohort_types::run_jobs`] with
/// [`cohort_types::default_workers`] threads. Built with
/// [`Sweep::builder`].
pub struct Sweep<'o> {
    jobs: Vec<ExperimentJob>,
    runner: Option<Runner<'o>>,
}

/// Builder for [`Sweep`].
#[derive(Default)]
pub struct SweepBuilder<'o> {
    jobs: Vec<ExperimentJob>,
    runner: Option<Runner<'o>>,
}

impl<'o> SweepBuilder<'o> {
    /// Appends a batch of jobs.
    #[must_use]
    pub fn jobs(mut self, jobs: impl IntoIterator<Item = ExperimentJob>) -> Self {
        self.jobs.extend(jobs);
        self
    }

    /// Replaces the job body (the default simulates and analyses through
    /// [`run_experiment`]).
    #[must_use]
    pub fn runner(mut self, runner: Runner<'o>) -> Self {
        self.runner = Some(runner);
        self
    }

    /// Finalises the sweep.
    #[must_use]
    pub fn build(self) -> Sweep<'o> {
        Sweep { jobs: self.jobs, runner: self.runner }
    }
}

impl<'o> Sweep<'o> {
    /// Starts building a sweep.
    #[must_use]
    pub fn builder() -> SweepBuilder<'o> {
        SweepBuilder::default()
    }

    /// Runs every job and times the batch.
    #[must_use]
    pub fn run(&self) -> SweepReport {
        let started = Instant::now();
        let workers = default_workers();
        let default = |job: &ExperimentJob| run_experiment(&job.spec, &job.protocol, &job.workload);
        let outcomes = run_jobs(&self.jobs, workers, self.runner.unwrap_or(&default));
        SweepReport {
            outcomes,
            wall_time: started.elapsed(),
            workers: workers.min(self.jobs.len().max(1)),
        }
    }
}

/// What a [`Sweep`] produced.
#[derive(Debug, Clone)]
pub struct SweepReport {
    outcomes: Result<Vec<ExperimentOutcome>>,
    /// Wall-clock duration of the whole batch.
    pub wall_time: Duration,
    /// Number of worker threads the batch ran on.
    pub workers: usize,
}

impl SweepReport {
    /// Every outcome in job order, or the first failure.
    ///
    /// # Errors
    ///
    /// Returns the first job's error in job order
    /// ([`cohort_types::Error::JobPanicked`] for panics).
    pub fn into_outcomes(self) -> Result<Vec<ExperimentOutcome>> {
        self.outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use cohort_trace::micro;
    use cohort_types::{Criticality, Error, TimerValue};

    fn spec(n: usize) -> SystemSpec {
        let mut b = SystemSpec::builder();
        for _ in 0..n {
            b = b.core(Criticality::new(1).unwrap());
        }
        b.build().unwrap()
    }

    #[test]
    fn default_labels_and_overrides() {
        let job = ExperimentJob::new(spec(2), Protocol::Pcc, micro::ping_pong(2, 4));
        assert_eq!(job.label, "pcc/ping-pong");
        let relabeled = job.with_label("fig6/pcc");
        assert_eq!(relabeled.label, "fig6/pcc");
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
        let report = Sweep::builder().jobs([good, bad]).build().run();
        assert!(matches!(report.into_outcomes(), Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn results_are_deterministic_and_input_ordered() {
        let s = spec(2);
        let jobs: Vec<ExperimentJob> = (0..12)
            .map(|i| ExperimentJob::new(s.clone(), Protocol::Msi, micro::ping_pong(2, 4 + i)))
            .collect();
        let runner = |job: &ExperimentJob| run_experiment(&job.spec, &job.protocol, &job.workload);
        let sweep = Sweep::builder().jobs(jobs.clone()).runner(&runner).build();
        let report = sweep.run();
        assert_eq!(report.workers, default_workers().min(jobs.len()));
        let outcomes = report.into_outcomes().unwrap();
        assert_eq!(outcomes, sweep.run().into_outcomes().unwrap());
        for (job, outcome) in jobs.iter().zip(&outcomes) {
            assert_eq!(*outcome, run_experiment(&s, &job.protocol, &job.workload).unwrap());
        }
    }

    #[test]
    fn empty_sweep_reports_nothing() {
        let report = Sweep::builder().build().run();
        assert_eq!(report.workers, 1);
        assert_eq!(report.into_outcomes().unwrap(), Vec::<ExperimentOutcome>::new());
    }
}
