//! Worker shards: claim jobs, execute them deterministically, persist the
//! payload, complete the claim.
//!
//! Execution is wrapped in `catch_unwind`, so a job that panics — or a
//! chaos hook that simulates a worker killed mid-job — simply abandons
//! the claim: the lease expires, the queue re-queues the job at the next
//! epoch, and a sibling shard recomputes the bit-identical payload.
//! GA jobs additionally stream checkpoints into the store, so a re-claim
//! resumes mid-run instead of restarting from generation 0 (the resume is
//! bit-identical to the uninterrupted run, per `cohort-optim`'s
//! checkpoint contract).

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde_json::{json, Value};

use cohort_types::Fingerprint;

use cohort::{ExperimentJob, ExperimentOutcome, Sweep};
use cohort_optim::{
    GaCheckpoint, GaConfig, GaObserver, GaOutcome, GaRun, GenerationReport, GeneticAlgorithm,
    TimerProblem,
};
use cohort_types::{Cycles, Error, Result};

use crate::queue::{Claim, JobQueue};
use crate::spec::{timers_to_json, JobSpec};
use crate::store::ResultStore;

pub use cohort_types::WorkerId;

/// How often (in generations) GA jobs snapshot a resume point into the
/// store.
const CHECKPOINT_EVERY: usize = 4;

/// Per-shard execution counters.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Jobs this shard executed and completed.
    pub executed: AtomicU64,
    /// Claims answered from the store without executing (a previous epoch
    /// or fleet run had already computed the payload).
    pub served: AtomicU64,
    /// Completions rejected because the shard's lease had expired.
    pub stale: AtomicU64,
    /// GA claims that resumed from a store checkpoint.
    pub resumed: AtomicU64,
    /// Jobs abandoned by the `crash_before_complete` chaos hook.
    pub crashed: AtomicU64,
}

/// One worker shard of the fleet: a claim/execute/complete loop over the
/// shared queue and store.
#[derive(Debug)]
pub struct WorkerShard {
    id: WorkerId,
    queue: Arc<JobQueue>,
    store: Arc<ResultStore>,
    stats: Arc<ShardStats>,
    crash_after_generations: Option<usize>,
    crash_before_complete: u64,
    poison: Arc<BTreeSet<Fingerprint>>,
}

impl WorkerShard {
    /// Creates a shard over the fleet's shared queue and store.
    #[must_use]
    pub fn new(id: WorkerId, queue: Arc<JobQueue>, store: Arc<ResultStore>) -> Self {
        WorkerShard {
            id,
            queue,
            store,
            stats: Arc::new(ShardStats::default()),
            crash_after_generations: None,
            crash_before_complete: 0,
            poison: Arc::new(BTreeSet::new()),
        }
    }

    /// Chaos hook: jobs in this set panic on every execution attempt, on
    /// every shard — the poison-job model. No worker can ever complete
    /// them, so their leases keep expiring until the queue's attempt
    /// budget quarantines them.
    #[must_use]
    pub(crate) fn poison_jobs(mut self, poison: Arc<BTreeSet<Fingerprint>>) -> Self {
        self.poison = poison;
        self
    }

    /// Chaos hook: panic (simulating a kill) after a GA job's `n`-th
    /// generation — *after* the generation's checkpoint was written, so
    /// the re-claimer has a resume point. Used by the kill-recovery tests
    /// and bench.
    #[must_use]
    pub fn crash_after_generations(mut self, n: usize) -> Self {
        self.crash_after_generations = Some(n);
        self
    }

    /// Chaos hook: the first `n` jobs this shard executes are abandoned
    /// right before `complete` — the work is done and stored, but the
    /// claim is never released, exactly like a worker killed at the worst
    /// moment.
    #[must_use]
    pub fn crash_before_complete(mut self, n: u64) -> Self {
        self.crash_before_complete = n;
        self
    }

    /// This shard's counters (shared; survives [`WorkerShard::run`]).
    #[must_use]
    pub fn stats(&self) -> Arc<ShardStats> {
        Arc::clone(&self.stats)
    }

    /// The claim/execute/complete loop; returns when the queue is closed
    /// and drained.
    pub fn run(&self) {
        while let Some(claim) = self.queue.claim(self.id) {
            // A store hit means an earlier epoch (or a previous fleet run
            // sharing the persistent store) already computed this payload:
            // complete without re-executing. A *corrupt* hit is moved to
            // its forensic sidecar and the claim falls through to
            // execution — the self-healing repair path.
            match self.store.get(claim.fingerprint) {
                Ok(Some(_)) => {
                    self.finish(&claim, &self.stats.served);
                    continue;
                }
                Ok(None) => {}
                Err(_corrupt) => {
                    // The put below re-derives the payload; the store
                    // remembers the quarantine and verifies the repair's
                    // bit-identity itself.
                    self.store.quarantine_corrupt(claim.fingerprint);
                }
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| self.execute(&claim)));
            match outcome {
                Ok(payload) => {
                    if self.store.put(claim.fingerprint, payload).is_err() {
                        // Persistence failed; abandon so a sibling retries.
                        continue;
                    }
                    if self.stats.crashed.load(Ordering::Relaxed) < self.crash_before_complete {
                        self.stats.crashed.fetch_add(1, Ordering::Relaxed);
                        continue; // killed between store and complete
                    }
                    self.finish(&claim, &self.stats.executed);
                }
                Err(_panic) => {
                    // Killed (or genuinely panicked) mid-job: abandon the
                    // claim; the lease expires and the job is re-claimed.
                }
            }
        }
    }

    fn finish(&self, claim: &Claim, counter: &AtomicU64) {
        match self.queue.complete(claim.fingerprint, claim.epoch) {
            Ok(()) => {
                self.store.clear_checkpoint(claim.fingerprint);
                counter.fetch_add(1, Ordering::Relaxed);
            }
            Err(Error::LeaseExpired { .. }) => {
                // Our lease ran out while we computed; the re-claimer owns
                // the job now. Determinism makes the loss cosmetic: the
                // payload we stored is the payload they will store.
                self.stats.stale.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {}
        }
    }

    /// Executes one claim to its payload. Job failures are *results* (an
    /// `{"error": ...}` payload), not retries: a deterministic job that
    /// failed once will fail identically forever.
    fn execute(&self, claim: &Claim) -> Value {
        assert!(
            !self.poison.contains(&claim.fingerprint),
            "chaos: poison job {} crashed worker {:?}",
            claim.fingerprint,
            self.id
        );
        let result = match claim.spec.as_ref() {
            JobSpec::Experiment { spec, protocol, workload } => {
                execute_experiment(spec, protocol, workload)
            }
            JobSpec::Optimize { workload, timed, ga } => {
                self.execute_ga(claim, workload, timed, ga)
            }
            JobSpec::Certify { batch } => batch.run(),
        };
        result.unwrap_or_else(|e| json!({ "error": e.to_string() }))
    }

    fn execute_ga(
        &self,
        claim: &Claim,
        workload: &cohort_trace::Workload,
        timed: &[(usize, Option<u64>)],
        ga: &GaConfig,
    ) -> Result<Value> {
        let mut builder = TimerProblem::builder(workload);
        for &(core, requirement) in timed {
            builder = builder.timed(core, requirement.map(Cycles::new));
        }
        let problem = builder.build()?;
        let sink = CheckpointSink {
            store: self.store.as_ref(),
            key: claim,
            crash_after: self.crash_after_generations,
        };
        let outcome = match self.store.checkpoint(claim.fingerprint) {
            Some(doc) => {
                // A previous epoch died mid-run; resume from its snapshot
                // (bit-identical to the uninterrupted run).
                self.stats.resumed.fetch_add(1, Ordering::Relaxed);
                let checkpoint = GaCheckpoint::from_json_value(&doc)?;
                GeneticAlgorithm::new(problem.search_space(), ga.clone()).resume_observed(
                    &checkpoint,
                    &sink,
                    |genes| problem.fitness(genes),
                )?
            }
            None => GaRun::new(&problem).config(ga).observer(&sink).run(),
        };
        Ok(ga_payload(&problem, &outcome))
    }
}

/// Streams GA checkpoints into the store so lease re-claims resume
/// mid-run. Doubles as the kill-site of the chaos hook: the panic fires
/// *after* the checkpoint write, mimicking a worker killed between two
/// generations.
struct CheckpointSink<'a> {
    store: &'a ResultStore,
    key: &'a Claim,
    crash_after: Option<usize>,
}

impl GaObserver for CheckpointSink<'_> {
    fn generation_finished(&self, report: &GenerationReport<'_>) {
        if report.generation.is_multiple_of(CHECKPOINT_EVERY) {
            self.store.put_checkpoint(self.key.fingerprint, report.checkpoint().to_json_value());
        }
        assert!(
            self.crash_after != Some(report.generation),
            "chaos: worker killed after generation {}",
            report.generation
        );
    }
}

/// Runs one experiment job through the sweep engine's single entry point
/// (pool of 1 — the fleet's parallelism lives across shards, not inside a
/// job) and serializes its outcome.
///
/// # Errors
///
/// Propagates the simulation's own error (e.g. an invalid spec or a
/// detected deadlock) — deterministic, so the fleet stores it as an
/// error payload rather than retrying.
pub fn execute_experiment(
    spec: &cohort::SystemSpec,
    protocol: &cohort::Protocol,
    workload: &Arc<cohort_trace::Workload>,
) -> Result<Value> {
    let report = Sweep::builder()
        .job(ExperimentJob::new(spec.clone(), protocol.clone(), Arc::clone(workload)))
        .workers(1)
        .build()
        .run();
    let outcome = report.into_outcomes()?.pop().expect("one job yields one outcome");
    Ok(outcome_payload(&outcome))
}

/// Canonical JSON payload of an experiment outcome — the stored,
/// fingerprinted representation whose bit-identity the kill-recovery
/// guarantees are stated over.
#[must_use]
pub(crate) fn outcome_payload(outcome: &ExperimentOutcome) -> Value {
    let cores: Vec<Value> = outcome
        .stats
        .cores
        .iter()
        .map(|c| {
            json!({
                "hits": c.hits,
                "misses": c.misses,
                "upgrades": c.upgrades,
                "total_latency": c.total_latency.get(),
                "worst_request": c.worst_request.get(),
                "finish": c.finish.get(),
            })
        })
        .collect();
    let bounds: Value = match &outcome.bounds {
        None => Value::Null,
        Some(bounds) => Value::Array(
            bounds
                .iter()
                .map(|b| {
                    json!({
                        "hits": b.hits,
                        "misses": b.misses,
                        "wcl": b.wcl.map(Cycles::get),
                        "wcml": b.wcml.map(Cycles::get),
                    })
                })
                .collect(),
        ),
    };
    json!({
        "kind": "experiment",
        "protocol": outcome.protocol.slug(),
        "workload": outcome.workload.clone(),
        "execution_time": outcome.stats.execution_time().get(),
        "cycles": outcome.stats.cycles.get(),
        "bus_busy": outcome.stats.bus_busy.get(),
        "broadcasts": outcome.stats.broadcasts,
        "transfers": outcome.stats.transfers,
        "cores": cores,
        "bounds": bounds,
    })
}

/// Canonical JSON payload of a GA outcome.
#[must_use]
pub fn ga_payload(problem: &TimerProblem<'_>, outcome: &GaOutcome) -> Value {
    let best_fitness =
        if outcome.best_fitness.is_finite() { json!(outcome.best_fitness) } else { json!("inf") };
    json!({
        "kind": "optimize",
        "best": outcome.best.clone(),
        "best_fitness": best_fitness,
        "timers": timers_to_json(&problem.timers_from_genes(&outcome.best)),
        "generations": outcome.history.len(),
        "evaluations": outcome.evaluations,
        "cache_hits": outcome.cache_hits,
        "stop": format!("{:?}", outcome.stop),
    })
}
