//! The fleet front-end: spin up shards, absorb bursts of submissions,
//! hand out dedup-aware tickets — and keep callers safe from the fleet's
//! own failures: a quarantined job is a typed error (never a hang), a
//! corrupt store entry is transparently repaired by resubmission, and
//! every wait can be bounded.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use serde_json::Value;

use cohort_types::{Error, Fingerprint, Result, WorkerId};

use crate::disk::Disk;
use crate::queue::{JobQueue, QuarantineDiag, QueueStats, WaitOutcome};
use crate::spec::JobSpec;
use crate::store::{ResultStore, StoreBudget, StoreHealth};
use crate::worker::{ShardStats, WorkerShard};

/// A corrupt entry is repaired by resubmission at most this many times
/// per wait before the corruption is surfaced to the caller.
const MAX_REPAIRS_PER_WAIT: u64 = 2;

/// Builder for a [`Fleet`].
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    shards: usize,
    lease: Duration,
    store_dir: Option<PathBuf>,
    max_attempts: Option<u64>,
    disk: Option<Arc<dyn Disk>>,
    budget: StoreBudget,
    poison: BTreeSet<Fingerprint>,
    crash_before_complete: u64,
    crash_after_generations: Option<usize>,
}

impl Default for FleetBuilder {
    fn default() -> Self {
        FleetBuilder {
            shards: 2,
            lease: Duration::from_secs(30),
            store_dir: None,
            max_attempts: None,
            disk: None,
            budget: StoreBudget::default(),
            poison: BTreeSet::new(),
            crash_before_complete: 0,
            crash_after_generations: None,
        }
    }
}

impl FleetBuilder {
    /// Number of worker shards (clamped to at least 1; default 2).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// The claim lease duration (default 30 s). Short leases recover
    /// faster from killed workers but must comfortably exceed the longest
    /// job, or healthy slow jobs get spuriously re-claimed (harmless —
    /// determinism — but wasteful).
    #[must_use]
    pub fn lease(mut self, lease: Duration) -> Self {
        self.lease = lease;
        self
    }

    /// Mirrors the result store into `dir`, sharing the memo across fleet
    /// runs (and across fleets pointing at the same directory).
    #[must_use]
    pub fn store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// The attempt budget: a job whose lease expires this many times is
    /// quarantined with diagnostics instead of re-claimed forever
    /// (default 5, clamped to at least 1).
    #[must_use]
    pub fn max_attempts(mut self, max_attempts: u64) -> Self {
        self.max_attempts = Some(max_attempts);
        self
    }

    /// Injects the [`Disk`] behind the persistent mirror (default: the
    /// real filesystem). Chaos campaigns inject a
    /// [`crate::disk::FaultyDisk`] here.
    #[must_use]
    pub fn disk(mut self, disk: Arc<dyn Disk>) -> Self {
        self.disk = Some(disk);
        self
    }

    /// Bounds the persistent mirror; overflow evicts unpinned entries
    /// oldest-first (default: unbounded).
    #[must_use]
    pub fn store_budget(mut self, budget: StoreBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Chaos hook: marks a job fingerprint as poison — every execution
    /// attempt panics its worker, on every shard, until the queue's
    /// attempt budget quarantines the job.
    #[must_use]
    pub fn poison(mut self, fingerprint: Fingerprint) -> Self {
        self.poison.insert(fingerprint);
        self
    }

    /// Chaos hook (shard 0 only): the first `n` executed jobs are
    /// abandoned right before `complete` — a worker killed at the worst
    /// moment. See [`WorkerShard::crash_before_complete`].
    #[must_use]
    pub fn crash_before_complete(mut self, n: u64) -> Self {
        self.crash_before_complete = n;
        self
    }

    /// Chaos hook (shard 0 only): panic after a GA job's `n`-th
    /// generation. See [`WorkerShard::crash_after_generations`].
    #[must_use]
    pub fn crash_after_generations(mut self, n: usize) -> Self {
        self.crash_after_generations = Some(n);
        self
    }

    /// Starts the shards and returns the running fleet.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] if the persistent store directory cannot
    /// be created.
    pub fn build(self) -> Result<Fleet> {
        let store = Arc::new(match &self.store_dir {
            Some(dir) => {
                let disk =
                    self.disk.clone().unwrap_or_else(|| Arc::new(crate::disk::SystemDisk::new()));
                ResultStore::persistent_with(dir, disk, self.budget)?
            }
            None => ResultStore::in_memory(),
        });
        let mut queue = JobQueue::new(self.lease);
        if let Some(max_attempts) = self.max_attempts {
            queue.set_max_attempts(max_attempts);
        }
        let queue = Arc::new(queue);
        let poison = Arc::new(self.poison);
        let mut handles = Vec::with_capacity(self.shards);
        let mut shard_stats = Vec::with_capacity(self.shards);
        for i in 0..self.shards {
            let mut shard =
                WorkerShard::new(WorkerId::new(i as u64), Arc::clone(&queue), Arc::clone(&store))
                    .poison_jobs(Arc::clone(&poison));
            if i == 0 {
                shard = shard.crash_before_complete(self.crash_before_complete);
                if let Some(generation) = self.crash_after_generations {
                    shard = shard.crash_after_generations(generation);
                }
            }
            shard_stats.push(shard.stats());
            handles.push(std::thread::spawn(move || shard.run()));
        }
        Ok(Fleet { queue, store, handles, shard_stats })
    }
}

/// A running fleet: worker shards over a shared queue and store.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use cohort::{Protocol, SystemSpec};
/// use cohort_fleet::{Fleet, JobSpec};
/// use cohort_trace::micro;
/// use cohort_types::Criticality;
///
/// let fleet = Fleet::builder().shards(2).build()?;
/// let client = fleet.client();
/// let spec = SystemSpec::builder().core(Criticality::new(1)?).core(Criticality::new(1)?).build()?;
/// let job = JobSpec::Experiment {
///     spec,
///     protocol: Protocol::Msi,
///     workload: Arc::new(micro::ping_pong(2, 8)),
/// };
/// // A burst of duplicate submissions shares one execution.
/// let tickets: Vec<_> = (0..4).map(|_| client.submit(job.clone())).collect::<Result<_, _>>()?;
/// for t in &tickets {
///     assert!(client.wait(t)?.get("cycles").is_some());
/// }
/// let stats = fleet.shutdown();
/// assert_eq!(stats.queue.deduplicated, 3);
/// assert_eq!(stats.executed, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Fleet {
    queue: Arc<JobQueue>,
    store: Arc<ResultStore>,
    handles: Vec<JoinHandle<()>>,
    shard_stats: Vec<Arc<ShardStats>>,
}

/// The fleet's self-healing scoreboard: every fault the supervision layer
/// tolerated, and what it did about it. Embedded in [`FleetStats`] and in
/// the fleet/cert bench reports (validated by their report checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetHealth {
    /// Expired leases swept back to pending (killed/slow workers).
    pub reclaims: u64,
    /// Jobs convicted as poison after exhausting the attempt budget.
    pub quarantined: u64,
    /// Late completions rejected at a stale epoch.
    pub stale_completions: u64,
    /// Corrupt store entries moved to `.corrupt` forensic sidecars.
    pub corrupt_quarantined: u64,
    /// Corrupt entries repaired by re-deriving their payload.
    pub repairs: u64,
    /// Repairs verified bit-identical against the sidecar's recorded
    /// fingerprint.
    pub repairs_bit_identical: u64,
    /// Mirror entries evicted to hold the [`StoreBudget`].
    pub evictions: u64,
    /// Transient mirror-write failures absorbed by backoff.
    pub disk_retries: u64,
    /// Mirror writes abandoned after the full retry budget.
    pub disk_give_ups: u64,
}

impl FleetHealth {
    fn collect(queue: &QueueStats, store: StoreHealth) -> Self {
        FleetHealth {
            reclaims: queue.reclaims,
            quarantined: queue.quarantined,
            stale_completions: queue.stale_completions,
            corrupt_quarantined: store.corrupt_quarantined,
            repairs: store.repairs,
            repairs_bit_identical: store.repairs_bit_identical,
            evictions: store.evictions,
            disk_retries: store.disk_retries,
            disk_give_ups: store.disk_give_ups,
        }
    }

    /// The scoreboard as a JSON object — the shape embedded in the
    /// fleet/cert bench reports and validated by their report checks.
    #[must_use]
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "reclaims": self.reclaims,
            "quarantined": self.quarantined,
            "stale_completions": self.stale_completions,
            "corrupt_quarantined": self.corrupt_quarantined,
            "repairs": self.repairs,
            "repairs_bit_identical": self.repairs_bit_identical,
            "evictions": self.evictions,
            "disk_retries": self.disk_retries,
            "disk_give_ups": self.disk_give_ups,
        })
    }
}

/// Aggregate counters of a fleet's lifetime, returned by
/// [`Fleet::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Queue-side counters (submissions, dedup, lease reclaims).
    pub queue: QueueStats,
    /// Jobs executed and completed across all shards.
    pub executed: u64,
    /// Claims answered from the store without executing, across all
    /// shards.
    pub served: u64,
    /// Completions discarded as stale across all shards.
    pub stale: u64,
    /// GA claims resumed from a checkpoint across all shards.
    pub resumed: u64,
    /// Jobs abandoned by the `crash_before_complete` chaos hook across
    /// all shards.
    pub crashed: u64,
    /// Store reads answered (memory or persistent mirror).
    pub store_hits: u64,
    /// The self-healing scoreboard.
    pub health: FleetHealth,
}

impl Fleet {
    /// Starts configuring a fleet.
    #[must_use]
    pub fn builder() -> FleetBuilder {
        FleetBuilder::default()
    }

    /// A cheap handle for submitting jobs — clone one per submitting
    /// thread.
    #[must_use]
    pub fn client(&self) -> FleetClient {
        FleetClient { queue: Arc::clone(&self.queue), store: Arc::clone(&self.store) }
    }

    /// The shared result store (e.g. to pre-warm or inspect it).
    #[must_use]
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Live counter snapshot without shutting down.
    #[must_use]
    pub fn stats(&self) -> FleetStats {
        let queue = self.queue.stats();
        let mut stats = FleetStats {
            queue,
            store_hits: self.store.hits(),
            health: FleetHealth::collect(&queue, self.store.health()),
            ..FleetStats::default()
        };
        for shard in &self.shard_stats {
            stats.executed += shard.executed.load(Ordering::Relaxed);
            stats.served += shard.served.load(Ordering::Relaxed);
            stats.stale += shard.stale.load(Ordering::Relaxed);
            stats.resumed += shard.resumed.load(Ordering::Relaxed);
            stats.crashed += shard.crashed.load(Ordering::Relaxed);
        }
        stats
    }

    /// The self-healing scoreboard right now.
    #[must_use]
    pub fn health(&self) -> FleetHealth {
        FleetHealth::collect(&self.queue.stats(), self.store.health())
    }

    /// Every quarantine so far, with its fatal-claim diagnostics, in
    /// fingerprint order (deterministic).
    #[must_use]
    pub fn quarantines(&self) -> Vec<QuarantineDiag> {
        self.queue.quarantines()
    }

    /// Closes the queue, drains the remaining jobs, joins the shards and
    /// returns the lifetime counters.
    #[must_use]
    pub fn shutdown(mut self) -> FleetStats {
        self.queue.close();
        for handle in std::mem::take(&mut self.handles) {
            // A shard that panicked outside its job sandbox is already
            // accounted for by lease reclaim; ignore the join error.
            let _ = handle.join();
        }
        self.stats()
    }
}

/// A submission ticket: the job's content-address plus whether the
/// submission was answered without queueing (a store hit from a previous
/// run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    /// The job's fingerprint — also its result-store key.
    pub fingerprint: Fingerprint,
    /// Whether the persistent store already held the payload at submit
    /// time (no execution at all, not even a deduplicated one).
    pub cached: bool,
}

/// A submitting handle onto a [`Fleet`].
#[derive(Debug, Clone)]
pub struct FleetClient {
    queue: Arc<JobQueue>,
    store: Arc<ResultStore>,
}

impl FleetClient {
    /// Submits a job. Bursts of duplicate specs collapse: the first
    /// submission queues the job, the rest ride the same execution, and a
    /// spec whose payload already sits in the (persistent) store skips
    /// the queue entirely.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the fleet is shut down.
    pub fn submit(&self, spec: JobSpec) -> Result<Ticket> {
        let fingerprint = spec.fingerprint();
        // Resolve against the memo by *reading* it, not just probing for
        // the file: the read pulls the payload into memory and through
        // its integrity check, so neither a later eviction of the disk
        // entry nor bit rot can take an already-resolved job away from
        // this run's waiters.
        match self.store.get(fingerprint) {
            Ok(Some(_)) => {
                // Answered from the memo of a previous run; register the
                // job as already done so `wait` resolves uniformly and no
                // worker ever claims it.
                let (fingerprint, _fresh) = self.queue.submit_resolved(spec)?;
                return Ok(Ticket { fingerprint, cached: true });
            }
            Ok(None) => {}
            Err(_corrupt) => {
                // Bit rot caught at submission: quarantine the forensics
                // and queue the job — the fresh execution's put is the
                // repair, and the store certifies its bit-identity.
                self.store.quarantine_corrupt(fingerprint);
            }
        }
        let (fingerprint, _fresh) = self.queue.submit(spec)?;
        Ok(Ticket { fingerprint, cached: false })
    }

    /// Blocks until the ticket's job completes and returns its payload.
    ///
    /// Self-healing: a corrupt stored payload is quarantined to its
    /// forensic sidecar and transparently re-derived by resubmitting the
    /// job (determinism makes the repair bit-identical, which is asserted
    /// against the sidecar whenever it is still parseable). A payload
    /// missing from a budget-bounded store (evicted between runs) is
    /// likewise recomputed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::JobQuarantined`] if the job exhausted its attempt
    /// budget, [`Error::StoreCorrupt`] if repeated repairs keep producing
    /// corruption, [`Error::InvalidConfig`] if the fleet shut down
    /// without the job ever being submitted.
    pub fn wait(&self, ticket: &Ticket) -> Result<Value> {
        self.wait_deadline(ticket, None)
    }

    /// [`FleetClient::wait`], but bounded: a quarantined, stuck or
    /// never-scheduled job can delay the caller at most `timeout`
    /// (measured on the queue's injected clock) per wait round.
    ///
    /// # Errors
    ///
    /// As [`FleetClient::wait`], plus [`Error::WaitTimedOut`] when the
    /// bound elapses first.
    pub fn wait_timeout(&self, ticket: &Ticket, timeout: Duration) -> Result<Value> {
        self.wait_deadline(ticket, Some(timeout))
    }

    fn wait_deadline(&self, ticket: &Ticket, timeout: Option<Duration>) -> Result<Value> {
        let mut repairs = 0u64;
        loop {
            match self.queue.wait_outcome(ticket.fingerprint, timeout) {
                WaitOutcome::Done => {}
                WaitOutcome::Quarantined(diag) => {
                    return Err(Error::JobQuarantined {
                        key: diag.fingerprint.to_hex(),
                        attempts: diag.attempts,
                        worker: diag.worker.get(),
                        epoch: diag.epoch.get(),
                        deadline_ns: diag.deadline_ns,
                    });
                }
                WaitOutcome::Shutdown => {
                    return Err(Error::InvalidConfig(format!(
                        "fleet shut down before job {} completed",
                        ticket.fingerprint
                    )));
                }
                WaitOutcome::TimedOut => {
                    return Err(Error::WaitTimedOut {
                        key: ticket.fingerprint.to_hex(),
                        waited_ms: timeout
                            .map_or(0, |t| u64::try_from(t.as_millis()).unwrap_or(u64::MAX)),
                    });
                }
            }
            match self.store.get(ticket.fingerprint) {
                Ok(Some(payload)) => return Ok(payload),
                Ok(None) => {
                    // Done, but the payload is gone — evicted from a
                    // bounded mirror between runs. Recompute it.
                    if repairs >= MAX_REPAIRS_PER_WAIT {
                        return Err(Error::InvalidConfig(format!(
                            "job {} completed but its payload is missing from the store",
                            ticket.fingerprint
                        )));
                    }
                    repairs += 1;
                    self.queue.requeue(ticket.fingerprint)?;
                }
                Err(corrupt @ Error::StoreCorrupt { .. }) => {
                    // Quarantine the forensics, then re-derive the payload
                    // through the queue — the self-healing repair. The
                    // store verifies the repair's bit-identity when the
                    // re-derived payload lands.
                    if repairs >= MAX_REPAIRS_PER_WAIT {
                        return Err(corrupt);
                    }
                    repairs += 1;
                    self.store.quarantine_corrupt(ticket.fingerprint);
                    self.queue.requeue(ticket.fingerprint)?;
                }
                Err(other) => return Err(other),
            }
        }
    }

    /// Submit-and-wait in one call.
    ///
    /// # Errors
    ///
    /// As [`FleetClient::submit`] and [`FleetClient::wait`].
    pub fn run(&self, spec: JobSpec) -> Result<Value> {
        let ticket = self.submit(spec)?;
        self.wait(&ticket)
    }
}
