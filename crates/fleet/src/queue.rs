//! The fleet job queue: dedup-on-submit, epoch/lease claim coordination
//! and completion tracking.
//!
//! Claims are *leases*, not locks: a worker that claims a job promises to
//! complete it before the lease runs out. A crashed or killed worker
//! simply stops renewing its promise — the next claimer sweeps the
//! expired lease, advances the job's [`Epoch`] and re-claims it. The late
//! completion (if the "dead" worker was merely slow) carries the old
//! epoch and is rejected with [`Error::LeaseExpired`]; determinism makes
//! the rejection lossless, because the re-claimer recomputes the
//! bit-identical result.
//!
//! Time is injected ([`Clock`]): deadlines are nanosecond ticks on
//! whatever monotonic axis the clock provides. Production uses
//! [`SystemClock`]; tests and the loom models drive a
//! [`crate::TestClock`] by hand, so every expiry path is exercised
//! deterministically. The sync primitives come from [`crate::sync`], so
//! `--cfg loom` swaps them for loom's modeled versions.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, PoisonError};
use std::time::Duration;

use cohort_types::{Epoch, Error, Fingerprint, Result, WorkerId};

use crate::clock::{Clock, SystemClock};
use crate::spec::JobSpec;
use crate::sync::{Condvar, Mutex, MutexGuard};

/// Default attempt budget: five expired leases convict a job as poison.
const DEFAULT_MAX_ATTEMPTS: u64 = 5;

/// One claimed job, as handed to a worker shard.
#[derive(Debug, Clone)]
pub struct Claim {
    /// The job's content-address (also its result-store key).
    pub fingerprint: Fingerprint,
    /// What to execute.
    pub spec: Arc<JobSpec>,
    /// The claim generation; [`JobQueue::complete`] validates it.
    pub epoch: Epoch,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Pending,
    Claimed { worker: WorkerId, deadline_ns: u64 },
    Done,
    Quarantined,
}

struct JobState {
    spec: Arc<JobSpec>,
    epoch: Epoch,
    status: Status,
    /// Leases issued so far (across epoch advances) — the attempt budget.
    attempts: u64,
}

/// Why a job was quarantined: the last claim that expired, preserved so
/// the poison can be reproduced (re-run the spec under that worker's
/// conditions) and audited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineDiag {
    /// The quarantined job's content-address.
    pub fingerprint: Fingerprint,
    /// Leases issued before the budget ran out.
    pub attempts: u64,
    /// The worker holding the final, fatal claim.
    pub worker: WorkerId,
    /// The epoch of that final claim.
    pub epoch: Epoch,
    /// The final lease's deadline (clock ticks, ns).
    pub deadline_ns: u64,
}

#[derive(Default)]
struct QueueState {
    jobs: BTreeMap<Fingerprint, JobState>,
    pending: VecDeque<Fingerprint>,
    quarantines: BTreeMap<Fingerprint, QuarantineDiag>,
    closed: bool,
    submitted: u64,
    deduplicated: u64,
    reclaims: u64,
    stale_completions: u64,
}

/// Counters describing what the queue has seen so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Submissions accepted (including duplicates).
    pub submitted: u64,
    /// Submissions answered by an already-known job (dedup-on-submit).
    pub deduplicated: u64,
    /// Expired leases swept and re-queued at a new epoch.
    pub reclaims: u64,
    /// Completions rejected because their lease had expired.
    pub stale_completions: u64,
    /// Jobs moved to the terminal quarantine after exhausting their
    /// attempt budget.
    pub quarantined: u64,
}

/// How a [`JobQueue::wait_outcome`] wait ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The job completed; its payload is in the result store.
    Done,
    /// The job exhausted its attempt budget and will never complete.
    Quarantined(QuarantineDiag),
    /// The queue closed and drained without ever seeing the job.
    Shutdown,
    /// The caller's bound elapsed first.
    TimedOut,
}

/// The shared job queue of one fleet.
pub struct JobQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    lease_ns: u64,
    max_attempts: u64,
    clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock();
        f.debug_struct("JobQueue")
            .field("jobs", &st.jobs.len())
            .field("pending", &st.pending.len())
            .field("lease_ns", &self.lease_ns)
            .finish_non_exhaustive()
    }
}

impl JobQueue {
    /// Creates a queue whose claims lease for `lease` (clamped to at
    /// least one millisecond), timed by the host's monotonic clock.
    #[must_use]
    pub fn new(lease: Duration) -> Self {
        Self::with_clock(lease, Arc::new(SystemClock::new()))
    }

    /// Creates a queue timed by an injected [`Clock`] — the deterministic
    /// entry point for tests and loom models.
    #[must_use]
    pub fn with_clock(lease: Duration, clock: Arc<dyn Clock>) -> Self {
        let lease = lease.max(Duration::from_millis(1));
        JobQueue {
            state: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            lease_ns: u64::try_from(lease.as_nanos()).unwrap_or(u64::MAX),
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            clock,
        }
    }

    /// Sets the attempt budget: a job whose lease expires this many times
    /// is quarantined instead of re-claimed forever (clamped to at least
    /// one attempt). Call before sharing the queue.
    pub fn set_max_attempts(&mut self, max_attempts: u64) {
        self.max_attempts = max_attempts.max(1);
    }

    /// The configured attempt budget.
    #[must_use]
    pub fn max_attempts(&self) -> u64 {
        self.max_attempts
    }

    // Chaos survival: a simulated worker kill is a panic; the queue must
    // keep serving its siblings even if one died near a lock.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured lease duration.
    #[must_use]
    pub fn lease(&self) -> Duration {
        Duration::from_nanos(self.lease_ns)
    }

    /// Submits `spec`, deduplicating on its fingerprint: a job already
    /// queued, running or done absorbs the submission without a second
    /// execution. Returns the fingerprint and whether this submission was
    /// the first of its kind.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the queue is closed.
    pub fn submit(&self, spec: JobSpec) -> Result<(Fingerprint, bool)> {
        let fingerprint = spec.fingerprint();
        let mut st = self.lock();
        if st.closed {
            return Err(Error::InvalidConfig("the fleet is shut down".into()));
        }
        st.submitted += 1;
        if st.jobs.contains_key(&fingerprint) {
            st.deduplicated += 1;
            return Ok((fingerprint, false));
        }
        st.jobs.insert(
            fingerprint,
            JobState {
                spec: Arc::new(spec),
                epoch: Epoch::FIRST,
                status: Status::Pending,
                attempts: 0,
            },
        );
        st.pending.push_back(fingerprint);
        self.cv.notify_all();
        Ok((fingerprint, true))
    }

    /// Submits a spec whose payload the result store already holds: the
    /// job is registered as done immediately and never enqueued, so no
    /// worker can claim it (a duplicate of an existing job is plain
    /// dedup, whatever that job's state).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the queue is closed.
    pub(crate) fn submit_resolved(&self, spec: JobSpec) -> Result<(Fingerprint, bool)> {
        let fingerprint = spec.fingerprint();
        let mut st = self.lock();
        if st.closed {
            return Err(Error::InvalidConfig("the fleet is shut down".into()));
        }
        st.submitted += 1;
        if st.jobs.contains_key(&fingerprint) {
            st.deduplicated += 1;
            return Ok((fingerprint, false));
        }
        st.jobs.insert(
            fingerprint,
            JobState {
                spec: Arc::new(spec),
                epoch: Epoch::FIRST,
                status: Status::Done,
                attempts: 0,
            },
        );
        self.cv.notify_all();
        Ok((fingerprint, true))
    }

    /// Moves every expired lease back to pending at the next epoch — or,
    /// once the attempt budget is spent, to the terminal quarantine with
    /// the fatal claim preserved as diagnostics. `jobs` is a `BTreeMap`,
    /// so the sweep (and therefore the re-queue order of simultaneously
    /// expired leases) is deterministic. The epoch advances on quarantine
    /// too, so a slow worker's late completion is rejected as stale —
    /// exactly one of {late completion lands, quarantine} ever wins.
    fn sweep_expired(&self, st: &mut QueueState, now_ns: u64) {
        let mut expired: Vec<Fingerprint> = Vec::new();
        for (fp, job) in &st.jobs {
            if let Status::Claimed { deadline_ns, .. } = job.status {
                if deadline_ns <= now_ns {
                    expired.push(*fp);
                }
            }
        }
        let mut quarantined_any = false;
        for fp in expired {
            let job = st.jobs.get_mut(&fp).expect("swept job exists");
            let Status::Claimed { worker, deadline_ns } = job.status else { unreachable!() };
            if job.attempts >= self.max_attempts {
                let diag = QuarantineDiag {
                    fingerprint: fp,
                    attempts: job.attempts,
                    worker,
                    epoch: job.epoch,
                    deadline_ns,
                };
                job.epoch = job.epoch.next();
                job.status = Status::Quarantined;
                st.quarantines.insert(fp, diag);
                quarantined_any = true;
            } else {
                job.epoch = job.epoch.next();
                job.status = Status::Pending;
                st.pending.push_back(fp);
                st.reclaims += 1;
            }
        }
        if quarantined_any {
            // Wake waiters parked on the now-hopeless jobs.
            self.cv.notify_all();
        }
    }

    /// Claims the front pending job for `worker` under an already-held
    /// lock, sweeping expired leases first. Each claim burns one unit of
    /// the job's attempt budget.
    fn claim_locked(&self, st: &mut QueueState, worker: WorkerId) -> Option<Claim> {
        let now_ns = self.clock.now_ns();
        self.sweep_expired(st, now_ns);
        let fingerprint = st.pending.pop_front()?;
        let job = st.jobs.get_mut(&fingerprint).expect("pending job exists");
        job.attempts += 1;
        job.status = Status::Claimed { worker, deadline_ns: now_ns.saturating_add(self.lease_ns) };
        Some(Claim { fingerprint, spec: Arc::clone(&job.spec), epoch: job.epoch })
    }

    /// Claims a job for `worker` if one is claimable *right now* (after
    /// sweeping expired leases), without blocking. The non-blocking core
    /// of [`JobQueue::claim`], and the surface the loom models drive.
    #[must_use]
    pub fn try_claim(&self, worker: WorkerId) -> Option<Claim> {
        let mut st = self.lock();
        self.claim_locked(&mut st, worker)
    }

    /// Blocks until a job is claimable (or the queue is closed and
    /// drained), then claims it for `worker`. Expired leases of crashed
    /// workers are swept and re-claimed here, at the advanced epoch.
    ///
    /// Returns `None` when the queue is closed and no work remains — the
    /// worker shard's signal to exit.
    #[must_use]
    pub fn claim(&self, worker: WorkerId) -> Option<Claim> {
        let mut st = self.lock();
        loop {
            if let Some(claim) = self.claim_locked(&mut st, worker) {
                return Some(claim);
            }
            let in_flight = st.jobs.values().any(|j| matches!(j.status, Status::Claimed { .. }));
            if st.closed && !in_flight {
                // Closed, nothing pending, nothing that could still expire
                // back into pending: drained.
                self.cv.notify_all();
                return None;
            }
            st = self.wait_for_change(st);
        }
    }

    /// Parks until the queue is notified — or, outside loom, until it is
    /// time to sweep the earliest lease (the host clock keeps moving on
    /// its own, so the wait must poll).
    #[cfg(not(loom))]
    fn wait_for_change<'q>(&'q self, st: MutexGuard<'q, QueueState>) -> MutexGuard<'q, QueueState> {
        let now_ns = self.clock.now_ns();
        let timeout = st
            .jobs
            .values()
            .filter_map(|j| match j.status {
                Status::Claimed { deadline_ns, .. } => {
                    Some(Duration::from_nanos(deadline_ns.saturating_sub(now_ns)))
                }
                _ => None,
            })
            .min()
            .unwrap_or(Duration::from_nanos(self.lease_ns))
            .max(Duration::from_millis(1));
        let (guard, _) = self.cv.wait_timeout(st, timeout).unwrap_or_else(PoisonError::into_inner);
        guard
    }

    /// Under loom there is no timed wait (and no self-moving clock):
    /// block until another modeled thread notifies.
    #[cfg(loom)]
    fn wait_for_change<'q>(&'q self, st: MutexGuard<'q, QueueState>) -> MutexGuard<'q, QueueState> {
        self.cv.wait(st).unwrap_or_else(PoisonError::into_inner)
    }

    /// Records `fingerprint` as completed by the claim taken at `epoch`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LeaseExpired`] if the job has since been swept to
    /// a newer epoch — the caller's lease ran out and its (already
    /// computed) result is discarded as stale. Returns
    /// [`Error::InvalidConfig`] for a fingerprint the queue never issued.
    pub fn complete(&self, fingerprint: Fingerprint, epoch: Epoch) -> Result<()> {
        let mut st = self.lock();
        let job = st.jobs.get_mut(&fingerprint).ok_or_else(|| {
            Error::InvalidConfig(format!("completion for unknown job {fingerprint}"))
        })?;
        if job.epoch != epoch {
            let current = job.epoch.get();
            st.stale_completions += 1;
            return Err(Error::LeaseExpired { held: epoch.get(), current });
        }
        job.status = Status::Done;
        st.pending.retain(|fp| *fp != fingerprint);
        self.cv.notify_all();
        Ok(())
    }

    /// Blocks until `fingerprint` completes. Returns `false` if the job
    /// was quarantined, or if the queue closed (and drained) without the
    /// job ever completing — the only `false` for fingerprints that were
    /// actually submitted is quarantine. Compatibility wrapper over
    /// [`JobQueue::wait_outcome`].
    #[must_use]
    pub fn wait_done(&self, fingerprint: Fingerprint) -> bool {
        self.wait_outcome(fingerprint, None) == WaitOutcome::Done
    }

    /// Blocks until `fingerprint` reaches a terminal state — done,
    /// quarantined, or unreachable because the queue closed — or until
    /// `timeout` (measured on the queue's injected clock) elapses.
    /// `None` waits without bound.
    #[must_use]
    pub fn wait_outcome(&self, fingerprint: Fingerprint, timeout: Option<Duration>) -> WaitOutcome {
        let deadline_ns = timeout.map(|t| {
            self.clock.now_ns().saturating_add(u64::try_from(t.as_nanos()).unwrap_or(u64::MAX))
        });
        let mut st = self.lock();
        loop {
            match st.jobs.get(&fingerprint) {
                Some(job) if job.status == Status::Done => return WaitOutcome::Done,
                Some(job) if job.status == Status::Quarantined => {
                    let diag =
                        *st.quarantines.get(&fingerprint).expect("quarantined job has diagnostics");
                    return WaitOutcome::Quarantined(diag);
                }
                None if st.closed => return WaitOutcome::Shutdown,
                Some(_) | None => {}
            }
            if let Some(deadline_ns) = deadline_ns {
                if self.clock.now_ns() >= deadline_ns {
                    return WaitOutcome::TimedOut;
                }
            }
            #[cfg(not(loom))]
            {
                let (guard, _) = self
                    .cv
                    .wait_timeout(st, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
            }
            #[cfg(loom)]
            {
                st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Re-queues a *done* job at the next epoch with a fresh attempt
    /// budget — the store-repair path: the payload on disk was found
    /// corrupt, so the job must execute again (determinism re-derives it
    /// bit-identically). A job that is already pending or claimed (a
    /// concurrent waiter repaired it first) is left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a fingerprint the queue never
    /// issued.
    pub(crate) fn requeue(&self, fingerprint: Fingerprint) -> Result<()> {
        let mut st = self.lock();
        let job = st.jobs.get_mut(&fingerprint).ok_or_else(|| {
            Error::InvalidConfig(format!("requeue for unknown job {fingerprint}"))
        })?;
        if job.status == Status::Done {
            job.epoch = job.epoch.next();
            job.status = Status::Pending;
            job.attempts = 0;
            st.pending.push_back(fingerprint);
            self.cv.notify_all();
        }
        Ok(())
    }

    /// The quarantine diagnostics for `fingerprint`, if it was convicted.
    #[must_use]
    pub fn quarantine_diag(&self, fingerprint: Fingerprint) -> Option<QuarantineDiag> {
        self.lock().quarantines.get(&fingerprint).copied()
    }

    /// Every quarantine so far, in fingerprint order (deterministic).
    #[must_use]
    pub fn quarantines(&self) -> Vec<QuarantineDiag> {
        self.lock().quarantines.values().copied().collect()
    }

    /// Closes the queue: no new submissions; workers drain the remaining
    /// jobs (including leases that still have to expire) and then exit.
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// Current counter snapshot.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        let st = self.lock();
        QueueStats {
            submitted: st.submitted,
            deduplicated: st.deduplicated,
            reclaims: st.reclaims,
            stale_completions: st.stale_completions,
            quarantined: st.quarantines.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;
    use cohort::Protocol;
    use cohort_trace::micro;
    use cohort_types::Criticality;

    fn job(n: usize) -> JobSpec {
        let mut b = cohort::SystemSpec::builder();
        for _ in 0..2 {
            b = b.core(Criticality::new(1).unwrap());
        }
        JobSpec::Experiment {
            spec: b.build().unwrap(),
            protocol: Protocol::Msi,
            workload: Arc::new(micro::ping_pong(2, n)),
        }
    }

    fn clocked(lease: Duration) -> (JobQueue, Arc<TestClock>) {
        let clock = Arc::new(TestClock::new());
        (JobQueue::with_clock(lease, Arc::clone(&clock) as Arc<dyn Clock>), clock)
    }

    #[test]
    fn duplicate_submissions_collapse_to_one_job() {
        let q = JobQueue::new(Duration::from_secs(10));
        let (fp1, fresh1) = q.submit(job(4)).unwrap();
        let (fp2, fresh2) = q.submit(job(4)).unwrap();
        assert_eq!(fp1, fp2);
        assert!(fresh1 && !fresh2);
        let stats = q.stats();
        assert_eq!((stats.submitted, stats.deduplicated), (2, 1));
        // Only one claim comes out.
        let claim = q.claim(WorkerId::new(0)).expect("one job pending");
        assert_eq!(claim.epoch, Epoch::FIRST);
        q.complete(claim.fingerprint, claim.epoch).unwrap();
        assert!(q.wait_done(fp1));
        q.close();
        assert!(q.claim(WorkerId::new(0)).is_none(), "drained queue yields no claims");
    }

    #[test]
    fn expired_leases_are_reclaimed_at_the_next_epoch() {
        let (q, clock) = clocked(Duration::from_millis(20));
        let (fp, _) = q.submit(job(6)).unwrap();
        let dead = q.claim(WorkerId::new(0)).unwrap();
        assert_eq!(dead.epoch, Epoch::FIRST);
        clock.advance(Duration::from_millis(40));
        // The next claimer sweeps the expired lease and re-claims.
        let alive = q.claim(WorkerId::new(1)).unwrap();
        assert_eq!(alive.fingerprint, fp);
        assert_eq!(alive.epoch, Epoch::FIRST.next());
        assert_eq!(q.stats().reclaims, 1);
        // The re-claimer's completion lands; the dead worker's is stale.
        q.complete(fp, alive.epoch).unwrap();
        let err = q.complete(fp, dead.epoch).unwrap_err();
        assert_eq!(err, Error::LeaseExpired { held: 1, current: 2 });
        assert_eq!(q.stats().stale_completions, 1);
    }

    #[test]
    fn stale_completion_before_reclaim_is_also_rejected() {
        let (q, clock) = clocked(Duration::from_millis(10));
        let (fp, _) = q.submit(job(8)).unwrap();
        let dead = q.claim(WorkerId::new(0)).unwrap();
        clock.advance(Duration::from_millis(25));
        // Another claim sweeps the lease (epoch 2) even though it claims
        // the same job; the original epoch-1 completion must be refused.
        let second = q.claim(WorkerId::new(1)).unwrap();
        assert!(matches!(q.complete(fp, dead.epoch), Err(Error::LeaseExpired { .. })));
        q.complete(fp, second.epoch).unwrap();
    }

    #[test]
    fn unexpired_lease_is_not_swept() {
        let (q, clock) = clocked(Duration::from_millis(20));
        let (fp, _) = q.submit(job(7)).unwrap();
        let first = q.claim(WorkerId::new(0)).unwrap();
        clock.advance(Duration::from_millis(19));
        // One tick short of the deadline: nothing to claim, no reclaim.
        assert!(q.try_claim(WorkerId::new(1)).is_none());
        assert_eq!(q.stats().reclaims, 0);
        clock.advance(Duration::from_millis(1));
        let swept = q.try_claim(WorkerId::new(1)).expect("lease expired on the tick");
        assert_eq!(swept.fingerprint, fp);
        assert_eq!(q.stats().reclaims, 1);
        drop(first);
    }

    #[test]
    fn try_claim_is_nonblocking() {
        let q = JobQueue::new(Duration::from_secs(10));
        assert!(q.try_claim(WorkerId::new(0)).is_none(), "empty queue returns immediately");
        let (fp, _) = q.submit(job(9)).unwrap();
        let claim = q.try_claim(WorkerId::new(0)).expect("pending job claimable");
        assert_eq!(claim.fingerprint, fp);
        assert!(q.try_claim(WorkerId::new(1)).is_none(), "claimed job is not re-claimable");
    }

    #[test]
    fn a_poison_job_is_quarantined_after_its_attempt_budget() {
        let (mut q, clock) = clocked(Duration::from_millis(10));
        q.set_max_attempts(3);
        let (fp, _) = q.submit(job(11)).unwrap();
        // Three claims, three expiries: the first two sweep back to
        // pending (reclaims), the third convicts.
        let mut last = None;
        for _ in 0..3 {
            last = q.try_claim(WorkerId::new(7));
            assert!(last.is_some(), "job is claimable until convicted");
            clock.advance(Duration::from_millis(15));
        }
        assert!(q.try_claim(WorkerId::new(8)).is_none(), "quarantined job is never re-claimed");
        let stats = q.stats();
        assert_eq!((stats.reclaims, stats.quarantined), (2, 1));
        let diag = q.quarantine_diag(fp).expect("diagnostics recorded");
        assert_eq!(diag.fingerprint, fp);
        assert_eq!(diag.attempts, 3);
        assert_eq!(diag.worker, WorkerId::new(7));
        assert_eq!(diag.epoch, last.unwrap().epoch, "diag names the fatal claim");
        // A waiter sees the quarantine instead of hanging.
        assert_eq!(q.wait_outcome(fp, None), WaitOutcome::Quarantined(diag));
        assert!(!q.wait_done(fp));
        // The slow worker's late completion is rejected as stale.
        let err = q.complete(fp, diag.epoch).unwrap_err();
        assert!(matches!(err, Error::LeaseExpired { .. }), "{err}");
    }

    #[test]
    fn wait_outcome_times_out_on_the_injected_clock() {
        let (q, clock) = clocked(Duration::from_secs(10));
        let (fp, _) = q.submit(job(12)).unwrap();
        // Nothing will ever complete the job: a zero bound trips on the
        // first deadline check instead of hanging the caller.
        assert_eq!(q.wait_outcome(fp, Some(Duration::ZERO)), WaitOutcome::TimedOut);
        clock.advance(Duration::from_millis(5));
        assert_eq!(q.wait_outcome(fp, Some(Duration::ZERO)), WaitOutcome::TimedOut);
        // A terminal state beats any bound.
        let claim = q.claim(WorkerId::new(0)).unwrap();
        q.complete(fp, claim.epoch).unwrap();
        assert_eq!(q.wait_outcome(fp, Some(Duration::ZERO)), WaitOutcome::Done);
    }

    #[test]
    fn requeue_reopens_a_done_job_at_a_fresh_epoch_and_budget() {
        let (q, _clock) = clocked(Duration::from_secs(10));
        let (fp, _) = q.submit(job(13)).unwrap();
        let claim = q.claim(WorkerId::new(0)).unwrap();
        q.complete(fp, claim.epoch).unwrap();
        assert!(q.wait_done(fp));
        // Store repair path: the payload was found corrupt, re-derive it.
        q.requeue(fp).unwrap();
        let repair = q.try_claim(WorkerId::new(1)).expect("requeued job claimable");
        assert_eq!(repair.fingerprint, fp);
        assert_eq!(repair.epoch, claim.epoch.next(), "epoch advanced past the stale completion");
        // Double-requeue while pending/claimed is a no-op.
        q.requeue(fp).unwrap();
        assert!(q.try_claim(WorkerId::new(2)).is_none());
        q.complete(fp, repair.epoch).unwrap();
        assert!(q.wait_done(fp));
        assert!(q.requeue(Fingerprint::from_raw(0x999)).is_err(), "unknown job rejected");
    }

    #[test]
    fn closed_queue_rejects_submissions_and_drains() {
        let q = JobQueue::new(Duration::from_secs(10));
        let (fp, _) = q.submit(job(3)).unwrap();
        q.close();
        assert!(q.submit(job(5)).is_err());
        // Pending work is still handed out after close.
        let claim = q.claim(WorkerId::new(0)).expect("pending job survives close");
        q.complete(fp, claim.epoch).unwrap();
        assert!(q.claim(WorkerId::new(0)).is_none());
        assert!(q.wait_done(fp));
        assert!(!q.wait_done(Fingerprint::from_raw(0x1234)), "unknown job after close");
    }
}
