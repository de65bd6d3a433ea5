//! Stress tests of the JobQueue epoch/lease/claim state machine.
//!
//! Each test races real threads through the production queue for
//! [`ROUNDS`] rounds. The races drive the non-blocking
//! [`JobQueue::try_claim`] surface, and the lease clock is a hand-driven
//! [`TestClock`], so only the thread interleaving varies from round to
//! round. A round that ends in a wait goes through the production
//! `wait_done`/`wait_outcome` path.
//!
//! Each test asserts an *outcome set*: whichever interleaving runs,
//! exactly one worker wins a claim, exactly one completion lands, and
//! the stats stay consistent with which branch happened.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use cohort::Protocol;
use cohort_fleet::{Claim, Clock, JobQueue, JobSpec, TestClock, WaitOutcome, WorkerId};
use cohort_trace::micro;
use cohort_types::{Criticality, Epoch, Error};

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

/// Rounds per race.
const ROUNDS: usize = 64;

/// Runs one race [`ROUNDS`] times.
fn stress(race: impl Fn()) {
    for _ in 0..ROUNDS {
        race();
    }
}

fn clocked(lease: Duration) -> (Arc<JobQueue>, Arc<TestClock>) {
    let clock = Arc::new(TestClock::new());
    let queue = Arc::new(JobQueue::with_clock(lease, Arc::clone(&clock) as Arc<dyn Clock>));
    (queue, clock)
}

#[test]
fn claim_is_exclusive_across_workers() {
    stress(|| {
        let (q, _clock) = clocked(Duration::from_secs(1));
        q.submit(job(4)).unwrap();
        let qa = Arc::clone(&q);
        let qb = Arc::clone(&q);
        let ta = thread::spawn(move || qa.try_claim(WorkerId::new(0)).is_some());
        let tb = thread::spawn(move || qb.try_claim(WorkerId::new(1)).is_some());
        let a = ta.join().unwrap();
        let b = tb.join().unwrap();
        assert!(a ^ b, "exactly one worker may hold the claim (got a={a}, b={b})");
    });
}

#[test]
fn concurrent_duplicate_submissions_dedup_to_one_job() {
    stress(|| {
        let (q, _clock) = clocked(Duration::from_secs(1));
        let qa = Arc::clone(&q);
        let qb = Arc::clone(&q);
        let ta = thread::spawn(move || qa.submit(job(6)).unwrap().1);
        let tb = thread::spawn(move || qb.submit(job(6)).unwrap().1);
        let fresh_a = ta.join().unwrap();
        let fresh_b = tb.join().unwrap();
        assert!(fresh_a ^ fresh_b, "exactly one submission is the first of its kind");
        let stats = q.stats();
        assert_eq!((stats.submitted, stats.deduplicated), (2, 1));
        assert!(q.try_claim(WorkerId::new(0)).is_some());
        assert!(q.try_claim(WorkerId::new(1)).is_none(), "the duplicate spawned no second job");
    });
}

#[test]
fn slow_completion_races_reclaim_exactly_one_lands() {
    stress(|| {
        let (q, clock) = clocked(Duration::from_millis(10));
        let (fp, _) = q.submit(job(8)).unwrap();
        let slow: Claim = q.try_claim(WorkerId::new(0)).expect("first claim");
        // The lease expires while worker 0 is still computing.
        clock.advance(Duration::from_millis(20));
        let qa = Arc::clone(&q);
        let slow_epoch = slow.epoch;
        let t_slow = thread::spawn(move || qa.complete(fp, slow_epoch).is_ok());
        let qb = Arc::clone(&q);
        let t_sweep = thread::spawn(move || match qb.try_claim(WorkerId::new(1)) {
            Some(claim) => {
                assert_eq!(claim.fingerprint, fp);
                assert_eq!(claim.epoch, Epoch::FIRST.next(), "reclaim advances the epoch");
                qb.complete(claim.fingerprint, claim.epoch)
                    .expect("a completion at the job's current epoch always lands");
                true
            }
            None => false,
        });
        let slow_landed = t_slow.join().unwrap();
        let reclaimed = t_sweep.join().unwrap();
        // Whichever thread won the lock first, exactly one execution's
        // result landed and the job is done.
        assert!(
            slow_landed ^ reclaimed,
            "exactly one completion lands (slow={slow_landed}, reclaim={reclaimed})"
        );
        assert!(q.wait_done(fp));
        let stats = q.stats();
        if reclaimed {
            assert_eq!((stats.reclaims, stats.stale_completions), (1, 1));
        } else {
            assert_eq!((stats.reclaims, stats.stale_completions), (0, 0));
        }
    });
}

#[test]
fn quarantine_races_slow_completion_exactly_one_wins() {
    stress(|| {
        let clock = Arc::new(TestClock::new());
        let mut queue =
            JobQueue::with_clock(Duration::from_millis(10), Arc::clone(&clock) as Arc<dyn Clock>);
        queue.set_max_attempts(1);
        let q = Arc::new(queue);
        let (fp, _) = q.submit(job(12)).unwrap();
        let slow = q.try_claim(WorkerId::new(0)).expect("first claim");
        // The lease expires while worker 0 is still computing — and the
        // attempt budget is already spent, so the next sweep convicts.
        clock.advance(Duration::from_millis(20));
        let qa = Arc::clone(&q);
        let slow_epoch = slow.epoch;
        let t_slow = thread::spawn(move || qa.complete(fp, slow_epoch).is_ok());
        let qb = Arc::clone(&q);
        let t_sweep = thread::spawn(move || {
            assert!(
                qb.try_claim(WorkerId::new(1)).is_none(),
                "attempt budget 1: the job is never re-claimed"
            );
        });
        let slow_landed = t_slow.join().unwrap();
        t_sweep.join().unwrap();
        let stats = q.stats();
        let quarantined = stats.quarantined == 1;
        // The heart of the model: whichever thread won the lock, exactly
        // one of {late completion lands, quarantine} happened — never
        // both, never neither.
        assert!(
            slow_landed ^ quarantined,
            "exactly one outcome (slow={slow_landed}, quarantined={quarantined})"
        );
        if quarantined {
            assert_eq!(stats.stale_completions, 1, "the late completion was rejected as stale");
            let diag = q.quarantine_diag(fp).expect("conviction carries diagnostics");
            assert_eq!(diag.attempts, 1);
            assert_eq!(diag.worker, WorkerId::new(0));
            assert!(matches!(
                q.wait_outcome(fp, None),
                WaitOutcome::Quarantined(diag) if diag.fingerprint == fp && diag.attempts == 1
            ));
        } else {
            assert_eq!(stats.stale_completions, 0);
            assert!(q.wait_done(fp));
        }
    });
}

#[test]
fn stale_epoch_is_rejected_after_reclaim() {
    stress(|| {
        let (q, clock) = clocked(Duration::from_millis(10));
        let (fp, _) = q.submit(job(10)).unwrap();
        let dead = q.try_claim(WorkerId::new(0)).expect("first claim");
        clock.advance(Duration::from_millis(15));
        let alive = q.try_claim(WorkerId::new(1)).expect("expired lease is sweepable");
        assert_eq!(alive.epoch, dead.epoch.next());
        let err = q.complete(fp, dead.epoch).unwrap_err();
        assert!(matches!(err, Error::LeaseExpired { held: 1, current: 2 }));
        q.complete(fp, alive.epoch).unwrap();
        assert_eq!(q.stats().stale_completions, 1);
    });
}
