//! Fleet integration tests: concurrent dedup, kill-recovery with
//! bit-identical re-execution, checkpointed GA resume, persistent memo
//! reuse and corruption detection.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use cohort::{Protocol, SystemSpec};
use cohort_fleet::{
    execute_experiment, ga_payload, Fleet, JobQueue, JobSpec, ResultStore, WorkerId, WorkerShard,
};
use cohort_optim::{GaConfig, GaRun, TimerProblem};
use cohort_trace::{micro, Workload};
use cohort_types::{Criticality, Cycles, Error};

fn platform(cores: usize) -> SystemSpec {
    let mut b = SystemSpec::builder();
    for _ in 0..cores {
        b = b.core(Criticality::new(1).unwrap());
    }
    b.build().unwrap()
}

fn experiment(workload: &Arc<Workload>) -> JobSpec {
    JobSpec::Experiment {
        spec: platform(2),
        protocol: Protocol::Msi,
        workload: Arc::clone(workload),
    }
}

fn canonical(v: &serde_json::Value) -> String {
    serde_json::to_string(v).unwrap()
}

#[test]
fn a_burst_of_duplicate_submissions_shares_one_execution() {
    let fleet = Fleet::builder().shards(2).build().unwrap();
    let workload = Arc::new(micro::ping_pong(2, 16));

    let payloads: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let client = fleet.client();
                let job = experiment(&workload);
                s.spawn(move || canonical(&client.run(job).unwrap()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every racer got the same payload from the single execution.
    assert!(payloads.windows(2).all(|w| w[0] == w[1]));
    let stats = fleet.shutdown();
    assert_eq!(stats.queue.submitted, 8);
    assert_eq!(stats.queue.deduplicated, 7, "seven of eight submissions deduplicated");
    assert_eq!(stats.executed, 1, "exactly one execution across all shards");
}

#[test]
fn crashes_before_complete_are_counted_in_the_fleet_stats() {
    let fleet = Fleet::builder()
        .shards(1)
        .lease(Duration::from_millis(40))
        .crash_before_complete(1)
        .build()
        .unwrap();
    let workload = Arc::new(micro::ping_pong(2, 16));
    let payload = fleet.client().run(experiment(&workload)).unwrap();
    let reference = execute_experiment(&platform(2), &Protocol::Msi, &workload).unwrap();
    assert_eq!(canonical(&payload), canonical(&reference));
    let stats = fleet.shutdown();
    assert_eq!(stats.crashed, 1, "the hook abandoned exactly one job");
}

#[test]
fn a_killed_worker_is_reclaimed_and_the_rerun_is_bit_identical() {
    let queue = Arc::new(JobQueue::new(Duration::from_millis(50)));
    let store = Arc::new(ResultStore::in_memory());
    let workload = Arc::new(micro::random_shared(2, 8, 120, 0.5, 7));
    let (fp, _) = queue.submit(experiment(&workload)).unwrap();

    // The doomed worker claims the job and computes its payload, but is
    // killed before it can store or complete anything.
    let doomed = queue.claim(WorkerId::new(0)).unwrap();
    let doomed_payload = match doomed.spec.as_ref() {
        JobSpec::Experiment { spec, protocol, workload } => {
            execute_experiment(spec, protocol, workload).unwrap()
        }
        JobSpec::Optimize { .. } | JobSpec::Certify { .. } => {
            unreachable!("submitted an experiment")
        }
    };
    std::thread::sleep(Duration::from_millis(60)); // the lease runs out

    // A healthy shard sweeps the expired lease, re-claims at the next
    // epoch and recomputes from scratch (the store is empty).
    let shard = WorkerShard::new(WorkerId::new(1), Arc::clone(&queue), Arc::clone(&store));
    let stats = shard.stats();
    let handle = std::thread::spawn(move || shard.run());
    assert!(queue.wait_done(fp));
    queue.close();
    handle.join().unwrap();

    let recomputed = store.get(fp).unwrap().expect("re-claimer stored the payload");
    assert_eq!(
        canonical(&recomputed),
        canonical(&doomed_payload),
        "the re-claimed execution is bit-identical to the killed one"
    );
    assert_eq!(queue.stats().reclaims, 1);
    assert_eq!(stats.executed.load(Ordering::Relaxed), 1);

    // If the "dead" worker turns out to be merely slow, its late
    // completion is refused — the epoch moved on.
    assert!(matches!(
        queue.complete(fp, doomed.epoch),
        Err(Error::LeaseExpired { held: 1, current: 2 })
    ));
}

#[test]
fn a_ga_run_killed_mid_flight_resumes_from_its_checkpoint_bit_identically() {
    let workload = micro::line_bursts(2, 4, 60);
    let ga =
        GaConfig { population: 10, generations: 12, seed: 99, workers: 1, ..GaConfig::default() };
    let job = JobSpec::Optimize {
        workload: Arc::new(workload.clone()),
        timed: vec![(0, None), (1, Some(20_000))],
        ga: ga.clone(),
    };

    let queue = Arc::new(JobQueue::new(Duration::from_millis(200)));
    let store = Arc::new(ResultStore::in_memory());
    let (fp, _) = queue.submit(job).unwrap();

    // One shard, killed by the chaos hook right after generation 4's
    // checkpoint lands. Its own claim loop then sweeps the expired lease,
    // re-claims the job at epoch 2 and resumes from the checkpoint.
    let shard = WorkerShard::new(WorkerId::new(0), Arc::clone(&queue), Arc::clone(&store))
        .crash_after_generations(4);
    let stats = shard.stats();
    let handle = std::thread::spawn(move || shard.run());
    assert!(queue.wait_done(fp));
    queue.close();
    handle.join().unwrap();

    assert!(queue.stats().reclaims >= 1, "the kill forced at least one reclaim");
    assert_eq!(stats.resumed.load(Ordering::Relaxed), 1, "the re-claim resumed mid-run");
    assert_eq!(stats.executed.load(Ordering::Relaxed), 1);

    // The interrupted-and-resumed payload matches an uninterrupted
    // reference run bit for bit.
    let problem = TimerProblem::builder(&workload)
        .timed(0, None)
        .timed(1, Some(Cycles::new(20_000)))
        .build()
        .unwrap();
    let reference = ga_payload(&problem, &GaRun::new(&problem).config(&ga).run());
    let stored = store.get(fp).unwrap().expect("resumed run stored its payload");
    assert_eq!(canonical(&stored), canonical(&reference));
}

#[test]
fn the_persistent_memo_answers_a_later_fleet_run_without_executing() {
    let dir = std::env::temp_dir().join("cohort-fleet-memo-reuse-test");
    std::fs::remove_dir_all(&dir).ok();
    let workload = Arc::new(micro::ping_pong(2, 12));

    let first = Fleet::builder().shards(1).store_dir(&dir).build().unwrap();
    let ticket = first.client().submit(experiment(&workload)).unwrap();
    assert!(!ticket.cached);
    let computed = first.client().wait(&ticket).unwrap();
    assert_eq!(first.shutdown().executed, 1);

    // A brand-new fleet over the same directory answers the duplicate
    // submission from the store — nothing executes at all.
    let second = Fleet::builder().shards(1).store_dir(&dir).build().unwrap();
    let ticket = second.client().submit(experiment(&workload)).unwrap();
    assert!(ticket.cached, "the persistent store already held the payload");
    let replayed = second.client().wait(&ticket).unwrap();
    assert_eq!(canonical(&replayed), canonical(&computed));
    let stats = second.shutdown();
    assert_eq!(stats.executed, 0);
    assert!(stats.store_hits >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_tampered_store_entry_is_quarantined_and_repaired_bit_identically() {
    let dir = std::env::temp_dir().join("cohort-fleet-corruption-test");
    std::fs::remove_dir_all(&dir).ok();
    let workload = Arc::new(micro::ping_pong(2, 10));

    let first = Fleet::builder().shards(1).store_dir(&dir).build().unwrap();
    let original = first.client().run(experiment(&workload)).unwrap();
    let _ = first.shutdown();

    // Corrupt the payload on disk behind the fleet's back.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|ext| ext == "json"))
        .expect("one persisted entry");
    let tampered = std::fs::read_to_string(&entry).unwrap().replace("experiment", "tampered");
    std::fs::write(&entry, tampered).unwrap();

    // The next run's submission reads (not just probes) the memo, finds
    // the corruption, quarantines the entry to a forensic sidecar and
    // queues the job for fresh execution — the caller sees a healthy,
    // bit-identical answer.
    let second = Fleet::builder().shards(1).store_dir(&dir).build().unwrap();
    let client = second.client();
    let ticket = client.submit(experiment(&workload)).unwrap();
    assert!(!ticket.cached, "corruption is caught at submit; the job queues for execution");
    let repaired = client.wait(&ticket).unwrap();
    assert_eq!(canonical(&repaired), canonical(&original), "repair is bit-identical");

    let stats = second.shutdown();
    assert_eq!(stats.executed, 1, "the repair re-executed the job");
    assert_eq!(stats.health.corrupt_quarantined, 1);
    assert_eq!(stats.health.repairs, 1);
    assert_eq!(
        stats.health.repairs_bit_identical, 1,
        "the sidecar's recorded fingerprint matched the re-derived payload"
    );
    assert_eq!(stats.queue.quarantined, 0, "store repair is not a job quarantine");
    let sidecar = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.to_string_lossy().ends_with(".json.corrupt"))
        .expect("forensic sidecar preserved");
    assert!(std::fs::read_to_string(&sidecar).unwrap().contains("tampered"));
    // And the mirror now holds the healthy envelope again.
    let healed = std::fs::read_to_string(&entry).unwrap();
    assert!(healed.contains("experiment") && !healed.contains("tampered"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_poison_job_quarantines_with_diagnostics_instead_of_hanging_the_caller() {
    let workload = Arc::new(micro::ping_pong(2, 14));
    let poison_fp = experiment(&workload).fingerprint();
    let fleet = Fleet::builder()
        .shards(2)
        .lease(Duration::from_millis(40))
        .max_attempts(3)
        .poison(poison_fp)
        .build()
        .unwrap();
    let client = fleet.client();

    // A healthy job shares the fleet with the poison one and must be
    // unaffected.
    let healthy = Arc::new(micro::random_shared(2, 8, 100, 0.5, 3));
    let healthy_ticket = client.submit(experiment(&healthy)).unwrap();
    let poison_ticket = client.submit(experiment(&workload)).unwrap();

    let err = client.wait(&poison_ticket).unwrap_err();
    let Error::JobQuarantined { key, attempts, epoch, .. } = &err else {
        panic!("expected JobQuarantined, got {err}");
    };
    assert_eq!(*key, poison_fp.to_hex());
    assert_eq!(*attempts, 3, "the full attempt budget was spent");
    assert!(*epoch >= 3, "each attempt advanced the epoch");
    assert!(client.wait(&healthy_ticket).is_ok(), "poison never starves healthy work");

    let diags = fleet.quarantines();
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].fingerprint, poison_fp);
    let stats = fleet.shutdown();
    assert_eq!(stats.queue.quarantined, 1);
    assert_eq!(stats.health.quarantined, 1);
    assert_eq!(stats.health.reclaims, 2, "two reclaims preceded the conviction");
}

#[test]
fn wait_timeout_bounds_a_wait_with_a_typed_error() {
    let workload = Arc::new(micro::ping_pong(2, 18));
    let poison_fp = experiment(&workload).fingerprint();
    // Poison with a *long* lease: the job will sit claimed far past any
    // reasonable wait, which used to mean a hung caller.
    let fleet = Fleet::builder()
        .shards(1)
        .lease(Duration::from_secs(30))
        .poison(poison_fp)
        .build()
        .unwrap();
    let client = fleet.client();
    let ticket = client.submit(experiment(&workload)).unwrap();
    let err = client.wait_timeout(&ticket, Duration::from_millis(120)).unwrap_err();
    assert!(matches!(err, Error::WaitTimedOut { .. }), "{err}");
    assert!(err.to_string().contains("timed out"), "{err}");
    // Shutdown still drains: the poison job's lease must expire first,
    // but the queue sweeps it and (budget left) re-claims until the
    // default budget convicts it. Use a fresh short-lease check instead
    // of waiting 30 s: just verify stats are reachable without hanging.
    let stats = fleet.stats();
    assert!(stats.queue.submitted >= 1);
    drop(fleet); // leak the worker threads rather than wait out the lease
}
