//! Fleet service benchmark: submission throughput under a burst of
//! duplicate specs, kill-recovery through lease reclaim, persistent memo
//! replay, and a churn chaos campaign against the self-healing layer.
//!
//! Four measurements, mirroring the fleet's claims:
//!
//! 1. **Burst** — concurrent submitter threads fire duplicate experiment
//!    specs at a running fleet; dedup-on-submit must collapse them onto
//!    one execution each (dedup hit-rate > 0) at a healthy submission
//!    throughput.
//! 2. **Kill-recovery** — a chaos-rigged worker shard is killed after a
//!    GA generation's checkpoint lands; its lease expires, the job is
//!    re-claimed, resumed from the checkpoint, and the final payload must
//!    be bit-identical to an uninterrupted reference run.
//! 3. **Replay** — a second fleet over the same persistent store answers
//!    every submission from the memo without executing anything.
//! 4. **Churn** — a seeded fault schedule drives two fleets over one
//!    budgeted persistent mirror: a worker killed mid-job, a poison job
//!    quarantined with diagnostics, transient disk faults absorbed by
//!    backoff, evictions, and a bit-rot corruption repaired
//!    bit-identically between the phases. Zero jobs lost; the whole
//!    campaign runs twice and its aggregates must be bit-identical.
//!
//! The report's check holds every gate the document carries and runs on
//! every run, so a failed gate exits non-zero with or without `--json`.
//!
//! ```text
//! cargo run --release -p cohort-bench --bin fleet -- \
//!     [--quick] [--json results/BENCH_fleet.json]
//! ```

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::json;

use cohort::{Protocol, SystemSpec};
use cohort_bench::report::{ReportWriter, FLEET};
use cohort_bench::CliOptions;
use cohort_fleet::{
    ga_payload, Disk, FaultyDisk, Fleet, FleetStats, JobQueue, JobSpec, ResultStore, StoreBudget,
    WorkerId, WorkerShard,
};
use cohort_optim::{GaConfig, GaRun, TimerProblem};
use cohort_trace::{micro, Workload};
use cohort_types::{Criticality, Cycles, Error};

/// The chaos shard's lease: short enough that recovery dominates the
/// bench, long enough that the resumed run finishes inside it.
const KILL_LEASE: Duration = Duration::from_millis(200);

/// The churn campaign's lease: three expiries of this convict the poison
/// job, and every healthy job finishes orders of magnitude inside it.
const CHURN_LEASE: Duration = Duration::from_millis(250);

/// The poison job's attempt budget in the churn campaign.
const CHURN_ATTEMPTS: u64 = 3;

/// Bound on every bench wait: generous against slow hosts, but finite —
/// a wedged fleet fails the bench with a typed error instead of hanging.
const BENCH_WAIT: Duration = Duration::from_mins(5);

/// Suppresses the backtraces of deliberate `chaos:` panics for the
/// guard's lifetime; any other panic still reports normally.
struct ChaosQuiet;

impl ChaosQuiet {
    fn install() -> Self {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let chaos = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|message| message.starts_with("chaos:"));
            if !chaos {
                default_hook(info);
            }
        }));
        ChaosQuiet
    }
}

impl Drop for ChaosQuiet {
    fn drop(&mut self) {
        // take_hook itself panics on a panicking thread; a failed assert
        // should report itself, not abort inside this Drop.
        if !std::thread::panicking() {
            let _ = std::panic::take_hook(); // back to the default hook
        }
    }
}

fn platform(cores: usize) -> SystemSpec {
    let mut b = SystemSpec::builder();
    for _ in 0..cores {
        b = b.core(Criticality::new(1).expect("static level"));
    }
    b.build().expect("non-empty")
}

fn canonical(v: &serde_json::Value) -> String {
    serde_json::to_string(v).expect("a Value serializes infallibly")
}

/// The burst workloads: `distinct` experiment jobs over distinct traces.
fn burst_jobs(distinct: usize, accesses: usize) -> Vec<JobSpec> {
    (0..distinct)
        .map(|i| JobSpec::Experiment {
            spec: platform(2),
            protocol: Protocol::Msi,
            workload: Arc::new(micro::random_shared(2, 8, accesses, 0.5, 1000 + i as u64)),
        })
        .collect()
}

struct BurstResult {
    submissions: u64,
    distinct: u64,
    executed: u64,
    dedup_hits: u64,
    seconds: f64,
}

/// Fires `submitters` concurrent threads, each submitting every job of
/// the burst set and waiting for all results; duplicate specs must
/// collapse onto one execution per distinct job.
fn run_burst(shards: usize, submitters: usize, jobs: &[JobSpec]) -> BurstResult {
    let fleet = Fleet::builder().shards(shards).build().expect("in-memory fleet");
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..submitters)
            .map(|_| {
                let client = fleet.client();
                s.spawn(move || {
                    let tickets: Vec<_> = jobs
                        .iter()
                        .map(|job| client.submit(job.clone()).expect("fleet accepts"))
                        .collect();
                    for ticket in &tickets {
                        client.wait_timeout(ticket, BENCH_WAIT).expect("job completes");
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("submitter thread");
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    let stats = fleet.shutdown();
    BurstResult {
        submissions: stats.queue.submitted,
        distinct: jobs.len() as u64,
        executed: stats.executed,
        dedup_hits: stats.queue.deduplicated,
        seconds,
    }
}

struct KillResult {
    reclaims: u64,
    resumed: u64,
    stale_completions: u64,
    bit_identical: bool,
    seconds: f64,
}

/// Kills a worker mid-GA-run (after generation 4's checkpoint), lets the
/// lease expire and the claim loop resume the job, then compares the
/// final payload against an uninterrupted reference run.
fn run_kill_recovery(workload: &Workload, ga: &GaConfig) -> KillResult {
    let job = JobSpec::Optimize {
        workload: Arc::new(workload.clone()),
        timed: vec![(0, None), (1, Some(20_000))],
        ga: ga.clone(),
    };
    let queue = Arc::new(JobQueue::new(KILL_LEASE));
    let store = Arc::new(ResultStore::in_memory());
    let (fp, _) = queue.submit(job).expect("open queue");

    // The chaos kill is a deliberate panic; keep its backtrace out of the
    // bench output.
    let _quiet = ChaosQuiet::install();
    let start = Instant::now();
    let shard = WorkerShard::new(WorkerId::new(0), Arc::clone(&queue), Arc::clone(&store))
        .crash_after_generations(4);
    let stats = shard.stats();
    let handle = std::thread::spawn(move || shard.run());
    assert!(queue.wait_done(fp), "the job completes despite the kill");
    queue.close();
    handle.join().expect("shard thread");
    let seconds = start.elapsed().as_secs_f64();

    let problem = TimerProblem::builder(workload)
        .timed(0, None)
        .timed(1, Some(Cycles::new(20_000)))
        .build()
        .expect("valid problem");
    let reference = ga_payload(&problem, &GaRun::new(&problem).config(ga).run());
    let stored = store.get(fp).expect("intact store").expect("payload stored");
    KillResult {
        reclaims: queue.stats().reclaims,
        resumed: stats.resumed.load(Ordering::Relaxed),
        stale_completions: queue.stats().stale_completions,
        bit_identical: canonical(&stored) == canonical(&reference),
        seconds,
    }
}

struct ReplayResult {
    store_hits: u64,
    executed: u64,
    bit_identical: bool,
}

/// Runs the burst jobs through a persistent fleet, then replays them
/// through a second fleet over the same directory: everything must come
/// from the memo, bit-identical, with zero executions.
fn run_replay(jobs: &[JobSpec]) -> ReplayResult {
    let dir = std::env::temp_dir().join(format!("cohort-fleet-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let first = Fleet::builder().shards(2).store_dir(&dir).build().expect("persistent fleet");
    let originals: Vec<String> = {
        let client = first.client();
        jobs.iter()
            .map(|j| {
                let ticket = client.submit(j.clone()).expect("fleet accepts");
                canonical(&client.wait_timeout(&ticket, BENCH_WAIT).expect("computes"))
            })
            .collect()
    };
    let _ = first.shutdown();

    let second = Fleet::builder().shards(2).store_dir(&dir).build().expect("persistent fleet");
    let replayed: Vec<String> = {
        let client = second.client();
        jobs.iter()
            .map(|j| {
                let ticket = client.submit(j.clone()).expect("fleet accepts");
                canonical(&client.wait_timeout(&ticket, BENCH_WAIT).expect("replays"))
            })
            .collect()
    };
    let stats = second.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    ReplayResult {
        store_hits: stats.store_hits,
        executed: stats.executed,
        bit_identical: originals == replayed,
    }
}

/// The churn campaign's healthy jobs: distinct experiment specs over a
/// seed block disjoint from the burst set's.
fn churn_jobs(distinct: usize, accesses: usize) -> Vec<JobSpec> {
    (0..distinct)
        .map(|i| JobSpec::Experiment {
            spec: platform(2),
            protocol: Protocol::Msi,
            workload: Arc::new(micro::random_shared(2, 8, accesses, 0.5, 2000 + i as u64)),
        })
        .collect()
}

/// Picks the first seed whose fault schedule hits at least one of the
/// mirror's write paths, so every churn run absorbs at least one
/// transient disk fault. The probe renames a nonexistent source, which
/// mutates nothing whichever way it fails, and each candidate seed gets
/// a throwaway disk so probing never burns the real budget.
fn faulting_seed(paths: &[PathBuf]) -> u64 {
    let probe = Path::new("/cohort-churn-probe-src");
    (0..1_000)
        .find(|&seed| {
            paths.iter().any(|path| {
                matches!(FaultyDisk::new(seed, 2).rename(probe, path),
                         Err(e) if e.starts_with("injected"))
            })
        })
        .expect("some seed under 1000 faults at least one mirror path")
}

struct ChurnResult {
    jobs: u64,
    payloads: Vec<String>,
    replayed: Vec<String>,
    /// Quarantine diagnostics: (fingerprint, attempts, final worker).
    quarantine: Vec<(String, u64, u64)>,
    cold: FleetStats,
    warm: FleetStats,
    disk_faults: u64,
    /// The deterministic digest two runs must agree on bit for bit.
    aggregate: String,
    seconds: f64,
}

/// One churn campaign: two fleets over one budgeted persistent mirror
/// under a seeded fault schedule.
///
/// The **cold** phase runs a single shard (so the kill schedule is
/// deterministic) with a poison job, a worker killed right before its
/// first completion, transient disk faults on the mirror and an
/// entry-budget forcing evictions. The **warm** phase reopens the mirror
/// after one entry is bit-rotted, and must repair it bit-identically
/// while serving the rest from the memo. Every job submitted in either
/// phase reaches a terminal outcome — payload or typed quarantine.
fn run_churn(run: usize, accesses: usize) -> ChurnResult {
    let dir = std::env::temp_dir().join(format!("cohort-churn-{}-{run}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let jobs = churn_jobs(6, accesses);
    let fingerprints: Vec<_> = jobs.iter().map(JobSpec::fingerprint).collect();
    let poison = JobSpec::Experiment {
        spec: platform(2),
        protocol: Protocol::Msi,
        workload: Arc::new(micro::random_shared(2, 8, accesses, 0.5, 2_999)),
    };
    let poison_fp = poison.fingerprint();
    let tmp_paths: Vec<PathBuf> =
        fingerprints.iter().map(|fp| dir.join(format!("{}.json.tmp", fp.to_hex()))).collect();
    let disk = Arc::new(FaultyDisk::new(faulting_seed(&tmp_paths), 2));
    let budget = StoreBudget { max_entries: Some(4), max_bytes: None };

    let _quiet = ChaosQuiet::install();
    let start = Instant::now();

    // Cold phase: kills, quarantine, disk faults, evictions.
    let fleet = Fleet::builder()
        .shards(1)
        .lease(CHURN_LEASE)
        .max_attempts(CHURN_ATTEMPTS)
        .store_dir(&dir)
        .disk(Arc::clone(&disk) as Arc<dyn Disk>)
        .store_budget(budget)
        .poison(poison_fp)
        .crash_before_complete(1)
        .build()
        .expect("persistent churn fleet");
    let client = fleet.client();
    let poison_ticket = client.submit(poison).expect("fleet accepts");
    let tickets: Vec<_> =
        jobs.iter().map(|j| client.submit(j.clone()).expect("fleet accepts")).collect();
    let payloads: Vec<String> = tickets
        .iter()
        .map(|t| canonical(&client.wait_timeout(t, BENCH_WAIT).expect("healthy job completes")))
        .collect();
    let poison_err = client
        .wait_timeout(&poison_ticket, BENCH_WAIT)
        .expect_err("the poison job must convict, not answer");
    assert!(
        matches!(poison_err, Error::JobQuarantined { attempts: CHURN_ATTEMPTS, .. }),
        "poison surfaces as a typed quarantine with its attempt count: {poison_err}"
    );
    let quarantine: Vec<(String, u64, u64)> = fleet
        .quarantines()
        .iter()
        .map(|d| (d.fingerprint.to_hex(), d.attempts, d.worker.get()))
        .collect();
    let cold = fleet.shutdown();
    assert_eq!(cold.health.quarantined, 1, "exactly the poison job is quarantined");
    assert!(
        cold.health.reclaims >= CHURN_ATTEMPTS,
        "poison reclaims plus the kill reclaim: {} reclaims",
        cold.health.reclaims
    );
    // The report's check holds run 1's cold health to the next two; they
    // stay for the repeat run, whose health the report does not carry.
    assert!(cold.health.disk_retries >= 1, "at least one transient disk fault was absorbed");
    assert_eq!(cold.health.disk_give_ups, 0, "no mirror write was abandoned");
    assert_eq!(cold.health.evictions, 2, "six entries over a four-entry budget evict two");

    // Bit-rot between the phases: tamper a surviving entry's payload but
    // leave the envelope parseable, so the repair can be certified
    // bit-identical against the recorded fingerprint.
    let victim = dir.join(format!("{}.json", fingerprints[2].to_hex()));
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&victim).expect("survivor on disk"))
            .expect("entry parses");
    let mut fields = doc.as_object().expect("entry is an object").clone();
    fields.insert("payload".into(), json!({"tampered": "bit rot"}));
    std::fs::write(&victim, canonical(&serde_json::Value::Object(fields))).expect("tamper lands");

    // Warm phase: quarantine-at-open, repair by re-derivation, memo
    // replay for the untouched survivors. Submission *reads* the memo,
    // so the survivors are answered — and pulled into memory — at
    // submit time with `cached` tickets; the evictions triggered by
    // the fresh puts (the budget still only holds four) then reclaim
    // only disk the run no longer needs. One shard keeps the fresh
    // executions' claim order FIFO.
    let fleet = Fleet::builder()
        .shards(1)
        .max_attempts(CHURN_ATTEMPTS)
        .store_dir(&dir)
        .disk(Arc::clone(&disk) as Arc<dyn Disk>)
        .store_budget(budget)
        .build()
        .expect("persistent churn fleet");
    let client = fleet.client();
    let order = [3usize, 4, 5, 0, 1, 2]; // survivors, evicted, tampered
    let mut tickets: Vec<Option<cohort_fleet::Ticket>> = (0..jobs.len()).map(|_| None).collect();
    for &i in &order {
        let ticket = client.submit(jobs[i].clone()).expect("fleet accepts");
        assert_eq!(
            ticket.cached,
            (3..6).contains(&i),
            "exactly the surviving disk entries resolve at submission"
        );
        tickets[i] = Some(ticket);
    }
    let replayed: Vec<String> = tickets
        .iter()
        .map(|t| {
            let t = t.as_ref().expect("every job submitted");
            canonical(&client.wait_timeout(t, BENCH_WAIT).expect("job completes"))
        })
        .collect();
    let warm = fleet.shutdown();
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(
        (warm.health.corrupt_quarantined, warm.health.repairs),
        (1, 1),
        "the bit-rotted entry is quarantined and repaired exactly once"
    );
    assert_eq!(warm.health.quarantined, 0, "no healthy job is ever convicted");
    assert_eq!(
        (warm.executed, warm.served),
        (3, 0),
        "the two evicted jobs and the repair execute; the survivors resolved at submit"
    );
    assert_eq!(warm.health.evictions, 2, "the fresh puts evict only already-served disk");
    let sidecar = dir.join(format!("{}.json.corrupt", fingerprints[2].to_hex()));
    assert!(
        std::fs::read_to_string(&sidecar).is_ok_and(|t| t.contains("tampered")),
        "the corrupt bytes are preserved as a forensic sidecar"
    );
    std::fs::remove_dir_all(&dir).ok();

    let aggregate = canonical(&json!({
        "payloads": payloads.clone(),
        "replayed": replayed.clone(),
        "quarantine": quarantine
            .iter()
            .map(|(fp, attempts, worker)| json!({
                "fingerprint": fp, "attempts": *attempts, "worker": *worker,
            }))
            .collect::<Vec<serde_json::Value>>(),
        "cold": json!({
            "executed": cold.executed,
            "served": cold.served,
            "quarantined": cold.health.quarantined,
            "evictions": cold.health.evictions,
        }),
        "warm": json!({
            "executed": warm.executed,
            "served": warm.served,
            "corrupt_quarantined": warm.health.corrupt_quarantined,
            "repairs": warm.health.repairs,
            "repairs_bit_identical": warm.health.repairs_bit_identical,
            "evictions": warm.health.evictions,
        }),
    }));
    ChurnResult {
        jobs: jobs.len() as u64 + 1,
        payloads,
        replayed,
        quarantine,
        cold,
        warm,
        disk_faults: disk.injected(),
        aggregate,
        seconds,
    }
}

fn main() {
    let options = CliOptions::parse_or_exit();
    let quick = options.quick;

    let shards = if quick { 2 } else { 4 };
    let submitters = if quick { 4 } else { 8 };
    let distinct = if quick { 3 } else { 6 };
    let accesses = if quick { 200 } else { 2_000 };
    let jobs = burst_jobs(distinct, accesses);

    println!("fleet service benchmark ({})", if quick { "quick" } else { "full" });
    println!("\nburst: {submitters} submitters × {distinct} jobs over {shards} shards ...");
    let burst = run_burst(shards, submitters, &jobs);
    let dedup_rate = burst.dedup_hits as f64 / burst.submissions as f64;
    let throughput = burst.submissions as f64 / burst.seconds;
    println!(
        "  {} submissions in {:.3} s ({throughput:.0}/s), {} executed, \
         {} deduplicated (rate {dedup_rate:.2})",
        burst.submissions, burst.seconds, burst.executed, burst.dedup_hits,
    );

    println!("\nkill-recovery: GA run killed after generation 4, lease {KILL_LEASE:?} ...");
    let ga = GaConfig {
        population: if quick { 8 } else { 16 },
        generations: if quick { 10 } else { 16 },
        seed: 42,
        workers: 1,
        ..GaConfig::default()
    };
    let kill_workload = micro::line_bursts(2, 4, if quick { 60 } else { 240 });
    let kill = run_kill_recovery(&kill_workload, &ga);
    println!(
        "  recovered in {:.3} s: {} reclaims, {} checkpoint resume(s), \
         {} stale completion(s), bit-identical: {}",
        kill.seconds, kill.reclaims, kill.resumed, kill.stale_completions, kill.bit_identical,
    );

    println!("\nreplay: second fleet over the same persistent store ...");
    let replay = run_replay(&jobs);
    println!(
        "  {} store hits, {} executions, bit-identical: {}",
        replay.store_hits, replay.executed, replay.bit_identical,
    );

    println!(
        "\nchurn: kills + poison + disk faults + bit rot over a budgeted mirror, \
         lease {CHURN_LEASE:?}, attempt budget {CHURN_ATTEMPTS} ..."
    );
    let churn_accesses = if quick { 200 } else { 1_000 };
    let churn = run_churn(1, churn_accesses);
    let churn_repeat = run_churn(2, churn_accesses);
    let churn_identical = churn.aggregate == churn_repeat.aggregate;
    let lost = churn.jobs - churn.payloads.len() as u64 - churn.quarantine.len() as u64;
    println!(
        "  {:.3} s + {:.3} s: {} jobs, {} lost, {} reclaims, {} kill(s), \
         quarantined after {} attempts, {} disk fault(s) absorbed, \
         {} + {} evictions, {} repair(s) (bit-identical {}), runs identical: {churn_identical}",
        churn.seconds,
        churn_repeat.seconds,
        churn.jobs,
        lost,
        churn.cold.health.reclaims,
        churn.cold.crashed,
        churn.quarantine[0].1,
        churn.disk_faults,
        churn.cold.health.evictions,
        churn.warm.health.evictions,
        churn.warm.health.repairs,
        churn.warm.health.repairs_bit_identical,
    );
    assert_eq!(churn.payloads, churn.replayed, "the warm phase reproduces every payload");

    let report = json!({
        "quick": quick,
        "shards": shards as u64,
        "lease_ms": u64::try_from(KILL_LEASE.as_millis()).expect("small lease"),
        "burst": json!({
            "submissions": burst.submissions,
            "distinct_jobs": burst.distinct,
            "executed": burst.executed,
            "dedup_hits": burst.dedup_hits,
            "dedup_rate": dedup_rate,
            "seconds": burst.seconds,
            "submissions_per_sec": throughput,
        }),
        "kill_recovery": json!({
            "reclaims": kill.reclaims,
            "resumed": kill.resumed,
            "stale_completions": kill.stale_completions,
            "bit_identical": kill.bit_identical,
            "seconds": kill.seconds,
        }),
        "replay": json!({
            "store_hits": replay.store_hits,
            "executed": replay.executed,
            "bit_identical": replay.bit_identical,
        }),
        "churn": json!({
            "jobs": churn.jobs,
            "lost": lost,
            "runs_identical": churn_identical,
            "kills": churn.cold.crashed,
            "quarantine": churn.quarantine
                .iter()
                .map(|(fp, attempts, worker)| json!({
                    "fingerprint": fp, "attempts": *attempts, "worker": *worker,
                }))
                .collect::<Vec<serde_json::Value>>(),
            "disk_faults_injected": churn.disk_faults,
            "cold_executed": churn.cold.executed,
            "cold_served": churn.cold.served,
            "warm_executed": churn.warm.executed,
            "warm_served": churn.warm.served,
            "cold_health": churn.cold.health.to_json(),
            "warm_health": churn.warm.health.to_json(),
            "seconds": json!({ "run1": churn.seconds, "run2": churn_repeat.seconds }),
        }),
    });
    ReportWriter::new(&FLEET).write_or_exit(options.json.as_deref(), report);
}
