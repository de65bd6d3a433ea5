//! `fleet_memo`: the fleet path, one job from `submit` until `wait`
//! returns. A windowed closed loop keeps [`WINDOW`] tickets outstanding
//! against a 1-shard fleet whose store is mirrored to a directory bounded
//! by a [`StoreBudget`]. Requests come in groups of three:
//!
//! - a fresh job: one paper kernel under CoHoRT at a small scale. It
//!   executes, is written atomically to the mirror and evicts the oldest
//!   entry;
//! - a memo hit: the fresh job at the same position of the previous epoch,
//!   read from disk and integrity-checked;
//! - a duplicate of the group's fresh job, submitted while that job is in
//!   flight, which takes in-flight dedup.
//!
//! Each epoch of [`EPOCH`] groups opens a fleet over the same directory and
//! shuts it down once drained; opening and shutting down are not part of
//! the timed requests. The queue keeps every job it has seen, so epochs
//! bound memory, and they make each epoch's memo hits real disk reads.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cohort::Protocol;
use cohort_bench::{CritConfig, CORES};
use cohort_fleet::{
    payload_fingerprint, Disk, Fleet, FleetClient, JobSpec, StoreBudget, SystemDisk, Ticket,
};
use cohort_trace::{Kernel, KernelSpec};
use cohort_types::{Fingerprint, TimerValue};

use crate::tracing::{durations_ms, span, Span, Tracer, NO_REQUEST};
use crate::{median, mix, Metrics, Recorder, STREAM_REQUESTS};

/// Tickets outstanding at once.
const WINDOW: usize = 4;

/// Groups of three requests per epoch.
pub const EPOCH: usize = 32;

/// Mirror entries kept beyond one epoch's fresh results, so an entry is
/// evicted only after the next epoch has read it.
const MARGIN: usize = 8;

/// Requests (summed over the four cores) of every fresh job's kernel trace.
pub const FRESH_REQUESTS: u64 = 8_000;

/// The longest a wait may take before it counts as a failure.
const WAIT: Duration = Duration::from_secs(60);

/// The criticality configuration every job runs under.
const CONFIG: CritConfig = CritConfig::TwoCrTwoNcr;

/// Epoch index of the warm-up epoch's seed stream (no timed epoch reaches
/// it). Its fresh jobs are the first timed epoch's memo hits.
const WARMUP_EPOCH: u64 = u64::MAX - 1;

/// Where the store directories live, relative to the working directory.
const STORE_ROOT: &str = ".perfbench-out";

/// Per timed disk verb: its metric names (median µs, call count).
const DISK_METRICS: [(&str, &str); 4] = [
    ("fleet.disk.read_us", "fleet.disk.read_calls"),
    ("fleet.disk.write_us", "fleet.disk.write_calls"),
    ("fleet.disk.rename_us", "fleet.disk.rename_calls"),
    ("fleet.disk.remove_us", "fleet.disk.remove_calls"),
];

/// Per-layer metric names and the spans they are the median of, in µs.
const SPAN_METRICS_US: [(&str, &str); 7] = [
    ("fleet.fingerprint_us", "fleet.fingerprint"),
    ("fleet.submit_us.cached", "fleet.submit.cached"),
    ("fleet.submit_us.inflight", "fleet.submit.inflight"),
    ("fleet.submit_us.fresh", "fleet.submit.fresh"),
    ("fleet.wait_us.cached", "fleet.wait.cached"),
    ("fleet.wait_us.inflight", "fleet.wait.inflight"),
    ("fleet.wait_us.fresh", "fleet.wait.fresh"),
];

/// A [`Disk`] that times every read, write, rename and remove of the
/// mirror and passes each on to the real filesystem.
#[derive(Debug, Default)]
struct TimingDisk {
    inner: SystemDisk,
    /// Per verb, in [`DISK_METRICS`] order: each call's duration in ns.
    ns: Mutex<[Vec<u64>; 4]>,
}

impl TimingDisk {
    fn timed<T>(&self, verb: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ns.lock().expect("no thread panics while holding the timings")[verb].push(ns);
        out
    }
}

impl Disk for TimingDisk {
    fn create_dir_all(&self, path: &Path) -> Result<(), String> {
        self.inner.create_dir_all(path)
    }

    fn read_to_string(&self, path: &Path) -> Result<String, String> {
        self.timed(0, || self.inner.read_to_string(path))
    }

    fn write(&self, path: &Path, contents: &str) -> Result<(), String> {
        self.timed(1, || self.inner.write(path, contents))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), String> {
        self.timed(2, || self.inner.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> Result<(), String> {
        self.timed(3, || self.inner.remove_file(path))
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, String> {
        self.inner.list(dir)
    }
}

/// Fleet counters summed over the epochs of a timed phase.
#[derive(Debug, Default)]
struct Totals {
    submitted: u64,
    deduplicated: u64,
    executed: u64,
    evictions: u64,
    disk_retries: u64,
    disk_give_ups: u64,
}

/// One submitted request awaiting its wait.
struct Pending {
    request: u64,
    submitted: Instant,
    ticket: Result<Ticket, String>,
    /// The wait span's name, by how the submission was answered.
    wait_span: &'static str,
}

/// The `fleet_memo` workload.
#[derive(Debug)]
pub struct FleetMemo {
    seed: u64,
    requests: u64,
    dir: PathBuf,
    /// The fresh jobs of the previous epoch: this epoch's memo hits.
    previous: Vec<JobSpec>,
    /// Fingerprint of the first payload seen for each job.
    payloads: BTreeMap<Fingerprint, Fingerprint>,
    totals: Totals,
    /// The timing disk of a traced phase.
    disk: Option<Arc<TimingDisk>>,
}

impl FleetMemo {
    /// The workload for `seed`, with fresh kernel traces of `requests`
    /// requests.
    #[must_use]
    pub fn new(seed: u64, requests: u64) -> Self {
        FleetMemo {
            seed,
            requests,
            dir: Path::new(STORE_ROOT).join(format!("fleet-{}", std::process::id())),
            previous: Vec::new(),
            payloads: BTreeMap::new(),
            totals: Totals::default(),
            disk: None,
        }
    }

    /// The fresh job of group `group` in `epoch`.
    fn fresh(&self, seed: u64, epoch: u64, group: u64) -> JobSpec {
        let kernel = Kernel::ALL[(group % Kernel::ALL.len() as u64) as usize];
        let workload = KernelSpec::new(kernel, CORES)
            .with_total_requests(self.requests)
            .with_seed(mix(mix(seed, epoch), group))
            .generate();
        let timers = CONFIG
            .critical_mask()
            .iter()
            .map(|&c| if c { TimerValue::timed(20).expect("nonzero") } else { TimerValue::MSI })
            .collect();
        JobSpec::Experiment {
            spec: CONFIG.spec(),
            protocol: Protocol::Cohort { timers },
            workload: Arc::new(workload),
        }
    }

    fn epoch_jobs(&self, epoch: u64) -> Vec<JobSpec> {
        (0..EPOCH as u64).map(|g| self.fresh(self.seed, epoch, g)).collect()
    }

    fn open(&self, disk: Option<Arc<TimingDisk>>) -> Result<Fleet, String> {
        let budget = StoreBudget { max_entries: Some(EPOCH + MARGIN), max_bytes: None };
        let mut builder = Fleet::builder().shards(1).store_dir(&self.dir).store_budget(budget);
        if let Some(disk) = disk {
            builder = builder.disk(disk);
        }
        builder.build().map_err(|e| format!("cannot open the fleet: {e}"))
    }

    /// Checks one payload: no job error, and bit-identical to the first
    /// payload seen for its job.
    fn check_payload(
        &mut self,
        job: Fingerprint,
        payload: cohort_types::Result<serde_json::Value>,
    ) -> Result<Fingerprint, String> {
        let payload = payload.map_err(|e| format!("job {job}: wait failed: {e}"))?;
        if let Some(error) = payload.get("error") {
            return Err(format!("job {job} failed: {error}"));
        }
        let fp = payload_fingerprint(&payload);
        let first = *self.payloads.entry(job).or_insert(fp);
        if first == fp {
            Ok(fp)
        } else {
            Err(format!("job {job}: payload {fp} differs from the first one seen, {first}"))
        }
    }

    /// Submits one job. When tracing, times the fingerprint and the submit,
    /// and returns the wait span's name, chosen by how the submission was
    /// answered: from the store (`Ticket::cached`), by in-flight dedup (the
    /// queue's dedup count moved; there is one submitter) or as a new job.
    fn submit(
        fleet: &Fleet,
        client: &FleetClient,
        job: JobSpec,
        tracer: Option<&Tracer>,
        request: u64,
    ) -> (Result<Ticket, String>, &'static str) {
        let Some(t) = tracer else {
            return (client.submit(job).map_err(|e| format!("submit failed: {e}")), "");
        };
        let _fingerprint = t.time("fleet.fingerprint", None, request, |_| job.fingerprint());
        let deduplicated = fleet.stats().queue.deduplicated;
        let start = Instant::now();
        let ticket = client.submit(job);
        let end = Instant::now();
        let (submit, wait) = match &ticket {
            Ok(ticket) if ticket.cached => ("fleet.submit.cached", "fleet.wait.cached"),
            Ok(_) if fleet.stats().queue.deduplicated > deduplicated => {
                ("fleet.submit.inflight", "fleet.wait.inflight")
            }
            _ => ("fleet.submit.fresh", "fleet.wait.fresh"),
        };
        t.push(t.reserve(), submit, start, end, None, request);
        (ticket.map_err(|e| format!("submit failed: {e}")), wait)
    }

    /// Serves one epoch: each fresh job, the previous epoch's job at its
    /// position and the fresh job again, until the epoch ends or `rec`
    /// expires. Returns the number of fresh jobs submitted.
    fn serve(
        &mut self,
        fleet: &Fleet,
        fresh: &[JobSpec],
        rec: &mut Recorder,
        tracer: Option<&Tracer>,
        index: &mut u64,
    ) -> u64 {
        let client = fleet.client();
        let mut window: VecDeque<Pending> = VecDeque::with_capacity(WINDOW);
        let mut next = 0;
        let mut submitted_fresh = 0;
        let started = Instant::now();
        loop {
            while window.len() < WINDOW && next < 3 * fresh.len() && !rec.expired() {
                let (group, part) = (next / 3, next % 3);
                let job = if part == 1 { &self.previous[group] } else { &fresh[group] };
                submitted_fresh += u64::from(part == 0);
                let request = *index;
                let submitted = Instant::now();
                let (ticket, wait_span) =
                    Self::submit(fleet, &client, job.clone(), tracer, request);
                window.push_back(Pending { request, submitted, ticket, wait_span });
                *index += 1;
                next += 1;
            }
            let Some(p) = window.pop_front() else { break };
            let out = match p.ticket {
                Ok(ticket) => {
                    let payload = span(tracer, p.wait_span, None, p.request, |_| {
                        client.wait_timeout(&ticket, WAIT)
                    });
                    self.check_payload(ticket.fingerprint, payload)
                }
                Err(message) => Err(message),
            };
            rec.result(p.submitted.elapsed(), out);
        }
        rec.add_busy(started.elapsed());
        submitted_fresh
    }

    /// Shuts an epoch's fleet down and checks it: every fresh job executed
    /// exactly once, nothing quarantined, no mirror write given up.
    fn close(&mut self, fleet: Fleet, fresh: u64, rec: &mut Recorder) {
        let quarantines = fleet.quarantines().len();
        let stats = fleet.shutdown();
        let health = stats.health;
        rec.check(stats.executed == fresh, || {
            format!("the fleet executed {} jobs for {fresh} distinct fresh ones", stats.executed)
        });
        rec.check(quarantines == 0, || format!("{quarantines} jobs were quarantined"));
        rec.check(health.disk_give_ups == 0, || {
            format!("{} mirror writes were given up", health.disk_give_ups)
        });
        let t = &mut self.totals;
        t.submitted += stats.queue.submitted;
        t.deduplicated += stats.queue.deduplicated;
        t.executed += stats.executed;
        t.evictions += health.evictions;
        t.disk_retries += health.disk_retries;
        t.disk_give_ups += health.disk_give_ups;
    }
}

impl Drop for FleetMemo {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

impl crate::Workload for FleetMemo {
    fn stream_fingerprint(&self, seed: u64) -> Fingerprint {
        let mut b = Fingerprint::builder();
        for index in 0..STREAM_REQUESTS {
            let (group, part) = (index / 3, index % 3);
            let epoch = if part == 1 { WARMUP_EPOCH } else { 0 };
            let JobSpec::Experiment { workload, .. } = self.fresh(seed, epoch, group) else {
                unreachable!("fresh jobs are experiments")
            };
            b = b.u64(part);
            for trace in workload.traces() {
                b = b.fingerprint(trace.fingerprint());
            }
        }
        b.finish()
    }

    /// A fresh store directory, filled by a warm-up epoch of fresh jobs
    /// and their duplicates: the first timed epoch's memo hits.
    fn setup(&mut self, rec: &mut Recorder) {
        std::fs::remove_dir_all(&self.dir).ok();
        self.previous = self.epoch_jobs(WARMUP_EPOCH);
        self.payloads.clear();
        self.disk = None;
        let fleet = match self.open(None) {
            Ok(fleet) => fleet,
            Err(message) => return rec.check(false, || message),
        };
        let client = fleet.client();
        let mut failures = Vec::new();
        for job in self.previous.clone() {
            let tickets = [client.submit(job.clone()), client.submit(job)];
            for ticket in tickets {
                let out = ticket.map_err(|e| format!("submit failed: {e}")).and_then(|t| {
                    let payload = client.wait_timeout(&t, WAIT);
                    self.check_payload(t.fingerprint, payload)
                });
                failures.extend(out.err());
            }
        }
        rec.check(failures.is_empty(), || format!("warm-up: {failures:?}"));
        self.close(fleet, EPOCH as u64, rec);
        self.totals = Totals::default();
    }

    fn run(&mut self, rec: &mut Recorder, tracer: Option<&Tracer>) {
        if tracer.is_some() {
            self.disk = Some(Arc::new(TimingDisk::default()));
        }
        rec.start();
        let mut index = 0;
        let mut epoch = 0;
        while !rec.expired() {
            rec.pace();
            let fresh = self.epoch_jobs(epoch);
            let disk = self.disk.clone();
            let fleet = match span(tracer, "fleet.open", None, NO_REQUEST, |_| self.open(disk)) {
                Ok(fleet) => fleet,
                Err(message) => return rec.check(false, || message),
            };
            let submitted = self.serve(&fleet, &fresh, rec, tracer, &mut index);
            self.close(fleet, submitted, rec);
            self.previous = fresh;
            epoch += 1;
        }
    }

    fn layer_metrics(&self, spans: &[Span], out: &mut Metrics) {
        out.insert("fleet.open_scan_ms", median(&mut durations_ms(spans, "fleet.open")));
        for (metric, name) in SPAN_METRICS_US {
            out.insert(metric, median(&mut durations_ms(spans, name)) * 1e3);
        }
        if let Some(disk) = &self.disk {
            let ns = disk.ns.lock().expect("no thread panics while holding the timings");
            for (&(us, calls), samples) in DISK_METRICS.iter().zip(ns.iter()) {
                let mut durations: Vec<f64> = samples.iter().map(|&n| n as f64 / 1e3).collect();
                out.insert(us, median(&mut durations));
                out.insert(calls, samples.len() as f64);
            }
        }
        let t = &self.totals;
        let ratio = if t.submitted > 0 { t.deduplicated as f64 / t.submitted as f64 } else { 0.0 };
        out.insert("fleet.dedup_ratio", ratio);
        out.insert("fleet.executed", t.executed as f64);
        out.insert("fleet.evictions", t.evictions as f64);
        out.insert("fleet.disk_retries", t.disk_retries as f64);
        out.insert("fleet.disk_give_ups", t.disk_give_ups as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload as _;

    #[test]
    fn traced_and_untraced_runs_digest_identically() {
        let mut memo = FleetMemo::new(13, 400);
        memo.dir = Path::new(STORE_ROOT).join(format!("fleet-test-{}", std::process::id()));
        let tracer = Tracer::new();
        let mut plain = Recorder::new(Duration::from_millis(300));
        let mut traced = Recorder::new(Duration::from_millis(300));
        memo.setup(&mut plain);
        memo.run(&mut plain, None);
        memo.setup(&mut traced);
        memo.run(&mut traced, Some(&tracer));
        assert_eq!(
            (plain.failed, traced.failed),
            (0, 0),
            "{:?} {:?}",
            plain.failures,
            traced.failures
        );
        assert_eq!(plain.output_digest(), traced.output_digest());
        let mut metrics = Metrics::new();
        memo.layer_metrics(&tracer.spans(), &mut metrics);
        assert!(metrics["fleet.executed"] > 0.0);
        assert!(metrics["fleet.disk.write_calls"] > 0.0);
        assert!(metrics["fleet.disk.read_calls"] > 0.0, "memo hits read the mirror");
        assert!(metrics["fleet.submit_us.inflight"] > 0.0, "duplicates ride in-flight jobs");
    }
}
