//! End-to-end and per-layer benchmark of the CoHoRT reproduction.
//!
//! Three workloads, each run in its own process (see `README.md`):
//! `paper_sweep` (Fig. 5/6 cells: GA timer search, 4-protocol sweep,
//! soundness check), `sim_sparse` (64-core DRAM-bound simulations) and
//! `fleet_memo` (fleet jobs from submit to wait over a persistent memo
//! store). The untraced run reports the end-to-end metrics; the traced run
//! times the benchmark's own calls into each layer and reports the
//! per-layer metrics.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod host;
pub mod paper;
pub mod sparse;
pub mod tracing;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cohort_types::{Fingerprint, FingerprintBuilder};

use crate::tracing::{Span, Tracer};

/// How many leading results of a run feed its output digest. Every run
/// completes far more than this, so traced and untraced runs of one seed
/// digest the same requests.
pub const DIGEST_REQUESTS: usize = 6;

/// How many leading inputs feed the request-stream fingerprint.
pub const STREAM_REQUESTS: u64 = 6;

/// The end-to-end metrics, reported by the untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("results_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, reported by the traced run. A layer the
/// workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("trace.generate_ms", "ms"),
    ("analysis.reference_ms", "ms"),
    ("analysis.bounds_ms", "ms"),
    ("analysis.cache_hit_ratio", "ratio"),
    ("optim.ga_ms", "ms"),
    ("optim.evaluations", "count"),
    ("optim.memo_hit_ratio", "ratio"),
    ("cohort.sweep_ms", "ms"),
    ("cohort.worker_busy_frac", "ratio"),
    ("sim.build_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.accesses_per_s", "1/s"),
    ("sim.ns_per_access", "ns"),
    ("sim.cycles_simulated", "cycles"),
    ("sim.hits", "count"),
    ("sim.misses", "count"),
    ("fleet.open_scan_ms", "ms"),
    ("fleet.fingerprint_us", "us"),
    ("fleet.submit_us.cached", "us"),
    ("fleet.submit_us.inflight", "us"),
    ("fleet.submit_us.fresh", "us"),
    ("fleet.wait_us.cached", "us"),
    ("fleet.wait_us.inflight", "us"),
    ("fleet.wait_us.fresh", "us"),
    ("fleet.disk.read_us", "us"),
    ("fleet.disk.write_us", "us"),
    ("fleet.disk.rename_us", "us"),
    ("fleet.disk.remove_us", "us"),
    ("fleet.disk.read_calls", "count"),
    ("fleet.disk.write_calls", "count"),
    ("fleet.disk.rename_calls", "count"),
    ("fleet.disk.remove_calls", "count"),
    ("fleet.dedup_ratio", "ratio"),
    ("fleet.executed", "count"),
    ("fleet.evictions", "count"),
    ("fleet.disk_retries", "count"),
    ("fleet.disk_give_ups", "count"),
    ("self_ms.bench", "ms"),
    ("self_ms.trace", "ms"),
    ("self_ms.analysis", "ms"),
    ("self_ms.optim", "ms"),
    ("self_ms.cohort", "ms"),
    ("self_ms.sim", "ms"),
    ("self_ms.fleet", "ms"),
    ("tracing.overhead_frac", "ratio"),
    ("traced.results_per_s", "1/s"),
    ("untraced.results_per_s", "1/s"),
    ("measured.results_per_s", "1/s"),
    ("measured.latency_p50_ms", "ms"),
];

/// Named metric values (name → value).
pub type Metrics = BTreeMap<&'static str, f64>;

/// splitmix64: derives independent, well-mixed seeds from one seed.
#[must_use]
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Median of `values` (0 when empty); sorts in place.
#[must_use]
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values` (0 when empty); sorts in
/// place.
#[must_use]
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = q * (values.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

/// Least time between two host-speed probes of a timed phase.
const PROBE_EVERY: Duration = Duration::from_millis(250);

/// What one phase of a run measured and checked.
///
/// Times are recorded twice: as measured, and scaled to the nominal host
/// by the most recent host-speed probe (see [`host`]). The end-to-end
/// metrics report the scaled figures; the record line and the traced run
/// report the measured ones too.
#[derive(Debug)]
pub struct Recorder {
    budget: Duration,
    started: Instant,
    /// Threads each host-speed probe runs on.
    threads: usize,
    /// Nominal probe time over the latest probe: multiplies a measured time
    /// into a nominal-host time.
    scale: f64,
    last_probe: Instant,
    /// Every probe taken, in milliseconds.
    pub probes_ms: Vec<f64>,
    /// Latency of every timed result on the nominal host, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// The same latencies as measured.
    pub raw_latencies_ms: Vec<f64>,
    /// Nominal-host time spent serving timed requests, in seconds (the
    /// results-per-second base).
    pub busy_s: f64,
    /// The same time as measured.
    pub raw_busy_s: f64,
    /// Checks made: one per timed request plus the set-up checks.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    failed_results: u64,
    digest: FingerprintBuilder,
    digested: usize,
}

impl Recorder {
    /// A recorder whose timed phase may run for `budget` once started and
    /// whose host probes run on one thread.
    #[must_use]
    pub fn new(budget: Duration) -> Self {
        Recorder {
            budget,
            started: Instant::now(),
            threads: 1,
            scale: 1.0,
            last_probe: Instant::now(),
            probes_ms: Vec::new(),
            latencies_ms: Vec::new(),
            raw_latencies_ms: Vec::new(),
            busy_s: 0.0,
            raw_busy_s: 0.0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            failed_results: 0,
            digest: Fingerprint::builder(),
            digested: 0,
        }
    }

    /// Runs every host probe on `threads` threads (see
    /// [`Workload::threads`]).
    #[must_use]
    pub fn probe_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Probes the host's speed now; later times are scaled by it. A probe
    /// that fails is a failed check, and the previous scale stays.
    pub fn probe(&mut self) {
        match host::probe_ms(self.threads) {
            Ok(ms) => {
                self.probes_ms.push(ms);
                self.scale = host::NOMINAL_PROBE_MS / ms;
            }
            Err(message) => self.check(false, || message),
        }
        self.last_probe = Instant::now();
    }

    /// Probes the host's speed if the last probe is [`PROBE_EVERY`] old.
    /// Call it between requests, never while one is outstanding.
    pub fn pace(&mut self) {
        if self.last_probe.elapsed() >= PROBE_EVERY {
            self.probe();
        }
    }

    /// `measured` on the nominal host, in seconds.
    #[must_use]
    pub fn nominal_s(&self, measured: Duration) -> f64 {
        measured.as_secs_f64() * self.scale
    }

    /// Probes the host and starts the timed phase's clock. Probes taken
    /// later add to the budget's wall time but not to the busy time.
    pub fn start(&mut self) {
        self.probe();
        self.started = Instant::now();
    }

    /// Whether the timed phase has used its budget.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.started.elapsed() >= self.budget
    }

    /// Counts one check that is not a timed request.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }

    /// Adds time spent serving timed requests.
    pub fn add_busy(&mut self, measured: Duration) {
        self.busy_s += self.nominal_s(measured);
        self.raw_busy_s += measured.as_secs_f64();
    }

    /// Records one timed request: its latency and its checked output
    /// digest (or why its check failed).
    pub fn result(&mut self, latency: Duration, output: Result<Fingerprint, String>) {
        self.attempted += 1;
        self.latencies_ms.push(self.nominal_s(latency) * 1e3);
        self.raw_latencies_ms.push(latency.as_secs_f64() * 1e3);
        match output {
            Ok(fp) if self.digested < DIGEST_REQUESTS => {
                self.digest = self.digest.clone().fingerprint(fp.get());
                self.digested += 1;
            }
            Ok(_) => {}
            Err(message) => {
                self.failed_results += 1;
                self.fail(message);
            }
        }
    }

    /// Adds `other`'s checks and failures to this recorder's.
    pub fn merge_checks(&mut self, other: &Recorder) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 5usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.iter().take(room).cloned());
    }

    /// Digest of the first [`DIGEST_REQUESTS`] outputs.
    #[must_use]
    pub fn output_digest(&self) -> Fingerprint {
        self.digest.clone().u64(self.digested as u64).finish()
    }

    fn checked_results(&self) -> f64 {
        (self.latencies_ms.len() as u64 - self.failed_results) as f64
    }

    /// Checked results completed per second of nominal-host busy time.
    #[must_use]
    pub fn results_per_s(&self) -> f64 {
        self.checked_results() / self.busy_s
    }

    /// Checked results completed per second of measured busy time.
    #[must_use]
    pub fn raw_results_per_s(&self) -> f64 {
        self.checked_results() / self.raw_busy_s
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Fingerprint of the first [`STREAM_REQUESTS`] inputs the workload
    /// generates from `seed`.
    fn stream_fingerprint(&self, seed: u64) -> Fingerprint;

    /// Threads the workload keeps busy at once; the host probe runs on as
    /// many.
    fn threads(&self) -> usize {
        1
    }

    /// Builds fresh state and runs the fixed warm-up; set-up checks go to
    /// `rec`. Everything this does counts as set-up time.
    fn setup(&mut self, rec: &mut Recorder);

    /// Runs the timed phase from the first request of the stream until
    /// `rec` expires.
    fn run(&mut self, rec: &mut Recorder, tracer: Option<&Tracer>);

    /// Per-layer metrics from a traced phase's spans and the workload's
    /// own counters.
    fn layer_metrics(&self, spans: &[Span], out: &mut Metrics);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn recorder_counts_failures_against_attempts() {
        let mut rec = Recorder::new(Duration::from_secs(1));
        rec.result(Duration::from_millis(2), Ok(Fingerprint::from_raw(1)));
        rec.result(Duration::from_millis(4), Err("bad".into()));
        rec.check(false, || "setup".into());
        rec.add_busy(Duration::from_secs(1));
        assert_eq!((rec.attempted, rec.failed), (3, 2));
        assert_eq!(rec.results_per_s(), 1.0);
        assert_eq!(rec.failures, ["bad", "setup"]);
    }

    #[test]
    fn request_streams_are_pure_functions_of_the_seed() {
        let workloads: [Box<dyn Workload>; 3] = [
            Box::new(paper::PaperSweep::new(1, 40)),
            Box::new(sparse::SimSparse::new(1, 300)),
            Box::new(fleet::FleetMemo::new(1, 400)),
        ];
        for w in &workloads {
            assert_eq!(w.stream_fingerprint(7), w.stream_fingerprint(7));
            assert_ne!(w.stream_fingerprint(7), w.stream_fingerprint(8));
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|(name, _)| *name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
