//! [`MetricsProbe`]: distributional run metrics built on the probe API.
//!
//! The paper's claims are distributional — per-request latencies against
//! the Eq. 1 bound (Figure 5), bus interference under heterogeneous θ,
//! mode-switch degradation — while [`SimStats`] only carries scalars. This
//! probe derives, in one streaming pass:
//!
//! - per-core **log2-bucketed latency histograms** (p50 / p99 / max /
//!   mean) over every completed request, hits included;
//! - the **Eq. 1 analytical bound** per core ([`wcl_miss`], the one
//!   definition the analysis crate re-exports) and whether the observed
//!   maximum respects it;
//! - per-core **bus occupancy** and tenure counts, plus arbitration
//!   grant/stall counters per arbiter slot;
//! - per-core **timer occupancy**: how many timer-protected lines the
//!   core holds over time (cycle-weighted average and peak);
//! - the **mode-switch** count.
//!
//! # Examples
//!
//! ```
//! use cohort_sim::{MetricsProbe, SimBuilder, SimConfig};
//! use cohort_trace::micro;
//! use cohort_types::TimerValue;
//!
//! let config = SimConfig::builder(2).timer(0, TimerValue::timed(30)?).build()?;
//! let workload = micro::ping_pong(2, 6);
//! let mut probe = MetricsProbe::new();
//! let mut sim = SimBuilder::new(config, &workload).probe(&mut probe).build()?;
//! let stats = sim.run()?;
//! let report = probe.report();
//! assert_eq!(report.cores[0].latency.count(), stats.cores[0].accesses());
//! assert!(report.bound_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeSet;

use cohort_types::{wcl_miss, Cycles, LineAddr, TimerValue};

use crate::event::EventKind;
use crate::probe::{BusTenure, SimProbe};
use crate::{ArbiterKind, DataPath, SimConfig, SimStats};

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds `[2^(i-1), 2^i)`, up to the full `u64` range.
const BUCKETS: usize = 65;

/// A log2-bucketed latency histogram.
///
/// Recording is O(1) (a `leading_zeros` and an increment); quantiles are
/// read from the bucket boundaries and clamped to the observed maximum,
/// so a reported p99 never exceeds the true worst case.
///
/// # Examples
///
/// ```
/// use cohort_sim::LatencyHistogram;
/// use cohort_types::Cycles;
///
/// let mut h = LatencyHistogram::new();
/// for v in [1, 1, 1, 200] {
///     h.record(Cycles::new(v));
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.p50().get(), 1);
/// assert_eq!(h.max().get(), 200);
/// assert!(h.p99() <= h.max());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: vec![0; BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The smallest value a bucket can hold.
    fn bucket_lower(index: usize) -> u64 {
        if index == 0 {
            0
        } else {
            1 << (index - 1)
        }
    }

    /// The largest value a bucket can hold.
    fn bucket_upper(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index == 64 {
            u64::MAX
        } else {
            (1 << index) - 1
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: Cycles) {
        let v = value.get();
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The largest recorded observation (exact, not bucketed).
    #[must_use]
    pub fn max(&self) -> Cycles {
        Cycles::new(self.max)
    }

    /// Arithmetic mean of the observations (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper estimate of the `q`-quantile (`q` in `[0, 1]`): the upper
    /// boundary of the bucket containing it, clamped to the exact maximum.
    /// Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Cycles {
        if self.count == 0 {
            return Cycles::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Cycles::new(Self::bucket_upper(index).min(self.max));
            }
        }
        Cycles::new(self.max)
    }

    /// The median (upper-bucket estimate, clamped to the maximum).
    #[must_use]
    pub fn p50(&self) -> Cycles {
        self.quantile(0.50)
    }

    /// The 99th percentile (upper-bucket estimate, clamped to the maximum).
    #[must_use]
    pub fn p99(&self) -> Cycles {
        self.quantile(0.99)
    }

    /// Iterates over the non-empty buckets as `(lower, upper, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_lower(i), Self::bucket_upper(i), n))
    }
}

/// Per-core slice of a [`MetricsReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoreMetrics {
    /// Latency of every completed request (hits and misses).
    pub latency: LatencyHistogram,
    /// The Eq. 1 analytical worst-case miss latency, when the configuration
    /// is analysable (RROF arbitration, direct data path, one MSHR);
    /// `None` otherwise. Computed from the *initial* timer registers —
    /// after a mode switch it describes the pre-switch mode.
    pub wcl_bound: Option<u64>,
    /// Bus cycles of tenures granted to this core.
    pub bus_busy: u64,
    /// Number of bus tenures granted to this core.
    pub tenures: u64,
    /// Arbitration rounds this core won.
    pub grants: u64,
    /// Arbitration rounds this core lost while holding a ready candidate
    /// (its arbiter slot was passed over).
    pub stalls: u64,
    /// Peak number of simultaneously timer-protected lines the core held.
    pub timer_occupancy_max: u64,
    /// Cycle-weighted average number of timer-protected lines held.
    pub timer_occupancy_avg: f64,
}

impl CoreMetrics {
    /// Whether the observed worst request respects the Eq. 1 bound
    /// (vacuously true without a bound).
    #[must_use]
    pub fn bound_ok(&self) -> bool {
        self.wcl_bound.is_none_or(|b| self.latency.max().get() <= b)
    }
}

/// The final output of a [`MetricsProbe`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Cycles the shared bus was occupied.
    pub bus_busy: u64,
    /// Number of timer-register re-programmings observed.
    pub mode_switches: u64,
    /// Per-core metrics, indexed by core.
    pub cores: Vec<CoreMetrics>,
}

impl MetricsReport {
    /// Shared-bus utilisation in `[0, 1]`.
    #[must_use]
    pub fn bus_utilisation(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.bus_busy as f64 / self.cycles as f64
        }
    }

    /// Whether every core's observed worst request respects its Eq. 1
    /// bound. Only meaningful when no mode switch occurred (the bounds
    /// describe the initial mode).
    #[must_use]
    pub fn bound_ok(&self) -> bool {
        self.cores.iter().all(CoreMetrics::bound_ok)
    }

    /// Serializes the report as a JSON value (hand-built, so it works
    /// under any `serde_json` with the `Value` API).
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let mut root = serde_json::Map::new();
        root.insert("cycles".into(), serde_json::Value::from(self.cycles));
        root.insert("bus_busy".into(), serde_json::Value::from(self.bus_busy));
        root.insert("bus_utilisation".into(), serde_json::Value::from(self.bus_utilisation()));
        root.insert("mode_switches".into(), serde_json::Value::from(self.mode_switches));
        let cores: Vec<serde_json::Value> = self
            .cores
            .iter()
            .map(|core| {
                let mut c = serde_json::Map::new();
                c.insert("accesses".into(), serde_json::Value::from(core.latency.count()));
                c.insert("latency_p50".into(), serde_json::Value::from(core.latency.p50().get()));
                c.insert("latency_p99".into(), serde_json::Value::from(core.latency.p99().get()));
                c.insert("latency_max".into(), serde_json::Value::from(core.latency.max().get()));
                c.insert("latency_mean".into(), serde_json::Value::from(core.latency.mean()));
                let bound = match core.wcl_bound {
                    Some(b) => serde_json::Value::from(b),
                    None => serde_json::Value::Null,
                };
                c.insert("wcl_bound".into(), bound);
                c.insert("bound_ok".into(), serde_json::Value::from(core.bound_ok()));
                c.insert("bus_busy".into(), serde_json::Value::from(core.bus_busy));
                c.insert("tenures".into(), serde_json::Value::from(core.tenures));
                c.insert("grants".into(), serde_json::Value::from(core.grants));
                c.insert("stalls".into(), serde_json::Value::from(core.stalls));
                c.insert(
                    "timer_occupancy_max".into(),
                    serde_json::Value::from(core.timer_occupancy_max),
                );
                c.insert(
                    "timer_occupancy_avg".into(),
                    serde_json::Value::from(core.timer_occupancy_avg),
                );
                let buckets: Vec<serde_json::Value> = core
                    .latency
                    .nonzero_buckets()
                    .map(|(lo, hi, n)| {
                        let mut b = serde_json::Map::new();
                        b.insert("lo".into(), serde_json::Value::from(lo));
                        b.insert("hi".into(), serde_json::Value::from(hi));
                        b.insert("count".into(), serde_json::Value::from(n));
                        serde_json::Value::Object(b)
                    })
                    .collect();
                c.insert("histogram".into(), serde_json::Value::from(buckets));
                serde_json::Value::Object(c)
            })
            .collect();
        root.insert("cores".into(), serde_json::Value::from(cores));
        serde_json::Value::Object(root)
    }
}

/// Per-core timer-occupancy tracking state.
#[derive(Debug, Clone, Default)]
struct Occupancy {
    live: BTreeSet<LineAddr>,
    last_update: u64,
    weighted: u128,
    max: u64,
}

impl Occupancy {
    /// Accumulates `live × Δt` up to `cycle` (robust to the near-sorted
    /// event stream: a slightly stale stamp contributes nothing).
    fn advance(&mut self, cycle: u64) {
        let dt = cycle.saturating_sub(self.last_update);
        self.weighted += u128::from(dt) * u128::from(self.live.len() as u64);
        self.last_update = self.last_update.max(cycle);
    }

    fn insert(&mut self, cycle: u64, line: LineAddr) {
        self.advance(cycle);
        self.live.insert(line);
        self.max = self.max.max(self.live.len() as u64);
    }

    fn remove(&mut self, cycle: u64, line: LineAddr) {
        self.advance(cycle);
        self.live.remove(&line);
    }

    fn clear(&mut self, cycle: u64) {
        self.advance(cycle);
        self.live.clear();
    }
}

/// The built-in metrics probe: per-core latency histograms against the
/// Eq. 1 bound ([`wcl_miss`]), bus occupancy, arbitration grants and
/// stalls, timer occupancy and the mode-switch count. Call
/// [`MetricsProbe::report`] (or [`MetricsProbe::into_report`]) after the
/// run.
#[derive(Debug, Clone, Default)]
pub struct MetricsProbe {
    hit_latency: Cycles,
    timers: Vec<TimerValue>,
    latency: Vec<LatencyHistogram>,
    wcl_bounds: Vec<Option<u64>>,
    bus_busy_per_core: Vec<u64>,
    tenures: Vec<u64>,
    grants: Vec<u64>,
    stalls: Vec<u64>,
    occupancy: Vec<Occupancy>,
    mode_switches: u64,
    cycles: u64,
    bus_busy: u64,
}

impl MetricsProbe {
    /// Creates a metrics probe (sized lazily at `on_start`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether Eq. 1 describes this configuration at all: RROF
    /// arbitration, direct cache-to-cache data, one outstanding miss per
    /// core (the assumptions of the paper's analysis).
    pub(crate) fn analysable(config: &SimConfig) -> bool {
        config.arbiter() == &ArbiterKind::Rrof
            && config.data_path() == DataPath::CacheToCache
            && config.mshr_per_core() == 1
    }

    /// Finalises the metrics into a report (the probe can keep running —
    /// e.g. mid-run snapshots — but `cycles` is only final after
    /// `on_finish`).
    #[must_use]
    pub fn report(&self) -> MetricsReport {
        let cores = self
            .latency
            .iter()
            .enumerate()
            .map(|(i, latency)| {
                let occ = &self.occupancy[i];
                let avg =
                    if self.cycles == 0 { 0.0 } else { occ.weighted as f64 / self.cycles as f64 };
                CoreMetrics {
                    latency: latency.clone(),
                    wcl_bound: self.wcl_bounds[i],
                    bus_busy: self.bus_busy_per_core[i],
                    tenures: self.tenures[i],
                    grants: self.grants[i],
                    stalls: self.stalls[i],
                    timer_occupancy_max: occ.max,
                    timer_occupancy_avg: avg,
                }
            })
            .collect();
        MetricsReport {
            cycles: self.cycles,
            bus_busy: self.bus_busy,
            mode_switches: self.mode_switches,
            cores,
        }
    }

    /// Consumes the probe, returning the final report.
    #[must_use]
    pub fn into_report(self) -> MetricsReport {
        self.report()
    }
}

impl SimProbe for MetricsProbe {
    fn on_start(&mut self, config: &SimConfig) {
        let n = config.cores();
        self.hit_latency = config.latency().hit;
        self.timers = config.timers().to_vec();
        self.latency = vec![LatencyHistogram::new(); n];
        let analysable = Self::analysable(config);
        self.wcl_bounds = (0..n)
            .map(|i| analysable.then(|| wcl_miss(i, config.timers(), config.latency()).get()))
            .collect();
        self.bus_busy_per_core = vec![0; n];
        self.tenures = vec![0; n];
        self.grants = vec![0; n];
        self.stalls = vec![0; n];
        self.occupancy = vec![Occupancy::default(); n];
    }

    fn on_event(&mut self, cycle: Cycles, kind: &EventKind) {
        let at = cycle.get();
        match kind {
            EventKind::Hit { core, .. } => self.latency[*core].record(self.hit_latency),
            EventKind::Fill { core, line, latency, .. } => {
                self.latency[*core].record(*latency);
                if self.timers[*core].is_timed() {
                    self.occupancy[*core].insert(at, *line);
                }
            }
            EventKind::Invalidate { core, line, .. } => {
                self.occupancy[*core].remove(at, *line);
            }
            EventKind::TimerSwitch { timers } => {
                self.mode_switches += 1;
                for (core, timer) in timers.iter().enumerate() {
                    // Writing −1 pulls Enable low: held lines lose their
                    // protection immediately. Timed-to-timed switches keep
                    // the per-line θ loaded at fill time.
                    if timer.is_msi() && self.timers[core].is_timed() {
                        self.occupancy[core].clear(at);
                    }
                }
                self.timers.clone_from(timers);
            }
            _ => {}
        }
    }

    fn on_bus_tenure(&mut self, tenure: &BusTenure) {
        let duration = tenure.duration().get();
        self.bus_busy_per_core[tenure.core] += duration;
        self.tenures[tenure.core] += 1;
        self.bus_busy += duration;
    }

    fn on_arbitration(&mut self, _cycle: Cycles, granted: usize, stalled: &[usize]) {
        self.grants[granted] += 1;
        for &core in stalled {
            self.stalls[core] += 1;
        }
    }

    fn on_finish(&mut self, stats: &SimStats) {
        self.cycles = stats.cycles.get();
        for occ in &mut self.occupancy {
            occ.advance(self.cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_the_u64_range() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        assert_eq!(LatencyHistogram::bucket_index(2), 2);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 3);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), 64);
        for i in 1..BUCKETS {
            assert!(LatencyHistogram::bucket_lower(i) <= LatencyHistogram::bucket_upper(i));
            assert_eq!(
                LatencyHistogram::bucket_index(LatencyHistogram::bucket_lower(i)),
                i,
                "lower bound of bucket {i} maps back"
            );
        }
    }

    #[test]
    fn histogram_quantiles_clamp_to_observed_max() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(Cycles::new(54));
        }
        h.record(Cycles::new(216));
        // 216's bucket upper bound is 255, but the observed max is 216:
        // a reported p99/p100 must never exceed a true worst case.
        assert_eq!(h.quantile(1.0).get(), 216);
        assert!(h.p99().get() <= 216);
        assert_eq!(h.p50().get(), 63, "upper bound of 54's [32, 63] bucket");
        assert_eq!(h.count(), 101);
    }

    #[test]
    fn histogram_handles_empty_and_zero() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.p99(), Cycles::ZERO);
        assert_eq!(h.mean(), 0.0);
        h.record(Cycles::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50(), Cycles::ZERO);
        assert_eq!(h.nonzero_buckets().next(), Some((0, 0, 1)));
    }

    #[test]
    fn occupancy_integral_is_cycle_weighted() {
        let mut occ = Occupancy::default();
        occ.insert(10, LineAddr::new(1)); // live=1 from cycle 10
        occ.insert(20, LineAddr::new(2)); // live=2 from cycle 20
        occ.remove(30, LineAddr::new(1)); // live=1 from cycle 30
        occ.advance(40);
        // 10 cycles at 1 + 10 cycles at 2 + 10 cycles at 1 = 40.
        assert_eq!(occ.weighted, 40);
        assert_eq!(occ.max, 2);
        assert_eq!(occ.live.len(), 1);
    }

    #[test]
    fn report_serializes_to_json_value() {
        let mut h = LatencyHistogram::new();
        h.record(Cycles::new(1));
        h.record(Cycles::new(100));
        let report = MetricsReport {
            cycles: 1000,
            bus_busy: 500,
            mode_switches: 1,
            cores: vec![CoreMetrics {
                latency: h,
                wcl_bound: Some(216),
                bus_busy: 500,
                tenures: 3,
                grants: 3,
                stalls: 2,
                timer_occupancy_max: 4,
                timer_occupancy_avg: 1.5,
            }],
        };
        let json = report.to_json();
        assert_eq!(json.get("cycles").and_then(serde_json::Value::as_u64), Some(1000));
        let cores = json.get("cores").and_then(|v| v.as_array()).unwrap();
        assert_eq!(cores.len(), 1);
        assert_eq!(cores[0].get("accesses").and_then(serde_json::Value::as_u64), Some(2));
        assert_eq!(cores[0].get("wcl_bound").and_then(serde_json::Value::as_u64), Some(216));
        assert_eq!(cores[0].get("histogram").and_then(|v| v.as_array()).map(Vec::len), Some(2));
        let text = serde_json::to_string(&json).unwrap();
        assert!(text.contains("bus_utilisation"));
    }
}
