//! [`MetricsProbe`]: distributional run metrics built on the probe API.
//!
//! The paper's claims are distributional — per-request latencies against
//! the Eq. 1 bound (Figure 5), bus interference under heterogeneous θ,
//! mode-switch degradation — while [`SimStats`] only carries scalars. This
//! probe derives, in one streaming pass:
//!
//! - per-core **log2-bucketed latency histograms**
//!   ([`Log2Histogram`]: p50 / p99 / max) over every completed request,
//!   hits included, plus the latency sum behind the mean;
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

use cohort_types::{wcl_miss, Cycles, LineAddr, Log2Histogram, TimerValue};

use crate::event::EventKind;
use crate::probe::{BusTenure, SimProbe};
use crate::{ArbiterKind, DataPath, SimConfig, SimStats};

/// Per-core slice of a [`MetricsReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoreMetrics {
    /// Latency of every completed request (hits and misses).
    pub latency: Log2Histogram,
    /// Sum of those latencies (saturating), the numerator of
    /// [`CoreMetrics::latency_mean`].
    pub latency_sum: u64,
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
        self.wcl_bound.is_none_or(|b| self.latency.max() <= b)
    }

    /// Arithmetic mean request latency (0 when no request completed).
    #[must_use]
    pub fn latency_mean(&self) -> f64 {
        match self.latency.count() {
            0 => 0.0,
            n => self.latency_sum as f64 / n as f64,
        }
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
                c.insert("latency_p50".into(), serde_json::Value::from(core.latency.p50()));
                c.insert("latency_p99".into(), serde_json::Value::from(core.latency.p99()));
                c.insert("latency_max".into(), serde_json::Value::from(core.latency.max()));
                c.insert("latency_mean".into(), serde_json::Value::from(core.latency_mean()));
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
                    .map(|(index, n)| {
                        let (lo, hi) = Log2Histogram::bucket_bounds(index);
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
    latency: Vec<Log2Histogram>,
    latency_sum: Vec<u64>,
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
                    latency_sum: self.latency_sum[i],
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

    fn record_latency(&mut self, core: usize, latency: Cycles) {
        self.latency[core].record(latency.get());
        self.latency_sum[core] = self.latency_sum[core].saturating_add(latency.get());
    }
}

impl SimProbe for MetricsProbe {
    fn on_start(&mut self, config: &SimConfig) {
        let n = config.cores();
        self.hit_latency = config.latency().hit;
        self.timers = config.timers().to_vec();
        self.latency = vec![Log2Histogram::new(); n];
        self.latency_sum = vec![0; n];
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
            EventKind::Hit { core, .. } => self.record_latency(*core, self.hit_latency),
            EventKind::Fill { core, line, latency, .. } => {
                self.record_latency(*core, *latency);
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
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 1);
        assert_eq!(Log2Histogram::bucket_index(2), 2);
        assert_eq!(Log2Histogram::bucket_index(3), 2);
        assert_eq!(Log2Histogram::bucket_index(4), 3);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), 64);
        for i in 1..Log2Histogram::BUCKETS {
            let (lower, upper) = Log2Histogram::bucket_bounds(i);
            assert!(lower <= upper);
            assert_eq!(
                Log2Histogram::bucket_index(lower),
                i,
                "lower bound of bucket {i} maps back"
            );
        }
    }

    #[test]
    fn histogram_quantiles_clamp_to_observed_max() {
        let mut h = Log2Histogram::new();
        for _ in 0..100 {
            h.record(54);
        }
        h.record(216);
        // 216's bucket upper bound is 255, but the observed max is 216:
        // a reported p99/p100 must never exceed a true worst case.
        assert_eq!(h.quantile(1.0), 216);
        assert!(h.p99() <= 216);
        assert_eq!(h.p50(), 63, "upper bound of 54's [32, 63] bucket");
        assert_eq!(h.count(), 101);
    }

    #[test]
    fn histogram_handles_empty_and_zero() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.p99(), 0);
        let mut idle = MetricsProbe::new();
        idle.on_start(&SimConfig::builder(1).build().unwrap());
        assert_eq!(idle.report().cores[0].latency_mean(), 0.0);
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.nonzero_buckets().next(), Some((0, 1)));
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
        let mut h = Log2Histogram::new();
        h.record(1);
        h.record(100);
        let report = MetricsReport {
            cycles: 1000,
            bus_busy: 500,
            mode_switches: 1,
            cores: vec![CoreMetrics {
                latency: h,
                latency_sum: 101,
                wcl_bound: Some(216),
                bus_busy: 500,
                tenures: 3,
                grants: 3,
                stalls: 2,
                timer_occupancy_max: 4,
                timer_occupancy_avg: 1.5,
            }],
        };
        assert_eq!(report.cores[0].latency_mean(), 50.5);
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
