//! Memoized analysis results, shared across threads.
//!
//! The guaranteed-hit analysis walks the whole trace per (θ, latency)
//! query, and the workloads that drive the GA and the batch sweeps ask for
//! the same curves over and over: every GA generation re-evaluates
//! candidate timers against the same traces, every protocol sweep re-runs
//! the θ-saturation search for the same kernels, and parallel sweep
//! workers repeat each other's work. [`AnalysisCache`] memoizes both
//! queries behind `RwLock`ed maps — lookups take the read lock only, so
//! concurrent sweep workers share results without serialising on hits.
//!
//! Keys are *content* keys: the trace enters as its 128-bit
//! [`Trace::fingerprint`] (hashed once per trace and cached with it, so a
//! lookup costs no trace walk), alongside the cache geometry and the hit
//! latency. The miss penalty is not part of the key: each key holds the
//! regions of [`crate::isolation`] that its walks found, each with its
//! counts, so one walk serves every (θ, P) that replays it.
//!
//! - *Burst walks* (penalty ≥ θ) hold for every penalty ≥ θ′ on a
//!   θ-interval; the key keeps them sorted and disjoint and answers a
//!   burst query by binary search for its θ.
//! - *Flat walks* (penalty < θ) hold on a convex polygon of (θ, P) points
//!   bounded by a few lines; a flat query is served by the first stored
//!   polygon that contains its point.
//!
//! The GA's fitness queries, whose penalty (Eq. 1's WCL) moves with every
//! other core's timer, so share the walks of a trace in both regimes.
//! Served counts are the uncached function's output for the query, as the
//! module's tests and a property test over a dense (θ, P) grid check.
//!
//! The cache also memoizes whole simulations ([`AnalysisCache::simulate`]):
//! a no-probe run keyed by the workload's trace fingerprints and the full
//! [`SimConfig`]. The paper's criticality-free baselines (PCC, MSI+FCFS)
//! simulate the same configuration under all three criticality masks, so
//! a Fig. 5/6 pass serves those repeats from the memo. The run memo has
//! its own counters ([`AnalysisCache::run_stats`]) and is dropped by
//! [`AnalysisCache::clear`] together with the hit curves; it has no
//! capacity bound, so only callers that clear per pass (the paper-cell
//! sweep of `cohort-bench`) consult it.
//!
//! A process-wide instance is available through [`analysis_cache`]. Two
//! callers feed it: the optimization engine's `TimerProblem` (θ-saturation
//! searches and fitness hit curves) and the paper-cell sweep's run memo.
//! One-shot bounds ([`crate::analyze_cohort`]) call
//! [`crate::guaranteed_hits`] directly, so an experiment job neither reads
//! nor grows the memo.

use std::collections::HashMap; // lint:allow(det-unordered) memo of pure analysis results and simulation statistics; lookup-only, iterated only to count entries
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

use cohort_sim::{CacheGeometry, SimBuilder, SimConfig, SimStats};
use cohort_trace::{Trace, Workload};
use cohort_types::{Cycles, Result, TimerValue};

use crate::isolation::{saturation_search, stable_hits, Envelopes, HitMissCounts, Region};

/// Key of one hit curve: everything but θ and the penalty that the counts
/// depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CurveKey {
    trace: u128,
    geometry: CacheGeometry,
    hit_latency: Cycles,
}

/// The walks of one [`CurveKey`], by regime.
#[derive(Debug, Default)]
struct Curve {
    /// Burst walks: `(lo, hi, counts)` θ-intervals, sorted and disjoint.
    burst: Vec<(u64, u64, HitMissCounts)>,
    /// Flat walks: their regions' envelopes and counts.
    flat: Vec<(Envelopes, HitMissCounts)>,
}

impl Curve {
    /// The counts of the stored walk that `(theta, penalty)` replays.
    fn get(&self, theta: u64, penalty: Cycles) -> Option<HitMissCounts> {
        if penalty.get() >= theta {
            let &(lo, _, counts) = self.burst.get(self.burst.partition_point(|w| w.1 < theta))?;
            (lo <= theta).then_some(counts)
        } else {
            self.flat
                .iter()
                .find(|(envelopes, _)| envelopes.contains(theta, penalty.get()))
                .map(|&(_, counts)| counts)
        }
    }
}

/// Key of one θ-saturation query (no timer: the search spans all of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SatKey {
    trace: u128,
    geometry: CacheGeometry,
    hit_latency: Cycles,
    miss_penalty: Cycles,
}

/// Key of one simulation run: the workload's content and the whole
/// simulator configuration (a no-probe, no-fault run depends on nothing
/// else).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RunKey {
    traces: Vec<u128>,
    config: SimConfig,
}

/// Hit/lookup counters of an [`AnalysisCache`], for observability.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered (hits + misses).
    pub lookups: u64,
    /// Queries answered from the memo without re-running the analysis.
    pub hits: u64,
}

/// Trace walks behind an [`AnalysisCache`]'s unserved guaranteed-hit
/// queries, by regime (see [`crate::stable_hits`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalkStats {
    /// Walks with penalty < θ, each storing a (θ, P)-stable region.
    pub flat: u64,
    /// Walks with penalty ≥ θ, each storing a θ-interval.
    pub burst: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]` (0 before the first lookup).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// A thread-safe memo of guaranteed-hit and θ-saturation results.
///
/// Reads take a shared lock; only a first-time computation takes the write
/// lock, briefly, to publish its result. Two threads racing on the same
/// cold query may both walk the trace — the walk is deterministic, so both
/// find the same region and the second insert is a no-op, cheaper than
/// holding a lock across the walk.
///
/// The cache is **panic-tolerant**: pool jobs share it across worker
/// threads and a job that panics (turned into `Error::JobPanicked` by
/// `cohort_types::run_jobs`) must not take the memo down for later clean
/// runs. Every lock acquisition therefore recovers from poisoning instead
/// of propagating it — sound because values are only ever inserted complete
/// (the analysis runs *outside* the lock and the `Copy` value is written
/// in a single `insert`), so a poisoned guard still protects a consistent
/// map and never exposes a partial result.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    /// Per key, the regions walked so far.
    curves: RwLock<HashMap<CurveKey, Curve>>,
    saturation: RwLock<HashMap<SatKey, u64>>,
    lookups: AtomicU64,
    served: AtomicU64,
    flat_walks: AtomicU64,
    burst_walks: AtomicU64,
    runs: RwLock<HashMap<RunKey, SimStats>>,
    run_lookups: AtomicU64,
    run_served: AtomicU64,
}

impl AnalysisCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Memoized [`crate::guaranteed_hits`]: identical signature, identical
    /// result. A query whose (θ, penalty) lies in a stored region of its
    /// key is served (counted as a hit); any other walks the trace once
    /// and stores the walk's region. An MSI query needs no walk and counts
    /// as served.
    #[must_use]
    pub fn guaranteed_hits(
        &self,
        trace: &Trace,
        timer: TimerValue,
        geometry: &CacheGeometry,
        hit_latency: Cycles,
        miss_penalty: Cycles,
    ) -> HitMissCounts {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let Some(theta) = timer.theta() else {
            self.served.fetch_add(1, Ordering::Relaxed);
            return HitMissCounts { hits: 0, misses: trace.len() as u64 };
        };
        let key = CurveKey { trace: trace.fingerprint(), geometry: *geometry, hit_latency };
        let served = self
            .curves
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
            .and_then(|curve| curve.get(theta, miss_penalty));
        if let Some(counts) = served {
            self.served.fetch_add(1, Ordering::Relaxed);
            return counts;
        }
        let walk = stable_hits(trace, theta, geometry, hit_latency, miss_penalty);
        let walks = match walk.region {
            Region::Burst { .. } => &self.burst_walks,
            Region::Flat(_) => &self.flat_walks,
        };
        walks.fetch_add(1, Ordering::Relaxed);
        let mut curves = self.curves.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        let curve = curves.entry(key).or_default();
        // Regions are whole classes of (θ, P) or parts of one: a stored
        // region that holds this walk's point holds this walk, inserted by
        // a racing thread.
        if curve.get(theta, miss_penalty).is_none() {
            match walk.region {
                Region::Burst { lo, hi } => {
                    let at = curve.burst.partition_point(|w| w.1 < lo);
                    curve.burst.insert(at, (lo, hi, walk.counts));
                }
                Region::Flat(envelopes) => curve.flat.push((envelopes, walk.counts)),
            }
        }
        walk.counts
    }

    /// Memoized [`crate::theta_saturation`]: identical signature and result.
    ///
    /// The binary search's individual θ probes go through the guaranteed-
    /// hit memo, so a saturation search also pre-warms the hit curve that
    /// later per-θ queries (GA seeds, sweeps) will ask for.
    #[must_use]
    pub fn theta_saturation(
        &self,
        trace: &Trace,
        geometry: &CacheGeometry,
        hit_latency: Cycles,
        miss_penalty: Cycles,
    ) -> u64 {
        let key =
            SatKey { trace: trace.fingerprint(), geometry: *geometry, hit_latency, miss_penalty };
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(&sat) =
            self.saturation.read().unwrap_or_else(std::sync::PoisonError::into_inner).get(&key)
        {
            self.served.fetch_add(1, Ordering::Relaxed);
            return sat;
        }
        let sat = saturation_search(|theta| {
            self.guaranteed_hits(
                trace,
                TimerValue::timed(theta).expect("θ within register range"),
                geometry,
                hit_latency,
                miss_penalty,
            )
            .hits
        });
        self.saturation.write().unwrap_or_else(std::sync::PoisonError::into_inner).insert(key, sat);
        sat
    }

    /// Memoized no-probe simulation: the statistics of
    /// `SimBuilder::new(config, workload).build()?.run()`, computed once
    /// per (trace fingerprints, configuration). Errors are returned and
    /// not memoized. Counted by [`Self::run_stats`], not [`Self::stats`].
    ///
    /// # Errors
    ///
    /// Propagates simulator build and run errors.
    pub fn simulate(&self, config: &SimConfig, workload: &Workload) -> Result<SimStats> {
        let key = RunKey {
            traces: workload.traces().iter().map(Trace::fingerprint).collect(),
            config: config.clone(),
        };
        self.run_lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(stats) =
            self.runs.read().unwrap_or_else(std::sync::PoisonError::into_inner).get(&key)
        {
            self.run_served.fetch_add(1, Ordering::Relaxed);
            return Ok(stats.clone());
        }
        let stats = SimBuilder::new(config.clone(), workload).build()?.run()?;
        self.runs
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, stats.clone());
        Ok(stats)
    }

    /// Lookup/served counters of [`Self::simulate`] since creation (or
    /// the last [`Self::clear`]).
    #[must_use]
    pub fn run_stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.run_lookups.load(Ordering::Relaxed),
            hits: self.run_served.load(Ordering::Relaxed),
        }
    }

    /// Number of memoized simulation runs.
    #[must_use]
    pub fn run_len(&self) -> usize {
        self.runs.read().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// Analysis lookup/hit counters since creation (or the last
    /// [`Self::clear`]); [`Self::simulate`] does not count here.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.served.load(Ordering::Relaxed),
        }
    }

    /// Walks made since creation (or the last [`Self::clear`]), by
    /// regime. With one thread every walk stores one region.
    #[must_use]
    pub fn walks(&self) -> WalkStats {
        WalkStats {
            flat: self.flat_walks.load(Ordering::Relaxed),
            burst: self.burst_walks.load(Ordering::Relaxed),
        }
    }

    /// Number of memoized analysis entries (regions and saturation
    /// points; [`Self::run_len`] counts the runs).
    #[must_use]
    pub fn len(&self) -> usize {
        let curves = self.curves.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        curves.values().map(|curve| curve.burst.len() + curve.flat.len()).sum::<usize>()
            + self.saturation.read().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized entry, runs included, and resets every
    /// counter.
    pub fn clear(&self) {
        self.curves.write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
        self.saturation.write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
        self.runs.write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
        self.lookups.store(0, Ordering::Relaxed);
        self.served.store(0, Ordering::Relaxed);
        self.flat_walks.store(0, Ordering::Relaxed);
        self.burst_walks.store(0, Ordering::Relaxed);
        self.run_lookups.store(0, Ordering::Relaxed);
        self.run_served.store(0, Ordering::Relaxed);
    }
}

/// The process-wide analysis cache.
///
/// Fed only by the optimization engine (`TimerProblem`'s θ-saturation
/// searches and fitness evaluations, on every GA worker) and the
/// paper-cell sweep's run memo; `analyze_cohort` bypasses it. Entries live
/// until [`AnalysisCache::clear`] and nothing bounds their number: a GA run
/// touches a handful of traces × θ values, but a long-lived process that
/// never clears (a fleet worker serving `optimize` jobs) adds entries for
/// every new trace. Clear between unrelated phases, e.g. per benchmark
/// pass.
#[must_use]
pub fn analysis_cache() -> &'static AnalysisCache {
    static CACHE: OnceLock<AnalysisCache> = OnceLock::new();
    CACHE.get_or_init(AnalysisCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{guaranteed_hits, theta_saturation};
    use cohort_trace::{Kernel, KernelSpec};

    const L1: CacheGeometry = CacheGeometry::paper_l1();
    const HIT: Cycles = Cycles::new(1);
    const PENALTY: Cycles = Cycles::new(216);

    fn kernel_trace() -> Trace {
        let w = KernelSpec::new(Kernel::Fft, 2).with_total_requests(2_000).generate();
        w.traces()[0].clone()
    }

    #[test]
    fn memoized_hits_match_cold_analysis_exactly() {
        let trace = kernel_trace();
        let cache = AnalysisCache::new();
        for theta in [1u64, 24, 300, 4_096, u64::from(u16::MAX)] {
            let timer = TimerValue::timed(theta).unwrap();
            let cold = guaranteed_hits(&trace, timer, &L1, HIT, PENALTY);
            let first = cache.guaranteed_hits(&trace, timer, &L1, HIT, PENALTY);
            let memoized = cache.guaranteed_hits(&trace, timer, &L1, HIT, PENALTY);
            assert_eq!(cold, first);
            assert_eq!(cold, memoized);
        }
        // Each repeat is served, and so is the first MAX_THETA query: it
        // lies in the region the 4,096 walk stored (no θ-sensitive access
        // of this trace misses at 4,096).
        let s = cache.stats();
        assert_eq!(s.lookups, 10);
        assert_eq!(s.hits, 6);
        assert!((s.hit_ratio() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn memoized_saturation_matches_cold_analysis_exactly() {
        let trace = kernel_trace();
        let cache = AnalysisCache::new();
        let cold = theta_saturation(&trace, &L1, HIT, PENALTY);
        assert_eq!(cache.theta_saturation(&trace, &L1, HIT, PENALTY), cold);
        // Second query is a pure memo hit (one lookup, no probes).
        let before = cache.stats().lookups;
        assert_eq!(cache.theta_saturation(&trace, &L1, HIT, PENALTY), cold);
        assert_eq!(cache.stats().lookups, before + 1);
    }

    #[test]
    fn distinct_parameters_get_distinct_entries() {
        let trace = kernel_trace();
        let cache = AnalysisCache::new();
        // Burst regime (penalty ≥ θ): both penalties share one interval.
        let t24 = TimerValue::timed(24).unwrap();
        for penalty in [PENALTY, Cycles::new(500)] {
            let counts = cache.guaranteed_hits(&trace, t24, &L1, HIT, penalty);
            assert_eq!(counts, guaranteed_hits(&trace, t24, &L1, HIT, penalty));
        }
        assert_eq!(cache.len(), 1);
        // Below it (penalty < θ) a walk's region spans penalties too: the
        // second penalty replays the first one's walk here.
        let t600 = TimerValue::timed(600).unwrap();
        for penalty in [PENALTY, Cycles::new(217)] {
            let counts = cache.guaranteed_hits(&trace, t600, &L1, HIT, penalty);
            assert_eq!(counts, guaranteed_hits(&trace, t600, &L1, HIT, penalty));
        }
        assert_eq!(cache.len(), 2);
        // Another hit latency or geometry is another key.
        let two_way = CacheGeometry::new(16 * 1024, 64, 2).unwrap();
        for (geometry, hit) in [(two_way, HIT), (L1, Cycles::new(2))] {
            let counts = cache.guaranteed_hits(&trace, t600, &geometry, hit, PENALTY);
            assert_eq!(counts, guaranteed_hits(&trace, t600, &geometry, hit, PENALTY));
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats(), CacheStats { lookups: 6, hits: 2 });
        assert_eq!(cache.walks(), WalkStats { flat: 3, burst: 1 });
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.walks(), WalkStats::default());
    }

    #[test]
    fn dense_theta_sweep_matches_cold_analysis_at_every_theta() {
        let trace = kernel_trace();
        let cache = AnalysisCache::new();
        let mut thetas: Vec<u64> = (1..=2_000).collect();
        thetas.extend([4_096, 30_000, TimerValue::MAX_THETA - 1, TimerValue::MAX_THETA]);
        // Ascending at one penalty, descending at the other, so intervals
        // are inserted at both ends of the burst list.
        let queries = thetas
            .iter()
            .map(|&theta| (Cycles::new(54), theta))
            .chain(thetas.iter().rev().map(|&theta| (PENALTY, theta)));
        for (penalty, theta) in queries {
            let timer = TimerValue::timed(theta).unwrap();
            assert_eq!(
                cache.guaranteed_hits(&trace, timer, &L1, HIT, penalty),
                guaranteed_hits(&trace, timer, &L1, HIT, penalty),
                "θ {theta}, penalty {penalty:?}"
            );
        }
        // The burst intervals are sorted, disjoint and non-empty.
        let curves = cache.curves.read().unwrap();
        let curve = curves.values().next().unwrap();
        assert!(curve.burst.iter().all(|w| w.0 <= w.1), "{:?}", curve.burst);
        assert!(curve.burst.windows(2).all(|w| w[0].1 < w[1].0), "{:?}", curve.burst);
        // One thread: every lookup not served walked once and stored one
        // region, and the regions spare most of the walks.
        let s = cache.stats();
        let walks = cache.walks();
        assert_eq!(s.lookups, 2 * thetas.len() as u64);
        assert_eq!(s.lookups - s.hits, walks.flat + walks.burst);
        assert_eq!(walks.flat, curve.flat.len() as u64);
        assert_eq!(walks.burst, curve.burst.len() as u64);
        assert_eq!(walks.flat + walks.burst, cache.len() as u64);
        assert!((walks.flat + walks.burst) * 4 < s.lookups, "{walks:?} for {} lookups", s.lookups);
    }

    /// The walk count pin: a fixed flat-regime grid over one kernel trace,
    /// θ from 2 to 594 in steps of 8 against 29 penalties from 1 to 197
    /// in steps of 7 (the GA's queries move both), on an owned memo.
    #[test]
    fn a_flat_grid_walks_a_pinned_number_of_times() {
        let w = KernelSpec::new(Kernel::Radix, 4).with_total_requests(2_000).generate();
        let trace = &w.traces()[0];
        let cache = AnalysisCache::new();
        for penalty in (1..=200).step_by(7).map(Cycles::new) {
            for theta in (2..=600).step_by(8).filter(|&theta| theta > penalty.get()) {
                let timer = TimerValue::timed(theta).unwrap();
                assert_eq!(
                    cache.guaranteed_hits(trace, timer, &L1, HIT, penalty),
                    guaranteed_hits(trace, timer, &L1, HIT, penalty),
                    "θ {theta}, penalty {penalty:?}"
                );
            }
        }
        assert_eq!(cache.stats(), CacheStats { lookups: 1_808, hits: 1_762 });
        assert_eq!(cache.walks(), WalkStats { flat: 46, burst: 0 });
    }

    #[test]
    fn poisoned_locks_recover_without_caching_partial_results() {
        // A pool job that panics while touching the memo (turned into
        // `Error::JobPanicked` upstream) poisons the RwLocks; later clean
        // runs must still be served exact results — the regression this guards
        // against is the old `.expect("not poisoned")` panic cascade.
        let trace = kernel_trace();
        let cache = AnalysisCache::new();
        let t = TimerValue::timed(24).unwrap();
        let expected = guaranteed_hits(&trace, t, &L1, HIT, PENALTY);
        assert_eq!(cache.guaranteed_hits(&trace, t, &L1, HIT, PENALTY), expected);

        for _ in 0..2 {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _curves =
                    cache.curves.write().unwrap_or_else(std::sync::PoisonError::into_inner);
                let _sat =
                    cache.saturation.write().unwrap_or_else(std::sync::PoisonError::into_inner);
                panic!("job died mid-flight");
            }));
            assert!(unwound.is_err());
        }
        assert!(cache.curves.is_poisoned());
        assert!(cache.saturation.is_poisoned());

        // The memoized entry survives, new entries can still be published,
        // and nothing partial ever appears (the panicking "job" inserted
        // nothing).
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.guaranteed_hits(&trace, t, &L1, HIT, PENALTY), expected);
        let t2 = TimerValue::timed(300).unwrap();
        assert_eq!(
            cache.guaranteed_hits(&trace, t2, &L1, HIT, PENALTY),
            guaranteed_hits(&trace, t2, &L1, HIT, PENALTY)
        );
        assert_eq!(
            cache.theta_saturation(&trace, &L1, HIT, PENALTY),
            theta_saturation(&trace, &L1, HIT, PENALTY)
        );
        cache.clear();
        assert!(cache.is_empty());
    }

    fn run_config() -> cohort_sim::SimConfigBuilder {
        SimConfig::builder(2).timer(0, TimerValue::timed(40).unwrap())
    }

    #[test]
    fn run_memo_serves_repeats_and_clears_with_the_analysis_memo() {
        let workload = cohort_trace::micro::random_shared(2, 16, 200, 0.4, 9);
        let config = run_config().build().unwrap();
        let cold = SimBuilder::new(config.clone(), &workload).build().unwrap().run().unwrap();
        let cache = AnalysisCache::new();
        assert_eq!(cache.simulate(&config, &workload).unwrap(), cold);
        // A different allocation of the same content is served.
        assert_eq!(cache.simulate(&config, &workload.clone()).unwrap(), cold);
        assert_eq!(cache.run_stats(), CacheStats { lookups: 2, hits: 1 });
        assert_eq!(cache.run_len(), 1);
        // Runs are counted apart from the analysis queries.
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(cache.is_empty());

        cache.clear();
        assert_eq!(cache.run_len(), 0);
        assert_eq!(cache.run_stats(), CacheStats::default());
        assert_eq!(cache.simulate(&config, &workload).unwrap(), cold);
        assert_eq!(cache.run_stats(), CacheStats { lookups: 1, hits: 0 });
    }

    #[test]
    fn every_run_config_field_keys_the_run_memo() {
        let workload = cohort_trace::micro::random_shared(2, 16, 200, 0.4, 9);
        let variants = [
            run_config(),
            run_config().timer(1, TimerValue::timed(7).unwrap()),
            run_config().arbiter(cohort_sim::ArbiterKind::Fcfs),
            run_config().data_path(cohort_sim::DataPath::ViaSharedMemory),
            run_config().waiter_priority(vec![true, false]),
            run_config().llc(cohort_sim::LlcModel::Finite(CacheGeometry::paper_llc())),
        ];
        let cache = AnalysisCache::new();
        for (i, builder) in variants.into_iter().enumerate() {
            let config = builder.build().unwrap();
            let cold = SimBuilder::new(config.clone(), &workload).build().unwrap().run().unwrap();
            assert_eq!(cache.simulate(&config, &workload).unwrap(), cold, "variant {i}");
            assert_eq!(cache.run_stats().hits, 0, "variant {i} was served another's run");
        }
        assert_eq!(cache.run_len(), 6);
    }

    #[test]
    fn concurrent_readers_share_one_cache() {
        let trace = kernel_trace();
        let cache = AnalysisCache::new();
        let t = TimerValue::timed(64).unwrap();
        let expected = guaranteed_hits(&trace, t, &L1, HIT, PENALTY);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        assert_eq!(cache.guaranteed_hits(&trace, t, &L1, HIT, PENALTY), expected);
                    }
                });
            }
        });
        assert_eq!(cache.stats().lookups, 32);
        // Every lookup after the racy first computations is a memo hit.
        assert!(cache.stats().hits >= 32 - 4);
    }
}
