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
//! [`Trace::fingerprint`], alongside the timer, cache geometry and the two
//! latencies that shape the virtual timeline. Identical inputs therefore
//! hit the cache no matter which `Trace` allocation they arrive through,
//! and the memoized results are bit-identical to the uncached analysis by
//! construction (the cached value *is* the uncached function's output).
//! The one exception is the burst regime of [`crate::isolation`]: when the
//! miss penalty is at least θ the counts do not depend on it, so the key
//! records the penalty as θ. The GA's fitness queries, whose penalty moves
//! with every other core's timer, then share one entry per (trace, θ)
//! instead of walking the trace again for each penalty.
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
//! A process-wide instance is available through [`analysis_cache`]; the
//! optimization engine and `analyze_cohort` route through it by default.

use std::collections::HashMap; // lint:allow(det-unordered) memo of pure analysis results and simulation statistics; lookup-only, never iterated
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

use cohort_sim::{CacheGeometry, SimBuilder, SimConfig, SimStats};
use cohort_trace::{Trace, Workload};
use cohort_types::{Cycles, Result, TimerValue};

use crate::isolation::{effective_penalty, guaranteed_hits, saturation_search, HitMissCounts};

/// Key of one guaranteed-hit query: everything the result depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct HitKey {
    trace: u128,
    timer: TimerValue,
    geometry: CacheGeometry,
    hit_latency: Cycles,
    /// The [`effective_penalty`]: every penalty of at least θ shares the
    /// entry of penalty θ. (A flag for that case would add 16 bytes to
    /// every entry of the process-wide memo.)
    miss_penalty: Cycles,
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
/// cold key may both compute it — the function is deterministic, so the
/// duplicate insert is harmless and cheaper than holding a lock across the
/// trace walk.
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
    hits: RwLock<HashMap<HitKey, HitMissCounts>>,
    saturation: RwLock<HashMap<SatKey, u64>>,
    lookups: AtomicU64,
    served: AtomicU64,
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

    /// Memoized [`guaranteed_hits`]: identical signature, identical result.
    ///
    /// Fingerprints the trace on every call; when the caller queries the
    /// same trace many times (GA fitness loops), precompute the
    /// fingerprint once and use [`Self::guaranteed_hits_fp`].
    #[must_use]
    pub fn guaranteed_hits(
        &self,
        trace: &Trace,
        timer: TimerValue,
        geometry: &CacheGeometry,
        hit_latency: Cycles,
        miss_penalty: Cycles,
    ) -> HitMissCounts {
        self.guaranteed_hits_fp(
            trace.fingerprint(),
            trace,
            timer,
            geometry,
            hit_latency,
            miss_penalty,
        )
    }

    /// Memoized [`guaranteed_hits`] with a precomputed trace fingerprint.
    ///
    /// The caller vouches that `fingerprint == trace.fingerprint()`; a
    /// stale fingerprint silently returns the *other* trace's counts.
    #[must_use]
    pub fn guaranteed_hits_fp(
        &self,
        fingerprint: u128,
        trace: &Trace,
        timer: TimerValue,
        geometry: &CacheGeometry,
        hit_latency: Cycles,
        miss_penalty: Cycles,
    ) -> HitMissCounts {
        let key = HitKey {
            trace: fingerprint,
            timer,
            geometry: *geometry,
            hit_latency,
            miss_penalty: effective_penalty(timer, miss_penalty),
        };
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(&counts) =
            self.hits.read().unwrap_or_else(std::sync::PoisonError::into_inner).get(&key)
        {
            self.served.fetch_add(1, Ordering::Relaxed);
            return counts;
        }
        let counts = guaranteed_hits(trace, timer, geometry, hit_latency, miss_penalty);
        self.hits.write().unwrap_or_else(std::sync::PoisonError::into_inner).insert(key, counts);
        counts
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
        self.theta_saturation_fp(trace.fingerprint(), trace, geometry, hit_latency, miss_penalty)
    }

    /// Memoized θ-saturation with a precomputed trace fingerprint.
    #[must_use]
    pub fn theta_saturation_fp(
        &self,
        fingerprint: u128,
        trace: &Trace,
        geometry: &CacheGeometry,
        hit_latency: Cycles,
        miss_penalty: Cycles,
    ) -> u64 {
        let key = SatKey { trace: fingerprint, geometry: *geometry, hit_latency, miss_penalty };
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(&sat) =
            self.saturation.read().unwrap_or_else(std::sync::PoisonError::into_inner).get(&key)
        {
            self.served.fetch_add(1, Ordering::Relaxed);
            return sat;
        }
        let sat = saturation_search(|theta| {
            self.guaranteed_hits_fp(
                fingerprint,
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

    /// Number of memoized analysis entries (hit curves and saturation
    /// points; [`Self::run_len`] counts the runs).
    #[must_use]
    pub fn len(&self) -> usize {
        self.hits.read().unwrap_or_else(std::sync::PoisonError::into_inner).len()
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
        self.hits.write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
        self.saturation.write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
        self.runs.write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
        self.lookups.store(0, Ordering::Relaxed);
        self.served.store(0, Ordering::Relaxed);
        self.run_lookups.store(0, Ordering::Relaxed);
        self.run_served.store(0, Ordering::Relaxed);
    }
}

/// The process-wide analysis cache.
///
/// Shared by the optimization engine's fitness evaluations, the whole-
/// system analyses, every batch-sweep worker and the paper-cell sweep's
/// run memo. Entries live until [`AnalysisCache::clear`] and nothing
/// bounds their number: a one-shot run touches a handful of traces × θ
/// values, but a long-lived process that never clears (a fleet worker)
/// adds entries for every new trace. Clear between unrelated phases,
/// e.g. per benchmark pass.
#[must_use]
pub fn analysis_cache() -> &'static AnalysisCache {
    static CACHE: OnceLock<AnalysisCache> = OnceLock::new();
    CACHE.get_or_init(AnalysisCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theta_saturation;
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
        let s = cache.stats();
        assert_eq!(s.lookups, 10);
        assert_eq!(s.hits, 5);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
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
        // Burst regime (penalty ≥ θ): both penalties share one entry.
        let t24 = TimerValue::timed(24).unwrap();
        for penalty in [PENALTY, Cycles::new(500)] {
            let counts = cache.guaranteed_hits(&trace, t24, &L1, HIT, penalty);
            assert_eq!(counts, guaranteed_hits(&trace, t24, &L1, HIT, penalty));
        }
        assert_eq!(cache.len(), 1);
        // Below it (penalty < θ) each penalty gets its own entry.
        let t600 = TimerValue::timed(600).unwrap();
        for penalty in [PENALTY, Cycles::new(500)] {
            let counts = cache.guaranteed_hits(&trace, t600, &L1, HIT, penalty);
            assert_eq!(counts, guaranteed_hits(&trace, t600, &L1, HIT, penalty));
        }
        assert_eq!(cache.len(), 3);
        // Every query is counted; only the shared regime entry was served.
        assert_eq!(cache.stats(), CacheStats { lookups: 4, hits: 1 });
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
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
                let _hits = cache.hits.write().unwrap_or_else(std::sync::PoisonError::into_inner);
                let _sat =
                    cache.saturation.write().unwrap_or_else(std::sync::PoisonError::into_inner);
                panic!("job died mid-flight");
            }));
            assert!(unwound.is_err());
        }
        assert!(cache.hits.is_poisoned());
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
