//! In-isolation static cache analysis: guaranteed hits under a timer.
//!
//! The optimization engine (§V) needs the Θ → M_hit relationship, which
//! depends on the application's memory behaviour and is therefore computed
//! by walking the task's trace against a model of its private cache. The
//! key soundness argument (from PENDULUM\* \[17\]): with a timer θ, a line
//! fetched at time `t` cannot be stolen before `t + θ` no matter what the
//! co-runners do, because the countdown counter's first expiry is θ cycles
//! after Load. The analysis therefore trusts a line only inside the window
//! `[fill, fill + θ)` and assumes an adversary steals it at the first
//! expiry; every hit it counts is a hit in *any* concurrent execution.
//!
//! Virtual time advances by the hit latency for guaranteed hits and by a
//! caller-provided `miss_penalty` (the core's per-request WCL bound) for
//! misses — using the *maximal* miss penalty is conservative: real
//! executions run earlier accesses sooner, keeping them inside the window.
//!
//! ## The re-anchoring subtlety
//!
//! When the analysis declares a miss (window expired), it re-anchors the
//! model window at the worst-case refill instant. A *real* run may have hit
//! there instead (no adversary materialised), leaving the real counter
//! anchored at the older fill — so a later access the analysis counts as a
//! guaranteed hit can, in that real run, land just after one of the old
//! anchor's expiry boundaries and really miss. This does not break the
//! Eq. 2 bound: each such divergence starts at an analysis miss that was
//! charged a full `WCL` the real run did not spend, and the real miss it
//! displaces re-synchronises the real anchor, so real misses never
//! outnumber analysis misses. The claim is enforced empirically by the
//! `anchor_divergence_fuzz` example (tens of thousands of adversarial
//! schedules phased against the window boundaries) on top of the general
//! soundness property tests.
//!
//! ## The flat kernel
//!
//! The GA calls this walk hundreds of times per optimisation, so the model
//! cache is not the simulator's generic `SetAssocCache` but a flat kernel:
//! three parallel arrays of `sets × ways` entries (tag, fill anchor,
//! modified bit), set `s` owning the slice `[s·ways, (s+1)·ways)` and
//! indexed by the geometry's one `SetIndexer` rule. Each set's slice is
//! kept MRU-first with its resident lines as a prefix and empty ways (tag
//! `None`) at the tail. Every access rotates the slice prefix ending at
//! the line's way — or, for a line not resident, the whole slice, whose
//! last way is empty or the LRU victim — one step right, so the accessed
//! line lands in way 0. That is exactly `SetAssocCache`'s `touch` (promote
//! to the front) and `insert` (replace and promote a resident line, else
//! evict the last way of a full set), so the true-LRU order, and with it
//! every hit and miss, is the same; a property test checks the two walks
//! against each other. The paper's direct-mapped L1 (256 sets × 1 way) has
//! nothing to rotate and gets its own monomorphised loop.
//!
//! ## The burst regime
//!
//! When the miss penalty `P` is at least θ (θ > 0) the walk has a closed
//! form: an access can hit only if it continues an unbroken run of
//! accesses to its line whose first access missed and whose later accesses
//! all hit. The proof is by induction over the hits in trace order.
//! Suppose access `i` to line `L` hits, and let `j < i` be `L`'s last miss,
//! which anchored `L`'s window at the instant `fill` when `j` completed; so
//! `now_i − fill < θ`.
//!
//! 1. No access strictly between `j` and `i` missed: such a miss starts at
//!    or after `fill` and moves virtual time forward by `P ≥ θ`, which
//!    would put `now_i − fill` at θ or more.
//! 2. None of them is to another line `L'`. That access hit by step 1, so
//!    by the induction hypothesis it continues a run on `L'` that started
//!    with a miss on `L'`. That miss is not after `j` (step 1) and not `j`
//!    itself, so the run would contain `j`, an access to `L`.
//!
//! So every access from `j` to `i` is to `L`, and `L`, touched by nothing
//! else, stays resident under LRU whatever the set count or
//! associativity. Conversely, an access whose predecessor touched the same
//! line sees exactly the state the flat kernel holds for that line: the
//! anchor and permission of the run's last miss, which is also the last
//! miss of the whole trace so far.
//!
//! The hit count therefore depends only on θ, the hit latency and the gaps
//! inside runs, not on `P`, the set count or the associativity, and the
//! walk keeps O(1) state: the previous line, the last fill anchor and its
//! modified bit. [`guaranteed_hits`] takes this walk whenever `P ≥ θ`; it
//! is the flat kernel's exact specialisation to the regime, as the
//! direct-mapped loop is for one-way geometries, and a property test pins
//! the two to the reference walk. The memo in [`crate::cache`] files every
//! regime query under one "burst" class per (trace, geometry, hit
//! latency), so the GA's fitness queries, whose penalty (Eq. 1's WCL)
//! moves with every other core's θ, share the burst walks of a trace. One
//! cycle below the regime the penalty matters again: at θ = P + 1 a line
//! can outlive one intervening miss.
//!
//! ## θ-stable intervals
//!
//! Under LRU every access leaves its line at MRU, hit or miss, so which
//! lines are resident before each access depends on the address stream
//! alone, not on θ. At a fixed penalty the one step that reads θ is
//! `elapsed < θ`, and a walk evaluates it only on a resident access whose
//! permission is satisfied (a load, or a store to a modified line). Let
//! `lo` be one more than the largest `elapsed` among those accesses that
//! hit (0 if none did) and `hi` the smallest `elapsed` among those that
//! missed (`MAX_THETA` if none did). By induction over the trace, a walk at
//! any θ′ in `[lo, hi]` reaches every access in the same state and decides
//! it the same way: a hit had `elapsed < lo ≤ θ′`, a θ-sensitive miss had
//! `elapsed ≥ hi ≥ θ′`. So θ′ replays the whole trajectory and its counts,
//! and no θ′ outside the interval does (the access that set the crossed
//! bound would flip first). The intervals of one trace, geometry and pair
//! of latencies are therefore the classes of θ that share a trajectory:
//! they are disjoint. In the burst regime `elapsed` is the gaps and hit
//! latencies since the run's miss, so there the trajectory does not depend
//! on the penalty either, and a burst walk's interval holds for every
//! `P′ ≥ θ′`. [`stable_hits`] reports the interval with the counts;
//! [`crate::cache`] stores it, so one walk answers every later query
//! inside it.

use cohort_sim::CacheGeometry;
use cohort_trace::Trace;
use cohort_types::{Cycles, LineAddr, TimerValue};

/// Result of the guaranteed-hit analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HitMissCounts {
    /// Accesses guaranteed to hit under any co-runner behaviour.
    pub hits: u64,
    /// Accesses that must be assumed misses.
    pub misses: u64,
}

impl HitMissCounts {
    /// Total accesses analysed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Computes the guaranteed hits and misses of `trace` on a core with timer
/// `timer`, private-cache `geometry`, and the given latencies.
///
/// For θ = −1 (MSI) the analysis returns zero hits — without timers the
/// in-isolation analysis is not preserved under contention (Eq. 3's
/// premise). For θ = 0 likewise: the window is empty, so every access
/// misses. [`stable_hits`] is the same walk with its θ-stable interval.
///
/// # Examples
///
/// ```
/// use cohort_analysis::guaranteed_hits;
/// use cohort_sim::CacheGeometry;
/// use cohort_trace::{Trace, TraceOp};
/// use cohort_types::{Cycles, TimerValue};
///
/// let trace = Trace::from_ops(vec![
///     TraceOp::store(0),
///     TraceOp::store(0).after(5), // within a 100-cycle window: guaranteed
/// ]);
/// let counts = guaranteed_hits(
///     &trace,
///     TimerValue::timed(100)?,
///     &CacheGeometry::paper_l1(),
///     Cycles::new(1),
///     Cycles::new(216),
/// );
/// assert_eq!(counts.hits, 1);
/// assert_eq!(counts.misses, 1);
/// # Ok::<(), cohort_types::Error>(())
/// ```
#[must_use]
pub fn guaranteed_hits(
    trace: &Trace,
    timer: TimerValue,
    geometry: &CacheGeometry,
    hit_latency: Cycles,
    miss_penalty: Cycles,
) -> HitMissCounts {
    match timer.theta() {
        Some(theta) => stable_hits(trace, theta, geometry, hit_latency, miss_penalty).counts,
        // MSI: no guaranteed hits.
        None => HitMissCounts { hits: 0, misses: trace.len() as u64 },
    }
}

/// One walk's counts and the θ-stable interval `lo..=hi` of the module
/// docs: every θ′ in it gives the same counts at the walk's penalty and,
/// for a burst-regime walk (penalty ≥ θ), at every penalty ≥ θ′.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StableHits {
    /// The guaranteed hits and misses.
    pub counts: HitMissCounts,
    /// Smallest θ that replays the walk.
    pub lo: u64,
    /// Largest θ that replays the walk, at most `MAX_THETA`.
    pub hi: u64,
}

/// [`guaranteed_hits`] at timer θ (at most `MAX_THETA`), with the
/// interval of θ values that give the same walk (see the module docs).
///
/// # Examples
///
/// ```
/// use cohort_analysis::stable_hits;
/// use cohort_sim::CacheGeometry;
/// use cohort_trace::{Trace, TraceOp};
/// use cohort_types::Cycles;
///
/// // The revisit comes 5 cycles after the fill: every θ above 5 keeps it.
/// let trace = Trace::from_ops(vec![TraceOp::store(0), TraceOp::store(0).after(5)]);
/// let walk = stable_hits(&trace, 100, &CacheGeometry::paper_l1(), Cycles::new(1), Cycles::new(216));
/// assert_eq!((walk.counts.hits, walk.lo, walk.hi), (1, 6, 65_535));
/// ```
#[must_use]
pub fn stable_hits(
    trace: &Trace,
    theta: u64,
    geometry: &CacheGeometry,
    hit_latency: Cycles,
    miss_penalty: Cycles,
) -> StableHits {
    let theta = Cycles::new(theta);
    if miss_penalty >= theta {
        burst_walk(trace, theta, hit_latency, miss_penalty)
    } else if geometry.ways == 1 {
        flat_walk::<true>(trace, theta, geometry, hit_latency, miss_penalty)
    } else {
        flat_walk::<false>(trace, theta, geometry, hit_latency, miss_penalty)
    }
}

impl StableHits {
    /// A walk that has seen no access: no counts, every θ.
    fn start() -> Self {
        StableHits { counts: HitMissCounts::default(), lo: 0, hi: TimerValue::MAX_THETA }
    }

    /// Decides the one θ-sensitive step, a resident and permitted access
    /// `elapsed` cycles after its fill, and narrows the interval to the θ
    /// that decide it the same way.
    fn window_holds(&mut self, elapsed: Cycles, theta: Cycles) -> bool {
        let elapsed = elapsed.get();
        if elapsed < theta.get() {
            self.lo = self.lo.max(elapsed + 1);
            true
        } else {
            self.hi = self.hi.min(elapsed);
            false
        }
    }
}

/// The closed-form walk behind [`guaranteed_hits`] for the burst regime
/// (see the module docs): only an access that continues its predecessor's
/// run can hit, so the state is that line and its last fill.
fn burst_walk(
    trace: &Trace,
    theta: Cycles,
    hit_latency: Cycles,
    miss_penalty: Cycles,
) -> StableHits {
    let mut walk = StableHits::start();
    let mut now = Cycles::ZERO;
    let (mut line, mut fill, mut modified) = (None, Cycles::ZERO, false);
    for op in trace {
        now += op.gap;
        let store = op.kind.is_store();
        if line == Some(op.line) && (!store || modified) && walk.window_holds(now - fill, theta) {
            walk.counts.hits += 1;
            now += hit_latency;
        } else {
            walk.counts.misses += 1;
            now += miss_penalty;
            line = Some(op.line);
            fill = now;
            modified = store;
        }
    }
    walk
}

/// The flat-kernel walk behind [`guaranteed_hits`] (see the module docs);
/// `DIRECT_MAPPED` selects the rotation-free loop for one-way geometries.
fn flat_walk<const DIRECT_MAPPED: bool>(
    trace: &Trace,
    theta: Cycles,
    geometry: &CacheGeometry,
    hit_latency: Cycles,
    miss_penalty: Cycles,
) -> StableHits {
    let indexer = geometry.set_indexer();
    let ways = geometry.ways as usize;
    let entries = geometry.sets() as usize * ways;
    let mut tags: Vec<Option<LineAddr>> = vec![None; entries];
    let mut fills = vec![Cycles::ZERO; entries];
    let mut modified = vec![false; entries];
    let mut walk = StableHits::start();
    let mut now = Cycles::ZERO;
    for op in trace {
        now += op.gap;
        let set = indexer.index(op.line);
        // The entry that holds the line after this access.
        let (slot, resident) = if DIRECT_MAPPED {
            (set, tags[set] == Some(op.line))
        } else {
            let base = set * ways;
            let way = tags[base..base + ways].iter().position(|&t| t == Some(op.line));
            // Promote to MRU: the line's own way, else the last (empty or
            // LRU victim) way.
            let end = base + way.map_or(ways, |w| w + 1);
            tags[base..end].rotate_right(1);
            fills[base..end].rotate_right(1);
            modified[base..end].rotate_right(1);
            (base, way.is_some())
        };
        let store = op.kind.is_store();
        if resident && (!store || modified[slot]) && walk.window_holds(now - fills[slot], theta) {
            walk.counts.hits += 1;
            now += hit_latency;
        } else {
            walk.counts.misses += 1;
            now += miss_penalty;
            // Refill: a fresh window anchored at the (worst-case)
            // completion instant, with the permission the request gains.
            tags[slot] = Some(op.line);
            fills[slot] = now;
            modified[slot] = store;
        }
    }
    walk
}

/// Finds the timer saturation value `θ_sat`: the smallest θ at which the
/// task's guaranteed hits stop growing (the upper bound of the GA search
/// box in §V). The sweep runs in isolation with the uncontended miss
/// penalty, mirroring the paper's "sweeping timer values for `c_i` in
/// isolation".
///
/// Exploits the monotonicity of hits in θ (a longer window can only keep
/// more lines alive) for a logarithmic search; the property-based tests
/// check that monotonicity on random traces.
///
/// # Examples
///
/// ```
/// use cohort_analysis::theta_saturation;
/// use cohort_sim::CacheGeometry;
/// use cohort_trace::{Trace, TraceOp};
/// use cohort_types::Cycles;
///
/// // Revisit after 10 virtual cycles: saturates as soon as θ covers it.
/// let trace = Trace::from_ops(vec![TraceOp::store(0), TraceOp::store(0).after(10)]);
/// let sat = theta_saturation(&trace, &CacheGeometry::paper_l1(), Cycles::new(1), Cycles::new(54));
/// assert!(sat >= 10 && sat <= 16, "saturation near the reuse distance, got {sat}");
/// ```
#[must_use]
pub fn theta_saturation(
    trace: &Trace,
    geometry: &CacheGeometry,
    hit_latency: Cycles,
    miss_penalty: Cycles,
) -> u64 {
    saturation_search(|theta| {
        guaranteed_hits(
            trace,
            TimerValue::timed(theta).expect("θ within register range"),
            geometry,
            hit_latency,
            miss_penalty,
        )
        .hits
    })
}

/// Binary search for the smallest θ whose guaranteed-hit count equals the
/// count at `MAX_THETA`, given a probe function. Shared between the plain
/// [`theta_saturation`] and the memoized variant in [`crate::cache`], so
/// both issue the identical probe sequence (and therefore agree exactly).
pub(crate) fn saturation_search(mut hits_at: impl FnMut(u64) -> u64) -> u64 {
    let max_theta = TimerValue::MAX_THETA;
    let saturated = hits_at(max_theta);
    if hits_at(1) == saturated {
        return 1;
    }
    let (mut lo, mut hi) = (1u64, max_theta);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if hits_at(mid) == saturated {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohort_trace::TraceOp;

    const L1: CacheGeometry = CacheGeometry::paper_l1();
    const HIT: Cycles = Cycles::new(1);
    const PENALTY: Cycles = Cycles::new(216);

    fn timed(theta: u64) -> TimerValue {
        TimerValue::timed(theta).unwrap()
    }

    #[test]
    fn msi_core_has_no_guaranteed_hits() {
        let trace = Trace::from_ops(vec![TraceOp::store(0); 10]);
        let counts = guaranteed_hits(&trace, TimerValue::MSI, &L1, HIT, PENALTY);
        assert_eq!(counts.hits, 0);
        assert_eq!(counts.misses, 10);
    }

    #[test]
    fn window_expiry_forces_a_refill() {
        // Second access 10 cycles after fill, third 300 cycles later:
        // θ = 100 covers the first revisit only.
        let trace = Trace::from_ops(vec![
            TraceOp::store(0),
            TraceOp::store(0).after(10),
            TraceOp::store(0).after(300),
        ]);
        let counts = guaranteed_hits(&trace, timed(100), &L1, HIT, PENALTY);
        assert_eq!(counts.hits, 1);
        assert_eq!(counts.misses, 2);
    }

    #[test]
    fn store_after_load_is_not_guaranteed() {
        // A load fills with read permission; the store needs an upgrade.
        let trace = Trace::from_ops(vec![
            TraceOp::load(0),
            TraceOp::store(0).after(2),
            TraceOp::load(0).after(2), // hits: the upgrade granted M
        ]);
        let counts = guaranteed_hits(&trace, timed(100), &L1, HIT, PENALTY);
        assert_eq!(counts.hits, 1);
        assert_eq!(counts.misses, 2);
    }

    #[test]
    fn conflict_evictions_are_respected() {
        // Lines 0 and 256 conflict in the direct-mapped L1.
        let trace =
            Trace::from_ops(vec![TraceOp::load(0), TraceOp::load(256), TraceOp::load(0).after(1)]);
        let counts = guaranteed_hits(&trace, timed(60_000), &L1, HIT, PENALTY);
        assert_eq!(counts.hits, 0);
        assert_eq!(counts.misses, 3);
    }

    #[test]
    fn hits_monotone_in_theta_on_a_kernel() {
        let w = cohort_trace::KernelSpec::new(cohort_trace::Kernel::Fft, 2)
            .with_total_requests(4_000)
            .generate();
        let trace = &w.traces()[0];
        let mut previous = 0;
        for theta in [1u64, 4, 16, 64, 256, 1024, 4096, 65_535] {
            let h = guaranteed_hits(trace, timed(theta), &L1, HIT, PENALTY).hits;
            assert!(h >= previous, "θ={theta}: {h} < {previous}");
            previous = h;
        }
        assert!(previous > 0, "a reuse-heavy kernel must have guaranteed hits");
    }

    #[test]
    fn saturation_is_a_fixed_point() {
        let w = cohort_trace::KernelSpec::new(cohort_trace::Kernel::Water, 2)
            .with_total_requests(2_000)
            .generate();
        let trace = &w.traces()[0];
        let sat = theta_saturation(trace, &L1, HIT, Cycles::new(54));
        let at_sat = guaranteed_hits(trace, timed(sat), &L1, HIT, Cycles::new(54)).hits;
        let beyond =
            guaranteed_hits(trace, timed(TimerValue::MAX_THETA), &L1, HIT, Cycles::new(54)).hits;
        assert_eq!(at_sat, beyond);
        if sat > 1 {
            let below = guaranteed_hits(trace, timed(sat - 1), &L1, HIT, Cycles::new(54)).hits;
            assert!(below < at_sat, "θ_sat must be minimal");
        }
    }

    #[test]
    fn total_is_preserved() {
        let trace = Trace::from_ops(vec![TraceOp::load(0); 7]);
        let counts = guaranteed_hits(&trace, timed(3), &L1, HIT, PENALTY);
        assert_eq!(counts.total(), 7);
    }

    #[test]
    fn larger_penalty_never_increases_hits() {
        let w = cohort_trace::KernelSpec::new(cohort_trace::Kernel::Lu, 2)
            .with_total_requests(3_000)
            .generate();
        let trace = &w.traces()[0];
        let fast = guaranteed_hits(trace, timed(200), &L1, HIT, Cycles::new(54)).hits;
        let slow = guaranteed_hits(trace, timed(200), &L1, HIT, Cycles::new(500)).hits;
        assert!(slow <= fast, "a larger miss penalty stretches the timeline");
    }
}
