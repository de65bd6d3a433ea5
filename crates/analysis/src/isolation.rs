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
//! one array of `sets × ways` packed slots (tag, fill anchor, modified
//! bit), set `s` owning the slice `[s·ways, (s+1)·ways)` and indexed by
//! the geometry's one `SetIndexer` rule. Each set's slice is kept
//! MRU-first with its resident lines as a prefix and empty ways at the
//! tail. Every access rotates the slice prefix ending at
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
//! the two to the reference walk. One cycle below the regime the penalty
//! matters again: at θ = P + 1 a line can outlive one intervening miss.
//!
//! ## (θ, P)-stable regions
//!
//! Under LRU every access leaves its line at MRU, hit or miss, so which
//! lines are resident before each access depends on the address stream
//! alone, not on θ or the penalty `P`. The one step that reads either is
//! `elapsed < θ`, and a walk evaluates it only on a resident access whose
//! permission is satisfied (a load, or a store to a modified line).
//!
//! Virtual time is `now = T + M·P`, where `T` sums the gaps and hit
//! latencies so far and `M` counts the misses so far; both depend on the
//! trajectory (which accesses hit), not on θ or `P`. A θ-sensitive step at
//! `(T, M)` on a line filled at `(T_fill, M_fill)` therefore has
//! `elapsed = a + m·P` with `a = T − T_fill` and `m = M − M_fill`; the
//! flat kernel keeps each fill's instant and `M_fill`, and derives `a`
//! from `elapsed` and `m`. A hit there holds at (θ′, P′) iff
//! `θ′ − m·P′ ≥ a + 1`, a θ-sensitive miss iff `θ′ − m·P′ ≤ a`. Each is a
//! half-plane bounded by the line `θ′ = c + m·P′`; per `m` the walk keeps
//! the largest hit bound and the smallest miss bound. The walk's region is
//! the convex polygon of the (θ′, P′) on or above the max-envelope of the
//! hit lines and on or below the min-envelope of the miss lines.
//!
//! By induction over the trace, a walk at any (θ′, P′) in the region
//! reaches every access with the same `(T, M)`, the same residency and the
//! same fills and permissions, and decides it the same way: the access's
//! own line holds at (θ′, P′). So (θ′, P′) replays the whole trajectory and
//! its counts. Conversely the first access whose line (θ′, P′) violates
//! flips at (θ′, P′), so the regions of distinct trajectories are
//! disjoint. Two simplifications keep the walk's state small, and both
//! only shrink the region, which stays exact:
//!
//! - Misses with `m ≥ K = ⌈MAX_THETA/P⌉` share the bound of `m = K`. The
//!   line `θ′ ≤ a + K·P′` implies `θ′ ≤ a + m·P′` for every `P′ ≥ 0`, and
//!   at the walk's own penalty it admits every θ′, because
//!   `K·P ≥ MAX_THETA`. A hit has `m·P < θ`, so `m < K`: the bound array
//!   has `K + 1` entries (fewer if the trace is shorter).
//! - A miss bound of `MAX_THETA` or more says nothing, as no θ′ exceeds
//!   it, and a line that is nowhere on its envelope for `P′ ≥ 0` is
//!   dropped.
//!
//! At the walk's own penalty the region's θ-slice is therefore the whole
//! interval of θ′ that replay the walk there.
//!
//! A flat walk (`P < θ`) reports [`Region::Flat`] and answers the queries
//! with `P′ < θ′` inside it. In the burst regime `elapsed` is the gaps and
//! hit latencies since the run's miss, so the trajectory depends on θ
//! alone: a burst walk reports the θ-interval [`Region::Burst`] `lo..=hi`,
//! with `lo` one more than the largest `elapsed` among its hits and `hi`
//! the smallest among its θ-sensitive misses, and it holds at every
//! `P′ ≥ θ′`. [`stable_hits`] reports the region with the counts;
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
/// misses. [`stable_hits`] is the same walk with its (θ, P)-stable region.
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
        Some(theta) => match walk(trace, theta, geometry, hit_latency, miss_penalty) {
            Walk::Burst(walk) => walk.counts,
            Walk::Flat(counts, _) => counts,
        },
        // MSI: no guaranteed hits.
        None => HitMissCounts { hits: 0, misses: trace.len() as u64 },
    }
}

/// One walk's counts and the (θ, P) points that replay it (see the module
/// docs): every point of [`Self::region`] gives the same counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StableHits {
    /// The guaranteed hits and misses.
    pub counts: HitMissCounts,
    /// The points that replay the walk, the walk's own point among them.
    pub region: Region,
}

/// The (θ, P) points that replay one walk of [`stable_hits`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Region {
    /// A burst-regime walk: every θ in `lo..=hi` at every penalty ≥ θ.
    Burst {
        /// Smallest θ that replays the walk.
        lo: u64,
        /// Largest θ that replays the walk, at most `MAX_THETA`.
        hi: u64,
    },
    /// A flat-regime walk: the points with penalty < θ between its
    /// envelopes.
    Flat(Envelopes),
}

impl Region {
    /// Whether the walk at `(theta, penalty)` replays this region's walk.
    #[must_use]
    pub fn contains(&self, theta: u64, penalty: Cycles) -> bool {
        let penalty = penalty.get();
        match self {
            Region::Burst { lo, hi } => penalty >= theta && (*lo..=*hi).contains(&theta),
            Region::Flat(envelopes) => penalty < theta && envelopes.contains(theta, penalty),
        }
    }
}

/// A convex polygon in the (P, θ) plane, as lines `θ = c + m·P`: its
/// points lie on or above every line of the lower envelope (the hits'
/// bounds) and on or below every line of the upper one (the misses').
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelopes {
    /// `(m, c)` pairs: the lower envelope's, then the upper one's.
    lines: Box<[(u64, u64)]>,
    /// How many of `lines` belong to the lower envelope.
    lower: usize,
}

impl Envelopes {
    /// The lower envelope's `(m, c)` lines, slopes ascending.
    fn lower(&self) -> &[(u64, u64)] {
        &self.lines[..self.lower]
    }

    /// The upper envelope's `(m, c)` lines, slopes descending.
    fn upper(&self) -> &[(u64, u64)] {
        &self.lines[self.lower..]
    }

    /// Whether `(theta, penalty)` lies between the envelopes (the caller
    /// checks the regime).
    pub(crate) fn contains(&self, theta: u64, penalty: u64) -> bool {
        let at = |&(m, c): &(u64, u64)| c.saturating_add(m.saturating_mul(penalty));
        self.lower().iter().all(|line| at(line) <= theta)
            && self.upper().iter().all(|line| theta <= at(line))
    }

    /// The envelopes of a flat walk's bounds.
    fn of(bounds: &Bounds) -> Self {
        let lines = bounds
            .seen()
            .iter()
            .enumerate()
            .map(|(m, &(hit, miss))| (m as i64, (hit as i64, miss as i64)));
        let lower =
            max_envelope(lines.clone().filter(|&(_, (c, _))| c > 0).map(|(m, (c, _))| (m, c)));
        // min(c + m·P) = −max(−c − m·P), over slopes −m ascending.
        let upper = max_envelope(
            (lines.rev())
                .filter(|&(_, (_, c))| c < TimerValue::MAX_THETA as i64)
                .map(|(m, (_, c))| (-m, -c)),
        );
        let line = |&(m, c): &(i64, i64)| (m.unsigned_abs(), c.unsigned_abs());
        let lines: Box<[(u64, u64)]> = lower.iter().chain(&upper).map(line).collect();
        Envelopes { lines, lower: lower.len() }
    }
}

/// The lines `(m, c)` of `lines` (slopes strictly ascending) on which
/// `max(c + m·P)` is reached at some `P ≥ 0`.
fn max_envelope(lines: impl Iterator<Item = (i64, i64)>) -> Vec<(i64, i64)> {
    let mut hull: Vec<(i64, i64)> = Vec::new();
    for (m, c) in lines {
        // A steeper line at least as high at P = 0 is at least as high at
        // every P ≥ 0.
        while hull.last().is_some_and(|&(_, last)| last <= c) {
            hull.pop();
        }
        // The last line is never the maximum if the new one overtakes the
        // line before it no later than the last one does.
        while let [.., (m1, c1), (m2, c2)] = hull[..] {
            if (c1 - c) * (m2 - m1) > (c1 - c2) * (m - m1) {
                break;
            }
            hull.pop();
        }
        hull.push((m, c));
    }
    hull
}

/// [`guaranteed_hits`] at timer θ (at most `MAX_THETA`), with the region
/// of (θ, P) points that give the same walk (see the module docs).
///
/// # Examples
///
/// ```
/// use cohort_analysis::{stable_hits, Region};
/// use cohort_sim::CacheGeometry;
/// use cohort_trace::{Trace, TraceOp};
/// use cohort_types::Cycles;
///
/// // The revisit comes 5 cycles after the fill: every θ above 5 keeps it.
/// let trace = Trace::from_ops(vec![TraceOp::store(0), TraceOp::store(0).after(5)]);
/// let walk = stable_hits(&trace, 100, &CacheGeometry::paper_l1(), Cycles::new(1), Cycles::new(216));
/// assert_eq!((walk.counts.hits, walk.region), (1, Region::Burst { lo: 6, hi: 65_535 }));
/// // Below the burst regime the region spans penalties too.
/// let walk = stable_hits(&trace, 100, &CacheGeometry::paper_l1(), Cycles::new(1), Cycles::new(50));
/// assert!(walk.region.contains(6, Cycles::new(5)) && !walk.region.contains(5, Cycles::new(4)));
/// ```
#[must_use]
pub fn stable_hits(
    trace: &Trace,
    theta: u64,
    geometry: &CacheGeometry,
    hit_latency: Cycles,
    miss_penalty: Cycles,
) -> StableHits {
    match walk(trace, theta, geometry, hit_latency, miss_penalty) {
        Walk::Burst(walk) => walk,
        Walk::Flat(counts, bounds) => {
            StableHits { counts, region: Region::Flat(Envelopes::of(&bounds)) }
        }
    }
}

/// One walk, a flat walk's region not yet built: [`guaranteed_hits`]
/// drops it.
enum Walk {
    Burst(StableHits),
    Flat(HitMissCounts, Bounds),
}

/// The walk of [`stable_hits`]: the closed form in the burst regime, else
/// the flat kernel.
fn walk(
    trace: &Trace,
    theta: u64,
    geometry: &CacheGeometry,
    hit_latency: Cycles,
    miss_penalty: Cycles,
) -> Walk {
    let (hit_latency, miss_penalty) = (hit_latency.get(), miss_penalty.get());
    if miss_penalty >= theta {
        Walk::Burst(burst_walk(trace, theta, hit_latency, miss_penalty))
    } else if geometry.ways == 1 {
        flat_walk::<true>(trace, theta, geometry, hit_latency, miss_penalty)
    } else {
        flat_walk::<false>(trace, theta, geometry, hit_latency, miss_penalty)
    }
}

/// The closed-form walk behind [`guaranteed_hits`] for the burst regime
/// (see the module docs): only an access that continues its predecessor's
/// run can hit, so the state is that line and its last fill.
fn burst_walk(trace: &Trace, theta: u64, hit_latency: u64, miss_penalty: u64) -> StableHits {
    let mut counts = HitMissCounts::default();
    let (mut lo, mut hi) = (0, TimerValue::MAX_THETA);
    let mut now = 0;
    let (mut line, mut fill, mut modified) = (None, 0, false);
    for op in trace {
        now += op.gap().get();
        let store = op.kind().is_store();
        if line == Some(op.line) && (!store || modified) {
            let elapsed = now - fill;
            if elapsed < theta {
                lo = lo.max(elapsed + 1);
                counts.hits += 1;
                now += hit_latency;
                continue;
            }
            hi = hi.min(elapsed);
        }
        counts.misses += 1;
        now += miss_penalty;
        line = Some(op.line);
        fill = now;
        modified = store;
    }
    StableHits { counts, region: Region::Burst { lo, hi } }
}

/// One way of the flat kernel: the resident line and its fill.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: LineAddr,
    /// The (worst-case) completion instant of the filling miss.
    fill: u64,
    /// Misses up to and including the fill, shifted left by one, with the
    /// modified bit in bit 0; [`Slot::EMPTY`] for a way holding no line.
    anchor: u64,
}

impl Slot {
    const EMPTY: Slot = Slot { line: LineAddr::new(0), fill: 0, anchor: u64::MAX };

    fn holds(&self, line: LineAddr) -> bool {
        self.line == line && self.anchor != u64::MAX
    }
}

/// The flat-kernel walk behind [`guaranteed_hits`] (see the module docs);
/// `DIRECT_MAPPED` selects the rotation-free loop for one-way geometries.
fn flat_walk<const DIRECT_MAPPED: bool>(
    trace: &Trace,
    theta: u64,
    geometry: &CacheGeometry,
    hit_latency: u64,
    miss_penalty: u64,
) -> Walk {
    let indexer = geometry.set_indexer();
    let ways = geometry.ways as usize;
    let mut slots = vec![Slot::EMPTY; geometry.sets() as usize * ways];
    let mut bounds = Bounds::new(miss_penalty, trace.len());
    let mut counts = HitMissCounts::default();
    let mut now = 0;
    for op in trace {
        now += op.gap().get();
        let set = indexer.index(op.line);
        // The slot that holds the line after this access.
        let (slot, resident) = if DIRECT_MAPPED {
            (set, slots[set].holds(op.line))
        } else {
            let base = set * ways;
            let way = slots[base..base + ways].iter().position(|s| s.holds(op.line));
            // Promote to MRU: the line's own way, else the last (empty or
            // LRU victim) way.
            let end = base + way.map_or(ways, |w| w + 1);
            slots[base..end].rotate_right(1);
            (base, way.is_some())
        };
        let slot = &mut slots[slot];
        let store = op.kind().is_store();
        if resident && (!store || slot.anchor & 1 == 1) {
            let elapsed = now - slot.fill;
            let m = counts.misses - (slot.anchor >> 1);
            let a = elapsed - m * miss_penalty;
            if elapsed < theta {
                bounds.hit(m, a);
                counts.hits += 1;
                now += hit_latency;
                continue;
            }
            bounds.miss(m, a);
        }
        // Refill: a fresh window anchored at the (worst-case) completion
        // instant, with the permission the request gains.
        counts.misses += 1;
        now += miss_penalty;
        *slot = Slot { line: op.line, fill: now, anchor: counts.misses << 1 | u64::from(store) };
    }
    Walk::Flat(counts, bounds)
}

/// The tightest bound per `m` of a flat walk's θ-sensitive steps (see the
/// module docs): per `m`, the largest `a + 1` among the hits (0: none)
/// and the smallest `a` among the misses (`MAX_THETA`: none), the misses
/// with `m ≥ K` sharing the last entry.
struct Bounds(Vec<(u64, u64)>);

impl Bounds {
    /// An entry no step has written.
    const NONE: (u64, u64) = (0, TimerValue::MAX_THETA);

    fn new(miss_penalty: u64, len: usize) -> Self {
        let k = match miss_penalty {
            0 => u64::MAX,
            p => TimerValue::MAX_THETA.div_ceil(p),
        };
        Bounds(vec![Self::NONE; k.min(len as u64) as usize + 1])
    }

    /// The entries from `m = 0` up to the last one written.
    fn seen(&self) -> &[(u64, u64)] {
        let written = self.0.iter().rposition(|&bounds| bounds != Self::NONE);
        &self.0[..written.map_or(0, |last| last + 1)]
    }

    fn at(&mut self, m: u64) -> &mut (u64, u64) {
        let last = self.0.len() - 1;
        &mut self.0[(m as usize).min(last)]
    }

    fn hit(&mut self, m: u64, a: u64) {
        let bound = &mut self.at(m).0;
        if a >= *bound {
            *bound = a + 1;
        }
    }

    fn miss(&mut self, m: u64, a: u64) {
        let bound = &mut self.at(m).1;
        if a < *bound {
            *bound = a;
        }
    }
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
    fn misses_past_k_share_the_last_bound() {
        // Line 0, 100 other lines, line 0 again, all loads to distinct
        // sets without gaps: at P = 1,000 the revisit misses with m = 100,
        // past K = ⌈MAX_THETA/P⌉ = 66, and a = 0.
        let ops = std::iter::once(0).chain(1..=100).chain([0]).map(TraceOp::load).collect();
        let trace = Trace::from_ops(ops);
        let walk = stable_hits(&trace, 2_000, &L1, HIT, Cycles::new(1_000));
        assert_eq!(walk.counts, HitMissCounts { hits: 0, misses: 102 });
        let Region::Flat(envelopes) = &walk.region else { panic!("{walk:?}") };
        assert_eq!((envelopes.lower(), envelopes.upper()), (&[][..], &[(66, 0)][..]));
        // The shared bound θ′ ≤ 66·P′ is stricter than the revisit's own
        // θ′ ≤ 100·P′, and still wide of the walk: at P′ = 10 the revisit
        // comes 1,000 cycles after the fill and hits.
        assert!(walk.region.contains(2_000, Cycles::new(31)));
        assert!(!walk.region.contains(2_000, Cycles::new(30)));
        assert_eq!(guaranteed_hits(&trace, timed(2_000), &L1, HIT, Cycles::new(10)).hits, 1);
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
