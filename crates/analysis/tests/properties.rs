//! Property-based tests of the static analyses.

use cohort_prop::prelude::*;

use cohort_analysis::{guaranteed_hits, stable_hits, theta_saturation, HitMissCounts};
use cohort_analysis::{wcl_miss, wcml_snoop, wcml_timed};
use cohort_analysis::{AnalysisCache, Region, StableHits};
use cohort_sim::{CacheGeometry, SetAssocCache};
use cohort_trace::{micro, AccessKind, Kernel, KernelSpec, Trace, TraceOp};
use cohort_types::LatencyConfig;
use cohort_types::{Cycles, Fingerprint, LineAddr, SeedRng, TimerValue};

/// The reference walk: the guaranteed-hit analysis run on the simulator's
/// generic true-LRU [`SetAssocCache`], indexed by [`LineAddr::set_index`].
/// The flat kernel behind [`guaranteed_hits`] must agree with it exactly.
fn reference_hits(
    trace: &Trace,
    timer: TimerValue,
    geometry: &CacheGeometry,
    hit_latency: Cycles,
    miss_penalty: Cycles,
) -> HitMissCounts {
    let Some(theta) = timer.theta().filter(|&t| t > 0) else {
        return HitMissCounts { hits: 0, misses: trace.len() as u64 };
    };
    // Payload: (fill anchor, modified).
    let mut cache: SetAssocCache<(Cycles, bool)> = SetAssocCache::new(*geometry);
    let mut counts = HitMissCounts::default();
    let mut now = Cycles::ZERO;
    for op in trace {
        now += op.gap;
        let hit = cache.peek(op.line).is_some_and(|&(fill, modified)| {
            now.get() - fill.get() < theta && (!op.kind.is_store() || modified)
        });
        if hit {
            counts.hits += 1;
            cache.touch(op.line);
            now += hit_latency;
        } else {
            counts.misses += 1;
            now += miss_penalty;
            cache.insert(op.line, (now, op.kind.is_store()));
        }
    }
    counts
}

/// A geometry of `sets` × `ways` 64-byte lines, built as a struct literal
/// so non-power-of-two set counts (which `CacheGeometry::new` rejects)
/// reach the kernel too.
fn geometry(sets: u64, ways: u64) -> CacheGeometry {
    CacheGeometry { size_bytes: sets * ways * 64, line_bytes: 64, ways }
}

/// A random load/store trace over `lines` distinct lines.
fn random_trace(rng: &mut SeedRng, lines: u64) -> Trace {
    let len = rng.gen_range(0usize..300);
    Trace::from_ops(
        (0..len)
            .map(|_| {
                let kind = if rng.gen_bool(0.4) { AccessKind::Store } else { AccessKind::Load };
                TraceOp::new(
                    LineAddr::new(rng.gen_range(0..lines)),
                    kind,
                    Cycles::new(rng.gen_range(0u64..40)),
                )
            })
            .collect(),
    )
}

/// The flat kernel against the reference walk on seeded random traces:
/// ways ∈ {1, 2, 4, 8}, power-of-two and other set counts, θ ∈ {MSI, 0,
/// 1, random, MAX_THETA}, random hit latency and miss penalty.
#[test]
fn flat_kernel_matches_the_reference_walk() {
    let mut rng = SeedRng::seed_from_u64(13);
    for ways in [1u64, 2, 4, 8] {
        for sets in [1u64, 3, 4, 5, 16, 256] {
            let geom = geometry(sets, ways);
            for _ in 0..24 {
                let trace = random_trace(&mut rng, sets * ways * 3);
                let hit = Cycles::new(rng.gen_range(0u64..5));
                let penalty = Cycles::new(rng.gen_range(1u64..600));
                let random = TimerValue::timed(rng.gen_range(1u64..2_000)).unwrap();
                for timer in [
                    TimerValue::MSI,
                    TimerValue::timed(0).unwrap(),
                    TimerValue::timed(1).unwrap(),
                    random,
                    TimerValue::timed(TimerValue::MAX_THETA).unwrap(),
                ] {
                    assert_eq!(
                        guaranteed_hits(&trace, timer, &geom, hit, penalty),
                        reference_hits(&trace, timer, &geom, hit, penalty),
                        "{sets} sets × {ways} ways, {timer:?}, hit {hit:?}, penalty {penalty:?}"
                    );
                }
            }
        }
    }
}

/// Stable regions against the reference walk, on seeded random traces
/// over direct-mapped, 2-way and 4-way geometries in both regimes: the
/// region a walk reports holds its (θ, P), and the reference walk gives the
/// walk's counts at every point of a seeded sample around it that the
/// region holds. Burst intervals are also tried at `lo`, at `hi` and at
/// `P′ ∈ {θ′, θ′ + 1, θ′ + offset}`.
#[test]
fn stable_regions_replay_the_reference_walk() {
    let mut rng = SeedRng::seed_from_u64(28);
    let (mut widths, mut flat_points) = (0, 0);
    for ways in [1u64, 2, 4] {
        for sets in [1u64, 4, 5, 16] {
            let geom = geometry(sets, ways);
            for _ in 0..16 {
                let trace = random_trace(&mut rng, sets * ways * 3);
                let hit = Cycles::new(rng.gen_range(0u64..5));
                for burst in [true, false] {
                    let theta = rng.gen_range(2u64..2_000);
                    let penalty = if burst {
                        theta + rng.gen_range(0u64..600)
                    } else {
                        rng.gen_range(1..theta)
                    };
                    let walk = stable_hits(&trace, theta, &geom, hit, Cycles::new(penalty));
                    assert!(
                        walk.region.contains(theta, Cycles::new(penalty)),
                        "(θ {theta}, P {penalty}) outside {walk:?} ({sets}×{ways})"
                    );
                    let mut points: Vec<(u64, u64)> = (0..24)
                        .map(|_| {
                            let other = rng.gen_range(1..=2 * theta).min(TimerValue::MAX_THETA);
                            (other, rng.gen_range(0..=2 * penalty))
                        })
                        .collect();
                    if let Region::Burst { lo, hi } = walk.region {
                        assert!(hi <= TimerValue::MAX_THETA);
                        widths += hi - lo;
                        let between = rng.gen_range(lo..=hi);
                        for other in [lo, hi, between] {
                            let offset = rng.gen_range(2u64..=3_000);
                            points.extend([other, other + 1, other + offset].map(|p| (other, p)));
                        }
                    }
                    for (other, p) in points {
                        let p = Cycles::new(p);
                        if !walk.region.contains(other, p) {
                            continue;
                        }
                        flat_points += u64::from(!burst);
                        assert_eq!(
                            reference_hits(
                                &trace,
                                TimerValue::timed(other).unwrap(),
                                &geom,
                                hit,
                                p
                            ),
                            walk.counts,
                            "(θ′ {other}, P′ {p:?}) in {walk:?} from (θ {theta}, P {penalty}), \
                             {sets}×{ways}, hit {hit:?}"
                        );
                    }
                }
            }
        }
    }
    assert!(widths > 0, "the cases must include intervals wider than one θ");
    assert!(flat_points > 0, "the cases must include flat regions wider than one point");
}

/// The memo against cold walks on a dense (θ, P) grid that spans both
/// regimes, on seeded random traces over direct-mapped, 2-way and 4-way
/// geometries, through an owned memo: every answer equals the cold
/// [`stable_hits`] count at its point, every walk's region holds the
/// walk's own point, and no grid point lies in two walks' regions whose
/// counts differ. The memo stores a subset of those regions.
#[test]
fn the_memo_answers_a_dense_grid_like_cold_walks() {
    let mut rng = SeedRng::seed_from_u64(31);
    let grid: Vec<(u64, u64)> = (1..=300u64)
        .step_by(9)
        .flat_map(|theta| (0..=320u64).step_by(11).map(move |penalty| (theta, penalty)))
        .collect();
    let (mut lookups, mut walks) = (0, 0);
    for ways in [1u64, 2, 4] {
        for sets in [1u64, 4, 16] {
            let geom = geometry(sets, ways);
            for _ in 0..3 {
                let trace = random_trace(&mut rng, sets * ways * 3);
                let hit = Cycles::new(rng.gen_range(0u64..5));
                let cache = AnalysisCache::new();
                let mut regions: Vec<StableHits> = Vec::new();
                let cold: Vec<HitMissCounts> = grid
                    .iter()
                    .map(|&(theta, penalty)| {
                        let walk = stable_hits(&trace, theta, &geom, hit, Cycles::new(penalty));
                        assert!(walk.region.contains(theta, Cycles::new(penalty)), "{walk:?}");
                        let counts = walk.counts;
                        if !regions.contains(&walk) {
                            regions.push(walk);
                        }
                        counts
                    })
                    .collect();
                for (&(theta, penalty), &counts) in grid.iter().zip(&cold) {
                    let timer = TimerValue::timed(theta).unwrap();
                    let penalty = Cycles::new(penalty);
                    assert_eq!(
                        cache.guaranteed_hits(&trace, timer, &geom, hit, penalty),
                        counts,
                        "θ {theta}, P {penalty:?}, {sets}×{ways}, hit {hit:?}"
                    );
                    for walk in regions.iter().filter(|walk| walk.region.contains(theta, penalty)) {
                        assert_eq!(walk.counts, counts, "θ {theta}, P {penalty:?} in {walk:?}");
                    }
                }
                let s = cache.stats();
                let w = cache.walks();
                assert_eq!(s.lookups - s.hits, w.flat + w.burst);
                lookups += s.lookups;
                walks += w.flat + w.burst;
            }
        }
    }
    assert!(walks * 4 < lookups, "{walks} walks for {lookups} lookups");
}

/// The memo against cold walks where the θ-saturation search probes: the
/// uncontended penalty (the paper's slot width, 54 cycles) and θ on the
/// search's probe sequence from `MAX_THETA` down, with each probe's
/// neighbours θ ± 1. There `K = ⌈MAX_THETA/54⌉ = 1,214`, and the kernel
/// traces (3,000 accesses per core) and a trace whose one revisit misses
/// 1,300 misses after its fill write the bound that misses with `m ≥ K`
/// share. That bound admits every θ at 54 itself, so the same θs are also
/// asked at penalties just below it, which the search's regions may hold.
/// After the memo's own search, which must find the cold search's θ_sat,
/// every answer equals the cold [`stable_hits`] count at its point, every
/// walk's region holds the walk's own point, and no point lies in two
/// walks' regions whose counts differ.
#[test]
fn the_memo_answers_saturation_probes_like_cold_walks() {
    let uncontended = LatencyConfig::paper().slot_width();
    let max = TimerValue::MAX_THETA;
    let mut rng = SeedRng::seed_from_u64(34);
    let mut cases: Vec<(Trace, CacheGeometry)> = Vec::new();
    for kernel in Kernel::ALL {
        let w = KernelSpec::new(kernel, 2).with_total_requests(6_000).with_seed(3).generate();
        for geom in [geometry(256, 1), geometry(64, 4)] {
            cases.extend(w.traces().iter().map(|t| (t.clone(), geom)));
        }
    }
    let cold_misses = (1..=1_300).map(|i| 256 * i + 1);
    let past_k = std::iter::once(0).chain(cold_misses).chain([0]).map(TraceOp::load);
    cases.push((Trace::from_ops(past_k.collect()), geometry(256, 1)));
    for ways in [1u64, 2, 4] {
        for sets in [1u64, 4, 16] {
            let geom = geometry(sets, ways);
            cases.extend((0..2).map(|_| (random_trace(&mut rng, sets * ways * 3), geom)));
        }
    }
    let mut bisected = 0;
    for (trace, geom) in &cases {
        let hit = Cycles::new(1);
        let cold = |theta, penalty| stable_hits(trace, theta, geom, hit, penalty);
        // `saturation_search`'s probes, replayed on cold walks.
        let saturated = cold(max, uncontended).counts.hits;
        let mut probes = vec![max, 1];
        let sat = if cold(1, uncontended).counts.hits == saturated {
            1
        } else {
            let (mut lo, mut hi) = (1, max);
            while lo + 1 < hi {
                let mid = lo + (hi - lo) / 2;
                probes.push(mid);
                if cold(mid, uncontended).counts.hits == saturated {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            bisected += 1;
            hi
        };
        let cache = AnalysisCache::new();
        assert_eq!(cache.theta_saturation(trace, geom, hit, uncontended), sat);
        assert_eq!(theta_saturation(trace, geom, hit, uncontended), sat);
        let thetas = probes.iter().flat_map(|&p| [p - 1, p, p + 1]);
        let mut points: Vec<(u64, Cycles)> = thetas
            .filter(|p| (1..=max).contains(p))
            .flat_map(|theta| [54, 53, 50, 40].map(|p| (theta, Cycles::new(p))))
            .collect();
        points.sort_unstable();
        points.dedup();
        let walks: Vec<StableHits> = points.iter().map(|&(t, p)| cold(t, p)).collect();
        for (&(theta, penalty), walk) in points.iter().zip(&walks) {
            assert!(walk.region.contains(theta, penalty), "(θ {theta}, P {penalty:?}): {walk:?}");
            let timer = TimerValue::timed(theta).unwrap();
            assert_eq!(
                cache.guaranteed_hits(trace, timer, geom, hit, penalty),
                walk.counts,
                "(θ {theta}, P {penalty:?}), {} ops, {geom:?}",
                trace.len()
            );
            for other in walks.iter().filter(|other| other.region.contains(theta, penalty)) {
                assert_eq!(other.counts, walk.counts, "(θ {theta}, P {penalty:?}) in {other:?}");
            }
        }
    }
    assert!(bisected > 0, "some searches must bisect");
}

/// The burst regime (miss penalty `P ≥ θ`) against the reference walk: the
/// six kernels × 3 seeds plus `random_shared` and `line_bursts` micro
/// traces, on 256×1, 64×4, 8×2 and a 5×3 (non-power-of-two) geometry, hit
/// latencies 1–3, θ on a log grid up to `MAX_THETA` and
/// `P ∈ {θ, θ + 1, θ + seeded offset ≤ 3000}`.
#[test]
fn burst_regime_matches_the_reference_walk() {
    let mut traces: Vec<Trace> = Vec::new();
    for kernel in Kernel::ALL {
        for seed in [0, 1, 2] {
            let w = KernelSpec::new(kernel, 2).with_total_requests(400).with_seed(seed).generate();
            traces.extend(w.traces().iter().cloned());
        }
    }
    for (lines, seed) in [(4, 5), (16, 6)] {
        traces.extend(micro::random_shared(2, lines, 300, 0.4, seed).traces().iter().cloned());
    }
    traces.extend(micro::line_bursts(2, 4, 60).traces().iter().cloned());

    let mut thetas: Vec<u64> = (0..16).map(|k| 1u64 << k).collect();
    thetas.push(TimerValue::MAX_THETA);
    let mut rng = SeedRng::seed_from_u64(20);
    let mut hits = 0;
    for trace in &traces {
        for geom in [geometry(256, 1), geometry(64, 4), geometry(8, 2), geometry(5, 3)] {
            for hit in (1..=3).map(Cycles::new) {
                for &theta in &thetas {
                    let timer = TimerValue::timed(theta).unwrap();
                    let offset = rng.gen_range(2u64..=3000);
                    for penalty in [theta, theta + 1, theta + offset].map(Cycles::new) {
                        let counts = guaranteed_hits(trace, timer, &geom, hit, penalty);
                        assert_eq!(
                            counts,
                            reference_hits(trace, timer, &geom, hit, penalty),
                            "θ {theta}, {geom:?}, hit {hit:?}, penalty {penalty:?}"
                        );
                        hits += counts.hits;
                    }
                }
            }
        }
    }
    assert!(hits > 0, "the regime cases must include guaranteed hits");
}

/// Why the burst regime's closed form stops at `P ≥ θ`: at θ = P + 1 a
/// miss no longer outlasts the window, so a line survives one intervening
/// miss and the penalty decides the count. Trace A B A C D A
/// (loads, no gaps, distinct direct-mapped sets) at θ = 11: P = 3 keeps
/// both revisits of A, P = 10 only the first, while P = 11 and P = 500
/// (the regime) keep neither.
#[test]
fn the_penalty_matters_just_outside_the_burst_regime() {
    let trace = Trace::from_ops([0, 1, 0, 2, 3, 0].map(TraceOp::load).to_vec());
    let l1 = CacheGeometry::paper_l1();
    let timer = TimerValue::timed(11).unwrap();
    for (penalty, expected) in [(3, 2), (10, 1), (11, 0), (500, 0)] {
        let penalty = Cycles::new(penalty);
        let counts = guaranteed_hits(&trace, timer, &l1, Cycles::new(1), penalty);
        assert_eq!(counts, reference_hits(&trace, timer, &l1, Cycles::new(1), penalty));
        assert_eq!(counts.hits, expected, "penalty {penalty:?}");
    }
}

/// Golden digest of `(hits, misses)` over the six paper kernels (4 cores,
/// paper L1, `L^hit` = 1) at θ ∈ {1, 24, 512, θ_sat} and miss penalties
/// 54 and 216, θ_sat included. Recorded with the `SetAssocCache`-backed
/// walk; any kernel change that moves one count breaks it.
#[test]
fn paper_kernel_hit_counts_match_the_golden_digest() {
    let l1 = CacheGeometry::paper_l1();
    let hit = Cycles::new(1);
    let mut digest = Fingerprint::builder();
    for kernel in Kernel::ALL {
        let workload = KernelSpec::new(kernel, 4).with_total_requests(8_000).generate();
        for trace in workload.traces() {
            let sat = theta_saturation(trace, &l1, hit, Cycles::new(54));
            digest = digest.u64(sat);
            for theta in [1, 24, 512, sat] {
                for penalty in [54, 216] {
                    let timer = TimerValue::timed(theta).unwrap();
                    let counts = guaranteed_hits(trace, timer, &l1, hit, Cycles::new(penalty));
                    digest = digest.u64(counts.hits).u64(counts.misses);
                }
            }
        }
    }
    assert_eq!(digest.finish().to_hex(), "c891985942d9fab4e3d13e31d4a4d01f");
}

fn trace_strategy() -> impl Strategy<Value = Trace> {
    let op = (0u64..600, any::<bool>(), 0u64..30).prop_map(|(line, store, gap)| {
        TraceOp::new(
            LineAddr::new(line),
            if store { AccessKind::Store } else { AccessKind::Load },
            Cycles::new(gap),
        )
    });
    collection::vec(op, 0..150).prop_map(Trace::from_ops)
}

fn timers_strategy() -> impl Strategy<Value = Vec<TimerValue>> {
    collection::vec(
        prop_oneof![
            Just(TimerValue::MSI),
            (0u64..=400).prop_map(|t| TimerValue::timed(t).unwrap()),
        ],
        2..8,
    )
}

properties! {
    /// The flat kernel agrees with the reference walk on random traces,
    /// geometries (non-power-of-two set counts included), timers and
    /// latencies.
    #[test]
    fn flat_kernel_matches_reference(
        trace in trace_strategy(),
        ways in prop_oneof![Just(1u64), Just(2), Just(4), Just(8)],
        sets in prop_oneof![Just(1u64), Just(3), Just(4), Just(5), Just(16), Just(256)],
        timer in prop_oneof![
            Just(TimerValue::MSI),
            Just(TimerValue::timed(0).unwrap()),
            Just(TimerValue::timed(1).unwrap()),
            (1u64..2_000).prop_map(|t| TimerValue::timed(t).unwrap()),
            Just(TimerValue::timed(TimerValue::MAX_THETA).unwrap()),
        ],
        hit in 0u64..5,
        penalty in 1u64..600,
    ) {
        let geom = geometry(sets, ways);
        let (hit, penalty) = (Cycles::new(hit), Cycles::new(penalty));
        assert_eq!(
            guaranteed_hits(&trace, timer, &geom, hit, penalty),
            reference_hits(&trace, timer, &geom, hit, penalty)
        );
    }

    /// Guaranteed hits are monotone non-decreasing in θ — the assumption
    /// the θ_sat binary search and the GA's search-space shape rely on.
    #[test]
    fn hits_monotone_in_theta(trace in trace_strategy(), penalty in 1u64..600) {
        let l1 = CacheGeometry::paper_l1();
        let mut previous = 0;
        for theta in [1u64, 2, 4, 8, 16, 32, 64, 128, 512, 2048, 65_535] {
            let counts = guaranteed_hits(
                &trace,
                TimerValue::timed(theta).unwrap(),
                &l1,
                Cycles::new(1),
                Cycles::new(penalty),
            );
            assert!(counts.hits >= previous, "θ={theta}: {} < {previous}", counts.hits);
            assert_eq!(counts.total(), trace.len() as u64);
            previous = counts.hits;
        }
    }

    /// A larger miss penalty never increases guaranteed hits (the timeline
    /// stretches, windows expire sooner relative to accesses).
    #[test]
    fn hits_antitone_in_penalty(trace in trace_strategy(), theta in 1u64..500) {
        let l1 = CacheGeometry::paper_l1();
        let t = TimerValue::timed(theta).unwrap();
        let mut previous = u64::MAX;
        for penalty in [54u64, 108, 216, 432, 1000] {
            let hits =
                guaranteed_hits(&trace, t, &l1, Cycles::new(1), Cycles::new(penalty)).hits;
            assert!(hits <= previous);
            previous = hits;
        }
    }

    /// θ_sat is a true minimal fixed point: hits(θ_sat) equals the
    /// saturated count and hits(θ_sat − 1) is strictly below it (when
    /// θ_sat > 1).
    #[test]
    fn theta_saturation_is_minimal(trace in trace_strategy()) {
        let l1 = CacheGeometry::paper_l1();
        let penalty = Cycles::new(54);
        let sat = theta_saturation(&trace, &l1, Cycles::new(1), penalty);
        assert!((1..=TimerValue::MAX_THETA).contains(&sat));
        let at = |t: u64| {
            guaranteed_hits(&trace, TimerValue::timed(t).unwrap(), &l1, Cycles::new(1), penalty)
                .hits
        };
        let saturated = at(TimerValue::MAX_THETA);
        assert_eq!(at(sat), saturated);
        if sat > 1 {
            assert!(at(sat - 1) < saturated, "θ_sat {sat} is not minimal");
        }
    }

    /// Eq. 1 structure: adding a timed interferer increases every other
    /// core's bound by exactly θ_j + SW; MSI interferers add nothing to
    /// the timer term.
    #[test]
    fn eq1_is_additive_in_interferer_timers(timers in timers_strategy(), core in 0usize..8) {
        prop_assume!(core < timers.len());
        let lat = LatencyConfig::paper();
        let sw = lat.slot_width().get();
        let n = timers.len() as u64;
        let expected: u64 = sw * n
            + timers
                .iter()
                .enumerate()
                .filter(|&(j, t)| j != core && t.is_timed())
                .map(|(_, t)| t.theta().unwrap() + sw)
                .sum::<u64>();
        assert_eq!(wcl_miss(core, &timers, &lat).get(), expected);
    }

    /// Eq. 2 with zero hits equals Eq. 3; hits only ever tighten it.
    #[test]
    fn eq2_dominated_by_eq3(hits in 0u64..10_000, misses in 0u64..10_000, wcl in 1u64..5_000) {
        let wcl = Cycles::new(wcl);
        let timed = wcml_timed(hits, misses, Cycles::new(1), wcl);
        let snoop = wcml_snoop(hits + misses, wcl);
        assert!(timed <= snoop);
        assert_eq!(wcml_timed(0, misses, Cycles::new(1), wcl), wcml_snoop(misses, wcl));
    }
}
