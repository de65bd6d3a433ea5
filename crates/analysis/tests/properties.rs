//! Property-based tests of the static analyses.

use cohort_prop::prelude::*;

use cohort_analysis::{guaranteed_hits, theta_saturation, HitMissCounts};
use cohort_analysis::{wcl_miss, wcml_snoop, wcml_timed};
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

/// Why the memo keeps the miss penalty outside the burst regime: at θ =
/// P + 1 a miss no longer outlasts the window, so a line survives one
/// intervening miss and the penalty decides the count. Trace A B A C D A
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
