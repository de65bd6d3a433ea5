//! Targeted fuzz for the anchor-divergence scenario: the guaranteed-hit
//! analysis re-anchors its window at *analysis* misses, while the real run
//! may have hit there (no adversary showed up), leaving the real timer
//! anchored earlier. An adversary that phases its requests near the real
//! anchor's expiry boundaries maximizes the chance of stealing a line the
//! analysis still counts as a guaranteed hit. Soundness requires the total
//! measured WCML to stay under the Eq. 2 bound regardless.
use cohort_analysis::analyze_cohort;
use cohort_sim::{CacheGeometry, LlcModel, SimBuilder, SimConfig};
use cohort_trace::{AccessKind, Trace, TraceOp, Workload};
use cohort_types::{Cycles, LatencyConfig, LineAddr, SeedRng, TimerValue};

fn main() {
    let lat = LatencyConfig::paper();
    let mut violations = 0u64;
    let mut worst_margin = f64::MAX;
    for seed in 0..40_000u64 {
        let mut rng = SeedRng::seed_from_u64(seed);
        let theta = rng.gen_range(8..=300u64);
        let cores = rng.gen_range(2..=4usize);
        // Victim trace: revisit a handful of lines at spacings around θ in
        // virtual time (mixing sub-θ bursts with just-past-θ revisits that
        // make the analysis re-anchor while the real run may hit).
        let lines = rng.gen_range(1..=4u64);
        let mut ops = Vec::new();
        let len = rng.gen_range(10..80);
        while ops.len() < len {
            let line = rng.gen_range(0..lines);
            let style = rng.gen_range(0..3);
            let gap = match style {
                0 => rng.gen_range(1..=4),                       // burst
                1 => theta.saturating_sub(rng.gen_range(0..=6)), // near boundary
                _ => theta + rng.gen_range(0..=6),               // just past
            };
            let store = rng.gen_bool(0.4);
            ops.push(TraceOp::new(
                LineAddr::new(line),
                if store { AccessKind::Store } else { AccessKind::Load },
                Cycles::new(gap),
            ));
        }
        let victim = Trace::from_ops(ops);
        // Adversaries: request the victim's lines with boundary-phased gaps.
        let adversaries: Vec<Trace> = (1..cores)
            .map(|_| {
                let mut ops = Vec::new();
                for _ in 0..rng.gen_range(5..60) {
                    let line = rng.gen_range(0..lines);
                    let phase = rng.gen_range(0..4);
                    let gap = match phase {
                        0 => theta.saturating_sub(1),
                        1 => theta + 1,
                        2 => theta,
                        _ => rng.gen_range(1..=2 * theta + 8),
                    };
                    ops.push(TraceOp::new(
                        LineAddr::new(line),
                        AccessKind::Store,
                        Cycles::new(gap),
                    ));
                }
                Trace::from_ops(ops)
            })
            .collect();
        let mut traces = vec![victim];
        traces.extend(adversaries);
        let w = Workload::new("anchor", traces).unwrap();
        let mut timers = vec![TimerValue::MSI; cores];
        timers[0] = TimerValue::timed(theta).unwrap();
        // Sometimes make an adversary timed too (chained divergence).
        if cores > 2 && rng.gen_bool(0.5) {
            timers[1] = TimerValue::timed(rng.gen_range(1..=200)).unwrap();
        }
        // Sometimes a 2-way L1 (the finder's associative-divergence case).
        let l1 = if rng.gen_bool(0.3) {
            CacheGeometry::new(16 * 1024, 64, 2).unwrap()
        } else {
            CacheGeometry::paper_l1()
        };
        let config = SimConfig::builder(cores).timers(timers.clone()).l1(l1).build().unwrap();
        let stats = SimBuilder::new(config, &w).build().unwrap().run().unwrap();
        let bounds = analyze_cohort(&w, &timers, &lat, &l1, &LlcModel::Perfect).unwrap();
        let measured = stats.cores[0].total_latency.get();
        let bound = bounds[0].wcml.unwrap().get();
        if measured > bound {
            violations += 1;
            println!(
                "seed {seed}: measured {measured} > bound {bound} (θ={theta}, cores={cores}, \
                 hits_a={} hits_m={})",
                bounds[0].hits, stats.cores[0].hits
            );
            if violations > 5 {
                return;
            }
        } else if bound > 0 {
            worst_margin = worst_margin.min((bound - measured) as f64 / bound as f64);
        }
    }
    println!("violations: {violations}; tightest margin {worst_margin:.4}");
}
