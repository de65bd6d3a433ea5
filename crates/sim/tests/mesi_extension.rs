//! The MESI extension: Exclusive fills and silent upgrades, with the MSI
//! configuration (the paper's baseline) byte-for-byte unaffected.

use cohort_sim::{EventKind, EventLogProbe, ProtocolFlavor, SimBuilder, SimConfig, SimStats};
use cohort_trace::{micro, Trace, TraceOp, Workload};
use cohort_types::{wcl_miss, LatencyConfig, TimerValue};

fn run(config: SimConfig, w: &Workload) -> SimStats {
    let mut sim = SimBuilder::new(config, w).build().expect("sim");
    let stats = sim.run().expect("runs");
    sim.validate_coherence().expect("invariants");
    stats
}

fn mesi(cores: usize) -> SimConfig {
    SimConfig::builder(cores).flavor(ProtocolFlavor::Mesi).build().unwrap()
}

#[test]
fn load_then_store_is_silent_under_mesi() {
    // The canonical E-state win: an unshared read fill grants Exclusive,
    // so the following store hits without an upgrade transaction.
    let w = Workload::new(
        "silent-upgrade",
        vec![Trace::from_ops(vec![TraceOp::load(0), TraceOp::store(0)])],
    )
    .unwrap();
    let mesi_stats = run(mesi(1), &w);
    assert_eq!(mesi_stats.cores[0].misses, 1, "only the cold fill");
    assert_eq!(mesi_stats.cores[0].hits, 1, "the store hits silently");
    assert_eq!(mesi_stats.broadcasts, 1);

    let msi_stats = run(SimConfig::builder(1).build().unwrap(), &w);
    assert_eq!(msi_stats.cores[0].misses, 2, "MSI pays the upgrade");
    assert_eq!(msi_stats.broadcasts, 2);
}

#[test]
fn shared_read_fills_are_not_exclusive() {
    // Two cores read the same line; the second fill must be Shared, so a
    // later store by either still upgrades via the bus.
    let c0 = Trace::from_ops(vec![TraceOp::load(0), TraceOp::store(0).after(400)]);
    let c1 = Trace::from_ops(vec![TraceOp::load(0).after(10)]);
    let w = Workload::new("shared-read", vec![c0, c1]).unwrap();
    let stats = run(mesi(2), &w);
    // c0's store happens after c1's GetS downgraded... c0 was Exclusive
    // owner; c1's GetS downgrades it to Shared → the store upgrades.
    assert_eq!(stats.cores[0].upgrades, 1, "shared line still needs GetM");
}

#[test]
fn exclusive_owner_is_snooped_like_modified() {
    // c0 holds E with a timer; c1's GetM must wait for the timer just as it
    // would for an M owner.
    let c0 = Trace::from_ops(vec![TraceOp::load(0)]);
    let c1 = Trace::from_ops(vec![TraceOp::store(0).after(60)]);
    let w = Workload::new("snoop-e", vec![c0, c1]).unwrap();
    let config = SimConfig::builder(2)
        .flavor(ProtocolFlavor::Mesi)
        .timer(0, TimerValue::timed(500).unwrap())
        .build()
        .unwrap();
    let stats = run(config, &w);
    assert!(
        stats.cores[1].worst_request.get() > 400,
        "the Exclusive holder's timer gates the hand-over: {}",
        stats.cores[1].worst_request
    );
}

#[test]
fn mesi_never_reduces_hits_on_kernels() {
    // The whole-system hit total is NOT monotone under MESI: the Exclusive
    // state shifts bus timing, and the changed interleaving of *shared*
    // lines can cost a hit elsewhere (barnes: 1179 vs 1180 in the seed).
    // The sound statement of the invariant is per-core and per-line, over
    // lines only one core ever touches: a private line's hit count depends
    // only on that core's own access order (no snoops, no steals — the
    // perfect LLC never back-invalidates), so MESI's silent upgrades can
    // only add hits there, never remove them.
    use std::collections::{HashMap, HashSet};

    let hits_per_line = |config: SimConfig, w: &Workload| -> HashMap<(usize, u64), u64> {
        let mut sim = SimBuilder::new(config, w).probe(EventLogProbe::new()).build().expect("sim");
        sim.run().expect("runs");
        sim.validate_coherence().expect("invariants");
        let mut hits = HashMap::new();
        for event in sim.probe() {
            if let EventKind::Hit { core, line } = event.kind {
                *hits.entry((core, line.raw())).or_insert(0) += 1;
            }
        }
        hits
    };

    for kernel in cohort_trace::Kernel::ALL {
        let w = cohort_trace::KernelSpec::new(kernel, 4).with_total_requests(2_000).generate();

        // Lines touched by exactly one core in the whole workload.
        let mut touched_by: HashMap<u64, HashSet<usize>> = HashMap::new();
        for (core, trace) in w.traces().iter().enumerate() {
            for op in trace {
                touched_by.entry(op.line.raw()).or_default().insert(core);
            }
        }
        let private: Vec<(usize, u64)> = touched_by
            .iter()
            .filter(|(_, cores)| cores.len() == 1)
            .map(|(&line, cores)| (*cores.iter().next().unwrap(), line))
            .collect();
        assert!(!private.is_empty(), "{kernel}: needs private lines to be meaningful");

        let timers = vec![TimerValue::timed(24).unwrap(); 4];
        let msi = hits_per_line(SimConfig::builder(4).timers(timers.clone()).build().unwrap(), &w);
        let mesi_hits = hits_per_line(
            SimConfig::builder(4).timers(timers).flavor(ProtocolFlavor::Mesi).build().unwrap(),
            &w,
        );

        for &(core, line) in &private {
            let before = msi.get(&(core, line)).copied().unwrap_or(0);
            let after = mesi_hits.get(&(core, line)).copied().unwrap_or(0);
            assert!(
                after >= before,
                "{kernel}: core {core} line {line:#x}: MESI {after} < MSI {before}"
            );
        }
    }
}

#[test]
fn eq1_bound_still_holds_under_mesi() {
    // The analysis is flavor-agnostic (E releases exactly like M), so the
    // Eq. 1 bound must dominate MESI runs too.
    let w = micro::random_shared(4, 12, 400, 0.5, 31);
    let timers = [
        TimerValue::timed(40).unwrap(),
        TimerValue::MSI,
        TimerValue::timed(90).unwrap(),
        TimerValue::MSI,
    ];
    let config =
        SimConfig::builder(4).timers(timers.to_vec()).flavor(ProtocolFlavor::Mesi).build().unwrap();
    let stats = run(config, &w);
    for i in 0..4 {
        let bound = wcl_miss(i, &timers, &LatencyConfig::paper()).get();
        assert!(
            stats.cores[i].worst_request.get() <= bound,
            "core {i}: {} > {bound}",
            stats.cores[i].worst_request
        );
    }
}

#[test]
fn msi_default_is_unchanged_by_the_extension() {
    let w = micro::random_shared(3, 16, 300, 0.4, 17);
    let explicit = run(SimConfig::builder(3).flavor(ProtocolFlavor::Msi).build().unwrap(), &w);
    let default = run(SimConfig::builder(3).build().unwrap(), &w);
    assert_eq!(explicit, default);
}
