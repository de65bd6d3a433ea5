//! Cycle-exact behavioural tests of the simulation engine, hand-computed
//! from the paper's latencies (hit 1, request 4, data 50, SW = 54).

use cohort_sim::{
    ArbiterKind, CacheGeometry, DataPath, EventKind, EventLogProbe, LlcModel, SimBuilder,
    SimConfig, SimStats,
};
use cohort_trace::{micro, Trace, TraceOp, Workload};
use cohort_types::{Cycles, TimerValue};

fn timed(theta: u64) -> TimerValue {
    TimerValue::timed(theta).unwrap()
}

fn run(config: SimConfig, workload: &Workload) -> SimStats {
    let mut sim = SimBuilder::new(config, workload).build().expect("valid setup");
    let stats = sim.run().expect("run completes");
    sim.validate_coherence().expect("coherence invariants hold at the end");
    stats
}

#[test]
fn cold_miss_costs_one_slot() {
    // A single load from the shared memory: request (4) + data (50) = 54.
    let w = Workload::new("one-load", vec![Trace::from_ops(vec![TraceOp::load(0)])]).unwrap();
    let stats = run(SimConfig::builder(1).build().unwrap(), &w);
    assert_eq!(stats.cores[0].misses, 1);
    assert_eq!(stats.cores[0].hits, 0);
    assert_eq!(stats.cores[0].worst_request.get(), 54);
    assert_eq!(stats.cores[0].total_latency.get(), 54);
    assert_eq!(stats.cores[0].finish.get(), 54);
}

#[test]
fn store_then_load_hits_in_private_cache() {
    let w = Workload::new(
        "store-load",
        vec![Trace::from_ops(vec![TraceOp::store(0), TraceOp::load(0)])],
    )
    .unwrap();
    let stats = run(SimConfig::builder(1).build().unwrap(), &w);
    assert_eq!(stats.cores[0].misses, 1);
    assert_eq!(stats.cores[0].hits, 1);
    // Miss fills at 54; the dependent load hits in one more cycle.
    assert_eq!(stats.cores[0].total_latency.get(), 55);
    assert_eq!(stats.cores[0].finish.get(), 55);
}

#[test]
fn load_then_store_is_an_upgrade_miss() {
    let w = Workload::new(
        "load-store",
        vec![Trace::from_ops(vec![TraceOp::load(0), TraceOp::store(0)])],
    )
    .unwrap();
    let stats = run(SimConfig::builder(1).build().unwrap(), &w);
    assert_eq!(stats.cores[0].misses, 2, "the store upgrades S → M via the bus");
    assert_eq!(stats.cores[0].upgrades, 1);
    assert_eq!(stats.cores[0].hits, 0);
}

#[test]
fn msi_ping_pong_hands_over_in_one_slot() {
    // Two MSI cores store the same line back-to-back. The second request
    // snoops the first owner, which releases immediately (θ = −1), so the
    // hand-over fuses into one slot: c1's latency is exactly 2·SW (it also
    // waited for c0's slot).
    let w = micro::ping_pong(2, 1);
    let stats = run(SimConfig::builder(2).build().unwrap(), &w);
    assert_eq!(stats.cores[0].worst_request.get(), 54);
    assert_eq!(stats.cores[1].worst_request.get(), 108);
}

#[test]
fn timed_owner_delays_handover_until_expiry() {
    // c0 (θ = 40) owns the line at t = 54; c1's request snoops at t = 58;
    // the first expiry is 54 + 40 = 94; the transfer runs 94..144.
    let w = micro::ping_pong(2, 1);
    let config = SimConfig::builder(2).timer(0, timed(40)).build().unwrap();
    let stats = run(config, &w);
    assert_eq!(stats.cores[1].worst_request.get(), 144);
}

#[test]
fn timer_protects_owner_hits_figure1() {
    // The Figure-1 scenario: under MSI, c0's revisit of A misses because c1
    // stole the line; under time-based coherence the revisit hits. The
    // revisit gap (100) places the revisit after c1's snoop (cycle 58) but
    // well inside c0's 200-cycle timer window.
    let w = micro::figure1(100);

    let msi = run(SimConfig::builder(2).build().unwrap(), &w);
    assert_eq!(msi.cores[0].hits, 0, "snooping: revisit misses");
    assert_eq!(msi.cores[0].misses, 2);

    let cohort_config = SimConfig::builder(2).timer(0, timed(200)).build().unwrap();
    let timed_stats = run(cohort_config, &w);
    assert_eq!(timed_stats.cores[0].hits, 1, "time-based: revisit hits");
    assert_eq!(timed_stats.cores[0].misses, 1);
    // ...at the cost of a larger miss latency for the interferer c1.
    assert!(timed_stats.cores[1].worst_request > msi.cores[1].worst_request);
}

#[test]
fn msi_special_value_reduces_to_plain_msi() {
    // A core with θ = −1 must behave exactly like a plain MSI core: same
    // stats for the whole system whichever way we spell the configuration.
    let w = micro::random_shared(2, 32, 300, 0.4, 11);
    let explicit = run(SimConfig::builder(2).timers(vec![TimerValue::MSI; 2]).build().unwrap(), &w);
    let default = run(SimConfig::builder(2).build().unwrap(), &w);
    assert_eq!(explicit, default);
}

#[test]
fn hits_proceed_under_an_outstanding_miss() {
    // Core 0: a miss to line 0, then 3 hits to line 1 (prefilled by an
    // initial access), all of which complete during the miss.
    let ops = vec![
        TraceOp::load(1), // cold miss, fills line 1 at t = 54
        TraceOp::load(0), // miss issued at 55
        TraceOp::load(1), // hits at 56..58 while the miss is in flight
        TraceOp::load(1),
        TraceOp::load(1),
    ];
    let w = Workload::new("hom", vec![Trace::from_ops(ops)]).unwrap();
    let stats = run(SimConfig::builder(1).build().unwrap(), &w);
    assert_eq!(stats.cores[0].hits, 3);
    assert_eq!(stats.cores[0].misses, 2);
    // Second miss: issued the moment the first fill lands (54), fills at
    // 54 + 54 = 108; the line-1 hits complete underneath it.
    assert_eq!(stats.cores[0].finish.get(), 108);
}

#[test]
fn second_miss_stalls_with_one_mshr() {
    let ops = vec![TraceOp::load(0), TraceOp::load(1), TraceOp::load(2)];
    let w = Workload::new("stall", vec![Trace::from_ops(ops)]).unwrap();
    let stats = run(SimConfig::builder(1).build().unwrap(), &w);
    assert_eq!(stats.cores[0].misses, 3);
    // Strictly serialized: each miss issues the moment the previous fill
    // lands, so the three slots pack back-to-back.
    assert_eq!(stats.cores[0].finish.get(), 3 * 54);
}

#[test]
fn rrof_example_operation_figure4() {
    // The §III-C example: c0, c1, c3 timed; c2 MSI. All four write A.
    let config = SimConfig::builder(4)
        .timer(0, timed(40))
        .timer(1, timed(40))
        .timer(3, timed(40))
        .build()
        .unwrap();
    let w = micro::figure4();
    let mut sim = SimBuilder::new(config, &w).probe(EventLogProbe::new()).build().unwrap();
    sim.run().unwrap();
    // Fill order must follow the RROF broadcast order: c0, c1, c2, c3.
    let fills: Vec<usize> = sim
        .probe()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Fill { core, line, .. } if line.raw() == 0x40 => Some(*core),
            _ => None,
        })
        .collect();
    assert_eq!(fills, vec![0, 1, 2, 3]);

    // c2 runs MSI, so it hands A to c3 immediately: the gap between c2's
    // fill and c3's fill is at most one data transfer + one request slot,
    // while c1 had to wait out θ0 and c2 had to wait out θ1.
    let fill_time = |core: usize| {
        sim.probe()
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Fill { core: c, line, .. } if *c == core && line.raw() == 0x40 => {
                    Some(e.cycle.get())
                }
                _ => None,
            })
            .unwrap()
    };
    let (f0, f1, f2, f3) = (fill_time(0), fill_time(1), fill_time(2), fill_time(3));
    assert!(f1 - f0 >= 40, "c1 waited for θ0");
    assert!(f2 - f1 >= 40, "c2 waited for θ1");
    assert!(f3 - f2 < 40 + 54, "c2 (MSI) handed over without a timer wait");
    assert_eq!(f3 - f2, 50, "immediate hand-over costs one data transfer");
}

#[test]
fn tdm_produces_idle_slots() {
    // Same workload under RROF and TDM: TDM's slot alignment can only slow
    // things down (PENDULUM's performance penalty in Figure 6).
    let w = micro::random_shared(2, 16, 200, 0.5, 7);
    let rrof = run(SimConfig::builder(2).build().unwrap(), &w);
    let tdm = run(
        SimConfig::builder(2)
            .arbiter(ArbiterKind::Tdm { critical: vec![true, true] })
            .build()
            .unwrap(),
        &w,
    );
    assert!(tdm.execution_time() >= rrof.execution_time());
}

#[test]
fn tdm_starves_noncritical_cores_under_load() {
    // Critical core 0 floods the bus; non-critical core 1 only rides idle
    // slots, so its worst-case latency explodes compared to RROF.
    let w = micro::ping_pong(2, 20);
    let tdm = run(
        SimConfig::builder(2)
            .arbiter(ArbiterKind::Tdm { critical: vec![true, false] })
            .build()
            .unwrap(),
        &w,
    );
    let rrof = run(SimConfig::builder(2).build().unwrap(), &w);
    assert!(tdm.cores[1].worst_request >= rrof.cores[1].worst_request);
    assert!(tdm.cores[0].accesses() == 20 && tdm.cores[1].accesses() == 20);
}

#[test]
fn via_shared_memory_doubles_handover_occupancy() {
    // PCC-style data path: core-to-core hand-overs stage through the LLC.
    let w = micro::ping_pong(2, 2);
    let direct = run(SimConfig::builder(2).build().unwrap(), &w);
    let staged =
        run(SimConfig::builder(2).data_path(DataPath::ViaSharedMemory).build().unwrap(), &w);
    assert!(staged.cores[1].worst_request > direct.cores[1].worst_request);
    assert!(staged.execution_time() > direct.execution_time());
    // Cold fills from the LLC itself are unaffected.
    assert_eq!(staged.cores[0].worst_request.get(), direct.cores[0].worst_request.get());
}

#[test]
fn finite_llc_pays_memory_latency_and_back_invalidates() {
    // A tiny 2-set × 1-way LLC forces misses and back-invalidations.
    let tiny = CacheGeometry::new(2 * 64, 64, 1).unwrap();
    let ops: Vec<TraceOp> = (0..8).map(TraceOp::load).collect();
    let w = Workload::new("llc-thrash", vec![Trace::from_ops(ops)]).unwrap();
    let config = SimConfig::builder(1)
        .llc(LlcModel::Finite(tiny))
        .latency(cohort_types::LatencyConfig::paper().with_memory(100))
        .build()
        .unwrap();
    let stats = run(config, &w);
    assert_eq!(stats.llc_misses, 8, "every cold line misses the tiny LLC");
    assert!(stats.back_invalidations >= 6, "inclusion evicts L1 copies");
    assert_eq!(stats.cores[0].worst_request.get(), 54 + 100);
}

#[test]
fn perfect_llc_never_misses() {
    let w = micro::streaming(2, 100);
    let stats = run(SimConfig::builder(2).build().unwrap(), &w);
    assert_eq!(stats.llc_misses, 0);
    assert_eq!(stats.back_invalidations, 0);
}

#[test]
fn l1_conflicts_evict_with_direct_mapping() {
    // 256 sets: lines 0 and 256 conflict. The final revisit is delayed
    // past the conflicting fill (cycle 108), so it must miss again.
    let ops = vec![TraceOp::load(0), TraceOp::load(256), TraceOp::load(0).after(200)];
    let w = Workload::new("conflict", vec![Trace::from_ops(ops)]).unwrap();
    let stats = run(SimConfig::builder(1).build().unwrap(), &w);
    assert_eq!(stats.cores[0].misses, 3);
    assert_eq!(stats.evictions, 2);
}

#[test]
fn mid_run_timer_switch_changes_behaviour() {
    // c0 holds a line with a huge timer; at cycle 200 a mode switch drops
    // it to MSI, after which c1's pending request completes quickly.
    let c0 = Trace::from_ops(vec![TraceOp::store(0)]);
    let c1 = Trace::from_ops(vec![TraceOp::store(0).after(60)]);
    let w = Workload::new("switch", vec![c0, c1]).unwrap();
    let config = SimConfig::builder(2).timer(0, timed(60_000)).build().unwrap();

    // Without the switch c1 waits for the 60 000-cycle expiry.
    let no_switch = run(config.clone(), &w);
    assert!(no_switch.cores[1].worst_request.get() > 50_000);

    // With the switch, the hand-over happens shortly after cycle 200.
    let mut sim = SimBuilder::new(config, &w).build().unwrap();
    sim.schedule_timer_switch(Cycles::new(200), vec![TimerValue::MSI; 2]).unwrap();
    let switched = sim.run().unwrap();
    assert!(
        switched.cores[1].worst_request.get() < 400,
        "switch to MSI released the line: {}",
        switched.cores[1].worst_request
    );
}

#[test]
fn switch_scheduling_validation() {
    let w = micro::ping_pong(2, 1);
    let mut sim = SimBuilder::new(SimConfig::builder(2).build().unwrap(), &w).build().unwrap();
    assert!(sim.schedule_timer_switch(Cycles::new(10), vec![TimerValue::MSI]).is_err());
    sim.run().unwrap();
    let past = sim.now().saturating_sub(Cycles::new(1));
    assert!(sim.schedule_timer_switch(past, vec![TimerValue::MSI; 2]).is_err());
}

#[test]
fn read_sharing_is_peaceful() {
    // Many cores loading the same line never invalidate each other: every
    // core misses once and then hits.
    let traces = (0..4)
        .map(|_| Trace::from_ops(vec![TraceOp::load(0), TraceOp::load(0), TraceOp::load(0)]))
        .collect();
    let w = Workload::new("read-share", traces).unwrap();
    let stats = run(SimConfig::builder(4).timers(vec![timed(100); 4]).build().unwrap(), &w);
    for core in &stats.cores {
        assert_eq!(core.misses, 1);
        assert_eq!(core.hits, 2);
    }
}

#[test]
fn gets_downgrades_modified_owner() {
    // c0 stores, c1 loads the line: c0 is downgraded, not invalidated, so a
    // subsequent c0 load still hits, but a c0 store must upgrade.
    let c0 = Trace::from_ops(vec![
        TraceOp::store(0),
        TraceOp::load(0).after(400), // after c1's GetS: still a hit (Shared)
        TraceOp::store(0),           // upgrade miss
    ]);
    let c1 = Trace::from_ops(vec![TraceOp::load(0).after(20)]);
    let w = Workload::new("downgrade", vec![c0, c1]).unwrap();
    let stats = run(SimConfig::builder(2).build().unwrap(), &w);
    assert_eq!(stats.cores[0].hits, 1, "load after downgrade hits");
    assert_eq!(stats.cores[0].misses, 2);
    assert_eq!(stats.cores[0].upgrades, 1);
    assert_eq!(stats.cores[1].misses, 1);
}

#[test]
fn execution_time_equals_slowest_core() {
    let w = micro::random_shared(3, 8, 100, 0.5, 2);
    let stats = run(SimConfig::builder(3).build().unwrap(), &w);
    let max_finish = stats.cores.iter().map(|c| c.finish).max().unwrap();
    assert_eq!(stats.execution_time(), max_finish);
    assert!(stats.cycles >= max_finish);
}

#[test]
fn runs_are_deterministic() {
    let w = micro::random_shared(4, 64, 500, 0.3, 42);
    let config = SimConfig::builder(4)
        .timers(vec![timed(30), timed(10), TimerValue::MSI, timed(75)])
        .build()
        .unwrap();
    let a = run(config.clone(), &w);
    let b = run(config, &w);
    assert_eq!(a, b);
}

#[test]
fn every_access_is_accounted() {
    let w = micro::random_shared(4, 32, 400, 0.5, 9);
    let stats = run(SimConfig::builder(4).timers(vec![timed(25); 4]).build().unwrap(), &w);
    for (core, trace) in stats.cores.iter().zip(w.traces()) {
        assert_eq!(core.accesses(), trace.len() as u64);
    }
}

#[test]
fn fcfs_serves_oldest_requests_first() {
    let w = micro::streaming(3, 30);
    let stats = run(SimConfig::builder(3).arbiter(ArbiterKind::Fcfs).build().unwrap(), &w);
    for core in &stats.cores {
        assert_eq!(core.misses, 30);
    }
}

#[test]
fn workload_core_count_must_match() {
    let w = micro::ping_pong(2, 1);
    assert!(SimBuilder::new(SimConfig::builder(3).build().unwrap(), &w).build().is_err());
}

#[test]
fn run_until_stops_at_the_deadline_and_resumes() {
    // Partial execution: stop mid-run, inspect, resume to completion —
    // the state machine must be pause-safe (used by mode-switch drivers).
    let w = micro::random_shared(2, 16, 200, 0.5, 7);
    let config = SimConfig::builder(2).timers(vec![timed(30); 2]).build().unwrap();
    let mut paused = SimBuilder::new(config.clone(), &w).build().unwrap();
    paused.run_until(Cycles::new(500)).unwrap();
    assert!(paused.now() <= Cycles::new(500));
    assert!(!paused.is_finished());
    paused.run_until(Cycles::new(u64::MAX)).unwrap();
    assert!(paused.is_finished());

    let stats_once = run(config, &w);
    assert_eq!(paused.stats(), &stats_once, "pausing must not change the outcome");
}

#[test]
fn deeper_mshrs_never_slow_a_core_down() {
    let w = micro::random_shared(2, 32, 300, 0.4, 13);
    let exec = |mshr: usize| {
        let config = SimConfig::builder(2).mshr_per_core(mshr).build().unwrap();
        run(config, &w).execution_time()
    };
    assert!(exec(4) <= exec(1), "extra MSHRs add overlap, not stalls");
}

#[test]
fn raising_theta_mid_countdown_cannot_reprotect_the_line() {
    // c0's counter loads θ = 500 at fill (cycle 54); c1's request is
    // snooped at 58, so the hand-over is due at 554. A mode switch at
    // cycle 300 raises the θ register to 60 000 — but the Figure-3 counter
    // already loaded 500 and keeps counting it down: c1 must be served
    // around 604, not 60 054.
    let c0 = Trace::from_ops(vec![TraceOp::store(0)]);
    let c1 = Trace::from_ops(vec![TraceOp::store(0).after(40)]);
    let w = Workload::new("reload", vec![c0, c1]).unwrap();
    let config = SimConfig::builder(2).timer(0, timed(500)).build().unwrap();
    let mut sim = SimBuilder::new(config, &w).build().unwrap();
    sim.schedule_timer_switch(Cycles::new(300), vec![timed(60_000), TimerValue::MSI]).unwrap();
    let stats = sim.run().unwrap();
    assert!(
        stats.cores[1].worst_request.get() < 1_000,
        "a running countdown is not re-loaded by a register write: {}",
        stats.cores[1].worst_request
    );
    // And the converse: switching the register to −1 releases immediately.
    let config = SimConfig::builder(2).timer(0, timed(60_000)).build().unwrap();
    let mut sim = SimBuilder::new(config, &w).build().unwrap();
    sim.schedule_timer_switch(Cycles::new(200), vec![TimerValue::MSI; 2]).unwrap();
    let stats = sim.run().unwrap();
    assert!(
        stats.cores[1].worst_request.get() < 500,
        "Enable low (θ = −1) releases a held line at once: {}",
        stats.cores[1].worst_request
    );
}
