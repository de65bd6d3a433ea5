//! Targeted edge cases of the coherence engine: upgrade races, eviction of
//! contested lines, GetS chains, and priority-queue displacement.

use cohort_sim::{EventKind, EventLogProbe, InvalidateCause, SimBuilder, SimConfig, Simulator};
use cohort_trace::{Trace, TraceOp, Workload};
use cohort_types::{Cycles, TimerValue};

fn timed(theta: u64) -> TimerValue {
    TimerValue::timed(theta).unwrap()
}

fn run_logged(config: SimConfig, w: &Workload) -> Simulator<EventLogProbe> {
    let mut sim = SimBuilder::new(config, w).probe(EventLogProbe::new()).build().unwrap();
    sim.run().unwrap();
    sim.validate_coherence().unwrap();
    sim
}

#[test]
fn upgrade_queued_behind_foreign_getm_loses_then_refetches() {
    // c0 loads A (S), c1 stores A (GetM queued), c0 stores A (upgrade
    // queued behind c1). c1's GetM invalidates c0's S copy; c0's upgrade
    // must then be served as a full fill — and still complete.
    let c0 = Trace::from_ops(vec![TraceOp::load(0), TraceOp::store(0).after(60)]);
    let c1 = Trace::from_ops(vec![TraceOp::store(0).after(30)]);
    let w = Workload::new("upgrade-race", vec![c0, c1]).unwrap();
    let sim = run_logged(SimConfig::builder(2).build().unwrap(), &w);
    let stats = sim.stats();
    assert_eq!(stats.cores[0].accesses(), 2);
    assert_eq!(stats.cores[1].accesses(), 1);
    // c0 was dispossessed between its load and its store.
    assert!(sim.probe().iter().any(|e| matches!(
        e.kind,
        EventKind::Invalidate { core: 0, cause: InvalidateCause::Stolen, .. }
    )));
}

#[test]
fn contested_line_evicted_by_owner_is_served_from_memory() {
    // c0 owns A with a long timer; c1 waits for it; c0's own conflicting
    // miss (A + 256 sets) evicts A early — c1 must then be served from the
    // shared memory without waiting out the timer.
    let c0 = Trace::from_ops(vec![TraceOp::store(0), TraceOp::load(256).after(10)]);
    let c1 = Trace::from_ops(vec![TraceOp::store(0).after(20)]);
    let w = Workload::new("evict-contested", vec![c0, c1]).unwrap();
    let config = SimConfig::builder(2).timer(0, timed(50_000)).build().unwrap();
    let sim = run_logged(config, &w);
    assert!(
        sim.stats().cores[1].worst_request.get() < 1_000,
        "the eviction released the line early: {}",
        sim.stats().cores[1].worst_request
    );
    assert!(sim.probe().iter().any(|e| matches!(
        e.kind,
        EventKind::Invalidate { core: 0, cause: InvalidateCause::Replacement, .. }
    )));
}

#[test]
fn gets_chain_shares_without_serial_steals() {
    // One producer stores, three consumers load: after the chain, all four
    // caches hold the line and subsequent loads hit everywhere.
    let producer = Trace::from_ops(vec![TraceOp::store(0), TraceOp::load(0).after(2_000)]);
    let consumer =
        |d: u64| Trace::from_ops(vec![TraceOp::load(0).after(d), TraceOp::load(0).after(2_000)]);
    let w = Workload::new("gets-chain", vec![producer, consumer(10), consumer(20), consumer(30)])
        .unwrap();
    let sim = run_logged(SimConfig::builder(4).build().unwrap(), &w);
    let stats = sim.stats();
    assert_eq!(stats.cores[0].hits, 1, "producer's late load hits its downgraded copy");
    for c in 1..4 {
        assert_eq!(stats.cores[c].misses, 1, "consumer {c} misses once");
        assert_eq!(stats.cores[c].hits, 1, "consumer {c}'s revisit hits its S copy");
    }
}

#[test]
fn producer_downgraded_by_gets_upgrades_on_next_store() {
    let producer = Trace::from_ops(vec![
        TraceOp::store(0),
        TraceOp::store(0).after(300), // after the consumer's GetS: upgrade
    ]);
    let consumer = Trace::from_ops(vec![TraceOp::load(0).after(10)]);
    let w = Workload::new("re-upgrade", vec![producer, consumer]).unwrap();
    let sim = run_logged(SimConfig::builder(2).build().unwrap(), &w);
    assert_eq!(sim.stats().cores[0].upgrades, 1);
    assert!(sim.probe().iter().any(|e| matches!(e.kind, EventKind::Downgrade { core: 0, .. })));
    // The consumer's S copy is invalidated by the upgrade.
    assert!(sim.probe().iter().any(|e| matches!(
        e.kind,
        EventKind::Invalidate { core: 1, cause: InvalidateCause::Stolen, .. }
    )));
}

#[test]
fn priority_queue_lets_critical_jump_queued_noncritical_waiters() {
    // c0 (nCr) and c2 (Cr) both want A, held by c1 with a timer. c0
    // broadcasts first, but with priority queues c2 is served first.
    let c1_owner = Trace::from_ops(vec![TraceOp::store(0)]);
    let c0_ncr = Trace::from_ops(vec![TraceOp::store(0).after(60)]);
    let c2_cr = Trace::from_ops(vec![TraceOp::store(0).after(90)]);
    let w = Workload::new("priority", vec![c0_ncr, c1_owner, c2_cr]).unwrap();
    let config = SimConfig::builder(3)
        .timers(vec![timed(200); 3])
        .waiter_priority(vec![false, false, true])
        .build()
        .unwrap();
    let sim = run_logged(config, &w);
    let fills: Vec<usize> = sim
        .probe()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Fill { core, line, .. } if line.raw() == 0 => Some(*core),
            _ => None,
        })
        .collect();
    assert_eq!(fills, vec![1, 2, 0], "critical c2 overtakes the earlier nCr waiter");
}

#[test]
fn zero_theta_serves_and_invalidates_immediately() {
    // θ = 0: "serve the pending request(s) and invalidate immediately" —
    // behaves like MSI for interferers but never yields guaranteed hits.
    let w = Workload::new(
        "theta0",
        vec![
            Trace::from_ops(vec![TraceOp::store(0), TraceOp::store(0).after(200)]),
            Trace::from_ops(vec![TraceOp::store(0).after(20)]),
        ],
    )
    .unwrap();
    let zero = run_logged(SimConfig::builder(2).timer(0, timed(0)).build().unwrap(), &w);
    let msi = run_logged(SimConfig::builder(2).build().unwrap(), &w);
    assert_eq!(
        zero.stats().cores[1].worst_request,
        msi.stats().cores[1].worst_request,
        "θ = 0 releases like MSI"
    );
}

#[test]
fn same_core_repeated_line_touches_use_one_mshr() {
    // Burst of accesses to one missing line: one bus transaction total.
    let ops = vec![TraceOp::load(0), TraceOp::load(0), TraceOp::load(0), TraceOp::load(0)];
    let w = Workload::new("coalesce", vec![Trace::from_ops(ops)]).unwrap();
    let sim = run_logged(SimConfig::builder(1).build().unwrap(), &w);
    assert_eq!(sim.stats().broadcasts, 1, "followers wait on the in-flight miss");
    assert_eq!(sim.stats().cores[0].misses, 1);
    assert_eq!(sim.stats().cores[0].hits, 3);
}

#[test]
fn event_log_cycles_are_monotone() {
    let w = cohort_trace::micro::random_shared(3, 12, 150, 0.5, 21);
    let config =
        SimConfig::builder(3).timers(vec![timed(40), TimerValue::MSI, timed(9)]).build().unwrap();
    let sim = run_logged(config, &w);
    let mut last = Cycles::ZERO;
    for event in sim.probe() {
        assert!(event.cycle >= last, "event log must be chronological");
        last = event.cycle;
    }
    assert!(!sim.probe().is_empty());
}
