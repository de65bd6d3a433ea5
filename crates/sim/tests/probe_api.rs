//! Contract tests of the [`SimProbe`] streaming instrumentation API: the
//! no-op probe changes nothing, the built-in probes agree with the
//! engine's own statistics, and the Chrome-trace export is well-formed.

use cohort_sim::{ChromeTraceProbe, EventKind, EventLogProbe, MetricsProbe, SimBuilder, SimConfig};
use cohort_trace::{micro, Workload};
use cohort_types::TimerValue;

fn timed(theta: u64) -> TimerValue {
    TimerValue::timed(theta).unwrap()
}

/// A mixed CoHoRT quad-core on a contended workload: two timed, two MSI.
fn cohort_config() -> SimConfig {
    SimConfig::builder(4)
        .timer(0, timed(40))
        .timer(1, timed(90))
        .timer(2, TimerValue::MSI)
        .timer(3, TimerValue::MSI)
        .build()
        .unwrap()
}

fn contended_workload() -> Workload {
    micro::random_shared(4, 12, 300, 0.5, 11)
}

#[test]
fn noop_probe_run_is_identical_to_default_run() {
    // A probe-free (NoProbe) run and a probe-instrumented run must produce
    // bit-identical statistics: probes observe, they never perturb.
    let w = contended_workload();
    let mut plain = SimBuilder::new(cohort_config(), &w).build().unwrap();
    let plain_stats = plain.run().unwrap();

    let probe = (MetricsProbe::new(), EventLogProbe::new());
    let mut observed = SimBuilder::new(cohort_config(), &w).probe(probe).build().unwrap();
    let observed_stats = observed.run().unwrap();

    assert_eq!(plain_stats, observed_stats, "probes must not perturb the simulation");
}

#[test]
fn event_stream_matches_between_probe_instances() {
    // Two separately-probed runs of the same config see the same stream.
    let w = contended_workload();
    let run = || {
        let mut sim =
            SimBuilder::new(cohort_config(), &w).probe(EventLogProbe::new()).build().unwrap();
        sim.run().unwrap();
        sim.into_probe().into_events()
    };
    assert_eq!(run(), run(), "event streams are deterministic");
}

#[test]
fn event_log_ring_buffer_keeps_the_most_recent_events() {
    let w = contended_workload();
    let mut full_sim =
        SimBuilder::new(cohort_config(), &w).probe(EventLogProbe::new()).build().unwrap();
    full_sim.run().unwrap();
    let full = full_sim.into_probe();

    let cap = 64;
    let ring_probe = EventLogProbe::with_capacity(cap);
    let mut ring_sim = SimBuilder::new(cohort_config(), &w).probe(ring_probe).build().unwrap();
    ring_sim.run().unwrap();
    let ring = ring_sim.into_probe();

    assert_eq!(ring.len(), cap);
    assert_eq!(ring.dropped(), full.len() as u64 - cap as u64);
    let tail = &full.to_vec()[full.len() - cap..];
    assert_eq!(ring.to_vec(), tail, "the ring keeps the most recent events");
}

#[test]
fn histogram_counts_sum_to_core_accesses() {
    let w = contended_workload();
    let mut sim = SimBuilder::new(cohort_config(), &w).probe(MetricsProbe::new()).build().unwrap();
    let stats = sim.run().unwrap();
    let report = sim.into_probe().into_report();

    assert_eq!(report.cores.len(), 4);
    for (core, metrics) in report.cores.iter().enumerate() {
        assert_eq!(
            metrics.latency.count(),
            stats.cores[core].accesses(),
            "core {core}: every access lands in exactly one bucket"
        );
        let bucket_sum: u64 = metrics.latency.nonzero_buckets().map(|(_, _, n)| n).sum();
        assert_eq!(bucket_sum, metrics.latency.count());
        assert_eq!(metrics.latency.max(), stats.cores[core].worst_request);
    }
    assert_eq!(report.cycles, stats.cycles.get());
}

#[test]
fn metrics_quantiles_are_ordered_and_bounded_by_max() {
    let w = contended_workload();
    let mut sim = SimBuilder::new(cohort_config(), &w).probe(MetricsProbe::new()).build().unwrap();
    sim.run().unwrap();
    let report = sim.into_probe().into_report();
    for metrics in &report.cores {
        let h = &metrics.latency;
        assert!(h.p50() <= h.p99());
        assert!(h.p99() <= h.max());
    }
}

#[test]
fn eq1_bound_is_attached_and_respected_on_analysable_configs() {
    // The default CoHoRT setup (RROF + cache-to-cache + 1 MSHR) is the
    // analysable operating point, so the probe computes Eq. 1 bounds and
    // no observed latency may exceed them.
    let w = contended_workload();
    let mut sim = SimBuilder::new(cohort_config(), &w).probe(MetricsProbe::new()).build().unwrap();
    sim.run().unwrap();
    let report = sim.into_probe().into_report();
    for (core, metrics) in report.cores.iter().enumerate() {
        let bound = metrics.wcl_bound.expect("analysable config carries a bound");
        assert!(
            metrics.latency.max().get() <= bound,
            "core {core}: observed {} > Eq. 1 bound {bound}",
            metrics.latency.max()
        );
    }
    assert!(report.bound_ok());
}

#[test]
fn bus_utilisation_is_a_fraction_and_busy_splits_per_core() {
    let w = contended_workload();
    let mut sim = SimBuilder::new(cohort_config(), &w).probe(MetricsProbe::new()).build().unwrap();
    sim.run().unwrap();
    let report = sim.into_probe().into_report();
    let util = report.bus_utilisation();
    assert!((0.0..=1.0).contains(&util), "utilisation {util} out of range");
    assert!(util > 0.0, "a contended run keeps the bus busy");
    let per_core: u64 = report.cores.iter().map(|c| c.bus_busy).sum();
    assert_eq!(per_core, report.bus_busy, "global busy is the per-core sum");
}

#[test]
fn metrics_report_json_is_schema_shaped() {
    let w = contended_workload();
    let mut sim = SimBuilder::new(cohort_config(), &w).probe(MetricsProbe::new()).build().unwrap();
    sim.run().unwrap();
    let json = sim.into_probe().into_report().to_json();
    assert!(json.get("cycles").and_then(serde_json::Value::as_u64).is_some());
    assert!(json.get("bus_utilisation").and_then(serde_json::Value::as_f64).is_some());
    let cores = json.get("cores").and_then(|v| v.as_array()).expect("cores array");
    assert_eq!(cores.len(), 4);
    for core in cores {
        for key in ["accesses", "latency_p50", "latency_p99", "latency_max", "bus_busy"] {
            assert!(core.get(key).and_then(serde_json::Value::as_u64).is_some(), "missing {key}");
        }
        assert!(core.get("histogram").and_then(|v| v.as_array()).is_some());
    }
}

#[test]
fn chrome_trace_is_valid_json_with_balanced_pairs() {
    // Every bus transaction appears as one complete B/E pair on the bus
    // track, and the whole artifact parses back from its serialized form.
    let w = contended_workload();
    let probe = (ChromeTraceProbe::new(), EventLogProbe::new());
    let mut sim = SimBuilder::new(cohort_config(), &w).probe(probe).build().unwrap();
    let stats = sim.run().unwrap();
    let (chrome, log) = sim.into_probe();

    let parsed: serde_json::Value = serde_json::from_str(&chrome.to_json_string()).unwrap();
    let events = parsed.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents");

    let phase = |e: &serde_json::Value| e.get("ph").and_then(|p| p.as_str()).unwrap().to_owned();
    let begins = events.iter().filter(|e| phase(e) == "B").count();
    let ends = events.iter().filter(|e| phase(e) == "E").count();
    assert_eq!(begins, ends, "every B has a matching E");
    assert!(begins as u64 >= stats.broadcasts, "at least one tenure per broadcast");

    // B/E events all live on the bus track and alternate in time order
    // (bus tenures never overlap).
    let bus_tid = 4u64; // cores 0..=3, bus = n
    let mut depth = 0i64;
    let mut last_ts = 0u64;
    for e in events.iter().filter(|e| phase(e) == "B" || phase(e) == "E") {
        assert_eq!(e.get("tid").and_then(serde_json::Value::as_u64), Some(bus_tid));
        let ts = e.get("ts").and_then(serde_json::Value::as_u64).unwrap();
        assert!(ts >= last_ts, "bus pairs are emitted in order");
        last_ts = ts;
        depth += if phase(e) == "B" { 1 } else { -1 };
        assert!((0..=1).contains(&depth), "tenures never nest");
    }
    assert_eq!(depth, 0);

    // One X span per fill observed by the event log.
    let fills = log.iter().filter(|e| matches!(e.kind, EventKind::Fill { .. })).count();
    let spans = events.iter().filter(|e| phase(e) == "X").count();
    assert_eq!(spans, fills, "one complete span per miss");
}

#[test]
fn chrome_trace_has_one_track_per_core_plus_bus_and_llc() {
    let w = contended_workload();
    let mut sim =
        SimBuilder::new(cohort_config(), &w).probe(ChromeTraceProbe::new()).build().unwrap();
    sim.run().unwrap();
    let json = sim.into_probe().to_json();
    let events = json.get("traceEvents").and_then(|v| v.as_array()).unwrap();
    let names: Vec<String> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str().map(str::to_owned))
        .collect();
    for expect in ["core 0", "core 1", "core 2", "core 3", "bus", "llc"] {
        assert!(names.iter().any(|n| n == expect), "missing track {expect}");
    }
}

#[test]
fn mode_switch_lands_in_metrics_and_trace() {
    let w = micro::ping_pong(2, 30);
    let config = SimConfig::builder(2).timer(0, timed(40)).timer(1, timed(40)).build().unwrap();
    let probe = (MetricsProbe::new(), ChromeTraceProbe::new());
    let mut sim = SimBuilder::new(config, &w).probe(probe).build().unwrap();
    sim.schedule_timer_switch(cohort_types::Cycles::new(100), vec![TimerValue::MSI; 2]).unwrap();
    sim.run().unwrap();
    let (metrics, chrome) = sim.into_probe();
    assert_eq!(metrics.report().mode_switches, 1);
    let json = chrome.to_json();
    let events = json.get("traceEvents").and_then(|v| v.as_array()).unwrap();
    assert!(
        events.iter().any(|e| e.get("name").and_then(|n| n.as_str()) == Some("mode-switch")),
        "the switch shows on the bus track"
    );
}
