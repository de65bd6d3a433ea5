//! Simulator-throughput benchmark: simulated cycles per wall-clock second
//! on the workload shapes the event scheduler was built for.
//!
//! The sparse workload is the motivating case: wide machines where at
//! almost every dispatched instant exactly one core is due, misses go all
//! the way to DRAM, and timer-held shared lines keep a standing waiter
//! population; the scheduler dispatches the one due component instead of
//! rescanning every core and waiting line. The dense workloads bound the
//! other end: bus-saturated sharing where every cycle has work.
//!
//! Before timing, compares two runs of each timed workload and of the
//! protocol preset matrix under seeded fault plans (event logs, stats and
//! injected-fault records). The verdict is the report's `determinism`
//! field, and the report's check fails the run when it is false.
//!
//! ```text
//! cargo run --release -p cohort-bench --bin sim -- \
//!     [--quick] [--json results/BENCH_sim.json]
//! ```

use std::time::Instant;

use serde_json::json;

use cohort_bench::report::{ReportWriter, SIM};
use cohort_bench::CliOptions;
use cohort_sim::{
    ArbiterKind, CacheGeometry, DataPath, Event, EventLogProbe, FaultPlan, InjectedFault, LlcModel,
    ProtocolFlavor, SimBuilder, SimConfig, SimStats,
};
use cohort_trace::{micro, Trace, TraceOp, Workload};
use cohort_types::{LatencyConfig, Result, TimerValue};

/// One measured workload: its shape and how fast the simulator ran it.
struct Measurement {
    workload: String,
    cores: usize,
    accesses: u64,
    cycles_simulated: u64,
    seconds: f64,
}

impl Measurement {
    fn cycles_per_sec(&self) -> f64 {
        self.cycles_simulated as f64 / self.seconds.max(1e-9)
    }
}

/// Each core works through its own private lines — mostly re-use hits
/// separated by core-staggered compute gaps — with every 256th access a
/// cold line that misses all the way to DRAM and every 128th a store to a
/// line shared by its group of four cores. Under long coherence timers
/// the shared lines hold standing waiter queues; the scheduler re-derives
/// `head_release_instant` (a walk over every dispossessed holder) only for
/// the lines a completed transaction or popped release wake dirtied, not
/// for every waiting line at every instant. Prime-spaced base addresses
/// keep the per-core regions from colliding in the same LLC sets.
fn sparse_dram(cores: usize, accesses: usize, gap: u64) -> Workload {
    let traces = (0..cores)
        .map(|core| {
            let base = 1_048_573 * (core as u64 + 1);
            let shared = 0x7fff_0000 + (core as u64 / 4);
            // Co-prime-ish stagger so per-core instants rarely collide.
            let stagger = gap + 17 * core as u64;
            let mut cold = 0u64;
            let ops = (0..accesses)
                .map(|i| {
                    if i % 128 == 47 {
                        TraceOp::store(shared).after(stagger)
                    } else if i % 256 == 31 {
                        cold += 1;
                        TraceOp::load(base + 0x1000 + cold).after(stagger)
                    } else {
                        TraceOp::load(base + (i % 8) as u64).after(stagger)
                    }
                })
                .collect();
            Trace::from_ops(ops)
        })
        .collect();
    Workload::new("sparse-dram", traces).expect("cores > 0")
}

/// A finite LLC with DRAM behind it (cold sparse accesses miss all the
/// way to memory), long per-core coherence timers (holders keep the
/// shared lines, so waiter queues stand for tens of thousands of cycles)
/// and enough MSHRs that a waiting store does not stop the sparse stream.
fn dram_bound_config(cores: usize) -> SimConfig {
    SimConfig::builder(cores)
        .latency(LatencyConfig::paper().with_memory(100))
        .llc(LlcModel::Finite(CacheGeometry::new(8 * 1024 * 1024, 64, 16).expect("valid geometry")))
        .timers(vec![TimerValue::timed(60_000).expect("nonzero"); cores])
        .mshr_per_core(4)
        .build()
        .expect("valid config")
}

/// Times one run of `workload` under `config`.
fn measure(name: &str, config: &SimConfig, workload: &Workload) -> Result<Measurement> {
    let mut sim = SimBuilder::new(config.clone(), workload).build()?;
    let start = Instant::now();
    let stats = sim.run()?;
    Ok(Measurement {
        workload: name.to_string(),
        cores: workload.cores(),
        accesses: workload.total_accesses(),
        cycles_simulated: stats.cycles.get(),
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Runs one scenario twice; returns whether the event logs, final stats
/// and injected-fault records are bit-identical.
fn deterministic(
    label: &str,
    config: &SimConfig,
    workload: &Workload,
    plan: &FaultPlan,
) -> Result<bool> {
    let run = || -> Result<(Vec<Event>, SimStats, Vec<InjectedFault>)> {
        let mut sim = SimBuilder::new(config.clone(), workload)
            .probe(EventLogProbe::new())
            .faults(plan.clone())
            .build()?;
        let stats = sim.run()?;
        let injected = sim.injected_faults().to_vec();
        Ok((sim.into_probe().into_events(), stats, injected))
    };
    let identical = run()? == run()?;
    if !identical {
        eprintln!("sim: {label}: identical runs differ in event log, stats or fault records");
    }
    Ok(identical)
}

/// The preset matrix the determinism sweep covers: every arbiter, data
/// path, flavor and timer shape the bench figures exercise.
fn preset_matrix(cores: usize) -> Vec<(&'static str, SimConfig)> {
    let build = SimConfig::builder;
    vec![
        ("msi_rrof", build(cores).build().expect("valid")),
        (
            "cohort_timed",
            build(cores)
                .timers(vec![TimerValue::timed(30).expect("nonzero"); cores])
                .build()
                .expect("valid"),
        ),
        ("pcc_staged", build(cores).data_path(DataPath::ViaSharedMemory).build().expect("valid")),
        (
            "pendulum_tdm",
            build(cores)
                .timers(vec![TimerValue::timed(300).expect("nonzero"); cores])
                .arbiter(ArbiterKind::Tdm { critical: vec![true; cores] })
                .waiter_priority(vec![true; cores])
                .build()
                .expect("valid"),
        ),
        ("msi_fcfs", build(cores).arbiter(ArbiterKind::Fcfs).build().expect("valid")),
        ("mesi_rrof", build(cores).flavor(ProtocolFlavor::Mesi).build().expect("valid")),
    ]
}

/// Sweeps the preset matrix × seeded fault plans through the double-run
/// determinism check, returning the number of presets compared and
/// whether every one was deterministic.
fn presets_deterministic(quick: bool) -> Result<(usize, bool)> {
    let seeds: &[u64] = if quick { &[1] } else { &[1, 9] };
    let (mut compared, mut all) = (0, true);
    for &seed in seeds {
        let workload = micro::random_shared(4, 32, if quick { 80 } else { 160 }, 0.5, seed);
        let plan = FaultPlan::seeded(seed, 4, 20_000, 6);
        for (name, config) in preset_matrix(4) {
            all &= deterministic(&format!("seed {seed} / {name}"), &config, &workload, &plan)?;
            compared += 1;
        }
    }
    Ok((compared, all))
}

fn main() -> Result<()> {
    let options = CliOptions::parse_or_exit();
    let quick = options.quick;
    let (cores, accesses, gap) = if quick { (64, 2_000, 200) } else { (64, 20_000, 200) };

    // The headline sparse workload, plus dense counterpoints.
    let sparse_config = dram_bound_config(cores);
    let sparse = sparse_dram(cores, accesses, gap);
    let dense_cores = 4;
    let dense_config = SimConfig::builder(dense_cores).build().expect("valid config");
    let ping_pong = micro::ping_pong(dense_cores, if quick { 200 } else { 2_000 });
    let shared = micro::random_shared(dense_cores, 64, if quick { 400 } else { 4_000 }, 0.5, 5);

    eprintln!("sim: determinism check");
    let empty = FaultPlan::empty();
    let mut determinism = deterministic("sparse_dram", &sparse_config, &sparse, &empty)?;
    determinism &= deterministic("dense_random_shared", &dense_config, &shared, &empty)?;

    eprintln!("sim: preset matrix determinism");
    let (presets_compared, presets) = presets_deterministic(quick)?;
    determinism &= presets;

    eprintln!("sim: timing");
    let measurements = vec![
        measure("sparse_dram", &sparse_config, &sparse)?,
        measure("dense_ping_pong", &dense_config, &ping_pong)?,
        measure("dense_random_shared", &dense_config, &shared)?,
    ];

    for m in &measurements {
        println!(
            "{:<20} {:>2} cores  {:>8} accesses  {:>10} cycles  {:>12.0} cyc/s",
            m.workload,
            m.cores,
            m.accesses,
            m.cycles_simulated,
            m.cycles_per_sec(),
        );
    }

    let results: Vec<serde_json::Value> = measurements
        .iter()
        .map(|m| {
            json!({
                "workload": m.workload.clone(),
                "cores": m.cores as u64,
                "accesses": m.accesses,
                "cycles_simulated": m.cycles_simulated,
                "cycles_per_sec": m.cycles_per_sec(),
            })
        })
        .collect();
    let report = json!({
        "quick": quick,
        "determinism": determinism,
        "presets_compared": presets_compared as u64,
        "results": results,
    });
    ReportWriter::new(&SIM).write_or_exit(options.json.as_deref(), report);
    Ok(())
}
