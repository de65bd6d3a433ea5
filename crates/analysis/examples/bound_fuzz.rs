//! Dev tool: fuzz the library's per-request bounds (Eq. 1 `wcl_miss`,
//! `wcl_pcc`, `wcl_pendulum`) against the simulator at scale. Prints each
//! violation, then `violations: N` last.
use cohort_analysis::{wcl_miss, wcl_pcc, wcl_pendulum};
use cohort_sim::{
    ArbiterKind, CacheGeometry, DataPath, LlcModel, ProtocolFlavor, SimBuilder, SimConfig,
};
use cohort_trace::{AccessKind, Trace, TraceOp, Workload};
use cohort_types::{Cycles, LatencyConfig, LineAddr, SeedRng, TimerValue};

fn workload(rng: &mut SeedRng, cores: usize) -> Workload {
    let traces: Vec<Trace> = (0..cores)
        .map(|_| {
            let len = rng.gen_range(1..120);
            let mut ops = Vec::new();
            while ops.len() < len {
                let line = rng.gen_range(0..14u64);
                let store = rng.gen_bool(0.5);
                ops.push(TraceOp::new(
                    LineAddr::new(line),
                    if store { AccessKind::Store } else { AccessKind::Load },
                    Cycles::new(rng.gen_range(0..8)),
                ));
                // Burst follow-ups.
                for _ in 0..rng.gen_range(0..4) {
                    ops.push(TraceOp::new(LineAddr::new(line), AccessKind::Load, Cycles::new(1)));
                }
            }
            Trace::from_ops(ops)
        })
        .collect();
    Workload::new("fuzz", traces).unwrap()
}

fn main() {
    // The bounds take the same LatencyConfig the simulator runs with, so a
    // latency retune keeps the fuzzer honest.
    let lat = LatencyConfig::paper();
    let mut violations = 0u64;
    for seed in 0..30000u64 {
        let mut rng = SeedRng::seed_from_u64(seed);
        let cores = [2usize, 3, 4, 6][(seed % 4) as usize];
        let w = workload(&mut rng, cores);
        match seed % 3 {
            0 => {
                // CoHoRT / Eq. 1
                let timers: Vec<TimerValue> = (0..cores)
                    .map(|_| {
                        if rng.gen_bool(0.4) {
                            TimerValue::MSI
                        } else {
                            TimerValue::timed(rng.gen_range(1..=500)).unwrap()
                        }
                    })
                    .collect();
                let flavor =
                    if rng.gen_bool(0.5) { ProtocolFlavor::Mesi } else { ProtocolFlavor::Msi };
                let config = SimConfig::builder(cores)
                    .timers(timers.clone())
                    .flavor(flavor)
                    .build()
                    .unwrap();
                let stats = SimBuilder::new(config, &w).build().unwrap().run().unwrap();
                for i in 0..cores {
                    let bound = wcl_miss(i, &timers, &lat).get();
                    if stats.cores[i].worst_request.get() > bound {
                        violations += 1;
                        println!(
                            "EQ1 seed {seed} core {i}: {} > {bound}",
                            stats.cores[i].worst_request.get()
                        );
                    }
                }
            }
            1 => {
                // PCC
                let config =
                    SimConfig::builder(cores).data_path(DataPath::ViaSharedMemory).build().unwrap();
                let stats = SimBuilder::new(config, &w).build().unwrap().run().unwrap();
                let bound = wcl_pcc(cores, &lat).get();
                for i in 0..cores {
                    if stats.cores[i].worst_request.get() > bound {
                        violations += 1;
                        println!(
                            "PCC seed {seed} core {i}: {} > {bound}",
                            stats.cores[i].worst_request.get()
                        );
                    }
                }
            }
            _ => {
                // PENDULUM, sometimes with a finite LLC + DRAM latency
                // (the TDM slots must stretch to the effective slot width).
                let n_cr = rng.gen_range(1..=cores);
                let critical: Vec<bool> = (0..cores).map(|i| i < n_cr).collect();
                let theta = rng.gen_range(1..=400u64);
                let timers = vec![TimerValue::timed(theta).unwrap(); cores];
                let (llc, memory) = if rng.gen_bool(0.3) {
                    (LlcModel::Finite(CacheGeometry::new(8 * 64, 64, 2).unwrap()), 100)
                } else {
                    (LlcModel::Perfect, 0)
                };
                let latency = lat.with_memory(memory);
                let config = SimConfig::builder(cores)
                    .timers(timers)
                    .arbiter(ArbiterKind::Tdm { critical: critical.clone() })
                    .waiter_priority(critical.clone())
                    .llc(llc)
                    .latency(latency)
                    .build()
                    .unwrap();
                let stats = SimBuilder::new(config, &w).build().unwrap().run().unwrap();
                let bound = wcl_pendulum(n_cr, cores - n_cr, theta, &latency).get();
                for i in 0..n_cr {
                    if stats.cores[i].worst_request.get() > bound {
                        violations += 1;
                        println!(
                            "PEND seed {seed} core {i}: {} > {bound} (n_cr={n_cr} θ={theta})",
                            stats.cores[i].worst_request.get()
                        );
                    }
                }
            }
        }
        if violations > 10 {
            break;
        }
    }
    println!("violations: {violations}");
}
