//! `sim_sparse`: the simulator used the opposite way to `paper_sweep`.
//! Each request is one seeded variant of the `sparse_dram` shape of the
//! engine benchmark — 64 cores, a finite 8 MiB LLC, DRAM at 100 cycles,
//! θ = 60 000, 4 MSHRs — where few cores are due at any instant, so the
//! engine's time goes to heap wakes and timer releases. GA and analysis
//! changes cannot move it.

use std::time::Instant;

use cohort_sim::{CacheGeometry, LlcModel, SimBuilder, SimConfig, SimStats};
use cohort_trace::{Trace, TraceOp, Workload};
use cohort_types::{Fingerprint, LatencyConfig, TimerValue};

use crate::tracing::{durations_ms, span, Span, Tracer, NO_REQUEST};
use crate::{median, mix, Metrics, Recorder, STREAM_REQUESTS};

/// Cores of every request.
pub const CORES: usize = 64;

/// Accesses per core of every request.
pub const ACCESSES: usize = 4_000;

/// The seed whose first request's statistics are pinned below.
pub const REFERENCE_SEED: u64 = 1;

/// Stats digest of request 0 under [`REFERENCE_SEED`] at the default size:
/// every run re-simulates it during set-up and checks it, so a change that
/// alters simulated behaviour fails the benchmark.
pub const REFERENCE_DIGEST: &str = "eb6fda9fe202b5b4ab74afc2e14b5d3b";

/// Stream position of the warm-up request's input (no timed request
/// reaches it).
const WARMUP_REQUEST: u64 = u64::MAX - 1;

/// The request at stream position `index`: per-core private lines reused
/// between compute gaps, a cold DRAM line every 256th access and a store
/// to a line shared by groups of four cores every 128th. The seed picks the
/// gap, the phases of the cold and shared accesses and the address region.
#[must_use]
pub fn variant(seed: u64, index: u64, accesses: usize) -> Workload {
    let r = mix(seed, index);
    let gap = 180 + r % 41;
    let cold_phase = (r >> 8) % 256;
    let shared_phase = (r >> 16) % 128;
    let region = ((r >> 24) % 1024) * 4096;
    let traces = (0..CORES as u64)
        .map(|core| {
            let base = 1_048_573 * (core + 1) + region;
            let shared = 0x7fff_0000 + region + core / 4;
            let stagger = gap + 17 * core;
            let mut cold = 0;
            let ops = (0..accesses as u64)
                .map(|i| {
                    if i % 128 == shared_phase {
                        TraceOp::store(shared).after(stagger)
                    } else if i % 256 == cold_phase {
                        cold += 1;
                        TraceOp::load(base + 0x1000 + cold).after(stagger)
                    } else {
                        TraceOp::load(base + i % 8).after(stagger)
                    }
                })
                .collect();
            Trace::from_ops(ops)
        })
        .collect();
    Workload::new("sparse-dram", traces).expect("cores > 0")
}

/// The DRAM-bound platform every request runs on.
fn config() -> SimConfig {
    SimConfig::builder(CORES)
        .latency(LatencyConfig::paper().with_memory(100))
        .llc(LlcModel::Finite(CacheGeometry::new(8 * 1024 * 1024, 64, 16).expect("valid geometry")))
        .timers(vec![TimerValue::timed(60_000).expect("nonzero"); CORES])
        .mshr_per_core(4)
        .build()
        .expect("valid config")
}

/// Digest of the simulated quantities: machine-wide cycles and traffic,
/// then each core's hits, misses, total latency and finish cycle. Only a
/// change in simulated behaviour moves it, not a change to how
/// [`SimStats`] is laid out.
#[must_use]
pub fn stats_digest(stats: &SimStats) -> Fingerprint {
    let mut b = Fingerprint::builder()
        .u64(stats.cycles.get())
        .u64(stats.bus_busy.get())
        .u64(stats.broadcasts)
        .u64(stats.transfers)
        .u64(stats.llc_misses)
        .u64(stats.cores.len() as u64);
    for core in &stats.cores {
        b = b.u64(core.hits).u64(core.misses).u64(core.total_latency.get()).u64(core.finish.get());
    }
    b.finish()
}

/// Inserts `sim.accesses_per_s` and `sim.ns_per_access`.
pub fn insert_sim_rates(out: &mut Metrics, accesses: f64, run_s: f64) {
    if accesses > 0.0 && run_s > 0.0 {
        out.insert("sim.accesses_per_s", accesses / run_s);
        out.insert("sim.ns_per_access", run_s * 1e9 / accesses);
    }
}

/// The `sim_sparse` workload.
#[derive(Debug)]
pub struct SimSparse {
    seed: u64,
    accesses: usize,
    config: SimConfig,
    /// Accesses simulated by the timed phase.
    simulated: u64,
    /// (cycles, hits, misses) of the first timed request.
    first: Option<(u64, u64, u64)>,
}

impl SimSparse {
    /// The workload for `seed`, `accesses` per core per request.
    #[must_use]
    pub fn new(seed: u64, accesses: usize) -> Self {
        SimSparse { seed, accesses, config: config(), simulated: 0, first: None }
    }

    /// Simulates one input and checks that every access was counted.
    fn simulate(
        &self,
        workload: &Workload,
        tracer: Option<&Tracer>,
        parent: Option<u64>,
        request: u64,
    ) -> Result<SimStats, String> {
        let mut sim = span(tracer, "sim.build", parent, request, |_| {
            SimBuilder::new(self.config.clone(), workload).build()
        })
        .map_err(|e| format!("build failed: {e}"))?;
        let stats = span(tracer, "sim.run", parent, request, |_| sim.run())
            .map_err(|e| format!("run failed: {e}"))?;
        let counted: u64 = stats.cores.iter().map(|c| c.hits + c.misses).sum();
        if counted != workload.total_accesses() {
            return Err(format!(
                "hits + misses = {counted}, but the request made {} accesses",
                workload.total_accesses()
            ));
        }
        Ok(stats)
    }
}

impl crate::Workload for SimSparse {
    fn stream_fingerprint(&self, seed: u64) -> Fingerprint {
        let mut b = Fingerprint::builder();
        for index in 0..STREAM_REQUESTS {
            for trace in variant(seed, index, self.accesses).traces() {
                b = b.fingerprint(trace.fingerprint());
            }
        }
        b.finish()
    }

    fn setup(&mut self, rec: &mut Recorder) {
        self.config = config();
        self.simulated = 0;
        self.first = None;
        let reference = variant(REFERENCE_SEED, 0, self.accesses);
        let out =
            self.simulate(&reference, None, None, NO_REQUEST).map(|s| stats_digest(&s).to_hex());
        let pinned = self.accesses != ACCESSES || out.as_deref() == Ok(REFERENCE_DIGEST);
        rec.check(out.is_ok() && pinned, || {
            format!("reference request digest {out:?}, stored {REFERENCE_DIGEST}")
        });
        let warmup = variant(self.seed, WARMUP_REQUEST, self.accesses);
        let out = self.simulate(&warmup, None, None, NO_REQUEST);
        rec.check(out.is_ok(), || format!("warm-up request: {:?}", out.err()));
    }

    fn run(&mut self, rec: &mut Recorder, tracer: Option<&Tracer>) {
        rec.start();
        let mut index = 0;
        while !rec.expired() {
            rec.pace();
            // Input generation is the benchmark's work, not the program's.
            let workload = variant(self.seed, index, self.accesses);
            let start = Instant::now();
            let out = span(tracer, "bench.request", None, index, |id| {
                self.simulate(&workload, tracer, id, index)
            });
            let latency = start.elapsed();
            rec.add_busy(latency);
            if let Ok(stats) = &out {
                self.simulated += workload.total_accesses();
                let hits = stats.cores.iter().map(|c| c.hits).sum();
                let misses = stats.cores.iter().map(|c| c.misses).sum();
                self.first.get_or_insert((stats.cycles.get(), hits, misses));
            }
            rec.result(latency, out.map(|s| stats_digest(&s)));
            index += 1;
        }
    }

    fn layer_metrics(&self, spans: &[Span], out: &mut Metrics) {
        out.insert("sim.build_ms", median(&mut durations_ms(spans, "sim.build")));
        out.insert("sim.run_ms", median(&mut durations_ms(spans, "sim.run")));
        let run_s: f64 = durations_ms(spans, "sim.run").iter().sum::<f64>() / 1e3;
        insert_sim_rates(out, self.simulated as f64, run_s);
        if let Some((cycles, hits, misses)) = self.first {
            out.insert("sim.cycles_simulated", cycles as f64);
            out.insert("sim.hits", hits as f64);
            out.insert("sim.misses", misses as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::Workload as _;

    #[test]
    fn variants_are_seeded() {
        assert_eq!(variant(7, 0, 300), variant(7, 0, 300));
        assert_ne!(variant(7, 0, 300), variant(8, 0, 300));
        assert_ne!(variant(7, 0, 300), variant(7, 1, 300));
        assert_eq!(variant(7, 3, 300).total_accesses(), 300 * CORES as u64);
    }

    #[test]
    fn traced_and_untraced_runs_digest_identically() {
        let mut sparse = SimSparse::new(11, 300);
        let tracer = Tracer::new();
        let mut plain = Recorder::new(Duration::from_millis(300));
        let mut traced = Recorder::new(Duration::from_millis(300));
        sparse.setup(&mut plain);
        sparse.run(&mut plain, None);
        sparse.setup(&mut traced);
        sparse.run(&mut traced, Some(&tracer));
        assert_eq!(
            (plain.failed, traced.failed),
            (0, 0),
            "{:?} {:?}",
            plain.failures,
            traced.failures
        );
        assert_eq!(plain.output_digest(), traced.output_digest());
    }
}
