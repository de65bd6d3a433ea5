//! Benchmarks the GA optimization engine: generations per second,
//! evaluation counts, memo-cache hit rate, and the wall-clock speedup of
//! batch-parallel fitness evaluation over the serial baseline.
//!
//! Two sections:
//!
//! 1. **Engine throughput** — a synthetic, deliberately CPU-bound fitness
//!    (a sequential xorshift chain, immune to external memoization) gives
//!    a clean serial-vs-parallel comparison of the batch evaluator. The
//!    report's check fails the run unless the parallel outcome is
//!    bit-identical to the serial one.
//! 2. **Timer problem** — the real offline objective (static cache
//!    analysis + Eq. 1) on an Ocean-style workload, reporting how far the
//!    genome memo cache cuts the evaluation count in practice.
//! 3. **Hit kernel** — the guaranteed-hit walk that fitness evaluations
//!    call, timed directly (no memo) over the same workload's four traces
//!    at θ ∈ {1, 24, 512, θ_sat}, as nanoseconds per analysed access.
//!
//! ```text
//! cargo run --release -p cohort-bench --bin optim [-- --quick --json <path>]
//! ```

use std::hint::black_box;
use std::time::Instant;

use cohort_analysis::{guaranteed_hits, theta_saturation, HitMissCounts};
use cohort_bench::report::{ReportWriter, OPTIM};
use cohort_bench::{bench_ga, CliOptions};
use cohort_optim::{
    GaConfig, GaOutcome, GaRun, GeneticAlgorithm, SearchSpace, StopReason, TimerProblem,
};
use cohort_sim::CacheGeometry;
use cohort_trace::{Kernel, KernelSpec, Trace, Workload};
use cohort_types::{Cycles, LatencyConfig, TimerValue};
use serde_json::json;

/// A deterministic, sequentially-dependent busy function: each call costs
/// `spins` xorshift steps that the compiler cannot fold or vectorize, so
/// wall-clock scales with evaluations and nothing else.
fn busy_fitness(genes: &[u64], spins: u64) -> f64 {
    let mut acc = 0x9e37_79b9_7f4a_7c15u64;
    for &g in genes {
        acc ^= g.wrapping_mul(0xd134_2543_de82_ef95).rotate_left(17);
    }
    let mut x = acc | 1;
    for _ in 0..spins {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    ((x ^ acc) >> 11) as f64 / (1u64 << 53) as f64
}

/// One timed engine run: the outcome plus the best wall-clock over `reps`.
struct TimedRun {
    workers: usize,
    outcome: GaOutcome,
    seconds: f64,
}

fn timed_run(space: &SearchSpace, config: &GaConfig, reps: usize, spins: u64) -> TimedRun {
    let mut best = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..reps.max(1) {
        let ga = GeneticAlgorithm::new(space.clone(), config.clone());
        let start = Instant::now();
        let run = ga.run(|genes| busy_fitness(genes, spins));
        best = best.min(start.elapsed().as_secs_f64());
        outcome = Some(run);
    }
    TimedRun {
        workers: config.resolved_workers(),
        outcome: outcome.expect("reps ≥ 1"),
        seconds: best,
    }
}

fn stop_label(stop: StopReason) -> &'static str {
    match stop {
        StopReason::Completed => "completed",
        StopReason::TargetReached => "target_reached",
        StopReason::Stalled => "stalled",
        StopReason::BudgetExhausted => "budget_exhausted",
    }
}

fn run_to_json(run: &TimedRun, generations: usize) -> serde_json::Value {
    json!({
        "workers": run.workers,
        "seconds": run.seconds,
        "generations_per_sec": generations as f64 / run.seconds.max(1e-12),
        "evaluations": run.outcome.evaluations,
        "cache_hits": run.outcome.cache_hits,
        "cache_hit_rate": run.outcome.cache_hit_rate(),
        "nan_evaluations": run.outcome.nan_evaluations,
        "best_fitness": run.outcome.best_fitness,
        "stop": stop_label(run.outcome.stop),
    })
}

/// The timed θ values besides each trace's own θ_sat.
const HIT_KERNEL_THETAS: [u64; 3] = [1, 24, 512];

/// Accesses each timed repetition of the hit kernel walks at least, so the
/// quick run's small traces still give a measurable interval.
const HIT_KERNEL_MIN_ACCESSES: u64 = 16_000_000;

/// Section 3's measurement: `rounds` passes over every (trace, θ) pair,
/// best wall-clock over `reps`.
struct HitKernelRun {
    calls: u64,
    accesses: u64,
    rounds: u64,
    counts: HitMissCounts,
    seconds: f64,
}

impl HitKernelRun {
    fn ns_per_access(&self) -> f64 {
        self.seconds * 1e9 / self.accesses.max(1) as f64
    }
}

/// Times direct [`guaranteed_hits`] calls over `workload`'s traces on the
/// paper's L1 with the uncontended miss penalty, at
/// [`HIT_KERNEL_THETAS`] plus each trace's θ_sat.
fn hit_kernel_run(workload: &Workload, reps: usize) -> HitKernelRun {
    let l1 = CacheGeometry::paper_l1();
    let latency = LatencyConfig::paper();
    let (hit, penalty) = (latency.hit, latency.slot_width());
    let grid: Vec<(&Trace, TimerValue)> = workload
        .traces()
        .iter()
        .flat_map(|trace| {
            let sat = theta_saturation(trace, &l1, hit, penalty);
            HIT_KERNEL_THETAS
                .into_iter()
                .chain([sat])
                .map(move |theta| (trace, TimerValue::timed(theta).expect("θ in range")))
        })
        .collect();
    let pass_accesses: u64 = grid.iter().map(|(trace, _)| trace.len() as u64).sum();
    let rounds = HIT_KERNEL_MIN_ACCESSES.div_ceil(pass_accesses.max(1));
    let mut seconds = f64::INFINITY;
    let mut counts = HitMissCounts::default();
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let mut total = HitMissCounts::default();
        for _ in 0..rounds {
            for &(trace, timer) in &grid {
                let c = guaranteed_hits(black_box(trace), timer, &l1, hit, penalty);
                total.hits += c.hits;
                total.misses += c.misses;
            }
        }
        seconds = seconds.min(start.elapsed().as_secs_f64());
        counts = total;
    }
    HitKernelRun {
        calls: rounds * grid.len() as u64,
        accesses: rounds * pass_accesses,
        rounds,
        counts,
        seconds,
    }
}

fn main() {
    let options = CliOptions::parse_or_exit();
    let host_parallelism =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (spins, requests, reps) =
        if options.quick { (20_000u64, 2_000u64, 2usize) } else { (200_000, 20_000, 3) };
    let base = bench_ga(options.quick);

    // Section 1 — engine throughput on the synthetic busy objective.
    println!(
        "GA engine benchmark — population {}, generations {}, host parallelism {}\n",
        base.population, base.generations, host_parallelism
    );
    println!(
        "{:<10} {:>9} {:>12} {:>13} {:>12} {:>11}",
        "mode", "workers", "seconds", "gens/sec", "evals", "cache hits"
    );
    let space = SearchSpace::new(vec![(0, u64::from(u16::MAX)); 6]);
    let serial = timed_run(&space, &GaConfig { workers: 1, ..base.clone() }, reps, spins);
    // `--workers` forces the parallel leg's worker count (0 = resolve from
    // the host); useful both to pin CI runs and to measure oversubscription
    // on small hosts.
    let parallel_workers = options.workers.unwrap_or(0);
    let parallel =
        timed_run(&space, &GaConfig { workers: parallel_workers, ..base.clone() }, reps, spins);
    if parallel.workers > host_parallelism {
        println!(
            "(forced {} workers on {host_parallelism} CPU(s): oversubscribed, expect no speedup)\n",
            parallel.workers
        );
    }

    for (label, run) in [("serial", &serial), ("parallel", &parallel)] {
        println!(
            "{label:<10} {:>9} {:>12.3} {:>13.1} {:>12} {:>11}",
            run.workers,
            run.seconds,
            base.generations as f64 / run.seconds.max(1e-12),
            run.outcome.evaluations,
            run.outcome.cache_hits,
        );
    }
    let speedup = serial.seconds / parallel.seconds.max(1e-12);
    println!("\nspeedup {speedup:.2}× with {} worker(s)", parallel.workers);
    if host_parallelism == 1 {
        println!("(single-CPU host: no parallel speedup is available here)");
    }

    // Section 2 — the real timer problem: four timed cores on an
    // Ocean-style sharing pattern, generous requirements on the two
    // critical cores. Here the genome memo and the shared analysis cache
    // carry the cost, so the interesting numbers are the counters.
    let workload = KernelSpec::new(Kernel::Ocean, 4).with_total_requests(requests).generate();
    let problem = TimerProblem::builder(&workload)
        .timed(0, Some(Cycles::new(10_000_000)))
        .timed(1, Some(Cycles::new(10_000_000)))
        .timed(2, None)
        .timed(3, None)
        .build()
        .expect("four-core problem");
    let start = Instant::now();
    let timer_outcome = GaRun::new(&problem).config(&base).run();
    let timer_seconds = start.elapsed().as_secs_f64();
    let feasible = problem.evaluate(&timer_outcome.best).feasible;
    println!(
        "\ntimer problem ({requests} requests): {:.3} s, {} evaluations, \
         {} cache hits ({:.1}%), feasible: {feasible}",
        timer_seconds,
        timer_outcome.evaluations,
        timer_outcome.cache_hits,
        100.0 * timer_outcome.cache_hit_rate(),
    );

    // Section 3 — the guaranteed-hit kernel under the timer problem.
    let kernel = hit_kernel_run(&workload, reps);
    println!(
        "hit kernel: {} calls, {} accesses, {:.3} s, {:.2} ns/access",
        kernel.calls,
        kernel.accesses,
        kernel.seconds,
        kernel.ns_per_access(),
    );

    // Determinism is the engine's core contract: the report's check
    // refuses a speedup for a solver that changes its answer with the
    // thread count.
    let report = json!({
        "quick": options.quick,
        "host_parallelism": host_parallelism,
        "workers_forced": options.workers,
        "population": base.population,
        "generations": base.generations,
        "spins": spins,
        "requests": requests,
        "reps": reps,
        "bit_identical": serial.outcome == parallel.outcome,
        "speedup": speedup,
        "runs": [
            run_to_json(&serial, base.generations),
            run_to_json(&parallel, base.generations),
        ],
        "timer_problem": json!({
            "seconds": timer_seconds,
            "evaluations": timer_outcome.evaluations,
            "cache_hits": timer_outcome.cache_hits,
            "cache_hit_rate": timer_outcome.cache_hit_rate(),
            "best_fitness": timer_outcome.best_fitness,
            "feasible": feasible,
            "stop": stop_label(timer_outcome.stop),
        }),
        "hit_kernel": json!({
            "thetas": HIT_KERNEL_THETAS,
            "rounds": kernel.rounds,
            "calls": kernel.calls,
            "accesses": kernel.accesses,
            "hits": kernel.counts.hits,
            "misses": kernel.counts.misses,
            "seconds": kernel.seconds,
            "ns_per_access": kernel.ns_per_access(),
        }),
    });
    ReportWriter::new(&OPTIM).write_or_exit(options.json.as_deref(), report);
}
