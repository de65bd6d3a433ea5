//! Property-based tests of the GA engine and the timer problem.
//!
//! The properties run on the in-tree `cohort-prop` runner; the plain
//! `#[test]` functions below them pin the same invariants at hand-picked
//! seeds, worker counts and cut points.

use cohort_prop::prelude::*;

use cohort_optim::{
    GaCheckpoint, GaConfig, GaObserver, GenerationReport, GeneticAlgorithm, SearchSpace,
    TimerProblem,
};
use cohort_trace::micro;
use cohort_types::{Cycles, Error};
use std::sync::Mutex;

fn small_config() -> GaConfig {
    GaConfig { population: 12, generations: 6, ..Default::default() }
}

/// Captures the checkpoint of one chosen generation.
struct SnapshotAt {
    generation: usize,
    checkpoint: Mutex<Option<GaCheckpoint>>,
}

impl SnapshotAt {
    fn new(generation: usize) -> Self {
        SnapshotAt { generation, checkpoint: Mutex::new(None) }
    }

    fn take(self) -> Option<GaCheckpoint> {
        self.checkpoint.into_inner().unwrap()
    }
}

impl GaObserver for SnapshotAt {
    fn generation_finished(&self, report: &GenerationReport<'_>) {
        if report.generation == self.generation {
            *self.checkpoint.lock().unwrap() = Some(report.checkpoint());
        }
    }
}

/// Runs the parallel/serial equivalence check for one configuration.
fn assert_parallel_matches_serial(seed: u64, population: usize, workers: usize) {
    let space = SearchSpace::new(vec![(0, 50_000); 4]);
    let f = |genes: &[u64]| genes.iter().map(|&g| (g as f64 - 25_000.0).abs()).sum::<f64>();
    let serial = GeneticAlgorithm::new(
        space.clone(),
        GaConfig { seed, population, workers: 1, ..small_config() },
    )
    .run_seeded(&[vec![42, 42, 42, 42]], f)
    .unwrap();
    let parallel =
        GeneticAlgorithm::new(space, GaConfig { seed, population, workers, ..small_config() })
            .run_seeded(&[vec![42, 42, 42, 42]], f)
            .unwrap();
    assert_eq!(serial, parallel, "seed {seed}, population {population}, workers {workers}");
}

/// Runs the checkpoint/resume equivalence check for one configuration.
fn assert_resume_matches_uninterrupted(seed: u64, cut_after: usize, workers: usize) {
    let space = SearchSpace::new(vec![(1, 9_999); 3]);
    let f = |genes: &[u64]| genes.iter().map(|&g| (g as f64 - 777.0).powi(2)).sum::<f64>();
    let config = GaConfig { seed, generations: 8, workers, ..small_config() };
    let ga = GeneticAlgorithm::new(space, config);

    let snap = SnapshotAt::new(cut_after);
    let full = ga.run_observed(&[], &snap, f).unwrap();
    let checkpoint = snap.take().expect("observed generation ran");

    // Round-trip through the JSON codec, then resume: outcome, history and
    // the evaluation counters must all match the uninterrupted run.
    let restored = GaCheckpoint::from_json(&checkpoint.to_json()).unwrap();
    let resumed = ga.resume(&restored, f).unwrap();
    assert_eq!(resumed, full, "seed {seed}, cut after generation {cut_after}");
}

/// A valid `cohort-ga-checkpoint/1` document: generation 2 of a small run.
fn checkpoint_doc() -> String {
    let space = SearchSpace::new(vec![(1, 9_999); 3]);
    let snap = SnapshotAt::new(2);
    GeneticAlgorithm::new(space, small_config())
        .run_observed(&[], &snap, |genes| genes.iter().map(|&g| g as f64).sum())
        .unwrap();
    snap.take().expect("generation 2 ran").to_json()
}

properties! {
    #![cases(32)]

    /// The GA never emits a chromosome outside the search space, and the
    /// convergence history is monotone non-increasing (elitism).
    #[test]
    fn ga_respects_bounds_and_monotonicity(
        bounds in collection::vec((1u64..100, 0u64..5_000), 1..5),
        seed in any::<u64>(),
    ) {
        let bounds: Vec<(u64, u64)> = bounds.into_iter().map(|(lo, span)| (lo, lo + span)).collect();
        let space = SearchSpace::new(bounds.clone());
        let ga = GeneticAlgorithm::new(space.clone(), GaConfig { seed, ..small_config() });
        let outcome = ga.run(|genes| genes.iter().map(|&g| g as f64).sum());
        assert!(space.contains(&outcome.best));
        for w in outcome.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
        // The optimum of a monotone objective is the all-low corner; the GA
        // must at least not do worse than a random guess bound.
        let low: f64 = bounds.iter().map(|&(lo, _)| lo as f64).sum();
        let high: f64 = bounds.iter().map(|&(_, hi)| hi as f64).sum();
        assert!(outcome.best_fitness >= low - 1e-9);
        assert!(outcome.best_fitness <= high + 1e-9);
    }

    /// Log-scale spaces also respect bounds for extreme ranges.
    #[test]
    fn log_space_respects_bounds(hi in 1u64..60_000, seed in any::<u64>()) {
        let space = SearchSpace::logarithmic(vec![(1, hi.max(1)); 3]);
        let ga = GeneticAlgorithm::new(space.clone(), GaConfig { seed, ..small_config() });
        let outcome = ga.run(|genes| genes.iter().map(|&g| g as f64).sum());
        assert!(space.contains(&outcome.best));
    }

    /// Identical (problem, config) pairs give identical outcomes.
    #[test]
    fn ga_is_deterministic(seed in any::<u64>()) {
        let space = SearchSpace::new(vec![(0, 999); 3]);
        let config = GaConfig { seed, ..small_config() };
        let f = |genes: &[u64]| genes.iter().map(|&g| (g as f64 - 500.0).abs()).sum();
        let a = GeneticAlgorithm::new(space.clone(), config.clone()).run(f);
        let b = GeneticAlgorithm::new(space, config).run(f);
        assert_eq!(a, b);
    }

    /// Parallel evaluation is bit-identical to serial for any seed and any
    /// population / worker-count combination — including the evaluation and
    /// cache-hit counters.
    #[test]
    fn parallel_run_is_bit_identical_to_serial(
        seed in any::<u64>(),
        population in 4usize..24,
        workers in 2usize..9,
    ) {
        assert_parallel_matches_serial(seed, population, workers);
    }

    /// A checkpoint taken after any generation, round-tripped through its
    /// JSON codec and resumed, reproduces the uninterrupted run exactly.
    #[test]
    fn checkpoint_resume_reproduces_the_uninterrupted_run(
        seed in any::<u64>(),
        cut_after in 0usize..7,
        workers in 1usize..5,
    ) {
        assert_resume_matches_uninterrupted(seed, cut_after, workers);
    }

    /// A feasible seed never makes the outcome infeasible: fitness of the
    /// GA's best is ≤ the seed's fitness (elitism preserves it).
    #[test]
    fn seeding_never_hurts(seed_genes in collection::vec(1u64..40, 2)) {
        let workload = micro::line_bursts(2, 4, 40);
        let problem = TimerProblem::builder(&workload)
            .timed(0, Some(Cycles::new(1_000_000)))
            .timed(1, None)
            .build()
            .unwrap();
        let clamped: Vec<u64> = seed_genes
            .iter()
            .zip(problem.theta_saturations())
            .map(|(&g, &sat)| g.min(sat))
            .collect();
        let seed_fitness = problem.fitness(&clamped);
        let space = problem.search_space();
        let ga = GeneticAlgorithm::new(space, small_config());
        let outcome = ga.run_seeded(&[clamped], |g| problem.fitness(g)).unwrap();
        assert!(outcome.best_fitness <= seed_fitness + 1e-9);
    }

    /// The timer-problem fitness is a pure function of the genes.
    #[test]
    fn fitness_is_pure(genes in collection::vec(1u64..64, 2)) {
        let workload = micro::line_bursts(2, 3, 30);
        let problem =
            TimerProblem::builder(&workload).timed(0, None).timed(1, None).build().unwrap();
        let clamped: Vec<u64> = genes
            .iter()
            .zip(problem.theta_saturations())
            .map(|(&g, &sat)| g.min(sat))
            .collect();
        assert_eq!(problem.fitness(&clamped), problem.fitness(&clamped));
    }
}

properties! {
    /// A damaged checkpoint decodes to a typed error or to a checkpoint
    /// that re-encodes; it never panics.
    #[test]
    fn damaged_checkpoints_never_panic(text in json_mutations(&checkpoint_doc())) {
        if let Ok(checkpoint) = GaCheckpoint::from_json(&text) {
            let _ = checkpoint.to_json();
        }
    }
}

/// Nesting past the parser's depth cap is a typed error, not a stack
/// overflow that aborts the process.
#[test]
fn deeply_nested_checkpoint_json_is_a_codec_error() {
    for text in ["[".repeat(10_000), "[".repeat(10_000) + &"]".repeat(10_000)] {
        assert!(matches!(GaCheckpoint::from_json(&text), Err(Error::Codec(_))));
    }
}

// ---------------------------------------------------------------------------
// Fixed-seed variants: the same invariants at hand-picked corners.
// ---------------------------------------------------------------------------

#[test]
fn parallel_matches_serial_across_fixed_combinations() {
    for (seed, population, workers) in
        [(0u64, 12usize, 2usize), (1, 7, 3), (0xDEAD_BEEF, 16, 8), (42, 5, 4)]
    {
        assert_parallel_matches_serial(seed, population, workers);
    }
}

#[test]
fn resume_matches_uninterrupted_across_fixed_cuts() {
    for (seed, cut_after, workers) in [(0u64, 0usize, 1usize), (7, 3, 2), (99, 6, 4)] {
        assert_resume_matches_uninterrupted(seed, cut_after, workers);
    }
}

#[test]
fn timer_solve_is_identical_serial_and_parallel() {
    // The real fitness (cache analysis + Eq. 1) through `GaRun`, serial vs
    // parallel: the shipped Mode-Switch LUT must not depend on the host's
    // core count.
    let workload = micro::line_bursts(2, 4, 60);
    let problem = TimerProblem::builder(&workload)
        .timed(0, Some(Cycles::new(1_000_000)))
        .timed(1, None)
        .build()
        .unwrap();
    let serial = cohort_optim::GaRun::new(&problem)
        .config(&GaConfig { population: 12, generations: 8, workers: 1, ..Default::default() })
        .run();
    let parallel = cohort_optim::GaRun::new(&problem)
        .config(&GaConfig { population: 12, generations: 8, workers: 6, ..Default::default() })
        .run();
    assert_eq!(serial, parallel);
}
