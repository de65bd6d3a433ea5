//! Progress observation for GA runs, mirroring the simulator's `SimProbe`
//! pattern: a `Sync` trait of defaulted no-op hooks, so observation is
//! strictly opt-in and costs nothing when unused.

use std::collections::HashMap; // lint:allow(det-unordered) observer hooks borrow the GA's memo read-only; no hook iterates it

use crate::checkpoint::GaCheckpoint;
use crate::ga::Individual;

/// Everything the engine knows right after a generation finished breeding
/// and scoring. Borrowed from the engine's internals — cheap to construct;
/// persisting anything requires a copy (or [`GenerationReport::checkpoint`]
/// for a complete resumable snapshot).
#[derive(Debug)]
pub struct GenerationReport<'a> {
    /// The 0-based index of the generation that just completed.
    pub generation: usize,
    /// The scored population after this generation, best first.
    pub population: &'a [Individual],
    /// Cumulative fitness evaluations actually performed so far.
    pub evaluations: u64,
    /// Cumulative memo-cache hits so far.
    pub cache_hits: u64,
    /// Cumulative NaN evaluations coerced to `+∞` so far.
    pub nan_evaluations: u64,
    history: &'a [f64],
    memo: &'a HashMap<Vec<u64>, f64>,
    seed: u64,
}

impl<'a> GenerationReport<'a> {
    #[allow(clippy::too_many_arguments)] // crate-internal constructor
    pub(crate) fn new(
        generation: usize,
        population: &'a [Individual],
        evaluations: u64,
        cache_hits: u64,
        nan_evaluations: u64,
        history: &'a [f64],
        memo: &'a HashMap<Vec<u64>, f64>,
        seed: u64,
    ) -> Self {
        GenerationReport {
            generation,
            population,
            evaluations,
            cache_hits,
            nan_evaluations,
            history,
            memo,
            seed,
        }
    }

    /// The best fitness after this generation.
    #[must_use]
    pub fn best_fitness(&self) -> f64 {
        self.population[0].fitness
    }

    /// The convergence curve so far (one entry per completed generation).
    #[must_use]
    pub fn history(&self) -> &[f64] {
        self.history
    }

    /// Builds a complete, resumable snapshot of the run at this point.
    ///
    /// The snapshot includes the memo cache (sorted by genes, so equal run
    /// states serialize identically), which is what makes a resumed run
    /// reproduce the uninterrupted run's evaluation counters exactly — not
    /// just its trajectory. Constructing it clones the population and the
    /// memo; call it only when actually persisting (e.g. every N
    /// generations).
    #[must_use]
    pub fn checkpoint(&self) -> GaCheckpoint {
        let mut memo: Vec<Individual> = self
            .memo
            .iter()
            .map(|(genes, &fitness)| Individual { genes: genes.clone(), fitness })
            .collect();
        memo.sort_by(|a, b| a.genes.cmp(&b.genes));
        GaCheckpoint {
            seed: self.seed,
            generations_done: self.generation + 1,
            population: self.population.to_vec(),
            history: self.history.to_vec(),
            evaluations: self.evaluations,
            cache_hits: self.cache_hits,
            nan_evaluations: self.nan_evaluations,
            memo,
        }
    }
}

/// Observer of GA progress; all methods default to no-ops.
///
/// Implementations must be `Sync` (the engine itself calls the hooks from
/// the breeding thread, but observers are routinely shared across the
/// per-mode optimization threads of the LUT flow).
pub trait GaObserver: Sync {
    /// Generation `report.generation` finished breeding and scoring.
    fn generation_finished(&self, report: &GenerationReport<'_>) {
        let _ = report;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GaConfig, GeneticAlgorithm, SearchSpace};
    use std::sync::Mutex;

    #[test]
    fn observer_sees_every_generation_in_order() {
        struct Recorder(Mutex<Vec<(usize, f64, u64)>>);
        impl GaObserver for Recorder {
            fn generation_finished(&self, report: &GenerationReport<'_>) {
                assert_eq!(report.history().len(), report.generation + 1);
                assert_eq!(report.best_fitness(), report.history()[report.generation]);
                self.0.lock().unwrap().push((
                    report.generation,
                    report.best_fitness(),
                    report.evaluations,
                ));
            }
        }
        let recorder = Recorder(Mutex::new(Vec::new()));
        let space = SearchSpace::new(vec![(0, 999); 2]);
        let config = GaConfig { population: 8, generations: 6, ..Default::default() };
        let outcome = GeneticAlgorithm::new(space, config)
            .run_observed(&[], &recorder, |g| g.iter().sum::<u64>() as f64)
            .unwrap();
        let seen = recorder.0.into_inner().unwrap();
        assert_eq!(seen.len(), 6);
        for (i, (generation, best, _)) in seen.iter().enumerate() {
            assert_eq!(*generation, i);
            assert_eq!(*best, outcome.history[i]);
        }
        assert_eq!(seen.last().unwrap().2, outcome.evaluations);
    }

    #[test]
    fn checkpoints_from_equal_states_are_identical() {
        struct Snap(Mutex<Vec<GaCheckpoint>>);
        impl GaObserver for Snap {
            fn generation_finished(&self, report: &GenerationReport<'_>) {
                self.0.lock().unwrap().push(report.checkpoint());
            }
        }
        let space = SearchSpace::new(vec![(0, 50); 3]);
        let config = GaConfig { population: 10, generations: 4, ..Default::default() };
        let f = |g: &[u64]| g.iter().map(|&x| (x as f64 - 25.0).abs()).sum::<f64>();
        let (a, b) = (Snap(Mutex::new(Vec::new())), Snap(Mutex::new(Vec::new())));
        let ga = GeneticAlgorithm::new(space, config);
        ga.run_observed(&[], &a, f).unwrap();
        ga.run_observed(&[], &b, f).unwrap();
        // Memo-map iteration order is not deterministic, but checkpoints
        // sort it — identical runs must snapshot identically.
        assert_eq!(a.0.into_inner().unwrap(), b.0.into_inner().unwrap());
    }
}
