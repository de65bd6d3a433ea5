//! A deterministic, parallel, memoized genetic algorithm over bounded
//! integer chromosomes.
//!
//! The engine is generic: the CoHoRT timer problem is one instance, the
//! ablation benches reuse it with other fitness functions. Determinism is a
//! hard requirement (the paper's Table II must regenerate identically), so
//! all randomness flows from a caller-provided seed through [`SeedRng`],
//! and the engine is structured so that **parallel evaluation is
//! bit-identical to serial evaluation**: each generation's offspring are
//! bred sequentially with the RNG first, then the batch is scored across
//! scoped worker threads — the RNG never observes evaluation order.
//!
//! Three further properties matter for long LUT optimizations:
//!
//! - **Memoization** — fitness is cached per genome, so elites,
//!   no-crossover clones and seeded re-runs never re-evaluate an identical
//!   chromosome (the timer problem's cache-analysis fitness is expensive).
//! - **Early stopping** — optional stall / target / evaluation-budget
//!   cut-offs ([`GaConfig::stall_generations`] and friends).
//! - **Checkpointing** — the RNG is re-derived per generation from
//!   `(seed, generation)`, so a [`GaCheckpoint`] (population + memo +
//!   counters) restored via [`GeneticAlgorithm::resume`] continues
//!   bit-identically to the uninterrupted run.

use std::collections::HashMap; // lint:allow(det-unordered) the fitness memo and pending-index are lookup-only; the only iteration (checkpointing) sorts by genes first

use cohort_types::{default_workers, run_indexed, splitmix64, Error, Result, SeedRng};

use crate::checkpoint::GaCheckpoint;
use crate::observer::{GaObserver, GenerationReport};

/// Inclusive per-gene bounds of the search space.
///
/// # Examples
///
/// ```
/// use cohort_optim::SearchSpace;
///
/// let space = SearchSpace::new(vec![(1, 10), (5, 5)]);
/// assert_eq!(space.genes(), 2);
/// assert!(space.contains(&[3, 5]));
/// assert!(!space.contains(&[0, 5]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    bounds: Vec<(u64, u64)>,
    log_scale: bool,
}

impl SearchSpace {
    /// Creates a search space from inclusive `(low, high)` bounds with
    /// uniform (linear) sampling.
    ///
    /// # Panics
    ///
    /// Panics if any bound has `low > high` or the space is empty.
    #[must_use]
    pub fn new(bounds: Vec<(u64, u64)>) -> Self {
        Self::with_scale(bounds, false)
    }

    /// Creates a search space sampled **log-uniformly**: appropriate when
    /// genes span orders of magnitude and the interesting region sits near
    /// the low end — exactly the shape of the timer problem, where θ_sat
    /// can be tens of thousands but feasible timers are tens of cycles.
    /// Requires strictly positive lower bounds.
    ///
    /// # Panics
    ///
    /// Panics if any bound has `low > high` or `low == 0`, or the space is
    /// empty.
    #[must_use]
    pub fn logarithmic(bounds: Vec<(u64, u64)>) -> Self {
        assert!(bounds.iter().all(|&(lo, _)| lo > 0), "log scale needs positive lower bounds");
        Self::with_scale(bounds, true)
    }

    fn with_scale(bounds: Vec<(u64, u64)>, log_scale: bool) -> Self {
        assert!(!bounds.is_empty(), "search space needs at least one gene");
        for &(lo, hi) in &bounds {
            assert!(lo <= hi, "inverted bound {lo}..={hi}");
        }
        SearchSpace { bounds, log_scale }
    }

    /// Number of genes per chromosome.
    #[must_use]
    pub fn genes(&self) -> usize {
        self.bounds.len()
    }

    /// The inclusive bounds of one gene.
    #[must_use]
    pub fn bound(&self, gene: usize) -> (u64, u64) {
        self.bounds[gene]
    }

    /// Whether a chromosome lies inside the space.
    #[must_use]
    pub fn contains(&self, genes: &[u64]) -> bool {
        genes.len() == self.bounds.len()
            && genes.iter().zip(&self.bounds).all(|(&g, &(lo, hi))| g >= lo && g <= hi)
    }

    /// Samples one gene (uniformly, or log-uniformly for log-scale spaces).
    fn sample_gene(&self, gene: usize, rng: &mut SeedRng) -> u64 {
        let (lo, hi) = self.bounds[gene];
        if self.log_scale && hi > lo {
            let (ll, lh) = ((lo as f64).ln(), (hi as f64).ln());
            let v = rng.gen_range(ll..=lh).exp().round() as u64;
            v.clamp(lo, hi)
        } else {
            rng.gen_range(lo..=hi)
        }
    }

    fn sample(&self, rng: &mut SeedRng) -> Vec<u64> {
        (0..self.bounds.len()).map(|i| self.sample_gene(i, rng)).collect()
    }

    fn clamp(&self, gene: usize, value: u64) -> u64 {
        let (lo, hi) = self.bounds[gene];
        value.clamp(lo, hi)
    }
}

/// Hyper-parameters of the GA. The defaults mirror a stock "default
/// parameters" GA as used by the paper's Matlab setup: generational
/// replacement with elitism, tournament selection, uniform crossover,
/// reset-or-jitter mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct GaConfig {
    /// Individuals per generation.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Probability of crossing two parents (vs cloning one).
    pub crossover_rate: f64,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Individuals copied unchanged into the next generation.
    pub elitism: usize,
    /// RNG seed (the whole run is a pure function of it).
    pub seed: u64,
    /// Worker threads for fitness evaluation; `0` (the default) resolves
    /// to [`std::thread::available_parallelism`]. Any value produces
    /// bit-identical outcomes — parallelism never touches the RNG.
    pub workers: usize,
    /// Stop early after this many consecutive generations without a strict
    /// improvement of the best fitness. `None` disables the cut-off.
    pub stall_generations: Option<usize>,
    /// Stop early once the best fitness is `≤` this target. `None`
    /// disables the cut-off.
    pub target_fitness: Option<f64>,
    /// Stop early once this many *actual* fitness evaluations (memo hits
    /// excluded) have been spent. Checked at generation granularity, so
    /// the final generation may overshoot. `None` disables the budget.
    pub max_evaluations: Option<u64>,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 48,
            generations: 60,
            tournament: 3,
            crossover_rate: 0.9,
            mutation_rate: 0.15,
            elitism: 2,
            seed: 0,
            workers: 0,
            stall_generations: None,
            target_fitness: None,
            max_evaluations: None,
        }
    }
}

impl GaConfig {
    /// The evaluation worker count this configuration resolves to.
    #[must_use]
    pub fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            default_workers()
        } else {
            self.workers
        }
    }
}

/// One scored chromosome of a population.
#[derive(Debug, Clone, PartialEq)]
pub struct Individual {
    /// The chromosome.
    pub genes: Vec<u64>,
    /// Its fitness (lower is better; never NaN — see
    /// [`GaOutcome::nan_evaluations`]).
    pub fitness: f64,
}

/// Why a run returned when it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// All configured generations ran.
    Completed,
    /// The best fitness reached [`GaConfig::target_fitness`].
    TargetReached,
    /// [`GaConfig::stall_generations`] generations passed without
    /// improvement.
    Stalled,
    /// The [`GaConfig::max_evaluations`] budget was exhausted.
    BudgetExhausted,
}

/// Result of a GA run.
#[derive(Debug, Clone, PartialEq)]
pub struct GaOutcome {
    /// The best chromosome found.
    pub best: Vec<u64>,
    /// Its fitness (lower is better).
    pub best_fitness: f64,
    /// Best fitness after each generation (convergence curve; shorter than
    /// [`GaConfig::generations`] when the run stopped early).
    pub history: Vec<f64>,
    /// Fitness evaluations actually performed (memo hits excluded).
    pub evaluations: u64,
    /// Evaluations answered from the genome-keyed memo cache instead.
    pub cache_hits: u64,
    /// Evaluations that returned NaN and were coerced to `+∞` (a correct
    /// fitness function never produces any).
    pub nan_evaluations: u64,
    /// Why the run stopped.
    pub stop: StopReason,
}

impl GaOutcome {
    /// Fraction of fitness lookups served by the memo cache, in `[0, 1]`.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.evaluations + self.cache_hits;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The do-nothing observer behind [`GeneticAlgorithm::run`].
struct SilentObserver;

impl GaObserver for SilentObserver {}

/// Derives the RNG for one stream of a run: stream 0 samples the initial
/// population, stream `g + 1` breeds generation `g`. A splitmix64
/// finalizer decorrelates adjacent streams before [`SeedRng`] seeds them.
fn stream_rng(seed: u64, stream: u64) -> SeedRng {
    SeedRng::seed_from_u64(splitmix64(seed, stream))
}

/// Mutable bookkeeping of one run: the memo cache and the counters that
/// end up in [`GaOutcome`] / [`GaCheckpoint`].
struct RunState {
    memo: HashMap<Vec<u64>, f64>,
    evaluations: u64,
    cache_hits: u64,
    nan_evaluations: u64,
    history: Vec<f64>,
}

/// A deterministic, minimising genetic algorithm.
///
/// # Examples
///
/// Minimise the distance to a hidden target vector:
///
/// ```
/// use cohort_optim::{GaConfig, GeneticAlgorithm, SearchSpace};
///
/// let space = SearchSpace::new(vec![(0, 100); 4]);
/// let target = [7u64, 42, 99, 0];
/// let ga = GeneticAlgorithm::new(space, GaConfig::default());
/// let outcome = ga.run(|genes| {
///     genes.iter().zip(&target).map(|(&g, &t)| (g as f64 - t as f64).abs()).sum()
/// });
/// assert!(outcome.best_fitness <= 10.0, "close to the target");
/// assert_eq!(outcome.history.len(), GaConfig::default().generations);
/// ```
#[derive(Debug, Clone)]
pub struct GeneticAlgorithm {
    space: SearchSpace,
    config: GaConfig,
}

impl GeneticAlgorithm {
    /// Creates an engine over `space` with the given hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if the population or tournament size is zero, or elitism
    /// exceeds the population.
    #[must_use]
    pub fn new(space: SearchSpace, config: GaConfig) -> Self {
        assert!(config.population > 0, "population must be positive");
        assert!(config.tournament > 0, "tournament must be positive");
        assert!(config.elitism <= config.population, "elitism exceeds population");
        GeneticAlgorithm { space, config }
    }

    /// The search space the engine explores.
    #[must_use]
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The hyper-parameters the engine runs with.
    #[must_use]
    pub fn config(&self) -> &GaConfig {
        &self.config
    }

    /// Runs the GA, minimising `fitness`. Optionally seeds the initial
    /// population with known-good chromosomes via [`Self::run_seeded`].
    pub fn run(&self, fitness: impl Fn(&[u64]) -> f64 + Sync) -> GaOutcome {
        self.run_observed(&[], &SilentObserver, fitness).expect("an unseeded run cannot fail")
    }

    /// Runs the GA with `seeds` injected into the initial population (the
    /// mode-switch flow seeds each mode with the previous mode's solution).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if a seed chromosome lies outside
    /// the search space, or if more seeds are supplied than the population
    /// can hold — silently dropping a seed would lose e.g. the previous
    /// mode's solution unnoticed, so overflow is an explicit error.
    pub fn run_seeded(
        &self,
        seeds: &[Vec<u64>],
        fitness: impl Fn(&[u64]) -> f64 + Sync,
    ) -> Result<GaOutcome> {
        self.run_observed(seeds, &SilentObserver, fitness)
    }

    /// Like [`Self::run_seeded`], reporting per-generation progress (and
    /// checkpoint opportunities) to `observer`.
    ///
    /// # Errors
    ///
    /// As [`Self::run_seeded`].
    pub fn run_observed(
        &self,
        seeds: &[Vec<u64>],
        observer: &dyn GaObserver,
        fitness: impl Fn(&[u64]) -> f64 + Sync,
    ) -> Result<GaOutcome> {
        for seed in seeds {
            if !self.space.contains(seed) {
                return Err(Error::InvalidConfig(format!(
                    "seed chromosome {seed:?} out of bounds for the search space"
                )));
            }
        }
        if seeds.len() > self.config.population {
            return Err(Error::InvalidConfig(format!(
                "{} seed chromosomes exceed the population of {} — raise the population or drop \
                 seeds explicitly",
                seeds.len(),
                self.config.population
            )));
        }

        let mut state = RunState {
            memo: HashMap::new(),
            evaluations: 0,
            cache_hits: 0,
            nan_evaluations: 0,
            history: Vec::with_capacity(self.config.generations),
        };

        // Initial population: injected seeds then random samples, bred
        // sequentially from stream 0 and scored as one batch.
        let mut rng = stream_rng(self.config.seed, 0);
        let mut genomes: Vec<Vec<u64>> = seeds.to_vec();
        while genomes.len() < self.config.population {
            genomes.push(self.space.sample(&mut rng));
        }
        let mut population = self.score_batch(genomes, &mut state, &fitness);
        population.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));

        Ok(self.evolve(population, 0, &mut state, observer, &fitness))
    }

    /// Resumes a checkpointed run: restores the population, memo cache and
    /// counters, then continues breeding from the recorded generation. The
    /// continuation is bit-identical to the uninterrupted run because each
    /// generation's RNG is derived from `(seed, generation)` alone.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the checkpoint does not match
    /// this engine: different seed or population size, chromosomes outside
    /// the search space, or more completed generations than the
    /// configuration allows.
    pub fn resume(
        &self,
        checkpoint: &GaCheckpoint,
        fitness: impl Fn(&[u64]) -> f64 + Sync,
    ) -> Result<GaOutcome> {
        self.resume_observed(checkpoint, &SilentObserver, fitness)
    }

    /// Like [`Self::resume`], reporting progress to `observer`.
    ///
    /// # Errors
    ///
    /// As [`Self::resume`].
    pub fn resume_observed(
        &self,
        checkpoint: &GaCheckpoint,
        observer: &dyn GaObserver,
        fitness: impl Fn(&[u64]) -> f64 + Sync,
    ) -> Result<GaOutcome> {
        if checkpoint.seed != self.config.seed {
            return Err(Error::InvalidConfig(format!(
                "checkpoint was recorded at seed {}, engine runs seed {}",
                checkpoint.seed, self.config.seed
            )));
        }
        if checkpoint.population.is_empty() {
            return Err(Error::InvalidConfig(
                "checkpoint has an empty population — nothing to resume from".into(),
            ));
        }
        if checkpoint.population.len() != self.config.population {
            return Err(Error::InvalidConfig(format!(
                "checkpoint population {} does not match the configured population {}",
                checkpoint.population.len(),
                self.config.population
            )));
        }
        if checkpoint.generations_done > self.config.generations {
            return Err(Error::InvalidConfig(format!(
                "checkpoint already ran {} generations, configuration allows {}",
                checkpoint.generations_done, self.config.generations
            )));
        }
        for individual in checkpoint.population.iter().chain(&checkpoint.memo) {
            if !self.space.contains(&individual.genes) {
                return Err(Error::InvalidConfig(format!(
                    "checkpoint chromosome {:?} out of bounds for the search space",
                    individual.genes
                )));
            }
        }
        let mut state = RunState {
            memo: checkpoint.memo.iter().map(|i| (i.genes.clone(), i.fitness)).collect(),
            evaluations: checkpoint.evaluations,
            cache_hits: checkpoint.cache_hits,
            nan_evaluations: checkpoint.nan_evaluations,
            history: checkpoint.history.clone(),
        };
        let mut population = checkpoint.population.clone();
        population.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
        Ok(self.evolve(population, checkpoint.generations_done, &mut state, observer, fitness))
    }

    /// The generational loop shared by fresh and resumed runs.
    fn evolve(
        &self,
        mut population: Vec<Individual>,
        start_generation: usize,
        state: &mut RunState,
        observer: &dyn GaObserver,
        fitness: impl Fn(&[u64]) -> f64 + Sync,
    ) -> GaOutcome {
        let mut best_so_far = population[0].fitness;
        let mut stalled_for = 0usize;
        let mut stop = StopReason::Completed;

        for generation in start_generation..self.config.generations {
            if self.config.target_fitness.is_some_and(|t| best_so_far <= t) {
                stop = StopReason::TargetReached;
                break;
            }
            if self.config.max_evaluations.is_some_and(|b| state.evaluations >= b) {
                stop = StopReason::BudgetExhausted;
                break;
            }
            if self.config.stall_generations.is_some_and(|s| stalled_for >= s) {
                stop = StopReason::Stalled;
                break;
            }

            // Breed the full offspring batch sequentially with this
            // generation's RNG stream; fitness plays no part in breeding
            // beyond the (already-scored) parents, so evaluation can
            // happen afterwards, in parallel, without touching the RNG.
            let mut rng = stream_rng(self.config.seed, generation as u64 + 1);
            let elites: Vec<Individual> =
                population.iter().take(self.config.elitism).cloned().collect();
            let mut offspring = Vec::with_capacity(self.config.population - elites.len());
            while elites.len() + offspring.len() < self.config.population {
                let a = self.tournament(&population, &mut rng);
                let child = if rng.gen_bool(self.config.crossover_rate) {
                    let b = self.tournament(&population, &mut rng);
                    Self::crossover(&population[a].genes, &population[b].genes, &mut rng)
                } else {
                    population[a].genes.clone()
                };
                offspring.push(self.mutate(child, &mut rng));
            }

            let mut next = elites;
            next.extend(self.score_batch(offspring, state, &fitness));
            population = next;
            population.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));

            // History entry g is the best *after* generation g has bred
            // (monotone thanks to elitism).
            let best = population[0].fitness;
            state.history.push(best);
            if best < best_so_far {
                best_so_far = best;
                stalled_for = 0;
            } else {
                stalled_for += 1;
            }
            observer.generation_finished(&GenerationReport::new(
                generation,
                &population,
                state.evaluations,
                state.cache_hits,
                state.nan_evaluations,
                &state.history,
                &state.memo,
                self.config.seed,
            ));
        }

        GaOutcome {
            best: population[0].genes.clone(),
            best_fitness: population[0].fitness,
            history: std::mem::take(&mut state.history),
            evaluations: state.evaluations,
            cache_hits: state.cache_hits,
            nan_evaluations: state.nan_evaluations,
            stop,
        }
    }

    /// Scores a batch of genomes through the memo cache, evaluating the
    /// unknown ones on the worker pool. Duplicate genomes within the batch
    /// evaluate once; every other resolution counts as a cache hit. The
    /// result order matches the input order, so parallel and serial
    /// execution are bit-identical.
    fn score_batch(
        &self,
        genomes: Vec<Vec<u64>>,
        state: &mut RunState,
        fitness: impl Fn(&[u64]) -> f64 + Sync,
    ) -> Vec<Individual> {
        // Resolve against the memo in batch order; collect unknown unique
        // genomes (first occurrence wins) for evaluation.
        enum Slot {
            Cached(f64),
            Pending(usize),
        }
        let mut pending: Vec<Vec<u64>> = Vec::new();
        let mut pending_index: HashMap<&[u64], usize> = HashMap::new();
        let mut slots: Vec<Slot> = Vec::with_capacity(genomes.len());
        for genes in &genomes {
            if let Some(&f) = state.memo.get(genes) {
                state.cache_hits += 1;
                slots.push(Slot::Cached(f));
            } else if let Some(&i) = pending_index.get(genes.as_slice()) {
                state.cache_hits += 1;
                slots.push(Slot::Pending(i));
            } else {
                let i = pending.len();
                pending_index.insert(genes.as_slice(), i);
                pending.push(genes.clone());
                slots.push(Slot::Pending(i));
            }
        }

        let raw = self.evaluate(&pending, &fitness);
        state.evaluations += pending.len() as u64;

        // Sanitize serially (deterministic warning + counting): NaN would
        // silently survive total_cmp sorting and corrupt the monotone
        // history invariant, so it is rejected at the evaluation boundary.
        let mut scores = Vec::with_capacity(raw.len());
        for (genes, f) in pending.iter().zip(raw) {
            let f = if f.is_nan() {
                if state.nan_evaluations == 0 {
                    eprintln!(
                        "cohort-optim: fitness returned NaN for {genes:?}; treating as +inf \
                         (further NaN warnings suppressed)"
                    );
                }
                state.nan_evaluations += 1;
                f64::INFINITY
            } else {
                f
            };
            debug_assert!(!f.is_nan(), "sanitized fitness must never be NaN");
            state.memo.insert(genes.clone(), f);
            scores.push(f);
        }

        genomes
            .into_iter()
            .zip(slots)
            .map(|(genes, slot)| {
                let fitness = match slot {
                    Slot::Cached(f) => f,
                    Slot::Pending(i) => scores[i],
                };
                Individual { genes, fitness }
            })
            .collect()
    }

    /// Evaluates `genomes` on the shared worker pool with at most
    /// [`GaConfig::resolved_workers`] threads, returning raw fitness values
    /// in input order (a plain loop when one worker suffices).
    fn evaluate(
        &self,
        genomes: &[Vec<u64>],
        fitness: &(impl Fn(&[u64]) -> f64 + Sync),
    ) -> Vec<f64> {
        run_indexed(genomes, self.config.resolved_workers(), |_, genes| fitness(genes))
    }

    fn tournament(&self, population: &[Individual], rng: &mut SeedRng) -> usize {
        let mut best = rng.gen_range(0..population.len());
        for _ in 1..self.config.tournament {
            let challenger = rng.gen_range(0..population.len());
            if population[challenger].fitness < population[best].fitness {
                best = challenger;
            }
        }
        best
    }

    fn crossover(a: &[u64], b: &[u64], rng: &mut SeedRng) -> Vec<u64> {
        a.iter().zip(b).map(|(&ga, &gb)| if rng.gen_bool(0.5) { ga } else { gb }).collect()
    }

    fn mutate(&self, mut genes: Vec<u64>, rng: &mut SeedRng) -> Vec<u64> {
        for (i, gene) in genes.iter_mut().enumerate() {
            if !rng.gen_bool(self.config.mutation_rate) {
                continue;
            }
            let (lo, hi) = self.space.bound(i);
            if rng.gen_bool(0.5) {
                // Reset: explore (log-uniformly for log-scale spaces).
                *gene = self.space.sample_gene(i, rng);
            } else if self.space.log_scale {
                // Multiplicative jitter: ×f with ln f uniform over
                // [ln ½, ln 2], so doubling and halving are equally likely
                // — a uniform factor in [0.5, 2] has expectation 1.25 and
                // drifts θ genes upward.
                let factor = rng.gen_range(LN_HALF..=LN_TWO).exp();
                let jittered = ((*gene as f64) * factor).round() as u64;
                *gene = self.space.clamp(i, jittered.max(1));
            } else {
                // Jitter: exploit (±25% of the range, at least ±1).
                let span = ((hi - lo) / 4).max(1);
                let delta = rng.gen_range(0..=span);
                *gene = if rng.gen_bool(0.5) {
                    self.space.clamp(i, gene.saturating_add(delta))
                } else {
                    self.space.clamp(i, gene.saturating_sub(delta))
                };
            }
        }
        genes
    }
}

/// `ln ½` / `ln 2`: the symmetric log-jitter window of the mutation
/// operator.
const LN_HALF: f64 = -std::f64::consts::LN_2;
const LN_TWO: f64 = std::f64::consts::LN_2;

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(genes: &[u64]) -> f64 {
        genes.iter().map(|&g| (g as f64 - 50.0).powi(2)).sum()
    }

    #[test]
    fn converges_on_a_smooth_objective() {
        let space = SearchSpace::new(vec![(0, 1000); 3]);
        let ga = GeneticAlgorithm::new(space, GaConfig::default());
        let outcome = ga.run(sphere);
        assert!(outcome.best_fitness < 500.0, "best {:?}", outcome.best);
        assert_eq!(outcome.stop, StopReason::Completed);
        // Convergence curve is monotone non-increasing (elitism).
        for w in outcome.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let space = SearchSpace::new(vec![(0, 100); 4]);
        let ga = GeneticAlgorithm::new(space.clone(), GaConfig::default());
        let a = ga.run(sphere);
        let b = GeneticAlgorithm::new(space, GaConfig::default()).run(sphere);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let space = SearchSpace::new(vec![(0, 100_000); 5]);
        let serial =
            GeneticAlgorithm::new(space.clone(), GaConfig { workers: 1, ..Default::default() })
                .run(sphere);
        for workers in [2, 3, 8] {
            let parallel =
                GeneticAlgorithm::new(space.clone(), GaConfig { workers, ..Default::default() })
                    .run(sphere);
            assert_eq!(serial, parallel, "workers = {workers}");
        }
    }

    #[test]
    fn different_seeds_explore_differently() {
        let space = SearchSpace::new(vec![(0, 100_000); 6]);
        let a = GeneticAlgorithm::new(space.clone(), GaConfig::default()).run(sphere);
        let b =
            GeneticAlgorithm::new(space, GaConfig { seed: 1, ..Default::default() }).run(sphere);
        assert_ne!(a.best, b.best);
    }

    #[test]
    fn seeded_population_preserves_a_feasible_start() {
        // Fitness that is 0 only at the seed: elitism must keep it.
        let space = SearchSpace::new(vec![(0, 1_000_000); 4]);
        let seed = vec![123_456u64, 7, 999_999, 0];
        let target = seed.clone();
        let ga = GeneticAlgorithm::new(space, GaConfig { generations: 5, ..Default::default() });
        let outcome = ga
            .run_seeded(&[seed], move |genes| {
                genes.iter().zip(&target).map(|(&g, &t)| (g as f64 - t as f64).abs()).sum()
            })
            .unwrap();
        assert_eq!(outcome.best_fitness, 0.0);
    }

    #[test]
    fn respects_bounds() {
        let space = SearchSpace::new(vec![(10, 20), (5, 5)]);
        let ga = GeneticAlgorithm::new(space.clone(), GaConfig::default());
        let outcome = ga.run(|g| g[0] as f64);
        assert!(space.contains(&outcome.best));
        assert_eq!(outcome.best[1], 5, "degenerate gene pinned");
        assert_eq!(outcome.best[0], 10, "minimum found");
    }

    #[test]
    fn evaluation_count_covers_every_lookup() {
        let config = GaConfig { population: 10, generations: 3, ..Default::default() };
        let space = SearchSpace::new(vec![(0, 9)]);
        let outcome = GeneticAlgorithm::new(space, config).run(|g| g[0] as f64);
        // 10 initial + 3 generations × 8 children (2 elites kept); the memo
        // answers repeats, so actual evaluations can only be fewer — and on
        // a 10-value space they must be: only 10 distinct genomes exist.
        assert_eq!(outcome.evaluations + outcome.cache_hits, 10 + 3 * 8);
        assert!(outcome.evaluations <= 10);
        assert!(outcome.cache_hits >= 24);
        assert!(outcome.cache_hit_rate() > 0.5);
    }

    #[test]
    fn memoization_skips_repeated_chromosomes() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let calls = AtomicU64::new(0);
        let space = SearchSpace::new(vec![(0, 3); 2]);
        let config = GaConfig { population: 12, generations: 8, ..Default::default() };
        let outcome = GeneticAlgorithm::new(space, config).run(|g| {
            calls.fetch_add(1, Ordering::Relaxed);
            g.iter().sum::<u64>() as f64
        });
        // 16 distinct chromosomes exist; the closure cannot have run more
        // often than that, and the reported count matches reality.
        assert_eq!(calls.load(Ordering::Relaxed), outcome.evaluations);
        assert!(outcome.evaluations <= 16, "evaluations {}", outcome.evaluations);
        assert!(outcome.cache_hits > 0);
    }

    #[test]
    fn nan_fitness_is_rejected_at_the_boundary() {
        // A fitness that NaNs on part of the space must not corrupt the
        // outcome: NaN candidates score +inf and finite ones win.
        let space = SearchSpace::new(vec![(0, 99)]);
        let outcome = GeneticAlgorithm::new(space, GaConfig::default()).run(|g| {
            if g[0] % 2 == 0 {
                f64::NAN
            } else {
                g[0] as f64
            }
        });
        assert!(outcome.nan_evaluations > 0, "the space is half NaN");
        assert!(outcome.best_fitness.is_finite());
        assert_eq!(outcome.best[0] % 2, 1, "a NaN candidate must never win");
        for w in outcome.history.windows(2) {
            assert!(w[1] <= w[0], "history stays monotone despite NaNs");
        }
    }

    #[test]
    fn all_nan_fitness_still_terminates_cleanly() {
        let space = SearchSpace::new(vec![(0, 9)]);
        let config = GaConfig { population: 6, generations: 3, ..Default::default() };
        let outcome = GeneticAlgorithm::new(space, config).run(|_| f64::NAN);
        assert_eq!(outcome.best_fitness, f64::INFINITY);
        assert_eq!(outcome.nan_evaluations, outcome.evaluations);
    }

    #[test]
    fn target_fitness_stops_early() {
        let space = SearchSpace::new(vec![(0, 1000); 3]);
        let config = GaConfig { target_fitness: Some(5_000.0), ..Default::default() };
        let outcome = GeneticAlgorithm::new(space, config).run(sphere);
        assert_eq!(outcome.stop, StopReason::TargetReached);
        assert!(outcome.best_fitness <= 5_000.0);
        assert!(outcome.history.len() < GaConfig::default().generations);
    }

    #[test]
    fn stall_cutoff_stops_early_on_a_flat_objective() {
        let space = SearchSpace::new(vec![(0, 1000); 2]);
        let config = GaConfig { stall_generations: Some(4), ..Default::default() };
        let outcome = GeneticAlgorithm::new(space, config).run(|_| 1.0);
        assert_eq!(outcome.stop, StopReason::Stalled);
        // One improvement-free generation per stall tick, checked before
        // breeding the next: 4 stalled generations then the cut.
        assert!(outcome.history.len() <= 5, "history {:?}", outcome.history);
    }

    #[test]
    fn evaluation_budget_is_honoured_at_generation_granularity() {
        let space = SearchSpace::new(vec![(0, 100_000); 4]);
        let config = GaConfig {
            population: 10,
            generations: 50,
            max_evaluations: Some(25),
            ..Default::default()
        };
        let outcome = GeneticAlgorithm::new(space, config).run(sphere);
        assert_eq!(outcome.stop, StopReason::BudgetExhausted);
        // Budget is checked before each generation; one generation of ≤ 8
        // children may overshoot it.
        assert!(outcome.evaluations >= 25);
        assert!(outcome.evaluations < 25 + 8);
        assert!(outcome.history.len() < 50);
    }

    #[test]
    fn rejects_out_of_space_seeds() {
        let space = SearchSpace::new(vec![(0, 5)]);
        let ga = GeneticAlgorithm::new(space, GaConfig::default());
        let err = ga.run_seeded(&[vec![6]], |_| 0.0).unwrap_err();
        assert!(err.to_string().contains("out of bounds"), "{err}");
    }

    #[test]
    fn rejects_seed_overflow_instead_of_dropping() {
        // Population 2 cannot hold 3 seeds; dropping one silently would
        // lose a previous mode's solution — it must be an error.
        let space = SearchSpace::new(vec![(0, 5)]);
        let config = GaConfig { population: 2, elitism: 1, ..Default::default() };
        let ga = GeneticAlgorithm::new(space, config);
        let seeds = vec![vec![1], vec![2], vec![3]];
        let err = ga.run_seeded(&seeds, |g| g[0] as f64).unwrap_err();
        assert!(err.to_string().contains("exceed the population"), "{err}");
        // Exactly at capacity is fine, and elitism keeps the run at least
        // as good as the best seed.
        let ok = ga.run_seeded(&seeds[..2], |g| g[0] as f64).unwrap();
        assert!(ok.best_fitness <= 1.0);
    }

    #[test]
    fn log_jitter_does_not_drift_on_a_flat_objective() {
        // Regression for the multiplicative-jitter bug: a factor sampled
        // uniformly from [0.5, 2] has expectation 1.25, so on a flat
        // objective (no selection pressure) the population's θ genes
        // drifted upward generation over generation. With the log-uniform
        // factor the drift in log-space is zero-mean; over a long flat run
        // the population's geometric mean must stay near the space's
        // log-centre instead of climbing toward the upper bound.
        use crate::observer::GaObserver;
        use std::sync::Mutex;

        struct LastPopulation(Mutex<Vec<f64>>);
        impl GaObserver for LastPopulation {
            fn generation_finished(&self, report: &crate::GenerationReport<'_>) {
                *self.0.lock().unwrap() = report
                    .population
                    .iter()
                    .map(|i| i.genes.iter().map(|&g| (g as f64).ln()).sum::<f64>())
                    .collect();
            }
        }

        // Space 1..=10_000: log-centre is exp(ln(10_000)/2) = 100.
        let space = SearchSpace::logarithmic(vec![(1, 10_000); 4]);
        let config = GaConfig {
            population: 40,
            generations: 120,
            // Jitter-only mutation pressure: crossover and reset still run,
            // but a flat objective gives selection nothing to act on.
            ..Default::default()
        };
        let observer = LastPopulation(Mutex::new(Vec::new()));
        let _ = GeneticAlgorithm::new(space, config).run_observed(&[], &observer, |_| 1.0).unwrap();
        let last = observer.0.into_inner().unwrap();
        let mean_ln_gene =
            last.iter().sum::<f64>() / (last.len() as f64 * 4.0/* genes per individual */);
        let centre = (10_000f64).ln() / 2.0;
        // The buggy uniform factor drifts ≈ ln(1.125) ≈ 0.118 per mutation
        // event and compounds over 120 generations, blowing far past this
        // window; the log-uniform factor keeps the population centred.
        assert!(
            (mean_ln_gene - centre).abs() < 0.35 * centre,
            "population drifted: mean ln(gene) {mean_ln_gene:.2} vs centre {centre:.2}"
        );
    }

    #[test]
    #[should_panic(expected = "inverted bound")]
    fn rejects_inverted_bounds() {
        let _ = SearchSpace::new(vec![(5, 1)]);
    }
}
