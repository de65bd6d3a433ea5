//! The offline mode-configuration flow (Fig. 2a + §VI).
//!
//! For every operational mode `m_l` the optimization engine is run over the
//! tasks with `l_j ≥ l` (the cores that keep time-based coherence in that
//! mode) with their mode-`l` requirements; cores below the level are pinned
//! to MSI. The resulting per-mode timer vectors are burned into each
//! core's **Mode-Switch LUT** — the 16-bit-per-mode table of Fig. 2b that
//! the hardware indexes on a mode switch.

use cohort_analysis::CoreBound;
use cohort_optim::{GaConfig, GaObserver, GaRun, TimerProblem};
use cohort_trace::Workload;
use cohort_types::{CoreId, Cycles, Error, Mode, Result, TimerValue};

use crate::SystemSpec;

/// The per-core Mode-Switch LUT contents: `rows[l−1][i]` is θ_i^{m_l}.
///
/// # Examples
///
/// ```
/// use cohort::ModeSwitchLut;
/// use cohort_types::{Mode, TimerValue};
///
/// let lut = ModeSwitchLut::new(vec![
///     vec![TimerValue::timed(300)?, TimerValue::timed(20)?],
///     vec![TimerValue::timed(500)?, TimerValue::MSI],
/// ])?;
/// assert_eq!(lut.modes(), 2);
/// assert!(lut.timers_for(Mode::new(2)?)?[1].is_msi());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeSwitchLut {
    pub(crate) rows: Vec<Vec<TimerValue>>,
}

impl ModeSwitchLut {
    /// Creates a LUT from per-mode timer vectors (mode 1 first).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the table is empty or ragged.
    pub fn new(rows: Vec<Vec<TimerValue>>) -> Result<Self> {
        let Some(first) = rows.first() else {
            return Err(Error::InvalidConfig("a LUT needs at least one mode".into()));
        };
        let cores = first.len();
        if cores == 0 || rows.iter().any(|r| r.len() != cores) {
            return Err(Error::InvalidConfig("LUT rows must cover the same cores".into()));
        }
        Ok(ModeSwitchLut { rows })
    }

    /// Number of modes stored.
    #[must_use]
    pub fn modes(&self) -> u32 {
        self.rows.len() as u32
    }

    /// Number of cores covered (`0` for a table with no modes, which only
    /// a struct literal that bypasses [`Self::new`] can build).
    #[must_use]
    pub fn cores(&self) -> usize {
        self.rows.first().map_or(0, Vec::len)
    }

    /// The timer vector programmed for `mode`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LevelOutOfRange`] for a mode beyond the table.
    pub fn timers_for(&self, mode: Mode) -> Result<&[TimerValue]> {
        self.rows
            .get(mode.index() as usize - 1)
            .map(Vec::as_slice)
            .ok_or(Error::LevelOutOfRange { value: mode.index(), max: self.modes() })
    }

    /// Hardware cost of one core's LUT in bits (16-bit field per mode —
    /// the paper's "80 bits for five criticality levels").
    #[must_use]
    pub fn bits_per_core(&self) -> u32 {
        16 * self.modes()
    }
}

/// The outcome of configuring one mode.
#[derive(Debug, Clone)]
pub struct ModeEntry {
    /// The mode this entry configures.
    pub mode: Mode,
    /// The optimized timer vector (lower-criticality cores at θ = −1).
    pub timers: Vec<TimerValue>,
    /// Per-core analytical bounds under these timers.
    pub bounds: Vec<CoreBound>,
    /// Whether every constrained timed core meets its requirement.
    pub feasible: bool,
}

/// The full offline configuration: one entry per mode plus the LUT.
#[derive(Debug, Clone)]
pub struct ModeConfiguration {
    /// Per-mode outcomes, mode 1 first.
    pub entries: Vec<ModeEntry>,
    /// The LUT to burn into the cache controllers.
    pub lut: ModeSwitchLut,
}

impl ModeConfiguration {
    /// The entry for `mode`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LevelOutOfRange`] for a mode beyond the table.
    pub fn entry(&self, mode: Mode) -> Result<&ModeEntry> {
        self.entries
            .get(mode.index() as usize - 1)
            .ok_or(Error::LevelOutOfRange { value: mode.index(), max: self.entries.len() as u32 })
    }

    /// The analytical WCML bound of `core` at `mode`, if bounded.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LevelOutOfRange`] / [`Error::UnknownCore`] on bad
    /// indices.
    pub fn wcml_bound(&self, core: CoreId, mode: Mode) -> Result<Option<Cycles>> {
        let entry = self.entry(mode)?;
        let bound = entry
            .bounds
            .get(core.index())
            .ok_or(Error::UnknownCore { index: core.index(), cores: entry.bounds.len() })?;
        Ok(bound.wcml)
    }
}

/// The offline flow of Fig. 2a, configured builder-style: for each mode,
/// optimize the timers of the cores that stay timed, pin the rest to MSI,
/// and collect the LUT.
///
/// Modes whose optimization cannot meet every requirement are recorded with
/// `feasible = false` (the run-time controller will skip over them), using
/// the best assignment the GA found.
///
/// # Examples
///
/// ```
/// use cohort::{ModeSetup, SystemSpec};
/// use cohort_optim::GaConfig;
/// use cohort_trace::micro;
/// use cohort_types::{Criticality, Mode};
///
/// let spec = SystemSpec::builder()
///     .core(Criticality::new(2)?)
///     .core(Criticality::new(1)?)
///     .build()?;
/// let workload = micro::line_bursts(2, 4, 40);
/// let ga = GaConfig { population: 12, generations: 6, ..Default::default() };
/// let config = ModeSetup::new(&spec, &workload).ga(&ga).run()?;
/// assert_eq!(config.lut.modes(), 2);
/// // At mode 2 the low-criticality core is degraded to MSI.
/// assert!(config.lut.timers_for(Mode::new(2)?)?[1].is_msi());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ModeSetup<'a> {
    spec: &'a SystemSpec,
    workload: &'a Workload,
    ga: GaConfig,
    observer: Option<&'a dyn GaObserver>,
}

impl<'a> ModeSetup<'a> {
    /// Starts a mode-configuration run with a default [`GaConfig`] and no
    /// observer.
    #[must_use]
    pub fn new(spec: &'a SystemSpec, workload: &'a Workload) -> Self {
        ModeSetup { spec, workload, ga: GaConfig::default(), observer: None }
    }

    /// Replaces the GA engine configuration used for every mode (the seed
    /// is staggered per mode internally).
    #[must_use]
    pub fn ga(mut self, ga: &GaConfig) -> Self {
        self.ga = ga.clone();
        self
    }

    /// Attaches a [`GaObserver`] progress hook.
    ///
    /// The observer sees every generation of every mode's GA run (modes
    /// are configured in ascending order, so generation reports arrive
    /// grouped by mode); a [`cohort_optim::CheckpointFile`] sink here
    /// makes the whole offline flow resumable at per-generation
    /// granularity.
    #[must_use]
    pub fn observer(mut self, observer: &'a dyn GaObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Runs the flow: one GA run per mode, ascending, each warm-started
    /// from the previous mode's solution.
    ///
    /// # Errors
    ///
    /// Returns an error if the spec and workload disagree on the core
    /// count.
    pub fn run(self) -> Result<ModeConfiguration> {
        if self.workload.cores() != self.spec.cores() {
            return Err(Error::InvalidConfig(format!(
                "workload has {} cores, spec has {}",
                self.workload.cores(),
                self.spec.cores()
            )));
        }
        let observer = self.observer.unwrap_or(&SilentObserver);
        // Modes are configured sequentially in ascending order so each mode
        // can seed its GA with the previous mode's solution: cores that
        // stay timed in mode l+1 were timed in mode l, so the projection of
        // mode l's θ vector is a strong warm start (escalated modes refine
        // rather than rediscover the normal mode's timers). Parallelism
        // comes from inside the GA, which scores each offspring batch
        // across worker threads.
        let mut entries: Vec<ModeEntry> = Vec::new();
        for mode in self.spec.modes() {
            let entry = configure_one_mode(
                self.spec,
                self.workload,
                &self.ga,
                mode,
                entries.last(),
                observer,
            )?;
            entries.push(entry);
        }
        let rows = entries.iter().map(|e| e.timers.clone()).collect();
        Ok(ModeConfiguration { entries, lut: ModeSwitchLut::new(rows)? })
    }
}

fn configure_one_mode(
    spec: &SystemSpec,
    workload: &Workload,
    ga: &GaConfig,
    mode: Mode,
    previous: Option<&ModeEntry>,
    observer: &dyn GaObserver,
) -> Result<ModeEntry> {
    let mask = spec.timed_mask(mode);
    let mut builder =
        TimerProblem::builder(workload).latency(*spec.latency()).l1(*spec.l1()).llc(*spec.llc());
    for (i, &timed) in mask.iter().enumerate() {
        if timed {
            let gamma = spec.core_specs()[i].requirements().at(mode);
            builder = builder.timed(i, gamma);
        }
    }
    let problem = builder.build()?;
    // Project the previous mode's solution onto the cores that stay timed
    // in this mode; [`GaRun`] clamps each gene into this mode's saturation
    // bounds.
    let warm_start: Vec<Vec<u64>> = previous
        .map(|prev| {
            problem
                .timed_cores()
                .iter()
                .map(|&core| prev.timers[core].theta().unwrap_or(1))
                .collect::<Vec<u64>>()
        })
        .into_iter()
        .collect();
    // Stagger the seed per mode so modes explore independently but
    // deterministically.
    let mode_ga = GaConfig { seed: ga.seed ^ u64::from(mode.index()), ..ga.clone() };
    let outcome = GaRun::new(&problem).config(&mode_ga).seeds(warm_start).observer(observer).run();
    let assignment = problem.evaluate(&outcome.best);
    Ok(ModeEntry {
        mode,
        timers: assignment.timers,
        bounds: assignment.bounds,
        feasible: assignment.feasible,
    })
}

/// The do-nothing observer behind a [`ModeSetup`] with no explicit
/// observer.
struct SilentObserver;

impl GaObserver for SilentObserver {}

#[cfg(test)]
mod tests {
    use super::*;
    use cohort_trace::micro;
    use cohort_types::Criticality;

    fn spec_4level() -> SystemSpec {
        SystemSpec::builder()
            .core(Criticality::new(4).unwrap())
            .core(Criticality::new(3).unwrap())
            .core(Criticality::new(2).unwrap())
            .core(Criticality::new(1).unwrap())
            .build()
            .unwrap()
    }

    fn quick_ga() -> GaConfig {
        GaConfig { population: 10, generations: 4, ..Default::default() }
    }

    #[test]
    fn lut_degrades_low_criticality_cores_per_mode() {
        let spec = spec_4level();
        let w = micro::line_bursts(4, 4, 30);
        let config = ModeSetup::new(&spec, &w).ga(&quick_ga()).run().unwrap();
        assert_eq!(config.lut.modes(), 4);
        for (m, entry) in config.entries.iter().enumerate() {
            let mode_index = m + 1;
            for (i, timer) in entry.timers.iter().enumerate() {
                let criticality = 4 - i;
                assert_eq!(
                    timer.is_timed(),
                    criticality >= mode_index,
                    "mode {mode_index} core {i}"
                );
            }
        }
        // Mode 4: only c0 timed — the Table II shape.
        let m4 = config.lut.timers_for(Mode::new(4).unwrap()).unwrap();
        assert!(m4[0].is_timed());
        assert!(m4[1].is_msi() && m4[2].is_msi() && m4[3].is_msi());
    }

    #[test]
    fn higher_modes_tighten_the_critical_cores_bound() {
        // Degrading interferers to MSI removes their θ terms from c0's
        // Eq. 1, so c0's bound is non-increasing in the mode index.
        let spec = spec_4level();
        let w = micro::line_bursts(4, 4, 30);
        let config = ModeSetup::new(&spec, &w).ga(&quick_ga()).run().unwrap();
        let bounds: Vec<u64> = spec
            .modes()
            .map(|m| config.wcml_bound(CoreId::new(0), m).unwrap().unwrap().get())
            .collect();
        for w in bounds.windows(2) {
            assert!(w[1] <= w[0], "bounds {bounds:?} must be non-increasing");
        }
    }

    #[test]
    fn lut_hardware_cost_matches_paper() {
        let rows = vec![vec![TimerValue::MSI; 4]; 5];
        let lut = ModeSwitchLut::new(rows).unwrap();
        assert_eq!(lut.bits_per_core(), 80, "five levels cost 80 bits per core");
    }

    #[test]
    fn lut_validation() {
        assert!(ModeSwitchLut::new(vec![]).is_err());
        assert!(ModeSwitchLut::new(vec![vec![]]).is_err());
        assert!(ModeSwitchLut::new(vec![
            vec![TimerValue::MSI],
            vec![TimerValue::MSI, TimerValue::MSI],
        ])
        .is_err());
        let lut = ModeSwitchLut::new(vec![vec![TimerValue::MSI]]).unwrap();
        assert!(lut.timers_for(Mode::new(2).unwrap()).is_err());
    }

    #[test]
    fn workload_mismatch_rejected() {
        let spec = spec_4level();
        let w = micro::line_bursts(2, 4, 10);
        assert!(ModeSetup::new(&spec, &w).ga(&quick_ga()).run().is_err());
    }

    #[test]
    fn configuration_is_deterministic() {
        let spec = spec_4level();
        let w = micro::line_bursts(4, 3, 20);
        let a = ModeSetup::new(&spec, &w).ga(&quick_ga()).run().unwrap();
        let b = ModeSetup::new(&spec, &w).ga(&quick_ga()).run().unwrap();
        assert_eq!(a.lut, b.lut);
    }

    #[test]
    fn configuration_is_identical_serial_and_parallel() {
        // The LUT burned into hardware must not depend on how many worker
        // threads the offline host happened to have.
        let spec = spec_4level();
        let w = micro::line_bursts(4, 3, 20);
        let serial = GaConfig { workers: 1, ..quick_ga() };
        let parallel = GaConfig { workers: 6, ..quick_ga() };
        let a = ModeSetup::new(&spec, &w).ga(&serial).run().unwrap();
        let b = ModeSetup::new(&spec, &w).ga(&parallel).run().unwrap();
        assert_eq!(a.lut, b.lut);
    }

    #[test]
    fn observer_sees_every_mode_in_ascending_order() {
        use cohort_optim::{GaObserver, GenerationReport};
        use std::sync::Mutex;

        struct CountReports(Mutex<Vec<usize>>);
        impl GaObserver for CountReports {
            fn generation_finished(&self, report: &GenerationReport<'_>) {
                self.0.lock().unwrap().push(report.generation);
            }
        }

        let spec = spec_4level();
        let w = micro::line_bursts(4, 3, 20);
        let ga = quick_ga();
        let observer = CountReports(Mutex::new(Vec::new()));
        let observed = ModeSetup::new(&spec, &w).ga(&ga).observer(&observer).run().unwrap();
        assert_eq!(observed.lut, ModeSetup::new(&spec, &w).ga(&ga).run().unwrap().lut);
        let generations = observer.0.into_inner().unwrap();
        // One report per generation per mode, grouped by mode: the sequence
        // restarts from 0 exactly once per mode.
        assert_eq!(generations.len(), ga.generations * spec.modes().count());
        assert_eq!(generations.iter().filter(|&&g| g == 0).count(), spec.modes().count());
    }
}
