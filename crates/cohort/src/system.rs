//! The mixed-criticality platform model (§II).

use cohort_sim::{CacheGeometry, LlcModel};
use cohort_types::{CoreId, Criticality, Cycles, Error, LatencyConfig, Mode, Requirements, Result};

/// One core of the MCS: its criticality level `l_i` and the per-mode WCML
/// requirements `Γ^m` of the task mapped to it.
///
/// The paper does not constrain scheduling or task-to-core mapping; a core
/// simply inherits the criticality of the task it currently runs, so the
/// spec models the *mapped* state the coherence layer sees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreSpec {
    criticality: Criticality,
    requirements: Requirements,
}

impl CoreSpec {
    /// Creates a core at the given criticality with no requirements.
    #[must_use]
    pub fn new(criticality: Criticality) -> Self {
        CoreSpec { criticality, requirements: Requirements::new() }
    }

    /// Builder-style: adds a WCML requirement for `mode`.
    #[must_use]
    pub fn with_requirement(mut self, mode: Mode, budget: Cycles) -> Self {
        self.requirements.set(mode, budget);
        self
    }

    /// The core's criticality level.
    #[must_use]
    pub fn criticality(&self) -> Criticality {
        self.criticality
    }

    /// The per-mode requirement table.
    #[must_use]
    pub fn requirements(&self) -> &Requirements {
        &self.requirements
    }
}

/// The whole platform: cores, criticality levels, cache/bus parameters.
///
/// # Examples
///
/// ```
/// use cohort::SystemSpec;
/// use cohort_types::{Criticality, Cycles, Mode};
///
/// // The paper's mode-switch experiment platform: criticalities 4,3,2,1.
/// let spec = SystemSpec::builder()
///     .core(Criticality::new(4)?)
///     .core(Criticality::new(3)?)
///     .core(Criticality::new(2)?)
///     .core(Criticality::new(1)?)
///     .build()?;
/// assert_eq!(spec.cores(), 4);
/// assert_eq!(spec.levels(), 4);
/// assert!(spec.timed_mask(Mode::new(3)?) == vec![true, true, false, false]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    cores: Vec<CoreSpec>,
    latency: LatencyConfig,
    l1: CacheGeometry,
    llc: LlcModel,
}

impl SystemSpec {
    /// Starts building a spec with the paper's default platform parameters
    /// (latencies 1/4/50, 16 KiB direct-mapped L1s, perfect LLC).
    #[must_use]
    pub fn builder() -> SystemSpecBuilder {
        SystemSpecBuilder {
            cores: Vec::new(),
            latency: LatencyConfig::paper(),
            l1: CacheGeometry::paper_l1(),
            llc: LlcModel::Perfect,
        }
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Per-core specifications in core order.
    #[must_use]
    pub fn core_specs(&self) -> &[CoreSpec] {
        &self.cores
    }

    /// One core's specification.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownCore`] for an out-of-range id.
    pub fn core(&self, id: CoreId) -> Result<&CoreSpec> {
        self.cores
            .get(id.index())
            .ok_or(Error::UnknownCore { index: id.index(), cores: self.cores.len() })
    }

    /// The number of criticality levels `L` (and thus of operational
    /// modes): the highest criticality among the cores.
    #[must_use]
    pub fn levels(&self) -> u32 {
        self.cores.iter().map(|c| c.criticality().level()).max().unwrap_or(1)
    }

    /// All modes `m_1 ..= m_L`.
    pub fn modes(&self) -> impl Iterator<Item = Mode> {
        (1..=self.levels()).map(|l| Mode::new(l).expect("levels are 1-based"))
    }

    /// Which cores keep time-based coherence at `mode` (§VI: `l_i ≥ l`).
    #[must_use]
    pub fn timed_mask(&self, mode: Mode) -> Vec<bool> {
        self.cores.iter().map(|c| c.criticality().keeps_timed_coherence_at(mode)).collect()
    }

    /// The platform latencies.
    #[must_use]
    pub fn latency(&self) -> &LatencyConfig {
        &self.latency
    }

    /// The private-cache geometry.
    #[must_use]
    pub fn l1(&self) -> &CacheGeometry {
        &self.l1
    }

    /// The LLC model.
    #[must_use]
    pub fn llc(&self) -> &LlcModel {
        &self.llc
    }
}

/// Builder for [`SystemSpec`].
#[derive(Debug, Clone)]
pub struct SystemSpecBuilder {
    cores: Vec<CoreSpec>,
    latency: LatencyConfig,
    l1: CacheGeometry,
    llc: LlcModel,
}

impl SystemSpecBuilder {
    /// Adds a core at the given criticality (no requirements).
    #[must_use]
    pub fn core(mut self, criticality: Criticality) -> Self {
        self.cores.push(CoreSpec::new(criticality));
        self
    }

    /// Adds a fully specified core: the one way a core's per-mode WCML
    /// requirements reach the offline mode flow.
    #[must_use]
    // lint:allow(pub-unused) the only input of per-mode Γ requirements, which the offline mode flow (constraint C1) reads
    pub fn core_spec(mut self, core: CoreSpec) -> Self {
        self.cores.push(core);
        self
    }

    /// Overrides the latency configuration.
    #[must_use]
    pub fn latency(mut self, latency: LatencyConfig) -> Self {
        self.latency = latency;
        self
    }

    /// Overrides the private-cache geometry.
    #[must_use]
    pub fn l1(mut self, l1: CacheGeometry) -> Self {
        self.l1 = l1;
        self
    }

    /// Overrides the LLC model (e.g. the footnote-1 finite LLC).
    #[must_use]
    pub fn llc(mut self, llc: LlcModel) -> Self {
        self.llc = llc;
        self
    }

    /// Finalises the spec.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if no core was added.
    pub fn build(self) -> Result<SystemSpec> {
        if self.cores.is_empty() {
            return Err(Error::InvalidConfig("a system needs at least one core".into()));
        }
        Ok(SystemSpec { cores: self.cores, latency: self.latency, l1: self.l1, llc: self.llc })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crit(l: u32) -> Criticality {
        Criticality::new(l).unwrap()
    }

    fn paper_spec() -> SystemSpec {
        SystemSpec::builder()
            .core(crit(4))
            .core(crit(3))
            .core(crit(2))
            .core(crit(1))
            .build()
            .unwrap()
    }

    #[test]
    fn levels_follow_highest_criticality() {
        assert_eq!(paper_spec().levels(), 4);
        let two = SystemSpec::builder().core(crit(2)).core(crit(2)).build().unwrap();
        assert_eq!(two.levels(), 2);
    }

    #[test]
    fn timed_mask_degrades_with_mode() {
        let spec = paper_spec();
        let masks: Vec<Vec<bool>> = spec.modes().map(|m| spec.timed_mask(m)).collect();
        assert_eq!(masks[0], vec![true, true, true, true]);
        assert_eq!(masks[1], vec![true, true, true, false]);
        assert_eq!(masks[2], vec![true, true, false, false]);
        assert_eq!(masks[3], vec![true, false, false, false]);
    }

    #[test]
    fn requirements_travel_with_cores() {
        let spec = SystemSpec::builder()
            .core_spec(CoreSpec::new(crit(2)).with_requirement(Mode::NORMAL, Cycles::new(1_000)))
            .core(crit(1))
            .build()
            .unwrap();
        let c0 = spec.core(CoreId::new(0)).unwrap();
        assert_eq!(c0.requirements().at(Mode::NORMAL), Some(Cycles::new(1_000)));
        assert!(spec.core(CoreId::new(1)).unwrap().requirements().is_empty());
        assert!(spec.core(CoreId::new(9)).is_err());
    }

    #[test]
    fn empty_spec_rejected() {
        assert!(SystemSpec::builder().build().is_err());
    }
}
