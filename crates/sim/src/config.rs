//! Simulator configuration: cache geometry, LLC model, arbitration policy,
//! data path and per-core coherence timers.

use cohort_types::{Error, LatencyConfig, LineAddr, Result, TimerValue};

/// Geometry of a set-associative cache.
///
/// The paper's private caches are 16 KiB direct-mapped with 64 B lines
/// ([`CacheGeometry::paper_l1`]); the LLC is 8-way set-associative.
///
/// # Examples
///
/// ```
/// use cohort_sim::CacheGeometry;
///
/// let l1 = CacheGeometry::paper_l1();
/// assert_eq!(l1.sets(), 256);
/// assert_eq!(l1.ways, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Cache-line size in bytes.
    pub line_bytes: u64,
    /// Associativity (1 = direct-mapped).
    pub ways: u64,
}

impl CacheGeometry {
    /// The paper's private-cache geometry: 16 KiB, 64 B lines, direct-mapped.
    #[must_use]
    pub const fn paper_l1() -> Self {
        CacheGeometry { size_bytes: 16 * 1024, line_bytes: 64, ways: 1 }
    }

    /// The paper's LLC geometry (used in non-perfect mode): 8-way, 64 B
    /// lines, 256 KiB.
    #[must_use]
    pub const fn paper_llc() -> Self {
        CacheGeometry { size_bytes: 256 * 1024, line_bytes: 64, ways: 8 }
    }

    /// Creates a geometry, validating the invariants the indexing relies on.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the line size is not a power of
    /// two, the capacity is not a multiple of `line_bytes × ways`, or any
    /// field is zero.
    pub fn new(size_bytes: u64, line_bytes: u64, ways: u64) -> Result<Self> {
        let geom = CacheGeometry { size_bytes, line_bytes, ways };
        geom.validate()?;
        Ok(geom)
    }

    /// Number of sets.
    #[must_use]
    pub const fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.ways)
    }

    /// The set-index rule of this geometry, computed once: a mask when the
    /// set count is a power of two, else `%`. A struct-literal geometry can
    /// bypass [`CacheGeometry::new`]'s power-of-two check, and the two rules
    /// agree wherever both apply.
    #[must_use]
    pub const fn set_indexer(&self) -> SetIndexer {
        let sets = self.sets();
        SetIndexer { sets, mask: if sets.is_power_of_two() { Some(sets - 1) } else { None } }
    }

    /// Total number of lines the cache can hold.
    #[must_use]
    pub const fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.size_bytes == 0 || self.line_bytes == 0 || self.ways == 0 {
            return Err(Error::InvalidConfig("cache geometry fields must be positive".into()));
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(Error::InvalidConfig("line size must be a power of two".into()));
        }
        if !self.size_bytes.is_multiple_of(self.line_bytes * self.ways) {
            return Err(Error::InvalidConfig(
                "cache size must be a multiple of line size × ways".into(),
            ));
        }
        if !self.sets().is_power_of_two() {
            return Err(Error::InvalidConfig("number of sets must be a power of two".into()));
        }
        Ok(())
    }
}

/// Maps a line to its set: [`LineAddr::set_index`] with the division
/// replaced by a mask for power-of-two set counts. Build one with
/// [`CacheGeometry::set_indexer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetIndexer {
    sets: u64,
    /// `sets - 1` for a power-of-two set count.
    mask: Option<u64>,
}

impl SetIndexer {
    /// The set of `line`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has no sets, like [`LineAddr::set_index`].
    #[must_use]
    #[inline]
    pub fn index(self, line: LineAddr) -> usize {
        let set = match self.mask {
            Some(mask) => line.raw() & mask,
            None => line.set_index(self.sets),
        };
        set as usize
    }
}

/// The shared last-level cache model.
///
/// The paper's headline results use a **perfect** LLC ("to eliminate the
/// interference from the off-chip main memory and focus on the overheads due
/// to coherence interference"); footnote 1 reports that a non-perfect LLC
/// with a fixed-latency main memory shows the same observations, which the
/// [`LlcModel::Finite`] variant reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LlcModel {
    /// Every LLC access hits; infinite capacity.
    Perfect,
    /// Real tags with LRU replacement and back-invalidation; misses pay the
    /// `memory` latency of the [`LatencyConfig`].
    Finite(CacheGeometry),
}

impl LlcModel {
    /// Returns `true` for the perfect model.
    #[must_use]
    pub const fn is_perfect(&self) -> bool {
        matches!(self, LlcModel::Perfect)
    }
}

/// The stable-state repertoire of the snooping protocol backbone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolFlavor {
    /// The paper's baseline: Modified / Shared / Invalid.
    Msi,
    /// Extension: adds the Exclusive state — an unshared read fill grants
    /// E, and the first store upgrades silently (no bus transaction).
    Mesi,
}

/// How data moves between private caches on an ownership transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataPath {
    /// Direct cache-to-cache transfer (CoHoRT, MSI, PENDULUM).
    CacheToCache,
    /// Transfers are staged through the shared memory, doubling the data
    /// occupancy of a core-sourced hand-over (PCC-style predictable
    /// coherence keeps the shared memory the single ordering point).
    ViaSharedMemory,
}

/// The bus arbitration policy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArbiterKind {
    /// Round-Robin Oldest-First (RROF, Mirosanlou et al., ECRTS 2022): cyclic order, but a core keeps its
    /// position until its *oldest* request is served (CoHoRT's arbiter).
    Rrof,
    /// Plain round-robin: a core moves to the back after any grant.
    RoundRobin,
    /// Time-division multiplexing over `critical` cores with slot width
    /// `SW`; non-critical cores may ride slots with no critical candidate
    /// (PENDULUM's arbiter).
    Tdm {
        /// Which cores own TDM slots (must contain at least one `true`).
        critical: Vec<bool>,
    },
    /// First-come first-served by request issue time (COTS baseline used to
    /// normalize Figure 6).
    Fcfs,
}

/// Full simulator configuration.
///
/// Use [`SimConfig::builder`] to construct one; the builder validates the
/// cross-field invariants.
///
/// # Examples
///
/// ```
/// use cohort_sim::{ArbiterKind, SimConfig};
/// use cohort_types::TimerValue;
///
/// let config = SimConfig::builder(4)
///     .timer(0, TimerValue::timed(300)?)
///     .timer(2, TimerValue::MSI)
///     .arbiter(ArbiterKind::Rrof)
///     .build()?;
/// assert_eq!(config.cores(), 4);
/// assert!(config.timers()[0].is_timed());
/// assert!(config.timers()[2].is_msi());
/// # Ok::<(), cohort_types::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    cores: usize,
    latency: LatencyConfig,
    l1: CacheGeometry,
    llc: LlcModel,
    arbiter: ArbiterKind,
    data_path: DataPath,
    timers: Vec<TimerValue>,
    mshr_per_core: usize,
    waiter_priority: Option<Vec<bool>>,
    flavor: ProtocolFlavor,
}

impl SimConfig {
    /// Starts building a configuration for an `cores`-core system with the
    /// paper's defaults: paper latencies, 16 KiB direct-mapped L1s, perfect
    /// LLC, RROF arbitration, cache-to-cache data path, all cores MSI
    /// (θ = −1), one MSHR per core.
    #[must_use]
    pub fn builder(cores: usize) -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig {
                cores,
                latency: LatencyConfig::paper(),
                l1: CacheGeometry::paper_l1(),
                llc: LlcModel::Perfect,
                arbiter: ArbiterKind::Rrof,
                data_path: DataPath::CacheToCache,
                timers: vec![TimerValue::MSI; cores],
                mshr_per_core: 1,
                waiter_priority: None,
                flavor: ProtocolFlavor::Msi,
            },
        }
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The latency parameters.
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

    /// The arbitration policy.
    #[must_use]
    pub fn arbiter(&self) -> &ArbiterKind {
        &self.arbiter
    }

    /// The inter-cache data path.
    #[must_use]
    pub fn data_path(&self) -> DataPath {
        self.data_path
    }

    /// The per-core timer threshold registers θ.
    #[must_use]
    pub fn timers(&self) -> &[TimerValue] {
        &self.timers
    }

    /// MSHR entries per core (outstanding misses).
    #[must_use]
    pub fn mshr_per_core(&self) -> usize {
        self.mshr_per_core
    }

    /// The protocol flavor (MSI per the paper, or the MESI extension).
    #[must_use]
    pub fn flavor(&self) -> ProtocolFlavor {
        self.flavor
    }

    /// Criticality mask for priority waiter queues, if enabled: critical
    /// cores' coherence requests are served ahead of queued non-critical
    /// waiters (PENDULUM's mechanism for bounding Cr requests while giving
    /// nCr cores no guarantees).
    #[must_use]
    pub fn waiter_priority(&self) -> Option<&[bool]> {
        self.waiter_priority.as_deref()
    }

    /// Returns a copy with different timers (used by mode switching and the
    /// optimization engine's candidate evaluation).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the slice length does not match
    /// the core count.
    pub fn with_timers(&self, timers: &[TimerValue]) -> Result<SimConfig> {
        if timers.len() != self.cores {
            return Err(Error::InvalidConfig(format!(
                "expected {} timers, got {}",
                self.cores,
                timers.len()
            )));
        }
        let mut config = self.clone();
        config.timers = timers.to_vec();
        Ok(config)
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the latency parameters.
    #[must_use]
    pub fn latency(mut self, latency: LatencyConfig) -> Self {
        self.config.latency = latency;
        self
    }

    /// Sets the private-cache geometry.
    #[must_use]
    pub fn l1(mut self, geometry: CacheGeometry) -> Self {
        self.config.l1 = geometry;
        self
    }

    /// Sets the LLC model.
    #[must_use]
    pub fn llc(mut self, llc: LlcModel) -> Self {
        self.config.llc = llc;
        self
    }

    /// Sets the arbitration policy.
    #[must_use]
    pub fn arbiter(mut self, arbiter: ArbiterKind) -> Self {
        self.config.arbiter = arbiter;
        self
    }

    /// Sets the inter-cache data path.
    #[must_use]
    pub fn data_path(mut self, path: DataPath) -> Self {
        self.config.data_path = path;
        self
    }

    /// Sets one core's timer threshold register.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range (builder misuse is a programming
    /// error; runtime re-configuration goes through
    /// [`SimConfig::with_timers`] which returns an error instead).
    #[must_use]
    pub fn timer(mut self, core: usize, value: TimerValue) -> Self {
        assert!(core < self.config.cores, "core {core} out of range");
        self.config.timers[core] = value;
        self
    }

    /// Sets all cores' timers at once.
    #[must_use]
    pub fn timers(mut self, timers: Vec<TimerValue>) -> Self {
        self.config.timers = timers;
        self
    }

    /// Sets the MSHR capacity per core.
    ///
    /// The timing analysis (Eq. 1/2/3) assumes **one** outstanding request
    /// per core; with deeper MSHRs a request's measured latency includes
    /// queueing behind the core's own older requests, which no bound
    /// charges. Values above 1 are a throughput extension, outside the
    /// analysable configuration (see the MSHR ablation).
    #[must_use]
    pub fn mshr_per_core(mut self, entries: usize) -> Self {
        self.config.mshr_per_core = entries;
        self
    }

    /// Selects the protocol flavor (defaults to the paper's MSI).
    #[must_use]
    pub fn flavor(mut self, flavor: ProtocolFlavor) -> Self {
        self.config.flavor = flavor;
        self
    }

    /// Enables criticality-priority waiter queues: requests from cores
    /// marked `true` are enqueued ahead of waiting non-critical requests
    /// (used by the PENDULUM baseline).
    #[must_use]
    pub fn waiter_priority(mut self, critical: Vec<bool>) -> Self {
        self.config.waiter_priority = Some(critical);
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the system has no cores, the
    /// timer vector length mismatches the core count, the TDM critical mask
    /// is malformed, the MSHR capacity is zero, or a cache geometry is
    /// invalid.
    pub fn build(self) -> Result<SimConfig> {
        let c = self.config;
        if c.cores == 0 {
            return Err(Error::InvalidConfig("a system needs at least one core".into()));
        }
        if c.timers.len() != c.cores {
            return Err(Error::InvalidConfig(format!(
                "expected {} timers, got {}",
                c.cores,
                c.timers.len()
            )));
        }
        if c.mshr_per_core == 0 {
            return Err(Error::InvalidConfig("each core needs at least one MSHR entry".into()));
        }
        c.l1.validate()?;
        if let LlcModel::Finite(geom) = &c.llc {
            geom.validate()?;
            if geom.line_bytes != c.l1.line_bytes {
                return Err(Error::InvalidConfig("LLC and L1 must agree on the line size".into()));
            }
        }
        if let ArbiterKind::Tdm { critical } = &c.arbiter {
            if critical.len() != c.cores {
                return Err(Error::InvalidConfig(format!(
                    "TDM critical mask must cover all {} cores",
                    c.cores
                )));
            }
            if !critical.iter().any(|&b| b) {
                return Err(Error::InvalidConfig(
                    "TDM needs at least one critical core owning a slot".into(),
                ));
            }
        }
        if let Some(mask) = &c.waiter_priority {
            if mask.len() != c.cores {
                return Err(Error::InvalidConfig(format!(
                    "waiter-priority mask must cover all {} cores",
                    c.cores
                )));
            }
            if let ArbiterKind::Tdm { critical } = &c.arbiter {
                if critical != mask {
                    return Err(Error::InvalidConfig(
                        "waiter-priority mask must match the TDM critical mask —                          disagreeing criticality views are never intended"
                            .into(),
                    ));
                }
            }
        }
        if c.cores > 64 {
            return Err(Error::InvalidConfig(
                "the sharer bitmask supports at most 64 cores".into(),
            ));
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_set_indexer_agrees_with_set_index() {
        let geometries = [
            CacheGeometry::paper_l1(),
            CacheGeometry::paper_llc(),
            // Struct literals bypass the power-of-two check.
            CacheGeometry { size_bytes: 5 * 3 * 64, line_bytes: 64, ways: 3 },
            CacheGeometry { size_bytes: 64, line_bytes: 64, ways: 1 },
        ];
        for geom in geometries {
            let indexer = geom.set_indexer();
            for raw in [0, 1, 5, 255, 256, 1 << 33, u64::MAX - 3, u64::MAX] {
                let line = LineAddr::new(raw);
                assert_eq!(indexer.index(line) as u64, line.set_index(geom.sets()), "{geom:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "a cache needs at least one set")]
    fn a_set_indexer_without_sets_panics_like_set_index() {
        let geom = CacheGeometry { size_bytes: 64, line_bytes: 64, ways: 2 };
        let _ = geom.set_indexer().index(LineAddr::new(3));
    }

    #[test]
    fn paper_geometries() {
        let l1 = CacheGeometry::paper_l1();
        assert_eq!(l1.sets(), 256);
        assert_eq!(l1.lines(), 256);
        let llc = CacheGeometry::paper_llc();
        assert_eq!(llc.ways, 8);
        assert_eq!(llc.sets(), 512);
    }

    #[test]
    fn geometry_validation() {
        assert!(CacheGeometry::new(16 * 1024, 64, 1).is_ok());
        assert!(CacheGeometry::new(0, 64, 1).is_err());
        assert!(CacheGeometry::new(16 * 1024, 48, 1).is_err(), "non power-of-two line");
        assert!(CacheGeometry::new(16 * 1024 + 1, 64, 1).is_err(), "not a multiple");
        assert!(CacheGeometry::new(64 * 3, 64, 1).is_err(), "sets not a power of two");
    }

    #[test]
    fn builder_defaults_are_paper_defaults() {
        let c = SimConfig::builder(4).build().unwrap();
        assert_eq!(c.cores(), 4);
        assert_eq!(c.latency().slot_width().get(), 54);
        assert!(c.llc().is_perfect());
        assert_eq!(c.arbiter(), &ArbiterKind::Rrof);
        assert_eq!(c.data_path(), DataPath::CacheToCache);
        assert!(c.timers().iter().all(|t| t.is_msi()));
        assert_eq!(c.mshr_per_core(), 1);
    }

    #[test]
    fn builder_rejects_invalid() {
        assert!(SimConfig::builder(0).build().is_err());
        assert!(SimConfig::builder(2).mshr_per_core(0).build().is_err());
        assert!(SimConfig::builder(2)
            .arbiter(ArbiterKind::Tdm { critical: vec![true] })
            .build()
            .is_err());
        assert!(SimConfig::builder(2)
            .arbiter(ArbiterKind::Tdm { critical: vec![false, false] })
            .build()
            .is_err());
        assert!(SimConfig::builder(65).build().is_err());
        let mismatched_llc = CacheGeometry::new(256 * 1024, 128, 8).unwrap();
        assert!(SimConfig::builder(2).llc(LlcModel::Finite(mismatched_llc)).build().is_err());
    }

    #[test]
    fn with_timers_checks_length() {
        let c = SimConfig::builder(2).build().unwrap();
        assert!(c.with_timers(&[TimerValue::MSI]).is_err());
        let t = TimerValue::timed(20).unwrap();
        let c2 = c.with_timers(&[t, t]).unwrap();
        assert_eq!(c2.timers(), &[t, t]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_timer_bounds_checked() {
        let _ = SimConfig::builder(2).timer(5, TimerValue::MSI);
    }
}
