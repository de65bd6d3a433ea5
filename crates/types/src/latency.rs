use crate::{Cycles, Error, Result, TimerValue};

/// Latency parameters of the modelled memory hierarchy.
///
/// These are the knobs of the cycle-accurate model (§VIII of the paper):
///
/// - `hit` — latency of a hit in the private L1 cache (`L^hit`),
/// - `request` — cycles a request broadcast occupies the shared bus,
/// - `data` — cycles a data transfer occupies the shared bus,
/// - `memory` — additional cycles for an LLC miss to reach main memory
///   (only used by the non-perfect LLC model; zero for a perfect LLC).
///
/// The **slot width** `SW` used throughout the worst-case analysis (Eq. 1)
/// is the time one complete bus transaction takes: `request + data`.
///
/// # Examples
///
/// ```
/// use cohort_types::LatencyConfig;
///
/// // Paper values: hit 1, request 4, data 50 → SW = 54.
/// let lat = LatencyConfig::paper();
/// assert_eq!(lat.hit.get(), 1);
/// assert_eq!(lat.slot_width().get(), 54);
///
/// let custom = LatencyConfig::new(2, 8, 40)?;
/// assert_eq!(custom.slot_width().get(), 48);
/// # Ok::<(), cohort_types::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyConfig {
    /// Latency of a private-cache hit (`L^hit`).
    pub hit: Cycles,
    /// Bus occupancy of a request broadcast.
    pub request: Cycles,
    /// Bus occupancy of a data transfer.
    pub data: Cycles,
    /// Extra latency of an LLC miss to main memory (non-perfect LLC only).
    pub memory: Cycles,
}

impl LatencyConfig {
    /// The latencies used in the paper's evaluation: hit 1, request 4,
    /// data 50, perfect LLC (memory 0).
    #[must_use]
    pub const fn paper() -> Self {
        LatencyConfig {
            hit: Cycles::new(1),
            request: Cycles::new(4),
            data: Cycles::new(50),
            memory: Cycles::ZERO,
        }
    }

    /// Creates a latency configuration with a perfect LLC.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any latency is zero: a zero-cost
    /// hit or bus phase collapses the cycle-level model.
    pub fn new(hit: u64, request: u64, data: u64) -> Result<Self> {
        if hit == 0 || request == 0 || data == 0 {
            return Err(Error::InvalidConfig(
                "hit, request and data latencies must be positive".into(),
            ));
        }
        Ok(LatencyConfig {
            hit: Cycles::new(hit),
            request: Cycles::new(request),
            data: Cycles::new(data),
            memory: Cycles::ZERO,
        })
    }

    /// Returns a copy with a fixed main-memory latency behind a non-perfect
    /// LLC (the paper's footnote-1 configuration).
    #[must_use]
    pub const fn with_memory(mut self, memory: u64) -> Self {
        self.memory = Cycles::new(memory);
        self
    }

    /// The slot width `SW = request + data`: the worst-case bus occupancy of
    /// one complete transaction, used by Eq. 1 and by the TDM arbiter.
    #[must_use]
    pub fn slot_width(&self) -> Cycles {
        self.request + self.data
    }

    /// The effective slot width used by every bound and by the TDM
    /// arbiter: `SW`, plus the fixed main-memory latency when the LLC is
    /// non-perfect (every LLC-sourced transfer may miss and pay it). For
    /// the paper's perfect-LLC configuration this is exactly `SW`.
    #[must_use]
    pub fn effective_slot(&self) -> Cycles {
        self.slot_width() + self.memory
    }
}

/// **Eq. 1** — the per-request worst-case miss latency of core `i` under
/// CoHoRT (heterogeneous coherence, RROF arbitration):
///
/// ```text
/// WCL_i = SW + (N−1)·SW + Σ_{j≠i} { θ_j + SW   if θ_j ≥ 0
///                                  { 0          if θ_j = −1
/// ```
///
/// The first term covers the first core in the broadcast order fetching the
/// line from the shared memory; the second covers one data hand-over per
/// interfering core; the third adds, for every *timed* interferer, its
/// timer hold plus a slot of expiry/slot misalignment. A core's own timer
/// never appears in its own bound (`j ≠ i`) — the modelled cache controller
/// drops timer protection of a line the core itself is waiting on. `SW` is
/// the [effective slot](LatencyConfig::effective_slot).
///
/// This is the one definition of Eq. 1: the analysis, the GA, the
/// simulator's metrics probe and its run-time watchdog all call it.
///
/// # Examples
///
/// ```
/// use cohort_types::{wcl_miss, LatencyConfig, TimerValue};
///
/// // All-MSI quad core: N·SW = 216.
/// let msi = [TimerValue::MSI; 4];
/// assert_eq!(wcl_miss(0, &msi, &LatencyConfig::paper()).get(), 216);
/// ```
///
/// # Panics
///
/// Panics if `core` is out of range of `timers`.
#[must_use]
pub fn wcl_miss(core: usize, timers: &[TimerValue], latency: &LatencyConfig) -> Cycles {
    assert!(core < timers.len(), "core {core} out of range");
    let sw = latency.effective_slot();
    let n = timers.len() as u64;
    let mut bound = sw + sw * (n - 1);
    for (j, timer) in timers.iter().enumerate() {
        if j == core {
            continue;
        }
        if let Some(theta) = timer.theta() {
            bound += Cycles::new(theta) + sw;
        }
    }
    bound
}

impl Default for LatencyConfig {
    /// Defaults to the paper's evaluation latencies.
    fn default() -> Self {
        LatencyConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let lat = LatencyConfig::paper();
        assert_eq!(lat.hit.get(), 1);
        assert_eq!(lat.request.get(), 4);
        assert_eq!(lat.data.get(), 50);
        assert_eq!(lat.memory.get(), 0);
        assert_eq!(lat.slot_width().get(), 54);
    }

    #[test]
    fn zero_latency_rejected() {
        assert!(LatencyConfig::new(0, 4, 50).is_err());
        assert!(LatencyConfig::new(1, 0, 50).is_err());
        assert!(LatencyConfig::new(1, 4, 0).is_err());
    }

    #[test]
    fn with_memory_sets_dram_latency() {
        let lat = LatencyConfig::paper().with_memory(100);
        assert_eq!(lat.memory.get(), 100);
        // Slot width is unaffected: DRAM sits behind the LLC, not the bus.
        assert_eq!(lat.slot_width().get(), 54);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(LatencyConfig::default(), LatencyConfig::paper());
    }
}
