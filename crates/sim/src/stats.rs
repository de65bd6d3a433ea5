//! Measurement results of a simulation run.

use cohort_types::{CoreId, Cycles};

/// Per-core measurements.
///
/// `total_latency` is the **experimental WCML** of the core's task: the sum
/// of all per-access memory latencies (hit latency for hits, issue-to-fill
/// for misses) — the solid bars of Figure 5. `worst_request` is the largest
/// observed per-request latency, comparable against the Eq. 1 bound.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoreStats {
    /// Number of private-cache hits.
    pub hits: u64,
    /// Number of misses (including upgrades).
    pub misses: u64,
    /// Number of misses that were upgrades (store on an own Shared copy).
    pub upgrades: u64,
    /// Sum of per-access latencies: the experimental WCML.
    pub total_latency: Cycles,
    /// Largest observed per-request miss latency (experimental WCL).
    pub worst_request: Cycles,
    /// Cycle at which the core's last access completed.
    pub finish: Cycles,
}

impl CoreStats {
    /// Total accesses performed (hits + misses).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]` (0 for an empty run).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Mean per-access latency in cycles (0 for an empty run).
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.total_latency.get() as f64 / self.accesses() as f64
        }
    }
}

/// Whole-run measurements.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimStats {
    /// Per-core statistics, indexed by core.
    pub cores: Vec<CoreStats>,
    /// Cycle at which the simulation finished (all traces drained).
    pub cycles: Cycles,
    /// Cycles the shared bus was occupied.
    pub bus_busy: Cycles,
    /// Number of request broadcasts (including the broadcast phase of
    /// fused transactions).
    pub broadcasts: u64,
    /// Number of data transfers.
    pub transfers: u64,
    /// LLC misses (only non-zero with a finite LLC).
    pub llc_misses: u64,
    /// Lines back-invalidated out of private caches by inclusive-LLC
    /// evictions (only non-zero with a finite LLC).
    pub back_invalidations: u64,
    /// L1 lines evicted by the replacement policy.
    pub evictions: u64,
}

impl SimStats {
    /// Per-core stats by id.
    ///
    /// # Panics
    ///
    /// Panics if the core does not exist.
    #[must_use]
    pub fn core(&self, id: CoreId) -> &CoreStats {
        &self.cores[id.index()]
    }

    /// Overall execution time: the completion cycle of the slowest core
    /// (Figure 6's metric).
    #[must_use]
    pub fn execution_time(&self) -> Cycles {
        self.cores.iter().map(|c| c.finish).max().unwrap_or(Cycles::ZERO)
    }

    /// Bus utilisation in `[0, 1]`.
    #[must_use]
    pub fn bus_utilisation(&self) -> f64 {
        if self.cycles.get() == 0 {
            0.0
        } else {
            self.bus_busy.get() as f64 / self.cycles.get() as f64
        }
    }

    /// Private-cache hits summed over every core.
    #[must_use]
    fn total_hits(&self) -> u64 {
        self.cores.iter().map(|c| c.hits).sum()
    }

    /// Misses (including upgrades) summed over every core.
    #[must_use]
    fn total_misses(&self) -> u64 {
        self.cores.iter().map(|c| c.misses).sum()
    }

    /// Total accesses performed across the whole system.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.total_hits() + self.total_misses()
    }

    /// System-wide hit ratio in `[0, 1]` (0 for an empty run).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.total_accesses() == 0 {
            0.0
        } else {
            self.total_hits() as f64 / self.total_accesses() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let c = CoreStats {
            hits: 3,
            misses: 1,
            upgrades: 0,
            total_latency: Cycles::new(103),
            worst_request: Cycles::new(100),
            finish: Cycles::new(200),
        };
        assert_eq!(c.accesses(), 4);
        assert!((c.hit_ratio() - 0.75).abs() < 1e-12);
        assert!((c.mean_latency() - 25.75).abs() < 1e-12);
    }

    #[test]
    fn empty_run_has_zero_ratios() {
        let c = CoreStats::default();
        assert_eq!(c.hit_ratio(), 0.0);
        assert_eq!(c.mean_latency(), 0.0);
    }

    #[test]
    fn execution_time_is_slowest_core() {
        let stats = SimStats {
            cores: vec![
                CoreStats { finish: Cycles::new(10), ..Default::default() },
                CoreStats { finish: Cycles::new(99), ..Default::default() },
            ],
            cycles: Cycles::new(100),
            bus_busy: Cycles::new(50),
            ..Default::default()
        };
        assert_eq!(stats.execution_time().get(), 99);
        assert!((stats.bus_utilisation() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn whole_system_aggregates() {
        let stats = SimStats {
            cores: vec![
                CoreStats { hits: 6, misses: 2, ..Default::default() },
                CoreStats { hits: 3, misses: 1, ..Default::default() },
            ],
            ..Default::default()
        };
        assert_eq!(stats.total_hits(), 9);
        assert_eq!(stats.total_misses(), 3);
        assert_eq!(stats.total_accesses(), 12);
        assert!((stats.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(SimStats::default().hit_ratio(), 0.0);
    }
}
