//! Protocol presets: CoHoRT and the paper's baselines as simulator
//! configurations plus their analytical models.

use cohort_analysis::{analyze_cohort, analyze_pcc, analyze_pendulum, CoreBound, PendulumParams};
use cohort_sim::{ArbiterKind, DataPath, SimConfig};
use cohort_trace::Workload;
use cohort_types::{Error, Result, TimerValue};

use crate::SystemSpec;

/// The identity of a [`Protocol`], without its configuration payload.
///
/// Results (sweep reports, JSON exports, figure tables) want to *name* the
/// protocol a run used without dragging its timers or criticality mask
/// along; `ProtocolKind` is the `Copy` discriminant for that, with a
/// stable human label and a filesystem/CLI-safe slug (mirroring
/// `CritConfig::slug` in `cohort-bench`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// CoHoRT: per-core timers under RROF.
    Cohort,
    /// Plain MSI snooping under RROF.
    Msi,
    /// MSI under a COTS FCFS arbiter (the Figure-6 baseline).
    MsiFcfs,
    /// PCC-style predictable coherence (staged hand-overs).
    Pcc,
    /// PENDULUM: uniform timers + TDM.
    Pendulum,
}

impl ProtocolKind {
    /// Every kind, in the paper's presentation order.
    pub const ALL: [ProtocolKind; 5] = [
        ProtocolKind::Cohort,
        ProtocolKind::Msi,
        ProtocolKind::MsiFcfs,
        ProtocolKind::Pcc,
        ProtocolKind::Pendulum,
    ];

    /// Short name used on figure axes and in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Cohort => "CoHoRT",
            ProtocolKind::Msi => "MSI",
            ProtocolKind::MsiFcfs => "MSI+FCFS",
            ProtocolKind::Pcc => "PCC",
            ProtocolKind::Pendulum => "PENDULUM",
        }
    }

    /// Lower-case identifier safe for CLI flags, JSON keys and filenames.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            ProtocolKind::Cohort => "cohort",
            ProtocolKind::Msi => "msi",
            ProtocolKind::MsiFcfs => "msi-fcfs",
            ProtocolKind::Pcc => "pcc",
            ProtocolKind::Pendulum => "pendulum",
        }
    }

    /// Parses a [`Self::slug`] back into a kind.
    #[must_use]
    pub fn from_slug(slug: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.slug() == slug)
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The coherence solutions compared in the paper's evaluation (§VIII).
///
/// Fleet job specs carry a full protocol configuration (timers,
/// criticality masks), not just its [`ProtocolKind`] name, and digest it
/// into their fingerprints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Protocol {
    /// CoHoRT: per-core timers (θ = −1 ⇒ MSI), RROF arbitration, direct
    /// cache-to-cache hand-overs. Analysed with Eq. 1 + Eq. 2/3.
    Cohort {
        /// The per-core timer registers Θ.
        timers: Vec<TimerValue>,
    },
    /// Plain MSI snooping under RROF — equivalent to CoHoRT with all
    /// θ = −1 (analysed all-miss at the Eq. 1 bound).
    Msi,
    /// MSI snooping with a COTS first-come-first-served arbiter: the
    /// normalization baseline of Figure 6. Not analysable (no bound).
    MsiFcfs,
    /// PCC-style predictable coherence: MSI under RROF with every
    /// hand-over staged through the shared memory.
    Pcc,
    /// PENDULUM: uniform time-based coherence (every core, critical or
    /// not, holds lines for the same global θ), TDM slots for critical
    /// cores, non-critical cores ride idle slots only.
    Pendulum {
        /// Which cores are critical.
        critical: Vec<bool>,
        /// The uniform timer of critical cores (PENDULUM is not
        /// requirement-aware).
        theta: u64,
    },
}

impl Protocol {
    /// The configuration-free identity of this protocol.
    #[must_use]
    pub fn kind(&self) -> ProtocolKind {
        match self {
            Protocol::Cohort { .. } => ProtocolKind::Cohort,
            Protocol::Msi => ProtocolKind::Msi,
            Protocol::MsiFcfs => ProtocolKind::MsiFcfs,
            Protocol::Pcc => ProtocolKind::Pcc,
            Protocol::Pendulum { .. } => ProtocolKind::Pendulum,
        }
    }

    /// Short name used on figure axes and in reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        self.kind().label()
    }

    /// Lower-case identifier safe for CLI flags, JSON keys and filenames.
    #[must_use]
    pub fn slug(&self) -> &'static str {
        self.kind().slug()
    }

    /// Builds the simulator configuration realising this protocol on the
    /// given platform.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if a per-core vector length does
    /// not match the platform.
    pub fn sim_config(&self, spec: &SystemSpec) -> Result<SimConfig> {
        let n = spec.cores();
        let base = SimConfig::builder(n).latency(*spec.latency()).l1(*spec.l1()).llc(*spec.llc());
        let config = match self {
            Protocol::Cohort { timers } => {
                if timers.len() != n {
                    return Err(Error::InvalidConfig(format!(
                        "CoHoRT expects {n} timers, got {}",
                        timers.len()
                    )));
                }
                base.timers(timers.clone()).arbiter(ArbiterKind::Rrof)
            }
            Protocol::Msi => base.arbiter(ArbiterKind::Rrof),
            Protocol::MsiFcfs => base.arbiter(ArbiterKind::Fcfs),
            Protocol::Pcc => base.arbiter(ArbiterKind::Rrof).data_path(DataPath::ViaSharedMemory),
            Protocol::Pendulum { critical, theta } => {
                if critical.len() != n {
                    return Err(Error::InvalidConfig(format!(
                        "PENDULUM mask expects {n} cores, got {}",
                        critical.len()
                    )));
                }
                // PENDULUM's protocol is uniform: criticality only affects
                // arbitration, so non-critical holders also keep lines θ.
                let timers = vec![TimerValue::timed(*theta)?; n];
                base.timers(timers)
                    .arbiter(ArbiterKind::Tdm { critical: critical.clone() })
                    .waiter_priority(critical.clone())
            }
        };
        config.build()
    }

    /// Exports the per-core timer-register table this protocol programs.
    ///
    /// This is the protocol-level abstraction consumed by `cohort-verif`'s
    /// model checker: the timer class of each core (MSI / θ = 0 / θ > 0)
    /// is the only protocol knob the coherence invariants depend on, so a
    /// preset's verification model is fully determined by this table.
    /// MSI-family baselines (plain, FCFS, PCC) program every register to
    /// θ = −1; PENDULUM programs its uniform θ everywhere.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the preset carries a per-core
    /// vector whose length does not match `cores`, or a θ outside the
    /// 16-bit register range.
    pub fn timer_table(&self, cores: usize) -> Result<Vec<TimerValue>> {
        match self {
            Protocol::Cohort { timers } => {
                if timers.len() != cores {
                    return Err(Error::InvalidConfig(format!(
                        "CoHoRT expects {cores} timers, got {}",
                        timers.len()
                    )));
                }
                Ok(timers.clone())
            }
            Protocol::Msi | Protocol::MsiFcfs | Protocol::Pcc => Ok(vec![TimerValue::Msi; cores]),
            Protocol::Pendulum { theta, .. } => Ok(vec![TimerValue::timed(*theta)?; cores]),
        }
    }

    /// Computes the per-core analytical WCML bounds, or `None` for
    /// protocols without an analysis (the COTS FCFS baseline).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on spec/workload mismatches.
    pub fn analyze(
        &self,
        spec: &SystemSpec,
        workload: &Workload,
    ) -> Result<Option<Vec<CoreBound>>> {
        let lat = spec.latency();
        match self {
            Protocol::Cohort { timers } => {
                Ok(Some(analyze_cohort(workload, timers, lat, spec.l1(), spec.llc())?))
            }
            Protocol::Msi => {
                let timers = vec![TimerValue::MSI; spec.cores()];
                Ok(Some(analyze_cohort(workload, &timers, lat, spec.l1(), spec.llc())?))
            }
            Protocol::MsiFcfs => Ok(None),
            Protocol::Pcc => Ok(Some(analyze_pcc(workload, lat))),
            Protocol::Pendulum { critical, theta } => {
                let params = PendulumParams { critical: critical.clone(), theta: *theta };
                Ok(Some(analyze_pendulum(workload, &params, lat)?))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohort_trace::micro;
    use cohort_types::Criticality;

    fn spec(n: usize) -> SystemSpec {
        let mut b = SystemSpec::builder();
        for _ in 0..n {
            b = b.core(Criticality::new(1).unwrap());
        }
        b.build().unwrap()
    }

    #[test]
    fn names() {
        assert_eq!(Protocol::Msi.label(), "MSI");
        assert_eq!(Protocol::Pcc.label(), "PCC");
        assert_eq!(Protocol::Cohort { timers: vec![] }.label(), "CoHoRT");
        assert_eq!(Protocol::MsiFcfs.label(), "MSI+FCFS");
        assert_eq!(Protocol::Pendulum { critical: vec![], theta: 1 }.slug(), "pendulum");
    }

    #[test]
    fn kinds_round_trip_through_slugs() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::from_slug(kind.slug()), Some(kind));
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(ProtocolKind::from_slug("emsi"), None);
        assert_eq!(Protocol::Cohort { timers: vec![] }.kind(), ProtocolKind::Cohort);
        assert_eq!(ProtocolKind::MsiFcfs.slug(), "msi-fcfs");
    }

    #[test]
    fn cohort_config_carries_timers() {
        let s = spec(2);
        let timers = vec![TimerValue::timed(30).unwrap(), TimerValue::MSI];
        let config = Protocol::Cohort { timers: timers.clone() }.sim_config(&s).unwrap();
        assert_eq!(config.timers(), timers.as_slice());
        assert_eq!(config.arbiter(), &ArbiterKind::Rrof);
    }

    #[test]
    fn pendulum_config_uses_tdm_and_priority_queues() {
        let s = spec(3);
        let p = Protocol::Pendulum { critical: vec![true, false, true], theta: 99 };
        let config = p.sim_config(&s).unwrap();
        assert!(matches!(config.arbiter(), ArbiterKind::Tdm { .. }));
        assert!(config.waiter_priority().is_some());
        assert_eq!(config.timers()[0].theta(), Some(99));
        assert_eq!(config.timers()[1].theta(), Some(99), "the protocol is uniform");
    }

    #[test]
    fn pcc_config_stages_transfers() {
        let config = Protocol::Pcc.sim_config(&spec(2)).unwrap();
        assert_eq!(config.data_path(), DataPath::ViaSharedMemory);
    }

    #[test]
    fn length_mismatches_rejected() {
        let s = spec(3);
        assert!(Protocol::Cohort { timers: vec![TimerValue::MSI] }.sim_config(&s).is_err());
        assert!(Protocol::Pendulum { critical: vec![true], theta: 1 }.sim_config(&s).is_err());
    }

    #[test]
    fn timer_tables_reflect_each_preset() {
        let timers = vec![TimerValue::timed(30).unwrap(), TimerValue::MSI];
        let p = Protocol::Cohort { timers: timers.clone() };
        assert_eq!(p.timer_table(2).unwrap(), timers);
        assert!(p.timer_table(3).is_err(), "length mismatch must be rejected");

        assert_eq!(Protocol::Msi.timer_table(2).unwrap(), vec![TimerValue::Msi; 2]);
        assert_eq!(Protocol::Pcc.timer_table(1).unwrap(), vec![TimerValue::Msi]);

        let pendulum = Protocol::Pendulum { critical: vec![true, false], theta: 50 };
        let table = pendulum.timer_table(2).unwrap();
        assert!(table.iter().all(|t| t.theta() == Some(50)), "PENDULUM is uniform");
    }

    #[test]
    fn fcfs_has_no_analysis() {
        let s = spec(2);
        let w = micro::ping_pong(2, 2);
        assert!(Protocol::MsiFcfs.analyze(&s, &w).unwrap().is_none());
        assert!(Protocol::Msi.analyze(&s, &w).unwrap().is_some());
    }
}
