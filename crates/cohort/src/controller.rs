//! The run-time mode controller (§VI, Figure 7).
//!
//! When a higher-criticality core's requirement tightens (an external
//! environment change or an internal failure), the traditional MCS response
//! suspends all lower-criticality tasks. CoHoRT instead **escalates the
//! operational mode**: the Mode-Switch LUT re-programs the θ registers so
//! lower-criticality cores drop to MSI — they keep running (merely losing
//! their hit guarantees) while the critical core's Eq. 1 bound sheds their
//! timer terms.

use cohort_types::{CoreId, Cycles, Error, Mode, Result};

use crate::ModeConfiguration;

/// The controller's verdict on a requirement change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeDecision {
    /// The current mode already satisfies the requirement.
    Stay(Mode),
    /// Escalate to the given (higher) mode.
    Escalate(Mode),
    /// No mode satisfies the requirement — the system is unschedulable for
    /// this task (the Figure-7 "without mode-switch" outcome).
    Unschedulable,
}

impl ModeDecision {
    /// The mode the system operates in after the decision, if schedulable.
    #[must_use]
    pub fn mode(&self) -> Option<Mode> {
        match self {
            ModeDecision::Stay(m) | ModeDecision::Escalate(m) => Some(*m),
            ModeDecision::Unschedulable => None,
        }
    }
}

/// Run-time mode-switch controller over an offline [`ModeConfiguration`].
///
/// # Examples
///
/// ```
/// use cohort::{ModeController, ModeSetup, SystemSpec};
/// use cohort_optim::GaConfig;
/// use cohort_trace::micro;
/// use cohort_types::{CoreId, Criticality, Cycles, Mode};
///
/// let spec = SystemSpec::builder()
///     .core(Criticality::new(2)?)
///     .core(Criticality::new(1)?)
///     .build()?;
/// let workload = micro::line_bursts(2, 4, 40);
/// let ga = GaConfig { population: 12, generations: 6, ..Default::default() };
/// let config = ModeSetup::new(&spec, &workload).ga(&ga).run()?;
/// let mut controller = ModeController::new(config);
/// assert_eq!(controller.current(), Mode::NORMAL);
///
/// // A hopeless requirement is reported, not papered over.
/// let decision = controller.requirement_changed(CoreId::new(0), Cycles::new(1))?;
/// assert_eq!(decision.mode(), None);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ModeController {
    config: ModeConfiguration,
    current: Mode,
}

impl ModeController {
    /// Creates a controller starting in the normal mode `m_1`.
    #[must_use]
    pub fn new(config: ModeConfiguration) -> Self {
        ModeController { config, current: Mode::NORMAL }
    }

    /// The current operational mode.
    #[must_use]
    pub fn current(&self) -> Mode {
        self.current
    }

    /// Finds the lowest mode at or above `from` whose (feasible) entry
    /// bounds `core`'s WCML within `requirement`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownCore`] for an out-of-range core.
    pub fn first_satisfying_mode(
        &self,
        core: CoreId,
        requirement: Cycles,
        from: Mode,
    ) -> Result<Option<Mode>> {
        // Validate the core against the configuration up front, so an
        // unknown core errors instead of masquerading as "unschedulable".
        let cores = self.config.entries.first().map_or(0, |e| e.bounds.len());
        if core.index() >= cores {
            return Err(Error::UnknownCore { index: core.index(), cores });
        }
        for entry in &self.config.entries {
            if entry.mode < from || !entry.feasible {
                continue;
            }
            let bound = entry
                .bounds
                .get(core.index())
                .ok_or(Error::UnknownCore { index: core.index(), cores: entry.bounds.len() })?;
            if bound.wcml.is_some_and(|w| w <= requirement) {
                return Ok(Some(entry.mode));
            }
        }
        Ok(None)
    }

    /// Handles a requirement change for `core` (Figure 7): stays in the
    /// current mode if its bound still fits, otherwise escalates to the
    /// first mode that fits, otherwise reports unschedulability (leaving
    /// the mode unchanged).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownCore`] for an out-of-range core.
    pub fn requirement_changed(
        &mut self,
        core: CoreId,
        requirement: Cycles,
    ) -> Result<ModeDecision> {
        match self.first_satisfying_mode(core, requirement, self.current)? {
            Some(mode) if mode == self.current => Ok(ModeDecision::Stay(mode)),
            Some(mode) => {
                self.current = mode;
                Ok(ModeDecision::Escalate(mode))
            }
            None => Ok(ModeDecision::Unschedulable),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModeEntry, ModeSwitchLut};
    use cohort_analysis::CoreBound;
    use cohort_types::TimerValue;

    /// Hand-built configuration: two cores, three modes with c0 bounds
    /// 1000 / 600 / 300.
    fn config() -> ModeConfiguration {
        let bounds = |b0: u64| {
            vec![
                CoreBound {
                    hits: 0,
                    misses: 10,
                    wcl: Some(Cycles::new(b0 / 10)),
                    wcml: Some(Cycles::new(b0)),
                },
                CoreBound { hits: 0, misses: 10, wcl: None, wcml: None },
            ]
        };
        let timers = vec![TimerValue::timed(10).unwrap(), TimerValue::MSI];
        let entries = vec![
            ModeEntry {
                mode: Mode::new(1).unwrap(),
                timers: timers.clone(),
                bounds: bounds(1000),
                feasible: true,
            },
            ModeEntry {
                mode: Mode::new(2).unwrap(),
                timers: timers.clone(),
                bounds: bounds(600),
                feasible: true,
            },
            ModeEntry {
                mode: Mode::new(3).unwrap(),
                timers: timers.clone(),
                bounds: bounds(300),
                feasible: true,
            },
        ];
        let lut = ModeSwitchLut::new(vec![timers.clone(), timers.clone(), timers]).unwrap();
        ModeConfiguration { entries, lut }
    }

    #[test]
    fn stays_when_current_mode_fits() {
        let mut c = ModeController::new(config());
        let d = c.requirement_changed(CoreId::new(0), Cycles::new(1_500)).unwrap();
        assert_eq!(d, ModeDecision::Stay(Mode::NORMAL));
        assert_eq!(c.current(), Mode::NORMAL);
    }

    #[test]
    fn escalates_to_first_fitting_mode() {
        let mut c = ModeController::new(config());
        // 500 < 600? No: mode 2's bound is 600 > 500, so mode 3 it is.
        let d = c.requirement_changed(CoreId::new(0), Cycles::new(500)).unwrap();
        assert_eq!(d, ModeDecision::Escalate(Mode::new(3).unwrap()));
        assert_eq!(c.current().index(), 3);
    }

    #[test]
    fn escalation_is_monotone() {
        let mut c = ModeController::new(config());
        c.requirement_changed(CoreId::new(0), Cycles::new(700)).unwrap();
        assert_eq!(c.current().index(), 2);
        // A later relaxed requirement does not de-escalate automatically.
        let d = c.requirement_changed(CoreId::new(0), Cycles::new(10_000)).unwrap();
        assert_eq!(d, ModeDecision::Stay(Mode::new(2).unwrap()));
    }

    #[test]
    fn unschedulable_keeps_mode() {
        let mut c = ModeController::new(config());
        let d = c.requirement_changed(CoreId::new(0), Cycles::new(100)).unwrap();
        assert_eq!(d, ModeDecision::Unschedulable);
        assert_eq!(d.mode(), None);
        assert_eq!(c.current(), Mode::NORMAL, "mode unchanged on failure");
    }

    #[test]
    fn infeasible_modes_are_skipped() {
        let mut cfg = config();
        cfg.entries[1].feasible = false;
        let mut c = ModeController::new(cfg);
        // Bound 700 would fit mode 2 (600), but it is infeasible → mode 3.
        let d = c.requirement_changed(CoreId::new(0), Cycles::new(700)).unwrap();
        assert_eq!(d, ModeDecision::Escalate(Mode::new(3).unwrap()));
    }

    #[test]
    fn unbounded_cores_never_satisfy() {
        let c = ModeController::new(config());
        let m = c
            .first_satisfying_mode(CoreId::new(1), Cycles::new(u64::MAX / 2), Mode::NORMAL)
            .unwrap();
        assert_eq!(m, None, "core 1 has no bounds in any mode");
        assert!(c.first_satisfying_mode(CoreId::new(7), Cycles::ZERO, Mode::NORMAL).is_err());
    }
}
