use core::fmt;

use crate::{Error, Result};

/// A task's (or, transitively, a core's) criticality level `l`.
///
/// Levels are numbered `1..=L` with **higher numbers more critical**, as in
/// the paper's system model (§II): a core inherits the criticality of the
/// task currently running on it. CoHoRT supports any number of levels `L`
/// (e.g. `L = 5` for DO-178C avionics, `L = 4` for ISO-26262 automotive),
/// unlike two-level baselines such as PENDULUM.
///
/// # Examples
///
/// ```
/// use cohort_types::Criticality;
///
/// let asil_d = Criticality::new(4)?;
/// let qm = Criticality::new(1)?;
/// assert!(asil_d > qm);
/// assert_eq!(asil_d.level(), 4);
/// # Ok::<(), cohort_types::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Criticality(u32);

impl Criticality {
    /// Creates a criticality level.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LevelOutOfRange`] if `level` is zero (levels are
    /// 1-based).
    pub fn new(level: u32) -> Result<Self> {
        if level == 0 {
            return Err(Error::LevelOutOfRange { value: level, max: u32::MAX });
        }
        Ok(Criticality(level))
    }

    /// Returns the numeric level (1-based, higher is more critical).
    #[must_use]
    pub const fn level(self) -> u32 {
        self.0
    }

    /// Returns `true` if a core at this criticality keeps time-based
    /// coherence when the system operates at `mode`.
    ///
    /// Per §VI: at mode `m_l`, cores with `l_i ≥ l` run time-based
    /// coherence, cores with `l_i < l` are degraded to MSI.
    #[must_use]
    pub const fn keeps_timed_coherence_at(self, mode: Mode) -> bool {
        self.0 >= mode.0
    }
}

impl fmt::Display for Criticality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// An operational mode `m_l` of the mixed-criticality system.
///
/// The system starts in the normal mode `m_1` and escalates to higher modes
/// under internal failures or external environment changes (§II, §VI). There
/// are as many modes as criticality levels; at mode `m_l` every core whose
/// criticality is below `l` operates in the degraded state (standard MSI
/// coherence) instead of being suspended.
///
/// # Examples
///
/// ```
/// use cohort_types::{Criticality, Mode};
///
/// let m2 = Mode::new(2)?;
/// assert!(Criticality::new(3)?.keeps_timed_coherence_at(m2));
/// assert!(!Criticality::new(1)?.keeps_timed_coherence_at(m2));
/// assert_eq!(m2.next().index(), 3);
/// # Ok::<(), cohort_types::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Mode(u32);

impl Mode {
    /// The normal mode `m_1` in which all requirements are considered.
    pub const NORMAL: Mode = Mode(1);

    /// Creates a mode.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LevelOutOfRange`] if `index` is zero (modes are
    /// 1-based).
    pub fn new(index: u32) -> Result<Self> {
        if index == 0 {
            return Err(Error::LevelOutOfRange { value: index, max: u32::MAX });
        }
        Ok(Mode(index))
    }

    /// Returns the 1-based mode index `l` of `m_l`.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the next (more degraded) mode `m_{l+1}`.
    #[must_use]
    pub const fn next(self) -> Mode {
        Mode(self.0 + 1)
    }

    /// Returns the corresponding criticality threshold: cores at or above
    /// this level keep time-based coherence in this mode.
    #[must_use]
    pub const fn threshold(self) -> Criticality {
        Criticality(self.0)
    }
}

impl Default for Mode {
    fn default() -> Self {
        Mode::NORMAL
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_one_based() {
        assert!(Criticality::new(0).is_err());
        assert!(Mode::new(0).is_err());
        assert_eq!(Criticality::new(1).unwrap().level(), 1);
        assert_eq!(Mode::new(1).unwrap(), Mode::NORMAL);
    }

    #[test]
    fn degradation_rule_matches_section_vi() {
        // At mode m_3, levels 3,4,5 keep timers; 1,2 degrade to MSI.
        let m3 = Mode::new(3).unwrap();
        for l in 1..=5 {
            let c = Criticality::new(l).unwrap();
            assert_eq!(c.keeps_timed_coherence_at(m3), l >= 3);
        }
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Criticality::new(5).unwrap() > Criticality::new(4).unwrap());
        assert!(Mode::new(2).unwrap() > Mode::NORMAL);
    }

    #[test]
    fn mode_escalation() {
        assert_eq!(Mode::NORMAL.next(), Mode::new(2).unwrap());
        assert_eq!(Mode::new(2).unwrap().threshold(), Criticality::new(2).unwrap());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Criticality::new(4).unwrap().to_string(), "L4");
        assert_eq!(Mode::new(2).unwrap().to_string(), "m2");
    }
}
