use std::collections::BTreeMap;

use crate::{Criticality, Cycles, Error, Mode, Result};

/// Per-mode worst-case memory-latency requirements `Γ^m` of a task.
///
/// A task may have a different WCML budget in each operational mode; modes
/// without an explicit entry fall back to the highest mode at or below them
/// (requirements persist until restated). A task with no entry at all for a
/// mode is unconstrained in that mode.
///
/// # Examples
///
/// ```
/// use cohort_types::{Cycles, Mode, Requirements};
///
/// let mut reqs = Requirements::new();
/// reqs.set(Mode::NORMAL, Cycles::new(2_000_000));
/// reqs.set(Mode::new(3)?, Cycles::new(1_200_000));
///
/// assert_eq!(reqs.at(Mode::NORMAL), Some(Cycles::new(2_000_000)));
/// // Mode 2 inherits the mode-1 requirement.
/// assert_eq!(reqs.at(Mode::new(2)?), Some(Cycles::new(2_000_000)));
/// assert_eq!(reqs.at(Mode::new(4)?), Some(Cycles::new(1_200_000)));
/// # Ok::<(), cohort_types::Error>(())
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Requirements {
    by_mode: BTreeMap<u32, Cycles>,
}

impl Requirements {
    /// Creates an empty (unconstrained) requirement set.
    #[must_use]
    pub fn new() -> Self {
        Requirements { by_mode: BTreeMap::new() }
    }

    /// Sets the WCML budget `Γ^m` for `mode` (and, by inheritance, for all
    /// higher modes without their own entry).
    pub fn set(&mut self, mode: Mode, budget: Cycles) {
        self.by_mode.insert(mode.index(), budget);
    }

    /// Returns the effective budget at `mode`, inheriting from the closest
    /// lower mode; `None` if the task is unconstrained at this mode.
    #[must_use]
    pub fn at(&self, mode: Mode) -> Option<Cycles> {
        self.by_mode.range(..=mode.index()).next_back().map(|(_, &c)| c)
    }

    /// Returns `true` if no mode carries a requirement.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_mode.is_empty()
    }

    /// Iterates over the explicitly set `(mode, budget)` pairs in mode order.
    pub fn iter(&self) -> impl Iterator<Item = (Mode, Cycles)> + '_ {
        self.by_mode.iter().map(|(&m, &c)| (Mode::new(m).expect("stored modes are valid"), c))
    }
}

/// A mixed-criticality task `τ_j = ⟨l_j, Λ_j, Γ_j^{m_l}⟩` (§II).
///
/// - `criticality` — the task's criticality level `l_j`,
/// - `accesses` — the total number of memory accesses `Λ_j`,
/// - `requirements` — the per-mode WCML budgets `Γ_j^{m_l}`.
///
/// # Examples
///
/// ```
/// use cohort_types::{Criticality, Cycles, Mode, Requirements, Task};
///
/// let task = Task::new("lidar-fusion", Criticality::new(4)?, 47_000)
///     .with_requirement(Mode::NORMAL, Cycles::new(5_000_000));
/// assert_eq!(task.accesses(), 47_000);
/// assert!(task.requirements().at(Mode::NORMAL).is_some());
/// # Ok::<(), cohort_types::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    name: String,
    criticality: Criticality,
    accesses: u64,
    requirements: Requirements,
}

impl Task {
    /// Creates a task with no WCML requirements.
    #[must_use]
    pub fn new(name: impl Into<String>, criticality: Criticality, accesses: u64) -> Self {
        Task { name: name.into(), criticality, accesses, requirements: Requirements::new() }
    }

    /// Builder-style: adds a WCML budget for `mode`.
    #[must_use]
    pub fn with_requirement(mut self, mode: Mode, budget: Cycles) -> Self {
        self.requirements.set(mode, budget);
        self
    }

    /// Returns the task's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the task's criticality level `l_j`.
    #[must_use]
    pub fn criticality(&self) -> Criticality {
        self.criticality
    }

    /// Returns the total number of memory accesses `Λ_j`.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Returns the per-mode requirement table.
    #[must_use]
    pub fn requirements(&self) -> &Requirements {
        &self.requirements
    }

    /// Validates the task against a system with `levels` criticality levels.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LevelOutOfRange`] if the task's criticality exceeds
    /// the number of levels the system supports.
    pub fn validate(&self, levels: u32) -> Result<()> {
        if self.criticality.level() > levels {
            return Err(Error::LevelOutOfRange { value: self.criticality.level(), max: levels });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mode(i: u32) -> Mode {
        Mode::new(i).unwrap()
    }

    #[test]
    fn requirements_inherit_downward_from_lower_modes() {
        let mut reqs = Requirements::new();
        reqs.set(mode(2), Cycles::new(100));
        assert_eq!(reqs.at(mode(1)), None, "mode below first entry is unconstrained");
        assert_eq!(reqs.at(mode(2)), Some(Cycles::new(100)));
        assert_eq!(reqs.at(mode(5)), Some(Cycles::new(100)));
    }

    #[test]
    fn uniform_constrains_all_modes() {
        let mut reqs = Requirements::new();
        reqs.set(Mode::NORMAL, Cycles::new(42));
        for m in 1..=5 {
            assert_eq!(reqs.at(mode(m)), Some(Cycles::new(42)));
        }
    }

    #[test]
    fn later_entries_override() {
        let mut reqs = Requirements::new();
        reqs.set(mode(1), Cycles::new(200));
        reqs.set(mode(3), Cycles::new(120));
        assert_eq!(reqs.at(mode(2)), Some(Cycles::new(200)));
        assert_eq!(reqs.at(mode(3)), Some(Cycles::new(120)));
        assert_eq!(reqs.at(mode(4)), Some(Cycles::new(120)));
    }

    #[test]
    fn task_builder_and_accessors() {
        let t = Task::new("fft", Criticality::new(3).unwrap(), 47_000)
            .with_requirement(Mode::NORMAL, Cycles::new(1_000));
        assert_eq!(t.name(), "fft");
        assert_eq!(t.criticality().level(), 3);
        assert_eq!(t.accesses(), 47_000);
        assert_eq!(t.requirements().at(mode(2)), Some(Cycles::new(1_000)));
    }

    #[test]
    fn validate_rejects_out_of_range_criticality() {
        let t = Task::new("x", Criticality::new(6).unwrap(), 1);
        assert!(t.validate(5).is_err());
        assert!(t.validate(6).is_ok());
    }

    #[test]
    fn iter_returns_sorted_modes() {
        let mut reqs = Requirements::new();
        reqs.set(mode(3), Cycles::new(3));
        reqs.set(mode(1), Cycles::new(1));
        let collected: Vec<_> = reqs.iter().collect();
        assert_eq!(collected, vec![(mode(1), Cycles::new(1)), (mode(3), Cycles::new(3))]);
    }
}
