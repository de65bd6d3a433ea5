//! Fixed-priority response-time analysis (RTA) on top of WCML bounds.
//!
//! The paper takes each task's WCML requirement Γ as an input; in a real
//! integration those budgets come out of a schedulability analysis: a
//! task's worst-case execution time is its compute time plus its
//! worst-case memory latency, and the classic response-time recurrence
//!
//! ```text
//! R_i = C_i + Σ_{j ∈ hp(i)} ⌈R_i / T_j⌉ · C_j,    C_i = compute_i + WCML_i
//! ```
//!
//! decides whether every task meets its deadline. This module closes that
//! loop: plug the Eq. 2/3 WCML bound into `C_i`, run the fixed point, and
//! read off how much memory budget a task could still afford — the Γ that
//! the timer optimizer then enforces.

use cohort_types::{Cycles, Error, Result};

/// A periodic task under fixed-priority preemptive scheduling on one core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeriodicTask {
    /// Task name (reporting only).
    pub name: String,
    /// Period = implicit deadline, in cycles.
    pub period: Cycles,
    /// Pure compute WCET, excluding memory (cycles).
    pub compute: Cycles,
    /// Worst-case memory latency of one job (the Eq. 2/3 bound).
    pub wcml: Cycles,
}

impl PeriodicTask {
    /// Creates a task.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the period is zero.
    pub fn new(name: impl Into<String>, period: u64, compute: u64, wcml: u64) -> Result<Self> {
        if period == 0 {
            return Err(Error::InvalidConfig("a task period must be positive".into()));
        }
        Ok(PeriodicTask {
            name: name.into(),
            period: Cycles::new(period),
            compute: Cycles::new(compute),
            wcml: Cycles::new(wcml),
        })
    }

    /// Whole-job WCET: compute plus worst-case memory latency.
    #[must_use]
    fn wcet(&self) -> Cycles {
        self.compute + self.wcml
    }
}

/// Computes the worst-case response time of every task, highest priority
/// first (`tasks[0]` preempts everyone). `None` marks a task whose fixed
/// point exceeds its period — unschedulable.
///
/// # Examples
///
/// ```
/// use cohort_analysis::{response_times, PeriodicTask};
///
/// let tasks = vec![
///     PeriodicTask::new("airbag", 1_000, 150, 100)?,     // highest priority
///     PeriodicTask::new("lane-keep", 5_000, 800, 700)?,
///     PeriodicTask::new("logger", 20_000, 9_000, 6_000)?, // does not fit
/// ];
/// let r = response_times(&tasks)?;
/// assert_eq!(r[0], Some(cohort_types::Cycles::new(250)));
/// assert!(r[1].is_some());
/// assert_eq!(r[2], None, "the logger overruns its period");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] if `tasks` is empty.
pub fn response_times(tasks: &[PeriodicTask]) -> Result<Vec<Option<Cycles>>> {
    if tasks.is_empty() {
        return Err(Error::InvalidConfig("RTA needs at least one task".into()));
    }
    let mut results = Vec::with_capacity(tasks.len());
    for (i, task) in tasks.iter().enumerate() {
        let own = task.wcet().get();
        let mut r = own;
        let response = loop {
            if r > task.period.get() {
                break None; // deadline (= period) missed
            }
            let interference: u64 =
                tasks[..i].iter().map(|hp| r.div_ceil(hp.period.get()) * hp.wcet().get()).sum();
            let next = own + interference;
            if next == r {
                break Some(Cycles::new(r));
            }
            r = next;
        };
        results.push(response);
    }
    Ok(results)
}

/// Returns `true` if every task meets its deadline.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] if `tasks` is empty.
pub fn is_schedulable(tasks: &[PeriodicTask]) -> Result<bool> {
    Ok(response_times(tasks)?.iter().all(Option::is_some))
}

/// The largest WCML budget Γ the task at `index` can afford while the task
/// set stays schedulable (all other parameters fixed) — the quantity a
/// system integrator hands to the timer optimizer as the task's
/// requirement. `None` if the set is unschedulable even with zero memory
/// latency for that task.
///
/// # Examples
///
/// ```
/// use cohort_analysis::{max_affordable_wcml, PeriodicTask};
///
/// let mut tasks = vec![
///     PeriodicTask::new("control", 10_000, 2_000, 1_000)?,
///     PeriodicTask::new("vision", 40_000, 10_000, 4_000)?,
/// ];
/// let budget = max_affordable_wcml(&mut tasks, 1)?.expect("schedulable");
/// // The found budget is tight: one more cycle breaks schedulability.
/// assert!(budget.get() >= 4_000, "at least the current WCML fits");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Returns [`Error::UnknownCore`] for an out-of-range index and
/// [`Error::InvalidConfig`] for an empty set.
pub fn max_affordable_wcml(tasks: &mut [PeriodicTask], index: usize) -> Result<Option<Cycles>> {
    if index >= tasks.len() {
        return Err(Error::UnknownCore { index, cores: tasks.len() });
    }
    let original = tasks[index].wcml;
    let feasible = |tasks: &mut [PeriodicTask], wcml: u64| -> Result<bool> {
        tasks[index].wcml = Cycles::new(wcml);
        let ok = is_schedulable(tasks)?;
        Ok(ok)
    };
    let result = (|| -> Result<Option<Cycles>> {
        if !feasible(tasks, 0)? {
            return Ok(None);
        }
        // Budgets are bounded by the task's own period.
        let (mut lo, mut hi) = (0u64, tasks[index].period.get());
        if feasible(tasks, hi)? {
            return Ok(Some(Cycles::new(hi)));
        }
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if feasible(tasks, mid)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(Some(Cycles::new(lo)))
    })();
    tasks[index].wcml = original;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(period: u64, compute: u64, wcml: u64) -> PeriodicTask {
        PeriodicTask::new("t", period, compute, wcml).unwrap()
    }

    #[test]
    fn classic_two_task_example() {
        // R0 = 3; R1 = 5 + ⌈R1/10⌉·3 → 8.
        let tasks = vec![task(10, 2, 1), task(20, 3, 2)];
        let r = response_times(&tasks).unwrap();
        assert_eq!(r[0], Some(Cycles::new(3)));
        assert_eq!(r[1], Some(Cycles::new(8)));
        assert!(is_schedulable(&tasks).unwrap());
    }

    #[test]
    fn interference_crossing_a_period_boundary() {
        // Low task's response crosses the high task's second release.
        let tasks = vec![task(10, 4, 0), task(30, 8, 0)];
        let r = response_times(&tasks).unwrap();
        // R1: 8 + ⌈8/10⌉·4 = 12 → 8 + ⌈12/10⌉·4 = 16 → 8 + 8 = 16 ✓.
        assert_eq!(r[1], Some(Cycles::new(16)));
    }

    #[test]
    fn overload_is_unschedulable() {
        let tasks = vec![task(10, 6, 0), task(10, 6, 0)];
        let r = response_times(&tasks).unwrap();
        assert_eq!(r[0], Some(Cycles::new(6)));
        assert_eq!(r[1], None);
        assert!(!is_schedulable(&tasks).unwrap());
    }

    #[test]
    fn wcml_counts_toward_wcet() {
        let light = vec![task(100, 30, 0), task(100, 30, 0)];
        assert!(is_schedulable(&light).unwrap());
        let heavy = vec![task(100, 30, 30), task(100, 30, 30)];
        assert!(!is_schedulable(&heavy).unwrap(), "memory latency tips the set over");
    }

    #[test]
    fn affordable_budget_is_tight() {
        let mut tasks = vec![task(100, 20, 10), task(400, 60, 50)];
        let budget = max_affordable_wcml(&mut tasks, 1).unwrap().unwrap();
        // Restored state.
        assert_eq!(tasks[1].wcml, Cycles::new(50));
        // The budget is feasible, budget+1 is not.
        tasks[1].wcml = budget;
        assert!(is_schedulable(&tasks).unwrap());
        tasks[1].wcml = budget + Cycles::new(1);
        assert!(!is_schedulable(&tasks).unwrap());
    }

    #[test]
    fn hopeless_task_reports_none() {
        let mut tasks = vec![task(10, 9, 0), task(100, 95, 0)];
        assert_eq!(max_affordable_wcml(&mut tasks, 1).unwrap(), None);
        assert!(max_affordable_wcml(&mut tasks, 5).is_err());
    }

    #[test]
    fn validation() {
        assert!(PeriodicTask::new("x", 0, 1, 1).is_err());
        assert!(response_times(&[]).is_err());
    }

    #[test]
    fn wcet_adds_compute_and_memory() {
        assert_eq!(task(100, 25, 25).wcet(), Cycles::new(50));
    }
}
