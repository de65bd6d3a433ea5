//! Seeded trial samplers: the Monte Carlo population.
//!
//! Each trial is a pure function of `(space, seed)`. A **fault trial**
//! materializes a contended workload, a degradation LUT and a seeded
//! [`FaultPlan`], then drives the whole stack through
//! [`cohort::run_with_watchdog`]; every `clean_every`-th seed runs the
//! *control arm* (an empty plan) whose convictions — there should be none —
//! measure the watchdog's false-conviction rate. A **schedulability trial**
//! samples a random periodic task set at a seeded utilisation level and
//! asks [`cohort_analysis::is_schedulable`], building the paper's
//! schedulability curves from population-scale samples instead of
//! hand-sized batches.

use cohort::{run_with_watchdog, ModeSwitchLut, WatchdogPolicy};
use cohort_analysis::{is_schedulable, PeriodicTask};
use cohort_sim::{FaultPlan, SimConfig};
use cohort_trace::{AccessKind, Trace, TraceOp, Workload};
use cohort_types::{splitmix64, Cycles, FingerprintBuilder, LineAddr, Result, TimerValue};

/// The sampling space of one fault-injection campaign family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCampaignSpace {
    /// Cores in the simulated machine (all time-based in mode 1).
    pub cores: usize,
    /// The θ programmed for every core in the normal mode.
    pub theta: u64,
    /// Accesses per core trace.
    pub ops: usize,
    /// Mean inter-access gap in cycles (jittered per seed).
    pub gap: u64,
    /// Distinct shared lines the traces contend on.
    pub lines: u64,
    /// Faults injected per (non-control) trial.
    pub fault_count: usize,
    /// Injection window in cycles for the seeded plan.
    pub horizon: u64,
    /// Every `clean_every`-th seed runs the empty-plan control arm
    /// (`0` disables the control arm entirely).
    pub clean_every: u64,
}

impl Default for FaultCampaignSpace {
    fn default() -> Self {
        FaultCampaignSpace {
            cores: 2,
            theta: 50,
            ops: 32,
            gap: 90,
            lines: 4,
            fault_count: 2,
            horizon: 1_500,
            clean_every: 4,
        }
    }
}

impl FaultCampaignSpace {
    /// Folds every outcome-determining field into a fingerprint.
    #[must_use]
    pub fn digest(&self, b: FingerprintBuilder) -> FingerprintBuilder {
        b.u64(self.cores as u64)
            .u64(self.theta)
            .u64(self.ops as u64)
            .u64(self.gap)
            .u64(self.lines)
            .u64(self.fault_count as u64)
            .u64(self.horizon)
            .u64(self.clean_every)
    }

    /// Whether `seed` belongs to the control arm (empty fault plan).
    #[must_use]
    pub(crate) fn is_control(&self, seed: u64) -> bool {
        self.clean_every != 0 && seed.is_multiple_of(self.clean_every)
    }

    /// The simulated platform: all cores time-based at `theta`.
    ///
    /// # Errors
    ///
    /// Returns an error for a θ outside the 16-bit timer range or an
    /// invalid core count.
    pub fn config(&self) -> Result<SimConfig> {
        let theta = TimerValue::timed(self.theta)?;
        SimConfig::builder(self.cores).timers(vec![theta; self.cores]).build()
    }

    /// The degradation LUT: mode 1 keeps every core time-based; each
    /// further mode degrades one more core (highest index first) to MSI —
    /// the §VI escalation ladder.
    ///
    /// # Errors
    ///
    /// Returns an error for a θ outside the 16-bit timer range.
    pub fn lut(&self) -> Result<ModeSwitchLut> {
        let theta = TimerValue::timed(self.theta)?;
        let rows = (0..self.cores)
            .map(|degraded| {
                (0..self.cores)
                    .map(|core| if core + degraded >= self.cores { TimerValue::MSI } else { theta })
                    .collect()
            })
            .collect();
        ModeSwitchLut::new(rows)
    }

    /// The seeded contended workload of one trial: every core issues
    /// `ops` accesses over the shared `lines` with per-seed line choice,
    /// load/store mix and gap jitter.
    #[must_use]
    pub fn workload(&self, seed: u64) -> Workload {
        let traces = (0..self.cores)
            .map(|core| {
                let ops = (0..self.ops)
                    .map(|i| {
                        let stream = (core as u64) << 32 | i as u64;
                        let v = splitmix64(seed, stream);
                        let line = LineAddr::new(1 + v % self.lines.max(1));
                        let kind =
                            if v >> 16 & 0xff < 154 { AccessKind::Store } else { AccessKind::Load };
                        let gap = self.gap / 2 + (v >> 24) % self.gap.max(1);
                        TraceOp::new(line, kind, Cycles::new(gap))
                    })
                    .collect();
                Trace::from_ops(ops)
            })
            .collect();
        Workload::new("cert-fault-trial", traces).expect("at least one core trace")
    }

    /// The seeded fault plan — empty for control seeds, otherwise
    /// `fault_count` faults drawn by `FaultPlan::seeded`.
    #[must_use]
    pub fn plan(&self, seed: u64) -> FaultPlan {
        if self.is_control(seed) {
            FaultPlan::empty()
        } else {
            FaultPlan::seeded(seed, self.cores, self.horizon, self.fault_count)
        }
    }

    /// Runs one seeded trial end-to-end and compresses the
    /// [`cohort::DegradationReport`] into a streaming-friendly outcome —
    /// the per-run report is dropped on the floor by design.
    ///
    /// # Errors
    ///
    /// Propagates simulator configuration or deadlock errors.
    pub(crate) fn run_trial(&self, seed: u64) -> Result<FaultTrialOutcome> {
        let report = run_with_watchdog(
            self.config()?,
            &self.workload(seed),
            &self.lut()?,
            self.plan(seed),
            &WatchdogPolicy::default(),
        )?;
        Ok(FaultTrialOutcome {
            control: self.is_control(seed),
            faults_fired: report.faults.len(),
            violations: report.violations_total(),
            machine_violations: report.machine_violations,
            switched: !report.switches.is_empty(),
            post_switch_compliant: report.post_switch.map(|p| p.compliant),
            detection_latency: report.detection_latency,
        })
    }
}

/// The compressed outcome of one fault trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTrialOutcome {
    /// Whether the trial ran the empty-plan control arm.
    pub control: bool,
    /// Faults the engine actually applied.
    pub faults_fired: usize,
    /// Convictions of any kind.
    pub violations: u64,
    /// Convictions that named no core (machine bucket).
    pub machine_violations: u64,
    /// Whether the driver escalated at least once.
    pub switched: bool,
    /// Post-switch Eq. 1 compliance of the tail, when a switch was taken.
    pub post_switch_compliant: Option<bool>,
    /// Cycles from first injected fault to first conviction.
    pub detection_latency: Option<u64>,
}

impl FaultTrialOutcome {
    /// Whether the watchdog convicted anything at all.
    #[must_use]
    pub fn convicted(&self) -> bool {
        self.violations > 0
    }
}

/// The sampling space of the random task-set schedulability study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedSpace {
    /// Tasks per sampled set.
    pub tasks: usize,
    /// Minimum task period in cycles.
    pub period_min: u64,
    /// Maximum task period in cycles.
    pub period_max: u64,
    /// Lower edge of the sampled total-utilisation range, in percent.
    pub util_min_pct: u64,
    /// Upper edge of the sampled total-utilisation range, in percent
    /// (beyond 100 the curve must collapse to zero — that collapse is part
    /// of the evidence).
    pub util_max_pct: u64,
    /// Each task's WCML budget is sampled up to this fraction of its
    /// compute time, in percent.
    pub wcml_max_pct: u64,
    /// Width of one utilisation bucket of the output curve, in percent.
    pub bucket_pct: u64,
}

impl Default for SchedSpace {
    fn default() -> Self {
        SchedSpace {
            tasks: 4,
            period_min: 1_000,
            period_max: 80_000,
            util_min_pct: 10,
            util_max_pct: 149,
            wcml_max_pct: 50,
            bucket_pct: 20,
        }
    }
}

impl SchedSpace {
    /// Folds every outcome-determining field into a fingerprint.
    #[must_use]
    pub fn digest(&self, b: FingerprintBuilder) -> FingerprintBuilder {
        b.u64(self.tasks as u64)
            .u64(self.period_min)
            .u64(self.period_max)
            .u64(self.util_min_pct)
            .u64(self.util_max_pct)
            .u64(self.wcml_max_pct)
            .u64(self.bucket_pct)
    }

    /// Samples one task set and the utilisation level it was drawn at.
    ///
    /// # Errors
    ///
    /// Returns an error if the space produces a zero period (impossible
    /// for `period_min >= 1`).
    pub fn sample(&self, seed: u64) -> Result<(u64, Vec<PeriodicTask>)> {
        let util_span = self.util_max_pct.saturating_sub(self.util_min_pct) + 1;
        let util_pct = self.util_min_pct + splitmix64(seed, 0) % util_span;
        let period_span = self.period_max.saturating_sub(self.period_min) + 1;
        let weights: Vec<u64> =
            (0..self.tasks).map(|i| 1 + splitmix64(seed, 64 + i as u64) % 997).collect();
        let weight_sum: u64 = weights.iter().sum();
        let mut tasks = Vec::with_capacity(self.tasks);
        for (i, &weight) in weights.iter().enumerate() {
            let period = self.period_min + splitmix64(seed, 1 + i as u64) % period_span;
            // This task's share of the total utilisation, in basis points.
            let share_bp = util_pct * 100 * weight / weight_sum;
            let compute = (period * share_bp / 10_000).max(1);
            let wcml = compute * (splitmix64(seed, 128 + i as u64) % (self.wcml_max_pct + 1)) / 100;
            tasks.push(PeriodicTask::new(format!("t{i}"), period, compute, wcml)?);
        }
        Ok((util_pct, tasks))
    }

    /// Runs one seeded schedulability trial.
    ///
    /// # Errors
    ///
    /// Propagates task-construction or RTA errors.
    pub(crate) fn run_trial(&self, seed: u64) -> Result<SchedTrialOutcome> {
        let (util_pct, tasks) = self.sample(seed)?;
        Ok(SchedTrialOutcome { util_pct, schedulable: is_schedulable(&tasks)? })
    }
}

/// The outcome of one schedulability trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedTrialOutcome {
    /// The total-utilisation level the set was drawn at, in percent.
    pub util_pct: u64,
    /// Whether every task met its deadline under RTA.
    pub schedulable: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_the_workspace_splitmix() {
        assert_ne!(splitmix64(1, 0), splitmix64(1, 1));
        assert_eq!(splitmix64(42, 7), splitmix64(42, 7));
    }

    #[test]
    fn fault_trials_are_pure_functions_of_the_seed() {
        let space = FaultCampaignSpace::default();
        for seed in [0, 1, 13] {
            let a = space.run_trial(seed).expect("trial runs");
            let b = space.run_trial(seed).expect("trial runs");
            assert_eq!(a, b);
        }
    }

    #[test]
    fn control_seeds_run_the_empty_plan() {
        let space = FaultCampaignSpace::default();
        assert!(space.is_control(0));
        assert!(!space.is_control(1));
        assert!(space.plan(0).specs().is_empty());
        assert_eq!(space.plan(1).specs().len(), space.fault_count);
        let outcome = space.run_trial(0).expect("control trial runs");
        assert!(outcome.control);
        assert_eq!(outcome.faults_fired, 0);
        assert_eq!(outcome.violations, 0, "a fault-free run must not convict");
    }

    #[test]
    fn sched_trials_are_pure_and_cover_the_utilisation_range() {
        let space = SchedSpace::default();
        for seed in 0..50u64 {
            let a = space.run_trial(seed).expect("trial runs");
            let b = space.run_trial(seed).expect("trial runs");
            assert_eq!(a, b);
            assert!(a.util_pct >= space.util_min_pct && a.util_pct <= space.util_max_pct);
        }
    }

    #[test]
    fn overload_is_unschedulable_and_light_load_is_schedulable() {
        let space = SchedSpace::default();
        let mut low = 0u64;
        let mut high = 0u64;
        for seed in 0..400u64 {
            let outcome = space.run_trial(seed).expect("trial runs");
            if outcome.util_pct < 40 && outcome.schedulable {
                low += 1;
            }
            if outcome.util_pct > 130 && !outcome.schedulable {
                high += 1;
            }
        }
        assert!(low > 0, "light task sets must sometimes be schedulable");
        assert!(high > 0, "overloaded task sets must be rejected");
    }
}
