//! Conviction minimization: from a convicting seed to a reproducible
//! counterexample workload.
//!
//! When a certification campaign convicts, the seed alone is already a
//! reproduction recipe — but a reviewer wants the *smallest* workload that
//! still convicts. The minimizer re-runs the convicting trial, exports the
//! conviction's prefix through `cohort-verif`'s
//! [`workload_from_violation`], then greedily shrinks the tail while the
//! conviction (same violation kind) still reproduces under
//! [`cohort::run_with_watchdog`]. The result is double-checked: the
//! minimized workload replays **clean** through the faithful engine via
//! [`replay_workload`] (proving the violation is fault-induced, not a
//! protocol bug) and **re-convicts** under the original fault plan
//! (proving the counterexample is reproducible).

use serde_json::{json, Value};

use cohort::{run_with_watchdog, WatchdogPolicy};
use cohort_sim::WcmlViolationKind;
use cohort_trace::{Trace, Workload};
use cohort_types::Result;
use cohort_verif::{replay_workload, workload_from_violation};

use crate::trial::FaultCampaignSpace;

/// A minimized, double-checked counterexample.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// The convicting seed.
    pub seed: u64,
    /// The violation kind the conviction and its reproductions share.
    pub kind: WcmlViolationKind,
    /// Accesses in the original trial workload.
    pub original_accesses: u64,
    /// Accesses after the prefix cut at the violation.
    pub exported_accesses: u64,
    /// Accesses after greedy shrinking.
    pub minimized_accesses: u64,
    /// Whether the minimized workload replays clean through the faithful
    /// engine (no fault plan — the violation is fault-induced).
    pub replay_clean: bool,
    /// Accesses the faithful replay completed.
    pub replay_accesses: u64,
    /// Whether the minimized workload still convicts (same kind) under the
    /// original seeded fault plan.
    pub reconvicts: bool,
    /// The minimized workload itself, as a `cohort-trace` JSON document.
    pub workload: Value,
}

impl Counterexample {
    /// The JSON document written under `results/`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        json!({
            "seed": self.seed,
            "kind": self.kind.slug(),
            "original_accesses": self.original_accesses,
            "exported_accesses": self.exported_accesses,
            "minimized_accesses": self.minimized_accesses,
            "replay_clean": self.replay_clean,
            "replay_accesses": self.replay_accesses,
            "reconvicts": self.reconvicts,
            "workload": self.workload.clone(),
        })
    }
}

/// Whether `workload` still convicts with `kind` under the seed's plan.
fn still_convicts(
    space: &FaultCampaignSpace,
    seed: u64,
    workload: &Workload,
    kind: WcmlViolationKind,
) -> bool {
    run_with_watchdog(
        space.config().expect("space validated by the original trial"),
        workload,
        &space.lut().expect("space validated by the original trial"),
        space.plan(seed),
        &WatchdogPolicy::default(),
    )
    .is_ok_and(|report| report.violations.iter().any(|v| v.kind == kind))
}

/// Drops the last `step` ops from every trace (traces shorter than `step`
/// become empty); `None` when nothing would change.
fn shrunk(workload: &Workload, step: usize) -> Option<Workload> {
    if workload.traces().iter().all(|t| t.ops().is_empty()) {
        return None;
    }
    let traces: Vec<Trace> = workload
        .traces()
        .iter()
        .map(|t| {
            let keep = t.ops().len().saturating_sub(step);
            Trace::from_ops(t.ops()[..keep].to_vec())
        })
        .collect();
    if traces.iter().map(|t| t.ops().len() as u64).sum::<u64>() == workload.total_accesses() {
        return None;
    }
    Workload::new(workload.name(), traces).ok()
}

/// Minimizes the conviction of `(space, seed)` into a reproducible
/// counterexample, or `None` if the seed does not convict.
///
/// # Errors
///
/// Propagates simulator errors from the initial trial run or the faithful
/// replay.
pub(crate) fn minimize_conviction(
    space: &FaultCampaignSpace,
    seed: u64,
) -> Result<Option<Counterexample>> {
    let config = space.config()?;
    let workload = space.workload(seed);
    let report = run_with_watchdog(
        config.clone(),
        &workload,
        &space.lut()?,
        space.plan(seed),
        &WatchdogPolicy::default(),
    )?;
    let Some(violation) = report.violations.first().cloned() else {
        return Ok(None);
    };

    // Prefix-cut at the violation through the verif harness, then greedily
    // shrink the tail while the same violation kind still reproduces.
    let exported = workload_from_violation(&workload, &violation);
    let exported_accesses = exported.total_accesses();
    let mut current = exported;
    let mut step = (current.total_accesses() as usize / 2).max(1);
    loop {
        let candidate = shrunk(&current, step);
        match candidate {
            Some(c) if still_convicts(space, seed, &c, violation.kind) => {
                current = c;
            }
            _ if step > 1 => step = (step / 2).max(1),
            _ => break,
        }
    }

    // Double-check 1: the faithful engine (no faults) replays it clean.
    let replay = replay_workload(config, &current)?;
    // Double-check 2: the original fault plan still convicts on it.
    let reconvicts = still_convicts(space, seed, &current, violation.kind);

    let codec = cohort_trace::codec::to_json(&current)?;
    let workload_doc = serde_json::from_str::<Value>(&codec)
        .map_err(|e| cohort_types::Error::Codec(format!("minimized workload re-parse: {e}")))?;
    Ok(Some(Counterexample {
        seed,
        kind: violation.kind,
        original_accesses: workload.total_accesses(),
        exported_accesses,
        minimized_accesses: current.total_accesses(),
        replay_clean: replay.engine_is_clean(),
        replay_accesses: replay.stats.total_accesses(),
        reconvicts,
        workload: workload_doc,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A campaign family guaranteed to convict: seed 1 of the default
    /// space injects two seeded faults; if it happens not to convict, walk
    /// forward until one does (deterministically — the walk is part of the
    /// test).
    fn convicting_seed(space: &FaultCampaignSpace) -> u64 {
        (1..200)
            .find(|&seed| {
                !space.is_control(seed) && space.run_trial(seed).is_ok_and(|o| o.violations > 0)
            })
            .expect("some seed in the first 200 convicts")
    }

    #[test]
    fn convictions_minimize_to_reproducible_counterexamples() {
        let space = FaultCampaignSpace::default();
        let seed = convicting_seed(&space);
        let counterexample = minimize_conviction(&space, seed)
            .expect("minimization completes")
            .expect("the seed convicts");
        assert!(counterexample.minimized_accesses <= counterexample.exported_accesses);
        assert!(counterexample.exported_accesses <= counterexample.original_accesses);
        assert!(counterexample.reconvicts, "the minimized workload must still convict");
        assert!(
            counterexample.replay_clean,
            "the faithful engine must replay the counterexample clean"
        );
        // Determinism: minimizing twice yields the identical counterexample.
        let again = minimize_conviction(&space, seed)
            .expect("minimization completes")
            .expect("the seed convicts");
        assert_eq!(counterexample, again);
    }

    #[test]
    fn clean_seeds_do_not_minimize() {
        let space = FaultCampaignSpace::default();
        assert!(space.is_control(0));
        assert!(minimize_conviction(&space, 0).expect("runs").is_none());
    }
}
