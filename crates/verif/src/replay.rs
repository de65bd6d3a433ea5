//! Counterexample replay: converts an abstract model-checker event trace
//! into a concrete [`cohort_trace::Workload`] and re-runs it through the
//! real cycle-accurate engine with the online [`InvariantProbe`] attached
//! and the engine's deep coherence validator sampled along the way.
//!
//! The abstraction gap means the replay is an *approximation* of the
//! abstract schedule, not a bit-exact reproduction: the model has no
//! clock, so event ordering is re-imposed by spacing each core's accesses
//! with compute gaps proportional to the event's global position in the
//! trace, and abstract `Evict` events become loads of a conflicting line
//! that maps to the same set of the direct-mapped L1. `TimerExpire` and
//! `ServeHead` need no concrete counterpart — the engine's own countdown
//! and bus do those.
//!
//! Replaying a *mutated* counterexample through the *faithful* engine must
//! come back clean: that is the point — the engine does not contain the
//! bug the mutation injected, and the probe + validator confirm it.

use cohort_sim::{
    InvariantProbe, InvariantViolation, SimBuilder, SimConfig, SimStats, WcmlViolation,
};
use cohort_trace::{Trace, TraceOp, Workload};
use cohort_types::{Cycles, Result, TimerValue};

use crate::model::{ModelConfig, ModelEvent, ThetaClass};

/// Representative θ used for [`ThetaClass::Timed`] cores at replay time.
const REPLAY_THETA: u64 = 4;

/// Cycle spacing between consecutive abstract events in the replayed
/// schedule. Larger than the worst-case single-transfer latency so the
/// concrete interleaving tracks the abstract order.
const EVENT_STRIDE: u64 = 200;

/// Number of sets of the paper's 16 KiB direct-mapped L1: a load of
/// `line + L1_SETS` conflicts with `line` and evicts it.
const L1_SETS: u64 = 256;

/// Outcome of replaying one abstract trace through the real engine.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The synthesised concrete workload (a valid `cohort-trace` input).
    pub workload: Workload,
    /// Engine statistics of the replay run.
    pub stats: SimStats,
    /// Violations the online probe observed (empty for the faithful
    /// engine).
    pub probe_violations: Vec<InvariantViolation>,
    /// Result of the engine's own deep coherence scan, sampled during and
    /// after the run.
    pub engine_state: core::result::Result<(), String>,
    /// Number of concrete memory accesses the replay executed.
    pub accesses: u64,
}

impl ReplayOutcome {
    /// Whether the faithful engine survived the counterexample schedule
    /// with no probe violations and a clean deep-state scan.
    #[must_use]
    pub fn engine_is_clean(&self) -> bool {
        self.probe_violations.is_empty() && self.engine_state.is_ok()
    }
}

/// Maps an abstract line index to a concrete [`cohort_types::LineAddr`]
/// raw value (offset by one so line 0 is not the all-zeros address).
#[must_use]
const fn concrete_line(line: u8) -> u64 {
    line as u64 + 1
}

/// Maps an abstract theta class to a concrete timer register value.
///
/// # Panics
///
/// Never panics: [`REPLAY_THETA`] is within the 16-bit timer range.
#[must_use]
fn concrete_timer(theta: ThetaClass) -> TimerValue {
    match theta {
        ThetaClass::Msi => TimerValue::Msi,
        ThetaClass::Zero => TimerValue::timed(0).expect("0 is a valid theta"),
        ThetaClass::Timed => TimerValue::timed(REPLAY_THETA).expect("REPLAY_THETA is in range"),
    }
}

/// Converts an abstract event trace into per-core concrete traces.
///
/// Each core's ops are spaced so that op `k` of the global trace targets
/// issue time `k × EVENT_STRIDE`, approximating the abstract interleaving
/// on the real (clocked, arbitrated) bus.
#[must_use]
fn workload_from_trace(config: &ModelConfig, trace: &[ModelEvent]) -> Workload {
    let cores = config.cores();
    let mut ops: Vec<Vec<TraceOp>> = vec![Vec::new(); cores];
    // Global target issue cycle of each core's previous access; gaps are
    // issued relative to the previous access's *completion*, so spacing by
    // target-delta keeps ordering approximately right while never going
    // negative.
    let mut last_target: Vec<u64> = vec![0; cores];

    for (step, event) in trace.iter().enumerate() {
        let target = (step as u64 + 1) * EVENT_STRIDE;
        let (core, op) = match *event {
            ModelEvent::Load { core, line } => (core, TraceOp::load(concrete_line(line))),
            ModelEvent::Store { core, line } => (core, TraceOp::store(concrete_line(line))),
            // An eviction is forced by touching the conflicting line of the
            // same (direct-mapped) set.
            ModelEvent::Evict { core, line } => {
                (core, TraceOp::load(concrete_line(line) + L1_SETS))
            }
            // The engine's own countdown and bus provide these.
            ModelEvent::TimerExpire { .. } | ModelEvent::ServeHead { .. } => continue,
        };
        let cu = usize::from(core);
        let gap = target.saturating_sub(last_target[cu]);
        ops[cu].push(op.after(gap));
        last_target[cu] = target;
    }

    let traces = ops.into_iter().map(Trace::from_ops).collect();
    Workload::new("verif-replay", traces).expect("at least one core")
}

/// Builds the concrete engine configuration matching `config`.
///
/// # Errors
///
/// Propagates configuration validation errors from the engine.
pub fn sim_config(config: &ModelConfig) -> Result<SimConfig> {
    SimConfig::builder(config.cores())
        .timers(config.thetas.iter().map(|&t| concrete_timer(t)).collect())
        .build()
}

/// Extracts the replayable prefix of `workload` that leads up to a runtime
/// watchdog conviction.
///
/// The watchdog ([`cohort_sim::WcmlGuard`]) detects a violation at an
/// absolute engine cycle; every access that can have participated in the
/// conviction was *issued* no later than that instant. A trace op's
/// nominal issue time — the sum of the compute gaps before it — is a lower
/// bound on its actual issue cycle, so keeping each core's ops with
/// nominal time ≤ `violation.at` retains the violating request itself and
/// everything that raced with it, while dropping the unrelated tail. The
/// result is a self-contained `cohort-trace` workload that can be re-run
/// through [`replay_workload`] (with or without the original fault plan)
/// to reproduce or clear the conviction.
#[must_use]
pub fn workload_from_violation(workload: &Workload, violation: &WcmlViolation) -> Workload {
    let horizon = violation.at.get();
    let traces = workload
        .traces()
        .iter()
        .map(|trace| {
            let mut nominal = 0u64;
            let mut kept = Vec::new();
            for op in trace.ops() {
                nominal = nominal.saturating_add(op.gap().get());
                if nominal > horizon {
                    break;
                }
                kept.push(*op);
            }
            Trace::from_ops(kept)
        })
        .collect();
    Workload::new("wcml-violation-replay", traces).expect("at least one core")
}

/// Replays an already-concrete workload through the real engine with the
/// [`InvariantProbe`] attached — the second half of [`replay`], exposed so
/// watchdog-exported workloads ([`workload_from_violation`]) go through
/// the exact same harness as model-checker counterexamples.
///
/// # Errors
///
/// Returns an error if the configuration is rejected or the engine fails
/// mid-run (never for invariant violations — those are reported in the
/// [`ReplayOutcome`]).
pub fn replay_workload(sim_cfg: SimConfig, workload: &Workload) -> Result<ReplayOutcome> {
    let mut sim = SimBuilder::new(sim_cfg, workload).probe(InvariantProbe::new()).build()?;

    let mut engine_state: core::result::Result<(), String> = Ok(());
    while !sim.is_finished() {
        let deadline = Cycles::new(sim.now().get() + EVENT_STRIDE);
        sim.run_until(deadline)?;
        if engine_state.is_ok() {
            engine_state = sim.validate_coherence();
        }
    }
    let stats = sim.stats().clone();
    if engine_state.is_ok() {
        engine_state = sim.validate_coherence();
    }
    let probe = sim.into_probe();
    let accesses = stats.cores.iter().map(cohort_sim::CoreStats::accesses).sum();

    Ok(ReplayOutcome {
        workload: workload.clone(),
        stats,
        probe_violations: probe.into_violations(),
        engine_state,
        accesses,
    })
}

/// Replays `trace` through the real engine with the [`InvariantProbe`]
/// attached, sampling the engine's deep coherence validator every
/// `EVENT_STRIDE` (200) cycles.
///
/// # Errors
///
/// Returns an error if the configuration is rejected or the engine fails
/// mid-run (never for invariant violations — those are reported in the
/// [`ReplayOutcome`]).
pub fn replay(config: &ModelConfig, trace: &[ModelEvent]) -> Result<ReplayOutcome> {
    let workload = workload_from_trace(config, trace);
    replay_workload(sim_config(config)?, &workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::explore;
    use crate::model::Mutation;

    fn timed_msi() -> ModelConfig {
        ModelConfig::new(&[ThetaClass::Timed, ThetaClass::Msi], 1)
    }

    #[test]
    fn trace_conversion_drops_internal_events_and_orders_ops() {
        let config = timed_msi();
        let trace = [
            ModelEvent::Store { core: 0, line: 0 },
            ModelEvent::ServeHead { line: 0 },
            ModelEvent::Store { core: 1, line: 0 },
            ModelEvent::TimerExpire { core: 0, line: 0 },
            ModelEvent::ServeHead { line: 0 },
        ];
        let workload = workload_from_trace(&config, &trace);
        assert_eq!(workload.cores(), 2);
        let t0 = &workload.traces()[0].ops();
        let t1 = &workload.traces()[1].ops();
        assert_eq!(t0.len(), 1, "internal events produce no ops");
        assert_eq!(t1.len(), 1);
        assert!(t0[0].kind().is_store());
        assert_eq!(t0[0].line.raw(), concrete_line(0));
        // c1's store is event 3 of the trace → spaced after c0's.
        assert!(t1[0].gap() > t0[0].gap());
    }

    #[test]
    fn evict_events_become_conflicting_line_loads() {
        let config = timed_msi();
        let trace = [ModelEvent::Evict { core: 0, line: 0 }];
        let workload = workload_from_trace(&config, &trace);
        let op = workload.traces()[0].ops()[0];
        assert!(op.kind().is_load());
        assert_eq!(op.line.raw(), concrete_line(0) + L1_SETS);
        assert_eq!(
            op.line.raw() % L1_SETS,
            concrete_line(0) % L1_SETS,
            "the victim load must map to the same L1 set"
        );
    }

    #[test]
    fn mutated_counterexample_replays_clean_through_the_faithful_engine() {
        let mutated = timed_msi().with_mutation(Mutation::IgnoreTimerProtection);
        let cx = explore(&mutated).counterexample.expect("the mutation must be caught");

        // Replay under the faithful configuration: the real engine does not
        // have the injected bug, so probe and deep validator stay clean.
        let outcome = replay(&timed_msi(), &cx.trace).expect("replay must run");
        assert!(outcome.accesses > 0, "the counterexample must exercise the engine");
        assert!(
            outcome.engine_is_clean(),
            "probe: {:?}, state: {:?}",
            outcome.probe_violations,
            outcome.engine_state
        );
    }

    #[test]
    fn watchdog_violation_exports_a_replayable_workload() {
        use cohort_sim::{FaultKind, FaultPlan, FaultSpec, SimProbe, WcmlGuard};

        // A corrupted θ register starves core 0 past its Eq. 1 bound; the
        // runtime watchdog convicts the latency violation online.
        let theta = TimerValue::timed(50).expect("θ fits");
        let config = || SimConfig::builder(2).timers(vec![theta; 2]).build().expect("valid config");
        // Long enough that the nominal span (gaps only) extends well past
        // the ~20 000-cycle detection instant, so a tail exists to drop.
        let ops = |gap| Trace::from_ops(vec![TraceOp::store(1).after(gap); 400]);
        let workload = Workload::new("chaos", vec![ops(150), ops(150)]).expect("two traces");
        let plan = FaultPlan::new(vec![FaultSpec {
            kind: FaultKind::TimerCorruption { value: TimerValue::timed(20_000).expect("θ fits") },
            core: 1,
            at: Cycles::new(10),
        }]);
        let mut sim = SimBuilder::new(config(), &workload)
            .probe(WcmlGuard::new())
            .faults(plan)
            .build()
            .expect("valid faulted sim");
        sim.run().expect("faulted run completes");
        let stats = sim.stats().clone();
        sim.probe_mut().on_finish(&stats);
        let violation = sim.probe().violations().first().expect("the fault convicts").clone();
        assert!(violation.latency > violation.bound);

        // Export: the conviction becomes a self-contained cohort-trace
        // workload — the violating request survives the prefix cut...
        let exported = workload_from_violation(&workload, &violation);
        assert_eq!(exported.cores(), 2);
        assert!(exported.total_accesses() > 0, "the window must keep the racing ops");
        assert!(
            exported.total_accesses() < workload.total_accesses(),
            "the unrelated tail is dropped"
        );
        let line = violation.line.expect("latency convictions carry the line");
        assert!(
            exported.traces().iter().any(|t| t.ops().iter().any(|op| op.line == line)),
            "the violating line stays exercised"
        );

        // ...and replays through the faithful (unfaulted) engine via the
        // same harness as model-checker counterexamples, coming back clean.
        let outcome = replay_workload(config(), &exported).expect("replay must run");
        assert!(outcome.accesses > 0);
        assert!(
            outcome.engine_is_clean(),
            "probe: {:?}, state: {:?}",
            outcome.probe_violations,
            outcome.engine_state
        );
    }

    #[test]
    fn all_mutations_produce_replayable_traces() {
        for mutation in Mutation::ALL {
            let cx = explore(&timed_msi().with_mutation(mutation))
                .counterexample
                .unwrap_or_else(|| panic!("{mutation} must be caught"));
            let outcome = replay(&timed_msi(), &cx.trace).expect("replay must run");
            assert!(
                outcome.engine_is_clean(),
                "{mutation}: probe {:?}, state {:?}",
                outcome.probe_violations,
                outcome.engine_state
            );
        }
    }
}
