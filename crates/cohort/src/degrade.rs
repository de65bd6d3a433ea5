//! Graceful degradation under fault: the runtime watchdog driver.
//!
//! [`run_with_watchdog`] closes the loop the paper's §VI leaves to the
//! platform: a [`WcmlGuard`] probe observes per-request latencies against
//! the Eq. 1 envelope (plus progress and externally checked coherence),
//! and when a core's convictions cross the policy threshold the driver
//! escalates the operational mode through the offline [`ModeSwitchLut`] —
//! degrading lower-criticality cores to MSI at runtime instead of
//! suspending anything. The whole episode is summarized in a structured
//! [`DegradationReport`] (faults injected, violations detected, detection
//! latency, switches taken, post-switch compliance) that serializes through
//! the same hand-built JSON path as the metrics reports.

use cohort_sim::{
    FaultPlan, InjectedFault, SimBuilder, SimConfig, SimStats, WcmlGuard, WcmlViolation,
    WcmlViolationKind,
};
use cohort_trace::Workload;
use cohort_types::{Cycles, Error, Mode, Result};

use crate::ModeSwitchLut;

/// Tunables of the degradation watchdog.
#[derive(Debug, Clone)]
pub struct WatchdogPolicy {
    /// How many cycles to simulate between watchdog polls.
    pub stride: u64,
    /// Convictions attributable to one core before the driver escalates.
    pub violation_threshold: u64,
    /// Hysteresis: after a switch, violations detected within this many
    /// cycles are recorded but not counted (the mode-change transient), and
    /// no further switch is taken inside the window.
    pub cooldown: u64,
    /// Re-promotion: step one mode back down after this many violation-free
    /// cycles (`None` = degradation is sticky, the §VI default).
    pub repromote_after: Option<u64>,
    /// Convict a progress violation when nothing observable happens for
    /// this many cycles while cores still have work (`None` = disabled).
    pub progress_timeout: Option<u64>,
    /// Deep-check [`cohort_sim::Simulator::validate_coherence`] at every poll and feed
    /// failures to the guard as coherence convictions.
    pub validate_coherence: bool,
    /// At most this many violations are kept verbatim in the report (the
    /// totals always count all of them).
    pub max_recorded_violations: usize,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        WatchdogPolicy {
            stride: 256,
            violation_threshold: 1,
            cooldown: 2_000,
            repromote_after: None,
            progress_timeout: None,
            validate_coherence: true,
            max_recorded_violations: 64,
        }
    }
}

/// One mode switch the driver took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchRecord {
    /// Cycle the switch was programmed for.
    pub at: u64,
    /// Outgoing mode index (1-based).
    pub from: u32,
    /// Incoming mode index (1-based).
    pub to: u32,
    /// The core whose convictions triggered the switch. `None` for a
    /// re-promotion (`to < from`) and for an escalation driven by
    /// machine-wide convictions that name no core (`to > from`), e.g. a
    /// failed coherence sweep.
    pub trigger: Option<usize>,
}

/// WCML compliance of the run's tail, after the last mode switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostSwitchCompliance {
    /// Cycle of the last switch.
    pub switch_at: u64,
    /// Requests completed after the switch.
    pub requests: u64,
    /// Latency-bound convictions of requests *issued* after the switch
    /// (the mode-change transient — in-flight old-θ windows — is excluded,
    /// as in the paper's mode-change argument).
    pub violations: u64,
    /// `requests > 0 && violations == 0`.
    pub compliant: bool,
}

/// Structured outcome of one watchdog-supervised run.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// Faults the plan scheduled.
    pub planned_faults: usize,
    /// The generating seed, for seeded plans.
    pub seed: Option<u64>,
    /// Faults the engine actually applied, in injection order.
    pub faults: Vec<InjectedFault>,
    /// Requests (fills) the guard observed.
    pub requests: u64,
    /// Final cycle of the run.
    pub cycles: u64,
    /// All convictions, by kind.
    pub latency_violations: u64,
    /// Progress convictions.
    pub progress_violations: u64,
    /// Coherence convictions.
    pub coherence_violations: u64,
    /// Convictions attributed to each core (index = core id). Machine-wide
    /// convictions that name no core never appear here;
    /// `core_violations.sum() + machine_violations == violations_total()`.
    pub core_violations: Vec<u64>,
    /// Machine-wide convictions carrying no core attribution (e.g. failed
    /// whole-machine coherence sweeps).
    pub machine_violations: u64,
    /// The first convictions, capped by the policy.
    pub violations: Vec<WcmlViolation>,
    /// Every switch the driver took, in order.
    pub switches: Vec<SwitchRecord>,
    /// Cycles from the first injected fault to the first conviction
    /// (`None` when either never happened).
    pub detection_latency: Option<u64>,
    /// The operational mode at the end of the run (1-based).
    pub final_mode: u32,
    /// Compliance of the tail after the last switch (`None` if no switch
    /// was taken).
    pub post_switch: Option<PostSwitchCompliance>,
    /// Final whole-run statistics.
    pub stats: SimStats,
}

impl DegradationReport {
    /// Total convictions of any kind.
    #[must_use]
    pub fn violations_total(&self) -> u64 {
        self.latency_violations + self.progress_violations + self.coherence_violations
    }

    /// Serializes the report as a JSON value (hand-built, so it works
    /// under any `serde_json` with the `Value` API).
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let mut root = serde_json::Map::new();
        root.insert("planned_faults".into(), serde_json::Value::from(self.planned_faults as u64));
        let seed = match self.seed {
            Some(s) => serde_json::Value::from(s),
            None => serde_json::Value::Null,
        };
        root.insert("seed".into(), seed);
        let faults: Vec<serde_json::Value> = self
            .faults
            .iter()
            .map(|f| {
                let mut o = serde_json::Map::new();
                o.insert("kind".into(), serde_json::Value::from(f.kind.slug().to_owned()));
                o.insert("core".into(), serde_json::Value::from(f.core as u64));
                o.insert("scheduled".into(), serde_json::Value::from(f.scheduled.get()));
                o.insert("fired".into(), serde_json::Value::from(f.fired.get()));
                serde_json::Value::Object(o)
            })
            .collect();
        root.insert("faults".into(), serde_json::Value::from(faults));
        root.insert("requests".into(), serde_json::Value::from(self.requests));
        root.insert("cycles".into(), serde_json::Value::from(self.cycles));
        root.insert("violations_total".into(), serde_json::Value::from(self.violations_total()));
        root.insert("latency_violations".into(), serde_json::Value::from(self.latency_violations));
        root.insert(
            "progress_violations".into(),
            serde_json::Value::from(self.progress_violations),
        );
        root.insert(
            "coherence_violations".into(),
            serde_json::Value::from(self.coherence_violations),
        );
        let per_core: Vec<serde_json::Value> =
            self.core_violations.iter().map(|&c| serde_json::Value::from(c)).collect();
        root.insert("core_violations".into(), serde_json::Value::from(per_core));
        root.insert("machine_violations".into(), serde_json::Value::from(self.machine_violations));
        let violations: Vec<serde_json::Value> = self
            .violations
            .iter()
            .map(|v| {
                let mut o = serde_json::Map::new();
                o.insert("kind".into(), serde_json::Value::from(v.kind.slug().to_owned()));
                let core = match v.core {
                    Some(c) => serde_json::Value::from(c as u64),
                    None => serde_json::Value::Null,
                };
                o.insert("core".into(), core);
                let line = match v.line {
                    Some(l) => serde_json::Value::from(l.raw()),
                    None => serde_json::Value::Null,
                };
                o.insert("line".into(), line);
                o.insert("at".into(), serde_json::Value::from(v.at.get()));
                o.insert("issued".into(), serde_json::Value::from(v.issued.get()));
                o.insert("latency".into(), serde_json::Value::from(v.latency));
                o.insert("bound".into(), serde_json::Value::from(v.bound));
                let detail = match &v.detail {
                    Some(d) => serde_json::Value::from(d.clone()),
                    None => serde_json::Value::Null,
                };
                o.insert("detail".into(), detail);
                serde_json::Value::Object(o)
            })
            .collect();
        root.insert("violations".into(), serde_json::Value::from(violations));
        let switches: Vec<serde_json::Value> = self
            .switches
            .iter()
            .map(|s| {
                let mut o = serde_json::Map::new();
                o.insert("at".into(), serde_json::Value::from(s.at));
                o.insert("from".into(), serde_json::Value::from(u64::from(s.from)));
                o.insert("to".into(), serde_json::Value::from(u64::from(s.to)));
                let trigger = match s.trigger {
                    Some(c) => serde_json::Value::from(c as u64),
                    None => serde_json::Value::Null,
                };
                o.insert("trigger".into(), trigger);
                serde_json::Value::Object(o)
            })
            .collect();
        root.insert("switches".into(), serde_json::Value::from(switches));
        let detection = match self.detection_latency {
            Some(d) => serde_json::Value::from(d),
            None => serde_json::Value::Null,
        };
        root.insert("detection_latency".into(), detection);
        root.insert("final_mode".into(), serde_json::Value::from(u64::from(self.final_mode)));
        let post = match &self.post_switch {
            Some(p) => {
                let mut o = serde_json::Map::new();
                o.insert("switch_at".into(), serde_json::Value::from(p.switch_at));
                o.insert("requests".into(), serde_json::Value::from(p.requests));
                o.insert("violations".into(), serde_json::Value::from(p.violations));
                o.insert("compliant".into(), serde_json::Value::from(p.compliant));
                serde_json::Value::Object(o)
            }
            None => serde_json::Value::Null,
        };
        root.insert("post_switch".into(), post);
        serde_json::Value::Object(root)
    }
}

/// Runs `workload` under `config` with `plan`'s faults injected, a
/// [`WcmlGuard`] watching the run, and this driver escalating the
/// operational mode through `lut` when convictions cross the policy
/// threshold.
///
/// The loop alternates [`cohort_sim::Simulator::run_until`] slices of `policy.stride`
/// cycles with watchdog polls; a switch is programmed one cycle after its
/// decision, mirroring the LUT's single-cycle register write. Everything is
/// deterministic: the same `(config, workload, lut, plan, policy)` always
/// produces the same report.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] if the LUT's core count mismatches the
/// configuration, the fault plan targets an out-of-range core, or the
/// simulator reports a deadlock.
///
/// # Examples
///
/// A clean run (empty plan) never escalates:
///
/// ```
/// use cohort::{run_with_watchdog, ModeSwitchLut, WatchdogPolicy};
/// use cohort_sim::{FaultPlan, SimConfig};
/// use cohort_trace::micro;
/// use cohort_types::TimerValue;
///
/// let theta = TimerValue::timed(100)?;
/// let config = SimConfig::builder(2).timers(vec![theta; 2]).build()?;
/// let lut = ModeSwitchLut::new(vec![vec![theta; 2], vec![theta, TimerValue::MSI]])?;
/// let report = run_with_watchdog(
///     config,
///     &micro::ping_pong(2, 8),
///     &lut,
///     FaultPlan::empty(),
///     &WatchdogPolicy::default(),
/// )?;
/// assert_eq!(report.violations_total(), 0);
/// assert!(report.switches.is_empty());
/// assert_eq!(report.final_mode, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_with_watchdog(
    config: SimConfig,
    workload: &Workload,
    lut: &ModeSwitchLut,
    plan: FaultPlan,
    policy: &WatchdogPolicy,
) -> Result<DegradationReport> {
    if lut.modes() == 0 || lut.cores() == 0 {
        // `ModeSwitchLut::new` rejects empty tables, but a table built by
        // struct literal in this crate (or by a future constructor) must
        // not reach the conviction counters: an empty table used to
        // underflow `counts.len() - 1` and panic.
        return Err(Error::InvalidConfig(
            "mode-switch LUT is empty: at least one mode covering at least one core is required"
                .into(),
        ));
    }
    if lut.cores() != config.cores() {
        return Err(Error::InvalidConfig(format!(
            "LUT covers {} cores but the configuration has {}",
            lut.cores(),
            config.cores()
        )));
    }
    let stride = policy.stride.max(1);
    let planned_faults = plan.specs().len();
    let seed = plan.seed();

    let mut guard = WcmlGuard::new();
    if let Some(timeout) = policy.progress_timeout {
        guard = guard.with_progress_timeout(timeout);
    }
    let mut sim = SimBuilder::new(config, workload).probe(&mut guard).faults(plan).build()?;

    let mut mode = Mode::NORMAL;
    let mut switches: Vec<SwitchRecord> = Vec::new();
    let mut last_switch_at: Option<u64> = None;
    // Requests observed when the most recent switch was programmed, for the
    // post-switch compliance tail.
    let mut requests_at_switch: u64 = 0;
    let mut processed = 0usize;
    let mut counts = vec![0u64; lut.cores()];
    // Machine-wide convictions carrying no core attribution (and any probe
    // core outside the LUT) accumulate here instead of being pinned on
    // core 0; they escalate without naming a trigger.
    let mut machine_count = 0u64;
    let mut last_counted_violation: Option<u64> = None;

    loop {
        let target = sim.now() + Cycles::new(stride);
        sim.run_until(target)?;
        let now = sim.now();

        if policy.validate_coherence {
            if let Err(detail) = sim.validate_coherence() {
                sim.probe_mut().note_coherence_violation(now, None, &detail);
            }
        }
        if policy.progress_timeout.is_some() {
            let active: Vec<bool> =
                sim.stats().cores.iter().map(|c| c.finish == Cycles::ZERO).collect();
            sim.probe_mut().check_progress(now, &active);
        }

        // Count fresh convictions, skipping the post-switch transient.
        let violations = sim.probe().violations();
        for v in &violations[processed..] {
            let in_transient =
                last_switch_at.is_some_and(|at| v.at.get() <= at.saturating_add(policy.cooldown));
            if in_transient {
                continue;
            }
            last_counted_violation =
                Some(last_counted_violation.map_or(v.at.get(), |prev| prev.max(v.at.get())));
            match v.core {
                Some(c) if c < counts.len() => counts[c] += 1,
                // Coreless (machine-wide) convictions must never increment a
                // per-core count — pinning them on core 0 convicted that
                // core for violations it did not cause.
                _ => machine_count += 1,
            }
        }
        processed = violations.len();

        let in_cooldown =
            last_switch_at.is_some_and(|at| now.get() <= at.saturating_add(policy.cooldown));
        let core_offender = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c >= policy.violation_threshold)
            .max_by_key(|(_, &c)| c);
        // A per-core offender names its trigger; a machine-wide offender
        // escalates without naming one. When both cross the threshold the
        // larger count decides (per-core wins ties: it is the more
        // actionable attribution).
        let offender: Option<Option<usize>> = match core_offender {
            Some((i, &c)) if machine_count < policy.violation_threshold || c >= machine_count => {
                Some(Some(i))
            }
            _ if machine_count >= policy.violation_threshold => Some(None),
            _ => None,
        };

        if let Some(trigger) = offender {
            if !in_cooldown && mode.index() < lut.modes() {
                let next = mode.next();
                let at = now + Cycles::new(1);
                sim.schedule_timer_switch(at, lut.timers_for(next)?.to_vec())?;
                switches.push(SwitchRecord {
                    at: at.get(),
                    from: mode.index(),
                    to: next.index(),
                    trigger,
                });
                last_switch_at = Some(at.get());
                requests_at_switch = sim.probe().requests();
                mode = next;
                counts.fill(0);
                machine_count = 0;
            }
        } else if let Some(window) = policy.repromote_after {
            // Step back down after a clean window (opt-in).
            let clean_since = last_counted_violation.unwrap_or(0).max(last_switch_at.unwrap_or(0));
            if mode.index() > 1
                && !in_cooldown
                && now.get().saturating_sub(clean_since) >= window
                && machine_count == 0
                && counts.iter().all(|&c| c == 0)
            {
                let prev = Mode::new(mode.index() - 1)?;
                let at = now + Cycles::new(1);
                sim.schedule_timer_switch(at, lut.timers_for(prev)?.to_vec())?;
                switches.push(SwitchRecord {
                    at: at.get(),
                    from: mode.index(),
                    to: prev.index(),
                    trigger: None,
                });
                last_switch_at = Some(at.get());
                requests_at_switch = sim.probe().requests();
                mode = prev;
            }
        }

        if sim.is_finished() {
            break;
        }
    }

    let faults = sim.injected_faults().to_vec();
    let stats = sim.stats().clone();
    let cycles = sim.now().get();
    drop(sim);

    let first_fired = faults.iter().map(|f| f.fired.get()).min();
    let first_violation = guard.violations().first().map(|v| v.at.get());
    let detection_latency = match (first_fired, first_violation) {
        (Some(f), Some(v)) => Some(v.saturating_sub(f)),
        _ => None,
    };

    let mut latency_violations = 0;
    let mut progress_violations = 0;
    let mut coherence_violations = 0;
    let mut core_violations = vec![0u64; lut.cores()];
    let mut machine_violations = 0u64;
    for v in guard.violations() {
        match v.kind {
            WcmlViolationKind::LatencyBound => latency_violations += 1,
            WcmlViolationKind::Progress => progress_violations += 1,
            WcmlViolationKind::Coherence => coherence_violations += 1,
        }
        match v.core {
            Some(c) if c < core_violations.len() => core_violations[c] += 1,
            _ => machine_violations += 1,
        }
    }

    let post_switch = last_switch_at.map(|switch_at| {
        let tail_violations = guard
            .violations()
            .iter()
            .filter(|v| v.kind == WcmlViolationKind::LatencyBound && v.issued.get() >= switch_at)
            .count() as u64;
        let requests = guard.requests().saturating_sub(requests_at_switch);
        PostSwitchCompliance {
            switch_at,
            requests,
            violations: tail_violations,
            compliant: requests > 0 && tail_violations == 0,
        }
    });

    let recorded =
        guard.violations().iter().take(policy.max_recorded_violations).cloned().collect();

    Ok(DegradationReport {
        planned_faults,
        seed,
        faults,
        requests: guard.requests(),
        cycles,
        latency_violations,
        progress_violations,
        coherence_violations,
        core_violations,
        machine_violations,
        violations: recorded,
        switches,
        detection_latency,
        final_mode: mode.index(),
        post_switch,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohort_trace::micro;
    use cohort_types::TimerValue;

    #[test]
    fn empty_lut_is_a_typed_error_not_a_panic() {
        // The struct literal bypasses `ModeSwitchLut::new`'s validation.
        let empty = ModeSwitchLut { rows: Vec::new() };
        let theta = TimerValue::timed(50).unwrap();
        let config = SimConfig::builder(2).timers(vec![theta; 2]).build().unwrap();
        let result = run_with_watchdog(
            config,
            &micro::ping_pong(2, 4),
            &empty,
            FaultPlan::empty(),
            &WatchdogPolicy::default(),
        );
        match result {
            Err(Error::InvalidConfig(msg)) => assert!(msg.contains("LUT"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
