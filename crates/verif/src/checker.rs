//! Murphi-style breadth-first exhaustive exploration of the abstract
//! protocol state machine, with hashed state deduplication and minimal
//! counterexample extraction via BFS parent pointers.

use std::collections::HashMap; // lint:allow(det-unordered) BFS dedup set keyed by state hash; membership tests only, the frontier queue fixes exploration order

use crate::model::{ModelConfig, ModelEvent, ModelState, ModelViolation};

/// Hard cap on explored states, a safety valve against mis-sized configs.
const DEFAULT_MAX_STATES: usize = 5_000_000;

/// A minimal event sequence leading from the initial state to a violation.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The invariant that was broken at the end of the trace.
    pub violation: ModelViolation,
    /// The events, in order, that reach the violating state. For
    /// transition-level violations (timer protection, data-value) the last
    /// event is the offending transition itself.
    pub trace: Vec<ModelEvent>,
}

impl core::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "violation: {}", self.violation)?;
        writeln!(f, "counterexample ({} events):", self.trace.len())?;
        for (i, e) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>2}. {e}", i + 1)?;
        }
        Ok(())
    }
}

/// Result of one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Number of distinct states discovered (including the initial state).
    pub states: usize,
    /// Number of transitions taken (edges in the reachability graph).
    pub edges: usize,
    /// Maximum BFS depth reached (longest shortest-path from the initial
    /// state).
    pub depth: usize,
    /// The first violation found, with a minimal trace — `None` when the
    /// whole reachable space satisfies every invariant.
    pub counterexample: Option<Counterexample>,
    /// True when the exploration hit the state cap instead of exhausting
    /// the reachable space.
    pub truncated: bool,
}

impl CheckReport {
    /// Whether the exploration proved all invariants over the (fully
    /// explored) reachable space.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.counterexample.is_none() && !self.truncated
    }
}

/// Exhaustively explores `config`'s reachable state space.
///
/// Breadth-first order guarantees the returned counterexample (if any) has
/// the fewest possible events. State dedup hashes the full [`ModelState`];
/// parent indices reconstruct the trace without storing per-state paths.
#[must_use]
pub fn explore(config: &ModelConfig) -> CheckReport {
    explore_bounded(config, DEFAULT_MAX_STATES)
}

/// [`explore`] with an explicit state cap.
#[must_use]
fn explore_bounded(config: &ModelConfig, max_states: usize) -> CheckReport {
    let initial = ModelState::initial(config);

    // Arena of discovered states; `parent[i]` records how state `i` was
    // first reached (predecessor index + event), `depth[i]` its BFS level.
    let mut arena: Vec<ModelState> = vec![initial];
    let mut parent: Vec<Option<(usize, ModelEvent)>> = vec![None];
    let mut depth: Vec<usize> = vec![0];
    let mut seen: HashMap<ModelState, usize> = HashMap::new();
    seen.insert(initial, 0);

    let mut edges = 0usize;
    let mut max_depth = 0usize;
    let mut truncated = false;

    let trace_to = |parent: &[Option<(usize, ModelEvent)>], mut idx: usize| {
        let mut trace = Vec::new();
        while let Some((prev, event)) = parent[idx] {
            trace.push(event);
            idx = prev;
        }
        trace.reverse();
        trace
    };

    // `arena` doubles as the BFS queue: states are appended in discovery
    // order and `cursor` walks them front to back.
    let mut cursor = 0usize;
    while cursor < arena.len() {
        let state = arena[cursor];
        max_depth = max_depth.max(depth[cursor]);

        // State-level invariants (SWMR, copy currency) and liveness are
        // judged on the state itself when it is expanded.
        let violation = state.check_state(config).or_else(|| state.check_progress(config));
        if let Some(violation) = violation {
            return CheckReport {
                states: arena.len(),
                edges,
                depth: max_depth,
                counterexample: Some(Counterexample {
                    violation,
                    trace: trace_to(&parent, cursor),
                }),
                truncated,
            };
        }

        for event in state.enabled_events(config) {
            edges += 1;
            let next = match state.apply(config, event) {
                Ok(next) => next,
                Err(violation) => {
                    // Transition-level violation: the trace ends with the
                    // offending event itself.
                    let mut trace = trace_to(&parent, cursor);
                    trace.push(event);
                    return CheckReport {
                        states: arena.len(),
                        edges,
                        depth: max_depth,
                        counterexample: Some(Counterexample { violation, trace }),
                        truncated,
                    };
                }
            };
            if seen.contains_key(&next) {
                continue;
            }
            if arena.len() >= max_states {
                truncated = true;
                continue;
            }
            seen.insert(next, arena.len());
            arena.push(next);
            parent.push(Some((cursor, event)));
            depth.push(depth[cursor] + 1);
        }
        cursor += 1;
    }

    CheckReport { states: arena.len(), edges, depth: max_depth, counterexample: None, truncated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Mutation, ThetaClass, ViolationKind};

    #[test]
    fn single_msi_core_space_is_tiny_and_clean() {
        let config = ModelConfig::new(&[ThetaClass::Msi], 1).with_ops(2);
        let report = explore(&config);
        assert!(report.is_clean(), "{:?}", report.counterexample);
        assert!(report.states > 1);
        assert!(report.states < 100, "1 core × 2 ops must stay tiny, got {}", report.states);
        assert!(report.edges >= report.states - 1);
    }

    #[test]
    fn heterogeneous_pair_is_clean() {
        let config = ModelConfig::new(&[ThetaClass::Timed, ThetaClass::Msi], 1);
        let report = explore(&config);
        assert!(report.is_clean(), "{:?}", report.counterexample);
    }

    #[test]
    fn state_cap_reports_truncation() {
        let config = ModelConfig::new(&[ThetaClass::Timed, ThetaClass::Msi], 1);
        let report = explore_bounded(&config, 10);
        assert!(report.truncated);
        assert!(!report.is_clean());
        assert_eq!(report.states, 10);
    }

    #[test]
    fn every_mutation_yields_its_expected_counterexample() {
        for mutation in Mutation::ALL {
            let config =
                ModelConfig::new(&[ThetaClass::Timed, ThetaClass::Msi], 1).with_mutation(mutation);
            let report = explore(&config);
            let cx = report
                .counterexample
                .unwrap_or_else(|| panic!("mutation {mutation} must be caught"));
            assert_eq!(
                Some(cx.violation.kind),
                mutation.expected_violation(),
                "mutation {mutation} tripped the wrong invariant: {}",
                cx.violation
            );
            assert!(!cx.trace.is_empty());
        }
    }

    #[test]
    fn counterexamples_are_minimal_for_the_timer_mutation() {
        // Shortest possible timer violation: store-miss, serve, competing
        // store-miss, premature serve — four events.
        let config = ModelConfig::new(&[ThetaClass::Timed, ThetaClass::Msi], 1)
            .with_mutation(Mutation::IgnoreTimerProtection);
        let cx = explore(&config).counterexample.expect("must find a violation");
        assert_eq!(cx.violation.kind, ViolationKind::TimerProtection);
        assert!(
            cx.trace.len() <= 4,
            "BFS must find a ≤4-event trace, got {} events:\n{cx}",
            cx.trace.len()
        );
    }

    #[test]
    fn all_msi_mix_never_blocks_on_timers() {
        let config =
            ModelConfig::new(&[ThetaClass::Msi, ThetaClass::Msi, ThetaClass::Msi], 1).with_ops(2);
        let report = explore(&config);
        assert!(report.is_clean(), "{:?}", report.counterexample);
    }
}
