//! Small-scope exhaustive verification of the CoHoRT coherence protocol.
//!
//! Three cooperating layers (the paper's §V invariants, checked rather
//! than assumed):
//!
//! 1. **Model checker** ([`checker::explore`]): a Murphi-style
//!    breadth-first exploration of an abstracted protocol state machine
//!    ([`model::ModelState`]) — up to 3 cores × 2 lines, each core MSI /
//!    θ = 0 / θ > 0, nondeterministic load/store/evict/timer-expiry
//!    events — checking **SWMR**, **data-value** (symbolic version
//!    counters), **timer protection** (no dispossession inside an open
//!    window) and **liveness** (no stuck waiter queue), and extracting a
//!    minimal event-sequence counterexample via BFS parent pointers.
//! 2. **Online probe** ([`cohort_sim::InvariantProbe`]): the same
//!    invariants checked against the event stream of any concrete
//!    simulation, zero-cost when unused.
//! 3. **Replay harness** ([`replay::replay`]): converts a model-checker
//!    counterexample into a `cohort-trace` workload and re-runs it through
//!    the real engine with the probe attached — mutated-model traces must
//!    come back clean, confirming the real engine does not share the
//!    injected bug.
//!
//! The mutation smoke test ([`model::Mutation`]) flips exactly one
//! transition rule at a time and asserts the checker catches each flip
//! with the matching invariant class.
//!
//! # Examples
//!
//! ```
//! use cohort_verif::{explore, ModelConfig, ThetaClass};
//!
//! let config = ModelConfig::new(&[ThetaClass::Timed, ThetaClass::Msi], 1);
//! let report = explore(&config);
//! assert!(report.is_clean());
//! assert!(report.states > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod model;
pub mod replay;

pub use checker::{explore, CheckReport, Counterexample};
pub use model::{
    ModelConfig, ModelEvent, ModelState, ModelViolation, Mutation, ThetaClass, ViolationKind,
    MAX_CORES,
};
pub use replay::{replay, replay_workload, workload_from_violation, ReplayOutcome};

/// All θ-class assignments (mixes) for `cores` cores, in lexicographic
/// order — `3^cores` entries. The exhaustive sweeps run every one.
#[must_use]
pub fn theta_mixes(cores: usize) -> Vec<Vec<ThetaClass>> {
    assert!((1..=MAX_CORES).contains(&cores), "mixes support 1..={MAX_CORES} cores");
    let mut mixes = vec![Vec::new()];
    for _ in 0..cores {
        mixes = mixes
            .into_iter()
            .flat_map(|mix| {
                ThetaClass::ALL.iter().map(move |&t| {
                    let mut next = mix.clone();
                    next.push(t);
                    next
                })
            })
            .collect();
    }
    mixes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_mixes_enumerate_all_assignments() {
        assert_eq!(theta_mixes(1).len(), 3);
        assert_eq!(theta_mixes(2).len(), 9);
        assert_eq!(theta_mixes(3).len(), 27);
        let mixes = theta_mixes(2);
        assert_eq!(mixes[0], vec![ThetaClass::Msi, ThetaClass::Msi]);
        assert_eq!(mixes[8], vec![ThetaClass::Timed, ThetaClass::Timed]);
    }
}
