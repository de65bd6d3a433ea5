//! The lint registry: every machine-checked invariant class, its stable
//! code, and the crate scope it applies to.

/// The outcome-determining crates: everything the engine-equivalence,
/// memoization and certification guarantees rest on. DET lints apply only
/// here — nondeterminism in presentation/bench code is measurement, not a
/// hazard.
const OUTCOME_DETERMINING: &[&str] = &[
    "cohort-sim",
    "cohort-optim",
    "cohort-fleet",
    "cohort-analysis",
    "cohort-verif",
    "cohort-cert",
];

/// Whether `crate_name` is in the outcome-determining set.
#[must_use]
pub fn is_outcome_determining(crate_name: &str) -> bool {
    OUTCOME_DETERMINING.contains(&crate_name)
}

/// Stable identity of one lint class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// `HashMap`/`HashSet` in an outcome-determining crate: iteration
    /// order is seeded per instance, so any order-observing use is
    /// nondeterministic across runs.
    DetUnordered,
    /// Wall-clock reads (`Instant::now`, `SystemTime`) in an
    /// outcome-determining crate.
    DetWallclock,
    /// Ambient randomness (`thread_rng`, `from_entropy`, `OsRng`,
    /// `rand::random`) in an outcome-determining crate.
    DetRng,
    /// A struct digested by a fingerprint function has a field the digest
    /// never reads — the "added a field, stale memo hit" bug class.
    FprMissedField,
    /// `.lock().unwrap()` in library code: a panicking sibling poisons
    /// the mutex and takes healthy threads down with it
    /// (`PoisonError::into_inner` is house style since PR 5).
    LckUnwrap,
    /// A `pub fn`/`pub const`/`pub static` of a library crate that no
    /// code outside its own file names: rustc's `dead_code` never fires
    /// on public items, so lost callers leave dead surface behind.
    PubUnused,
    /// A suppression marker without a written justification.
    SupBare,
    /// A suppression marker that matched no diagnostic — stale markers
    /// rot into false confidence.
    SupUnused,
}

impl LintCode {
    /// Every lint class, in reporting order.
    pub const ALL: [LintCode; 8] = [
        LintCode::DetUnordered,
        LintCode::DetWallclock,
        LintCode::DetRng,
        LintCode::FprMissedField,
        LintCode::LckUnwrap,
        LintCode::PubUnused,
        LintCode::SupBare,
        LintCode::SupUnused,
    ];

    /// The stable spelling used in diagnostics and suppression markers.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::DetUnordered => "det-unordered",
            LintCode::DetWallclock => "det-wallclock",
            LintCode::DetRng => "det-rng",
            LintCode::FprMissedField => "fpr-missed-field",
            LintCode::LckUnwrap => "lck-unwrap",
            LintCode::PubUnused => "pub-unused",
            LintCode::SupBare => "sup-bare",
            LintCode::SupUnused => "sup-unused",
        }
    }

    /// Parses a suppression-marker spelling.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        LintCode::ALL.into_iter().find(|code| code.as_str() == text)
    }

    /// Why the lint exists — stamped into every diagnostic so a report
    /// is readable without the lint source.
    #[must_use]
    pub fn rationale(self) -> &'static str {
        match self {
            LintCode::DetUnordered => {
                "std hash collections randomize iteration order per instance; any \
                 order-observing use breaks bit-identical replay and content-addressed \
                 memoization"
            }
            LintCode::DetWallclock => {
                "wall-clock reads make outcomes depend on host timing; inject a Clock \
                 (fleet) or take cycles from the simulator instead"
            }
            LintCode::DetRng => {
                "ambient RNG breaks seeded reproducibility; thread splitmix64 streams \
                 from an explicit seed instead"
            }
            LintCode::FprMissedField => {
                "a field missing from the content-address digest means two different \
                 configurations share a fingerprint — stale memo hits instead of \
                 recomputation"
            }
            LintCode::LckUnwrap => {
                "unwrap on a poisoned lock propagates one worker's panic to every \
                 sibling; recover the guard with PoisonError::into_inner"
            }
            LintCode::PubUnused => {
                "public surface nothing calls is still compiled, documented and tested; \
                 the least code that gives the same results has none"
            }
            LintCode::SupBare => {
                "a suppression must say why the hazard is sound; bare markers hide \
                 hazards instead of justifying them"
            }
            LintCode::SupUnused => {
                "the marker matches no diagnostic — the hazard moved or was fixed; \
                 stale markers invite unreviewed reintroduction"
            }
        }
    }
}

impl std::fmt::Display for LintCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_through_their_spelling() {
        for code in LintCode::ALL {
            assert_eq!(LintCode::parse(code.as_str()), Some(code));
            assert!(!code.rationale().is_empty());
        }
        assert_eq!(LintCode::parse("nope"), None);
    }

    #[test]
    fn det_scope_is_the_five_guarantee_crates() {
        assert!(is_outcome_determining("cohort-sim"));
        assert!(is_outcome_determining("cohort-fleet"));
        assert!(!is_outcome_determining("cohort-bench"));
        assert!(!is_outcome_determining("cohort"));
    }
}
