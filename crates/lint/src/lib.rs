//! cohort-lint — machine-checked domain invariants for the workspace.
//!
//! The reproduction's guarantees (bit-identical replay, content-addressed
//! memoization, kill-tolerant recomputation) are invariants of the
//! *code*, not of any one run. This crate turns the three invariant
//! classes that have actually bitten similar systems into lints, plus one
//! rule that keeps the library surface lean, run as a CI gate over every
//! library source file:
//!
//! | class | codes | what it guards |
//! |-------|-------|----------------|
//! | DET | `det-unordered`, `det-wallclock`, `det-rng` | determinism of the outcome-determining crates |
//! | FPR | `fpr-missed-field` | fingerprint coverage of digested structs |
//! | LCK | `lck-unwrap` | lock-poisoning hygiene in library code |
//! | PUB | `pub-unused` | no public library item without a caller in another file |
//!
//! Plus two meta-lints on the suppression grammar itself (`sup-bare`,
//! `sup-unused`). A hazard that is reviewed and sound is marked in place
//! with `// lint:allow(<code>) <justification>` — the justification is
//! mandatory and suppressed findings stay in the report, flagged as
//! justified rather than hidden.
//!
//! The analysis is token-level, built on a small purpose-written lexer
//! ([`source`]) rather than a full parser: comments and string contents
//! are scrubbed (so `"HashMap"` in a log message can't fire), test
//! regions are exempted, and everything else is word-boundary matching
//! over scrubbed code. That is deliberately cruder than an AST and errs
//! toward *reporting* — a false positive costs one reviewed suppression,
//! a false negative costs a silent nondeterminism bug.

pub mod det;
pub mod fpr;
pub mod lck;
pub mod pub_unused;
pub mod registry;
pub mod report;
pub mod source;
pub mod suppress;

use std::path::Path;

use cohort_types::Result;

pub use registry::LintCode;
pub use report::{Analysis, Diagnostic};
pub use source::SourceFile;

/// Runs every pass over an already-lexed set of library `files` and
/// applies suppressions. `references` (tests, bins, examples, the
/// benchmark harness) get no diagnostics; the `pub-unused` pass reads
/// them for callers. The diagnostics come back in stable
/// (file, line, code) order.
#[must_use]
pub fn analyze_files(files: &[SourceFile], references: &[SourceFile]) -> Analysis {
    let mut analysis = Analysis { diagnostics: Vec::new(), files_scanned: files.len() };
    for file in files {
        det::run(file, &mut analysis.diagnostics);
        lck::run(file, &mut analysis.diagnostics);
    }
    fpr::run(files, &mut analysis.diagnostics);
    pub_unused::run(files, references, &mut analysis.diagnostics);
    for file in files {
        suppress::apply(file, &mut analysis.diagnostics);
    }
    analysis.sort();
    analysis
}

/// Walks the workspace at `root` and analyzes every library source file
/// against the workspace's reference files.
///
/// # Errors
///
/// Returns an error when the workspace layout cannot be read.
pub fn analyze_workspace(root: &Path) -> Result<Analysis> {
    let files = source::walk_workspace(root)?;
    let references = source::walk_references(root)?;
    Ok(analyze_files(&files, &references))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_files_runs_every_pass_and_sorts() {
        let files = vec![
            SourceFile::parse(
                "crates/sim/src/b.rs",
                "cohort-sim",
                "use std::collections::HashMap; // lint:allow(det-unordered) lookup only\n",
            ),
            SourceFile::parse(
                "crates/sim/src/a.rs",
                "cohort-sim",
                "fn f(m: &std::sync::Mutex<u32>) { let _ = m.lock().unwrap(); }\n",
            ),
        ];
        let analysis = analyze_files(&files, &[]);
        assert_eq!(analysis.files_scanned, 2);
        assert_eq!(analysis.diagnostics.len(), 2);
        assert_eq!(analysis.diagnostics[0].file, "crates/sim/src/a.rs");
        assert_eq!(analysis.diagnostics[0].code, LintCode::LckUnwrap);
        assert!(analysis.diagnostics[1].suppressed);
        assert_eq!(analysis.unsuppressed(), 1);
    }
}
