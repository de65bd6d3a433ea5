//! The gate, as a test: the workspace's own sources carry zero
//! unsuppressed diagnostics, and every suppression that remains has a
//! written justification. This is the same check CI runs via the `lint`
//! bench bin; having it in `cargo test` means a hazard cannot land even
//! on machines that only run the test suite.

use std::path::Path;

use cohort_lint::source::{walk_references, walk_workspace};
use cohort_lint::{analyze_files, analyze_workspace, registry};

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let analysis = analyze_workspace(&root).expect("workspace scan");
    assert!(analysis.files_scanned > 50, "the walker must actually find the workspace");
    let unsuppressed: Vec<String> = analysis
        .diagnostics
        .iter()
        .filter(|d| !d.suppressed)
        .map(cohort_lint::Diagnostic::render)
        .collect();
    assert!(unsuppressed.is_empty(), "unsuppressed lint diagnostics:\n{}", unsuppressed.join("\n"));
    for diag in &analysis.diagnostics {
        assert!(
            diag.justification.as_ref().is_some_and(|j| !j.is_empty()),
            "suppressed diagnostic without a written justification: {}",
            diag.render()
        );
    }
}

/// The disk fault-injection layer feeds the self-healing guarantees, so
/// it must be deterministic *by construction*: `FaultyDisk` schedules its
/// transient faults from seeded arithmetic, never wall time or ambient
/// RNG. `cohort-fleet` sits in the DET scope, so any such hazard in
/// `disk.rs` would surface as a diagnostic — assert the file is scanned
/// and needs not even a justified suppression.
#[test]
fn the_disk_fault_layer_is_deterministic_without_suppressions() {
    assert!(
        registry::is_outcome_determining("cohort-fleet"),
        "the fleet (and its Disk impls) must stay in the DET lint scope"
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let (disk, mut callers): (Vec<_>, Vec<_>) = walk_workspace(&root)
        .expect("workspace walk")
        .into_iter()
        .partition(|f| f.rel_path == "crates/fleet/src/disk.rs");
    assert_eq!(disk.len(), 1, "the walker must scan the Disk implementations");
    callers.extend(walk_references(&root).expect("reference walk"));
    let analysis = analyze_files(&disk, &callers);
    assert!(
        analysis.diagnostics.is_empty(),
        "disk.rs must carry zero hazards, suppressed or not:\n{}",
        analysis
            .diagnostics
            .iter()
            .map(cohort_lint::Diagnostic::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
