//! Fixture contract: every lint class catches its seeded minimal
//! violation — exactly one diagnostic, with the expected code, anchor
//! and key — and the clean fixture produces none. This pins the lint
//! surface itself: a regression that stops a pass from firing fails
//! here, not silently in CI.

use cohort_lint::{analyze_files, Analysis, LintCode, SourceFile};

/// Analyzes one fixture as a library file of `crate_name`.
fn analyze_fixture(name: &str, source: &str, crate_name: &str) -> Analysis {
    let rel_path = format!("crates/lint/tests/fixtures/{name}");
    analyze_files(&[SourceFile::parse(&rel_path, crate_name, source)], &[])
}

/// Asserts the analysis holds exactly one diagnostic and returns it.
fn single(analysis: &Analysis) -> &cohort_lint::Diagnostic {
    assert_eq!(
        analysis.diagnostics.len(),
        1,
        "expected exactly one diagnostic, got: {:#?}",
        analysis.diagnostics
    );
    assert_eq!(analysis.unsuppressed(), 1);
    &analysis.diagnostics[0]
}

#[test]
fn det_unordered_fixture_is_caught() {
    let analysis = analyze_fixture(
        "det_unordered.rs",
        include_str!("fixtures/det_unordered.rs"),
        "cohort-sim",
    );
    let diag = single(&analysis);
    assert_eq!(diag.code, LintCode::DetUnordered);
    assert_eq!(diag.line, 5, "anchored at the first mention (the use line)");
    assert!(diag.message.contains("HashMap"));
    assert!(diag.message.contains("2 mentions"));
}

#[test]
fn det_wallclock_fixture_is_caught() {
    let analysis = analyze_fixture(
        "det_wallclock.rs",
        include_str!("fixtures/det_wallclock.rs"),
        "cohort-fleet",
    );
    let diag = single(&analysis);
    assert_eq!(diag.code, LintCode::DetWallclock);
    assert_eq!(diag.line, 8, "the Instant::now() call, not the use or the type");
}

#[test]
fn det_rng_fixture_is_caught() {
    let analysis =
        analyze_fixture("det_rng.rs", include_str!("fixtures/det_rng.rs"), "cohort-optim");
    let diag = single(&analysis);
    assert_eq!(diag.code, LintCode::DetRng);
    assert_eq!(diag.line, 5);
    assert!(diag.message.contains("thread_rng"));
}

#[test]
fn fpr_missed_field_fixture_is_caught() {
    let analysis = analyze_fixture(
        "fpr_missed_field.rs",
        include_str!("fixtures/fpr_missed_field.rs"),
        "cohort-fleet",
    );
    let diag = single(&analysis);
    assert_eq!(diag.code, LintCode::FprMissedField);
    assert_eq!(diag.line, 11, "anchored at the digest fn");
    assert_eq!(diag.key.as_deref(), Some("stall_limit"));
    assert!(diag.message.contains("TunerConfig"));
}

#[test]
fn lck_unwrap_fixture_is_caught() {
    let analysis = analyze_fixture(
        "lck_unwrap.rs",
        include_str!("fixtures/lck_unwrap.rs"),
        // LCK applies to every crate, outcome-determining or not.
        "cohort-bench",
    );
    let diag = single(&analysis);
    assert_eq!(diag.code, LintCode::LckUnwrap);
    assert_eq!(diag.line, 7);
}

#[test]
fn clean_fixture_produces_no_diagnostics() {
    let analysis = analyze_fixture("clean.rs", include_str!("fixtures/clean.rs"), "cohort-sim");
    assert!(
        analysis.diagnostics.is_empty(),
        "clean fixture must be silent, got: {:#?}",
        analysis.diagnostics
    );
}

#[test]
fn det_fixtures_are_silent_outside_outcome_determining_crates() {
    let analysis = analyze_fixture(
        "det_unordered.rs",
        include_str!("fixtures/det_unordered.rs"),
        "cohort-bench",
    );
    assert!(analysis.diagnostics.is_empty(), "DET scope is the six outcome-determining crates");
}

/// A library file whose `pub fn orphan` is named only by its own test
/// module, whose `pub` helper is test code and exempt.
const ORPHAN: &str = "pub fn orphan() -> u32 {\n    1\n}\n\n#[cfg(test)]\nmod tests {\n    pub fn doubled() -> u32 {\n        2 * super::orphan()\n    }\n\n    #[test]\n    fn two() {\n        assert_eq!(doubled(), 2);\n    }\n}\n";

/// Analyzes `library` files (diagnostics) against `references` (callers
/// only), each given as (path, source).
fn analyze_with(library: &[(&str, &str)], references: &[(&str, &str)]) -> Analysis {
    let lex = |files: &[(&str, &str)]| -> Vec<SourceFile> {
        files.iter().map(|(path, source)| SourceFile::parse(path, "demo", source)).collect()
    };
    analyze_files(&lex(library), &lex(references))
}

#[test]
fn pub_unused_fires_for_an_item_named_only_in_its_own_file() {
    let analysis = analyze_with(&[("crates/demo/src/util.rs", ORPHAN)], &[]);
    let diag = single(&analysis);
    assert_eq!((diag.code, diag.line), (LintCode::PubUnused, 1));
    assert!(diag.message.contains("`pub fn orphan`"));
}

#[test]
fn pub_unused_ignores_reexports_doc_comments_and_strings() {
    let lib = "//! Call [`orphan`] for one.\nmod util;\npub use util::{\n    orphan,\n};\n";
    let bin = "fn main() {\n    println!(\"orphan\"); // orphan\n}\n";
    let analysis = analyze_with(
        &[("crates/demo/src/lib.rs", lib), ("crates/demo/src/util.rs", ORPHAN)],
        &[("crates/demo/src/bin/tool.rs", bin)],
    );
    let diag = single(&analysis);
    assert_eq!((diag.code, diag.file.as_str()), (LintCode::PubUnused, "crates/demo/src/util.rs"));
}

#[test]
fn pub_unused_accepts_a_caller_in_any_other_file() {
    let caller = "fn main() {\n    assert_eq!(demo::orphan(), 1);\n}\n";
    for path in [
        "crates/other/tests/it.rs",
        "crates/demo/src/bin/tool.rs",
        "crates/demo/examples/demo.rs",
        "perfbench/src/main.rs",
    ] {
        let analysis = analyze_with(&[("crates/demo/src/util.rs", ORPHAN)], &[(path, caller)]);
        assert!(analysis.diagnostics.is_empty(), "{path} is a caller: {:#?}", analysis.diagnostics);
    }
}

#[test]
fn pub_unused_suppression_needs_a_finding() {
    let kept = format!("// lint:allow(pub-unused) kept to check a paper claim\n{ORPHAN}");
    let analysis = analyze_with(&[("crates/demo/src/util.rs", &kept)], &[]);
    assert_eq!((analysis.diagnostics.len(), analysis.unsuppressed()), (1, 0));
    let diag = &analysis.diagnostics[0];
    assert_eq!((diag.code, diag.line), (LintCode::PubUnused, 2));

    let caller = "fn main() {\n    demo::orphan();\n}\n";
    let analysis =
        analyze_with(&[("crates/demo/src/util.rs", &kept)], &[("crates/demo/tests/it.rs", caller)]);
    let diag = single(&analysis);
    assert_eq!((diag.code, diag.line), (LintCode::SupUnused, 1), "the marker went stale");
}
