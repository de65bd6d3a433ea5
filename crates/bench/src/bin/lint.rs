//! Workspace static-analysis gate — the CI entry point of `cohort-lint`.
//!
//! ```text
//! cargo run --release -p cohort-bench --bin lint [-- --json <path>] [--root <dir>]
//! ```
//!
//! Walks every library source file of the workspace, runs the DET / FPR /
//! LCK / PUB passes (PUB reads tests, bins, examples and perfbench for
//! callers), applies `// lint:allow(<code>) <justification>` markers,
//! prints every diagnostic (suppressed ones flagged as justified), and
//! checks the machine-readable report (`lint/1`) against its schema, so
//! it exits non-zero when any *unsuppressed* diagnostic remains. `--json`
//! writes the report before the check, so a dirty tree's report lands
//! too.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cohort_bench::report::{ReportWriter, LINT};
use cohort_lint::analyze_workspace;
use serde_json::json;

const USAGE: &str = "usage: lint [--json <path>] [--root <dir>]";

struct Options {
    json: Option<PathBuf>,
    root: Option<PathBuf>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options { json: None, root: None };
    let mut args = args.skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                options.json = Some(PathBuf::from(args.next().ok_or("--json needs a path")?));
            }
            "--root" => {
                options.root = Some(PathBuf::from(args.next().ok_or("--root needs a dir")?));
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(options)
}

/// The workspace root: `--root` when given, else the bench crate's
/// grandparent (`crates/bench/../..`), so the gate works from any cwd.
fn workspace_root(options: &Options) -> PathBuf {
    options
        .root
        .clone()
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(".."))
}

fn main() -> ExitCode {
    let options = parse_args(std::env::args()).unwrap_or_else(|message| {
        eprintln!("{message}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    let root = workspace_root(&options);
    let analysis = match analyze_workspace(&root) {
        Ok(analysis) => analysis,
        Err(err) => {
            eprintln!("lint: cannot scan {}: {err}", root.display());
            return ExitCode::FAILURE;
        }
    };

    println!(
        "lint: {} files scanned, {} diagnostics ({} justified, {} unsuppressed)",
        analysis.files_scanned,
        analysis.diagnostics.len(),
        analysis.suppressed(),
        analysis.unsuppressed(),
    );
    for diag in &analysis.diagnostics {
        println!("  {}", diag.render());
    }

    // A dirty tree fails the report's check after the report is written.
    let report = json!({ "report": analysis.to_json_value() });
    ReportWriter::new(&LINT).write_or_exit(options.json.as_deref(), report);
    ExitCode::SUCCESS
}
