//! Validates the machine-readable artifacts of the bench bins. Each
//! `--<kind>` flag runs the check of that document kind from
//! [`cohort_bench::report::SCHEMAS`], the same check the bin that wrote
//! the document ran: `--report`, `--optim`, `--chaos`, `--sim`,
//! `--fleet`, `--lint` or `--cert`. `--trace` checks a Chrome-trace
//! file. Prints one summary line per valid document and exits non-zero
//! on any violation, including a document without its `"schema"` tag.
//!
//! ```text
//! cargo run --release -p cohort-bench --bin schema_check -- \
//!     [--report <report.json>] [--optim <optim.json>] [--chaos <chaos.json>] \
//!     [--sim <sim.json>] [--fleet <fleet.json>] [--lint <lint.json>] \
//!     [--cert <cert.json>] [--trace <trace.json>]
//! ```

use std::process::ExitCode;

use cohort_bench::report::{ensure, field, fields, Check, SCHEMAS};
use serde_json::Value;

/// Checks a Chrome-trace (`traceEvents`) document.
fn check_trace(doc: &Value) -> Check<String> {
    let events: &[Value] = field(doc, "traceEvents", "trace")?;
    ensure(!events.is_empty(), || "trace: empty `traceEvents` array".into())?;
    let (mut begins, mut ends, mut spans) = (0u64, 0u64, 0u64);
    for (i, event) in events.iter().enumerate() {
        let what = format!("traceEvents[{i}]");
        field::<&str>(event, "name", &what)?;
        fields::<u64>(event, &["pid", "tid"], &what)?;
        let ph: &str = field(event, "ph", &what)?;
        if ph != "M" {
            field::<u64>(event, "ts", &what)?;
        }
        match ph {
            "M" | "i" => {}
            "B" => begins += 1,
            "E" => {
                ends += 1;
                ensure(ends <= begins, || format!("{what}: `E` without a preceding `B`"))?;
            }
            "X" => {
                field::<u64>(event, "dur", &what)?;
                spans += 1;
            }
            other => return Err(format!("{what}: unknown phase `{other}`")),
        }
    }
    ensure(begins == ends, || format!("trace: {begins} `B` events but {ends} `E` events"))?;
    ensure(begins > 0, || "trace: no bus tenures (`B`/`E` pairs) recorded".into())?;
    Ok(format!("trace ok: {} events ({begins} tenures, {spans} miss spans)", events.len()))
}

fn usage() -> String {
    let kinds = SCHEMAS.iter().map(|s| s.kind).chain(["trace"]);
    let flags: Vec<String> = kinds.map(|kind| format!("[--{kind} <path>]")).collect();
    format!("usage: schema_check {}", flags.join(" "))
}

fn load(path: &str) -> Check<Value> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut checked, mut failed) = (false, false);
    while let Some(flag) = args.next() {
        let kind = flag.strip_prefix("--").unwrap_or_default();
        let schema = SCHEMAS.iter().find(|s| s.kind == kind);
        if schema.is_none() && kind != "trace" {
            eprintln!("unknown flag `{flag}`\n{}", usage());
            return ExitCode::FAILURE;
        }
        let Some(path) = args.next() else {
            eprintln!("{flag} needs a path\n{}", usage());
            return ExitCode::FAILURE;
        };
        checked = true;
        let verdict = load(&path).and_then(|doc| match schema {
            Some(schema) => schema.check(&doc),
            None => check_trace(&doc),
        });
        match verdict {
            Ok(summary) => println!("{summary}"),
            Err(message) => {
                eprintln!("schema violation: {message}");
                failed = true;
            }
        }
    }
    if !checked {
        eprintln!("nothing to check\n{}", usage());
        return ExitCode::FAILURE;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
