//! Robustness of the report validators: a damaged copy of each committed
//! artifact parses to an error or to a document its validator accepts or
//! rejects, and never panics the validator.

use cohort_bench::report::{Schema, CERT, CHAOS, FLEET, LINT, OPTIM, SIM};
use cohort_prop::prelude::*;

const OPTIM_DOC: &str = include_str!("../../../results/BENCH_optim.json");
const CHAOS_DOC: &str = include_str!("../../../results/BENCH_chaos.json");
const SIM_DOC: &str = include_str!("../../../results/BENCH_sim.json");
const FLEET_DOC: &str = include_str!("../../../results/BENCH_fleet.json");
const LINT_DOC: &str = include_str!("../../../results/LINT.json");
const CERT_DOC: &str = include_str!("../../../results/BENCH_cert.json");

/// Runs `text`, if it parses, through `schema`'s validator; a panic
/// fails the property.
fn validate(schema: &Schema, text: &str) {
    if let Ok(doc) = serde_json::from_str(text) {
        let _ = schema.check(&doc);
    }
}

properties! {
    #[test]
    fn damaged_optim_reports_never_panic(text in json_mutations(OPTIM_DOC)) {
        validate(&OPTIM, &text);
    }

    #[test]
    fn damaged_chaos_reports_never_panic(text in json_mutations(CHAOS_DOC)) {
        validate(&CHAOS, &text);
    }

    #[test]
    fn damaged_sim_reports_never_panic(text in json_mutations(SIM_DOC)) {
        validate(&SIM, &text);
    }

    #[test]
    fn damaged_fleet_reports_never_panic(text in json_mutations(FLEET_DOC)) {
        validate(&FLEET, &text);
    }

    #[test]
    fn damaged_lint_reports_never_panic(text in json_mutations(LINT_DOC)) {
        validate(&LINT, &text);
    }

    #[test]
    fn damaged_cert_reports_never_panic(text in json_mutations(CERT_DOC)) {
        validate(&CERT, &text);
    }
}
