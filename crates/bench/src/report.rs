//! One shared definition of every machine-readable document kind the
//! bench bins emit and `schema_check` validates.
//!
//! Each kind is a [`Schema`] constant (name + version); emitters go
//! through a [`ReportWriter`], which stamps the envelope with the
//! schema tag and the generator name, and the `schema_check` validators
//! verify the same tag via [`Schema::check`]. Reports written before the
//! tag existed carry no `"schema"` key and remain valid — the check only
//! rejects a *wrong* tag, never a missing one.

use std::path::Path;

use serde_json::{json, Map, Value};

use cohort_types::Result;

/// Identity of one machine-readable document kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schema {
    /// The document kind, e.g. `"report"` or `"fleet"`.
    pub kind: &'static str,
    /// The kind's schema version; bump on incompatible shape changes.
    pub version: u32,
}

/// Fig. 5/6 run reports (`{"runs": [...]}`, `repro --json`).
pub const REPORT: Schema = Schema::new("report", 1);
/// GA engine benchmark reports (`BENCH_optim.json`). Version 2 adds the
/// `hit_kernel` section.
pub const OPTIM: Schema = Schema::new("optim", 2);
/// Fault-campaign reports (`BENCH_chaos.json`).
pub const CHAOS: Schema = Schema::new("chaos", 1);
/// Simulator-throughput reports (`BENCH_sim.json`). Version 2 drops the
/// cycle-round reference engine's rates and the cross-engine verdict.
pub const SIM: Schema = Schema::new("sim", 2);
/// Fleet service benchmark reports (`BENCH_fleet.json`). Version 2 adds
/// the churn chaos campaign and the `FleetHealth` snapshots.
pub const FLEET: Schema = Schema::new("fleet", 2);
/// Static-analysis reports (the `lint` bin).
pub const LINT: Schema = Schema::new("lint", 1);
/// Monte Carlo certification reports (`BENCH_cert.json`). Version 2 adds
/// the cross-run store memoization fields and the `FleetHealth` snapshot.
pub const CERT: Schema = Schema::new("cert", 2);

impl Schema {
    /// A schema constant.
    #[must_use]
    pub const fn new(kind: &'static str, version: u32) -> Self {
        Schema { kind, version }
    }

    /// The tag stamped into (and expected from) document envelopes,
    /// `"<kind>/<version>"`.
    #[must_use]
    pub fn tag(&self) -> String {
        format!("{}/{}", self.kind, self.version)
    }

    /// Validates a document's optional `"schema"` key against this
    /// schema. Documents without the key pass (pre-tag reports stay
    /// valid); documents with a different tag fail.
    ///
    /// # Errors
    ///
    /// Returns a human-readable violation message.
    pub fn check(&self, doc: &Value) -> std::result::Result<(), String> {
        match doc.get("schema") {
            None => Ok(()),
            Some(v) => {
                let found =
                    v.as_str().ok_or_else(|| format!("{}: `schema` is not a string", self.kind))?;
                if found == self.tag() {
                    Ok(())
                } else {
                    Err(format!("{}: schema tag `{found}` is not `{}`", self.kind, self.tag()))
                }
            }
        }
    }
}

/// Emits machine-readable reports under one [`Schema`]: every document
/// gets a `"schema"` tag and a `"generator"` name before the payload
/// fields, so validators and emitters can never drift apart on identity.
#[derive(Debug, Clone, Copy)]
pub struct ReportWriter<'a> {
    schema: &'a Schema,
    generator: &'a str,
}

impl<'a> ReportWriter<'a> {
    /// A writer stamping documents as `schema` produced by `generator`.
    #[must_use]
    pub fn new(schema: &'a Schema, generator: &'a str) -> Self {
        ReportWriter { schema, generator }
    }

    /// Wraps `payload`'s fields into the stamped envelope. `payload`
    /// should be a JSON object; any other value is filed under a
    /// `"payload"` key.
    #[must_use]
    pub fn envelope(&self, payload: Value) -> Value {
        let mut map = Map::new();
        map.insert("schema".into(), json!(self.schema.tag()));
        map.insert("generator".into(), json!(self.generator));
        match payload.as_object() {
            Some(fields) => {
                for (key, value) in fields.iter() {
                    map.insert(key.clone(), value.clone());
                }
            }
            None => {
                map.insert("payload".into(), payload);
            }
        }
        Value::Object(map)
    }

    /// Writes the stamped envelope to `path` (pretty-printed, parent
    /// directories created as needed).
    ///
    /// # Errors
    ///
    /// Returns [`cohort_types::Error::Codec`] when serialization or the
    /// filesystem fails.
    pub fn write(&self, path: &Path, payload: Value) -> Result<()> {
        crate::write_json(path, &self.envelope(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelopes_are_stamped_and_checkable() {
        let writer = ReportWriter::new(&FLEET, "fleet");
        let doc = writer.envelope(json!({"quick": true, "shards": 4}));
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some("fleet/2"));
        assert_eq!(doc.get("generator").and_then(Value::as_str), Some("fleet"));
        assert_eq!(doc.get("shards").and_then(Value::as_u64), Some(4));
        FLEET.check(&doc).unwrap();
        // The wrong schema rejects the tag; a tagless legacy doc passes.
        assert!(SIM.check(&doc).is_err());
        SIM.check(&json!({"generator": "sim"})).unwrap();
        assert!(SIM.check(&json!({"schema": 3})).is_err());
    }

    #[test]
    fn non_object_payloads_are_filed_not_lost() {
        let doc = ReportWriter::new(&REPORT, "test").envelope(json!([1, 2]));
        assert!(doc.get("payload").and_then(Value::as_array).is_some());
    }

    #[test]
    fn tags_spell_kind_and_version() {
        assert_eq!(REPORT.tag(), "report/1");
        assert_eq!(Schema::new("x", 9).tag(), "x/9");
    }
}
