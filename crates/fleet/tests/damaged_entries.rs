//! A damaged `cohort-fleet-entry/1` envelope read back through
//! [`ResultStore::get`] is a typed [`Error::StoreCorrupt`] or a payload
//! whose fingerprint matches the one the envelope records; it never
//! panics.

use std::path::PathBuf;
use std::sync::Arc;

use cohort::{Protocol, SystemSpec};
use cohort_fleet::{execute_experiment, payload_fingerprint, ResultStore};
use cohort_prop::prelude::*;
use cohort_trace::micro;
use cohort_types::{Criticality, Error, Fingerprint};
use serde_json::Value;

const KEY: Fingerprint = Fingerprint::from_raw(0x00c0_ffee);

fn store_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cohort-fleet-damaged-{tag}-{}", std::process::id()))
}

fn entry_path(dir: &std::path::Path) -> PathBuf {
    dir.join(format!("{}.json", KEY.to_hex()))
}

/// A valid envelope as the store writes it: a small experiment's payload.
fn entry_doc() -> String {
    let spec = SystemSpec::builder()
        .core(Criticality::new(2).unwrap())
        .core(Criticality::new(1).unwrap())
        .build()
        .unwrap();
    let payload =
        execute_experiment(&spec, &Protocol::Msi, &Arc::new(micro::ping_pong(2, 4))).unwrap();
    let dir = store_dir("source");
    ResultStore::persistent(&dir).unwrap().put(KEY, payload).unwrap();
    let text = std::fs::read_to_string(entry_path(&dir)).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    text
}

properties! {
    /// Every damaged entry is corrupt or decodes to the recorded payload.
    #[test]
    fn damaged_entries_never_panic(text in json_mutations(&entry_doc())) {
        let dir = store_dir("entry");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(entry_path(&dir), &text).unwrap();
        match ResultStore::persistent(&dir).unwrap().get(KEY) {
            Err(Error::StoreCorrupt { .. }) => {}
            Ok(Some(payload)) => {
                let doc: Value = serde_json::from_str(&text).expect("a served entry parses");
                let recorded = doc.get("payload_fingerprint").and_then(Value::as_str);
                let recorded = recorded.expect("a served entry records its fingerprint");
                assert_eq!(Fingerprint::from_hex(recorded), Ok(payload_fingerprint(&payload)));
            }
            other => panic!("a damaged entry read back as {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
