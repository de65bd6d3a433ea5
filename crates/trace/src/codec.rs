//! Persistence for traces and workloads.
//!
//! Two formats are provided:
//!
//! - **JSON** (via `serde_json::Value`): human-readable, used for
//!   experiment manifests and small scripted workloads checked into the
//!   repository;
//! - **binary**: a compact little-endian framing for full-scale kernel
//!   traces (an ocean trace at 2.5 M requests is ~32 MiB as JSON but
//!   ~13 bytes/op here), written to a `Vec<u8>` and read from a slice.
//!
//! # Examples
//!
//! ```
//! use cohort_trace::{codec, micro};
//!
//! let w = micro::ping_pong(2, 3);
//! let json = codec::to_json(&w)?;
//! assert_eq!(codec::from_json(&json)?, w);
//!
//! let bin = codec::to_binary(&w)?;
//! assert_eq!(codec::from_binary(&bin)?, w);
//! # Ok::<(), cohort_types::Error>(())
//! ```

use cohort_types::{Cycles, Error, LineAddr, Result};

use crate::{AccessKind, Trace, TraceOp, Workload};

/// Magic bytes identifying the binary trace format.
const MAGIC: &[u8; 4] = b"CHRT";
/// Current binary format version.
const VERSION: u16 = 1;

/// Serializes a workload to pretty-printed JSON.
///
/// The document is built as a [`serde_json::Value`] tree:
/// `{"name", "traces": [{"ops": [{"line", "kind", "gap"}]}]}`.
///
/// # Errors
///
/// Returns [`Error::Codec`] if serialization fails (practically impossible
/// for these plain-data types, but surfaced rather than panicking).
pub fn to_json(workload: &Workload) -> Result<String> {
    let mut root = serde_json::Map::new();
    root.insert("name".into(), serde_json::Value::from(workload.name()));
    let traces: Vec<serde_json::Value> = workload
        .traces()
        .iter()
        .map(|trace| {
            let ops: Vec<serde_json::Value> = trace
                .iter()
                .map(|op| {
                    let mut o = serde_json::Map::new();
                    o.insert("line".into(), serde_json::Value::from(op.line.raw()));
                    let kind = if op.kind.is_store() { "Store" } else { "Load" };
                    o.insert("kind".into(), serde_json::Value::from(kind));
                    o.insert("gap".into(), serde_json::Value::from(op.gap.get()));
                    serde_json::Value::Object(o)
                })
                .collect();
            let mut t = serde_json::Map::new();
            t.insert("ops".into(), serde_json::Value::from(ops));
            serde_json::Value::Object(t)
        })
        .collect();
    root.insert("traces".into(), serde_json::Value::from(traces));
    serde_json::to_string_pretty(&serde_json::Value::Object(root))
        .map_err(|e| Error::Codec(e.to_string()))
}

/// Deserializes a workload from JSON (the format written by [`to_json`]).
///
/// # Errors
///
/// Returns [`Error::Codec`] if the input is not a valid workload document.
pub fn from_json(json: &str) -> Result<Workload> {
    fn field<'v>(v: &'v serde_json::Value, key: &str) -> Result<&'v serde_json::Value> {
        v.get(key).ok_or_else(|| Error::Codec(format!("missing field `{key}`")))
    }
    fn as_u64(v: &serde_json::Value, what: &str) -> Result<u64> {
        v.as_u64().ok_or_else(|| Error::Codec(format!("`{what}` is not an unsigned integer")))
    }

    let doc: serde_json::Value =
        serde_json::from_str(json).map_err(|e| Error::Codec(e.to_string()))?;
    let name = field(&doc, "name")?
        .as_str()
        .ok_or_else(|| Error::Codec("`name` is not a string".into()))?
        .to_owned();
    let traces_json = field(&doc, "traces")?
        .as_array()
        .ok_or_else(|| Error::Codec("`traces` is not an array".into()))?;
    let mut traces = Vec::with_capacity(traces_json.len());
    for trace in traces_json {
        let ops_json = field(trace, "ops")?
            .as_array()
            .ok_or_else(|| Error::Codec("`ops` is not an array".into()))?;
        let mut ops = Vec::with_capacity(ops_json.len());
        for op in ops_json {
            let line = LineAddr::new(as_u64(field(op, "line")?, "line")?);
            let kind = match field(op, "kind")?.as_str() {
                Some("Load") => AccessKind::Load,
                Some("Store") => AccessKind::Store,
                other => {
                    return Err(Error::Codec(format!("unknown access kind {other:?}")));
                }
            };
            let gap = Cycles::new(as_u64(field(op, "gap")?, "gap")?);
            ops.push(TraceOp::new(line, kind, gap));
        }
        traces.push(Trace::from_ops(ops));
    }
    Workload::new(name, traces).map_err(|e| Error::Codec(e.to_string()))
}

/// Serializes a workload to the compact binary format.
///
/// # Errors
///
/// Returns [`Error::Codec`] if the workload cannot be represented exactly:
/// a name longer than 65 535 bytes, or a compute gap that does not fit the
/// 32-bit on-disk field (the round-trip guarantee would otherwise be
/// silently broken).
pub fn to_binary(workload: &Workload) -> Result<Vec<u8>> {
    let name = workload.name().as_bytes();
    let name_len = u16::try_from(name.len())
        .map_err(|_| Error::Codec(format!("workload name is {} bytes, max 65535", name.len())))?;
    let mut buf = Vec::with_capacity(16 + name.len() + workload.total_accesses() as usize * 13);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&name_len.to_le_bytes());
    buf.extend_from_slice(name);
    buf.extend_from_slice(&(workload.cores() as u32).to_le_bytes());
    for trace in workload.traces() {
        buf.extend_from_slice(&(trace.len() as u64).to_le_bytes());
        for op in trace {
            let gap = u32::try_from(op.gap.get()).map_err(|_| {
                Error::Codec(format!("compute gap {} exceeds the 32-bit field", op.gap.get()))
            })?;
            buf.extend_from_slice(&op.line.raw().to_le_bytes());
            buf.push(u8::from(op.kind.is_store()));
            buf.extend_from_slice(&gap.to_le_bytes());
        }
    }
    Ok(buf)
}

/// Deserializes a workload from the compact binary format.
///
/// # Errors
///
/// Returns [`Error::Codec`] on truncated input, an unknown magic/version, or
/// a corrupt access-kind byte.
pub fn from_binary(mut buf: &[u8]) -> Result<Workload> {
    /// Splits the first `n` bytes off `buf`.
    fn take<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8]> {
        let (head, rest) = buf
            .split_at_checked(n)
            .ok_or_else(|| Error::Codec(format!("truncated input while reading {what}")))?;
        *buf = rest;
        Ok(head)
    }
    /// Splits off one little-endian field of `N` bytes.
    fn field<const N: usize>(buf: &mut &[u8], what: &str) -> Result<[u8; N]> {
        Ok(take(buf, N, what)?.try_into().expect("take returns N bytes"))
    }

    if take(&mut buf, 4, "header")? != MAGIC {
        return Err(Error::Codec("bad magic bytes, not a CoHoRT trace file".into()));
    }
    let version = u16::from_le_bytes(field(&mut buf, "header")?);
    if version != VERSION {
        return Err(Error::Codec(format!("unsupported trace format version {version}")));
    }
    let name_len = u16::from_le_bytes(field(&mut buf, "name length")?) as usize;
    let name = String::from_utf8(take(&mut buf, name_len, "name")?.to_vec())
        .map_err(|e| Error::Codec(format!("workload name is not utf-8: {e}")))?;
    let cores = u32::from_le_bytes(field(&mut buf, "core count")?) as usize;
    if cores == 0 {
        return Err(Error::Codec("workload encodes zero cores".into()));
    }

    let mut traces = Vec::with_capacity(cores);
    for core in 0..cores {
        let len = u64::from_le_bytes(field(&mut buf, "trace length")?) as usize;
        // Never trust the length field for allocation: cap the initial
        // capacity by what the remaining bytes could possibly hold (13
        // bytes per op), so a corrupt header cannot trigger a huge
        // allocation before the per-op bounds checks run.
        let mut ops = Vec::with_capacity(len.min(buf.len() / 13 + 1));
        for i in 0..len {
            let op: [u8; 13] = field(&mut buf, "trace op")?;
            let line = LineAddr::new(u64::from_le_bytes(op[..8].try_into().expect("8 bytes")));
            let kind = match op[8] {
                0 => AccessKind::Load,
                1 => AccessKind::Store,
                k => {
                    return Err(Error::Codec(format!(
                        "corrupt access kind {k} at core {core} op {i}"
                    )))
                }
            };
            let gap = u32::from_le_bytes(op[9..].try_into().expect("4 bytes"));
            ops.push(TraceOp::new(line, kind, Cycles::new(u64::from(gap))));
        }
        traces.push(Trace::from_ops(ops));
    }
    Workload::new(name, traces).map_err(|e| Error::Codec(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro;

    #[test]
    fn json_round_trip() {
        let w = micro::random_shared(3, 16, 40, 0.3, 9);
        let json = to_json(&w).unwrap();
        assert_eq!(from_json(&json).unwrap(), w);
    }

    #[test]
    fn binary_encoding_is_pinned() {
        // Trace files on disk outlive the code that wrote them.
        let bin = to_binary(&micro::random_shared(4, 64, 200, 0.5, 1)).unwrap();
        let digest = cohort_types::FingerprintBuilder::new().bytes(&bin).finish();
        assert_eq!(
            (bin.len(), digest.to_hex().as_str()),
            (10_457, "c05013a81213d555c6220c094c940d14")
        );
    }

    #[test]
    fn binary_round_trip() {
        let w = micro::random_shared(4, 64, 200, 0.5, 1);
        let bin = to_binary(&w).unwrap();
        assert_eq!(from_binary(&bin).unwrap(), w);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = from_binary(b"NOPE\x01\x00").unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn binary_rejects_truncation_everywhere() {
        let w = micro::ping_pong(2, 2);
        let bin = to_binary(&w).unwrap();
        for cut in 0..bin.len() {
            assert!(from_binary(&bin[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn binary_rejects_wrong_version() {
        let w = micro::ping_pong(1, 1);
        let mut bin = to_binary(&w).unwrap();
        bin[4] = 99;
        assert!(from_binary(&bin).unwrap_err().to_string().contains("version"));
    }

    #[test]
    fn binary_rejects_corrupt_kind() {
        let w = micro::ping_pong(1, 1);
        let mut bin = to_binary(&w).unwrap();
        let kind_offset = bin.len() - 5; // last op: ..., kind(1), gap(4)
        bin[kind_offset] = 7;
        assert!(from_binary(&bin).unwrap_err().to_string().contains("access kind"));
    }

    #[test]
    fn binary_rejects_huge_length_field_without_allocating() {
        let w = micro::ping_pong(1, 1);
        let mut bin = to_binary(&w).unwrap();
        // Overwrite the trace-length field (after magic+version+name+cores)
        // with u64::MAX: must error, not attempt an exabyte allocation.
        let len_offset = 4 + 2 + 2 + "ping-pong".len() + 4;
        bin[len_offset..len_offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(from_binary(&bin).unwrap_err().to_string().contains("truncated"));
    }

    #[test]
    fn binary_rejects_unencodable_gaps() {
        let w = Workload::new(
            "big-gap",
            vec![Trace::from_ops(vec![TraceOp::load(0).after(u64::from(u32::MAX) + 1)])],
        )
        .unwrap();
        assert!(to_binary(&w).unwrap_err().to_string().contains("32-bit"));
    }

    #[test]
    fn json_rejects_malformed_documents() {
        assert!(from_json("not json").is_err());
        assert!(from_json(r#"{"name": "x"}"#).unwrap_err().to_string().contains("traces"));
        let bad_kind =
            r#"{"name": "x", "traces": [{"ops": [{"line": 0, "kind": "Fetch", "gap": 0}]}]}"#;
        assert!(from_json(bad_kind).unwrap_err().to_string().contains("access kind"));
    }

    #[test]
    fn json_is_human_readable() {
        let w = micro::ping_pong(1, 1);
        let json = to_json(&w).unwrap();
        assert!(json.contains("ping-pong"));
        assert!(json.contains("Store"));
    }
}
