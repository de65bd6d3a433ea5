//! The content-addressed result store: fingerprint-keyed payloads with
//! integrity checking, optionally persisted across runs.
//!
//! Every entry is an envelope `{format, key, payload_fingerprint, seq,
//! payload}`. The payload fingerprint is recomputed on every read and
//! compared to the recorded one — disk corruption or a tampered file
//! surfaces as [`Error::StoreCorrupt`] instead of a silently wrong result.
//! Because fleet jobs are deterministic, a corrupt entry is never fatal:
//! [`ResultStore::quarantine_corrupt`] moves it aside to a `.corrupt`
//! sidecar (preserved for forensics) and the client re-derives the payload
//! by resubmitting the job — bit-identically, which the repair asserts
//! whenever the sidecar still carries a parseable recorded fingerprint.
//!
//! All mirror I/O goes through an injected [`Disk`] (the queue's `Clock`
//! pattern): transient write failures are absorbed by a bounded,
//! deterministically-seeded backoff; exhausting the retry budget is a
//! typed [`Error::StoreUnavailable`], never a spin. A [`StoreBudget`]
//! bounds the mirror; overflow evicts recomputable entries
//! oldest-sequence-first, skipping pinned keys (live GA checkpoints).
//!
//! GA checkpoints live in a separate keyspace (same fingerprint keys,
//! `checkpoint-` file prefix): they are scratch state for lease re-claims,
//! deleted once the job's final payload lands.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use serde_json::{json, Value};

use cohort_types::{Error, Fingerprint, Result};

use crate::disk::{backoff_ns, give_up, Disk, SystemDisk};

/// Format marker written to (and required from) persisted entries. The
/// `seq` field added for eviction ordering is optional-on-read (missing
/// reads as 0), so `/1` envelopes from earlier releases stay readable.
const FORMAT: &str = "cohort-fleet-entry/1";

/// Mirror writes retry at most this many times before the typed give-up.
const WRITE_ATTEMPTS: u64 = 4;

/// Seed of the retry-backoff jitter stream — fixed, so fault-absorption
/// schedules replay bit-identically across runs.
const BACKOFF_SEED: u64 = 0xc047_5eed;

/// Digests a payload's canonical JSON spelling. `serde_json` serializes
/// object keys in sorted order, so equal `Value`s digest identically
/// regardless of construction order.
#[must_use]
pub fn payload_fingerprint(payload: &Value) -> Fingerprint {
    let text = serde_json::to_string(payload).expect("a Value serializes infallibly");
    Fingerprint::builder().bytes(text.as_bytes()).finish()
}

struct Entry {
    payload: Value,
    payload_fp: Fingerprint,
    seq: u64,
}

/// Size/entry budget for the persistent mirror. `None` axes are
/// unbounded; the default is fully unbounded (no eviction ever).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreBudget {
    /// At most this many entries on disk.
    pub max_entries: Option<usize>,
    /// At most this many envelope bytes on disk.
    pub max_bytes: Option<u64>,
}

impl StoreBudget {
    /// Whether any axis is bounded (bounded stores index the directory
    /// eagerly on open so eviction age-ordering survives the process).
    #[must_use]
    pub(crate) fn is_bounded(&self) -> bool {
        self.max_entries.is_some() || self.max_bytes.is_some()
    }

    fn exceeded(&self, entries: usize, bytes: u64) -> bool {
        self.max_entries.is_some_and(|m| entries > m) || self.max_bytes.is_some_and(|m| bytes > m)
    }
}

/// What the store preserved for forensics when it quarantined a corrupt
/// entry (`ResultStore::quarantine_corrupt`, called by the fleet client
/// and workers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptSidecar {
    /// The `.corrupt` sidecar path holding the quarantined bytes (`None`
    /// when only the in-memory copy was corrupt — nothing on disk).
    pub path: Option<PathBuf>,
    /// The payload fingerprint the corrupt envelope claimed, when the
    /// sidecar is still parseable enough to recover it — the repair
    /// asserts the re-derived payload matches it bit-identically.
    pub recorded_fp: Option<Fingerprint>,
}

/// Counter snapshot of the store's self-healing machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreHealth {
    /// Transient mirror-write failures absorbed by backoff.
    pub disk_retries: u64,
    /// Mirror writes abandoned after the full retry budget.
    pub disk_give_ups: u64,
    /// Entries evicted to hold the [`StoreBudget`].
    pub evictions: u64,
    /// Corrupt entries quarantined to `.corrupt` sidecars.
    pub corrupt_quarantined: u64,
    /// Corrupt entries repaired by re-deriving the payload.
    pub repairs: u64,
    /// Repairs whose re-derived payload matched the sidecar's recorded
    /// fingerprint bit-identically (always equals `repairs` when every
    /// sidecar was parseable — determinism at work).
    pub repairs_bit_identical: u64,
}

/// Fingerprint-keyed result store shared by all clients and worker shards.
///
/// In-memory always; give it a directory ([`ResultStore::persistent`]) to
/// also mirror every entry to disk, making the memo survive the process —
/// a later fleet run answers repeated submissions from the store without
/// executing anything.
pub struct ResultStore {
    entries: Mutex<BTreeMap<Fingerprint, Entry>>,
    checkpoints: Mutex<BTreeMap<Fingerprint, Value>>,
    /// Disk usage index of the mirror: key → (seq, envelope bytes).
    /// Maintained for budget-bounded stores (seeded by the open scan).
    index: Mutex<BTreeMap<Fingerprint, (u64, u64)>>,
    pins: Mutex<BTreeSet<Fingerprint>>,
    /// Keys quarantined and awaiting re-derivation, mapped to the payload
    /// fingerprint the corrupt entry *claimed* (when recoverable). The
    /// next [`ResultStore::put`] of such a key is the repair, and the
    /// store verifies its bit-identity against this record itself —
    /// whichever side performed the quarantine (open scan, worker claim,
    /// client wait).
    pending_repairs: Mutex<BTreeMap<Fingerprint, Option<Fingerprint>>>,
    dir: Option<PathBuf>,
    disk: Arc<dyn Disk>,
    budget: StoreBudget,
    next_seq: AtomicU64,
    hits: AtomicU64,
    disk_retries: AtomicU64,
    disk_give_ups: AtomicU64,
    evictions: AtomicU64,
    corrupt_quarantined: AtomicU64,
    repairs: AtomicU64,
    repairs_bit_identical: AtomicU64,
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore")
            .field("entries", &self.lock_entries().len())
            .field("dir", &self.dir)
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl ResultStore {
    fn with_parts(dir: Option<PathBuf>, disk: Arc<dyn Disk>, budget: StoreBudget) -> Self {
        ResultStore {
            entries: Mutex::new(BTreeMap::new()),
            checkpoints: Mutex::new(BTreeMap::new()),
            index: Mutex::new(BTreeMap::new()),
            pins: Mutex::new(BTreeSet::new()),
            pending_repairs: Mutex::new(BTreeMap::new()),
            dir,
            disk,
            budget,
            next_seq: AtomicU64::new(1),
            hits: AtomicU64::new(0),
            disk_retries: AtomicU64::new(0),
            disk_give_ups: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt_quarantined: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
            repairs_bit_identical: AtomicU64::new(0),
        }
    }

    /// A store living only as long as the process.
    #[must_use]
    pub fn in_memory() -> Self {
        Self::with_parts(None, Arc::new(SystemDisk::new()), StoreBudget::default())
    }

    /// A store mirroring every entry into `dir` (created if missing), so
    /// results persist across fleet runs and are shared by every client
    /// pointing at the same directory. Unbounded, on the real filesystem.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] if the directory cannot be created.
    pub fn persistent(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::persistent_with(dir, Arc::new(SystemDisk::new()), StoreBudget::default())
    }

    /// A persistent store with an injected [`Disk`] and a [`StoreBudget`].
    ///
    /// Opening sweeps crash debris (orphaned `*.json.tmp` files from a
    /// process killed mid-write) and, when the budget is bounded, indexes
    /// the directory eagerly — corrupt entries found by the scan are
    /// quarantined to `.corrupt` sidecars, never loaded and never fatal.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] if the directory cannot be created or
    /// listed.
    pub(crate) fn persistent_with(
        dir: impl Into<PathBuf>,
        disk: Arc<dyn Disk>,
        budget: StoreBudget,
    ) -> Result<Self> {
        let dir = dir.into();
        disk.create_dir_all(&dir)
            .map_err(|e| Error::Codec(format!("cannot create store dir {}: {e}", dir.display())))?;
        let store = Self::with_parts(Some(dir.clone()), disk, budget);
        store.open_scan(&dir)?;
        Ok(store)
    }

    /// Sweeps tmp debris; indexes entries when the budget is bounded.
    fn open_scan(&self, dir: &Path) -> Result<()> {
        let files = self
            .disk
            .list(dir)
            .map_err(|e| Error::Codec(format!("cannot list store dir {}: {e}", dir.display())))?;
        let mut max_seq = 0;
        for path in files {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            let Some(name) = name else { continue };
            if name.ends_with(".json.tmp") {
                // A torn write from a killed process: the rename never
                // happened, so the debris shadows nothing — drop it.
                self.disk.remove_file(&path).ok();
                continue;
            }
            if !self.budget.is_bounded() {
                continue;
            }
            let Some(stem) = name.strip_suffix(".json") else { continue };
            let Ok(key) = Fingerprint::from_hex(stem) else { continue };
            let Ok(text) = self.disk.read_to_string(&path) else { continue };
            match Self::decode_envelope(key, &text) {
                Ok(entry) => {
                    max_seq = max_seq.max(entry.seq);
                    self.lock_index().insert(key, (entry.seq, text.len() as u64));
                }
                Err(_) => {
                    // Truncated or tampered — quarantine now so the scan's
                    // index (and every later read) only sees good entries.
                    self.quarantine_corrupt(key);
                }
            }
        }
        self.next_seq.fetch_max(max_seq + 1, Ordering::SeqCst);
        Ok(())
    }

    // Chaos survival: a worker may panic (simulated kill) moments after a
    // store call returns; never let that poison the maps for its siblings.
    fn lock_entries(&self) -> std::sync::MutexGuard<'_, BTreeMap<Fingerprint, Entry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_checkpoints(&self) -> std::sync::MutexGuard<'_, BTreeMap<Fingerprint, Value>> {
        self.checkpoints.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_index(&self) -> std::sync::MutexGuard<'_, BTreeMap<Fingerprint, (u64, u64)>> {
        self.index.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_pins(&self) -> std::sync::MutexGuard<'_, BTreeSet<Fingerprint>> {
        self.pins.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_pending_repairs(
        &self,
    ) -> std::sync::MutexGuard<'_, BTreeMap<Fingerprint, Option<Fingerprint>>> {
        self.pending_repairs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn entry_path(dir: &Path, key: Fingerprint) -> PathBuf {
        dir.join(format!("{}.json", key.to_hex()))
    }

    fn sidecar_path(dir: &Path, key: Fingerprint) -> PathBuf {
        dir.join(format!("{}.json.corrupt", key.to_hex()))
    }

    /// One mirror I/O verb with the bounded, seeded retry backoff.
    fn with_retry(
        &self,
        path: &Path,
        mut op: impl FnMut() -> std::result::Result<(), String>,
    ) -> Result<()> {
        let mut last = String::new();
        for attempt in 0..WRITE_ATTEMPTS {
            match op() {
                Ok(()) => return Ok(()),
                Err(e) => last = e,
            }
            if attempt + 1 < WRITE_ATTEMPTS {
                self.disk_retries.fetch_add(1, Ordering::SeqCst);
                let ns = backoff_ns(BACKOFF_SEED, path, attempt);
                if ns > 0 {
                    std::thread::sleep(std::time::Duration::from_nanos(ns));
                }
            }
        }
        self.disk_give_ups.fetch_add(1, Ordering::SeqCst);
        Err(give_up(path, WRITE_ATTEMPTS, last))
    }

    /// Stores `payload` under `key`, replacing any previous entry (jobs
    /// are deterministic, so a replay writes the identical payload).
    ///
    /// # Errors
    ///
    /// Returns [`Error::StoreUnavailable`] if the persistent mirror still
    /// cannot be written after the bounded retry backoff; the in-memory
    /// entry is installed regardless.
    pub fn put(&self, key: Fingerprint, payload: Value) -> Result<()> {
        let payload_fp = payload_fingerprint(&payload);
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        let envelope = json!({
            "format": FORMAT,
            "key": key.to_hex(),
            "payload_fingerprint": payload_fp.to_hex(),
            "seq": seq,
            "payload": payload.clone(),
        });
        self.lock_entries().insert(key, Entry { payload, payload_fp, seq });
        // If this key was quarantined, this put is its repair — verify
        // bit-identity against the fingerprint the corrupt entry claimed.
        // The in-memory entry is the repair even if the mirror write
        // below fails, so the note lands before the disk I/O.
        if let Some(recorded) = self.lock_pending_repairs().remove(&key) {
            self.note_repair(recorded.map(|fp| fp == payload_fp));
        }
        if let Some(dir) = &self.dir {
            let path = Self::entry_path(dir, key);
            let mut text =
                serde_json::to_string_pretty(&envelope).expect("a Value serializes infallibly");
            text.push('\n');
            // Atomic tmp + rename: a torn write never shadows a good entry.
            let tmp = path.with_extension("json.tmp");
            self.with_retry(&tmp, || self.disk.write(&tmp, &text))?;
            self.with_retry(&path, || self.disk.rename(&tmp, &path))?;
            self.lock_index().insert(key, (seq, text.len() as u64));
            self.enforce_budget(key);
        }
        Ok(())
    }

    /// Evicts oldest-sequence-first until the mirror fits the budget.
    /// Pinned keys and the just-written `protect` key are never victims;
    /// eviction reclaims disk only — the in-memory copy stays servable for
    /// the rest of this run, and the entry is recomputable forever.
    fn enforce_budget(&self, protect: Fingerprint) {
        if !self.budget.is_bounded() {
            return;
        }
        let Some(dir) = &self.dir else { return };
        loop {
            let victim = {
                let index = self.lock_index();
                let entries = index.len();
                let bytes: u64 = index.values().map(|&(_, b)| b).sum();
                if !self.budget.exceeded(entries, bytes) {
                    break;
                }
                let pins = self.lock_pins();
                index
                    .iter()
                    .filter(|(k, _)| **k != protect && !pins.contains(*k))
                    .min_by_key(|(k, &(seq, _))| (seq, **k))
                    .map(|(k, _)| *k)
            };
            let Some(victim) = victim else { break };
            self.disk.remove_file(&Self::entry_path(dir, victim)).ok();
            self.lock_index().remove(&victim);
            self.evictions.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Fetches the payload stored under `key` — memory first, then the
    /// persistent directory. Every read re-verifies the payload
    /// fingerprint.
    ///
    /// # Errors
    ///
    /// Returns [`Error::StoreCorrupt`] if the entry fails its integrity
    /// check (recomputed payload fingerprint differs from the recorded
    /// one, or a persisted envelope is filed under the wrong key). The
    /// fleet client recovers by quarantining the entry and resubmitting
    /// the job — see `FleetClient::wait`.
    pub fn get(&self, key: Fingerprint) -> Result<Option<Value>> {
        if let Some(entry) = self.lock_entries().get(&key) {
            if payload_fingerprint(&entry.payload) != entry.payload_fp {
                return Err(Error::StoreCorrupt {
                    key: key.to_hex(),
                    detail: "in-memory payload no longer matches its recorded fingerprint".into(),
                });
            }
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(entry.payload.clone()));
        }
        let Some(dir) = &self.dir else { return Ok(None) };
        let path = Self::entry_path(dir, key);
        if !self.disk.exists(&path) {
            return Ok(None);
        }
        let text = self
            .disk
            .read_to_string(&path)
            .map_err(|e| Error::Codec(format!("store read {}: {e}", path.display())))?;
        let entry = Self::decode_envelope(key, &text)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.lock_index().insert(key, (entry.seq, text.len() as u64));
        let payload = entry.payload.clone();
        self.lock_entries().insert(key, entry);
        Ok(Some(payload))
    }

    fn decode_envelope(key: Fingerprint, text: &str) -> Result<Entry> {
        let corrupt = |detail: String| Error::StoreCorrupt { key: key.to_hex(), detail };
        let doc: Value = serde_json::from_str(text)
            .map_err(|e| corrupt(format!("entry is not well-formed JSON: {e}")))?;
        let format = doc.get("format").and_then(Value::as_str).unwrap_or("<missing>");
        if format != FORMAT {
            return Err(corrupt(format!("entry format `{format}` is not `{FORMAT}`")));
        }
        let filed_key = doc.get("key").and_then(Value::as_str).unwrap_or("<missing>");
        if filed_key != key.to_hex() {
            return Err(corrupt(format!("entry is filed under foreign key {filed_key}")));
        }
        let recorded = doc
            .get("payload_fingerprint")
            .and_then(Value::as_str)
            .ok_or_else(|| corrupt("entry has no payload fingerprint".into()))?;
        let recorded = Fingerprint::from_hex(recorded)
            .map_err(|e| corrupt(format!("unreadable payload fingerprint: {e}")))?;
        let seq = doc.get("seq").and_then(Value::as_u64).unwrap_or(0);
        let payload =
            doc.get("payload").cloned().ok_or_else(|| corrupt("entry has no payload".into()))?;
        let actual = payload_fingerprint(&payload);
        if actual != recorded {
            return Err(corrupt(format!(
                "payload fingerprint mismatch: recorded {}, recomputed {}",
                recorded.to_hex(),
                actual.to_hex()
            )));
        }
        Ok(Entry { payload, payload_fp: recorded, seq })
    }

    /// Quarantines `key`'s corrupt entry: the in-memory copy is dropped
    /// and the on-disk envelope (if any) is renamed to a `.corrupt`
    /// sidecar, preserved for forensics. Returns what was preserved; the
    /// `recorded_fp` (recovered when the sidecar still parses as JSON)
    /// lets the repair assert the re-derived payload is bit-identical.
    pub(crate) fn quarantine_corrupt(&self, key: Fingerprint) -> CorruptSidecar {
        // The corrupt in-memory entry's *recorded* fingerprint is intact
        // even when its payload is not — keep it as a fallback witness.
        let memory_fp = self.lock_entries().remove(&key).map(|e| e.payload_fp);
        let Some(dir) = &self.dir else {
            self.corrupt_quarantined.fetch_add(1, Ordering::SeqCst);
            self.lock_pending_repairs().insert(key, memory_fp);
            return CorruptSidecar { path: None, recorded_fp: memory_fp };
        };
        let path = Self::entry_path(dir, key);
        if !self.disk.exists(&path) {
            self.corrupt_quarantined.fetch_add(1, Ordering::SeqCst);
            self.lock_pending_repairs().insert(key, memory_fp);
            return CorruptSidecar { path: None, recorded_fp: memory_fp };
        }
        let recorded_fp = self
            .disk
            .read_to_string(&path)
            .ok()
            .and_then(|text| {
                let doc: Value = serde_json::from_str(&text).ok()?;
                let fp = doc.get("payload_fingerprint").and_then(Value::as_str)?;
                Fingerprint::from_hex(fp).ok()
            })
            .or(memory_fp);
        let sidecar = Self::sidecar_path(dir, key);
        if self.with_retry(&sidecar, || self.disk.rename(&path, &sidecar)).is_err() {
            // Forensics are best-effort; clearing the bad entry is not.
            self.disk.remove_file(&path).ok();
        }
        self.lock_index().remove(&key);
        self.corrupt_quarantined.fetch_add(1, Ordering::SeqCst);
        self.lock_pending_repairs().insert(key, recorded_fp);
        let path = if self.disk.exists(&sidecar) { Some(sidecar) } else { None };
        CorruptSidecar { path, recorded_fp }
    }

    /// Records one completed repair (a quarantined entry re-derived by
    /// resubmission); `bit_identical` says whether the repaired payload's
    /// fingerprint matched the one the corrupt entry claimed (`None` when
    /// the entry was too damaged to recover a fingerprint to compare).
    fn note_repair(&self, bit_identical: Option<bool>) {
        self.repairs.fetch_add(1, Ordering::SeqCst);
        if bit_identical == Some(true) {
            self.repairs_bit_identical.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Pins `key`: a pinned entry is never chosen for eviction. Live GA
    /// checkpoints pin their job's key automatically.
    pub fn pin(&self, key: Fingerprint) {
        self.lock_pins().insert(key);
    }

    /// Releases `key` back to the evictable pool.
    pub(crate) fn unpin(&self, key: Fingerprint) {
        self.lock_pins().remove(&key);
    }

    /// Counter snapshot of the self-healing machinery.
    #[must_use]
    pub fn health(&self) -> StoreHealth {
        StoreHealth {
            disk_retries: self.disk_retries.load(Ordering::SeqCst),
            disk_give_ups: self.disk_give_ups.load(Ordering::SeqCst),
            evictions: self.evictions.load(Ordering::SeqCst),
            corrupt_quarantined: self.corrupt_quarantined.load(Ordering::SeqCst),
            repairs: self.repairs.load(Ordering::SeqCst),
            repairs_bit_identical: self.repairs_bit_identical.load(Ordering::SeqCst),
        }
    }

    /// Whether `key` has a (memory or disk) entry, without verifying it.
    #[must_use]
    pub fn contains(&self, key: Fingerprint) -> bool {
        if self.lock_entries().contains_key(&key) {
            return true;
        }
        self.dir.as_deref().is_some_and(|dir| self.disk.exists(&Self::entry_path(dir, key)))
    }

    /// Number of in-memory entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock_entries().len()
    }

    /// Whether the in-memory store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock_entries().is_empty()
    }

    /// Number of successful reads answered so far (memory or disk).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Saves a GA checkpoint document for an in-flight job — the re-claim
    /// of an expired lease resumes from here instead of generation 0. The
    /// job's key is pinned against eviction while its checkpoint lives.
    pub(crate) fn put_checkpoint(&self, key: Fingerprint, doc: Value) {
        self.pin(key);
        self.lock_checkpoints().insert(key, doc);
    }

    /// The latest checkpoint for `key`, if any.
    #[must_use]
    pub fn checkpoint(&self, key: Fingerprint) -> Option<Value> {
        self.lock_checkpoints().get(&key).cloned()
    }

    /// Drops `key`'s checkpoint (called once the final payload landed)
    /// and releases its eviction pin.
    pub(crate) fn clear_checkpoint(&self, key: Fingerprint) {
        self.lock_checkpoints().remove(&key);
        self.unpin(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::FaultyDisk;

    fn key(n: u128) -> Fingerprint {
        Fingerprint::from_raw(n)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cohort-fleet-store-{tag}-test"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn put_get_round_trip_in_memory() {
        let store = ResultStore::in_memory();
        assert_eq!(store.get(key(1)).unwrap(), None);
        store.put(key(1), json!({"x": 7})).unwrap();
        assert_eq!(store.get(key(1)).unwrap(), Some(json!({"x": 7})));
        assert!(store.contains(key(1)));
        assert_eq!(store.hits(), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn persistent_entries_survive_a_new_store() {
        let dir = temp_dir("persist");
        {
            let store = ResultStore::persistent(&dir).unwrap();
            store.put(key(0xabc), json!({"outcome": [1, 2, 3]})).unwrap();
        }
        let fresh = ResultStore::persistent(&dir).unwrap();
        assert!(fresh.contains(key(0xabc)));
        assert_eq!(fresh.get(key(0xabc)).unwrap(), Some(json!({"outcome": [1, 2, 3]})));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_entries_are_detected() {
        let dir = temp_dir("tamper");
        let store = ResultStore::persistent(&dir).unwrap();
        store.put(key(0xdead), json!({"wcml": 212})).unwrap();

        // Flip a payload byte on disk behind the store's back.
        let path = dir.join(format!("{}.json", key(0xdead).to_hex()));
        let tampered = std::fs::read_to_string(&path).unwrap().replace("212", "211");
        std::fs::write(&path, tampered).unwrap();

        let fresh = ResultStore::persistent(&dir).unwrap();
        let err = fresh.get(key(0xdead)).unwrap_err();
        assert!(matches!(err, Error::StoreCorrupt { .. }), "{err}");
        assert!(err.to_string().contains("mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_and_garbage_envelopes_are_corrupt() {
        let dir = temp_dir("foreign");
        let store = ResultStore::persistent(&dir).unwrap();
        store.put(key(1), json!(1)).unwrap();
        // File key 1's envelope under key 2.
        std::fs::copy(
            dir.join(format!("{}.json", key(1).to_hex())),
            dir.join(format!("{}.json", key(2).to_hex())),
        )
        .unwrap();
        let fresh = ResultStore::persistent(&dir).unwrap();
        let err = fresh.get(key(2)).unwrap_err();
        assert!(err.to_string().contains("foreign key"), "{err}");
        // Garbage bytes are corrupt, not a crash.
        std::fs::write(dir.join(format!("{}.json", key(3).to_hex())), "}{").unwrap();
        assert!(matches!(fresh.get(key(3)), Err(Error::StoreCorrupt { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoints_are_a_separate_keyspace() {
        let store = ResultStore::in_memory();
        store.put_checkpoint(key(9), json!({"generation": 4}));
        assert_eq!(store.get(key(9)).unwrap(), None, "checkpoints never alias results");
        assert_eq!(store.checkpoint(key(9)), Some(json!({"generation": 4})));
        store.clear_checkpoint(key(9));
        assert_eq!(store.checkpoint(key(9)), None);
    }

    #[test]
    fn quarantine_preserves_a_forensic_sidecar_with_the_recorded_fingerprint() {
        let dir = temp_dir("sidecar");
        let store = ResultStore::persistent(&dir).unwrap();
        store.put(key(0xbad), json!({"wcml": 99})).unwrap();
        let recorded = payload_fingerprint(&json!({"wcml": 99}));

        // Tamper the payload: the envelope still parses, so forensics can
        // recover the fingerprint the entry *claimed*.
        let path = dir.join(format!("{}.json", key(0xbad).to_hex()));
        let tampered = std::fs::read_to_string(&path).unwrap().replace("99", "98");
        std::fs::write(&path, tampered).unwrap();

        let fresh = ResultStore::persistent(&dir).unwrap();
        assert!(fresh.get(key(0xbad)).is_err());
        let sidecar = fresh.quarantine_corrupt(key(0xbad));
        assert_eq!(sidecar.recorded_fp, Some(recorded));
        let sidecar_path = sidecar.path.expect("sidecar written");
        assert!(sidecar_path.to_string_lossy().ends_with(".json.corrupt"));
        assert!(sidecar_path.exists(), "forensic bytes preserved");
        assert!(!path.exists(), "bad entry moved aside");
        assert_eq!(fresh.get(key(0xbad)).unwrap(), None, "key reads as absent after quarantine");
        assert_eq!(fresh.health().corrupt_quarantined, 1);

        // The repair is a plain re-put; the store remembers the pending
        // quarantine and verifies bit-identity against the recorded
        // fingerprint itself.
        fresh.put(key(0xbad), json!({"wcml": 99})).unwrap();
        let health = fresh.health();
        assert_eq!((health.repairs, health.repairs_bit_identical), (1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_entries_are_quarantined_on_open_not_fatal() {
        let dir = temp_dir("truncated");
        {
            let store = ResultStore::persistent(&dir).unwrap();
            store.put(key(0x11), json!({"a": 1})).unwrap();
            store.put(key(0x22), json!({"b": 2})).unwrap();
        }
        // Simulate a crash mid-write on an fs without atomic rename
        // semantics: chop the envelope in half, and leave tmp debris too.
        let victim = dir.join(format!("{}.json", key(0x11).to_hex()));
        let text = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, &text[..text.len() / 2]).unwrap();
        std::fs::write(dir.join("dead.json.tmp"), "{\"torn").unwrap();

        // A budget-bounded open scans the directory: the truncated entry
        // is quarantined, the good one indexed, tmp debris swept — and
        // opening never errors.
        let budget = StoreBudget { max_entries: Some(16), max_bytes: None };
        let fresh =
            ResultStore::persistent_with(&dir, Arc::new(SystemDisk::new()), budget).unwrap();
        assert_eq!(fresh.health().corrupt_quarantined, 1);
        assert_eq!(fresh.get(key(0x11)).unwrap(), None, "truncated entry never loads");
        assert_eq!(fresh.get(key(0x22)).unwrap(), Some(json!({"b": 2})));
        assert!(!dir.join("dead.json.tmp").exists(), "tmp debris swept");
        assert!(
            dir.join(format!("{}.json.corrupt", key(0x11).to_hex())).exists(),
            "forensic sidecar kept"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_is_oldest_first_and_respects_pins() {
        let dir = temp_dir("evict");
        let budget = StoreBudget { max_entries: Some(2), max_bytes: None };
        let store =
            ResultStore::persistent_with(&dir, Arc::new(SystemDisk::new()), budget).unwrap();
        store.put(key(1), json!({"n": 1})).unwrap(); // seq 1 — oldest
        store.put(key(2), json!({"n": 2})).unwrap(); // seq 2
        store.put(key(3), json!({"n": 3})).unwrap(); // seq 3 → evicts key 1
        let on_disk = |k: Fingerprint| dir.join(format!("{}.json", k.to_hex())).exists();
        assert!(!on_disk(key(1)), "oldest entry evicted from disk");
        assert!(on_disk(key(2)) && on_disk(key(3)));
        assert_eq!(store.health().evictions, 1);
        // The in-memory copy still serves for the rest of this run.
        assert_eq!(store.get(key(1)).unwrap(), Some(json!({"n": 1})));

        // Pin key 2: the next overflow must skip it and take key 3.
        store.pin(key(2));
        store.put(key(4), json!({"n": 4})).unwrap();
        assert!(on_disk(key(2)), "pinned entry survives");
        assert!(!on_disk(key(3)), "next-oldest unpinned entry evicted instead");
        assert_eq!(store.health().evictions, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_age_order_survives_reopening_the_store() {
        let dir = temp_dir("evict-reopen");
        let budget = StoreBudget { max_entries: Some(2), max_bytes: None };
        {
            let store =
                ResultStore::persistent_with(&dir, Arc::new(SystemDisk::new()), budget).unwrap();
            store.put(key(0xa), json!({"n": 10})).unwrap();
            store.put(key(0xb), json!({"n": 11})).unwrap();
        }
        // The reopened store resumes the sequence counter from disk: the
        // new entry is youngest, key 0xa (lowest persisted seq) goes.
        let store =
            ResultStore::persistent_with(&dir, Arc::new(SystemDisk::new()), budget).unwrap();
        store.put(key(0xc), json!({"n": 12})).unwrap();
        assert!(!dir.join(format!("{}.json", key(0xa).to_hex())).exists());
        assert!(dir.join(format!("{}.json", key(0xb).to_hex())).exists());
        assert!(dir.join(format!("{}.json", key(0xc).to_hex())).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_disk_faults_are_absorbed_by_backoff() {
        let dir = temp_dir("faulty");
        // Budget 2 transient faults per path: strictly under the 4-attempt
        // retry budget, so every put must eventually land.
        let disk = Arc::new(FaultyDisk::new(3, 2));
        let store =
            ResultStore::persistent_with(&dir, disk.clone(), StoreBudget::default()).unwrap();
        for n in 0..6u128 {
            store.put(key(n), json!({"n": n.to_string()})).unwrap();
        }
        let health = store.health();
        assert!(health.disk_retries > 0, "some seed in 6 paths injects a fault");
        assert_eq!(health.disk_give_ups, 0, "bounded faults never exhaust the budget");
        assert_eq!(disk.injected(), health.disk_retries);
        // Everything is durable and intact.
        let fresh = ResultStore::persistent(&dir).unwrap();
        for n in 0..6u128 {
            assert_eq!(fresh.get(key(n)).unwrap(), Some(json!({"n": n.to_string()})));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_persistent_fault_is_a_typed_give_up_not_a_spin() {
        let dir = temp_dir("giveup");
        // 64 transient faults per path dwarfs the 4-attempt budget: paths
        // with a non-zero budget must fail with the typed error.
        let disk = Arc::new(FaultyDisk::new(1, 64));
        let store = ResultStore::persistent_with(&dir, disk, StoreBudget::default()).unwrap();
        let mut gave_up = 0;
        for n in 0..8u128 {
            match store.put(key(n), json!({"n": n.to_string()})) {
                Ok(()) => {}
                Err(Error::StoreUnavailable { attempts, .. }) => {
                    assert_eq!(attempts, WRITE_ATTEMPTS);
                    gave_up += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(gave_up > 0, "some path draws a fault budget past the retries");
        assert_eq!(store.health().disk_give_ups, gave_up);
        std::fs::remove_dir_all(&dir).ok();
    }
}
