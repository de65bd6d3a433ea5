//! Injected I/O for the persistent store mirror.
//!
//! The mirror's durability logic — atomic tmp-write-then-rename, corrupt
//! sidecar quarantine, eviction — is pure path arithmetic over a handful
//! of filesystem verbs. *Whether those verbs succeed* is the only
//! nondeterministic part, so it is injected, mirroring the queue's
//! [`Clock`](crate::clock::Clock) pattern: production stores run on
//! [`SystemDisk`] (a thin `std::fs` passthrough), tests inject a
//! [`FaultyDisk`] whose transient failures are drawn from a seeded
//! splitmix64 stream — the store's bounded backoff absorbs them
//! deterministically, and a give-up is a typed error, never a spin.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cohort_types::{splitmix64, Error, Fingerprint};

/// The filesystem verbs the persistent mirror needs.
///
/// Every method maps 1:1 onto a `std::fs` call; errors are stringly
/// (`Err(detail)`) because the store folds them into typed
/// [`Error::StoreUnavailable`] / [`Error::StoreCorrupt`] values itself —
/// which is also why the per-method `# Errors` sections would all say
/// the same sentence and are elided.
#[allow(clippy::missing_errors_doc)]
pub trait Disk: Send + Sync + std::fmt::Debug {
    /// `std::fs::create_dir_all`.
    fn create_dir_all(&self, path: &Path) -> std::result::Result<(), String>;
    /// `std::fs::read_to_string`.
    fn read_to_string(&self, path: &Path) -> std::result::Result<String, String>;
    /// `std::fs::write`.
    fn write(&self, path: &Path, contents: &str) -> std::result::Result<(), String>;
    /// `std::fs::rename`.
    fn rename(&self, from: &Path, to: &Path) -> std::result::Result<(), String>;
    /// `std::fs::remove_file`.
    fn remove_file(&self, path: &Path) -> std::result::Result<(), String>;
    /// Whether the path exists.
    fn exists(&self, path: &Path) -> bool;
    /// The plain files directly under `dir`, **sorted by file name** so
    /// every directory scan is deterministic regardless of readdir order.
    fn list(&self, dir: &Path) -> std::result::Result<Vec<PathBuf>, String>;
}

/// The production disk: a `std::fs` passthrough.
#[derive(Debug, Default)]
pub struct SystemDisk;

impl SystemDisk {
    /// A fresh passthrough handle.
    #[must_use]
    pub fn new() -> Self {
        SystemDisk
    }
}

fn detail(e: &std::io::Error) -> String {
    e.to_string()
}

impl Disk for SystemDisk {
    fn create_dir_all(&self, path: &Path) -> std::result::Result<(), String> {
        std::fs::create_dir_all(path).map_err(|e| detail(&e))
    }

    fn read_to_string(&self, path: &Path) -> std::result::Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| detail(&e))
    }

    fn write(&self, path: &Path, contents: &str) -> std::result::Result<(), String> {
        std::fs::write(path, contents).map_err(|e| detail(&e))
    }

    fn rename(&self, from: &Path, to: &Path) -> std::result::Result<(), String> {
        std::fs::rename(from, to).map_err(|e| detail(&e))
    }

    fn remove_file(&self, path: &Path) -> std::result::Result<(), String> {
        std::fs::remove_file(path).map_err(|e| detail(&e))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn list(&self, dir: &Path) -> std::result::Result<Vec<PathBuf>, String> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| detail(&e))? {
            let entry = entry.map_err(|e| detail(&e))?;
            if entry.file_type().map_err(|e| detail(&e))?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }
}

/// The seeded draw of `path`: [`splitmix64`] of `seed` on the stream the
/// path selects, which is the first FNV-1a stream over its UTF-8 bytes
/// (the high half of its [`Fingerprint`]).
fn path_draw(seed: u64, path: &Path) -> u64 {
    let fnv = Fingerprint::builder().bytes(path.to_string_lossy().as_bytes()).finish().get() >> 64;
    splitmix64(seed, fnv as u64)
}

/// A chaos disk: wraps an inner [`Disk`] and fails each mutating verb a
/// deterministic, seed-chosen number of times per path before letting it
/// through.
///
/// The failure budget of a path is
/// `path_draw(seed, path) % (max_transient + 1)` — a pure function of the
/// seed and the path, so two runs of the
/// same fault schedule inject bit-identical fault sequences. Each failed
/// attempt decrements the budget, which is how the store's bounded retry
/// backoff is guaranteed to win: pick `max_transient` below the store's
/// attempt budget and every fault is absorbed; push it past the budget and
/// the give-up path fires deterministically instead.
///
/// Only `write` and `rename` fault — read-side corruption is a *content*
/// fault and is exercised by tampering with entries directly.
#[derive(Debug)]
pub struct FaultyDisk {
    inner: SystemDisk,
    seed: u64,
    max_transient: u64,
    /// Remaining failure budget per path, lazily seeded on first touch.
    remaining: Mutex<BTreeMap<PathBuf, u64>>,
    injected: AtomicU64,
}

impl FaultyDisk {
    /// A chaos disk over the real filesystem. Each path fails its first
    /// `path_draw(seed, path) % (max_transient + 1)` mutating operations.
    #[must_use]
    pub fn new(seed: u64, max_transient: u64) -> Self {
        FaultyDisk {
            inner: SystemDisk::new(),
            seed,
            max_transient,
            remaining: Mutex::new(BTreeMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// Total transient faults injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Returns `true` (and burns one unit of budget) if this touch of
    /// `path` should fail.
    fn should_fail(&self, path: &Path) -> bool {
        let mut remaining =
            self.remaining.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let budget = remaining
            .entry(path.to_path_buf())
            .or_insert_with(|| path_draw(self.seed, path) % (self.max_transient + 1));
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        self.injected.fetch_add(1, Ordering::SeqCst);
        true
    }
}

impl Disk for FaultyDisk {
    fn create_dir_all(&self, path: &Path) -> std::result::Result<(), String> {
        self.inner.create_dir_all(path)
    }

    fn read_to_string(&self, path: &Path) -> std::result::Result<String, String> {
        self.inner.read_to_string(path)
    }

    fn write(&self, path: &Path, contents: &str) -> std::result::Result<(), String> {
        if self.should_fail(path) {
            return Err(format!("injected transient write failure at {}", path.display()));
        }
        self.inner.write(path, contents)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::result::Result<(), String> {
        if self.should_fail(to) {
            return Err(format!("injected transient rename failure at {}", to.display()));
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::result::Result<(), String> {
        self.inner.remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn list(&self, dir: &Path) -> std::result::Result<Vec<PathBuf>, String> {
        self.inner.list(dir)
    }
}

/// Folds a final disk failure into the typed give-up error.
pub(crate) fn give_up(path: &Path, attempts: u64, last: String) -> Error {
    Error::StoreUnavailable { path: path.display().to_string(), attempts, detail: last }
}

/// The deterministic backoff schedule: attempt `i` (0-based) sleeps a
/// seeded pseudo-random 0–3 ms before retrying. The jitter is a pure
/// function of `(seed, path, i)` so fault-absorption traces replay
/// bit-identically; the total worst-case stall is bounded by
/// `attempts * 3 ms`, far below any lease.
pub(crate) fn backoff_ns(seed: u64, path: &Path, attempt: u64) -> u64 {
    let jitter = path_draw(seed ^ attempt.wrapping_mul(0x9e37_79b9), path) % 4;
    jitter * 1_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulty_disk_budget_is_a_pure_function_of_seed_and_path() {
        let dir = std::env::temp_dir().join(format!("cohort-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("probe.json");
        let run = |seed: u64| {
            let disk = FaultyDisk::new(seed, 3);
            let mut failures = 0;
            for _ in 0..8 {
                if disk.write(&path, "x").is_err() {
                    failures += 1;
                }
            }
            failures
        };
        assert_eq!(run(7), run(7), "same seed, same fault count");
        // Across many seeds the budget must actually vary (0..=3).
        let counts: Vec<u64> = (0..16).map(run).collect();
        assert!(counts.iter().any(|&c| c > 0), "some seed injects faults");
        assert!(counts.contains(&0), "some seed stays clean");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faults_are_transient_then_the_write_lands() {
        let dir = std::env::temp_dir().join(format!("cohort-disk-t-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("entry.json");
        // Find a seed that injects at least one fault for this path.
        let seed =
            (0..64).find(|&s| !path_draw(s, &path).is_multiple_of(4)).expect("some seed faults");
        let disk = FaultyDisk::new(seed, 3);
        let mut attempts = 0;
        loop {
            attempts += 1;
            if disk.write(&path, "payload").is_ok() {
                break;
            }
            assert!(attempts < 8, "budget is bounded");
        }
        assert!(attempts > 1, "at least one injected fault preceded success");
        assert_eq!(disk.injected(), attempts - 1);
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "payload");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn system_disk_lists_files_sorted() {
        let dir = std::env::temp_dir().join(format!("cohort-disk-l-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        for name in ["b.json", "a.json", "c.json"] {
            std::fs::write(dir.join(name), "x").expect("write");
        }
        let disk = SystemDisk::new();
        let listed = disk.list(&dir).expect("list");
        let names: Vec<String> = listed
            .iter()
            .map(|p| p.file_name().expect("name").to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["a.json", "b.json", "c.json"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulty_disk_transient_counts_are_pinned() {
        // The per-path fault budget is a pure function of (seed, path), so
        // chaos runs replay bit-identically: these counts must never change.
        // The directory does not exist, so un-injected writes fail too and
        // leave nothing behind; only `injected()` is observed.
        let path = Path::new("/nonexistent-cohort-golden/memo/00ab.json");
        let counts: Vec<u64> = [0u64, 1, 7, 42]
            .iter()
            .map(|&seed| {
                let disk = FaultyDisk::new(seed, 1000);
                for _ in 0..=1000 {
                    let _ = disk.write(path, "x");
                }
                disk.injected()
            })
            .collect();
        assert_eq!(counts, [975, 297, 913, 251]);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let path = Path::new("/memo/00ab.json");
        for attempt in 0..8 {
            let a = backoff_ns(42, path, attempt);
            assert_eq!(a, backoff_ns(42, path, attempt));
            assert!(a < 4_000_000, "jitter stays under 4 ms");
        }
    }
}
