use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use cohort_types::{Cycles, FingerprintBuilder};

use crate::{AccessKind, TraceOp};

/// The memory-access trace of one core (one thread of the workload).
///
/// A trace is an ordered sequence of [`TraceOp`]s. The simulator replays it
/// through the core model; the static analysis walks it to compute
/// guaranteed hits; Λ (the task's total access count) is [`Trace::len`].
///
/// A trace is **immutable and shared**: the operations live in one
/// reference-counted buffer, so cloning a trace (or a whole
/// [`Workload`](crate::Workload)) copies no operations, and the simulator
/// replays the buffer it was given instead of a private copy. The content
/// [`fingerprint`](Trace::fingerprint) is computed on first use and cached
/// with the trace (clones made after that carry the cached value), so each
/// trace is hashed at most once however many memo keys it enters.
///
/// # Examples
///
/// ```
/// use cohort_trace::{Trace, TraceOp};
///
/// let trace: Trace = [TraceOp::store(0x10), TraceOp::load(0x10).after(5)]
///     .into_iter()
///     .collect();
/// assert_eq!(trace.len(), 2);
/// let stats = trace.stats();
/// assert_eq!(stats.stores, 1);
/// assert_eq!(stats.unique_lines, 1);
///
/// // A clone shares the operations instead of copying them.
/// let copy = trace.clone();
/// assert!(std::ptr::eq(copy.ops().as_ptr(), trace.ops().as_ptr()));
/// ```
#[derive(Debug, Default, Clone)]
pub struct Trace {
    ops: Arc<[TraceOp]>,
    /// The content digest, filled by the first [`Trace::fingerprint`] call.
    fingerprint: OnceLock<u128>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a trace from a vector of operations.
    #[must_use]
    pub fn from_ops(ops: Vec<TraceOp>) -> Self {
        Trace { ops: ops.into(), fingerprint: OnceLock::new() }
    }

    /// Returns the number of memory accesses Λ in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the trace contains no accesses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Returns the operations as a slice.
    #[must_use]
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Iterates over the operations.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceOp> {
        self.ops.iter()
    }

    /// Returns a 128-bit content fingerprint of the trace.
    ///
    /// Two traces with the same operation sequence (same lines, access
    /// kinds and compute gaps) always fingerprint identically, so the
    /// value can serve as a compact memoization key for per-trace analysis
    /// results (see `cohort-analysis`'s shared cache). The digest is the
    /// [`FingerprintBuilder`]'s two FNV-1a streams over every field of
    /// every op, seeded with the op count, which makes accidental 128-bit
    /// collisions between *different* traces of this workload's scale
    /// vanishingly unlikely. The walk runs once per trace; later calls
    /// return the cached digest.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        *self.fingerprint.get_or_init(|| {
            self.ops
                .iter()
                .fold(FingerprintBuilder::with_length(self.ops.len() as u64), |digest, op| {
                    let kind = match op.kind() {
                        AccessKind::Load => 0,
                        AccessKind::Store => 1,
                    };
                    digest.u64(op.line.raw()).u64(kind).u64(op.gap().get())
                })
                .finish()
                .get()
        })
    }

    /// Computes summary statistics over the trace.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        let mut loads = 0u64;
        let mut stores = 0u64;
        let mut compute = Cycles::ZERO;
        let mut lines = HashSet::new();
        for op in self.ops.iter() {
            match op.kind() {
                AccessKind::Load => loads += 1,
                AccessKind::Store => stores += 1,
            }
            compute += op.gap();
            lines.insert(op.line);
        }
        TraceStats { loads, stores, unique_lines: lines.len() as u64, compute }
    }
}

impl FromIterator<TraceOp> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceOp>>(iter: I) -> Self {
        Trace::from_ops(iter.into_iter().collect())
    }
}

/// Traces are equal when their operations are: the cached fingerprint is
/// derived from them and takes no part in the comparison.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.ops == other.ops
    }
}

impl Eq for Trace {}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceOp;
    type IntoIter = std::slice::Iter<'a, TraceOp>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

/// Summary statistics of a [`Trace`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Number of load operations.
    pub loads: u64,
    /// Number of store operations.
    pub stores: u64,
    /// Number of distinct cache lines touched.
    pub unique_lines: u64,
    /// Total compute-gap cycles in the trace.
    pub compute: Cycles,
}

impl TraceStats {
    /// Total number of accesses (Λ).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// Fraction of accesses that are stores, in `[0, 1]`.
    #[must_use]
    pub fn store_fraction(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.stores as f64 / self.accesses() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_count_kinds_lines_and_compute() {
        let trace: Trace = [
            TraceOp::load(1).after(2),
            TraceOp::store(1).after(3),
            TraceOp::store(2),
            TraceOp::load(3).after(5),
        ]
        .into_iter()
        .collect();
        let s = trace.stats();
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 2);
        assert_eq!(s.unique_lines, 3);
        assert_eq!(s.compute.get(), 10);
        assert_eq!(s.accesses(), 4);
        assert!((s.store_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.stats().accesses(), 0);
        assert_eq!(t.stats().store_fraction(), 0.0);
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let base: Trace =
            [TraceOp::load(1).after(2), TraceOp::store(2).after(3)].into_iter().collect();
        assert_eq!(base.fingerprint(), base.clone().fingerprint());

        // Any field change — line, kind or gap — must change the digest.
        let other_line: Trace =
            [TraceOp::load(9).after(2), TraceOp::store(2).after(3)].into_iter().collect();
        let other_kind: Trace =
            [TraceOp::store(1).after(2), TraceOp::store(2).after(3)].into_iter().collect();
        let other_gap: Trace =
            [TraceOp::load(1).after(7), TraceOp::store(2).after(3)].into_iter().collect();
        for variant in [&other_line, &other_kind, &other_gap] {
            assert_ne!(base.fingerprint(), variant.fingerprint());
        }

        // Order matters, and the empty trace has its own digest.
        let swapped: Trace =
            [TraceOp::store(2).after(3), TraceOp::load(1).after(2)].into_iter().collect();
        assert_ne!(base.fingerprint(), swapped.fingerprint());
        assert_ne!(Trace::new().fingerprint(), base.fingerprint());
    }

    #[test]
    fn fingerprint_golden_values_are_pinned() {
        // Trace fingerprints are persisted content addresses (analysis memo
        // and fleet store keys): these digests must never change.
        // Each is checked on a clone taken before the first hash, on the
        // hashed trace itself (a cache hit) and on a clone taken after.
        let hex = |t: &Trace| format!("{:032x}", t.fingerprint());
        let pinned = |t: &Trace, expected: &str| {
            let early = t.clone();
            assert_eq!(hex(t), expected);
            assert_eq!(hex(t), expected);
            assert_eq!(hex(&t.clone()), expected);
            assert_eq!(hex(&early), expected);
        };
        pinned(&Trace::new(), "cbf29ce4842223256c62272e07bb0142");
        let pp = crate::micro::ping_pong(2, 6);
        pinned(&pp.traces()[0], "a3454b858951cf45051c228260c8d104");
        let mixed: Trace =
            [TraceOp::load(1).after(2), TraceOp::store(0xdead_beef).after(300), TraceOp::load(7)]
                .into_iter()
                .collect();
        pinned(&mixed, "f0003014e5b9de2dd3d0dac8c25685b5");
    }

    #[test]
    fn iterate_in_order() {
        let t: Trace =
            [TraceOp::load(0), TraceOp::load(1), TraceOp::store(2)].into_iter().collect();
        assert_eq!(t.len(), 3);
        let lines: Vec<u64> = t.iter().map(|op| op.line.raw()).collect();
        assert_eq!(lines, vec![0, 1, 2]);
        let borrowed: Vec<&TraceOp> = (&t).into_iter().collect();
        assert_eq!(borrowed.len(), 3);
    }

    #[test]
    fn clones_share_the_op_buffer() {
        let t = crate::micro::ping_pong(2, 6).traces()[0].clone();
        let copy = t.clone();
        assert!(std::ptr::eq(copy.ops().as_ptr(), t.ops().as_ptr()));
        // A workload clone shares every trace's buffer too.
        let w = crate::micro::random_shared(3, 8, 40, 0.3, 5);
        for (a, b) in w.clone().traces().iter().zip(w.traces()) {
            assert!(std::ptr::eq(a.ops().as_ptr(), b.ops().as_ptr()));
        }
    }

    #[test]
    fn the_cached_fingerprint_takes_no_part_in_equality() {
        let ops = vec![TraceOp::load(1).after(2), TraceOp::store(0xdead_beef).after(300)];
        let hashed = Trace::from_ops(ops.clone());
        let fresh = Trace::from_ops(ops);
        let _ = hashed.fingerprint();
        assert_eq!(hashed, fresh);
        assert_eq!(fresh, hashed);
        assert_ne!(hashed, Trace::new());
        assert_eq!(hashed.fingerprint(), fresh.fingerprint());
    }
}
