use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use cohort_types::{Cycles, FingerprintBuilder};

use crate::{AccessKind, TraceOp};

/// The memory-access trace of one core (one thread of the workload).
///
/// A trace is an ordered sequence of [`TraceOp`]s. The simulator replays it
/// through the core model; the static analysis walks it to compute
/// guaranteed hits; Λ (the task's total access count) is [`Trace::len`].
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
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    ops: Vec<TraceOp>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace { ops: Vec::new() }
    }

    /// Creates a trace from a vector of operations.
    #[must_use]
    pub fn from_ops(ops: Vec<TraceOp>) -> Self {
        Trace { ops }
    }

    /// Appends one operation.
    pub fn push(&mut self, op: TraceOp) {
        self.ops.push(op);
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
    /// vanishingly unlikely.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        self.ops
            .iter()
            .fold(FingerprintBuilder::with_length(self.ops.len() as u64), |digest, op| {
                let kind = match op.kind {
                    AccessKind::Load => 0,
                    AccessKind::Store => 1,
                };
                digest.u64(op.line.raw()).u64(kind).u64(op.gap.get())
            })
            .finish()
            .get()
    }

    /// Computes summary statistics over the trace.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        let mut loads = 0u64;
        let mut stores = 0u64;
        let mut compute = Cycles::ZERO;
        let mut lines = HashSet::new();
        for op in &self.ops {
            match op.kind {
                AccessKind::Load => loads += 1,
                AccessKind::Store => stores += 1,
            }
            compute += op.gap;
            lines.insert(op.line);
        }
        TraceStats { loads, stores, unique_lines: lines.len() as u64, compute }
    }
}

impl FromIterator<TraceOp> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceOp>>(iter: I) -> Self {
        Trace { ops: iter.into_iter().collect() }
    }
}

impl Extend<TraceOp> for Trace {
    fn extend<I: IntoIterator<Item = TraceOp>>(&mut self, iter: I) {
        self.ops.extend(iter);
    }
}

impl IntoIterator for Trace {
    type Item = TraceOp;
    type IntoIter = std::vec::IntoIter<TraceOp>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceOp;
    type IntoIter = std::slice::Iter<'a, TraceOp>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

/// Summary statistics of a [`Trace`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
        let hex = |t: &Trace| format!("{:032x}", t.fingerprint());
        assert_eq!(hex(&Trace::new()), "cbf29ce4842223256c62272e07bb0142");
        let pp = crate::micro::ping_pong(2, 6);
        assert_eq!(hex(&pp.traces()[0]), "a3454b858951cf45051c228260c8d104");
        let mixed: Trace =
            [TraceOp::load(1).after(2), TraceOp::store(0xdead_beef).after(300), TraceOp::load(7)]
                .into_iter()
                .collect();
        assert_eq!(hex(&mixed), "f0003014e5b9de2dd3d0dac8c25685b5");
    }

    #[test]
    fn extend_and_iterate() {
        let mut t = Trace::new();
        t.extend([TraceOp::load(0), TraceOp::load(1)]);
        t.push(TraceOp::store(2));
        assert_eq!(t.len(), 3);
        let lines: Vec<u64> = t.iter().map(|op| op.line.raw()).collect();
        assert_eq!(lines, vec![0, 1, 2]);
        let owned: Vec<TraceOp> = t.clone().into_iter().collect();
        assert_eq!(owned.len(), 3);
    }
}
