use core::fmt;

use cohort_types::{Cycles, LineAddr};

/// Whether a memory access reads or writes its cache line.
///
/// Loads issue `GetS` coherence requests on a miss, stores issue `GetM`
/// (including upgrades from the Shared state).
///
/// # Examples
///
/// ```
/// use cohort_trace::AccessKind;
///
/// assert!(AccessKind::Store.is_store());
/// assert!(!AccessKind::Load.is_store());
/// assert_eq!(AccessKind::Load.to_string(), "R");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read access.
    Load,
    /// A write access.
    Store,
}

impl AccessKind {
    /// Returns `true` for stores.
    #[must_use]
    pub const fn is_store(self) -> bool {
        matches!(self, AccessKind::Store)
    }

    /// Returns `true` for loads.
    #[must_use]
    pub const fn is_load(self) -> bool {
        matches!(self, AccessKind::Load)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Load => write!(f, "R"),
            AccessKind::Store => write!(f, "W"),
        }
    }
}

/// One memory access of a core's trace.
///
/// The gap ([`TraceOp::gap`]) is the number of compute cycles the core
/// spends *before* issuing this access (relative to the completion of the
/// previous access or, for the first access, relative to cycle 0). This is
/// how the trace-driven core model represents out-of-order pipelines:
/// computation overlaps nothing here, but the spacing between requests
/// reproduces the arrival process of the original application.
///
/// An op is 16 aligned bytes: the line, then one word holding the gap in
/// bits 0–62 and the store bit in bit 63, so a gap is at most
/// [`TraceOp::MAX_GAP`] (2^63 − 1) cycles.
///
/// # Examples
///
/// ```
/// use cohort_trace::{AccessKind, TraceOp};
/// use cohort_types::{Cycles, LineAddr};
///
/// let op = TraceOp::new(LineAddr::new(0x40), AccessKind::Store, Cycles::new(3));
/// assert!(op.kind().is_store());
/// assert_eq!(op.gap().get(), 3);
/// assert_eq!(size_of::<TraceOp>(), 16);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceOp {
    /// The cache line touched by the access.
    pub line: LineAddr,
    /// The gap in bits 0–62, [`STORE_BIT`] for a store.
    word: u64,
}

/// The bit of [`TraceOp`]'s word that marks a store.
const STORE_BIT: u64 = 1 << 63;

const _: () = assert!(size_of::<TraceOp>() == 16);

impl TraceOp {
    /// The largest compute gap an op can carry: 2^63 − 1 cycles.
    pub const MAX_GAP: u64 = STORE_BIT - 1;

    /// Creates a trace operation.
    ///
    /// # Panics
    ///
    /// Panics if `gap` exceeds [`TraceOp::MAX_GAP`] (2^63 − 1 cycles).
    #[must_use]
    pub const fn new(line: LineAddr, kind: AccessKind, gap: Cycles) -> Self {
        assert!(gap.get() <= Self::MAX_GAP, "trace op gap exceeds 2^63 - 1 cycles");
        let store = if kind.is_store() { STORE_BIT } else { 0 };
        TraceOp { line, word: gap.get() | store }
    }

    /// Shorthand for a load with no preceding compute gap.
    #[must_use]
    pub const fn load(line: u64) -> Self {
        TraceOp::new(LineAddr::new(line), AccessKind::Load, Cycles::ZERO)
    }

    /// Shorthand for a store with no preceding compute gap.
    #[must_use]
    pub const fn store(line: u64) -> Self {
        TraceOp::new(LineAddr::new(line), AccessKind::Store, Cycles::ZERO)
    }

    /// Returns a copy with the given compute gap.
    ///
    /// # Panics
    ///
    /// Panics if `gap` exceeds [`TraceOp::MAX_GAP`].
    #[must_use]
    pub const fn after(self, gap: u64) -> Self {
        TraceOp::new(self.line, self.kind(), Cycles::new(gap))
    }

    /// Load or store.
    #[inline]
    #[must_use]
    pub const fn kind(self) -> AccessKind {
        if self.word & STORE_BIT == 0 {
            AccessKind::Load
        } else {
            AccessKind::Store
        }
    }

    /// Compute cycles preceding the access.
    #[inline]
    #[must_use]
    pub const fn gap(self) -> Cycles {
        Cycles::new(self.word & Self::MAX_GAP)
    }
}

#[allow(clippy::missing_fields_in_debug)] // `word` prints as its kind and gap
impl fmt::Debug for TraceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceOp")
            .field("line", &self.line)
            .field("kind", &self.kind())
            .field("gap", &self.gap())
            .finish()
    }
}

impl fmt::Display for TraceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{} (+{})", self.kind(), self.line, self.gap().get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shorthands() {
        let r = TraceOp::load(5);
        assert!(r.kind().is_load());
        assert_eq!(r.line.raw(), 5);
        assert_eq!(r.gap(), Cycles::ZERO);

        let w = TraceOp::store(7).after(12);
        assert!(w.kind().is_store());
        assert_eq!(w.gap().get(), 12);
    }

    #[test]
    fn kind_and_gap_round_trip_at_both_ends_of_the_range() {
        for kind in [AccessKind::Load, AccessKind::Store] {
            for gap in [0, TraceOp::MAX_GAP] {
                let op = TraceOp::new(LineAddr::new(u64::MAX), kind, Cycles::new(gap));
                assert_eq!((op.line.raw(), op.kind(), op.gap().get()), (u64::MAX, kind, gap));
                let moved = op.after(TraceOp::MAX_GAP - gap);
                assert_eq!((moved.kind(), moved.gap().get()), (kind, TraceOp::MAX_GAP - gap));
            }
        }
    }

    #[test]
    #[should_panic(expected = "gap exceeds")]
    fn new_panics_one_past_the_largest_gap() {
        let _ = TraceOp::new(LineAddr::new(0), AccessKind::Load, Cycles::new(TraceOp::MAX_GAP + 1));
    }

    #[test]
    fn debug_prints_line_kind_and_gap() {
        let debug = format!("{:?}", TraceOp::store(3).after(4));
        assert!(debug.contains("kind: Store") && debug.contains("gap: Cycles(4)"), "{debug}");
    }

    #[test]
    fn display() {
        assert_eq!(TraceOp::store(255).after(2).to_string(), "WL0xff (+2)");
    }
}
