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
/// `gap` is the number of compute cycles the core spends *before* issuing
/// this access (relative to the completion of the previous access or, for
/// the first access, relative to cycle 0). This is how the trace-driven core
/// model represents out-of-order pipelines: computation overlaps nothing
/// here, but the spacing between requests reproduces the arrival process of
/// the original application.
///
/// # Examples
///
/// ```
/// use cohort_trace::{AccessKind, TraceOp};
/// use cohort_types::{Cycles, LineAddr};
///
/// let op = TraceOp::new(LineAddr::new(0x40), AccessKind::Store, Cycles::new(3));
/// assert!(op.kind.is_store());
/// assert_eq!(op.gap.get(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceOp {
    /// The cache line touched by the access.
    pub line: LineAddr,
    /// Load or store.
    pub kind: AccessKind,
    /// Compute cycles preceding the access.
    pub gap: Cycles,
}

impl TraceOp {
    /// Creates a trace operation.
    #[must_use]
    pub const fn new(line: LineAddr, kind: AccessKind, gap: Cycles) -> Self {
        TraceOp { line, kind, gap }
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
    #[must_use]
    pub const fn after(mut self, gap: u64) -> Self {
        self.gap = Cycles::new(gap);
        self
    }
}

impl fmt::Display for TraceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{} (+{})", self.kind, self.line, self.gap.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shorthands() {
        let r = TraceOp::load(5);
        assert!(r.kind.is_load());
        assert_eq!(r.line.raw(), 5);
        assert_eq!(r.gap, Cycles::ZERO);

        let w = TraceOp::store(7).after(12);
        assert!(w.kind.is_store());
        assert_eq!(w.gap.get(), 12);
    }

    #[test]
    fn display() {
        assert_eq!(TraceOp::store(255).after(2).to_string(), "WL0xff (+2)");
    }
}
