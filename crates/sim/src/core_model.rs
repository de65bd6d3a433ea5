//! Trace-driven core model with MSHRs (non-blocking, hits-over-misses).

use cohort_trace::{Trace, TraceOp};
use cohort_types::Cycles;

use crate::coherence::{CohSlot, ReqKind};
use cohort_types::LineAddr;

/// An outstanding miss tracked by a core's MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MshrEntry {
    /// The missing line.
    pub line: LineAddr,
    /// GetS (load miss) or GetM (store miss / upgrade).
    pub kind: ReqKind,
    /// Cycle the miss was issued to the memory system.
    pub issued: Cycles,
    /// Whether the request has been broadcast on the bus.
    pub broadcast: bool,
    /// Whether the requester holds a Shared copy (upgrade request).
    pub upgrade: bool,
    /// The line's coherence slot, bound when the request is broadcast:
    /// from then on the requester waits on the line, which keeps the slot
    /// live until the request completes.
    pub coh: Option<CohSlot>,
}

/// Per-core replay state. All behaviour lives in the engine; this struct is
/// the bookkeeping it operates on.
#[derive(Debug, Clone)]
pub(crate) struct CoreModel {
    /// The trace to replay: a clone sharing the workload's op buffer.
    pub trace: Trace,
    /// Index of the next operation to issue.
    pub cursor: usize,
    /// Earliest cycle the core can act (compute gap / hit latency elapsed).
    pub ready_at: Cycles,
    /// Set when the next operation cannot issue (MSHR full or the line has
    /// a miss in flight); cleared when a miss completes.
    pub stalled: bool,
    /// Outstanding misses, oldest first.
    pub mshr: Vec<MshrEntry>,
    /// MSHR capacity.
    pub mshr_capacity: usize,
    /// Completion cycle of the last access, once the trace is drained.
    pub finish: Option<Cycles>,
    /// Completion cycle of the most recent access.
    pub last_completion: Cycles,
}

impl CoreModel {
    pub(crate) fn new(trace: Trace, mshr_capacity: usize) -> Self {
        let first_gap = trace.ops().first().map_or(Cycles::ZERO, |op| op.gap);
        CoreModel {
            trace,
            cursor: 0,
            ready_at: first_gap,
            stalled: false,
            mshr: Vec::with_capacity(mshr_capacity),
            mshr_capacity,
            finish: None,
            last_completion: Cycles::ZERO,
        }
    }

    /// The next operation to issue, if the trace is not drained.
    pub(crate) fn current_op(&self) -> Option<&TraceOp> {
        self.trace.ops().get(self.cursor)
    }

    /// True once the trace is drained and all misses have completed.
    pub(crate) fn is_done(&self) -> bool {
        self.cursor >= self.trace.len() && self.mshr.is_empty()
    }

    /// The core's oldest outstanding request.
    pub(crate) fn oldest_request(&self) -> Option<&MshrEntry> {
        self.mshr.first()
    }

    /// The core's oldest request that has not yet been broadcast.
    #[inline]
    pub(crate) fn oldest_unbroadcast(&self) -> Option<&MshrEntry> {
        self.mshr.iter().find(|m| !m.broadcast)
    }

    /// Whether a miss for `line` is already in flight.
    #[inline]
    pub(crate) fn has_inflight(&self, line: LineAddr) -> bool {
        self.mshr.iter().any(|m| m.line == line)
    }

    /// Allocates an MSHR entry. Caller must have checked capacity.
    #[inline]
    pub(crate) fn allocate(&mut self, entry: MshrEntry) {
        debug_assert!(self.mshr.len() < self.mshr_capacity, "MSHR overflow");
        self.mshr.push(entry);
    }

    /// Completes (removes) the in-flight miss for `line`, returning it.
    #[inline]
    pub(crate) fn complete(&mut self, line: LineAddr) -> Option<MshrEntry> {
        let pos = self.mshr.iter().position(|m| m.line == line)?;
        Some(self.mshr.remove(pos))
    }

    /// Marks the oldest un-broadcast request for `line` as broadcast and
    /// records the line's coherence slot. Returns whether an un-broadcast
    /// request is left.
    #[inline]
    pub(crate) fn mark_broadcast(&mut self, line: LineAddr, coh: CohSlot) -> bool {
        if let Some(m) = self.mshr.iter_mut().find(|m| m.line == line && !m.broadcast) {
            m.broadcast = true;
            m.coh = Some(coh);
        }
        self.oldest_unbroadcast().is_some()
    }

    /// The coherence slot of the broadcast request for `line`, if any.
    #[inline]
    pub(crate) fn broadcast_slot(&self, line: LineAddr) -> Option<CohSlot> {
        self.mshr.iter().find(|m| m.line == line).and_then(|m| m.coh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(line: u64, issued: u64) -> MshrEntry {
        MshrEntry {
            line: LineAddr::new(line),
            kind: ReqKind::GetM,
            issued: Cycles::new(issued),
            broadcast: false,
            upgrade: false,
            coh: None,
        }
    }

    #[test]
    fn initial_ready_time_honours_first_gap() {
        let core = CoreModel::new(Trace::from_ops(vec![TraceOp::load(0).after(7)]), 1);
        assert_eq!(core.ready_at.get(), 7);
        assert!(!core.is_done());
    }

    #[test]
    fn empty_trace_is_done_immediately() {
        let core = CoreModel::new(Trace::new(), 1);
        assert!(core.is_done());
        assert!(core.current_op().is_none());
    }

    #[test]
    fn mshr_lifecycle() {
        let mut core = CoreModel::new(Trace::from_ops(vec![TraceOp::load(0)]), 2);
        core.allocate(entry(0, 5));
        core.allocate(entry(1, 9));
        assert!(core.has_inflight(LineAddr::new(0)));
        assert_eq!(core.oldest_request().unwrap().issued.get(), 5);
        assert_eq!(core.oldest_unbroadcast().unwrap().line.raw(), 0);
        let slot = crate::coherence::CoherenceMap::new().acquire(LineAddr::new(0));
        assert!(core.mark_broadcast(LineAddr::new(0), slot), "line 1 is still un-broadcast");
        assert_eq!(core.oldest_unbroadcast().unwrap().line.raw(), 1);
        assert!(!core.mark_broadcast(LineAddr::new(1), slot));
        let done = core.complete(LineAddr::new(0)).unwrap();
        assert!(done.broadcast);
        assert!(!core.has_inflight(LineAddr::new(0)));
        assert_eq!(core.complete(LineAddr::new(7)), None);
    }

    #[test]
    fn a_broadcast_request_carries_its_coherence_slot() {
        let mut core = CoreModel::new(Trace::from_ops(vec![TraceOp::load(0)]), 2);
        core.allocate(entry(0, 5));
        core.allocate(entry(1, 9));
        assert_eq!(core.broadcast_slot(LineAddr::new(0)), None);
        let slot = crate::coherence::CoherenceMap::new().acquire(LineAddr::new(0));
        core.mark_broadcast(LineAddr::new(0), slot);
        assert_eq!(core.broadcast_slot(LineAddr::new(0)), Some(slot));
        assert_eq!(core.broadcast_slot(LineAddr::new(1)), None);
    }
}
