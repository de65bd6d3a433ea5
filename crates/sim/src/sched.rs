//! The discrete-event scheduler that advances the simulator clock.
//!
//! # Architecture
//!
//! A [`BinaryHeap`] of wake entries keyed `(at, seq)` stands in for a
//! per-instant O(cores + waiters) rescan. Every activity source re-arms
//! itself as it runs:
//!
//! - **cores** arm a wake at their next `ready_at` whenever they retire an
//!   access or issue a miss (and when a completed transfer un-stalls them);
//! - the **bus transaction** arms a wake at its `ends` instant when it is
//!   granted;
//! - **per-line timer releases** are re-derived for every line with queued
//!   waiters whenever the bus frees, but a line's wake is pushed only when
//!   its release instant differs from the one already armed, so
//!   re-deriving an unchanged release adds no heap entry;
//! - **TDM slot boundaries** are armed while the bus idles, because the
//!   PENDULUM arbiter can only grant on boundaries;
//! - **scheduled mode switches** and **fault activations** are armed from
//!   their schedules directly.
//!
//! Together with two engine-side rules — completion is a count of
//! unfinished cores, not a scan, and the arbiter asks only the cores its
//! policy inspects for a candidate — this keeps the cost of a cache-hit
//! instant independent of the core count and of how long lines are held.
//!
//! Ties are broken by a monotonically increasing sequence number, so the
//! pop order of simultaneous wakes is deterministic. Within one instant the
//! engine runs its phases in a fixed order: switches → faults → transaction
//! completion → cores in id order → releases and arbitration.
//!
//! # Determinism
//!
//! All state transitions in the machine are pure functions of `(state,
//! now)` guarded by absolute cycle stamps, so processing a component at an
//! instant where it has nothing due is a no-op: a stale wake (a core whose
//! `ready_at` moved, a release instant that shifted) self-heals. The one
//! exception is a retryable step fault (a line corruption or spurious
//! eviction that found no target yet), which is re-attempted at dispatched
//! instants. The engine attempts it only at an instant where some wake
//! source is genuinely due ([`Simulator`](crate::Simulator)'s real-instant
//! test), so redundant heap entries never add attempts. The golden
//! fingerprints in the `golden` test suite pin the event log, statistics
//! and fault records of every protocol preset across the scenario
//! families, so a change to any of these rules shows as a moved digest.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use cohort_types::LineAddr;

/// What a popped wake entry asks the engine to look at. The entry does not
/// carry payload state: due-ness is always re-checked against the live
/// machine state, so stale wakes (a core whose `ready_at` moved, a release
/// instant that shifted) are no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeSource {
    /// A scheduled timer re-programming comes due.
    Switch,
    /// A fault activation instant arrives.
    Fault,
    /// The in-flight bus transaction ends.
    TxnEnd,
    /// A core reaches its `ready_at`.
    Core(usize),
    /// A held line's release instant arrives (head waiter may unblock).
    Release(LineAddr),
    /// A TDM slot boundary while the bus idles.
    Slot,
}

/// One heap entry: wake at `at`, ties broken by insertion sequence.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WakeEntry {
    pub at: u64,
    pub seq: u64,
    pub source: WakeSource,
}

impl PartialEq for WakeEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for WakeEntry {}

impl PartialOrd for WakeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WakeEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The scheduler state, carried by the simulator so runs can be sliced
/// with `run_until` and the simulator stays `Clone`.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventSched {
    /// Min-heap of pending wakes.
    heap: BinaryHeap<Reverse<WakeEntry>>,
    /// Tie-breaking insertion sequence.
    seq: u64,
    /// Set once the initial wake set has been armed (first run call);
    /// before that, scheduled switches are armed by the priming itself.
    pub primed: bool,
    /// Cores armed with a `ready_at` at or before the current instant.
    /// Those armed before the core phase step in it; those armed during
    /// or after it step at the next dispatched instant.
    pub carry_cores: u64,
    /// Set by `step_core` when a new broadcast candidate appeared (a miss
    /// was issued): the bus should attempt arbitration at this instant.
    pub flag_arb: bool,
    /// Lines whose release instant must be re-derived at the current
    /// instant (popped release wakes, or a miss on a line with waiters
    /// whose effective timer may have dropped to MSI).
    pub dirty_lines: Vec<LineAddr>,
    /// The last TDM slot boundary armed, to avoid duplicate heap entries
    /// while the bus idles across several dispatches within one slot.
    armed_slot: u64,
    /// The last fault-activation instant armed, deduplicating the
    /// per-dispatch re-arm of the pending-activation chain.
    armed_fault: Option<u64>,
}

impl EventSched {
    /// Pushes a wake at `at` (absolute cycles).
    pub fn arm(&mut self, at: u64, source: WakeSource) {
        self.seq += 1;
        self.heap.push(Reverse(WakeEntry { at, seq: self.seq, source }));
    }

    /// Arms a core wake: future instants go on the heap, instants at or
    /// before `now` are carried to the next dispatch (see `carry_cores`).
    pub fn arm_core(&mut self, now: u64, id: usize, ready_at: u64) {
        if ready_at <= now {
            self.carry_cores |= 1 << id;
        } else {
            self.arm(ready_at, WakeSource::Core(id));
        }
    }

    /// Arms the bus-transaction completion wake. A tenure that ends at or
    /// before `now` (zero-latency configurations) completes at the next
    /// instant, because this instant's completion phase has already run.
    pub fn arm_txn(&mut self, now: u64, ends: u64) {
        self.arm(ends.max(now + 1), WakeSource::TxnEnd);
    }

    /// Arms a TDM slot-boundary wake, deduplicated per boundary.
    pub fn arm_slot(&mut self, boundary: u64) {
        if self.armed_slot != boundary {
            self.armed_slot = boundary;
            self.arm(boundary, WakeSource::Slot);
        }
    }

    /// Arms a fault-activation wake, deduplicated per instant (the next
    /// pending activation is re-derived after every dispatched instant,
    /// so without the dedup the heap would grow by one entry per
    /// dispatch).
    pub fn arm_fault(&mut self, at: u64) {
        if self.armed_fault != Some(at) {
            self.armed_fault = Some(at);
            self.arm(at, WakeSource::Fault);
        }
    }

    /// The number of pending wake entries, stale ones included.
    #[cfg(test)]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// The earliest pending wake instant, if any.
    pub fn next_wake_at(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Pops every wake due at or before `t`, returning the due-core mask
    /// and whether a TDM slot boundary was among them. Release wakes are
    /// queued on `dirty_lines` for the release phase.
    pub fn pop_due(&mut self, t: u64) -> (u64, bool) {
        let mut cores = 0u64;
        let mut slot = false;
        while let Some(Reverse(e)) = self.heap.peek() {
            if e.at > t {
                break;
            }
            let e = self.heap.pop().expect("peeked entry exists").0;
            match e.source {
                WakeSource::Core(id) => cores |= 1 << id,
                WakeSource::Slot => slot = true,
                WakeSource::Release(line) => self.dirty_lines.push(line),
                // Switch, fault and transaction due-ness is re-checked
                // against the live schedule/state; the entry only creates
                // the instant.
                WakeSource::Switch | WakeSource::Fault | WakeSource::TxnEnd => {}
            }
        }
        (cores, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_entries_order_by_instant_then_sequence() {
        let mut sched = EventSched::default();
        sched.arm(10, WakeSource::TxnEnd);
        sched.arm(5, WakeSource::Switch);
        sched.arm(10, WakeSource::Core(3));
        assert_eq!(sched.next_wake_at(), Some(5));
        let (cores, slot) = sched.pop_due(10);
        assert_eq!(cores, 1 << 3);
        assert!(!slot);
        assert_eq!(sched.next_wake_at(), None);
    }

    #[test]
    fn core_wakes_at_or_before_now_are_carried() {
        let mut sched = EventSched::default();
        sched.arm_core(7, 2, 7);
        sched.arm_core(7, 1, 9);
        assert_eq!(sched.carry_cores, 1 << 2);
        assert_eq!(sched.next_wake_at(), Some(9));
    }

    #[test]
    fn slot_arming_deduplicates_per_boundary() {
        let mut sched = EventSched::default();
        sched.arm_slot(54);
        sched.arm_slot(54);
        sched.arm_slot(108);
        assert_eq!(sched.heap.len(), 2);
    }
}
