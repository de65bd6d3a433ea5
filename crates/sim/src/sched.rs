//! The discrete-event scheduler that advances the simulator clock.
//!
//! # Architecture
//!
//! Two structures hold the pending wakes, split by how far ahead they lie.
//!
//! - **A timing wheel holds core wakes.** A core's next access is at most a
//!   compute gap, a hit latency or a bus transfer away, so core wakes fall
//!   a few hundred cycles ahead. The wheel has one slot per cycle over a
//!   [`WHEEL_SLOTS`]-cycle horizon, and each slot is a 64-bit core mask. An
//!   occupancy bitmap with one bit per slot, summarised by one word with
//!   one bit per bitmap word, finds the next occupied slot with two
//!   `trailing_zeros`. A core has at most one armed slot: re-arming it
//!   clears the old bit, so the wheel never holds a stale core wake. The
//!   wheel caches its earliest armed instant: an arm lowers the cached
//!   value, and popping or emptying the slot that holds it clears it. A
//!   dispatched instant therefore scans the ring once, when the pop of
//!   the due slot looks for the next one; `next_wake_at` reads the cache.
//! - **A [`BinaryHeap`] keyed `(at, seq)` holds every other wake**, and the
//!   rare core wake at or beyond the wheel's horizon:
//!   - the **bus transaction** arms a wake at its `ends` instant when it is
//!     granted;
//!   - **per-line timer releases** are re-derived for every line with
//!     queued waiters whenever the bus frees, but a line's wake is pushed
//!     only when its release instant differs from the one already armed,
//!     so re-deriving an unchanged release adds no heap entry;
//!   - **TDM slot boundaries** are armed while the bus idles, because the
//!     PENDULUM arbiter can only grant on boundaries;
//!   - **scheduled mode switches** and **fault activations** are armed
//!     from their schedules directly.
//!
//! Cores arm their next `ready_at` whenever they retire an access or issue
//! a miss, and when a completed transfer un-stalls them. [`EventSched::pop_due`]
//! folds the due wheel slots and the due heap entries into one due-core
//! mask. Together with three engine-side rules — completion is a count of
//! unfinished cores, not a scan; the arbiter asks only the cores its
//! policy inspects for a candidate; and only cores in the engine's ready
//! masks build one (cores with an un-broadcast request, and cores heading
//! a line whose holders have all released), so an attempt with no ready
//! core returns at once — this keeps the cost of a cache-hit instant
//! independent of the core count and of how long lines are held, and
//! takes the heap off the per-access path.
//!
//! Heap ties are broken by a monotonically increasing sequence number, so
//! the pop order of simultaneous wakes is deterministic; the wheel yields a
//! mask, which has no order to break. Within one instant the engine runs
//! its phases in a fixed order: switches → faults → transaction completion
//! → cores in id order → releases and arbitration.
//!
//! # Determinism
//!
//! All state transitions in the machine are pure functions of `(state,
//! now)` guarded by absolute cycle stamps, so processing a component at an
//! instant where it has nothing due is a no-op: a stale wake (a far core
//! wake on the heap whose `ready_at` moved, a release instant that
//! shifted) self-heals. The one exception is a retryable step fault (a
//! line corruption or spurious eviction that found no target yet), which
//! is re-attempted at dispatched instants. The engine attempts it only at
//! an instant where some wake source is genuinely due
//! ([`Simulator`](crate::Simulator)'s real-instant test), so redundant
//! wakes never add attempts, and the set of dispatched instants may shrink
//! (as the wheel's one-slot-per-core rule makes it) without moving any
//! outcome. The golden fingerprints in the `golden` test suite pin the
//! event log, statistics and fault records of every protocol preset
//! across the scenario families, so a change to any of these rules shows
//! as a moved digest.

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
    /// A core reaches a `ready_at` at or beyond the wheel's horizon.
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

/// Cycles the core-wake wheel spans: one slot per cycle, one occupancy bit
/// per slot and one summary bit per 64 slots, so the summary fits one word.
/// The horizon covers the longest core wake the benchmarks arm (a 64-core
/// sparse core's compute gap of up to 1,291 cycles) at 16 KiB of slots per
/// simulator.
const WHEEL_SLOTS: usize = 64 * 32;

/// Maps an instant to its wheel slot.
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;

/// The core-wake timing wheel. Every armed instant lies in
/// `[base, base + WHEEL_SLOTS)`, so no two armed instants share a slot.
#[derive(Debug, Clone)]
struct CoreWheel {
    /// Per slot: the cores that wake at the slot's instant.
    slots: Vec<u64>,
    /// Bit `s % 64` of word `s / 64` is set when slot `s` is non-empty.
    occupied: Vec<u64>,
    /// Bit `w` is set when `occupied[w]` is non-zero.
    summary: u64,
    /// The earliest instant the wheel can hold: one past the last popped
    /// instant.
    base: u64,
    /// Per core: the instant of its last wheel arm. The core's bit can be
    /// set only in that instant's slot, so clearing it there is always
    /// right, even after the slot was popped.
    armed: [u64; 64],
    /// The earliest armed instant when known, `None` when the ring must be
    /// scanned for it. An arm lowers it; popping or emptying its slot
    /// clears it.
    next: Option<u64>,
}

impl Default for CoreWheel {
    fn default() -> Self {
        CoreWheel {
            slots: vec![0; WHEEL_SLOTS],
            occupied: vec![0; WHEEL_SLOTS / 64],
            summary: 0,
            base: 0,
            armed: [0; 64],
            next: None,
        }
    }
}

impl CoreWheel {
    /// Arms core `id` at `at`, which must not precede `base`. Returns
    /// `false`, arming nothing, when `at` is at or beyond the horizon.
    fn arm(&mut self, id: usize, at: u64) -> bool {
        debug_assert!(at >= self.base, "core wake at {at} precedes the wheel base {}", self.base);
        if at - self.base >= WHEEL_SLOTS as u64 {
            return false;
        }
        let slot = (at & WHEEL_MASK) as usize;
        self.slots[slot] |= 1 << id;
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.summary |= 1 << (slot / 64);
        self.armed[id] = at;
        self.next = self.next.map(|next| next.min(at));
        true
    }

    /// Clears core `id`'s armed slot, if it still has one.
    fn unarm(&mut self, id: usize) {
        let slot = (self.armed[id] & WHEEL_MASK) as usize;
        self.slots[slot] &= !(1 << id);
        if self.slots[slot] == 0 {
            self.clear_slot(slot);
        }
    }

    fn clear_slot(&mut self, slot: usize) {
        if self.next.is_some_and(|next| (next & WHEEL_MASK) as usize == slot) {
            self.next = None;
        }
        let word = slot / 64;
        self.occupied[word] &= !(1 << (slot % 64));
        if self.occupied[word] == 0 {
            self.summary &= !(1 << word);
        }
    }

    /// The earliest armed instant, if any, scanning the ring only when the
    /// cached instant was cleared.
    fn next_at(&mut self) -> Option<u64> {
        if self.next.is_none() {
            self.next = self.scan();
        }
        debug_assert_eq!(self.next, self.scan(), "the cached next instant went stale");
        self.next
    }

    /// The earliest armed instant by a scan of the occupancy bitmap.
    fn scan(&self) -> Option<u64> {
        if self.summary == 0 {
            return None;
        }
        let start = (self.base & WHEEL_MASK) as usize;
        let word = start / 64;
        // The start word from the base's bit on, then the later words,
        // then the wrap around the ring (which may come back to the start
        // word's bits below the base).
        let here = self.occupied[word] & (u64::MAX << (start % 64));
        let slot = if here == 0 {
            let later = self.summary & (u64::MAX - 1).wrapping_shl(word as u32);
            let next = if later == 0 { self.summary } else { later };
            let next = next.trailing_zeros() as usize;
            next * 64 + self.occupied[next].trailing_zeros() as usize
        } else {
            word * 64 + here.trailing_zeros() as usize
        };
        Some(self.base + (slot.wrapping_sub(start) as u64 & WHEEL_MASK))
    }

    /// Pops every slot due at or before `t` and returns their cores.
    fn pop_due(&mut self, t: u64) -> u64 {
        let mut cores = 0;
        while let Some(at) = self.next_at().filter(|&at| at <= t) {
            let slot = (at & WHEEL_MASK) as usize;
            cores |= std::mem::take(&mut self.slots[slot]);
            self.clear_slot(slot);
        }
        self.base = self.base.max(t.saturating_add(1));
        cores
    }
}

/// The scheduler state, carried by the simulator so runs can be sliced
/// with `run_until` and the simulator stays `Clone`.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventSched {
    /// Min-heap of pending wakes other than near core wakes.
    heap: BinaryHeap<Reverse<WakeEntry>>,
    /// Core wakes within the horizon.
    wheel: CoreWheel,
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

    /// Arms a core wake, replacing the core's armed wheel slot: instants
    /// at or before `now` are carried to the next dispatch (see
    /// `carry_cores`), instants within the horizon go on the wheel and the
    /// rest on the heap.
    pub fn arm_core(&mut self, now: u64, id: usize, ready_at: u64) {
        self.wheel.unarm(id);
        if ready_at <= now {
            self.carry_cores |= 1 << id;
        } else if !self.wheel.arm(id, ready_at) {
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

    /// The number of pending heap entries, stale ones included.
    #[cfg(test)]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// The number of pending heap entries that are core wakes (armed at or
    /// beyond the wheel's horizon), stale ones included.
    #[cfg(test)]
    pub fn far_core_wakes(&self) -> usize {
        self.heap.iter().filter(|Reverse(e)| matches!(e.source, WakeSource::Core(_))).count()
    }

    /// The earliest pending wake instant, if any.
    pub fn next_wake_at(&mut self) -> Option<u64> {
        let heap = self.heap.peek().map(|Reverse(e)| e.at);
        match (heap, self.wheel.next_at()) {
            (Some(h), Some(w)) => Some(h.min(w)),
            (h, w) => h.or(w),
        }
    }

    /// Pops every wake due at or before `t`, returning the due-core mask
    /// and whether a TDM slot boundary was among them. Release wakes are
    /// queued on `dirty_lines` for the release phase.
    pub fn pop_due(&mut self, t: u64) -> (u64, bool) {
        let mut cores = self.wheel.pop_due(t);
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
    use cohort_types::splitmix64;

    use super::*;

    const H: u64 = WHEEL_SLOTS as u64;

    #[test]
    fn wake_entries_order_by_instant_then_sequence() {
        let mut sched = EventSched::default();
        sched.arm(10, WakeSource::TxnEnd);
        sched.arm(5, WakeSource::Switch);
        sched.arm_core(0, 3, 10);
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

    #[test]
    fn a_core_wake_at_the_horizon_goes_to_the_heap() {
        let mut sched = EventSched::default();
        sched.arm_core(0, 0, H - 1);
        assert_eq!(sched.pending(), 0, "the last instant within the horizon is on the wheel");
        sched.arm_core(0, 1, H);
        assert_eq!(sched.pending(), 1);
        assert_eq!(sched.far_core_wakes(), 1);
        assert_eq!(sched.next_wake_at(), Some(H - 1));
        assert_eq!(sched.pop_due(H - 1), (1, false));
        assert_eq!(sched.pop_due(H), (1 << 1, false));
        assert_eq!(sched.next_wake_at(), None);
    }

    #[test]
    fn core_wakes_wrap_around_the_ring() {
        let mut sched = EventSched::default();
        assert_eq!(sched.pop_due(H - 10), (0, false));
        // Slot H - 3 is near the end of the ring; H + 5 wraps to slot 5.
        sched.arm_core(H - 10, 4, H + 5);
        sched.arm_core(H - 10, 2, H - 3);
        sched.arm_core(H - 10, 6, 2 * H - 11);
        assert_eq!(sched.pending(), 0, "all three are within the horizon");
        assert_eq!(sched.next_wake_at(), Some(H - 3));
        assert_eq!(sched.pop_due(H - 3), (1 << 2, false));
        assert_eq!(sched.next_wake_at(), Some(H + 5));
        assert_eq!(sched.pop_due(H + 4), (0, false));
        assert_eq!(sched.pop_due(H + 5), (1 << 4, false));
        assert_eq!(sched.next_wake_at(), Some(2 * H - 11));
        assert_eq!(sched.pop_due(2 * H - 11), (1 << 6, false));
        assert_eq!(sched.next_wake_at(), None);
    }

    #[test]
    fn rearming_a_core_leaves_no_stale_bit() {
        let mut sched = EventSched::default();
        sched.arm_core(0, 1, 100);
        sched.arm_core(0, 5, 100);
        // Earlier, then later: only the last instant holds core 1.
        sched.arm_core(0, 1, 50);
        assert_eq!(sched.next_wake_at(), Some(50));
        sched.arm_core(0, 1, 300);
        assert_eq!(sched.next_wake_at(), Some(100));
        assert_eq!(sched.pop_due(299), (1 << 5, false));
        assert_eq!(sched.next_wake_at(), Some(300));
        // Carrying or moving past the horizon clears the slot too.
        sched.arm_core(299, 1, 299);
        assert_eq!(sched.carry_cores, 1 << 1);
        assert_eq!(sched.next_wake_at(), None);
        sched.arm_core(299, 5, 400);
        sched.arm_core(299, 5, 300 + H);
        assert_eq!(sched.pop_due(300 + H - 1), (0, false));
        assert_eq!(sched.wheel.summary, 0, "no occupied slot is left behind");
        assert_eq!(sched.pop_due(300 + H), (1 << 5, false));
    }

    #[test]
    fn a_clock_jump_longer_than_the_horizon_pops_every_due_core() {
        let mut sched = EventSched::default();
        sched.pop_due(1_000);
        sched.arm_core(1_000, 0, 1_001);
        sched.arm_core(1_000, 1, 1_000 + H / 2);
        // The wheel holds [1_001, 1_001 + H) after the pop at 1_000.
        sched.arm_core(1_000, 2, 1_001 + H);
        sched.arm_core(1_000, 3, 1_000 + 2 * H);
        assert_eq!(sched.far_core_wakes(), 2);
        assert_eq!(sched.pop_due(1_000 + 3 * H), (0b1111, false));
        assert_eq!(sched.next_wake_at(), None);
        // The wheel restarts from the jumped-to instant.
        sched.arm_core(1_000 + 3 * H, 7, 1_000 + 4 * H - 1);
        assert_eq!(sched.pending(), 0);
        assert_eq!(sched.next_wake_at(), Some(1_000 + 4 * H - 1));
    }

    /// Replays a seeded engine-like arm sequence — every due core re-arms
    /// some gap ahead (some gaps past the horizon), and now and then an
    /// armed core re-arms early or late — against a plain heap of every
    /// arm. The due mask must be the heap's latest arms plus the stale far
    /// arms, which stay on the scheduler's heap; a stale wheel arm never
    /// shows.
    #[test]
    fn the_due_core_mask_matches_a_heap_of_every_arm() {
        for seed in 0..4 {
            let mut sched = EventSched::default();
            // Every arm as `(at, core, went past the horizon)`, and each
            // core's latest arm.
            let mut heap = BinaryHeap::new();
            let mut latest = [0u64; 64];
            let mut rng = 0;
            let mut draw = |span: u64| {
                rng += 1;
                splitmix64(seed, rng) % span
            };
            let mut arms = Vec::new();
            let mut t = 0;
            let mut due = u64::MAX;
            for _ in 0..20_000 {
                arms.clear();
                for id in cores_of(due) {
                    let gap = if draw(50) == 0 { H - 20 + draw(40) } else { draw(700) };
                    arms.push((id, t + 1 + gap));
                }
                if draw(8) == 0 {
                    arms.push((draw(64) as usize, t + 1 + draw(3 * H / 2)));
                }
                for &(id, at) in &arms {
                    heap.push(Reverse((at, id, at - sched.wheel.base >= H)));
                    latest[id] = at;
                    sched.arm_core(t, id, at);
                }
                t = sched.next_wake_at().expect("every core stays armed");
                due = 0;
                let mut want = 0;
                while let Some(&Reverse((at, id, far))) = heap.peek() {
                    if at > t {
                        break;
                    }
                    heap.pop();
                    if latest[id] == at {
                        assert_eq!(at, t, "seed {seed}: core {id}'s wake at {at} was skipped");
                        due |= 1 << id;
                    }
                    if latest[id] == at || far {
                        want |= 1 << id;
                    }
                }
                assert_eq!(sched.pop_due(t), (want, false), "seed {seed} at {t}");
            }
        }
    }

    /// Drives the wheel through seeded arms, re-arms, unarms and pops —
    /// gaps up to past the horizon, pops that jump more than a horizon —
    /// and checks after each the cached next instant against a fresh scan
    /// of the ring. Checks are skipped at random, so some operations run
    /// on an already-cleared cache.
    #[test]
    fn the_cached_next_instant_matches_a_ring_scan() {
        for seed in 0..8 {
            let mut wheel = CoreWheel::default();
            let mut step = 0;
            let mut draw = |span: u64| {
                step += 1;
                splitmix64(100 + seed, step) % span
            };
            let mut t = 0;
            for _ in 0..50_000 {
                let id = draw(64) as usize;
                match draw(16) {
                    0..=9 => {
                        wheel.unarm(id);
                        let gap = if draw(20) == 0 { H - 8 + draw(16) } else { draw(300) };
                        wheel.arm(id, wheel.base + gap);
                    }
                    10..=11 => wheel.unarm(id),
                    12..=14 => {
                        t = wheel.next_at().unwrap_or(t).max(t);
                        wheel.pop_due(t);
                    }
                    _ => {
                        t += if draw(4) == 0 { 2 * H + draw(H) } else { draw(400) };
                        wheel.pop_due(t);
                    }
                }
                if draw(3) != 0 {
                    let scanned = wheel.scan();
                    assert_eq!(wheel.next_at(), scanned, "seed {seed} at {t}");
                }
            }
        }
    }

    fn cores_of(mut mask: u64) -> impl Iterator<Item = usize> {
        std::iter::from_fn(move || {
            (mask != 0).then(|| {
                let id = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                id
            })
        })
    }
}
