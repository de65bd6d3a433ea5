//! Bus-visible coherence bookkeeping: owners, sharers and waiter queues.
//!
//! On a snooping bus every cache observes every broadcast, so the global
//! coherence state — who owns each line, who shares it, and which requests
//! are queued behind it — is common knowledge. This module models that
//! common knowledge as one [`LineCoh`] per live line. It is pure
//! bookkeeping: all timing (release instants, transfer durations) lives in
//! the engine.
//!
//! A line is live while a core holds it or waits on it, and each live line
//! owns one [`CohSlot`] of a [`CoherenceMap`]. The engine carries the slot
//! next to the line — in the holder's L1 entry, in the requester's MSHR
//! entry once its request is broadcast, and in the transfer in flight — so
//! a hit, a grant or a transfer reads the line's state by index. Only a
//! broadcast resolves a line address to a slot through the hashed index,
//! which holds live lines alone. A slot whose line turns trivial (owned by
//! the shared memory, no holders, no waiters) is recycled for the next line
//! that goes live. The one scan over the map ([`CoherenceMap::iter`]) sorts
//! by line, so no outcome depends on the hash layout or on slot numbers.

use std::collections::hash_map::Entry;
use std::collections::HashMap; // lint:allow(det-unordered) line-keyed lookups only; iter() sorts by line
use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Index, IndexMut};

use cohort_types::{splitmix64, Cycles, LineAddr};

/// Who supplies the data for the next transfer of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Owner {
    /// The shared memory (LLC, possibly backed by DRAM) owns the line.
    Llc,
    /// A core's private cache owns the line in Modified state.
    Core(usize),
}

impl Owner {
    /// Returns the owning core's index, if a core owns the line.
    #[must_use]
    pub const fn core(self) -> Option<usize> {
        match self {
            Owner::Core(c) => Some(c),
            Owner::Llc => None,
        }
    }
}

/// The coherence request a waiter issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// Read request (load miss).
    GetS,
    /// Write/ownership request (store miss or upgrade from Shared).
    GetM,
}

impl ReqKind {
    /// Returns `true` for ownership (write) requests.
    #[must_use]
    pub const fn is_get_m(self) -> bool {
        matches!(self, ReqKind::GetM)
    }
}

/// One queued requester of a line, in broadcast order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiter {
    /// The requesting core.
    pub core: usize,
    /// GetS or GetM.
    pub kind: ReqKind,
    /// Cycle the broadcast completed (when every snooper saw it).
    pub enqueued: Cycles,
}

/// Bus-visible coherence state of one line.
#[derive(Debug, Clone, Default)]
pub struct LineCoh {
    owner_core: Option<usize>,
    sharers: u64,
    waiters: VecDeque<Waiter>,
}

impl LineCoh {
    /// The current data owner.
    #[must_use]
    pub fn owner(&self) -> Owner {
        match self.owner_core {
            Some(c) => Owner::Core(c),
            None => Owner::Llc,
        }
    }

    /// Sets the owner.
    ///
    /// In debug builds this asserts the exclusivity invariant: a core may
    /// only take ownership of a line with no Shared holders (the protocol
    /// always invalidates or downgrades sharers before a hand-over), so a
    /// line never has both an owner core and sharers.
    pub fn set_owner(&mut self, owner: Owner) {
        debug_assert!(
            owner.core().is_none() || self.sharers == 0,
            "core {:?} may not own a line that still has sharers {:#b}",
            owner.core(),
            self.sharers
        );
        self.owner_core = owner.core();
    }

    /// Returns `true` if `core` holds a Shared copy.
    #[must_use]
    pub fn is_sharer(&self, core: usize) -> bool {
        self.sharers & (1 << core) != 0
    }

    /// Adds a Shared holder.
    ///
    /// In debug builds this asserts the exclusivity invariant: Shared
    /// copies may only coexist with LLC ownership (an owning core is
    /// downgraded — and its ownership returned — before anyone else gets a
    /// copy), so the owner is never also in the sharer bitmask.
    pub fn add_sharer(&mut self, core: usize) {
        debug_assert!(
            self.owner_core.is_none(),
            "cannot add sharer c{core} while c{} owns the line",
            self.owner_core.unwrap_or(usize::MAX)
        );
        self.sharers |= 1 << core;
    }

    /// Removes a Shared holder.
    pub fn remove_sharer(&mut self, core: usize) {
        self.sharers &= !(1 << core);
    }

    /// Clears all Shared holders.
    pub fn clear_sharers(&mut self) {
        self.sharers = 0;
    }

    /// Iterates over the cores holding Shared copies, ascending.
    pub fn sharers(&self) -> impl Iterator<Item = usize> {
        cores_in(self.sharers)
    }

    /// Every core currently holding a copy (owner first if a core owns it).
    #[inline]
    pub fn holders(&self) -> impl Iterator<Item = usize> {
        self.owner_core.into_iter().chain(self.sharers())
    }

    /// Every core currently holding a copy, as a bitmask (bit `c` for core
    /// `c`). The exclusivity invariant makes walking it with [`cores_in`]
    /// visit the same cores in the same order as [`LineCoh::holders`].
    #[must_use]
    #[inline]
    pub fn holder_mask(&self) -> u64 {
        self.sharers | self.owner_core.map_or(0, |c| 1 << c)
    }

    /// The request at the head of the queue (the next to be served).
    #[must_use]
    pub fn head(&self) -> Option<&Waiter> {
        self.waiters.front()
    }

    /// Appends a snooped request.
    #[inline]
    pub fn enqueue(&mut self, waiter: Waiter) {
        self.waiters.push_back(waiter);
    }

    /// Enqueues a snooped request from a *critical* core ahead of any
    /// queued non-critical waiters (PENDULUM's priority rule: Cr requests
    /// never wait behind nCr requests). `is_critical` classifies queued
    /// cores; ordering among critical waiters stays FIFO.
    pub fn enqueue_critical(&mut self, waiter: Waiter, is_critical: impl Fn(usize) -> bool) {
        let pos =
            self.waiters.iter().position(|w| !is_critical(w.core)).unwrap_or(self.waiters.len());
        self.waiters.insert(pos, waiter);
    }

    /// Removes and returns the first queued request from `core` (used when
    /// priority insertion may have displaced the head after a transfer was
    /// already in flight).
    #[inline]
    pub fn dequeue_for(&mut self, core: usize) -> Option<Waiter> {
        let pos = self.waiters.iter().position(|w| w.core == core)?;
        self.waiters.remove(pos)
    }

    /// Returns `true` if `core`'s oldest queued request is the head.
    #[must_use]
    pub fn is_head(&self, core: usize) -> bool {
        self.head().is_some_and(|w| w.core == core)
    }

    /// Returns `true` if this entry carries no information (LLC-owned, no
    /// holders, no waiters) and can be garbage-collected.
    #[must_use]
    fn is_trivial(&self) -> bool {
        self.owner_core.is_none() && self.sharers == 0 && self.waiters.is_empty()
    }

    /// Whether the head waiter's request requires `holder` to *invalidate*
    /// (GetM steals from everyone; GetS only dispossesses the Modified
    /// owner, which downgrades rather than invalidates — but in both cases
    /// the holder must *release* before the transfer starts).
    #[must_use]
    pub fn head_dispossesses(&self, holder: usize) -> bool {
        match self.head() {
            Some(w) if w.kind.is_get_m() => {
                self.owner_core == Some(holder) || self.is_sharer(holder)
            }
            Some(_) => self.owner_core == Some(holder),
            None => false,
        }
    }
}

/// Iterates over the set bits of a per-core bitmask, ascending.
pub(crate) fn cores_in(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let core = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            core
        })
    })
}

/// A fixed, seedless hasher for line addresses: each word written runs
/// through the [`splitmix64`] finalizer, which spreads the dense, strided
/// line numbers of a trace over the whole table.
#[derive(Debug, Clone, Copy, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = splitmix64(self.0 ^ word, 0);
    }
}

/// The slot of one live line's state in a [`CoherenceMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CohSlot(u32);

/// One slot: the line it is bound to, whether that binding is live, and
/// the line's state. A recycled slot keeps its waiter queue's capacity.
#[derive(Debug, Clone)]
struct Slot {
    line: LineAddr,
    live: bool,
    coh: LineCoh,
}

/// The global coherence state: one slot per live line, plus the hashed
/// line-address → slot index of the live lines.
#[derive(Debug, Clone, Default)]
pub struct CoherenceMap {
    slots: Vec<Slot>,
    /// Slots whose line turned trivial, reused before `slots` grows.
    free: Vec<CohSlot>,
    index: HashMap<LineAddr, CohSlot, BuildHasherDefault<LineHasher>>,
}

impl CoherenceMap {
    /// Creates an empty map (every line owned by the LLC).
    #[must_use]
    pub fn new() -> Self {
        CoherenceMap::default()
    }

    /// The slot of a live line, if it has one.
    #[must_use]
    #[inline]
    pub(crate) fn slot(&self, line: LineAddr) -> Option<CohSlot> {
        self.index.get(&line).copied()
    }

    /// Returns the state of a live line (a trivial line has none).
    #[must_use]
    #[inline]
    pub fn get(&self, line: LineAddr) -> Option<&LineCoh> {
        self.slot(line).map(|slot| &self[slot])
    }

    /// The slot of `line`, binding a free (or new) slot with trivial state
    /// if the line is not live. The slot stays bound until [`CoherenceMap::gc`]
    /// finds it trivial.
    #[inline]
    pub(crate) fn acquire(&mut self, line: LineAddr) -> CohSlot {
        let vacant = match self.index.entry(line) {
            Entry::Occupied(live) => return *live.get(),
            Entry::Vacant(vacant) => vacant,
        };
        let slot = if let Some(slot) = self.free.pop() {
            let entry = &mut self.slots[slot.0 as usize];
            debug_assert!(entry.coh.is_trivial(), "a free slot holds trivial state");
            entry.line = line;
            entry.live = true;
            slot
        } else {
            let slot = CohSlot(u32::try_from(self.slots.len()).expect("fewer than 2^32 lines"));
            self.slots.push(Slot { line, live: true, coh: LineCoh::default() });
            slot
        };
        *vacant.insert(slot)
    }

    /// The line a slot is bound to.
    #[must_use]
    pub(crate) fn line_of(&self, slot: CohSlot) -> LineAddr {
        self.slots[slot.0 as usize].line
    }

    /// Frees the slot if its line carries no information any more.
    #[inline]
    pub(crate) fn gc(&mut self, slot: CohSlot) {
        let entry = &mut self.slots[slot.0 as usize];
        if entry.live && entry.coh.is_trivial() {
            entry.live = false;
            self.index.remove(&entry.line);
            self.free.push(slot);
        }
    }

    /// The number of slots ever allocated: the peak count of live lines.
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Iterates over all live lines in ascending line order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &LineCoh)> {
        let mut lines: Vec<_> = self.index.iter().map(|(&l, &slot)| (l, &self[slot])).collect();
        lines.sort_unstable_by_key(|&(line, _)| line);
        lines.into_iter()
    }
}

impl Index<CohSlot> for CoherenceMap {
    type Output = LineCoh;

    fn index(&self, slot: CohSlot) -> &LineCoh {
        let entry = &self.slots[slot.0 as usize];
        debug_assert!(entry.live, "slot {slot:?} of {} read after it was freed", entry.line);
        &entry.coh
    }
}

impl IndexMut<CohSlot> for CoherenceMap {
    fn index_mut(&mut self, slot: CohSlot) -> &mut LineCoh {
        let entry = &mut self.slots[slot.0 as usize];
        debug_assert!(entry.live, "slot {slot:?} of {} written after it was freed", entry.line);
        &mut entry.coh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_line_is_llc_owned() {
        let line = LineCoh::default();
        assert_eq!(line.owner(), Owner::Llc);
        assert!(line.is_trivial());
        assert_eq!(line.holders().count(), 0);
    }

    #[test]
    fn sharer_bitmask() {
        let mut line = LineCoh::default();
        line.add_sharer(0);
        line.add_sharer(3);
        assert!(line.is_sharer(0));
        assert!(!line.is_sharer(1));
        assert_eq!(line.sharers().collect::<Vec<_>>(), vec![0, 3]);
        line.remove_sharer(0);
        assert!(!line.is_sharer(0));
        line.clear_sharers();
        assert_eq!(line.sharers().count(), 0);
    }

    #[test]
    fn holders_include_owner_and_sharers() {
        // An owning core is the sole holder (exclusivity invariant) …
        let mut line = LineCoh::default();
        line.set_owner(Owner::Core(2));
        assert_eq!(line.holders().collect::<Vec<_>>(), vec![2]);
        // … and under LLC ownership the holders are exactly the sharers.
        let mut line = LineCoh::default();
        line.add_sharer(1);
        line.add_sharer(3);
        assert_eq!(line.holders().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "may not own a line that still has sharers")]
    #[cfg(debug_assertions)]
    fn owner_with_sharers_is_rejected() {
        let mut line = LineCoh::default();
        line.add_sharer(1);
        line.set_owner(Owner::Core(2));
    }

    #[test]
    #[should_panic(expected = "cannot add sharer")]
    #[cfg(debug_assertions)]
    fn sharer_under_core_owner_is_rejected() {
        let mut line = LineCoh::default();
        line.set_owner(Owner::Core(0));
        line.add_sharer(1);
    }

    #[test]
    fn waiter_queue_is_fifo() {
        let mut line = LineCoh::default();
        line.enqueue(Waiter { core: 1, kind: ReqKind::GetM, enqueued: Cycles::new(5) });
        line.enqueue(Waiter { core: 2, kind: ReqKind::GetS, enqueued: Cycles::new(9) });
        assert!(line.is_head(1));
        assert!(!line.is_head(2));
        assert_eq!(line.waiters.pop_front().unwrap().core, 1);
        assert!(line.is_head(2));
    }

    #[test]
    fn dispossession_rules() {
        // GetM dispossesses a Modified owner …
        let mut line = LineCoh::default();
        line.set_owner(Owner::Core(0));
        line.enqueue(Waiter { core: 2, kind: ReqKind::GetM, enqueued: Cycles::ZERO });
        assert!(line.head_dispossesses(0));
        assert!(!line.head_dispossesses(3));

        // … and Shared holders alike.
        let mut line = LineCoh::default();
        line.add_sharer(1);
        line.add_sharer(3);
        line.enqueue(Waiter { core: 2, kind: ReqKind::GetM, enqueued: Cycles::ZERO });
        assert!(line.head_dispossesses(1));
        assert!(line.head_dispossesses(3));
        assert!(!line.head_dispossesses(2), "the requester itself is never dispossessed");

        // GetS only dispossesses the Modified owner, never sharers.
        let mut line = LineCoh::default();
        line.set_owner(Owner::Core(0));
        line.enqueue(Waiter { core: 2, kind: ReqKind::GetS, enqueued: Cycles::ZERO });
        assert!(line.head_dispossesses(0));
        assert!(!line.head_dispossesses(1));

        let mut line = LineCoh::default();
        line.add_sharer(1);
        line.enqueue(Waiter { core: 2, kind: ReqKind::GetS, enqueued: Cycles::ZERO });
        assert!(!line.head_dispossesses(1), "GetS leaves Shared copies in place");
    }

    #[test]
    fn dispossession_follows_the_head_across_kinds() {
        // A GetS head behind it does not shield holders from the GetM head
        // (and vice versa once the head is served).
        let mut line = LineCoh::default();
        line.set_owner(Owner::Core(0));
        line.enqueue(Waiter { core: 1, kind: ReqKind::GetS, enqueued: Cycles::ZERO });
        line.enqueue(Waiter { core: 2, kind: ReqKind::GetM, enqueued: Cycles::new(4) });
        // Head is the GetS: only the owner releases.
        assert!(line.head_dispossesses(0));
        assert_eq!(line.head().unwrap().kind, ReqKind::GetS);
        // Serve the GetS (owner downgrades to Shared under LLC ownership).
        line.waiters.pop_front();
        line.set_owner(Owner::Llc);
        line.add_sharer(0);
        line.add_sharer(1);
        // Now the GetM head dispossesses both sharers but not the requester.
        assert!(line.head_dispossesses(0));
        assert!(line.head_dispossesses(1));
        assert!(!line.head_dispossesses(2));
        // No waiters → nobody is dispossessed.
        line.waiters.pop_front();
        assert!(!line.head_dispossesses(0));
    }

    #[test]
    fn enqueue_critical_orders_by_criticality_then_fifo() {
        let critical = |c: usize| c == 0 || c == 1;
        let w =
            |core: usize, at: u64| Waiter { core, kind: ReqKind::GetM, enqueued: Cycles::new(at) };
        let mut line = LineCoh::default();
        // Two non-critical waiters arrive first.
        line.enqueue(w(2, 1));
        line.enqueue(w(3, 2));
        // A critical waiter jumps ahead of every queued non-critical one.
        line.enqueue_critical(w(0, 3), critical);
        // A second critical waiter stays FIFO among criticals.
        line.enqueue_critical(w(1, 4), critical);
        let order: Vec<usize> = line.waiters.iter().map(|w| w.core).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);

        // Plain enqueue of a non-critical request goes to the back.
        line.enqueue(w(2, 5));
        assert_eq!(line.waiters.len(), 5);
        assert_eq!(line.waiters.back().unwrap().core, 2);
    }

    #[test]
    fn enqueue_critical_in_empty_and_all_critical_queues_is_fifo() {
        let critical = |_: usize| true;
        let w = |core: usize| Waiter { core, kind: ReqKind::GetS, enqueued: Cycles::ZERO };
        let mut line = LineCoh::default();
        line.enqueue_critical(w(1), critical);
        line.enqueue_critical(w(0), critical);
        line.enqueue_critical(w(2), critical);
        let order: Vec<usize> = line.waiters.iter().map(|w| w.core).collect();
        assert_eq!(order, vec![1, 0, 2], "all-critical queues degenerate to FIFO");
    }

    #[test]
    fn holder_mask_matches_holders() {
        let mask_of = |line: &LineCoh| line.holders().fold(0u64, |m, c| m | 1 << c);
        let empty = LineCoh::default();
        let mut owned = LineCoh::default();
        owned.set_owner(Owner::Core(5));
        let mut shared = LineCoh::default();
        shared.add_sharer(0);
        shared.add_sharer(2);
        shared.add_sharer(63);
        for line in [&empty, &owned, &shared] {
            assert_eq!(line.holder_mask(), mask_of(line));
            assert_eq!(
                cores_in(line.holder_mask()).collect::<Vec<_>>(),
                line.holders().collect::<Vec<_>>()
            );
        }
        assert_eq!(empty.holder_mask(), 0);
        assert_eq!(owned.holder_mask(), 1 << 5);
        assert_eq!(shared.holder_mask(), 1 | 1 << 2 | 1 << 63);
    }

    #[test]
    fn map_iter_is_ascending_whatever_the_insertion_order() {
        let lines = [900u64, 3, 1 << 40, 17, 0, 64, 4096, 5];
        let mut forward = CoherenceMap::new();
        let mut backward = CoherenceMap::new();
        for (i, &l) in lines.iter().enumerate() {
            let slot = forward.acquire(LineAddr::new(l));
            forward[slot].add_sharer(i);
        }
        for (i, &l) in lines.iter().enumerate().rev() {
            let slot = backward.acquire(LineAddr::new(l));
            backward[slot].add_sharer(i);
        }
        let mut sorted = lines;
        sorted.sort_unstable();
        for map in [&forward, &backward] {
            let got: Vec<(u64, Vec<usize>)> =
                map.iter().map(|(l, c)| (l.raw(), c.sharers().collect())).collect();
            let want: Vec<(u64, Vec<usize>)> = sorted
                .iter()
                .map(|&l| (l, vec![lines.iter().position(|&x| x == l).unwrap()]))
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn map_gc_drops_trivial_entries() {
        let mut map = CoherenceMap::new();
        let line = LineAddr::new(7);
        let held = LineAddr::new(8);
        let (line_slot, held_slot) = (map.acquire(line), map.acquire(held));
        map[line_slot].set_owner(Owner::Core(0));
        map[held_slot].add_sharer(1);
        assert_eq!(map.index.len(), 2);
        map[line_slot].set_owner(Owner::Llc);
        map.gc(line_slot);
        map.gc(held_slot);
        assert_eq!(map.index.len(), 1, "only the trivial entry is dropped");
        assert!(map.get(line).is_none());
        assert!(map.get(held).is_some_and(|c| c.is_sharer(1)));
        map[held_slot].remove_sharer(1);
        map.gc(held_slot);
        assert!(map.index.is_empty());
    }

    #[test]
    fn a_freed_slot_is_reused_by_another_line() {
        let mut map = CoherenceMap::new();
        let (a, b, c) = (LineAddr::new(3), LineAddr::new(1 << 33), LineAddr::new(9));
        let slot = map.acquire(a);
        assert_eq!(map.acquire(a), slot, "a live line keeps its slot");
        for core in 0..6 {
            map[slot].enqueue(Waiter { core, kind: ReqKind::GetS, enqueued: Cycles::ZERO });
        }
        let capacity = map[slot].waiters.capacity();
        while map[slot].waiters.pop_front().is_some() {}
        map.gc(slot);
        map.gc(slot);
        assert!(map.slot(a).is_none());
        assert_eq!(map.acquire(b), slot, "the freed slot is bound to the next line");
        assert_eq!(map.slot(b), Some(slot));
        assert!(map[slot].is_trivial());
        assert_eq!(map[slot].waiters.capacity(), capacity, "the waiter queue keeps its capacity");
        assert_ne!(map.acquire(c), slot, "a slot freed twice is handed out once");
        assert_eq!(map.slots.len(), 2);
    }

    #[test]
    fn map_iter_stays_ascending_across_recycling() {
        let mut map = CoherenceMap::new();
        let mut live = std::collections::BTreeSet::new();
        let mut peak = 0;
        for step in 0..400u64 {
            let line = LineAddr::new(splitmix64(5, step) % 97);
            let slot = map.acquire(line);
            if map[slot].is_sharer(0) {
                map[slot].remove_sharer(0);
                map.gc(slot);
                live.remove(&line);
            } else {
                map[slot].add_sharer(0);
                live.insert(line);
            }
            let got: Vec<LineAddr> = map.iter().map(|(l, _)| l).collect();
            assert_eq!(got, live.iter().copied().collect::<Vec<_>>(), "step {step}");
            peak = peak.max(live.len());
        }
        assert_eq!(map.slots.len(), peak, "a freed slot is reused before the map grows");
    }
}
