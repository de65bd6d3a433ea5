//! Set-associative cache structures shared by the private L1s and the LLC.

use cohort_types::{Cycles, LineAddr, TimerValue};

use crate::coherence::CohSlot;
use crate::{CacheGeometry, SetIndexer};

/// Stable coherence state of a line held in a private cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Read permission; the shared memory (or another core) owns the line.
    Shared,
    /// Read/write permission; this cache owns the line and must supply data.
    Modified,
    /// MESI extension: sole clean copy. Read permission plus a *silent*
    /// upgrade to [`LineState::Modified`] on the first store (no bus
    /// transaction). For coherence bookkeeping the holder is the owner,
    /// exactly like Modified.
    Exclusive,
}

impl LineState {
    /// Returns `true` if the state grants write permission (a store hits):
    /// Modified outright, Exclusive via the silent upgrade.
    #[must_use]
    pub const fn is_writable(self) -> bool {
        matches!(self, LineState::Modified | LineState::Exclusive)
    }

    /// Returns `true` if the holder owns the line (supplies data, appears
    /// as the coherence owner): Modified or Exclusive.
    #[must_use]
    pub const fn is_owned(self) -> bool {
        matches!(self, LineState::Modified | LineState::Exclusive)
    }
}

/// Per-line payload of a private cache: coherence state, the timer anchor
/// (the cycle the countdown counter was last loaded) and the slot of the
/// line's bus-visible coherence state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Line {
    /// MSI stable state.
    pub state: LineState,
    /// Cycle at which the line was filled (counter Load asserted).
    pub anchor: Cycles,
    /// The θ value the counter loaded at fill time. The Figure-3 circuit
    /// loads the *register at Load time*; a later register re-programming
    /// (mode switch) does not alter a running countdown — except that
    /// switching the register to −1 pulls Enable low, which releases the
    /// line immediately (handled by the engine against the live register).
    pub theta: TimerValue,
    /// Latched once the countdown expired with `PendingInv` high: the
    /// hardware has committed to the hand-over, so a later θ
    /// re-programming (mode switch) cannot re-protect the line.
    pub released: bool,
    /// The line's coherence slot. A resident line has a holder, so the
    /// slot stays bound to it for as long as the line is resident.
    pub(crate) coh: CohSlot,
}

impl L1Line {
    /// A freshly filled line (counter loaded from the register, not
    /// released).
    #[must_use]
    pub(crate) const fn filled(
        state: LineState,
        anchor: Cycles,
        theta: TimerValue,
        coh: CohSlot,
    ) -> Self {
        L1Line { state, anchor, theta, released: false, coh }
    }
}

/// A generic set-associative cache with true-LRU replacement.
///
/// Used with `ways = 1` for the paper's direct-mapped private caches and
/// `ways = 8` for the finite LLC. The payload type `T` carries whatever the
/// layer above needs per line ([`L1Line`] for the L1s, `()` for the LLC).
///
/// # Examples
///
/// ```
/// use cohort_sim::{CacheGeometry, SetAssocCache};
/// use cohort_types::LineAddr;
///
/// let geom = CacheGeometry::new(4 * 64, 64, 2)?; // 2 sets × 2 ways
/// let mut cache: SetAssocCache<u32> = SetAssocCache::new(geom);
/// assert!(cache.insert(LineAddr::new(0), 10).is_none());
/// assert!(cache.insert(LineAddr::new(2), 20).is_none()); // same set, 2nd way
/// // Third line in set 0 evicts the LRU entry (line 0).
/// let evicted = cache.insert(LineAddr::new(4), 30);
/// assert_eq!(evicted, Some((LineAddr::new(0), 10)));
/// # Ok::<(), cohort_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<T> {
    geometry: CacheGeometry,
    indexer: SetIndexer,
    ways: usize,
    /// Per set, `ways` consecutive tags ordered MRU-first; the first
    /// `len[set]` are occupied.
    tags: Vec<LineAddr>,
    /// The payload of each occupied way, beside its tag.
    payloads: Vec<Option<T>>,
    /// Occupied ways per set.
    len: Vec<u32>,
}

impl<T> SetAssocCache<T> {
    /// Creates an empty cache with the given geometry.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets() as usize;
        let ways = geometry.ways as usize;
        SetAssocCache {
            geometry,
            indexer: geometry.set_indexer(),
            ways,
            tags: vec![LineAddr::new(0); sets * ways],
            payloads: std::iter::repeat_with(|| None).take(sets * ways).collect(),
            len: vec![0; sets],
        }
    }

    /// Returns the cache geometry.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// The first entry of `line`'s set and the set's occupied ways.
    fn set_of(&self, line: LineAddr) -> (usize, usize) {
        let set = self.indexer.index(line);
        (set * self.ways, self.len[set] as usize)
    }

    /// The entry holding `line`, if resident.
    fn find(&self, line: LineAddr) -> Option<usize> {
        let (base, len) = self.set_of(line);
        self.tags[base..base + len].iter().position(|&l| l == line).map(|way| base + way)
    }

    /// Moves entry `at` of the set starting at `base` to the MRU way,
    /// shifting the ways before it down by one.
    fn promote(&mut self, base: usize, at: usize) {
        self.tags[base..=at].rotate_right(1);
        self.payloads[base..=at].rotate_right(1);
    }

    /// Looks up a line without touching LRU state.
    #[must_use]
    pub fn peek(&self, line: LineAddr) -> Option<&T> {
        self.find(line).and_then(|at| self.payloads[at].as_ref())
    }

    /// Looks up a line mutably without touching LRU state.
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        self.find(line).and_then(|at| self.payloads[at].as_mut())
    }

    /// Looks up a line and promotes it to MRU.
    pub fn touch(&mut self, line: LineAddr) -> Option<&mut T> {
        let at = self.find(line)?;
        let base = at - at % self.ways;
        self.promote(base, at);
        self.payloads[base].as_mut()
    }

    /// Returns `true` if the line is present.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Inserts a line as MRU, evicting the least-recently-used entry of a
    /// full set. Returns the evicted `(line, payload)` if any.
    ///
    /// Inserting a line that is already present replaces its payload (and
    /// promotes it) without evicting anything.
    pub fn insert(&mut self, line: LineAddr, payload: T) -> Option<(LineAddr, T)> {
        self.insert_select(line, payload, |_, _| true)
    }

    /// Like [`SetAssocCache::insert`], but prefers evicting a victim for
    /// which `evictable` returns `true`; if no way is evictable the plain
    /// LRU entry is evicted anyway (the caller must cope — an inclusive LLC
    /// uses this to avoid back-invalidating lines with active waiters when
    /// it can).
    pub fn insert_select(
        &mut self,
        line: LineAddr,
        payload: T,
        evictable: impl Fn(LineAddr, &T) -> bool,
    ) -> Option<(LineAddr, T)> {
        let (base, len) = self.set_of(line);
        let ways = base..base + len;
        let (at, evicted) = if let Some(way) =
            self.tags[ways.clone()].iter().position(|&l| l == line)
        {
            (base + way, None)
        } else if len < self.ways {
            self.len[base / self.ways] += 1;
            (base + len, None)
        } else {
            // LRU-first among evictable ways; plain LRU as a last resort.
            let victim = ways
                .clone()
                .rev()
                .find(|&i| self.payloads[i].as_ref().is_some_and(|t| evictable(self.tags[i], t)))
                .unwrap_or(base + len - 1);
            let evicted = self.payloads[victim].take().map(|t| (self.tags[victim], t));
            (victim, evicted)
        };
        self.promote(base, at);
        self.tags[base] = line;
        self.payloads[base] = Some(payload);
        evicted
    }

    /// Removes a line, returning its payload.
    pub fn remove(&mut self, line: LineAddr) -> Option<T> {
        let at = self.find(line)?;
        let set = at / self.ways;
        let end = set * self.ways + self.len[set] as usize;
        self.len[set] -= 1;
        let payload = self.payloads[at].take();
        self.tags[at..end].rotate_left(1);
        self.payloads[at..end].rotate_left(1);
        payload
    }

    /// Iterates over all resident `(line, payload)` pairs, set by set,
    /// MRU-first within a set.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.tags.iter().zip(&self.payloads).filter_map(|(&l, t)| t.as_ref().map(|t| (l, t)))
    }

    /// Number of resident lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len.iter().map(|&n| n as usize).sum()
    }

    /// Returns `true` if no line is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len.iter().all(|&n| n == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(sets: u64, ways: u64) -> CacheGeometry {
        CacheGeometry::new(sets * ways * 64, 64, ways).unwrap()
    }

    #[test]
    fn direct_mapped_conflicts() {
        // 4 sets, 1 way: lines 0 and 4 conflict.
        let mut c: SetAssocCache<u8> = SetAssocCache::new(geom(4, 1));
        assert!(c.insert(LineAddr::new(0), 1).is_none());
        assert_eq!(c.insert(LineAddr::new(4), 2), Some((LineAddr::new(0), 1)));
        assert!(c.contains(LineAddr::new(4)));
        assert!(!c.contains(LineAddr::new(0)));
    }

    #[test]
    fn lru_order_respects_touch() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(geom(1, 2));
        c.insert(LineAddr::new(0), 1);
        c.insert(LineAddr::new(1), 2);
        // Touch 0 so 1 becomes LRU.
        assert!(c.touch(LineAddr::new(0)).is_some());
        let evicted = c.insert(LineAddr::new(2), 3).unwrap();
        assert_eq!(evicted.0, LineAddr::new(1));
    }

    #[test]
    fn reinsert_replaces_payload_without_eviction() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(geom(1, 2));
        c.insert(LineAddr::new(0), 1);
        c.insert(LineAddr::new(1), 2);
        assert!(c.insert(LineAddr::new(0), 9).is_none());
        assert_eq!(c.peek(LineAddr::new(0)), Some(&9));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn insert_select_prefers_evictable_victims() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(geom(1, 2));
        c.insert(LineAddr::new(0), 1);
        c.insert(LineAddr::new(1), 2);
        // Line 1 is LRU? No: 1 inserted last → MRU; 0 is LRU. Protect 0.
        let evicted = c.insert_select(LineAddr::new(2), 3, |l, _| l != LineAddr::new(0));
        assert_eq!(evicted, Some((LineAddr::new(1), 2)));
        assert!(c.contains(LineAddr::new(0)));
    }

    #[test]
    fn insert_select_falls_back_to_lru_when_nothing_evictable() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(geom(1, 2));
        c.insert(LineAddr::new(0), 1);
        c.insert(LineAddr::new(1), 2);
        let evicted = c.insert_select(LineAddr::new(2), 3, |_, _| false);
        assert_eq!(evicted, Some((LineAddr::new(0), 1)), "LRU evicted as last resort");
    }

    #[test]
    fn remove_and_len() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(geom(2, 2));
        assert!(c.is_empty());
        c.insert(LineAddr::new(0), 1);
        c.insert(LineAddr::new(1), 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.remove(LineAddr::new(0)), Some(1));
        assert_eq!(c.remove(LineAddr::new(0)), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn peek_does_not_promote() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(geom(1, 2));
        c.insert(LineAddr::new(0), 1);
        c.insert(LineAddr::new(1), 2);
        let _ = c.peek(LineAddr::new(0));
        // 0 is still LRU: inserting evicts it.
        let evicted = c.insert(LineAddr::new(2), 3).unwrap();
        assert_eq!(evicted.0, LineAddr::new(0));
    }

    #[test]
    fn iter_covers_all_sets() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(geom(4, 1));
        c.insert(LineAddr::new(0), 1);
        c.insert(LineAddr::new(3), 2);
        let mut lines: Vec<u64> = c.iter().map(|(l, _)| l.raw()).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 3]);
    }
}
