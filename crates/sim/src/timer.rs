//! Behavioural model of the per-line countdown-timer circuit (Figure 3).
//!
//! The hardware keeps one 16-bit countdown counter per cache line:
//!
//! - **Load** — when a core receives a line (or replenishes), the counter is
//!   loaded with the timer threshold register θ.
//! - **Enable** — the counter decrements every cycle unless θ = −1 (a
//!   comparator on the threshold register drives Enable low, modelling the
//!   reduction to standard MSI).
//! - **Count = 0 ∧ PendingInv** — the line is invalidated and handed over.
//! - **Count = 0 ∧ ¬PendingInv** — the counter replenishes to θ.
//!
//! The simulator models this lazily: instead of decrementing a counter each
//! cycle, each held line stores its fill **anchor** and the release instant
//! is computed on demand with [`release_time`]. The two formulations are
//! observationally identical (proved by the exhaustive cycle-by-cycle
//! comparison against [`CountdownCounter`] in this module's tests), and the
//! lazy form lets the engine skip idle cycles.

use cohort_types::{Cycles, TimerValue};

/// Computes the instant at which a holder releases a line.
///
/// `anchor` is the cycle the line was filled (counter loaded with θ);
/// `pending_since` is the cycle at which `PendingInv` went high (another
/// core's request was snooped, or the line was received while waiters were
/// already queued). The holder releases at the first counter expiry at or
/// after `pending_since`:
///
/// - θ = −1 (MSI): release immediately at `pending_since`;
/// - θ = 0: the counter loads expired, release at `pending_since`;
/// - θ ≥ 1: expiries occur at `anchor + k·θ` for `k = 1, 2, …` (the counter
///   replenishes whenever it expires without a pending request).
///
/// # Examples
///
/// ```
/// use cohort_sim::release_time;
/// use cohort_types::{Cycles, TimerValue};
///
/// let theta = TimerValue::timed(20)?;
/// // Request arrives 5 cycles after fill: wait for the first expiry.
/// assert_eq!(release_time(Cycles::new(100), theta, Cycles::new(105)).get(), 120);
/// // Request arrives after one replenish: wait for the second expiry.
/// assert_eq!(release_time(Cycles::new(100), theta, Cycles::new(121)).get(), 140);
/// // MSI cores release immediately.
/// assert_eq!(release_time(Cycles::new(100), TimerValue::MSI, Cycles::new(105)).get(), 105);
/// # Ok::<(), cohort_types::Error>(())
/// ```
#[must_use]
#[inline]
pub fn release_time(anchor: Cycles, timer: TimerValue, pending_since: Cycles) -> Cycles {
    match timer.theta() {
        None | Some(0) => pending_since.max(anchor),
        Some(theta) => {
            let p = pending_since.get().max(anchor.get());
            let elapsed = p - anchor.get();
            // First expiry boundary at or after p; a request landing exactly
            // on a boundary is served at that boundary.
            let k = if elapsed == 0 { 1 } else { elapsed.div_ceil(theta) };
            Cycles::new(anchor.get() + k * theta)
        }
    }
}

/// Cycle-by-cycle reference model of the Figure-3 circuit, used to validate
/// [`release_time`] and exported for the hardware-facing tests.
///
/// # Examples
///
/// ```
/// use cohort_sim::CountdownCounter;
/// use cohort_types::TimerValue;
///
/// let mut counter = CountdownCounter::new(TimerValue::timed(3)?);
/// counter.load();
/// assert!(!counter.tick(false)); // count 2
/// assert!(!counter.tick(false)); // count 1
/// assert!(!counter.tick(true));  // count 0 reached *after* this tick
/// assert!(counter.tick(true));   // expired with PendingInv → invalidate
/// # Ok::<(), cohort_types::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountdownCounter {
    threshold: TimerValue,
    count: u64,
    loaded: bool,
}

impl CountdownCounter {
    /// Creates a counter wired to the given threshold register.
    #[must_use]
    pub fn new(threshold: TimerValue) -> Self {
        CountdownCounter { threshold, count: 0, loaded: false }
    }

    /// Asserts the Load signal: the counter loads θ (no-op for θ = −1,
    /// where the comparator holds Enable low and the count is irrelevant).
    pub fn load(&mut self) {
        self.count = self.threshold.theta().unwrap_or(0);
        self.loaded = true;
    }

    /// Advances one cycle with the given `PendingInv` input and returns
    /// `true` if the line must be invalidated **this cycle**.
    ///
    /// Semantics of the demultiplexer: when the count is zero at the start
    /// of a cycle, `PendingInv` selects invalidate; otherwise the counter
    /// replenishes and keeps counting. With Enable low (θ = −1), the line is
    /// invalidated exactly when `PendingInv` is high.
    // lint:allow(pub-unused) the Figure-3 circuit's reference model: its doc example and the test of release_time drive it
    pub fn tick(&mut self, pending_inv: bool) -> bool {
        debug_assert!(self.loaded, "tick before load");
        match self.threshold.theta() {
            None => pending_inv, // Enable low: MSI behaviour
            Some(theta) => {
                if self.count == 0 {
                    if pending_inv {
                        return true;
                    }
                    self.count = theta; // replenish
                }
                self.count = self.count.saturating_sub(1);
                false
            }
        }
    }

    /// Returns the current count (for inspection in tests).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(theta: u64) -> TimerValue {
        TimerValue::timed(theta).unwrap()
    }

    #[test]
    fn msi_releases_at_pending_instant() {
        let r = release_time(Cycles::new(10), TimerValue::MSI, Cycles::new(37));
        assert_eq!(r.get(), 37);
    }

    #[test]
    fn zero_theta_releases_immediately() {
        let r = release_time(Cycles::new(10), timed(0), Cycles::new(37));
        assert_eq!(r.get(), 37);
    }

    #[test]
    fn pending_before_fill_waits_full_period() {
        // Waiters queued before the line arrived: PendingInv is high from
        // the fill instant, so the holder keeps the line exactly θ cycles.
        let r = release_time(Cycles::new(100), timed(20), Cycles::new(40));
        assert_eq!(r.get(), 120);
    }

    #[test]
    fn pending_at_fill_instant_waits_full_period() {
        let r = release_time(Cycles::new(100), timed(20), Cycles::new(100));
        assert_eq!(r.get(), 120);
    }

    #[test]
    fn pending_on_boundary_releases_on_boundary() {
        let r = release_time(Cycles::new(100), timed(20), Cycles::new(140));
        assert_eq!(r.get(), 140);
    }

    #[test]
    fn pending_mid_period_waits_to_next_boundary() {
        assert_eq!(release_time(Cycles::new(100), timed(20), Cycles::new(101)).get(), 120);
        assert_eq!(release_time(Cycles::new(100), timed(20), Cycles::new(119)).get(), 120);
        assert_eq!(release_time(Cycles::new(100), timed(20), Cycles::new(141)).get(), 160);
    }

    #[test]
    fn release_never_exceeds_pending_plus_theta() {
        // The worst-case wait after PendingInv rises is exactly θ — the
        // property Eq. 1's third term relies on.
        for anchor in 0..50u64 {
            for theta in 1..25u64 {
                for p in anchor..anchor + 100 {
                    let r = release_time(Cycles::new(anchor), timed(theta), Cycles::new(p));
                    assert!(r.get() >= p);
                    assert!(
                        r.get() <= p + theta,
                        "anchor {anchor} θ {theta} pending {p} released {r}",
                    );
                }
            }
        }
    }

    /// Drives the reference circuit cycle-by-cycle and checks that the first
    /// invalidation cycle equals `release_time`.
    fn circuit_release(anchor: u64, theta: TimerValue, pending_since: u64) -> u64 {
        let mut counter = CountdownCounter::new(theta);
        counter.load();
        let mut t = anchor;
        loop {
            let pending = t >= pending_since;
            if counter.tick(pending) {
                return t;
            }
            t += 1;
            assert!(t < anchor + 10_000, "circuit never released");
        }
    }

    #[test]
    fn lazy_model_matches_circuit_exhaustively() {
        for theta in [1u64, 2, 3, 5, 7, 20] {
            for anchor in [0u64, 3, 10] {
                for pending in anchor..anchor + 3 * theta + 2 {
                    let lazy =
                        release_time(Cycles::new(anchor), timed(theta), Cycles::new(pending));
                    let circuit = circuit_release(anchor, timed(theta), pending);
                    assert_eq!(lazy.get(), circuit, "θ={theta} anchor={anchor} pending={pending}");
                }
            }
        }
    }

    #[test]
    fn circuit_msi_invalidate_tracks_pending() {
        let mut counter = CountdownCounter::new(TimerValue::MSI);
        counter.load();
        assert!(!counter.tick(false));
        assert!(!counter.tick(false));
        assert!(counter.tick(true), "MSI invalidates the cycle PendingInv rises");
    }

    #[test]
    fn circuit_replenishes_without_pending() {
        let mut counter = CountdownCounter::new(timed(2));
        counter.load();
        // Many cycles without a pending request: never invalidates.
        for _ in 0..20 {
            assert!(!counter.tick(false));
        }
    }
}
