//! Injected time for the lease state machine.
//!
//! The queue's epoch/lease logic is pure tick arithmetic: a lease is a
//! deadline in nanoseconds on some monotonic axis, and "expired" is a
//! comparison. *Where the ticks come from* is the only nondeterministic
//! part, so it is injected: production fleets read a monotonic
//! [`SystemClock`] (the workspace's single sanctioned wall-clock read),
//! tests and loom models drive a [`TestClock`] by hand — lease-expiry
//! paths become deterministic instead of `sleep`-raced.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic nanosecond source.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds since an arbitrary fixed origin. Must never decrease.
    fn now_ns(&self) -> u64;
}

/// The production clock: monotonic host time, measured from construction.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose origin is "now".
    #[must_use]
    pub fn new() -> Self {
        // lint:allow(det-wallclock) the fleet boundary is the one place wall time may enter: leases protect against real crashed workers, and job outcomes never read this clock
        SystemClock { origin: Instant::now() }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-driven clock for tests and loom models: time moves only when
/// the test says so.
#[derive(Debug, Default)]
pub struct TestClock {
    ns: AtomicU64,
}

impl TestClock {
    /// A clock at tick zero.
    #[must_use]
    pub fn new() -> Self {
        TestClock::default()
    }

    /// Advances the clock by `by`.
    pub fn advance(&self, by: Duration) {
        self.ns.fetch_add(u64::try_from(by.as_nanos()).unwrap_or(u64::MAX), Ordering::SeqCst);
    }
}

impl Clock for TestClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn test_clock_moves_only_by_hand() {
        let clock = TestClock::new();
        assert_eq!(clock.now_ns(), 0);
        clock.advance(Duration::from_millis(3));
        assert_eq!(clock.now_ns(), 3_000_000);
    }
}
