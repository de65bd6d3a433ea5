use core::fmt;

/// Identifier of a processing element (core) on the modelled MPSoC.
///
/// Cores are numbered `0..N` in the cyclic broadcast order used by the
/// round-robin oldest-first (RROF) bus arbiter.
///
/// # Examples
///
/// ```
/// use cohort_types::CoreId;
///
/// let c2 = CoreId::new(2);
/// assert_eq!(c2.index(), 2);
/// assert_eq!(c2.to_string(), "c2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(usize);

impl CoreId {
    /// Creates a core identifier from its index in the broadcast order.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        CoreId(index)
    }

    /// Returns the zero-based index of this core.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<usize> for CoreId {
    fn from(index: usize) -> Self {
        CoreId(index)
    }
}

/// A byte address in the shared physical address space.
///
/// Convert to a [`LineAddr`] with [`Address::line`] given the cache-line
/// size used by the hierarchy (64 B in the paper's evaluation).
///
/// # Examples
///
/// ```
/// use cohort_types::Address;
///
/// let a = Address::new(0x1040);
/// assert_eq!(a.line(64).raw(), 0x41);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Address(u64);

impl Address {
    /// Creates an address from a raw byte offset.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Address(raw)
    }

    /// Returns the raw byte offset.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache line containing this address.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a power of two.
    #[must_use]
    pub fn line(self, line_size: u64) -> LineAddr {
        assert!(line_size.is_power_of_two(), "line size must be a power of two");
        LineAddr(self.0 >> line_size.trailing_zeros())
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Address {
    fn from(raw: u64) -> Self {
        Address(raw)
    }
}

/// A cache-line address: a byte address with the line offset stripped.
///
/// All coherence bookkeeping (ownership, waiter queues, timers) is keyed by
/// line address, never by byte address.
///
/// # Examples
///
/// ```
/// use cohort_types::{Address, LineAddr};
///
/// // Every byte of a 64 B line maps to the same line address.
/// assert_eq!(Address::new(0x1040).line(64), LineAddr::new(0x41));
/// assert_eq!(Address::new(0x107f).line(64), LineAddr::new(0x41));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line number.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw line number.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the set index of this line in a cache with `sets` sets.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero.
    #[must_use]
    pub fn set_index(self, sets: u64) -> u64 {
        assert!(sets > 0, "a cache needs at least one set");
        self.0 % sets
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

impl From<u64> for LineAddr {
    fn from(raw: u64) -> Self {
        LineAddr(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_line_round_trip() {
        let a = Address::new(0x1278);
        let line = a.line(64);
        assert_eq!(line.raw(), 0x49);
    }

    #[test]
    fn set_index_wraps_modulo() {
        assert_eq!(LineAddr::new(0).set_index(256), 0);
        assert_eq!(LineAddr::new(255).set_index(256), 255);
        assert_eq!(LineAddr::new(256).set_index(256), 0);
        assert_eq!(LineAddr::new(511).set_index(256), 255);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_size_panics() {
        let _ = Address::new(0).line(48);
    }

    #[test]
    fn display_forms() {
        assert_eq!(CoreId::new(3).to_string(), "c3");
        assert_eq!(Address::new(255).to_string(), "0xff");
        assert_eq!(LineAddr::new(255).to_string(), "L0xff");
    }
}
