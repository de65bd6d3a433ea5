use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Sub};

/// A duration or instant measured in processor clock cycles.
///
/// The simulator, the timing analysis and the optimization engine all agree
/// on this single time unit. `Cycles` is a saturating-free, panic-on-overflow
/// newtype over `u64`: worst-case bounds in this domain can legitimately
/// reach billions of cycles, but silent wrap-around would invalidate a
/// soundness claim, so arithmetic uses the standard checked-by-debug
/// semantics of `u64` plus explicit `checked_*` helpers where the analysis
/// composes large products.
///
/// # Examples
///
/// ```
/// use cohort_types::Cycles;
///
/// let slot = Cycles::new(54);
/// let four_slots = slot * 4;
/// assert_eq!(four_slots.get(), 216);
/// assert!(four_slots > slot);
/// let total: Cycles = [slot, four_slots].into_iter().sum();
/// assert_eq!(total.get(), 270);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    #[must_use]
    pub const fn new(cycles: u64) -> Self {
        Cycles(cycles)
    }

    /// Returns the raw cycle count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub const fn checked_add(self, rhs: Cycles) -> Option<Cycles> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Cycles(v)),
            None => None,
        }
    }

    /// Checked multiplication by a scalar; `None` on overflow.
    #[must_use]
    pub const fn checked_mul(self, rhs: u64) -> Option<Cycles> {
        match self.0.checked_mul(rhs) {
            Some(v) => Some(Cycles(v)),
            None => None,
        }
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

impl From<u64> for Cycles {
    fn from(v: u64) -> Self {
        Cycles(v)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Cycles::new(50);
        let b = Cycles::new(4);
        assert_eq!((a + b).get(), 54);
        assert_eq!((a - b).get(), 46);
        assert_eq!((b * 3).get(), 12);
        let mut c = a;
        c += b;
        assert_eq!(c.get(), 54);
    }

    #[test]
    fn checked_ops_detect_overflow() {
        assert_eq!(Cycles::new(u64::MAX).checked_add(Cycles::new(1)), None);
        assert_eq!(Cycles::new(u64::MAX).checked_mul(2), None);
        assert_eq!(Cycles::new(2).checked_mul(3), Some(Cycles::new(6)));
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        assert_eq!(Cycles::new(3).saturating_sub(Cycles::new(5)), Cycles::ZERO);
        assert_eq!(Cycles::new(5).saturating_sub(Cycles::new(3)).get(), 2);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Cycles = (1..=4).map(Cycles::new).sum();
        assert_eq!(total.get(), 10);
    }
}
