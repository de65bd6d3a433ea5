use core::fmt;

use serde::{Deserialize, Serialize};

use crate::{Error, Result};

/// The value of a core's coherence **timer threshold register** θ.
///
/// CoHoRT's central architectural idea (§III-B of the paper) is that one
/// 16-bit register per core selects the coherence protocol the core runs:
///
/// - `θ ≥ 0` — **time-based coherence**: once a cache line is fetched, the
///   per-line countdown counter is loaded with θ and the core keeps the line
///   (entertaining hits) until the counter expires, regardless of other
///   cores' requests. `θ = 1` means "serve pending requests and invalidate
///   immediately" (the minimum value for which a hit can be guaranteed).
/// - `θ = −1` — the special value that disables the counter and reduces the
///   protocol to **standard MSI snooping**: the core gives up the line as
///   soon as another core requests it.
///
/// The register is 16 bits wide, so timed values are limited to
/// `0..=65535`; the paper finds this sufficient and we enforce it.
///
/// # Examples
///
/// ```
/// use cohort_types::TimerValue;
///
/// let timed = TimerValue::timed(300)?;
/// assert_eq!(timed.theta(), Some(300));
/// assert!(timed.is_timed());
///
/// let msi = TimerValue::MSI;
/// assert!(msi.is_msi());
/// assert_eq!(msi.theta(), None);
/// assert_eq!(msi.to_string(), "-1");
/// # Ok::<(), cohort_types::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimerValue {
    /// Time-based coherence with the given threshold θ (in cycles).
    Timed(u16),
    /// The special θ = −1 value: counter disabled, standard MSI behaviour.
    Msi,
}

impl TimerValue {
    /// The special MSI value (θ = −1).
    pub const MSI: TimerValue = TimerValue::Msi;

    /// The largest timer threshold representable in the 16-bit register.
    pub const MAX_THETA: u64 = u16::MAX as u64;

    /// Creates a time-based timer value.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TimerOutOfRange`] if `theta` does not fit the 16-bit
    /// timer threshold register.
    pub fn timed(theta: u64) -> Result<Self> {
        u16::try_from(theta)
            .map(TimerValue::Timed)
            .map_err(|_| Error::TimerOutOfRange { value: theta, max: Self::MAX_THETA })
    }

    /// Returns the timer threshold, or `None` for the MSI value.
    #[must_use]
    pub const fn theta(self) -> Option<u64> {
        match self {
            TimerValue::Timed(t) => Some(t as u64),
            TimerValue::Msi => None,
        }
    }

    /// Returns `true` if this core runs time-based coherence.
    #[must_use]
    pub const fn is_timed(self) -> bool {
        matches!(self, TimerValue::Timed(_))
    }

    /// Returns `true` if this core runs standard MSI snooping (θ = −1).
    #[must_use]
    pub const fn is_msi(self) -> bool {
        matches!(self, TimerValue::Msi)
    }

    /// Returns the signed encoding used by the paper: θ for timed cores,
    /// −1 for MSI cores.
    #[must_use]
    pub const fn encode(self) -> i32 {
        match self {
            TimerValue::Timed(t) => t as i32,
            TimerValue::Msi => -1,
        }
    }

    /// Decodes the paper's signed encoding (θ ≥ 0 or exactly −1).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TimerOutOfRange`] for values below −1 or above the
    /// 16-bit range.
    pub fn decode(encoded: i32) -> Result<Self> {
        match encoded {
            -1 => Ok(TimerValue::Msi),
            t if t >= 0 => TimerValue::timed(t as u64),
            t => {
                Err(Error::TimerOutOfRange { value: t.unsigned_abs() as u64, max: Self::MAX_THETA })
            }
        }
    }
}

impl fmt::Display for TimerValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimerValue::Timed(t) => write!(f, "{t}"),
            TimerValue::Msi => write!(f, "-1"),
        }
    }
}

impl Default for TimerValue {
    /// Defaults to MSI: a freshly reset core behaves like a conventional
    /// snooping core until its timer register is programmed.
    fn default() -> Self {
        TimerValue::Msi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_within_16_bits() {
        assert_eq!(TimerValue::timed(0).unwrap().theta(), Some(0));
        assert_eq!(TimerValue::timed(65535).unwrap().theta(), Some(65535));
        assert!(TimerValue::timed(65536).is_err());
    }

    #[test]
    fn encode_decode_round_trip() {
        for v in [TimerValue::MSI, TimerValue::timed(0).unwrap(), TimerValue::timed(300).unwrap()] {
            assert_eq!(TimerValue::decode(v.encode()).unwrap(), v);
        }
        assert!(TimerValue::decode(-2).is_err());
    }

    #[test]
    fn predicates() {
        assert!(TimerValue::MSI.is_msi());
        assert!(!TimerValue::MSI.is_timed());
        let t = TimerValue::timed(20).unwrap();
        assert!(t.is_timed());
        assert!(!t.is_msi());
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(TimerValue::timed(300).unwrap().to_string(), "300");
        assert_eq!(TimerValue::MSI.to_string(), "-1");
    }

    #[test]
    fn default_is_msi() {
        assert_eq!(TimerValue::default(), TimerValue::MSI);
    }
}
