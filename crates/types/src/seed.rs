//! [`splitmix64`]: the one seeded-stream mixer of the workspace, and
//! [`SeedRng`], the seeded generator built on it.

use std::ops::{Range, RangeInclusive};

use crate::fleet::OFFSET_A;

/// The splitmix64 increment: 2^64 / φ, rounded to odd.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// [`SeedRng`]'s seed-fold multiplier. It is 2^44 + 0x1b3, not FNV's
/// 2^40 + 0x1b3, and every golden digest depends on it.
const FOLD: u64 = 0x1000_0000_01b3;

/// The splitmix64 finalizer applied to `seed ^ stream·φ`: statistically
/// independent values per `(seed, stream)` pair with no ambient RNG.
///
/// Every seeded draw in the workspace derives from it — fault-plan
/// schedules, certification trials, the GA's per-generation RNG streams
/// and the chaos disk's per-path fault budgets — so a run is a pure
/// function of its seed.
///
/// # Examples
///
/// ```
/// use cohort_types::splitmix64;
///
/// assert_eq!(splitmix64(0, 0), 0);
/// assert_ne!(splitmix64(1, 0), splitmix64(1, 1));
/// ```
#[must_use]
pub fn splitmix64(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded splitmix64 stream: every trace generator, GA draw and
/// property case draws from one of these, so a run is a pure function of
/// its seed.
///
/// [`SeedRng::seed_from_u64`] expands the seed into four splitmix64 words
/// and folds them, FNV style, into the 64-bit state; each draw advances
/// the state by the splitmix increment and returns its [`splitmix64`]
/// finalizer. The streams are pinned bit for bit (the kernel fingerprints
/// and every golden digest depend on them), so neither step may change.
///
/// # Examples
///
/// ```
/// use cohort_types::SeedRng;
///
/// let mut rng = SeedRng::seed_from_u64(7);
/// let line: u64 = rng.gen_range(0..16);
/// assert!(line < 16);
/// assert_eq!(SeedRng::seed_from_u64(7).gen_range(0..16u64), line);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedRng {
    state: u64,
}

impl SeedRng {
    /// The stream for `seed`.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut word = seed;
        let mut state = OFFSET_A;
        for _ in 0..4 {
            word = word.wrapping_add(GAMMA);
            state = (state ^ splitmix64(word, 0)).wrapping_mul(FOLD);
        }
        SeedRng { state }
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        splitmix64(self.state, 0)
    }

    /// A value in `[0, 1)` from the top 53 bits of one draw.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `range` (`a..b` or `a..=b`): integers take one
    /// draw modulo the span, floats scale a `[0, 1)` draw onto it.
    ///
    /// # Panics
    ///
    /// Panics if an integer range is empty.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability {p} out of range");
        self.unit() < p
    }
}

/// A range [`SeedRng::gen_range`] draws from.
pub trait SampleRange<T> {
    /// One uniform draw from the range.
    fn sample(self, rng: &mut SeedRng) -> T;
}

/// The element types [`SeedRng::gen_range`] supports.
pub trait Uniform: Copy {
    /// One draw from `[lo, hi)`, or `[lo, hi]` when `inclusive`.
    fn between(rng: &mut SeedRng, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn between(rng: &mut SeedRng, lo: Self, hi: Self, inclusive: bool) -> Self {
                let lo = lo as i128;
                let hi = hi as i128 + i128::from(inclusive);
                assert!(lo < hi, "empty range in gen_range");
                let offset = u128::from(rng.next_u64()) % (hi - lo) as u128;
                (lo + offset as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u64, usize, i32);

impl Uniform for f64 {
    fn between(rng: &mut SeedRng, lo: Self, hi: Self, _inclusive: bool) -> Self {
        lo + rng.unit() * (hi - lo)
    }
}

impl<T: Uniform> SampleRange<T> for Range<T> {
    fn sample(self, rng: &mut SeedRng) -> T {
        T::between(rng, self.start, self.end, false)
    }
}

impl<T: Uniform> SampleRange<T> for RangeInclusive<T> {
    fn sample(self, rng: &mut SeedRng) -> T {
        T::between(rng, *self.start(), *self.end(), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_golden_values_are_pinned() {
        // Seeded campaigns and fault schedules replay from these draws:
        // the values must never change.
        let pairs = [(0, 0), (0, 1), (1, 0), (42, 7), (u64::MAX, 3), (7, 1 << 32)];
        let got: Vec<u64> = pairs.iter().map(|&(seed, stream)| splitmix64(seed, stream)).collect();
        assert_eq!(
            got,
            [
                0,
                16_294_208_416_658_607_535,
                6_238_072_747_940_578_789,
                6_029_533_247_520_485_195,
                10_318_735_482_467_590_012,
                12_999_632_078_958_508_225,
            ]
        );
    }

    #[test]
    fn seed_rng_streams_are_pinned() {
        // The trace generators and the GA replay from these streams.
        let mut rng = SeedRng::seed_from_u64(42);
        let raw: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(
            raw,
            [10_775_750_955_824_652_989, 246_041_713_109_549_852, 13_320_830_705_285_560_837]
        );
        let mut rng = SeedRng::seed_from_u64(0);
        let ints = (rng.gen_range(0..10u64), rng.gen_range(1..=6usize), rng.gen_range(-5..5));
        assert_eq!(ints, (0, 2, 4));
        assert_eq!(rng.gen_range(-0.5..=0.5f64).to_bits(), 4_601_374_570_732_309_218);
        let bools: Vec<bool> = (0..8).map(|_| rng.gen_bool(0.5)).collect();
        assert_eq!(bools, [false, true, true, false, false, false, false, true]);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn an_empty_range_panics() {
        let _ = SeedRng::seed_from_u64(1).gen_range(3..3u64);
    }
}
