//! [`Log2Histogram`]: the one mergeable log2-bucketed histogram of the
//! workspace — per-request latencies in the simulator's metrics probe,
//! detection latencies in the certification campaign.

use crate::{Error, Result};

/// A log2-bucketed histogram of `u64` observations.
///
/// Bucket 0 holds the value 0 and bucket `i ≥ 1` holds `[2^(i-1), 2^i)`,
/// so the 65 buckets cover the full `u64` range. Recording is O(1) (a
/// `leading_zeros` and an increment); quantiles are read from the bucket
/// boundaries and clamped to the exact observed maximum, so a reported
/// p99 never exceeds the true worst case. Histograms merge associatively.
///
/// There is deliberately no running sum: callers that need a mean keep
/// one next to the histogram.
///
/// # Examples
///
/// ```
/// use cohort_types::Log2Histogram;
///
/// let mut h = Log2Histogram::new();
/// for v in [1, 1, 1, 200] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.p50(), 1);
/// assert_eq!(h.max(), 200);
/// assert!(h.p99() <= h.max());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; Log2Histogram::BUCKETS],
    count: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: [0; Self::BUCKETS], count: 0, max: 0 }
    }
}

impl Log2Histogram {
    /// Number of buckets: the value 0 plus one per bit of a `u64`.
    pub const BUCKETS: usize = 65;

    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a histogram from its exact maximum and its non-empty
    /// `(bucket, count)` pairs; the count is the sum of the bucket counts.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] for a bucket index above 64, a repeated
    /// bucket, or counts whose sum overflows a `u64`.
    pub fn from_buckets(max: u64, buckets: impl IntoIterator<Item = (u64, u64)>) -> Result<Self> {
        let mut hist = Log2Histogram { max, ..Self::default() };
        for (bucket, count) in buckets {
            let slot = usize::try_from(bucket)
                .ok()
                .and_then(|b| hist.buckets.get_mut(b))
                .ok_or_else(|| Error::Codec(format!("histogram bucket index {bucket}")))?;
            if *slot != 0 {
                return Err(Error::Codec(format!("histogram bucket {bucket} repeats")));
            }
            *slot = count;
            hist.count = hist
                .count
                .checked_add(count)
                .ok_or_else(|| Error::Codec("histogram counts overflow".into()))?;
        }
        Ok(hist)
    }

    /// The bucket a value lands in.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The smallest and largest value bucket `index` can hold.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`Self::BUCKETS`].
    #[must_use]
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < Self::BUCKETS, "log2 bucket {index} out of range");
        match index {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (index - 1), (1 << index) - 1),
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Folds another histogram in.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The largest recorded observation (exact, not bucketed).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// An upper estimate of the `q`-quantile (`q` in `[0, 1]`): the upper
    /// boundary of the bucket containing it, clamped to the exact maximum.
    /// Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_bounds(index).1.min(self.max);
            }
        }
        self.max
    }

    /// The median (upper-bucket estimate, clamped to the maximum).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 99th percentile (upper-bucket estimate, clamped to the maximum).
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Iterates over the non-empty buckets as `(index, count)`, in
    /// ascending index order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &n)| n > 0).map(|(i, &n)| (i, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_buckets_round_trips_and_rejects_malformed_parts() {
        let mut h = Log2Histogram::new();
        for v in [0, 3, 3, 900, u64::MAX] {
            h.record(v);
        }
        let parts = h.nonzero_buckets().map(|(b, n)| (b as u64, n));
        assert_eq!(Log2Histogram::from_buckets(h.max(), parts), Ok(h));
        assert_eq!(Log2Histogram::from_buckets(0, []), Ok(Log2Histogram::new()));

        let bad: [&[(u64, u64)]; 3] = [
            &[(65, 1)],                // no bucket 65
            &[(2, 1), (2, 1)],         // repeated bucket
            &[(1, u64::MAX), (64, 1)], // count overflow
        ];
        for buckets in bad {
            assert!(
                matches!(
                    Log2Histogram::from_buckets(u64::MAX, buckets.iter().copied()),
                    Err(Error::Codec(_))
                ),
                "buckets {buckets:?}"
            );
        }
    }
}
