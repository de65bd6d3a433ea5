//! Coordination vocabulary for the sweep-fleet service: content-address
//! fingerprints, claim epochs and worker identities.
//!
//! The fleet's result store is **content-addressed**: a job's identity is a
//! 128-bit [`Fingerprint`] derived from everything that determines its
//! outcome (the workload traces' own fingerprints plus the canonical
//! encoding of the configuration). Two submissions with the same
//! fingerprint are the same computation, so they share one execution and
//! one stored result.
//!
//! Claim coordination uses epochs rather than locks held across a crash: a
//! worker claims a job at some [`Epoch`]; if its lease expires the job is
//! re-claimed at the next epoch, and the late completion from the previous
//! epoch is rejected as stale. Because every job is a pure function of its
//! spec, the re-run is bit-identical — stale rejections lose no data.

use core::fmt;

use crate::{Error, Result};

/// The two FNV-1a stream offsets and the prime: the workspace's only copy,
/// behind trace, spec and payload fingerprints alike, so they all live in
/// the same 128-bit space. [`crate::SeedRng`] starts its seed fold at
/// `OFFSET_A`.
pub(crate) const OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 128-bit content-address: two independent FNV-1a streams over the
/// hashed content, matching the trace fingerprints the analysis memo is
/// keyed on.
///
/// # Examples
///
/// ```
/// use cohort_types::Fingerprint;
///
/// let fp = Fingerprint::builder().bytes(b"job spec").finish();
/// let hex = fp.to_hex();
/// assert_eq!(hex.len(), 32);
/// assert_eq!(Fingerprint::from_hex(&hex)?, fp);
/// # Ok::<(), cohort_types::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// Wraps a raw 128-bit fingerprint (e.g. one produced by
    /// `Trace::fingerprint`).
    #[must_use]
    pub const fn from_raw(raw: u128) -> Self {
        Fingerprint(raw)
    }

    /// The raw 128-bit value.
    #[must_use]
    pub const fn get(self) -> u128 {
        self.0
    }

    /// Starts a streaming fingerprint computation.
    #[must_use]
    pub fn builder() -> FingerprintBuilder {
        FingerprintBuilder::new()
    }

    /// The 32-character lower-case hex spelling — filesystem-safe, used as
    /// the store's file name for the entry.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses a [`Self::to_hex`] spelling.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] for anything but exactly 32 hex digits.
    pub fn from_hex(hex: &str) -> Result<Self> {
        if hex.len() != 32 {
            return Err(Error::Codec(format!(
                "fingerprint hex must be 32 digits, got {}",
                hex.len()
            )));
        }
        u128::from_str_radix(hex, 16)
            .map(Fingerprint)
            .map_err(|e| Error::Codec(format!("invalid fingerprint hex `{hex}`: {e}")))
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Streaming builder for a [`Fingerprint`]: feed it bytes, integers and
/// already-computed fingerprints (e.g. per-trace fingerprints), then
/// [`FingerprintBuilder::finish`].
///
/// The digest runs the same dual-stream FNV-1a construction as the trace
/// fingerprints, so combining is cheap and deterministic across hosts.
#[derive(Debug, Clone)]
pub struct FingerprintBuilder {
    a: u64,
    b: u64,
}

impl Default for FingerprintBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl FingerprintBuilder {
    /// Starts an empty digest.
    #[must_use]
    pub fn new() -> Self {
        FingerprintBuilder { a: OFFSET_A, b: OFFSET_B }
    }

    /// Starts the digest of a `len`-element sequence: the length is folded
    /// into the second stream's seed, so the two halves stay independent
    /// even though they consume identical bytes (`Trace::fingerprint`).
    #[must_use]
    pub fn with_length(len: u64) -> Self {
        FingerprintBuilder { a: OFFSET_A, b: OFFSET_B ^ len }
    }

    #[inline]
    fn push(&mut self, byte: u8) {
        self.a = (self.a ^ u64::from(byte)).wrapping_mul(PRIME);
        self.b = (self.b ^ u64::from(byte)).wrapping_mul(PRIME.rotate_left(1) | 1);
    }

    /// Feeds raw bytes.
    #[inline]
    #[must_use]
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &byte in bytes {
            self.push(byte);
        }
        self
    }

    /// Feeds a string (UTF-8 bytes plus a terminator, so `("ab", "c")` and
    /// `("a", "bc")` digest differently).
    #[must_use]
    pub fn text(mut self, text: &str) -> Self {
        for &byte in text.as_bytes() {
            self.push(byte);
        }
        self.push(0xff);
        self
    }

    /// Feeds a `u64` in little-endian byte order.
    #[inline]
    #[must_use]
    pub fn u64(mut self, value: u64) -> Self {
        for byte in value.to_le_bytes() {
            self.push(byte);
        }
        self
    }

    /// Folds an existing 128-bit fingerprint (e.g. a trace's) into the
    /// digest.
    #[must_use]
    pub fn fingerprint(mut self, fp: u128) -> Self {
        for byte in fp.to_le_bytes() {
            self.push(byte);
        }
        self
    }

    /// Finalises the digest.
    #[inline]
    #[must_use]
    pub fn finish(self) -> Fingerprint {
        Fingerprint((u128::from(self.a) << 64) | u128::from(self.b))
    }
}

/// A claim generation for one fleet job.
///
/// Each time a job is (re-)claimed its epoch advances; completions carry
/// the epoch they were claimed at, and the queue rejects completions whose
/// epoch is no longer current (the claimer's lease expired and the job was
/// handed to another shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Epoch(u64);

impl Epoch {
    /// The first claim's epoch.
    pub const FIRST: Epoch = Epoch(1);

    /// Wraps a raw epoch counter.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Epoch(raw)
    }

    /// The raw counter.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The epoch a re-claim advances to.
    #[must_use]
    pub const fn next(self) -> Self {
        Epoch(self.0 + 1)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identity of one worker shard of the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(u64);

impl WorkerId {
    /// Wraps a raw shard index.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        WorkerId(raw)
    }

    /// The raw shard index.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let fp = Fingerprint::builder().text("hello").u64(42).finish();
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::from_hex(&hex).unwrap(), fp);
        assert_eq!(fp.to_string(), hex);
    }

    #[test]
    fn hex_rejects_malformed_input() {
        assert!(Fingerprint::from_hex("abc").is_err());
        assert!(Fingerprint::from_hex(&"g".repeat(32)).is_err());
        // Leading zeros survive the round trip.
        let small = Fingerprint::from_raw(0xbeef);
        assert_eq!(Fingerprint::from_hex(&small.to_hex()).unwrap(), small);
    }

    #[test]
    fn digest_is_order_and_boundary_sensitive() {
        let ab = Fingerprint::builder().text("ab").text("c").finish();
        let a_bc = Fingerprint::builder().text("a").text("bc").finish();
        assert_ne!(ab, a_bc, "field boundaries must be part of the digest");
        let fwd = Fingerprint::builder().u64(1).u64(2).finish();
        let rev = Fingerprint::builder().u64(2).u64(1).finish();
        assert_ne!(fwd, rev);
        assert_eq!(
            Fingerprint::builder().fingerprint(77).finish(),
            Fingerprint::builder().fingerprint(77).finish(),
        );
    }

    #[test]
    fn epochs_advance() {
        assert_eq!(Epoch::FIRST.next(), Epoch::new(2));
        assert!(Epoch::FIRST < Epoch::FIRST.next());
        assert_eq!(Epoch::new(9).to_string(), "9");
        assert_eq!(WorkerId::new(3).to_string(), "w3");
    }
}
