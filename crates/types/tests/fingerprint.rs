//! [`FingerprintBuilder::u64`] folds a value's high zero bytes into one
//! multiplication per stream; the digest must stay the byte-wise one.

use cohort_prop::prelude::*;
use cohort_types::Fingerprint;

properties! {
    /// `u64(v)` digests exactly as `bytes(&v.to_le_bytes())`: random
    /// values, values with every count of high zero bytes, and the edges.
    #[test]
    fn u64_equals_its_little_endian_bytes(
        value in prop_oneof![
            any::<u64>(),
            (any::<u64>(), 0u64..64).prop_map(|(v, shift)| v >> shift),
            Just(0),
            Just(0xff),
            Just(0x100),
            Just(1 << 32),
            Just(u64::MAX),
        ]
    ) {
        let seed = Fingerprint::builder().text("prefix");
        assert_eq!(
            seed.clone().u64(value).finish(),
            seed.bytes(&value.to_le_bytes()).finish(),
            "u64({value:#x}) differs from its little-endian bytes"
        );
    }
}
