//! Property-based tests of the trace model, codecs and generators.

use cohort_prop::prelude::*;

use cohort_trace::{codec, AccessKind, Kernel, KernelSpec, Trace, TraceOp, Workload};
use cohort_types::{Cycles, Error, LineAddr};

fn op_strategy() -> impl Strategy<Value = TraceOp> {
    (any::<u64>(), any::<bool>(), 0u64..=u64::from(u32::MAX)).prop_map(|(line, store, gap)| {
        TraceOp::new(
            LineAddr::new(line),
            if store { AccessKind::Store } else { AccessKind::Load },
            Cycles::new(gap),
        )
    })
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    collection::vec(collection::vec(op_strategy(), 0..40), 1..5).prop_map(|traces| {
        Workload::new("prop", traces.into_iter().map(Trace::from_ops).collect()).expect("non-empty")
    })
}

properties! {
    /// Binary encode/decode is the identity on every encodable workload
    /// (gaps beyond the 32-bit on-disk field are rejected, not corrupted).
    #[test]
    fn binary_codec_round_trips(w in workload_strategy()) {
        let bytes = codec::to_binary(&w).expect("gaps fit the 32-bit field");
        assert_eq!(codec::from_binary(&bytes).unwrap(), w);
    }

    /// JSON encode/decode is the identity on arbitrary workloads.
    #[test]
    fn json_codec_round_trips(w in workload_strategy()) {
        let json = codec::to_json(&w).unwrap();
        assert_eq!(codec::from_json(&json).unwrap(), w);
    }

    /// Arbitrary byte soup never panics the binary decoder — it returns a
    /// codec error (or, rarely, a valid workload if the soup parses).
    #[test]
    fn binary_decoder_is_total(bytes in collection::vec(any::<u8>(), 0..256)) {
        let _ = codec::from_binary(&bytes);
    }

    /// Kernel generation always produces exactly the requested accesses,
    /// deterministically, for any core count and seed.
    #[test]
    fn kernels_generate_exact_sizes(
        kernel_idx in 0usize..6,
        cores in 1usize..6,
        seed in any::<u64>(),
        total in 1u64..3_000,
    ) {
        let kernel = Kernel::ALL[kernel_idx];
        let spec = KernelSpec::new(kernel, cores).with_total_requests(total).with_seed(seed);
        let a = spec.generate();
        assert_eq!(a.cores(), cores);
        assert_eq!(a.total_accesses(), total, "remainder is distributed");
        assert_eq!(&a, &spec.generate(), "determinism");
    }

    /// Truncation never grows a trace and preserves prefixes.
    #[test]
    fn truncation_takes_prefixes(w in workload_strategy(), keep in 0usize..50) {
        let t = w.truncated(keep);
        for (full, cut) in w.traces().iter().zip(t.traces()) {
            assert!(cut.len() <= keep.min(full.len()) + 1);
            assert_eq!(&full.ops()[..cut.len()], cut.ops());
        }
    }

    /// Trace stats are consistent: loads + stores = len, unique ≤ len.
    #[test]
    fn stats_are_consistent(ops in collection::vec(op_strategy(), 0..60)) {
        let trace = Trace::from_ops(ops);
        let stats = trace.stats();
        assert_eq!(stats.accesses(), trace.len() as u64);
        assert!(stats.unique_lines <= trace.len() as u64);
        assert!(stats.store_fraction() >= 0.0 && stats.store_fraction() <= 1.0);
    }

    /// A damaged trace-JSON document decodes to a typed error or to a
    /// workload that re-encodes; it never panics.
    #[test]
    fn damaged_trace_json_never_panics(text in json_mutations(&sample_json())) {
        if let Ok(workload) = codec::from_json(&text) {
            let _ = codec::to_json(&workload);
        }
    }
}

/// A valid trace-JSON document: a 12-request fft on two cores.
fn sample_json() -> String {
    codec::to_json(&KernelSpec::new(Kernel::Fft, 2).with_total_requests(12).generate()).unwrap()
}

/// Nesting past the parser's depth cap is a typed error, not a stack
/// overflow that aborts the process.
#[test]
fn deeply_nested_trace_json_is_a_codec_error() {
    for text in ["[".repeat(10_000), "[".repeat(10_000) + &"]".repeat(10_000)] {
        assert!(matches!(codec::from_json(&text), Err(Error::Codec(_))));
    }
}
