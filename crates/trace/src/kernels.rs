//! Synthetic SPLASH-2-like workload generators.
//!
//! Each generator reproduces the *sharing structure* of one SPLASH-2 kernel:
//! which fraction of accesses touch shared lines, with what read/write mix,
//! what reuse distance, and which communication pattern (all-to-all,
//! neighbour, broadcast, reduction). Absolute instruction streams differ
//! from the real benchmarks — the coherence evaluation only depends on the
//! request arrival process and the line-sharing pattern, both of which are
//! parameterised here. Generation is fully deterministic given the seed.

use cohort_types::{Cycles, LineAddr, SeedRng};

use crate::{AccessKind, Trace, TraceOp, Workload};

/// First line of the shared region (read/write-shared between all cores).
const SHARED_BASE: u64 = 0x0000;
/// First line of core `i`'s private region: `PRIVATE_BASE + i * PRIVATE_STRIDE`.
const PRIVATE_BASE: u64 = 0x10_0000;
/// Line-address distance between consecutive cores' private regions.
const PRIVATE_STRIDE: u64 = 0x1_0000;

/// The SPLASH-2 kernels mimicked by the generators.
///
/// # Examples
///
/// ```
/// use cohort_trace::Kernel;
///
/// assert_eq!(Kernel::Fft.name(), "fft");
/// assert_eq!(Kernel::ALL.len(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Butterfly all-to-all transpose exchange (fft).
    Fft,
    /// Blocked factorization with a broadcast pivot block (lu).
    Lu,
    /// Streaming keys scattered into a write-shared histogram (radix).
    Radix,
    /// Stencil sweeps with neighbour halo exchange (ocean).
    Ocean,
    /// Irregular read-mostly walks over a shared tree (barnes).
    Barnes,
    /// Long private compute with tight global reductions (water).
    Water,
}

impl Kernel {
    /// All kernels, in the order used by the paper's figures.
    pub const ALL: [Kernel; 6] =
        [Kernel::Fft, Kernel::Lu, Kernel::Radix, Kernel::Ocean, Kernel::Barnes, Kernel::Water];

    /// Returns the lower-case kernel name as used on figure axes.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Kernel::Fft => "fft",
            Kernel::Lu => "lu",
            Kernel::Radix => "radix",
            Kernel::Ocean => "ocean",
            Kernel::Barnes => "barnes",
            Kernel::Water => "water",
        }
    }

    /// Default total request count across all cores, scaled from the paper
    /// (§VIII quotes ≈47 k requests for fft and ≈2.5 M for ocean; ocean is
    /// scaled down by default to keep the full evaluation tractable —
    /// regeneration binaries accept a `--full` flag that restores it).
    #[must_use]
    pub const fn default_total_requests(self) -> u64 {
        match self {
            Kernel::Fft => 47_000,
            Kernel::Lu => 96_000,
            Kernel::Radix => 72_000,
            Kernel::Ocean => 160_000,
            Kernel::Barnes => 120_000,
            Kernel::Water => 56_000,
        }
    }

    /// The paper-faithful total request count (ocean at its full 2.5 M).
    #[must_use]
    const fn full_total_requests(self) -> u64 {
        match self {
            Kernel::Ocean => 2_500_000,
            k => k.default_total_requests(),
        }
    }
}

impl core::fmt::Display for Kernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

impl core::str::FromStr for Kernel {
    type Err = cohort_types::Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Kernel::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| cohort_types::Error::InvalidConfig(format!("unknown kernel `{s}`")))
    }
}

/// A parameterised kernel workload specification.
///
/// # Examples
///
/// ```
/// use cohort_trace::{Kernel, KernelSpec};
///
/// let small = KernelSpec::new(Kernel::Radix, 4)
///     .with_total_requests(4_000)
///     .with_seed(7)
///     .generate();
/// assert_eq!(small.cores(), 4);
/// assert_eq!(small.total_accesses(), 4_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSpec {
    kernel: Kernel,
    cores: usize,
    total_requests: u64,
    seed: u64,
}

impl KernelSpec {
    /// Creates a spec with the kernel's default scale and seed 0.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn new(kernel: Kernel, cores: usize) -> Self {
        assert!(cores > 0, "a workload needs at least one core");
        KernelSpec { kernel, cores, total_requests: kernel.default_total_requests(), seed: 0 }
    }

    /// Overrides the total request count (summed over all cores).
    #[must_use]
    pub fn with_total_requests(mut self, total: u64) -> Self {
        self.total_requests = total;
        self
    }

    /// Restores the paper-faithful scale (ocean at 2.5 M requests).
    #[must_use]
    pub fn full_scale(mut self) -> Self {
        self.total_requests = self.kernel.full_total_requests();
        self
    }

    /// Overrides the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the kernel this spec generates.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Returns the core count.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Generates the workload deterministically. The requested total is
    /// split across cores with the remainder going to the lowest-numbered
    /// cores, so `total_accesses()` equals the request exactly.
    #[must_use]
    pub fn generate(&self) -> Workload {
        let base = self.total_requests / self.cores as u64;
        let remainder = (self.total_requests % self.cores as u64) as usize;
        let traces: Vec<Trace> = (0..self.cores)
            .map(|core| {
                let per_core = base as usize + usize::from(core < remainder);
                let mut rng = SeedRng::seed_from_u64(
                    self.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(core as u64 + 1)),
                );
                let mut g = Emitter::new(per_core, &mut rng);
                match self.kernel {
                    Kernel::Fft => fft(&mut g, core, self.cores),
                    Kernel::Lu => lu(&mut g, core, self.cores),
                    Kernel::Radix => radix(&mut g, core, self.cores),
                    Kernel::Ocean => ocean(&mut g, core, self.cores),
                    Kernel::Barnes => barnes(&mut g, core, self.cores),
                    Kernel::Water => water(&mut g, core, self.cores),
                }
                g.finish()
            })
            .collect();
        Workload::new(self.kernel.name(), traces).expect("cores > 0 is asserted in new")
    }
}

/// Bounded trace builder shared by all generators.
struct Emitter<'r> {
    ops: Vec<TraceOp>,
    target: usize,
    rng: &'r mut SeedRng,
}

impl<'r> Emitter<'r> {
    fn new(target: usize, rng: &'r mut SeedRng) -> Self {
        Emitter { ops: Vec::with_capacity(target), target, rng }
    }

    fn full(&self) -> bool {
        self.ops.len() >= self.target
    }

    /// Emits an access with a short compute gap drawn from `gap_range`.
    fn emit(&mut self, line: u64, kind: AccessKind, gap_range: core::ops::RangeInclusive<u64>) {
        if self.full() {
            return;
        }
        let gap = self.rng.gen_range(gap_range);
        self.ops.push(TraceOp::new(LineAddr::new(line), kind, Cycles::new(gap)));
    }

    fn load(&mut self, line: u64) {
        self.emit(line, AccessKind::Load, 1..=4);
    }

    fn store(&mut self, line: u64) {
        self.emit(line, AccessKind::Store, 1..=4);
    }

    /// Emits a load after a longer compute phase (phase boundary).
    fn load_after_phase(&mut self, line: u64) {
        self.emit(line, AccessKind::Load, 40..=120);
    }

    /// Emits a word-granular burst to one cache line: the filling access
    /// followed by `follow_ups` closely-spaced accesses to other words of
    /// the same 64 B line. Real traces touch a line several times per
    /// visit; these follow-ups are what a timer can turn into guaranteed
    /// hits.
    fn burst(&mut self, line: u64, first: AccessKind, follow_ups: usize) {
        self.emit(line, first, 1..=4);
        for _ in 0..follow_ups {
            self.emit(line, AccessKind::Load, 1..=3);
        }
    }

    fn finish(self) -> Trace {
        Trace::from_ops(self.ops)
    }
}

fn private_base(core: usize) -> u64 {
    PRIVATE_BASE + core as u64 * PRIVATE_STRIDE
}

/// fft: log₂(N) butterfly phases. Each core streams over a private block
/// with high reuse, then exchanges with a distance-2ᵖ partner by reading the
/// partner's segment of the shared matrix and writing its own segment.
fn fft(g: &mut Emitter<'_>, core: usize, cores: usize) {
    let seg_lines = 64u64; // shared matrix segment per core
    let own_seg = SHARED_BASE + core as u64 * seg_lines;
    let priv_block = private_base(core);
    let phases = cores.next_power_of_two().trailing_zeros().max(1);
    let mut phase = 0u32;
    while !g.full() {
        let partner = (core ^ (1usize << (phase % phases))) % cores;
        let partner_seg = SHARED_BASE + partner as u64 * seg_lines;
        // Local butterfly computation: word-granular bursts over a strided
        // private block (write the twiddled element, then read neighbours).
        for rep in 0..3 {
            for k in 0..16u64 {
                let line = priv_block + (k * 4 + rep) % 96;
                g.burst(line, AccessKind::Store, 3);
            }
        }
        // Transpose exchange: read the partner's segment, write our own.
        g.load_after_phase(partner_seg);
        for k in 1..seg_lines {
            g.burst(partner_seg + k, AccessKind::Load, 1);
            if k % 2 == 0 {
                g.burst(own_seg + k, AccessKind::Store, 1);
            }
        }
        phase = phase.wrapping_add(1);
    }
}

/// lu: blocked factorization. One pivot block per iteration is read by every
/// core (broadcast read-sharing); each core then updates the blocks it owns.
fn lu(g: &mut Emitter<'_>, core: usize, cores: usize) {
    let block_lines = 16u64;
    let blocks = 24u64;
    let priv_scratch = private_base(core);
    let mut iter = 0u64;
    while !g.full() {
        let pivot = iter % blocks;
        let pivot_base = SHARED_BASE + pivot * block_lines;
        // Everyone reads the pivot block, several words per line.
        g.load_after_phase(pivot_base);
        for k in 1..block_lines {
            g.burst(pivot_base + k, AccessKind::Load, 2);
        }
        // Update owned blocks (write-sharing only across iterations).
        for b in (0..blocks).filter(|b| b % cores as u64 == core as u64) {
            let base = SHARED_BASE + b * block_lines;
            for k in 0..block_lines {
                g.burst(base + k, AccessKind::Store, 2);
                // Scratch access between updates.
                g.load(priv_scratch + (b * block_lines + k) % 64);
            }
        }
        iter += 1;
    }
}

/// radix: streams private keys with no reuse, scattering counts into a
/// write-shared histogram with read-modify-write accesses (heavy GetM
/// contention on few lines).
fn radix(g: &mut Emitter<'_>, core: usize, _cores: usize) {
    let hist_lines = 32u64;
    let keys = private_base(core);
    let mut cursor = 0u64;
    while !g.full() {
        // Read a batch of keys: sequential, low reuse (streaming misses).
        for _ in 0..8 {
            g.load(keys + cursor % 4096);
            cursor += 1;
        }
        // Scatter into the shared histogram: RMW on a skewed bucket.
        let skew: u64 = g.rng.gen_range(0..100);
        let bucket = if skew < 60 { g.rng.gen_range(0..4) } else { g.rng.gen_range(0..hist_lines) };
        g.load(SHARED_BASE + bucket);
        g.store(SHARED_BASE + bucket);
    }
}

/// ocean: red-black stencil sweeps over a private slab with halo reads of
/// the two neighbouring cores' boundary rows each iteration.
fn ocean(g: &mut Emitter<'_>, core: usize, cores: usize) {
    let rows = 24u64;
    let row_lines = 8u64;
    let slab = private_base(core);
    let up = (core + cores - 1) % cores;
    let down = (core + 1) % cores;
    // Each core's boundary rows live in the shared region so neighbours can
    // read them: two rows per core.
    let boundary = |c: usize| SHARED_BASE + c as u64 * 2 * row_lines;
    while !g.full() {
        // Sweep own slab: row-major, word-granular stencil updates.
        for r in 0..rows {
            for l in 0..row_lines {
                let line = slab + r * row_lines + l;
                g.burst(line, AccessKind::Store, 4);
            }
        }
        // Publish own boundary rows.
        for l in 0..2 * row_lines {
            g.store(boundary(core) + l);
        }
        // Halo exchange: read both neighbours' boundaries.
        g.load_after_phase(boundary(up));
        for l in 1..2 * row_lines {
            g.load(boundary(up) + l);
        }
        for l in 0..2 * row_lines {
            g.load(boundary(down) + l);
        }
    }
}

/// barnes: irregular read-mostly pointer-chases over a shared tree, with
/// periodic writes to the core's own body region (also shared, so other
/// cores' force reads pull it).
fn barnes(g: &mut Emitter<'_>, core: usize, cores: usize) {
    let tree_lines = 512u64;
    let bodies_per_core = 32u64;
    let own_bodies = SHARED_BASE + 1024 + core as u64 * bodies_per_core;
    let stack = private_base(core);
    let mut depth = 0u64;
    while !g.full() {
        // Tree walk: geometric jumps, read-only, with private stack pushes.
        let mut node = g.rng.gen_range(0..tree_lines);
        for _ in 0..12 {
            g.burst(SHARED_BASE + 2048 + node, AccessKind::Load, 1);
            g.store(stack + depth % 32);
            depth += 1;
            let jump = g.rng.gen_range(1..=64);
            node = (node * 2 + jump) % tree_lines;
        }
        // Read a victim body from a random core, update our own.
        let victim = g.rng.gen_range(0..cores) as u64;
        let victim_body: u64 = g.rng.gen_range(0..bodies_per_core);
        g.load(SHARED_BASE + 1024 + victim * bodies_per_core + victim_body);
        let body = own_bodies + g.rng.gen_range(0..bodies_per_core);
        g.burst(body, AccessKind::Store, 2);
    }
}

/// water: long private compute phases punctuated by tight global reductions
/// on a handful of shared accumulator lines (ping-pong GetM).
fn water(g: &mut Emitter<'_>, core: usize, _cores: usize) {
    let accumulators = 4u64;
    let molecules = private_base(core);
    while !g.full() {
        // Private molecule updates with large compute gaps: write the new
        // position, then read the velocity and force words of the line.
        for m in 0..24u64 {
            let line = molecules + m % 128;
            g.emit(line, AccessKind::Store, 8..=24);
            g.emit(line, AccessKind::Load, 8..=24);
            g.emit(line, AccessKind::Load, 8..=24);
        }
        // Global reduction: RMW every accumulator line.
        for a in 0..accumulators {
            g.emit(SHARED_BASE + a, AccessKind::Load, 1..=2);
            g.emit(SHARED_BASE + a, AccessKind::Store, 1..=2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small(kernel: Kernel) -> Workload {
        KernelSpec::new(kernel, 4).with_total_requests(8_000).generate()
    }

    #[test]
    fn all_kernels_generate_requested_size() {
        for kernel in Kernel::ALL {
            let w = small(kernel);
            assert_eq!(w.cores(), 4);
            assert_eq!(w.total_accesses(), 8_000, "{kernel}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for kernel in Kernel::ALL {
            assert_eq!(small(kernel), small(kernel), "{kernel}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = KernelSpec::new(Kernel::Barnes, 2).with_total_requests(2_000).generate();
        let b =
            KernelSpec::new(Kernel::Barnes, 2).with_total_requests(2_000).with_seed(1).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn cores_share_lines() {
        // Every kernel must actually induce sharing: some line is touched by
        // at least two cores.
        for kernel in Kernel::ALL {
            let w = small(kernel);
            let sets: Vec<HashSet<u64>> =
                w.traces().iter().map(|t| t.iter().map(|op| op.line.raw()).collect()).collect();
            let mut shared = false;
            'outer: for i in 0..sets.len() {
                for j in (i + 1)..sets.len() {
                    if sets[i].intersection(&sets[j]).next().is_some() {
                        shared = true;
                        break 'outer;
                    }
                }
            }
            assert!(shared, "{kernel} generated no shared lines");
        }
    }

    #[test]
    fn cores_have_private_lines() {
        // …and each core also has lines nobody else touches (so the timer
        // actually protects something).
        for kernel in Kernel::ALL {
            let w = small(kernel);
            let sets: Vec<HashSet<u64>> =
                w.traces().iter().map(|t| t.iter().map(|op| op.line.raw()).collect()).collect();
            for (i, set) in sets.iter().enumerate() {
                let private = set.iter().any(|line| {
                    sets.iter().enumerate().all(|(j, other)| j == i || !other.contains(line))
                });
                assert!(private, "{kernel}: core {i} has no private lines");
            }
        }
    }

    #[test]
    fn stores_present_in_every_kernel() {
        for kernel in Kernel::ALL {
            let w = small(kernel);
            for (i, t) in w.traces().iter().enumerate() {
                assert!(t.stats().stores > 0, "{kernel}: core {i} never stores");
            }
        }
    }

    #[test]
    fn default_scale_fingerprints_are_pinned() {
        // Every paper figure starts from these workloads (4 cores, default
        // scale, seed 0): a moved digest means a moved trace, so the RNG
        // behind the generators must reproduce these streams exactly.
        let digests: Vec<String> = Kernel::ALL
            .into_iter()
            .map(|kernel| {
                let workload = KernelSpec::new(kernel, 4).generate();
                let digest = workload
                    .traces()
                    .iter()
                    .fold(cohort_types::FingerprintBuilder::new(), |d, t| {
                        d.fingerprint(t.fingerprint())
                    });
                format!("{kernel}:{}", digest.finish().to_hex())
            })
            .collect();
        assert_eq!(
            digests,
            [
                "fft:baa5991f3c0f7da29d25ad81bb7bdec5",
                "lu:2e29fa161e46440c55bc7cd1686025ab",
                "radix:230fb530f688f850e9b5f83febce416f",
                "ocean:9c5dcfac0fccfebce7edb99ba1305b73",
                "barnes:60454c7fd5ac4c9fee6c36292f7221e8",
                "water:5757f89a759abe0b4c8ad4835d34c494",
            ]
        );
    }

    #[test]
    fn paper_scales() {
        assert_eq!(Kernel::Fft.default_total_requests(), 47_000);
        assert_eq!(Kernel::Ocean.full_total_requests(), 2_500_000);
    }

    #[test]
    fn kernel_from_str_round_trips() {
        for kernel in Kernel::ALL {
            let parsed: Kernel = kernel.name().parse().unwrap();
            assert_eq!(parsed, kernel);
        }
        assert!("mandelbrot".parse::<Kernel>().is_err());
    }

    #[test]
    fn single_core_works() {
        let w = KernelSpec::new(Kernel::Fft, 1).with_total_requests(100).generate();
        assert_eq!(w.cores(), 1);
        assert_eq!(w.total_accesses(), 100);
    }
}
