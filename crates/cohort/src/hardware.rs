//! Hardware-cost accounting for the CoHoRT architecture (§III-B).
//!
//! The paper argues the architecture is low-cost: one 16-bit countdown
//! counter per private cache line (≈3 % overhead for 64 B lines), one
//! 16-bit timer threshold register per core, and one Mode-Switch LUT with
//! a 16-bit field per mode (80 bits for the five avionics levels). This
//! module turns those claims into checkable numbers for any configuration.

use cohort_sim::CacheGeometry;

/// Width of the timer threshold register, the per-line counters and each
/// Mode-Switch LUT field (the paper finds 16 bits sufficient).
const TIMER_BITS: u64 = 16;

/// Hardware overhead of CoHoRT on one core's cache controller.
///
/// # Examples
///
/// ```
/// use cohort::hardware::HardwareCost;
/// use cohort_sim::CacheGeometry;
///
/// // The paper's configuration: 16 KiB L1, 64 B lines, 5 modes.
/// let cost = HardwareCost::per_core(&CacheGeometry::paper_l1(), 5);
/// assert_eq!(cost.lut_bits, 80, "the paper's 80-bit LUT");
/// // ≈3% per line: 16 counter bits over 512 data bits.
/// assert!((cost.line_overhead_fraction() - 0.031).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardwareCost {
    /// One countdown counter per cache line.
    pub counter_bits: u64,
    /// The θ threshold register.
    pub register_bits: u64,
    /// The Mode-Switch LUT (16 bits per mode).
    pub lut_bits: u64,
    /// Number of private-cache lines the counters cover.
    pub lines: u64,
    /// Data bits per line (for the overhead ratio).
    pub line_data_bits: u64,
}

impl HardwareCost {
    /// Computes the per-core cost for a private-cache geometry and a number
    /// of operational modes.
    #[must_use]
    pub fn per_core(l1: &CacheGeometry, modes: u32) -> Self {
        HardwareCost {
            counter_bits: TIMER_BITS * l1.lines(),
            register_bits: TIMER_BITS,
            lut_bits: TIMER_BITS * u64::from(modes),
            lines: l1.lines(),
            line_data_bits: l1.line_bytes * 8,
        }
    }

    /// The per-line storage overhead of the countdown counter relative to
    /// the line's data bits — the paper's "around 3 % for a 64 B line".
    #[must_use]
    // lint:allow(pub-unused) checks the paper's §III-B "around 3 % per 64 B line" claim
    pub fn line_overhead_fraction(&self) -> f64 {
        TIMER_BITS as f64 / self.line_data_bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers() {
        let cost = HardwareCost::per_core(&CacheGeometry::paper_l1(), 5);
        assert_eq!(cost.lines, 256);
        assert_eq!(cost.counter_bits, 16 * 256);
        assert_eq!(cost.register_bits, 16);
        assert_eq!(cost.lut_bits, 80);
        // 16 bits per 512-bit line = 3.125 %.
        assert!((cost.line_overhead_fraction() - 0.03125).abs() < 1e-12);
    }

    #[test]
    fn lut_scales_with_modes() {
        let two = HardwareCost::per_core(&CacheGeometry::paper_l1(), 2);
        let five = HardwareCost::per_core(&CacheGeometry::paper_l1(), 5);
        assert_eq!(five.lut_bits - two.lut_bits, 3 * 16);
        assert_eq!(two.counter_bits, five.counter_bits, "counters are mode-independent");
    }
}
