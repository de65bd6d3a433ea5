//! Scripted micro-workloads for tests, examples and the paper's
//! illustrative figures.
//!
//! These are tiny, fully deterministic workloads with a known sharing
//! pattern, used to validate the simulator against hand-computed timelines
//! (Figure 1 and Figure 4 of the paper) and to stress specific coherence
//! behaviours (ping-pong ownership migration, pure streaming, pure private
//! reuse).

use cohort_types::{Cycles, LineAddr, SeedRng};

use crate::{AccessKind, Trace, TraceOp, Workload};

/// Every core repeatedly stores to the same line: worst-case ownership
/// migration (pure GetM ping-pong).
///
/// # Examples
///
/// ```
/// use cohort_trace::micro;
///
/// let w = micro::ping_pong(4, 10);
/// assert_eq!(w.cores(), 4);
/// assert_eq!(w.total_accesses(), 40);
/// ```
#[must_use]
pub fn ping_pong(cores: usize, rounds: usize) -> Workload {
    let traces = (0..cores).map(|_| Trace::from_ops(vec![TraceOp::store(0); rounds])).collect();
    Workload::new("ping-pong", traces).expect("cores > 0")
}

/// Each core streams sequentially over its own private region: no sharing,
/// no reuse (every access a cold miss).
#[must_use]
pub fn streaming(cores: usize, accesses: usize) -> Workload {
    let traces = (0..cores)
        .map(|core| {
            let base = 0x1000 * (core as u64 + 1);
            Trace::from_ops((0..accesses).map(|i| TraceOp::load(base + i as u64)).collect())
        })
        .collect();
    Workload::new("streaming", traces).expect("cores > 0")
}

/// Each core performs word-granular bursts over its own private lines: a
/// store followed by `burst − 1` loads of the same line, for `reps` lines.
/// This is the access shape a coherence timer can turn into *guaranteed*
/// hits: the follow-up accesses sit a few cycles after the fill, well
/// inside any reasonable θ window.
///
/// # Panics
///
/// Panics if `burst` is zero.
#[must_use]
pub fn line_bursts(cores: usize, burst: usize, reps: usize) -> Workload {
    assert!(burst > 0, "a burst needs at least one access");
    let traces = (0..cores)
        .map(|core| {
            let base = 0x1000 * (core as u64 + 1);
            let mut ops = Vec::with_capacity(burst * reps);
            for r in 0..reps {
                let line = base + (r % 64) as u64;
                ops.push(TraceOp::store(line).after(2));
                for _ in 1..burst {
                    ops.push(TraceOp::load(line).after(1));
                }
            }
            Trace::from_ops(ops)
        })
        .collect();
    Workload::new("line-bursts", traces).expect("cores > 0")
}

/// Each core loops over a small private working set: no sharing, maximal
/// reuse (all hits after the cold misses).
#[must_use]
pub fn private_reuse(cores: usize, working_set: usize, accesses: usize) -> Workload {
    let traces = (0..cores)
        .map(|core| {
            let base = 0x1000 * (core as u64 + 1);
            Trace::from_ops(
                (0..accesses).map(|i| TraceOp::load(base + (i % working_set) as u64)).collect(),
            )
        })
        .collect();
    Workload::new("private-reuse", traces).expect("cores > 0")
}

/// Random mix over a shared pool of lines, with the given store fraction.
/// Deterministic for a fixed seed; used by stress and property tests.
///
/// # Panics
///
/// Panics if `lines` is zero or `store_fraction` is outside `[0, 1]`.
#[must_use]
pub fn random_shared(
    cores: usize,
    lines: u64,
    accesses: usize,
    store_fraction: f64,
    seed: u64,
) -> Workload {
    assert!(lines > 0, "need at least one line");
    assert!((0.0..=1.0).contains(&store_fraction), "store fraction must be in [0, 1]");
    let traces = (0..cores)
        .map(|core| {
            let mut rng = SeedRng::seed_from_u64(seed.wrapping_add(core as u64));
            Trace::from_ops(
                (0..accesses)
                    .map(|_| {
                        let line = LineAddr::new(rng.gen_range(0..lines));
                        let kind = if rng.gen_bool(store_fraction) {
                            AccessKind::Store
                        } else {
                            AccessKind::Load
                        };
                        let gap = Cycles::new(rng.gen_range(0..=6));
                        TraceOp::new(line, kind, gap)
                    })
                    .collect(),
            )
        })
        .collect();
    Workload::new("random-shared", traces).expect("cores > 0")
}

/// The Figure-1 scenario: two cores contend on line `A`.
///
/// 1. `c0` stores to `A` (①), becoming owner.
/// 2. `c1` stores to `A` (②) shortly after.
/// 3. `c0` accesses `A` again (③): under snooping coherence this request is
///    a *miss* (the line was stolen by `c1`); under time-based coherence it
///    is a *hit* (the timer protected the line).
///
/// The `revisit_gap` controls how soon after ② request ③ arrives; choose it
/// smaller than `θ₀` to reproduce the figure.
#[must_use]
pub fn figure1(revisit_gap: u64) -> Workload {
    let a = 0x40;
    let c0 = Trace::from_ops(vec![
        TraceOp::store(a),                    // ① — becomes owner
        TraceOp::store(a).after(revisit_gap), // ③ — hit iff timer still holds A
    ]);
    let c1 = Trace::from_ops(vec![
        TraceOp::store(a).after(10), // ② — arrives while c0 owns A
    ]);
    Workload::new("figure1", vec![c0, c1]).expect("non-empty")
}

/// The Figure-4 example operation: a quad-core system where all four cores
/// issue a write to line `A` back-to-back; `c0` later accesses `X0` and
/// `c1` accesses `X1` so their timers expire mid-activity.
///
/// In the paper, cores `c0`, `c1`, `c3` run time-based coherence and `c2`
/// runs MSI — that protocol assignment lives in the system configuration,
/// not in the workload.
#[must_use]
pub fn figure4() -> Workload {
    let a = 0x40;
    let x0 = 0x100;
    let x1 = 0x200;
    let c0 = Trace::from_ops(vec![
        TraceOp::store(a),           // ❶ first in RROF order
        TraceOp::load(x0).after(40), // served around θ0's expiry (❺)
    ]);
    let c1 = Trace::from_ops(vec![
        TraceOp::store(a).after(1),  // ❷ waits for θ0
        TraceOp::load(x1).after(60), // issued around θ1's expiry (❼)
    ]);
    let c2 = Trace::from_ops(vec![
        TraceOp::store(a).after(2), // ❸ MSI core: hands A over immediately (❿)
    ]);
    let c3 = Trace::from_ops(vec![
        TraceOp::store(a).after(3), // ❹ last requester
    ]);
    Workload::new("figure4", vec![c0, c1, c2, c3]).expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_shares_one_line() {
        let w = ping_pong(3, 5);
        for t in w.traces() {
            assert!(t.iter().all(|op| op.line.raw() == 0 && op.kind().is_store()));
            assert_eq!(t.len(), 5);
        }
    }

    #[test]
    fn streaming_never_repeats_lines() {
        let w = streaming(2, 100);
        for t in w.traces() {
            let stats = t.stats();
            assert_eq!(stats.unique_lines, 100);
            assert_eq!(stats.stores, 0);
        }
    }

    #[test]
    fn private_reuse_stays_in_working_set() {
        let w = private_reuse(2, 8, 100);
        for t in w.traces() {
            assert_eq!(t.stats().unique_lines, 8);
        }
    }

    #[test]
    fn random_shared_is_deterministic_and_bounded() {
        let a = random_shared(2, 16, 50, 0.5, 3);
        let b = random_shared(2, 16, 50, 0.5, 3);
        assert_eq!(a, b);
        for t in a.traces() {
            assert!(t.iter().all(|op| op.line.raw() < 16));
        }
    }

    #[test]
    #[should_panic(expected = "store fraction")]
    fn random_shared_rejects_bad_fraction() {
        let _ = random_shared(1, 1, 1, 1.5, 0);
    }

    #[test]
    fn figure_workloads_have_expected_shape() {
        let f1 = figure1(20);
        assert_eq!(f1.cores(), 2);
        assert_eq!(f1.total_accesses(), 3);

        let f4 = figure4();
        assert_eq!(f4.cores(), 4);
        // Every core writes line A = 0x40 as its first access.
        for t in f4.traces() {
            assert_eq!(t.ops()[0].line.raw(), 0x40);
            assert!(t.ops()[0].kind().is_store());
        }
    }
}
