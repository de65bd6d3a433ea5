use cohort_types::{CoreId, Error, Result};

use crate::Trace;

/// A multi-core workload: one [`Trace`] per core, plus a name.
///
/// Trace `i` is replayed on core `i` (the paper maps each benchmark thread
/// to one core).
///
/// # Examples
///
/// ```
/// use cohort_trace::{Trace, TraceOp, Workload};
/// use cohort_types::CoreId;
///
/// let w = Workload::new(
///     "pingpong",
///     vec![
///         Trace::from_ops(vec![TraceOp::store(0)]),
///         Trace::from_ops(vec![TraceOp::store(0)]),
///     ],
/// )?;
/// assert_eq!(w.cores(), 2);
/// assert_eq!(w.trace(CoreId::new(1))?.len(), 1);
/// # Ok::<(), cohort_types::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    name: String,
    traces: Vec<Trace>,
}

impl Workload {
    /// Creates a workload from per-core traces.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `traces` is empty: a system needs
    /// at least one core.
    pub fn new(name: impl Into<String>, traces: Vec<Trace>) -> Result<Self> {
        if traces.is_empty() {
            return Err(Error::InvalidConfig("a workload needs at least one core trace".into()));
        }
        Ok(Workload { name: name.into(), traces })
    }

    /// Returns the workload's name (e.g. the kernel it mimics).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the number of cores (= number of traces).
    #[must_use]
    pub fn cores(&self) -> usize {
        self.traces.len()
    }

    /// Returns the trace of one core.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownCore`] if the core does not exist.
    pub fn trace(&self, core: CoreId) -> Result<&Trace> {
        self.traces
            .get(core.index())
            .ok_or(Error::UnknownCore { index: core.index(), cores: self.traces.len() })
    }

    /// Returns all per-core traces in core order.
    #[must_use]
    pub fn traces(&self) -> &[Trace] {
        &self.traces
    }

    /// Total number of memory accesses across all cores.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.traces.iter().map(|t| t.len() as u64).sum()
    }

    /// Returns a copy of this workload truncated to at most `per_core`
    /// accesses per core — used to derive quick test/bench variants of the
    /// full-scale kernels.
    #[must_use]
    pub fn truncated(&self, per_core: usize) -> Workload {
        Workload {
            name: format!("{}-trunc{per_core}", self.name),
            traces: self
                .traces
                .iter()
                .map(|t| Trace::from_ops(t.ops().iter().copied().take(per_core).collect()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceOp;

    fn two_core() -> Workload {
        Workload::new(
            "w",
            vec![
                Trace::from_ops(vec![TraceOp::load(0), TraceOp::load(1)]),
                Trace::from_ops(vec![TraceOp::store(2)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let w = two_core();
        assert_eq!(w.name(), "w");
        assert_eq!(w.cores(), 2);
        assert_eq!(w.total_accesses(), 3);
        assert_eq!(w.trace(CoreId::new(0)).unwrap().len(), 2);
    }

    #[test]
    fn unknown_core_rejected() {
        let w = two_core();
        assert!(matches!(w.trace(CoreId::new(5)), Err(Error::UnknownCore { index: 5, cores: 2 })));
    }

    #[test]
    fn empty_workload_rejected() {
        assert!(Workload::new("empty", vec![]).is_err());
    }

    #[test]
    fn truncation_limits_every_core() {
        let w = two_core().truncated(1);
        assert_eq!(w.trace(CoreId::new(0)).unwrap().len(), 1);
        assert_eq!(w.trace(CoreId::new(1)).unwrap().len(), 1);
        assert!(w.name().contains("trunc"));
    }
}
