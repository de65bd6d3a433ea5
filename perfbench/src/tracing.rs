//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Nothing inside the program is instrumented: every span wraps a call the
//! benchmark itself makes (or a call a benchmark-injected sweep runner
//! makes on the program's behalf). Spans stay in memory until the run
//! ends, then go to a JSON-lines file. A span's *self time* is its
//! duration minus the part of its interval its children cover, so
//! parallel children (sweep jobs on two workers) are not double-counted.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The request id of spans that belong to no timed request (warm-up calls).
pub const NO_REQUEST: u64 = u64::MAX;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// `<layer>.<call>`, e.g. `sim.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that made this call, if any.
    pub parent: Option<u64>,
    /// The request this call served, or [`NO_REQUEST`].
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), next_id: AtomicU64::new(0), spans: Mutex::new(Vec::new()) }
    }

    /// Reserves a span id, for a span whose children are recorded before
    /// it ends.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span under a reserved id.
    pub fn push(
        &self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        request: u64,
    ) {
        let span =
            Span { id, name, start_ns: self.ns(start), end_ns: self.ns(end), parent, request };
        self.spans.lock().expect("no thread panics while holding the span list").push(span);
    }

    /// Times `f` as a span; `f` receives the span's id so its own calls can
    /// name it as their parent.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        self.push(id, name, start, Instant::now(), parent, request);
        out
    }

    /// Every span recorded so far, in recording order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no thread panics while holding the span list").clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let line = serde_json::json!({
                "id": s.id,
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": s.parent,
                "request": if s.request == NO_REQUEST { None } else { Some(s.request) },
            });
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Times `f` under `tracer` when there is one; otherwise just calls it.
/// `f` receives the new span's id (or `None`) to pass on as a parent.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    request: u64,
    f: impl FnOnce(Option<u64>) -> T,
) -> T {
    match tracer {
        Some(t) => t.time(name, parent, request, |id| f(Some(id))),
        None => f(None),
    }
}

/// Durations in milliseconds of every span called `name`.
#[must_use]
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e6).collect()
}

/// Total self time per layer, in nanoseconds: each span's duration minus
/// the union of its children's intervals (clipped to the span).
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut totals = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
        }
        *totals.entry(s.layer()).or_insert(0) += s.duration_ns().saturating_sub(covered);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u64>) -> Span {
        Span { id, name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_parallel_children() {
        let spans = vec![
            span(0, "cohort.sweep", 0, 100, None),
            // Two overlapping jobs on two workers cover [10, 80).
            span(1, "sim.run", 10, 60, Some(0)),
            span(2, "sim.run", 30, 80, Some(0)),
        ];
        let totals = self_time_by_layer(&spans);
        assert_eq!(totals["cohort"], 30);
        assert_eq!(totals["sim"], 100);
    }

    #[test]
    fn spans_nest_through_the_optional_tracer() {
        let tracer = Tracer::new();
        let inner = span_pair(Some(&tracer));
        assert_eq!(inner, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "bench.request").expect("outer span");
        let child = spans.iter().find(|s| s.name == "sim.run").expect("inner span");
        assert_eq!(child.parent, Some(outer.id));
        assert_eq!(span_pair(None), 42, "untraced calls run the same code");
    }

    fn span_pair(tracer: Option<&Tracer>) -> u32 {
        super::span(tracer, "bench.request", None, 7, |id| {
            super::span(tracer, "sim.run", id, 7, |_| 42)
        })
    }
}
