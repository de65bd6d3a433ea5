//! Offline stub of `criterion`.
//!
//! `Criterion` is a unit struct; `bench_function` runs the closure once
//! via `Bencher::iter`, with no statistics, sampling, or reports. The
//! tracked `.cargo/config.toml` replaces crates-io with the `.stubs/`
//! directory for every build, CI included, so this stub is the only
//! criterion any build links: nothing here measures anything. The bench
//! bins of `cohort-bench` and the `perfbench` package are the timing
//! instruments.

/// Measurement driver; a unit struct offline (no state to carry).
#[derive(Debug, Default, Clone, Copy)]
pub struct Criterion;

impl Criterion {
    /// Accepted and ignored offline.
    #[must_use]
    pub fn sample_size(self, _n: usize) -> Self {
        self
    }

    /// Accepted and ignored offline.
    #[must_use]
    pub fn measurement_time(self, _d: std::time::Duration) -> Self {
        self
    }

    /// Runs `f` once with a [`Bencher`].
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_once(id, f);
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { _criterion: self, name: name.to_string() }
    }
}

fn run_once<F: FnMut(&mut Bencher)>(id: &str, mut f: F) {
    eprintln!("bench (offline stub, 1 iteration): {id}");
    let mut b = Bencher { _private: () };
    f(&mut b);
}

/// Handle passed to bench closures; `iter` runs the payload once.
pub struct Bencher {
    _private: (),
}

impl Bencher {
    /// Runs the routine a single time (the stub takes no measurements).
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let _ = routine();
    }
}

/// Group of related benchmarks sharing throughput metadata.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted and ignored offline.
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Accepted and ignored offline.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs `f` once with a [`Bencher`].
    pub fn bench_function<I, F>(&mut self, id: I, f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_once(&format!("{}/{}", self.name, id.label), f);
        self
    }

    /// Closes the group (nothing to flush offline).
    pub fn finish(self) {}
}

/// Units-of-work annotation for throughput reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Function-plus-parameter identifier.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { label: format!("{}/{parameter}", function.into()) }
    }

    /// Parameter-only identifier.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { label: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(label: &str) -> Self {
        BenchmarkId { label: label.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        BenchmarkId { label }
    }
}

/// Bundles bench functions under one runner fn, mirroring the real
/// macro's two accepted forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Emits `main` calling each group runner.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
