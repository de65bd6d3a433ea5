//! A deterministic property runner for the workspace's tests.
//!
//! A property is a test fn whose arguments are drawn from strategies:
//!
//! ```
//! use cohort_prop::prelude::*;
//!
//! properties! {
//!     #![cases(64)]
//!
//!     /// Addition on small numbers commutes.
//!     fn addition_commutes(a in 0u64..1_000, b in any::<u64>()) {
//!         let b = b % 1_000;
//!         assert_eq!(a + b, b + a);
//!     }
//! }
//! # addition_commutes();
//! ```
//!
//! Each property runs `cases` cases (default [`DEFAULT_CASES`]). Case `i`
//! draws its inputs from a [`SeedRng`] seeded with `splitmix64(name, i)`,
//! where `name` is the digest of the property's name, so every run draws
//! the same inputs. There is no shrinking: a failing case panics like any
//! test, and the runner names the case and its seed on stderr.
//! [`prop_assume!`] rejects a case; rejected cases are redrawn, up to
//! `MAX_REJECTS` per property.
//!
//! The strategies are the ones the suites use: integer and float ranges,
//! [`any`] for `bool`/`u8`/`u64`, [`Just`], tuples, [`collection::vec`],
//! [`Strategy::prop_map`], [`prop_oneof!`] and [`json_mutations`], which
//! damages a valid document for the on-disk parsers' robustness suites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use cohort_types::{splitmix64, FingerprintBuilder, SeedRng, Uniform};

/// Cases per property unless the block sets `#![cases(n)]`.
// lint:allow(pub-unused) the exported `properties!` macro names it through `$crate::` in callers' crates
pub const DEFAULT_CASES: u32 = 256;

/// Rejected cases a property may draw before the runner gives up.
const MAX_REJECTS: u32 = 1_024;

/// A generator of test inputs.
pub trait Strategy {
    /// The type of value drawn.
    type Value;

    /// Draws one value.
    fn draw(&self, rng: &mut SeedRng) -> Self::Value;

    /// Maps every drawn value through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn draw(&self, rng: &mut SeedRng) -> U {
        (self.f)(self.inner.draw(rng))
    }
}

/// Always draws a clone of its value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn draw(&self, _rng: &mut SeedRng) -> T {
        self.0.clone()
    }
}

impl<T: Uniform> Strategy for Range<T> {
    type Value = T;

    fn draw(&self, rng: &mut SeedRng) -> T {
        rng.gen_range(self.clone())
    }
}

impl<T: Uniform> Strategy for RangeInclusive<T> {
    type Value = T;

    fn draw(&self, rng: &mut SeedRng) -> T {
        rng.gen_range(self.clone())
    }
}

macro_rules! tuple_strategies {
    ($(($($s:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn draw(&self, rng: &mut SeedRng) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.draw(rng),)+)
            }
        }
    )*};
}
tuple_strategies! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, G)
}

/// Types [`any`] can draw: every bit pattern is equally likely.
pub trait Arbitrary {
    /// Draws one value.
    fn arbitrary(rng: &mut SeedRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut SeedRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut SeedRng) -> Self {
        rng.next_u64() as u8
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut SeedRng) -> Self {
        rng.next_u64()
    }
}

/// The strategy returned by [`any`].
pub struct Any<T>(PhantomData<fn() -> T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn draw(&self, rng: &mut SeedRng) -> T {
        T::arbitrary(rng)
    }
}

/// Any value of `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// A uniform choice among boxed strategies; built by [`prop_oneof!`].
pub struct Union<T>(Vec<Box<dyn Strategy<Value = T>>>);

impl<T> Union<T> {
    /// A union of `arms`, each drawn with equal probability.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    #[must_use]
    pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union(arms)
    }

    /// Boxes one arm for [`Union::new`].
    pub fn arm<S: Strategy<Value = T> + 'static>(arm: S) -> Box<dyn Strategy<Value = T>> {
        Box::new(arm)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn draw(&self, rng: &mut SeedRng) -> T {
        self.0[rng.gen_range(0..self.0.len())].draw(rng)
    }
}

/// Vector strategies.
pub mod collection {
    use std::ops::{Range, RangeInclusive};

    use super::{SeedRng, Strategy};

    /// An inclusive length range: `n`, `a..b` or `a..=b`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange(usize, usize);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n, n)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange(r.start, r.end - 1)
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange(*r.start(), *r.end())
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn draw(&self, rng: &mut SeedRng) -> Self::Value {
            let len = rng.gen_range(self.size.0..=self.size.1);
            (0..len).map(|_| self.element.draw(rng)).collect()
        }
    }

    /// Vectors of `element` draws with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// What [`json_mutations`] splices in: structure, escapes (a lone
/// surrogate among them), extreme numbers and non-ASCII text.
#[rustfmt::skip]
const JSON_TOKENS: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\ud800", "\\u00e9", "\\n", "null", "true",
    "-", "0", "-1", "1.5e999", "18446744073709551616", "\"inf\"", "é", "😀", "\u{0}", " ",
];

/// `doc` damaged by one to eight edits at char boundaries: each inserts
/// a JSON token (structure, an escape, an extreme number or non-ASCII
/// text), deletes up to eight bytes or truncates the tail.
#[must_use]
pub fn json_mutations(doc: &str) -> impl Strategy<Value = String> {
    let doc = doc.to_string();
    let edit = (0u8..3, any::<u64>(), 0..JSON_TOKENS.len(), 1usize..=8);
    collection::vec(edit, 1..=8).prop_map(move |edits| {
        let mut text = doc.clone();
        for (kind, at, token, len) in edits {
            let mut at = (at % (text.len() as u64 + 1)) as usize;
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            match kind {
                0 => text.insert_str(at, JSON_TOKENS[token]),
                1 => {
                    let mut end = (at + len).min(text.len());
                    while !text.is_char_boundary(end) {
                        end += 1;
                    }
                    text.replace_range(at..end, "");
                }
                _ => text.truncate(at),
            }
        }
        text
    })
}

/// Returned by a property whose case [`prop_assume!`] rejected.
#[derive(Debug)]
pub struct Rejected;

/// Names the failing case on stderr if its property panics.
struct CaseGuard<'a> {
    name: &'a str,
    case: u64,
    seed: u64,
}

impl Drop for CaseGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "property {} failed at case {} (seed {:#018x})",
                self.name, self.case, self.seed
            );
        }
    }
}

/// Runs `property` on `cases` accepted draws of `strategy`; the
/// [`properties!`] macro's expansion.
///
/// # Panics
///
/// Re-raises a failing case's panic, and panics if more than
/// `MAX_REJECTS` cases are rejected.
pub fn run<S: Strategy>(
    name: &str,
    cases: u32,
    strategy: &S,
    property: impl Fn(S::Value) -> Result<(), Rejected>,
) {
    let stream = FingerprintBuilder::new().text(name).finish().get() as u64;
    let (mut passed, mut rejected) = (0, 0);
    let mut case = 0;
    while passed < cases {
        let seed = splitmix64(stream, case);
        let guard = CaseGuard { name, case, seed };
        let value = strategy.draw(&mut SeedRng::seed_from_u64(seed));
        if property(value).is_ok() {
            passed += 1;
        } else {
            rejected += 1;
            assert!(rejected <= MAX_REJECTS, "property {name}: {rejected} cases rejected");
        }
        drop(guard);
        case += 1;
    }
}

/// Defines property test fns; see the crate docs for the syntax.
#[macro_export]
macro_rules! properties {
    (#![cases($cases:expr)] $($rest:tt)*) => {
        $crate::__properties!(($cases) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__properties!(($crate::DEFAULT_CASES) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __properties {
    (($cases:expr)) => {};
    (
        ($cases:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::run(stringify!($name), $cases, &($($strategy,)+), |($($arg,)+)| {
                $body;
                Ok(())
            });
        }
        $crate::__properties!(($cases) $($rest)*);
    };
}

/// A uniform choice among strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $($crate::Union::arm($arm)),+
        ])
    };
}

/// Rejects the current case unless `cond` holds; the runner draws another.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::Rejected);
        }
    };
}

/// What a property test file imports.
pub mod prelude {
    pub use crate::{
        any, collection, json_mutations, prop_assume, prop_oneof, properties, Just, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::SeedRng;

    #[test]
    fn draws_respect_their_strategies() {
        let mut rng = SeedRng::seed_from_u64(3);
        let strategy = (
            collection::vec(1u64..=3, 2..5),
            prop_oneof![Just(10u8), (20u8..30).prop_map(|x| x * 2)],
            any::<bool>(),
        );
        for _ in 0..200 {
            let (v, pick, _) = strategy.draw(&mut rng);
            assert!((2..5).contains(&v.len()) && v.iter().all(|x| (1..=3).contains(x)));
            assert!(pick == 10 || (40..60).contains(&pick));
        }
    }

    #[test]
    fn json_mutations_damage_at_char_boundaries() {
        let doc = r#"{"name": "é😀", "ops": [1, 2, 3]}"#;
        let strategy = json_mutations(doc);
        let mut rng = SeedRng::seed_from_u64(5);
        let damaged = (0..500).filter(|_| strategy.draw(&mut rng) != doc).count();
        assert!(damaged > 400, "only {damaged} of 500 mutations differ from the document");
    }

    #[test]
    fn a_property_draws_the_same_cases_every_run() {
        let draw = || {
            let seen = std::cell::RefCell::new(Vec::new());
            super::run("replay", 16, &(any::<u64>(),), |(x,)| {
                seen.borrow_mut().push(x);
                Ok(())
            });
            seen.into_inner()
        };
        let first = draw();
        assert_eq!(first.len(), 16);
        assert_eq!(first, draw());
    }

    #[test]
    fn rejected_cases_are_redrawn() {
        let accepted = std::cell::Cell::new(0);
        super::run("assume", 32, &(0u64..4,), |(x,)| {
            prop_assume!(x == 0);
            accepted.set(accepted.get() + 1);
            Ok(())
        });
        assert_eq!(accepted.get(), 32);
    }

    #[test]
    #[should_panic(expected = "cases rejected")]
    fn a_property_that_rejects_everything_fails() {
        super::run("never", 1, &(0u64..4,), |_| Err(super::Rejected));
    }
}
