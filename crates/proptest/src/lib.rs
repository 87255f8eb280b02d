//! # proptest — offline stand-in for the `proptest` crate
//!
//! The build container cannot reach crates.io, so the workspace vendors the
//! slice of the proptest API its test suites use: the [`proptest!`] macro
//! with `pattern in strategy` arguments, range/tuple/vec/one-of strategies,
//! [`any`], `prop_assert*`, and [`prop_assume!`]. Semantics are simplified —
//! cases are drawn from a deterministic per-test RNG and failures are *not*
//! shrunk — but property bodies, strategy expressions, and configuration
//! syntax are source-compatible with upstream, so swapping the registry
//! crate back in later requires no test edits.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runner configuration (`ProptestConfig` upstream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of cases drawn per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream default.
        Self { cases: 256 }
    }
}

/// Outcome of one property case (used by the generated test body).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseOutcome {
    /// All assertions held.
    Pass,
    /// A `prop_assume!` rejected the inputs; the case does not count.
    Skip,
}

/// Builds the deterministic RNG for a named property: reproducible across
/// runs, different across properties.
pub fn test_rng(name: &str) -> StdRng {
    // FNV-1a over the property name.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// A source of random values of one type.
pub trait Strategy {
    /// The value type produced.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

int_strategy!(i32, i64, u32, u64, usize);

impl Strategy for std::ops::Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut StdRng) -> f32 {
        rng.gen_range(self.clone())
    }
}

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn sample(&self, rng: &mut StdRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn sample(&self, rng: &mut StdRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
    }
}

/// Types drawable from their full value range via [`any`].
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! arbitrary_via_gen {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.gen::<$t>()
            }
        }
    )*};
}

arbitrary_via_gen!(u32, u64, bool);

impl Arbitrary for usize {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen::<u64>() as usize
    }
}

/// Strategy over a type's full value range (`any::<T>()` upstream).
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Returns a strategy drawing arbitrary values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Weighted union of same-typed strategies (`prop_oneof!` upstream).
#[derive(Debug, Clone)]
pub struct OneOf<S> {
    arms: Vec<(u32, S)>,
    total: u32,
}

impl<S> OneOf<S> {
    /// Builds a union from `(weight, strategy)` arms.
    ///
    /// # Panics
    ///
    /// Panics when `arms` is empty or all weights are zero.
    pub fn new(arms: Vec<(u32, S)>) -> Self {
        let total: u32 = arms.iter().map(|(w, _)| *w).sum();
        assert!(total > 0, "prop_oneof! needs at least one positive weight");
        Self { arms, total }
    }
}

impl<S: Strategy> Strategy for OneOf<S> {
    type Value = S::Value;
    fn sample(&self, rng: &mut StdRng) -> S::Value {
        let mut pick = rng.gen_range(0..self.total as u64) as u32;
        for (w, s) in &self.arms {
            if pick < *w {
                return s.sample(rng);
            }
            pick -= w;
        }
        unreachable!("weights sum to total");
    }
}

/// Element-count specification for collection strategies.
#[derive(Debug, Clone)]
pub struct SizeRange {
    lo: usize,
    hi_exclusive: usize,
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        Self {
            lo: r.start,
            hi_exclusive: r.end,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        Self {
            lo: *r.start(),
            hi_exclusive: *r.end() + 1,
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self {
            lo: n,
            hi_exclusive: n + 1,
        }
    }
}

/// Strategy producing `Vec`s of another strategy's values.
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    elem: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let n = rng.gen_range(self.size.lo..self.size.hi_exclusive.max(self.size.lo + 1));
        (0..n).map(|_| self.elem.sample(rng)).collect()
    }
}

pub mod prop {
    //! The `prop` helper namespace (`proptest::prop` upstream re-exports).

    pub mod collection {
        //! Collection strategies.

        use super::super::{SizeRange, Strategy, VecStrategy};

        /// Strategy for `Vec`s with `size` elements drawn from `elem`.
        pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                elem,
                size: size.into(),
            }
        }
    }
}

/// Asserts a condition inside a property (no shrinking; panics like
/// `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skips the current case when the precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return $crate::CaseOutcome::Skip;
        }
    };
}

/// Weighted choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$(($weight, $strategy)),+])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$((1u32, $strategy)),+])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` sampled inputs through the body.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strategy:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_rng(stringify!($name));
            for case in 0..config.cases {
                $(let $pat = $crate::Strategy::sample(&($strategy), &mut rng);)*
                let outcome = (|| -> $crate::CaseOutcome {
                    $body
                    $crate::CaseOutcome::Pass
                })();
                let _ = (case, outcome);
            }
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

pub mod prelude {
    //! Everything a property-test file needs (`proptest::prelude` upstream).

    pub use crate::prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
    pub use crate::{Any, Arbitrary, CaseOutcome, OneOf, ProptestConfig, Strategy};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_sample_within_bounds() {
        let mut rng = crate::test_rng("ranges");
        for _ in 0..1000 {
            let x = Strategy::sample(&(1.0f32..2.0), &mut rng);
            assert!((1.0..2.0).contains(&x));
            let n = Strategy::sample(&(3u32..=5), &mut rng);
            assert!((3..=5).contains(&n));
        }
    }

    #[test]
    fn vec_strategy_respects_length_range() {
        let mut rng = crate::test_rng("vec");
        let s = prop::collection::vec(0.0f32..1.0, 2..10);
        for _ in 0..200 {
            let v = s.sample(&mut rng);
            assert!((2..10).contains(&v.len()));
        }
    }

    #[test]
    fn oneof_uses_every_arm() {
        let mut rng = crate::test_rng("oneof");
        let s = prop_oneof![1 => 0.0f32..1.0, 1 => 10.0f32..11.0];
        let (mut lo, mut hi) = (0, 0);
        for _ in 0..500 {
            let v = s.sample(&mut rng);
            if v < 5.0 {
                lo += 1;
            } else {
                hi += 1;
            }
        }
        assert!(lo > 100 && hi > 100, "lo {lo}, hi {hi}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn generated_properties_run(x in 0.0f32..1.0, n in 1usize..8) {
            prop_assume!(n > 0);
            prop_assert!((0.0..1.0).contains(&x));
            prop_assert_eq!(n, n);
        }
    }
}
