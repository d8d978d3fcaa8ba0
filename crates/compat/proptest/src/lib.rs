//! Offline stand-in for `proptest`.
//!
//! Provides the strategy combinators and macros the workspace's property
//! tests use: range strategies, `any::<T>()`, `prop::collection::vec`,
//! tuples, `prop_map`, and the `proptest!` / `prop_assert!` macros. Cases
//! are generated from a deterministic per-test RNG (seeded from the test
//! name), run `ProptestConfig::cases` times, and failures panic like plain
//! assertions — there is no shrinking, so failing inputs print verbatim.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Deterministic test-case RNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed ^ 0x9E37_79B9_7F4A_7C15 }
    }

    /// Seeds from a test name (FNV-1a).
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng::new(h)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        // Multiply-shift; bias is irrelevant for test-case generation.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Test-runner configuration.
pub mod test_runner {
    /// Controls how many random cases each property runs.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config with an explicit case count.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }
}

/// Strategy combinators.
pub mod strategy {
    use super::TestRng;

    /// Generates values of `Self::Value` from randomness.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Output of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }
}

pub use strategy::Strategy;

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn sample(&self, rng: &mut TestRng) -> f32 {
        self.start + (self.end - self.start) * rng.unit_f64() as f32
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident : $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

/// `any::<T>()` — the canonical strategy for `T`.
pub fn any<A: Arbitrary>() -> AnyStrategy<A> {
    AnyStrategy(std::marker::PhantomData)
}

/// Output of [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<A>(std::marker::PhantomData<A>);

impl<A: Arbitrary> Strategy for AnyStrategy<A> {
    type Value = A;

    fn sample(&self, rng: &mut TestRng) -> A {
        A::arbitrary(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::Range;

    /// Length specification for [`vec`]: an exact length or a half-open
    /// range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// Strategy for `Vec<S::Value>` with a random length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// Output of [`vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + if span > 0 { rng.below(span) as usize } else { 0 };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// `prop::` namespace, as re-exported by the real crate's prelude.
pub mod prop {
    pub use crate::collection;
    pub use crate::strategy;
}

/// The prelude: strategies, config, and macros.
pub mod prelude {
    pub use crate::collection;
    pub use crate::prop;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary};
}

/// Assertion inside a property (panics; no shrinking in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    { #![proptest_config($cfg:expr)] $($rest:tt)* } => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    { $($rest:tt)* } => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal recursion for [`proptest!`] — one test item per step.
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    { ($cfg:expr) } => {};
    { ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
      $($rest:tt)*
    } => {
        $(#[$meta])*
        #[allow(unused_parens)]
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let ($($pat),*) = ($($crate::strategy::Strategy::sample(&($strat), &mut __rng)),*);
                $body
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}
