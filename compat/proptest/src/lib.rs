//! Offline stand-in for `proptest`.
//!
//! Implements the subset this workspace uses: the [`proptest!`] macro,
//! range / tuple / [`collection::vec`] strategies, [`Strategy::prop_map`],
//! [`any`], and the `prop_assert*` macros. Cases are generated from a
//! deterministic per-test seed (derived from the test's name and the case
//! index), so failures always reproduce. There is no shrinking: a failing
//! case panics with the values that `Debug`-print from the assertion.

#![deny(unsafe_code)]

use std::marker::PhantomData;
use std::ops::Range;

/// Commonly-imported names, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy,
    };
}

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; the stand-in trades a little coverage
        // for CI wall-time on small machines.
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic case-generation RNG (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG for case `case` of the test named `name`.
    pub fn for_case(name: &str, case: u32) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            state: h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A generator of random values (stand-in for proptest strategies).
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let draw = (u128::from(rng.next_u64())) % span;
                (self.start as i128 + draw as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let lo = self.start as f64;
                let hi = self.end as f64;
                let v = (lo + rng.next_unit() * (hi - lo)) as $t;
                // Guard the (rare) upward rounding onto the excluded bound.
                if v >= self.end { self.start } else { v }
            }
        }
    )*};
}

impl_float_range!(f32, f64);

macro_rules! impl_tuple {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple!(A);
impl_tuple!(A, B);
impl_tuple!(A, B, C);
impl_tuple!(A, B, C, D);
impl_tuple!(A, B, C, D, E);

/// Types with a canonical "anything goes" strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

/// The unconstrained strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Element-count specification for [`vec()`]: an exact `usize` or a
    /// half-open `Range<usize>`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with the given element strategy and length.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Defines property tests: each `fn` runs its body for every generated case.
#[macro_export]
macro_rules! proptest {
    (@inner $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                for __case in 0..__config.cases {
                    let mut __rng = $crate::TestRng::for_case(stringify!($name), __case);
                    $( let $pat = $crate::Strategy::generate(&($strat), &mut __rng); )*
                    $body
                }
            }
        )*
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@inner $cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@inner $crate::ProptestConfig::default(); $($rest)*);
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::for_case("ranges", 0);
        for _ in 0..1000 {
            let x = Strategy::generate(&(3u32..17), &mut rng);
            assert!((3..17).contains(&x));
            let f = Strategy::generate(&(-2.0f32..5.0), &mut rng);
            assert!((-2.0..5.0).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_lengths() {
        let mut rng = crate::TestRng::for_case("lens", 1);
        for _ in 0..200 {
            let v = Strategy::generate(&crate::collection::vec(0u8..255, 2..6), &mut rng);
            assert!((2..6).contains(&v.len()));
        }
        let exact = Strategy::generate(&crate::collection::vec(0u8..255, 4usize), &mut rng);
        assert_eq!(exact.len(), 4);
    }

    #[test]
    fn deterministic_per_name_and_case() {
        let mut a = crate::TestRng::for_case("t", 3);
        let mut b = crate::TestRng::for_case("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::for_case("t", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_and_runs((a, b) in (0u64..100, 0u64..100), xs in crate::collection::vec(0i32..10, 1..4)) {
            prop_assert!(a < 100 && b < 100);
            prop_assert!(!xs.is_empty() && xs.len() < 4);
        }
    }

    proptest! {
        #[test]
        fn default_config_macro_arm(x in any::<u8>()) {
            let _ = x;
        }
    }
}
