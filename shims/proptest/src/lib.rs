//! Offline stand-in for [`proptest`](https://docs.rs/proptest).
//!
//! Implements the subset KaPPa-rs's property tests use: the [`Strategy`]
//! trait with `prop_map`, range and tuple strategies, [`any`], the
//! [`proptest!`] test-generating macro and the `prop_assert*` macros.
//! Shrinking is not implemented — a failing case panics with its assertion
//! message directly. Sampling is deterministic: case `i` of test `t` always
//! sees the same inputs, so failures reproduce across runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// The commonly used items, for `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
        TestRng,
    };
}

/// Per-`proptest!` block configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic random source handed to strategies.
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    /// The generator for case `case` of the test named `test_name`.
    pub fn for_case(test_name: &str, case: u64) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut hash: u64 = 0xcbf29ce484222325;
        for b in test_name.bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
        TestRng {
            inner: StdRng::seed_from_u64(hash ^ case.wrapping_mul(0x9E3779B97F4A7C15)),
        }
    }

    /// Draws 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Draws a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.inner.gen()
    }
}

/// A generator of test inputs.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (like the real `prop_map`).
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
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

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// Range strategies delegate to the rand shim's `SampleRange` so there is a
// single implementation of uniform range sampling in the workspace.
macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.inner.gen_range(self.start..self.end)
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

/// Types with a full-domain default strategy (the shim's `Arbitrary`).
pub trait Arbitrary {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_f64()
    }
}

/// Strategy returned by [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The default full-domain strategy for `T`, mirroring `proptest::any`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case, reason = "the tuple fields are bound to the type parameters' names")]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs `body` for `cases` deterministic samples.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:pat in $strategy:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                for case in 0..config.cases {
                    let mut rng = $crate::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        case as u64,
                    );
                    let ($($arg,)*) = (
                        $( $crate::Strategy::generate(&($strategy), &mut rng), )*
                    );
                    $body
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:pat in $strategy:expr),* $(,)? ) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $( $(#[$meta])* fn $name( $($arg in $strategy),* ) $body )*
        }
    };
}

/// Asserts a condition inside a property test (panics on failure — the shim
/// does not shrink).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_any_compose(
            n in 2usize..50,
            seed in any::<u64>(),
            (lo, hi) in (0u32..10, 10u32..20),
        ) {
            prop_assert!((2..50).contains(&n));
            let _ = seed;
            prop_assert!(lo < hi);
        }

        #[test]
        fn prop_map_transforms(v in (1usize..10).prop_map(|x| x * 2)) {
            prop_assert_eq!(v % 2, 0);
            prop_assert!((2..20).contains(&v));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let strat = 0u64..u64::MAX;
        let a: Vec<u64> = (0..5)
            .map(|i| {
                let mut rng = TestRng::for_case("t", i);
                Strategy::generate(&strat, &mut rng)
            })
            .collect();
        let b: Vec<u64> = (0..5)
            .map(|i| {
                let mut rng = TestRng::for_case("t", i);
                Strategy::generate(&strat, &mut rng)
            })
            .collect();
        assert_eq!(a, b);
    }
}
