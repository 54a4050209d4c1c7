//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this crate vendors
//! the subset of proptest the workspace's property tests use:
//!
//! - the [`proptest!`] macro with an optional
//!   `#![proptest_config(...)]` header,
//! - numeric range strategies (`0u8..4`, `3.0f64..20.0`, ...),
//!   tuple strategies, `any::<bool>()`, and
//!   [`prop::collection::vec`],
//! - [`prop_assert!`] / [`prop_assert_eq!`] and [`TestCaseError`].
//!
//! Differences from upstream: cases are generated from a fixed
//! deterministic seed sequence (case index -> SplitMix64 stream), and
//! there is **no shrinking** — a failing case reports its index and
//! message, and rerunning reproduces it exactly. For a reproduction
//! repo whose whole point is bit-stable runs, deterministic cases are a
//! feature, not a loss.

use std::fmt;

/// Deterministic per-case generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn for_case(case: u64) -> Self {
        // Offset so that case 0 does not start at raw state 0.
        Self {
            state: case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5DEE_CE66_D1CE_4E5B,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A value-generation strategy (no shrinking).
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u128) - (self.start as u128);
                self.start + (rng.next_u64() as u128 % span) as $t
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as u128) - (lo as u128) + 1;
                lo + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case, reason = "tuple fields are bound by their type-parameter names")]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);

/// Marker returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// `any::<T>()` — the canonical strategy for `T`.
pub fn any<T>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl Strategy for Any<bool> {
    type Value = bool;

    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Strategy for Any<u64> {
    type Value = u64;

    fn generate(&self, rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

pub mod collection {
    use super::{Strategy, TestRng};

    /// Strategy for a `Vec` whose length is drawn from `len` and whose
    /// elements are drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Failure of one generated case.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    pub fn fail(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// Upstream-compatible alias.
    pub fn reject(message: impl Into<String>) -> Self {
        Self::fail(message)
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}

/// Per-`proptest!`-block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; 64 keeps the cross-crate suites
        // fast while still exercising a meaningful sample (cases are
        // deterministic, so more cases only widen coverage, not
        // reproducibility).
        Self { cases: 64 }
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::collection as _collection;
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestCaseError,
    };
}

/// The `prop::` namespace (`prop::collection::vec`).
pub mod prop {
    pub use crate::collection;
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!(
                "{} (left: {:?}, right: {:?})",
                format!($($fmt)+),
                l,
                r
            )));
        }
    }};
}

/// The test-defining macro. Each function runs `cases` deterministic
/// cases; a failing case panics with its index so it can be replayed.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::run_cases(
                    stringify!($name),
                    config.cases,
                    |__proptest_rng| {
                        $(let $arg = $crate::Strategy::generate(&($strat), __proptest_rng);)+
                        (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                            $body
                            #[allow(unreachable_code, reason = "a test body that always returns early leaves this tail unreachable")]
                            Ok(())
                        })()
                    },
                );
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strat),+) $body
            )*
        }
    };
}

/// Driver used by the [`proptest!`] expansion.
pub fn run_cases(
    name: &str,
    cases: u32,
    mut run: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
) {
    for case in 0..cases {
        let mut rng = TestRng::for_case(u64::from(case));
        if let Err(e) = run(&mut rng) {
            panic!("proptest {name}: case {case}/{cases} failed: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{run_cases, TestRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn ranges_stay_in_bounds(a in 2u32..9, b in 0.5f64..2.0, c in 1usize..=4usize) {
            prop_assert!((2..9).contains(&a));
            prop_assert!((0.5..2.0).contains(&b));
            prop_assert!((1..=4).contains(&c));
        }

        #[test]
        fn vec_strategy_length(v in prop::collection::vec((0u8..4, 0u32..10), 1..30)) {
            prop_assert!(!v.is_empty() && v.len() < 30);
            for (x, y) in v {
                prop_assert!(x < 4, "x out of range: {x}");
                prop_assert_eq!(y.min(9), y);
            }
        }

        #[test]
        fn bools_take_both_values(bits in prop::collection::vec(any::<bool>(), 64..65)) {
            prop_assert!(bits.iter().any(|&b| b) && bits.iter().any(|&b| !b));
        }
    }

    #[test]
    fn deterministic_per_case() {
        let mut a = TestRng::for_case(3);
        let mut b = TestRng::for_case(3);
        assert_eq!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "case 0/")]
    fn failing_case_reports_index() {
        run_cases("demo", 5, |_| Err(TestCaseError::fail("boom")));
    }
}
