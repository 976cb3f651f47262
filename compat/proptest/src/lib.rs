//! Offline compatibility shim for the subset of `proptest` this workspace
//! uses: the `proptest!` macro (with `#![proptest_config(..)]`),
//! `prop_assert!`/`prop_assert_eq!`, range/tuple/vec/bool/regex-string
//! strategies, `Strategy::prop_map`/`new_tree` and a deterministic
//! [`test_runner::TestRunner`].
//!
//! Inputs are generated from a fixed-seed ChaCha8 stream, so every run
//! explores the same cases. Failing cases panic immediately with the
//! offending assertion; there is no shrinking — the deterministic stream
//! means a failure reproduces exactly under `cargo test`.

pub mod test_runner {
    //! Deterministic case generation driver.

    use rand_chacha::ChaCha8Rng;

    /// Fixed seed: every `TestRunner` draws the same stream, so property
    /// tests are reproducible run to run.
    const DETERMINISTIC_SEED: u64 = 0x5EED_CA5E_D15C_0BED;

    /// Drives input generation for property tests.
    pub struct TestRunner {
        pub(crate) rng: ChaCha8Rng,
    }

    impl TestRunner {
        /// A runner with a fixed, documented seed.
        pub fn deterministic() -> Self {
            use rand::SeedableRng;
            TestRunner {
                rng: ChaCha8Rng::seed_from_u64(DETERMINISTIC_SEED),
            }
        }
    }

    impl Default for TestRunner {
        fn default() -> Self {
            Self::deterministic()
        }
    }

    /// Per-test configuration (only the case count is honored).
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Run each property `cases` times.
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

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRunner;
    use rand::Rng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value from the runner's deterministic stream.
        fn generate(&self, runner: &mut TestRunner) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, f }
        }

        /// Generate a value wrapped in a [`ValueTree`] (always succeeds;
        /// the `Result` mirrors proptest's signature).
        fn new_tree(&self, runner: &mut TestRunner) -> Result<Generated<Self::Value>, String> {
            Ok(Generated(self.generate(runner)))
        }
    }

    /// A generated value holder (`current()` yields it).
    pub trait ValueTree {
        /// The held type.
        type Value;
        /// The generated value.
        fn current(&self) -> Self::Value;
    }

    /// Trivial [`ValueTree`]: holds the single generated value.
    pub struct Generated<T>(pub(crate) T);

    impl<T: Clone> ValueTree for Generated<T> {
        type Value = T;
        fn current(&self) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, runner: &mut TestRunner) -> U {
            (self.f)(self.source.generate(runner))
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, runner: &mut TestRunner) -> $t {
                    runner.rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, runner: &mut TestRunner) -> $t {
                    runner.rng.gen_range(self.clone())
                }
            }
        )*};
    }

    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, runner: &mut TestRunner) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)+) = self;
                    ($($name.generate(runner),)+)
                }
            }
        };
    }

    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);

    /// String strategies from a regex subset: one character class with a
    /// repetition count, e.g. `"[A-Za-z ]{1,16}"`.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, runner: &mut TestRunner) -> String {
            let (alphabet, lo, hi) = parse_class_regex(self);
            let len = runner.rng.gen_range(lo..=hi);
            (0..len)
                .map(|_| alphabet[runner.rng.gen_range(0..alphabet.len())])
                .collect()
        }
    }

    /// Parse `[chars]{m}`, `[chars]{m,n}` with `-` ranges inside the class.
    fn parse_class_regex(pattern: &str) -> (Vec<char>, usize, usize) {
        let inner = pattern
            .strip_prefix('[')
            .and_then(|rest| rest.split_once(']'))
            .unwrap_or_else(|| panic!("unsupported regex strategy {pattern:?}"));
        let (class, counts) = inner;
        let chars: Vec<char> = class.chars().collect();
        let mut alphabet = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            if i + 2 < chars.len() && chars[i + 1] == '-' {
                let (a, b) = (chars[i], chars[i + 2]);
                assert!(a <= b, "bad class range in {pattern:?}");
                for c in a..=b {
                    alphabet.push(c);
                }
                i += 3;
            } else {
                alphabet.push(chars[i]);
                i += 1;
            }
        }
        assert!(!alphabet.is_empty(), "empty class in {pattern:?}");
        let counts = counts
            .strip_prefix('{')
            .and_then(|c| c.strip_suffix('}'))
            .unwrap_or_else(|| panic!("unsupported repetition in {pattern:?}"));
        let (lo, hi) = match counts.split_once(',') {
            Some((lo, hi)) => (lo.parse().unwrap(), hi.parse().unwrap()),
            None => {
                let n = counts.parse().unwrap();
                (n, n)
            }
        };
        (alphabet, lo, hi)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRunner;
    use rand::Rng;

    /// Length bounds for [`vec()`]: an exact count or a half-open range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s of `element` with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Output of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, runner: &mut TestRunner) -> Vec<S::Value> {
            let len = runner.rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.generate(runner)).collect()
        }
    }
}

pub mod bool {
    //! Boolean strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRunner;
    use rand::Rng;

    /// Uniformly random booleans.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// The uniform boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, runner: &mut TestRunner) -> bool {
            runner.rng.gen_bool(0.5)
        }
    }
}

pub mod prelude {
    //! Everything a property-test module needs.

    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Assert inside a property body (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assert inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Define property tests: each `fn name(pat in strategy, ..) { body }` runs
/// `cases` times over deterministically generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr;
     $($(#[$meta:meta])*
       fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut runner = $crate::test_runner::TestRunner::deterministic();
                for _ in 0..config.cases {
                    $(let $pat =
                        $crate::strategy::Strategy::generate(&($strat), &mut runner);)+
                    // Property bodies may `return Ok(())` to skip a case
                    // (proptest's bodies are Result-valued), so run them in
                    // a Result-returning closure.
                    #[allow(clippy::redundant_closure_call)]
                    let outcome: ::core::result::Result<(), ::std::string::String> =
                        (|| {
                            $body
                            Ok(())
                        })();
                    if let Err(message) = outcome {
                        panic!("property failed: {message}");
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::ValueTree;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples((a, b) in (0usize..10, 5u64..=9), f in 0.0f64..1.0) {
            assert!(a < 10);
            prop_assert!((5..=9).contains(&b));
            prop_assert!((0.0..1.0).contains(&f));
        }

        #[test]
        fn vec_and_bool(v in crate::collection::vec((crate::bool::ANY, 0usize..3), 1..5)) {
            prop_assert!((1..5).contains(&v.len()));
            for (_, x) in v {
                prop_assert!(x < 3);
            }
        }

        #[test]
        fn regex_strings(s in "[A-Za-z ]{1,16}") {
            prop_assert!((1..=16).contains(&s.chars().count()));
            prop_assert!(s.chars().all(|c| c.is_ascii_alphabetic() || c == ' '));
        }
    }

    #[test]
    fn new_tree_then_current_matches_prop_map() {
        let mut runner = crate::test_runner::TestRunner::deterministic();
        let doubled = (1usize..4).prop_map(|v| v * 2);
        let v = doubled.new_tree(&mut runner).unwrap().current();
        assert!(v == 2 || v == 4 || v == 6);
    }

    #[test]
    fn deterministic_runner_repeats_stream() {
        let strat = (0u64..1_000_000, 0.0f64..1.0);
        let mut r1 = crate::test_runner::TestRunner::deterministic();
        let mut r2 = crate::test_runner::TestRunner::deterministic();
        for _ in 0..20 {
            assert_eq!(strat.generate(&mut r1), strat.generate(&mut r2));
        }
    }
}
