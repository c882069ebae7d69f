//! The full 15-test suite runner, in the order of the paper's Table 1.

use crate::bits::Bits;
use crate::error::StsError;
use crate::result::TestResult;
use crate::{
    approximate_entropy, block_frequency, cumulative_sums, dft, linear_complexity, longest_run,
    matrix_rank, monobit, non_overlapping, overlapping, random_excursions,
    random_excursions_variant, runs, serial, universal,
};

/// Outcome of one test within a suite run.
#[derive(Debug, Clone, PartialEq)]
pub struct TestOutcome {
    /// Test name (matching the paper's Table 1 row names).
    pub name: &'static str,
    /// The test result, or the reason it could not run.
    pub result: Result<TestResult, StsError>,
}

impl TestOutcome {
    /// Whether the test ran and passed at `alpha`.
    pub fn passed(&self, alpha: f64) -> bool {
        self.result.as_ref().is_ok_and(|r| r.passed(alpha))
    }
}

/// Report of a full suite run over one bitstream.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteReport {
    /// Per-test outcomes, in Table 1 order.
    pub outcomes: Vec<TestOutcome>,
    /// The significance level used for pass/fail.
    pub alpha: f64,
}

impl SuiteReport {
    /// Whether every applicable test passed.
    pub fn all_passed(&self) -> bool {
        self.outcomes.iter().all(|o| match &o.result {
            Ok(r) => r.passed(self.alpha),
            // Tests that are structurally inapplicable (e.g. too few
            // random-walk cycles on a *short* input) do not fail the
            // stream; insufficient data is the caller's problem and
            // still counts as failure.
            Err(StsError::NotApplicable { .. }) => true,
            Err(StsError::InsufficientData { .. }) => false,
        })
    }

    /// Number of tests that ran successfully.
    pub fn tests_run(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }
}

impl std::fmt::Display for SuiteReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{:<42} {:>10}  Status", "NIST Test Name", "P-value")?;
        for o in &self.outcomes {
            match &o.result {
                Ok(r) => writeln!(
                    f,
                    "{:<42} {:>10.3}  {}",
                    o.name,
                    r.mean_p(),
                    if r.passed(self.alpha) { "PASS" } else { "FAIL" }
                )?,
                Err(e) => writeln!(f, "{:<42} {:>10}  SKIP ({e})", o.name, "-")?,
            }
        }
        Ok(())
    }
}

/// Configuration for a full suite run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NistSuite {
    /// Significance level (the paper uses α = 0.0001; NIST's default
    /// recommendation is 0.01).
    pub alpha: f64,
}

impl NistSuite {
    /// A suite with the paper's significance level α = 0.0001.
    pub fn paper() -> Self {
        NistSuite { alpha: 1e-4 }
    }

    /// A suite with a custom significance level.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1`.
    pub fn with_alpha(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        NistSuite { alpha }
    }

    /// Runs all 15 tests on `bits`, in the paper's Table 1 order.
    pub fn run(&self, bits: &Bits) -> SuiteReport {
        let outcomes = vec![
            TestOutcome {
                name: "monobit",
                result: monobit::test(bits),
            },
            TestOutcome {
                name: "frequency_within_block",
                result: block_frequency::test(bits),
            },
            TestOutcome {
                name: "runs",
                result: runs::test(bits),
            },
            TestOutcome {
                name: "longest_run_ones_in_a_block",
                result: longest_run::test(bits),
            },
            TestOutcome {
                name: "binary_matrix_rank",
                result: matrix_rank::test(bits),
            },
            TestOutcome {
                name: "dft",
                result: dft::test(bits),
            },
            TestOutcome {
                name: "non_overlapping_template_matching",
                result: non_overlapping::test(bits),
            },
            TestOutcome {
                name: "overlapping_template_matching",
                result: overlapping::test(bits),
            },
            TestOutcome {
                name: "maurers_universal",
                result: universal::test(bits),
            },
            TestOutcome {
                name: "linear_complexity",
                result: linear_complexity::test(bits),
            },
            TestOutcome {
                name: "serial",
                result: serial::test(bits),
            },
            TestOutcome {
                name: "approximate_entropy",
                result: approximate_entropy::test(bits),
            },
            TestOutcome {
                name: "cumulative_sums",
                result: cumulative_sums::test(bits),
            },
            TestOutcome {
                name: "random_excursion",
                result: random_excursions::test(bits),
            },
            TestOutcome {
                name: "random_excursion_variant",
                result: random_excursions_variant::test(bits),
            },
        ];
        SuiteReport {
            outcomes,
            alpha: self.alpha,
        }
    }
}

impl Default for NistSuite {
    fn default() -> Self {
        NistSuite { alpha: 0.01 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::testutil::rng_bits as xorshift_bits;

    #[test]
    fn suite_has_15_tests_in_table1_order() {
        let bits = xorshift_bits(2_000, 5);
        let report = NistSuite::default().run(&bits);
        assert_eq!(report.outcomes.len(), 15);
        assert_eq!(report.outcomes[0].name, "monobit");
        assert_eq!(report.outcomes[14].name, "random_excursion_variant");
    }

    #[test]
    fn megabit_random_stream_passes_everything() {
        let bits = xorshift_bits(1_100_000, 0x0123_4567_89AB_CDEF);
        let report = NistSuite::paper().run(&bits);
        assert_eq!(
            report.tests_run(),
            15,
            "all tests applicable at 1.1 Mb:\n{report}"
        );
        assert!(report.all_passed(), "{report}");
    }

    #[test]
    fn constant_stream_fails() {
        let bits = Bits::from_fn(1_100_000, |_| true);
        let report = NistSuite::paper().run(&bits);
        assert!(!report.all_passed());
    }

    #[test]
    fn short_stream_reports_insufficient_data() {
        let bits = xorshift_bits(200, 1);
        let report = NistSuite::default().run(&bits);
        assert!(report.tests_run() < 15);
        assert!(
            !report.all_passed(),
            "insufficient data cannot count as pass"
        );
    }

    #[test]
    fn display_renders_every_row() {
        let bits = xorshift_bits(1_100_000, 42);
        let report = NistSuite::default().run(&bits);
        let text = report.to_string();
        for o in &report.outcomes {
            assert!(text.contains(o.name), "missing {}", o.name);
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        let _ = NistSuite::with_alpha(1.5);
    }
}
