//! Pure helpers behind the reported numbers: medians, the tail-percentile
//! rule, how a point's outcome counts toward `ok_frac`, and `paper_err`.

use wormsim::{ExperimentError, RunResult};

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// On an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail a timing is reported at: the highest whole percentile (from
/// the 99th down to the median) that leaves at least ten samples beyond
/// it, by the nearest-rank rule. With fewer than twenty samples no
/// percentile at or above the median qualifies, and the tail is the
/// maximum (reported as percentile 100 with nothing beyond it).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, 50 to 100.
    pub percentile: u32,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// Applies the [`Tail`] rule to `values`.
///
/// # Panics
///
/// On an empty slice.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for percentile in (50..100u32).rev() {
        // Nearest rank: the smallest rank covering `percentile`% of the
        // samples.
        let rank = (percentile as usize * n).div_ceil(100).max(1);
        if n - rank >= 10 {
            return Tail {
                percentile,
                value: sorted[rank - 1],
                beyond: n - rank,
            };
        }
    }
    Tail {
        percentile: 100,
        value: sorted[n - 1],
        beyond: 0,
    }
}

/// Why a point counts as failed, or `None` when it produced the data it
/// was run for. `Saturated` is data (the paper's saturation points are the
/// unconverged ones); configuration errors, harness panics, deadlocks,
/// livelocks, budget trips, interruptions, unroutable plans and points
/// that never ran (a quarantined point's slot is empty too) are failures.
pub fn failure(outcome: Option<&Result<RunResult, ExperimentError>>) -> Option<&'static str> {
    match outcome {
        None => Some("never ran or quarantined"),
        Some(Err(_)) => Some("configuration error"),
        Some(Ok(result)) if result.outcome.has_statistics() => None,
        Some(Ok(result)) => Some(result.outcome.tag()),
    }
}

/// How far `measured` misses a claim printed as `paper_value`: the
/// absolute difference for a number (a leading `~` is dropped), and for an
/// inequality (`<0.34`, `>0.5`) the distance by which it is violated, 0
/// when it holds. `None` for a value that is not in one of these forms.
pub fn claim_error(paper_value: &str, measured: f64) -> Option<f64> {
    let value = paper_value.trim();
    if let Some(bound) = value.strip_prefix('<') {
        let bound: f64 = bound.trim().parse().ok()?;
        Some((measured - bound).max(0.0))
    } else if let Some(bound) = value.strip_prefix('>') {
        let bound: f64 = bound.trim().parse().ok()?;
        Some((bound - measured).max(0.0))
    } else {
        let number: f64 = value.trim_start_matches('~').trim().parse().ok()?;
        Some((measured - number).abs())
    }
}

/// Mean [`claim_error`] of `results` against the paper's Figure 3 claims.
///
/// # Panics
///
/// If a Figure 3 claim is printed in a form [`claim_error`] cannot read;
/// the claims are compiled in, so that is a bug in this benchmark.
pub fn paper_err(results: &[RunResult]) -> f64 {
    let claims = wormsim_bench::paper_reference("fig3");
    let total: f64 = claims
        .iter()
        .map(|claim| {
            claim_error(claim.paper_value, (claim.measure)(results))
                .unwrap_or_else(|| panic!("unreadable paper value '{}'", claim.paper_value))
        })
        .sum();
    total / claims.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim::{AlgorithmKind, Experiment, PanicInfo, RunOutcome};

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.percentile, 90);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);

        let values: Vec<f64> = (1..=72).map(f64::from).collect();
        let t = tail(&values);
        // p86 ranks 62 of 72 (ten beyond); p87 would rank 63 (nine).
        assert_eq!((t.percentile, t.value, t.beyond), (86, 62.0, 10));
    }

    #[test]
    fn tail_is_the_median_at_twenty_samples_and_the_max_below() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&values).percentile, 50);
        assert_eq!(tail(&values).beyond, 10);
        let t = tail(&[5.0, 1.0]);
        assert_eq!((t.percentile, t.value, t.beyond), (100, 5.0, 0));
    }

    fn result_with(outcome: RunOutcome) -> RunResult {
        let mut result = Experiment::new(wormsim::Topology::torus(&[4, 4]), AlgorithmKind::Ecube)
            .offered_load(0.1)
            .schedule(wormsim::MeasurementSchedule {
                warmup_cycles: 50,
                sample_cycles: 50,
                gap_cycles: 5,
                policy: wormsim::ConvergencePolicy {
                    max_samples: 3,
                    ..wormsim::ConvergencePolicy::default()
                },
            })
            .run()
            .expect("a valid 4x4 experiment");
        result.outcome = outcome;
        result
    }

    #[test]
    fn saturated_is_data_and_every_stall_or_gap_is_a_failure() {
        for ok in [RunOutcome::Completed, RunOutcome::Saturated] {
            assert_eq!(failure(Some(&Ok(result_with(ok)))), None);
        }
        let failures = [
            (RunOutcome::Deadlocked, "deadlocked"),
            (RunOutcome::LiveLocked, "livelocked"),
            (RunOutcome::BudgetExceeded, "budget_exceeded"),
            (RunOutcome::Interrupted, "interrupted"),
            (
                RunOutcome::Harness(PanicInfo {
                    message: "boom".into(),
                }),
                "harness_panic",
            ),
            (RunOutcome::Unroutable, "unroutable"),
        ];
        for (outcome, tag) in failures {
            assert_eq!(failure(Some(&Ok(result_with(outcome)))), Some(tag));
        }
        let rejected = Err(ExperimentError::RateOutOfRange { rate: 2.0 });
        assert_eq!(failure(Some(&rejected)), Some("configuration error"));
        // Quarantined and never-dispatched points leave an empty slot.
        assert_eq!(failure(None), Some("never ran or quarantined"));
    }

    #[test]
    fn claim_error_reads_numbers_and_inequalities() {
        assert!((claim_error("0.72", 0.61).unwrap() - 0.11).abs() < 1e-12);
        assert!((claim_error("~0.55", 0.60).unwrap() - 0.05).abs() < 1e-12);
        // An inequality that holds costs nothing ...
        assert_eq!(claim_error("<0.34", 0.30), Some(0.0));
        assert_eq!(claim_error(">0.5", 0.55), Some(0.0));
        // ... and one that is violated costs the distance past the bound.
        assert!((claim_error("<0.34", 0.40).unwrap() - 0.06).abs() < 1e-12);
        assert!((claim_error(">0.5", 0.45).unwrap() - 0.05).abs() < 1e-12);
        assert_eq!(claim_error("about half", 0.5), None);
    }

    #[test]
    fn every_fig3_claim_is_readable() {
        for claim in wormsim_bench::paper_reference("fig3") {
            assert!(
                claim_error(claim.paper_value, 0.5).is_some(),
                "{}",
                claim.paper_value
            );
        }
    }
}
