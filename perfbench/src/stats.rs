//! Percentiles under the benchmark's sample-count rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples above it, together with the
//! sample count. A "p99" from 200 samples rests on two values and moves
//! with every run, so the rule falls back to a lower percentile instead
//! of printing a number the data cannot support.

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles in per-mille, highest first. The top one
/// is p99: metrics named `p99` never report a higher percentile.
const TAILS_PERMILLE: [usize; 5] = [990, 950, 900, 750, 500];

/// Nearest-rank percentile of an ascending slice, `permille` in 0..=1000.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille).saturating_sub(1)]
}

/// 1-based nearest rank of the `permille` percentile among `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// The highest candidate percentile (per-mille) that leaves at least
/// [`MIN_BEYOND`] of `n` samples above it, or `None` for fewer than 20.
pub fn tail_permille(n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    TAILS_PERMILLE
        .iter()
        .copied()
        .find(|&pm| n - rank(n, pm) >= MIN_BEYOND)
}

/// Median of unsorted values (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A timing distribution summarised by the sample-count rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples behind the summary.
    pub n: usize,
    /// Median (nearest rank); 0 when there are no samples.
    pub p50: f64,
    /// The reported tail percentile in per-mille; `None` means too few
    /// samples for any, and `tail` is then the maximum.
    pub tail_permille: Option<usize>,
    /// Value at the tail percentile.
    pub tail: f64,
}

impl Summary {
    /// Summarises `samples` (any order).
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                p50: 0.0,
                tail_permille: None,
                tail: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_pm = tail_permille(n);
        Summary {
            n,
            p50: percentile(&sorted, 500),
            tail_permille: tail_pm,
            tail: match tail_pm {
                Some(pm) => percentile(&sorted, pm),
                None => sorted[n - 1],
            },
        }
    }

    /// Label of the tail, e.g. `p99`, `p95` or `max`.
    pub fn tail_label(&self) -> String {
        match self.tail_permille {
            Some(pm) => format!("p{}", pm / 10),
            None => "max".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(999), Some(950));
        assert_eq!(tail_permille(100_000), Some(990));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(0), None);
    }

    #[test]
    fn every_reported_tail_leaves_ten_samples_above_it() {
        for n in 1..3000 {
            if let Some(pm) = tail_permille(n) {
                let values: Vec<f64> = (1..=n).map(|v| v as f64).collect();
                let tail = percentile(&values, pm);
                let beyond = values.iter().filter(|&&v| v > tail).count();
                assert!(beyond >= MIN_BEYOND, "n={n} pm={pm} beyond={beyond}");
            }
        }
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.tail_label(), "p99");
        let small = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(
            (small.p50, small.tail, small.tail_label().as_str()),
            (2.0, 3.0, "max")
        );
    }

    #[test]
    fn median_of_even_count_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
