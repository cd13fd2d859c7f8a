//! Order statistics and the regression rule the benchmark applies.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default `exclusive` method), so a spread computed here matches the one
//! any other tool computes from the same samples.

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The arithmetic mean; `None` for no samples.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The median; `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(_, m, _)| m)
}

/// First quartile, median and third quartile, as
/// `statistics.quantiles(values, n=4)` gives them. One sample is its own
/// quartiles; `None` for no samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        1 => Some((sorted[0], sorted[0], sorted[0])),
        _ => {
            let cut = |i: usize| {
                // Exact integer arithmetic of the exclusive method: the
                // i-th 4-quantile sits at position i*(n+1)/4 (1-based).
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some((cut(1), cut(2), cut(3)))
        }
    }
}

/// The distance between the quartiles as a share of the median: the
/// run-to-run spread the benchmark's bounds are judged against. Zero for
/// fewer than two samples or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, m, q3)) if values.len() >= 2 && m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Percentiles a tail latency may be reported at, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// The highest percentile of the ladder 99.9, 99, 98, 95, 90, 75, 50 that
/// leaves at least [`BEYOND`] of `n` samples beyond its nearest-rank
/// position; `None` when not even the median does.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= BEYOND)
}

/// 1-based nearest rank of percentile `p` (to a tenth) among `n ≥ 1`
/// samples, in integers so that p99.9 of 10 000 is exactly rank 9990.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// The nearest-rank percentile `p` of `values`; `None` for no samples.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// A tail latency: the percentile the sample supports and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile (`99.0` for p99).
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
}

/// The highest supported tail of `values` (see [`tail_percentile`]).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let p = tail_percentile(values.len())?;
    percentile(values, p).map(|value| Tail {
        percentile: p,
        value,
    })
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, costs).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// Parses BENCHMARK.json's `"lower"` / `"higher"`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// Whether `a` is strictly better than `b`.
    fn prefers(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// How much worse `new` is than `base`, as a share of `base`: positive
/// means worse, negative means better, in either direction of [`Better`].
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    if base == new {
        return 0.0;
    }
    let worse = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base == 0.0 {
        worse.signum() * f64::INFINITY
    } else {
        worse / base.abs()
    }
}

/// The comparison of one metric on one workload between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The medians differ by no more than the bound.
    Agree,
    /// The new median is better than the base by more than the bound.
    Improved,
    /// The new median is worse than the base by more than the bound.
    Regressed,
    /// A side's spread is wider than the bound, so the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Runs each side needs before "every new run beats every base run" counts
/// as an improvement despite a wide spread. With fewer, identical code
/// wins that way by chance too often: 1 time in 20 with 3 runs a side.
pub const DOMINANCE_RUNS: usize = 10;

/// Judges `new` against `base` under `bound`. When either side's spread
/// exceeds the bound the runs cannot resolve a change of that size, so the
/// verdict is [`Verdict::Unresolved`] — unless each side has at least
/// [`DOMINANCE_RUNS`] runs and every new run beats every base run, which
/// is an improvement however wide the spread.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(mb), Some(mn)) = (median(base), median(new)) else {
        return Verdict::Unresolved;
    };
    let dominates = base.len().min(new.len()) >= DOMINANCE_RUNS
        && new
            .iter()
            .all(|&n| base.iter().all(|&b| better.prefers(n, b)));
    if spread(base).max(spread(new)) > bound {
        return if dominates {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let change = worse_by(mb, mn, better);
    if change > bound {
        Verdict::Regressed
    } else if change < -bound {
        Verdict::Improved
    } else {
        Verdict::Agree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn spread_is_interquartile_range_over_median() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        // Exactly ten samples lie beyond the reported p99 of 1000 values.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), BEYOND);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&values, 50.0), Some(3.0));
        assert_eq!(percentile(&values, 100.0), Some(5.0));
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn bounds_judge_both_directions() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [120.0, 121.0, 119.0, 120.0, 120.5];
        let faster = [80.0, 81.0, 79.0, 80.0, 80.5];
        let same = [100.2, 100.8, 99.5, 100.1, 100.4];
        // Times: lower is better.
        assert_eq!(
            verdict(&base, &slower, Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &faster, Better::Lower, 0.1),
            Verdict::Improved
        );
        assert_eq!(verdict(&base, &same, Better::Lower, 0.1), Verdict::Agree);
        // Throughput: higher is better, so the same moves flip.
        assert_eq!(
            verdict(&base, &slower, Better::Higher, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&base, &faster, Better::Higher, 0.1),
            Verdict::Regressed
        );
        // A 20% move inside a 25% bound is agreement.
        assert_eq!(verdict(&base, &slower, Better::Lower, 0.25), Verdict::Agree);
        assert!((worse_by(100.0, 120.0, Better::Lower) - 0.2).abs() < 1e-12);
        assert!((worse_by(100.0, 120.0, Better::Higher) + 0.2).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, Better::Lower), 0.0);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_ten_runs_a_side_all_win() {
        let base = [100.0, 60.0, 140.0, 100.0, 90.0];
        let new = [110.0, 70.0, 150.0, 105.0, 95.0];
        assert_eq!(
            verdict(&base, &new, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Every new run wins, but five runs a side can win by chance.
        let far_better = [10.0, 12.0, 11.0, 9.0, 10.5];
        assert_eq!(
            verdict(&base, &far_better, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Ten runs a side, every one won: improved despite the spread.
        let base10: Vec<f64> = base.iter().chain(&base).copied().collect();
        let better10: Vec<f64> = far_better.iter().chain(&far_better).copied().collect();
        assert_eq!(
            verdict(&base10, &better10, Better::Lower, 0.1),
            Verdict::Improved
        );
        // Ten runs a side with one loss stays unresolved.
        let mut one_loss = better10.clone();
        one_loss[3] = 70.0;
        assert_eq!(
            verdict(&base10, &one_loss, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&[], &new, Better::Lower, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn direction_labels_parse() {
        assert_eq!(Better::parse("lower"), Some(Better::Lower));
        assert_eq!(Better::parse("higher"), Some(Better::Higher));
        assert_eq!(Better::parse("up"), None);
    }
}
