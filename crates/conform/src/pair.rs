//! The pair protocol's statistics.
//!
//! Host time drifts within a session, so a host-time claim compares a
//! parent and a change in alternating pairs of runs, never two runs
//! made at different moments. The `pair` binary makes the runs; this
//! module reduces one metric's pairs to what a claim is judged by: the
//! parent's median and quartiles, the change's median, how many pairs
//! the change won, the median of the per-pair ratios, and a verdict.

use serde::{Deserialize, Serialize};

/// Which way a metric improves, as `BENCHMARK.json` spells it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Deserialize)]
pub enum Better {
    /// Smaller is better (times, bytes, counts).
    #[serde(rename = "lower")]
    Lower,
    /// Larger is better (rates, ratios).
    #[serde(rename = "higher")]
    Higher,
}

/// The lower quartile, median and upper quartile of a sample.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct Quartiles {
    /// The 25th percentile.
    pub q1: f64,
    /// The 50th percentile.
    pub median: f64,
    /// The 75th percentile.
    pub q3: f64,
}

impl Quartiles {
    /// The interquartile range, `q3 - q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// The `q`-quantile of `sorted` (ascending, not empty), interpolated
/// linearly between the two closest ranks: rank `q * (n - 1)`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The quartiles of `xs`, which must not be empty.
fn quartiles(xs: &[f64]) -> Quartiles {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Quartiles {
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
    }
}

/// How many `(parent, change)` pairs the change won. A tie is not a
/// win: a metric that did not move wins no pair.
fn wins(pairs: &[(f64, f64)], better: Better) -> usize {
    (pairs.iter())
        .filter(|&&(p, c)| match better {
            Better::Lower => c < p,
            Better::Higher => c > p,
        })
        .count()
}

/// Fewer pairs than this support no claim, however they fall.
pub const MIN_PAIRS: usize = 10;

/// What a metric's pairs support.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Verdict {
    /// At least [`MIN_PAIRS`] pairs, the change won at least nine in
    /// ten, and its median is better than the parent's by more than the
    /// parent's IQR.
    #[serde(rename = "gain")]
    Gain,
    /// Anything less: no claim either way.
    #[serde(rename = "unresolved")]
    Unresolved,
}

impl Verdict {
    /// The verdict for `wins` out of `pairs` and a median `gain` (in
    /// the metric's better direction) against the parent's `iqr`.
    pub fn of(wins: usize, pairs: usize, gain: f64, iqr: f64) -> Verdict {
        if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain > iqr {
            Verdict::Gain
        } else {
            Verdict::Unresolved
        }
    }

    /// The word the `pair` binary prints.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric's pairs, reduced.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct Summary {
    /// The parent's quartiles.
    pub parent: Quartiles,
    /// The change's median.
    pub change_median: f64,
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The median of `change / parent` over the pairs.
    pub median_ratio: f64,
    /// What the pairs support.
    pub verdict: Verdict,
}

impl Summary {
    /// Reduces `(parent, change)` pairs, which must not be empty.
    pub fn of(pairs: &[(f64, f64)], better: Better) -> Summary {
        let parent = quartiles(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
        let change_median = quartiles(&pairs.iter().map(|p| p.1).collect::<Vec<_>>()).median;
        let ratios: Vec<f64> = pairs.iter().map(|&(p, c)| c / p).collect();
        let gain = match better {
            Better::Lower => parent.median - change_median,
            Better::Higher => change_median - parent.median,
        };
        let wins = wins(pairs, better);
        Summary {
            parent,
            change_median,
            wins,
            pairs: pairs.len(),
            median_ratio: quartiles(&ratios).median,
            verdict: Verdict::of(wins, pairs.len(), gain, parent.iqr()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let q = quartiles(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.75, 2.5, 3.25));
        let q = quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
        let q = quartiles(&[7.0]);
        assert_eq!((q.q1, q.median, q.q3, q.iqr()), (7.0, 7.0, 7.0, 0.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten);
        assert_eq!((q.q1, q.median, q.q3), (3.25, 5.5, 7.75));
    }

    #[test]
    fn a_tie_is_not_a_win() {
        let pairs = [(10.0, 9.0), (10.0, 10.0), (10.0, 11.0), (8.0, 7.5)];
        assert_eq!(wins(&pairs, Better::Lower), 2);
        assert_eq!(wins(&pairs, Better::Higher), 1);
        let flat = [(16.5, 16.5); 10];
        assert_eq!(wins(&flat, Better::Lower), 0);
        assert_eq!(wins(&flat, Better::Higher), 0);
    }

    #[test]
    fn a_gain_needs_ten_pairs_nine_in_ten_and_more_than_the_iqr() {
        assert_eq!(Verdict::of(9, 10, 3.0, 2.0), Verdict::Gain);
        assert_eq!(Verdict::of(10, 10, 3.0, 2.0), Verdict::Gain);
        assert_eq!(Verdict::of(8, 10, 3.0, 2.0), Verdict::Unresolved);
        // Nine of ten, rounded: 18 of 20 is enough, 17 is not.
        assert_eq!(Verdict::of(18, 20, 3.0, 2.0), Verdict::Gain);
        assert_eq!(Verdict::of(17, 20, 3.0, 2.0), Verdict::Unresolved);
        // The gain must exceed the IQR, not equal it.
        assert_eq!(Verdict::of(10, 10, 2.0, 2.0), Verdict::Unresolved);
        assert_eq!(Verdict::of(10, 10, -1.0, 0.0), Verdict::Unresolved);
        // Four of four is no claim: too few pairs.
        assert_eq!(Verdict::of(4, 4, 3.0, 2.0), Verdict::Unresolved);
        assert_eq!(Verdict::of(0, 0, 1.0, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn summaries_judge_in_the_better_direction() {
        // Ten pairs: the change is 20 % faster in nine, slower in one.
        let mut pairs: Vec<(f64, f64)> = (0..9).map(|i| (100.0 + i as f64, 80.0)).collect();
        pairs.push((100.0, 120.0));
        let s = Summary::of(&pairs, Better::Lower);
        assert_eq!(s.wins, 9);
        assert_eq!(s.pairs, 10);
        assert_eq!(s.change_median, 80.0);
        assert_eq!(s.parent.median, 103.5);
        assert_eq!(s.verdict, Verdict::Gain);
        assert!(
            (s.median_ratio - 80.0 / 103.5).abs() < 1e-3,
            "{}",
            s.median_ratio
        );
        // The same numbers read as a rate: the change lost.
        let s = Summary::of(&pairs, Better::Higher);
        assert_eq!((s.wins, s.verdict), (1, Verdict::Unresolved));
        // A wide parent spread hides a consistent win.
        let noisy: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0 + 10.0 * i as f64, 99.0 + 10.0 * i as f64))
            .collect();
        let s = Summary::of(&noisy, Better::Lower);
        assert_eq!((s.wins, s.verdict), (10, Verdict::Unresolved));
    }
}
