//! Estimators and process readings.
//!
//! Host time on the build host slows down in one-sided bursts (see
//! README, "Noise"): the plain median of 40–60 iterations drifted by
//! 40 % between back-to-back sets while the fastest of every five
//! iterations barely moved. So iterations run in rounds of
//! [`ROUND`], each round keeps its fastest, and the reported time is
//! the median over rounds.

/// Iterations per round.
pub const ROUND: usize = 5;

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile (`p` in 0..=1) of unsorted `values`;
/// 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The fastest sample of each full round; a trailing partial round is
/// dropped, so every round had the same number of chances.
pub fn round_bests(samples: &[f64]) -> Vec<f64> {
    samples
        .chunks_exact(ROUND)
        .map(|round| round.iter().copied().fold(f64::INFINITY, f64::min))
        .collect()
}

/// Median over rounds of the best of each round.
pub fn median_of_bests(samples: &[f64]) -> f64 {
    median(&round_bests(samples))
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn proc_self(file: &str) -> String {
    std::fs::read_to_string(format!("/proc/self/{file}")).unwrap_or_default()
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    proc_self("status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of this process (all threads) in ms.
pub fn cpu_ms() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the
    // parenthesised command name, in USER_HZ ticks (100/s on Linux).
    let stat = proc_self("stat");
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks * 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_five_then_median_ignores_one_sided_bursts() {
        // Three rounds; every round has slow outliers, one round is
        // slow throughout. The bests are 10, 11, 30; their median 11.
        let samples = [
            10.0, 50.0, 12.0, 90.0, 11.0, //
            40.0, 11.0, 13.0, 12.0, 70.0, //
            30.0, 31.0, 35.0, 33.0, 32.0, //
            1.0, 1.0, // partial round: dropped
        ];
        assert_eq!(round_bests(&samples), vec![10.0, 11.0, 30.0]);
        assert_eq!(median_of_bests(&samples), 11.0);
        assert_eq!(median_of_bests(&samples[..4]), 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.75), 3.25);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn process_readings_are_present_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_ms() >= 0.0);
    }
}
