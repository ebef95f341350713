//! Order statistics: percentiles of latency samples, medians over rounds and
//! the quartile spread `compare` judges a metric's steadiness by.

/// The `p`-th percentile (`0 < p ≤ 100`) of `sorted` by the nearest-rank
/// rule: the smallest sample with at least `p` % of the samples at or below
/// it. Returns 0 for an empty slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    nearest_rank(sorted.len(), p).map_or(0, |i| sorted[i])
}

/// Index of the `p`-th percentile among `len` sorted samples.
fn nearest_rank(len: usize, p: f64) -> Option<usize> {
    let rank = (p / 100.0 * len as f64).ceil() as usize;
    (len > 0).then(|| rank.clamp(1, len) - 1)
}

/// Sorts `samples` in place and returns their `p`-th percentile.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    samples.sort_unstable();
    percentile_sorted(samples, p)
}

/// What one measured round of one facility says: its median query latency
/// and its operations per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStat {
    pub p50_us: f64,
    pub ops_per_s: f64,
}

/// One number of each kind from a run's rounds: the medians over the best
/// quarter of the rounds by ops/s. What the pace does not account for (the
/// host taking a core away, a page fault) only ever lowers a round's rate, so
/// the best rounds move less from run to run than all of them do; and the
/// latency is read in the same rounds, so that a run's two numbers describe
/// the same stretch of it. Zeros for no rounds.
pub fn best_rounds(rounds: &[RoundStat]) -> RoundStat {
    let mut by_rate = rounds.to_vec();
    by_rate.sort_by(|a, b| b.ops_per_s.total_cmp(&a.ops_per_s));
    by_rate.truncate((rounds.len() / 4).max(1));
    let median_of =
        |pick: fn(&RoundStat) -> f64| median(&by_rate.iter().map(pick).collect::<Vec<f64>>());
    RoundStat {
        p50_us: median_of(|r| r.p50_us),
        ops_per_s: median_of(|r| r.ops_per_s),
    }
}

/// The median of `values` (mean of the two middle ones for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median: the run-to-run
/// spread a bound is compared with.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 50.0), 50);
        assert_eq!(percentile_sorted(&s, 99.0), 99);
        assert_eq!(percentile_sorted(&s, 100.0), 100);
        assert_eq!(percentile_sorted(&s, 0.5), 1);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
        // 1,000 samples: ten lie beyond the p99.
        let t: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&t, 99.0), 990);
    }

    #[test]
    fn the_best_rounds_ignore_the_disturbed_ones() {
        let round = |p50_us, ops_per_s| RoundStat { p50_us, ops_per_s };
        // Eight rounds: a neighbour slowed three, and one has a low rate
        // beside a low median latency (a few very slow queries).
        let rounds = [
            round(5.0, 200.0),
            round(7.9, 126.0),
            round(5.1, 196.0),
            round(5.2, 192.0),
            round(9.5, 105.0),
            round(2.6, 110.0),
            round(8.8, 113.0),
            round(5.3, 188.0),
        ];
        // The best quarter by rate is the first and the third.
        assert_eq!(best_rounds(&rounds), round(5.05, 198.0));
        assert_eq!(best_rounds(&rounds[..3]), round(5.0, 200.0));
        assert_eq!(best_rounds(&[]), round(0.0, 0.0));
    }

    #[test]
    fn median_ignores_one_disturbed_value() {
        assert_eq!(median(&[5.0, 5.1, 50.0, 4.9, 5.0]), 5.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_agree_with_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]).unwrap();
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
