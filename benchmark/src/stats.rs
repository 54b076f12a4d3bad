//! Percentiles within a round, medians and quartiles over rounds.

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(q · n)`. `None` when the slice is empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// Nearest-rank percentile of samples in any order (0 when empty).
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, q).unwrap_or(0)
}

fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// The tail percentiles a timing may be reported at, lowest first.
const TAILS: [(&str, f64); 4] = [
    ("p90", 0.90),
    ("p99", 0.99),
    ("p99.9", 0.999),
    ("p99.99", 0.9999),
];

/// The highest tail percentile that still has at least ten samples
/// beyond it, with its label. `None` below 100 samples, where even p90
/// would rest on fewer than ten.
pub fn supported_tail(sorted: &[u64]) -> Option<(&'static str, u64)> {
    let n = sorted.len();
    TAILS
        .iter()
        .rev()
        .find(|&&(_, q)| n >= rank(n.max(1), q) + 10)
        .map(|&(label, q)| (label, sorted[rank(n, q) - 1]))
}

/// A timing sample reduced the way every timing here is reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    pub count: usize,
    pub p50: u64,
    pub tail: Option<(&'static str, u64)>,
}

impl Timing {
    /// Sorts `samples` in place and reduces them.
    pub fn of(samples: &mut [u64]) -> Timing {
        samples.sort_unstable();
        Timing {
            count: samples.len(),
            p50: percentile(samples, 0.5).unwrap_or(0),
            tail: supported_tail(samples),
        }
    }
}

impl std::fmt::Display for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {}", self.p50)?;
        if let Some((label, v)) = self.tail {
            write!(f, " {label} {v}")?;
        }
        write!(f, " (n={})", self.count)
    }
}

/// Median of the values (mean of the middle two for an even count).
/// Zero for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the rule the driver applies to
/// the spread between runs. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median: the spread
/// a bound is compared with. Zero when the median is zero.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.9), Some(90));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.5), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
        // ceil(0.5 * 5) = 3rd value.
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 0.5), Some(30));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let of = |n: u64| {
            let v: Vec<u64> = (1..=n).collect();
            supported_tail(&v).map(|(label, _)| label)
        };
        assert_eq!(of(50), None);
        assert_eq!(of(99), None);
        assert_eq!(of(100), Some("p90"));
        assert_eq!(of(999), Some("p90"));
        assert_eq!(of(1000), Some("p99"));
        assert_eq!(of(9_999), Some("p99"));
        assert_eq!(of(10_000), Some("p99.9"));
        assert_eq!(of(100_000), Some("p99.99"));
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(supported_tail(&v), Some(("p99", 990)));
    }

    #[test]
    fn timing_sorts_and_reduces() {
        let mut v: Vec<u64> = (1..=200).rev().collect();
        let t = Timing::of(&mut v);
        assert_eq!(t.count, 200);
        assert_eq!(t.p50, 100);
        assert_eq!(t.tail, Some(("p90", 180)));
        assert_eq!(t.to_string(), "p50 100 p90 180 (n=200)");
    }

    #[test]
    fn median_and_quartiles_over_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles([1..8], n=4) == [2.25, 4.5, 6.75]
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.25, 6.75));
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
