//! Order statistics: medians, quartiles, and the tail-percentile rule.

use purity_sim::LatencyHistogram;

/// Tail percentiles a latency metric may be reported at, highest first,
/// each with the per-mille share of samples that lies beyond it.
pub const TAIL_CANDIDATES: [(f64, u64); 3] = [(0.999, 1), (0.99, 10), (0.95, 50)];

/// Samples that must lie beyond the reported tail percentile. Ten is the
/// floor below which an order statistic is one sample's accident.
pub const MIN_BEYOND: u64 = 10;

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the lowest candidate has too few.
pub fn pick_tail(n: u64) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&(_, beyond_permille)| n * beyond_permille / 1000 >= MIN_BEYOND)
        .map(|(q, _)| q)
}

/// Nearest-rank quantile of an ascending slice (`q` in 0..=1).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unordered values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; with one sample both equal it.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// One operation type's virtual latencies over a window: the exact
/// per-op vector where the benchmark sees every ack, else the log-bucket
/// histogram a report or stats snapshot hands out.
pub enum Latencies {
    Exact(Vec<u64>),
    Hist(LatencyHistogram),
}

impl Latencies {
    pub fn count(&self) -> u64 {
        match self {
            Latencies::Exact(v) => v.len() as u64,
            Latencies::Hist(h) => h.count(),
        }
    }

    /// Latency in ns at quantile `q`; 0 with no samples.
    pub fn quantile(&mut self, q: f64) -> u64 {
        match self {
            Latencies::Exact(v) if v.is_empty() => 0,
            Latencies::Exact(v) => {
                v.sort_unstable();
                quantile_sorted(v, q)
            }
            Latencies::Hist(h) => h.quantile(q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(pick_tail(10_000), Some(0.999));
        assert_eq!(pick_tail(9_999), Some(0.99));
        assert_eq!(pick_tail(1_000), Some(0.99));
        assert_eq!(pick_tail(999), Some(0.95));
        assert_eq!(pick_tail(200), Some(0.95));
        assert_eq!(pick_tail(199), None);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn exact_latencies_sort_before_ranking() {
        let mut l = Latencies::Exact(vec![30, 10, 20]);
        assert_eq!(l.count(), 3);
        assert_eq!(l.quantile(0.5), 20);
        assert_eq!(Latencies::Exact(Vec::new()).quantile(0.5), 0);
    }
}
