//! Exact-sample statistics: the benchmark keeps every latency sample
//! and reads percentiles by nearest rank, so a reported p99 is a
//! value that was actually measured (the program's own log-linear
//! `Histogram` rounds to bucket edges and is itself a measured layer).

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `num/den` quantile among `n` samples:
/// the smallest rank with at least that share of samples at or below
/// it.
pub fn rank(n: usize, num: u64, den: u64) -> usize {
    assert!(n > 0 && den > 0 && num <= den, "quantile of nothing");
    let r = (n as u128 * num as u128).div_ceil(den as u128) as usize;
    r.clamp(1, n)
}

/// Samples strictly beyond the nearest rank of the `num/den` quantile.
pub fn beyond(n: usize, num: u64, den: u64) -> usize {
    n - rank(n, num, den)
}

/// Whether `n` samples support reporting the `num/den` quantile: at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn supported(n: usize, num: u64, den: u64) -> bool {
    n > 0 && beyond(n, num, den) >= MIN_BEYOND
}

/// Latency samples in nanoseconds, saturating at `u32::MAX` (4.29 s —
/// a sample that long is a failure, not a latency).
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u32>);

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Self(Vec::with_capacity(n))
    }

    pub fn push(&mut self, elapsed: std::time::Duration) {
        self.0
            .push(u32::try_from(elapsed.as_nanos()).unwrap_or(u32::MAX));
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sorts once; percentiles are then index reads.
    pub fn sorted(mut self) -> Sorted {
        self.0.sort_unstable();
        Sorted(self.0)
    }
}

/// Sorted latency samples.
#[derive(Debug, Clone)]
pub struct Sorted(Vec<u32>);

impl Sorted {
    /// Nearest-rank quantile in microseconds.
    pub fn quantile_us(&self, num: u64, den: u64) -> f64 {
        f64::from(self.0[rank(self.0.len(), num, den) - 1]) / 1e3
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Median of `values` (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive
/// method), so `compare` reads spreads the way the acceptance rule
/// does. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |i: usize| {
        // Position i*(n+1)/4, 1-based, clamped into [1, n-1] so the
        // interpolation partner exists.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        // 1..=100: the p-th percentile is the value p.
        assert_eq!(rank(100, 50, 100), 50);
        assert_eq!(rank(100, 99, 100), 99);
        assert_eq!(rank(100, 100, 100), 100);
        assert_eq!(rank(100, 0, 100), 1);
        // Five samples: p50 is the 3rd, p99 the 5th.
        assert_eq!(rank(5, 50, 100), 3);
        assert_eq!(rank(5, 99, 100), 5);
        // 8000 samples: p99 is rank 7920, leaving 80 beyond.
        assert_eq!(rank(8000, 99, 100), 7920);
        assert_eq!(beyond(8000, 99, 100), 80);

        let mut s = Samples::default();
        for us in [5u64, 1, 4, 2, 3] {
            s.push(std::time::Duration::from_micros(us));
        }
        let s = s.sorted();
        assert_eq!(s.quantile_us(50, 100), 3.0);
        assert_eq!(s.quantile_us(99, 100), 5.0);
    }

    #[test]
    fn ten_beyond_rule() {
        // p99 needs 1000 samples for exactly ten beyond it.
        assert!(!supported(999, 99, 100));
        assert!(supported(1000, 99, 100));
        // p50 needs 20.
        assert!(!supported(19, 50, 100));
        assert!(supported(20, 50, 100));
        assert!(!supported(0, 50, 100));
    }

    #[test]
    fn samples_saturate_instead_of_wrapping() {
        let mut s = Samples::default();
        s.push(std::time::Duration::from_secs(10));
        assert_eq!(s.sorted().quantile_us(50, 100), f64::from(u32::MAX) / 1e3);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
