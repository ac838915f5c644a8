//! Medians, quartiles and the fine-grained latency histogram.

/// Median of `values` (mean of the middle two for an even count).
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

/// The `q`-quantile of `values` by rank (no interpolation).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// "exclusive" method), because that is what the acceptance rule uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Nanosecond histogram with 128 linear sub-buckets per power of two, so a
/// bucket is never wider than 1/128 = 0.8 % of its value: the median moves
/// in steps well below the 5 % regression bound. (`LatencyHistogram` in
/// `reo-connectors` has 1.25x buckets, wider than the bound itself.)
pub struct Histogram {
    buckets: Vec<u32>,
    count: u64,
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; ((64 - SUB_BITS + 1) as usize) << SUB_BITS],
            count: 0,
        }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) & (SUB - 1);
        (((exp - SUB_BITS + 1) as u64) << SUB_BITS | sub) as usize
    }

    /// Midpoint of bucket `i` in nanoseconds.
    fn midpoint(i: usize) -> f64 {
        let i = i as u64;
        if i < SUB {
            return i as f64;
        }
        let exp = (i >> SUB_BITS) as u32 + SUB_BITS - 1;
        let step = 1u64 << (exp - SUB_BITS);
        let lo = (1u64 << exp) + (i & (SUB - 1)) * step;
        lo as f64 + step as f64 / 2.0
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
    }

    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile in nanoseconds; `None` when nothing was recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Some(Self::midpoint(i));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn histogram_buckets_are_narrower_than_one_percent() {
        for ns in [
            1u64,
            100,
            127,
            128,
            129,
            1_000,
            3_333,
            1_000_000,
            7_777_777_777,
        ] {
            let mid = Histogram::midpoint(Histogram::index(ns));
            let err = (mid - ns as f64).abs() / ns as f64;
            assert!(err <= 0.005, "{ns} ns resolved to {mid}");
        }
        let mut h = Histogram::default();
        for ns in 1..=1000u64 {
            h.record(ns * 1000);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 500_000.0).abs() < 5_000.0, "p50 {p50}");
    }
}
