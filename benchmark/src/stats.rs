//! Order statistics over samples, and the FNV fold used for digests.

/// Quartiles of a sample set, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the numbers here match any external check of the results file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

/// Quartiles of `values`; every quartile is the value itself for a single
/// sample, and all are 0 for none.
pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => Quartiles {
            q1: 0.0,
            median: 0.0,
            q3: 0.0,
        },
        1 => Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
        },
        n => {
            let at = |i: i64| {
                // statistics.quantiles, method="exclusive": 1-based
                // position j = i(n+1)/4 clamped to [1, n-1], then linear
                // inter- (or, past the clamp, extra-) polation.
                let m = n as i64 + 1;
                let j = (i * m / 4).clamp(1, n as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let (lo, hi) = (v[j as usize - 1], v[j as usize]);
                (lo * (4.0 - delta) + hi * delta) / 4.0
            };
            Quartiles {
                q1: at(1),
                median: median_sorted(&v),
                q3: at(3),
            }
        }
    }
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// The tail value: the highest percentile with at least ten samples
/// beyond it, or the largest sample when there are fewer than eleven.
pub fn tail(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n < 11 => v[n - 1],
        n => v[n - 11],
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` (0 for none).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
    v[idx.min(v.len() - 1)]
}

/// 64-bit FNV-1a offset basis, the workspace's standard fingerprint seed.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `value` into the FNV-1a digest `h`.
pub fn fold(h: u64, value: u64) -> u64 {
    let mut h = h;
    for b in value.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), 30.0);
        assert_eq!(tail(&[1.0, 5.0, 3.0]), 5.0);
    }
}
