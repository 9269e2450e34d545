//! Order statistics, the percentile rule, geometric mean and FNV-1a.

/// Sorts a sample ascending (NaN-free by construction: every value is a
/// measured duration or a count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentile rule: the highest of p50/p75/p90/p95/p99 that still has
/// at least ten samples beyond it, or `None` below twenty samples.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    [0.99, 0.95, 0.90, 0.75, 0.50]
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// First quartile, median, third quartile — the same numbers Python's
/// `statistics.quantiles(values, n=4)` gives (exclusive method), so
/// `repeat` and the driver agree on what a spread is. Needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let m = v.len();
    assert!(m >= 2, "quartiles need at least two values");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Geometric mean of positive values: every value weighs equally, so a
/// win on a cheap query is as visible as one on an expensive query.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// FNV-1a over a sequence of pre ranks (little-endian bytes).
pub fn fnv1a(pres: impl Iterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for pre in pres {
        for b in pre.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.50));
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(199), Some(0.90));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(999), Some(0.95));
        assert_eq!(tail_percentile(1000), Some(0.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 0.50), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_weighs_every_value_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        // Halving the cheap query moves the geomean as much as halving the
        // expensive one.
        let a = geomean(&[0.5, 100.0]);
        let b = geomean(&[1.0, 50.0]);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn fnv1a_depends_on_order_and_content() {
        assert_eq!(fnv1a([].into_iter()), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a([1, 2].into_iter()), fnv1a([2, 1].into_iter()));
    }
}
