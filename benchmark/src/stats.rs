//! Order statistics over small sample sets.

/// Sorted copy of `xs` (total order; the benchmark never produces NaN).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` computes them (the "exclusive"
/// method), because that is what the acceptance check uses. Fewer than
/// two samples give the sample itself three times.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    assert!(!v.is_empty(), "quartiles of no samples");
    if v.len() < 2 {
        return [v[0]; 3];
    }
    let n = v.len();
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let pos = (i + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *q = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    }

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }
}
