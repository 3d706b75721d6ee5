//! Order statistics the benchmark reports: medians, quartiles and
//! nearest-rank percentiles with their tail sample counts.

/// Arithmetic mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so a spread computed here matches
/// one computed over the printed values. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4_i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative for tiny samples: Python extrapolates there too.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Quartile spread as a share of the median: (q3 − q1) / q2.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// One-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_median_handle_odd_even_and_empty() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    /// Reference values from Python 3: `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        let five = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quartiles(&five), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[7.0]), None);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let ten = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(relative_iqr(&ten), Some(5.5 / 5.5));
        assert_eq!(relative_iqr(&[2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn nearest_rank_percentiles_and_their_tails() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 95.0), 95.0);
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(percentile(&[4.0, 1.0, 3.0], 95.0), 4.0);
        assert_eq!(samples_beyond(3, 95.0), 0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }
}
