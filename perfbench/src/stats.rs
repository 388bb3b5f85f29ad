//! Order statistics over measured samples.

/// Median (mean of the two middle values for an even count); `None`
/// for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0–100) of a non-empty sample.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest standard percentile with at least ten samples beyond
/// it, as `(p, value)`; `None` when the sample is too small for any.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| values.len() as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .map(|p| (p, percentile(values, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        assert_eq!(tail(&v[..100]), Some((90.0, 90.0)));
        assert_eq!(tail(&v[..50]), None);
    }
}
