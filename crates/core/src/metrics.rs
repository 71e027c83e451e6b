//! Run metrics: accuracy-vs-time series utilities.

/// First simulated time at which the accuracy series reaches `target`.
///
/// The series must be time-ordered (as produced by the engines). Returns
/// `None` if the target is never reached.
pub(crate) fn time_to_accuracy(series: &[(f64, f64)], target: f64) -> Option<f64> {
    series.iter().find(|&&(_, acc)| acc >= target).map(|&(t, _)| t)
}

/// Best accuracy observed over the run.
pub(crate) fn best_accuracy(series: &[(f64, f64)]) -> f64 {
    series.iter().map(|&(_, a)| a).fold(0.0, f64::max)
}

/// Final accuracy (last evaluation), 0.0 for an empty series.
pub(crate) fn final_accuracy(series: &[(f64, f64)]) -> f64 {
    series.last().map_or(0.0, |&(_, a)| a)
}

/// Downsample a series to at most `n` evenly spaced points, for compact
/// table output.
///
/// The result always keeps the first and last points when `n ≥ 2` and the
/// series is at least that long. Degenerate requests clamp instead of
/// panicking: `n == 0` (or an empty series) returns an empty vector,
/// `n == 1` returns just the first point, and a series already within `n`
/// points passes through unchanged.
///
/// # Examples
///
/// ```
/// use seafl_core::metrics::downsample;
///
/// let series: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, 0.0)).collect();
/// let d = downsample(&series, 5);
/// assert_eq!(d.len(), 5);
/// assert_eq!(d[0], series[0]);
/// assert_eq!(d[4], series[99]);
///
/// // Degenerate requests clamp rather than panic.
/// assert!(downsample(&series, 0).is_empty());
/// assert_eq!(downsample(&series, 1), vec![series[0]]);
/// assert!(downsample(&[], 7).is_empty());
/// ```
pub fn downsample(series: &[(f64, f64)], n: usize) -> Vec<(f64, f64)> {
    if n == 0 || series.is_empty() {
        return Vec::new();
    }
    if series.len() <= n {
        return series.to_vec();
    }
    if n == 1 {
        return vec![series[0]];
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let idx = i * (series.len() - 1) / (n - 1);
        out.push(series[idx]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: &[(f64, f64)] = &[(0.0, 0.1), (10.0, 0.5), (20.0, 0.4), (30.0, 0.9)];

    #[test]
    fn time_to_accuracy_first_crossing() {
        assert_eq!(time_to_accuracy(S, 0.5), Some(10.0));
        assert_eq!(time_to_accuracy(S, 0.45), Some(10.0));
        assert_eq!(time_to_accuracy(S, 0.95), None);
        assert_eq!(time_to_accuracy(S, 0.0), Some(0.0));
        assert_eq!(time_to_accuracy(&[], 0.5), None);
    }

    #[test]
    fn best_and_final() {
        assert_eq!(best_accuracy(S), 0.9);
        assert_eq!(final_accuracy(S), 0.9);
        assert_eq!(final_accuracy(&[]), 0.0);
        assert_eq!(best_accuracy(&[(0.0, 0.3), (1.0, 0.2)]), 0.3);
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let big: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, i as f64 / 100.0)).collect();
        let d = downsample(&big, 5);
        assert_eq!(d.len(), 5);
        assert_eq!(d[0], big[0]);
        assert_eq!(d[4], big[99]);
        // Short series pass through unchanged.
        assert_eq!(downsample(S, 10), S.to_vec());
    }

    #[test]
    fn downsample_degenerate_requests_clamp() {
        assert_eq!(downsample(S, 0), Vec::new());
        assert_eq!(downsample(S, 1), vec![S[0]]);
        assert_eq!(downsample(&[], 0), Vec::new());
        assert_eq!(downsample(&[], 5), Vec::new());
        // n == series length is an exact pass-through.
        assert_eq!(downsample(S, 4), S.to_vec());
        // n == 2 keeps exactly the endpoints of a longer series.
        let big: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 0.0)).collect();
        assert_eq!(downsample(&big, 2), vec![big[0], big[9]]);
    }
}
