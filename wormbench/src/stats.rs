//! Order statistics for reporting timings.

/// Median (mean of the middle two for an even count); `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Percentiles a tail may be reported at, from the highest down.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of the `p`-th percentile of `n` samples, in exact
/// integer arithmetic (`p` has at most one decimal).
fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000)
}

/// Samples ranked above the nearest-rank `p`-th percentile of `n` samples.
#[must_use]
pub fn samples_beyond(p: f64, n: usize) -> usize {
    n - rank(p, n).min(n)
}

/// The highest reportable percentile with at least ten samples beyond it,
/// and its nearest-rank value; `None` when fewer than 20 samples exist.
#[must_use]
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let p = TAIL_PERCENTILES
        .into_iter()
        .find(|&p| samples_beyond(p, n) >= 10)?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((p, v[rank(p, n) - 1]))
}
