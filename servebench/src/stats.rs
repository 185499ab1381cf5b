//! Order statistics over latency samples.

/// Nearest-rank percentile (`p` in `[0, 1]`) of an unsorted sample.
/// An empty sample reads as 0.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    // The epsilon keeps p * n exact when it is a whole number (0.9 * 100
    // is 90.00000000000001 in binary).
    let rank = ((p * v.len() as f64 - 1e-9).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The first and third quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// "exclusive" method), with the median between them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |i: usize| {
        // statistics.quantiles, method='exclusive': m = n + 1.
        let m = (n + 1) as f64;
        let pos = i as f64 * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}
