//! Order statistics shared by the run and `compare`.

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`);
/// 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method)
/// computes them, so `compare` and the acceptance check agree.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (data[0], data[0], data[0]),
        n => {
            let m = n as i64 + 1;
            let cut = |i: i64| {
                let j = (i * m / 4).clamp(1, n as i64 - 1);
                let delta = i * m - j * 4;
                let (lo, hi) = (data[j as usize - 1], data[j as usize]);
                (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
