//! Order statistics shared by the runner and `compare`.

/// Median of `values` (mean of the two middle values for even counts).
/// Returns `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method). Fewer than two values collapse to that value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    // The epsilon keeps 0.99 * 100 from rounding up to rank 100.
    let rank = (p * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Throughput (ops per second) and median latency over the quieter half
/// of a measured window. `ops` holds `(seconds into the window when the
/// op completed, latency)`. The window is cut into one-second slices,
/// the slices are ranked by their median latency (a slice with no
/// completion ranks slowest), and the faster half is kept.
///
/// A shared 2-vCPU virtual machine slows down by up to 1.8x for seconds
/// to minutes at a time, and that noise only ever adds time, so the
/// quieter half tracks the program rather than its neighbours.
pub fn quieter_half(ops: &[(f64, f64)], window_s: f64) -> (f64, f64) {
    let n = (window_s.floor() as usize).max(1);
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(t, latency) in ops {
        if t >= 0.0 && t < n as f64 {
            slices[t as usize].push(latency);
        }
    }
    let rank = |s: &Vec<f64>| match s.len() {
        0 => f64::INFINITY,
        _ => median(s),
    };
    let mut ranked: Vec<(f64, Vec<f64>)> = slices.into_iter().map(|s| (rank(&s), s)).collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let kept: Vec<f64> = ranked
        .into_iter()
        .take(n.div_ceil(2))
        .flat_map(|(_, s)| s)
        .collect();
    (kept.len() as f64 / n.div_ceil(2) as f64, median(&kept))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn quieter_half_drops_slow_seconds() {
        // Four seconds: two quiet (10 ops of 1 ms each), one slowed down
        // (5 ops of 2 ms), one stalled (nothing completes).
        let mut ops = Vec::new();
        for second in [0.0, 2.0] {
            ops.extend((0..10).map(|i| (second + i as f64 / 10.0, 1.0)));
        }
        ops.extend((0..5).map(|i| (1.0 + i as f64 / 5.0, 2.0)));
        assert_eq!(quieter_half(&ops, 4.0), (10.0, 1.0));
        // Five slices keep three: both quiet ones and the slowed one.
        assert_eq!(quieter_half(&ops, 5.0), (25.0 / 3.0, 1.0));
        // Ops outside the window are ignored.
        ops.push((7.5, 100.0));
        assert_eq!(quieter_half(&ops, 4.0), (10.0, 1.0));
    }
}
