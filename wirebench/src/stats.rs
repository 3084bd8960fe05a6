//! Order statistics.

/// The `pct`-th percentile of `values` (linear interpolation between
/// closest ranks; `NaN` for no values).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, pct)
}

pub fn percentile_sorted(v: &[f64], pct: f64) -> f64 {
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let pos = pct / 100.0 * (n - 1) as f64;
            let (i, frac) = (pos.floor() as usize, pos.fract());
            if i + 1 >= n {
                v[n - 1]
            } else {
                v[i] + (v[i + 1] - v[i]) * frac
            }
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Samples strictly beyond the `pct`-th percentile.
pub fn beyond(n: usize, pct: f64) -> usize {
    n - ((n as f64) * pct / 100.0).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(200, 95.0), 10);
    }
}
