//! Summary statistics, Pearson correlation, and empirical CDFs.
//!
//! These back several pieces of the reproduction: spike detection in
//! eigenflow classification (mean + k·std thresholds, Eq. 10), the
//! correlation-weighted KNN baseline (Eq. 20), and all of the CDF figures
//! (Figs. 2, 3, 13, 14).

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divides by `n`); `0.0` for an empty slice.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Root mean square error between two equal-length series, the metric the
/// paper quotes for Fig. 6 (RMSE ≈ 9.67 between original and rank-5
/// reconstructed traffic conditions).
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn rmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rmse requires equal-length series");
    if a.is_empty() {
        return 0.0;
    }
    let ss: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (ss / a.len() as f64).sqrt()
}

/// Pearson correlation coefficient of two equal-length series; returns
/// `0.0` when either series has zero variance (the convention used by the
/// correlation-KNN baseline: constant rows carry no weighting signal).
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "pearson requires equal-length series");
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    let ma = mean(a);
    let mb = mean(b);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..n {
        let da = a[i] - ma;
        let db = b[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Pearson correlation over only the positions where both series are
/// observed (`mask_a[i] && mask_b[i]`). Needed by correlation-KNN on
/// incomplete matrices. Returns `0.0` with fewer than two common points.
///
/// # Panics
///
/// Panics when slice lengths differ.
pub fn pearson_masked(a: &[f64], b: &[f64], mask_a: &[bool], mask_b: &[bool]) -> f64 {
    assert!(a.len() == b.len() && a.len() == mask_a.len() && a.len() == mask_b.len());
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..a.len() {
        if mask_a[i] && mask_b[i] {
            xs.push(a[i]);
            ys.push(b[i]);
        }
    }
    if xs.len() < 2 {
        return 0.0;
    }
    pearson(&xs, &ys)
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of an unsorted slice.
/// Returns `0.0` for an empty slice.
///
/// # Panics
///
/// Panics when `q` is outside `[0, 1]` or data contains NaN.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1], got {q}");
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// One point of an empirical CDF: the fraction of samples `<= value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfPoint {
    /// Sample value (x-axis).
    pub value: f64,
    /// Cumulative fraction in `[0, 1]` (y-axis).
    pub fraction: f64,
}

/// Empirical cumulative distribution function of `xs`, evaluated at every
/// sample (sorted ascending). This is what Figs. 2, 3, 13 and 14 plot.
///
/// # Panics
///
/// Panics if the data contains NaN.
pub fn empirical_cdf(xs: &[f64]) -> Vec<CdfPoint> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in CDF input"));
    let n = sorted.len() as f64;
    sorted
        .iter()
        .enumerate()
        .map(|(i, &value)| CdfPoint { value, fraction: (i + 1) as f64 / n })
        .collect()
}

/// Evaluates an empirical CDF at `x`: the fraction of samples `<= x`.
pub fn cdf_at(points: &[CdfPoint], x: f64) -> f64 {
    // Points are sorted by value; binary search for the last value <= x.
    match points.binary_search_by(|p| p.value.partial_cmp(&x).expect("NaN in CDF")) {
        Ok(mut i) => {
            // Step past duplicates so we report the highest fraction at x.
            while i + 1 < points.len() && points[i + 1].value <= x {
                i += 1;
            }
            points[i].fraction
        }
        Err(0) => 0.0,
        Err(i) => points[i - 1].fraction,
    }
}

/// Detects "spikes" per the paper's rule beneath Eq. 10: a value is a
/// spike when it deviates from the mean by more than `k` standard
/// deviations (the paper uses `k = 4`). Returns the spike indices.
pub fn spike_indices(xs: &[f64], k: f64) -> Vec<usize> {
    let m = mean(xs);
    let sd = std_dev(xs);
    if sd == 0.0 {
        return Vec::new();
    }
    xs.iter().enumerate().filter(|(_, &x)| (x - m).abs() > k * sd).map(|(i, _)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!(crate::approx_eq(mean(&xs), 5.0, 1e-12));
        assert!(crate::approx_eq(variance(&xs), 4.0, 1e-12));
        assert!(crate::approx_eq(std_dev(&xs), 2.0, 1e-12));
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn rmse_known() {
        assert!(crate::approx_eq(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0, 1e-12));
        assert!(crate::approx_eq(rmse(&[0.0, 0.0], &[3.0, 4.0]), (12.5_f64).sqrt(), 1e-12));
        assert_eq!(rmse(&[], &[]), 0.0);
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!(crate::approx_eq(pearson(&a, &b), 1.0, 1e-12));
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!(crate::approx_eq(pearson(&a, &c), -1.0, 1e-12));
    }

    #[test]
    fn pearson_constant_series_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
    }

    #[test]
    fn pearson_masked_uses_common_support() {
        let a = [1.0, 2.0, 3.0, 100.0];
        let b = [2.0, 4.0, 6.0, -50.0];
        let ma = [true, true, true, false];
        let mb = [true, true, true, true];
        assert!(crate::approx_eq(pearson_masked(&a, &b, &ma, &mb), 1.0, 1e-12));
        // Fewer than two common points -> 0.
        let none = [false, false, false, false];
        assert_eq!(pearson_masked(&a, &b, &none, &mb), 0.0);
    }

    #[test]
    fn quantile_interpolation() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(crate::approx_eq(quantile(&xs, 0.5), 2.5, 1e-12));
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn quantile_out_of_range_panics() {
        quantile(&[1.0], 1.5);
    }

    #[test]
    fn empirical_cdf_properties() {
        let xs = [3.0, 1.0, 2.0, 2.0];
        let cdf = empirical_cdf(&xs);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf[0].value, 1.0);
        assert_eq!(cdf.last().unwrap().fraction, 1.0);
        // Monotone in both coordinates.
        for w in cdf.windows(2) {
            assert!(w[0].value <= w[1].value);
            assert!(w[0].fraction <= w[1].fraction);
        }
    }

    #[test]
    fn cdf_at_lookup() {
        let cdf = empirical_cdf(&[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(cdf_at(&cdf, 0.5), 0.0);
        assert!(crate::approx_eq(cdf_at(&cdf, 1.0), 0.25, 1e-12));
        assert!(crate::approx_eq(cdf_at(&cdf, 2.0), 0.75, 1e-12));
        assert!(crate::approx_eq(cdf_at(&cdf, 3.0), 0.75, 1e-12));
        assert_eq!(cdf_at(&cdf, 10.0), 1.0);
    }

    #[test]
    fn spike_detection_four_sigma() {
        // 99 small values + one enormous outlier.
        let mut xs = vec![0.0; 100];
        for (i, x) in xs.iter_mut().enumerate() {
            *x = ((i % 5) as f64) * 0.1;
        }
        xs[42] = 50.0;
        let spikes = spike_indices(&xs, 4.0);
        assert_eq!(spikes, vec![42]);
        // A flat series has no spikes.
        assert!(spike_indices(&[1.0; 10], 4.0).is_empty());
    }
}
