//! Sample moments, correlation and autocorrelation.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance (divides by `n`); 0.0 for fewer than two points.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Population covariance of two equally sized slices.
///
/// # Panics
/// Panics on length mismatch.
pub fn covariance(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "covariance length mismatch");
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    xs.iter().zip(ys.iter()).map(|(&x, &y)| (x - mx) * (y - my)).sum::<f64>() / xs.len() as f64
}

/// Pearson product-moment correlation coefficient.
///
/// Returns 0.0 when either input is (numerically) constant — the paper's
/// univariate scorers treat constant metrics as carrying no dependence
/// signal, which also keeps `CorrMean`/`CorrMax` NaN-free.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson length mismatch");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    let r = sxy / (sxx.sqrt() * syy.sqrt());
    r.clamp(-1.0, 1.0)
}

/// One side of [`pearson`], prepared once for many pairs: the values less
/// their [`mean`], and the sum of the squared deviations.
#[derive(Debug, Clone, PartialEq)]
pub struct CentredColumn {
    deviations: Vec<f64>,
    sum_sq: f64,
}

impl CentredColumn {
    /// Centres `xs` on its [`mean`] and sums the squared deviations, in
    /// order — [`pearson`]'s own steps for one side.
    pub fn new(xs: &[f64]) -> Self {
        let m = mean(xs);
        let deviations: Vec<f64> = xs.iter().map(|&x| x - m).collect();
        let mut sum_sq = 0.0;
        for &d in &deviations {
            sum_sq += d * d;
        }
        CentredColumn { deviations, sum_sq }
    }

    /// `pearson(xs, ys)` for `self` prepared from `xs` and `ys` from `ys`,
    /// to the bit: the cross sum adds `dx * dy` in order with no zero skip
    /// (a `0 × inf` still reaches it), then the same guards and clamp.
    /// Per pair this is one pass where [`pearson`] takes three.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn pearson(&self, ys: &CentredColumn) -> f64 {
        assert_eq!(self.deviations.len(), ys.deviations.len(), "pearson length mismatch");
        if self.deviations.len() < 2 {
            return 0.0;
        }
        let mut sxy = 0.0;
        for (&dx, &dy) in self.deviations.iter().zip(&ys.deviations) {
            sxy += dx * dy;
        }
        let (sxx, syy) = (self.sum_sq, ys.sum_sq);
        if sxx <= 0.0 || syy <= 0.0 {
            return 0.0;
        }
        let r = sxy / (sxx.sqrt() * syy.sqrt());
        r.clamp(-1.0, 1.0)
    }
}

/// Sample autocorrelation at the given lag (lag 0 returns 1 for non-constant
/// series). Series shorter than `lag + 2` return 0.0.
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    if xs.len() < lag + 2 {
        return 0.0;
    }
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|&x| (x - m) * (x - m)).sum();
    if denom <= 0.0 {
        return 0.0;
    }
    let numer: f64 = xs[lag..].iter().zip(xs.iter()).map(|(&a, &b)| (a - m) * (b - m)).sum();
    numer / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((mean(&xs) - 3.0).abs() < 1e-12);
        assert!((variance(&xs) - 2.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn covariance_of_identical_series_is_variance() {
        let xs = [1.0, 3.0, 5.0, 7.0];
        assert!((covariance(&xs, &xs) - variance(&xs)).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|v| -v).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_uncorrelated_orthogonal() {
        let xs = [1.0, -1.0, 1.0, -1.0];
        let ys = [1.0, 1.0, -1.0, -1.0];
        assert!(pearson(&xs, &ys).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_input_yields_zero() {
        let xs = [5.0; 8];
        let ys = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(pearson(&xs, &ys), 0.0);
    }

    #[test]
    fn pearson_shift_and_scale_invariant() {
        let xs = [1.0, 2.0, 5.0, 3.0, 8.0];
        let ys = [0.5, 1.2, 4.8, 2.0, 9.0];
        let r0 = pearson(&xs, &ys);
        let xs2: Vec<f64> = xs.iter().map(|v| 3.0 * v + 7.0).collect();
        let r1 = pearson(&xs2, &ys);
        assert!((r0 - r1).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_lag0_and_periodic() {
        let xs: Vec<f64> = (0..64).map(|i| ((i % 4) as f64) - 1.5).collect();
        assert!((autocorrelation(&xs, 0) - 1.0).abs() < 1e-12);
        // Period-4 signal: lag 4 autocorrelation close to 1.
        assert!(autocorrelation(&xs, 4) > 0.9);
        // Half-period phase of the sawtooth: acf = -0.6 analytically.
        assert!(autocorrelation(&xs, 2) < -0.5);
    }

    #[test]
    fn autocorrelation_short_series_zero() {
        assert_eq!(autocorrelation(&[1.0, 2.0], 3), 0.0);
    }
}
