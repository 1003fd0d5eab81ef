//! Classical seasonal-trend decomposition.
//!
//! §3.4 of the paper derives a *pseudocause* `Ys` from the target itself:
//! decomposing `Y = trend + seasonal + residual` and conditioning on the
//! seasonal (and/or trend) part blocks the unknown causes of seasonality,
//! letting the ranking surface causes of the residual spike the user cares
//! about. This module implements the additive classical decomposition:
//! centred moving-average trend, per-phase seasonal means, residual.

/// An additive decomposition `series = trend + seasonal + residual`.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// Smoothed trend component (same length as the input).
    pub trend: Vec<f64>,
    /// Zero-mean periodic component.
    pub seasonal: Vec<f64>,
    /// What remains after removing trend and seasonality.
    pub residual: Vec<f64>,
    /// Period used for the seasonal component.
    pub period: usize,
}

impl Decomposition {
    /// The "pseudocause" series of §3.4: the explained (trend + seasonal)
    /// part of the signal, suitable for use as a conditioning variable `Z`.
    pub fn pseudocause(&self) -> Vec<f64> {
        self.trend.iter().zip(self.seasonal.iter()).map(|(&t, &s)| t + s).collect()
    }
}

/// Decomposes `series` additively with the given seasonal `period`.
///
/// * Trend: centred moving average of window `period` (even periods use the
///   standard 2×MA half-weight endpoints); edges are extended with the
///   nearest interior value so every index has a trend.
/// * Seasonal: mean of the detrended values at each phase, re-centred to
///   zero mean.
/// * Residual: the rest.
///
/// # Panics
/// Panics if `period < 2` or the series is shorter than one full period.
pub fn seasonal_decompose(series: &[f64], period: usize) -> Decomposition {
    assert!(period >= 2, "seasonal period must be at least 2");
    assert!(series.len() >= period, "series length {} shorter than period {period}", series.len());
    let n = series.len();
    let trend = moving_average_trend(series, period);
    // Per-phase means of the detrended series.
    let mut phase_sums = vec![0.0; period];
    let mut phase_counts = vec![0usize; period];
    for i in 0..n {
        let d = series[i] - trend[i];
        phase_sums[i % period] += d;
        phase_counts[i % period] += 1;
    }
    let mut phase_means: Vec<f64> = phase_sums
        .iter()
        .zip(phase_counts.iter())
        .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect();
    // Re-centre so the seasonal component has zero mean.
    let grand = phase_means.iter().sum::<f64>() / period as f64;
    for m in &mut phase_means {
        *m -= grand;
    }
    let seasonal: Vec<f64> = (0..n).map(|i| phase_means[i % period]).collect();
    let residual: Vec<f64> = (0..n).map(|i| series[i] - trend[i] - seasonal[i]).collect();
    Decomposition { trend, seasonal, residual, period }
}

/// Centred moving average of window `period`; even windows use the 2×MA
/// convention (half weights at both ends). Edges are clamped to the nearest
/// fully defined value.
fn moving_average_trend(series: &[f64], period: usize) -> Vec<f64> {
    let n = series.len();
    let mut trend = vec![f64::NAN; n];
    let half = period / 2;
    if period % 2 == 1 {
        for i in half..n.saturating_sub(half) {
            let window = &series[i - half..=i + half];
            trend[i] = window.iter().sum::<f64>() / period as f64;
        }
    } else {
        // 2xMA: weights 0.5, 1, ..., 1, 0.5 over period+1 points.
        for i in half..n.saturating_sub(half) {
            let lo = i - half;
            let hi = i + half;
            let mut acc = 0.5 * series[lo] + 0.5 * series[hi];
            for j in (lo + 1)..hi {
                acc += series[j];
            }
            trend[i] = acc / period as f64;
        }
    }
    // Clamp the undefined edges to the nearest defined value (or the series
    // mean when the series is so short no interior point exists).
    let defined = |v: &f64| !v.is_nan();
    match (trend.iter().position(defined), trend.iter().rposition(defined)) {
        (Some(first), Some(last)) => {
            let (f, l) = (trend[first], trend[last]);
            for v in trend[..first].iter_mut() {
                *v = f;
            }
            for v in trend[last + 1..].iter_mut() {
                *v = l;
            }
        }
        _ => {
            let m = series.iter().sum::<f64>() / n.max(1) as f64;
            trend.fill(m);
        }
    }
    trend
}

/// Removes a linear trend (least-squares line) from the series, returning
/// the detrended copy. Used by specificity-focused preprocessing when only
/// drift — not seasonality — should be controlled for.
pub fn detrend_linear(series: &[f64]) -> Vec<f64> {
    let n = series.len();
    if n < 2 {
        return series.to_vec();
    }
    let nf = n as f64;
    let mean_x = (nf - 1.0) / 2.0;
    let mean_y = series.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (i, &y) in series.iter().enumerate() {
        let dx = i as f64 - mean_x;
        sxx += dx * dx;
        sxy += dx * (y - mean_y);
    }
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    series.iter().enumerate().map(|(i, &y)| y - (mean_y + slope * (i as f64 - mean_x))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::{mean, pearson, variance};

    fn synthetic(n: usize, period: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        // trend + seasonal + small deterministic "noise"
        let trend: Vec<f64> = (0..n).map(|i| 10.0 + 0.05 * i as f64).collect();
        let seas: Vec<f64> = (0..n)
            .map(|i| 3.0 * (2.0 * std::f64::consts::PI * (i % period) as f64 / period as f64).sin())
            .collect();
        let series: Vec<f64> = (0..n).map(|i| trend[i] + seas[i]).collect();
        (series, trend, seas)
    }

    #[test]
    fn components_sum_to_series() {
        let (series, _, _) = synthetic(120, 12);
        let d = seasonal_decompose(&series, 12);
        for i in 0..series.len() {
            let recon = d.trend[i] + d.seasonal[i] + d.residual[i];
            assert!((recon - series[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn recovers_seasonal_shape() {
        let (series, _, seas) = synthetic(240, 12);
        let d = seasonal_decompose(&series, 12);
        // Correlation between recovered and true seasonal component.
        assert!(pearson(&d.seasonal, &seas) > 0.99);
        // Seasonal has (near) zero mean.
        assert!(mean(&d.seasonal).abs() < 1e-9);
    }

    #[test]
    fn recovers_trend_up_to_edges() {
        let (series, trend, _) = synthetic(240, 12);
        let d = seasonal_decompose(&series, 12);
        // Interior trend within small error of the true line.
        for i in 12..228 {
            assert!((d.trend[i] - trend[i]).abs() < 0.5, "trend off at {i}");
        }
    }

    #[test]
    fn residual_small_for_noiseless_input() {
        let (series, _, _) = synthetic(240, 12);
        let d = seasonal_decompose(&series, 12);
        let resid_var = variance(&d.residual);
        let series_var = variance(&series);
        assert!(resid_var < 0.02 * series_var, "residual var {resid_var} vs {series_var}");
    }

    #[test]
    fn pseudocause_plus_residual_is_series() {
        let (series, _, _) = synthetic(60, 6);
        let d = seasonal_decompose(&series, 6);
        let pc = d.pseudocause();
        for i in 0..series.len() {
            assert!((pc[i] + d.residual[i] - series[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn odd_period_works() {
        let (series, _, _) = synthetic(105, 7);
        let d = seasonal_decompose(&series, 7);
        assert_eq!(d.trend.len(), 105);
        assert!(d.trend.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "shorter than period")]
    fn rejects_too_short_series() {
        seasonal_decompose(&[1.0, 2.0, 3.0], 12);
    }

    #[test]
    fn detrend_removes_line() {
        let series: Vec<f64> = (0..50).map(|i| 2.0 + 0.3 * i as f64).collect();
        let d = detrend_linear(&series);
        assert!(d.iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn detrend_preserves_oscillation() {
        let series: Vec<f64> = (0..100).map(|i| 0.5 * i as f64 + (i as f64 * 0.7).sin()).collect();
        let d = detrend_linear(&series);
        // Line removed; oscillation variance remains.
        assert!(variance(&d) > 0.2);
        assert!(mean(&d).abs() < 1e-9);
    }
}
