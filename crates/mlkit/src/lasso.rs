//! Lasso (L1-penalised least squares) via cyclic coordinate descent.
//!
//! §3.5 of the paper: "we experimented with both L1 penalty (Lasso) and L2
//! penalty (Ridge) … it is preferable to use Ridge regression as its
//! implementation is often faster than Lasso on the same data". This module
//! exists so the repo can reproduce that comparison (the `ablation` bench),
//! and so the Lasso scorer is available as an engine option.
//!
//! Solves `min (1/2n) ‖y − Xβ‖² + λ‖β‖₁` per target column on a
//! standardised design.

use explainit_linalg::Matrix;

use crate::standardize::Standardizer;
use crate::{linear_predict, MlError, Result};

/// A fitted multi-target lasso model.
#[derive(Debug, Clone)]
pub struct LassoModel {
    beta_std: Matrix,
    x_standardizer: Standardizer,
    y_means: Vec<f64>,
    lambda: f64,
}

impl LassoModel {
    /// Fits with penalty `lambda >= 0`, at most `max_iter` full coordinate
    /// sweeps per target, stopping when the largest coefficient update in a
    /// sweep falls below `tol`. `NonFiniteInput` covers non-finite entries
    /// and a column whose mean or std overflows.
    pub fn fit(x: &Matrix, y: &Matrix, lambda: f64, max_iter: usize, tol: f64) -> Result<Self> {
        if x.nrows() != y.nrows() {
            return Err(MlError::RowMismatch { x_rows: x.nrows(), y_rows: y.nrows() });
        }
        if x.nrows() < 2 {
            return Err(MlError::TooFewRows { rows: x.nrows(), needed: 2 });
        }
        if x.has_non_finite() || y.has_non_finite() {
            return Err(MlError::NonFiniteInput);
        }
        assert!(lambda >= 0.0 && lambda.is_finite(), "lambda must be non-negative");
        let x_standardizer = Standardizer::fit_finite(x)?;
        let xs = x_standardizer.transform(x);
        let y_means = y.column_means();
        let (n, p) = xs.shape();
        let nf = n as f64;
        // Precompute column squared norms (constant columns give 0).
        let mut col_sq = vec![0.0; p];
        for i in 0..n {
            let row = xs.row(i);
            for (c, &v) in col_sq.iter_mut().zip(row.iter()) {
                *c += v * v;
            }
        }
        // Columns of xs, contiguous for the inner loops.
        let cols: Vec<Vec<f64>> = (0..p).map(|j| xs.column(j)).collect();

        let mut beta_std = Matrix::zeros(p, y.ncols());
        for t in 0..y.ncols() {
            // Residual starts as centred target.
            let mut resid: Vec<f64> = (0..n).map(|i| y[(i, t)] - y_means[t]).collect();
            let mut beta = vec![0.0; p];
            for _sweep in 0..max_iter {
                let mut max_delta = 0.0f64;
                for j in 0..p {
                    if col_sq[j] <= 0.0 {
                        continue;
                    }
                    let xj = &cols[j];
                    // rho = x_j . (resid + x_j * beta_j)
                    let mut rho = 0.0;
                    for (r, &xv) in resid.iter().zip(xj.iter()) {
                        rho += r * xv;
                    }
                    rho += col_sq[j] * beta[j];
                    // Soft threshold at n * lambda (matching 1/2n loss).
                    let thresh = nf * lambda;
                    let new_beta = soft_threshold(rho, thresh) / col_sq[j];
                    let delta = new_beta - beta[j];
                    if delta != 0.0 {
                        for (r, &xv) in resid.iter_mut().zip(xj.iter()) {
                            *r -= delta * xv;
                        }
                        beta[j] = new_beta;
                        max_delta = max_delta.max(delta.abs());
                    }
                }
                if max_delta < tol {
                    break;
                }
            }
            beta_std.set_column(t, &beta);
        }
        Ok(LassoModel { beta_std, x_standardizer, y_means, lambda })
    }

    /// The penalty this model was fitted with.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Coefficients in standardised design space (`p × m`).
    pub fn coefficients_std(&self) -> &Matrix {
        &self.beta_std
    }

    /// Number of non-zero coefficients (sparsity diagnostic).
    pub fn nonzero_count(&self) -> usize {
        self.beta_std.as_slice().iter().filter(|&&v| v != 0.0).count()
    }

    /// Predicts targets for new rows.
    ///
    /// # Panics
    /// Panics if the column count differs from the training design.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        linear_predict(&self.x_standardizer.transform(x), &self.beta_std, &self.y_means)
    }
}

#[inline]
fn soft_threshold(x: f64, t: f64) -> f64 {
    if x > t {
        x - t
    } else if x < -t {
        x + t
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ridge::r2_columns_mean;

    fn sparse_data(n: usize, p: usize) -> (Matrix, Matrix) {
        // Only features 0 and 3 matter.
        let mut rows = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let row: Vec<f64> =
                (0..p).map(|j| ((i * 131 + j * 733) % 97) as f64 / 97.0 - 0.5).collect();
            let y = 4.0 * row[0] - 3.0 * row[3.min(p - 1)];
            ys.push(y);
            rows.push(row);
        }
        (Matrix::from_rows(&rows), Matrix::column_vector(&ys))
    }

    #[test]
    fn zero_lambda_fits_like_least_squares() {
        let (x, y) = sparse_data(80, 5);
        let m = LassoModel::fit(&x, &y, 0.0, 500, 1e-10).unwrap();
        let pred = m.predict(&x);
        let r2 = r2_columns_mean(&y, &pred, &y.column_means());
        assert!(r2 > 0.999, "r2 = {r2}");
    }

    #[test]
    fn moderate_lambda_recovers_support() {
        let (x, y) = sparse_data(120, 8);
        let m = LassoModel::fit(&x, &y, 0.01, 500, 1e-10).unwrap();
        let beta = m.coefficients_std().column(0);
        // True support {0, 3} should dominate.
        let mag: Vec<f64> = beta.iter().map(|v| v.abs()).collect();
        assert!(mag[0] > 0.1 && mag[3] > 0.1);
        for (j, &v) in mag.iter().enumerate() {
            if j != 0 && j != 3 {
                assert!(v < mag[0] / 5.0, "feature {j} should be small, got {v}");
            }
        }
    }

    #[test]
    fn large_lambda_zeroes_everything() {
        let (x, y) = sparse_data(60, 5);
        let m = LassoModel::fit(&x, &y, 1e6, 100, 1e-10).unwrap();
        assert_eq!(m.nonzero_count(), 0);
    }

    #[test]
    fn sparsity_increases_with_lambda() {
        let (x, y) = sparse_data(100, 10);
        let mut prev = usize::MAX;
        for &l in &[0.0001, 0.01, 0.1, 1.0] {
            let m = LassoModel::fit(&x, &y, l, 500, 1e-10).unwrap();
            let nz = m.nonzero_count();
            assert!(nz <= prev, "non-zeros must not grow with lambda");
            prev = nz;
        }
    }

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(5.0, 2.0), 3.0);
        assert_eq!(soft_threshold(-5.0, 2.0), -3.0);
        assert_eq!(soft_threshold(1.5, 2.0), 0.0);
        assert_eq!(soft_threshold(-1.5, 2.0), 0.0);
    }

    #[test]
    fn constant_feature_skipped() {
        let x = Matrix::from_rows(&[[1.0, 3.0], [2.0, 3.0], [3.0, 3.0], [4.0, 3.0]]);
        let y = Matrix::column_vector(&[1.0, 2.0, 3.0, 4.0]);
        let m = LassoModel::fit(&x, &y, 0.001, 200, 1e-10).unwrap();
        // Constant column must get zero coefficient.
        assert_eq!(m.coefficients_std()[(1, 0)], 0.0);
        let pred = m.predict(&x);
        assert!(!pred.has_non_finite());
    }

    #[test]
    fn error_cases() {
        let x = Matrix::zeros(3, 1);
        let y = Matrix::zeros(2, 1);
        assert!(matches!(LassoModel::fit(&x, &y, 0.1, 10, 1e-8), Err(MlError::RowMismatch { .. })));
    }

    #[test]
    fn multi_target_independent_columns() {
        let (x, y1) = sparse_data(60, 4);
        let zeros = Matrix::zeros(60, 1);
        let y = y1.hcat(&zeros).unwrap();
        let m = LassoModel::fit(&x, &y, 0.01, 300, 1e-10).unwrap();
        // Second target is constant zero -> all zero coefficients.
        for j in 0..4 {
            assert_eq!(m.coefficients_std()[(j, 1)], 0.0);
        }
    }
}
