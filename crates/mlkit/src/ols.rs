//! Ordinary least squares via Householder QR.
//!
//! Used by the residual-regression conditional-independence procedure
//! (Appendix B) and by the Figure-12 null-distribution experiment. Fits with
//! an intercept by centring both sides, which is algebraically identical to
//! an explicit all-ones column but keeps the design well-conditioned.

use explainit_linalg::{Matrix, QrDecomposition};

use crate::{linear_predict, MlError, Result};

/// A fitted multi-target OLS model.
#[derive(Debug, Clone)]
pub struct OlsModel {
    /// Coefficients, `p × m` (one column per target).
    beta: Matrix,
    /// Intercepts per target.
    intercept: Vec<f64>,
    x_means: Vec<f64>,
}

impl OlsModel {
    /// Fits `Y ≈ X β + b` by least squares.
    ///
    /// Requires `n > p` rows; rank-deficient designs surface as
    /// [`MlError::SolveFailed`].
    pub fn fit(x: &Matrix, y: &Matrix) -> Result<Self> {
        if x.nrows() != y.nrows() {
            return Err(MlError::RowMismatch { x_rows: x.nrows(), y_rows: y.nrows() });
        }
        if x.nrows() <= x.ncols() {
            return Err(MlError::TooFewRows { rows: x.nrows(), needed: x.ncols() + 1 });
        }
        if x.has_non_finite() || y.has_non_finite() {
            return Err(MlError::NonFiniteInput);
        }
        let x_means = x.column_means();
        let y_means = y.column_means();
        let mut xc = x.clone();
        xc.center_columns_in_place(&x_means);
        let mut yc = y.clone();
        yc.center_columns_in_place(&y_means);
        let qr = QrDecomposition::factor(&xc).map_err(|e| MlError::SolveFailed(e.to_string()))?;
        let beta = qr.solve(&yc).map_err(|e| MlError::SolveFailed(e.to_string()))?;
        // intercept_j = mean(y_j) - mean(x) . beta_j
        let mut intercept = Vec::with_capacity(y.ncols());
        for j in 0..y.ncols() {
            let bcol = beta.column(j);
            let dot: f64 = x_means.iter().zip(bcol.iter()).map(|(&m, &b)| m * b).sum();
            intercept.push(y_means[j] - dot);
        }
        Ok(OlsModel { beta, intercept, x_means })
    }

    /// Coefficient matrix (`p × m`).
    pub fn coefficients(&self) -> &Matrix {
        &self.beta
    }

    /// Predicts targets for new rows.
    ///
    /// # Panics
    /// Panics if `x` has a different column count than the training design.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.ncols(), self.x_means.len(), "predict column mismatch");
        linear_predict(x, &self.beta, &self.intercept)
    }

    /// Residuals `Y - Ŷ` (panics unless `y` has the prediction's shape).
    pub fn residuals(&self, x: &Matrix, y: &Matrix) -> Matrix {
        let pred = self.predict(x);
        // invariant: the documented panic, nothing else can fail.
        y.sub(&pred).expect("prediction shape matches target")
    }

    /// In-sample plain r² averaged over target columns.
    pub fn r2_in_sample(&self, x: &Matrix, y: &Matrix) -> f64 {
        let pred = self.predict(x);
        let y_means = y.column_means();
        let mut total = 0.0;
        let mut counted = 0usize;
        for j in 0..y.ncols() {
            let mut rss = 0.0;
            let mut tss = 0.0;
            for i in 0..y.nrows() {
                let e = y[(i, j)] - pred[(i, j)];
                rss += e * e;
                let d = y[(i, j)] - y_means[j];
                tss += d * d;
            }
            if tss > 0.0 {
                total += 1.0 - rss / tss;
                counted += 1;
            }
        }
        if counted == 0 {
            0.0
        } else {
            total / counted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_relationship() {
        // y = 2 x0 - 3 x1 + 5
        let x = Matrix::from_rows(&[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [0.5, 2.0]]);
        let y_vals: Vec<f64> = (0..5).map(|i| 2.0 * x[(i, 0)] - 3.0 * x[(i, 1)] + 5.0).collect();
        let y = Matrix::column_vector(&y_vals);
        let m = OlsModel::fit(&x, &y).unwrap();
        assert!((m.coefficients()[(0, 0)] - 2.0).abs() < 1e-10);
        assert!((m.coefficients()[(1, 0)] + 3.0).abs() < 1e-10);
        assert!((m.intercept[0] - 5.0).abs() < 1e-10);
        assert!((m.r2_in_sample(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn residuals_sum_to_zero_with_intercept() {
        let x = Matrix::from_rows(&[[1.0], [2.0], [3.0], [4.0]]);
        let y = Matrix::column_vector(&[1.1, 1.9, 3.2, 3.8]);
        let m = OlsModel::fit(&x, &y).unwrap();
        let r = m.residuals(&x, &y);
        let s: f64 = r.column(0).iter().sum();
        assert!(s.abs() < 1e-10);
    }

    #[test]
    fn multi_target_fit() {
        let x = Matrix::from_rows(&[[1.0], [2.0], [3.0], [4.0]]);
        // col0 = 2x, col1 = -x + 1
        let y = Matrix::from_rows(&[[2.0, 0.0], [4.0, -1.0], [6.0, -2.0], [8.0, -3.0]]);
        let m = OlsModel::fit(&x, &y).unwrap();
        assert!((m.coefficients()[(0, 0)] - 2.0).abs() < 1e-10);
        assert!((m.coefficients()[(0, 1)] + 1.0).abs() < 1e-10);
        assert!((m.intercept[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn rejects_row_mismatch_and_saturation() {
        let x = Matrix::zeros(3, 1);
        let y = Matrix::zeros(4, 1);
        assert!(matches!(OlsModel::fit(&x, &y), Err(MlError::RowMismatch { .. })));
        let x = Matrix::zeros(2, 2);
        let y = Matrix::zeros(2, 1);
        assert!(matches!(OlsModel::fit(&x, &y), Err(MlError::TooFewRows { .. })));
    }

    #[test]
    fn rejects_non_finite() {
        let mut x = Matrix::zeros(4, 1);
        x[(1, 0)] = f64::NAN;
        let y = Matrix::zeros(4, 1);
        assert!(matches!(OlsModel::fit(&x, &y), Err(MlError::NonFiniteInput)));
    }

    #[test]
    fn collinear_design_fails_cleanly() {
        // Second column is a multiple of the first.
        let x = Matrix::from_rows(&[[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]]);
        let y = Matrix::column_vector(&[1.0, 2.0, 3.0, 4.0]);
        assert!(matches!(OlsModel::fit(&x, &y), Err(MlError::SolveFailed(_))));
    }

    #[test]
    fn constant_target_r2_zero() {
        let x = Matrix::from_rows(&[[1.0], [2.0], [3.0]]);
        let y = Matrix::column_vector(&[7.0, 7.0, 7.0]);
        let m = OlsModel::fit(&x, &y).unwrap();
        assert_eq!(m.r2_in_sample(&x, &y), 0.0);
    }
}
