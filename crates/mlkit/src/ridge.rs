//! Multi-target ridge regression, closed form.
//!
//! The paper's joint scorer ("L2") fits `min ‖Y − Xβ‖² + λ‖β‖²`. Two solve
//! paths are provided and selected automatically by shape:
//!
//! * **primal** — factor `X^T X + λI` (p × p) when `p <= n`;
//! * **dual / kernel** — `β = X^T (X X^T + λI)^{-1} Y` (n × n) when
//!   `p > n`, the common regime for the paper's big feature families
//!   (F up to 80 000 with T ≈ 1 440–2 880 minutes).
//!
//! Fits centre X and Y (intercept handling) and standardise X columns so the
//! penalty treats features symmetrically, matching scikit-learn's
//! `Ridge(normalize=...)`-era behaviour the paper relied on.

use explainit_linalg::{Cholesky, LinalgError, Matrix};

use crate::standardize::Standardizer;
use crate::{linear_predict, MlError, Result};

fn solve_failed(e: LinalgError) -> MlError {
    MlError::SolveFailed(e.to_string())
}

/// The half of a ridge fit that depends on neither λ nor the target: the
/// standardised training rows and their Gram matrix (`X^T X`, or `X X^T` on
/// the dual path). One design serves every penalty of §3.5's grid (one
/// factorisation each) and every target regressed on it (one solve each).
#[derive(Debug, Clone)]
pub(crate) struct RidgeDesign {
    xs: Matrix,
    /// The training rows' standardisation, to apply to held-out rows.
    pub(crate) x_standardizer: Standardizer,
    gram: Matrix,
    primal: bool,
}

impl RidgeDesign {
    /// Standardises the (finite) training rows `x` and forms their Gram;
    /// `NonFiniteInput` when a column's mean or std overflows.
    pub(crate) fn new(mut x: Matrix) -> Result<Self> {
        let x_standardizer = Standardizer::fit_finite(&x)?;
        x_standardizer.transform_in_place(&mut x);
        let primal = x.ncols() <= x.nrows();
        let gram = if primal { x.xtx() } else { x.xxt() };
        Ok(RidgeDesign { xs: x, x_standardizer, gram, primal })
    }

    /// The target's side of the normal equations for centred targets `yc`:
    /// `X^T Y` (primal) or `Y` itself (dual).
    pub(crate) fn rhs(&self, yc: &Matrix) -> Result<Matrix> {
        if self.primal {
            self.xs.xt_mul(yc).map_err(solve_failed)
        } else {
            Ok(yc.clone())
        }
    }

    /// Factors `gram + λI`.
    pub(crate) fn factor(&self, lambda: f64) -> Result<Cholesky> {
        let mut g = self.gram.clone();
        g.add_diagonal(if self.primal { lambda.max(0.0) } else { lambda.max(1e-12) });
        Cholesky::factor(&g).map_err(solve_failed)
    }

    /// Coefficients in standardised design space (`p × m`) from one factor
    /// and one [`RidgeDesign::rhs`].
    pub(crate) fn coefficients(&self, chol: &Cholesky, rhs: &Matrix) -> Result<Matrix> {
        let solved = chol.solve(rhs).map_err(solve_failed)?;
        if self.primal {
            Ok(solved)
        } else {
            self.xs.xt_mul(&solved).map_err(solve_failed)
        }
    }
}

/// A [`RidgeDesign`] factored at one penalty: regresses any number of
/// targets on the same rows — one `xt_mul`, one solve and one product each,
/// no refit. §3.5's conditioner (one Z under Y and every X) is one.
#[derive(Debug, Clone)]
pub struct FactoredRidge {
    design: RidgeDesign,
    chol: Cholesky,
}

impl FactoredRidge {
    /// Standardises `x` and factors its Gram at `lambda`: finite and
    /// non-negative, or this panics; `0` may fail with
    /// [`MlError::SolveFailed`] on a singular design.
    pub fn new(x: &Matrix, lambda: f64) -> Result<Self> {
        if x.nrows() < 2 {
            return Err(MlError::TooFewRows { rows: x.nrows(), needed: 2 });
        }
        if x.has_non_finite() {
            return Err(MlError::NonFiniteInput);
        }
        assert!(lambda >= 0.0 && lambda.is_finite(), "lambda must be non-negative");
        let design = RidgeDesign::new(x.clone())?;
        let chol = design.factor(lambda)?;
        Ok(FactoredRidge { design, chol })
    }

    /// Coefficients and target means for `y` on the factored rows.
    fn solve(&self, y: &Matrix) -> Result<(Matrix, Vec<f64>)> {
        if self.design.xs.nrows() != y.nrows() {
            return Err(MlError::RowMismatch { x_rows: self.design.xs.nrows(), y_rows: y.nrows() });
        }
        if y.has_non_finite() {
            return Err(MlError::NonFiniteInput);
        }
        let y_means = y.column_means();
        let mut yc = y.clone();
        yc.center_columns_in_place(&y_means);
        let beta_std = self.design.coefficients(&self.chol, &self.design.rhs(&yc)?)?;
        Ok((beta_std, y_means))
    }

    /// Residuals `Y − Ŷ` of `y` on the factored rows themselves.
    pub fn residuals(&self, y: &Matrix) -> Result<Matrix> {
        let (beta_std, y_means) = self.solve(y)?;
        y.sub(&linear_predict(&self.design.xs, &beta_std, &y_means)).map_err(solve_failed)
    }
}

/// A fitted multi-target ridge model.
#[derive(Debug, Clone)]
pub struct RidgeModel {
    /// Coefficients in the *standardised* design space, `p × m`.
    beta_std: Matrix,
    /// Standardiser for the design.
    x_standardizer: Standardizer,
    /// Target column means (intercept in standardised space).
    y_means: Vec<f64>,
    lambda: f64,
}

impl RidgeModel {
    /// Fits ridge regression with penalty `lambda >= 0`: a
    /// [`FactoredRidge`] (which see) solved for its one target.
    pub fn fit(x: &Matrix, y: &Matrix, lambda: f64) -> Result<Self> {
        let factored = FactoredRidge::new(x, lambda)?;
        let (beta_std, y_means) = factored.solve(y)?;
        Ok(RidgeModel { beta_std, x_standardizer: factored.design.x_standardizer, y_means, lambda })
    }

    /// The penalty this model was fitted with.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Coefficients in standardised design space (`p × m`).
    pub fn coefficients_std(&self) -> &Matrix {
        &self.beta_std
    }

    /// Squared Frobenius norm of the coefficients — used by tests to verify
    /// shrinkage monotonicity in λ.
    pub fn coefficient_norm_sq(&self) -> f64 {
        let f = self.beta_std.frobenius_norm();
        f * f
    }

    /// Predicts targets for new rows.
    ///
    /// # Panics
    /// Panics if the column count differs from the training design.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        linear_predict(&self.x_standardizer.transform(x), &self.beta_std, &self.y_means)
    }

    /// Residuals `Y - Ŷ` (panics unless `y` has the prediction's shape).
    pub fn residuals(&self, x: &Matrix, y: &Matrix) -> Matrix {
        // invariant: the documented panic, nothing else can fail.
        y.sub(&self.predict(x)).expect("prediction shape matches target")
    }

    /// Out-of-sample r² on held-out data, averaged over target columns.
    ///
    /// `baseline_means` are the *training* target means (§3.5: the baseline
    /// model predicts the training mean). Columns whose held-out variance is
    /// zero are skipped.
    pub fn r2_out_of_sample(&self, x: &Matrix, y: &Matrix, baseline_means: &[f64]) -> f64 {
        let pred = self.predict(x);
        r2_columns_mean(y, &pred, baseline_means)
    }
}

/// Mean r² over target columns: `1 - RSS_j / TSS_j` with TSS around
/// `baseline_means[j]`; degenerate columns (TSS = 0) are skipped. Returns 0
/// when every column is degenerate.
pub fn r2_columns_mean(y: &Matrix, pred: &Matrix, baseline_means: &[f64]) -> f64 {
    assert_eq!(y.shape(), pred.shape(), "r2 shape mismatch");
    assert_eq!(y.ncols(), baseline_means.len(), "baseline length mismatch");
    let mut total = 0.0;
    let mut counted = 0usize;
    for j in 0..y.ncols() {
        let mut rss = 0.0;
        let mut tss = 0.0;
        for i in 0..y.nrows() {
            let e = y[(i, j)] - pred[(i, j)];
            rss += e * e;
            let d = y[(i, j)] - baseline_means[j];
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

/// [`r2_columns_mean`] of the prediction `x · beta + intercept` against `y`
/// with the baseline at `intercept`, given `tss`, the baseline's squared
/// deviations (`y.column_squared_deviations(intercept)`, which do not
/// depend on `beta`). The same bits without storing the prediction: one
/// pass of [`Matrix::residual_sum_squares`] forms each row in registers and
/// adds its squared errors.
///
/// # Panics
/// Panics unless `x` is `n × p`, `beta` `p × m`, `y` `n × m`, and
/// `intercept` and `tss` are `m` long.
pub fn r2_held_out(x: &Matrix, beta: &Matrix, intercept: &[f64], y: &Matrix, tss: &[f64]) -> f64 {
    // invariant: the documented panic, nothing else can fail.
    let rss = x.residual_sum_squares(beta, intercept, y).expect("prediction shape matches target");
    assert_eq!(tss.len(), rss.len(), "tss length mismatch");
    let mut total = 0.0;
    let mut counted = 0usize;
    for (&rss, &tss) in rss.iter().zip(tss) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data(n: usize) -> (Matrix, Matrix) {
        // y = 3 x0 - 2 x1 + 1 with deterministic pseudo-noise.
        let mut rows = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i as f64 * 0.7).sin();
            let b = (i as f64 * 0.3).cos();
            rows.push([a, b]);
            ys.push(3.0 * a - 2.0 * b + 1.0 + 0.01 * ((i * 7919 % 13) as f64 - 6.0));
        }
        (Matrix::from_rows(&rows), Matrix::column_vector(&ys))
    }

    #[test]
    fn small_lambda_recovers_signal() {
        let (x, y) = linear_data(200);
        let m = RidgeModel::fit(&x, &y, 1e-6).unwrap();
        let pred = m.predict(&x);
        let r2 = r2_columns_mean(&y, &pred, &y.column_means());
        assert!(r2 > 0.999, "r2 = {r2}");
    }

    #[test]
    fn shrinkage_monotone_in_lambda() {
        let (x, y) = linear_data(100);
        let mut prev = f64::INFINITY;
        for &l in &[0.01, 0.1, 1.0, 10.0, 100.0, 1000.0] {
            let m = RidgeModel::fit(&x, &y, l).unwrap();
            let norm = m.coefficient_norm_sq();
            assert!(norm <= prev + 1e-9, "norm must shrink with lambda");
            prev = norm;
        }
    }

    #[test]
    fn huge_lambda_predicts_mean() {
        let (x, y) = linear_data(100);
        let m = RidgeModel::fit(&x, &y, 1e12).unwrap();
        let pred = m.predict(&x);
        let ymean = y.column_means()[0];
        for i in 0..pred.nrows() {
            assert!((pred[(i, 0)] - ymean).abs() < 1e-3);
        }
    }

    #[test]
    fn dual_path_matches_primal() {
        // p > n triggers the kernel path; verify it agrees with the primal
        // path on a square-ish problem by comparing predictions.
        let x_tall = Matrix::from_rows(&[
            [1.0, 0.2, -0.5],
            [0.3, -1.0, 0.8],
            [-0.7, 0.5, 0.1],
            [0.9, -0.3, -0.9],
            [0.0, 1.0, 0.4],
        ]);
        let y = Matrix::column_vector(&[1.0, -0.5, 0.2, 0.8, -0.1]);
        let primal = RidgeModel::fit(&x_tall, &y, 0.5).unwrap();
        // Wide version: transpose roles by padding with zero columns so p>n.
        let x_wide = x_tall.hcat(&Matrix::zeros(5, 10)).unwrap();
        let dual = RidgeModel::fit(&x_wide, &y, 0.5).unwrap();
        let p1 = primal.predict(&x_tall);
        let p2 = dual.predict(&x_wide);
        for i in 0..5 {
            assert!((p1[(i, 0)] - p2[(i, 0)]).abs() < 1e-8, "row {i}");
        }
    }

    #[test]
    fn p_much_larger_than_n_is_stable() {
        // 10 rows, 200 features; must not error and must shrink sensibly.
        let mut rows = Vec::new();
        for i in 0..10 {
            let row: Vec<f64> =
                (0..200).map(|j| ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5).collect();
            rows.push(row);
        }
        let x = Matrix::from_rows(&rows);
        let y = Matrix::column_vector(&(0..10).map(|i| i as f64).collect::<Vec<_>>());
        let m = RidgeModel::fit(&x, &y, 1.0).unwrap();
        let pred = m.predict(&x);
        assert!(!pred.has_non_finite());
    }

    #[test]
    fn constant_feature_is_harmless() {
        let x = Matrix::from_rows(&[[1.0, 7.0], [2.0, 7.0], [3.0, 7.0], [4.0, 7.0]]);
        let y = Matrix::column_vector(&[2.0, 4.0, 6.0, 8.0]);
        let m = RidgeModel::fit(&x, &y, 1e-6).unwrap();
        let pred = m.predict(&x);
        for i in 0..4 {
            assert!((pred[(i, 0)] - y[(i, 0)]).abs() < 1e-4);
        }
    }

    #[test]
    fn multi_target_prediction_shapes() {
        let (x, y1) = linear_data(50);
        let y = y1.hcat(&y1).unwrap();
        let m = RidgeModel::fit(&x, &y, 0.1).unwrap();
        let pred = m.predict(&x);
        assert_eq!(pred.shape(), (50, 2));
        // Identical targets get identical predictions.
        for i in 0..50 {
            assert!((pred[(i, 0)] - pred[(i, 1)]).abs() < 1e-10);
        }
    }

    #[test]
    fn error_cases() {
        let x = Matrix::zeros(3, 2);
        let y = Matrix::zeros(4, 1);
        assert!(matches!(RidgeModel::fit(&x, &y, 1.0), Err(MlError::RowMismatch { .. })));
        let x = Matrix::zeros(1, 2);
        let y = Matrix::zeros(1, 1);
        assert!(matches!(RidgeModel::fit(&x, &y, 1.0), Err(MlError::TooFewRows { .. })));
        let mut x = Matrix::zeros(4, 2);
        x[(0, 0)] = f64::INFINITY;
        let y = Matrix::zeros(4, 1);
        assert!(matches!(RidgeModel::fit(&x, &y, 1.0), Err(MlError::NonFiniteInput)));
    }

    #[test]
    fn precomputed_fit_matches_direct_fit() {
        let (x, y) = linear_data(80);
        let pre = |x: &Matrix, l: f64| {
            let y_means = y.column_means();
            let mut yc = y.clone();
            yc.center_columns_in_place(&y_means);
            let design = RidgeDesign::new(x.clone()).unwrap();
            let mut xs = x.clone();
            design.x_standardizer.transform_in_place(&mut xs);
            let rhs = design.rhs(&yc).unwrap();
            let beta = design.coefficients(&design.factor(l).unwrap(), &rhs).unwrap();
            linear_predict(&xs, &beta, &y_means)
        };
        for &l in &[0.01, 1.0, 100.0] {
            let pa = pre(&x, l);
            let b = RidgeModel::fit(&x, &y, l).unwrap();
            let pb = b.predict(&x);
            for i in 0..x.nrows() {
                assert!((pa[(i, 0)] - pb[(i, 0)]).abs() < 1e-10, "λ={l} row {i}");
            }
        }
        // Dual path equivalence too.
        let x_wide = x.hcat(&Matrix::zeros(80, 100)).unwrap();
        let pa = pre(&x_wide, 0.5);
        let b = RidgeModel::fit(&x_wide, &y, 0.5).unwrap();
        let pb = b.predict(&x_wide);
        for i in 0..80 {
            assert!((pa[(i, 0)] - pb[(i, 0)]).abs() < 1e-9);
        }
    }

    #[test]
    fn out_of_sample_r2_uses_training_baseline() {
        let (x, y) = linear_data(120);
        let x_train = x.row_range(0, 100);
        let y_train = y.row_range(0, 100);
        let x_test = x.row_range(100, 120);
        let y_test = y.row_range(100, 120);
        let m = RidgeModel::fit(&x_train, &y_train, 0.01).unwrap();
        let r2 = m.r2_out_of_sample(&x_test, &y_test, &y_train.column_means());
        assert!(r2 > 0.99, "r2 = {r2}");
    }
}
