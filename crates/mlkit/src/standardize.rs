//! Column standardisation (zero mean, unit variance) fitted on training
//! data and applied to held-out data.
//!
//! Ridge and lasso penalties are scale-sensitive, so every penalised fit in
//! the scoring path standardises its design on the training fold only —
//! applying training statistics to the validation fold keeps the
//! cross-validation honest about unseen data.

use explainit_linalg::Matrix;

use crate::{MlError, Result};

/// Per-column centering/scaling parameters learned from a training matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Learns means and (population) standard deviations per column.
    /// Constant columns get `std = 0` and are centred but not scaled.
    pub fn fit(x: &Matrix) -> Self {
        let means = x.column_means();
        let stds = x.column_stds_about(&means);
        Standardizer { means, stds }
    }

    /// [`Standardizer::fit`] for a model about to use it: `NonFiniteInput`
    /// unless every fitted mean and std is finite. Finite values can still
    /// overflow a column's sum or its squared deviations (entries near
    /// `f64::MAX`), and such a column standardises to NaN or to zeros.
    pub(crate) fn fit_finite(x: &Matrix) -> Result<Self> {
        let s = Standardizer::fit(x);
        if s.means.iter().chain(&s.stds).all(|v| v.is_finite()) {
            Ok(s)
        } else {
            Err(MlError::NonFiniteInput)
        }
    }

    /// Column means captured at fit time.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Column standard deviations captured at fit time.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Applies the transform, returning a new matrix.
    ///
    /// # Panics
    /// Panics if the column count differs from the fitted matrix.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.ncols(), self.means.len(), "standardizer column mismatch");
        let mut out = x.clone();
        self.transform_in_place(&mut out);
        out
    }

    /// Applies the transform in place.
    ///
    /// # Panics
    /// Panics if the column count differs from the fitted matrix.
    pub fn transform_in_place(&self, x: &mut Matrix) {
        assert_eq!(x.ncols(), self.means.len(), "standardizer column mismatch");
        x.standardize_columns_in_place(&self.means, &self.stds);
    }

    /// Convenience: fit on `x` and return the transformed copy.
    pub fn fit_transform(x: &Matrix) -> (Self, Matrix) {
        let s = Standardizer::fit(x);
        let t = s.transform(x);
        (s, t)
    }

    /// Undoes the transform for predictions expressed in standardised target
    /// space: `y_raw = y_std * std + mean` column-wise.
    ///
    /// # Panics
    /// Panics if the column count differs from the fitted matrix.
    pub fn inverse_transform_in_place(&self, y: &mut Matrix) {
        assert_eq!(y.ncols(), self.means.len(), "standardizer column mismatch");
        let cols = y.ncols();
        for i in 0..y.nrows() {
            let row = y.row_mut(i);
            for j in 0..cols {
                if self.stds[j] > 0.0 {
                    row[j] *= self.stds[j];
                }
                row[j] += self.means[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_zero_mean_unit_variance() {
        let x = Matrix::from_rows(&[[1.0, 100.0], [2.0, 200.0], [3.0, 300.0]]);
        let (_, t) = Standardizer::fit_transform(&x);
        let means = t.column_means();
        let stds = t.column_stds();
        for j in 0..2 {
            assert!(means[j].abs() < 1e-12);
            assert!((stds[j] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_column_not_scaled() {
        let x = Matrix::from_rows(&[[5.0, 1.0], [5.0, 2.0]]);
        let (s, t) = Standardizer::fit_transform(&x);
        assert_eq!(s.stds()[0], 0.0);
        assert_eq!(t[(0, 0)], 0.0);
        assert_eq!(t[(1, 0)], 0.0);
    }

    #[test]
    fn train_statistics_applied_to_test() {
        let train = Matrix::from_rows(&[[0.0], [2.0]]); // mean 1, std 1
        let s = Standardizer::fit(&train);
        let test = Matrix::from_rows(&[[3.0]]);
        let t = s.transform(&test);
        assert!((t[(0, 0)] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_round_trips() {
        let x = Matrix::from_rows(&[[1.0, -3.0], [4.0, 9.0], [2.5, 0.0]]);
        let (s, mut t) = Standardizer::fit_transform(&x);
        s.inverse_transform_in_place(&mut t);
        for i in 0..3 {
            for j in 0..2 {
                assert!((t[(i, j)] - x[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn rejects_wrong_width() {
        let s = Standardizer::fit(&Matrix::zeros(2, 2));
        s.transform(&Matrix::zeros(2, 3));
    }
}
