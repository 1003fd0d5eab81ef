//! Cholesky factorisation of symmetric positive definite matrices.
//!
//! Ridge regression solves `(X^T X + λI) β = X^T Y`; the left-hand side is
//! SPD for any λ > 0, so Cholesky is both the fastest and the numerically
//! appropriate factorisation for the ExplainIt! scoring path.

use crate::{LinalgError, Matrix, Result};

/// Lower-triangular Cholesky factor `L` with `A = L L^T`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorises a symmetric positive definite matrix.
    ///
    /// Only the lower triangle of `a` is read. Returns
    /// [`LinalgError::NotPositiveDefinite`] when a pivot drops below the
    /// scaled tolerance or is NaN, which callers treat as "add more ridge".
    pub fn factor(a: &Matrix) -> Result<Self> {
        let (n, m) = a.shape();
        if n != m {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let scale = a.max_abs().max(1.0);
        let tol = scale * 1e-14;
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            // Diagonal element.
            let mut d = a[(j, j)];
            for k in 0..j {
                let v = l[(j, k)];
                d -= v * v;
            }
            // `d <= tol` alone is false for a NaN pivot (and `max_abs`
            // skips NaN, so `tol` is finite): reject it too.
            if d.is_nan() || d <= tol {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            // Column below the diagonal.
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Borrows the lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` for a single right-hand side.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.nrows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Forward substitution: L y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            let mut s = y[i];
            for k in 0..i {
                s -= self.l[(i, k)] * y[k];
            }
            y[i] = s / self.l[(i, i)];
        }
        // Back substitution: L^T x = y.
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= self.l[(k, i)] * y[k];
            }
            y[i] = s / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Solves `A X = B` for a multi-column right-hand side.
    ///
    /// Multi-target regression (family-vs-family scoring in the paper) solves
    /// once per target column against a single factorisation.
    pub fn solve(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.l.nrows();
        if b.nrows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.ncols());
        let mut col = vec![0.0; n];
        for j in 0..b.ncols() {
            for i in 0..n {
                col[i] = b[(i, j)];
            }
            let x = self.solve_vec(&col)?;
            out.set_column(j, &x);
        }
        Ok(out)
    }

    /// Inverse of `A` computed column by column. Prefer [`Cholesky::solve`]
    /// when only products with the inverse are needed.
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.l.nrows();
        self.solve(&Matrix::identity(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_3x3() -> Matrix {
        // A = B^T B + I for B random-ish constants ensures SPD.
        Matrix::from_rows(&[[4.0, 2.0, 0.6], [2.0, 5.0, 1.0], [0.6, 1.0, 3.0]])
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd_3x3();
        let c = Cholesky::factor(&a).unwrap();
        let recon = c.l().matmul(&c.l().transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-10, "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn solve_vec_matches_known_solution() {
        let a = spd_3x3();
        let c = Cholesky::factor(&a).unwrap();
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = c.solve_vec(&b).unwrap();
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_multi_rhs() {
        let a = spd_3x3();
        let c = Cholesky::factor(&a).unwrap();
        let b = Matrix::from_rows(&[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]);
        let x = c.solve(&b).unwrap();
        let back = a.matmul(&x).unwrap();
        for i in 0..3 {
            for j in 0..2 {
                assert!((back[(i, j)] - b[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[[1.0, 2.0], [2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(Cholesky::factor(&a), Err(LinalgError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn rejects_nan_pivots() {
        let a = Matrix::from_rows(&[[f64::NAN]]);
        assert!(matches!(Cholesky::factor(&a), Err(LinalgError::NotPositiveDefinite { pivot: 0 })));
        // A NaN below the diagonal reaches the second pivot through `l[1][0]`.
        let a = Matrix::from_rows(&[[2.0, f64::NAN], [f64::NAN, 3.0]]);
        assert!(matches!(Cholesky::factor(&a), Err(LinalgError::NotPositiveDefinite { pivot: 1 })));
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(Cholesky::factor(&Matrix::zeros(2, 3)).is_err());
        assert!(matches!(Cholesky::factor(&Matrix::zeros(0, 0)), Err(LinalgError::Empty)));
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd_3x3();
        let inv = Cholesky::factor(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-9);
            }
        }
    }
}
