//! Gaussian random projections (§4.2, "Random projections").
//!
//! The paper projects feature matrices whose dimensionality exceeds `d` into
//! a `d`-dimensional space using a matrix of i.i.d. standard normal entries,
//! then runs the penalised regression there. Projections are resampled per
//! score and the paper averages three scores; the scorer in
//! `explainit-core` handles the averaging, this module provides one
//! projection.
//!
//! Note on the paper's notation: the text writes `P_d` as `T × d`, but
//! `X P_d` with `X : T × n_x` requires `n_x × d` — the cost formula in
//! Table 2 (`O(kLTd(n_x + …))`) and the scikit-learn implementation the
//! authors used both correspond to the feature-space projection implemented
//! here. See DESIGN.md §7.

use explainit_linalg::Matrix;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A sampled Gaussian projection from `in_dim` to `out_dim` dimensions.
#[derive(Debug, Clone)]
pub struct GaussianProjection {
    matrix: Matrix,
}

impl GaussianProjection {
    /// Samples a projection with entries `N(0, 1/out_dim)` (the `1/√d`
    /// scaling keeps squared norms approximately preserved, per
    /// Johnson–Lindenstrauss).
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn sample(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "projection dims must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let scale = 1.0 / (out_dim as f64).sqrt();
        let mut m = Matrix::zeros(in_dim, out_dim);
        for i in 0..in_dim {
            let row = m.row_mut(i);
            for v in row.iter_mut() {
                *v = sample_standard_normal(&mut rng) * scale;
            }
        }
        GaussianProjection { matrix: m }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.matrix.nrows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.matrix.ncols()
    }

    /// Projects a `T × in_dim` matrix to `T × out_dim`.
    ///
    /// # Panics
    /// Panics if `x.ncols() != in_dim`.
    pub fn project(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.ncols(), self.in_dim(), "projection input width mismatch");
        // invariant: the assert above is matmul's only shape requirement.
        x.matmul(&self.matrix).expect("shape checked")
    }
}

/// Projects only when the width exceeds `d` (the paper's rule: identity for
/// matrices already at or below the target dimension). Returns the original
/// matrix clone when no projection is needed.
pub fn project_if_wide(x: &Matrix, d: usize, seed: u64) -> Matrix {
    if x.ncols() <= d {
        x.clone()
    } else {
        GaussianProjection::sample(x.ncols(), d, seed).project(x)
    }
}

/// Box–Muller standard normal sampler (keeps us off rand_distr, which is not
/// in the approved dependency set).
pub(crate) fn sample_standard_normal<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_shape() {
        let p = GaussianProjection::sample(100, 10, 42);
        assert_eq!(p.in_dim(), 100);
        assert_eq!(p.out_dim(), 10);
        let x = Matrix::filled(20, 100, 1.0);
        assert_eq!(p.project(&x).shape(), (20, 10));
    }

    #[test]
    fn identity_when_narrow() {
        let x = Matrix::filled(5, 8, 2.0);
        let out = project_if_wide(&x, 10, 1);
        assert_eq!(out, x);
    }

    #[test]
    fn projects_when_wide() {
        let x = Matrix::filled(5, 50, 1.0);
        let out = project_if_wide(&x, 10, 1);
        assert_eq!(out.shape(), (5, 10));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = GaussianProjection::sample(20, 5, 7);
        let b = GaussianProjection::sample(20, 5, 7);
        assert_eq!(a.project(&Matrix::identity(20)), b.project(&Matrix::identity(20)));
        let c = GaussianProjection::sample(20, 5, 8);
        assert_ne!(a.project(&Matrix::identity(20)), c.project(&Matrix::identity(20)));
    }

    #[test]
    fn approximately_preserves_norms() {
        // JL property: squared norm preserved in expectation.
        let n = 2000;
        let d = 400;
        let x = {
            let mut m = Matrix::zeros(1, n);
            for j in 0..n {
                m[(0, j)] = ((j % 7) as f64) - 3.0;
            }
            m
        };
        let orig_norm = x.frobenius_norm();
        let mut ratios = Vec::new();
        for seed in 0..5 {
            let p = GaussianProjection::sample(n, d, seed);
            let y = p.project(&x);
            ratios.push(y.frobenius_norm() / orig_norm);
        }
        let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!((mean_ratio - 1.0).abs() < 0.15, "mean ratio {mean_ratio}");
    }

    #[test]
    fn normal_sampler_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(123);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
