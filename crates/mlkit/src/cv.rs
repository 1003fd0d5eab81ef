//! Time-series-aware k-fold cross-validation with penalty grid search.
//!
//! §3.5 of the paper: *"we use k-fold cross-validation for model selection
//! (with k = 5), which ensures that the r² score is an estimate of the model
//! performance on unseen data … Since we are dealing with time series data
//! that has rich auto-correlation, we ensure that the validation set's time
//! range does not overlap the training set's time range."*
//!
//! [`TimeSeriesSplit`] partitions the row range into `k` *contiguous* blocks
//! — each validation fold is one block, training is the remaining rows — so
//! validation timestamps never interleave with training timestamps.
//! The protocol — for every penalty in the grid, fit on each training fold,
//! score out-of-sample r² on the held-out block against the training-mean
//! baseline, report the best grid point's mean — is split by what the work
//! depends on. Per target ([`CvTarget::prepare`], once per ranking): each
//! fold's held-out rows, training means (which *are* the baseline), the
//! held-out rows' squared deviations from them (the r²'s denominators) and
//! centred training rows. Per candidate and fold ([`CvTarget::score`]): the
//! standardised training and validation blocks, the Gram and `XᵀY`. Per λ: a
//! factorisation, a solve, and one pass over the held-out rows that forms
//! each prediction row in registers and adds up its squared errors
//! ([`crate::ridge::r2_held_out`], for ridge and lasso alike — the
//! prediction is never stored). Sharing never changes the
//! arithmetic: every accumulator sees the same terms in the same order as an
//! unshared (λ, fold) loop of plain fits, so scores match it bit for bit
//! (`tests/proptests.rs` holds that oracle).

use explainit_linalg::Matrix;

use crate::lasso::LassoModel;
use crate::ridge::{r2_held_out, RidgeDesign};
use crate::standardize::Standardizer;
use crate::{MlError, Result};

/// Which penalised model the grid search fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PenaltyKind {
    /// Ridge (L2) — the paper's recommended default.
    #[default]
    Ridge,
    /// Lasso (L1) — slower; kept for the paper's Ridge-vs-Lasso comparison.
    Lasso,
}

/// Cross-validation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CvConfig {
    /// Number of contiguous folds (the paper uses 5).
    pub k_folds: usize,
    /// Penalty grid (the paper grid-searches over a handful of values).
    pub lambda_grid: Vec<f64>,
    /// Ridge or Lasso.
    pub penalty: PenaltyKind,
}

impl Default for CvConfig {
    fn default() -> Self {
        CvConfig {
            k_folds: 5,
            // Log-spaced grid; Figure 13 shows CV selecting very large λ
            // under the null, so the grid must reach high.
            lambda_grid: vec![1e-1, 1e1, 1e3, 1e5, 1e7],
            penalty: PenaltyKind::Ridge,
        }
    }
}

/// The outcome of a cross-validated fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CvScore {
    /// Mean out-of-sample r² at the best grid point (can be negative; the
    /// engine clamps to `[0, 1]` when ranking).
    pub r2: f64,
    /// The penalty selected by the grid search.
    pub best_lambda: f64,
}

/// Contiguous-block splitter for time-ordered rows.
#[derive(Debug, Clone, Copy)]
pub struct TimeSeriesSplit {
    n: usize,
    k: usize,
}

impl TimeSeriesSplit {
    /// Creates a splitter over `n` rows with `k` folds.
    ///
    /// # Panics
    /// Panics if `k < 2` or `n < 2k` (each fold needs at least two rows to
    /// carry any variance signal).
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k >= 2, "need at least 2 folds");
        assert!(n >= 2 * k, "need at least {} rows for {k} folds, got {n}", 2 * k);
        TimeSeriesSplit { n, k }
    }

    /// Number of folds.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The half-open row range of validation fold `fold`.
    ///
    /// # Panics
    /// Panics if `fold >= k`.
    pub fn validation_range(&self, fold: usize) -> (usize, usize) {
        assert!(fold < self.k, "fold {fold} out of range");
        let base = self.n / self.k;
        let rem = self.n % self.k;
        // First `rem` folds get one extra row.
        let start = fold * base + fold.min(rem);
        let len = base + usize::from(fold < rem);
        (start, start + len)
    }

    /// Training row indices for `fold` (everything outside the validation
    /// block, order preserved).
    pub fn training_indices(&self, fold: usize) -> Vec<usize> {
        let (vs, ve) = self.validation_range(fold);
        (0..vs).chain(ve..self.n).collect()
    }
}

/// The target's half of the protocol: nothing in it depends on X.
#[derive(Debug, Clone)]
pub struct CvTarget {
    cfg: CvConfig,
    rows: usize,
    folds: Vec<TargetFold>,
}

#[derive(Debug, Clone)]
struct TargetFold {
    /// Half-open validation row range, and the target's rows in it.
    val: (usize, usize),
    y_val: Matrix,
    /// Training-row target means: the intercept of ridge and lasso alike
    /// *and* the baseline model the held-out r² is measured against.
    y_means: Vec<f64>,
    /// The held-out rows' squared deviations from that baseline (the r²'s
    /// denominators, the same for every candidate and λ).
    tss: Vec<f64>,
    /// Training-row targets — centred for ridge (the solve's right-hand
    /// side), raw for lasso (whose fit centres internally).
    y_train: Matrix,
}

impl CvTarget {
    /// Checks `cfg` (settable values end in an error, not a panic inside a
    /// scoring worker) and `y`, then slices, averages and centres its folds
    /// (`NonFiniteInput` if a fold's mean overflows).
    pub fn prepare(y: &Matrix, cfg: &CvConfig) -> Result<Self> {
        let bad_lambda = |l: &f64| !(*l >= 0.0 && l.is_finite());
        if cfg.k_folds < 2 || cfg.lambda_grid.is_empty() || cfg.lambda_grid.iter().any(bad_lambda) {
            let what = format!("need k_folds >= 2 and a grid of finite lambdas >= 0, got {cfg:?}");
            return Err(MlError::InvalidConfig { what });
        }
        let rows = y.nrows();
        if rows < 2 * cfg.k_folds {
            return Err(MlError::TooFewRows { rows, needed: 2 * cfg.k_folds });
        }
        if y.has_non_finite() {
            return Err(MlError::NonFiniteInput);
        }
        let split = TimeSeriesSplit::new(rows, cfg.k_folds);
        let folds = (0..cfg.k_folds)
            .map(|f| {
                let val = split.validation_range(f);
                let mut y_train = y.without_row_range(val.0, val.1);
                let y_means = y_train.column_means();
                if y_means.iter().any(|m| !m.is_finite()) {
                    return Err(MlError::NonFiniteInput);
                }
                if cfg.penalty == PenaltyKind::Ridge {
                    y_train.center_columns_in_place(&y_means);
                }
                let y_val = y.row_range(val.0, val.1);
                let tss = y_val.column_squared_deviations(&y_means);
                Ok(TargetFold { val, y_val, y_means, tss, y_train })
            })
            .collect::<Result<_>>()?;
        Ok(CvTarget { cfg: cfg.clone(), rows, folds })
    }

    /// The best grid point's mean out-of-sample r² for design `x`. A fold
    /// whose fit fails (e.g. singular with λ = 0) counts as r² = 0 rather than
    /// aborting the hypothesis — one degenerate block of a long time range
    /// should not zero out the entire score. Input no fit can use is an
    /// error instead: a non-finite entry, or a fold whose column means or
    /// stds overflow (`NonFiniteInput`).
    pub fn score(&self, x: &Matrix) -> Result<CvScore> {
        if x.nrows() != self.rows {
            return Err(MlError::RowMismatch { x_rows: x.nrows(), y_rows: self.rows });
        }
        if x.has_non_finite() {
            return Err(MlError::NonFiniteInput);
        }
        let grid = &self.cfg.lambda_grid;
        // Fold-outer, λ-inner; each λ's sum still adds its folds in order.
        let mut sums = vec![0.0; grid.len()];
        for fold in &self.folds {
            let x_train = x.without_row_range(fold.val.0, fold.val.1);
            let mut x_val = x.row_range(fold.val.0, fold.val.1);
            // Both penalties predict standardised held-out rows from
            // standardised coefficients plus the training means, and score
            // that in one pass: `r2_columns_mean(y_val, x_val · β + y_means,
            // y_means)` without storing the prediction. The paper's score
            // lives in [0, 1] ("percent variance explained"); clamp per fold
            // so one catastrophic extrapolation fold (negative r² of large
            // magnitude, e.g. collinear features whose cancellation breaks
            // out of fold) reads as "no evidence" rather than vetoing the
            // other folds.
            let add = |sum: &mut f64, x_val: &Matrix, beta: Option<&Matrix>| {
                let r2 = |b| r2_held_out(x_val, b, &fold.y_means, &fold.y_val, &fold.tss);
                *sum += beta.map_or(0.0, r2).clamp(0.0, 1.0);
            };
            match self.cfg.penalty {
                PenaltyKind::Ridge => {
                    let design = RidgeDesign::new(x_train)?;
                    design.x_standardizer.transform_in_place(&mut x_val);
                    let rhs = design.rhs(&fold.y_train)?;
                    for (sum, &l) in sums.iter_mut().zip(grid) {
                        let beta = design.factor(l).and_then(|c| design.coefficients(&c, &rhs));
                        add(sum, &x_val, beta.as_ref().ok());
                    }
                }
                PenaltyKind::Lasso => {
                    // Every λ's fit standardises the same training rows the
                    // same way, so the held-out rows take that transform
                    // once. On finite rows a lasso fit fails only on
                    // overflowing column statistics: the hypothesis's
                    // error, not a 0.
                    Standardizer::fit_finite(&x_train)?.transform_in_place(&mut x_val);
                    for (sum, &l) in sums.iter_mut().zip(grid) {
                        let model = LassoModel::fit(&x_train, &fold.y_train, l, 200, 1e-7)?;
                        add(sum, &x_val, Some(model.coefficients_std()));
                    }
                }
            }
        }
        let mut best: Option<CvScore> = None;
        for (&lambda, sum) in grid.iter().zip(sums) {
            let mean = sum / self.cfg.k_folds as f64;
            if best.is_none_or(|b| mean > b.r2) {
                best = Some(CvScore { r2: mean, best_lambda: lambda });
            }
        }
        // invariant: `prepare` rejected an empty grid, so the loop ran.
        Ok(best.expect("non-empty grid produces a score"))
    }
}

/// Runs the paper's scoring protocol on `(X, Y)` and returns the best
/// cross-validated r²: prepares the target from `y`, scores `x` against it.
pub fn cross_validated_r2(x: &Matrix, y: &Matrix, cfg: &CvConfig) -> Result<CvScore> {
    CvTarget::prepare(y, cfg)?.score(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal_data(n: usize) -> (Matrix, Matrix) {
        let mut rows = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i as f64 * 0.11).sin();
            let b = (i as f64 * 0.05).cos();
            rows.push([a, b]);
            ys.push(2.0 * a + b + 0.05 * ((i * 37 % 11) as f64 - 5.0));
        }
        (Matrix::from_rows(&rows), Matrix::column_vector(&ys))
    }

    fn noise_data(n: usize, p: usize) -> (Matrix, Matrix) {
        // Deterministic pseudo-random, no real relationship.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut rows = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push((0..p).map(|_| next()).collect::<Vec<f64>>());
            ys.push(next());
        }
        (Matrix::from_rows(&rows), Matrix::column_vector(&ys))
    }

    #[test]
    fn split_blocks_are_contiguous_and_cover() {
        let split = TimeSeriesSplit::new(23, 5);
        let mut covered = [false; 23];
        let mut prev_end = 0;
        for f in 0..5 {
            let (s, e) = split.validation_range(f);
            assert_eq!(s, prev_end, "blocks must be contiguous");
            for c in covered[s..e].iter_mut() {
                assert!(!*c);
                *c = true;
            }
            prev_end = e;
        }
        assert_eq!(prev_end, 23);
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn training_excludes_validation() {
        let split = TimeSeriesSplit::new(20, 4);
        for f in 0..4 {
            let (vs, ve) = split.validation_range(f);
            let train = split.training_indices(f);
            assert_eq!(train.len(), 20 - (ve - vs));
            assert!(train.iter().all(|&i| i < vs || i >= ve));
        }
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn split_rejects_tiny_n() {
        TimeSeriesSplit::new(5, 5);
    }

    #[test]
    fn real_signal_scores_high() {
        let (x, y) = signal_data(300);
        let score = cross_validated_r2(&x, &y, &CvConfig::default()).unwrap();
        assert!(score.r2 > 0.8, "score = {:?}", score);
    }

    #[test]
    fn pure_noise_scores_near_zero() {
        let (x, y) = noise_data(300, 5);
        let score = cross_validated_r2(&x, &y, &CvConfig::default()).unwrap();
        assert!(score.r2 < 0.15, "score = {:?}", score);
    }

    #[test]
    fn overfitting_controlled_with_many_features() {
        // p close to n/2: in-sample r² would be huge; CV must stay low.
        let (x, y) = noise_data(100, 40);
        let score = cross_validated_r2(&x, &y, &CvConfig::default()).unwrap();
        assert!(score.r2 < 0.3, "score = {:?}", score);
    }

    #[test]
    fn grid_prefers_small_lambda_for_clean_signal() {
        let (x, y) = signal_data(200);
        let cfg = CvConfig { lambda_grid: vec![0.01, 1e6], ..CvConfig::default() };
        let score = cross_validated_r2(&x, &y, &cfg).unwrap();
        assert_eq!(score.best_lambda, 0.01);
    }

    #[test]
    fn lasso_penalty_path_works() {
        let (x, y) = signal_data(150);
        let cfg = CvConfig {
            penalty: PenaltyKind::Lasso,
            lambda_grid: vec![1e-4, 1e-2, 1.0],
            ..CvConfig::default()
        };
        let score = cross_validated_r2(&x, &y, &cfg).unwrap();
        assert!(score.r2 > 0.7, "score = {:?}", score);
    }

    #[test]
    fn error_on_too_few_rows() {
        let x = Matrix::zeros(6, 2);
        let y = Matrix::zeros(6, 1);
        assert!(matches!(
            cross_validated_r2(&x, &y, &CvConfig::default()),
            Err(MlError::TooFewRows { .. })
        ));
    }

    #[test]
    fn error_on_empty_grid() {
        let (x, y) = signal_data(60);
        let cfg = CvConfig { lambda_grid: vec![], ..CvConfig::default() };
        assert!(cross_validated_r2(&x, &y, &cfg).is_err());
    }
}
