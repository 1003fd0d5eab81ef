//! Property tests for the ML kit: regression invariants that must hold for
//! any data, not just hand-picked fixtures.

use explainit_linalg::{Cholesky, Matrix};
use explainit_ml::cv::PenaltyKind;
use explainit_ml::ridge::r2_columns_mean;
use explainit_ml::{
    cross_validated_r2, CvConfig, LassoModel, MlError, OlsModel, RidgeModel, Standardizer,
    TimeSeriesSplit,
};
use proptest::prelude::*;

fn data_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// The unshared protocol `cross_validated_r2` must equal bit for bit: for
/// each λ, for each fold, a full model fit on copied training rows.
fn unshared_cv(x: &Matrix, y: &Matrix, cfg: &CvConfig) -> (f64, f64) {
    let split = TimeSeriesSplit::new(x.nrows(), cfg.k_folds);
    let mut best: Option<(f64, f64)> = None;
    for &lambda in &cfg.lambda_grid {
        let mut acc = 0.0;
        for fold in 0..cfg.k_folds {
            let (vs, ve) = split.validation_range(fold);
            let train = split.training_indices(fold);
            let (x_train, y_train) = (x.select_rows(&train), y.select_rows(&train));
            let (x_val, y_val) = (x.row_range(vs, ve), y.row_range(vs, ve));
            let baseline = y_train.column_means();
            let fold_r2 = match cfg.penalty {
                PenaltyKind::Ridge => RidgeModel::fit(&x_train, &y_train, lambda)
                    .map(|m| m.r2_out_of_sample(&x_val, &y_val, &baseline)),
                PenaltyKind::Lasso => LassoModel::fit(&x_train, &y_train, lambda, 200, 1e-7)
                    .map(|m| r2_columns_mean(&y_val, &m.predict(&x_val), &baseline)),
            }
            .unwrap_or(0.0);
            acc += fold_r2.clamp(0.0, 1.0);
        }
        let mean = acc / cfg.k_folds as f64;
        if best.is_none_or(|(r2, _)| mean > r2) {
            best = Some((mean, lambda));
        }
    }
    best.expect("non-empty grid")
}

/// Ridge from the textbook, on `explainit_linalg` alone: standardise, centre,
/// normal equations (primal) or kernel form (dual), one Cholesky. The
/// in-sample prediction it returns must equal `RidgeModel`'s bit for bit,
/// which anchors the model every oracle above is built from.
fn textbook_ridge_prediction(x: &Matrix, y: &Matrix, lambda: f64) -> Matrix {
    let (means, stds) = (x.column_means(), x.column_stds());
    let mut xs = x.clone();
    for i in 0..xs.nrows() {
        for (j, v) in xs.row_mut(i).iter_mut().enumerate() {
            *v -= means[j];
            if stds[j] > 0.0 {
                *v /= stds[j];
            }
        }
    }
    let y_means = y.column_means();
    let mut yc = y.clone();
    yc.center_columns_in_place(&y_means);
    let beta = if xs.ncols() <= xs.nrows() {
        let mut gram = xs.xtx();
        gram.add_diagonal(lambda);
        Cholesky::factor(&gram).unwrap().solve(&xs.xt_mul(&yc).unwrap()).unwrap()
    } else {
        let mut kernel = xs.xxt();
        kernel.add_diagonal(lambda);
        xs.xt_mul(&Cholesky::factor(&kernel).unwrap().solve(&yc).unwrap()).unwrap()
    };
    let mut pred = xs.matmul(&beta).unwrap();
    for i in 0..pred.nrows() {
        for (v, m) in pred.row_mut(i).iter_mut().zip(&y_means) {
            *v += m;
        }
    }
    pred
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A fold count or penalty no fit can run with is a typed error from
/// `cross_validated_r2` (it used to be a panic inside the fold loop).
#[test]
fn unusable_cv_settings_are_typed_errors() {
    let x = Matrix::from_vec(40, 2, (0..80).map(|i| (i as f64 * 0.3).sin()).collect());
    let y = Matrix::from_vec(40, 1, (0..40).map(|i| (i as f64 * 0.7).cos()).collect());
    let bad = [
        CvConfig { k_folds: 0, ..CvConfig::default() },
        CvConfig { k_folds: 1, ..CvConfig::default() },
        CvConfig { lambda_grid: vec![0.1, -1.0], ..CvConfig::default() },
        CvConfig { lambda_grid: vec![f64::NAN], ..CvConfig::default() },
        CvConfig { lambda_grid: vec![f64::INFINITY], ..CvConfig::default() },
        CvConfig { lambda_grid: Vec::new(), ..CvConfig::default() },
    ];
    for cfg in bad {
        let got = cross_validated_r2(&x, &y, &cfg);
        assert!(matches!(got, Err(MlError::InvalidConfig { .. })), "{cfg:?}: {got:?}");
    }
    // λ = 0 is a legal penalty (a singular fold just scores 0).
    let zero = CvConfig { lambda_grid: vec![0.0], ..CvConfig::default() };
    assert!(cross_validated_r2(&x, &y, &zero).is_ok());
}

/// Finite entries whose column sum overflows (1.5e308 / 1.6e308
/// alternating) are input no fit can use: `NonFiniteInput` from every model
/// and from cross-validation with either penalty, not a NaN score.
#[test]
fn overflowing_column_statistics_are_non_finite_input() {
    let x = Matrix::from_vec(
        40,
        2,
        (0..40).flat_map(|i| [(i as f64 * 0.3).sin(), [1.5e308, 1.6e308][i % 2]]).collect(),
    );
    assert!(!x.has_non_finite());
    let y = Matrix::from_vec(40, 1, (0..40).map(|i| (i as f64 * 0.7).cos()).collect());
    let non_finite = |r: Result<(), MlError>| r == Err(MlError::NonFiniteInput);
    assert!(non_finite(RidgeModel::fit(&x, &y, 1.0).map(drop)));
    assert!(non_finite(LassoModel::fit(&x, &y, 0.1, 50, 1e-7).map(drop)));
    let lasso = CvConfig { penalty: PenaltyKind::Lasso, ..CvConfig::default() };
    for cfg in [CvConfig::default(), lasso] {
        assert!(non_finite(cross_validated_r2(&x, &y, &cfg).map(drop)), "{cfg:?}");
        // An overflowing target is the same error, from its folds' means.
        assert!(non_finite(cross_validated_r2(&y, &x.select_columns(&[1]), &cfg).map(drop)));
    }
}

proptest! {
    // The default config: 96 cases, or `PROPTEST_CASES`.

    #[test]
    fn cv_equals_the_unshared_lambda_fold_loop_bit_for_bit(
        x in data_strategy(43, 3),
        y in data_strategy(43, 2),
        lasso in any::<bool>(),
        degenerate in 0usize..3,
    ) {
        // 43 rows: folds of unequal length. Degenerate designs on demand: a
        // constant column, or one exactly collinear with another.
        let mut x = x;
        for i in 0..x.nrows() {
            match degenerate {
                1 => x[(i, 2)] = 4.0,
                2 => x[(i, 2)] = 2.0 * x[(i, 0)] - x[(i, 1)],
                _ => {}
            }
        }
        let cfg = if lasso {
            CvConfig {
                penalty: PenaltyKind::Lasso,
                lambda_grid: vec![1e-3, 1e-1, 1.0],
                ..CvConfig::default()
            }
        } else {
            // λ = 0 makes the degenerate folds fail to factor: those count 0.
            CvConfig { lambda_grid: vec![0.0, 1e-1, 1e1, 1e7], ..CvConfig::default() }
        };
        let got = cross_validated_r2(&x, &y, &cfg).expect("cv");
        let (r2, lambda) = unshared_cv(&x, &y, &cfg);
        prop_assert_eq!(got.r2.to_bits(), r2.to_bits(), "r2 {} vs {}", got.r2, r2);
        prop_assert_eq!(got.best_lambda.to_bits(), lambda.to_bits());
    }

    #[test]
    fn cv_dual_path_equals_the_unshared_loop(x in data_strategy(20, 24), y in data_strategy(20, 3)) {
        // 24 features over folds of 16 training rows: the kernel-form solve.
        let cfg = CvConfig::default();
        let got = cross_validated_r2(&x, &y, &cfg).expect("cv");
        let (r2, lambda) = unshared_cv(&x, &y, &cfg);
        prop_assert_eq!(got.r2.to_bits(), r2.to_bits());
        prop_assert_eq!(got.best_lambda.to_bits(), lambda.to_bits());
    }

    #[test]
    fn ridge_model_equals_textbook_normal_equations(
        x in data_strategy(30, 4),
        wide in data_strategy(12, 20),
        y in data_strategy(30, 2),
        lambda in 1e-3f64..1e3,
    ) {
        let model = RidgeModel::fit(&x, &y, lambda).expect("fit");
        prop_assert_eq!(bits(&model.predict(&x)), bits(&textbook_ridge_prediction(&x, &y, lambda)));
        // The dual path: more features than rows.
        let y_short = y.row_range(0, 12);
        let model = RidgeModel::fit(&wide, &y_short, lambda).expect("fit");
        let textbook = textbook_ridge_prediction(&wide, &y_short, lambda);
        prop_assert_eq!(bits(&model.predict(&wide)), bits(&textbook));
    }

    #[test]
    fn ridge_shrinkage_is_monotone(x in data_strategy(40, 4), y in data_strategy(40, 1)) {
        let mut prev = f64::INFINITY;
        for &l in &[0.01, 1.0, 100.0, 1e4] {
            let m = RidgeModel::fit(&x, &y, l).expect("fit");
            let norm = m.coefficient_norm_sq();
            prop_assert!(norm <= prev + 1e-9, "shrinkage must be monotone in lambda");
            prev = norm;
        }
    }

    #[test]
    fn ridge_prediction_is_finite(x in data_strategy(30, 5), y in data_strategy(30, 2)) {
        let m = RidgeModel::fit(&x, &y, 1.0).expect("fit");
        prop_assert!(!m.predict(&x).has_non_finite());
    }

    #[test]
    fn ols_residuals_orthogonal_to_design(x in data_strategy(30, 3), y in data_strategy(30, 1)) {
        let m = match OlsModel::fit(&x, &y) {
            Ok(m) => m,
            Err(_) => return Ok(()), // rank-deficient draw
        };
        let resid = m.residuals(&x, &y);
        // Orthogonality to the *centred* design (fit is through centring).
        let means = x.column_means();
        let mut xc = x.clone();
        xc.center_columns_in_place(&means);
        let dot = xc.xt_mul(&resid).expect("shape");
        prop_assert!(dot.max_abs() < 1e-6 * (1.0 + x.max_abs() * y.max_abs()) * 30.0);
        // Residuals sum to ~0 per column (intercept).
        let col = resid.column(0);
        let s: f64 = col.iter().sum();
        prop_assert!(s.abs() < 1e-6 * (1.0 + y.max_abs()) * 30.0);
    }

    #[test]
    fn lasso_sparsity_monotone(x in data_strategy(40, 6), y in data_strategy(40, 1)) {
        let mut prev = usize::MAX;
        for &l in &[1e-4, 1e-2, 1.0, 100.0] {
            let m = LassoModel::fit(&x, &y, l, 300, 1e-9).expect("fit");
            let nz = m.nonzero_count();
            prop_assert!(nz <= prev, "sparsity must grow with lambda");
            prev = nz;
        }
    }

    #[test]
    fn standardizer_round_trip(x in data_strategy(20, 3)) {
        let (s, mut t) = Standardizer::fit_transform(&x);
        s.inverse_transform_in_place(&mut t);
        let diff = t.sub(&x).expect("shape");
        prop_assert!(diff.max_abs() < 1e-9 * (1.0 + x.max_abs()));
    }

    #[test]
    fn cv_score_is_clamped_to_unit_interval(x in data_strategy(40, 3), y in data_strategy(40, 1)) {
        let score = cross_validated_r2(&x, &y, &CvConfig::default()).expect("cv");
        prop_assert!(score.r2 >= 0.0 && score.r2 <= 1.0, "score {}", score.r2);
    }

    #[test]
    fn perfect_linear_signal_scores_near_one(x in data_strategy(60, 2), b0 in 0.5f64..3.0, b1 in -3.0f64..-0.5) {
        // y constructed exactly from x: CV r² must approach 1 unless the
        // design is degenerate.
        let y_vals: Vec<f64> = (0..60).map(|i| b0 * x[(i, 0)] + b1 * x[(i, 1)]).collect();
        let std = explainit_stats::std_dev(&y_vals);
        prop_assume!(std > 1.0); // skip degenerate draws
        let y = Matrix::column_vector(&y_vals);
        let score = cross_validated_r2(&x, &y, &CvConfig::default()).expect("cv");
        prop_assert!(score.r2 > 0.9, "score {}", score.r2);
    }

    #[test]
    fn r2_of_exact_prediction_is_one(y in data_strategy(25, 2)) {
        let means = y.column_means();
        let r2 = r2_columns_mean(&y, &y, &means);
        // 1.0 unless a column is constant (skipped), in which case the other
        // column still yields 1.0, or 0.0 when all constant.
        prop_assert!(r2 == 0.0 || (r2 - 1.0).abs() < 1e-12);
    }
}
