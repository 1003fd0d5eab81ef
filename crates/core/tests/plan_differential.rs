//! The ranking-level scoring plan against an unshared reference, bit for
//! bit.
//!
//! `Engine::rank` aligns Y and Z once, factors Z once and prepares the
//! target's folds once, then scores every candidate against that shared
//! plan. The reference below is what the engine did before the plan existed:
//! per hypothesis it intersects timestamps, `restrict_to`-copies X, Y and
//! every Z, `hcat`s Z, refits `RidgeModel::fit(z, ·, 1e-8)` for the
//! residuals of both sides, and runs the plain (λ, fold) loop of full model
//! fits. Sharing must be the same arithmetic in the same order, so the two
//! are compared by the bits of `score`, `p_value` and `best_lambda`, by
//! `effective_predictors` and by error text — never with a tolerance.
//! The reference stores every prediction and scores it with
//! `r2_columns_mean`, and calls `pearson` on column copies; the engine
//! scores held-out rows in one pass and correlates prepared columns. A
//! target, candidates and a conditioner wider than one 8-column kernel tile
//! put the tiled kernels on both sides too.

use std::collections::BTreeMap;

use explainit_core::scorers::{score_hypothesis, ScoreConfig, ScoreDetail, ScorerKind};
use explainit_core::{CoreError, Engine, EngineConfig, FeatureFamily};
use explainit_linalg::Matrix;
use explainit_ml::cv::PenaltyKind;
use explainit_ml::projection::project_if_wide;
use explainit_ml::ridge::r2_columns_mean;
use explainit_ml::{CvConfig, LassoModel, MlError, RidgeModel, TimeSeriesSplit};
use explainit_stats::{chebyshev_p_value, pearson};

// ------------------------------------------------------------ the reference

type Scored = Result<ScoreDetail, CoreError>;

fn model(e: MlError) -> CoreError {
    CoreError::Model(e.to_string())
}

/// The unshared cross-validation: for each λ, for each fold, a full fit on
/// copied training rows.
fn reference_cv(x: &Matrix, y: &Matrix, cfg: &CvConfig) -> Result<(f64, f64), MlError> {
    if x.nrows() != y.nrows() {
        return Err(MlError::RowMismatch { x_rows: x.nrows(), y_rows: y.nrows() });
    }
    let n = x.nrows();
    if n < 2 * cfg.k_folds {
        return Err(MlError::TooFewRows { rows: n, needed: 2 * cfg.k_folds });
    }
    if x.has_non_finite() || y.has_non_finite() {
        return Err(MlError::NonFiniteInput);
    }
    let split = TimeSeriesSplit::new(n, cfg.k_folds);
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
    Ok(best.expect("the grids used here are not empty"))
}

fn reference_joint(x: &Matrix, y: &Matrix, cv: &CvConfig) -> Scored {
    let (r2, lambda) = reference_cv(x, y, cv).map_err(model)?;
    let score = r2.clamp(0.0, 1.0);
    Ok(ScoreDetail {
        score,
        best_lambda: Some(lambda),
        p_value: chebyshev_p_value(score, y.nrows(), x.ncols().max(2)),
        effective_predictors: x.ncols(),
    })
}

fn reference_corr(x: &Matrix, y: &Matrix, take_max: bool) -> Scored {
    let (mut acc, mut max, mut count) = (0.0f64, 0.0f64, 0usize);
    for i in 0..x.ncols() {
        for j in 0..y.ncols() {
            let r = pearson(&x.column(i), &y.column(j));
            if r.is_nan() {
                return Err(model(MlError::NonFiniteInput));
            }
            let r = r.abs();
            acc += r;
            max = max.max(r);
            count += 1;
        }
    }
    let score = if take_max { max } else { acc / count as f64 };
    Ok(ScoreDetail {
        score,
        best_lambda: None,
        p_value: chebyshev_p_value(score * score, y.nrows(), 2),
        effective_predictors: 1,
    })
}

/// One hypothesis, nothing shared: a full ridge fit of each side on Z.
fn reference_score(
    kind: ScorerKind,
    x: &Matrix,
    y: &Matrix,
    z: Option<&Matrix>,
    cfg: &ScoreConfig,
) -> Scored {
    let n = y.nrows();
    if n < 2 * cfg.cv.k_folds {
        return Err(CoreError::InsufficientOverlap { rows: n, needed: 2 * cfg.cv.k_folds });
    }
    let residuals = |target: &Matrix, z: &Matrix| {
        RidgeModel::fit(z, target, 1e-8).map(|m| m.residuals(z, target)).map_err(model)
    };
    let (x, y) = match z {
        Some(z) => {
            let ry = residuals(y, z)?;
            (residuals(x, z)?, ry)
        }
        None => (x.clone(), y.clone()),
    };
    let ridge = CvConfig { penalty: PenaltyKind::Ridge, ..cfg.cv.clone() };
    match kind {
        ScorerKind::CorrMean => reference_corr(&x, &y, false),
        ScorerKind::CorrMax => reference_corr(&x, &y, true),
        ScorerKind::L2 => reference_joint(&x, &y, &ridge),
        ScorerKind::Lasso => {
            let lambda_grid = cfg.lasso_lambda_grid.clone();
            reference_joint(&x, &y, &CvConfig { lambda_grid, penalty: PenaltyKind::Lasso, ..ridge })
        }
        ScorerKind::L2P { d } if x.ncols() <= d && y.ncols() <= d => {
            reference_joint(&x, &y, &ridge)
        }
        ScorerKind::L2P { d } => {
            let samples = cfg.projection_samples.max(1);
            let (mut acc, mut lambda, mut eff) = (0.0, None, 0usize);
            for s in 0..samples {
                let seed = cfg.seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(s as u64);
                let xp = project_if_wide(&x, d, seed);
                let yp = project_if_wide(&y, d, seed.wrapping_add(1));
                let detail = reference_joint(&xp, &yp, &ridge)?;
                acc += detail.score;
                lambda = detail.best_lambda;
                eff = detail.effective_predictors;
            }
            let score = acc / samples as f64;
            Ok(ScoreDetail {
                score,
                best_lambda: lambda,
                p_value: chebyshev_p_value(score, n, eff.max(2)),
                effective_predictors: eff,
            })
        }
    }
}

/// The unshared ranking: every candidate aligned, copied and scored alone.
fn reference_rank(
    engine: &Engine,
    target: &str,
    condition: &[&str],
    kind: ScorerKind,
) -> BTreeMap<String, Scored> {
    let y_fam = engine.family(target).expect("target");
    let z_fams: Vec<&FeatureFamily> =
        condition.iter().map(|c| engine.family(c).expect("condition")).collect();
    let mut shared = y_fam.timestamps.clone();
    for z in &z_fams {
        shared = z.shared_timestamps(&shared);
    }
    let min_rows = engine.config().min_rows;
    let candidates = engine
        .families()
        .iter()
        .filter(|f| f.name != target && !condition.contains(&f.name.as_str()));
    candidates
        .map(|x_fam| {
            let ts = x_fam.shared_timestamps(&shared);
            let scored = if ts.len() < min_rows {
                Err(CoreError::InsufficientOverlap { rows: ts.len(), needed: min_rows })
            } else {
                let x = x_fam.restrict_to(&ts).data;
                let y = y_fam.restrict_to(&ts).data;
                let z = z_fams.iter().map(|z| z.restrict_to(&ts).data).reduce(|acc, z| {
                    acc.hcat(&z).expect("every Z was restricted to the same timestamps")
                });
                reference_score(kind, &x, &y, z.as_ref(), &engine.config().score)
            };
            (x_fam.name.clone(), scored)
        })
        .collect()
}

// ------------------------------------------------------------------ inputs

const ROWS: usize = 40;

/// Deterministic noise in `[-1, 1)`.
fn noise(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    }
}

fn family(name: &str, ts: Vec<i64>, columns: Vec<Vec<f64>>) -> FeatureFamily {
    let names = (0..columns.len()).map(|j| format!("{name}_{j}")).collect();
    FeatureFamily::new(name, ts, names, Matrix::from_columns(&columns))
}

/// The six column shapes, as functions of the family's own timestamps: a
/// driver shared with the target plus per-family noise.
fn columns(shape: &str, ts: &[i64], seed: u64) -> Vec<Vec<f64>> {
    let mut next = noise(seed);
    let driver = |t: i64| (t as f64 * 0.37).sin();
    let mut col = |weight: f64| -> Vec<f64> {
        ts.iter().map(|&t| weight * driver(t) + 0.5 * next()).collect()
    };
    match shape {
        "ordinary" => vec![col(1.0), col(0.5), col(0.0)],
        "constant" => vec![col(1.0), vec![7.0; ts.len()]],
        "collinear" => {
            let a = col(1.0);
            let b = col(0.3);
            let sum = a.iter().zip(&b).map(|(a, b)| 2.0 * a - b).collect();
            vec![a, b, sum]
        }
        "nan" => vec![col(1.0), vec![f64::NAN; ts.len()]],
        // Wider than one 8-column kernel tile, narrower than a fold's
        // training rows: the primal solve on two tiles (8 + 6).
        "fourteen" => (0..14).map(|j| col(1.0 / (j + 1) as f64)).collect(),
        // More features than a fold's 32 training rows: the dual solve.
        "wide" => (0..36).map(|j| col(if j == 0 { 1.0 } else { 0.0 })).collect(),
        other => panic!("unknown column shape {other}"),
    }
}

/// The five candidate grids against a target on `0..ROWS`.
fn grid(kind: &str) -> Vec<i64> {
    let rows = ROWS as i64;
    match kind {
        "identical" => (0..rows).collect(),
        "superset" => (-5..rows + 5).collect(),
        // Every row but each seventh, and a tail the target lacks.
        "partial" => (0..rows + 4).filter(|t| t % 7 != 3).collect(),
        "sparse" => (0..rows).filter(|t| t % 5 == 0).collect(),
        "disjoint" => (1000..1000 + rows).collect(),
        other => panic!("unknown grid {other}"),
    }
}

fn engine(workers: usize) -> Engine {
    let config = EngineConfig { top_k: usize::MAX, workers, ..EngineConfig::default() };
    let mut engine = Engine::new(config);
    let base: Vec<i64> = grid("identical");
    // A target wider than the projection dimension used below (d = 3).
    engine.add_family(family("y", base.clone(), {
        let mut cols = columns("ordinary", &base, 1);
        cols.push(columns("ordinary", &base, 2).remove(1));
        cols
    }));
    // A second target, wider than a kernel tile: its folds, `XᵀY`, held-out
    // pass and Pearson columns run on two tiles (8 + 6).
    engine.add_family(family("y14", base.clone(), columns("fourteen", &base, 5)));
    // One conditioner on the target's grid, one on a grid of its own, so
    // that conditioning on both shrinks the shared rows, and one wider than
    // a tile (8 + 2).
    engine.add_family(family("z_on", base.clone(), columns("ordinary", &base, 3)));
    let off = grid("partial");
    engine.add_family(family("z_off", off.clone(), columns("constant", &off, 4)));
    let z_wide = columns("fourteen", &base, 6).into_iter().take(10).collect();
    engine.add_family(family("z_wide", base.clone(), z_wide));
    let mut seed = 10;
    for grid_kind in ["identical", "superset", "partial", "sparse", "disjoint"] {
        for shape in ["ordinary", "constant", "collinear", "nan", "fourteen", "wide"] {
            let ts = grid(grid_kind);
            seed += 1;
            let cols = columns(shape, &ts, seed);
            engine.add_family(family(&format!("x_{grid_kind}_{shape}"), ts, cols));
        }
    }
    engine
}

// ------------------------------------------------------------------- tests

fn same_float(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

#[test]
fn rank_matches_the_unshared_reference_bit_for_bit() {
    let scorers = [
        ScorerKind::CorrMean,
        ScorerKind::CorrMax,
        ScorerKind::L2,
        ScorerKind::L2P { d: 3 },
        ScorerKind::Lasso,
    ];
    // The 14-wide target skips Lasso: fourteen coordinate-descent targets
    // per fit were most of a debug run, and Lasso's held-out pass is the
    // one the ridge scorers take.
    let (all, no_lasso) = (&scorers[..], &scorers[..4]);
    let rankings: [(&str, &[&str], &[ScorerKind]); 6] = [
        ("y", &[], all),
        ("y", &["z_on"], all),
        ("y", &["z_on", "z_off"], all),
        ("y", &["z_wide"], all),
        ("y14", &[], no_lasso),
        ("y14", &["z_wide"], no_lasso),
    ];
    let mut compared = 0usize;
    let mut errors = 0usize;
    for workers in [1, 3] {
        let engine = engine(workers);
        for (target, condition, kinds) in rankings {
            for &kind in kinds {
                let ranking = engine.rank(target, condition, kind).expect("rank");
                let reference = reference_rank(&engine, target, condition, kind);
                // Every family but the target and the conditioners.
                assert_eq!(reference.len(), engine.family_count() - 1 - condition.len());
                assert_eq!(ranking.hypotheses_scored, reference.len());
                assert_eq!(ranking.entries.len(), reference.len());
                for entry in &ranking.entries {
                    let at = format!(
                        "{kind:?} | {target} | {condition:?} | {} | {workers}w",
                        entry.family
                    );
                    match &reference[&entry.family] {
                        Err(e) => {
                            assert_eq!(entry.error, Some(e.to_string()), "{at}");
                            errors += 1;
                        }
                        Ok(want) => {
                            assert_eq!(entry.error, None, "{at}");
                            assert!(same_float(entry.score, want.score), "score at {at}");
                            assert!(same_float(entry.p_value, want.p_value), "p-value at {at}");
                            assert_eq!(
                                entry.best_lambda.map(f64::to_bits),
                                want.best_lambda.map(f64::to_bits),
                                "best_lambda at {at}"
                            );
                            assert_eq!(
                                entry.effective_predictors, want.effective_predictors,
                                "{at}"
                            );
                        }
                    }
                    compared += 1;
                }
            }
        }
    }
    // The 30 `x_*` candidates plus whichever of `y` / `y14` / `z_on` /
    // `z_off` / `z_wide` is neither the target nor conditioned on, × 5
    // scorers (4 for `y14`) × 2 worker counts; the sparse and disjoint
    // grids and the NaN feature are error entries on both sides.
    assert_eq!(compared, ((34 + 33 + 32 + 33) * 5 + (34 + 33) * 4) * 2);
    assert!(errors >= 12 * (4 * 5 + 2 * 4) * 2, "only {errors} error entries compared");
}

/// The grids really exercise the four alignment cases of the engine.
#[test]
fn candidate_grids_cover_every_alignment_case() {
    let engine = engine(1);
    let shared = engine.family("y").unwrap().timestamps.clone();
    let overlap = |name: &str| engine.family(name).unwrap().shared_timestamps(&shared).len();
    let min_rows = engine.config().min_rows;
    assert_eq!(overlap("x_identical_ordinary"), ROWS);
    assert_eq!(overlap("x_superset_ordinary"), ROWS);
    assert!(engine.family("x_superset_ordinary").unwrap().len() > ROWS);
    assert!((min_rows..ROWS).contains(&overlap("x_partial_ordinary")));
    assert!((1..min_rows).contains(&overlap("x_sparse_ordinary")));
    assert_eq!(overlap("x_disjoint_ordinary"), 0);
    // The dual path: more features than any fold's training rows.
    assert!(engine.family("x_identical_wide").unwrap().width() > ROWS - ROWS / 5);
    // Candidate, target and conditioner each wider than one 8-column
    // kernel tile; the candidate on the primal path.
    let width = |name: &str| engine.family(name).unwrap().width();
    assert!((9..=ROWS - ROWS / 5).contains(&width("x_identical_fourteen")));
    assert!(width("y14") > 8 && width("z_wide") > 8);
}

/// `score_hypothesis` is the same plan built for one X.
#[test]
fn score_hypothesis_matches_the_reference() {
    let engine = engine(1);
    let y = &engine.family("y").unwrap().data;
    let z = &engine.family("z_on").unwrap().data;
    let cfg = ScoreConfig::default();
    for kind in [ScorerKind::CorrMax, ScorerKind::L2, ScorerKind::L2P { d: 3 }, ScorerKind::Lasso] {
        for shape in ["ordinary", "constant", "collinear", "nan", "fourteen", "wide"] {
            let x = &engine.family(&format!("x_identical_{shape}")).unwrap().data;
            for z in [None, Some(z)] {
                let got = score_hypothesis(kind, x, y, z, &cfg);
                let want = reference_score(kind, x, y, z, &cfg);
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        assert!(same_float(got.score, want.score), "{kind:?} {shape}");
                        assert!(same_float(got.p_value, want.p_value), "{kind:?} {shape}");
                        assert_eq!(got.best_lambda, want.best_lambda, "{kind:?} {shape}");
                    }
                    (got, want) => assert_eq!(got, want, "{kind:?} {shape}"),
                }
            }
        }
    }
}

/// A settable cross-validation value no fit can run with used to panic
/// inside a scoring worker, and `std::thread::scope` re-raised it out of
/// `Engine::rank`. It is an error from the plan now, on every entry point.
#[test]
fn unusable_cv_settings_are_errors_not_panics() {
    let default = CvConfig::default;
    let bad = [
        CvConfig { k_folds: 0, ..default() },
        CvConfig { k_folds: 1, ..default() },
        CvConfig { lambda_grid: vec![1.0, -1.0], ..default() },
        CvConfig { lambda_grid: vec![f64::NAN], ..default() },
        CvConfig { lambda_grid: Vec::new(), ..default() },
    ];
    for (case, cv) in bad.into_iter().enumerate() {
        let mut engine = Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });
        let ts: Vec<i64> = grid("identical");
        for (i, name) in ["y", "a", "b"].iter().enumerate() {
            engine.add_family(family(name, ts.clone(), columns("ordinary", &ts, i as u64)));
        }
        engine.config_mut().score.cv = cv;
        let ranked = engine.rank("y", &[], ScorerKind::L2);
        assert!(matches!(ranked, Err(CoreError::Model(_))), "case {case}: {ranked:?}");
        let (x, y) = (&engine.family("a").unwrap().data, &engine.family("y").unwrap().data);
        let scored = score_hypothesis(ScorerKind::L2, x, y, None, &engine.config().score);
        assert!(matches!(scored, Err(CoreError::Model(_))), "case {case}: {scored:?}");
        // The correlation scorers never cross-validate and keep working.
        engine.rank("y", &[], ScorerKind::CorrMax).expect("no folds, no grid needed");
    }
    // The lasso scorer's own grid is checked the same way.
    let cfg = ScoreConfig { lasso_lambda_grid: vec![-0.5], ..ScoreConfig::default() };
    let ts: Vec<i64> = grid("identical");
    let m = Matrix::from_columns(&columns("ordinary", &ts, 9));
    assert!(matches!(
        score_hypothesis(ScorerKind::Lasso, &m, &m, None, &cfg),
        Err(CoreError::Model(_))
    ));
}
