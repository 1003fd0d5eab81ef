//! Regression models, cross-validation and random projections.
//!
//! This crate is the stand-in for the scikit-learn routines the paper's
//! implementation calls into (§4): ordinary least squares, multi-target
//! ridge regression (primal and kernel/dual form for the p ≫ n regime),
//! lasso via coordinate descent, time-series-aware k-fold cross-validation
//! with a λ grid search, and Gaussian random projections.
//!
//! The central entry point for scoring is [`cv::cross_validated_r2`], which
//! implements §3.5's protocol exactly: k = 5 contiguous folds whose
//! validation time ranges never overlap the training ranges, a grid search
//! over the ridge penalty, and an out-of-sample r² ("adjusted r²" in the
//! paper's sense) as the returned score.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // indexed loops read naturally in these math kernels

use explainit_linalg::Matrix;

pub mod cv;
pub mod lasso;
pub mod ols;
pub mod projection;
pub mod ridge;
pub mod standardize;

pub use cv::{cross_validated_r2, CvConfig, CvTarget, TimeSeriesSplit};
pub use lasso::LassoModel;
pub use ols::OlsModel;
pub use projection::GaussianProjection;
pub use ridge::{FactoredRidge, RidgeModel};
pub use standardize::Standardizer;

/// Errors surfaced by model fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// Design/target row counts differ.
    RowMismatch {
        /// Rows in the design matrix.
        x_rows: usize,
        /// Rows in the target matrix.
        y_rows: usize,
    },
    /// Not enough rows to fit or cross-validate.
    TooFewRows {
        /// Rows available.
        rows: usize,
        /// Rows required.
        needed: usize,
    },
    /// The design matrix contains NaN or infinite entries.
    NonFiniteInput,
    /// An inner linear solve failed (singular / not positive definite).
    SolveFailed(String),
    /// A penalty or fold count no fit can run with (a user-settable value,
    /// so an error rather than a panic).
    InvalidConfig {
        /// What was wrong, naming the field and the value.
        what: String,
    },
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::RowMismatch { x_rows, y_rows } => {
                write!(f, "design has {x_rows} rows but target has {y_rows}")
            }
            MlError::TooFewRows { rows, needed } => {
                write!(f, "need at least {needed} rows, got {rows}")
            }
            MlError::NonFiniteInput => write!(f, "input contains NaN or infinite values"),
            MlError::SolveFailed(msg) => write!(f, "linear solve failed: {msg}"),
            MlError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl std::error::Error for MlError {}

/// Result alias for model fitting.
pub type Result<T> = std::result::Result<T, MlError>;

/// `x · β + intercept`, the prediction step of every linear model here
/// (for ridge and lasso, `x` is already standardised by the fitted design).
pub(crate) fn linear_predict(x: &Matrix, beta: &Matrix, intercept: &[f64]) -> Matrix {
    // invariant: the documented panic of every `predict` (design width).
    let mut out = x.matmul(beta).expect("design width matches coefficients");
    for i in 0..out.nrows() {
        for (v, &b) in out.row_mut(i).iter_mut().zip(intercept.iter()) {
            *v += b;
        }
    }
    out
}
