//! Dense linear algebra kernels for the ExplainIt! reproduction.
//!
//! The regression-heavy scoring path of ExplainIt! (§3.5 of the paper) needs a
//! small, predictable set of dense operations: matrix products, Gram matrices,
//! and solving symmetric positive definite systems (the ridge normal
//! equations).  This crate implements exactly that set from scratch — no
//! external BLAS — with row-major [`Matrix`] storage matching the paper's
//! "dense arrays" optimisation (§4.2). The scoring kernels (`xtx`, `xt_mul`,
//! `matmul`, the held-out pass `residual_sum_squares` and the column
//! statistics) cut operands into column tiles at most 8 wide and run each
//! through fixed-width code with register accumulators, with the same bits
//! as plain loops at every width (`matrix.rs`, `by_width!`).
//!
//! # Example
//!
//! ```
//! use explainit_linalg::Matrix;
//!
//! let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], [5.0, 6.0].as_slice()]);
//! let gram = x.xtx();            // X^T X, 2x2
//! assert_eq!(gram.shape(), (2, 2));
//! assert!((gram[(0, 0)] - 35.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // indexed loops read naturally in these math kernels
mod cholesky;
mod error;
mod matrix;
mod qr;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use matrix::Matrix;
pub use qr::QrDecomposition;

/// Result alias for fallible linear algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
