//! Statistical primitives for the ExplainIt! reproduction.
//!
//! Everything the paper's scoring and false-positive analysis needs, built
//! from scratch:
//!
//! * moments, Pearson correlation and autocorrelation ([`moments`]);
//! * special functions — log-gamma, erf, regularised incomplete beta/gamma
//!   ([`special`]);
//! * probability distributions — Normal, Beta, Chi-squared ([`dist`]);
//! * the r² machinery of Appendix A — adjusted r², the Beta null
//!   distribution of OLS r², Chebyshev p-value bounds ([`rsquared`]).

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // indexed loops read naturally in these math kernels
pub mod dist;
pub mod moments;
pub mod rsquared;
pub mod special;

pub use dist::{Beta, ChiSquared, Normal};
pub use moments::{autocorrelation, covariance, mean, pearson, std_dev, variance, CentredColumn};
pub use rsquared::{adjusted_r2, chebyshev_p_value, r2_null_distribution};
