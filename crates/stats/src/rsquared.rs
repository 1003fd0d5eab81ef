//! The r² machinery of Appendix A: adjusted r², the Beta null
//! distribution, and the Chebyshev p-value bound that ExplainIt! uses to
//! control false positives over many simultaneous hypotheses.

use crate::dist::Beta;

/// Wherry's adjusted r²; `None` when `n <= p`.
pub fn adjusted_r2(r2: f64, n: usize, p: usize) -> Option<f64> {
    if n <= p || n < 2 {
        return None;
    }
    let n = n as f64;
    let p = p as f64;
    Some(1.0 - (1.0 - r2) * (n - 1.0) / (n - p))
}

/// Null distribution of OLS r² with `n` data points and `p` predictors:
/// `Beta((p-1)/2, (n-p)/2)` (Appendix A.1). `None` when shapes would be
/// non-positive.
pub fn r2_null_distribution(n: usize, p: usize) -> Option<Beta> {
    if p < 2 || n <= p {
        return None;
    }
    Some(Beta::new((p as f64 - 1.0) / 2.0, (n as f64 - p as f64) / 2.0))
}

/// Chebyshev bound from Appendix A.2 on `P(r²_adj >= s)` under the null:
/// `var(r²_adj)/s² = 2(p-1) / ((n-p)(n-1) s²)`, clamped to [0, 1].
///
/// Non-positive scores give the trivial bound 1.
pub fn chebyshev_p_value(s: f64, n: usize, p: usize) -> f64 {
    if s <= 0.0 || n <= p || p < 2 {
        return 1.0;
    }
    let n = n as f64;
    let p = p as f64;
    let var = 2.0 * (p - 1.0) / ((n - p) * (n - 1.0));
    (var / (s * s)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjusted_r2_known_value() {
        // r²=0.8, n=100, p=10: adj = 1 - 0.2 * 99/90 = 0.78.
        assert!((adjusted_r2(0.8, 100, 10).unwrap() - 0.78).abs() < 1e-12);
    }

    #[test]
    fn adjusted_r2_undefined_when_saturated() {
        assert!(adjusted_r2(0.5, 10, 10).is_none());
        assert!(adjusted_r2(0.5, 5, 10).is_none());
    }

    #[test]
    fn adjusted_null_mean_is_zero() {
        // Under the null E[r²] = (p-1)/(n-1); plugging that into Wherry's
        // formula must give exactly 0 (Appendix A: E[r²_adj] = 0).
        let (n, p) = (1000usize, 500usize);
        let r2 = (p as f64 - 1.0) / (n as f64 - 1.0);
        let adj = adjusted_r2(r2, n, p).unwrap();
        assert!(adj.abs() < 1e-12);
    }

    #[test]
    fn null_distribution_mean_matches_formula() {
        let d = r2_null_distribution(1440, 50).unwrap();
        let expect = 49.0 / 1439.0 / 2.0 * 2.0; // (p-1)/(n-1)
        assert!((d.mean() - expect).abs() < 1e-12);
    }

    #[test]
    fn null_distribution_requires_valid_shapes() {
        assert!(r2_null_distribution(100, 1).is_none());
        assert!(r2_null_distribution(10, 10).is_none());
    }

    #[test]
    fn chebyshev_bound_matches_papers_example() {
        // Paper: L2-P50, n=1440, p=50 -> p(s) ≈ 4.9e-5 / s².
        let p_at_1 = chebyshev_p_value(1.0, 1440, 50);
        assert!((p_at_1 - 4.9e-5).abs() < 5e-6, "got {p_at_1}");
        // And s=0.03 with n=1000, p=50 gives ≈ 0.05 (paper's closing example
        // uses the same order of magnitude).
        let p_small = chebyshev_p_value(0.03, 1000, 50);
        assert!(p_small > 0.02 && p_small < 0.2, "got {p_small}");
    }

    #[test]
    fn chebyshev_degenerate_cases() {
        assert_eq!(chebyshev_p_value(0.0, 1000, 50), 1.0);
        assert_eq!(chebyshev_p_value(-1.0, 1000, 50), 1.0);
        assert_eq!(chebyshev_p_value(0.5, 10, 50), 1.0);
    }
}
