//! Probability distributions used by the false-positive analysis
//! (Appendix A of the paper): Normal, Beta and Chi-squared.

use crate::special::{erf, incomplete_beta, incomplete_gamma, ln_gamma};

/// A univariate normal distribution `N(mu, sigma^2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates `N(mu, sigma^2)`.
    ///
    /// # Panics
    /// Panics if `sigma <= 0` or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite(), "normal parameters must be finite");
        assert!(sigma > 0.0, "normal sigma must be positive");
        Normal { mu, sigma }
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Normal { mu: 0.0, sigma: 1.0 }
    }

    /// Distribution mean.
    pub fn mean(&self) -> f64 {
        self.mu
    }

    /// Distribution standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sigma
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / (self.sigma * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }

    /// Survival function `P(X > x)`.
    pub fn sf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// Inverse CDF via Acklam's rational approximation refined with one
    /// Newton step. Accurate to ~1e-12 for `p ∈ (1e-300, 1 - 1e-16)`.
    ///
    /// # Panics
    /// Panics if `p` is outside `(0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
        self.mu + self.sigma * standard_normal_quantile(p)
    }
}

/// Acklam's inverse normal CDF approximation with one Halley refinement.
fn standard_normal_quantile(p: f64) -> f64 {
    // Coefficients from Peter Acklam's algorithm.
    const A: [f64; 6] = [
        -39.696_830_286_653_76,
        220.946_098_424_520_8,
        -275.928_510_446_969_4,
        138.357_751_867_269,
        -30.664_798_066_147_16,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -54.476_098_798_224_06,
        161.585_836_858_040_9,
        -155.698_979_859_886_6,
        66.801_311_887_719_72,
        -13.280_681_552_885_72,
    ];
    const C: [f64; 6] = [
        -0.007_784_894_002_430_293,
        -0.322_396_458_041_136_4,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        0.007_784_695_709_041_462,
        0.322_467_129_070_039_8,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley step against the exact CDF.
    let std = Normal::standard();
    let e = std.cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// A Beta(a, b) distribution.
///
/// Appendix A: under the null of no dependency, OLS r² on `n` points with
/// `p` predictors is `Beta((p-1)/2, (n-p)/2)` distributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beta {
    a: f64,
    b: f64,
}

impl Beta {
    /// Creates `Beta(a, b)`.
    ///
    /// # Panics
    /// Panics unless both shape parameters are positive and finite.
    pub fn new(a: f64, b: f64) -> Self {
        assert!(
            a > 0.0 && b > 0.0 && a.is_finite() && b.is_finite(),
            "beta shapes must be positive"
        );
        Beta { a, b }
    }

    /// Shape parameter `a`.
    pub fn alpha(&self) -> f64 {
        self.a
    }

    /// Shape parameter `b`.
    pub fn beta(&self) -> f64 {
        self.b
    }

    /// Distribution mean `a / (a + b)`.
    pub fn mean(&self) -> f64 {
        self.a / (self.a + self.b)
    }

    /// Distribution variance `ab / ((a+b)^2 (a+b+1))`.
    pub fn variance(&self) -> f64 {
        let s = self.a + self.b;
        self.a * self.b / (s * s * (s + 1.0))
    }

    /// Probability density at `x ∈ [0, 1]` (0 outside).
    pub fn pdf(&self, x: f64) -> f64 {
        if !(0.0..=1.0).contains(&x) {
            return 0.0;
        }
        if x == 0.0 || x == 1.0 {
            // Density can be infinite at the boundary; report 0 (the
            // interior-measure convention).
            return 0.0;
        }
        let ln_b = ln_gamma(self.a + self.b) - ln_gamma(self.a) - ln_gamma(self.b);
        (ln_b + (self.a - 1.0) * x.ln() + (self.b - 1.0) * (1.0 - x).ln()).exp()
    }

    /// Cumulative distribution function.
    pub fn cdf(&self, x: f64) -> f64 {
        incomplete_beta(self.a, self.b, x.clamp(0.0, 1.0))
    }

    /// Survival function `P(X > x)` — the exact p-value of an observed r²
    /// under the OLS null.
    pub fn sf(&self, x: f64) -> f64 {
        (1.0 - self.cdf(x)).clamp(0.0, 1.0)
    }

    /// Inverse CDF by bisection on the monotone CDF (50 iterations ≈ 1e-15
    /// interval width).
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile requires p in [0,1]");
        if p == 0.0 {
            return 0.0;
        }
        if p == 1.0 {
            return 1.0;
        }
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// A Chi-squared distribution with (possibly fractional) degrees of freedom.
///
/// Appendix A uses `RSS ~ χ²_trace(A)` with non-integer effective degrees of
/// freedom for ridge regression, so `k` is a float here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquared {
    k: f64,
}

impl ChiSquared {
    /// Creates a chi-squared distribution with `k > 0` degrees of freedom.
    ///
    /// # Panics
    /// Panics if `k <= 0` or non-finite.
    pub fn new(k: f64) -> Self {
        assert!(k > 0.0 && k.is_finite(), "chi-squared dof must be positive");
        ChiSquared { k }
    }

    /// Degrees of freedom.
    pub fn dof(&self) -> f64 {
        self.k
    }

    /// Distribution mean (= k).
    pub fn mean(&self) -> f64 {
        self.k
    }

    /// Distribution variance (= 2k).
    pub fn variance(&self) -> f64 {
        2.0 * self.k
    }

    /// Probability density at `x >= 0`.
    pub fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let h = self.k / 2.0;
        ((h - 1.0) * x.ln() - x / 2.0 - h * 2.0f64.ln() - ln_gamma(h)).exp()
    }

    /// Cumulative distribution function.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        incomplete_gamma(self.k / 2.0, x / 2.0)
    }

    /// Survival function `P(X > x)`.
    pub fn sf(&self, x: f64) -> f64 {
        (1.0 - self.cdf(x)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_pdf_cdf_standard_values() {
        let n = Normal::standard();
        assert!((n.pdf(0.0) - 0.398_942_280_401_432_7).abs() < 1e-12);
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((n.cdf(1.96) - 0.975_002_104_851_780).abs() < 1e-7);
        assert!((n.sf(1.96) - 0.024_997_895_148_220).abs() < 1e-7);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        let n = Normal::new(3.0, 2.0);
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = n.quantile(p);
            assert!((n.cdf(x) - p).abs() < 1e-9, "round trip at p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn normal_rejects_bad_sigma() {
        let _ = Normal::new(0.0, 0.0);
    }

    #[test]
    fn beta_mean_variance_match_closed_form() {
        // The exact formulas quoted in Appendix A.
        let (p, n) = (50.0, 1440.0);
        let d = Beta::new((p - 1.0) / 2.0, (n - p) / 2.0);
        let mu = (p - 1.0) / (n - 1.0);
        assert!((d.mean() - mu).abs() < 1e-12);
        let var = mu * (1.0 - mu) / (1.0 + (n - 1.0) / 2.0);
        assert!((d.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn beta_cdf_uniform_special_case() {
        let d = Beta::new(1.0, 1.0);
        for &x in &[0.0, 0.3, 0.5, 1.0] {
            assert!((d.cdf(x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn beta_quantile_inverts_cdf() {
        let d = Beta::new(2.5, 7.0);
        for &p in &[0.01, 0.1, 0.5, 0.9, 0.99] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-9);
        }
    }

    #[test]
    fn beta_pdf_integrates_to_one() {
        let d = Beta::new(3.0, 4.0);
        let n = 20_000;
        let mut acc = 0.0;
        for i in 0..n {
            let x = (i as f64 + 0.5) / n as f64;
            acc += d.pdf(x) / n as f64;
        }
        assert!((acc - 1.0).abs() < 1e-4);
    }

    #[test]
    fn chi_squared_cdf_known_values() {
        // χ²_2 CDF(x) = 1 - exp(-x/2).
        let d = ChiSquared::new(2.0);
        for &x in &[0.5, 1.0, 3.0, 10.0] {
            let expect = 1.0 - (-x / 2.0f64).exp();
            assert!((d.cdf(x) - expect).abs() < 1e-10);
        }
    }

    #[test]
    fn chi_squared_moments() {
        let d = ChiSquared::new(7.5);
        assert_eq!(d.mean(), 7.5);
        assert_eq!(d.variance(), 15.0);
    }

    #[test]
    fn chi_squared_median_near_mean_for_large_dof() {
        let d = ChiSquared::new(1000.0);
        // Median ≈ k(1 - 2/(9k))³; CDF at mean slightly above 0.5.
        let at_mean = d.cdf(1000.0);
        assert!(at_mean > 0.5 && at_mean < 0.52);
    }
}
