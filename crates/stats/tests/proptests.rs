//! Property tests for the statistics crate: distribution laws, correlation
//! invariants.

use explainit_stats::{pearson, Beta, CentredColumn, ChiSquared, Normal};
use proptest::prelude::*;

/// A column entry: mostly plain values and exact zeros of both signs, now
/// and then ±inf, a NaN, a magnitude whose square overflows, or a value
/// from a short list so that constant columns occur.
fn entry() -> impl Strategy<Value = f64> {
    (0usize..128, -10.0f64..10.0).prop_map(|(code, mag)| match code {
        0 => f64::INFINITY,
        1 => f64::NEG_INFINITY,
        2 => f64::NAN,
        3 => mag * 1e300,
        4..=23 => 0.0,
        24..=35 => -0.0,
        36..=55 => 2.5,
        _ => mag,
    })
}

/// Two equally long columns of [`entry`] values, sometimes all `-0.0` or
/// all `2.5`, from 0 to 40 rows.
fn column_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (0usize..=40, 0usize..4).prop_flat_map(|(n, fill)| {
        let col = || proptest::collection::vec(entry(), n);
        (col(), col()).prop_map(move |(xs, ys)| match fill {
            0 => (vec![-0.0; xs.len()], ys),
            1 => (xs, vec![2.5; ys.len()]),
            _ => (xs, ys),
        })
    })
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

proptest! {
    /// Pearson from prepared columns is `pearson` by bits (every NaN as
    /// one: Rust leaves a computed NaN's sign and payload unspecified).
    #[test]
    fn centred_columns_give_pearsons_bits((xs, ys) in column_pair()) {
        let got = CentredColumn::new(&xs).pearson(&CentredColumn::new(&ys));
        let want = pearson(&xs, &ys);
        prop_assert!(same_bits(got, want), "{got} vs {want} for {xs:?} / {ys:?}");
    }

    #[test]
    fn normal_cdf_monotone_and_symmetric(mu in -5.0f64..5.0, sigma in 0.1f64..4.0) {
        let d = Normal::new(mu, sigma);
        let mut prev = 0.0;
        for i in -40..=40 {
            let x = mu + i as f64 * sigma / 10.0;
            let c = d.cdf(x);
            prop_assert!(c >= prev - 1e-12, "CDF must be monotone");
            prev = c;
        }
        // Symmetry about the mean.
        for i in 1..10 {
            let dx = i as f64 * sigma / 3.0;
            let left = d.cdf(mu - dx);
            let right = 1.0 - d.cdf(mu + dx);
            prop_assert!((left - right).abs() < 1e-9);
        }
    }

    #[test]
    fn normal_quantile_round_trip(mu in -3.0f64..3.0, sigma in 0.2f64..3.0, p in 0.001f64..0.999) {
        let d = Normal::new(mu, sigma);
        let x = d.quantile(p);
        prop_assert!((d.cdf(x) - p).abs() < 1e-8);
    }

    #[test]
    fn beta_cdf_in_unit_interval_and_monotone(a in 0.2f64..50.0, b in 0.2f64..50.0) {
        let d = Beta::new(a, b);
        let mut prev = 0.0;
        for i in 0..=40 {
            let x = i as f64 / 40.0;
            let c = d.cdf(x);
            prop_assert!((0.0..=1.0).contains(&c));
            prop_assert!(c >= prev - 1e-12);
            prev = c;
        }
        prop_assert!((d.cdf(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn beta_quantile_round_trip(a in 0.5f64..20.0, b in 0.5f64..20.0, p in 0.01f64..0.99) {
        let d = Beta::new(a, b);
        let x = d.quantile(p);
        prop_assert!((d.cdf(x) - p).abs() < 1e-7);
    }

    #[test]
    fn chi_squared_cdf_monotone(k in 0.5f64..60.0) {
        let d = ChiSquared::new(k);
        let mut prev = 0.0;
        for i in 0..60 {
            let x = i as f64 * k / 15.0;
            let c = d.cdf(x);
            prop_assert!(c >= prev - 1e-12);
            prev = c;
        }
    }

    #[test]
    fn pearson_bounds_and_symmetry(
        xs in proptest::collection::vec(-100.0f64..100.0, 3..50),
    ) {
        let ys: Vec<f64> = xs.iter().rev().copied().collect();
        let r = pearson(&xs, &ys);
        prop_assert!((-1.0..=1.0).contains(&r));
        prop_assert!((pearson(&ys, &xs) - r).abs() < 1e-12, "symmetry");
        // Self-correlation is 1 for non-constant series.
        if explainit_stats::variance(&xs) > 1e-9 {
            prop_assert!((pearson(&xs, &xs) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn pearson_affine_invariance(
        xs in proptest::collection::vec(-10.0f64..10.0, 4..30),
        a in 0.1f64..5.0,
        b in -10.0f64..10.0,
    ) {
        let ys: Vec<f64> = xs.iter().enumerate().map(|(i, &v)| v + (i as f64).sin()).collect();
        let r1 = pearson(&xs, &ys);
        let scaled: Vec<f64> = xs.iter().map(|&v| a * v + b).collect();
        let r2 = pearson(&scaled, &ys);
        prop_assert!((r1 - r2).abs() < 1e-8, "positive affine maps preserve correlation");
    }
}
