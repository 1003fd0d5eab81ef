//! Order statistics over the samples of one run.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the two middle samples when their number is
/// even. `NaN` for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the exclusive method), which is how the driver
/// judges spread. `None` for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed: the clamp can move j past i*m/4 when there are few samples.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the spread the
/// benchmark's bounds are compared against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}

/// The highest sample that still has at least ten samples beyond it, with
/// the percentile it stands at. A tail read from fewer samples than that
/// does not repeat, so with ten samples or fewer there is none.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let rank = v.len().checked_sub(10).filter(|&r| r > 0)?;
    Some((v[rank - 1], 100.0 * rank as f64 / v.len() as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) == [4.0, 5.0, 9.0]
        assert_eq!(quartiles(&[2.0, 4.0, 4.0, 5.0, 7.0, 9.0, 11.0]), Some((4.0, 9.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ten), Some(5.5 / 5.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let upto = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        assert_eq!(tail(&upto(10)), None, "nothing has ten samples beyond it");
        assert_eq!(tail(&upto(11)), Some((1.0, 100.0 / 11.0)));
        // 40 samples: the 30th has exactly ten beyond it, the 75th percentile.
        assert_eq!(tail(&upto(40)), Some((30.0, 75.0)));
        assert_eq!(tail(&upto(1000)), Some((990.0, 99.0)));
        assert_eq!(tail(&[]), None);
    }
}
