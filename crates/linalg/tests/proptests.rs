//! Property-based tests for the linear algebra kernels.
//!
//! The scoring kernels (`xtx`, `xt_mul`, `matmul`, the standardisation
//! behind `Standardizer` and the held-out pass `residual_sum_squares`) are
//! held two ways: by bits against the plain loops below, which spell out the
//! term order every accumulator must see, and by a hash of their output over
//! a fixed corpus, pinned at the commit before the fixed-width kernels (and,
//! for left widths 17 and 24 and right-hand widths 14 and 17, before the
//! column tiles) — a change the reference loops and the kernels made
//! together would pass the first and fail the second.

use explainit_linalg::{Cholesky, Matrix, QrDecomposition};
use explainit_ml::ridge::{r2_columns_mean, r2_held_out};
use explainit_ml::Standardizer;
use proptest::prelude::*;

/// `XᵀX` as a plain loop: rows ascending; entry `(j, k)`, `j <= k`, adds
/// `x[i][j] * x[i][k]` unless `x[i][j] == 0.0`; the lower triangle mirrors.
fn reference_xtx(x: &Matrix) -> Matrix {
    let p = x.ncols();
    let mut g = Matrix::zeros(p, p);
    for i in 0..x.nrows() {
        for j in 0..p {
            if x[(i, j)] == 0.0 {
                continue;
            }
            for k in j..p {
                g[(j, k)] += x[(i, j)] * x[(i, k)];
            }
        }
    }
    for j in 0..p {
        for k in (j + 1)..p {
            g[(k, j)] = g[(j, k)];
        }
    }
    g
}

/// `XᵀY` as a plain loop: rows ascending; entry `(j, o)` adds
/// `x[i][j] * y[i][o]` unless `x[i][j] == 0.0`.
fn reference_xt_mul(x: &Matrix, y: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(x.ncols(), y.ncols());
    for i in 0..x.nrows() {
        for j in 0..x.ncols() {
            if x[(i, j)] == 0.0 {
                continue;
            }
            for o in 0..y.ncols() {
                out[(j, o)] += x[(i, j)] * y[(i, o)];
            }
        }
    }
    out
}

/// `AB` as a plain loop: entry `(i, o)` adds `a[i][k] * b[k][o]` for `k`
/// ascending unless `a[i][k] == 0.0`.
fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.nrows(), b.ncols());
    for i in 0..a.nrows() {
        for k in 0..a.ncols() {
            if a[(i, k)] == 0.0 {
                continue;
            }
            for o in 0..b.ncols() {
                out[(i, o)] += a[(i, k)] * b[(k, o)];
            }
        }
    }
    out
}

/// Standardisation as plain loops: column sums over rows ascending divided
/// by the row count (zeros without rows), population stds around those
/// means, then each entry less its mean and over its std when the std is
/// positive.
fn reference_standardize(x: &Matrix) -> (Vec<f64>, Vec<f64>, Matrix) {
    let (n, p) = x.shape();
    let mut means = vec![0.0; p];
    if n > 0 {
        for i in 0..n {
            for j in 0..p {
                means[j] += x[(i, j)];
            }
        }
        for m in &mut means {
            *m /= n as f64;
        }
    }
    let mut stds = vec![0.0; p];
    for i in 0..n {
        for j in 0..p {
            let d = x[(i, j)] - means[j];
            stds[j] += d * d;
        }
    }
    for s in &mut stds {
        *s = (*s / (n as f64).max(1.0)).sqrt();
    }
    let mut t = x.clone();
    for i in 0..n {
        for j in 0..p {
            t[(i, j)] -= means[j];
            if stds[j] > 0.0 {
                t[(i, j)] /= stds[j];
            }
        }
    }
    (means, stds, t)
}

/// Every value's bits, with one word for every NaN: Rust leaves the sign
/// and payload of a NaN that arithmetic produces unspecified (the optimiser
/// may commute a product's operands), so a debug and a release build of the
/// same loop can disagree there and only there.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| if v.is_nan() { u64::MAX } else { v.to_bits() }).collect()
}

/// Decodes a generated `(code, magnitude)` pair into an entry: mostly plain
/// values and exact zeros of both signs (the kernels' skip), now and then a
/// subnormal, a magnitude that overflows or underflows a product, ±inf, or
/// a NaN of either sign and its own payload.
fn entry(code: usize, mag: f64) -> f64 {
    match code {
        0 => f64::from_bits(0x7ff8_0000_0000_0a5a),
        1 => f64::from_bits(0xfff8_0000_0000_05a5),
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4..=13 => 0.0,
        14..=18 => -0.0,
        19..=20 => mag * 1e-310,
        21 => mag * 1e300,
        22 => mag * 1e-300,
        _ => mag,
    }
}

/// A `rows × cols` matrix of [`entry`] values; `special` out of 256 entries
/// may be NaN or ±inf (the rest of the codes are never special).
fn kernel_matrix(rows: usize, cols: usize, special: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec((0usize..256, -10.0f64..10.0), rows * cols).prop_map(move |raw| {
        let data = raw
            .into_iter()
            .map(|(c, mag)| if c < special { entry(c % 4, mag) } else { entry(4 + c % 60, mag) })
            .collect();
        Matrix::from_vec(rows, cols, data)
    })
}

/// Shapes from zero columns to two 8-wide tiles and a remainder, zero rows
/// included, and their operands: `x` (n × p), `y` (n × m), `b` (p × m).
fn kernel_operands() -> impl Strategy<Value = (Matrix, Matrix, Matrix)> {
    (0..=24usize, 0..=20usize, 0..=20usize, 0..3usize).prop_flat_map(|(n, p, m, s)| {
        let special = [0, 2, 12][s];
        (kernel_matrix(n, p, special), kernel_matrix(n, m, special), kernel_matrix(p, m, special))
    })
}

/// The held-out pass's operands over the same shapes: `x` (n × p), `beta`
/// (p × m), `y` (n × m) and an intercept `m` long.
fn held_out_operands() -> impl Strategy<Value = (Matrix, Matrix, Matrix, Vec<f64>)> {
    (0..=24usize, 0..=20usize, 0..=20usize, 0..3usize).prop_flat_map(|(n, p, m, s)| {
        let special = [0, 2, 12][s];
        let intercept = kernel_matrix(1, m, special).prop_map(|b| b.as_slice().to_vec());
        (
            kernel_matrix(n, p, special),
            kernel_matrix(p, m, special),
            kernel_matrix(n, m, special),
            intercept,
        )
    })
}

/// xorshift64: a fixed, dependency-free stream for the pinned corpus.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A corpus operand: plain values, exact zeros of both signs and
/// subnormals at random; the last column constant when there are three or
/// more; one `1e300` and one `-1e-300`; in `variant` 1 and 2 one NaN (its
/// payload and sign from `seed`), in `variant` 2 also one `-inf`.
fn corpus_matrix(rows: usize, cols: usize, seed: u64, variant: usize) -> Matrix {
    let mut s = seed | 1;
    let mut m = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            let r = xorshift(&mut s);
            let sign = if r & (1 << 40) == 0 { 1.0 } else { -1.0 };
            m[(i, j)] = match r % 16 {
                0..=2 => 0.0,
                3 => -0.0,
                4 => sign * f64::from_bits(1 + (r >> 20) % 4096),
                _ => ((r >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 20.0,
            };
        }
    }
    if cols >= 3 {
        for i in 0..rows {
            m[(i, cols - 1)] = 2.5;
        }
    }
    if rows > 0 && cols > 0 {
        m[(rows - 1, 0)] = 1e300;
        m[(rows / 2, cols / 2)] = -1e-300;
        if variant >= 1 {
            let payload = 0x7ff8_0000_0000_0000 | (seed & 0x8000_0000_0000_ffff);
            m[(rows / 3, (cols - 1) / 2)] = f64::from_bits(payload);
        }
        if variant == 2 {
            m[(2 * rows / 3, 0)] = f64::NEG_INFINITY;
        }
    }
    m
}

/// FNV-1a over the shape and the bits of every output.
fn fold(hash: &mut u64, shape: (usize, usize), values: &[f64]) {
    let words = [shape.0 as u64, shape.1 as u64].into_iter().chain(bits(values));
    for word in words {
        for byte in word.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Per width `p` in `lefts`: one hash each over `xtx`, `xt_mul`, `matmul`
/// and `Standardizer::fit_transform` (means, stds and the standardised
/// rows), across rows {0, 1, 7, 1152}, three variants and the right-hand
/// widths `rights`.
fn kernel_pins(lefts: &[usize], rights: &[usize]) -> Vec<(usize, [u64; 4])> {
    let mut pins = Vec::new();
    for &p in lefts {
        let mut h = [0xcbf2_9ce4_8422_2325u64; 4];
        for n in [0, 1, 7, 1152] {
            for variant in 0..3 {
                let seed =
                    ((p * 100_000 + n * 10 + variant) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let x = corpus_matrix(n, p, seed, variant);
                fold(&mut h[0], (p, p), x.xtx().as_slice());
                for &m in rights {
                    let y = corpus_matrix(n, m, seed ^ 0x5555, variant);
                    let b = corpus_matrix(p, m, seed ^ 0xaaaa, variant);
                    let xty = x.xt_mul(&y).expect("same rows");
                    fold(&mut h[1], xty.shape(), xty.as_slice());
                    let xb = x.matmul(&b).expect("inner widths agree");
                    fold(&mut h[2], xb.shape(), xb.as_slice());
                }
                let (s, t) = Standardizer::fit_transform(&x);
                fold(&mut h[3], (p, 2), &[s.means(), s.stds()].concat());
                fold(&mut h[3], t.shape(), t.as_slice());
            }
        }
        pins.push((p, h));
    }
    pins
}

/// The scoring kernels' output bits (`[xtx, xt_mul, matmul, fit_transform]`
/// per width): `PARENT_BITS` pinned at the commit before their fixed-width
/// versions, `TILED_BITS` (right-hand widths 14 and 17, left widths up to
/// 24) at the commit before the column tiles. The two tables hash the same
/// `xtx` and `fit_transform` for the widths they share.
#[test]
fn kernels_are_the_parent_bits() {
    const PARENT_BITS: [(usize, [u64; 4]); 10] = [
        (1, [0x111d7b25cdd65e80, 0x2d0582468dca921c, 0x60bbe732625fd525, 0xebe031657c703541]),
        (2, [0xea6a5b243fdd6e27, 0xeb3fbb67e2043a3f, 0x0c4d7f346e02e60d, 0x3ccaa0bf4d433d7b]),
        (3, [0x9790304e1f2fa481, 0x9b3b978881599ba6, 0x7440e618c3026158, 0xa2ba02462ef983bf]),
        (4, [0x7a364275aa89662d, 0x886a107ce08d49d3, 0x4aa1ed5d37fd1364, 0x9f01840af2ca2206]),
        (5, [0x927e7d55ede039f2, 0x6e54603b4c244085, 0xe907d296bead4d5d, 0x15a35d116313d9cf]),
        (6, [0x503b4acafe1eff4c, 0x457ef5ddcb702365, 0xc5dc32be2441443a, 0xe22f3d8693d064e9]),
        (7, [0xa4db3e31dfe294a1, 0x2fd519ac1046f8f7, 0x13344cd164004e7f, 0x86bed325dc98f552]),
        (8, [0xdd3b0491d3432651, 0xd21f6819e4cd3abd, 0x936cb4ece7766b5d, 0xcf00b9c7bbbbc12e]),
        (9, [0x09c899383dc08b05, 0x0905e73f9efa5daf, 0x3a48d6436a0b75ab, 0x6c3eabc185baf1ad]),
        (14, [0x9e5e342e8235e383, 0x7b2de3ae07a1db0f, 0x93f60005a9bd5558, 0xe3ae1bf7af345ecd]),
    ];
    const TILED_BITS: [(usize, [u64; 4]); 12] = [
        (1, [0x111d7b25cdd65e80, 0xceee25ef9e22ed44, 0x6e97131b1546d7a8, 0xebe031657c703541]),
        (2, [0xea6a5b243fdd6e27, 0x9ebd8a5cccfe73fe, 0xca1c733c92b042e8, 0x3ccaa0bf4d433d7b]),
        (3, [0x9790304e1f2fa481, 0x99a3be1e3a460c4b, 0x90361922f6adbfbf, 0xa2ba02462ef983bf]),
        (4, [0x7a364275aa89662d, 0xb9acfefb9daeeb3e, 0x3d77fb3e02676d24, 0x9f01840af2ca2206]),
        (5, [0x927e7d55ede039f2, 0x4494565c814f8cf6, 0xa5d6ae383376d913, 0x15a35d116313d9cf]),
        (6, [0x503b4acafe1eff4c, 0x179282c3a309b94c, 0x5dfa3d925a32cf1f, 0xe22f3d8693d064e9]),
        (7, [0xa4db3e31dfe294a1, 0x267443eea72c8c6e, 0x01fdea4a044b2ed9, 0x86bed325dc98f552]),
        (8, [0xdd3b0491d3432651, 0x64e127ed16e7f139, 0x502eeca5c8120107, 0xcf00b9c7bbbbc12e]),
        (9, [0x09c899383dc08b05, 0x3bf6a4c225bf600f, 0xda03558808165f0a, 0x6c3eabc185baf1ad]),
        (14, [0x9e5e342e8235e383, 0x9c9d7d04b40c3aeb, 0x7cd7408de65bb7fb, 0xe3ae1bf7af345ecd]),
        (17, [0x477fdfa4aa80fc5a, 0x75bc8f9a7f96a44a, 0x9fac9816190f8dae, 0x77ba05ec917ea35b]),
        (24, [0xaa464c020e76520f, 0x24fa33115feb5269, 0x5de02bf3319859a1, 0x3e5059832cadd963]),
    ];
    let lefts: Vec<usize> = (1..=9).chain([14]).collect();
    assert_eq!(kernel_pins(&lefts, &[1, 4, 8, 9]), PARENT_BITS);
    let lefts: Vec<usize> = (1..=9).chain([14, 17, 24]).collect();
    assert_eq!(kernel_pins(&lefts, &[14, 17]), TILED_BITS);
}

/// Strategy: a small matrix with bounded entries.
fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f64..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// Strategy: a tall matrix (rows >= cols).
fn tall_matrix_strategy() -> impl Strategy<Value = Matrix> {
    (2..=6usize, 1..=4usize).prop_flat_map(|(extra, c)| {
        let r = c + extra;
        proptest::collection::vec(-10.0f64..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    // The default config: 96 cases, or `PROPTEST_CASES`.

    /// Every scoring kernel ≡ its plain loop, by bits, from one tile to two
    /// and a remainder on either operand, with zero rows or columns, NaN
    /// and ±inf entries.
    #[test]
    fn kernels_equal_the_plain_loops((x, y, b) in kernel_operands()) {
        let same = |got: &Matrix, want: &Matrix| {
            got.shape() == want.shape() && bits(got.as_slice()) == bits(want.as_slice())
        };
        prop_assert!(same(&x.xtx(), &reference_xtx(&x)), "xtx of {:?}", x);
        let xty = x.xt_mul(&y).expect("same rows");
        prop_assert!(same(&xty, &reference_xt_mul(&x, &y)), "xt_mul of {:?} and {:?}", x, y);
        let xb = x.matmul(&b).expect("inner widths agree");
        prop_assert!(same(&xb, &reference_matmul(&x, &b)), "matmul of {:?} and {:?}", x, b);
        let (s, t) = Standardizer::fit_transform(&x);
        let (means, stds, want) = reference_standardize(&x);
        prop_assert_eq!(bits(s.means()), bits(&means));
        prop_assert_eq!(bits(s.stds()), bits(&stds));
        prop_assert_eq!(bits(&x.column_means()), bits(&means));
        prop_assert_eq!(bits(&x.column_stds()), bits(&stds));
        prop_assert!(same(&t, &want), "standardised {:?}", x);
    }

    /// The held-out pass ≡ scoring the stored prediction by bits: each
    /// column's residual sum of squares against a plain loop, and the r² of
    /// `r2_held_out` against `r2_columns_mean(y, x · β + intercept,
    /// intercept)` — the prediction `linear_predict` forms, its product the
    /// plain loop above — from zero columns to three tiles on either side.
    #[test]
    fn held_out_pass_is_the_r2_of_the_stored_prediction((x, b, y, icpt) in held_out_operands()) {
        let mut pred = reference_matmul(&x, &b);
        for i in 0..pred.nrows() {
            for (v, &c) in pred.row_mut(i).iter_mut().zip(&icpt) {
                *v += c;
            }
        }
        let mut rss = vec![0.0; y.ncols()];
        for i in 0..y.nrows() {
            for (o, r) in rss.iter_mut().enumerate() {
                let e = y[(i, o)] - pred[(i, o)];
                *r += e * e;
            }
        }
        let got = x.residual_sum_squares(&b, &icpt, &y).expect("shapes agree");
        prop_assert_eq!(bits(&got), bits(&rss), "residual sums of {:?}, {:?}, {:?}", x, b, y);
        let tss = y.column_squared_deviations(&icpt);
        let want = r2_columns_mean(&y, &pred, &icpt);
        prop_assert_eq!(bits(&[r2_held_out(&x, &b, &icpt, &y, &tss)]), bits(&[want]));
    }

    #[test]
    fn transpose_involution(m in matrix_strategy(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn xtx_is_symmetric_psd_diagonal(m in matrix_strategy(8)) {
        let g = m.xtx();
        for i in 0..g.nrows() {
            // Diagonal of a Gram matrix is a sum of squares.
            prop_assert!(g[(i, i)] >= -1e-12);
            for j in 0..g.ncols() {
                prop_assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn matmul_associates_with_vectors(m in matrix_strategy(6), s in -3.0f64..3.0) {
        // (s*A) v == s*(A v)
        let v: Vec<f64> = (0..m.ncols()).map(|i| (i as f64) - 1.0).collect();
        let av = m.matvec(&v).unwrap();
        let mut sm = m.clone();
        sm.scale_in_place(s);
        let smv = sm.matvec(&v).unwrap();
        for (a, b) in av.iter().zip(smv.iter()) {
            prop_assert!((a * s - b).abs() < 1e-7);
        }
    }

    #[test]
    fn cholesky_round_trip(m in tall_matrix_strategy()) {
        // X^T X + I is always SPD.
        let mut a = m.xtx();
        a.add_diagonal(1.0);
        let c = Cholesky::factor(&a).unwrap();
        let recon = c.l().matmul(&c.l().transpose()).unwrap();
        let diff = recon.sub(&a).unwrap();
        prop_assert!(diff.max_abs() < 1e-8 * (1.0 + a.max_abs()));
    }

    #[test]
    fn cholesky_solve_residual_small(m in tall_matrix_strategy()) {
        let mut a = m.xtx();
        a.add_diagonal(1.0);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let c = Cholesky::factor(&a).unwrap();
        let x = c.solve_vec(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (l, r) in ax.iter().zip(b.iter()) {
            prop_assert!((l - r).abs() < 1e-7 * (1.0 + a.max_abs()));
        }
    }

    #[test]
    fn qr_residual_orthogonal_to_columns(m in tall_matrix_strategy()) {
        // Least-squares residuals are orthogonal to the design columns —
        // the exact property Appendix B's proof relies on.
        let n = m.nrows();
        let y: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let qr = match QrDecomposition::factor(&m) {
            Ok(qr) => qr,
            Err(_) => return Ok(()),
        };
        let beta = match qr.solve_vec(&y) {
            Ok(b) => b,
            Err(_) => return Ok(()), // rank-deficient random draw
        };
        let fitted = m.matvec(&beta).unwrap();
        let resid: Vec<f64> = y.iter().zip(fitted.iter()).map(|(a, b)| a - b).collect();
        for j in 0..m.ncols() {
            let col = m.column(j);
            let dot: f64 = col.iter().zip(&resid).map(|(c, r)| c * r).sum();
            prop_assert!(dot.abs() < 1e-6 * (1.0 + m.max_abs() * 10.0));
        }
    }

    #[test]
    fn hcat_preserves_columns(a in matrix_strategy(5)) {
        let b = a.clone();
        let h = a.hcat(&b).unwrap();
        prop_assert_eq!(h.ncols(), a.ncols() * 2);
        for j in 0..a.ncols() {
            prop_assert_eq!(h.column(j), a.column(j));
            prop_assert_eq!(h.column(j + a.ncols()), a.column(j));
        }
    }

    #[test]
    fn select_rows_matches_row_access(m in matrix_strategy(6)) {
        let idx: Vec<usize> = (0..m.nrows()).rev().collect();
        let sel = m.select_rows(&idx);
        for (dst, &src) in idx.iter().enumerate() {
            prop_assert_eq!(sel.row(dst), m.row(src));
        }
    }
}
