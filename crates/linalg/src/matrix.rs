use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{LinalgError, Result};

/// Evaluates `$tile` with the constant `$w` bound to `$width`, the width of
/// one column tile (1..=8, what [`tiles`] yields).
///
/// This is how the scoring kernels (`xtx`, `xt_mul`, `matmul`,
/// `residual_sum_squares`, `column_means`, `column_stds_about`,
/// `standardize_columns_in_place`) meet any width. An operand is cut into
/// column tiles at most 8 wide — 14 is 8 + 6, 17 is 8 + 8 + 1 — and each
/// tile runs a kernel const-generic over its accumulator block, a local
/// array the compiler unrolls and keeps in registers, where a loop over a
/// runtime width walks the accumulators through memory behind bounds checks.
/// Every tile is exactly as wide as its columns: one zero-padded 8-wide
/// tile for every width would do up to 36 products per row where a 1-wide
/// Gram needs one. Tiling never changes the arithmetic: an accumulator
/// belongs to one output entry, which lies in exactly one tile (one pair of
/// tiles for a product), and there it starts at `+0.0` and adds its terms
/// rows ascending (`k` ascending for `matmul`), product then add, operands
/// in the order of the plain loops — so the kernels agree with those loops
/// by bits, up to the sign and payload of a NaN, which Rust leaves
/// unspecified. Every kernel keeps the `== 0.0` skip, because dropping it
/// is not exact: `0 × ±inf` and `0 × NaN` are NaN, not `0`.
/// `tests/proptests.rs` holds the kernels to plain loops and to the output
/// bits recorded before the fixed-width kernels and before the tiles.
macro_rules! by_width {
    ($width:expr, $w:ident => $tile:expr) => {
        match $width {
            1 => {
                const $w: usize = 1;
                $tile
            }
            2 => {
                const $w: usize = 2;
                $tile
            }
            3 => {
                const $w: usize = 3;
                $tile
            }
            4 => {
                const $w: usize = 4;
                $tile
            }
            5 => {
                const $w: usize = 5;
                $tile
            }
            6 => {
                const $w: usize = 6;
                $tile
            }
            7 => {
                const $w: usize = 7;
                $tile
            }
            8 => {
                const $w: usize = 8;
                $tile
            }
            w => unreachable!("a column tile is 1 to {TILE} wide, not {w}"),
        }
    };
}

/// The widest column tile: an 8 × 8 block of accumulators still fits the
/// registers of the scoring kernels' hottest loops.
const TILE: usize = 8;

/// The column tiles of a `width`-wide operand, left to right: `(first
/// column, tile width)`, every tile [`TILE`] wide but the last (none for
/// width 0).
fn tiles(width: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..width).step_by(TILE).map(move |c| (c, TILE.min(width - c)))
}

/// A dense, row-major, `f64` matrix.
///
/// Row-major layout mirrors the paper's "dense arrays" optimisation (§4.2):
/// observation matrices are `T × F` with one observation per row, so
/// row-major storage makes per-timestamp access contiguous and lets the
/// `X^T X` Gram kernels stream memory linearly.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].as_ref().len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            let r = r.as_ref();
            assert_eq!(r.len(), cols, "ragged rows passed to Matrix::from_rows");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Builds a matrix from column slices (each column must have equal length).
    ///
    /// # Panics
    /// Panics if columns have inconsistent lengths.
    pub fn from_columns<C: AsRef<[f64]>>(columns: &[C]) -> Self {
        if columns.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let rows = columns[0].as_ref().len();
        let cols = columns.len();
        let mut m = Matrix::zeros(rows, cols);
        for (j, c) in columns.iter().enumerate() {
            let c = c.as_ref();
            assert_eq!(c.len(), rows, "ragged columns passed to Matrix::from_columns");
            for (i, &v) in c.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Builds a single-column matrix from a slice.
    pub fn column_vector(values: &[f64]) -> Self {
        Matrix::from_vec(values.len(), 1, values.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `i` as a contiguous slice.
    ///
    /// # Panics
    /// Panics if `i >= nrows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i`.
    ///
    /// # Panics
    /// Panics if `i >= nrows()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({} rows)", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    /// Panics if `j >= ncols()`.
    pub fn column(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index {j} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Writes `values` into column `j`.
    ///
    /// # Panics
    /// Panics on index or length mismatch.
    pub fn set_column(&mut self, j: usize, values: &[f64]) {
        assert!(j < self.cols, "column index {j} out of bounds ({} cols)", self.cols);
        assert_eq!(values.len(), self.rows, "column length mismatch");
        for (i, &v) in values.iter().enumerate() {
            self[(i, j)] = v;
        }
    }

    /// Iterates over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                t[(j, i)] = v;
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// Uses the i-k-j loop order: output entry `(i, o)` adds
    /// `self[(i, k)] * rhs[(k, o)]` for `k` ascending, skipping a zero
    /// `self[(i, k)]`. Each row is accumulated in registers, one column tile
    /// of the output at a time (see `by_width!`).
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let m = rhs.cols;
        let mut out = Matrix::zeros(self.rows, m);
        for (o, w) in tiles(m) {
            by_width!(w, M => {
                let rows = product_rows::<M>(self, rhs, o);
                for (out_row, acc) in out.data.chunks_exact_mut(m).zip(rows) {
                    out_row[o..o + M].copy_from_slice(&acc);
                }
            });
        }
        Ok(out)
    }

    /// Residual sums of squares of a linear prediction: entry `o` adds
    /// `(y[i][o] − (pred + intercept[o]))²` over rows `i` ascending, where
    /// `pred` is entry `(i, o)` of `self * coef` as [`Matrix::matmul`] forms
    /// it. The same bits as forming `self * coef`, adding the intercept to
    /// each row and summing the squared errors column by column, without
    /// storing the prediction: each prediction row lives in registers, one
    /// column tile at a time (see `by_width!`). Held-out scoring calls this
    /// once per fold and penalty. The rows are `y`'s, so a design without
    /// columns predicts the intercept on every row instead of on none.
    ///
    /// # Panics
    /// Panics if `intercept.len() != y.ncols()`.
    pub fn residual_sum_squares(
        &self,
        coef: &Matrix,
        intercept: &[f64],
        y: &Matrix,
    ) -> Result<Vec<f64>> {
        let op = "residual_sum_squares";
        if self.cols != coef.rows {
            return Err(LinalgError::ShapeMismatch { op, lhs: self.shape(), rhs: coef.shape() });
        }
        if (self.rows, coef.cols) != y.shape() {
            let lhs = (self.rows, coef.cols);
            return Err(LinalgError::ShapeMismatch { op, lhs, rhs: y.shape() });
        }
        assert_eq!(intercept.len(), y.cols, "intercept length mismatch");
        let m = y.cols;
        let mut rss = vec![0.0; m];
        for (o, w) in tiles(m) {
            by_width!(w, M => {
                let mut sums = [0.0; M];
                let b = &intercept[o..o + M];
                for (y_row, pred) in y.data.chunks_exact(m).zip(product_rows::<M>(self, coef, o)) {
                    let y_tile = &y_row[o..o + M];
                    for t in 0..M {
                        let e = y_tile[t] - (pred[t] + b[t]);
                        sums[t] += e * e;
                    }
                }
                rss[o..o + M].copy_from_slice(&sums);
            });
        }
        Ok(rss)
    }

    /// Gram matrix `X^T X` (symmetric, `cols × cols`).
    ///
    /// Computes only the upper triangle and mirrors it, halving the work of a
    /// generic product: entry `(j, k)`, `j <= k`, adds `x[i][j] * x[i][k]`
    /// for rows `i` ascending, skipping a zero `x[i][j]`. This is the hot
    /// kernel of ridge scoring when `T > F`. Its accumulators stay in
    /// registers one block at a time (see `by_width!`): the upper triangle
    /// of each diagonal tile, and each tile pair above the diagonal.
    pub fn xtx(&self) -> Matrix {
        let p = self.cols;
        let mut g = Matrix::zeros(p, p);
        let (x, out) = (&self.data, &mut g.data);
        for (t, (j, pj)) in tiles(p).enumerate() {
            by_width!(pj, P => xtx_tile::<P>(x, p, j, out));
            for (k, pk) in tiles(p).skip(t + 1) {
                by_width!(pj, P => by_width!(pk, K => xt_mul_tile::<P, K>(x, p, j, x, p, k, out)));
            }
        }
        for j in 0..p {
            for k in (j + 1)..p {
                g[(k, j)] = g[(j, k)];
            }
        }
        g
    }

    /// Outer Gram matrix `X X^T` (symmetric, `rows × rows`).
    ///
    /// Used by the kernel-form ridge solve when `F > T` (the p ≫ n regime of
    /// Appendix A).
    pub fn xxt(&self) -> Matrix {
        let n = self.rows;
        let mut g = Matrix::zeros(n, n);
        for i in 0..n {
            let ri = self.row(i);
            for j in i..n {
                let rj = self.row(j);
                let mut acc = 0.0;
                for (&a, &b) in ri.iter().zip(rj.iter()) {
                    acc += a * b;
                }
                g[(i, j)] = acc;
                g[(j, i)] = acc;
            }
        }
        g
    }

    /// `X^T * rhs` without materialising the transpose: entry `(j, o)` adds
    /// `x[i][j] * rhs[i][o]` for rows `i` ascending, skipping a zero
    /// `x[i][j]`. The accumulators stay in registers one block at a time,
    /// for each pair of a column tile of `self` and one of `rhs` (see
    /// `by_width!`).
    pub fn xt_mul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "xt_mul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (p, m) = (self.cols, rhs.cols);
        let mut xty = Matrix::zeros(p, m);
        let (x, y, out) = (&self.data, &rhs.data, &mut xty.data);
        for (j, pj) in tiles(p) {
            for (o, mo) in tiles(m) {
                by_width!(pj, P => by_width!(mo, M => xt_mul_tile::<P, M>(x, p, j, y, m, o, out)));
            }
        }
        Ok(xty)
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok(self
            .rows_iter()
            .map(|row| row.iter().zip(v.iter()).map(|(&a, &b)| a * b).sum())
            .collect())
    }

    /// Element-wise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch { op, lhs: self.shape(), rhs: rhs.shape() });
        }
        let data = self.data.iter().zip(rhs.data.iter()).map(|(&a, &b)| f(a, b)).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_in_place(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Adds `value` to every diagonal element in place (ridge regularisation).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn add_diagonal(&mut self, value: f64) {
        assert_eq!(self.rows, self.cols, "add_diagonal requires a square matrix");
        for i in 0..self.rows {
            self[(i, i)] += value;
        }
    }

    /// Extracts the sub-matrix of the given row range (half-open).
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn row_range(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "row range {start}..{end} out of bounds");
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// The complement of [`Matrix::row_range`]: every row outside the
    /// half-open range, order preserved (a cross-validation fold's training
    /// block, copied as two contiguous runs).
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn without_row_range(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "row range {start}..{end} out of bounds");
        let kept = [&self.data[..start * self.cols], &self.data[end * self.cols..]].concat();
        Matrix { rows: self.rows - (end - start), cols: self.cols, data: kept }
    }

    /// Builds a matrix by stacking the selected rows (by index) in order.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Builds a matrix keeping only the selected columns, in order.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn select_columns(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for i in 0..self.rows {
            let src = self.row(i);
            let dst = &mut out.data[i * indices.len()..(i + 1) * indices.len()];
            for (d, &j) in dst.iter_mut().zip(indices.iter()) {
                *d = src[j];
            }
        }
        out
    }

    /// Horizontally concatenates `self` and `rhs` (same row count).
    pub fn hcat(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "hcat",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for i in 0..self.rows {
            let dst = &mut out.data[i * (self.cols + rhs.cols)..(i + 1) * (self.cols + rhs.cols)];
            dst[..self.cols].copy_from_slice(self.row(i));
            dst[self.cols..].copy_from_slice(rhs.row(i));
        }
        Ok(out)
    }

    /// Vertically concatenates `self` and `rhs` (same column count).
    pub fn vcat(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vcat",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + rhs.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&rhs.data);
        Ok(Matrix { rows: self.rows + rhs.rows, cols: self.cols, data })
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Per-column means: each column's sum over rows ascending, divided by
    /// the row count (zeros when there are no rows).
    pub fn column_means(&self) -> Vec<f64> {
        let (x, p) = (&self.data, self.cols);
        let mut means = vec![0.0; p];
        if self.rows == 0 {
            return means;
        }
        for (j, w) in tiles(p) {
            by_width!(w, P => column_sums::<P>(x, p, j, &mut means[j..j + P]));
        }
        let n = self.rows as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Per-column population standard deviations.
    pub fn column_stds(&self) -> Vec<f64> {
        self.column_stds_about(&self.column_means())
    }

    /// Per-column population standard deviations around the column means
    /// `means` (what [`Matrix::column_means`] returns, passed in so a caller
    /// that needs both computes them once): the
    /// [`Matrix::column_squared_deviations`] from them divided by the row
    /// count (at least 1), square-rooted.
    ///
    /// # Panics
    /// Panics if `means.len() != ncols()`.
    pub fn column_stds_about(&self, means: &[f64]) -> Vec<f64> {
        let mut vars = self.column_squared_deviations(means);
        let n = (self.rows as f64).max(1.0);
        for v in &mut vars {
            *v = (*v / n).sqrt();
        }
        vars
    }

    /// Per-column sums of squared deviations from `centres`: column `j`
    /// adds `(x[i][j] − centres[j])²` over rows `i` ascending.
    ///
    /// # Panics
    /// Panics if `centres.len() != ncols()`.
    pub fn column_squared_deviations(&self, centres: &[f64]) -> Vec<f64> {
        assert_eq!(centres.len(), self.cols, "centres length mismatch");
        let (x, p) = (&self.data, self.cols);
        let mut sums = vec![0.0; p];
        for (j, w) in tiles(p) {
            let (c, out) = (&centres[j..j + w], &mut sums[j..j + w]);
            by_width!(w, P => squared_deviations::<P>(x, p, j, c, out));
        }
        sums
    }

    /// Standardises every column in place: column `j` less `means[j]`, then
    /// divided by `stds[j]` where that is positive (a constant column is
    /// centred, not scaled).
    ///
    /// # Panics
    /// Panics if `means` or `stds` is not `ncols()` long.
    pub fn standardize_columns_in_place(&mut self, means: &[f64], stds: &[f64]) {
        assert_eq!(means.len(), self.cols, "means length mismatch");
        assert_eq!(stds.len(), self.cols, "stds length mismatch");
        let p = self.cols;
        for (j, w) in tiles(p) {
            let (m, s) = (&means[j..j + w], &stds[j..j + w]);
            by_width!(w, P => standardize_rows::<P>(&mut self.data, p, j, m, s));
        }
    }

    /// Subtracts `means[j]` from every element of column `j`, in place.
    ///
    /// # Panics
    /// Panics if `means.len() != ncols()`.
    pub fn center_columns_in_place(&mut self, means: &[f64]) {
        assert_eq!(means.len(), self.cols, "means length mismatch");
        for i in 0..self.rows {
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (v, &m) in row.iter_mut().zip(means.iter()) {
                *v -= m;
            }
        }
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Maximum absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }
}

// The scoring kernels, one column tile each (`by_width!`): const-generic
// over the tile's width, their accumulators a local array. A tile reads
// columns `j..j + P` of rows `p` wide (`p >= 1`: a zero-width operand has no
// tiles), so a kernel over the whole of an operand at most 8 wide is the
// case `j = 0`, `P = p`.

/// The rows of `a * b` restricted to the `M` output columns from `o`, rows
/// ascending: entry `t` of row `i` adds `a[i][k] * b[k][o + t]` for `k`
/// ascending, skipping a zero `a[i][k]`. Rows are counted, not cut from `a`,
/// so an `a` without columns still yields its rows (of zeros).
fn product_rows<'a, const M: usize>(
    a: &'a Matrix,
    b: &Matrix,
    o: usize,
) -> impl Iterator<Item = [f64; M]> + 'a {
    let k = a.cols;
    // The tile's columns of `b`, copied once into `k` contiguous rows of
    // `M`: read in place through `b`'s row stride instead, the held-out
    // pass cost ≈ 9% of the interactive re-rank benchmark end to end.
    let b_tile: Vec<[f64; M]> = b
        .data
        .chunks_exact(b.cols)
        .map(|row| {
            let mut t = [0.0; M];
            t.copy_from_slice(&row[o..o + M]);
            t
        })
        .collect();
    (0..a.rows).map(move |i| {
        let mut acc = [0.0; M];
        for (&a_ik, b_row) in a.data[i * k..(i + 1) * k].iter().zip(&b_tile) {
            if a_ik == 0.0 {
                continue;
            }
            for t in 0..M {
                acc[t] += a_ik * b_row[t];
            }
        }
        acc
    })
}

/// The upper triangle of the diagonal block of `XᵀX` over columns
/// `j..j + P`, written to `g` (`p × p`).
fn xtx_tile<const P: usize>(x: &[f64], p: usize, j: usize, g: &mut [f64]) {
    let mut acc = [[0.0; P]; P];
    for row in x.chunks_exact(p) {
        let a = &row[j..j + P];
        for r in 0..P {
            let a_r = a[r];
            if a_r == 0.0 {
                continue;
            }
            for c in r..P {
                acc[r][c] += a_r * a[c];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        g[(j + r) * p + j..(j + r) * p + j + P].copy_from_slice(acc_row);
    }
}

/// The block of `XᵀY` over columns `j..j + P` of `x` (rows `p` wide) and
/// `o..o + M` of `y` (rows `m` wide), written to `out` (`· × m`). `xtx`
/// runs its blocks above the diagonal through this with `y = x`.
fn xt_mul_tile<const P: usize, const M: usize>(
    x: &[f64],
    p: usize,
    j: usize,
    y: &[f64],
    m: usize,
    o: usize,
    out: &mut [f64],
) {
    let mut acc = [[0.0; M]; P];
    for (x_row, y_row) in x.chunks_exact(p).zip(y.chunks_exact(m)) {
        let (a, b) = (&x_row[j..j + P], &y_row[o..o + M]);
        for r in 0..P {
            let a_r = a[r];
            if a_r == 0.0 {
                continue;
            }
            for t in 0..M {
                acc[r][t] += a_r * b[t];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[(j + r) * m + o..(j + r) * m + o + M].copy_from_slice(acc_row);
    }
}

fn column_sums<const P: usize>(x: &[f64], p: usize, j: usize, sums: &mut [f64]) {
    let mut acc = [0.0; P];
    for row in x.chunks_exact(p) {
        let a = &row[j..j + P];
        for r in 0..P {
            acc[r] += a[r];
        }
    }
    sums.copy_from_slice(&acc);
}

fn squared_deviations<const P: usize>(
    x: &[f64],
    p: usize,
    j: usize,
    centres: &[f64],
    out: &mut [f64],
) {
    let mut centre = [0.0; P];
    centre.copy_from_slice(centres);
    let mut acc = [0.0; P];
    for row in x.chunks_exact(p) {
        let a = &row[j..j + P];
        for r in 0..P {
            let d = a[r] - centre[r];
            acc[r] += d * d;
        }
    }
    out.copy_from_slice(&acc);
}

fn standardize_rows<const P: usize>(
    x: &mut [f64],
    p: usize,
    j: usize,
    means: &[f64],
    stds: &[f64],
) {
    let (mut mean, mut std) = ([0.0; P], [0.0; P]);
    mean.copy_from_slice(means);
    std.copy_from_slice(stds);
    for row in x.chunks_exact_mut(p) {
        let a = &mut row[j..j + P];
        for r in 0..P {
            a[r] -= mean[r];
            if std[r] > 0.0 {
                a[r] /= std[r];
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for i in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for (j, v) in self.row(i).iter().enumerate().take(8) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert!(approx(i[(0, 0)], 1.0) && approx(i[(1, 2)], 0.0));
    }

    #[test]
    fn from_rows_and_columns_agree() {
        let a = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0]]);
        let b = Matrix::from_columns(&[[1.0, 3.0], [2.0, 4.0]]);
        assert_eq!(a, b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert!(approx(a.transpose()[(2, 1)], 6.0));
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0]]);
        let b = Matrix::from_rows(&[[5.0, 6.0], [7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert!(approx(c[(0, 0)], 19.0));
        assert!(approx(c[(0, 1)], 22.0));
        assert!(approx(c[(1, 0)], 43.0));
        assert!(approx(c[(1, 1)], 50.0));
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(LinalgError::ShapeMismatch { .. })));
    }

    #[test]
    fn xtx_matches_explicit_product() {
        let x = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]);
        let g = x.xtx();
        let explicit = x.transpose().matmul(&x).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(approx(g[(i, j)], explicit[(i, j)]));
            }
        }
    }

    #[test]
    fn xxt_matches_explicit_product() {
        let x = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]);
        let g = x.xxt();
        let explicit = x.matmul(&x.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!(approx(g[(i, j)], explicit[(i, j)]));
            }
        }
    }

    #[test]
    fn xt_mul_matches_transpose_matmul() {
        let x = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]);
        let y = Matrix::from_rows(&[[1.0], [0.5], [-1.0]]);
        let a = x.xt_mul(&y).unwrap();
        let b = x.transpose().matmul(&y).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn matvec_known_result() {
        let a = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0]]);
        let v = a.matvec(&[1.0, -1.0]).unwrap();
        assert!(approx(v[0], -1.0) && approx(v[1], -1.0));
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[[1.0, 2.0]]);
        let b = Matrix::from_rows(&[[3.0, 5.0]]);
        assert!(approx(a.add(&b).unwrap()[(0, 1)], 7.0));
        assert!(approx(b.sub(&a).unwrap()[(0, 0)], 2.0));
        let mut c = a;
        c.scale_in_place(3.0);
        assert!(approx(c[(0, 1)], 6.0));
    }

    #[test]
    fn add_diagonal_only_touches_diagonal() {
        let mut a = Matrix::zeros(2, 2);
        a.add_diagonal(2.5);
        assert!(approx(a[(0, 0)], 2.5) && approx(a[(0, 1)], 0.0));
    }

    #[test]
    fn row_range_and_select() {
        let a = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]);
        let mid = a.row_range(1, 3);
        assert_eq!(mid.shape(), (2, 2));
        assert!(approx(mid[(0, 0)], 3.0));
        assert_eq!(a.without_row_range(1, 2), a.select_rows(&[0, 2]));
        assert_eq!(a.without_row_range(0, 0), a);
        assert_eq!(a.without_row_range(0, 3).shape(), (0, 2));
        let sel = a.select_rows(&[2, 0]);
        assert!(approx(sel[(0, 0)], 5.0) && approx(sel[(1, 1)], 2.0));
        let cols = a.select_columns(&[1]);
        assert_eq!(cols.shape(), (3, 1));
        assert!(approx(cols[(2, 0)], 6.0));
    }

    #[test]
    fn hcat_vcat() {
        let a = Matrix::from_rows(&[[1.0], [2.0]]);
        let b = Matrix::from_rows(&[[3.0], [4.0]]);
        let h = a.hcat(&b).unwrap();
        assert_eq!(h.shape(), (2, 2));
        assert!(approx(h[(1, 1)], 4.0));
        let v = a.vcat(&b).unwrap();
        assert_eq!(v.shape(), (4, 1));
        assert!(approx(v[(3, 0)], 4.0));
    }

    #[test]
    fn column_means_and_stds() {
        let a = Matrix::from_rows(&[[1.0, 10.0], [3.0, 10.0]]);
        let m = a.column_means();
        assert!(approx(m[0], 2.0) && approx(m[1], 10.0));
        let s = a.column_stds();
        assert!(approx(s[0], 1.0) && approx(s[1], 0.0));
    }

    #[test]
    fn center_columns() {
        let mut a = Matrix::from_rows(&[[1.0, 4.0], [3.0, 8.0]]);
        let means = a.column_means();
        a.center_columns_in_place(&means);
        assert!(approx(a.column_means()[0], 0.0));
        assert!(approx(a.column_means()[1], 0.0));
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(1, 2);
        assert!(!a.has_non_finite());
        a[(0, 1)] = f64::NAN;
        assert!(a.has_non_finite());
    }

    #[test]
    fn empty_matrix_is_safe() {
        let e = Matrix::zeros(0, 0);
        assert!(e.is_empty());
        assert_eq!(e.column_means().len(), 0);
        assert_eq!(e.frobenius_norm(), 0.0);
    }
}
