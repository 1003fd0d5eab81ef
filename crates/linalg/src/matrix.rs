use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{LinalgError, Result};

/// Evaluates `$fixed` with the constant `$w` bound to `$width` when that is
/// 1..=8, and `$wide` otherwise.
///
/// This is the width split of the scoring kernels (`xtx`, `xt_mul`,
/// `matmul`, `column_means`, `column_stds_about`,
/// `standardize_columns_in_place`). Up to 8 wide, a kernel is const-generic
/// over its accumulator block — a local array the compiler unrolls and keeps
/// in registers, where the plain loops walk the accumulators through memory
/// behind bounds checks. Feature families are mostly 1–8 columns wide and
/// targets 4. Wider operands (a 14-wide family, a projection to 50 or 500,
/// the dual path's `p > n`) keep the plain loops; a single zero-padded 8-wide
/// tile for every width would do up to 36 products per row where a 1-wide
/// Gram needs one. Both sides do the same arithmetic: every
/// accumulator starts at `+0.0` and adds its terms in the same order (rows
/// ascending, product then add, operands in the same order), so they agree
/// by bits — up to the sign and payload of a NaN, which Rust leaves
/// unspecified. Both keep the `== 0.0` skip, because dropping it is not
/// exact: `0 × ±inf` and `0 × NaN` are NaN, not `0`. `tests/proptests.rs`
/// holds the kernels to plain loops and to the output bits from before the
/// split.
macro_rules! by_width {
    ($width:expr, $w:ident => $fixed:expr, _ => $wide:expr) => {
        match $width {
            1 => {
                const $w: usize = 1;
                $fixed
            }
            2 => {
                const $w: usize = 2;
                $fixed
            }
            3 => {
                const $w: usize = 3;
                $fixed
            }
            4 => {
                const $w: usize = 4;
                $fixed
            }
            5 => {
                const $w: usize = 5;
                $fixed
            }
            6 => {
                const $w: usize = 6;
                $fixed
            }
            7 => {
                const $w: usize = 7;
                $fixed
            }
            8 => {
                const $w: usize = 8;
                $fixed
            }
            _ => $wide,
        }
    };
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
    /// `self[(i, k)]`. An output row at most 8 wide is accumulated in
    /// registers (see `by_width!`).
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let (a, k, b) = (&self.data, self.cols, &rhs.data);
        by_width!(
            rhs.cols,
            M => matmul_rows::<M>(a, k, b, &mut out.data),
            _ => matmul_rows_wide(a, k, b, rhs.cols, &mut out.data)
        );
        Ok(out)
    }

    /// Gram matrix `X^T X` (symmetric, `cols × cols`).
    ///
    /// Computes only the upper triangle and mirrors it, halving the work of a
    /// generic product: entry `(j, k)`, `j <= k`, adds `x[i][j] * x[i][k]`
    /// for rows `i` ascending, skipping a zero `x[i][j]`. This is the hot
    /// kernel of ridge scoring when `T > F`; at most 8 columns wide its
    /// accumulators stay in registers (see `by_width!`).
    pub fn xtx(&self) -> Matrix {
        let p = self.cols;
        let mut g = Matrix::zeros(p, p);
        by_width!(
            p,
            P => xtx_upper::<P>(&self.data, &mut g.data),
            _ => xtx_upper_wide(&self.data, p, &mut g.data)
        );
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
    /// `x[i][j]`. When both operands are at most 8 wide the `P × M`
    /// accumulator block stays in registers (see `by_width!`).
    pub fn xt_mul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "xt_mul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        let (x, y, out_data) = (&self.data, &rhs.data, &mut out.data);
        let wide = |out: &mut [f64]| xt_mul_wide(x, self.cols, y, rhs.cols, out);
        by_width!(
            self.cols,
            P => by_width!(rhs.cols, M => xt_mul_block::<P, M>(x, y, out_data), _ => wide(out_data)),
            _ => wide(out_data)
        );
        Ok(out)
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
        let mut means = vec![0.0; self.cols];
        if self.rows == 0 {
            return means;
        }
        by_width!(
            self.cols,
            P => column_sums::<P>(&self.data, &mut means),
            _ => column_sums_wide(&self.data, &mut means)
        );
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
    /// that needs both computes them once): squared deviations summed over
    /// rows ascending, divided by the row count (at least 1), square-rooted.
    ///
    /// # Panics
    /// Panics if `means.len() != ncols()`.
    pub fn column_stds_about(&self, means: &[f64]) -> Vec<f64> {
        assert_eq!(means.len(), self.cols, "means length mismatch");
        let mut vars = vec![0.0; self.cols];
        by_width!(
            self.cols,
            P => squared_deviations::<P>(&self.data, means, &mut vars),
            _ => squared_deviations_wide(&self.data, means, &mut vars)
        );
        let n = (self.rows as f64).max(1.0);
        for v in &mut vars {
            *v = (*v / n).sqrt();
        }
        vars
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
        by_width!(
            self.cols,
            P => standardize_rows::<P>(&mut self.data, means, stds),
            _ => standardize_rows_wide(&mut self.data, means, stds)
        );
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

// The scoring kernels' two sides of the width split (`by_width!`): a
// const-generic kernel over `P`- / `M`-wide rows, its accumulators a local
// array, and the plain loop over rows of any width (`chunks_exact(w.max(1))`:
// a zero-width matrix has no data, so it yields no rows). Each pair does the
// same arithmetic in the same order.

fn matmul_rows<const M: usize>(a: &[f64], k: usize, b: &[f64], out: &mut [f64]) {
    let b_rows = b.as_chunks::<M>().0;
    for (a_row, out_row) in a.chunks_exact(k.max(1)).zip(out.as_chunks_mut::<M>().0) {
        let mut acc = [0.0; M];
        for (&a_ik, b_row) in a_row.iter().zip(b_rows) {
            if a_ik == 0.0 {
                continue;
            }
            for o in 0..M {
                acc[o] += a_ik * b_row[o];
            }
        }
        *out_row = acc;
    }
}

fn matmul_rows_wide(a: &[f64], k: usize, b: &[f64], m: usize, out: &mut [f64]) {
    for (a_row, out_row) in a.chunks_exact(k.max(1)).zip(out.chunks_exact_mut(m.max(1))) {
        for (&a_ik, b_row) in a_row.iter().zip(b.chunks_exact(m.max(1))) {
            if a_ik == 0.0 {
                continue;
            }
            for (o, &b) in out_row.iter_mut().zip(b_row) {
                *o += a_ik * b;
            }
        }
    }
}

fn xtx_upper<const P: usize>(x: &[f64], g: &mut [f64]) {
    let mut acc = [[0.0; P]; P];
    for row in x.as_chunks::<P>().0 {
        for j in 0..P {
            let xj = row[j];
            if xj == 0.0 {
                continue;
            }
            for k in j..P {
                acc[j][k] += xj * row[k];
            }
        }
    }
    for (g_row, acc_row) in g.as_chunks_mut::<P>().0.iter_mut().zip(&acc) {
        *g_row = *acc_row;
    }
}

fn xtx_upper_wide(x: &[f64], p: usize, g: &mut [f64]) {
    for row in x.chunks_exact(p.max(1)) {
        for j in 0..p {
            let xj = row[j];
            if xj == 0.0 {
                continue;
            }
            let g_row = &mut g[j * p..(j + 1) * p];
            for k in j..p {
                g_row[k] += xj * row[k];
            }
        }
    }
}

fn xt_mul_block<const P: usize, const M: usize>(x: &[f64], y: &[f64], out: &mut [f64]) {
    let mut acc = [[0.0; M]; P];
    for (a_row, b_row) in x.as_chunks::<P>().0.iter().zip(y.as_chunks::<M>().0) {
        for j in 0..P {
            let a = a_row[j];
            if a == 0.0 {
                continue;
            }
            for o in 0..M {
                acc[j][o] += a * b_row[o];
            }
        }
    }
    for (out_row, acc_row) in out.as_chunks_mut::<M>().0.iter_mut().zip(&acc) {
        *out_row = *acc_row;
    }
}

fn xt_mul_wide(x: &[f64], p: usize, y: &[f64], m: usize, out: &mut [f64]) {
    for (a_row, b_row) in x.chunks_exact(p.max(1)).zip(y.chunks_exact(m.max(1))) {
        for (j, &a) in a_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let out_row = &mut out[j * m..(j + 1) * m];
            for (o, &b) in out_row.iter_mut().zip(b_row) {
                *o += a * b;
            }
        }
    }
}

fn column_sums<const P: usize>(x: &[f64], sums: &mut [f64]) {
    let mut acc = [0.0; P];
    for row in x.as_chunks::<P>().0 {
        for j in 0..P {
            acc[j] += row[j];
        }
    }
    sums.copy_from_slice(&acc);
}

fn column_sums_wide(x: &[f64], sums: &mut [f64]) {
    for row in x.chunks_exact(sums.len().max(1)) {
        for (s, &v) in sums.iter_mut().zip(row) {
            *s += v;
        }
    }
}

fn squared_deviations<const P: usize>(x: &[f64], means: &[f64], out: &mut [f64]) {
    let mut mean = [0.0; P];
    mean.copy_from_slice(means);
    let mut acc = [0.0; P];
    for row in x.as_chunks::<P>().0 {
        for j in 0..P {
            let d = row[j] - mean[j];
            acc[j] += d * d;
        }
    }
    out.copy_from_slice(&acc);
}

fn squared_deviations_wide(x: &[f64], means: &[f64], out: &mut [f64]) {
    for row in x.chunks_exact(means.len().max(1)) {
        for ((v, &x), &m) in out.iter_mut().zip(row).zip(means) {
            let d = x - m;
            *v += d * d;
        }
    }
}

fn standardize_rows<const P: usize>(x: &mut [f64], means: &[f64], stds: &[f64]) {
    let (mut mean, mut std) = ([0.0; P], [0.0; P]);
    mean.copy_from_slice(means);
    std.copy_from_slice(stds);
    for row in x.as_chunks_mut::<P>().0 {
        for j in 0..P {
            row[j] -= mean[j];
            if std[j] > 0.0 {
                row[j] /= std[j];
            }
        }
    }
}

fn standardize_rows_wide(x: &mut [f64], means: &[f64], stds: &[f64]) {
    for row in x.chunks_exact_mut(means.len().max(1)) {
        for ((v, &m), &s) in row.iter_mut().zip(means).zip(stds) {
            *v -= m;
            if s > 0.0 {
                *v /= s;
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
