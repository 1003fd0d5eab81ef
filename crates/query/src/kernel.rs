//! Typed minicolumn kernels: the branch-free inner loops of the columnar
//! engine. This module's single job is the loop over a raw slice — it
//! knows no expression, schema or column representation; the evaluator
//! ([`crate::veval`]) decides which kernel a predicate or operator lowers
//! to and hands it slices.
//!
//! A *minicolumn* is a typed slice (`&[i64]` / `&[f64]`). The kernels
//! take it dense: the executor's typed columns hold no NULLs. Only a
//! [`Mini`] extracted from boxed values carries an optional **validity
//! bitmap** (one bit per row, set = non-NULL), which the table
//! aggregate's typed pushes read. A *selection vector* is a `Vec<u32>` of
//! surviving row ids in ascending order. Every kernel here either
//! **refines** a selection in place (comparison, BETWEEN, IS NULL — SQL
//! `is_true` semantics: unknown and false drop the row) or **maps** slices
//! to a new typed vector (arithmetic).
//!
//! The refinement loops use the branch-free selection-append idiom
//! (unconditionally store the row id, advance the cursor by the predicate
//! bit) and the map loops process `chunks_exact` blocks of eight lanes, so
//! rustc/LLVM auto-vectorizes them on stable — `std::simd` was evaluated
//! for a feature gate but is nightly-only on the pinned toolchain
//! (1.95 stable), so the portable-SIMD variant is deferred.
//!
//! **Exactness contract.** Every kernel reproduces the scalar semantics in
//! [`crate::eval`] / [`Value::sql_cmp`] bit-for-bit:
//!
//! * `i64` vs `f64` comparisons are exact — the float constant is
//!   *compiled once* into an integer threshold test ([`compile_i64_cmp`]),
//!   never by rounding the column through `as f64` (values above 2^53
//!   would silently collapse);
//! * NaN comparisons are SQL-unknown: the row drops for every operator,
//!   including `!=`;
//! * Int arithmetic is checked — per-element overflow promotes that
//!   element to an exact-via-`i128` Float, matching `eval_binary` (and
//!   `AggAcc` SUM's promotion rule).

use crate::value::Value;

/// Comparison operators the typed kernels lower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

// ---------------------------------------------------------------------------
// Validity bitmaps
// ---------------------------------------------------------------------------

/// True when row `i` is valid (non-NULL). `None` means all-valid.
#[inline(always)]
pub fn is_valid(validity: Option<&[u64]>, i: usize) -> bool {
    match validity {
        None => true,
        Some(bits) => bits[i >> 6] >> (i & 63) & 1 == 1,
    }
}

/// A typed minicolumn extracted from boxed values: homogeneous numeric
/// data with NULLs carried out-of-band in a validity bitmap. Mixed
/// Int/Float runs deliberately do **not** extract — a shared `f64` view
/// would round i64 values above 2^53 and break the exact mixed-comparison
/// contract.
pub enum Mini {
    /// Int-or-NULL values (invalid slots hold 0).
    I64(Vec<i64>, Option<Vec<u64>>),
    /// Float-or-NULL values (invalid slots hold 0.0).
    F64(Vec<f64>, Option<Vec<u64>>),
}

/// Extracts a [`Mini`] from a boxed value run when it is homogeneous
/// Int(+NULL) or Float(+NULL); anything mixed returns `None`.
pub fn mini_from_values(vs: &[Value]) -> Option<Mini> {
    let mut ints = 0usize;
    let mut floats = 0usize;
    let mut nulls = 0usize;
    for v in vs {
        match v {
            Value::Int(_) => ints += 1,
            Value::Float(_) => floats += 1,
            Value::Null => nulls += 1,
            _ => return None,
        }
    }
    let validity = |nulls: usize| -> Option<Vec<u64>> {
        (nulls > 0).then(|| {
            let mut bits = vec![0u64; vs.len().div_ceil(64)];
            for (i, v) in vs.iter().enumerate() {
                if !v.is_null() {
                    bits[i >> 6] |= 1 << (i & 63);
                }
            }
            bits
        })
    };
    if floats == 0 && ints + nulls == vs.len() {
        let vals = vs.iter().map(|v| if let Value::Int(i) = v { *i } else { 0 }).collect();
        Some(Mini::I64(vals, validity(nulls)))
    } else if ints == 0 && floats + nulls == vs.len() {
        let vals = vs.iter().map(|v| if let Value::Float(f) = v { *f } else { 0.0 }).collect();
        Some(Mini::F64(vals, validity(nulls)))
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Selection refinement: comparisons
// ---------------------------------------------------------------------------

/// Branch-free in-place refinement: keeps `sel[j]` iff `test(row)` (rows
/// failing the predicate drop, which is exactly SQL `is_true` over the
/// three-valued comparison result).
#[inline]
fn refine_by(sel: &mut Vec<u32>, test: impl Fn(usize) -> bool) {
    let mut n = 0usize;
    for j in 0..sel.len() {
        let i = sel[j];
        sel[n] = i;
        n += usize::from(test(i as usize));
    }
    sel.truncate(n);
}

/// `vals[i] <op> k` over `f64`. NaN on either side is SQL-unknown and
/// drops the row for every operator (including `Ne`).
pub fn refine_f64_cmp(op: CmpOp, vals: &[f64], k: f64, sel: &mut Vec<u32>) {
    if k.is_nan() {
        sel.clear();
        return;
    }
    match op {
        CmpOp::Eq => refine_by(sel, |i| vals[i] == k),
        // `x != x` is the NaN test: unknown, not true.
        CmpOp::Ne => refine_by(sel, |i| vals[i] != k && !vals[i].is_nan()),
        CmpOp::Lt => refine_by(sel, |i| vals[i] < k),
        CmpOp::Le => refine_by(sel, |i| vals[i] <= k),
        CmpOp::Gt => refine_by(sel, |i| vals[i] > k),
        CmpOp::Ge => refine_by(sel, |i| vals[i] >= k),
    }
}

/// A compiled `i64`-column comparison: the per-element test after the
/// constant side has been classified once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum I64Test {
    /// No row matches (e.g. `= 1.5`, or any comparison against NaN).
    Never,
    /// Every row matches (e.g. `!= 1.5` over integers).
    Always,
    /// `x < t`
    Lt(i64),
    /// `x <= t`
    Le(i64),
    /// `x > t`
    Gt(i64),
    /// `x >= t`
    Ge(i64),
    /// `x == t`
    Eq(i64),
    /// `x != t`
    Ne(i64),
}

impl I64Test {
    /// Whether `x` passes.
    #[inline(always)]
    pub fn matches(self, x: i64) -> bool {
        match self {
            I64Test::Never => false,
            I64Test::Always => true,
            I64Test::Lt(t) => x < t,
            I64Test::Le(t) => x <= t,
            I64Test::Gt(t) => x > t,
            I64Test::Ge(t) => x >= t,
            I64Test::Eq(t) => x == t,
            I64Test::Ne(t) => x != t,
        }
    }
}

/// Compiles `x <op> k` (Int column vs Int constant) to a threshold test.
pub fn compile_i64_cmp_int(op: CmpOp, k: i64) -> I64Test {
    match op {
        CmpOp::Eq => I64Test::Eq(k),
        CmpOp::Ne => I64Test::Ne(k),
        CmpOp::Lt => I64Test::Lt(k),
        CmpOp::Le => I64Test::Le(k),
        CmpOp::Gt => I64Test::Gt(k),
        CmpOp::Ge => I64Test::Ge(k),
    }
}

/// Compiles `x <op> k` (Int column vs Float constant) to an **exact**
/// integer threshold test — equivalent to [`crate::value::cmp_i64_f64`]
/// per element, with the float classified once instead of per row:
///
/// * NaN → unknown for every row → `Never`;
/// * `k ≥ 2^63` → every `x < k`; `k < −2^63` → every `x > k`;
/// * otherwise `k` splits the integers at `t = trunc(k)` with the
///   fractional part deciding which side `t` itself falls on.
pub fn compile_i64_cmp(op: CmpOp, k: f64) -> I64Test {
    if k.is_nan() {
        return I64Test::Never;
    }
    const TWO63: f64 = 9_223_372_036_854_775_808.0; // 2^63, exactly representable
    if k >= TWO63 {
        // Every i64 is strictly below k.
        return match op {
            CmpOp::Lt | CmpOp::Le | CmpOp::Ne => I64Test::Always,
            CmpOp::Gt | CmpOp::Ge | CmpOp::Eq => I64Test::Never,
        };
    }
    if k < -TWO63 {
        // Every i64 is strictly above k.
        return match op {
            CmpOp::Gt | CmpOp::Ge | CmpOp::Ne => I64Test::Always,
            CmpOp::Lt | CmpOp::Le | CmpOp::Eq => I64Test::Never,
        };
    }
    let t = k.trunc();
    let ti = t as i64; // exact: t ∈ [−2^63, 2^63)
    if k == t {
        return compile_i64_cmp_int(op, ti);
    }
    if k > t {
        // k ∈ (ti, ti+1): x < k ⇔ x ≤ ti, x > k ⇔ x > ti, x = k never.
        match op {
            CmpOp::Eq => I64Test::Never,
            CmpOp::Ne => I64Test::Always,
            CmpOp::Lt | CmpOp::Le => I64Test::Le(ti),
            CmpOp::Gt | CmpOp::Ge => I64Test::Gt(ti),
        }
    } else {
        // k ∈ (ti−1, ti): x < k ⇔ x < ti, x > k ⇔ x ≥ ti.
        match op {
            CmpOp::Eq => I64Test::Never,
            CmpOp::Ne => I64Test::Always,
            CmpOp::Lt | CmpOp::Le => I64Test::Lt(ti),
            CmpOp::Gt | CmpOp::Ge => I64Test::Ge(ti),
        }
    }
}

/// Refines a selection by a compiled `i64` test.
pub fn refine_i64_test(test: I64Test, vals: &[i64], sel: &mut Vec<u32>) {
    match test {
        I64Test::Never => sel.clear(),
        I64Test::Always => {}
        I64Test::Lt(t) => refine_by(sel, |i| vals[i] < t),
        I64Test::Le(t) => refine_by(sel, |i| vals[i] <= t),
        I64Test::Gt(t) => refine_by(sel, |i| vals[i] > t),
        I64Test::Ge(t) => refine_by(sel, |i| vals[i] >= t),
        I64Test::Eq(t) => refine_by(sel, |i| vals[i] == t),
        I64Test::Ne(t) => refine_by(sel, |i| vals[i] != t),
    }
}

// ---------------------------------------------------------------------------
// Selection refinement: BETWEEN and IS NULL
// ---------------------------------------------------------------------------

/// `vals[i] BETWEEN lo AND hi` (optionally negated) over `i64` with exact
/// mixed-type bounds: each bound is compiled with [`compile_i64_cmp`] /
/// [`compile_i64_cmp_int`] so Float bounds never round the column. A NaN
/// bound makes the whole predicate unknown (row drops, negated or not).
pub fn refine_i64_between(vals: &[i64], lo: &Value, hi: &Value, negated: bool, sel: &mut Vec<u32>) {
    let compile = |op: CmpOp, bound: &Value| match bound {
        Value::Int(b) => Some(compile_i64_cmp_int(op, *b)),
        Value::Float(b) if !b.is_nan() => Some(compile_i64_cmp(op, *b)),
        _ => None,
    };
    let (Some(ge_lo), Some(le_hi)) = (compile(CmpOp::Ge, lo), compile(CmpOp::Le, hi)) else {
        sel.clear(); // NaN bound: comparison unknown for every row
        return;
    };
    refine_by(sel, |i| (ge_lo.matches(vals[i]) && le_hi.matches(vals[i])) != negated);
}

/// `vals[i] BETWEEN lo AND hi` (optionally negated) over `f64`. A NaN
/// element or bound is unknown and drops the row either way.
pub fn refine_f64_between(vals: &[f64], lo: f64, hi: f64, negated: bool, sel: &mut Vec<u32>) {
    if lo.is_nan() || hi.is_nan() {
        sel.clear();
        return;
    }
    refine_by(sel, |i| {
        let x = vals[i];
        !x.is_nan() && ((x >= lo && x <= hi) != negated)
    });
}

/// `IS [NOT] NULL` over a dense typed column, which holds no NULLs.
pub fn refine_is_null(negated: bool, sel: &mut Vec<u32>) {
    if !negated {
        sel.clear();
    }
}

// ---------------------------------------------------------------------------
// Arithmetic map kernels
// ---------------------------------------------------------------------------

/// Arithmetic ops with dense kernels (Div/Mod stay on the generic path:
/// their zero-divisor → NULL rule produces mixed output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
}

/// `a[i] <op> k` over `f64`, written as eight-lane `chunks_exact` blocks
/// the compiler turns into vector code.
pub fn f64_arith_const(op: ArithOp, a: &[f64], k: f64, swapped: bool) -> Vec<f64> {
    let mut out = vec![0.0f64; a.len()];
    let apply = |x: f64| -> f64 {
        let (l, r) = if swapped { (k, x) } else { (x, k) };
        match op {
            ArithOp::Add => l + r,
            ArithOp::Sub => l - r,
            ArithOp::Mul => l * r,
        }
    };
    let mut oc = out.chunks_exact_mut(8);
    let mut ac = a.chunks_exact(8);
    for (o, x) in (&mut oc).zip(&mut ac) {
        for lane in 0..8 {
            o[lane] = apply(x[lane]);
        }
    }
    for (o, &x) in oc.into_remainder().iter_mut().zip(ac.remainder()) {
        *o = apply(x);
    }
    out
}

/// `a[i] <op> b[i]` over `f64`, eight lanes per block.
pub fn f64_arith_cols(op: ArithOp, a: &[f64], b: &[f64]) -> Vec<f64> {
    let n = a.len().min(b.len());
    let mut out = vec![0.0f64; n];
    let apply = |x: f64, y: f64| -> f64 {
        match op {
            ArithOp::Add => x + y,
            ArithOp::Sub => x - y,
            ArithOp::Mul => x * y,
        }
    };
    let mut oc = out.chunks_exact_mut(8);
    let mut ac = a[..n].chunks_exact(8);
    let mut bc = b[..n].chunks_exact(8);
    for ((o, x), y) in (&mut oc).zip(&mut ac).zip(&mut bc) {
        for lane in 0..8 {
            o[lane] = apply(x[lane], y[lane]);
        }
    }
    for ((o, &x), &y) in oc.into_remainder().iter_mut().zip(ac.remainder()).zip(bc.remainder()) {
        *o = apply(x, y);
    }
    out
}

/// Result of a checked Int arithmetic kernel.
pub enum IntArith {
    /// No element overflowed: a pure Int column.
    Ints(Vec<i64>),
    /// At least one element overflowed i64 and promoted to an exact-via-
    /// i128 Float; the rest stay Int (per-element promotion, matching the
    /// scalar evaluator).
    Mixed(Vec<Value>),
}

#[inline(always)]
fn i64_apply(op: ArithOp, x: i64, y: i64) -> (i64, bool) {
    match op {
        ArithOp::Add => x.overflowing_add(y),
        ArithOp::Sub => x.overflowing_sub(y),
        ArithOp::Mul => x.overflowing_mul(y),
    }
}

#[inline(always)]
fn i128_apply(op: ArithOp, x: i64, y: i64) -> i128 {
    // i64 inputs can never overflow i128 under +, −, ×.
    let (x, y) = (i128::from(x), i128::from(y));
    match op {
        ArithOp::Add => x + y,
        ArithOp::Sub => x - y,
        ArithOp::Mul => x * y,
    }
}

fn i64_arith_redo(op: ArithOp, n: usize, at: impl Fn(usize) -> (i64, i64)) -> Vec<Value> {
    (0..n)
        .map(|i| {
            let (x, y) = at(i);
            let (v, over) = i64_apply(op, x, y);
            if over {
                Value::Float(i128_apply(op, x, y) as f64) // lint: allow as f64 — deliberate widening: i128 overflow promotes to float
            } else {
                Value::Int(v)
            }
        })
        .collect()
}

/// `a[i] <op> k` over `i64`: one optimistic overflowing pass with an OR'd
/// overflow flag; a slow exact redo only when something overflowed.
pub fn i64_arith_const(op: ArithOp, a: &[i64], k: i64, swapped: bool) -> IntArith {
    let mut out = vec![0i64; a.len()];
    let mut over = false;
    let pair = |x: i64| if swapped { (k, x) } else { (x, k) };
    for (o, &x) in out.iter_mut().zip(a) {
        let (l, r) = pair(x);
        let (v, o_bit) = i64_apply(op, l, r);
        *o = v;
        over |= o_bit;
    }
    if !over {
        return IntArith::Ints(out);
    }
    IntArith::Mixed(i64_arith_redo(op, a.len(), |i| pair(a[i])))
}

/// `a[i] <op> b[i]` over `i64`, same optimistic-then-redo shape.
pub fn i64_arith_cols(op: ArithOp, a: &[i64], b: &[i64]) -> IntArith {
    let n = a.len().min(b.len());
    let mut out = vec![0i64; n];
    let mut over = false;
    for i in 0..n {
        let (v, o_bit) = i64_apply(op, a[i], b[i]);
        out[i] = v;
        over |= o_bit;
    }
    if !over {
        return IntArith::Ints(out);
    }
    IntArith::Mixed(i64_arith_redo(op, n, |i| (a[i], b[i])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::cmp_i64_f64;
    use std::cmp::Ordering;

    fn sel(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn compiled_i64_cmp_matches_exact_scalar_cmp() {
        // Every compiled test must agree with cmp_i64_f64 on tricky values.
        let xs: Vec<i64> = vec![
            i64::MIN,
            i64::MIN + 1,
            -(1 << 53) - 1,
            -(1 << 53),
            -1,
            0,
            1,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            i64::MAX - 1,
            i64::MAX,
        ];
        let ks: Vec<f64> = vec![
            f64::NAN,
            f64::NEG_INFINITY,
            f64::INFINITY,
            -9.3e18,
            9.3e18,
            9_223_372_036_854_775_808.0,
            -9_223_372_036_854_775_808.0,
            9007199254740992.0, // 2^53
            9007199254740993.0, // rounds to 2^53
            0.5,
            -0.5,
            0.0,
            1.0,
            (1i64 << 53) as f64 + 2.0,
        ];
        for &k in &ks {
            for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                let test = compile_i64_cmp(op, k);
                for &x in &xs {
                    let want = match cmp_i64_f64(x, k) {
                        None => false, // unknown → row drops
                        Some(ord) => match op {
                            CmpOp::Eq => ord == Ordering::Equal,
                            CmpOp::Ne => ord != Ordering::Equal,
                            CmpOp::Lt => ord == Ordering::Less,
                            CmpOp::Le => ord != Ordering::Greater,
                            CmpOp::Gt => ord == Ordering::Greater,
                            CmpOp::Ge => ord != Ordering::Less,
                        },
                    };
                    let mut s = vec![0u32];
                    refine_i64_test(test, &[x], &mut s);
                    assert_eq!(!s.is_empty(), want, "x={x} {op:?} k={k} compiled={test:?}");
                }
            }
        }
    }

    #[test]
    fn f64_cmp_drops_nan_rows_for_every_operator() {
        let vals = [1.0, f64::NAN, 3.0];
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let mut s = sel(3);
            refine_f64_cmp(op, &vals, 2.0, &mut s);
            assert!(!s.contains(&1), "NaN row survived {op:?}");
        }
        // NaN constant: unknown for every row.
        let mut s = sel(3);
        refine_f64_cmp(CmpOp::Ne, &vals, f64::NAN, &mut s);
        assert!(s.is_empty());
    }

    #[test]
    fn dense_columns_hold_no_nulls() {
        let mut s = sel(4);
        refine_is_null(false, &mut s);
        assert!(s.is_empty());
        let mut s = sel(4);
        refine_is_null(true, &mut s);
        assert_eq!(s, sel(4));
    }

    #[test]
    fn between_exact_bounds() {
        let vals = [(1i64 << 53), (1 << 53) + 1, (1 << 53) + 2];
        // Float bound (2^53 + 2) is exactly representable; (2^53)+1 must
        // stay inside [2^53, 2^53+2] even though it rounds to 2^53 as f64.
        let mut s = sel(3);
        refine_i64_between(
            &vals,
            &Value::Int(1 << 53),
            &Value::Float(((1i64 << 53) + 2) as f64),
            false,
            &mut s,
        );
        assert_eq!(s, vec![0, 1, 2]);
        let mut s = sel(3);
        refine_i64_between(
            &vals,
            &Value::Int((1 << 53) + 1),
            &Value::Int((1 << 53) + 1),
            false,
            &mut s,
        );
        assert_eq!(s, vec![1]);
        // NaN bound: unknown, drops everything even when negated.
        let mut s = sel(3);
        refine_i64_between(&vals, &Value::Float(f64::NAN), &Value::Int(9), true, &mut s);
        assert!(s.is_empty());
    }

    #[test]
    fn int_arith_promotes_overflow_per_element() {
        match i64_arith_const(ArithOp::Add, &[1, i64::MAX, 2], 1, false) {
            IntArith::Mixed(vs) => {
                assert_eq!(vs[0], Value::Int(2));
                assert_eq!(vs[1], Value::Float((i128::from(i64::MAX) + 1) as f64));
                assert_eq!(vs[2], Value::Int(3));
            }
            IntArith::Ints(_) => panic!("overflow must promote"),
        }
        match i64_arith_const(ArithOp::Mul, &[3, 4], 5, false) {
            IntArith::Ints(vs) => assert_eq!(vs, vec![15, 20]),
            IntArith::Mixed(_) => panic!("no overflow"),
        }
        // Swapped (constant on the left) subtraction.
        match i64_arith_const(ArithOp::Sub, &[1, 2], 10, true) {
            IntArith::Ints(vs) => assert_eq!(vs, vec![9, 8]),
            IntArith::Mixed(_) => panic!("no overflow"),
        }
    }

    #[test]
    fn mini_extraction_rejects_mixed_numerics() {
        assert!(mini_from_values(&[Value::Int(1), Value::Float(2.0)]).is_none());
        assert!(mini_from_values(&[Value::Int(1), Value::str("x")]).is_none());
        match mini_from_values(&[Value::Int(1), Value::Null, Value::Int(3)]) {
            Some(Mini::I64(vals, Some(bits))) => {
                assert_eq!(vals, vec![1, 0, 3]);
                assert!(is_valid(Some(&bits), 0));
                assert!(!is_valid(Some(&bits), 1));
                assert!(is_valid(Some(&bits), 2));
            }
            _ => panic!("expected nullable I64 mini"),
        }
        match mini_from_values(&[Value::Float(1.5)]) {
            Some(Mini::F64(vals, None)) => assert_eq!(vals, vec![1.5]),
            _ => panic!("expected dense F64 mini"),
        }
    }

    #[test]
    fn f64_arith_chunks_match_scalar() {
        let a: Vec<f64> = (0..21).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..21).map(|i| 10.0 - i as f64).collect();
        let out = f64_arith_cols(ArithOp::Mul, &a, &b);
        for i in 0..21 {
            assert_eq!(out[i], a[i] * b[i]);
        }
        let out = f64_arith_const(ArithOp::Sub, &a, 2.0, true); // 2.0 - a[i]
        for i in 0..21 {
            assert_eq!(out[i], 2.0 - a[i]);
        }
    }
}
