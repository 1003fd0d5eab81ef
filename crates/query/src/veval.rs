//! The expression evaluator under the executor: every non-aggregate
//! expression, over columns.
//!
//! This module's single job is to evaluate an [`Expr`] against typed
//! [`Column`]s — WHERE predicates, projection items, group and join keys,
//! aggregate arguments — with exactly the results *and the Ok/Err
//! outcome* of the row walker in [`crate::eval`], which stays the oracle.
//! It is total: operators, `IN`/`BETWEEN`/`IS NULL`, scalar calls, `CASE`
//! and `LAG`/`LEAD` all evaluate here, so no operator needs a row view.
//!
//! * **Scalar semantics are not re-implemented.** Per-value work calls the
//!   functions of [`crate::eval`] / [`crate::functions`]; this module only
//!   decides *over which rows* and *how often* they run.
//! * **Dictionary columns evaluate once per referenced entry.** Any
//!   expression whose column references all trace to one [`Column::Dict`]
//!   (`tag['host']`, `UPPER(metric_name) LIKE 'P%'`, `CONCAT(tag['a'],
//!   tag['b'])`) is evaluated over the entries rows actually use and
//!   expanded by code — a million-row scan does one string compare per
//!   distinct metric, and the result stays dictionary-encoded for GROUP BY.
//! * **Short-circuits evaluate over the rows that reach them.** The right
//!   operand of `AND`/`OR`, a `CASE` arm and a later `IN` item run only
//!   over the rows the oracle would evaluate them for, so a row that never
//!   reaches a sub-expression cannot raise its error.
//! * **Window calls have two contexts.** [`eval_projection`] shifts
//!   `LAG`/`LEAD` over the whole input; everywhere else ([`eval`],
//!   [`refine`]) a window call sees only its own row, as in the oracle's
//!   row context. Aggregate calls are an error in both.
//! * **Typed fast paths** lower comparisons against a literal, `+ - *` and
//!   `BETWEEN` to the branch-free loops of [`crate::kernel`]; [`refine`]
//!   applies a predicate to a selection vector without building a mask.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::ast::{BinaryOp, Expr, UnaryOp};
use crate::column::Column;
use crate::eval::{eval_and, eval_binary, eval_index, eval_or, eval_unary, sql_like};
use crate::functions::{eval_scalar, is_aggregate, is_window};
use crate::kernel::{self, ArithOp, CmpOp, I64Test, IntArith};
use crate::table::Schema;
use crate::value::{cmp_i64_f64, Value};
use crate::{QueryError, Result};

/// A vectorized evaluation result: a full column or an unexpanded constant.
pub enum VOut {
    /// Per-row values.
    Col(Column),
    /// The same value for every row.
    Const(Value),
}

impl VOut {
    /// The value at row `i`.
    pub(crate) fn get(&self, i: usize) -> Value {
        match self {
            VOut::Col(c) => c.get(i),
            VOut::Const(v) => v.clone(),
        }
    }

    /// Expands to a full column of `len` entries.
    pub fn into_column(self, len: usize) -> Column {
        match self {
            VOut::Col(c) => c,
            VOut::Const(v) => Column::from_values(vec![v; len]),
        }
    }

    /// The keep-mask of a predicate result (`is_true`: NULL and false drop).
    fn into_mask(self, len: usize) -> Vec<bool> {
        match self {
            VOut::Const(v) => vec![v.is_true(); len],
            VOut::Col(Column::Bool(mask)) => mask,
            VOut::Col(Column::Dict { values, codes }) => {
                let per: Vec<bool> = values.iter().map(Value::is_true).collect();
                codes.iter().map(|&c| per[c as usize]).collect()
            }
            VOut::Col(col) => col.iter_values().map(|v| v.is_true()).collect(),
        }
    }
}

/// A borrowed column, which is what the evaluator reads. Dense numeric
/// data is a raw slice, so an owned [`Column`] and a scan-aggregate span's
/// point vectors go through the same code without a copy.
#[derive(Clone, Copy)]
pub enum ColView<'a> {
    /// NULL-free integers.
    Int(&'a [i64]),
    /// NULL-free floats.
    Float(&'a [f64]),
    /// Every other representation.
    Other(&'a Column),
}

impl<'a> From<&'a Column> for ColView<'a> {
    fn from(col: &'a Column) -> Self {
        match col {
            Column::Int(v) => ColView::Int(v),
            Column::Float(v) => ColView::Float(v),
            other => ColView::Other(other),
        }
    }
}

impl ColView<'_> {
    fn get(self, i: usize) -> Value {
        match self {
            ColView::Int(v) => Value::Int(v[i]),
            ColView::Float(v) => Value::Float(v[i]),
            ColView::Other(c) => c.get(i),
        }
    }

    /// The rows `sel` as an owned column.
    pub(crate) fn gather(self, sel: &[u32]) -> Column {
        match self {
            ColView::Int(v) => Column::Int(sel.iter().map(|&i| v[i as usize]).collect()),
            ColView::Float(v) => Column::Float(sel.iter().map(|&i| v[i as usize]).collect()),
            ColView::Other(c) => c.gather_u32(sel),
        }
    }

    fn to_column(self) -> Column {
        match self {
            ColView::Int(v) => Column::Int(v.to_vec()),
            ColView::Float(v) => Column::Float(v.to_vec()),
            ColView::Other(c) => c.clone(),
        }
    }
}

/// Evaluates an expression against the columns of `(schema, cols)` with
/// `len` rows. A window call sees only its own row; use
/// [`eval_projection`] where it should see the whole input.
pub fn eval(expr: &Expr, schema: &Schema, cols: &[Column], len: usize) -> Result<VOut> {
    let views: Vec<ColView> = cols.iter().map(ColView::from).collect();
    Scope { schema, cols: &views, len, shift: false }.eval(expr)
}

/// [`eval`] in projection context: `LAG`/`LEAD` read the row `offset`
/// positions away among all `len` rows.
pub fn eval_projection(expr: &Expr, schema: &Schema, cols: &[Column], len: usize) -> Result<VOut> {
    let views: Vec<ColView> = cols.iter().map(ColView::from).collect();
    Scope { schema, cols: &views, len, shift: true }.eval(expr)
}

/// Evaluates a column-free expression to its value (constant folding, and
/// expressions with a series' constants substituted in).
pub(crate) fn eval_const(expr: &Expr) -> Result<Value> {
    Ok(eval(expr, &Schema::default(), &[], 1)?.get(0))
}

/// The rows an expression is evaluated over.
struct Scope<'a> {
    schema: &'a Schema,
    cols: &'a [ColView<'a>],
    len: usize,
    /// Projection context: a window call's window is all `len` rows.
    /// Otherwise it is the row itself.
    shift: bool,
}

impl Scope<'_> {
    fn eval(&self, expr: &Expr) -> Result<VOut> {
        if let Some(out) = self.eval_per_entry(expr)? {
            return Ok(out);
        }
        match expr {
            Expr::Literal(v) => Ok(VOut::Const(v.clone())),
            Expr::Column(name) => Ok(VOut::Col(self.cols[self.schema.resolve(name)?].to_column())),
            Expr::Unary { op, operand } => Ok(match (op, self.eval(operand)?) {
                (_, VOut::Const(c)) => VOut::Const(eval_unary(*op, c)?),
                // `0 - x` through the checked kernel: `-i64::MIN` promotes
                // to the exact Float like every other Int overflow.
                (UnaryOp::Neg, VOut::Col(Column::Int(v))) => {
                    int_out(kernel::i64_arith_const(ArithOp::Sub, &v, 0, true))
                }
                (UnaryOp::Neg, VOut::Col(Column::Float(v))) => {
                    VOut::Col(Column::Float(v.iter().map(|&x| -x).collect()))
                }
                (UnaryOp::Not, VOut::Col(Column::Bool(v))) => {
                    VOut::Col(Column::Bool(v.iter().map(|&b| !b).collect()))
                }
                (_, VOut::Col(col)) => self.per_row(|i| eval_unary(*op, col.get(i)))?,
            }),
            Expr::Binary { op: op @ (BinaryOp::And | BinaryOp::Or), left, right } => {
                self.eval_logic(*op, left, right)
            }
            Expr::Binary { op, left, right } => {
                eval_binary_vec(*op, self.eval(left)?, self.eval(right)?, self.len)
            }
            Expr::Function { name, args } => {
                if is_aggregate(name) {
                    return Err(QueryError::Plan(format!(
                        "aggregate {name} used outside GROUP BY context"
                    )));
                }
                if is_window(name) {
                    return self.eval_window(name, args);
                }
                let vals: Vec<VOut> = args.iter().map(|a| self.eval(a)).collect::<Result<_>>()?;
                let mut row: Vec<Value> = Vec::with_capacity(vals.len());
                let mut call = |i: usize| {
                    row.clear();
                    row.extend(vals.iter().map(|v| v.get(i)));
                    eval_scalar(name, &row)
                };
                if vals.iter().all(|v| matches!(v, VOut::Const(_))) {
                    return Ok(VOut::Const(call(0)?));
                }
                self.per_row(call)
            }
            Expr::Index { container, index } => match (self.eval(container)?, self.eval(index)?) {
                (VOut::Const(c), VOut::Const(i)) => Ok(VOut::Const(eval_index(c, i)?)),
                (c, i) => self.per_row(|row| eval_index(c.get(row), i.get(row))),
            },
            Expr::InList { expr, list, negated } => self.eval_in_list(expr, list, *negated),
            Expr::Between { expr, low, high, negated } => {
                let v = self.eval(expr)?;
                let lo = self.eval(low)?;
                let hi = self.eval(high)?;
                // Dense fast path: Int column between constant ints.
                if let (
                    VOut::Col(Column::Int(vs)),
                    VOut::Const(Value::Int(a)),
                    VOut::Const(Value::Int(b)),
                ) = (&v, &lo, &hi)
                {
                    let (a, b) = (*a, *b);
                    return Ok(VOut::Col(Column::Bool(
                        vs.iter().map(|&x| (x >= a && x <= b) != *negated).collect(),
                    )));
                }
                self.per_row(|row| {
                    let x = v.get(row);
                    Ok(match (x.sql_cmp(&lo.get(row)), x.sql_cmp(&hi.get(row))) {
                        (Some(a), Some(b)) => {
                            let inside = a != Ordering::Less && b != Ordering::Greater;
                            Value::Bool(inside != *negated)
                        }
                        _ => Value::Null,
                    })
                })
            }
            Expr::IsNull { expr, negated } => Ok(match self.eval(expr)? {
                VOut::Const(c) => VOut::Const(Value::Bool(c.is_null() != *negated)),
                VOut::Col(c @ (Column::Values(_) | Column::Dict { .. })) => VOut::Col(
                    Column::Bool(c.iter_values().map(|x| x.is_null() != *negated).collect()),
                ),
                // The dense typed columns never contain NULLs.
                VOut::Col(_) => VOut::Const(Value::Bool(*negated)),
            }),
            Expr::Case { when_then, else_expr } => self.eval_case(when_then, else_expr.as_deref()),
        }
    }

    /// One boxed value per row.
    fn per_row(&self, f: impl FnMut(usize) -> Result<Value>) -> Result<VOut> {
        let out: Vec<Value> = (0..self.len).map(f).collect::<Result<_>>()?;
        Ok(VOut::Col(Column::from_values(out)))
    }

    /// Evaluates `expr` over the rows `sel` only (ascending, distinct);
    /// position `j` of the result is row `sel[j]`. No other row is
    /// evaluated, so none can raise an error: this is how every
    /// short-circuit keeps the oracle's Ok/Err outcome.
    fn eval_at(&self, expr: &Expr, sel: &[u32]) -> Result<VOut> {
        if sel.is_empty() {
            return Ok(VOut::Const(Value::Null)); // no row reads it
        }
        if sel.len() == self.len {
            return self.eval(expr);
        }
        if self.shift && expr.contains_window() {
            // A shift reads its neighbours by position: evaluate in place
            // (over every row), then pick.
            return Ok(match self.eval(expr)? {
                VOut::Col(c) => VOut::Col(c.gather_u32(sel)),
                constant => constant,
            });
        }
        let mut gathered = vec![Column::empty(); self.cols.len()];
        for name in expr.columns() {
            if let Ok(i) = self.schema.resolve(name) {
                if gathered[i].is_empty() {
                    gathered[i] = self.cols[i].gather(sel);
                }
            }
        }
        let views: Vec<ColView> = gathered.iter().map(ColView::from).collect();
        Scope { cols: &views, len: sel.len(), ..*self }.eval(expr)
    }

    /// The dictionary rule: an expression whose column references all
    /// trace to one [`Column::Dict`] is evaluated once per entry a row
    /// references (in first-reference order, so errors surface as in a
    /// per-row scan) and expanded by code into a new dictionary column.
    fn eval_per_entry(&self, expr: &Expr) -> Result<Option<VOut>> {
        if matches!(expr, Expr::Literal(_) | Expr::Column(_)) {
            return Ok(None);
        }
        let mut source = None;
        for name in expr.columns() {
            match (self.schema.resolve(name), source) {
                (Ok(i), None) => source = Some(i),
                (Ok(i), Some(j)) if i == j => {}
                _ => return Ok(None),
            }
        }
        let Some(source) = source else { return Ok(None) };
        let ColView::Other(Column::Dict { values, codes }) = self.cols[source] else {
            return Ok(None);
        };
        if expr.contains_window() {
            return Ok(None); // reads a row position, not only this row's entry
        }
        const UNSEEN: u32 = u32::MAX;
        let mut slot = vec![UNSEEN; values.len()];
        let mut referenced: Vec<u32> = Vec::new();
        let codes: Vec<u32> = codes
            .iter()
            .map(|&c| {
                let s = &mut slot[c as usize];
                if *s == UNSEEN {
                    *s = referenced.len() as u32;
                    referenced.push(c);
                }
                *s
            })
            .collect();
        let entries =
            Column::from_values(referenced.iter().map(|&c| values[c as usize].clone()).collect());
        let unused = Column::empty();
        let mut views = vec![ColView::Other(&unused); self.cols.len()];
        views[source] = ColView::from(&entries);
        let per = Scope { cols: &views, len: referenced.len(), ..*self }.eval(expr)?;
        Ok(Some(match per {
            VOut::Col(c) => VOut::Col(Column::dict(Arc::new(c.iter_values().collect()), codes)),
            constant => constant,
        }))
    }

    /// Three-valued `AND`/`OR`. The right operand runs only over the rows
    /// the left one leaves undecided (`FALSE AND _` and `TRUE OR _` are
    /// decided) — the oracle's short-circuit.
    fn eval_logic(&self, op: BinaryOp, left: &Expr, right: &Expr) -> Result<VOut> {
        let decided = Value::Bool(op == BinaryOp::Or);
        let combine = |l, r| if op == BinaryOp::And { eval_and(l, r) } else { eval_or(l, r) };
        let l = match self.eval(left)? {
            VOut::Const(l) if l == decided => return Ok(VOut::Const(l)),
            VOut::Const(l) => {
                return match self.eval(right)? {
                    VOut::Const(r) => Ok(VOut::Const(combine(l, r)?)),
                    VOut::Col(r) => self.per_row(|i| combine(l.clone(), r.get(i))),
                }
            }
            VOut::Col(l) => l,
        };
        let reach: Vec<u32> =
            (0..self.len as u32).filter(|&i| l.get(i as usize) != decided).collect();
        let r = self.eval_at(right, &reach)?;
        // Dense: a Bool left operand is `!decided` on exactly the reaching
        // rows, where the result is the right operand's own value.
        if let (Column::Bool(lb), VOut::Col(Column::Bool(rb))) = (&l, &r) {
            let mut out = lb.clone();
            for (&i, &b) in reach.iter().zip(rb) {
                out[i as usize] = b;
            }
            return Ok(VOut::Col(Column::Bool(out)));
        }
        // Decided rows already hold their result.
        let mut out: Vec<Value> = l.iter_values().collect();
        for (j, &i) in reach.iter().enumerate() {
            let l = std::mem::replace(&mut out[i as usize], Value::Null);
            out[i as usize] = combine(l, r.get(j))?;
        }
        Ok(VOut::Col(Column::from_values(out)))
    }

    /// `CASE`: each condition runs over the rows no earlier arm took, and
    /// each result over the rows its condition took.
    fn eval_case(&self, when_then: &[(Expr, Expr)], else_expr: Option<&Expr>) -> Result<VOut> {
        let mut out = vec![Value::Null; self.len];
        let place = |out: &mut Vec<Value>, rows: &[u32], vals: VOut| {
            for (j, &i) in rows.iter().enumerate() {
                out[i as usize] = vals.get(j);
            }
        };
        let mut pending: Vec<u32> = (0..self.len as u32).collect();
        for (cond, result) in when_then {
            let mask = self.eval_at(cond, &pending)?.into_mask(pending.len());
            let (mut hit, mut miss) = (Vec::new(), Vec::new());
            for (&i, took) in pending.iter().zip(mask) {
                if took { &mut hit } else { &mut miss }.push(i);
            }
            place(&mut out, &hit, self.eval_at(result, &hit)?);
            pending = miss;
        }
        if let Some(e) = else_expr {
            place(&mut out, &pending, self.eval_at(e, &pending)?);
        }
        Ok(VOut::Col(Column::from_values(out)))
    }

    /// `expr [NOT] IN (items)`: a NULL operand is NULL, a hit decides, a
    /// miss is NULL if any item compared was NULL. Item `k` runs over the
    /// rows items `< k` left undecided.
    fn eval_in_list(&self, expr: &Expr, list: &[Expr], negated: bool) -> Result<VOut> {
        let xs: Vec<Value> = self.eval(expr)?.into_column(self.len).iter_values().collect();
        let mut out = vec![Value::Null; self.len];
        let mut saw_null = vec![false; self.len];
        let mut pending: Vec<u32> =
            (0..self.len as u32).filter(|&i| !xs[i as usize].is_null()).collect();
        for item in list {
            let ys = self.eval_at(item, &pending)?;
            let mut j = 0;
            pending.retain(|&i| {
                let y = ys.get(j);
                j += 1;
                if y.is_null() {
                    saw_null[i as usize] = true;
                } else if xs[i as usize].sql_cmp(&y) == Some(Ordering::Equal) {
                    out[i as usize] = Value::Bool(!negated);
                    return false;
                }
                true
            });
        }
        for i in pending {
            if !saw_null[i as usize] {
                out[i as usize] = Value::Bool(negated);
            }
        }
        Ok(VOut::Col(Column::from_values(out)))
    }

    /// `LAG`/`LEAD(value [, offset [, default]])`: row `i` reads `value` at
    /// row `i ∓ offset` of its window — all rows in projection context, the
    /// row itself elsewhere — or the default (else NULL) outside it.
    fn eval_window(&self, name: &str, args: &[Expr]) -> Result<VOut> {
        if args.is_empty() || args.len() > 3 {
            return Err(QueryError::BadFunction(format!("{name} expects 1-3 arguments")));
        }
        let offsets = match args.get(1) {
            Some(e) => self.eval(e)?,
            None => VOut::Const(Value::Int(1)),
        };
        let mut targets: Vec<Option<u32>> = Vec::with_capacity(self.len);
        for i in 0..self.len as i64 {
            let offset = offsets
                .get(i as usize)
                .as_i64()
                .ok_or_else(|| QueryError::Type(format!("{name} offset must be integer")))?;
            let target = if name == "LAG" { i.checked_sub(offset) } else { i.checked_add(offset) };
            let window = if self.shift { 0..self.len as i64 } else { i..i + 1 };
            targets.push(target.filter(|t| window.contains(t)).map(|t| t as u32));
        }
        let mut read: Vec<u32> = targets.iter().flatten().copied().collect();
        read.sort_unstable();
        read.dedup();
        let outside: Vec<u32> =
            (0..self.len as u32).filter(|&i| targets[i as usize].is_none()).collect();
        let values = self.eval_at(&args[0], &read)?;
        let defaults = match args.get(2) {
            Some(e) => self.eval_at(e, &outside)?,
            None => VOut::Const(Value::Null),
        };
        let mut position = vec![0usize; self.len];
        for (j, &t) in read.iter().enumerate() {
            position[t as usize] = j;
        }
        let mut next_default = 0;
        self.per_row(|i| {
            Ok(match targets[i] {
                Some(t) => values.get(position[t as usize]),
                None => {
                    next_default += 1;
                    defaults.get(next_default - 1)
                }
            })
        })
    }
}

/// The kernel-level comparison op for a comparison `BinaryOp`.
fn cmp_op_of(op: BinaryOp) -> CmpOp {
    match op {
        BinaryOp::Eq => CmpOp::Eq,
        BinaryOp::NotEq => CmpOp::Ne,
        BinaryOp::Lt => CmpOp::Lt,
        BinaryOp::LtEq => CmpOp::Le,
        BinaryOp::Gt => CmpOp::Gt,
        BinaryOp::GtEq => CmpOp::Ge,
        _ => unreachable!("comparison operator"),
    }
}

fn cmp_matches(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("comparison operator"),
    }
}

fn is_comparison(op: BinaryOp) -> bool {
    use BinaryOp::*;
    matches!(op, Eq | NotEq | Lt | LtEq | Gt | GtEq)
}

/// `k <op> x` as `x <flipped op> k`.
pub(crate) fn flipped(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

fn int_out(res: IntArith) -> VOut {
    match res {
        IntArith::Ints(v) => VOut::Col(Column::Int(v)),
        IntArith::Mixed(v) => VOut::Col(Column::from_values(v)),
    }
}

/// How `column <op> constant` is decided: the one copy of the
/// Int/Float/big-Int exactness ladder. [`refine`] keeps the rows where the
/// comparison holds; the evaluator also needs the rows where it is unknown.
enum Cmp<'a> {
    /// A NULL or NaN constant: unknown for every row.
    Unknown,
    /// Int column: the constant compiled once into an exact integer test
    /// (never by rounding the column through `f64`). Never unknown.
    Int(&'a [i64], I64Test),
    /// Float column against a constant `f64` holds exactly; unknown where
    /// the element is NaN.
    Float(&'a [f64], f64),
    /// Float column against an Int constant that does not round-trip
    /// through `f64` (above 2^53): exact per-row comparison.
    FloatBigInt(&'a [f64], i64),
    /// Dense strings against a string.
    Str(&'a [String], &'a str),
    /// Everything else: per-row [`Value::sql_cmp`].
    Generic,
}

fn cmp_plan<'a>(col: ColView<'a>, op: BinaryOp, k: &'a Value) -> Cmp<'a> {
    match (col, k) {
        (_, Value::Null) => Cmp::Unknown,
        (ColView::Int(vs), Value::Int(k)) => {
            Cmp::Int(vs, kernel::compile_i64_cmp_int(cmp_op_of(op), *k))
        }
        (ColView::Int(_), Value::Float(k)) if k.is_nan() => Cmp::Unknown,
        (ColView::Int(vs), Value::Float(k)) => {
            Cmp::Int(vs, kernel::compile_i64_cmp(cmp_op_of(op), *k))
        }
        (ColView::Float(vs), Value::Int(ki)) => {
            let kf = *ki as f64; // lint: allow as f64 — exactness re-checked by the round-trip test below
            if kf as i128 == i128::from(*ki) {
                Cmp::Float(vs, kf)
            } else {
                Cmp::FloatBigInt(vs, *ki)
            }
        }
        (ColView::Float(vs), k) => match k.as_f64() {
            Some(kf) if kf.is_nan() => Cmp::Unknown,
            Some(kf) => Cmp::Float(vs, kf),
            None => Cmp::Generic,
        },
        (ColView::Other(Column::Str(vs)), Value::Str(k)) => Cmp::Str(vs, k),
        _ => Cmp::Generic,
    }
}

/// A non-logical binary operator over evaluated operands.
fn eval_binary_vec(op: BinaryOp, l: VOut, r: VOut, len: usize) -> Result<VOut> {
    match (&l, &r) {
        (VOut::Const(a), VOut::Const(b)) => {
            return Ok(VOut::Const(eval_binary(op, a.clone(), b.clone())?));
        }
        // Typed column against a constant, either side (the comparison
        // flips to column-on-the-left).
        (VOut::Col(c), VOut::Const(k)) | (VOut::Const(k), VOut::Col(c)) if is_comparison(op) => {
            let op = if matches!(l, VOut::Const(_)) { flipped(op) } else { op };
            let three_valued = |ord: Option<Ordering>| match ord {
                Some(ord) => Value::Bool(cmp_matches(op, ord)),
                None => Value::Null,
            };
            match cmp_plan(ColView::from(c), op, k) {
                Cmp::Unknown => return Ok(VOut::Const(Value::Null)),
                Cmp::Int(vs, test) => {
                    return Ok(VOut::Col(Column::Bool(
                        vs.iter().map(|&x| test.matches(x)).collect(),
                    )));
                }
                Cmp::Float(vs, k) => {
                    return Ok(VOut::Col(Column::from_values(
                        vs.iter().map(|x| three_valued(x.partial_cmp(&k))).collect(),
                    )));
                }
                Cmp::FloatBigInt(vs, ki) => {
                    return Ok(VOut::Col(Column::from_values(
                        vs.iter()
                            .map(|&x| three_valued(cmp_i64_f64(ki, x).map(Ordering::reverse)))
                            .collect(),
                    )));
                }
                Cmp::Str(vs, k) => {
                    return Ok(VOut::Col(Column::Bool(
                        vs.iter().map(|x| cmp_matches(op, x.as_str().cmp(k))).collect(),
                    )));
                }
                Cmp::Generic => {}
            }
        }
        // LIKE/GLOB with a constant pattern over a dense string column.
        (VOut::Col(Column::Str(vs)), VOut::Const(Value::Str(pat)))
            if matches!(op, BinaryOp::Like | BinaryOp::Glob) =>
        {
            let matcher: fn(&str, &str) -> bool =
                if op == BinaryOp::Like { sql_like } else { explainit_tsdb::glob_match };
            return Ok(VOut::Col(Column::Bool(vs.iter().map(|s| matcher(pat, s)).collect())));
        }
        _ => {}
    }

    // Dense arithmetic fast paths, lowered to the typed chunked kernels.
    if matches!(op, BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul) {
        let kop = match op {
            BinaryOp::Add => ArithOp::Add,
            BinaryOp::Sub => ArithOp::Sub,
            _ => ArithOp::Mul,
        };
        match (&l, &r) {
            // Float column × Float-viewed constant (Int constants above
            // 2^53 would round, so only exactly-representable ones apply;
            // the rest take the generic exact path below).
            (VOut::Col(Column::Float(a)), VOut::Const(k))
            | (VOut::Const(k), VOut::Col(Column::Float(a)))
                if k.as_f64().is_some_and(|f| match k {
                    Value::Int(i) => f as i128 == i128::from(*i),
                    _ => true,
                }) =>
            {
                let swapped = matches!(&l, VOut::Const(_));
                let k = k.as_f64().expect("checked"); // invariant: the match guard saw a numeric constant
                return Ok(VOut::Col(Column::Float(kernel::f64_arith_const(kop, a, k, swapped))));
            }
            (VOut::Col(Column::Float(a)), VOut::Col(Column::Float(b))) => {
                return Ok(VOut::Col(Column::Float(kernel::f64_arith_cols(kop, a, b))));
            }
            // Int column × Int constant / column: exact checked arithmetic,
            // per-element overflow promotion (the scalar evaluator's rule).
            (VOut::Col(Column::Int(a)), VOut::Const(Value::Int(k))) => {
                return Ok(int_out(kernel::i64_arith_const(kop, a, *k, false)));
            }
            (VOut::Const(Value::Int(k)), VOut::Col(Column::Int(a))) => {
                return Ok(int_out(kernel::i64_arith_const(kop, a, *k, true)));
            }
            (VOut::Col(Column::Int(a)), VOut::Col(Column::Int(b))) => {
                return Ok(int_out(kernel::i64_arith_cols(kop, a, b)));
            }
            _ => {}
        }
    }

    // Generic per-row path.
    let out: Vec<Value> =
        (0..len).map(|i| eval_binary(op, l.get(i), r.get(i))).collect::<Result<_>>()?;
    Ok(VOut::Col(Column::from_values(out)))
}

// ---------------------------------------------------------------------------
// Selection-vector refinement
// ---------------------------------------------------------------------------

/// A predicate as [`refine`] sees it: one of the shapes it decides straight
/// off a column, or `General`. Comparisons are normalized to
/// column-on-the-left.
enum Shape<'e> {
    Const(&'e Value),
    And(&'e Expr, &'e Expr),
    Cmp { col: &'e str, op: BinaryOp, lit: &'e Value },
    Between { col: &'e str, lo: &'e Value, hi: &'e Value, negated: bool },
    IsNull { col: &'e str, negated: bool },
    In { col: &'e str, items: Vec<&'e Value>, negated: bool },
    General,
}

fn shape(expr: &Expr) -> Shape<'_> {
    fn literal(e: &Expr) -> Option<&Value> {
        match e {
            Expr::Literal(v) => Some(v),
            _ => None,
        }
    }
    match expr {
        Expr::Literal(v) => Shape::Const(v),
        Expr::Binary { op: BinaryOp::And, left, right } => Shape::And(left, right),
        Expr::Binary { op, left, right } if is_comparison(*op) => match (&**left, &**right) {
            (Expr::Column(col), Expr::Literal(lit)) => Shape::Cmp { col, op: *op, lit },
            (Expr::Literal(lit), Expr::Column(col)) => Shape::Cmp { col, op: flipped(*op), lit },
            _ => Shape::General,
        },
        Expr::Between { expr, low, high, negated } => match (&**expr, &**low, &**high) {
            (Expr::Column(col), Expr::Literal(lo), Expr::Literal(hi)) => {
                Shape::Between { col, lo, hi, negated: *negated }
            }
            _ => Shape::General,
        },
        Expr::IsNull { expr, negated } => match &**expr {
            Expr::Column(col) => Shape::IsNull { col, negated: *negated },
            _ => Shape::General,
        },
        Expr::InList { expr, list, negated } => {
            match (&**expr, list.iter().map(literal).collect::<Option<Vec<_>>>()) {
                (Expr::Column(col), Some(items)) => Shape::In { col, items, negated: *negated },
                _ => Shape::General,
            }
        }
        _ => Shape::General,
    }
}

/// How the executor evaluates one residual predicate, cheapest first: the
/// order the optimizer sorts a filter chain into, what `EXPLAIN` prints as
/// `refine=`, and what the plan verifier re-checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum FilterClass {
    /// References dictionary columns only: once per distinct entry.
    Dict,
    /// A shape [`refine`] decides with the typed loops, straight off
    /// NULL-free numeric columns.
    Kernel,
    /// Everything else: gather the surviving rows, evaluate, mask.
    General,
}

impl FilterClass {
    /// The `refine=` label.
    pub(crate) fn name(self) -> &'static str {
        match self {
            FilterClass::Dict => "dict",
            FilterClass::Kernel => "kernel",
            FilterClass::General => "general",
        }
    }
}

/// Classifies a predicate given which columns are dictionary-encoded
/// (`dict`) and which are NULL-free numeric (`typed`).
pub(crate) fn classify(
    predicate: &Expr,
    dict: &dyn Fn(&str) -> bool,
    typed: &dyn Fn(&str) -> bool,
) -> FilterClass {
    fn direct(e: &Expr, typed: &dyn Fn(&str) -> bool) -> bool {
        match shape(e) {
            Shape::Const(_) => true,
            Shape::And(l, r) => direct(l, typed) && direct(r, typed),
            Shape::Cmp { col, .. }
            | Shape::Between { col, .. }
            | Shape::IsNull { col, .. }
            | Shape::In { col, .. } => typed(col),
            Shape::General => false,
        }
    }
    if predicate.columns().into_iter().all(dict) {
        FilterClass::Dict
    } else if direct(predicate, typed) {
        FilterClass::Kernel
    } else {
        FilterClass::General
    }
}

/// Refines a selection vector in place by a predicate over the `len` rows
/// of `cols`: `sel` keeps exactly the row ids where the predicate
/// `is_true` (NULL and false drop — the WHERE rule). A column compared
/// against literals lowers to the branch-free [`crate::kernel`] loops with
/// no intermediate mask or column, `AND` refines left then right over the
/// survivors only, and anything else is evaluated over just the surviving
/// rows — so predicate *i* of a chain only ever sees the survivors of
/// predicates *< i*, and only they can raise its errors.
pub(crate) fn refine(
    expr: &Expr,
    schema: &Schema,
    cols: &[ColView],
    len: usize,
    sel: &mut Vec<u32>,
) -> Result<()> {
    if sel.is_empty() {
        return Ok(());
    }
    let holds = |op: BinaryOp, ord: Option<Ordering>| ord.is_some_and(|o| cmp_matches(op, o));
    match shape(expr) {
        Shape::Const(v) => {
            if !v.is_true() {
                sel.clear();
            }
        }
        // Fused conjunction: the right side only ever sees left-survivors.
        Shape::And(left, right) => {
            refine(left, schema, cols, len, sel)?;
            refine(right, schema, cols, len, sel)?;
        }
        // Comparisons never error, so every representation refines directly.
        Shape::Cmp { col, op, lit } => {
            let col = cols[schema.resolve(col)?];
            match cmp_plan(col, op, lit) {
                Cmp::Unknown => sel.clear(),
                Cmp::Int(vs, test) => kernel::refine_i64_test(test, vs, sel),
                Cmp::Float(vs, k) => kernel::refine_f64_cmp(cmp_op_of(op), vs, k, sel),
                Cmp::FloatBigInt(vs, ki) => sel
                    .retain(|&i| holds(op, cmp_i64_f64(ki, vs[i as usize]).map(Ordering::reverse))),
                Cmp::Str(vs, k) => sel.retain(|&i| cmp_matches(op, vs[i as usize].as_str().cmp(k))),
                Cmp::Generic => match col {
                    // One comparison per dictionary entry a selected row
                    // references, memoized.
                    ColView::Other(Column::Dict { values, codes }) => {
                        let mut per: Vec<Option<bool>> = vec![None; values.len()];
                        sel.retain(|&i| {
                            let c = codes[i as usize] as usize;
                            *per[c].get_or_insert_with(|| holds(op, values[c].sql_cmp(lit)))
                        });
                    }
                    _ => sel.retain(|&i| holds(op, col.get(i as usize).sql_cmp(lit))),
                },
            }
        }
        Shape::Between { col, lo, hi, negated } => match (cols[schema.resolve(col)?], lo, hi) {
            (
                ColView::Int(vs),
                Value::Int(_) | Value::Float(_),
                Value::Int(_) | Value::Float(_),
            ) => {
                kernel::refine_i64_between(vs, lo, hi, negated, sel);
            }
            (ColView::Float(vs), Value::Float(lo), Value::Float(hi)) => {
                kernel::refine_f64_between(vs, *lo, *hi, negated, sel);
            }
            // Exact generic BETWEEN (unknown drops, negated or not).
            (col, _, _) => sel.retain(|&i| {
                let x = col.get(i as usize);
                match (x.sql_cmp(lo), x.sql_cmp(hi)) {
                    (Some(a), Some(b)) => {
                        (a != Ordering::Less && b != Ordering::Greater) != negated
                    }
                    _ => false,
                }
            }),
        },
        Shape::IsNull { col, negated } => match cols[schema.resolve(col)?] {
            ColView::Other(Column::Values(vs)) => {
                sel.retain(|&i| vs[i as usize].is_null() != negated);
            }
            ColView::Other(Column::Dict { values, codes }) => {
                let per: Vec<bool> = values.iter().map(|x| x.is_null() != negated).collect();
                sel.retain(|&i| per[codes[i as usize] as usize]);
            }
            _ => kernel::refine_is_null(negated, sel),
        },
        // The evaluator's three-valued IN: a hit keeps (unless negated); a
        // NULL anywhere makes a miss unknown, and unknown drops either way.
        Shape::In { col, items, negated } => {
            let col = cols[schema.resolve(col)?];
            let null_item = items.iter().any(|item| item.is_null());
            sel.retain(|&i| {
                let x = col.get(i as usize);
                if items.iter().any(|item| x.sql_cmp(item) == Some(Ordering::Equal)) {
                    !negated
                } else {
                    negated && !null_item && !x.is_null()
                }
            });
        }
        Shape::General => match (Scope { schema, cols, len, shift: false }).eval_at(expr, sel)? {
            VOut::Const(v) => {
                if !v.is_true() {
                    sel.clear();
                }
            }
            out => {
                let mask = out.into_mask(sel.len());
                *sel = sel.iter().zip(mask).filter(|(_, keep)| *keep).map(|(&i, _)| i).collect();
            }
        },
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// GROUP BY keying
// ---------------------------------------------------------------------------

/// Per-row GROUP BY key strings. Dictionary columns render each
/// *referenced* entry's key fragment once (a selective filter may leave a
/// handful of codes over a store-wide dictionary) and splice by code;
/// other columns render per row. Byte-identical to the naive
/// `get(row).group_key()` loop, so every engine buckets rows the same way.
pub(crate) fn group_key_strings(key_cols: &[&Column], len: usize) -> Vec<String> {
    enum Part<'c> {
        Dict { per: Vec<String>, codes: &'c [u32] },
        Plain(&'c Column),
    }
    let parts: Vec<Part> = key_cols
        .iter()
        .map(|&c| match c {
            Column::Dict { values, codes } => {
                let mut per: Vec<String> = vec![String::new(); values.len()];
                let mut done = vec![false; values.len()];
                for &code in codes.iter() {
                    let i = code as usize;
                    if !done[i] {
                        per[i] = values[i].group_key();
                        done[i] = true;
                    }
                }
                Part::Dict { per, codes }
            }
            other => Part::Plain(other),
        })
        .collect();
    let mut keys = Vec::with_capacity(len);
    for row in 0..len {
        let mut key = String::new();
        for p in &parts {
            match p {
                Part::Dict { per, codes } => key.push_str(&per[codes[row] as usize]),
                Part::Plain(c) => key.push_str(&c.get(row).group_key()),
            }
            key.push('\u{1}');
        }
        keys.push(key);
    }
    keys
}

/// True for the rows where any key column is NULL (such a join key never
/// matches). Only boxed and dictionary columns can hold one.
pub(crate) fn null_rows(key_cols: &[&Column], len: usize) -> Vec<bool> {
    let mut nulls = vec![false; len];
    for c in key_cols {
        match c {
            Column::Values(vs) => {
                nulls.iter_mut().zip(vs).for_each(|(n, v)| *n |= v.is_null());
            }
            Column::Dict { values, codes } => {
                let per: Vec<bool> = values.iter().map(Value::is_null).collect();
                nulls.iter_mut().zip(codes).for_each(|(n, &c)| *n |= per[c as usize]);
            }
            _ => {}
        }
    }
    nulls
}

/// Groups rows **directly on dictionary codes** when every key column is
/// dictionary-encoded: per key column, dictionary entries are deduplicated
/// by their group-key fragment (rendered once *per entry*, never per row)
/// into dense canonical ids; each row's composite id is the mixed-radix
/// packing of its per-column canonical ids — so the per-row hot loop does
/// integer arithmetic only, no string rendering and no string hashing.
///
/// Distinct composite ids whose joined fragment strings nevertheless
/// collide (a fragment containing the `\u{1}` separator) are merged
/// afterwards, per distinct id, so bucketing stays *exactly* equal to
/// [`group_key_strings`]-based bucketing in every case.
///
/// Returns row-index buckets in first-seen order, or `None` when a key
/// column is not dictionary-encoded (or the packed id space overflows).
pub(crate) fn dict_group_rows(key_cols: &[Column], len: usize) -> Option<Vec<Vec<usize>>> {
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

    struct Key<'c> {
        codes: &'c [u32],
        /// Dictionary code → dense canonical id (fragment-deduplicated).
        canon: Vec<u128>,
        /// Canonical id → the entry's fragment (for collision merging).
        frags: Vec<String>,
        cardinality: u128,
    }
    let mut keys: Vec<Key> = Vec::with_capacity(key_cols.len());
    for c in key_cols {
        let Column::Dict { values, codes } = c else { return None };
        // Render fragments only for entries a row actually *references* —
        // a selective filter may leave a handful of codes over a
        // store-wide dictionary, and unreferenced entries must cost
        // nothing (no rendering, no hashing).
        const UNSEEN: u128 = u128::MAX;
        let mut ids: HashMap<String, u128> = HashMap::new();
        let mut canon = vec![UNSEEN; values.len()];
        let mut frags: Vec<String> = Vec::new();
        for &code in codes.iter() {
            let slot = &mut canon[code as usize];
            if *slot != UNSEEN {
                continue;
            }
            let frag = values[code as usize].group_key();
            let next = ids.len() as u128;
            let id = *ids.entry(frag.clone()).or_insert(next);
            if id == next {
                frags.push(frag);
            }
            *slot = id;
        }
        let cardinality = (frags.len() as u128).max(1);
        keys.push(Key { codes, canon, frags, cardinality });
    }
    // Mixed-radix packing must fit u128 (it always does in practice; a
    // pathological dictionary-cardinality product falls back to strings).
    keys.iter().try_fold(1u128, |acc, k| acc.checked_mul(k.cardinality))?;

    let mut order: Vec<u128> = Vec::new();
    let mut buckets: HashMap<u128, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for row in 0..len {
        let mut id = 0u128;
        for k in &keys {
            id = id * k.cardinality + k.canon[k.codes[row] as usize];
        }
        match buckets.entry(id) {
            Entry::Vacant(e) => {
                order.push(id);
                e.insert(groups.len());
                groups.push(vec![row]);
            }
            Entry::Occupied(e) => groups[*e.get()].push(row),
        }
    }

    // Collision pass, per distinct composite id: unpack the id back into
    // per-column canonical ids, join the fragments with the `\u{1}`
    // separator and merge buckets whose joined strings are equal. Merged
    // row lists interleave in ascending row order (both inputs are
    // ascending), which preserves the serial first-seen semantics.
    let mut by_joined: HashMap<String, usize> = HashMap::new();
    let mut final_groups: Vec<Vec<usize>> = Vec::new();
    for (slot, mut id) in order.iter().copied().enumerate() {
        let mut parts: Vec<&str> = Vec::with_capacity(keys.len());
        for k in keys.iter().rev() {
            let part = (id % k.cardinality) as usize;
            id /= k.cardinality;
            parts.push(&k.frags[part]);
        }
        let mut joined = String::new();
        for p in parts.iter().rev() {
            joined.push_str(p);
            joined.push('\u{1}');
        }
        let rows = std::mem::take(&mut groups[slot]);
        match by_joined.entry(joined) {
            Entry::Vacant(e) => {
                e.insert(final_groups.len());
                final_groups.push(rows);
            }
            Entry::Occupied(e) => {
                // Rare: fragments containing the separator. Sorted merge.
                let dst = &mut final_groups[*e.get()];
                let mut merged = Vec::with_capacity(dst.len() + rows.len());
                let (mut a, mut b) = (dst.iter().peekable(), rows.iter().peekable());
                loop {
                    match (a.peek(), b.peek()) {
                        (Some(&&x), Some(&&y)) => {
                            if x < y {
                                merged.push(x);
                                a.next();
                            } else {
                                merged.push(y);
                                b.next();
                            }
                        }
                        (Some(&&x), None) => {
                            merged.push(x);
                            a.next();
                        }
                        (None, Some(&&y)) => {
                            merged.push(y);
                            b.next();
                        }
                        (None, None) => break,
                    }
                }
                *dst = merged;
            }
        }
    }
    Some(final_groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr as E, SelectItem};

    /// Parses one expression.
    fn expr(sql: &str) -> E {
        let query = crate::parser::parse_query(&format!("SELECT {sql}")).unwrap();
        match &query.selects[0].items[0] {
            SelectItem::Expr { expr, .. } => expr.clone(),
            SelectItem::Wildcard => panic!("not an expression: {sql}"),
        }
    }

    fn schema() -> Schema {
        Schema::new(vec!["ts".into(), "v".into(), "host".into()])
    }

    fn cols() -> Vec<Column> {
        vec![
            Column::Int(vec![0, 1, 2, 3]),
            Column::Float(vec![1.0, 2.0, 3.0, 4.0]),
            Column::Str(vec!["a".into(), "b".into(), "a".into(), "c".into()]),
        ]
    }

    fn mask(e: &E) -> Vec<bool> {
        eval(e, &schema(), &cols(), 4).unwrap().into_mask(4)
    }

    #[test]
    fn dense_int_comparison() {
        let e = E::Binary {
            op: BinaryOp::Gt,
            left: Box::new(E::col("ts")),
            right: Box::new(E::lit(1i64)),
        };
        assert_eq!(mask(&e), vec![false, false, true, true]);
    }

    #[test]
    fn flipped_comparison_normalizes() {
        // 2 <= ts  ==  ts >= 2
        let e = E::Binary {
            op: BinaryOp::LtEq,
            left: Box::new(E::lit(2i64)),
            right: Box::new(E::col("ts")),
        };
        assert_eq!(mask(&e), vec![false, false, true, true]);
    }

    #[test]
    fn string_equality_and_and_combinator() {
        let host = E::Binary {
            op: BinaryOp::Eq,
            left: Box::new(E::col("host")),
            right: Box::new(E::lit("a")),
        };
        let v = E::Binary {
            op: BinaryOp::Gt,
            left: Box::new(E::col("v")),
            right: Box::new(E::lit(1.5)),
        };
        let both = E::Binary { op: BinaryOp::And, left: Box::new(host), right: Box::new(v) };
        assert_eq!(mask(&both), vec![false, false, true, false]);
    }

    #[test]
    fn between_fast_path() {
        let e = E::Between {
            expr: Box::new(E::col("ts")),
            low: Box::new(E::lit(1i64)),
            high: Box::new(E::lit(2i64)),
            negated: false,
        };
        assert_eq!(mask(&e), vec![false, true, true, false]);
    }

    #[test]
    fn in_list_on_strings() {
        let e = E::InList {
            expr: Box::new(E::col("host")),
            list: vec![E::lit("a"), E::lit("c")],
            negated: false,
        };
        assert_eq!(mask(&e), vec![true, false, true, true]);
    }

    #[test]
    fn is_null_on_dense_column_is_constant_false() {
        let e = E::IsNull { expr: Box::new(E::col("ts")), negated: false };
        assert_eq!(mask(&e), vec![false; 4]);
        let e = E::IsNull { expr: Box::new(E::col("ts")), negated: true };
        assert_eq!(mask(&e), vec![true; 4]);
    }

    fn values(e: &str) -> Result<Vec<Value>> {
        Ok(eval(&expr(e), &schema(), &cols(), 4)?.into_column(4).iter_values().collect())
    }

    #[test]
    fn scalar_calls_and_case_evaluate_and_aggregates_are_rejected() {
        let strs = |xs: &[&str]| xs.iter().map(|s| Value::str(*s)).collect::<Vec<_>>();
        assert_eq!(values("UPPER(host)").unwrap(), strs(&["A", "B", "A", "C"]));
        assert_eq!(values("CONCAT(host, ts)").unwrap(), strs(&["a0", "b1", "a2", "c3"]));
        assert_eq!(
            values("CASE WHEN ts < 2 THEN 'low' WHEN host = 'c' THEN host END").unwrap(),
            vec![Value::str("low"), Value::str("low"), Value::Null, Value::str("c")]
        );
        assert_eq!(values("GREATEST(1, 2)").unwrap(), vec![Value::Float(2.0); 4]);
        assert!(matches!(values("AVG(v)"), Err(QueryError::Plan(_))));
    }

    #[test]
    fn short_circuits_evaluate_only_the_rows_that_reach_them() {
        // `UPPER(ts)` is a type error on every row, so these are Ok only
        // if it runs over no row at all.
        for ok in [
            "ts < 0 AND UPPER(ts) = 'X'",
            "ts >= 0 OR UPPER(ts) = 'X'",
            "CASE WHEN ts >= 0 THEN 'ok' ELSE UPPER(ts) END",
            "CASE WHEN ts < 0 THEN UPPER(ts) END",
            "ts IN (ts, UPPER(ts))",
        ] {
            assert!(values(ok).is_ok(), "{ok}");
        }
        // One reaching row is enough to raise it (row 3 only, here).
        for err in [
            "ts < 3 AND UPPER(ts) = 'X'",
            "ts < 3 OR UPPER(ts) = 'X'",
            "CASE WHEN ts < 3 THEN 'ok' ELSE UPPER(ts) END",
            "ts IN (0, 1, 2, UPPER(ts))",
        ] {
            assert!(values(err).is_err(), "{err}");
        }
        // NULL does not decide AND/OR: the right operand still runs.
        assert!(values("NULL AND UPPER(ts) = 'X'").is_err());
        assert_eq!(
            values("ts > 1 AND v < 4").unwrap(),
            [false, false, true, false].map(Value::Bool)
        );
        assert_eq!(
            values("(ts > 1 AND NULL) OR host = 'a'").unwrap(),
            vec![Value::Bool(true), Value::Bool(false), Value::Bool(true), Value::Null]
        );
    }

    #[test]
    fn window_calls_shift_in_projection_context_and_see_one_row_elsewhere() {
        let projected = |e: &str| -> Vec<Value> {
            let out = eval_projection(&expr(e), &schema(), &cols(), 4).unwrap();
            out.into_column(4).iter_values().collect()
        };
        let ints = |xs: [i64; 4]| xs.map(Value::Int).to_vec();
        assert_eq!(
            projected("LAG(ts)"),
            vec![Value::Null, Value::Int(0), Value::Int(1), Value::Int(2)]
        );
        assert_eq!(projected("LEAD(ts, 2, -1)"), ints([2, 3, -1, -1]));
        assert_eq!(projected("LAG(ts, ts)"), ints([0, 0, 0, 0]));
        assert_eq!(projected("LAG(LAG(ts, 1, 9), 1, 8)"), ints([8, 9, 0, 1]));
        // A shift under a short-circuit still reads by position.
        assert_eq!(projected("CASE WHEN ts > 1 THEN LAG(ts) ELSE -1 END"), ints([-1, -1, 1, 2]));
        // Offsets at the i64 extremes are out of range, not an overflow.
        assert_eq!(projected("LAG(ts, -9223372036854775807 - 1, 7)"), ints([7; 4]));
        assert_eq!(projected("LEAD(ts, 9223372036854775807)"), vec![Value::Null; 4]);
        // Row context: the window is the row itself.
        assert_eq!(values("LAG(ts)").unwrap(), vec![Value::Null; 4]);
        assert_eq!(values("LAG(ts, 0)").unwrap(), ints([0, 1, 2, 3]));
        assert_eq!(values("LEAD(ts, 1, v)").unwrap(), [1.0, 2.0, 3.0, 4.0].map(Value::Float));
        assert!(values("LAG(ts, 'x')").is_err());
    }

    #[test]
    fn negating_i64_min_promotes_to_the_exact_float() {
        let schema = Schema::new(vec!["x".into()]);
        let cols = vec![Column::Int(vec![i64::MIN, 5])];
        let out = eval(&expr("-x"), &schema, &cols, 2).unwrap().into_column(2);
        assert_eq!(out.get(0), Value::Float(9_223_372_036_854_775_808.0));
        assert_eq!(out.get(1), Value::Int(-5));
        assert_eq!(eval_unary(UnaryOp::Neg, Value::Int(i64::MIN)).unwrap(), out.get(0));
    }

    /// The predicates the scan-aggregate span loop refines (they were the
    /// inputs of the separate span refiner), plus a general one.
    const POINT_PREDICATES: [&str; 17] = [
        "ts > 1",
        "2 <= ts",
        "ts != 1.5",
        "ts < 9223372036854775808.0",
        "v >= 2.5",
        "v != v",
        "v > 9007199254740993",
        "v < NULL",
        "ts = 'a'",
        "ts BETWEEN 1 AND 2.5",
        "v NOT BETWEEN 1.5 AND 3.5",
        "v BETWEEN 1 AND 3",
        "ts IS NULL",
        "v IS NOT NULL",
        "ts IN (0, 3, NULL)",
        "v NOT IN (1.0, NULL)",
        "TRUE AND ts > 0 AND ABS(v) < 1e300",
    ];

    #[test]
    fn refine_agrees_over_owned_columns_borrowed_slices_and_the_evaluator() {
        let schema = Schema::new(vec!["ts".into(), "v".into()]);
        let ts = vec![0i64, 1, 2, 3, i64::MAX];
        let vs = vec![1.0, f64::NAN, 3.0, 9007199254740994.0, f64::NEG_INFINITY];
        let owned = vec![Column::Int(ts.clone()), Column::Float(vs.clone())];
        let views: Vec<ColView> = owned.iter().map(ColView::from).collect();
        let slices = [ColView::Int(&ts), ColView::Float(&vs)];
        for sql in POINT_PREDICATES {
            let e = expr(sql);
            for start in [vec![0u32, 1, 2, 3, 4], vec![1, 3, 4], vec![]] {
                let mask = eval(&e, &schema, &owned, 5).unwrap().into_mask(5);
                let want: Vec<u32> = start.iter().copied().filter(|&i| mask[i as usize]).collect();
                for cols in [&views[..], &slices[..]] {
                    let mut sel = start.clone();
                    refine(&e, &schema, cols, 5, &mut sel).unwrap();
                    assert_eq!(sel, want, "{sql} from {start:?}");
                }
            }
        }
    }

    fn dict_cols() -> Vec<Column> {
        let names = Arc::new(vec![Value::str("cpu"), Value::str("disk")]);
        let tags = Arc::new(vec![
            Value::Map([("host".to_string(), "web-1".to_string())].into_iter().collect()),
            Value::Map(std::collections::BTreeMap::new()),
        ]);
        vec![
            Column::Int(vec![0, 1, 2, 3]),
            Column::dict(names, vec![0, 1, 0, 1]),
            Column::dict(tags, vec![0, 0, 1, 1]),
        ]
    }

    fn dict_schema() -> Schema {
        Schema::new(vec!["ts".into(), "metric_name".into(), "tag".into()])
    }

    #[test]
    fn dict_equality_evaluates_per_entry() {
        let e = E::Binary {
            op: BinaryOp::Eq,
            left: Box::new(E::col("metric_name")),
            right: Box::new(E::lit("cpu")),
        };
        let m = eval(&e, &dict_schema(), &dict_cols(), 4).unwrap().into_mask(4);
        assert_eq!(m, vec![true, false, true, false]);
    }

    #[test]
    fn dict_glob_and_like() {
        for (op, pat, want) in [
            (BinaryOp::Glob, "c*", vec![true, false, true, false]),
            (BinaryOp::Like, "d%k", vec![false, true, false, true]),
        ] {
            let e = E::Binary {
                op,
                left: Box::new(E::col("metric_name")),
                right: Box::new(E::lit(pat)),
            };
            assert_eq!(eval(&e, &dict_schema(), &dict_cols(), 4).unwrap().into_mask(4), want);
        }
    }

    #[test]
    fn dict_map_index_and_is_null() {
        // tag['host'] resolves per dictionary entry; the tagless entry
        // yields NULL, which IS NULL must see through the dictionary.
        let access =
            E::Index { container: Box::new(E::col("tag")), index: Box::new(E::lit("host")) };
        let out = eval(&access, &dict_schema(), &dict_cols(), 4).unwrap().into_column(4);
        assert_eq!(out.get(0), Value::str("web-1"));
        assert_eq!(out.get(2), Value::Null);
        let isnull = E::IsNull { expr: Box::new(access), negated: false };
        assert_eq!(
            eval(&isnull, &dict_schema(), &dict_cols(), 4).unwrap().into_mask(4),
            vec![false, false, true, true]
        );
    }

    #[test]
    fn dict_errors_only_for_referenced_entries() {
        // Indexing into a Str dictionary entry is a type error — but only
        // entries actually referenced by a row may raise it.
        let names = Arc::new(vec![Value::str("cpu"), Value::Int(7)]);
        let cols = vec![Column::dict(names, vec![1, 1])];
        let schema = Schema::new(vec!["x".into()]);
        let e = E::Index { container: Box::new(E::col("x")), index: Box::new(E::lit("k")) };
        // Entry 0 ("cpu", unreferenced) would also error; entry 1 errors
        // first because rows reference it.
        assert!(eval(&e, &schema, &cols, 2).is_err());
    }

    #[test]
    fn expressions_over_one_dict_column_run_once_per_referenced_entry() {
        // `UPPER(7)` is a type error, but no row references that entry;
        // the result stays dictionary-encoded over the two that are.
        let names = Arc::new(vec![Value::str("cpu"), Value::Int(7), Value::str("disk")]);
        let cols = vec![Column::dict(names, vec![2, 0, 2, 2])];
        let schema = Schema::new(vec!["x".into()]);
        for (sql, want) in [
            ("CONCAT(UPPER(x), '!')", ["DISK!", "CPU!", "DISK!", "DISK!"].map(Value::str)),
            (
                "CASE WHEN x LIKE 'c%' THEN 'c' ELSE x END",
                ["disk", "c", "disk", "disk"].map(Value::str),
            ),
        ] {
            let out = eval(&expr(sql), &schema, &cols, 4).unwrap().into_column(4);
            let Column::Dict { values, .. } = &out else { panic!("{sql}: {out:?}") };
            assert_eq!(values.len(), 2, "{sql}");
            assert_eq!(out.iter_values().collect::<Vec<_>>(), want, "{sql}");
        }
        // A window call reads a row position, so it is not per entry.
        let lag = eval_projection(&expr("LAG(x)"), &schema, &cols, 4).unwrap().into_column(4);
        assert_eq!(lag.get(0), Value::Null);
        assert_eq!(lag.get(2), Value::str("cpu"));
    }

    #[test]
    fn arithmetic_matches_scalar_semantics() {
        // Int + Int stays Int via the generic path.
        let e = E::Binary {
            op: BinaryOp::Add,
            left: Box::new(E::col("ts")),
            right: Box::new(E::lit(10i64)),
        };
        let out = eval(&e, &schema(), &cols(), 4).unwrap().into_column(4);
        assert_eq!(out.get(2), Value::Int(12));
        // Float column uses the dense path.
        let e = E::Binary {
            op: BinaryOp::Mul,
            left: Box::new(E::col("v")),
            right: Box::new(E::lit(2.0)),
        };
        let out = eval(&e, &schema(), &cols(), 4).unwrap().into_column(4);
        assert_eq!(out.get(3), Value::Float(8.0));
    }
}
