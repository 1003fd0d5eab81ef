//! Expression semantics, one value at a time. This module has two jobs:
//!
//! 1. **The scalar semantics every layer calls** — `eval_unary`,
//!    `eval_binary`, `eval_and`/`eval_or`, `eval_index`,
//!    `sql_like`: what an operator means on already-evaluated values.
//!    The column evaluator ([`crate::veval`]) decides over which rows
//!    these run; it never re-implements them.
//! 2. **The row walker, which is the oracle.** [`eval_with_rows`] (and its
//!    one-row form [`eval_row`], and [`eval_group`] over a group) walks an
//!    expression for one row at a time. [`crate::reference`] is built on
//!    it and the tests compare the executor against it; the executor
//!    itself never calls it (`explainit-lint` rule 5).
//!
//! The walker's contexts:
//! * **row context** — one row (WHERE, ON, GROUP BY keys, aggregate
//!   arguments): aggregate calls are errors and a window call sees only
//!   its own row;
//! * **projection context** — all input rows plus the current row index,
//!   which makes `LAG`/`LEAD` work (§3.5's lagged features).
//!
//! There is no third walker for groups: a grouped expression is its
//! aggregate calls substituted ([`map_grouped`] says which it reaches),
//! then a row — here over the group's first row, in the executor over the
//! operators' finished columns.

use std::cmp::Ordering;

use crate::ast::{BinaryOp, Expr, UnaryOp};
use crate::functions::{eval_aggregate, eval_scalar, is_aggregate, is_window};
use crate::table::Schema;
use crate::value::Value;
use crate::{QueryError, Result};

/// Evaluates an expression against a single row (no window/aggregate).
pub fn eval_row(expr: &Expr, schema: &Schema, row: &[Value]) -> Result<Value> {
    eval_with_rows(expr, schema, std::slice::from_ref(&row.to_vec()), 0)
}

/// Evaluates with full-input access (supports LAG/LEAD at the current
/// `idx`).
pub fn eval_with_rows(
    expr: &Expr,
    schema: &Schema,
    rows: &[Vec<Value>],
    idx: usize,
) -> Result<Value> {
    let row = &rows[idx];
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(name) => {
            let i = schema.resolve(name)?;
            Ok(row[i].clone())
        }
        Expr::Unary { op, operand } => {
            let v = eval_with_rows(operand, schema, rows, idx)?;
            eval_unary(*op, v)
        }
        Expr::Binary { op, left, right } => {
            let l = eval_with_rows(left, schema, rows, idx)?;
            // Short-circuit three-valued AND/OR.
            match op {
                BinaryOp::And => {
                    if matches!(l, Value::Bool(false)) {
                        return Ok(Value::Bool(false));
                    }
                    let r = eval_with_rows(right, schema, rows, idx)?;
                    return eval_and(l, r);
                }
                BinaryOp::Or => {
                    if matches!(l, Value::Bool(true)) {
                        return Ok(Value::Bool(true));
                    }
                    let r = eval_with_rows(right, schema, rows, idx)?;
                    return eval_or(l, r);
                }
                _ => {}
            }
            let r = eval_with_rows(right, schema, rows, idx)?;
            eval_binary(*op, l, r)
        }
        Expr::Function { name, args } => {
            if is_aggregate(name) {
                return Err(QueryError::Plan(format!(
                    "aggregate {name} used outside GROUP BY context"
                )));
            }
            if is_window(name) {
                return eval_window(name, args, schema, rows, idx);
            }
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_with_rows(a, schema, rows, idx)?);
            }
            eval_scalar(name, &vals)
        }
        Expr::Index { container, index } => {
            let c = eval_with_rows(container, schema, rows, idx)?;
            let i = eval_with_rows(index, schema, rows, idx)?;
            eval_index(c, i)
        }
        Expr::InList { expr, list, negated } => {
            let v = eval_with_rows(expr, schema, rows, idx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval_with_rows(item, schema, rows, idx)?;
                if iv.is_null() {
                    saw_null = true;
                    continue;
                }
                if v.sql_cmp(&iv) == Some(Ordering::Equal) {
                    return Ok(Value::Bool(!negated));
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Between { expr, low, high, negated } => {
            let v = eval_with_rows(expr, schema, rows, idx)?;
            let lo = eval_with_rows(low, schema, rows, idx)?;
            let hi = eval_with_rows(high, schema, rows, idx)?;
            match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                (Some(a), Some(b)) => {
                    let inside = a != Ordering::Less && b != Ordering::Greater;
                    Ok(Value::Bool(inside != *negated))
                }
                _ => Ok(Value::Null),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_with_rows(expr, schema, rows, idx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Case { when_then, else_expr } => {
            for (cond, result) in when_then {
                if eval_with_rows(cond, schema, rows, idx)?.is_true() {
                    return eval_with_rows(result, schema, rows, idx);
                }
            }
            match else_expr {
                Some(e) => eval_with_rows(e, schema, rows, idx),
                None => Ok(Value::Null),
            }
        }
    }
}

/// Evaluates an expression over a group of rows: every aggregate call it
/// reaches is computed over the whole group (also one a `CASE` arm would
/// skip) and substituted as a literal, and what is left is a row expression
/// over the group's first row.
pub fn eval_group(expr: &Expr, schema: &Schema, group: &[&Vec<Value>]) -> Result<Value> {
    let first = group.first().ok_or_else(|| QueryError::Plan("empty group".into()))?;
    let row = map_grouped(expr, &mut |e| match e {
        Expr::Function { name, args } if is_aggregate(name) => {
            let mut per_row = Vec::with_capacity(group.len());
            for row in group {
                per_row.push(args.iter().map(|a| eval_row(a, schema, row)).collect::<Result<_>>()?);
            }
            Ok(Some(Expr::Literal(eval_aggregate(name, &per_row)?)))
        }
        _ => Ok(None),
    })?;
    eval_row(&row, schema, first)
}

/// Group context, as a rewrite. `sub` sees, parents first, every
/// sub-expression a grouped expression evaluates per group — through
/// operators, scalar calls, indexing and `CASE` — and may replace it: an
/// aggregate call by its value or column, a group key by its column. What
/// it declines, and everything under `IN` / `BETWEEN` / `IS NULL` / a
/// window call, stays as written, which is row context: an aggregate call
/// left there is the row error. This is the one definition of which
/// aggregate calls a grouped expression reaches.
pub(crate) fn map_grouped<'e>(
    expr: &'e Expr,
    sub: &mut dyn FnMut(&'e Expr) -> Result<Option<Expr>>,
) -> Result<Expr> {
    if let Some(replaced) = sub(expr)? {
        return Ok(replaced);
    }
    Ok(match expr {
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(map_grouped(left, sub)?),
            right: Box::new(map_grouped(right, sub)?),
        },
        Expr::Unary { op, operand } => {
            Expr::Unary { op: *op, operand: Box::new(map_grouped(operand, sub)?) }
        }
        Expr::Function { name, args } if !is_window(name) => Expr::Function {
            name: name.clone(),
            args: args.iter().map(|a| map_grouped(a, sub)).collect::<Result<_>>()?,
        },
        Expr::Index { container, index } => Expr::Index {
            container: Box::new(map_grouped(container, sub)?),
            index: Box::new(map_grouped(index, sub)?),
        },
        Expr::Case { when_then, else_expr } => Expr::Case {
            when_then: (when_then.iter())
                .map(|(c, v)| Ok((map_grouped(c, sub)?, map_grouped(v, sub)?)))
                .collect::<Result<_>>()?,
            else_expr: (else_expr.as_deref().map(|e| map_grouped(e, sub).map(Box::new)))
                .transpose()?,
        },
        _ => expr.clone(),
    })
}

fn eval_window(
    name: &str,
    args: &[Expr],
    schema: &Schema,
    rows: &[Vec<Value>],
    idx: usize,
) -> Result<Value> {
    if args.is_empty() || args.len() > 3 {
        return Err(QueryError::BadFunction(format!("{name} expects 1-3 arguments")));
    }
    let offset = match args.get(1) {
        Some(e) => eval_with_rows(e, schema, rows, idx)?
            .as_i64()
            .ok_or_else(|| QueryError::Type(format!("{name} offset must be integer")))?,
        None => 1,
    };
    // Checked: an offset near the i64 extremes is simply out of range.
    let idx_i = idx as i64;
    let target = if name == "LAG" { idx_i.checked_sub(offset) } else { idx_i.checked_add(offset) };
    match target.filter(|t| (0..rows.len() as i64).contains(t)) {
        Some(target) => eval_with_rows(&args[0], schema, rows, target as usize),
        // Default value argument, else NULL.
        None => match args.get(2) {
            Some(e) => eval_with_rows(e, schema, rows, idx),
            None => Ok(Value::Null),
        },
    }
}

pub(crate) fn eval_unary(op: UnaryOp, v: Value) -> Result<Value> {
    match op {
        UnaryOp::Neg => {
            if v.is_null() {
                return Ok(Value::Null);
            }
            match v {
                // `0 - i`: `-i64::MIN` promotes to the exact Float like
                // every other Int overflow.
                Value::Int(i) => eval_binary(BinaryOp::Sub, Value::Int(0), Value::Int(i)),
                Value::Float(f) => Ok(Value::Float(-f)),
                other => Err(QueryError::Type(format!("cannot negate {other}"))),
            }
        }
        UnaryOp::Not => match v {
            Value::Null => Ok(Value::Null),
            other => Ok(Value::Bool(!other.is_true())),
        },
    }
}

pub(crate) fn eval_and(l: Value, r: Value) -> Result<Value> {
    // Three-valued logic: false dominates, then NULL.
    match (l.is_null(), r.is_null()) {
        (false, false) => Ok(Value::Bool(l.is_true() && r.is_true())),
        (true, false) if !r.is_true() => Ok(Value::Bool(false)),
        (false, true) if !l.is_true() => Ok(Value::Bool(false)),
        _ => Ok(Value::Null),
    }
}

pub(crate) fn eval_or(l: Value, r: Value) -> Result<Value> {
    match (l.is_null(), r.is_null()) {
        (false, false) => Ok(Value::Bool(l.is_true() || r.is_true())),
        (true, false) if r.is_true() => Ok(Value::Bool(true)),
        (false, true) if l.is_true() => Ok(Value::Bool(true)),
        _ => Ok(Value::Null),
    }
}

pub(crate) fn eval_binary(op: BinaryOp, l: Value, r: Value) -> Result<Value> {
    match op {
        BinaryOp::And | BinaryOp::Or => unreachable!("handled by caller"),
        BinaryOp::Eq
        | BinaryOp::NotEq
        | BinaryOp::Lt
        | BinaryOp::LtEq
        | BinaryOp::Gt
        | BinaryOp::GtEq => {
            let cmp = match l.sql_cmp(&r) {
                Some(c) => c,
                None => return Ok(Value::Null),
            };
            let b = match op {
                BinaryOp::Eq => cmp == Ordering::Equal,
                BinaryOp::NotEq => cmp != Ordering::Equal,
                BinaryOp::Lt => cmp == Ordering::Less,
                BinaryOp::LtEq => cmp != Ordering::Greater,
                BinaryOp::Gt => cmp == Ordering::Greater,
                BinaryOp::GtEq => cmp != Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        BinaryOp::Like | BinaryOp::Glob => {
            let name = if op == BinaryOp::Like { "LIKE" } else { "GLOB" };
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let text = l
                .as_str()
                .ok_or_else(|| QueryError::Type(format!("{name} expects a string operand")))?;
            let pattern = r
                .as_str()
                .ok_or_else(|| QueryError::Type(format!("{name} expects a string pattern")))?;
            Ok(Value::Bool(if op == BinaryOp::Like {
                sql_like(pattern, text)
            } else {
                explainit_tsdb::glob_match(pattern, text)
            }))
        }
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // String concatenation via `+` is a common convenience.
            if op == BinaryOp::Add {
                if let (Value::Str(a), Value::Str(b)) = (&l, &r) {
                    return Ok(Value::Str(format!("{a}{b}")));
                }
            }
            // Int × Int stays in exact integer arithmetic; overflow
            // promotes to Float (same rule as AggAcc SUM) instead of
            // wrapping or rounding through f64. Division is always Float.
            if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
                let (a, b) = (*a, *b);
                let checked = |v: Option<i64>, exact: i128| match v {
                    Some(v) => Value::Int(v),
                    None => Value::Float(exact as f64),
                };
                return Ok(match op {
                    BinaryOp::Add => checked(a.checked_add(b), i128::from(a) + i128::from(b)),
                    BinaryOp::Sub => checked(a.checked_sub(b), i128::from(a) - i128::from(b)),
                    BinaryOp::Mul => checked(a.checked_mul(b), i128::from(a) * i128::from(b)),
                    BinaryOp::Div => {
                        if b == 0 {
                            Value::Null
                        } else {
                            Value::Float(a as f64 / b as f64)
                        }
                    }
                    BinaryOp::Mod => {
                        if b == 0 {
                            Value::Null
                        } else {
                            // i64::MIN % -1 is mathematically 0; wrapping_rem
                            // gives exactly that without the overflow panic.
                            Value::Int(a.wrapping_rem(b))
                        }
                    }
                    _ => unreachable!(),
                });
            }
            let a = l
                .as_f64()
                .ok_or_else(|| QueryError::Type(format!("arithmetic on non-number {l}")))?;
            let b = r
                .as_f64()
                .ok_or_else(|| QueryError::Type(format!("arithmetic on non-number {r}")))?;
            let keep_int = matches!(l, Value::Int(_)) && matches!(r, Value::Int(_));
            let out = match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                BinaryOp::Div => {
                    if b == 0.0 {
                        return Ok(Value::Null); // SQL: division by zero -> NULL here
                    }
                    a / b
                }
                BinaryOp::Mod => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a % b
                }
                _ => unreachable!(),
            };
            if keep_int && out.fract() == 0.0 && op != BinaryOp::Div {
                Ok(Value::Int(out as i64))
            } else {
                Ok(Value::Float(out))
            }
        }
    }
}

pub(crate) fn eval_index(container: Value, index: Value) -> Result<Value> {
    match container {
        Value::Null => Ok(Value::Null),
        Value::Map(m) => {
            let key = index
                .as_str()
                .ok_or_else(|| QueryError::Type("map index must be a string".into()))?;
            Ok(m.get(key).map(|v| Value::Str(v.clone())).unwrap_or(Value::Null))
        }
        Value::List(items) => {
            let i = index
                .as_i64()
                .ok_or_else(|| QueryError::Type("list index must be an integer".into()))?;
            if i < 0 || i as usize >= items.len() {
                Ok(Value::Null)
            } else {
                Ok(items[i as usize].clone())
            }
        }
        other => Err(QueryError::Type(format!("cannot index into {other}"))),
    }
}

/// SQL LIKE matching: `%` = any run, `_` = one char — the store's wildcard
/// matcher over LIKE's alphabet.
pub(crate) fn sql_like(pattern: &str, text: &str) -> bool {
    explainit_tsdb::wildcard_match(pattern, text, '%', '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr as E;
    use std::collections::BTreeMap;

    fn schema() -> Schema {
        Schema::new(vec!["a".into(), "b".into(), "tag".into(), "s".into()])
    }

    fn row() -> Vec<Value> {
        let mut m = BTreeMap::new();
        m.insert("host".to_string(), "web-1".to_string());
        vec![Value::Int(3), Value::Float(1.5), Value::Map(m), Value::str("web-1")]
    }

    fn ev(expr: &E) -> Value {
        eval_row(expr, &schema(), &row()).unwrap()
    }

    #[test]
    fn arithmetic_and_types() {
        let e = E::Binary {
            op: BinaryOp::Add,
            left: Box::new(E::col("a")),
            right: Box::new(E::lit(2i64)),
        };
        assert_eq!(ev(&e), Value::Int(5));
        let e = E::Binary {
            op: BinaryOp::Mul,
            left: Box::new(E::col("a")),
            right: Box::new(E::col("b")),
        };
        assert_eq!(ev(&e), Value::Float(4.5));
    }

    #[test]
    fn division_by_zero_is_null() {
        let e = E::Binary {
            op: BinaryOp::Div,
            left: Box::new(E::lit(1i64)),
            right: Box::new(E::lit(0i64)),
        };
        assert_eq!(ev(&e), Value::Null);
    }

    #[test]
    fn int_arithmetic_is_exact_and_promotes_on_overflow() {
        let bin = |op, l: i64, r: i64| eval_binary(op, Value::Int(l), Value::Int(r)).unwrap();
        // Exact above 2^53: the old f64 path would round this to 2^53.
        assert_eq!(bin(BinaryOp::Add, 1 << 53, 1), Value::Int((1 << 53) + 1));
        assert_eq!(bin(BinaryOp::Sub, i64::MAX, 1), Value::Int(i64::MAX - 1));
        // Overflow promotes to Float (AggAcc SUM's rule), never wraps.
        assert_eq!(
            bin(BinaryOp::Add, i64::MAX, 1),
            Value::Float((i128::from(i64::MAX) + 1) as f64)
        );
        assert_eq!(
            bin(BinaryOp::Sub, i64::MIN, 1),
            Value::Float((i128::from(i64::MIN) - 1) as f64)
        );
        assert_eq!(
            bin(BinaryOp::Mul, i64::MAX, i64::MAX),
            Value::Float((i128::from(i64::MAX) * i128::from(i64::MAX)) as f64)
        );
        assert_eq!(bin(BinaryOp::Mul, -1, i64::MIN), Value::Float(-(i64::MIN as f64)));
        // i64::MIN % -1 must not panic; the mathematical result is 0.
        assert_eq!(bin(BinaryOp::Mod, i64::MIN, -1), Value::Int(0));
        assert_eq!(bin(BinaryOp::Mod, 7, 3), Value::Int(1));
        assert_eq!(bin(BinaryOp::Mod, 7, 0), Value::Null);
        // Int / Int is always Float (or NULL on zero divisor).
        assert_eq!(bin(BinaryOp::Div, 7, 2), Value::Float(3.5));
        assert_eq!(bin(BinaryOp::Div, 4, 2), Value::Float(2.0));
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        let e = E::Binary {
            op: BinaryOp::Add,
            left: Box::new(E::Literal(Value::Null)),
            right: Box::new(E::lit(2i64)),
        };
        assert_eq!(ev(&e), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        let null = E::Literal(Value::Null);
        let tru = E::lit(true);
        let fal = E::lit(false);
        let and = |l: &E, r: &E| E::Binary {
            op: BinaryOp::And,
            left: Box::new(l.clone()),
            right: Box::new(r.clone()),
        };
        let or = |l: &E, r: &E| E::Binary {
            op: BinaryOp::Or,
            left: Box::new(l.clone()),
            right: Box::new(r.clone()),
        };
        assert_eq!(ev(&and(&null, &fal)), Value::Bool(false));
        assert_eq!(ev(&and(&null, &tru)), Value::Null);
        assert_eq!(ev(&or(&null, &tru)), Value::Bool(true));
        assert_eq!(ev(&or(&null, &fal)), Value::Null);
    }

    #[test]
    fn map_index_and_missing_key() {
        let hit = E::Index { container: Box::new(E::col("tag")), index: Box::new(E::lit("host")) };
        assert_eq!(ev(&hit), Value::str("web-1"));
        let miss = E::Index { container: Box::new(E::col("tag")), index: Box::new(E::lit("nope")) };
        assert_eq!(ev(&miss), Value::Null);
    }

    #[test]
    fn split_then_index() {
        let e = E::Index {
            container: Box::new(E::Function {
                name: "SPLIT".into(),
                args: vec![E::col("s"), E::lit("-")],
            }),
            index: Box::new(E::lit(0i64)),
        };
        assert_eq!(ev(&e), Value::str("web"));
        let out_of_range = E::Index {
            container: Box::new(E::Function {
                name: "SPLIT".into(),
                args: vec![E::col("s"), E::lit("-")],
            }),
            index: Box::new(E::lit(9i64)),
        };
        assert_eq!(ev(&out_of_range), Value::Null);
    }

    #[test]
    fn in_list_with_null_semantics() {
        let e = E::InList {
            expr: Box::new(E::col("a")),
            list: vec![E::lit(1i64), E::lit(3i64)],
            negated: false,
        };
        assert_eq!(ev(&e), Value::Bool(true));
        let e = E::InList {
            expr: Box::new(E::col("a")),
            list: vec![E::lit(1i64), E::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(ev(&e), Value::Null); // unknown per SQL
    }

    #[test]
    fn between_inclusive() {
        let mk = |lo: i64, hi: i64, neg: bool| E::Between {
            expr: Box::new(E::col("a")),
            low: Box::new(E::lit(lo)),
            high: Box::new(E::lit(hi)),
            negated: neg,
        };
        assert_eq!(ev(&mk(3, 5, false)), Value::Bool(true));
        assert_eq!(ev(&mk(1, 3, false)), Value::Bool(true));
        assert_eq!(ev(&mk(4, 5, false)), Value::Bool(false));
        assert_eq!(ev(&mk(4, 5, true)), Value::Bool(true));
    }

    #[test]
    fn like_patterns() {
        assert!(sql_like("web%", "web-12"));
        assert!(sql_like("%node%", "datanode-1"));
        assert!(sql_like("w_b", "web"));
        assert!(!sql_like("w_b", "wxyb"));
        assert!(sql_like("%", ""));
        assert!(!sql_like("a%", "b"));
        // `adversarial_backtracking_terminates`' twin (`tsdb/src/glob.rs`).
        let text = "a".repeat(60);
        assert!(!sql_like("%a%a%a%a%a%a%a%b", &text));
        assert!(sql_like("%a%a%a%a%a%a%a%a", &text));
        // The other alphabet's metacharacters are literals here.
        assert!(sql_like("c*u?", "c*u?") && !sql_like("c*u?", "cpux"));
    }

    #[test]
    fn case_expression() {
        let e = E::Case {
            when_then: vec![(
                E::Binary {
                    op: BinaryOp::Gt,
                    left: Box::new(E::col("a")),
                    right: Box::new(E::lit(2i64)),
                },
                E::lit("big"),
            )],
            else_expr: Some(Box::new(E::lit("small"))),
        };
        assert_eq!(ev(&e), Value::str("big"));
    }

    #[test]
    fn lag_and_lead() {
        let schema = Schema::new(vec!["v".into()]);
        let rows: Vec<Vec<Value>> = (0..4).map(|i| vec![Value::Int(i)]).collect();
        let lag = E::Function { name: "LAG".into(), args: vec![E::col("v")] };
        assert_eq!(eval_with_rows(&lag, &schema, &rows, 0).unwrap(), Value::Null);
        assert_eq!(eval_with_rows(&lag, &schema, &rows, 2).unwrap(), Value::Int(1));
        let lead2 = E::Function { name: "LEAD".into(), args: vec![E::col("v"), E::lit(2i64)] };
        assert_eq!(eval_with_rows(&lead2, &schema, &rows, 1).unwrap(), Value::Int(3));
        assert_eq!(eval_with_rows(&lead2, &schema, &rows, 3).unwrap(), Value::Null);
        let lag_default = E::Function {
            name: "LAG".into(),
            args: vec![E::col("v"), E::lit(1i64), E::lit(-1i64)],
        };
        assert_eq!(eval_with_rows(&lag_default, &schema, &rows, 0).unwrap(), Value::Int(-1));
    }

    #[test]
    fn aggregate_in_row_context_errors() {
        let agg = E::Function { name: "AVG".into(), args: vec![E::col("a")] };
        assert!(matches!(ev_err(&agg), QueryError::Plan(_)));
    }

    fn ev_err(expr: &E) -> QueryError {
        eval_row(expr, &schema(), &row()).unwrap_err()
    }

    #[test]
    fn group_evaluation() {
        let schema = Schema::new(vec!["k".into(), "v".into()]);
        let r1 = vec![Value::str("a"), Value::Float(1.0)];
        let r2 = vec![Value::str("a"), Value::Float(3.0)];
        let group: Vec<&Vec<Value>> = vec![&r1, &r2];
        let avg = E::Function { name: "AVG".into(), args: vec![E::col("v")] };
        assert_eq!(eval_group(&avg, &schema, &group).unwrap(), Value::Float(2.0));
        // Non-aggregate resolves on first row.
        assert_eq!(eval_group(&E::col("k"), &schema, &group).unwrap(), Value::str("a"));
        // Mixed expression: AVG(v) * 2.
        let mixed =
            E::Binary { op: BinaryOp::Mul, left: Box::new(avg), right: Box::new(E::lit(2i64)) };
        assert_eq!(eval_group(&mixed, &schema, &group).unwrap(), Value::Float(4.0));
    }

    #[test]
    fn string_plus_concatenates() {
        let e = E::Binary {
            op: BinaryOp::Add,
            left: Box::new(E::lit("a")),
            right: Box::new(E::lit("b")),
        };
        assert_eq!(ev(&e), Value::str("ab"));
    }
}
