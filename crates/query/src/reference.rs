//! The retained row-at-a-time reference executor (the pre-plan-layer seed
//! interpreter).
//!
//! This is the oracle the differential property tests run against: a direct
//! tree-walking interpreter over materialized `Vec<Vec<Value>>` rows with
//! no planning, no optimization and no columnar operators. It must stay
//! semantically aligned with [`crate::exec`] — when the two disagree on a
//! query, one of them has a bug (historically the new one). Aggregate
//! semantics are shared by construction: this interpreter evaluates
//! aggregates through the same mergeable accumulators
//! ([`crate::functions::eval_aggregate`]) the serial and
//! partition-parallel columnar executors use, so the corrected
//! sample-variance / Int-SUM / constant-p PERCENTILE behaviour is defined
//! in exactly one place.
//!
//! Pipeline per SELECT: resolve FROM → apply JOINs (hash join on
//! decomposable equi-conditions, nested loop otherwise) → WHERE → GROUP BY /
//! aggregate or plain projection (with window functions) → ORDER BY →
//! LIMIT. UNION concatenates compatible SELECT outputs.
//!
//! Known, intended divergences from the optimized path:
//!
//! * `UNION` does not coerce Int/Float column mismatches here (the coercion
//!   is an optimizer-era policy);
//! * TSDB-bound tables are materialized wholesale through
//!   [`Catalog::get`] — exactly the full-store materialization the
//!   pushdown path exists to avoid.

use std::collections::HashMap;

use crate::ast::{Expr, JoinKind, Query, SelectItem, SelectStmt, TableRef};
use crate::catalog::Catalog;
use crate::eval::{eval_group, eval_row, eval_with_rows};
use crate::plan::equi_join_keys;
use crate::table::{Schema, Table};
use crate::value::Value;
use crate::{QueryError, Result};

/// Executes a parsed query with the naive row interpreter.
pub fn execute_naive(catalog: &Catalog, query: &Query) -> Result<Table> {
    let mut result: Option<Table> = None;
    for select in &query.selects {
        let part = execute_select(catalog, select)?;
        result = Some(match result {
            None => part,
            Some(acc) => union(acc, part)?,
        });
    }
    result.ok_or_else(|| QueryError::Plan("query has no SELECT".into()))
}

fn union(mut acc: Table, part: Table) -> Result<Table> {
    if acc.schema().len() != part.schema().len() {
        return Err(QueryError::Plan(format!(
            "UNION arity mismatch: {} vs {} columns",
            acc.schema().len(),
            part.schema().len()
        )));
    }
    for row in part.rows() {
        acc.push_row(row);
    }
    Ok(acc)
}

fn execute_select(catalog: &Catalog, select: &SelectStmt) -> Result<Table> {
    // ---- FROM + JOINs ----------------------------------------------------
    let (mut schema, mut rows) = match &select.from {
        Some(tref) => {
            let (s, r) = resolve_table_ref(catalog, tref)?;
            if select.joins.is_empty() {
                (s, r)
            } else {
                let scope = tref
                    .scope_name()
                    .ok_or_else(|| QueryError::Plan("subquery in a join needs an alias".into()))?;
                (s.qualified(scope), r)
            }
        }
        None => (Schema::new(vec![]), vec![vec![]]), // SELECT <constants>
    };
    for join in &select.joins {
        let (right_schema, right_rows) = resolve_table_ref(catalog, &join.table)?;
        let scope = join
            .table
            .scope_name()
            .ok_or_else(|| QueryError::Plan("joined subquery needs an alias".into()))?;
        let right_schema = right_schema.qualified(scope);
        (schema, rows) = join_tables(schema, rows, right_schema, right_rows, join.kind, &join.on)?;
    }

    // ---- WHERE -----------------------------------------------------------
    if let Some(pred) = &select.where_clause {
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            if eval_row(pred, &schema, &row)?.is_true() {
                kept.push(row);
            }
        }
        rows = kept;
    }

    // ---- GROUP BY / projection --------------------------------------------
    let has_aggregates = select.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
        SelectItem::Wildcard => false,
    });
    let grouped = !select.group_by.is_empty() || has_aggregates;

    let (out_schema, mut out_rows, sort_keys) = if grouped {
        project_grouped(select, &schema, &rows)?
    } else {
        project_plain(select, &schema, &rows)?
    };

    // ---- ORDER BY ---------------------------------------------------------
    if !select.order_by.is_empty() {
        let mut order: Vec<usize> = (0..out_rows.len()).collect();
        order.sort_by(|&a, &b| {
            for (k, key) in select.order_by.iter().enumerate() {
                let cmp = sort_keys[a][k].order_cmp(&sort_keys[b][k]);
                let cmp = if key.ascending { cmp } else { cmp.reverse() };
                if cmp != std::cmp::Ordering::Equal {
                    return cmp;
                }
            }
            std::cmp::Ordering::Equal
        });
        out_rows = {
            let mut permuted = Vec::with_capacity(out_rows.len());
            let mut taken: Vec<Option<Vec<Value>>> = out_rows.into_iter().map(Some).collect();
            for i in order {
                permuted.push(taken[i].take().expect("each index used once")); // invariant: order is a permutation; each index is taken once
            }
            permuted
        };
    }

    // ---- LIMIT --------------------------------------------------------------
    if let Some(limit) = select.limit {
        out_rows.truncate(limit);
    }
    Ok(Table::from_parts(out_schema, out_rows))
}

/// Projection output: schema, output rows, and per-row ORDER BY key values.
type Projected = (Schema, Vec<Vec<Value>>, Vec<Vec<Value>>);

/// Plain (non-aggregate) projection. Returns schema, rows and per-row sort
/// key values for ORDER BY.
fn project_plain(select: &SelectStmt, schema: &Schema, rows: &[Vec<Value>]) -> Result<Projected> {
    // Expand projection list.
    let mut names = Vec::new();
    let mut exprs: Vec<Expr> = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                for c in schema.columns() {
                    names.push(c.clone());
                    exprs.push(Expr::Column(c.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                names.push(alias.clone().unwrap_or_else(|| expr.default_name()));
                exprs.push(expr.clone());
            }
        }
    }
    let out_schema = Schema::new(names);
    let mut out_rows = Vec::with_capacity(rows.len());
    let mut sort_keys = Vec::with_capacity(rows.len());
    for idx in 0..rows.len() {
        let mut out = Vec::with_capacity(exprs.len());
        for e in &exprs {
            out.push(eval_with_rows(e, schema, rows, idx)?);
        }
        // Sort keys: output alias reference or input expression.
        let mut keys = Vec::with_capacity(select.order_by.len());
        for ok in &select.order_by {
            keys.push(order_key_value(&ok.expr, &out_schema, &out, schema, rows, idx)?);
        }
        sort_keys.push(keys);
        out_rows.push(out);
    }
    Ok((out_schema, out_rows, sort_keys))
}

/// Grouped projection with aggregates.
fn project_grouped(select: &SelectStmt, schema: &Schema, rows: &[Vec<Value>]) -> Result<Projected> {
    for item in &select.items {
        if matches!(item, SelectItem::Wildcard) {
            return Err(QueryError::Plan("SELECT * cannot be combined with GROUP BY".into()));
        }
    }
    // Group rows by key.
    let mut group_order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Vec<&Vec<Value>>> = HashMap::new();
    for row in rows {
        let mut key = String::new();
        for g in &select.group_by {
            key.push_str(&eval_row(g, schema, row)?.group_key());
            key.push('\u{1}');
        }
        match groups.entry(key.clone()) {
            std::collections::hash_map::Entry::Vacant(e) => {
                group_order.push(key);
                e.insert(vec![row]);
            }
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(row),
        }
    }
    // No GROUP BY but aggregates present: one global group (even when the
    // input is empty, SQL returns one row of aggregates over nothing — we
    // return an empty table for the empty-input case to keep COUNT simple).
    if select.group_by.is_empty() && !rows.is_empty() {
        groups.clear();
        group_order.clear();
        group_order.push(String::new());
        groups.insert(String::new(), rows.iter().collect());
    }

    let mut names = Vec::with_capacity(select.items.len());
    let mut exprs = Vec::with_capacity(select.items.len());
    for item in &select.items {
        if let SelectItem::Expr { expr, alias } = item {
            names.push(alias.clone().unwrap_or_else(|| expr.default_name()));
            exprs.push(expr.clone());
        }
    }
    let out_schema = Schema::new(names);
    let mut out_rows = Vec::with_capacity(groups.len());
    let mut sort_keys = Vec::with_capacity(groups.len());
    for key in &group_order {
        let group = &groups[key];
        let mut out = Vec::with_capacity(exprs.len());
        for e in &exprs {
            out.push(eval_group(e, schema, group)?);
        }
        let mut keys = Vec::with_capacity(select.order_by.len());
        for ok in &select.order_by {
            // Alias fast path; otherwise group evaluation.
            let v = match &ok.expr {
                Expr::Column(name) if out_schema.resolve(name).is_ok() => {
                    out[out_schema.resolve(name)?].clone()
                }
                other => eval_group(other, schema, group)?,
            };
            keys.push(v);
        }
        sort_keys.push(keys);
        out_rows.push(out);
    }
    Ok((out_schema, out_rows, sort_keys))
}

fn order_key_value(
    expr: &Expr,
    out_schema: &Schema,
    out_row: &[Value],
    in_schema: &Schema,
    rows: &[Vec<Value>],
    idx: usize,
) -> Result<Value> {
    if let Expr::Column(name) = expr {
        if let Ok(i) = out_schema.resolve(name) {
            return Ok(out_row[i].clone());
        }
    }
    eval_with_rows(expr, in_schema, rows, idx)
}

fn resolve_table_ref(catalog: &Catalog, tref: &TableRef) -> Result<(Schema, Vec<Vec<Value>>)> {
    match tref {
        TableRef::Named { name, .. } => {
            let t = catalog.get(name)?;
            Ok((t.schema().clone(), t.rows()))
        }
        TableRef::Subquery { query, .. } => {
            let t = execute_naive(catalog, query)?;
            Ok((t.schema().clone(), t.rows()))
        }
    }
}

// ---- joins -----------------------------------------------------------------

fn join_tables(
    left_schema: Schema,
    left_rows: Vec<Vec<Value>>,
    right_schema: Schema,
    right_rows: Vec<Vec<Value>>,
    kind: JoinKind,
    on: &Expr,
) -> Result<(Schema, Vec<Vec<Value>>)> {
    let mut columns = left_schema.columns().to_vec();
    columns.extend(right_schema.columns().iter().cloned());
    let combined = Schema::new(columns);
    let left_width = left_schema.len();
    let right_width = right_schema.len();

    let mut out: Vec<Vec<Value>> = Vec::new();
    let mut right_matched = vec![false; right_rows.len()];

    if let Some((lk, rk)) = equi_join_keys(on, &left_schema, &right_schema) {
        // Hash join on the decomposed key columns.
        let mut index: HashMap<String, Vec<usize>> = HashMap::new();
        for (ri, rrow) in right_rows.iter().enumerate() {
            if rk.iter().any(|&c| rrow[c].is_null()) {
                continue; // NULL keys never match
            }
            let key = join_key(rrow, &rk);
            index.entry(key).or_default().push(ri);
        }
        for lrow in &left_rows {
            let null_key = lk.iter().any(|&c| lrow[c].is_null());
            let matches = if null_key { None } else { index.get(&join_key(lrow, &lk)) };
            match matches {
                Some(ris) if !ris.is_empty() => {
                    for &ri in ris {
                        right_matched[ri] = true;
                        let mut row = lrow.clone();
                        row.extend(right_rows[ri].iter().cloned());
                        out.push(row);
                    }
                }
                _ => {
                    if kind != JoinKind::Inner {
                        let mut row = lrow.clone();
                        row.extend(std::iter::repeat_n(Value::Null, right_width));
                        out.push(row);
                    }
                }
            }
        }
    } else {
        // General nested loop with full ON evaluation.
        for lrow in &left_rows {
            let mut matched = false;
            for (ri, rrow) in right_rows.iter().enumerate() {
                let mut row = lrow.clone();
                row.extend(rrow.iter().cloned());
                if eval_row(on, &combined, &row)?.is_true() {
                    matched = true;
                    right_matched[ri] = true;
                    out.push(row);
                }
            }
            if !matched && kind != JoinKind::Inner {
                let mut row = lrow.clone();
                row.extend(std::iter::repeat_n(Value::Null, right_width));
                out.push(row);
            }
        }
    }

    if kind == JoinKind::FullOuter {
        for (ri, rrow) in right_rows.iter().enumerate() {
            if !right_matched[ri] {
                let mut row: Vec<Value> = std::iter::repeat_n(Value::Null, left_width).collect();
                row.extend(rrow.iter().cloned());
                out.push(row);
            }
        }
    }
    Ok((combined, out))
}

fn join_key(row: &[Value], cols: &[usize]) -> String {
    let mut key = String::new();
    for &c in cols {
        key.push_str(&row[c].group_key());
        key.push('\u{1}');
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn naive_path_still_answers_queries() {
        let mut c = Catalog::new();
        c.register(
            "t",
            Table::from_rows(
                &["ts", "v"],
                vec![
                    vec![Value::Int(0), Value::Float(1.0)],
                    vec![Value::Int(1), Value::Float(3.0)],
                ],
            ),
        );
        let q = parse_query("SELECT ts, v * 2 AS d FROM t WHERE v > 0 ORDER BY ts DESC").unwrap();
        let t = execute_naive(&c, &q).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[0], vec![Value::Int(1), Value::Float(6.0)]);
    }

    #[test]
    fn naive_and_columnar_agree_on_a_grouped_query() {
        let mut c = Catalog::new();
        c.register(
            "m",
            Table::from_rows(
                &["k", "v"],
                vec![
                    vec![Value::Int(0), Value::Float(1.0)],
                    vec![Value::Int(0), Value::Float(3.0)],
                    vec![Value::Int(1), Value::Float(5.0)],
                ],
            ),
        );
        let q = parse_query("SELECT k, AVG(v) AS m FROM m GROUP BY k ORDER BY k").unwrap();
        let naive = execute_naive(&c, &q).unwrap();
        let fast = crate::exec::execute(&c, &q).unwrap();
        assert_eq!(naive.rows(), fast.rows());
        assert_eq!(naive.schema(), fast.schema());
    }
}
