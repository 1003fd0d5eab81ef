//! The `Aggregate` operator (the table aggregate): per row morsel, the
//! peeled filter chain, rows bucketed by group key and every aggregate call
//! folded into an [`AggColumn`] over the morsel's groups; morsels merge in
//! order through global group ids, and `super::finish_outputs` finishes.

use std::borrow::Cow;
use std::collections::HashMap;

use super::{agg_slots, effective_partitions, finish_outputs, morsel_columns, morsel_ranges};
use super::{project_names, run_partitioned, AggSpec, ExecOptions};
use crate::ast::Expr;
use crate::column::Column;
use crate::functions::AggColumn;
use crate::kernel;
use crate::table::{Schema, Table};
use crate::value::Value;
use crate::veval;
use crate::Result;

/// A single aggregate argument viewed as a typed minicolumn: a raw
/// `f64`/`i64` slice plus an optional validity bitmap. An `f64` one folds
/// into an [`AggColumn`], dense where the aggregate has a column form; an
/// `i64` one is pushed value by value, unboxed. `Float`/`Int` columns borrow in place; homogeneous `Values`
/// columns (numeric with NULL runs) extract once per morsel.
enum FastArg<'a> {
    F64(Cow<'a, [f64]>, Option<Vec<u64>>),
    I64(Cow<'a, [i64]>, Option<Vec<u64>>),
}

fn fast_arg(col: &Column) -> Option<FastArg<'_>> {
    match col {
        Column::Float(vs) => Some(FastArg::F64(Cow::Borrowed(vs), None)),
        Column::Int(vs) => Some(FastArg::I64(Cow::Borrowed(vs), None)),
        Column::Values(vs) => match kernel::mini_from_values(vs)? {
            kernel::Mini::F64(v, validity) => Some(FastArg::F64(Cow::Owned(v), validity)),
            kernel::Mini::I64(v, validity) => Some(FastArg::I64(Cow::Owned(v), validity)),
        },
        _ => None,
    }
}

/// One morsel's groups, in first-seen order, as columns over them.
#[derive(Default)]
struct MorselGroups {
    /// Each group's rendered key: what morsels merge on.
    merge_keys: Vec<String>,
    /// The group-key values of each group's first row.
    keys: Vec<Column>,
    /// Each group's first input row; kept only when an output reads it.
    first_row: Vec<Column>,
    /// One accumulator column per aggregate spec.
    aggs: Vec<AggColumn>,
}

/// The one table aggregate. The source is cut into row morsels by size
/// (serial execution is the one-morsel case); each morsel runs the peeled
/// filter chain, buckets its rows by key and folds every spec into an
/// [`AggColumn`] over its groups, which [`finish_groups`] merges in morsel
/// order. Every aggregate call in the select list is computed for every
/// group, also one a `CASE` branch would skip.
pub(super) fn run_aggregate(
    src: &Table,
    filters: &[&Expr],
    group_by: &[Expr],
    items: &[(Expr, String)],
    hidden: &[Expr],
    opts: &ExecOptions,
) -> Result<Table> {
    let (outputs, specs, mut names) = agg_slots(group_by, items, hidden)?;
    // A name that is none of the finished columns reads the groups' first rows.
    let finished = |c: &&str| names.iter().any(|n| n == c);
    let keep_first = !outputs.iter().all(|e| e.columns().iter().all(finished));
    if keep_first {
        names.extend_from_slice(src.schema().columns());
    }
    let len = src.len();
    // No rows, no morsels: nothing is evaluated over an empty input.
    let ranges = morsel_ranges(len, effective_partitions(opts, len));
    let partials = run_partitioned(ranges.len(), |m| {
        let (a, b) = ranges[m];
        let (cols, mlen) = morsel_columns(src, filters, a, b)?;
        aggregate_morsel(src.schema(), &cols, mlen, group_by, &specs, keep_first)
    })?;
    finish_groups(partials, &outputs, &Schema::new(names), project_names(items, hidden.len()))
}

/// Partial aggregation of one morsel's `len` filtered rows: groups keyed
/// for the cross-morsel merge by their rendered key string, in first-seen
/// order.
fn aggregate_morsel(
    schema: &Schema,
    cols: &[Column],
    len: usize,
    group_by: &[Expr],
    specs: &[AggSpec],
    keep_first: bool,
) -> Result<MorselGroups> {
    if len == 0 {
        return Ok(MorselGroups::default());
    }
    // Keys and arguments are row context: a window call sees its own row.
    let eval_col =
        |e: &Expr| -> Result<Column> { Ok(veval::eval(e, schema, cols, len)?.into_column(len)) };
    let key_cols: Vec<Column> = group_by.iter().map(eval_col).collect::<Result<_>>()?;

    // Bucket row indices by key, preserving first-seen order. When every
    // key column is dictionary-encoded, rows group directly on dictionary
    // codes (no per-row key-string rendering — the scan's `metric_name` /
    // `tag` / `tag['k']` keys all hit this path); otherwise rows bucket by
    // rendered key strings, like the reference.
    let row_groups: Vec<Vec<usize>> = if group_by.is_empty() {
        vec![(0..len).collect()] // one global group
    } else if let Some(groups) = veval::dict_group_rows(&key_cols, len) {
        groups
    } else {
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let key_refs: Vec<&Column> = key_cols.iter().collect();
        for (row, key) in veval::group_key_strings(&key_refs, len).into_iter().enumerate() {
            let slot = *index.entry(key).or_insert(groups.len());
            if slot == groups.len() {
                groups.push(Vec::new());
            }
            groups[slot].push(row);
        }
        groups
    };

    // Each group's first row names it: its rendered key is the merge key.
    let firsts: Vec<usize> = row_groups.iter().map(|rows| rows[0]).collect();
    let keys: Vec<Column> = key_cols.iter().map(|c| c.gather(&firsts)).collect();
    let merge_keys = veval::group_key_strings(&keys.iter().collect::<Vec<_>>(), firsts.len());
    let first_row = match keep_first {
        true => cols.iter().map(|c| c.gather(&firsts)).collect(),
        false => Vec::new(),
    };
    // Every (group, row) pair, group by group.
    let group_rows =
        || row_groups.iter().enumerate().flat_map(|(g, rows)| rows.iter().map(move |&r| (g, r)));
    let mut aggs = Vec::with_capacity(specs.len());
    let mut row: Vec<Value> = Vec::new();
    for (name, args) in specs {
        let arg_cols: Vec<Column> = args.iter().map(eval_col).collect::<Result<_>>()?;
        // A single Float/Int-shaped argument feeds its values unboxed — a
        // Float one into dense slots — and skips its NULLs, which change no
        // accumulator (single-argument pushes cannot error). Anything else
        // pushes boxed rows.
        let fast = match arg_cols.as_slice() {
            [arg] => fast_arg(arg),
            _ => None,
        };
        let dense = matches!(fast, Some(FastArg::F64(..)));
        let mut column = AggColumn::new(name, row_groups.len(), dense)?;
        match &fast {
            Some(FastArg::F64(vs, validity)) => {
                let valid = group_rows().filter(|&(_, r)| kernel::is_valid(validity.as_deref(), r));
                column.fold(valid.map(|(g, r)| (g, vs[r])));
            }
            Some(FastArg::I64(vs, validity)) => {
                let valid = group_rows().filter(|&(_, r)| kernel::is_valid(validity.as_deref(), r));
                valid.for_each(|(g, r)| column.push_i64(g, vs[r]));
            }
            None => {
                for (g, r) in group_rows() {
                    row.clear();
                    row.extend(arg_cols.iter().map(|c| c.get(r)));
                    column.push(g, &row)?;
                }
            }
        }
        aggs.push(column);
    }
    Ok(MorselGroups { merge_keys, keys, first_row, aggs })
}

/// The table aggregate's merge step. Groups are numbered as they are met:
/// morsels arrive in row order, each with its groups in first-seen order,
/// so that is the serial first-seen order and a group's first morsel holds
/// its first row. Each spec's morsel columns merge into one over all groups
/// through that numbering, in morsel order (exactly fold-equivalent to one
/// pass over all rows); keys, finished values and first rows are the
/// columns of `schema` for [`finish_outputs`].
fn finish_groups(
    mut morsels: Vec<MorselGroups>,
    outputs: &[Expr],
    schema: &Schema,
    out_schema: Schema,
) -> Result<Table> {
    morsels.retain(|m| !m.merge_keys.is_empty());
    let mut index: HashMap<String, usize> = HashMap::new();
    // Each group's first morsel, and its place there.
    let mut origin: Vec<(usize, usize)> = Vec::new();
    let mut ids: Vec<Vec<usize>> = Vec::with_capacity(morsels.len());
    for (m, morsel) in morsels.iter_mut().enumerate() {
        let merge_keys = std::mem::take(&mut morsel.merge_keys).into_iter().enumerate();
        ids.push(
            merge_keys
                .map(|(g, key)| {
                    *index.entry(key).or_insert_with(|| {
                        origin.push((m, g));
                        origin.len() - 1
                    })
                })
                .collect(),
        );
    }
    let rows = origin.len();
    let Some(first) = morsels.first() else {
        return finish_outputs(outputs, schema, vec![Column::empty(); schema.len()], 0, out_schema);
    };
    let at_origin = |pick: fn(&MorselGroups) -> &[Column]| -> Vec<Column> {
        let values = |c: usize| origin.iter().map(|&(m, g)| pick(&morsels[m])[c].get(g)).collect();
        (0..pick(first).len()).map(|c| Column::from_values(values(c))).collect()
    };
    let keys = at_origin(|m| &m.keys);
    let first_row = at_origin(|m| &m.first_row);
    let mut aggs: Vec<AggColumn> = first.aggs.iter().map(|c| c.fresh(rows)).collect();
    for (morsel, ids) in morsels.into_iter().zip(&ids) {
        for (merged, column) in aggs.iter_mut().zip(morsel.aggs) {
            merged.absorb(|g| ids[g], column)?;
        }
    }
    let aggs = aggs.into_iter().map(|c| c.finish(0..rows));
    let cols = keys.into_iter().map(Ok).chain(aggs).chain(first_row.into_iter().map(Ok));
    finish_outputs(outputs, schema, cols.collect::<Result<_>>()?, rows, out_schema)
}
