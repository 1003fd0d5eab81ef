//! The `Project` operator: per row morsel, the peeled filter chain and then
//! every output expression on the column evaluator.

use super::ExecOptions;
use super::{effective_partitions, morsel_columns, morsel_ranges, project_names, run_partitioned};
use crate::ast::Expr;
use crate::column::Column;
use crate::table::Table;
use crate::veval;
use crate::Result;

/// The one projection. The source is cut into row morsels by size (serial
/// execution is the one-morsel case); each morsel runs the peeled filter
/// chain and evaluates every output expression over its survivors, and the
/// outputs concatenate in morsel order. A window call reads its neighbours
/// across the whole filtered input, so it forces one morsel.
pub(super) fn run_project(
    src: &Table,
    filters: &[&Expr],
    items: &[(Expr, String)],
    hidden: &[Expr],
    opts: &ExecOptions,
) -> Result<Table> {
    let len = src.len();
    let out_schema = project_names(items, hidden.len());
    let exprs: Vec<&Expr> = items.iter().map(|(e, _)| e).chain(hidden.iter()).collect();
    let windowed = exprs.iter().any(|e| e.contains_window());
    let partitions = if windowed { 1 } else { effective_partitions(opts, len) };
    // No rows, no morsels: nothing is evaluated over an empty input.
    let ranges = morsel_ranges(len, partitions);
    let parts = run_partitioned(ranges.len(), |m| -> Result<(Vec<Column>, usize)> {
        let (a, b) = ranges[m];
        let (cols, mlen) = morsel_columns(src, filters, a, b)?;
        if mlen == 0 {
            return Ok((Vec::new(), 0));
        }
        let mut out = Vec::with_capacity(exprs.len());
        for e in &exprs {
            out.push(veval::eval_projection(e, src.schema(), &cols, mlen)?.into_column(mlen));
        }
        Ok((out, mlen))
    })?;

    // Order-preserving concatenation of morsel outputs.
    let mut parts = parts.into_iter().filter(|(_, l)| *l > 0);
    let Some((mut cols, mut total)) = parts.next() else {
        return Ok(Table::from_columnar_parts(out_schema, vec![Column::empty(); exprs.len()], 0));
    };
    for (pcols, plen) in parts {
        total += plen;
        for (acc, pc) in cols.iter_mut().zip(pcols) {
            acc.append_preserving(pc);
        }
    }
    Ok(Table::from_columnar_parts(out_schema, cols, total))
}
