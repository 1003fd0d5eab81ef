//! The `Join` operator: a hash join over rendered keys when `ON` is an
//! equi-join (indexing whichever input is shorter), a nested loop that
//! refines the right side's selection per left row otherwise.

use std::collections::HashMap;

use crate::ast::{Expr, JoinKind};
use crate::column::Column;
use crate::optimize::map_columns;
use crate::plan::equi_join_keys;
use crate::table::{Schema, Table};
use crate::veval::{self, ColView};
use crate::Result;

/// One side's equi-join keys, rendered by the GROUP BY keying code
/// (dictionary entries once each); `None` where a key is NULL, which never
/// matches.
fn join_keys(t: &Table, key_cols: &[usize]) -> Vec<Option<String>> {
    let cols: Vec<&Column> = key_cols.iter().map(|&c| t.column_at(c)).collect();
    let nulls = veval::null_rows(&cols, t.len());
    let keys = veval::group_key_strings(&cols, t.len());
    keys.into_iter().zip(nulls).map(|(k, null)| (!null).then_some(k)).collect()
}

pub(super) fn run_join(left: Table, right: Table, kind: JoinKind, on: &Expr) -> Result<Table> {
    let mut columns = left.schema().columns().to_vec();
    columns.extend(right.schema().columns().iter().cloned());
    let combined = Schema::new(columns);

    // Both algorithms produce the matches of each left row as ascending
    // right rows; the emission below is shared.
    let mut matches_of_left: Vec<Vec<u32>> = vec![Vec::new(); left.len()];
    if let Some((lk, rk)) = equi_join_keys(on, left.schema(), right.schema()) {
        // Hash join over columnar keys. The hash index goes over whichever
        // input is shorter — both are materialised, so this is read, not
        // guessed — and both branches find exactly the same pairs: the
        // side only ever decides who pays the memory.
        let (left_keys, right_keys) = (join_keys(&left, &lk), join_keys(&right, &rk));
        let build_left = left.len() < right.len();
        let mut index: HashMap<&str, Vec<u32>> = HashMap::new();
        let (build, probe) =
            if build_left { (&left_keys, &right_keys) } else { (&right_keys, &left_keys) };
        for (row, key) in build.iter().enumerate() {
            if let Some(key) = key {
                index.entry(key).or_default().push(row as u32);
            }
        }
        // Probed (or indexed) in ascending right row, so each left row's
        // match list stays right-row-ordered either way.
        for (row, key) in probe.iter().enumerate() {
            let Some(hits) = key.as_deref().and_then(|k| index.get(k)) else { continue };
            if build_left {
                hits.iter().for_each(|&li| matches_of_left[li as usize].push(row as u32));
            } else {
                matches_of_left[row].clone_from(hits);
            }
        }
    } else {
        // Nested loop, one left row at a time: its values go into the ON
        // predicate as literals, which then refines the right table's row
        // selection like any WHERE (typed loops for `t.ts < u.ts`).
        let left_width = left.schema().len();
        let views: Vec<ColView> =
            left.columns().iter().chain(right.columns()).map(ColView::from).collect();
        for (li, matches) in matches_of_left.iter_mut().enumerate() {
            let on = map_columns(on.clone(), &|name| match combined.resolve(&name) {
                Ok(i) if i < left_width => Expr::Literal(left.column_at(i).get(li)),
                _ => Expr::Column(name),
            });
            *matches = (0..right.len() as u32).collect();
            veval::refine(&on, &combined, &views, right.len(), matches)?;
        }
    }

    // All matches in `(left row, right row)` order, LEFT/FULL
    // null-extensions in left-row position, FULL OUTER's unmatched right
    // rows appended in right order.
    let mut left_idx: Vec<Option<usize>> = Vec::new();
    let mut right_idx: Vec<Option<usize>> = Vec::new();
    let mut right_matched = vec![false; right.len()];
    for (li, ris) in matches_of_left.iter().enumerate() {
        if ris.is_empty() && kind != JoinKind::Inner {
            left_idx.push(Some(li));
            right_idx.push(None);
        }
        for &ri in ris {
            right_matched[ri as usize] = true;
            left_idx.push(Some(li));
            right_idx.push(Some(ri as usize));
        }
    }
    if kind == JoinKind::FullOuter {
        for (ri, matched) in right_matched.iter().enumerate() {
            if !matched {
                left_idx.push(None);
                right_idx.push(Some(ri));
            }
        }
    }
    let mut out: Vec<Column> = Vec::with_capacity(combined.len());
    out.extend(left.columns().iter().map(|c| c.gather_opt(&left_idx)));
    out.extend(right.columns().iter().map(|c| c.gather_opt(&right_idx)));
    let len = left_idx.len();
    Ok(Table::from_columnar_parts(combined, out, len))
}
