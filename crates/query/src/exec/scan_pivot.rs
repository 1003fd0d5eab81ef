//! The scan-pivot operator: `CREATE FAMILY` from series to family
//! matrices, with no row in between.
//!
//! [`LogicalPlan::ScanPivot`] is a long pivot fused with the bare TSDB scan
//! under it (`crate::optimize`, rule `scan_pivot`). The table path would
//! gather every point into a four-column row-per-point [`crate::Table`] in
//! `(timestamp, series rank)` order, only for the pivot to undo the
//! transpose; everything it derives per row is known per *series*, so this
//! operator
//!
//! 1. takes the scan's hits in rank order (`super::scan_hits`, the front all
//!    three scan operators share: one per decoded chunk span, so pruned
//!    chunks are never decoded and overlapping ones decode once),
//! 2. evaluates the family and the feature label once per series —
//!    `super::series_const`: per-series constants substituted into the
//!    expression, as the scan aggregate does for its class keys,
//! 3. orders families, and each family's features, by their earliest
//!    `(first timestamp in range, rank)` — their first appearance in the
//!    row order the table path would have produced, and therefore the
//!    engine's registration order and every matrix's column order,
//! 4. and, one family per morsel, builds the family's timestamp grid (the
//!    shared vector when every series of the family carries the same one —
//!    the scan gather's grid-aligned test — their merged union otherwise:
//!    `super::span_grid`, the scan aggregate's per-class grid too)
//!    and writes each series' spans into its column in rank order on the
//!    pivot's dense core, which also gap-fills.
//!
//! Rank order of the writes is what makes a later series overwrite an
//! earlier one on a shared `(family, feature, timestamp)` cell, exactly as
//! the later *row* does in the table pivot: the two are held equal frame
//! for frame, cell for cell, by `tests/differential.rs`.

use std::borrow::Cow;

use explainit_tsdb::SeriesSlice;

use super::{family_morsels, run_partitioned};
use super::{scan_hits, series_const, span_grid, ExecOptions};
use crate::ast::Expr;
use crate::catalog::Catalog;
use crate::optimize::tsdb_schema;
use crate::pivot::{render_family, FamilyFrame, FrameBuilder, Interner};
use crate::plan::LogicalPlan;
use crate::{QueryError, Result};

/// First appearance in `(timestamp, rank)` row order.
type First = (i64, u32);

/// One family as the series pass leaves it.
struct Family<'a> {
    first: First,
    /// Feature label → column, in rank order of first sight.
    features: Interner<'a>,
    /// Each column's first appearance.
    feature_first: Vec<First>,
    /// `(hit, column)` of every span of the family, in rank order.
    runs: Vec<(usize, usize)>,
}

/// Runs a [`LogicalPlan::ScanPivot`], returning the points read and the
/// frames in family first-appearance order.
pub(super) fn run(
    catalog: &Catalog,
    plan: &LogicalPlan,
    opts: &ExecOptions,
) -> Result<(usize, Vec<FamilyFrame>)> {
    let LogicalPlan::ScanPivot { scan, family, feature } = plan else {
        return Err(QueryError::Plan("a family plan has a pivot root".into()));
    };
    let binding = catalog.tsdb_binding(&scan.table)?;
    let hits = scan_hits(binding.db(), scan)?;

    // Series pass: labels, columns and first appearances. Spans of one
    // series are adjacent and ascending in time.
    let obs = tsdb_schema();
    let label = |e: &Expr, hit: &SeriesSlice| -> Result<String> {
        Ok(render_family(&series_const(e, &obs, hit.key)?))
    };
    let mut names = Interner::default();
    let mut families: Vec<Family> = Vec::new();
    let mut current = None; // (series id, family, column) of the previous span
    let mut points = 0usize;
    for (h, hit) in hits.iter().enumerate() {
        let Some(&first_ts) = hit.timestamps.first() else { continue };
        points += hit.timestamps.len();
        let first = (first_ts, h as u32);
        let (f, column) = match current {
            Some((id, f, column)) if id == hit.id => (f, column),
            _ => {
                let f = names.intern(Cow::Owned(label(family, hit)?)) as usize;
                if f == families.len() {
                    families.push(Family {
                        first,
                        features: Interner::default(),
                        feature_first: Vec::new(),
                        runs: Vec::new(),
                    });
                }
                let fam = &mut families[f];
                let column = fam.features.intern(Cow::Owned(label(feature, hit)?)) as usize;
                if column == fam.feature_first.len() {
                    fam.feature_first.push(first);
                }
                (f, column)
            }
        };
        current = Some((hit.id, f, column));
        let fam = &mut families[f];
        fam.first = fam.first.min(first);
        fam.feature_first[column] = fam.feature_first[column].min(first);
        fam.runs.push((h, column));
    }

    // Families in first-appearance order.
    let mut order: Vec<usize> = (0..families.len()).collect();
    order.sort_by_key(|&f| families[f].first);
    let ranges = family_morsels(opts, points, order.len());
    let frames = run_partitioned(ranges.len(), |m| {
        let (a, b) = ranges[m];
        Ok(order[a..b].iter().map(|&f| frame(&names.names[f], &families[f], &hits)).collect())
    })?;
    Ok((points, frames.into_iter().flat_map(|part: Vec<FamilyFrame>| part).collect()))
}

/// One family's frame: grid, columns in first-appearance order, spans
/// written in rank order, gaps filled.
fn frame(name: &str, family: &Family, hits: &[SeriesSlice]) -> FamilyFrame {
    let grid = span_grid(family.runs.iter().map(|&(h, _)| &*hits[h].timestamps)).into_owned();
    // Column of the series pass → column of the frame.
    let mut by_first: Vec<usize> = (0..family.feature_first.len()).collect();
    by_first.sort_by_key(|&c| family.feature_first[c]);
    let mut position = vec![0; by_first.len()];
    for (to, &from) in by_first.iter().enumerate() {
        position[from] = to;
    }
    let feature_names = by_first.iter().map(|&c| family.features.names[c].clone()).collect();
    let mut builder = FrameBuilder::new(name.to_string(), grid, feature_names);
    for &(h, column) in &family.runs {
        builder.write_run(position[column], &hits[h].timestamps, &hits[h].values);
    }
    builder.finish()
}
