//! The scan-aggregate operator: `GROUP BY timestamp, <series keys>` folded
//! on the grid the series already share — no row, no hash probe per point.
//!
//! [`LogicalPlan::ScanAggregate`] is an aggregate fused with the TSDB scan
//! under it (`crate::optimize`, rule `scan_aggregate`): every group key is
//! the `timestamp` column or an expression over `metric_name` / `tag`, so a
//! group is a *(class, timestamp)* cell — a class being the series whose key
//! values share one group key — and the result a dense class × time array.
//! What is computed, and how often:
//!
//! * **per series** (the serial series pass over `super::scan_hits`, the
//!   front all three scan operators share — however many chunk spans or
//!   morsels the series is cut into): the class-key values
//!   (`super::series_const`), the class they select, and the residual
//!   filters and aggregate arguments with the series' constants substituted
//!   in;
//! * **per class**: one sorted timestamp grid — `super::span_grid`, the scan
//!   pivot's per-family grid too: the shared vector when every span of the
//!   class carries the same one, their merged union otherwise — or a single
//!   slot when `timestamp` is not a key;
//! * **per morsel** (point-balanced spans, so a hot series is split): for
//!   each class its spans touch one [`Block`] of accumulators addressed
//!   `slot × spec`, into which the worker folds each span's kept points —
//!   slot = the point's own index when the span is as long as the grid,
//!   `seek`'s moving cursor otherwise — noting per slot the first
//!   contributor in `(timestamp, rank)` order;
//! * **per group**: nothing but its accumulators. A slot's first
//!   contributor is at once the group's existence flag, its place in the
//!   output order and the pointer to its first-seen key values.
//!
//! A class's blocks merge slot by slot in morsel order and are finished on
//! the worker pool; the coordinator only orders the groups and gathers
//! typed columns — the timestamp key a [`Column::Int`], each class key a
//! [`Column::Dict`] with an entry per series, aggregates through
//! [`Column::from_values`] — over which the aggregates' shared finishing
//! step evaluates whatever output is not one of them as it is.
//!
//! The rules (`tests/differential.rs` holds the operator to the reference
//! interpreter and the table aggregate row for row at every partition count):
//!
//! * **One path.** Every shape runs this code: any mix of keys, irregular
//!   series, residual filters, split series. The grid comes from the
//!   in-range spans *before* filtering; a slot no kept point reaches has no
//!   first contributor and yields no row.
//! * **Same fold order, same answers.** A morsel folds its spans in rank
//!   order and blocks merge in morsel order, which replays every group's
//!   points in the `(timestamp, rank)` order of the observation table: a
//!   `MIN`/`MAX` tie keeps the first seen, a group shows its earliest
//!   contributor's key values (`1` and `1.0` are one group), and every
//!   accumulator ends in the state the serial fold leaves.
//! * **Errors stay lazy.** A class key that raises for one series' constants
//!   is held with the series and raised, like a raising argument, only when
//!   one of its points survives the filters, lowest morsel first: a series
//!   the filters drop whole never fails the statement (nor do the row
//!   engines, which never evaluate its keys).
//! * **State follows the input.** A block covers the slots its morsel's
//!   spans can reach, not the class's grid: one point per morsel (the CLI
//!   takes any `--partitions`) is one slot per point.

use std::borrow::Cow;
use std::sync::Arc;

use explainit_sync::{LockClass, Mutex};
use explainit_tsdb::SeriesSlice;

use super::{agg_slots, effective_partitions, morsel_ranges, new_acc, point_balanced_spans};
use super::{finish_outputs, project_names, run_partitioned, scan_hits, series_const};
use super::{span_grid, substitute_series_consts, ExecCtx, ExecOptions};
use crate::ast::Expr;
use crate::column::Column;
use crate::functions::AggAcc;
use crate::optimize::{is_tsdb_col, tsdb_schema};
use crate::pivot::{seek, Interner};
use crate::plan::LogicalPlan;
use crate::table::{Schema, Table};
use crate::value::Value;
use crate::veval::{self, ColView, VOut};
use crate::{QueryError, Result};

/// Finish-job input: a worker takes a class's blocks out and lets go at
/// once, so nothing ever nests inside it.
static EXEC_HANDOFF: LockClass = LockClass::new("query.exec.handoff", 85);

/// A group's first contributor in `(timestamp, rank)` row order.
type First = (i64, u32);

/// The slot no kept point has reached.
const NO_FIRST: First = (i64::MAX, u32::MAX);

/// How one aggregate call reads its arguments.
enum Args {
    /// `AGG(value)`: the raw f64 point.
    Val,
    /// `AGG(timestamp)`: the raw i64 timestamp.
    Ts,
    /// Anything else: `len` of the series' substituted expressions, from `at`.
    Exprs { at: usize, len: usize },
}

/// How one aggregate call is fed for one span.
enum Push {
    Val,
    Ts,
    /// Every argument is constant over the span: one argument row.
    Consts(Vec<Value>),
    /// One argument row per kept point.
    Rows(Vec<VOut>),
}

/// What the series pass resolves once per series.
struct SeriesPlan<'p> {
    /// The class, or what evaluating a class key raised.
    class: Result<usize>,
    /// The class-key values: the series' entry in the key dictionaries.
    keys: Vec<Value>,
    /// The residual filters (innermost first), then every [`Args::Exprs`]
    /// argument, with the series' constants substituted in.
    exprs: Vec<Cow<'p, Expr>>,
}

/// One morsel's accumulators for the slots `lo..lo + first.len()` of one
/// class's grid.
struct Block {
    class: usize,
    lo: usize,
    first: Vec<First>,
    /// `slot × spec`.
    accs: Vec<AggAcc>,
}

impl Block {
    fn new(class: usize, lo: usize, end: usize, fresh: &[AggAcc]) -> Block {
        let accs = (lo..end).flat_map(|_| fresh.iter().cloned()).collect();
        Block { class, lo, first: vec![NO_FIRST; end - lo], accs }
    }

    /// Merges a later morsel's block in, slot by slot: equivalent to having
    /// folded its points after this block's.
    fn absorb(&mut self, other: Block, specs: usize) -> Result<()> {
        let mut accs = other.accs.into_iter();
        for (slot, first) in (other.lo..).zip(other.first) {
            let group = accs.by_ref().take(specs);
            if first == NO_FIRST {
                group.for_each(drop);
                continue;
            }
            let at = slot - self.lo;
            let mine = &mut self.accs[at * specs..][..specs];
            if self.first[at] == NO_FIRST {
                mine.iter_mut().zip(group).for_each(|(acc, other)| *acc = other);
            } else {
                mine.iter_mut().zip(group).try_for_each(|(acc, other)| acc.merge(other))?;
            }
            self.first[at] = self.first[at].min(first);
        }
        Ok(())
    }
}

/// What the workers share: the scan's hits and what the series pass made of
/// them.
struct Fold<'a, 'p> {
    hits: &'a [SeriesSlice<'a>],
    /// Each hit's entry in `series` (spans of one series share it).
    series_of: Vec<usize>,
    series: Vec<SeriesPlan<'p>>,
    /// One grid per class; `None` when `timestamp` is not a key.
    grids: Option<Vec<Cow<'a, [i64]>>>,
    /// Residual filters at the head of every series' expressions.
    filters: usize,
    args: Vec<Args>,
    /// Some argument expression reads `timestamp` or `value`.
    point_args: bool,
    /// A fresh accumulator per spec.
    fresh: Vec<AggAcc>,
    /// `(timestamp, value)`: what filters and arguments are evaluated over.
    points: Schema,
}

impl Fold<'_, '_> {
    /// The grid slot of a hit's point.
    fn slot(&self, class: usize, hit: &SeriesSlice, point: usize) -> usize {
        match self.grids.as_ref().map(|grids| &grids[class]) {
            None => 0,
            // An ascending subset of the grid as long as the grid is the grid.
            Some(grid) if hit.timestamps.len() == grid.len() => point,
            Some(grid) => grid.partition_point(|&g| g < hit.timestamps[point]),
        }
    }

    /// Folds one morsel's spans, in rank order, into a block per class.
    fn morsel(&self, spans: &[(usize, usize, usize)]) -> Result<Vec<Block>> {
        // What the spans can reach, filters aside. A series whose class key
        // raised has no class; it fails below if a point of it is kept.
        let mut reach: Vec<(usize, usize, usize)> = Vec::with_capacity(spans.len());
        for &(h, lo, hi) in spans {
            if let Ok(class) = self.series[self.series_of[h]].class {
                let hit = &self.hits[h];
                reach.push((class, self.slot(class, hit, lo), self.slot(class, hit, hi - 1) + 1));
            }
        }
        reach.sort_unstable();
        let mut blocks: Vec<Block> = (reach.chunk_by(|a, b| a.0 == b.0))
            .map(|of_class| {
                let end = of_class.iter().map(|r| r.2).max().unwrap_or(0);
                Block::new(of_class[0].0, of_class[0].1, end, &self.fresh)
            })
            .collect();

        let specs = self.fresh.len();
        let mut row: Vec<Value> = Vec::new();
        for &(h, lo, hi) in spans {
            let hit = &self.hits[h];
            let (ts, vals) = (&hit.timestamps[lo..hi], &hit.values[lo..hi]);
            let plan = &self.series[self.series_of[h]];
            // The residual filters: one selection refined in place straight
            // off the point slices.
            let views = [ColView::Int(ts), ColView::Float(vals)];
            let mut kept: Vec<u32> = (0..ts.len() as u32).collect();
            for pred in &plan.exprs[..self.filters] {
                veval::refine(pred, &self.points, &views, ts.len(), &mut kept)?;
            }
            if kept.is_empty() {
                continue;
            }
            let class = plan.class.clone()?;

            // The span's aggregate arguments, over its kept points.
            let cols: Vec<Column> = match self.point_args {
                true => views.iter().map(|c| c.gather(&kept)).collect(),
                false => Vec::new(),
            };
            let pushes: Vec<Push> = (self.args.iter())
                .map(|args| match *args {
                    Args::Val => Ok(Push::Val),
                    Args::Ts => Ok(Push::Ts),
                    Args::Exprs { at, len } => {
                        let outs: Vec<VOut> = (plan.exprs[at..at + len].iter())
                            .map(|e| veval::eval(e, &self.points, &cols, kept.len()))
                            .collect::<Result<_>>()?;
                        Ok(match outs.iter().all(|o| matches!(o, VOut::Const(_))) {
                            true => Push::Consts(outs.iter().map(|o| o.get(0)).collect()),
                            false => Push::Rows(outs),
                        })
                    }
                })
                .collect::<Result<_>>()?;
            // Feeds a spec the `j`-th kept point: `(t, v)`, or its argument row.
            let mut push = |acc: &mut AggAcc, push: &Push, t: i64, v: f64, j: usize| match push {
                Push::Val => {
                    acc.push_f64(v);
                    Ok(())
                }
                Push::Ts => {
                    acc.push_i64(t);
                    Ok(())
                }
                Push::Consts(consts) => acc.push(consts),
                Push::Rows(outs) => {
                    row.clear();
                    row.extend(outs.iter().map(|o| o.get(j)));
                    acc.push(&row)
                }
            };

            let at = blocks.binary_search_by_key(&class, |b| b.class);
            let block = &mut blocks[at.expect("planned above")]; // invariant: every span of a classed series went into `reach`
            let rank = h as u32;
            let Some(grid) = self.grids.as_ref().map(|grids| &grids[class]) else {
                // One slot takes the whole span: the raw columns fold as
                // slices (accumulators are independent, so spec-major is
                // observation-identical to point-major).
                block.first[0] = block.first[0].min((ts[kept[0] as usize], rank));
                let sel = || kept.iter().map(|&i| i as usize);
                for (acc, spec) in block.accs.iter_mut().zip(&pushes) {
                    match spec {
                        Push::Val => acc.fold_f64s(vals, sel(), None),
                        Push::Ts => acc.fold_i64s(ts, sel(), None),
                        _ => (0..kept.len()).try_for_each(|j| push(acc, spec, 0, 0.0, j))?,
                    }
                }
                continue;
            };
            let aligned = hit.timestamps.len() == grid.len();
            let mut cursor = block.lo;
            for (j, &i) in kept.iter().enumerate() {
                let (i, t) = (i as usize, ts[i as usize]);
                if !aligned {
                    cursor = seek(grid, cursor, t);
                }
                let at = (if aligned { lo + i } else { cursor }) - block.lo;
                block.first[at] = block.first[at].min((t, rank));
                let accs = block.accs[at * specs..][..specs].iter_mut();
                accs.zip(&pushes).try_for_each(|(acc, spec)| push(acc, spec, t, vals[i], j))?;
            }
        }
        Ok(blocks)
    }

    /// Merges one class's blocks in morsel order and finishes its groups:
    /// each group's first contributor, and their values `group × spec`.
    fn finish(&self, mut blocks: Vec<Block>) -> Result<(Vec<First>, Vec<Value>)> {
        let specs = self.fresh.len();
        let lo = blocks.iter().map(|b| b.lo).min().unwrap_or(0);
        let end = blocks.iter().map(|b| b.lo + b.first.len()).max().unwrap_or(0);
        let mut merged = match blocks.first() {
            Some(b) if b.lo == lo && b.first.len() == end - lo => blocks.remove(0),
            Some(b) => Block::new(b.class, lo, end, &self.fresh),
            None => return Ok((Vec::new(), Vec::new())),
        };
        blocks.into_iter().try_for_each(|b| merged.absorb(b, specs))?;
        let (mut groups, mut values) = (Vec::new(), Vec::new());
        let mut accs = merged.accs.into_iter();
        for first in merged.first {
            let group = accs.by_ref().take(specs);
            if first == NO_FIRST {
                group.for_each(drop);
                continue;
            }
            groups.push(first);
            for acc in group {
                values.push(acc.finish()?);
            }
        }
        Ok((groups, values))
    }
}

/// Runs a [`LogicalPlan::ScanAggregate`].
pub(super) fn run(ctx: &ExecCtx, plan: &LogicalPlan, opts: &ExecOptions) -> Result<Table> {
    let LogicalPlan::ScanAggregate { scan, filters, group_by, items, hidden } = plan else {
        return Err(QueryError::Plan("not a scan aggregate".into()));
    };
    let binding = ctx.binding(&scan.table)?;
    let obs = tsdb_schema();
    let is_column = |e: &Expr, i: usize| is_tsdb_col(e, &obs, i);
    let reads = |e: &Expr, among: [usize; 2]| {
        e.columns().iter().any(|c| obs.resolve(c).is_ok_and(|i| among.contains(&i)))
    };

    // Group keys: the timestamp (at most once, by eligibility) and the
    // per-series class keys. Outputs: expressions over the key columns and
    // the finished aggregate calls.
    let class_keys: Vec<&Expr> = group_by.iter().filter(|g| !is_column(g, 0)).collect();
    let has_ts = class_keys.len() < group_by.len();
    let (outputs, calls, columns) = agg_slots(group_by, items, hidden)?;
    let fresh: Vec<AggAcc> = calls.iter().map(|(name, _)| new_acc(name)).collect::<Result<_>>()?;
    // What every series substitutes its constants into: the residual
    // filters, innermost first (the order the serial pipeline applies them
    // in), then the arguments that are not a bare point column.
    let mut templates: Vec<&Expr> = filters.iter().rev().collect();
    let args: Vec<Args> = (calls.iter())
        .map(|(_, args)| match args {
            [a] if is_column(a, 3) => Args::Val,
            [a] if is_column(a, 0) => Args::Ts,
            _ => {
                templates.extend(args.iter());
                Args::Exprs { at: templates.len() - args.len(), len: args.len() }
            }
        })
        .collect();
    let point_args = templates[filters.len()..].iter().any(|e| reads(e, [0, 3]));
    let templates: Vec<(&Expr, bool)> =
        templates.into_iter().map(|e| (e, reads(e, [1, 2]))).collect();

    // An inverted range, like a filter nothing matches, leaves no spans and
    // no groups.
    let hits = scan_hits(binding.db(), scan);

    // Series pass. Spans of one series are adjacent.
    let mut classes = Interner::default();
    let mut hits_of: Vec<Vec<usize>> = Vec::new(); // per class, in rank order
    let mut series: Vec<SeriesPlan> = Vec::new();
    let mut series_of = Vec::with_capacity(hits.len());
    let mut previous = None;
    for (h, hit) in hits.iter().enumerate() {
        if previous != Some(hit.id) {
            previous = Some(hit.id);
            let keys: Result<Vec<Value>> =
                class_keys.iter().map(|k| series_const(k, &obs, hit.key)).collect();
            let class = keys.as_ref().map_err(QueryError::clone).map(|keys| {
                let fragment = keys.iter().flat_map(|v| [v.group_key(), "\u{1}".into()]);
                classes.intern(Cow::Owned(fragment.collect())) as usize
            });
            let exprs = (templates.iter())
                .map(|&(e, per_series)| match per_series {
                    true => Cow::Owned(substitute_series_consts(e, &obs, hit.key)),
                    false => Cow::Borrowed(e),
                })
                .collect();
            series.push(SeriesPlan { class, keys: keys.unwrap_or_default(), exprs });
        }
        series_of.push(series.len() - 1);
        if let (Ok(class), false) = (&series[series.len() - 1].class, hit.timestamps.is_empty()) {
            hits_of.resize_with(classes.names.len(), Vec::new);
            hits_of[*class].push(h);
        }
    }
    let grids = has_ts.then(|| {
        let grid = |of_class: &Vec<usize>| span_grid(of_class.iter().map(|&h| hits[h].timestamps));
        hits_of.iter().map(grid).collect()
    });
    let points = Schema::new(vec!["timestamp".to_string(), "value".to_string()]);
    let filters = filters.len();
    let fold =
        Fold { hits: &hits, series_of, series, grids, filters, args, point_args, fresh, points };

    // Morsels cut the rank-ordered *point* sequence — not the series list —
    // into contiguous equal-point spans, splitting a series across workers
    // when it dominates the store. Auto mode keeps at least
    // MIN_PARTITION_ROWS points per morsel.
    let counts: Vec<usize> = hits.iter().map(|p| p.timestamps.len()).collect();
    let morsels = point_balanced_spans(&counts, effective_partitions(opts, counts.iter().sum()));
    let folded = run_partitioned(morsels.len(), |m| fold.morsel(&morsels[m]))?;

    // Each class's blocks, in morsel order, are merged and finished on the
    // pool: as many jobs as the fold had, each a contiguous class range, so a
    // job mostly frees what one fold worker allocated (freeing one worker's
    // blocks from two threads at once was measured 3× slower).
    let inputs: Vec<Mutex<Vec<Block>>> =
        hits_of.iter().map(|_| Mutex::new(&EXEC_HANDOFF, Vec::new())).collect();
    for block in folded.into_iter().flatten() {
        inputs[block.class].lock().push(block);
    }
    let jobs = morsel_ranges(inputs.len(), morsels.len());
    let finished = run_partitioned(jobs.len(), |job| -> Result<Vec<_>> {
        let of_job = inputs[jobs[job].0..jobs[job].1].iter();
        let blocks = of_job.map(|input| std::mem::take(&mut *input.lock()));
        blocks.map(|blocks| fold.finish(blocks)).collect()
    })?;
    let finished: Vec<(Vec<First>, Vec<Value>)> = finished.into_iter().flatten().collect();

    // Serial first-seen group order: each group's earliest `(timestamp,
    // rank)`. A class's groups arrive in it already, so the stable sort
    // merges runs.
    let mut order: Vec<(First, usize, usize)> = (finished.iter().enumerate())
        .flat_map(|(class, (groups, _))| {
            groups.iter().enumerate().map(move |(g, &f)| (f, class, g))
        })
        .collect();
    order.sort();
    // The finished columns: every group key typed, then every call.
    let specs = fold.fresh.len();
    let keys = group_by.iter().enumerate().map(|(k, g)| {
        if is_column(g, 0) {
            return Column::Int(order.iter().map(|&((ts, _), ..)| ts).collect());
        }
        // Each group shows its first contributor's key values.
        let key = group_by[..k].iter().filter(|g| !is_column(g, 0)).count();
        let entries = fold.series.iter().map(|s| s.keys.get(key).cloned().unwrap_or(Value::Null));
        let codes = order.iter().map(|&((_, rank), ..)| fold.series_of[rank as usize] as u32);
        Column::dict(Arc::new(entries.collect()), codes.collect())
    });
    let aggs = (0..specs).map(|spec| {
        let values = order.iter().map(|&(_, class, g)| finished[class].1[g * specs + spec].clone());
        Column::from_values(values.collect())
    });
    let names = project_names(items, hidden.len());
    finish_outputs(&outputs, &Schema::new(columns), keys.chain(aggs).collect(), order.len(), names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use explainit_tsdb::{MetricFilter, SeriesKey, Tsdb};

    /// Two series of one class, `a` on the whole six-slot union grid and `b`
    /// on its odd slots, under `SUM(value)`.
    fn with_fold<T>(test: impl FnOnce(&Fold) -> T) -> T {
        let mut db = Tsdb::new();
        for t in 0..6 {
            db.insert(&SeriesKey::new("m").with_tag("host", "a"), t * 10, 1.0);
        }
        for t in [1, 3, 5] {
            db.insert(&SeriesKey::new("m").with_tag("host", "b"), t * 10, 100.0);
        }
        let hits = db.scan_parts_ordered_between(&MetricFilter::all(), i64::MIN, i64::MAX);
        let plan = || SeriesPlan { class: Ok(0), keys: Vec::new(), exprs: Vec::new() };
        test(&Fold {
            hits: &hits,
            series_of: vec![0, 1],
            series: vec![plan(), plan()],
            grids: Some(vec![Cow::Owned((0..6).map(|t| t * 10).collect())]),
            filters: 0,
            args: vec![Args::Val],
            point_args: false,
            fresh: vec![new_acc("SUM").unwrap()],
            points: Schema::new(vec!["timestamp".to_string(), "value".to_string()]),
        })
    }

    #[test]
    fn a_block_covers_what_its_morsel_reaches_not_the_grid() {
        with_fold(|fold| {
            let extent = |spans: &[(usize, usize, usize)]| {
                let blocks = fold.morsel(spans).unwrap();
                assert_eq!(blocks.len(), 1, "one class");
                (blocks[0].lo, blocks[0].first.len(), blocks[0].accs.len())
            };
            // One point is one slot, whichever way its slot is found.
            assert_eq!(extent(&[(0, 4, 5)]), (4, 1, 1), "identity slot");
            assert_eq!(extent(&[(1, 2, 3)]), (5, 1, 1), "sought slot");
            // A span reaches from its first point's slot to its last's.
            assert_eq!(extent(&[(0, 1, 3), (1, 0, 2)]), (1, 3, 3));
            assert_eq!(extent(&[(0, 0, 6), (1, 0, 3)]), (0, 6, 6), "the whole grid");
        });
    }

    #[test]
    fn blocks_merge_by_slot_in_morsel_order_whatever_their_extents() {
        with_fold(|fold| {
            let whole = fold.morsel(&[(0, 0, 6), (1, 0, 3)]).unwrap();
            let (firsts, sums) = fold.finish(whole).unwrap();
            assert_eq!(firsts, [(0, 0), (10, 0), (20, 0), (30, 0), (40, 0), (50, 0)]);
            let expect: Vec<Value> =
                [1.0, 101.0, 1.0, 101.0, 1.0, 101.0].map(Value::Float).to_vec();
            assert_eq!(sums, expect);
            // Most of the same points, in five morsels: no block spans the
            // grid, and slots 0 and 2 are never reached.
            let spans = [(0, 1, 2), (0, 3, 6), (1, 0, 1), (1, 1, 2), (1, 2, 3)];
            let blocks: Vec<Block> =
                spans.iter().flat_map(|&span| fold.morsel(&[span]).unwrap()).collect();
            assert_eq!(blocks.iter().map(|b| b.first.len()).sum::<usize>(), 7);
            let (firsts, sums) = fold.finish(blocks).unwrap();
            assert_eq!(firsts, [(10, 0), (30, 0), (40, 0), (50, 0)]);
            assert_eq!(sums, [101.0, 101.0, 1.0, 101.0].map(Value::Float).to_vec());
        });
    }
}
