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
//!   each class its spans touch one [`Block`]: a first-contributor column
//!   and one accumulator column per aggregate call, over the slots the
//!   spans reach. The worker finds each kept point's slot — the one slot
//!   when `timestamp` is not a key, the point's own index when the span is
//!   as long as the grid, `seek`'s moving cursor otherwise — notes the
//!   slot's first contributor in `(timestamp, rank)` order and folds the
//!   span into each column in turn — an [`AggColumn`], the table
//!   aggregate's accumulator column too. The plan's argument shape decides
//!   how it holds its slots: `AGG(value)` for `COUNT` / `SUM` / `AVG` /
//!   `VARIANCE` / `STDDEV` / `MIN` / `MAX` dense (counts, inline exact-sum
//!   expansions, running bests: a handful of `Vec`s per block), anything
//!   else boxed, an `AggAcc` per touched slot;
//! * **per group**: one entry in each of its block's columns. A slot's
//!   first contributor is at once the group's existence flag, its place in
//!   the output order and the pointer to its first-seen key values; an
//!   `AggColumn` slot that cannot stay dense (an expansion outgrowing the
//!   inline partials, a NaN reaching `MIN` / `MAX`) carries on as the
//!   `AggAcc` it stands for.
//!
//! A class's blocks merge slot by slot in morsel order and are finished on
//! the worker pool, each call into the typed column [`Column::from_values`]
//! would build from its values. That much — the series pass, the fold and
//! the per-class finish — is the front both outputs share:
//!
//! * **rows** ([`LogicalPlan::ScanAggregate`]): the coordinator orders the
//!   groups and gathers typed columns — the timestamp key a
//!   [`Column::Int`], each class key a [`Column::Dict`] with an entry per
//!   series, each aggregate its classes' columns in group order — over
//!   which the aggregates' shared finishing step evaluates whatever output
//!   is not one of them as it is;
//! * **frames** ([`LogicalPlan::ScanAggregatePivot`], a wide pivot fused on
//!   top by rule `scan_aggregate_pivot`): no group order, gather or row
//!   table. Each group joins the family its first contributor's class key
//!   renders to, and each family's frame — one per class unless two
//!   classes render alike or one class renders two ways — takes its grid
//!   from its groups' timestamps and its columns from the classes'
//!   finished aggregate columns, through the pivot's dense core
//!   (`crate::pivot`), one family per morsel.
//!
//! The rules (`tests/differential.rs` holds the operator to the reference
//! interpreter and the table aggregate row for row at every partition
//! count, and its frames to the table pivot of those rows cell for cell):
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
//!   accumulator slot, dense or boxed, ends in the state the serial fold
//!   leaves.
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

use super::point_balanced_spans;
use super::{agg_slots, effective_partitions, family_morsels, morsel_ranges, AggSpec};
use super::{finish_outputs, project_names, run_partitioned, scan_hits, series_const};
use super::{span_grid, substitute_series_consts, ExecCtx, ExecOptions};
use crate::ast::Expr;
use crate::column::Column;
use crate::functions::AggColumn;
use crate::optimize::{is_tsdb_col, tsdb_schema};
use crate::pivot::{into_grid, numbers, render_family, seek};
use crate::pivot::{FamilyFrame, FrameBuilder, Interner, PivotSpec};
use crate::plan::{LogicalPlan, ScanSpec};
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

/// How one aggregate call reads its arguments — and so whether its
/// accumulator column is dense.
enum Args {
    /// `AGG(value)`: the raw f64 point, into dense slots where the aggregate
    /// has a column form.
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
/// class's grid: a column per aggregate call.
struct Block {
    class: usize,
    lo: usize,
    first: Vec<First>,
    specs: Vec<AggColumn>,
}

impl Block {
    fn new(class: usize, lo: usize, end: usize, fold: &Fold) -> Block {
        let len = end - lo;
        let specs = fold.accs.iter().map(|column| column.fresh(len)).collect();
        Block { class, lo, first: vec![NO_FIRST; len], specs }
    }

    /// Merges a later morsel's block in, slot by slot: equivalent to having
    /// folded its points after this block's.
    fn absorb(&mut self, other: Block) -> Result<()> {
        let at = other.lo - self.lo;
        for (mine, theirs) in self.specs.iter_mut().zip(other.specs) {
            mine.absorb(|o| at + o, theirs)?;
        }
        let firsts = &mut self.first[at..][..other.first.len()];
        firsts.iter_mut().zip(other.first).for_each(|(mine, theirs)| *mine = (*mine).min(theirs));
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
    /// Each call's accumulator column over no slots: a block's are fresh
    /// copies.
    accs: Vec<AggColumn>,
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
                Block::new(of_class[0].0, of_class[0].1, end, self)
            })
            .collect();

        let mut row: Vec<Value> = Vec::new();
        let mut slots: Vec<usize> = Vec::new();
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

            let at = blocks.binary_search_by_key(&class, |b| b.class);
            let block = &mut blocks[at.expect("planned above")]; // invariant: every span of a classed series went into `reach`

            // Each kept point's slot in the block: the one slot when
            // `timestamp` is not a key, the point's own index when the span
            // is as long as the grid, `seek`'s moving cursor otherwise.
            slots.clear();
            match self.grids.as_ref().map(|grids| &grids[class]) {
                None => slots.resize(kept.len(), 0),
                Some(grid) if hit.timestamps.len() == grid.len() => {
                    slots.extend(kept.iter().map(|&i| lo + i as usize - block.lo));
                }
                Some(grid) => {
                    let mut cursor = block.lo;
                    slots.extend(kept.iter().map(|&i| {
                        cursor = seek(grid, cursor, ts[i as usize]);
                        cursor - block.lo
                    }));
                }
            }
            let rank = h as u32;
            for (&s, &i) in slots.iter().zip(&kept) {
                block.first[s] = block.first[s].min((ts[i as usize], rank));
            }
            // Spec by spec: accumulators are independent, so this is
            // observation-identical to feeding each point to every spec.
            for (column, push) in block.specs.iter_mut().zip(&pushes) {
                let mut points = slots.iter().zip(&kept).map(|(&s, &i)| (s, i as usize));
                match push {
                    Push::Val => column.fold(points.map(|(s, i)| (s, vals[i]))),
                    Push::Ts => points.for_each(|(s, i)| column.push_i64(s, ts[i])),
                    Push::Consts(consts) => points.try_for_each(|(s, _)| column.push(s, consts))?,
                    Push::Rows(outs) => {
                        for (j, (s, _)) in points.enumerate() {
                            row.clear();
                            row.extend(outs.iter().map(|o| o.get(j)));
                            column.push(s, &row)?;
                        }
                    }
                }
            }
        }
        Ok(blocks)
    }

    /// Merges one class's blocks in morsel order and finishes its groups:
    /// each group's first contributor, and per spec the groups' values as
    /// the column [`Column::from_values`] builds from them.
    fn finish(&self, mut blocks: Vec<Block>) -> Result<(Vec<First>, Vec<Column>)> {
        let lo = blocks.iter().map(|b| b.lo).min().unwrap_or(0);
        let end = blocks.iter().map(|b| b.lo + b.first.len()).max().unwrap_or(0);
        let mut merged = match blocks.first() {
            Some(b) if b.lo == lo && b.first.len() == end - lo => blocks.remove(0),
            Some(b) => Block::new(b.class, lo, end, self),
            None => Block::new(0, 0, 0, self),
        };
        blocks.into_iter().try_for_each(|b| merged.absorb(b))?;
        let groups: Vec<usize> =
            (0..merged.first.len()).filter(|&s| merged.first[s] != NO_FIRST).collect();
        let columns = (merged.specs.into_iter())
            .map(|column| column.finish(groups.iter().copied()))
            .collect::<Result<_>>()?;
        Ok((groups.iter().map(|&s| merged.first[s]).collect(), columns))
    }
}

/// One spec's output column: each group's finished value, groups in output
/// order (`(first, class, group)`), from the classes' finished columns — the
/// column [`Column::from_values`] builds from those values.
fn gather(classes: &[&Column], order: &[(First, usize, usize)]) -> Column {
    /// The values in order when every class's column is the typed one
    /// `typed` reads (an empty column reads as any).
    fn all<'c, T: Copy + 'c>(
        classes: &[&'c Column],
        order: &[(First, usize, usize)],
        typed: impl Fn(&'c Column) -> Option<&'c [T]>,
    ) -> Option<Vec<T>> {
        let of_class: Vec<&[T]> = (classes.iter())
            .map(|&c| if c.is_empty() { Some(&[][..]) } else { typed(c) })
            .collect::<Option<_>>()?;
        Some(order.iter().map(|&(_, class, g)| of_class[class][g]).collect())
    }
    if order.is_empty() {
        return Column::empty();
    }
    if let Some(floats) = all(classes, order, |c| match c {
        Column::Float(v) => Some(&v[..]),
        _ => None,
    }) {
        return Column::Float(floats);
    }
    if let Some(ints) = all(classes, order, |c| match c {
        Column::Int(v) => Some(&v[..]),
        _ => None,
    }) {
        return Column::Int(ints);
    }
    Column::from_values(order.iter().map(|&(_, class, g)| classes[class].get(g)).collect())
}

/// What the series pass, the fold and the per-class finish leave: the
/// front both outputs of the operator share.
struct Groups {
    /// Each series' class-key values (none for a series whose key raised:
    /// no point of it was kept).
    keys: Vec<Vec<Value>>,
    /// Each hit's series.
    series_of: Vec<usize>,
    /// Per class: its groups' first contributors, in slot order, and per
    /// call the groups' finished column.
    classes: Vec<(Vec<First>, Vec<Column>)>,
}

/// The front: folds the scan's points into the groups of `calls`.
fn front(
    ctx: &ExecCtx,
    scan: &ScanSpec,
    filters: &[Expr],
    group_by: &[Expr],
    calls: &[AggSpec],
    opts: &ExecOptions,
) -> Result<Groups> {
    let binding = ctx.binding(&scan.table)?;
    let obs = tsdb_schema();
    let is_column = |e: &Expr, i: usize| is_tsdb_col(e, &obs, i);
    let reads = |e: &Expr, among: [usize; 2]| {
        e.columns().iter().any(|c| obs.resolve(c).is_ok_and(|i| among.contains(&i)))
    };

    // Group keys: the timestamp (at most once, by eligibility) and the
    // per-series class keys.
    let class_keys: Vec<&Expr> = group_by.iter().filter(|g| !is_column(g, 0)).collect();
    let has_ts = class_keys.len() < group_by.len();
    // What every series substitutes its constants into: the residual
    // filters, innermost first (the order the serial pipeline applies them
    // in), then the arguments that are not a bare point column.
    let mut templates: Vec<&Expr> = filters.iter().rev().collect();
    let args: Vec<Args> = (calls.iter())
        .map(|&(_, args)| match args {
            [a] if is_column(a, 3) => Args::Val,
            [a] if is_column(a, 0) => Args::Ts,
            _ => {
                templates.extend(args.iter());
                Args::Exprs { at: templates.len() - args.len(), len: args.len() }
            }
        })
        .collect();
    let accs: Vec<AggColumn> = (calls.iter().zip(&args))
        .map(|(&(name, _), args)| AggColumn::new(name, 0, matches!(args, Args::Val)))
        .collect::<Result<_>>()?;
    let point_args = templates[filters.len()..].iter().any(|e| reads(e, [0, 3]));
    let templates: Vec<(&Expr, bool)> =
        templates.into_iter().map(|e| (e, reads(e, [1, 2]))).collect();

    // An inverted range, like a filter nothing matches, leaves no spans and
    // no groups.
    let hits = scan_hits(binding.db(), scan)?;

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
        Fold { hits: &hits, series_of, series, grids, filters, args, point_args, accs, points };

    // Morsels cut the rank-ordered *point* sequence — not the series list —
    // into contiguous equal-point spans, splitting a series across workers
    // when it dominates the store. Auto mode keeps at least
    // MIN_PARTITION_ROWS points per morsel.
    let counts: Vec<usize> = hits.iter().map(|p| p.timestamps.len()).collect();
    let morsels = point_balanced_spans(&counts, effective_partitions(opts, counts.iter().sum()));
    let folded = run_partitioned(morsels.len(), |m| fold.morsel(&morsels[m]))?;

    // Each class's blocks, in morsel order, are merged and finished on the
    // pool: as many jobs as the fold had, each a contiguous class range, so a
    // job mostly frees what one fold worker allocated. (On the benchmark's
    // family statement, two cores, this takes 6.5 ms; on the coordinator
    // alone, 12 ms.)
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
    let Fold { series, series_of, .. } = fold;
    Ok(Groups {
        keys: series.into_iter().map(|s| s.keys).collect(),
        series_of,
        classes: finished.into_iter().flatten().collect(),
    })
}

/// Runs a [`LogicalPlan::ScanAggregate`]: the groups as rows.
pub(super) fn run(ctx: &ExecCtx, plan: &LogicalPlan, opts: &ExecOptions) -> Result<Table> {
    let LogicalPlan::ScanAggregate { scan, filters, group_by, items, hidden } = plan else {
        return Err(QueryError::Plan("not a scan aggregate".into()));
    };
    // Outputs: expressions over the key columns and the finished aggregate
    // calls.
    let (outputs, calls, columns) = agg_slots(group_by, items, hidden)?;
    let Groups { keys, series_of, classes } = front(ctx, scan, filters, group_by, &calls, opts)?;

    // Serial first-seen group order: each group's earliest `(timestamp,
    // rank)`. A class's groups arrive in it already, so the stable sort
    // merges runs.
    let mut order: Vec<(First, usize, usize)> = (classes.iter().enumerate())
        .flat_map(|(class, (groups, _))| {
            groups.iter().enumerate().map(move |(g, &f)| (f, class, g))
        })
        .collect();
    order.sort();
    // The finished columns: every group key typed, then every call.
    let obs = tsdb_schema();
    let is_ts = |g: &Expr| is_tsdb_col(g, &obs, 0);
    let key_columns = group_by.iter().enumerate().map(|(k, g)| {
        if is_ts(g) {
            return Column::Int(order.iter().map(|&((ts, _), ..)| ts).collect());
        }
        // Each group shows its first contributor's key values.
        let key = group_by[..k].iter().filter(|g| !is_ts(g)).count();
        let entries = keys.iter().map(|s| s.get(key).cloned().unwrap_or(Value::Null));
        let codes = order.iter().map(|&((_, rank), ..)| series_of[rank as usize] as u32);
        Column::dict(Arc::new(entries.collect()), codes.collect())
    });
    let aggs = (0..calls.len()).map(|call| {
        let columns: Vec<&Column> = classes.iter().map(|(_, columns)| &columns[call]).collect();
        gather(&columns, &order)
    });
    let names = project_names(items, hidden.len());
    let cols = key_columns.chain(aggs).collect();
    finish_outputs(&outputs, &Schema::new(columns), cols, order.len(), names)
}

/// Runs a [`LogicalPlan::ScanAggregatePivot`], `aggregate` under the wide
/// pivot `spec`: the groups' count and their family frames, in
/// first-appearance order — class by class, with no row order, no row
/// table and no table pivot in between.
pub(super) fn frames(
    ctx: &ExecCtx,
    aggregate: &LogicalPlan,
    spec: &PivotSpec,
    opts: &ExecOptions,
) -> Result<(usize, Vec<FamilyFrame>)> {
    let LogicalPlan::ScanAggregate { scan, filters, group_by, items, hidden } = aggregate else {
        return Err(QueryError::Plan("not a scan aggregate".into()));
    };
    let (_, calls, _) = agg_slots(group_by, items, hidden)?;
    let roles = spec.roles(&Schema::new(items.iter().map(|(_, n)| n.clone()).collect()))?;
    // Every output but the ts and family roles is a bare call (rule 8): a
    // feature, named by its output, read from that call's column.
    let mut feature_names = Vec::new();
    let mut features = Vec::new();
    for (i, (e, name)) in items.iter().enumerate() {
        if i == roles.ts || Some(i) == roles.family {
            continue;
        }
        let call = calls.iter().position(
            |&(n, args)| matches!(e, Expr::Function { name, args: a } if name == n && a == args),
        );
        features.push(call.ok_or_else(|| QueryError::Plan(format!("{name} is not a call")))?);
        feature_names.push(name.clone());
    }
    let Groups { keys, series_of, classes } = front(ctx, scan, filters, group_by, &calls, opts)?;

    // Each group's family is its first contributor's rendered class key,
    // as for the table pivot's label column (or the statement's one family
    // without a family role); families order by their earliest group.
    let mut names = Interner::default();
    let mut family_of = vec![u32::MAX; keys.len()]; // per series, on first sight
    if roles.family.is_none() {
        names.intern(Cow::Borrowed(&spec.name));
        family_of.fill(0);
    }
    let mut members: Vec<Vec<(First, u32, u32)>> = Vec::new();
    for (class, (firsts, _)) in classes.iter().enumerate() {
        for (g, &first) in firsts.iter().enumerate() {
            let s = series_of[first.1 as usize];
            if family_of[s] == u32::MAX {
                let key = keys[s].first().unwrap_or(&Value::Null);
                family_of[s] = names.intern(render_family(key).into());
            }
            let f = family_of[s] as usize;
            members.resize_with(members.len().max(f + 1), Vec::new);
            members[f].push((first, class as u32, g as u32));
        }
    }
    // In `(first, class, group)` order, the table pivot's row order: a
    // family of one class is in it already.
    members.iter_mut().for_each(|m| m.sort_unstable());
    let mut order: Vec<usize> = (0..members.len()).collect();
    order.sort_by_key(|&f| members[f].first().map(|m| m.0));

    // Each class's columns as the pivot reads them. A family's grid is its
    // groups' timestamps; its cells are written in row order.
    let cells: Vec<Vec<Cow<[f64]>>> =
        classes.iter().map(|(_, columns)| columns.iter().map(numbers).collect()).collect();
    let frame = |f: usize| {
        let grid = into_grid(members[f].iter().map(|&((ts, _), ..)| ts).collect());
        let mut frame = FrameBuilder::new(names.names[f].clone(), grid, feature_names.clone());
        for &((ts, _), class, g) in &members[f] {
            let slot = frame.slot(ts);
            for (column, &call) in features.iter().enumerate() {
                frame.set(column, slot, cells[class as usize][call][g as usize]);
            }
        }
        frame.finish()
    };
    let rows = classes.iter().map(|(firsts, _)| firsts.len()).sum();
    let ranges = family_morsels(opts, rows, order.len());
    let frames = run_partitioned(ranges.len(), |m| {
        Ok(order[ranges[m].0..ranges[m].1].iter().map(|&f| frame(f)).collect::<Vec<_>>())
    })?;
    Ok((rows, frames.into_iter().flatten().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use explainit_tsdb::{MetricFilter, SeriesKey, Tsdb};

    /// Two series of one class, `a` on the whole six-slot union grid and `b`
    /// on its odd slots, under `SUM(value)` (a dense column) and
    /// `SUM(timestamp)` (a boxed one).
    fn with_fold<T>(test: impl FnOnce(&Fold) -> T) -> T {
        let mut db = Tsdb::new();
        for t in 0..6 {
            db.insert(&SeriesKey::new("m").with_tag("host", "a"), t * 10, 1.0);
        }
        for t in [1, 3, 5] {
            db.insert(&SeriesKey::new("m").with_tag("host", "b"), t * 10, 100.0);
        }
        let hits =
            db.scan_parts_ordered_between(&MetricFilter::all(), i64::MIN, i64::MAX).expect("scan");
        let plan = || SeriesPlan { class: Ok(0), keys: Vec::new(), exprs: Vec::new() };
        test(&Fold {
            hits: &hits,
            series_of: vec![0, 1],
            series: vec![plan(), plan()],
            grids: Some(vec![Cow::Owned((0..6).map(|t| t * 10).collect())]),
            filters: 0,
            args: vec![Args::Val, Args::Ts],
            point_args: false,
            accs: vec![
                AggColumn::new("SUM", 0, true).unwrap(),
                AggColumn::new("SUM", 0, false).unwrap(),
            ],
            points: Schema::new(vec!["timestamp".to_string(), "value".to_string()]),
        })
    }

    #[test]
    fn a_block_covers_what_its_morsel_reaches_not_the_grid() {
        with_fold(|fold| {
            let extent = |spans: &[(usize, usize, usize)]| {
                let mut blocks = fold.morsel(spans).unwrap();
                assert_eq!(blocks.len(), 1, "one class");
                let block = blocks.remove(0);
                let (lo, len) = (block.lo, block.first.len());
                for column in block.specs {
                    let covered = column.finish(0..len).unwrap().len();
                    assert_eq!(covered, len, "every column covers the block's slots");
                }
                (lo, len)
            };
            // One point is one slot, whichever way its slot is found.
            assert_eq!(extent(&[(0, 4, 5)]), (4, 1), "identity slot");
            assert_eq!(extent(&[(1, 2, 3)]), (5, 1), "sought slot");
            // A span reaches from its first point's slot to its last's.
            assert_eq!(extent(&[(0, 1, 3), (1, 0, 2)]), (1, 3));
            assert_eq!(extent(&[(0, 0, 6), (1, 0, 3)]), (0, 6), "the whole grid");
        });
    }

    #[test]
    fn blocks_merge_by_slot_in_morsel_order_whatever_their_extents() {
        with_fold(|fold| {
            let whole = fold.morsel(&[(0, 0, 6), (1, 0, 3)]).unwrap();
            let (firsts, columns) = fold.finish(whole).unwrap();
            assert_eq!(firsts, [(0, 0), (10, 0), (20, 0), (30, 0), (40, 0), (50, 0)]);
            let sums = Column::Float(vec![1.0, 101.0, 1.0, 101.0, 1.0, 101.0]);
            assert_eq!(columns, [sums, Column::Int(vec![0, 20, 20, 60, 40, 100])]);
            // Most of the same points, in five morsels: no block spans the
            // grid, and slots 0 and 2 are never reached.
            let spans = [(0, 1, 2), (0, 3, 6), (1, 0, 1), (1, 1, 2), (1, 2, 3)];
            let blocks: Vec<Block> =
                spans.iter().flat_map(|&span| fold.morsel(&[span]).unwrap()).collect();
            assert_eq!(blocks.iter().map(|b| b.first.len()).sum::<usize>(), 7);
            let (firsts, columns) = fold.finish(blocks).unwrap();
            assert_eq!(firsts, [(10, 0), (30, 0), (40, 0), (50, 0)]);
            let sums = Column::Float(vec![101.0, 101.0, 1.0, 101.0]);
            assert_eq!(columns, [sums, Column::Int(vec![20, 60, 40, 100])]);
        });
    }
}
