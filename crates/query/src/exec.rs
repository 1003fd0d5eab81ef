//! The columnar query executor.
//!
//! [`execute`] runs the three-stage pipeline: lower the AST to a logical
//! plan ([`crate::plan::build`]), rewrite it ([`crate::optimize::optimize`])
//! and interpret the optimized tree. This module and its children are the
//! *operators* — scan gather, filter, projection, aggregation, join, sort,
//! union — over typed [`Column`] vectors: which rows flow where, in what
//! order, on how many workers. Every expression they meet goes to the one
//! column evaluator ([`crate::veval`]); no operator builds a row or calls
//! the row walker (`explainit-lint` enforces that), which stays the oracle
//! behind [`crate::reference`].
//!
//! **One operator per file.** The plan node an `EXPLAIN` line names runs
//! in one place:
//!
//! | Plan node | Runs in |
//! |---|---|
//! | `TsdbScan` | `exec/scan_gather.rs` (the k-way merge gather) |
//! | `ScanAggregate`, `ScanAggregatePivot` | `exec/scan_aggregate.rs` |
//! | `ScanPivot` | `exec/scan_pivot.rs` |
//! | `Project` | `exec/project.rs` |
//! | `Aggregate` | `exec/aggregate.rs` |
//! | `Join` | `exec/join.rs` |
//! | `Scan`, `Filter`, `Sort`, `Limit`, `Union`, `Alias`, `Unit` | `run_plan`, here |
//! | `Pivot` | `execute_family`, here: stage one, then [`crate::pivot`] |
//!
//! This file keeps what more than one operator uses: the entry points, the
//! morsel machinery, the aggregate operators' output slots and finishing
//! step, and the scan front.
//!
//! **Partition parallelism.** Operators split their input by its size
//! ([`ExecOptions::partitions`]) on the workspace's scoped worker pool
//! ([`explainit_sync::pool`], which also scores hypotheses), and serial
//! execution is the one-morsel case of the same code. The projection and
//! the table aggregate peel the `Filter` chain under them and run it per row
//! morsel; the projection concatenates morsel outputs in order (a window
//! call reads across rows, so it forces one morsel), the aggregate folds
//! each morsel into *partial aggregate states* — an accumulator column
//! ([`AggColumn`](crate::functions::AggColumn)) per aggregate call over the
//! morsel's groups — and merges them in morsel order; the scan-level
//! aggregate ([`scan_aggregate`]) folds point-balanced morsels of series
//! spans into the same columns addressed by grid slot and merges those slot
//! by slot, in morsel order too. Both end in one finishing step over their
//! key and finished-aggregate columns, where an output such as `SUM(v) /
//! COUNT(v)` is the column evaluator's result like any other expression.
//! Merging is exactly fold-equivalent (error-free float sums, integer
//! counts, per-class MIN/MAX candidates, PERCENTILE value gathering), so an
//! answer is bit-identical at every partition count — the differential
//! suite asserts partitions 1 and 3 both equal the reference.
//!
//! `EXPLAIN <query>` short-circuits after optimization and returns the
//! rendered plan as a one-column table.
//!
//! **One scan front.** The plain scan gather ([`scan_gather`]) and the two
//! fused scan operators ([`scan_aggregate`], [`scan_pivot`]) all start from
//! `scan_hits`: a [`ScanSpec`] resolved to the store's rank-ordered hits —
//! the single place this crate reads the store. The two fused operators
//! also share `span_grid` (the shared-vector-else-merged-union timestamp
//! grid) and `series_const` (an expression over one series' constants).
//!
//! **Stage two.** A `CREATE FAMILY` statement runs through
//! [`execute_family`]: the same pipeline with a `Pivot` root on the plan.
//! When the optimizer fused a long pivot with its scan the [`scan_pivot`]
//! operator goes from series to family frames directly; when it fused a
//! wide pivot with its scan aggregate, [`scan_aggregate`] builds the frames
//! from its classes' finished columns; otherwise the stage-one plan runs to
//! a [`Table`] and the table pivot ([`crate::pivot`]) takes it from there.

mod aggregate;
mod join;
mod project;
mod scan_aggregate;
mod scan_gather;
mod scan_pivot;

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use explainit_sync::{pool, LockClass, Mutex};

use explainit_tsdb::{MetricFilter, SeriesKey, SeriesSlice, Tsdb};

/// Per-execution pin map: held only to clone or insert an `Arc`; the
/// catalog's binding lock is always taken *before* (never under) it.
static EXEC_PINNED: LockClass = LockClass::new("query.exec.pinned", 25);

use crate::ast::{CreateFamily, Expr, Query};
use crate::catalog::{Catalog, TsdbBinding};
use crate::column::Column;
use crate::eval::map_grouped;
use crate::functions::is_aggregate;
use crate::optimize::{fold_expr, map_columns, optimize, peel_filter_chain};
use crate::pivot::{into_grid, FamilyFrame};
use crate::plan::{build, build_family, LogicalPlan, ScanSpec};
use crate::table::{Schema, Table};
use crate::value::Value;
use crate::veval::{self, ColView};
use crate::{QueryError, Result};
use aggregate::run_aggregate;
use join::run_join;
use project::run_project;
use scan_gather::run_tsdb_scan;

/// Execution options for the columnar pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Morsel count for the projection, the table aggregate, the scan
    /// gather and the scan-aggregate operator.
    ///
    /// * `0` — auto (the default): one partition per available core,
    ///   capped so each morsel keeps at least [`MIN_PARTITION_ROWS`] rows;
    /// * `1` — serial execution (single morsel);
    /// * `k` — exactly `min(k, rows)` morsels, regardless of core count
    ///   (lets tests exercise partial-state merging deterministically).
    pub partitions: usize,
}

impl ExecOptions {
    /// Options with an explicit partition count.
    pub fn with_partitions(partitions: usize) -> ExecOptions {
        ExecOptions { partitions }
    }
}

/// Auto mode keeps at least this many rows per morsel so partitioning
/// never dominates small queries.
const MIN_PARTITION_ROWS: usize = 4096;

/// One query execution's view of the catalog. Live TSDB bindings are
/// **pinned on first touch**: every scan node of one statement reads the
/// same store generation, even while ingesters advance a
/// [`explainit_tsdb::SharedTsdb`] mid-query — a self-join or UNION never
/// straddles two snapshots.
struct ExecCtx<'a> {
    catalog: &'a Catalog,
    pinned: Mutex<HashMap<String, Arc<TsdbBinding>>>,
}

impl<'a> ExecCtx<'a> {
    fn new(catalog: &'a Catalog) -> ExecCtx<'a> {
        ExecCtx { catalog, pinned: Mutex::new(&EXEC_PINNED, HashMap::new()) }
    }

    /// The pinned binding for a TSDB table (resolved once per execution).
    fn binding(&self, name: &str) -> Result<Arc<TsdbBinding>> {
        let key = name.to_lowercase();
        if let Some(b) = self.pinned.lock().get(&key) {
            return Ok(b.clone());
        }
        let unknown = || QueryError::UnknownTable(name.to_string());
        let binding = self.catalog.tsdb_binding(name).ok_or_else(unknown)?;
        self.pinned.lock().entry(key).or_insert(binding.clone());
        Ok(binding)
    }
}

/// Executes a parsed query against a catalog through the
/// plan → optimize → columnar-execute pipeline with default options.
pub fn execute(catalog: &Catalog, query: &Query) -> Result<Table> {
    execute_with(catalog, query, ExecOptions::default())
}

/// [`execute`] with explicit execution options.
pub fn execute_with(catalog: &Catalog, query: &Query, opts: ExecOptions) -> Result<Table> {
    let plan = build(catalog, query)?;
    // Static analysis between planning and optimization: guaranteed-to-fail
    // statements are rejected here, with source positions, before any
    // rewrite or scan runs. Plan-building errors (unknown tables/columns,
    // scoping) keep their precedence — `build` already ran.
    crate::types::check_query(catalog, query)?;
    let plan = optimize(plan, catalog)?;
    if query.explain {
        return Ok(plan_table(&plan, catalog));
    }
    run_plan(&ExecCtx::new(catalog), &plan, &opts)
}

/// The `EXPLAIN` relation: the rendered plan, one node per row.
fn plan_table(plan: &LogicalPlan, catalog: &Catalog) -> Table {
    let text = crate::plan::render_with(plan, Some(catalog));
    Table::from_rows(&["plan"], text.lines().map(|l| vec![Value::str(l)]).collect())
}

/// A `CREATE FAMILY` statement through plan → check → optimize: its
/// stage-one query under a `Pivot` root, or a fused pivot node.
fn plan_family(catalog: &Catalog, cf: &CreateFamily) -> Result<LogicalPlan> {
    let plan = build_family(catalog, cf)?;
    crate::types::check_query(catalog, &cf.query)?;
    optimize(plan, catalog)
}

/// `EXPLAIN CREATE FAMILY ...`: the statement's optimized plan, the
/// `Pivot` / `ScanPivot` / `ScanAggregatePivot` line on top. Nothing runs.
pub fn explain_family(catalog: &Catalog, cf: &CreateFamily) -> Result<Table> {
    Ok(plan_table(&plan_family(catalog, cf)?, catalog))
}

/// Executes a `CREATE FAMILY` statement to its family frames, in
/// registration order. Which of the three stage-two executions runs is
/// decided by the plan's shape alone.
pub fn execute_family(
    catalog: &Catalog,
    cf: &CreateFamily,
    opts: ExecOptions,
) -> Result<Vec<FamilyFrame>> {
    let ctx = ExecCtx::new(catalog);
    // Stage-one rows (or points) read, and the frames they pivot into.
    let (rows, frames) = match plan_family(catalog, cf)? {
        LogicalPlan::Pivot { input, spec } => {
            let table = run_plan(&ctx, &input, &opts)?;
            // An empty result reports as such before any role is resolved.
            let frames = if table.is_empty() { Vec::new() } else { spec.frames(&table)? };
            (table.len(), frames)
        }
        LogicalPlan::ScanAggregatePivot { aggregate, spec } => {
            scan_aggregate::frames(&ctx, &aggregate, &spec, &opts)?
        }
        fused => scan_pivot::run(&ctx, &fused, &opts)?,
    };
    let fail =
        |what: &str| Err(QueryError::Statement(format!("CREATE FAMILY {}: {what}", cf.name)));
    if rows == 0 {
        return fail("the stage-one query returned no rows");
    }
    if frames.is_empty() {
        return fail("the pivot produced no families");
    }
    Ok(frames)
}

/// Runs an (optimized) plan.
///
/// Project/Aggregate outputs may carry trailing hidden ORDER BY key
/// columns; the enclosing Sort (always directly above, by construction)
/// consumes and drops them, and the planner emits hidden keys only when a
/// Sort exists.
fn run_plan(ctx: &ExecCtx, plan: &LogicalPlan, opts: &ExecOptions) -> Result<Table> {
    match plan {
        // Always a registered table: rule 2 turns every `Scan` of a TSDB
        // binding into `TsdbScan`.
        LogicalPlan::Scan { table } => {
            let t =
                ctx.catalog.get(table).ok_or_else(|| QueryError::UnknownTable(table.clone()))?;
            Ok(t.as_ref().clone())
        }

        LogicalPlan::TsdbScan { scan, columns } => run_tsdb_scan(ctx, scan, columns, opts),

        LogicalPlan::ScanAggregate { .. } => scan_aggregate::run(ctx, plan, opts),

        LogicalPlan::Unit => Ok(Table::unit(1)),

        LogicalPlan::Pivot { .. }
        | LogicalPlan::ScanPivot { .. }
        | LogicalPlan::ScanAggregatePivot { .. } => Err(QueryError::Plan(
            "a family pivot is the root of a CREATE FAMILY plan, not a relation".into(),
        )),

        LogicalPlan::Alias { input, alias } => {
            let t = run_plan(ctx, input, opts)?;
            let schema = t.schema().qualified(alias);
            Ok(t.with_schema(schema))
        }

        LogicalPlan::Filter { .. } => {
            // The whole chain (the optimizer's cost-ordered residuals)
            // fuses into one selection vector over the source columns,
            // innermost first; the survivors gather once at the end.
            let (filters, source) = peel_filter_chain(plan);
            let t = run_plan(ctx, source, opts)?;
            let kept = match morsel_columns(&t, &filters, 0, t.len())? {
                (Cow::Owned(cols), len) => Some((cols, len)),
                _ => None, // nothing dropped
            };
            Ok(match kept {
                Some((cols, len)) => Table::from_columnar_parts(t.schema().clone(), cols, len),
                None => t,
            })
        }

        LogicalPlan::Project { input, items, hidden } => {
            let (filters, source) = peel_filter_chain(input);
            let src = run_plan(ctx, source, opts)?;
            run_project(&src, &filters, items, hidden, opts)
        }

        LogicalPlan::Aggregate { input, group_by, items, hidden } => {
            let (filters, source) = peel_filter_chain(input);
            let src = run_plan(ctx, source, opts)?;
            run_aggregate(&src, &filters, group_by, items, hidden, opts)
        }

        LogicalPlan::Join { left, right, kind, on } => {
            let l = run_plan(ctx, left, opts)?;
            let r = run_plan(ctx, right, opts)?;
            run_join(l, r, *kind, on)
        }

        LogicalPlan::Sort { input, keys, output_width } => {
            let t = run_plan(ctx, input, opts)?;
            // Materialize key values once: Column::get clones (allocating
            // for strings), which must not happen per comparison.
            let key_vals: Vec<(Vec<Value>, bool)> = keys
                .iter()
                .map(|&(k, asc)| {
                    let col = t.column_at(k);
                    ((0..t.len()).map(|i| col.get(i)).collect(), asc)
                })
                .collect();
            let mut order: Vec<usize> = (0..t.len()).collect();
            order.sort_by(|&a, &b| {
                for (vals, asc) in &key_vals {
                    let cmp = vals[a].order_cmp(&vals[b]);
                    let cmp = if *asc { cmp } else { cmp.reverse() };
                    if cmp != std::cmp::Ordering::Equal {
                        return cmp;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let (schema, cols, _) = t.into_columnar_parts();
            let visible_names = schema.columns()[..*output_width].to_vec();
            let visible_cols: Vec<Column> =
                cols[..*output_width].iter().map(|c| c.gather(&order)).collect();
            Ok(Table::from_columnar_parts(Schema::new(visible_names), visible_cols, order.len()))
        }

        LogicalPlan::Limit { input, n } => {
            let t = run_plan(ctx, input, opts)?;
            Ok(t.truncated(*n))
        }

        LogicalPlan::Union { inputs } => {
            // Column-name compatibility is deliberately *not* enforced:
            // standard SQL lets branches carry different names (the seed
            // contract unions `v` with `w`), so the first branch names the
            // output and later branches match by position. Arity mismatch
            // errors name both schemas; Int/Float mixes coerce to Float.
            let mut parts = inputs.iter();
            let first = run_plan(ctx, parts.next().expect("union has inputs"), opts)?; // invariant: the planner and verifier keep Union non-empty
            let (schema, mut cols, mut len) = first.into_columnar_parts();
            for p in parts {
                let part = run_plan(ctx, p, opts)?;
                if part.schema().len() != schema.len() {
                    return Err(QueryError::Plan(format!(
                        "UNION arity mismatch: [{}] has {} columns, [{}] has {}",
                        schema.columns().join(", "),
                        schema.len(),
                        part.schema().columns().join(", "),
                        part.schema().len(),
                    )));
                }
                len += part.len();
                let (_, pcols, _) = part.into_columnar_parts();
                for (acc, pc) in cols.iter_mut().zip(pcols) {
                    acc.append_coercing(pc);
                }
            }
            Ok(Table::from_columnar_parts(schema, cols, len))
        }
    }
}

// ---------------------------------------------------------------------------
// Morsels: partitioning by input size
// ---------------------------------------------------------------------------

/// One morsel's input columns: rows `[a, b)` of `src` through the peeled
/// filter chain (outermost first, so applied in reverse). One selection
/// vector of source row ids flows through every predicate — each refines
/// it in place over the source columns — and the surviving rows gather
/// **once** at the end: no intermediate column per predicate. The
/// whole-table morsel nothing was dropped from borrows the source columns
/// as they are.
fn morsel_columns<'t>(
    src: &'t Table,
    filters: &[&Expr],
    a: usize,
    b: usize,
) -> Result<(Cow<'t, [Column]>, usize)> {
    let views: Vec<ColView> = src.columns().iter().map(ColView::from).collect();
    let mut sel: Vec<u32> = (a as u32..b as u32).collect();
    for pred in filters.iter().rev() {
        // Per-row semantics: once nothing survives, nothing is evaluated.
        veval::refine(pred, src.schema(), &views, src.len(), &mut sel)?;
    }
    Ok(if sel.len() < b - a {
        (Cow::Owned(views.iter().map(|c| c.gather(&sel)).collect()), sel.len())
    } else if a == 0 && b == src.len() {
        (Cow::Borrowed(src.columns()), b)
    } else {
        (Cow::Owned(src.columns().iter().map(|c| c.slice(a, b)).collect()), b - a)
    })
}

/// Resolves the morsel count for `len` rows under the options.
fn effective_partitions(opts: &ExecOptions, len: usize) -> usize {
    let requested = if opts.partitions == 0 {
        pool::workers().min(len.div_ceil(MIN_PARTITION_ROWS).max(1))
    } else {
        opts.partitions
    };
    requested.clamp(1, len.max(1))
}

/// Contiguous `[start, end)` morsel ranges covering `len` rows.
fn morsel_ranges(len: usize, partitions: usize) -> Vec<(usize, usize)> {
    let chunk = len.div_ceil(partitions.max(1)).max(1);
    (0..partitions)
        .map(|i| (i * chunk, ((i + 1) * chunk).min(len)))
        .filter(|(a, b)| a < b)
        .collect()
}

/// The morsels of a fused pivot's `families`, built from `len` inputs:
/// one morsel when the inputs make one, a forced count as forced, and in
/// auto mode one per family — families differ in width, so the pool takes
/// them one by one.
fn family_morsels(opts: &ExecOptions, len: usize, families: usize) -> Vec<(usize, usize)> {
    let morsels = match effective_partitions(opts, len) {
        1 => 1,
        _ if opts.partitions == 0 => families,
        forced => forced,
    };
    morsel_ranges(families, morsels)
}

/// Point-balanced morsels over a rank-ordered series list: cuts the
/// concatenated point sequence (series-major, `counts[i]` points each)
/// into contiguous equal-point ranges and maps every range back to
/// `(series index, point_lo, point_hi)` spans. A span may cover part of a
/// series — that is the point: one hot series holding most of the store
/// gets *split across* morsels instead of serializing the scan-aggregate
/// pipeline behind a single worker. Each morsel's spans are ascending in
/// `(series, point)` order and morsels tile the sequence exactly, so a
/// merge that folds partials in morsel order replays every series' points
/// in their original order.
fn point_balanced_spans(counts: &[usize], partitions: usize) -> Vec<Vec<(usize, usize, usize)>> {
    let total: usize = counts.iter().sum();
    let ranges = morsel_ranges(total, partitions);
    let mut out = Vec::with_capacity(ranges.len());
    // Cursor over the series list; ranges are contiguous and ascending, so
    // one forward walk suffices.
    let mut series = 0usize;
    let mut base = 0usize; // global offset of `series`' first point
    for (ga, gb) in ranges {
        while series < counts.len() && base + counts[series] <= ga {
            base += counts[series];
            series += 1;
        }
        let (mut s, mut b) = (series, base);
        let mut spans = Vec::new();
        while s < counts.len() && b < gb {
            let lo = ga.max(b) - b;
            let hi = (gb - b).min(counts[s]);
            if lo < hi {
                spans.push((s, lo, hi));
            }
            b += counts[s];
            s += 1;
        }
        out.push(spans);
    }
    out
}

/// Runs `f(morsel_index)` for every morsel on the shared worker pool, one
/// worker per core, and returns results in morsel order. Errors surface
/// deterministically: the lowest-indexed morsel's error wins.
fn run_partitioned<T: Send>(
    morsels: usize,
    f: impl Fn(usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    pool::run_indexed(morsels, pool::workers(), f).into_iter().collect()
}

// ---------------------------------------------------------------------------
// Outputs: the projection's and both aggregate operators'
// ---------------------------------------------------------------------------

/// The output schema of a projection or an aggregate: its items' names,
/// then one `__ord{i}` per hidden ORDER BY key.
fn project_names(items: &[(Expr, String)], hidden_count: usize) -> Schema {
    let mut names: Vec<String> = items.iter().map(|(_, n)| n.clone()).collect();
    for i in 0..hidden_count {
        names.push(format!("__ord{i}"));
    }
    Schema::new(names)
}

/// One distinct aggregate call, `name(args)`.
type AggSpec<'p> = (&'p str, &'p [Expr]);

/// Decomposes an aggregate's outputs (visible items, then hidden ORDER BY
/// keys) over the columns its operator finishes: one per group key, `#k0`…,
/// then one per distinct aggregate call the outputs reach, `#a0`… (`#`
/// starts no SQL identifier). Returns each output rewritten once — a
/// sub-expression equal to a group key or an aggregate call it reaches is a
/// reference to that column — the calls, and the column names. A name an
/// output still holds (`{c} AS first_c`) reads the group's first row.
fn agg_slots<'p>(
    group_by: &[Expr],
    items: &'p [(Expr, String)],
    hidden: &'p [Expr],
) -> Result<(Vec<Expr>, Vec<AggSpec<'p>>, Vec<String>)> {
    let column = |kind: char, i: usize| format!("#{kind}{i}");
    let mut specs: Vec<AggSpec<'p>> = Vec::new();
    let mut column_of = |sub: &'p Expr| {
        if let Some(k) = group_by.iter().position(|g| g == sub) {
            return Ok(Some(Expr::Column(column('k', k))));
        }
        let call: AggSpec<'p> = match sub {
            Expr::Function { name, args } if is_aggregate(name) => (name, args),
            _ => return Ok(None),
        };
        let spec = specs.iter().position(|s| *s == call).unwrap_or_else(|| {
            specs.push(call);
            specs.len() - 1
        });
        Ok(Some(Expr::Column(column('a', spec))))
    };
    let outputs = items.iter().map(|(e, _)| e).chain(hidden);
    let outputs = outputs.map(|e| map_grouped(e, &mut column_of)).collect::<Result<_>>()?;
    let keys = (0..group_by.len()).map(|k| column('k', k));
    let names = keys.chain((0..specs.len()).map(|i| column('a', i))).collect();
    Ok((outputs, specs, names))
}

/// The one finishing step of both aggregate operators: `cols` are the
/// operator's finished columns under `schema`, and an output is a column
/// over them — the column evaluator's result in row context (a window call
/// sees its own row; `AND` / `OR` / `CASE` / `IN` short-circuit per group as
/// they do per row), or, for a bare reference, the column as it is: moved,
/// so typed keys stay typed and nothing is copied or boxed. No groups,
/// nothing evaluated.
fn finish_outputs(
    outputs: &[Expr],
    schema: &Schema,
    mut cols: Vec<Column>,
    rows: usize,
    names: Schema,
) -> Result<Table> {
    let bare = |e: &Expr| match e {
        Expr::Column(c) => schema.resolve(c).ok(),
        _ => None,
    };
    let mut out = Vec::with_capacity(outputs.len());
    for e in outputs {
        out.push(match bare(e) {
            None if rows > 0 => veval::eval(e, schema, &cols, rows)?.into_column(rows),
            _ => Column::empty(),
        });
    }
    // Last mention first: it takes the column, an earlier one copies that.
    for (at, c) in outputs.iter().map(bare).enumerate().rev() {
        let Some(c) = c else { continue };
        out[at] = match outputs[at + 1..].iter().position(|later| bare(later) == Some(c)) {
            Some(later) => out[at + 1 + later].clone(),
            None => std::mem::replace(&mut cols[c], Column::empty()),
        };
    }
    Ok(Table::from_columnar_parts(names, out, rows))
}

// ---------------------------------------------------------------------------
// Scan-level operators
// ---------------------------------------------------------------------------
//
// What `exec/scan_aggregate.rs` and `exec/scan_pivot.rs` share with each
// other and, for `scan_hits` and `shared_grid`, with the plain scan gather
// (`exec/scan_gather.rs`). Neither fused operator ever
// materializes an observation row: what the table pipeline derives per row
// from `metric_name` / `tag` they resolve once per series, by substituting
// the series' constants into the expression.

/// The scan front: a [`ScanSpec`] resolved against the store to its hits —
/// one slice per decoded chunk span overlapping the range, series in
/// canonical-key (rank) order. The plan's inclusive bounds map straight onto
/// the store's inclusive scan range — no half-open conversion, so a point at
/// `timestamp == i64::MAX` survives an unbounded (or saturated) upper bound —
/// and an inverted range scans nothing. The one place the executor reads the
/// store, so the one place a chunk that cannot be read — an I/O error, a
/// checksum mismatch — becomes the statement's [`QueryError::Storage`].
fn scan_hits<'a>(db: &'a Tsdb, scan: &ScanSpec) -> Result<Vec<SeriesSlice<'a>>> {
    let (lo, hi) = (scan.start.unwrap_or(i64::MIN), scan.end.unwrap_or(i64::MAX));
    if lo > hi {
        return Ok(Vec::new());
    }
    let filter = MetricFilter { name: scan.name.clone(), tags: scan.tags.clone() };
    db.scan_parts_ordered_between(&filter, lo, hi)
        .map_err(|e| QueryError::Storage(format!("scanning {}: {e}", scan.table)))
}

/// The grid-aligned test: the one timestamp vector every run carries, if
/// they all carry the same one (early exit on the first that differs).
/// The scan gather turns it into a transpose; the scan pivot into a
/// family's timestamp grid taken as is.
fn shared_grid<'a>(runs: impl IntoIterator<Item = &'a [i64]>) -> Option<&'a [i64]> {
    let mut runs = runs.into_iter();
    let grid = runs.next()?;
    runs.all(|ts| std::ptr::eq(ts, grid) || ts == grid).then_some(grid)
}

/// The sorted timestamp grid of a set of spans: the shared vector, as it
/// is, when every span carries the same one ([`shared_grid`]), their merged
/// union otherwise.
fn span_grid<'a>(runs: impl Iterator<Item = &'a [i64]> + Clone) -> Cow<'a, [i64]> {
    match shared_grid(runs.clone()) {
        Some(grid) => Cow::Borrowed(grid),
        None => Cow::Owned(into_grid(runs.flatten().copied().collect())),
    }
}

/// Replaces references to the per-series-constant observation columns
/// (`metric_name`, `tag`) with literals from the series key, leaving
/// `timestamp`/`value` references (and unresolvable names) untouched, and
/// folds what became constant.
fn substitute_series_consts(e: &Expr, schema: &Schema, key: &SeriesKey) -> Expr {
    fold_expr(map_columns(e.clone(), &|name| match schema.resolve(&name) {
        Ok(1) => Expr::Literal(Value::Str(key.name.clone())),
        Ok(2) => Expr::Literal(Value::Map(key.tags.clone())),
        _ => Expr::Column(name),
    }))
}

/// The value, for one series, of an expression over per-series constants.
fn series_const(e: &Expr, schema: &Schema, key: &SeriesKey) -> Result<Value> {
    veval::eval_const(&substitute_series_consts(e, schema, key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "t",
            Table::from_rows(
                &["ts", "host", "v"],
                vec![
                    vec![Value::Int(0), Value::str("web-1"), Value::Float(1.0)],
                    vec![Value::Int(0), Value::str("web-2"), Value::Float(3.0)],
                    vec![Value::Int(1), Value::str("web-1"), Value::Float(5.0)],
                    vec![Value::Int(1), Value::str("web-2"), Value::Float(7.0)],
                    vec![Value::Int(2), Value::str("db-1"), Value::Float(100.0)],
                ],
            ),
        );
        c.register(
            "u",
            Table::from_rows(
                &["ts", "w"],
                vec![
                    vec![Value::Int(0), Value::Float(10.0)],
                    vec![Value::Int(2), Value::Float(30.0)],
                    vec![Value::Int(9), Value::Float(90.0)],
                ],
            ),
        );
        c
    }

    fn run(sql: &str) -> Table {
        let c = catalog();
        execute(&c, &parse_query(sql).unwrap()).unwrap()
    }

    #[test]
    fn exec_ctx_pins_live_bindings_for_one_execution() {
        use explainit_tsdb::{SeriesKey, SharedTsdb, Tsdb};
        let mut db = Tsdb::new();
        db.insert(&SeriesKey::new("m").with_tag("host", "a"), 0, 1.0);
        let shared = SharedTsdb::new(db);
        let mut c = Catalog::new();
        c.register_tsdb_shared("tsdb", &shared);
        let ctx = ExecCtx::new(&c);
        let first = ctx.binding("tsdb").unwrap();
        // An ingest mid-execution must not change what this execution sees:
        // a self-join's second scan reads the same pinned snapshot.
        shared.insert(&SeriesKey::new("m").with_tag("host", "b"), 0, 2.0);
        let second = ctx.binding("tsdb").unwrap();
        assert!(Arc::ptr_eq(&first, &second), "binding pinned per execution");
        // A *new* execution picks up the fresh generation.
        let fresh = ExecCtx::new(&c).binding("tsdb").unwrap();
        assert!(!Arc::ptr_eq(&first, &fresh));
        assert_eq!(fresh.db().series_count(), 2);
    }

    /// Runs with forced multi-partition execution.
    fn run_parallel(sql: &str, partitions: usize) -> Table {
        let c = catalog();
        execute_with(&c, &parse_query(sql).unwrap(), ExecOptions::with_partitions(partitions))
            .unwrap()
    }

    #[test]
    fn select_star() {
        let t = run("SELECT * FROM t");
        assert_eq!(t.len(), 5);
        assert_eq!(t.schema().columns().len(), 3);
    }

    #[test]
    fn where_filters() {
        let t = run("SELECT v FROM t WHERE host = 'web-1'");
        assert_eq!(t.len(), 2);
        let t = run("SELECT v FROM t WHERE host LIKE 'web%' AND v > 2");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn glob_operator_filters() {
        let t = run("SELECT v FROM t WHERE host GLOB 'web-*'");
        assert_eq!(t.len(), 4);
        let t = run("SELECT v FROM t WHERE host GLOB 'web-?' AND v > 2");
        assert_eq!(t.len(), 3);
        let t = run("SELECT v FROM t WHERE host NOT GLOB 'web-*'");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn group_by_avg() {
        let t = run("SELECT ts, AVG(v) AS m FROM t GROUP BY ts ORDER BY ts");
        assert_eq!(t.len(), 3);
        assert_eq!(t.rows()[0], vec![Value::Int(0), Value::Float(2.0)]);
        assert_eq!(t.rows()[1], vec![Value::Int(1), Value::Float(6.0)]);
        assert_eq!(t.rows()[2], vec![Value::Int(2), Value::Float(100.0)]);
    }

    #[test]
    fn group_by_expression_key() {
        let t = run("SELECT SPLIT(host, '-')[0] AS grp, SUM(v) AS total FROM t \
             GROUP BY SPLIT(host, '-')[0] ORDER BY grp");
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[0][0], Value::str("db"));
        assert_eq!(t.rows()[0][1], Value::Float(100.0));
        assert_eq!(t.rows()[1][1], Value::Float(16.0));
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let t = run("SELECT COUNT(*) AS n, MAX(v) AS mx FROM t");
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0], vec![Value::Int(5), Value::Float(100.0)]);
    }

    #[test]
    fn sum_keeps_int_typing_for_int_columns() {
        let t = run("SELECT SUM(ts) AS s FROM t");
        assert_eq!(t.rows()[0][0], Value::Int(4));
        let t = run("SELECT SUM(v) AS s FROM t WHERE ts = 0");
        assert_eq!(t.rows()[0][0], Value::Float(4.0));
    }

    #[test]
    fn forced_partitions_match_serial_results() {
        for parts in [1, 2, 3, 7] {
            let t = run_parallel(
                "SELECT ts, AVG(v) AS m, SUM(v) AS s, COUNT(*) AS n, MIN(host) AS h, \
                 STDDEV(v) AS sd FROM t GROUP BY ts ORDER BY ts",
                parts,
            );
            let serial =
                run("SELECT ts, AVG(v) AS m, SUM(v) AS s, COUNT(*) AS n, MIN(host) AS h, \
                 STDDEV(v) AS sd FROM t GROUP BY ts ORDER BY ts");
            assert_eq!(t.rows(), serial.rows(), "partitions={parts}");
            assert_eq!(t.schema(), serial.schema());
        }
    }

    #[test]
    fn forced_partitions_preserve_group_first_seen_order() {
        // Without ORDER BY the group order is first-seen; morsel-order
        // merging must reproduce it exactly.
        for parts in [1, 2, 3, 5] {
            let t = run_parallel("SELECT host, COUNT(*) AS n FROM t GROUP BY host", parts);
            let serial = run("SELECT host, COUNT(*) AS n FROM t GROUP BY host");
            assert_eq!(t.rows(), serial.rows(), "partitions={parts}");
        }
    }

    #[test]
    fn order_by_desc_and_limit() {
        let t = run("SELECT v FROM t ORDER BY v DESC LIMIT 2");
        assert_eq!(t.rows()[0][0], Value::Float(100.0));
        assert_eq!(t.rows()[1][0], Value::Float(7.0));
    }

    #[test]
    fn order_by_alias() {
        let t = run("SELECT v * 2 AS dv FROM t ORDER BY dv DESC LIMIT 1");
        assert_eq!(t.rows()[0][0], Value::Float(200.0));
    }

    #[test]
    fn inner_join() {
        let t = run("SELECT t.ts, v, w FROM t JOIN u ON t.ts = u.ts ORDER BY v");
        assert_eq!(t.len(), 3); // ts=0 matches twice, ts=2 once
        assert_eq!(t.rows()[2], vec![Value::Int(2), Value::Float(100.0), Value::Float(30.0)]);
    }

    #[test]
    fn left_join_null_extends() {
        let t = run("SELECT t.ts, w FROM t LEFT JOIN u ON t.ts = u.ts WHERE t.ts = 1");
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[0][1], Value::Null);
    }

    #[test]
    fn full_outer_join_keeps_both_sides() {
        let t = run("SELECT t.ts, u.ts FROM t FULL OUTER JOIN u ON t.ts = u.ts");
        // 3 matched (0x2, 2) + 2 unmatched-left (ts=1 x2) + 1 unmatched-right (ts=9).
        assert_eq!(t.len(), 6);
        let unmatched_right: Vec<_> = t.rows().into_iter().filter(|r| r[0].is_null()).collect();
        assert_eq!(unmatched_right.len(), 1);
        assert_eq!(unmatched_right[0][1], Value::Int(9));
    }

    #[test]
    fn non_equi_join_falls_back_to_nested_loop() {
        let t = run("SELECT t.ts, u.ts FROM t JOIN u ON t.ts < u.ts ORDER BY t.ts, u.ts");
        assert!(t.len() > 3);
        // Every pair satisfies the predicate.
        for r in t.rows() {
            let a = r[0].as_i64().unwrap();
            let b = r[1].as_i64().unwrap();
            assert!(a < b);
        }
    }

    #[test]
    fn union_all_concats() {
        let t = run("SELECT v FROM t WHERE ts = 0 UNION ALL SELECT w FROM u");
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn union_arity_mismatch_errors() {
        let c = catalog();
        let q = parse_query("SELECT v FROM t UNION ALL SELECT ts, w FROM u").unwrap();
        assert!(matches!(execute(&c, &q), Err(QueryError::Plan(_))));
    }

    #[test]
    fn union_arity_error_names_both_schemas() {
        let c = catalog();
        let q = parse_query("SELECT v FROM t UNION ALL SELECT ts, w FROM u").unwrap();
        let Err(QueryError::Plan(msg)) = execute(&c, &q) else { panic!("expected plan error") };
        assert!(msg.contains("[v]"), "message: {msg}");
        assert!(msg.contains("[ts, w]"), "message: {msg}");
    }

    #[test]
    fn union_coerces_int_and_float_columns() {
        let t = run("SELECT ts FROM t WHERE ts = 2 UNION ALL SELECT w FROM u WHERE ts = 0");
        assert_eq!(t.len(), 2);
        // The Int column meets a Float column: both render as floats.
        assert_eq!(t.rows()[0][0], Value::Float(2.0));
        assert_eq!(t.rows()[1][0], Value::Float(10.0));
    }

    #[test]
    fn union_keeps_first_branch_column_names() {
        let t = run("SELECT v AS reading FROM t WHERE ts = 2 UNION ALL SELECT w FROM u");
        assert_eq!(t.schema().columns(), &["reading"]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn subquery_in_from() {
        let t = run("SELECT m FROM (SELECT ts, AVG(v) AS m FROM t GROUP BY ts) s WHERE m > 3");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lag_window_function() {
        let t = run("SELECT ts, v, LAG(v, 1) AS prev FROM t WHERE host = 'web-1' ORDER BY ts");
        assert_eq!(t.rows()[0][2], Value::Null);
        assert_eq!(t.rows()[1][2], Value::Float(1.0));
    }

    #[test]
    fn constant_select_without_from() {
        let t = run("SELECT 1 + 2 AS three");
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][0], Value::Int(3));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let c = catalog();
        assert!(matches!(
            execute(&c, &parse_query("SELECT * FROM nope").unwrap()),
            Err(QueryError::UnknownTable(_))
        ));
        assert!(matches!(
            execute(&c, &parse_query("SELECT nope FROM t").unwrap()),
            Err(QueryError::UnknownColumn(_))
        ));
    }

    #[test]
    fn wildcard_with_group_by_rejected() {
        let c = catalog();
        let q = parse_query("SELECT * FROM t GROUP BY ts").unwrap();
        assert!(matches!(execute(&c, &q), Err(QueryError::Plan(_))));
    }

    #[test]
    fn percentile_aggregate_in_query() {
        let t = run("SELECT PERCENTILE(v, 0.5) AS p50 FROM t WHERE host LIKE 'web%'");
        assert_eq!(t.rows()[0][0], Value::Float(4.0));
    }

    #[test]
    fn percentile_with_non_constant_p_errors() {
        let c = catalog();
        let q = parse_query("SELECT PERCENTILE(v, ts) AS p FROM t").unwrap();
        assert!(matches!(execute(&c, &q), Err(QueryError::BadFunction(_))));
        // Same under forced parallel partitions.
        for parts in [2, 3] {
            assert!(matches!(
                execute_with(&c, &q, ExecOptions::with_partitions(parts)),
                Err(QueryError::BadFunction(_))
            ));
        }
    }

    #[test]
    fn case_in_projection() {
        let t = run("SELECT host, CASE WHEN v >= 100 THEN 'hot' ELSE 'ok' END AS status \
             FROM t ORDER BY v DESC LIMIT 1");
        assert_eq!(t.rows()[0][1], Value::str("hot"));
    }

    #[test]
    fn join_key_with_nulls_never_matches() {
        let mut c = catalog();
        c.register(
            "n",
            Table::from_rows(
                &["k", "x"],
                vec![vec![Value::Null, Value::Int(1)], vec![Value::Int(0), Value::Int(2)]],
            ),
        );
        let q = parse_query("SELECT n.x, u.w FROM n JOIN u ON n.k = u.ts").unwrap();
        let t = execute(&c, &q).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][0], Value::Int(2));
    }

    #[test]
    fn explain_returns_one_column_plan() {
        let c = catalog();
        let q = parse_query("EXPLAIN SELECT v FROM t WHERE ts > 0 ORDER BY v LIMIT 2").unwrap();
        let t = execute(&c, &q).unwrap();
        assert_eq!(t.schema().columns(), &["plan"]);
        let text: Vec<String> = t.rows().iter().map(|r| r[0].render()).collect();
        let joined = text.join("\n");
        assert!(joined.contains("Limit 2"), "plan:\n{joined}");
        assert!(joined.contains("Sort"), "plan:\n{joined}");
        assert!(joined.contains("Filter"), "plan:\n{joined}");
        assert!(joined.contains("Scan t"), "plan:\n{joined}");
    }

    #[test]
    fn empty_global_aggregate_returns_empty_table() {
        let t = run("SELECT COUNT(*) AS n FROM t WHERE ts > 100");
        assert_eq!(t.len(), 0);
        // Ditto under forced partitions.
        let t = run_parallel("SELECT COUNT(*) AS n FROM t WHERE ts > 100", 3);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn point_balanced_spans_tile_and_split_hot_series() {
        // One series holds ~99% of the points: series-count morsels would
        // hand almost everything to one worker; point-balanced spans cut
        // the hot series itself.
        let counts = [1000usize, 5, 5, 5];
        let morsels = point_balanced_spans(&counts, 4);
        assert_eq!(morsels.len(), 4);
        let hot_morsels =
            morsels.iter().filter(|spans| spans.iter().any(|&(s, _, _)| s == 0)).count();
        assert!(hot_morsels > 1, "hot series split across morsels: {morsels:?}");
        // Spans tile the point sequence exactly, in order, per series.
        let mut seen: Vec<Vec<(usize, usize)>> = vec![Vec::new(); counts.len()];
        for spans in &morsels {
            for &(s, lo, hi) in spans {
                assert!(lo < hi);
                seen[s].push((lo, hi));
            }
        }
        for (s, ranges) in seen.iter().enumerate() {
            let mut expect = 0;
            for &(lo, hi) in ranges {
                assert_eq!(lo, expect, "series {s} contiguous");
                expect = hi;
            }
            assert_eq!(expect, counts[s], "series {s} fully covered");
        }
        // Degenerate shapes: empty series, one partition, more partitions
        // than points.
        assert_eq!(point_balanced_spans(&[0, 3, 0], 1), vec![vec![(1, 0, 3)]]);
        let tiny = point_balanced_spans(&[1, 1], 8);
        assert_eq!(tiny.iter().flatten().count(), 2);
    }

    fn tsdb_catalog() -> Catalog {
        use explainit_tsdb::{SeriesKey, Tsdb};
        let mut db = Tsdb::new();
        for (host, off) in [("b-host", 0i64), ("a-host", 1), ("c-host", 2)] {
            let key = SeriesKey::new("cpu").with_tag("host", host);
            for t in 0..40 {
                db.insert(&key, t * 3 + off % 2, (t + off) as f64);
            }
        }
        db.insert(&SeriesKey::new("edge"), i64::MAX, 42.0);
        db.insert(&SeriesKey::new("edge"), i64::MIN, -42.0);
        let mut c = Catalog::new();
        c.register_tsdb("tsdb", &db);
        c
    }

    #[test]
    fn merge_gather_matches_the_sorted_catalog_view() {
        // `Catalog::get` materializes the binding by sorting every point on
        // `(timestamp, canonical key)`: an ordering oracle that shares no
        // code with the k-way merge. The reference interpreter scans it.
        let c = tsdb_catalog();
        for sql in [
            "SELECT * FROM tsdb",
            "SELECT timestamp, value FROM tsdb WHERE metric_name = 'cpu'",
            "SELECT timestamp, tag['host'] AS h, value FROM tsdb WHERE timestamp >= 5",
            "SELECT timestamp FROM tsdb WHERE metric_name = 'nope'",
        ] {
            let q = parse_query(sql).unwrap();
            let sorted = crate::reference::execute_naive(&c, &q).unwrap();
            for parts in [1, 3] {
                let merged = execute_with(&c, &q, ExecOptions::with_partitions(parts)).unwrap();
                assert_eq!(merged.schema(), sorted.schema(), "{sql}");
                assert_eq!(merged.rows(), sorted.rows(), "{sql} partitions={parts}");
            }
        }
    }

    #[test]
    fn unbounded_scans_return_i64_extreme_points() {
        let c = tsdb_catalog();
        // Regression: the old half-open conversion (`end.saturating_add(1)`)
        // silently dropped the `timestamp == i64::MAX` observation from
        // unbounded and `timestamp >= x` scans.
        let t = c.execute("SELECT value FROM tsdb WHERE metric_name = 'edge'").unwrap();
        assert_eq!(t.len(), 2);
        let sql = format!("SELECT value FROM tsdb WHERE timestamp >= {}", i64::MAX);
        let t = c.execute(&sql).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][0], Value::Float(42.0));
        // The scan-aggregate path honours the same bound.
        let sql = format!(
            "SELECT COUNT(*) AS n FROM tsdb WHERE metric_name = 'edge' AND timestamp >= {}",
            i64::MAX
        );
        let t = c.execute(&sql).unwrap();
        assert_eq!(t.rows()[0][0], Value::Int(1));
        // Unsatisfiable strict bounds at the extremes stay empty instead of
        // saturating back onto the extreme point.
        let sql = format!("SELECT value FROM tsdb WHERE timestamp > {}", i64::MAX);
        assert_eq!(c.execute(&sql).unwrap().len(), 0);
        // `i64::MIN` is a literal (its magnitude directly under the minus),
        // equal to what the constant folder reduces the subtraction to.
        let sql = format!("SELECT value FROM tsdb WHERE timestamp < {}", i64::MIN);
        assert_eq!(c.execute(&sql).unwrap().len(), 0);
        let all = c.execute("SELECT value FROM tsdb").unwrap().len();
        let sql = "SELECT value FROM tsdb WHERE timestamp >= -9223372036854775808";
        assert_eq!(c.execute(sql).unwrap().len(), all);
        let t = c.execute("SELECT -9223372036854775808 = -9223372036854775807 - 1").unwrap();
        assert_eq!(t.rows()[0][0], Value::Bool(true));
    }

    #[test]
    fn hash_join_output_is_identical_across_build_sides() {
        // `t` (5 rows) ⋈ `u` (3 rows) indexes the right input, `u` ⋈ `t`
        // the left one; each must emit exactly what the nested loop does
        // (`+ 0` keeps the same predicate off the hash path).
        for join in ["JOIN", "LEFT JOIN", "FULL OUTER JOIN"] {
            for (l, r) in [("t", "u"), ("u", "t")] {
                let hashed = run(&format!("SELECT * FROM {l} {join} {r} ON t.ts = u.ts"));
                let looped = run(&format!("SELECT * FROM {l} {join} {r} ON t.ts + 0 = u.ts"));
                assert_eq!(hashed.schema(), looped.schema(), "{l} {join} {r}");
                assert_eq!(hashed.rows(), looped.rows(), "build side must not change output");
                assert!(!hashed.is_empty());
            }
        }
    }

    #[test]
    fn full_outer_join_row_order_is_deterministic() {
        // Ten runs of the same FULL OUTER join must produce byte-identical
        // row orders (matches in (left, right) order, unmatched right rows
        // appended in right order) — no HashMap iteration order leaks.
        let sql = "SELECT t.ts, u.ts, v, w FROM t FULL OUTER JOIN u ON t.ts = u.ts";
        let first = run(sql);
        for _ in 0..9 {
            assert_eq!(run(sql).rows(), first.rows());
        }
    }

    #[test]
    fn outer_join_null_padding_keeps_int_identity() {
        // ts=1 rows of t have no u match: u.ts pads with NULL while the
        // matched entries stay Value::Int — never floats or strings.
        let t = run("SELECT t.ts, u.ts FROM t LEFT JOIN u ON t.ts = u.ts ORDER BY t.ts");
        for row in t.rows() {
            assert!(matches!(row[0], Value::Int(_)), "left key typed: {row:?}");
            assert!(
                matches!(row[1], Value::Int(_) | Value::Null),
                "padded column keeps Int identity: {row:?}"
            );
        }
        assert!(t.rows().iter().any(|r| r[1].is_null()), "padding occurred");
    }
}
