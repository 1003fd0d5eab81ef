//! The logical plan layer: SELECT statements lowered to an operator tree.
//!
//! [`build`] translates a parsed [`Query`] into a [`LogicalPlan`]:
//!
//! ```text
//! Union
//!   Limit
//!     Sort
//!       Project | Aggregate        (with hidden ORDER BY key columns)
//!         Filter                   (WHERE)
//!           Join*                  (hash or nested loop, chosen at exec)
//!             Alias                (join-scope qualification)
//!               Scan | Unit | <subquery plan>
//! ```
//!
//! The tree is what [`crate::optimize`] rewrites (predicate pushdown,
//! projection pruning, constant folding, TSDB scan extraction) and what the
//! columnar executor in [`crate::exec`] runs. [`render`] pretty-prints a
//! plan for `EXPLAIN`. The three nodes that read the store — `TsdbScan`,
//! `ScanAggregate`, `ScanPivot` — say what they read with one [`ScanSpec`],
//! and `LogicalPlan::map_inputs` says once which node has which inputs.
//!
//! A `CREATE FAMILY` statement plans as the same tree with stage two on
//! top ([`build_family`]): a [`LogicalPlan::Pivot`] root over the stage-one
//! query, which the optimizer fuses with a bare TSDB scan into
//! [`LogicalPlan::ScanPivot`] when the shape allows.

use explainit_tsdb::TagFilter;

use crate::ast::{BinaryOp, CreateFamily, Expr, JoinKind, Query, SelectItem, SelectStmt, TableRef};
use crate::catalog::Catalog;
use crate::optimize::peel_filter_chain;
use crate::pivot::PivotSpec;
use crate::table::Schema;
use crate::veval::FilterClass;
use crate::{QueryError, Result};

/// The one description of a pushed-down store scan: which binding, and the
/// metric-name pattern, tag predicates and inclusive time range narrowing it
/// (§3.2's `disk{host=datanode*}` plus a range). [`LogicalPlan::TsdbScan`],
/// [`LogicalPlan::ScanAggregate`] and [`LogicalPlan::ScanPivot`] each hold
/// one: rule 3 absorbs `WHERE` conjuncts into it, the fusing rules move it
/// from the scan node into theirs, `EXPLAIN` prints it (its `Display`), and
/// the executor resolves it to the store's hits in one function.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanSpec {
    /// Catalog name the TSDB is bound under.
    pub table: String,
    /// Metric-name **pattern** in the store's glob language (`*` any run,
    /// `?` one character), of which a metacharacter-free string is the
    /// exact case: `metric_name = 'cpu'` and `GLOB 'cpu*'` both land here,
    /// `= 'cpu*'` — a literal the store would read as a pattern — never does.
    pub name: Option<String>,
    /// Pushed-down tag predicates (conjunctive).
    pub tags: Vec<TagFilter>,
    /// Inclusive lower timestamp bound.
    pub start: Option<i64>,
    /// Inclusive upper timestamp bound; below `start`, nothing is scanned.
    pub end: Option<i64>,
}

impl ScanSpec {
    /// The whole of `table`: nothing pushed down yet.
    pub fn all(table: impl Into<String>) -> ScanSpec {
        ScanSpec { table: table.into(), name: None, tags: Vec::new(), start: None, end: None }
    }

    /// Raises the lower bound to at least `lo`.
    pub(crate) fn tighten_start(&mut self, lo: i64) {
        self.start = Some(self.start.map_or(lo, |s| s.max(lo)));
    }

    /// Lowers the upper bound to at most `hi`.
    pub(crate) fn tighten_end(&mut self, hi: i64) {
        self.end = Some(self.end.map_or(hi, |e| e.min(hi)));
    }
}

/// The `EXPLAIN` text of a scan: the table, then ` name=..`, ` tag[k]=..`
/// and ` time=[lo, hi]` for whatever was pushed down — the same on all
/// three scan lines.
impl std::fmt::Display for ScanSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.table)?;
        if let Some(name) = &self.name {
            write!(f, " name={name}")?;
        }
        for t in &self.tags {
            match t {
                TagFilter::Equals(k, v) => write!(f, " tag[{k}]={v}")?,
                TagFilter::Glob(k, p) => write!(f, " tag[{k}]~{p}")?,
                TagFilter::HasKey(k) => write!(f, " tag[{k}] present")?,
                TagFilter::Absent(k) => write!(f, " tag[{k}] absent")?,
            }
        }
        if self.start.is_some() || self.end.is_some() {
            let lo = self.start.map_or("-inf".to_string(), |v| v.to_string());
            let hi = self.end.map_or("+inf".to_string(), |v| v.to_string());
            write!(f, " time=[{lo}, {hi}]")?;
        }
        Ok(())
    }
}

/// A relational operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Leaf: a named catalog table.
    Scan {
        /// Catalog table name.
        table: String,
    },
    /// Leaf: an index-assisted scan of a TSDB-bound virtual table with
    /// pushed-down predicates. Produced by the optimizer — the planner only
    /// emits [`LogicalPlan::Scan`].
    TsdbScan {
        /// What is read: the binding and the predicates pushed into it.
        scan: ScanSpec,
        /// Column pruning: indices into the observation schema
        /// `[timestamp, metric_name, tag, value]`; `None` keeps all.
        columns: Option<Vec<usize>>,
    },
    /// One empty row, zero columns (`SELECT 1`-style constant queries).
    Unit,
    /// Qualifies every column of the input with `alias.` (join scoping).
    Alias {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The qualifier.
        alias: String,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Kept rows satisfy this predicate.
        predicate: Expr,
    },
    /// Scalar projection (may contain window functions).
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, output name)` pairs.
        items: Vec<(Expr, String)>,
        /// Extra ORDER BY key expressions evaluated against the *input*
        /// scope, appended as hidden columns for the enclosing Sort.
        hidden: Vec<Expr>,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// GROUP BY key expressions (empty = one global group).
        group_by: Vec<Expr>,
        /// `(expression, output name)` pairs; expressions may mix
        /// aggregates with scalars.
        items: Vec<(Expr, String)>,
        /// Hidden ORDER BY keys evaluated per group.
        hidden: Vec<Expr>,
    },
    /// Join of two plans.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// INNER / LEFT / FULL OUTER.
        kind: JoinKind,
        /// The ON predicate. The plan says nothing about sizes: the
        /// executor builds its hash index over whichever materialised
        /// input is shorter.
        on: Expr,
    },
    /// Sorts by key columns of the (extended) child output.
    Sort {
        /// Input plan — always a Project or Aggregate carrying the hidden
        /// key columns this node references.
        input: Box<LogicalPlan>,
        /// `(extended column index, ascending)` sort keys.
        keys: Vec<(usize, bool)>,
        /// Number of visible output columns (hidden keys are dropped after
        /// the sort).
        output_width: usize,
    },
    /// Keeps the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row budget.
        n: usize,
    },
    /// Bag union of compatible inputs (with Int/Float column coercion).
    Union {
        /// Unioned plans, in order; the first defines the output names.
        inputs: Vec<LogicalPlan>,
    },
    /// Aggregation pushed *into* the scan: produced by the optimizer when
    /// an `Aggregate` (above pushed-down `Filter`s) sits directly on a
    /// [`LogicalPlan::TsdbScan`]
    /// and every group key is the `timestamp` column or an expression over
    /// the dictionary-encoded scan columns (`metric_name`, `tag`). The
    /// executor folds each series' sorted point vectors straight off the
    /// store (the hits of its [`ScanSpec`], in rank order) into mergeable
    /// accumulators addressed `class × grid slot` — a class being the series
    /// whose key values share a group key (resolved once per series), a slot
    /// a timestamp of the class's sorted grid: no row materialization, no
    /// key rendered or probed per point — and merges the morsels' blocks
    /// slot by slot in morsel order, so results stay bit-exact with the
    /// serial and reference engines (`exec/scan_aggregate.rs`).
    ScanAggregate {
        /// What is read — moved here from the `TsdbScan` the rule absorbed.
        scan: ScanSpec,
        /// Residual predicates (outermost first) the scan could not
        /// absorb; evaluated per series / per point before aggregation.
        filters: Vec<Expr>,
        /// GROUP BY key expressions (empty = one global group).
        group_by: Vec<Expr>,
        /// `(expression, output name)` pairs: group keys or plain
        /// aggregate calls (the eligibility analysis guarantees this).
        items: Vec<(Expr, String)>,
        /// Hidden ORDER BY keys, same shape restrictions as `items`.
        hidden: Vec<Expr>,
    },
    /// Stage two of the paper's pipeline: the root of a `CREATE FAMILY`
    /// plan (never anywhere else). Executes its input to a table and
    /// pivots it into family frames (the table pivot, `pivot.rs`)
    /// — the path every stage-one shape can take.
    Pivot {
        /// The stage-one query.
        input: Box<LogicalPlan>,
        /// Layout and role columns.
        spec: PivotSpec,
    },
    /// A long [`LogicalPlan::Pivot`] fused with the bare
    /// [`LogicalPlan::TsdbScan`] under it: produced by the optimizer when
    /// the timestamp and value roles are the scan's own columns and the
    /// family and feature labels are expressions over its per-series
    /// constants (`metric_name`, `tag`) with no residual filter in
    /// between. The executor resolves both labels once per series and
    /// writes each series' decoded spans straight into the family
    /// matrices — no row is ever materialized.
    ScanPivot {
        /// What is read — moved here from the `TsdbScan` the rule absorbed.
        scan: ScanSpec,
        /// Family label, over `metric_name` / `tag` only.
        family: Expr,
        /// Feature label, over `metric_name` / `tag` only.
        feature: Expr,
    },
    /// A wide [`LogicalPlan::Pivot`] fused with the
    /// [`LogicalPlan::ScanAggregate`] under it: produced by the optimizer
    /// when the ts role is the bare `timestamp` key, the family role the
    /// only class key (or neither exists: a single-family pivot), every
    /// other output a bare aggregate call and no key hidden. The executor
    /// builds each family's frame from its classes' finished aggregate
    /// columns — no group order, no row table, no table pivot.
    ScanAggregatePivot {
        /// The `ScanAggregate` the rule absorbed, as rule 7 left it.
        aggregate: Box<LogicalPlan>,
        /// Layout (wide) and role columns.
        spec: PivotSpec,
    },
}

/// The observation schema of a TSDB-bound table.
pub const TSDB_COLUMNS: [&str; 4] = ["timestamp", "metric_name", "tag", "value"];

/// The output column names of a `TsdbScan` with the given pruning.
pub(crate) fn tsdb_scan_columns(columns: &Option<Vec<usize>>) -> Vec<String> {
    match columns {
        None => TSDB_COLUMNS.iter().map(|s| s.to_string()).collect(),
        Some(idx) => idx.iter().map(|&i| TSDB_COLUMNS[i].to_string()).collect(),
    }
}

/// The relation a `CREATE FAMILY` statement answers with: one row per
/// registered family (what [`LogicalPlan::schema`] reports for a pivot).
pub const FAMILY_COLUMNS: [&str; 3] = ["family", "rows", "features"];

impl LogicalPlan {
    /// Rebuilds this node with `f` applied to each input plan, left to
    /// right, stopping at the first error: the one statement of which node
    /// has which inputs (`render_into`, `schema`, the verifier and the
    /// executor read them with per-node logic of their own). A rule that has
    /// nothing to say about a node — `Limit`, say — never names it.
    pub(crate) fn try_map_inputs<E>(
        self,
        f: &mut impl FnMut(LogicalPlan) -> std::result::Result<LogicalPlan, E>,
    ) -> std::result::Result<LogicalPlan, E> {
        let mut boxed = |p: Box<LogicalPlan>| f(*p).map(Box::new);
        Ok(match self {
            LogicalPlan::Alias { input, alias } => {
                LogicalPlan::Alias { input: boxed(input)?, alias }
            }
            LogicalPlan::Filter { input, predicate } => {
                LogicalPlan::Filter { input: boxed(input)?, predicate }
            }
            LogicalPlan::Project { input, items, hidden } => {
                LogicalPlan::Project { input: boxed(input)?, items, hidden }
            }
            LogicalPlan::Aggregate { input, group_by, items, hidden } => {
                LogicalPlan::Aggregate { input: boxed(input)?, group_by, items, hidden }
            }
            LogicalPlan::Join { left, right, kind, on } => {
                let left = boxed(left)?;
                LogicalPlan::Join { left, right: boxed(right)?, kind, on }
            }
            LogicalPlan::Sort { input, keys, output_width } => {
                LogicalPlan::Sort { input: boxed(input)?, keys, output_width }
            }
            LogicalPlan::Limit { input, n } => LogicalPlan::Limit { input: boxed(input)?, n },
            LogicalPlan::Union { inputs } => {
                let inputs = inputs.into_iter().map(f).collect::<std::result::Result<_, E>>()?;
                LogicalPlan::Union { inputs }
            }
            LogicalPlan::Pivot { input, spec } => LogicalPlan::Pivot { input: boxed(input)?, spec },
            leaf @ (LogicalPlan::Scan { .. }
            | LogicalPlan::TsdbScan { .. }
            | LogicalPlan::Unit
            | LogicalPlan::ScanAggregate { .. }
            | LogicalPlan::ScanPivot { .. }
            | LogicalPlan::ScanAggregatePivot { .. }) => leaf,
        })
    }

    /// [`LogicalPlan::try_map_inputs`] for a rewrite that cannot fail.
    pub(crate) fn map_inputs(self, f: &mut impl FnMut(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
        let mapped = self.try_map_inputs(&mut |p| Ok::<_, std::convert::Infallible>(f(p)));
        mapped.unwrap_or_else(|never| match never {})
    }

    /// The visible output schema of this plan.
    pub fn schema(&self, catalog: &Catalog) -> Result<Schema> {
        match self {
            LogicalPlan::Scan { table } => {
                catalog.schema_of(table).ok_or_else(|| QueryError::UnknownTable(table.clone()))
            }
            LogicalPlan::TsdbScan { columns, .. } => Ok(Schema::new(tsdb_scan_columns(columns))),
            LogicalPlan::Unit => Ok(Schema::default()),
            LogicalPlan::Alias { input, alias } => Ok(input.schema(catalog)?.qualified(alias)),
            LogicalPlan::Filter { input, .. } | LogicalPlan::Limit { input, .. } => {
                input.schema(catalog)
            }
            LogicalPlan::Project { items, .. }
            | LogicalPlan::Aggregate { items, .. }
            | LogicalPlan::ScanAggregate { items, .. } => {
                Ok(Schema::new(items.iter().map(|(_, n)| n.clone()).collect()))
            }
            LogicalPlan::Join { left, right, .. } => {
                let mut cols = left.schema(catalog)?.columns().to_vec();
                cols.extend(right.schema(catalog)?.columns().iter().cloned());
                Ok(Schema::new(cols))
            }
            LogicalPlan::Sort { input, .. } => input.schema(catalog),
            LogicalPlan::Pivot { .. }
            | LogicalPlan::ScanPivot { .. }
            | LogicalPlan::ScanAggregatePivot { .. } => {
                Ok(Schema::new(FAMILY_COLUMNS.iter().map(|s| s.to_string()).collect()))
            }
            LogicalPlan::Union { inputs } => inputs
                .first()
                .ok_or_else(|| QueryError::Plan("empty UNION".into()))?
                .schema(catalog),
        }
    }
}

/// Lowers a parsed query to a logical plan (no optimization applied).
pub fn build(catalog: &Catalog, query: &Query) -> Result<LogicalPlan> {
    let mut parts = Vec::with_capacity(query.selects.len());
    for select in &query.selects {
        parts.push(build_select(catalog, select)?);
    }
    match parts.len() {
        0 => Err(QueryError::Plan("query has no SELECT".into())),
        1 => Ok(parts.pop().expect("one part")), // invariant: length checked by the match arm
        _ => Ok(LogicalPlan::Union { inputs: parts }),
    }
}

/// Lowers a `CREATE FAMILY` statement: its stage-one query under a
/// [`LogicalPlan::Pivot`] root. The `WITH (...)` options are read here, so
/// an unknown option or layout fails before anything runs.
pub fn build_family(catalog: &Catalog, cf: &CreateFamily) -> Result<LogicalPlan> {
    let spec = PivotSpec::parse(cf)?;
    Ok(LogicalPlan::Pivot { input: Box::new(build(catalog, &cf.query)?), spec })
}

fn table_ref_plan(catalog: &Catalog, tref: &TableRef) -> Result<LogicalPlan> {
    match tref {
        TableRef::Named { name, .. } => Ok(LogicalPlan::Scan { table: name.clone() }),
        TableRef::Subquery { query, .. } => build(catalog, query),
    }
}

fn build_select(catalog: &Catalog, select: &SelectStmt) -> Result<LogicalPlan> {
    // ---- FROM + JOINs ----------------------------------------------------
    let mut plan = match &select.from {
        Some(tref) => {
            let base = table_ref_plan(catalog, tref)?;
            if select.joins.is_empty() {
                base
            } else {
                let scope = tref
                    .scope_name()
                    .ok_or_else(|| QueryError::Plan("subquery in a join needs an alias".into()))?;
                LogicalPlan::Alias { input: Box::new(base), alias: scope.to_string() }
            }
        }
        None => LogicalPlan::Unit,
    };
    for join in &select.joins {
        let right = table_ref_plan(catalog, &join.table)?;
        let scope = join
            .table
            .scope_name()
            .ok_or_else(|| QueryError::Plan("joined subquery needs an alias".into()))?;
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(LogicalPlan::Alias {
                input: Box::new(right),
                alias: scope.to_string(),
            }),
            kind: join.kind,
            on: join.on.clone(),
        };
    }

    // ---- WHERE -----------------------------------------------------------
    if let Some(pred) = &select.where_clause {
        plan = LogicalPlan::Filter { input: Box::new(plan), predicate: pred.clone() };
    }

    // ---- projection / aggregation ----------------------------------------
    let has_aggregates = select.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
        SelectItem::Wildcard => false,
    });
    let grouped = !select.group_by.is_empty() || has_aggregates;

    let mut items: Vec<(Expr, String)> = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                if grouped {
                    return Err(QueryError::Plan(
                        "SELECT * cannot be combined with GROUP BY".into(),
                    ));
                }
                let input_schema = plan.schema(catalog)?;
                for c in input_schema.columns() {
                    items.push((Expr::Column(c.clone()), c.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| expr.default_name());
                items.push((expr.clone(), name));
            }
        }
    }

    // ---- ORDER BY keys ---------------------------------------------------
    // An ORDER BY column that resolves in the output schema sorts on the
    // projected value; anything else becomes a hidden key evaluated against
    // the projection input (per-group for aggregates).
    let out_names = Schema::new(items.iter().map(|(_, n)| n.clone()).collect());
    let mut keys: Vec<(usize, bool)> = Vec::new();
    let mut hidden: Vec<Expr> = Vec::new();
    for ok in &select.order_by {
        let slot = match &ok.expr {
            Expr::Column(name) => out_names.resolve(name).ok(),
            _ => None,
        };
        let idx = match slot {
            Some(i) => i,
            None => {
                hidden.push(ok.expr.clone());
                items.len() + hidden.len() - 1
            }
        };
        keys.push((idx, ok.ascending));
    }
    let output_width = items.len();

    plan = if grouped {
        LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by: select.group_by.clone(),
            items,
            hidden,
        }
    } else {
        LogicalPlan::Project { input: Box::new(plan), items, hidden }
    };

    if !keys.is_empty() {
        plan = LogicalPlan::Sort { input: Box::new(plan), keys, output_width };
    }
    if let Some(n) = select.limit {
        plan = LogicalPlan::Limit { input: Box::new(plan), n };
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Shared predicate helpers
// ---------------------------------------------------------------------------

/// Splits an expression on AND into its conjuncts.
pub fn collect_conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary { op: BinaryOp::And, left, right } => {
            collect_conjuncts(left, out);
            collect_conjuncts(right, out);
        }
        other => out.push(other.clone()),
    }
}

/// Joins conjuncts back into one AND expression (`None` when empty).
pub fn conjoin(conjuncts: Vec<Expr>) -> Option<Expr> {
    let mut it = conjuncts.into_iter();
    let first = it.next()?;
    Some(it.fold(first, |acc, c| Expr::Binary {
        op: BinaryOp::And,
        left: Box::new(acc),
        right: Box::new(c),
    }))
}

/// Tries to decompose a join ON predicate into `l1 = r1 AND l2 = r2 AND ...`
/// with each side resolving in exactly one input. Returns parallel column
/// index lists on success.
pub fn equi_join_keys(
    on: &Expr,
    left: &Schema,
    right: &Schema,
) -> Option<(Vec<usize>, Vec<usize>)> {
    let mut conjuncts = Vec::new();
    collect_conjuncts(on, &mut conjuncts);
    let mut lk = Vec::new();
    let mut rk = Vec::new();
    for c in conjuncts {
        match c {
            Expr::Binary { op: BinaryOp::Eq, left: a, right: b } => {
                let (Expr::Column(ca), Expr::Column(cb)) = (a.as_ref(), b.as_ref()) else {
                    return None;
                };
                let (la, ra) = (left.resolve(ca).ok(), right.resolve(ca).ok());
                let (lb, rb) = (left.resolve(cb).ok(), right.resolve(cb).ok());
                match (la, rb, ra, lb) {
                    // a on the left, b on the right (only unambiguous splits).
                    (Some(l), Some(r), None, None) => {
                        lk.push(l);
                        rk.push(r);
                    }
                    (None, None, Some(r), Some(l)) => {
                        lk.push(l);
                        rk.push(r);
                    }
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    if lk.is_empty() {
        None
    } else {
        Some((lk, rk))
    }
}

// ---------------------------------------------------------------------------
// EXPLAIN rendering
// ---------------------------------------------------------------------------

/// Renders a plan as an indented tree, one node per line.
pub fn render(plan: &LogicalPlan) -> String {
    render_with(plan, None)
}

/// [`render`] with an optional catalog for static refinement annotations:
/// each `Filter` node in a scan-rooted chain is tagged with the
/// [`FilterClass`] the executor will evaluate it as, decided *statically*
/// by the evaluator's own classifier ([`crate::veval::classify`]):
///
/// * `refine=dict` — references only the dictionary-encoded
///   `metric_name`/`tag` columns; evaluated once per distinct series.
/// * `refine=kernel` — a column compared against literals (comparison,
///   `BETWEEN`, `IS NULL`, `IN`), refining the selection vector with typed
///   branch-free loops ([`crate::kernel`]) straight off the column
///   slices: `timestamp`/`value` on a TSDB scan, or (on a registered
///   table) columns that all inferred to non-null `Int`/`Float`
///   ([`crate::types`]).
/// * `refine=general` — evaluated over the gathered surviving rows.
pub fn render_with(plan: &LogicalPlan, catalog: Option<&Catalog>) -> String {
    let mut out = String::new();
    render_into(plan, 0, catalog, &mut out);
    out
}

/// The `refine=` class of one filter predicate, or `None` when the chain
/// source is not a scan (derived columns — no static story to tell).
fn refine_class(predicate: &Expr, source: &LogicalPlan, catalog: &Catalog) -> Option<FilterClass> {
    match source {
        LogicalPlan::TsdbScan { .. } => Some(crate::optimize::tsdb_filter_class(predicate)),
        LogicalPlan::Scan { table } => {
            let types = crate::types::base_table_types(catalog, table).ok()?;
            let numeric =
                |c: &str| types.resolve(c).is_ok_and(|info| !info.nullable && info.ty.is_numeric());
            Some(crate::veval::classify(predicate, &|_| false, &numeric))
        }
        _ => None,
    }
}

fn push_line(out: &mut String, depth: usize, line: &str) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(line);
    out.push('\n');
}

fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Literal(v) => match v {
            crate::value::Value::Str(s) => format!("'{s}'"),
            other => other.render(),
        },
        Expr::Column(c) => c.clone(),
        Expr::Binary { op, left, right } => {
            let op = match op {
                BinaryOp::Or => "OR",
                BinaryOp::And => "AND",
                BinaryOp::Eq => "=",
                BinaryOp::NotEq => "!=",
                BinaryOp::Lt => "<",
                BinaryOp::LtEq => "<=",
                BinaryOp::Gt => ">",
                BinaryOp::GtEq => ">=",
                BinaryOp::Add => "+",
                BinaryOp::Sub => "-",
                BinaryOp::Mul => "*",
                BinaryOp::Div => "/",
                BinaryOp::Mod => "%",
                BinaryOp::Like => "LIKE",
                BinaryOp::Glob => "GLOB",
            };
            format!("({} {} {})", render_expr(left), op, render_expr(right))
        }
        Expr::Unary { op, operand } => match op {
            crate::ast::UnaryOp::Neg => format!("(-{})", render_expr(operand)),
            crate::ast::UnaryOp::Not => format!("(NOT {})", render_expr(operand)),
        },
        Expr::Function { name, args } => format!("{name}({})", render_list(args)),
        Expr::Index { container, index } => {
            format!("{}[{}]", render_expr(container), render_expr(index))
        }
        Expr::InList { expr, list, negated } => {
            let not = if *negated { " NOT" } else { "" };
            format!("({}{} IN ({}))", render_expr(expr), not, render_list(list))
        }
        Expr::Between { expr, low, high, negated } => {
            let not = if *negated { " NOT" } else { "" };
            format!(
                "({}{} BETWEEN {} AND {})",
                render_expr(expr),
                not,
                render_expr(low),
                render_expr(high)
            )
        }
        Expr::IsNull { expr, negated } => {
            let not = if *negated { " NOT" } else { "" };
            format!("({} IS{} NULL)", render_expr(expr), not)
        }
        Expr::Case { .. } => "CASE ... END".to_string(),
    }
}

fn render_list(exprs: &[Expr]) -> String {
    exprs.iter().map(render_expr).collect::<Vec<_>>().join(", ")
}

/// How `Project`, `Aggregate` and `ScanAggregate` lines end: `[e AS name,
/// ..]`, then ` hidden=[..]` when ORDER BY keys ride along.
fn render_outputs(items: &[(Expr, String)], hidden: &[Expr]) -> String {
    let cols: Vec<String> =
        items.iter().map(|(e, n)| format!("{} AS {n}", render_expr(e))).collect();
    let hidden = match hidden {
        [] => String::new(),
        keys => format!(" hidden=[{}]", render_list(keys)),
    };
    format!("[{}]{hidden}", cols.join(", "))
}

fn render_into(plan: &LogicalPlan, depth: usize, catalog: Option<&Catalog>, out: &mut String) {
    match plan {
        LogicalPlan::Scan { table } => push_line(out, depth, &format!("Scan {table}")),
        LogicalPlan::TsdbScan { scan, columns } => {
            let mut line = format!("TsdbScan {scan}");
            if let Some(cols) = columns {
                let names: Vec<&str> = cols.iter().map(|&i| TSDB_COLUMNS[i]).collect();
                line.push_str(&format!(" columns=[{}]", names.join(", ")));
            }
            push_line(out, depth, &line);
        }
        LogicalPlan::Unit => push_line(out, depth, "Unit"),
        LogicalPlan::Alias { input, alias } => {
            push_line(out, depth, &format!("Alias {alias}"));
            render_into(input, depth + 1, catalog, out);
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut line = format!("Filter {}", render_expr(predicate));
            if let Some(class) =
                catalog.and_then(|c| refine_class(predicate, peel_filter_chain(input).1, c))
            {
                line.push_str(&format!(" refine={}", class.name()));
            }
            push_line(out, depth, &line);
            render_into(input, depth + 1, catalog, out);
        }
        LogicalPlan::Project { input, items, hidden } => {
            push_line(out, depth, &format!("Project {}", render_outputs(items, hidden)));
            render_into(input, depth + 1, catalog, out);
        }
        LogicalPlan::Aggregate { input, group_by, items, hidden } => {
            let (keys, outputs) = (render_list(group_by), render_outputs(items, hidden));
            push_line(out, depth, &format!("Aggregate group=[{keys}] items={outputs}"));
            render_into(input, depth + 1, catalog, out);
        }
        LogicalPlan::Join { left, right, kind, on } => {
            let kind = match kind {
                JoinKind::Inner => "Inner",
                JoinKind::Left => "Left",
                JoinKind::FullOuter => "FullOuter",
            };
            push_line(out, depth, &format!("Join {kind} on {}", render_expr(on)));
            render_into(left, depth + 1, catalog, out);
            render_into(right, depth + 1, catalog, out);
        }
        LogicalPlan::Sort { input, keys, .. } => {
            let keys: Vec<String> = keys
                .iter()
                .map(|(i, asc)| format!("#{i} {}", if *asc { "ASC" } else { "DESC" }))
                .collect();
            push_line(out, depth, &format!("Sort [{}]", keys.join(", ")));
            render_into(input, depth + 1, catalog, out);
        }
        LogicalPlan::Limit { input, n } => {
            push_line(out, depth, &format!("Limit {n}"));
            render_into(input, depth + 1, catalog, out);
        }
        LogicalPlan::Union { inputs } => {
            push_line(out, depth, "Union");
            for i in inputs {
                render_into(i, depth + 1, catalog, out);
            }
        }
        LogicalPlan::Pivot { input, spec } => {
            let schema = catalog.and_then(|c| input.schema(c).ok());
            push_line(out, depth, &format!("Pivot {}", spec.describe(schema.as_ref())));
            render_into(input, depth + 1, catalog, out);
        }
        LogicalPlan::ScanPivot { scan, family, feature } => {
            let (family, feature) = (render_expr(family), render_expr(feature));
            let roles = format!("ts=timestamp family={family} feature={feature} value=value");
            push_line(out, depth, &format!("ScanPivot {scan} layout=long {roles}"));
        }
        LogicalPlan::ScanAggregate { .. } => {
            push_line(out, depth, &format!("ScanAggregate {}", scan_aggregate_attrs(plan, None)));
        }
        LogicalPlan::ScanAggregatePivot { aggregate, spec } => {
            let attrs = scan_aggregate_attrs(aggregate, Some(spec));
            push_line(out, depth, &format!("ScanAggregatePivot {attrs}"));
        }
    }
}

/// A scan aggregate's line after its name: the scan, the residual filters,
/// the pivot's roles when it fused with one, then keys and outputs.
fn scan_aggregate_attrs(plan: &LogicalPlan, pivot: Option<&PivotSpec>) -> String {
    let LogicalPlan::ScanAggregate { scan, filters, group_by, items, hidden } = plan else {
        return "?".to_string();
    };
    let mut line = scan.to_string();
    if !filters.is_empty() {
        line.push_str(&format!(" where=[{}]", render_list(filters)));
    }
    if let Some(spec) = pivot {
        let schema = Schema::new(items.iter().map(|(_, n)| n.clone()).collect());
        line.push_str(&format!(" {}", spec.describe(Some(&schema))));
    }
    let (keys, outputs) = (render_list(group_by), render_outputs(items, hidden));
    format!("{line} group=[{keys}] items={outputs}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::table::Table;
    use crate::value::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "t",
            Table::from_rows(&["ts", "v"], vec![vec![Value::Int(0), Value::Float(1.0)]]),
        );
        c
    }

    #[test]
    fn select_lowers_to_project_over_scan() {
        let c = catalog();
        let q = parse_query("SELECT v FROM t WHERE ts > 0").unwrap();
        let p = build(&c, &q).unwrap();
        match p {
            LogicalPlan::Project { input, items, .. } => {
                assert_eq!(items.len(), 1);
                assert!(matches!(*input, LogicalPlan::Filter { .. }));
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn aggregate_and_sort_nodes() {
        let c = catalog();
        let q = parse_query("SELECT ts, AVG(v) AS m FROM t GROUP BY ts ORDER BY m DESC LIMIT 3")
            .unwrap();
        let p = build(&c, &q).unwrap();
        let LogicalPlan::Limit { input, n } = p else { panic!("expected limit") };
        assert_eq!(n, 3);
        let LogicalPlan::Sort { input, keys, output_width } = *input else {
            panic!("expected sort")
        };
        assert_eq!(keys, vec![(1, false)]); // alias m resolves to output col 1
        assert_eq!(output_width, 2);
        assert!(matches!(*input, LogicalPlan::Aggregate { .. }));
    }

    #[test]
    fn order_by_non_projected_column_becomes_hidden_key() {
        let c = catalog();
        let q = parse_query("SELECT v FROM t ORDER BY ts").unwrap();
        let p = build(&c, &q).unwrap();
        let LogicalPlan::Sort { input, keys, output_width } = p else { panic!("expected sort") };
        assert_eq!(keys, vec![(1, true)]); // hidden key appended after 1 item
        assert_eq!(output_width, 1);
        let LogicalPlan::Project { hidden, .. } = *input else { panic!("expected project") };
        assert_eq!(hidden, vec![Expr::col("ts")]);
    }

    #[test]
    fn wildcard_expands_against_input_schema() {
        let c = catalog();
        let q = parse_query("SELECT * FROM t").unwrap();
        let p = build(&c, &q).unwrap();
        let LogicalPlan::Project { items, .. } = p else { panic!("expected project") };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].1, "ts");
    }

    #[test]
    fn joins_wrap_sides_in_alias_scopes() {
        let mut c = catalog();
        c.register("u", Table::from_rows(&["ts", "w"], vec![]));
        let q = parse_query("SELECT t.v FROM t JOIN u ON t.ts = u.ts").unwrap();
        let p = build(&c, &q).unwrap();
        let LogicalPlan::Project { input, .. } = p else { panic!("expected project") };
        let LogicalPlan::Join { left, right, .. } = *input else { panic!("expected join") };
        assert!(matches!(*left, LogicalPlan::Alias { ref alias, .. } if alias == "t"));
        assert!(matches!(*right, LogicalPlan::Alias { ref alias, .. } if alias == "u"));
    }

    #[test]
    fn union_node_wraps_selects() {
        let c = catalog();
        let q = parse_query("SELECT v FROM t UNION ALL SELECT v FROM t").unwrap();
        let p = build(&c, &q).unwrap();
        assert!(matches!(p, LogicalPlan::Union { ref inputs } if inputs.len() == 2));
    }

    #[test]
    fn render_is_indented() {
        let c = catalog();
        let q = parse_query("SELECT v FROM t WHERE ts > 0").unwrap();
        let p = build(&c, &q).unwrap();
        let s = render(&p);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("Project"));
        assert!(lines[1].starts_with("  Filter"));
        assert!(lines[2].starts_with("    Scan t"));
    }
}
