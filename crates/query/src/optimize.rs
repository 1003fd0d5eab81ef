//! Rule-based plan optimizer.
//!
//! The rewrites, in the order [`optimize`] runs them (the plan verifier
//! checks the tree after each, by name):
//!
//! 1. **Constant folding** (`fold_constants`) — literal-only
//!    subexpressions are evaluated at plan time (`1 + 2` → `3`), plus
//!    boolean shortcuts (`TRUE AND x` → `x`, `FALSE AND x` → `FALSE`).
//! 2. **TSDB scan conversion** (`convert_tsdb_scans`) — a
//!    [`LogicalPlan::Scan`] of a table bound via
//!    [`Catalog::register_tsdb`] becomes a [`LogicalPlan::TsdbScan`] over
//!    [`ScanSpec::all`] of it.
//! 3. **Predicate pushdown** (`pushdown`) — WHERE conjuncts sink through
//!    Alias and Project nodes (with alias substitution), into the matching
//!    side of a Join, through Aggregate group keys, and finally *into* the
//!    scan's [`ScanSpec`]: `metric_name = '…'` / `GLOB` / `LIKE` become its
//!    name pattern (an inverted-index lookup, or a range scan of the name
//!    index over the pattern's literal prefix), `tag['k'] = 'v'` /
//!    `tag['k'] IS [NOT] NULL` become tag-index predicates, and `timestamp`
//!    comparisons become its time range — so the store is never
//!    materialized wholesale. The name slot is a *pattern*: an equality
//!    whose literal holds `*` / `?` would change meaning there and stays a
//!    residual filter, as a `LIKE` pattern holding them does. Nothing sinks
//!    below a projection that holds a window call (it would shrink the
//!    window).
//!    The residual conjuncts left above a `TsdbScan` are ordered by
//!    [`FilterClass`], cheapest innermost: per-series-constant predicates
//!    (over the dictionary-encoded `metric_name`/`tag` columns only) drop
//!    a whole series for the cost of one evaluation before any per-point
//!    work runs, then kernel-refinable point predicates, then the rest.
//! 4. **Projection pruning** (`prune`) — TSDB scans only materialize the
//!    observation columns the rest of the plan references (skipping
//!    per-row tag-map clones when `tag` is never read).
//! 5. **Identity projection elision** (`elide_identity_projects`) — a
//!    `Project` with no hidden keys whose items are exactly its input's
//!    columns, in order, under the same names, is dropped: `SELECT
//!    timestamp, metric_name, tag, value FROM tsdb` is a bare `TsdbScan`.
//! 6. **Scan pivot** (`scan_pivot`) — the root of a `CREATE FAMILY` plan is
//!    a [`LogicalPlan::Pivot`]; over a bare `TsdbScan` (pushed name / tag /
//!    time predicates are fine, a residual `Filter` is not; a `Project` of
//!    plain columns and label expressions is looked through) whose roles
//!    resolve to ts → `timestamp`, value → `value` and family / feature →
//!    expressions over the per-series constants `metric_name` / `tag`, a
//!    long pivot and its scan fuse into one [`LogicalPlan::ScanPivot`], the
//!    scan's `ScanSpec` moved into it: the executor goes from series to
//!    family matrices without a row in between. Every other shape keeps
//!    `Pivot` over its ordinary plan.
//! 7. **Scan-level aggregate pushdown** (`scan_aggregate`) — an
//!    `Aggregate` (above pushed-down `Filter`s) sitting directly on a
//!    `TsdbScan` collapses into a single [`LogicalPlan::ScanAggregate`]
//!    node (holding the scan's `ScanSpec`) when every group key is the `timestamp` column or an expression
//!    over the dictionary-encoded scan columns (`metric_name`, `tag`) and
//!    every output is an expression over group keys and mergeable
//!    aggregates of observation columns. The executor then pre-aggregates
//!    per series straight off the store's sorted point vectors — no row
//!    materialization at all. Joins, UNION branches, non-dict group keys,
//!    outputs that read a non-key column and window calls fall back to the
//!    ordinary pipeline (which the differential harness reaches by
//!    registering the same observations as a plain table).
//! 8. **Scan aggregate pivot** (`scan_aggregate_pivot`) — a wide `Pivot`
//!    root over a `ScanAggregate` whose roles resolve to ts → the bare
//!    `timestamp` key and family → the only class key (or, for a
//!    single-family `into=` pivot, no family role and no class key), with
//!    every other output a bare aggregate call and no hidden key, fuses
//!    into one [`LogicalPlan::ScanAggregatePivot`]: the executor writes
//!    each class's finished aggregate columns into its family's frame,
//!    with no group order, row table or table pivot in between. The
//!    decision is the plan's shape alone; every other shape keeps `Pivot`.
//!
//! There is no parallelization rule and no cardinality estimate: every
//! operator splits its input into morsels by size at run time, and the
//! hash join builds over whichever materialised input is shorter.
//!
//! Which node has which inputs, and which expression which children, is
//! stated once each — `LogicalPlan::map_inputs` (`try_map_inputs` where a
//! rule can fail) and `Expr::map_children` / `Expr::walk` — and every
//! recursion here is a rule's own logic plus one call of those; a rule with
//! nothing to say about a node does not name it. Only
//! `eval::map_grouped` descends part of the way on purpose: where it stops *is*
//! the definition of group context.

use std::collections::HashSet;

use explainit_tsdb::{is_glob, TagFilter};

use crate::ast::{BinaryOp, Expr, JoinKind};
use crate::catalog::Catalog;
use crate::eval::map_grouped;
use crate::functions::{is_aggregate, is_window};
use crate::pivot::{Layout, PivotSpec};
use crate::plan::{collect_conjuncts, conjoin, LogicalPlan, ScanSpec, TSDB_COLUMNS};
use crate::table::Schema;
use crate::value::Value;
use crate::veval::{self, FilterClass};
use crate::Result;

/// Applies all rewrite rules. The [`crate::verify`] invariant checks run
/// after every rule in debug builds, and in release builds when the
/// `EXPLAINIT_VERIFY_PLANS` environment variable is set.
pub fn optimize(plan: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    let verify = cfg!(debug_assertions) || crate::verify::env_forced();
    let planned = if verify {
        crate::verify::stage_one(&plan).and_then(|p| p.schema(catalog).ok())
    } else {
        None
    };
    let check = |rule: &'static str, plan: &LogicalPlan| -> Result<()> {
        if verify {
            crate::verify::check_after(rule, plan, planned.as_ref(), catalog)
        } else {
            Ok(())
        }
    };
    let plan = map_exprs(plan, &fold_expr);
    check("fold_constants", &plan)?;
    let plan = convert_tsdb_scans(plan, catalog);
    check("convert_tsdb_scans", &plan)?;
    let plan = pushdown(plan, catalog)?;
    check("pushdown", &plan)?;
    let plan = prune(plan, None);
    check("prune", &plan)?;
    let plan = elide_identity_projects(plan, catalog);
    check("elide_identity_projects", &plan)?;
    let plan = fuse_scan_pivot(plan);
    check("scan_pivot", &plan)?;
    let plan = push_aggregates_into_scans(plan);
    check("scan_aggregate", &plan)?;
    let plan = fuse_scan_aggregate_pivot(plan);
    check("scan_aggregate_pivot", &plan)?;
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Rule 1: constant folding
// ---------------------------------------------------------------------------

/// Applies `f` to every expression a node holds, at every node.
fn map_exprs(plan: LogicalPlan, f: &impl Fn(Expr) -> Expr) -> LogicalPlan {
    let each = |exprs: Vec<Expr>| exprs.into_iter().map(f).collect();
    let named = |items: Vec<(Expr, String)>| items.into_iter().map(|(e, n)| (f(e), n)).collect();
    let plan = match plan {
        LogicalPlan::Filter { input, predicate } => {
            LogicalPlan::Filter { input, predicate: f(predicate) }
        }
        LogicalPlan::Project { input, items, hidden } => {
            LogicalPlan::Project { input, items: named(items), hidden: each(hidden) }
        }
        LogicalPlan::Aggregate { input, group_by, items, hidden } => LogicalPlan::Aggregate {
            input,
            group_by: each(group_by),
            items: named(items),
            hidden: each(hidden),
        },
        LogicalPlan::Join { left, right, kind, on } => {
            LogicalPlan::Join { left, right, kind, on: f(on) }
        }
        // The fused scan nodes come out of rules 6 and 7, after the one
        // pass that maps expressions (rule 1).
        other => other,
    };
    plan.map_inputs(&mut |input| map_exprs(input, f))
}

/// True when the whole subtree is literal (safe to evaluate at plan time).
fn is_const(expr: &Expr) -> bool {
    let mut constant = true;
    expr.walk(&mut |e| {
        constant &= match e {
            Expr::Column(_) => false,
            Expr::Function { name, .. } => !is_aggregate(name) && !is_window(name),
            _ => true,
        }
    });
    constant
}

/// Folds constants bottom-up. Expressions that error at plan time (e.g.
/// `'a' + 1`) are left intact so the runtime error surface is unchanged.
pub fn fold_expr(expr: Expr) -> Expr {
    let expr = match expr.map_children(&mut fold_expr) {
        // Boolean shortcuts (sound under three-valued logic): `unit` is the
        // operand that leaves the other side standing (`TRUE AND x` → `x`),
        // its negation the one that decides the result alone.
        Expr::Binary { op: op @ (BinaryOp::And | BinaryOp::Or), left, right } => {
            let unit = op == BinaryOp::And;
            let is = |e: &Expr, b: bool| matches!(e, Expr::Literal(Value::Bool(v)) if *v == b);
            if is(&left, unit) {
                return *right;
            }
            if is(&right, unit) {
                return *left;
            }
            if is(&left, !unit) || is(&right, !unit) {
                return Expr::Literal(Value::Bool(!unit));
            }
            Expr::Binary { op, left, right }
        }
        other => other,
    };
    if matches!(expr, Expr::Literal(_)) || !is_const(&expr) {
        return expr;
    }
    match veval::eval_const(&expr) {
        Ok(v) => Expr::Literal(v),
        Err(_) => expr, // leave runtime errors to the runtime
    }
}

// ---------------------------------------------------------------------------
// Rule 2: TSDB scan conversion
// ---------------------------------------------------------------------------

fn convert_tsdb_scans(plan: LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    map_plan(plan, &|node| match node {
        LogicalPlan::Scan { table } if catalog.is_tsdb(&table) => {
            LogicalPlan::TsdbScan { scan: ScanSpec::all(table), columns: None }
        }
        other => other,
    })
}

/// Bottom-up structural rewrite.
fn map_plan(plan: LogicalPlan, f: &impl Fn(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    f(plan.map_inputs(&mut |input| map_plan(input, f)))
}

// ---------------------------------------------------------------------------
// Rule 3: predicate pushdown
// ---------------------------------------------------------------------------

fn pushdown(plan: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    match plan.try_map_inputs(&mut |input| pushdown(input, catalog))? {
        LogicalPlan::Filter { input, predicate } => sink_filter(predicate, *input, catalog),
        other => Ok(other),
    }
}

/// Rewrites column references via `f` (also used by the scan operators to
/// substitute per-series constants into expressions).
pub(crate) fn map_columns(expr: Expr, f: &impl Fn(String) -> Expr) -> Expr {
    match expr {
        Expr::Column(c) => f(c),
        other => other.map_children(&mut |child| map_columns(child, f)),
    }
}

/// A column name without its leading `alias.` qualifier, if it has that one.
fn unqualified(name: String, alias: &str) -> String {
    match name.split_once('.') {
        Some((head, tail)) if head.eq_ignore_ascii_case(alias) => tail.to_string(),
        _ => name,
    }
}

/// Sinks a filter predicate as deep as semantics allow.
fn sink_filter(pred: Expr, input: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    let mut conjuncts = Vec::new();
    collect_conjuncts(&pred, &mut conjuncts);

    match input {
        // Adjacent filters merge before sinking further.
        LogicalPlan::Filter { input, predicate } => {
            collect_conjuncts(&predicate, &mut conjuncts);
            // invariant: collect_conjuncts yields at least one conjunct
            sink_filter(conjoin(conjuncts).expect("non-empty"), *input, catalog)
        }

        // Alias is a pure rename: strip the qualifier and continue below.
        LogicalPlan::Alias { input, alias } => {
            let strip = |c| map_columns(c, &|name| Expr::Column(unqualified(name, &alias)));
            let stripped: Vec<Expr> = conjuncts.into_iter().map(strip).collect();
            Ok(LogicalPlan::Alias {
                input: Box::new(sink_filter(
                    conjoin(stripped).expect("non-empty"), // invariant: collect_conjuncts yields at least one conjunct
                    *input,
                    catalog,
                )?),
                alias,
            })
        }

        // Joins: route side-pure conjuncts to their side.
        LogicalPlan::Join { left, right, kind, on } => {
            let left_schema = left.schema(catalog)?;
            let right_schema = right.schema(catalog)?;
            let mut combined_cols = left_schema.columns().to_vec();
            combined_cols.extend(right_schema.columns().iter().cloned());
            let combined = Schema::new(combined_cols);

            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut keep = Vec::new();
            for c in conjuncts {
                if c.contains_aggregate() || c.contains_window() {
                    keep.push(c);
                    continue;
                }
                let cols = c.columns();
                // Unresolvable or ambiguous references stay above the join
                // so the runtime error surface is unchanged.
                if cols.iter().any(|n| combined.resolve(n).is_err()) {
                    keep.push(c);
                    continue;
                }
                let all_left = cols.iter().all(|n| left_schema.resolve(n).is_ok());
                let all_right = cols.iter().all(|n| right_schema.resolve(n).is_ok());
                // A LEFT/FULL OUTER join null-extends, so only sides whose
                // rows cannot be fabricated by the join accept pushdown.
                let left_ok = kind != JoinKind::FullOuter;
                let right_ok = kind == JoinKind::Inner;
                if all_left && !all_right && left_ok && !cols.is_empty() {
                    to_left.push(c);
                } else if all_right && !all_left && right_ok && !cols.is_empty() {
                    to_right.push(c);
                } else {
                    keep.push(c);
                }
            }
            let left = Box::new(sink_all(to_left, *left, catalog)?);
            let right = Box::new(sink_all(to_right, *right, catalog)?);
            Ok(filter_above(LogicalPlan::Join { left, right, kind, on }, keep))
        }

        // A window function anywhere in a projection reads the whole input
        // row set; filtering below it would shrink that window and change
        // its results, so nothing may sink through. Otherwise every output
        // is an alias to substitute.
        LogicalPlan::Project { input, items, hidden } => {
            let windowed =
                items.iter().map(|(e, _)| e).chain(hidden.iter()).any(Expr::contains_window);
            let sinkable = vec![!windowed; items.len()];
            let (input, keep) = sink_through(conjuncts, &items, &sinkable, *input, catalog)?;
            Ok(filter_above(LogicalPlan::Project { input, items, hidden }, keep))
        }

        // Aggregates: only a pure group key is the same above and below.
        LogicalPlan::Aggregate { input, group_by, items, hidden } => {
            let sinkable: Vec<bool> = items.iter().map(|(e, _)| group_by.contains(e)).collect();
            let (input, keep) = sink_through(conjuncts, &items, &sinkable, *input, catalog)?;
            Ok(filter_above(LogicalPlan::Aggregate { input, group_by, items, hidden }, keep))
        }

        // The payoff: absorb conjuncts into the TSDB scan's index lookup.
        LogicalPlan::TsdbScan { mut scan, columns } => {
            let schema = tsdb_schema();
            let mut residual = Vec::new();
            for c in conjuncts {
                if !absorb_tsdb_conjunct(&mut scan, &c, &schema) {
                    residual.push(c);
                }
            }
            // Cheapest class innermost (see [`FilterClass`]). The sort is
            // stable, so equal-cost conjuncts keep their source order, and
            // conjunction commutes, so the kept row set is unchanged.
            residual.sort_by_key(tsdb_filter_class);
            let mut plan = LogicalPlan::TsdbScan { scan, columns };
            // Wrap innermost-first: the first residual becomes the deepest
            // Filter, which every executor path applies first.
            for predicate in residual {
                plan = LogicalPlan::Filter { input: Box::new(plan), predicate };
            }
            Ok(plan)
        }

        other => Ok(LogicalPlan::Filter {
            input: Box::new(other),
            predicate: conjoin(conjuncts).expect("non-empty"), // invariant: collect_conjuncts yields at least one conjunct
        }),
    }
}

/// `input` with the conjuncts routed to it, if any, sunk into it.
fn sink_all(conjuncts: Vec<Expr>, input: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    match conjoin(conjuncts) {
        Some(p) => sink_filter(p, input, catalog),
        None => Ok(input),
    }
}

/// `node` under a `Filter` of the conjuncts that could not sink past it.
fn filter_above(node: LogicalPlan, keep: Vec<Expr>) -> LogicalPlan {
    match conjoin(keep) {
        Some(predicate) => LogicalPlan::Filter { input: Box::new(node), predicate },
        None => node,
    }
}

/// The one way through a `Project` / `Aggregate`: a conjunct all of whose
/// columns are outputs that may sink (`sinkable`, parallel to `items`) is
/// rewritten over the node's input — each output name replaced by its
/// expression — and sinks on below. Returns the new input and the conjuncts
/// that stay above the node.
fn sink_through(
    conjuncts: Vec<Expr>,
    items: &[(Expr, String)],
    sinkable: &[bool],
    input: LogicalPlan,
    catalog: &Catalog,
) -> Result<(Box<LogicalPlan>, Vec<Expr>)> {
    let out_names = Schema::new(items.iter().map(|(_, n)| n.clone()).collect());
    let output_of = |name: &str| out_names.resolve(name).ok().filter(|&i| sinkable[i]);
    let mut push = Vec::new();
    let mut keep = Vec::new();
    for c in conjuncts {
        let cols = c.columns();
        let sinks = !cols.is_empty() && cols.iter().all(|n| output_of(n).is_some());
        if sinks && !c.contains_aggregate() && !c.contains_window() {
            push.push(map_columns(c, &|name| match output_of(&name) {
                Some(i) => items[i].0.clone(),
                None => Expr::Column(name),
            }));
        } else {
            keep.push(c);
        }
    }
    Ok((Box::new(sink_all(push, input, catalog)?), keep))
}

/// True when `expr` is a reference to the named observation column.
pub(crate) fn is_tsdb_col(expr: &Expr, schema: &Schema, want: usize) -> bool {
    matches!(expr, Expr::Column(c) if schema.resolve(c).is_ok_and(|i| i == want))
}

/// `tag['k']` accessor detection; returns the key.
fn tag_access<'e>(expr: &'e Expr, schema: &Schema) -> Option<&'e str> {
    if let Expr::Index { container, index } = expr {
        if is_tsdb_col(container, schema, 2) {
            if let Expr::Literal(Value::Str(k)) = index.as_ref() {
                return Some(k);
            }
        }
    }
    None
}

fn lit_int(expr: &Expr) -> Option<i64> {
    match expr {
        Expr::Literal(Value::Int(i)) => Some(*i),
        _ => None,
    }
}

/// Tries to fold one conjunct into the scan's pushed-down predicates.
/// Returns false when the conjunct must stay as a residual filter.
fn absorb_tsdb_conjunct(scan: &mut ScanSpec, c: &Expr, schema: &Schema) -> bool {
    // The name slot holds one pattern; a second constraint stays residual.
    let mut absorb_name = |pattern: &str| {
        scan.name.is_none() && {
            scan.name = Some(pattern.to_string());
            true
        }
    };
    match c {
        Expr::Binary { op: BinaryOp::Eq, left, right } => {
            let (col_side, lit_side) = if matches!(right.as_ref(), Expr::Literal(_)) {
                (left, right)
            } else {
                (right, left)
            };
            match lit_side.as_ref() {
                // metric_name = 'x'. The slot is a pattern and the store
                // reads `*` / `?` in it as one, so a literal holding either
                // is not an equality the scan can take.
                Expr::Literal(Value::Str(s)) if is_tsdb_col(col_side, schema, 1) => {
                    !is_glob(s) && absorb_name(s)
                }
                // tag['k'] = 'v' (exact: `TagFilter::Equals`)
                Expr::Literal(Value::Str(v)) => tag_access(col_side, schema).is_some_and(|k| {
                    scan.tags.push(TagFilter::Equals(k.to_string(), v.clone()));
                    true
                }),
                // timestamp = n
                Expr::Literal(Value::Int(n)) if is_tsdb_col(col_side, schema, 0) => {
                    scan.tighten_start(*n);
                    scan.tighten_end(*n);
                    true
                }
                _ => false,
            }
        }
        // metric_name/tag['k'] GLOB 'pat' (and LIKE, translated to glob):
        // the store's find() range-scans the name index over the pattern's
        // literal prefix; tag globs become TagFilter::Glob predicates.
        Expr::Binary { op: op @ (BinaryOp::Like | BinaryOp::Glob), left, right } => {
            let Expr::Literal(Value::Str(pat)) = right.as_ref() else {
                return false;
            };
            let glob_pat = match op {
                BinaryOp::Glob => pat.clone(),
                // LIKE: `%` ≙ `*`, `_` ≙ `?` (one matcher, two alphabets).
                // Literal glob metacharacters in the pattern would change
                // meaning, so such patterns stay residual.
                _ if is_glob(pat) => return false,
                _ => pat.replace('%', "*").replace('_', "?"),
            };
            if is_tsdb_col(left, schema, 1) {
                return absorb_name(&glob_pat);
            }
            // Row semantics match exactly: a missing tag key makes the row
            // predicate NULL (dropped), and TagFilter::Glob requires the key
            // to exist.
            tag_access(left, schema).is_some_and(|k| {
                scan.tags.push(TagFilter::Glob(k.to_string(), glob_pat));
                true
            })
        }
        // timestamp BETWEEN a AND b (inclusive)
        Expr::Between { expr, low, high, negated: false } if is_tsdb_col(expr, schema, 0) => {
            let (Some(a), Some(b)) = (lit_int(low), lit_int(high)) else { return false };
            scan.tighten_start(a);
            scan.tighten_end(b);
            true
        }
        // timestamp </<=/>/>= n, either operand order.
        Expr::Binary { op, left, right }
            if matches!(op, BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq) =>
        {
            let (col_first, lit) = if is_tsdb_col(left, schema, 0) {
                (true, right)
            } else if is_tsdb_col(right, schema, 0) {
                (false, left)
            } else {
                return false;
            };
            let Some(n) = lit_int(lit) else { return false };
            // `timestamp > i64::MAX` / `< i64::MIN` are unsatisfiable;
            // saturating the strict bound would silently re-admit the
            // extreme point, so force an inverted (empty) range instead.
            let nothing = |scan: &mut ScanSpec| {
                scan.tighten_start(i64::MAX);
                scan.tighten_end(i64::MIN);
            };
            // Normalize to "timestamp OP n".
            match if col_first { *op } else { veval::flipped(*op) } {
                BinaryOp::GtEq => scan.tighten_start(n),
                BinaryOp::Gt => match n.checked_add(1) {
                    Some(lo) => scan.tighten_start(lo),
                    None => nothing(scan),
                },
                BinaryOp::LtEq => scan.tighten_end(n),
                BinaryOp::Lt => match n.checked_sub(1) {
                    Some(hi) => scan.tighten_end(hi),
                    None => nothing(scan),
                },
                _ => unreachable!(),
            }
            true
        }
        // tag['k'] IS NULL / IS NOT NULL -> tag-key absence / presence.
        Expr::IsNull { expr, negated } => tag_access(expr, schema).is_some_and(|k| {
            let key = k.to_string();
            scan.tags.push(if *negated { TagFilter::HasKey(key) } else { TagFilter::Absent(key) });
            true
        }),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Rule 4: projection pruning (TSDB scans)
// ---------------------------------------------------------------------------

/// Every column name the expressions reference.
fn names_in<'e>(exprs: impl IntoIterator<Item = &'e Expr>) -> HashSet<String> {
    exprs.into_iter().flat_map(Expr::columns).map(str::to_string).collect()
}

/// Pushes the set of referenced column names down to TSDB scans, which then
/// materialize only those observation columns. `None` = everything.
fn prune(plan: LogicalPlan, needs: Option<HashSet<String>>) -> LogicalPlan {
    let with = |needs: Option<HashSet<String>>, e: &Expr| {
        needs.map(|mut n| {
            n.extend(names_in([e]));
            n
        })
    };
    // What this node's inputs must produce.
    let needs = match &plan {
        LogicalPlan::Project { items, hidden, .. } => {
            Some(names_in(items.iter().map(|(e, _)| e).chain(hidden)))
        }
        LogicalPlan::Aggregate { group_by, items, hidden, .. } => {
            Some(names_in(items.iter().map(|(e, _)| e).chain(group_by).chain(hidden)))
        }
        LogicalPlan::Filter { predicate, .. } => with(needs, predicate),
        LogicalPlan::Join { on, .. } => with(needs, on),
        LogicalPlan::Alias { alias, .. } => {
            needs.map(|n| n.into_iter().map(|name| unqualified(name, alias)).collect())
        }
        // Positional name mapping across union branches is fragile: keep
        // all. The pivot reads every column of its input; the stage-one
        // projection under it names what the scan must produce.
        LogicalPlan::Union { .. } | LogicalPlan::Pivot { .. } => None,
        // Everything else hands its own needs on, or is a leaf.
        _ => needs,
    };
    match plan {
        LogicalPlan::TsdbScan { scan, columns } => {
            let columns = match needs {
                None => columns,
                Some(needs) => {
                    let schema = tsdb_schema();
                    let mut keep: Vec<usize> =
                        needs.iter().filter_map(|n| schema.resolve(n).ok()).collect();
                    keep.sort_unstable();
                    keep.dedup();
                    if keep.len() == TSDB_COLUMNS.len() {
                        None
                    } else if keep.is_empty() {
                        // COUNT(*)-style plans still need the row count;
                        // keep the cheapest column.
                        Some(vec![0])
                    } else {
                        Some(keep)
                    }
                }
            };
            LogicalPlan::TsdbScan { scan, columns }
        }
        other => other.map_inputs(&mut |input| prune(input, needs.clone())),
    }
}

// ---------------------------------------------------------------------------
// Rule 5: identity projection elision
// ---------------------------------------------------------------------------

/// Drops every `Project` that only restates its input: no hidden keys, and
/// the items are exactly the input's columns, in order, under the same
/// names. (A join-scope `Alias` input renames its columns, so a projection
/// over it is never an identity.) Runs after pruning, so a scan's output
/// is already down to the columns the projection lists.
fn elide_identity_projects(plan: LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    map_plan(plan, &|node| match node {
        LogicalPlan::Project { input, items, hidden }
            if hidden.is_empty()
                && input.schema(catalog).is_ok_and(|schema| {
                    schema.len() == items.len()
                        && schema.columns().iter().zip(&items).all(|(c, (e, name))| {
                            c == name && matches!(e, Expr::Column(col) if col == c)
                        })
                }) =>
        {
            *input
        }
        other => other,
    })
}

// ---------------------------------------------------------------------------
// Rule 6: scan pivot
// ---------------------------------------------------------------------------

/// Fuses a root [`LogicalPlan::Pivot`] with the bare scan under it when
/// [`scan_pivot_labels`] accepts the shape.
fn fuse_scan_pivot(plan: LogicalPlan) -> LogicalPlan {
    let LogicalPlan::Pivot { input, spec } = plan else { return plan };
    let Some((family, feature)) = scan_pivot_labels(&input, &spec) else {
        return LogicalPlan::Pivot { input, spec };
    };
    let scan = match *input {
        LogicalPlan::Project { input, .. } => *input,
        scan => scan,
    };
    let LogicalPlan::TsdbScan { scan, .. } = scan else {
        unreachable!("eligibility checked the source");
    };
    LogicalPlan::ScanPivot { scan, family, feature }
}

/// The eligibility analysis for rule 6, returning the family and feature
/// label expressions of a fusable pivot. `input` must be a `TsdbScan`,
/// bare or under one `Project` without hidden keys (so no `Filter`, `Sort`
/// or `Limit` in between); the spec must be a long layout whose roles
/// resolve against the stage-one columns to: ts → the `timestamp` column,
/// value → the `value` column, family and feature → window-free
/// expressions whose columns are all per-series constants (`metric_name`,
/// `tag`). Any further stage-one column must be a plain column reference,
/// so fusing skips nothing the table path could fail on.
pub(crate) fn scan_pivot_labels(input: &LogicalPlan, spec: &PivotSpec) -> Option<(Expr, Expr)> {
    let identity;
    let (items, scan) = match input {
        LogicalPlan::Project { input, items, hidden } if hidden.is_empty() => (items, &**input),
        scan => {
            let LogicalPlan::TsdbScan { columns, .. } = scan else { return None };
            identity = crate::plan::tsdb_scan_columns(columns)
                .into_iter()
                .map(|c| (Expr::Column(c.clone()), c))
                .collect();
            (&identity, scan)
        }
    };
    if !matches!(scan, LogicalPlan::TsdbScan { .. }) {
        return None;
    }
    let roles = spec.roles(&Schema::new(items.iter().map(|(_, n)| n.clone()).collect())).ok()?;
    let (family, (feature, value)) = (roles.family?, roles.long?);
    let obs = tsdb_schema();
    let label = |i: usize| refs_within(&items[i].0, &obs, &[1, 2]) && !items[i].0.contains_window();
    let fusable = is_tsdb_col(&items[roles.ts].0, &obs, 0)
        && is_tsdb_col(&items[value].0, &obs, 3)
        && label(family)
        && label(feature)
        && items.iter().enumerate().all(|(i, (e, _))| {
            [roles.ts, family, feature, value].contains(&i)
                || matches!(e, Expr::Column(c) if obs.resolve(c).is_ok())
        });
    fusable.then(|| (items[family].0.clone(), items[feature].0.clone()))
}

// ---------------------------------------------------------------------------
// Rule 7: scan-level aggregate pushdown
// ---------------------------------------------------------------------------

/// Walks the straight-line spine of the plan converting eligible
/// `Aggregate → Filter* → TsdbScan` chains into
/// [`LogicalPlan::ScanAggregate`]. The rewrite deliberately does *not*
/// descend into `Join` sides or `Union` branches: those contexts fall back
/// to the ordinary pipeline (asserted by the plan-shape tests).
fn push_aggregates_into_scans(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Aggregate { input, group_by, items, hidden }
            if scan_aggregate_eligible(&input, &group_by, &items, &hidden) =>
        {
            // Peel the filter chain, outermost first.
            let mut filters = Vec::new();
            let mut cur = *input;
            while let LogicalPlan::Filter { input, predicate } = cur {
                filters.push(predicate);
                cur = *input;
            }
            let LogicalPlan::TsdbScan { scan, .. } = cur else {
                unreachable!("eligibility checked the source");
            };
            LogicalPlan::ScanAggregate { scan, filters, group_by, items, hidden }
        }
        fallback @ (LogicalPlan::Join { .. } | LogicalPlan::Union { .. }) => fallback,
        other => other.map_inputs(&mut push_aggregates_into_scans),
    }
}

// ---------------------------------------------------------------------------
// Rule 8: scan aggregate pivot
// ---------------------------------------------------------------------------

/// Fuses a root wide [`LogicalPlan::Pivot`] with the scan aggregate under
/// it when [`aggregate_pivot_fuses`] accepts the shape.
fn fuse_scan_aggregate_pivot(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Pivot { input, spec } if aggregate_pivot_fuses(&input, &spec) => {
            LogicalPlan::ScanAggregatePivot { aggregate: input, spec }
        }
        other => other,
    }
}

/// The eligibility analysis for rule 8: `input` is a `ScanAggregate` with
/// no hidden key under a wide pivot whose roles resolve against its
/// outputs to: ts → the bare `timestamp` group key; family → the only
/// class key, or no family role and no class key; and every other output
/// (at least one: a wide frame needs a feature) a bare aggregate call.
pub(crate) fn aggregate_pivot_fuses(input: &LogicalPlan, spec: &PivotSpec) -> bool {
    let LogicalPlan::ScanAggregate { group_by, items, hidden, .. } = input else { return false };
    let Ok(roles) = spec.roles(&Schema::new(items.iter().map(|(_, n)| n.clone()).collect())) else {
        return false;
    };
    let obs = tsdb_schema();
    let (ts, class_keys): (Vec<&Expr>, Vec<&Expr>) =
        group_by.iter().partition(|g| is_tsdb_col(g, &obs, 0));
    let family = match roles.family {
        Some(f) => class_keys == [&items[f].0],
        None => class_keys.is_empty(),
    };
    let features: Vec<&Expr> = (items.iter().enumerate())
        .filter(|&(i, _)| i != roles.ts && Some(i) != roles.family)
        .map(|(_, (e, _))| e)
        .collect();
    let call = |e: &&Expr| matches!(e, Expr::Function { name, .. } if is_aggregate(name));
    spec.layout == Layout::Wide
        && hidden.is_empty()
        && ts == [&items[roles.ts].0]
        && family
        && !features.is_empty()
        && features.iter().all(call)
}

pub(crate) fn tsdb_schema() -> Schema {
    Schema::new(TSDB_COLUMNS.iter().map(|s| s.to_string()).collect())
}

/// The [`FilterClass`] of a residual predicate over a TSDB scan:
/// `metric_name`/`tag` are the dictionary columns (constant per series),
/// `timestamp`/`value` the typed point columns.
pub(crate) fn tsdb_filter_class(predicate: &Expr) -> FilterClass {
    let schema = tsdb_schema();
    let column_in =
        |name: &str, allowed: [usize; 2]| schema.resolve(name).is_ok_and(|i| allowed.contains(&i));
    veval::classify(predicate, &|c| column_in(c, [1, 2]), &|c| column_in(c, [0, 3]))
}

/// Splits a `Filter` chain off a plan: the predicates, outermost first,
/// and the underlying source node.
pub(crate) fn peel_filter_chain(mut plan: &LogicalPlan) -> (Vec<&Expr>, &LogicalPlan) {
    let mut filters = Vec::new();
    loop {
        match plan {
            LogicalPlan::Filter { input, predicate } => {
                filters.push(predicate);
                plan = input;
            }
            other => return (filters, other),
        }
    }
}

/// True when every column reference of `expr` resolves in the observation
/// schema to one of the `allowed` indices.
fn refs_within(expr: &Expr, schema: &Schema, allowed: &[usize]) -> bool {
    expr.columns().iter().all(|c| schema.resolve(c).is_ok_and(|i| allowed.contains(&i)))
}

/// True when every reference to the raw `tag` map column sits under an
/// index access (`tag['k']`). A bare `tag` feeding MIN/MAX would make the
/// fold depend on accumulation order (maps are mutually incomparable under
/// `sql_cmp`), which the series-major scan aggregate cannot reproduce.
fn bare_tag_free(expr: &Expr, schema: &Schema) -> bool {
    let is_tag = |e: &Expr| is_tsdb_col(e, schema, 2);
    let (mut refs, mut indexed) = (0usize, 0usize);
    expr.walk(&mut |e| {
        refs += usize::from(is_tag(e));
        indexed += usize::from(matches!(e, Expr::Index { container, .. } if is_tag(container)));
    });
    refs == indexed
}

/// The eligibility analysis for rule 7: the pipeline must reach a
/// `TsdbScan` through filters over observation columns, every group key
/// must be the `timestamp` column (at most once) or an expression over the
/// dictionary-encoded columns, every aggregate call an output reaches
/// ([`map_grouped`]) must be mergeable over observation columns, any other
/// column an output reads must sit inside a group key (a bare one is the
/// group's first row, the table aggregate's), and nothing may hold a window call.
pub(crate) fn scan_aggregate_eligible(
    input: &LogicalPlan,
    group_by: &[Expr],
    items: &[(Expr, String)],
    hidden: &[Expr],
) -> bool {
    let (filters, source) = peel_filter_chain(input);
    if !matches!(source, LogicalPlan::TsdbScan { .. }) {
        return false;
    }
    let schema = tsdb_schema();
    let all_cols = [0usize, 1, 2, 3];
    let pushable =
        |e: &Expr, allowed: &[usize]| refs_within(e, &schema, allowed) && !e.contains_window();
    if !filters.iter().all(|p| pushable(p, &all_cols)) {
        return false;
    }
    let mut saw_ts = false;
    for g in group_by {
        if is_tsdb_col(g, &schema, 0) {
            if saw_ts {
                return false; // a duplicated timestamp key stays on the row engine
            }
            saw_ts = true;
            continue;
        }
        // Dictionary-encoded group key: references only metric_name /
        // tag (column-free constants also qualify).
        if !pushable(g, &[1, 2]) {
            return false;
        }
    }
    let mergeable = |name: &str, args: &[Expr]| {
        if !args.iter().all(|a| pushable(a, &all_cols)) {
            return false;
        }
        if !matches!(name, "MIN" | "MAX") {
            return true;
        }
        // MIN/MAX folds are order-dependent when the input stream is not
        // totally ordered (NaN values, mixed classes): the serial engines
        // accumulate in row order, the scan aggregate series-major. With a
        // timestamp group key the two orders coincide (each group's rows
        // share one timestamp and arrive in series-rank order); without
        // one, only streams with a guaranteed total order stay eligible —
        // the Int timestamp column or per-series-constant dictionary
        // expressions built from operators alone (Str/Bool/NULL, never
        // NaN; a scalar call or CASE may mix classes). A bare `value` (or
        // computed float) stream falls back.
        let one_class = |a: &Expr| {
            let mut operators_only = true;
            a.walk(&mut |e| {
                operators_only &= !matches!(e, Expr::Function { .. } | Expr::Case { .. });
            });
            operators_only && refs_within(a, &schema, &[1, 2])
        };
        args.iter().all(|a| bare_tag_free(a, &schema))
            && (saw_ts || args.iter().all(|a| is_tsdb_col(a, &schema, 0) || one_class(a)))
    };
    items.iter().map(|(e, _)| e).chain(hidden.iter()).all(|e| {
        // What is left of the output once its keys and calls are columns.
        let mut calls_merge = true;
        let rest = map_grouped(e, &mut |sub| {
            Ok(match sub {
                _ if group_by.contains(sub) => Some(Expr::Literal(Value::Null)),
                Expr::Function { name, args } if is_aggregate(name) => {
                    calls_merge &= mergeable(name, args);
                    Some(Expr::Literal(Value::Null))
                }
                _ => None,
            })
        });
        calls_merge && rest.is_ok_and(|rest| rest.columns().is_empty() && !rest.contains_window())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::plan::build;
    use crate::table::Table;
    use explainit_tsdb::{SeriesKey, Tsdb};

    fn tsdb_catalog() -> Catalog {
        let mut db = Tsdb::new();
        let key = SeriesKey::new("cpu").with_tag("host", "web-1");
        db.insert(&key, 0, 1.0);
        db.insert(&key, 60, 2.0);
        let mut c = Catalog::new();
        c.register_tsdb("tsdb", &db);
        c.register("plain", Table::from_rows(&["x"], vec![vec![Value::Int(1)]]));
        c
    }

    fn optimized(c: &Catalog, sql: &str) -> LogicalPlan {
        let q = parse_query(sql).unwrap();
        optimize(build(c, &q).unwrap(), c).unwrap()
    }

    /// Every statement of the two outside-in corpora, `tests/plan_shape.rs`
    /// and `tests/static_analysis.rs` — each SQL string literal in them that
    /// parses and plans over their tables — as planned and as optimized, with
    /// a statement each for the two `Expr` variants and the two nodes they never use.
    fn corpus_plans() -> Vec<LogicalPlan> {
        let mut c = tsdb_catalog();
        c.register("plain", Table::from_rows(&["ts", "v"], vec![]));
        c.register("t", Table::from_rows(&["ts", "host", "v"], vec![]));
        c.register("u", Table::from_rows(&["ts", "w"], vec![]));
        let sources =
            [include_str!("../tests/plan_shape.rs"), include_str!("../tests/static_analysis.rs")];
        let mut sqls = vec![
            "SELECT CASE WHEN v IS NULL THEN 0 ELSE v END AS c FROM plain".to_string(),
            "SELECT 1 LIMIT 1".to_string(),
        ];
        for source in sources {
            for (at, _) in
                source.match_indices("\"SELECT ").chain(source.match_indices("\"CREATE "))
            {
                // The literal's text: up to the closing quote, `\`-newline
                // continuations (and their indentation) dropped.
                let mut sql = String::new();
                let mut chars = source[at + 1..].chars();
                while let Some(ch) = chars.next().filter(|&ch| ch != '"') {
                    match ch {
                        '\\' if chars.next() == Some('\n') => {
                            chars = chars.as_str().trim_start().chars();
                        }
                        ch => sql.push(ch),
                    }
                }
                sqls.push(sql);
            }
        }
        let mut plans = Vec::new();
        for sql in sqls {
            let planned = match crate::parser::parse_statement(&sql) {
                Ok(crate::Statement::Query(q)) => build(&c, &q),
                Ok(crate::Statement::CreateFamily(cf)) => crate::plan::build_family(&c, &cf),
                _ => continue, // a fragment, or a `format!` template
            };
            let Ok(planned) = planned else { continue };
            plans.extend(optimize(planned.clone(), &c));
            plans.push(planned);
        }
        assert!(plans.len() > 100, "the corpora went missing: {} plans", plans.len());
        plans
    }

    #[test]
    fn map_inputs_states_every_nodes_inputs() {
        fn rebuild(plan: LogicalPlan, visited: &mut usize) -> LogicalPlan {
            *visited += 1;
            plan.map_inputs(&mut |input| rebuild(input, visited))
        }
        let mut variants = HashSet::new();
        for plan in corpus_plans() {
            // `render` prints a line per node: the hand count. A variant
            // that forgets an input comes back short (and a node short).
            let mut visited = 0;
            assert_eq!(rebuild(plan.clone(), &mut visited), plan);
            let rendered = crate::plan::render(&plan);
            assert_eq!(visited, rendered.lines().count(), "{rendered}");
            // Each line starts with its node's name.
            let names = rendered.lines().filter_map(|l| l.split_whitespace().next());
            variants.extend(names.map(str::to_string));
        }
        assert_eq!(variants.len(), 15, "the corpora hold every node: {variants:?}");
    }

    #[test]
    fn map_children_states_every_variants_children() {
        fn rebuild(expr: Expr, visited: &mut usize) -> Expr {
            *visited += 1;
            expr.map_children(&mut |child| rebuild(child, visited))
        }
        let exprs = std::cell::RefCell::new(Vec::new());
        for plan in corpus_plans() {
            map_exprs(plan, &|e| {
                exprs.borrow_mut().push(e.clone());
                e
            });
        }
        let mut variants = HashSet::new();
        for e in exprs.into_inner() {
            let (mut visited, mut walked) = (0, 0);
            assert_eq!(rebuild(e.clone(), &mut visited), e);
            e.walk(&mut |sub| {
                walked += 1;
                variants.insert(std::mem::discriminant(sub));
            });
            assert_eq!(visited, walked, "{e:?}");
        }
        assert_eq!(variants.len(), 10, "the corpora exercise every `Expr` variant");
    }

    #[test]
    fn constant_folding_collapses_literals() {
        assert_eq!(
            fold_expr(Expr::Binary {
                op: BinaryOp::Add,
                left: Box::new(Expr::lit(1i64)),
                right: Box::new(Expr::lit(2i64)),
            }),
            Expr::lit(3i64)
        );
        // TRUE AND x simplifies structurally.
        assert_eq!(
            fold_expr(Expr::Binary {
                op: BinaryOp::And,
                left: Box::new(Expr::lit(true)),
                right: Box::new(Expr::col("v")),
            }),
            Expr::col("v")
        );
        // Runtime errors are not folded away.
        let bad = Expr::Binary {
            op: BinaryOp::Add,
            left: Box::new(Expr::lit("a")),
            right: Box::new(Expr::Literal(Value::Map(Default::default()))),
        };
        assert_eq!(fold_expr(bad.clone()), bad);
    }

    #[test]
    fn tsdb_scan_absorbs_name_tag_and_time() {
        let c = tsdb_catalog();
        let p = optimized(
            &c,
            "SELECT value FROM tsdb WHERE metric_name = 'cpu' AND tag['host'] = 'web-1' \
             AND timestamp BETWEEN 0 AND 100",
        );
        // Pruned to `value`, the scan is all the projection asks for.
        let LogicalPlan::TsdbScan { scan, .. } = p else {
            panic!("expected a bare tsdb scan, got {p:?}")
        };
        assert_eq!(scan.name.as_deref(), Some("cpu"));
        assert_eq!(scan.tags, vec![TagFilter::Equals("host".into(), "web-1".into())]);
        assert_eq!((scan.start, scan.end), (Some(0), Some(100)));
    }

    #[test]
    fn tsdb_residual_keeps_unpushable_conjuncts() {
        let c = tsdb_catalog();
        let p = optimized(&c, "SELECT value FROM tsdb WHERE metric_name = 'cpu' AND value > 1.5");
        let LogicalPlan::Filter { input, predicate } = p else {
            panic!("expected residual filter, got {p:?}")
        };
        assert!(
            matches!(*input, LogicalPlan::TsdbScan { ref scan, .. } if scan.name.as_deref() == Some("cpu"))
        );
        assert_eq!(predicate.columns(), ["value"]);
    }

    #[test]
    fn tag_null_checks_become_index_predicates() {
        let c = tsdb_catalog();
        let p = optimized(&c, "SELECT value FROM tsdb WHERE tag['host'] IS NOT NULL");
        let LogicalPlan::TsdbScan { scan, .. } = p else { panic!("expected scan, got {p:?}") };
        assert_eq!(scan.tags, vec![TagFilter::HasKey("host".into())]);
    }

    #[test]
    fn timestamp_comparisons_tighten_range() {
        let c = tsdb_catalog();
        let p = optimized(
            &c,
            "SELECT value FROM tsdb WHERE timestamp >= 10 AND timestamp < 50 AND 20 <= timestamp",
        );
        let LogicalPlan::TsdbScan { scan, .. } = p else { panic!("expected scan, got {p:?}") };
        assert_eq!((scan.start, scan.end), (Some(20), Some(49)));
    }

    #[test]
    fn pruning_drops_unreferenced_scan_columns() {
        let c = tsdb_catalog();
        let p = optimized(&c, "SELECT timestamp, value FROM tsdb WHERE metric_name = 'cpu'");
        let LogicalPlan::TsdbScan { columns, .. } = p else { panic!("expected scan, got {p:?}") };
        // metric_name was absorbed into the scan filter, so only
        // timestamp + value survive; the tag maps are never cloned.
        assert_eq!(columns, Some(vec![0, 3]));
    }

    #[test]
    fn filter_splits_across_inner_join() {
        let mut c = tsdb_catalog();
        c.register("l", Table::from_rows(&["k", "a"], vec![]));
        c.register("r", Table::from_rows(&["k", "b"], vec![]));
        let p = optimized(&c, "SELECT l.a FROM l JOIN r ON l.k = r.k WHERE l.a > 1 AND r.b < 2");
        let LogicalPlan::Project { input, .. } = p else { panic!("expected project") };
        let LogicalPlan::Join { left, right, .. } = *input else {
            panic!("expected join on top (filters pushed), got {input:?}")
        };
        // Both sides got their conjunct (below the Alias nodes).
        let LogicalPlan::Alias { input: li, .. } = *left else { panic!("expected alias") };
        assert!(matches!(*li, LogicalPlan::Filter { .. }));
        let LogicalPlan::Alias { input: ri, .. } = *right else { panic!("expected alias") };
        assert!(matches!(*ri, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn left_join_does_not_push_into_right_side() {
        let mut c = tsdb_catalog();
        c.register("l", Table::from_rows(&["k", "a"], vec![]));
        c.register("r", Table::from_rows(&["k", "b"], vec![]));
        let p = optimized(&c, "SELECT l.a FROM l LEFT JOIN r ON l.k = r.k WHERE r.b < 2");
        let LogicalPlan::Project { input, .. } = p else { panic!("expected project") };
        assert!(
            matches!(*input, LogicalPlan::Filter { .. }),
            "right-side conjunct must stay above a LEFT join"
        );
    }

    #[test]
    fn filter_pushes_through_subquery_projection() {
        let c = tsdb_catalog();
        let p = optimized(&c, "SELECT y FROM (SELECT x AS y FROM plain) s WHERE y > 0");
        // The filter must sit below the subquery's Project, directly on the
        // scan, rewritten in terms of x (the outer `SELECT y` restates the
        // subquery's output and is elided).
        let LogicalPlan::Project { input, .. } = p else { panic!("expected project") };
        let LogicalPlan::Filter { predicate, input } = *input else {
            panic!("expected pushed filter, got {input:?}")
        };
        assert!(matches!(*input, LogicalPlan::Scan { .. }));
        assert_eq!(predicate.columns(), ["x"]);
    }

    #[test]
    fn filter_never_sinks_through_window_projections() {
        let c = tsdb_catalog();
        // LAG reads the whole input row set; pushing `k > 0` below the
        // projection would shrink its window and change results.
        let p = optimized(
            &c,
            "SELECT prev FROM (SELECT x AS k, LAG(x) AS prev FROM plain) s WHERE k > 0",
        );
        let LogicalPlan::Project { input: outer, .. } = p else { panic!("expected project") };
        let LogicalPlan::Filter { input, .. } = *outer else {
            panic!("filter must stay above the window projection, got {outer:?}")
        };
        let LogicalPlan::Project { input, .. } = *input else { panic!("expected inner project") };
        assert!(matches!(*input, LogicalPlan::Scan { .. }), "nothing may sink below");
    }

    #[test]
    fn glob_and_like_patterns_push_into_the_scan() {
        let c = tsdb_catalog();
        // metric_name GLOB with a literal prefix becomes the scan's name
        // pattern (served by a name-index range scan in the store).
        let p = optimized(&c, "SELECT value FROM tsdb WHERE metric_name GLOB 'c*'");
        let LogicalPlan::TsdbScan { scan, .. } = p else { panic!("expected scan, got {p:?}") };
        assert_eq!(scan.name.as_deref(), Some("c*"));

        // tag['k'] LIKE translates %/_ to */? and lands in the tag filters.
        let p = optimized(&c, "SELECT value FROM tsdb WHERE tag['host'] LIKE 'web-%'");
        let LogicalPlan::TsdbScan { scan, .. } = p else { panic!("expected scan, got {p:?}") };
        assert_eq!(scan.tags, vec![TagFilter::Glob("host".into(), "web-*".into())]);

        // A LIKE pattern containing literal glob metacharacters must stay
        // a residual filter (translation would change its meaning).
        let p = optimized(&c, "SELECT value FROM tsdb WHERE tag['host'] LIKE 'w*b%'");
        let LogicalPlan::Project { input, .. } = p else { panic!("expected project, got {p:?}") };
        assert!(matches!(*input, LogicalPlan::Filter { .. }), "expected residual, got {input:?}");
    }

    #[test]
    fn eligible_aggregates_collapse_into_the_scan() {
        let c = tsdb_catalog();
        // A non-dictionary group key keeps rule 7 off this pipeline.
        let p =
            optimized(&c, "SELECT value, AVG(value) AS m, COUNT(*) AS n FROM tsdb GROUP BY value");
        assert!(matches!(p, LogicalPlan::Aggregate { .. }), "got {p:?}");
        let p = optimized(
            &c,
            "SELECT timestamp, AVG(value) AS m, COUNT(*) AS n FROM tsdb \
             WHERE metric_name = 'cpu' GROUP BY timestamp",
        );
        assert!(matches!(p, LogicalPlan::ScanAggregate { .. }), "got {p:?}");
    }

    #[test]
    fn scan_aggregate_absorbs_filters_and_scan_predicates() {
        let c = tsdb_catalog();
        let p = optimized(
            &c,
            "SELECT timestamp, tag['host'] AS h, AVG(value) AS m FROM tsdb \
             WHERE metric_name = 'cpu' AND timestamp BETWEEN 0 AND 100 AND value > 0.5 \
             GROUP BY timestamp, tag['host']",
        );
        let LogicalPlan::ScanAggregate { scan, filters, group_by, .. } = p else {
            panic!("expected scan aggregate, got {p:?}")
        };
        assert_eq!(scan.name.as_deref(), Some("cpu"));
        assert_eq!((scan.start, scan.end), (Some(0), Some(100)));
        assert_eq!(filters.len(), 1, "the value conjunct stays residual");
        assert_eq!(group_by.len(), 2);
    }

    #[test]
    fn scan_aggregate_falls_back_for_ineligible_shapes() {
        let c = tsdb_catalog();
        // A `value` group key is not dictionary-encoded.
        let p = optimized(&c, "SELECT value, COUNT(*) AS n FROM tsdb GROUP BY value");
        assert!(!matches!(p, LogicalPlan::ScanAggregate { .. }), "got {p:?}");
        // An output over keys and calls alone fuses; one that reads a
        // non-key column (the group's first row), holds a window call or
        // reaches an ineligible call stays on the table aggregate.
        let p = optimized(&c, "SELECT AVG(value) * 2 + timestamp FROM tsdb GROUP BY timestamp");
        assert!(matches!(p, LogicalPlan::ScanAggregate { .. }), "got {p:?}");
        for item in ["AVG(value) * value", "LAG(timestamp, 1)", "MIN(tag) + 1", "tag IS NULL"] {
            let p = optimized(&c, &format!("SELECT {item} AS x FROM tsdb GROUP BY timestamp"));
            assert!(!matches!(p, LogicalPlan::ScanAggregate { .. }), "{item}: {p:?}");
        }
        // MIN over the raw tag map would be accumulation-order dependent.
        let p = optimized(&c, "SELECT MIN(tag) AS t FROM tsdb GROUP BY timestamp");
        assert!(!matches!(p, LogicalPlan::ScanAggregate { .. }), "got {p:?}");
        // ...but MIN over an indexed tag is fine.
        let p = optimized(&c, "SELECT MIN(tag['host']) AS h FROM tsdb GROUP BY timestamp");
        assert!(matches!(p, LogicalPlan::ScanAggregate { .. }), "got {p:?}");
    }

    #[test]
    fn identity_projections_are_elided() {
        let c = tsdb_catalog();
        for sql in ["SELECT * FROM tsdb", "SELECT timestamp, metric_name, tag, value FROM tsdb"] {
            let p = optimized(&c, sql);
            assert!(matches!(p, LogicalPlan::TsdbScan { columns: None, .. }), "{sql}: {p:?}");
        }
        assert!(matches!(optimized(&c, "SELECT x FROM plain"), LogicalPlan::Scan { .. }));
        // A rename, a reorder, a subset the scan was not pruned to, a
        // hidden ORDER BY key and a join-scope alias all keep theirs.
        for sql in [
            "SELECT value AS v FROM tsdb",
            "SELECT value, timestamp FROM tsdb",
            "SELECT timestamp FROM tsdb WHERE value > 1.5",
            "SELECT a.x FROM plain a JOIN plain b ON a.x = b.x",
        ] {
            let p = optimized(&c, sql);
            assert!(matches!(p, LogicalPlan::Project { .. }), "{sql}: {p:?}");
        }
        let p = optimized(&c, "SELECT value FROM tsdb ORDER BY timestamp");
        let LogicalPlan::Sort { input, .. } = p else { panic!("expected sort, got {p:?}") };
        assert!(matches!(*input, LogicalPlan::Project { .. }), "got {input:?}");
    }

    #[test]
    fn aggregate_only_passes_group_key_conjuncts() {
        let c = tsdb_catalog();
        let p = optimized(
            &c,
            "SELECT m FROM (SELECT x AS k, AVG(x) AS m FROM plain GROUP BY x) s WHERE m > 0 AND k = 1",
        );
        // k = 1 (a group key) sinks below the aggregate; m > 0 stays above.
        let LogicalPlan::Project { input: outer, .. } = p else { panic!("expected project") };
        let LogicalPlan::Filter { predicate, input } = *outer else { panic!("expected filter") };
        assert_eq!(predicate.columns(), ["m"]);
        let LogicalPlan::Aggregate { input, .. } = *input else { panic!("expected aggregate") };
        assert!(matches!(*input, LogicalPlan::Filter { .. }), "group-key conjunct pushed below");
    }
}
