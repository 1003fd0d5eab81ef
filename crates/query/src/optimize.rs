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
//!    [`Catalog::register_tsdb`] becomes a [`LogicalPlan::TsdbScan`].
//! 3. **Predicate pushdown** (`pushdown`) — WHERE conjuncts sink through
//!    Alias and Project nodes (with alias substitution), into the matching
//!    side of a Join, through Aggregate group keys, and finally *into* the
//!    TSDB scan: `metric_name = '…'` becomes an inverted-index name lookup,
//!    `tag['k'] = 'v'` / `tag['k'] IS [NOT] NULL` become tag-index
//!    predicates, and `timestamp` comparisons become the scan's time range —
//!    so the store is never materialized wholesale. Nothing sinks below a
//!    projection that holds a window call (it would shrink the window).
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
//!    long pivot and its scan fuse into one [`LogicalPlan::ScanPivot`]: the
//!    executor goes from series to family matrices without a row in
//!    between. Every other shape keeps `Pivot` over its ordinary plan.
//! 7. **Scan-level aggregate pushdown** (`scan_aggregate`) — an
//!    `Aggregate` (above pushed-down `Filter`s) sitting directly on a
//!    `TsdbScan` collapses into a single [`LogicalPlan::ScanAggregate`]
//!    node when every group key is the `timestamp` column or an expression
//!    over the dictionary-encoded scan columns (`metric_name`, `tag`) and
//!    every output is an expression over group keys and mergeable
//!    aggregates of observation columns. The executor then pre-aggregates
//!    per series straight off the store's sorted point vectors — no row
//!    materialization at all. Joins, UNION branches, non-dict group keys,
//!    outputs that read a non-key column and window calls fall back to the
//!    ordinary pipeline (which the differential harness reaches by
//!    registering the same observations as a plain table).
//!
//! There is no parallelization rule and no cardinality estimate: every
//! operator splits its input into morsels by size at run time, and the
//! hash join builds over whichever materialised input is shorter.

use std::collections::HashSet;

use explainit_tsdb::TagFilter;

use crate::ast::{BinaryOp, Expr, JoinKind};
use crate::catalog::Catalog;
use crate::eval::map_grouped;
use crate::functions::{is_aggregate, is_window};
use crate::pivot::PivotSpec;
use crate::plan::{collect_conjuncts, conjoin, LogicalPlan, TSDB_COLUMNS};
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
    let plan = fold_plan(plan);
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
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Rule 1: constant folding
// ---------------------------------------------------------------------------

/// Folds constants in every expression of the plan.
fn fold_plan(plan: LogicalPlan) -> LogicalPlan {
    map_exprs(plan, &fold_expr)
}

fn map_exprs(plan: LogicalPlan, f: &impl Fn(Expr) -> Expr) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            LogicalPlan::Filter { input: Box::new(map_exprs(*input, f)), predicate: f(predicate) }
        }
        LogicalPlan::Project { input, items, hidden } => LogicalPlan::Project {
            input: Box::new(map_exprs(*input, f)),
            items: items.into_iter().map(|(e, n)| (f(e), n)).collect(),
            hidden: hidden.into_iter().map(f).collect(),
        },
        LogicalPlan::Aggregate { input, group_by, items, hidden } => LogicalPlan::Aggregate {
            input: Box::new(map_exprs(*input, f)),
            group_by: group_by.into_iter().map(f).collect(),
            items: items.into_iter().map(|(e, n)| (f(e), n)).collect(),
            hidden: hidden.into_iter().map(f).collect(),
        },
        LogicalPlan::Join { left, right, kind, on } => LogicalPlan::Join {
            left: Box::new(map_exprs(*left, f)),
            right: Box::new(map_exprs(*right, f)),
            kind,
            on: f(on),
        },
        LogicalPlan::Alias { input, alias } => {
            LogicalPlan::Alias { input: Box::new(map_exprs(*input, f)), alias }
        }
        LogicalPlan::Sort { input, keys, output_width } => {
            LogicalPlan::Sort { input: Box::new(map_exprs(*input, f)), keys, output_width }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(map_exprs(*input, f)), n }
        }
        LogicalPlan::Union { inputs } => {
            LogicalPlan::Union { inputs: inputs.into_iter().map(|p| map_exprs(p, f)).collect() }
        }
        LogicalPlan::Pivot { input, spec } => {
            LogicalPlan::Pivot { input: Box::new(map_exprs(*input, f)), spec }
        }
        // `ScanPivot` and `ScanAggregate` are produced by rules 6 and 8;
        // the earlier passes never see them, so a leaf treatment is safe.
        leaf @ (LogicalPlan::Scan { .. }
        | LogicalPlan::TsdbScan { .. }
        | LogicalPlan::Unit
        | LogicalPlan::ScanPivot { .. }
        | LogicalPlan::ScanAggregate { .. }) => leaf,
    }
}

/// True when the whole subtree is literal (safe to evaluate at plan time).
fn is_const(expr: &Expr) -> bool {
    match expr {
        Expr::Literal(_) => true,
        Expr::Column(_) => false,
        Expr::Binary { left, right, .. } => is_const(left) && is_const(right),
        Expr::Unary { operand, .. } => is_const(operand),
        Expr::Function { name, args } => {
            !is_aggregate(name) && !is_window(name) && args.iter().all(is_const)
        }
        Expr::Index { container, index } => is_const(container) && is_const(index),
        Expr::InList { expr, list, .. } => is_const(expr) && list.iter().all(is_const),
        Expr::Between { expr, low, high, .. } => is_const(expr) && is_const(low) && is_const(high),
        Expr::IsNull { expr, .. } => is_const(expr),
        Expr::Case { when_then, else_expr } => {
            when_then.iter().all(|(c, v)| is_const(c) && is_const(v))
                && else_expr.as_ref().is_none_or(|e| is_const(e))
        }
    }
}

/// Folds constants bottom-up. Expressions that error at plan time (e.g.
/// `'a' + 1`) are left intact so the runtime error surface is unchanged.
pub fn fold_expr(expr: Expr) -> Expr {
    // Fold children first.
    let expr = match expr {
        Expr::Binary { op, left, right } => {
            let left = Box::new(fold_expr(*left));
            let right = Box::new(fold_expr(*right));
            // Boolean shortcuts (sound under three-valued logic).
            match op {
                BinaryOp::And => {
                    if matches!(*left, Expr::Literal(Value::Bool(true))) {
                        return *right;
                    }
                    if matches!(*right, Expr::Literal(Value::Bool(true))) {
                        return *left;
                    }
                    if matches!(*left, Expr::Literal(Value::Bool(false)))
                        || matches!(*right, Expr::Literal(Value::Bool(false)))
                    {
                        return Expr::Literal(Value::Bool(false));
                    }
                }
                BinaryOp::Or => {
                    if matches!(*left, Expr::Literal(Value::Bool(true)))
                        || matches!(*right, Expr::Literal(Value::Bool(true)))
                    {
                        return Expr::Literal(Value::Bool(true));
                    }
                    if matches!(*left, Expr::Literal(Value::Bool(false))) {
                        return *right;
                    }
                    if matches!(*right, Expr::Literal(Value::Bool(false))) {
                        return *left;
                    }
                }
                _ => {}
            }
            Expr::Binary { op, left, right }
        }
        Expr::Unary { op, operand } => Expr::Unary { op, operand: Box::new(fold_expr(*operand)) },
        Expr::Function { name, args } => {
            Expr::Function { name, args: args.into_iter().map(fold_expr).collect() }
        }
        Expr::Index { container, index } => Expr::Index {
            container: Box::new(fold_expr(*container)),
            index: Box::new(fold_expr(*index)),
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(fold_expr(*expr)),
            list: list.into_iter().map(fold_expr).collect(),
            negated,
        },
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(fold_expr(*expr)),
            low: Box::new(fold_expr(*low)),
            high: Box::new(fold_expr(*high)),
            negated,
        },
        Expr::IsNull { expr, negated } => {
            Expr::IsNull { expr: Box::new(fold_expr(*expr)), negated }
        }
        Expr::Case { when_then, else_expr } => Expr::Case {
            when_then: when_then.into_iter().map(|(c, v)| (fold_expr(c), fold_expr(v))).collect(),
            else_expr: else_expr.map(|e| Box::new(fold_expr(*e))),
        },
        leaf => leaf,
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
        LogicalPlan::Scan { table } if catalog.is_tsdb(&table) => LogicalPlan::TsdbScan {
            table,
            name: None,
            tags: Vec::new(),
            start: None,
            end: None,
            columns: None,
        },
        other => other,
    })
}

/// Bottom-up structural rewrite.
fn map_plan(plan: LogicalPlan, f: &impl Fn(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    let rebuilt = match plan {
        LogicalPlan::Filter { input, predicate } => {
            LogicalPlan::Filter { input: Box::new(map_plan(*input, f)), predicate }
        }
        LogicalPlan::Project { input, items, hidden } => {
            LogicalPlan::Project { input: Box::new(map_plan(*input, f)), items, hidden }
        }
        LogicalPlan::Aggregate { input, group_by, items, hidden } => {
            LogicalPlan::Aggregate { input: Box::new(map_plan(*input, f)), group_by, items, hidden }
        }
        LogicalPlan::Join { left, right, kind, on } => LogicalPlan::Join {
            left: Box::new(map_plan(*left, f)),
            right: Box::new(map_plan(*right, f)),
            kind,
            on,
        },
        LogicalPlan::Alias { input, alias } => {
            LogicalPlan::Alias { input: Box::new(map_plan(*input, f)), alias }
        }
        LogicalPlan::Sort { input, keys, output_width } => {
            LogicalPlan::Sort { input: Box::new(map_plan(*input, f)), keys, output_width }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(map_plan(*input, f)), n }
        }
        LogicalPlan::Union { inputs } => {
            LogicalPlan::Union { inputs: inputs.into_iter().map(|p| map_plan(p, f)).collect() }
        }
        LogicalPlan::Pivot { input, spec } => {
            LogicalPlan::Pivot { input: Box::new(map_plan(*input, f)), spec }
        }
        leaf => leaf,
    };
    f(rebuilt)
}

// ---------------------------------------------------------------------------
// Rule 3: predicate pushdown
// ---------------------------------------------------------------------------

fn pushdown(plan: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = pushdown(*input, catalog)?;
            sink_filter(predicate, input, catalog)
        }
        LogicalPlan::Project { input, items, hidden } => {
            Ok(LogicalPlan::Project { input: Box::new(pushdown(*input, catalog)?), items, hidden })
        }
        LogicalPlan::Aggregate { input, group_by, items, hidden } => Ok(LogicalPlan::Aggregate {
            input: Box::new(pushdown(*input, catalog)?),
            group_by,
            items,
            hidden,
        }),
        LogicalPlan::Join { left, right, kind, on } => Ok(LogicalPlan::Join {
            left: Box::new(pushdown(*left, catalog)?),
            right: Box::new(pushdown(*right, catalog)?),
            kind,
            on,
        }),
        LogicalPlan::Alias { input, alias } => {
            Ok(LogicalPlan::Alias { input: Box::new(pushdown(*input, catalog)?), alias })
        }
        LogicalPlan::Sort { input, keys, output_width } => Ok(LogicalPlan::Sort {
            input: Box::new(pushdown(*input, catalog)?),
            keys,
            output_width,
        }),
        LogicalPlan::Limit { input, n } => {
            Ok(LogicalPlan::Limit { input: Box::new(pushdown(*input, catalog)?), n })
        }
        LogicalPlan::Union { inputs } => Ok(LogicalPlan::Union {
            inputs: inputs.into_iter().map(|p| pushdown(p, catalog)).collect::<Result<_>>()?,
        }),
        LogicalPlan::Pivot { input, spec } => {
            Ok(LogicalPlan::Pivot { input: Box::new(pushdown(*input, catalog)?), spec })
        }
        leaf => Ok(leaf),
    }
}

/// Rewrites column references via `f` (also used by the scan-aggregate
/// operator to substitute per-series constants into expressions).
pub(crate) fn map_columns(expr: Expr, f: &impl Fn(String) -> Expr) -> Expr {
    match expr {
        Expr::Column(c) => f(c),
        Expr::Literal(_) => expr,
        Expr::Binary { op, left, right } => Expr::Binary {
            op,
            left: Box::new(map_columns(*left, f)),
            right: Box::new(map_columns(*right, f)),
        },
        Expr::Unary { op, operand } => {
            Expr::Unary { op, operand: Box::new(map_columns(*operand, f)) }
        }
        Expr::Function { name, args } => {
            Expr::Function { name, args: args.into_iter().map(|a| map_columns(a, f)).collect() }
        }
        Expr::Index { container, index } => Expr::Index {
            container: Box::new(map_columns(*container, f)),
            index: Box::new(map_columns(*index, f)),
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(map_columns(*expr, f)),
            list: list.into_iter().map(|e| map_columns(e, f)).collect(),
            negated,
        },
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(map_columns(*expr, f)),
            low: Box::new(map_columns(*low, f)),
            high: Box::new(map_columns(*high, f)),
            negated,
        },
        Expr::IsNull { expr, negated } => {
            Expr::IsNull { expr: Box::new(map_columns(*expr, f)), negated }
        }
        Expr::Case { when_then, else_expr } => Expr::Case {
            when_then: when_then
                .into_iter()
                .map(|(c, v)| (map_columns(c, f), map_columns(v, f)))
                .collect(),
            else_expr: else_expr.map(|e| Box::new(map_columns(*e, f))),
        },
    }
}

/// Strips a leading `alias.` qualifier from column references.
fn strip_qualifier(expr: Expr, alias: &str) -> Expr {
    map_columns(expr, &|name| {
        if let Some((head, tail)) = name.split_once('.') {
            if head.eq_ignore_ascii_case(alias) {
                return Expr::Column(tail.to_string());
            }
        }
        Expr::Column(name)
    })
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
            let stripped: Vec<Expr> =
                conjuncts.into_iter().map(|c| strip_qualifier(c, &alias)).collect();
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
            let mut left = *left;
            if let Some(p) = conjoin(to_left) {
                left = sink_filter(p, left, catalog)?;
            }
            let mut right = *right;
            if let Some(p) = conjoin(to_right) {
                right = sink_filter(p, right, catalog)?;
            }
            let joined =
                LogicalPlan::Join { left: Box::new(left), right: Box::new(right), kind, on };
            Ok(match conjoin(keep) {
                Some(p) => LogicalPlan::Filter { input: Box::new(joined), predicate: p },
                None => joined,
            })
        }

        // Projections: substitute aliases, then continue below.
        LogicalPlan::Project { input, items, hidden } => {
            // A window function anywhere in the projection reads the whole
            // input row set; filtering below it would shrink that window
            // and change its results, so nothing may sink through.
            let has_window =
                items.iter().map(|(e, _)| e).chain(hidden.iter()).any(Expr::contains_window);
            if has_window {
                return Ok(LogicalPlan::Filter {
                    input: Box::new(LogicalPlan::Project { input, items, hidden }),
                    predicate: conjoin(conjuncts).expect("non-empty"), // invariant: collect_conjuncts yields at least one conjunct
                });
            }
            let out_names = Schema::new(items.iter().map(|(_, n)| n.clone()).collect());
            let mut push = Vec::new();
            let mut keep = Vec::new();
            for c in conjuncts {
                let cols = c.columns();
                let substitutable =
                    !cols.is_empty() && cols.iter().all(|n| out_names.resolve(n).is_ok());
                if substitutable && !c.contains_aggregate() && !c.contains_window() {
                    let rewritten = map_columns(c, &|name| {
                        let i = out_names.resolve(&name).expect("checked resolvable"); // invariant: the substitutable filter above resolved every column
                        items[i].0.clone()
                    });
                    push.push(rewritten);
                } else {
                    keep.push(c);
                }
            }
            let mut inner = *input;
            if let Some(p) = conjoin(push) {
                inner = sink_filter(p, inner, catalog)?;
            }
            let projected = LogicalPlan::Project { input: Box::new(inner), items, hidden };
            Ok(match conjoin(keep) {
                Some(p) => LogicalPlan::Filter { input: Box::new(projected), predicate: p },
                None => projected,
            })
        }

        // Aggregates: only conjuncts over pure group keys sink below.
        LogicalPlan::Aggregate { input, group_by, items, hidden } => {
            let out_names = Schema::new(items.iter().map(|(_, n)| n.clone()).collect());
            let mut push = Vec::new();
            let mut keep = Vec::new();
            for c in conjuncts {
                let cols = c.columns();
                let key_backed = !cols.is_empty()
                    && cols.iter().all(|n| {
                        out_names
                            .resolve(n)
                            .is_ok_and(|i| group_by.iter().any(|g| *g == items[i].0))
                    });
                if key_backed && !c.contains_aggregate() && !c.contains_window() {
                    let rewritten = map_columns(c, &|name| {
                        let i = out_names.resolve(&name).expect("checked resolvable"); // invariant: the key_backed filter above resolved every column
                        items[i].0.clone()
                    });
                    push.push(rewritten);
                } else {
                    keep.push(c);
                }
            }
            let mut inner = *input;
            if let Some(p) = conjoin(push) {
                inner = sink_filter(p, inner, catalog)?;
            }
            let agg = LogicalPlan::Aggregate { input: Box::new(inner), group_by, items, hidden };
            Ok(match conjoin(keep) {
                Some(p) => LogicalPlan::Filter { input: Box::new(agg), predicate: p },
                None => agg,
            })
        }

        // The payoff: absorb conjuncts into the TSDB scan's index lookup.
        LogicalPlan::TsdbScan { table, mut name, mut tags, mut start, mut end, columns } => {
            let schema = tsdb_schema();
            let mut residual = Vec::new();
            for c in conjuncts {
                if !absorb_tsdb_conjunct(&c, &schema, &mut name, &mut tags, &mut start, &mut end) {
                    residual.push(c);
                }
            }
            // Cheapest class innermost (see [`FilterClass`]). The sort is
            // stable, so equal-cost conjuncts keep their source order, and
            // conjunction commutes, so the kept row set is unchanged.
            residual.sort_by_key(tsdb_filter_class);
            let mut plan = LogicalPlan::TsdbScan { table, name, tags, start, end, columns };
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

fn tighten_start(start: &mut Option<i64>, lo: i64) {
    *start = Some(start.map_or(lo, |s| s.max(lo)));
}

fn tighten_end(end: &mut Option<i64>, hi: i64) {
    *end = Some(end.map_or(hi, |e| e.min(hi)));
}

/// Tries to fold one conjunct into the scan's pushed-down predicates.
/// Returns false when the conjunct must stay as a residual filter.
fn absorb_tsdb_conjunct(
    c: &Expr,
    schema: &Schema,
    name: &mut Option<String>,
    tags: &mut Vec<TagFilter>,
    start: &mut Option<i64>,
    end: &mut Option<i64>,
) -> bool {
    match c {
        Expr::Binary { op: BinaryOp::Eq, left, right } => {
            let (col_side, lit_side) = if matches!(right.as_ref(), Expr::Literal(_)) {
                (left, right)
            } else {
                (right, left)
            };
            // metric_name = 'x'
            if is_tsdb_col(col_side, schema, 1) {
                if let Expr::Literal(Value::Str(s)) = lit_side.as_ref() {
                    if name.is_none() {
                        *name = Some(s.clone());
                        return true;
                    }
                    return false; // second name constraint stays residual
                }
            }
            // tag['k'] = 'v'
            if let Some(k) = tag_access(col_side, schema) {
                if let Expr::Literal(Value::Str(v)) = lit_side.as_ref() {
                    tags.push(TagFilter::Equals(k.to_string(), v.clone()));
                    return true;
                }
            }
            // timestamp = n
            if is_tsdb_col(col_side, schema, 0) {
                if let Some(n) = lit_int(lit_side) {
                    tighten_start(start, n);
                    tighten_end(end, n);
                    return true;
                }
            }
            false
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
                _ => {
                    // LIKE: `%` ≙ `*`, `_` ≙ `?` (identical matchers).
                    // Literal glob metacharacters in the pattern would
                    // change meaning, so such patterns stay residual.
                    if pat.contains('*') || pat.contains('?') {
                        return false;
                    }
                    pat.replace('%', "*").replace('_', "?")
                }
            };
            if is_tsdb_col(left, schema, 1) {
                if name.is_none() {
                    *name = Some(glob_pat);
                    return true;
                }
                return false;
            }
            if let Some(k) = tag_access(left, schema) {
                // Row semantics match exactly: a missing tag key makes the
                // row predicate NULL (dropped), and TagFilter::Glob
                // requires the key to exist.
                tags.push(TagFilter::Glob(k.to_string(), glob_pat));
                return true;
            }
            false
        }
        // timestamp BETWEEN a AND b (inclusive)
        Expr::Between { expr, low, high, negated: false } => {
            if is_tsdb_col(expr, schema, 0) {
                if let (Some(a), Some(b)) = (lit_int(low), lit_int(high)) {
                    tighten_start(start, a);
                    tighten_end(end, b);
                    return true;
                }
            }
            false
        }
        // timestamp </<=/>/>= n, either operand order.
        Expr::Binary { op, left, right }
            if matches!(op, BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq) =>
        {
            let (col_first, col, lit) = if is_tsdb_col(left, schema, 0) {
                (true, left, right)
            } else if is_tsdb_col(right, schema, 0) {
                (false, right, left)
            } else {
                return false;
            };
            let _ = col;
            let Some(n) = lit_int(lit) else { return false };
            // Normalize to "timestamp OP n".
            let op = if col_first { *op } else { veval::flipped(*op) };
            match op {
                BinaryOp::GtEq => tighten_start(start, n),
                // `timestamp > i64::MAX` / `< i64::MIN` are unsatisfiable;
                // saturating the strict bound would silently re-admit the
                // extreme point, so force an inverted (empty) range instead.
                BinaryOp::Gt => match n.checked_add(1) {
                    Some(lo) => tighten_start(start, lo),
                    None => {
                        tighten_start(start, i64::MAX);
                        tighten_end(end, i64::MIN);
                    }
                },
                BinaryOp::LtEq => tighten_end(end, n),
                BinaryOp::Lt => match n.checked_sub(1) {
                    Some(hi) => tighten_end(end, hi),
                    None => {
                        tighten_start(start, i64::MAX);
                        tighten_end(end, i64::MIN);
                    }
                },
                _ => unreachable!(),
            }
            true
        }
        // tag['k'] IS NULL / IS NOT NULL -> tag-key absence / presence.
        Expr::IsNull { expr, negated } => {
            if let Some(k) = tag_access(expr, schema) {
                tags.push(if *negated {
                    TagFilter::HasKey(k.to_string())
                } else {
                    TagFilter::Absent(k.to_string())
                });
                return true;
            }
            false
        }
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
    match plan {
        LogicalPlan::Project { input, items, hidden } => {
            let needs = Some(names_in(items.iter().map(|(e, _)| e).chain(&hidden)));
            LogicalPlan::Project { input: Box::new(prune(*input, needs)), items, hidden }
        }
        LogicalPlan::Aggregate { input, group_by, items, hidden } => {
            let needs =
                Some(names_in(items.iter().map(|(e, _)| e).chain(&group_by).chain(&hidden)));
            LogicalPlan::Aggregate {
                input: Box::new(prune(*input, needs)),
                group_by,
                items,
                hidden,
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let needs = needs.map(|mut n| {
                n.extend(names_in([&predicate]));
                n
            });
            LogicalPlan::Filter { input: Box::new(prune(*input, needs)), predicate }
        }
        LogicalPlan::Alias { input, alias } => {
            let needs = needs.map(|n| {
                n.into_iter()
                    .map(|name| match name.split_once('.') {
                        Some((head, tail)) if head.eq_ignore_ascii_case(&alias) => tail.to_string(),
                        _ => name,
                    })
                    .collect()
            });
            LogicalPlan::Alias { input: Box::new(prune(*input, needs)), alias }
        }
        LogicalPlan::Join { left, right, kind, on } => {
            let needs = needs.map(|mut n| {
                n.extend(names_in([&on]));
                n
            });
            LogicalPlan::Join {
                left: Box::new(prune(*left, needs.clone())),
                right: Box::new(prune(*right, needs)),
                kind,
                on,
            }
        }
        LogicalPlan::Sort { input, keys, output_width } => {
            LogicalPlan::Sort { input: Box::new(prune(*input, needs)), keys, output_width }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(prune(*input, needs)), n }
        }
        LogicalPlan::Union { inputs } => LogicalPlan::Union {
            // Positional name mapping across branches is fragile; keep all.
            inputs: inputs.into_iter().map(|p| prune(p, None)).collect(),
        },
        LogicalPlan::TsdbScan { table, name, tags, start, end, columns } => {
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
            LogicalPlan::TsdbScan { table, name, tags, start, end, columns }
        }
        // The pivot reads every column of its input; the stage-one
        // projection under it names what the scan must produce.
        LogicalPlan::Pivot { input, spec } => {
            LogicalPlan::Pivot { input: Box::new(prune(*input, None)), spec }
        }
        leaf @ (LogicalPlan::Scan { .. }
        | LogicalPlan::Unit
        | LogicalPlan::ScanPivot { .. }
        | LogicalPlan::ScanAggregate { .. }) => leaf,
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
    let LogicalPlan::TsdbScan { table, name, tags, start, end, .. } = scan else {
        unreachable!("eligibility checked the source");
    };
    LogicalPlan::ScanPivot { table, name, tags, start, end, family, feature }
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
    if scan_aggregate_candidate(&plan) {
        return convert_scan_aggregate(plan);
    }
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            LogicalPlan::Filter { input: Box::new(push_aggregates_into_scans(*input)), predicate }
        }
        LogicalPlan::Project { input, items, hidden } => LogicalPlan::Project {
            input: Box::new(push_aggregates_into_scans(*input)),
            items,
            hidden,
        },
        LogicalPlan::Aggregate { input, group_by, items, hidden } => LogicalPlan::Aggregate {
            input: Box::new(push_aggregates_into_scans(*input)),
            group_by,
            items,
            hidden,
        },
        LogicalPlan::Alias { input, alias } => {
            LogicalPlan::Alias { input: Box::new(push_aggregates_into_scans(*input)), alias }
        }
        LogicalPlan::Sort { input, keys, output_width } => LogicalPlan::Sort {
            input: Box::new(push_aggregates_into_scans(*input)),
            keys,
            output_width,
        },
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(push_aggregates_into_scans(*input)), n }
        }
        LogicalPlan::Pivot { input, spec } => {
            LogicalPlan::Pivot { input: Box::new(push_aggregates_into_scans(*input)), spec }
        }
        other => other,
    }
}

/// True when the node is an eligible aggregate-over-scan pipeline.
fn scan_aggregate_candidate(node: &LogicalPlan) -> bool {
    matches!(node, LogicalPlan::Aggregate { input, group_by, items, hidden }
        if scan_aggregate_eligible(input, group_by, items, hidden))
}

/// Collapses a node [`scan_aggregate_candidate`] accepted.
fn convert_scan_aggregate(node: LogicalPlan) -> LogicalPlan {
    let LogicalPlan::Aggregate { input, group_by, items, hidden } = node else {
        unreachable!("eligibility matched an aggregate");
    };
    // Peel the filter chain, outermost first.
    let mut filters = Vec::new();
    let mut cur = *input;
    while let LogicalPlan::Filter { input, predicate } = cur {
        filters.push(predicate);
        cur = *input;
    }
    let LogicalPlan::TsdbScan { table, name, tags, start, end, .. } = cur else {
        unreachable!("eligibility checked the source");
    };
    LogicalPlan::ScanAggregate { table, name, tags, start, end, filters, group_by, items, hidden }
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
    match expr {
        Expr::Column(c) => !schema.resolve(c).is_ok_and(|i| i == 2),
        Expr::Literal(_) => true,
        Expr::Index { container, index } => {
            let container_ok = match container.as_ref() {
                Expr::Column(c) if schema.resolve(c).is_ok_and(|i| i == 2) => true,
                other => bare_tag_free(other, schema),
            };
            container_ok && bare_tag_free(index, schema)
        }
        Expr::Binary { left, right, .. } => {
            bare_tag_free(left, schema) && bare_tag_free(right, schema)
        }
        Expr::Unary { operand, .. } => bare_tag_free(operand, schema),
        Expr::Function { args, .. } => args.iter().all(|a| bare_tag_free(a, schema)),
        Expr::InList { expr, list, .. } => {
            bare_tag_free(expr, schema) && list.iter().all(|e| bare_tag_free(e, schema))
        }
        Expr::Between { expr, low, high, .. } => {
            bare_tag_free(expr, schema) && bare_tag_free(low, schema) && bare_tag_free(high, schema)
        }
        Expr::IsNull { expr, .. } => bare_tag_free(expr, schema),
        Expr::Case { when_then, else_expr } => {
            when_then.iter().all(|(c, v)| bare_tag_free(c, schema) && bare_tag_free(v, schema))
                && else_expr.as_ref().is_none_or(|e| bare_tag_free(e, schema))
        }
    }
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
        let LogicalPlan::TsdbScan { name, tags, start, end, .. } = p else {
            panic!("expected a bare tsdb scan, got {p:?}")
        };
        assert_eq!(name.as_deref(), Some("cpu"));
        assert_eq!(tags, vec![TagFilter::Equals("host".into(), "web-1".into())]);
        assert_eq!((start, end), (Some(0), Some(100)));
    }

    #[test]
    fn tsdb_residual_keeps_unpushable_conjuncts() {
        let c = tsdb_catalog();
        let p = optimized(&c, "SELECT value FROM tsdb WHERE metric_name = 'cpu' AND value > 1.5");
        let LogicalPlan::Filter { input, predicate } = p else {
            panic!("expected residual filter, got {p:?}")
        };
        assert!(
            matches!(*input, LogicalPlan::TsdbScan { ref name, .. } if name.as_deref() == Some("cpu"))
        );
        assert_eq!(predicate.columns(), ["value"]);
    }

    #[test]
    fn tag_null_checks_become_index_predicates() {
        let c = tsdb_catalog();
        let p = optimized(&c, "SELECT value FROM tsdb WHERE tag['host'] IS NOT NULL");
        let LogicalPlan::TsdbScan { tags, .. } = p else { panic!("expected scan, got {p:?}") };
        assert_eq!(tags, vec![TagFilter::HasKey("host".into())]);
    }

    #[test]
    fn timestamp_comparisons_tighten_range() {
        let c = tsdb_catalog();
        let p = optimized(
            &c,
            "SELECT value FROM tsdb WHERE timestamp >= 10 AND timestamp < 50 AND 20 <= timestamp",
        );
        let LogicalPlan::TsdbScan { start, end, .. } = p else {
            panic!("expected scan, got {p:?}")
        };
        assert_eq!((start, end), (Some(20), Some(49)));
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
        let LogicalPlan::TsdbScan { name, .. } = p else { panic!("expected scan, got {p:?}") };
        assert_eq!(name.as_deref(), Some("c*"));

        // tag['k'] LIKE translates %/_ to */? and lands in the tag filters.
        let p = optimized(&c, "SELECT value FROM tsdb WHERE tag['host'] LIKE 'web-%'");
        let LogicalPlan::TsdbScan { tags, .. } = p else { panic!("expected scan, got {p:?}") };
        assert_eq!(tags, vec![TagFilter::Glob("host".into(), "web-*".into())]);

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
        let LogicalPlan::ScanAggregate { name, start, end, filters, group_by, .. } = p else {
            panic!("expected scan aggregate, got {p:?}")
        };
        assert_eq!(name.as_deref(), Some("cpu"));
        assert_eq!((start, end), (Some(0), Some(100)));
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
