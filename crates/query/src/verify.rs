//! Optimizer invariant verifier: structural checks that run after *each*
//! rewrite rule of [`crate::optimize`].
//!
//! Every rule in the optimizer is result-preserving by design, but that
//! contract lives in comments and in the differential suite — neither of
//! which points at the *rule* that broke it when a rewrite regresses. This
//! module closes that gap: [`check_after`] re-derives the eligibility
//! analysis each shape-changing rule relied on and fails fast, naming the
//! rule, when the rewritten tree no longer satisfies it.
//!
//! The verifier runs:
//!
//! * always under `debug_assertions` (so `cargo test` exercises it across
//!   the whole differential and plan-shape corpus),
//! * in release builds when the `EXPLAINIT_VERIFY_PLANS` environment
//!   variable is non-`0` (the CI release-mode differential job sets it).
//!
//! Checks, in tree order:
//!
//! 1. **Schema preservation** — the optimized root must expose exactly the
//!    column names the planned root did; under a `CREATE FAMILY` plan's
//!    [`LogicalPlan::Pivot`] root it is the stage-one relation that must
//!    keep its names (the roles resolve against them). Skipped when either
//!    schema cannot be resolved (unit tests optimize plans over detached
//!    catalogs) and once the pivot has absorbed its input.
//! 2. **ScanAggregate re-eligibility** — every [`LogicalPlan::ScanAggregate`]
//!    is expanded back into the `Aggregate → Filter* → TsdbScan` chain it
//!    came from and re-run through the `scan_aggregate` eligibility analysis
//!    ([`crate::optimize::scan_aggregate_eligible`]): mergeable aggregates
//!    only, dictionary/timestamp group keys, the NaN `MIN`/`MAX` ordering
//!    rule, no window calls.
//!
//!    **ScanPivot re-eligibility** — likewise every
//!    [`LogicalPlan::ScanPivot`] is expanded back into a long `Pivot` over
//!    `Project → TsdbScan` and re-run through the `scan_pivot` analysis
//!    (`optimize::scan_pivot_labels`): every role resolvable, no
//!    residual filter, both labels over per-series constants only. A
//!    `Pivot` anywhere but the root is a violation.
//!
//!    **ScanAggregatePivot re-eligibility** — every
//!    [`LogicalPlan::ScanAggregatePivot`] is expanded back into the wide
//!    `Pivot` over its `ScanAggregate` and re-run through the
//!    `scan_aggregate_pivot` analysis
//!    (`optimize::aggregate_pivot_fuses`), then its scan aggregate through
//!    the checks above. Its stage-one relation (the aggregate's outputs)
//!    keeps check 1.
//! 3. **Residual filter chains** — a `Filter` chain left directly above a
//!    `TsdbScan` must reference only columns the (possibly pruned) scan
//!    still produces, and must keep rule 3's [`FilterClass`] order:
//!    per-series dictionary predicates innermost, kernel-refinable point
//!    predicates next, general expressions outermost. (Only enforced once
//!    `pushdown` has run — the planner's raw WHERE chain predates the
//!    ordering.)
//! 4. **Sort key bounds** — every sort key indexes a real column of the
//!    extended (visible + hidden) child output, and the visible width
//!    never exceeds the extended width.
//! 5. **Union shape** — a `Union` node keeps at least one branch.
//!
//! Violations surface as [`QueryError::Plan`] with the message prefix
//! `optimizer invariant violated after <rule>:`.

use explainit_sync::{LockClass, OnceLock};

use crate::ast::Expr;
use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::optimize::{
    aggregate_pivot_fuses, peel_filter_chain, scan_aggregate_eligible, scan_pivot_labels,
    tsdb_filter_class,
};
use crate::pivot::{Layout, PivotSpec};
use crate::plan::{LogicalPlan, TSDB_COLUMNS};
use crate::table::Schema;
use crate::veval::FilterClass;
use crate::Result;

/// True when `EXPLAINIT_VERIFY_PLANS` forces verification on (cached — the
/// environment is read once per process).
pub(crate) fn env_forced() -> bool {
    static FORCED_CLASS: LockClass = LockClass::new("query.verify.forced", 15);
    static FORCED: OnceLock<bool> = OnceLock::new(&FORCED_CLASS);
    *FORCED.get_or_init(|| std::env::var_os("EXPLAINIT_VERIFY_PLANS").is_some_and(|v| v != "0"))
}

/// Verifies every invariant on an optimized plan, independent of any
/// particular rule. Public entry point for tests and tools; the optimizer
/// itself calls [`check_after`] with the rule name.
pub fn verify_plan(plan: &LogicalPlan, catalog: &Catalog) -> Result<()> {
    check_after("manual check", plan, None, catalog)
}

/// Runs all structural checks against the tree `rule` just produced.
/// `planned` is the root schema before any rewrite ran (`None` skips the
/// preservation check).
pub(crate) fn check_after(
    rule: &'static str,
    plan: &LogicalPlan,
    planned: Option<&Schema>,
    catalog: &Catalog,
) -> Result<()> {
    let relation = stage_one(plan).map(|p| p.schema(catalog));
    if let (Some(before), Some(Ok(after))) = (planned, relation) {
        if before.columns() != after.columns() {
            return violation(
                rule,
                format!(
                    "root schema changed from [{}] to [{}]",
                    before.columns().join(", "),
                    after.columns().join(", ")
                ),
            );
        }
    }
    // The planner's raw WHERE chain predates rule 3's cost ordering.
    let ordered = !matches!(rule, "fold_constants" | "convert_tsdb_scans");
    // Stage two sits on top of a family plan and nowhere else.
    let plan = match plan {
        LogicalPlan::Pivot { input, .. } => input,
        other => other,
    };
    walk(plan, rule, ordered, false, catalog)
}

/// The relational part of a plan — the whole plan, or the stage-one query
/// under a family plan's pivot root; `None` once a `ScanPivot` has
/// absorbed it.
pub(crate) fn stage_one(plan: &LogicalPlan) -> Option<&LogicalPlan> {
    match plan {
        LogicalPlan::Pivot { input, .. }
        | LogicalPlan::ScanAggregatePivot { aggregate: input, .. } => Some(input),
        LogicalPlan::ScanPivot { .. } => None,
        other => Some(other),
    }
}

fn violation(rule: &str, message: String) -> Result<()> {
    Err(QueryError::Plan(format!("optimizer invariant violated after {rule}: {message}")))
}

fn walk(
    plan: &LogicalPlan,
    rule: &'static str,
    ordered: bool,
    under_filter: bool,
    catalog: &Catalog,
) -> Result<()> {
    match plan {
        LogicalPlan::ScanAggregate { scan, filters, group_by, items, hidden } => {
            // Expand the node back into the chain `scan_aggregate` collapsed and
            // re-run the eligibility analysis it must have passed.
            let table = &scan.table;
            let mut synth = LogicalPlan::TsdbScan { scan: scan.clone(), columns: None };
            for predicate in filters.iter().rev() {
                synth =
                    LogicalPlan::Filter { input: Box::new(synth), predicate: predicate.clone() };
            }
            if !scan_aggregate_eligible(&synth, group_by, items, hidden) {
                return violation(
                    rule,
                    format!(
                        "ScanAggregate over {table} fails re-run of scan_aggregate eligibility"
                    ),
                );
            }
            check_filter_classes(filters.iter().collect(), rule, ordered)
        }
        LogicalPlan::Filter { .. } => {
            // Check each maximal chain once, from its outermost node.
            let (filters, source) = peel_filter_chain(plan);
            if !under_filter && matches!(source, LogicalPlan::TsdbScan { .. }) {
                let Ok(scan_schema) = source.schema(catalog) else {
                    return Ok(());
                };
                for predicate in &filters {
                    for col in predicate.columns() {
                        if scan_schema.resolve(col).is_err() {
                            return violation(
                                rule,
                                format!("residual predicate references `{col}`, which the pruned scan no longer produces"),
                            );
                        }
                    }
                }
                check_filter_classes(filters, rule, ordered)?;
            }
            let LogicalPlan::Filter { input, .. } = plan else { unreachable!() };
            walk(input, rule, ordered, true, catalog)
        }
        LogicalPlan::Sort { input, keys, output_width } => {
            let extended = match input.as_ref() {
                LogicalPlan::Project { items, hidden, .. }
                | LogicalPlan::Aggregate { items, hidden, .. }
                | LogicalPlan::ScanAggregate { items, hidden, .. } => {
                    Some(items.len() + hidden.len())
                }
                _ => None,
            };
            if let Some(width) = extended {
                if let Some(&(key, _)) = keys.iter().find(|(k, _)| *k >= width) {
                    return violation(
                        rule,
                        format!("sort key #{key} out of bounds for extended width {width}"),
                    );
                }
                if *output_width > width {
                    return violation(
                        rule,
                        format!("sort output width {output_width} exceeds extended width {width}"),
                    );
                }
            }
            walk(input, rule, ordered, false, catalog)
        }
        LogicalPlan::Union { inputs } => {
            if inputs.is_empty() {
                return violation(rule, "Union lost all of its branches".to_string());
            }
            for branch in inputs {
                walk(branch, rule, ordered, false, catalog)?;
            }
            Ok(())
        }
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Alias { input, .. }
        | LogicalPlan::Limit { input, .. } => walk(input, rule, ordered, false, catalog),
        LogicalPlan::Join { left, right, .. } => {
            walk(left, rule, ordered, false, catalog)?;
            walk(right, rule, ordered, false, catalog)
        }
        LogicalPlan::ScanPivot { scan, family, feature } => {
            // Expand the node back into the long pivot over a projected
            // scan that `scan_pivot` fused and re-run its analysis.
            let col = |i: usize| Expr::Column(TSDB_COLUMNS[i].to_string());
            let items = [col(0), family.clone(), feature.clone(), col(3)]
                .into_iter()
                .zip(["ts", "family", "feature", "value"].map(String::from))
                .collect();
            let input = Box::new(LogicalPlan::TsdbScan { scan: scan.clone(), columns: None });
            let synth = LogicalPlan::Project { input, items, hidden: Vec::new() };
            if scan_pivot_labels(&synth, &PivotSpec::positional("", Layout::Long)).is_none() {
                let table = &scan.table;
                return violation(
                    rule,
                    format!("ScanPivot over {table} fails re-run of scan_pivot eligibility"),
                );
            }
            Ok(())
        }
        LogicalPlan::ScanAggregatePivot { aggregate, spec } => {
            // The node is the wide pivot and the scan aggregate that
            // `scan_aggregate_pivot` fused: its analysis again, then the
            // aggregate's own.
            if !aggregate_pivot_fuses(aggregate, spec) {
                return violation(
                    rule,
                    "ScanAggregatePivot fails re-run of scan_aggregate_pivot eligibility".into(),
                );
            }
            walk(aggregate, rule, ordered, false, catalog)
        }
        LogicalPlan::Pivot { .. } => {
            violation(rule, "Pivot below the root of the plan".to_string())
        }
        LogicalPlan::Scan { .. } | LogicalPlan::TsdbScan { .. } | LogicalPlan::Unit => Ok(()),
    }
}

/// Checks a residual chain (outermost first) keeps rule 3's non-increasing
/// cost-class order — equivalently: cheapest class innermost.
fn check_filter_classes(filters: Vec<&Expr>, rule: &str, ordered: bool) -> Result<()> {
    if !ordered || filters.len() < 2 {
        return Ok(());
    }
    let classes: Vec<FilterClass> = filters.iter().map(|p| tsdb_filter_class(p)).collect();
    if classes.windows(2).any(|w| w[0] < w[1]) {
        return violation(
            rule,
            format!(
                "residual filter chain out of cost order (outermost-first classes {classes:?})"
            ),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinaryOp;
    use crate::plan::ScanSpec;
    use crate::value::Value;

    fn lit(v: i64) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    fn col(name: &str) -> Expr {
        Expr::Column(name.to_string())
    }

    fn cmp(left: Expr, right: Expr) -> Expr {
        Expr::Binary { op: BinaryOp::Gt, left: Box::new(left), right: Box::new(right) }
    }

    /// A per-series (`refine=dict`) predicate.
    fn name_is_cpu() -> Expr {
        Expr::Binary {
            op: BinaryOp::Eq,
            left: Box::new(col("metric_name")),
            right: Box::new(Expr::Literal(Value::str("cpu"))),
        }
    }

    /// A `refine=general` predicate.
    fn abs_value() -> Expr {
        Expr::Function { name: "ABS".to_string(), args: vec![col("value")] }
    }

    fn scan() -> LogicalPlan {
        LogicalPlan::TsdbScan { scan: ScanSpec::all("tsdb"), columns: None }
    }

    fn filter(input: LogicalPlan, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Filter { input: Box::new(input), predicate }
    }

    #[test]
    fn well_formed_chain_passes() {
        let catalog = Catalog::new();
        // general outermost, dict innermost: the order rule 3 produces.
        let plan = filter(filter(scan(), name_is_cpu()), abs_value());
        assert!(verify_plan(&plan, &catalog).is_ok());
    }

    #[test]
    fn inverted_chain_is_flagged() {
        let catalog = Catalog::new();
        // dict predicate outermost, general innermost: inverted cost order.
        let plan = filter(filter(scan(), abs_value()), name_is_cpu());
        let err = verify_plan(&plan, &catalog).unwrap_err();
        assert!(matches!(&err, QueryError::Plan(m) if m.contains("cost order")), "{err}");
    }

    #[test]
    fn pruned_away_filter_column_is_flagged() {
        let catalog = Catalog::new();
        let pruned = LogicalPlan::TsdbScan { scan: ScanSpec::all("tsdb"), columns: Some(vec![0]) };
        let plan = filter(pruned, cmp(col("value"), lit(1)));
        let err = verify_plan(&plan, &catalog).unwrap_err();
        assert!(matches!(&err, QueryError::Plan(m) if m.contains("no longer produces")), "{err}");
    }

    #[test]
    fn ineligible_scan_aggregate_is_flagged() {
        let catalog = Catalog::new();
        // MIN over the float value stream with no timestamp key: the NaN
        // ordering rule excludes it from `scan_aggregate`.
        let min_v = Expr::Function { name: "MIN".to_string(), args: vec![col("value")] };
        let plan = LogicalPlan::ScanAggregate {
            scan: ScanSpec::all("tsdb"),
            filters: Vec::new(),
            group_by: vec![col("metric_name")],
            items: vec![(col("metric_name"), "metric_name".to_string()), (min_v, "m".to_string())],
            hidden: Vec::new(),
        };
        let err = verify_plan(&plan, &catalog).unwrap_err();
        assert!(
            matches!(&err, QueryError::Plan(m) if m.contains("scan_aggregate eligibility")),
            "{err}"
        );
    }

    #[test]
    fn eligible_scan_aggregate_passes() {
        let catalog = Catalog::new();
        let avg_v = Expr::Function { name: "AVG".to_string(), args: vec![col("value")] };
        let plan = LogicalPlan::Sort {
            input: Box::new(LogicalPlan::ScanAggregate {
                scan: ScanSpec { name: Some("cpu".to_string()), ..ScanSpec::all("tsdb") },
                filters: vec![cmp(col("value"), lit(0))],
                group_by: vec![col("timestamp")],
                items: vec![
                    (col("timestamp"), "timestamp".to_string()),
                    (avg_v, "mean_v".to_string()),
                ],
                hidden: Vec::new(),
            }),
            keys: vec![(0, true)],
            output_width: 2,
        };
        assert!(verify_plan(&plan, &catalog).is_ok());
    }

    #[test]
    fn scan_pivot_labels_must_stay_per_series() {
        let catalog = Catalog::new();
        let cpu =
            ScanSpec { name: Some("cpu".to_string()), start: Some(0), ..ScanSpec::all("tsdb") };
        let scan_pivot = |family: Expr, feature: Expr| LogicalPlan::ScanPivot {
            scan: cpu.clone(),
            family,
            feature,
        };
        let concat = Expr::Function {
            name: "CONCAT".to_string(),
            args: vec![col("metric_name"), col("tag")],
        };
        assert!(verify_plan(&scan_pivot(col("metric_name"), concat), &catalog).is_ok());
        // A label over a per-point column, or holding a window call, could
        // not have passed the `scan_pivot` analysis.
        let lag = Expr::Function { name: "LAG".to_string(), args: vec![col("tag")] };
        for bad in [col("value"), cmp(col("timestamp"), lit(0)), lag] {
            let err = verify_plan(&scan_pivot(col("metric_name"), bad), &catalog).unwrap_err();
            assert!(
                matches!(&err, QueryError::Plan(m) if m.contains("scan_pivot eligibility")),
                "{err}"
            );
        }
    }

    #[test]
    fn scan_aggregate_pivot_must_stay_fusable() {
        let catalog = Catalog::new();
        let avg = Expr::Function { name: "AVG".to_string(), args: vec![col("value")] };
        let spec = PivotSpec {
            family: Some("metric_name".to_string()),
            ..PivotSpec::positional("f", Layout::Wide)
        };
        let fused = |feature: Expr| LogicalPlan::ScanAggregatePivot {
            aggregate: Box::new(LogicalPlan::ScanAggregate {
                scan: ScanSpec::all("tsdb"),
                filters: Vec::new(),
                group_by: vec![col("timestamp"), col("metric_name")],
                items: vec![
                    (col("timestamp"), "timestamp".to_string()),
                    (col("metric_name"), "metric_name".to_string()),
                    (feature, "m".to_string()),
                ],
                hidden: Vec::new(),
            }),
            spec: spec.clone(),
        };
        assert!(verify_plan(&fused(avg.clone()), &catalog).is_ok());
        // A feature over a call, not the call, could not have fused.
        let err = verify_plan(&fused(cmp(avg, lit(0))), &catalog).unwrap_err();
        assert!(
            matches!(&err, QueryError::Plan(m) if m.contains("scan_aggregate_pivot eligibility")),
            "{err}"
        );
    }

    #[test]
    fn pivot_is_only_ever_the_root() {
        let catalog = Catalog::new();
        let spec = PivotSpec::positional("f", Layout::Long);
        let pivot = LogicalPlan::Pivot { input: Box::new(scan()), spec };
        assert!(verify_plan(&pivot, &catalog).is_ok());
        let err = verify_plan(&LogicalPlan::Limit { input: Box::new(pivot), n: 1 }, &catalog)
            .unwrap_err();
        assert!(matches!(&err, QueryError::Plan(m) if m.contains("below the root")), "{err}");
    }

    #[test]
    fn sort_key_out_of_bounds_is_flagged() {
        let catalog = Catalog::new();
        let plan = LogicalPlan::Sort {
            input: Box::new(LogicalPlan::Project {
                input: Box::new(scan()),
                items: vec![(col("value"), "v".to_string())],
                hidden: Vec::new(),
            }),
            keys: vec![(3, true)],
            output_width: 1,
        };
        let err = verify_plan(&plan, &catalog).unwrap_err();
        assert!(matches!(&err, QueryError::Plan(m) if m.contains("out of bounds")), "{err}");
    }

    #[test]
    fn empty_union_is_flagged() {
        let catalog = Catalog::new();
        let plan = LogicalPlan::Union { inputs: Vec::new() };
        let err = verify_plan(&plan, &catalog).unwrap_err();
        assert!(matches!(&err, QueryError::Plan(m) if m.contains("branches")), "{err}");
    }

    #[test]
    fn schema_drift_is_flagged() {
        let catalog = Catalog::new();
        let before = Schema::new(vec!["a".to_string(), "b".to_string()]);
        let after = LogicalPlan::Project {
            input: Box::new(scan()),
            items: vec![(col("value"), "a".to_string())],
            hidden: Vec::new(),
        };
        let err = check_after("prune", &after, Some(&before), &catalog).unwrap_err();
        assert!(matches!(&err, QueryError::Plan(m) if m.contains("after prune")), "{err}");
    }

    #[test]
    fn raw_where_chain_skips_order_check_before_pushdown() {
        let catalog = Catalog::new();
        // Inverted order is fine right after constant folding — the chain
        // is still the planner's, not rule 3's.
        let plan = filter(filter(scan(), abs_value()), name_is_cpu());
        assert!(check_after("fold_constants", &plan, None, &catalog).is_ok());
        assert!(check_after("pushdown", &plan, None, &catalog).is_err());
    }
}
