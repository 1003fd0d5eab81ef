//! Plan-shape tests for the scan-aggregate pushdown and the two fused
//! pivots: `EXPLAIN` snapshots asserting when `ScanAggregate` /
//! `ScanPivot` / `ScanAggregatePivot` do and do not fire, so optimizer eligibility regressions surface as test
//! failures rather than silent slowdowns (or silent wrong fast paths).

use explainit_query::{parse_statement, Catalog, Column, Statement, Table, Value};
use explainit_tsdb::{SeriesKey, Tsdb};

fn catalog() -> Catalog {
    let mut db = Tsdb::new();
    for host in ["web-1", "web-2"] {
        let key = SeriesKey::new("cpu").with_tag("host", host).with_tag("grp", "g0");
        for t in 0..5 {
            db.insert(&key, t * 60, t as f64);
        }
    }
    db.insert(&SeriesKey::new("disk").with_tag("host", "web-1"), 0, 1.0);
    let mut c = Catalog::new();
    c.register_tsdb("tsdb", &db);
    c.register(
        "plain",
        Table::from_rows(&["ts", "v"], vec![vec![Value::Int(0), Value::Float(1.0)]]),
    );
    c
}

fn explain(c: &Catalog, sql: &str) -> String {
    let t = c.execute(&format!("EXPLAIN {sql}")).expect("explain runs");
    t.rows().iter().map(|r| r[0].render()).collect::<Vec<_>>().join("\n")
}

/// `EXPLAIN CREATE FAMILY ...` through the statement parser.
fn explain_family(c: &Catalog, sql: &str) -> String {
    let Ok(Statement::CreateFamily(cf)) = parse_statement(&format!("EXPLAIN {sql}")) else {
        panic!("family statement parses: {sql}")
    };
    assert!(cf.explain);
    let t = c.explain_family(&cf).expect("explain runs");
    t.rows().iter().map(|r| r[0].render()).collect::<Vec<_>>().join("\n")
}

// ---------------------------------------------------------------------------
// Fires
// ---------------------------------------------------------------------------

#[test]
fn fires_for_the_family_query() {
    let c = catalog();
    let plan = explain(
        &c,
        "SELECT timestamp, tag['grp'], AVG(value) AS m, STDDEV(value) AS sd FROM tsdb \
         WHERE metric_name = 'cpu' AND timestamp BETWEEN 0 AND 600 \
         GROUP BY timestamp, tag['grp'] ORDER BY timestamp",
    );
    assert!(plan.contains("ScanAggregate tsdb"), "plan:\n{plan}");
    assert!(plan.contains("name=cpu"), "plan:\n{plan}");
    assert!(plan.contains("time=[0, 600]"), "plan:\n{plan}");
    assert!(!plan.contains("TsdbScan"), "the scan is absorbed:\n{plan}");
}

#[test]
fn fires_for_the_papers_scalar_call_shapes() {
    let c = catalog();
    // The quickstart's family query: a CONCAT over two tags as a key.
    let plan = explain(
        &c,
        "SELECT timestamp, metric_name, CONCAT(tag['host'], tag['pipeline_name']) AS feature, \
         AVG(value) AS v FROM tsdb WHERE timestamp BETWEEN 0 AND 600 \
         GROUP BY timestamp, metric_name, CONCAT(tag['host'], tag['pipeline_name']) \
         ORDER BY timestamp ASC",
    );
    assert!(plan.contains("ScanAggregate tsdb time=[0, 600]"), "plan:\n{plan}");
    // Appendix C, listing 3: a SPLIT(..)[0] IN (..) residual, a computed
    // dictionary key and AVG(GREATEST(..)).
    let plan = explain(
        &c,
        "SELECT timestamp, SPLIT(tag['host'], '-')[0] AS grp, AVG(GREATEST(value, 0)) AS busy \
         FROM tsdb WHERE metric_name = 'cpu' AND SPLIT(tag['host'], '-')[0] IN ('web', 'db') \
         GROUP BY timestamp, SPLIT(tag['host'], '-')[0]",
    );
    assert!(plan.starts_with("ScanAggregate tsdb name=cpu where=["), "plan:\n{plan}");
    // Neither plan keeps a separate scan, projection or marker node.
    assert_eq!(plan.lines().count(), 1, "plan:\n{plan}");
}

#[test]
fn identity_projection_over_the_scan_is_elided() {
    let c = catalog();
    assert_eq!(explain(&c, "SELECT timestamp, metric_name, tag, value FROM tsdb"), "TsdbScan tsdb");
    assert_eq!(explain(&c, "SELECT * FROM tsdb"), "TsdbScan tsdb");
    // Pruning first: the scan already yields exactly the listed columns.
    assert_eq!(
        explain(&c, "SELECT timestamp, value FROM tsdb WHERE metric_name = 'cpu'"),
        "TsdbScan tsdb name=cpu columns=[timestamp, value]"
    );
    // A rename or a reorder is a real projection.
    assert!(explain(&c, "SELECT value AS v FROM tsdb").starts_with("Project"));
    assert!(explain(&c, "SELECT value, timestamp FROM tsdb").starts_with("Project"));
}

#[test]
fn fires_for_dict_keys_and_global_aggregates() {
    let c = catalog();
    let plan = explain(&c, "SELECT metric_name, COUNT(*) AS n FROM tsdb GROUP BY metric_name");
    assert!(plan.contains("ScanAggregate"), "plan:\n{plan}");
    let plan = explain(&c, "SELECT SUM(value) AS s, MIN(tag['host']) AS h FROM tsdb");
    assert!(plan.contains("ScanAggregate"), "plan:\n{plan}");
}

#[test]
fn post_aggregate_outputs_finish_in_the_scan_with_typed_columns() {
    let c = catalog();
    let sql = "SELECT timestamp, tag['host'], SUM(value) / COUNT(value) AS mean FROM tsdb \
               GROUP BY timestamp, tag['host'] ORDER BY MAX(value) - MIN(value) DESC";
    assert_eq!(
        explain(&c, sql),
        "Sort [#3 DESC]\n  ScanAggregate tsdb group=[timestamp, tag['host']] \
         items=[timestamp AS timestamp, tag['host'] AS expr, (SUM(value) / COUNT(value)) AS mean] \
         hidden=[(MAX(value) - MIN(value))]"
    );
    // The ratio is a float column over the operator's typed key columns,
    // which come through as they are; the hidden key is consumed by the sort.
    let out = c.execute(sql).expect("runs");
    assert_eq!(out.schema().columns(), ["timestamp", "expr", "mean"]);
    assert!(matches!(out.column_at(0), Column::Int(_)), "{:?}", out.column_at(0));
    assert!(matches!(out.column_at(1), Column::Dict { .. }), "{:?}", out.column_at(1));
    assert!(matches!(out.column_at(2), Column::Float(_)), "{:?}", out.column_at(2));
    // `disk` shares web-1's first group (values 0 and 1: the one non-zero
    // spread, so it sorts first); the stable sort keeps the rest in scan order.
    assert_eq!(out.len(), 10);
    assert_eq!(out.rows()[0], [Value::Int(0), Value::str("web-1"), Value::Float(0.5)]);
    assert_eq!(out.rows()[1], [Value::Int(0), Value::str("web-2"), Value::Float(0.0)]);
}

#[test]
fn fires_with_residual_value_filter_shown_on_the_node() {
    let c = catalog();
    let plan = explain(
        &c,
        "SELECT timestamp, AVG(value) AS m FROM tsdb WHERE value > 1.5 GROUP BY timestamp",
    );
    assert!(plan.contains("ScanAggregate"), "plan:\n{plan}");
    assert!(plan.contains("where=[(value > 1.5)]"), "plan:\n{plan}");
}

#[test]
fn fires_below_a_having_style_filter_which_stays_above() {
    let c = catalog();
    // The grammar has no HAVING; its equivalent — filtering the aggregate
    // output through a subquery — must keep the aggregate-output filter
    // *above* the node while the aggregate itself still pushes into the
    // scan. The rows must agree with the unpushed pipeline either way.
    let sql = "SELECT t FROM (SELECT timestamp AS t, COUNT(*) AS n FROM tsdb \
               GROUP BY timestamp) s WHERE n > 1 ORDER BY t";
    let plan = explain(&c, sql);
    assert!(plan.contains("ScanAggregate"), "plan:\n{plan}");
    assert!(plan.contains("Filter"), "HAVING-style filter stays above:\n{plan}");
    let filter_line = plan.lines().position(|l| l.trim_start().starts_with("Filter"));
    let sa_line = plan.lines().position(|l| l.trim_start().starts_with("ScanAggregate"));
    assert!(filter_line < sa_line, "filter above the node:\n{plan}");
    let out = c.execute(sql).expect("runs");
    assert_eq!(out.len(), 5, "every cpu timestamp has two hosts");
}

// ---------------------------------------------------------------------------
// Falls back
// ---------------------------------------------------------------------------

#[test]
fn falls_back_for_non_dict_group_keys() {
    let c = catalog();
    // `value` is not dictionary-encoded; grouping on it stays on the
    // table aggregate.
    let plan = explain(&c, "SELECT value, COUNT(*) AS n FROM tsdb GROUP BY value");
    assert!(!plan.contains("ScanAggregate"), "plan:\n{plan}");
    assert!(plan.contains("Aggregate"), "plan:\n{plan}");
    // Ditto for a computed timestamp key.
    let plan =
        explain(&c, "SELECT timestamp + 1 AS t, COUNT(*) AS n FROM tsdb GROUP BY timestamp + 1");
    assert!(!plan.contains("ScanAggregate"), "plan:\n{plan}");
}

#[test]
fn falls_back_for_outputs_the_scan_cannot_finish() {
    let c = catalog();
    // MIN over the raw tag map is accumulation-order dependent, bare or
    // under an expression.
    for item in ["MIN(tag)", "CONCAT(MIN(tag), 'x')"] {
        let plan = explain(&c, &format!("SELECT {item} AS t FROM tsdb GROUP BY timestamp"));
        assert!(!plan.contains("ScanAggregate"), "plan:\n{plan}");
    }
    // A non-key column is the group's first row, which the scan never has;
    // a window call is kept off the operator like everywhere else.
    for item in ["value AS first_v", "AVG(value) - value AS d", "LAG(timestamp, 1) AS prev"] {
        let plan = explain(&c, &format!("SELECT timestamp, {item} FROM tsdb GROUP BY timestamp"));
        assert!(plan.starts_with("Aggregate") && plan.contains("TsdbScan"), "plan:\n{plan}");
    }
}

#[test]
fn minmax_over_value_needs_a_timestamp_key() {
    let c = catalog();
    // Without a timestamp group key the scan aggregate accumulates
    // series-major; a float stream may contain NaN (incomparable), making
    // the MIN/MAX fold order-dependent — so these fall back.
    let plan = explain(&c, "SELECT MIN(value) AS lo FROM tsdb");
    assert!(!plan.contains("ScanAggregate"), "plan:\n{plan}");
    let plan = explain(&c, "SELECT metric_name, MAX(value) AS hi FROM tsdb GROUP BY metric_name");
    assert!(!plan.contains("ScanAggregate"), "plan:\n{plan}");
    // With the timestamp key, per-group accumulation order equals serial
    // row order, so the same aggregates stay pushed down.
    let plan = explain(&c, "SELECT timestamp, MAX(value) AS hi FROM tsdb GROUP BY timestamp");
    assert!(plan.contains("ScanAggregate"), "plan:\n{plan}");
    // Totally ordered streams (Int timestamps, dictionary Str values)
    // stay pushed down even without a timestamp key.
    let plan = explain(
        &c,
        "SELECT metric_name, MIN(timestamp) AS t0, MAX(tag['host']) AS h FROM tsdb \
         GROUP BY metric_name",
    );
    assert!(plan.contains("ScanAggregate"), "plan:\n{plan}");
}

#[test]
fn falls_back_inside_joins() {
    let c = catalog();
    let plan = explain(
        &c,
        "SELECT s.t FROM (SELECT timestamp AS t, COUNT(*) AS n FROM tsdb GROUP BY timestamp) s \
         JOIN plain ON s.t = plain.ts",
    );
    assert!(!plan.contains("ScanAggregate"), "join sides fall back:\n{plan}");
    assert!(plan.contains("Join"), "plan:\n{plan}");
}

#[test]
fn falls_back_inside_union_branches() {
    let c = catalog();
    let plan = explain(
        &c,
        "SELECT timestamp, COUNT(*) AS n FROM tsdb GROUP BY timestamp \
         UNION ALL SELECT timestamp, COUNT(*) AS n FROM tsdb GROUP BY timestamp",
    );
    assert!(!plan.contains("ScanAggregate"), "union branches fall back:\n{plan}");
    assert!(plan.contains("Union"), "plan:\n{plan}");
}

#[test]
fn join_line_is_kind_and_predicate_only() {
    let c = catalog();
    // The plan is a shape: no row estimates, no build side — the executor
    // picks that from the materialised inputs.
    let plan = explain(&c, "SELECT value FROM tsdb JOIN plain ON tsdb.timestamp = plain.ts");
    let join_line = plan.lines().map(str::trim_start).find(|l| l.starts_with("Join"));
    assert_eq!(join_line, Some("Join Inner on (tsdb.timestamp = plain.ts)"), "plan:\n{plan}");
}

#[test]
fn one_scan_spec_prints_the_same_on_all_three_scan_lines() {
    let c = catalog();
    let filter = "WHERE metric_name LIKE 'pipe%' AND tag['host'] = 'datanode-1' \
                  AND timestamp BETWEEN 1600000000 AND 1600000600";
    let attrs = "tsdb name=pipe* tag[host]=datanode-1 time=[1600000000, 1600000600]";
    assert_eq!(
        explain(&c, &format!("SELECT timestamp, value FROM tsdb {filter}")),
        format!("TsdbScan {attrs} columns=[timestamp, value]")
    );
    assert_eq!(
        explain(&c, &format!("SELECT timestamp, AVG(value) AS m FROM tsdb {filter} GROUP BY timestamp")),
        format!("ScanAggregate {attrs} group=[timestamp] items=[timestamp AS timestamp, AVG(value) AS m]")
    );
    let family = format!(
        "CREATE FAMILY f WITH (layout = 'long') AS \
         SELECT timestamp, metric_name, tag, value FROM tsdb {filter}"
    );
    assert_eq!(
        explain_family(&c, &family),
        format!(
            "ScanPivot {attrs} layout=long ts=timestamp family=metric_name feature=tag value=value"
        )
    );
}

#[test]
fn a_name_literal_with_a_metacharacter_stays_a_row_filter() {
    let c = catalog();
    // The scan's name slot is a pattern; only a literal without `*` / `?`
    // means the same thing there as under `=`.
    assert_eq!(
        explain(&c, "SELECT timestamp, value FROM tsdb WHERE metric_name = 'cpu'"),
        "TsdbScan tsdb name=cpu columns=[timestamp, value]"
    );
    for literal in ["cpu*", "c?u"] {
        assert_eq!(
            explain(&c, &format!("SELECT timestamp FROM tsdb WHERE metric_name = '{literal}'")),
            format!(
                "Project [timestamp AS timestamp]\n  Filter (metric_name = '{literal}') refine=dict\n    \
                 TsdbScan tsdb columns=[timestamp, metric_name]"
            )
        );
        let count = format!("SELECT COUNT(*) AS n FROM tsdb WHERE metric_name = '{literal}'");
        let plan = explain(&c, &count);
        assert!(plan.starts_with("ScanAggregate tsdb where=[(metric_name = '"), "plan:\n{plan}");
        assert!(c.execute(&count).expect("runs").is_empty(), "no series has that name");
    }
}

#[test]
fn class_constant_residuals_order_innermost() {
    let c = catalog();
    // Two residual conjuncts the scan cannot absorb: one over the
    // dictionary-encoded metric_name (per-series constant), one over the
    // per-point value column. The class-constant one must sit innermost
    // (deepest Filter / first in the ScanAggregate chain) regardless of
    // source order, so a series can be discarded before any point work.
    let plan = explain(
        &c,
        "SELECT timestamp, value FROM tsdb WHERE value > 1.5 AND metric_name != 'disk'",
    );
    let filters: Vec<&str> =
        plan.lines().filter(|l| l.trim_start().starts_with("Filter")).collect();
    assert_eq!(filters.len(), 2, "two residual filters:\n{plan}");
    assert!(filters[0].contains("value"), "point filter outermost:\n{plan}");
    assert!(filters[1].contains("metric_name"), "class filter innermost:\n{plan}");
}

#[test]
fn falls_back_for_plain_tables_and_window_filters() {
    let c = catalog();
    let plan = explain(&c, "SELECT ts, AVG(v) AS m FROM plain GROUP BY ts");
    assert!(!plan.contains("ScanAggregate"), "plan:\n{plan}");
    // A window call anywhere — a projection below, a key, an argument or a
    // residual filter — keeps the aggregate out of the scan.
    for sql in [
        "SELECT t, COUNT(*) AS n FROM (SELECT timestamp AS t, LAG(value) AS prev FROM tsdb) s \
         GROUP BY t",
        "SELECT timestamp, AVG(LAG(value, 0)) AS m FROM tsdb GROUP BY timestamp",
        "SELECT LEAD(metric_name, 0) AS k, COUNT(*) AS n FROM tsdb GROUP BY LEAD(metric_name, 0)",
        "SELECT timestamp, COUNT(*) AS n FROM tsdb WHERE LAG(value, 0) > 1 GROUP BY timestamp",
    ] {
        let plan = explain(&c, sql);
        assert!(!plan.contains("ScanAggregate"), "{sql}:\n{plan}");
        assert!(plan.contains("Aggregate"), "{sql}:\n{plan}");
    }
}

// ---------------------------------------------------------------------------
// CREATE FAMILY: the scan pivot
// ---------------------------------------------------------------------------

#[test]
fn family_statements_over_a_bare_scan_plan_as_the_scan_pivot() {
    let c = catalog();
    // The benchmark's `incident_cold` statement: the identity projection
    // is elided, so the pivot sits straight on the scan and absorbs it.
    let plan = explain_family(
        &c,
        "CREATE FAMILY metrics WITH (layout = 'long', family = 'metric_name') AS \
         SELECT timestamp, metric_name, tag, value FROM tsdb",
    );
    assert_eq!(
        plan,
        "ScanPivot tsdb layout=long ts=timestamp family=metric_name feature=tag value=value"
    );
    // A computed label over two per-series constants, renamed columns,
    // explicit roles, and everything pushable in WHERE pushed.
    let plan = explain_family(
        &c,
        "CREATE FAMILY by_host WITH (layout = 'long', ts = 't', family = 'k', feature = 'f', \
         value = 'v') AS SELECT value AS v, CONCAT(metric_name, '@', tag['host']) AS k, \
         timestamp AS t, tag['grp'] AS f FROM tsdb \
         WHERE metric_name = 'cpu' AND tag['host'] GLOB 'web*' AND timestamp BETWEEN 0 AND 600",
    );
    assert_eq!(
        plan,
        "ScanPivot tsdb name=cpu tag[host]~web* time=[0, 600] layout=long ts=timestamp \
         family=CONCAT(metric_name, '@', tag['host']) feature=tag['grp'] value=value"
    );
}

#[test]
fn every_other_family_shape_keeps_pivot_over_its_ordinary_plan() {
    let c = catalog();
    let long = "CREATE FAMILY f WITH (layout = 'long') AS";
    for (why, sql, below) in [
        (
            "a residual filter on value",
            format!("{long} SELECT timestamp, metric_name, tag, value FROM tsdb WHERE value > 0"),
            "  Filter (value > 0)",
        ),
        (
            "a value that is not the scan's own column",
            format!("{long} SELECT timestamp, metric_name, tag, value * 2 AS value FROM tsdb"),
            "  Project [",
        ),
        (
            "a label over a per-point column",
            format!(
                "{long} SELECT timestamp, metric_name, timestamp % 2 AS parity, value FROM tsdb"
            ),
            "  Project [",
        ),
        (
            "a window call in a label",
            format!("{long} SELECT timestamp, LAG(metric_name, 0) AS fam, tag, value FROM tsdb"),
            "  Project [",
        ),
        (
            "an ORDER BY between pivot and scan",
            format!("{long} SELECT timestamp, metric_name, tag, value FROM tsdb ORDER BY value"),
            "  Sort [",
        ),
        (
            "a join",
            format!(
                "{long} SELECT tsdb.timestamp, tsdb.metric_name, tsdb.tag, plain.v FROM tsdb \
                 JOIN plain ON tsdb.timestamp = plain.ts"
            ),
            "  Project [",
        ),
        (
            "a registered table",
            format!("{long} SELECT ts, 'fam', 'feat', v FROM plain"),
            "  Project [",
        ),
        (
            "the wide layout",
            "CREATE FAMILY f WITH (family = 'metric_name') AS \
             SELECT timestamp, metric_name, value FROM tsdb"
                .to_string(),
            "  TsdbScan tsdb columns=[timestamp, metric_name, value]",
        ),
        // A scan aggregate under a pivot that `scan_aggregate_pivot` does
        // not take.
        (
            "the long layout over a GROUP BY",
            format!(
                "{long} SELECT timestamp, metric_name, tag['host'] AS h, AVG(value) AS v \
                 FROM tsdb GROUP BY timestamp, metric_name, tag['host']"
            ),
            "  ScanAggregate tsdb",
        ),
        (
            "a feature that is not a bare aggregate call",
            "CREATE FAMILY f WITH (family = 'metric_name') AS SELECT timestamp, metric_name, \
             SUM(value) / COUNT(value) AS mean FROM tsdb GROUP BY timestamp, metric_name"
                .to_string(),
            "  ScanAggregate tsdb",
        ),
        (
            "a family that is one of two class keys",
            "CREATE FAMILY f WITH (family = 'metric_name') AS SELECT timestamp, metric_name, \
             AVG(value) AS v FROM tsdb GROUP BY timestamp, metric_name, tag['host']"
                .to_string(),
            "  ScanAggregate tsdb",
        ),
        (
            "no timestamp key",
            "CREATE FAMILY f WITH (family = 'metric_name') AS SELECT MAX(timestamp) AS t, \
             metric_name, AVG(value) AS v FROM tsdb GROUP BY metric_name"
                .to_string(),
            "  ScanAggregate tsdb",
        ),
        (
            "an ORDER BY key",
            "CREATE FAMILY f WITH (family = 'metric_name') AS SELECT timestamp, metric_name, \
             AVG(value) AS v FROM tsdb GROUP BY timestamp, metric_name ORDER BY timestamp"
                .to_string(),
            "  Sort [",
        ),
    ] {
        let plan = explain_family(&c, &sql);
        assert!(plan.starts_with("Pivot layout="), "{why}:\n{plan}");
        assert!(!plan.contains("ScanPivot"), "{why}:\n{plan}");
        let second = plan.lines().nth(1).unwrap_or_default();
        assert!(second.starts_with(below), "{why}:\n{plan}");
    }
    // The benchmark's `family_agg_paged` statement: a wide pivot over the
    // scan-level aggregate, the two fused into one line.
    let by_name = "CREATE FAMILY by_name WITH (family = 'metric_name') AS \
         SELECT timestamp, metric_name, AVG(value) AS mean_v, MAX(value) AS max_v, \
         STDDEV(value) AS sd_v FROM tsdb GROUP BY timestamp, metric_name";
    assert_eq!(
        explain_family(&c, by_name),
        "ScanAggregatePivot tsdb layout=wide ts=timestamp family=metric_name \
         group=[timestamp, metric_name] items=[timestamp AS timestamp, \
         metric_name AS metric_name, AVG(value) AS mean_v, MAX(value) AS max_v, \
         STDDEV(value) AS sd_v]"
    );
    // Its stage-one query alone is the row path, with typed key columns:
    // the timestamps as they stand on the grids, the class key by
    // dictionary code.
    let Ok(Statement::CreateFamily(cf)) = parse_statement(by_name) else { panic!("parses") };
    let stage_one = c.execute_query(&cf.query).expect("stage one runs");
    assert_eq!(stage_one.len(), 6, "five cpu timestamps and disk's one");
    assert!(matches!(stage_one.column_at(0), Column::Int(_)), "{:?}", stage_one.column_at(0));
    assert!(matches!(stage_one.column_at(1), Column::Dict { .. }), "{:?}", stage_one.column_at(1));
    assert!(matches!(stage_one.column_at(2), Column::Float(_)), "{:?}", stage_one.column_at(2));
    // Unresolvable roles plan (and explain) as the table pivot; running
    // the statement is what reports them.
    let plan = explain_family(
        &c,
        "CREATE FAMILY f WITH (layout = 'long', family = 'nope') AS \
         SELECT timestamp, metric_name, tag, value FROM tsdb",
    );
    assert!(plan.starts_with("Pivot layout=long ts=? family=? feature=? value=?"), "{plan}");
    // A single-family wide pivot names the family it pivots into: over a
    // plain scan as the table pivot, over a scan aggregate fused.
    let plan = explain_family(
        &c,
        "CREATE FAMILY target AS SELECT timestamp, value AS v FROM tsdb WHERE value > 0",
    );
    assert!(plan.starts_with("Pivot layout=wide ts=timestamp into=target\n"), "{plan}");
    let plan = explain_family(
        &c,
        "CREATE FAMILY target AS SELECT timestamp, AVG(value) AS v FROM tsdb GROUP BY timestamp",
    );
    assert_eq!(
        plan,
        "ScanAggregatePivot tsdb layout=wide ts=timestamp into=target group=[timestamp] \
         items=[timestamp AS timestamp, AVG(value) AS v]"
    );
}
