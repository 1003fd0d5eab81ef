//! Plan-time semantic analysis, locked down from the outside:
//!
//! * a **negative corpus** of statements the static checker
//!   ([`explainit_query::check_query`], run inside `execute` between
//!   planning and optimization) must reject *before* any data is touched,
//!   each with a byte-position-bearing diagnostic;
//! * the **hostile shapes** — nesting and operator chains deep enough to
//!   overflow any recursive walker — which the parser must refuse with a
//!   byte position, and one expression at its bound that every engine
//!   still runs;
//! * a property test for the checker's sound direction: on a pool mixing
//!   well- and ill-typed fragments, every statement the checker accepts
//!   runs at partitions 1 and 3 and on the reference interpreter without
//!   a `Type`/`BadFunction` error;
//! * the `EXPLAIN` refinement annotations (`refine=dict|kernel|general`)
//!   derived from the inferred column types.
//!
//! The checker is deliberately conservative — it rejects only statements
//! guaranteed to fail on non-empty input — so acceptance never implies the
//! reference engine would have errored, and the differential suite stays
//! the authority on result agreement.

use explainit_query::{parse_query, Catalog, ExecOptions, QueryError, Table, Value};
use explainit_tsdb::{SeriesKey, Tsdb};
use proptest::prelude::*;

const HOSTS: [&str; 3] = ["web-1", "web-2", "db-1"];

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(
        "t",
        Table::from_rows(
            &["ts", "host", "v"],
            (0..12)
                .map(|i| {
                    vec![
                        Value::Int(i % 4),
                        Value::str(HOSTS[(i % 3) as usize]),
                        Value::Float(f64::from(i as i32) - 4.5),
                    ]
                })
                .collect(),
        ),
    );
    c.register(
        "u",
        Table::from_rows(
            &["ts", "w"],
            (0..6).map(|i| vec![Value::Int(i % 3), Value::Float(f64::from(i as i32))]).collect(),
        ),
    );
    let mut db = Tsdb::new();
    for (m, metric) in ["cpu", "disk_read"].iter().enumerate() {
        for (h, host) in HOSTS.iter().enumerate() {
            let key = SeriesKey::new(*metric).with_tag("host", *host);
            for ts in 0..5i64 {
                db.try_insert(&key, ts * 100, (m + h) as f64 + ts as f64 * 0.5).expect("insert");
            }
        }
    }
    c.register_tsdb("tsdb", &db);
    c
}

/// Every statement here is guaranteed to fail on non-empty input, so the
/// checker rejects it at plan time — before optimization or execution —
/// with a source position in the message.
const NEGATIVE_CORPUS: [&str; 20] = [
    // String/numeric arithmetic and negation.
    "SELECT v + host FROM t",
    "SELECT host - 1 FROM t",
    "SELECT -host AS neg FROM t",
    "SELECT v FROM t WHERE host * 2 > 0",
    "SELECT v FROM t ORDER BY host + 1",
    // Scalar function typing and arity.
    "SELECT UPPER(v) FROM t",
    "SELECT UPPER(host, host) FROM t",
    "SELECT SPLIT(host) FROM t",
    "SELECT ROUND(v, host) FROM t",
    "SELECT GREATEST(host, v) AS g FROM t",
    "SELECT LENGTH(ts) AS l FROM t",
    "SELECT NOSUCHFN(v) FROM t",
    // Window arity and offset typing.
    "SELECT LAG(v, host) AS l FROM t",
    // Aggregates in row contexts, nesting, PERCENTILE's p contract.
    "SELECT v FROM t WHERE AVG(v) > 0",
    "SELECT AVG(AVG(v)) AS a FROM t",
    "SELECT ts, PERCENTILE(v, 1.5) AS p FROM t GROUP BY ts",
    "SELECT ts, PERCENTILE(v, v) AS p FROM t GROUP BY ts",
    // Indexing.
    "SELECT tag[5] FROM tsdb",
    "SELECT SPLIT(host, '-')['x'] FROM t",
    // UNION arity.
    "SELECT v FROM t UNION ALL SELECT ts, v FROM t",
];

#[test]
fn negative_corpus_rejected_at_plan_time_with_positions() {
    let c = catalog();
    for sql in NEGATIVE_CORPUS {
        let err = c.execute(sql).expect_err(sql);
        let msg = err.to_string();
        assert!(msg.contains("at byte"), "no source position for {sql}: {msg}");
        // EXPLAIN goes through the same gate: the plan of a statement that
        // cannot run is not worth printing.
        let explained = c.execute(&format!("EXPLAIN {sql}"));
        assert!(explained.is_err(), "EXPLAIN bypassed the checker for {sql}");
    }
}

/// Statements that used to end the process (`thread 'main' has overflowed
/// its stack`): the parser bounds expression height — nesting depth and
/// the height of a left-deep operator chain alike — so each is an ordinary
/// parse error with a position, under `EXPLAIN` too.
#[test]
fn hostile_shapes_are_parse_errors_not_stack_overflows() {
    let c = catalog();
    let hostile = [
        format!("SELECT {}1{}", "(".repeat(5_000), ")".repeat(5_000)),
        format!("SELECT 1{}", " + 1".repeat(200_000)),
        format!("SELECT {}v{} FROM t", "ABS(".repeat(20_000), ")".repeat(20_000)),
        format!("SELECT {}v FROM t", "- ".repeat(20_000)),
        format!("SELECT v FROM t WHERE v > 0{}", " AND v > 0".repeat(100_000)),
    ];
    for sql in &hostile {
        for sql in [sql.clone(), format!("EXPLAIN {sql}")] {
            let shown = &sql[..40];
            match c.execute(&sql) {
                Err(QueryError::Parse(m)) => {
                    assert!(m.contains("nests deeper") && m.contains("(at byte "), "{shown}: {m}")
                }
                other => panic!("{shown}…: expected a parse error, got {other:?}"),
            }
        }
    }
}

/// The deepest expressions the parser accepts — 64 levels of nesting, a
/// 64-high operator chain, a 64-high conjunction — run on every engine, on
/// worker threads (partitions 3) included; one level more is refused.
#[test]
fn expressions_at_the_height_bound_run_on_every_engine() {
    let c = catalog();
    let statement = |levels: usize, v: &str, table: &str| {
        format!(
            "SELECT {}{v}{} AS nested, {v}{} AS chained FROM {table} WHERE {v} IS NOT NULL{}",
            "ABS(".repeat(levels - 1),
            ")".repeat(levels - 1),
            " + 1".repeat(levels - 1),
            format!(" AND {v} IS NOT NULL").repeat(levels - 2),
        )
    };
    for (v, table, rows) in [("v", "t", 12), ("value", "tsdb", 30)] {
        let query = parse_query(&statement(64, v, table)).expect("at the bound");
        let reference = explainit_query::reference::execute_naive(&c, &query).expect("reference");
        assert_eq!(reference.len(), rows);
        for partitions in [1, 3] {
            let got = c
                .execute_query_with(&query, ExecOptions::with_partitions(partitions))
                .expect("executes");
            assert_eq!(got.rows(), reference.rows(), "{table} partitions={partitions}");
        }
        assert!(matches!(parse_query(&statement(65, v, table)), Err(QueryError::Parse(_))));
    }
}

#[test]
fn checker_errors_carry_exact_variants() {
    let c = catalog();
    assert!(matches!(c.execute("SELECT v + host FROM t"), Err(QueryError::Type(_))));
    assert!(matches!(c.execute("SELECT SPLIT(host) FROM t"), Err(QueryError::BadFunction(_))));
    assert!(matches!(c.execute("SELECT v FROM t WHERE AVG(v) > 0"), Err(QueryError::Plan(_))));
    assert!(matches!(
        c.execute("SELECT v FROM t UNION ALL SELECT ts, v FROM t"),
        Err(QueryError::Plan(_))
    ));
    // Near-miss suggestions ride along on unknown columns.
    let err = c.execute("SELECT hosst FROM t").unwrap_err();
    assert!(
        matches!(&err, QueryError::UnknownColumn(m) if m.contains("host") && m.contains("at byte")),
        "{err}"
    );
}

#[test]
fn explain_annotates_static_refinement_classes() {
    let c = catalog();
    let text = |sql: &str| {
        let t = c.execute(sql).expect(sql);
        t.rows().iter().map(|r| r[0].render()).collect::<Vec<_>>().join("\n")
    };
    // Residual chain over the TSDB scan: one predicate per class. Dict
    // predicates touch only the per-series-constant columns (even through
    // functions — they evaluate once per series), kernel predicates are
    // span-refinable point comparisons, and anything else over the point
    // columns is general. The optimizer orders them dict (innermost) →
    // kernel → general, and the annotations must show that.
    let plan = text(
        "EXPLAIN SELECT timestamp FROM tsdb \
         WHERE value > 1.0 AND UPPER(metric_name) = 'CPU' AND ABS(value) < 9.0",
    );
    let class_line = |class: &str| {
        plan.lines()
            .position(|l| l.contains(&format!("refine={class}")))
            .unwrap_or_else(|| panic!("no refine={class} line in:\n{plan}"))
    };
    let (general, kernel, dict) = (class_line("general"), class_line("kernel"), class_line("dict"));
    assert!(general < kernel && kernel < dict, "outermost-first order violated:\n{plan}");
    // A registered (non-TSDB) table: the inferred types decide. `v` is a
    // dense Float column, so a comparison against a literal is
    // kernel-refinable; a LIKE over the string column is not.
    let plan = text("EXPLAIN SELECT v FROM t WHERE v > 1.0");
    assert!(plan.contains("refine=kernel"), "{plan}");
    let plan = text("EXPLAIN SELECT v FROM t WHERE host LIKE 'web%'");
    assert!(plan.contains("refine=general"), "{plan}");
}

// --- Property: accepted by the checker => no runtime type errors. -------

/// Projection fragments, well- and ill-typed. The ill-typed ones are
/// guaranteed runtime failures the checker must catch; the well-typed
/// ones must then run cleanly everywhere.
const ITEM_POOL: [&str; 16] = [
    "v * 2",
    "ts + 1",
    "UPPER(host)",
    "CONCAT(host, v)",
    "SPLIT(host, '-')[0]",
    "COALESCE(v, 0.0)",
    "GREATEST(v, ts)",
    "ABS(v)",
    "NULLIF(host, 'web-1')",
    "IF(v > 0, 1, 2)",
    "LAG(v, 1)",
    "host + 1",
    "UPPER(v)",
    "-host",
    "ROUND(v, host)",
    "SUBSTR(host)",
];

const PRED_POOL: [&str; 6] = [
    "ts > 1",
    "host LIKE 'web%'",
    "v IS NOT NULL",
    "v + host > 0",
    "host GLOB 1",
    "UPPER(ts) = 'X'",
];

const AGG_POOL: [&str; 8] = [
    "AVG(v)",
    "COUNT(*)",
    "SUM(v)",
    "MIN(UPPER(host))",
    "PERCENTILE(v, 0.5)",
    "PERCENTILE(v, 2.0)",
    "PERCENTILE(v)",
    "SUM(UPPER(v))",
];

fn assert_accepted_runs_clean(c: &Catalog, sql: &str) -> Result<(), TestCaseError> {
    let query =
        parse_query(sql).unwrap_or_else(|e| panic!("pool statement must parse: {sql}: {e}"));
    if explainit_query::check_query(c, &query).is_err() {
        // Rejected statements are covered by the negative corpus; the
        // property under test is the sound direction only.
        return Ok(());
    }
    for partitions in [1, 3] {
        if let Err(e) = c.execute_query_with(&query, ExecOptions::with_partitions(partitions)) {
            prop_assert!(
                !matches!(e, QueryError::Type(_) | QueryError::BadFunction(_)),
                "checker accepted {sql} but partitions={partitions} raised {e}"
            );
        }
    }
    if let Err(e) = explainit_query::reference::execute_naive(c, &query) {
        prop_assert!(
            !matches!(e, QueryError::Type(_) | QueryError::BadFunction(_)),
            "checker accepted {sql} but the reference raised {e}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn accepted_plain_selects_never_type_error(
        i1 in 0usize..ITEM_POOL.len(),
        i2 in 0usize..ITEM_POOL.len(),
        p in 0usize..PRED_POOL.len(),
        filtered in any::<bool>(),
    ) {
        let c = catalog();
        let filter = if filtered { format!(" WHERE {}", PRED_POOL[p]) } else { String::new() };
        let sql = format!("SELECT {} AS a, {} AS b FROM t{}", ITEM_POOL[i1], ITEM_POOL[i2], filter);
        assert_accepted_runs_clean(&c, &sql)?;
    }

    #[test]
    fn accepted_grouped_selects_never_type_error(
        a1 in 0usize..AGG_POOL.len(),
        a2 in 0usize..AGG_POOL.len(),
        p in 0usize..PRED_POOL.len(),
        filtered in any::<bool>(),
        key_is_host in any::<bool>(),
    ) {
        let c = catalog();
        let key = if key_is_host { "host" } else { "ts" };
        let filter = if filtered { format!(" WHERE {}", PRED_POOL[p]) } else { String::new() };
        let sql = format!(
            "SELECT {key}, {} AS a, {} AS b FROM t{} GROUP BY {key}",
            AGG_POOL[a1], AGG_POOL[a2], filter
        );
        assert_accepted_runs_clean(&c, &sql)?;
    }
}
