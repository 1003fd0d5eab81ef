//! Differential testing: the plan → optimize → columnar-execute pipeline
//! must produce *identical* tables to the retained naive row interpreter
//! (`explainit_query::reference`) on randomly generated queries and data —
//! same schema, same rows, same row order.
//!
//! The harness is *oracle × partitions × backend*: every query runs at
//! partition counts 1 (one morsel — serial execution) and 3 (a forced
//! multi-morsel split, so partial-aggregate merging is exercised even on
//! small inputs and single-core machines), and every query over the store
//! runs against two backends — the live TSDB binding (pushdown scan,
//! merge gather, **scan-aggregate** operator) and the same observations
//! registered as a plain table (the ordinary filter/aggregate pipeline on
//! observation-shaped data). All of them must agree with the reference
//! interpreter bit-for-bit — the accumulators are built to be exactly
//! fold-equivalent (error-free sums, per-class MIN/MAX, gathered
//! PERCENTILE) and the scan-aggregate operator reconstructs the serial
//! first-seen group order from each group's earliest (timestamp, series
//! rank) contribution, so this is an equality check, not an epsilon one.
//!
//! `CREATE FAMILY` rides on the same generators: over the store, the
//! statement entry point (`Catalog::execute_family` — on the live binding
//! the scan pivot for a long statement over a bare scan, the scan aggregate
//! pivot for a wide one over a `GROUP BY`; the table pivot on the
//! plain-table backend) must equal the table pivot (`PivotSpec::frames`)
//! over the stage-one query executed on the plain-table backend, frame for
//! frame: names, family order, feature order, timestamps, every cell by its
//! bits.
//!
//! Every generator pool mixes plain operators with scalar calls, `CASE`
//! and `LAG`/`LEAD` — in SELECT, WHERE, GROUP BY and aggregate arguments —
//! so the column evaluator's scalar, short-circuit and window paths run
//! under the morsel split too.

use explainit_query::reference::execute_naive;
use explainit_query::{
    parse_query, parse_statement, Catalog, Column, CreateFamily, ExecOptions, FamilyFrame,
    PivotSpec, Query, QueryError, Statement, Table, Value,
};
use explainit_tsdb::{glob_match, MetricFilter, SeriesKey, Tsdb};
use proptest::prelude::*;

const HOSTS: [&str; 4] = ["web-1", "web-2", "db-1", "app-3"];
const METRICS: [&str; 3] = ["cpu", "disk_read", "pipeline_runtime"];

/// Rows for table `t(ts, host, v)`.
fn t_rows() -> impl Strategy<Value = Vec<(i64, usize, f64)>> {
    proptest::collection::vec((0i64..5, 0usize..HOSTS.len(), -50.0f64..50.0), 0..25)
}

/// Rows for table `u(ts, w)`.
fn u_rows() -> impl Strategy<Value = Vec<(i64, f64)>> {
    proptest::collection::vec((0i64..5, -50.0f64..50.0), 0..15)
}

/// Observations for the TSDB: (metric, host, ts, value).
fn tsdb_points() -> impl Strategy<Value = Vec<(usize, usize, i64, f64)>> {
    proptest::collection::vec(
        (0usize..METRICS.len(), 0usize..HOSTS.len(), 0i64..400, -10.0f64..10.0),
        0..60,
    )
}

/// A catalog over the plain tables `t` and `u` (one backend: no store).
fn table_catalog(t: &[(i64, usize, f64)], u: &[(i64, f64)]) -> [Catalog; 1] {
    let mut catalog = Catalog::new();
    catalog.register(
        "t",
        Table::from_rows(
            &["ts", "host", "v"],
            t.iter()
                .map(|&(ts, h, v)| vec![Value::Int(ts), Value::str(HOSTS[h]), Value::Float(v)])
                .collect(),
        ),
    );
    catalog.register(
        "u",
        Table::from_rows(
            &["ts", "w"],
            u.iter().map(|&(ts, w)| vec![Value::Int(ts), Value::Float(w)]).collect(),
        ),
    );
    [catalog]
}

/// The two backends of one store under the name `tsdb`: the live binding,
/// and the sort-built observation table behind its `Catalog::get`
/// registered as a plain table — identical rows in identical order,
/// reached without any pushdown.
fn backends_of(db: &Tsdb) -> [Catalog; 2] {
    let mut bound = Catalog::new();
    bound.register_tsdb("tsdb", db);
    let mut plain = Catalog::new();
    plain.register("tsdb", bound.get("tsdb").expect("bound above").as_ref().clone());
    [bound, plain]
}

fn tsdb_backends(points: &[(usize, usize, i64, f64)]) -> [Catalog; 2] {
    aligned_tsdb_backends(points, 0)
}

/// [`tsdb_backends`] with the series whose bit (`metric × hosts + host`) is
/// set in `aligned` snapped onto one shared 8-slot grid, every slot present.
/// A scan-aggregate class made of snapped series only takes their vector as
/// its grid and each point's index as its slot; one that mixes in an
/// unsnapped series takes the merged union and seeks.
fn aligned_tsdb_backends(points: &[(usize, usize, i64, f64)], aligned: u32) -> [Catalog; 2] {
    let key = |m: usize, h: usize| SeriesKey::new(METRICS[m]).with_tag("host", HOSTS[h]);
    let snapped = |m: usize, h: usize| aligned >> (m * HOSTS.len() + h) & 1 == 1;
    let mut db = Tsdb::new();
    for (m, h) in (0..METRICS.len()).flat_map(|m| (0..HOSTS.len()).map(move |h| (m, h))) {
        for slot in (0..8).filter(|_| snapped(m, h)) {
            db.insert(&key(m, h), slot * 50, (m + h) as f64 - slot as f64);
        }
    }
    for &(m, h, ts, v) in points {
        db.insert(&key(m, h), if snapped(m, h) { ts / 50 * 50 } else { ts }, v);
    }
    // One tag-free series so `tag['host'] IS NULL` has hits.
    db.insert(&SeriesKey::new("untagged"), 0, 1.0);
    backends_of(&db)
}

/// Runs `sql` through the reference interpreter and, on every backend, at
/// partition counts 1 and 3, asserting all agree (or all reject).
fn assert_same(backends: &[Catalog], sql: &str) -> Result<(), TestCaseError> {
    assert_same_at(backends, sql, &[1, 3])
}

fn assert_same_at(
    backends: &[Catalog],
    sql: &str,
    partitions: &[usize],
) -> Result<(), TestCaseError> {
    let query = match parse_query(sql) {
        Ok(q) => q,
        Err(e) => panic!("generated query must parse: {sql}: {e}"),
    };
    for (backend, catalog) in backends.iter().enumerate() {
        let naive = execute_naive(catalog, &query);
        for &parts in partitions {
            let fast = catalog.execute_query_with(&query, ExecOptions::with_partitions(parts));
            match (&fast, &naive) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(
                        a.schema().columns(),
                        b.schema().columns(),
                        "schema mismatch on backend {} at partitions={} for {}",
                        backend,
                        parts,
                        sql
                    );
                    prop_assert_eq!(
                        a.rows(),
                        b.rows(),
                        "row mismatch on backend {} at partitions={} for {}",
                        backend,
                        parts,
                        sql
                    );
                }
                // Both reject: fine (same class not enforced, message may differ).
                (Err(_), Err(_)) => {}
                _ => panic!(
                    "divergent outcome on backend {backend} at partitions={parts} for {sql}:\n  \
                     pipeline: {:?}\n  reference: {:?}",
                    fast.as_ref().map(Table::len),
                    naive.as_ref().map(Table::len)
                ),
            }
        }
    }
    Ok(())
}

/// Pinned cases: `query` must return exactly `expect` (compared as
/// rendered, so NaN cells compare too) on every backend at every
/// partition count.
fn assert_pinned(backends: &[Catalog], query: &Query, partitions: &[usize], expect: &Table) {
    let rendered = |t: &Table| format!("{:?}", t.rows());
    for (backend, catalog) in backends.iter().enumerate() {
        for &parts in partitions {
            let out = catalog
                .execute_query_with(query, ExecOptions::with_partitions(parts))
                .expect("pinned query runs");
            assert_eq!(out.schema(), expect.schema(), "backend {backend} partitions={parts}");
            assert_eq!(rendered(&out), rendered(expect), "backend {backend} partitions={parts}");
        }
    }
}

const PREDICATES: [&str; 14] = [
    "ts > 2",
    "v <= 10.0",
    "host LIKE 'web%'",
    "host = 'web-1'",
    "ts BETWEEN 1 AND 3",
    "v * 2 > -20.0",
    "ts IN (0, 2, 4)",
    "host IS NOT NULL",
    "UPPER(host) LIKE 'WEB%'",
    "SPLIT(host, '-')[0] IN ('web', 'db')",
    "CASE WHEN v > 0 THEN ts ELSE 0 END >= 1",
    "ABS(v) < 20.0 OR LENGTH(host) = 4",
    "LAG(ts, 0) > 1",
    "COALESCE(LEAD(v), ts) > 1",
];

const PROJECTIONS: [&str; 8] = [
    "*",
    "ts, v",
    "host, v * 2 AS dv",
    "ts + 1 AS t2, v",
    "UPPER(host) AS uh, CASE WHEN v > 0 THEN 'pos' WHEN v < -25 THEN 'low' END AS sign",
    "ts, LAG(v, 1) AS prev, LEAD(ts) AS nxt, LAG(host, 2, 'none') AS h2",
    "CONCAT(host, '/', ts) AS k, GREATEST(v, 0) AS g, -ts AS neg",
    "CASE WHEN ts > 1 THEN LAG(v) ELSE ROUND(v, 1) END AS c, v - LAG(v, 1, 0.0) AS dv",
];

/// GROUP BY keys over `t`: bare columns, scalar calls, `CASE`, and a
/// window call (which, in a key, sees only its own row).
const T_KEYS: [&str; 6] = [
    "host",
    "ts",
    "UPPER(host)",
    "SPLIT(host, '-')[0]",
    "CASE WHEN ts < 2 THEN 'early' ELSE host END",
    "LAG(ts, 0)",
];

const ORDERS: [&str; 4] = ["", " ORDER BY ts", " ORDER BY v DESC", " ORDER BY ts DESC, v"];

/// Aggregate select lists for the aggregate-heavy generator — mixes the
/// corrected semantics (sample STDDEV/VARIANCE, Int-preserving SUM,
/// constant-p PERCENTILE) with the mergeable basics.
const AGG_ITEMS: [&str; 9] = [
    "AVG(v) AS m, COUNT(*) AS n, MAX(v) AS mx",
    "SUM(v) AS s, MIN(v) AS lo, STDDEV(v) AS sd",
    "VARIANCE(v) AS var, PERCENTILE(v, 0.5) AS med",
    "SUM(ts) AS s_int, COUNT(v) AS n",
    "PERCENTILE(v, 0.9) AS p90, STDDEV(v) AS sd, SUM(v) AS s",
    "MIN(host) AS h0, MAX(host) AS h1, VARIANCE(ts) AS vt",
    "AVG(GREATEST(v, 0)) AS g, SUM(CASE WHEN v > 0 THEN 1 ELSE 0 END) AS pos",
    "MAX(LENGTH(host)) AS l, MIN(UPPER(host)) AS u, COUNT(NULLIF(ts, 2)) AS n2",
    "COUNT(LAG(v)) AS c, SUM(LEAD(ts, 0)) AS s0, MAX(LAG(v, 1, 0.5)) AS d",
];

/// Group-key lists for the scan-aggregate generator: the timestamp
/// column, dictionary-encoded keys, and combinations of both.
const SA_KEYS: [&str; 9] = [
    "timestamp",
    "metric_name",
    "tag['host']",
    "timestamp, tag['host']",
    "metric_name, timestamp",
    "timestamp, metric_name, CONCAT(tag['host'], metric_name)",
    "UPPER(metric_name), timestamp",
    "CASE WHEN tag['host'] IS NULL THEN 'none' ELSE SPLIT(tag['host'], '-')[0] END",
    "timestamp, LAG(metric_name, 0)",
];

/// Aggregate lists for the scan-aggregate generator: mixed mergeable
/// aggregates (SUM/AVG/STDDEV/PERCENTILE), Int-typed SUM over the
/// timestamp column, per-class MIN/MAX over dictionary expressions, and a
/// computed per-point argument.
const SA_ITEMS: [&str; 9] = [
    "AVG(value) AS m, COUNT(*) AS n, MAX(value) AS mx",
    "SUM(value) AS s, MIN(value) AS lo, STDDEV(value) AS sd",
    "VARIANCE(value) AS var, PERCENTILE(value, 0.5) AS med",
    "SUM(timestamp) AS s_int, COUNT(value) AS n",
    "PERCENTILE(value, 0.9) AS p90, MIN(tag['host']) AS h0",
    "MIN(metric_name) AS m0, MAX(tag['host']) AS h1, SUM(value * 2) AS s2",
    "AVG(GREATEST(value, 0)) AS g, SUM(CASE WHEN value > 0 THEN 1 ELSE 0 END) AS pos",
    "MIN(UPPER(metric_name)) AS mu, MAX(COALESCE(tag['host'], 'none')) AS h, SUM(ABS(value)) AS a",
    "COUNT(LAG(value)) AS c, MAX(LEAD(value, 0)) AS l0",
];

/// WHERE clauses for the scan-aggregate generator: fully pushable
/// predicates, residual value filters, and mixes of both.
const SA_FILTERS: [&str; 12] = [
    "",
    " WHERE metric_name = 'cpu'",
    " WHERE timestamp BETWEEN {lo} AND {hi}",
    " WHERE value > -5.0",
    " WHERE tag['host'] GLOB 'web*'",
    " WHERE metric_name GLOB 'disk*' AND value > 0.0",
    " WHERE tag['host'] IS NULL",
    " WHERE UPPER(metric_name) LIKE 'C%'",
    " WHERE SPLIT(tag['host'], '-')[0] IN ('web', 'db') AND value > -8.0",
    " WHERE CASE WHEN value > 0 THEN timestamp ELSE 0 END >= {lo}",
    " WHERE ABS(value) < 5.0 OR LENGTH(metric_name) = 3",
    " WHERE LAG(value, 0) > -8.0 AND CONCAT(metric_name, tag['host']) != 'cpuweb-1'",
];

/// Outputs that are neither a bare group key nor a bare aggregate call —
/// both aggregate operators finish them with the column evaluator over
/// their key and finished-aggregate columns; one that reads `{c}` reads the
/// group's first row, which only the table aggregate keeps. `{v}` is the
/// value column and `{c}` a non-key column of the table under test.
const POST_ITEMS: [&str; 6] = [
    "SUM({v}) / COUNT({v}) AS mean",
    "MAX({v}) - MIN({v}) AS spread, COUNT(*) AS n",
    "AVG({v}) + 1 AS a1, AVG({v}) AS a",
    "CASE WHEN COUNT(*) > 1 THEN MAX({v}) ELSE -1.0 END AS top",
    "{c} AS first_c, COUNT(*) AS n",
    "CASE WHEN MIN({v}) < 0 THEN COUNT({v}) ELSE 0 END AS negs, STDDEV({v}) * 2 AS sd2, {c}",
];

/// `(group key, non-key column)` pairs for [`POST_ITEMS`] over `t` …
const POST_T_KEYS: [(&str, &str); 2] = [("ts", "host"), ("host", "ts")];

/// … and over `tsdb`.
const POST_TSDB_KEYS: [(&str, &str); 3] =
    [("timestamp", "metric_name"), ("metric_name", "timestamp"), ("tag['host']", "value")];

const POST_ORDERS: [&str; 3] = ["", " ORDER BY {key}", " ORDER BY SUM({v}) / COUNT({v}) DESC"];

/// Family / feature label expressions for the family-statement generator:
/// the scan's dictionary columns, a tag, a two-column scalar call, and a
/// tag no series carries (every label `"NULL"`). Several pairs put two
/// series on one (family, feature) column.
const FAMILY_LABELS: [&str; 5] =
    ["metric_name", "tag", "tag['host']", "CONCAT(metric_name, tag['host'])", "tag['absent']"];

/// Pushable WHERE clauses for the family-statement generator.
const FAMILY_FILTERS: [&str; 4] = [
    "",
    " WHERE metric_name = 'cpu'",
    " WHERE timestamp BETWEEN {lo} AND {hi}",
    " WHERE metric_name GLOB '*e*' AND timestamp >= {lo}",
];

/// Class keys for the wide family-statement generator: the dictionary
/// columns, a tag some series lack, a two-column scalar call, a tag no
/// series carries, and one class whose series render as `1` or `1.0`.
const WIDE_FAMILIES: [&str; 5] = [
    "metric_name",
    "tag['host']",
    "CONCAT(metric_name, tag['host'])",
    "tag['absent']",
    "CASE WHEN tag['host'] LIKE 'web%' THEN 1 ELSE 1.0 END",
];

/// Features for the wide generator: dense and boxed calls, `Int` columns
/// (`COUNT`, `SUM(timestamp)`) and a NULL for a one-point `STDDEV`.
const WIDE_FEATURES: [&str; 7] = [
    "AVG(value)",
    "MAX(value)",
    "MIN(value)",
    "STDDEV(value)",
    "COUNT(value)",
    "SUM(timestamp)",
    "SUM(value * 2)",
];

/// WHERE clauses for the wide generator: pushed, residual (a class whose
/// every point goes), and none.
const WIDE_FILTERS: [&str; 4] = [
    "",
    " WHERE metric_name = 'cpu'",
    " WHERE value > 0",
    " WHERE timestamp BETWEEN {lo} AND {hi}",
];

/// The wide family statement over `tsdb`: grouped by `timestamp` and the
/// class key `family` (the family role), or by `timestamp` alone into the
/// one family `fams`.
fn wide_family_statement(family: Option<&str>, features: &[String], filter: &str) -> String {
    let features = features.join(", ");
    match family {
        Some(family) => format!(
            "CREATE FAMILY fams WITH (family = 'fam') AS SELECT timestamp, {family} AS fam, \
             {features} FROM tsdb{filter} GROUP BY timestamp, {family}"
        ),
        None => format!(
            "CREATE FAMILY fams AS SELECT timestamp, {features} FROM tsdb{filter} \
             GROUP BY timestamp"
        ),
    }
}

/// The long-layout family statement over `tsdb` with the given labels.
fn family_statement(family: &str, feature: &str, filter: &str) -> String {
    format!(
        "CREATE FAMILY fams WITH (layout = 'long') AS \
         SELECT timestamp, {family} AS fam, {feature} AS feat, value FROM tsdb{filter}"
    )
}

/// Every cell's bits (`==` on frames would let `-0.0` pass for `0.0`).
fn cell_bits(frames: &[FamilyFrame]) -> Vec<Vec<Vec<u64>>> {
    let bits = |c: &Vec<f64>| c.iter().map(|v| v.to_bits()).collect();
    frames.iter().map(|f| f.columns.iter().map(bits).collect()).collect()
}

/// `execute_family(sql)` on every backend at partitions 1 and 3 against
/// the oracle: the table pivot (`PivotSpec::frames`) over the stage-one
/// query executed on the plain-table backend (no scan operator anywhere
/// near it). The live binding must have planned the statement as `fused`,
/// the first word of its one plan line.
fn assert_family_same(backends: &[Catalog; 2], sql: &str, fused: &str) {
    let Ok(Statement::CreateFamily(cf)) = parse_statement(sql) else {
        panic!("generated statement must parse: {sql}");
    };
    let plan = backends[0].explain_family(&cf).expect("plans");
    let line = plan.rows()[0][0].render();
    assert!(line.starts_with(&format!("{fused} tsdb")), "{sql}: {:?}", plan.rows());
    assert_eq!(plan.len(), 1, "{sql}: {:?}", plan.rows());
    assert_frames_same(backends, &cf, sql);
}

/// The comparison of [`assert_family_same`], whichever way the live binding
/// planned the statement.
fn assert_frames_same(backends: &[Catalog; 2], cf: &CreateFamily, sql: &str) {
    let table = backends[1].execute_query(&cf.query).expect("stage one runs");
    let expect = PivotSpec::parse(cf).and_then(|spec| spec.frames(&table)).expect("pivots");
    for (backend, catalog) in backends.iter().enumerate() {
        for parts in [1, 3] {
            let label = format!("backend {backend} at partitions={parts} for {sql}");
            match catalog.execute_family(cf, ExecOptions::with_partitions(parts)) {
                Ok(frames) => {
                    assert_eq!(frames, expect, "{label}");
                    assert_eq!(cell_bits(&frames), cell_bits(&expect), "{label}");
                }
                Err(QueryError::Statement(m)) => {
                    assert!(table.is_empty() && m.contains("returned no rows"), "{label}: {m}")
                }
                Err(e) => panic!("{label}: {e}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn family_statement_equals_the_table_pivot(
        points in tsdb_points(),
        family in 0usize..FAMILY_LABELS.len(),
        feature in 0usize..FAMILY_LABELS.len(),
        f in 0usize..FAMILY_FILTERS.len(),
        lo in 0i64..400,
        span in 0i64..400,
    ) {
        // Gaps the pivot must not write: the value domain's edges become
        // NaN and the infinities.
        let hostile = |v: f64| match v {
            v if v > 9.0 => f64::NAN,
            v if v < -9.5 => f64::NEG_INFINITY,
            v if v.abs() < 0.2 => f64::INFINITY,
            v => v,
        };
        let points: Vec<_> = points.iter().map(|&(m, h, ts, v)| (m, h, ts, hostile(v))).collect();
        let filter = FAMILY_FILTERS[f]
            .replace("{lo}", &lo.to_string())
            .replace("{hi}", &(lo + span).to_string());
        let sql = family_statement(FAMILY_LABELS[family], FAMILY_LABELS[feature], &filter);
        assert_family_same(&tsdb_backends(&points), &sql, "ScanPivot");
    }

    #[test]
    fn wide_family_statement_equals_the_table_pivot(
        points in tsdb_points(),
        family in 0usize..=WIDE_FAMILIES.len(),
        features in proptest::collection::vec(0usize..WIDE_FEATURES.len(), 1..4),
        f in 0usize..WIDE_FILTERS.len(),
        lo in 0i64..400,
        span in 0i64..400,
    ) {
        let hostile = |v: f64| match v {
            v if v > 9.0 => f64::NAN,
            v if v < -9.5 => f64::NEG_INFINITY,
            v if v.abs() < 0.2 => f64::INFINITY,
            v => v,
        };
        let points: Vec<_> = points.iter().map(|&(m, h, ts, v)| (m, h, ts, hostile(v))).collect();
        let filter = WIDE_FILTERS[f]
            .replace("{lo}", &lo.to_string())
            .replace("{hi}", &(lo + span).to_string());
        let features: Vec<String> =
            features.iter().enumerate().map(|(i, &c)| format!("{} AS f{i}", WIDE_FEATURES[c])).collect();
        let sql = wide_family_statement(WIDE_FAMILIES.get(family).copied(), &features, &filter);
        assert_family_same(&tsdb_backends(&points), &sql, "ScanAggregatePivot");
    }

    #[test]
    fn post_aggregate_outputs_agree(
        t in t_rows(),
        points in tsdb_points(),
        items in 0usize..POST_ITEMS.len(),
        k in 0usize..6,
        p in 0usize..PREDICATES.len(),
        f in 0usize..SA_FILTERS.len(),
        filtered in any::<bool>(),
        order in 0usize..POST_ORDERS.len(),
    ) {
        let fill = |text: &str, key: &str, c: &str, v: &str| {
            text.replace("{key}", key).replace("{c}", c).replace("{v}", v)
        };
        let (key, c) = POST_T_KEYS[k % POST_T_KEYS.len()];
        let filter = if filtered { format!(" WHERE {}", PREDICATES[p]) } else { String::new() };
        let sql = fill(
            &format!("SELECT {key}, {} FROM t{filter} GROUP BY {key}{}", POST_ITEMS[items], POST_ORDERS[order]),
            key, c, "v",
        );
        assert_same_at(&table_catalog(&t, &[]), &sql, &[1, 2, 3])?;

        let (key, c) = POST_TSDB_KEYS[k % POST_TSDB_KEYS.len()];
        let filter = if filtered { SA_FILTERS[f].replace("{lo}", "40").replace("{hi}", "300") } else { String::new() };
        let sql = fill(
            &format!("SELECT {key}, {} FROM tsdb{filter} GROUP BY {key}{}", POST_ITEMS[items], POST_ORDERS[order]),
            key, c, "value",
        );
        let backends = tsdb_backends(&points);
        assert_same_at(&backends, &sql, &[1, 2, 3])?;
        // The live binding finishes these in the scan wherever the rule
        // allows: no output reads a non-key column, `MIN`/`MAX(value)` only
        // under a timestamp key, no window call in the filter.
        let plan = backends[0].execute(&format!("EXPLAIN {sql}")).expect("explains");
        let plan = format!("{:?}", plan.rows());
        let fused = !POST_ITEMS[items].contains("{c}")
            && (key == "timestamp" || !POST_ITEMS[items].contains("MAX("))
            && !filter.contains("LAG(");
        prop_assert_eq!(plan.contains("ScanAggregate tsdb"), fused, "{}: {}", sql, plan);
        prop_assert_eq!(plan.contains("TsdbScan tsdb"), !fused, "{}: {}", sql, plan);
    }

    #[test]
    fn plain_selects_agree(
        t in t_rows(), u in u_rows(),
        proj in 0usize..PROJECTIONS.len(),
        p1 in 0usize..PREDICATES.len(),
        p2 in 0usize..PREDICATES.len(),
        conj in any::<bool>(),
        ord in 0usize..ORDERS.len(),
        limit in 0usize..8,
        use_limit in any::<bool>(),
    ) {
        let catalog = table_catalog(&t, &u);
        let glue = if conj { "AND" } else { "OR" };
        let mut sql = format!(
            "SELECT {} FROM t WHERE {} {glue} {}{}",
            PROJECTIONS[proj], PREDICATES[p1], PREDICATES[p2], ORDERS[ord]
        );
        if use_limit {
            sql.push_str(&format!(" LIMIT {limit}"));
        }
        assert_same(&catalog, &sql)?;
    }

    #[test]
    fn grouped_selects_agree(
        t in t_rows(), u in u_rows(),
        p in 0usize..PREDICATES.len(),
        key in 0usize..T_KEYS.len(),
        order_by_key in any::<bool>(),
    ) {
        let catalog = table_catalog(&t, &u);
        let key = T_KEYS[key];
        let order = if order_by_key { format!(" ORDER BY {key}") } else { String::new() };
        let sql = format!(
            "SELECT {key}, AVG(v) AS m, COUNT(*) AS n, MAX(v) AS mx FROM t \
             WHERE {} GROUP BY {key}{order}",
            PREDICATES[p]
        );
        assert_same(&catalog, &sql)?;
        // Global aggregate (no GROUP BY).
        let sql = format!("SELECT SUM(v) AS s, MIN(v) AS lo FROM t WHERE {}", PREDICATES[p]);
        assert_same(&catalog, &sql)?;
    }

    #[test]
    fn aggregate_heavy_group_bys_agree(
        t in t_rows(), u in u_rows(),
        items in 0usize..AGG_ITEMS.len(),
        p in 0usize..PREDICATES.len(),
        filtered in any::<bool>(),
        key in 0usize..T_KEYS.len(),
        order_by_key in any::<bool>(),
        global in any::<bool>(),
    ) {
        let catalog = table_catalog(&t, &u);
        let agg = AGG_ITEMS[items];
        let filter = if filtered { format!(" WHERE {}", PREDICATES[p]) } else { String::new() };
        let sql = if global {
            format!("SELECT {agg} FROM t{filter}")
        } else {
            let key = T_KEYS[key];
            let order = if order_by_key { format!(" ORDER BY {key}") } else { String::new() };
            format!("SELECT {key}, {agg} FROM t{filter} GROUP BY {key}{order}")
        };
        assert_same(&catalog, &sql)?;
    }

    #[test]
    fn joins_agree(
        t in t_rows(), u in u_rows(),
        kind in 0usize..3,
        p in 0usize..PREDICATES.len(),
        filtered in any::<bool>(),
    ) {
        let catalog = table_catalog(&t, &u);
        let join = ["JOIN", "LEFT JOIN", "FULL OUTER JOIN"][kind];
        let mut sql = format!("SELECT t.ts, v, w FROM t {join} u ON t.ts = u.ts");
        if filtered {
            sql.push_str(&format!(" WHERE {}", PREDICATES[p]));
        }
        assert_same(&catalog, &sql)?;
        // Non-equi conditions take the nested loop in both: a bare
        // comparison, and one with a scalar call, a CASE and a disjunction.
        let sql = format!("SELECT t.ts, u.ts FROM t {join} u ON t.ts < u.ts");
        assert_same(&catalog, &sql)?;
        let sql = format!(
            "SELECT host, v, w FROM t {join} u ON ABS(v - w) < 25.0 \
             AND (CASE WHEN t.ts > 2 THEN u.ts ELSE 0 END = 0 OR UPPER(host) = 'DB-1')"
        );
        assert_same(&catalog, &sql)?;
    }

    #[test]
    fn unions_and_subqueries_agree(
        t in t_rows(), u in u_rows(),
        k in 0i64..5,
        thresh in -20.0f64..20.0,
    ) {
        let catalog = table_catalog(&t, &u);
        // Same-typed union partition (coercion-free so both engines agree).
        let sql = format!(
            "SELECT v FROM t WHERE ts > {k} UNION ALL SELECT v FROM t WHERE NOT (ts > {k})"
        );
        assert_same(&catalog, &sql)?;
        // Aggregating subquery with an outer filter (pushdown through
        // Project/Aggregate boundaries).
        let sql = format!(
            "SELECT m FROM (SELECT ts, AVG(v) AS m FROM t GROUP BY ts) s WHERE m > {thresh}"
        );
        assert_same(&catalog, &sql)?;
        // LAG across a filtered projection: the shift runs over the
        // filter's survivors, in one morsel.
        let sql = "SELECT ts, v, LAG(v, 1) AS prev FROM t WHERE host LIKE 'web%' ORDER BY ts, v";
        assert_same(&catalog, sql)?;
        // Outer filter over a window subquery: the filter must NOT sink
        // below the projection (it would shrink LAG's window).
        let sql = format!(
            "SELECT prev FROM (SELECT ts, LAG(v) AS prev FROM t) s WHERE ts > {k}"
        );
        assert_same(&catalog, &sql)?;
    }

    #[test]
    fn tsdb_pushdown_agrees_with_materialized_scans(
        points in tsdb_points(),
        m in 0usize..METRICS.len(),
        h in 0usize..HOSTS.len(),
        lo in 0i64..200,
        span in 1i64..200,
        variant in 0usize..6,
    ) {
        let catalog = tsdb_backends(&points);
        let metric = METRICS[m];
        let host = HOSTS[h];
        let hi = lo + span;
        let sql = match variant {
            0 => format!("SELECT * FROM tsdb WHERE metric_name = '{metric}'"),
            1 => format!(
                "SELECT timestamp, value FROM tsdb WHERE metric_name = '{metric}' \
                 AND timestamp BETWEEN {lo} AND {hi}"
            ),
            2 => format!(
                "SELECT timestamp, tag['host'] AS h, value FROM tsdb \
                 WHERE tag['host'] = '{host}' ORDER BY timestamp, h"
            ),
            3 => format!(
                "SELECT timestamp, AVG(value) AS mean_v FROM tsdb \
                 WHERE metric_name = '{metric}' AND timestamp >= {lo} \
                 GROUP BY timestamp ORDER BY timestamp"
            ),
            4 => "SELECT value FROM tsdb WHERE tag['host'] IS NULL".to_string(),
            _ => format!(
                "SELECT metric_name, COUNT(*) AS n, SUM(value) AS s FROM tsdb \
                 WHERE timestamp < {hi} AND value > -5.0 \
                 GROUP BY metric_name ORDER BY metric_name"
            ),
        };
        assert_same(&catalog, &sql)?;
    }

    #[test]
    fn glob_queries_agree_with_reference(
        points in tsdb_points(),
        variant in 0usize..5,
        h in 0usize..HOSTS.len(),
    ) {
        // The pipeline pushes GLOB (and translatable LIKE) patterns into
        // the scan — the glob-prefix name-index range scan and
        // TagFilter::Glob — while the reference evaluates the operator per
        // materialized row. Agreement proves the pushdown is lossless.
        let catalog = tsdb_backends(&points);
        let sql = match variant {
            0 => "SELECT timestamp, value FROM tsdb WHERE metric_name GLOB 'disk*' \
                  ORDER BY timestamp, value"
                .to_string(),
            1 => "SELECT metric_name, COUNT(*) AS n FROM tsdb \
                  WHERE metric_name GLOB '*_r?ad' GROUP BY metric_name"
                .to_string(),
            2 => format!(
                "SELECT timestamp, value FROM tsdb WHERE tag['host'] GLOB '{}*' \
                 ORDER BY timestamp, value",
                &HOSTS[h][..3]
            ),
            3 => "SELECT COUNT(*) AS n FROM tsdb WHERE metric_name LIKE 'pipeline%'".to_string(),
            _ => "SELECT value FROM tsdb WHERE metric_name GLOB 'c?u' AND value > -5.0 \
                  ORDER BY value"
                .to_string(),
        };
        assert_same(&catalog, &sql)?;
    }

    #[test]
    fn scan_aggregate_group_bys_agree(
        points in tsdb_points(),
        keys in 0usize..SA_KEYS.len(),
        items in 0usize..SA_ITEMS.len(),
        filter in 0usize..SA_FILTERS.len(),
        lo in 0i64..200,
        span in 1i64..200,
        order_by_first_key in any::<bool>(),
        aligned in 0u32..1 << (METRICS.len() * HOSTS.len()),
    ) {
        // The scan-aggregate generator: every query here is eligible (or
        // nearly eligible) for the ScanAggregate rewrite — GROUP BY
        // timestamp / dictionary-encoded tag keys / metric_name, mixed
        // mergeable aggregates over value/timestamp (Int typing included),
        // residual value filters, tag globs and absent-tag predicates — over
        // classes on a shared grid, on a union grid, and mixing both.
        let catalog = aligned_tsdb_backends(&points, aligned);
        let filter = SA_FILTERS[filter]
            .replace("{lo}", &lo.to_string())
            .replace("{hi}", &(lo + span).to_string());
        let key = SA_KEYS[keys];
        let order = if order_by_first_key && !key.contains('(') {
            format!(" ORDER BY {}", key.split(',').next().expect("non-empty key list"))
        } else {
            String::new()
        };
        let sql = format!("SELECT {key}, {} FROM tsdb{filter} GROUP BY {key}{order}", SA_ITEMS[items]);
        assert_same(&catalog, &sql)?;
        // Global aggregate over the same filter (no GROUP BY).
        let sql = format!("SELECT {} FROM tsdb{filter}", SA_ITEMS[items]);
        assert_same(&catalog, &sql)?;
    }

    #[test]
    fn merge_gather_agrees_with_the_sorted_view_and_reference(
        points in tsdb_points(),
        dup_ts in proptest::collection::vec((0usize..HOSTS.len(), 0i64..6), 0..12),
        with_extremes in any::<bool>(),
        with_empty_in_range in any::<bool>(),
        lo in 0i64..200,
        span in 1i64..200,
        variant in 0usize..5,
    ) {
        // The k-way merge gather must be bit-identical to the sort-built
        // observation view (`Catalog::get`, which the reference scans and
        // the plain backend registers) across the shapes that stress its
        // tiebreaks:
        // duplicate timestamps across series (heap ties resolved by rank),
        // series left empty by the time range, a single surviving series,
        // and points at the i64 extremes.
        let mut db = Tsdb::new();
        for &(m, h, ts, v) in &points {
            db.insert(&SeriesKey::new(METRICS[m]).with_tag("host", HOSTS[h]), ts, v);
        }
        for &(h, ts) in &dup_ts {
            // The same few timestamps in many series: cross-series ties.
            db.insert(&SeriesKey::new("dup").with_tag("host", HOSTS[h]), ts, h as f64);
        }
        if with_extremes {
            db.insert(&SeriesKey::new("edge"), i64::MIN, -1.0);
            db.insert(&SeriesKey::new("edge"), i64::MAX, 1.0);
        }
        if with_empty_in_range {
            // All points far outside every generated time window.
            db.insert(&SeriesKey::new("cpu").with_tag("host", "off-range"), 900_000, 0.0);
        }
        db.insert(&SeriesKey::new("solo"), 3, 7.0);
        let backends = backends_of(&db);

        let hi = lo + span;
        let sql = match variant {
            0 => "SELECT * FROM tsdb".to_string(),
            1 => format!("SELECT timestamp, value FROM tsdb WHERE timestamp BETWEEN {lo} AND {hi}"),
            2 => "SELECT timestamp, value FROM tsdb WHERE metric_name = 'solo'".to_string(),
            3 => format!("SELECT timestamp, tag['host'] AS h FROM tsdb WHERE timestamp >= {lo}"),
            _ => "SELECT timestamp, metric_name, value FROM tsdb WHERE metric_name GLOB 'd*'"
                .to_string(),
        };
        let query = parse_query(&sql).expect("generated query parses");
        let naive = execute_naive(&backends[0], &query).expect("reference runs");
        for catalog in &backends {
            for parts in [0usize, 1, 3] {
                let merged = catalog
                    .execute_query_with(&query, ExecOptions::with_partitions(parts))
                    .expect("merge gather runs");
                prop_assert_eq!(merged.schema(), naive.schema(), "schema mismatch for {}", &sql);
                prop_assert_eq!(merged.rows(), naive.rows(), "row mismatch for {}", &sql);
            }
        }
    }

    #[test]
    fn glob_prefix_find_matches_brute_force(
        points in tsdb_points(),
        pat in 0usize..6,
    ) {
        // Store-level property for the prefix range scan itself.
        let mut db = Tsdb::new();
        for &(m, h, ts, v) in &points {
            db.insert(&SeriesKey::new(METRICS[m]).with_tag("host", HOSTS[h]), ts, v);
        }
        let pattern = ["cpu*", "disk*", "disk_r?ad", "pipeline*e", "*untime", "c*p*u"][pat];
        let fast = db.find(&MetricFilter::name(pattern));
        let brute: Vec<_> = db
            .iter()
            .filter(|(_, s)| glob_match(pattern, &s.key.name))
            .map(|(id, _)| id)
            .collect();
        prop_assert_eq!(fast, brute, "pattern {}", pattern);
    }
}

/// The shapes the family generator reaches only by luck, pinned: a series
/// that starts late (family order is first appearance in `(timestamp,
/// rank)` order, not rank order), two series on one column (the later
/// rank wins a shared timestamp, a non-finite value does not), grids that
/// differ within a family, and timestamps at the `i64` extremes (the gap
/// fill compares distances wider than `i64::MAX`).
#[test]
fn family_statement_hostile_shapes_pinned() {
    let mut db = Tsdb::new();
    let mut put = |name: &str, host: &str, points: &[(i64, f64)]| {
        let key = SeriesKey::new(name).with_tag("host", host).with_tag("dc", "x");
        for &(ts, v) in points {
            db.insert(&key, ts, v);
        }
    };
    // `aaa` ranks first but appears last; `zzz` the other way around.
    put("aaa", "h1", &[(300, 1.0), (360, 2.0)]);
    put("zzz", "h1", &[(0, 3.0), (60, 4.0), (300, 5.0)]);
    // Unaligned grids within one family, NaN and the infinities as gaps.
    put("mid", "h1", &[(0, 1.0), (120, f64::NAN), (240, 3.0)]);
    put("mid", "h2", &[(60, f64::INFINITY), (120, 7.0), (180, f64::NEG_INFINITY)]);
    put("mid", "h3", &[(500, 9.0)]);
    // A grid spanning more than i64::MAX, with a gap in the middle.
    put("wide", "h1", &[(i64::MIN, 1.0), (i64::MAX, 9.0)]);
    put("wide", "h2", &[(0, 5.0), (-1, 6.0)]);
    let backends = backends_of(&db);
    for (family, feature) in [
        ("metric_name", "tag"),
        ("metric_name", "tag['host']"),
        // Every series of a metric on one column: later ranks overwrite.
        ("metric_name", "tag['dc']"),
        ("tag['dc']", "tag['absent']"),
        ("tag['host']", "metric_name"),
        ("CONCAT(metric_name, '/', tag['dc'])", "CONCAT(tag['host'], tag['absent'])"),
    ] {
        for filter in ["", " WHERE timestamp >= 60", " WHERE timestamp BETWEEN -5 AND 300"] {
            let sql = family_statement(family, feature, filter);
            assert_family_same(&backends, &sql, "ScanPivot");
        }
    }
    // Spot-check what the equalities above are about.
    let Ok(Statement::CreateFamily(cf)) =
        parse_statement(&family_statement("metric_name", "tag['dc']", ""))
    else {
        panic!("parses")
    };
    let frames = backends[0].execute_family(&cf, ExecOptions::default()).expect("runs");
    let names: Vec<&str> = frames.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["wide", "mid", "zzz", "aaa"], "first appearance, not rank");
    let mid = &frames[1];
    assert_eq!(mid.timestamps, [0, 60, 120, 180, 240, 500]);
    // h2's 7.0 lands on h1's NaN gap at 120; its infinities write nothing.
    assert_eq!(mid.columns, [vec![1.0, 1.0, 7.0, 7.0, 3.0, 9.0]]);
    let wide = &frames[0];
    assert_eq!(wide.timestamps, [i64::MIN, -1, 0, i64::MAX]);
    assert_eq!(wide.columns, [vec![1.0, 6.0, 5.0, 9.0]]);
    let Ok(Statement::CreateFamily(cf)) = parse_statement(&family_statement(
        "metric_name",
        "tag['host']",
        " WHERE metric_name = 'wide'",
    )) else {
        panic!("parses")
    };
    let frames = backends[0].execute_family(&cf, ExecOptions::default()).expect("runs");
    // h1 at -1 and 0: 2^63 - 1 from MIN against 2^63 and 2^63 - 1 from MAX.
    assert_eq!(frames[0].columns[0], [1.0, 1.0, 9.0, 9.0]);
}

/// The wide family statement over a scan aggregate, on the shapes the
/// generator reaches only by chance: two classes whose labels render alike
/// (a missing tag's NULL and the string `'NULL'`, sharing a timestamp, so
/// the later first contributor's cell wins), one class that renders as two
/// families (`1` and `1.0`), a one-point `STDDEV` (a NULL cell), `COUNT`'s
/// `Int` column, NaN and the infinities, a class the filter empties, and
/// the single-family `into=` statement.
#[test]
fn wide_family_statement_hostile_shapes_pinned() {
    let mut db = Tsdb::new();
    let mut put = |name: &str, host: Option<&str>, points: &[(i64, f64)]| {
        let mut key = SeriesKey::new(name);
        if let Some(host) = host {
            key = key.with_tag("host", host);
        }
        for &(ts, v) in points {
            db.insert(&key, ts, v);
        }
    };
    put("cpu", Some("web-1"), &[(0, 1.0), (60, 2.0), (120, f64::NAN)]);
    put("cpu", Some("db-1"), &[(0, 5.0), (60, f64::INFINITY), (180, 7.0)]);
    put("disk", Some("NULL"), &[(0, 3.0), (60, 4.0)]);
    put("disk", None, &[(60, 8.0), (120, f64::NEG_INFINITY)]);
    put("net", None, &[(0, 6.0)]);
    put("swap", Some("web-2"), &[(0, -5.0), (60, -6.0)]);
    put("zzz", None, &[(0, 10.0)]);
    let backends = backends_of(&db);
    let features =
        ["AVG(value) AS a", "COUNT(value) AS n", "STDDEV(value) AS sd", "MAX(value) AS hi"]
            .map(String::from);
    let one_vs_float = "CASE WHEN tag['host'] = 'web-1' THEN 1 ELSE 1.0 END";
    for family in [Some("metric_name"), Some("tag['host']"), Some(one_vs_float), None] {
        for filter in ["", " WHERE value > 0", " WHERE metric_name = 'cpu'"] {
            let sql = wide_family_statement(family, &features, filter);
            assert_family_same(&backends, &sql, "ScanAggregatePivot");
        }
    }
    // Spot-check what the equalities above are about.
    let frames = |family: Option<&str>, filter: &str| {
        let sql = wide_family_statement(family, &features, filter);
        let Ok(Statement::CreateFamily(cf)) = parse_statement(&sql) else { panic!("parses") };
        backends[0].execute_family(&cf, ExecOptions::default()).expect("runs")
    };
    let by_host = frames(Some("tag['host']"), "");
    let names: Vec<&str> = by_host.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["db-1", "web-1", "NULL", "web-2"], "one family for NULL and 'NULL'");
    let null = &by_host[2];
    assert_eq!(null.timestamps, [0, 60, 120]);
    // Both classes have a group at 0 and at 60. The missing tag's class
    // comes first in rank order, but at 0 its group's first contributor,
    // `net` (mean 8 with `zzz`, COUNT 2), follows `disk{host=NULL}`'s and
    // wins; at 60 `disk{host=NULL}` (4.0, COUNT 1) follows `disk`'s and wins,
    // its one-point STDDEV a NULL gap. At 120 the mean of -inf is a gap.
    assert_eq!(null.columns[0], [8.0, 4.0, 4.0]);
    assert_eq!(null.columns[1], [2.0, 1.0, 1.0]);
    assert_eq!(null.columns[2], [8f64.sqrt(); 3]);
    let by_number = frames(Some(one_vs_float), "");
    let names: Vec<&str> = by_number.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["1.0", "1"], "one class, two renderings");
    let none = frames(Some("metric_name"), " WHERE value > 0");
    let names: Vec<&str> = none.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["cpu", "disk", "net", "zzz"], "`swap` has no point left");
    let one = frames(None, " WHERE metric_name = 'cpu'");
    assert_eq!((one.len(), one[0].name.as_str()), (1, "fams"));
    assert_eq!(one[0].timestamps, [0, 60, 120, 180]);
}

/// A `metric_name` equality is an equality. The scan's name slot holds a
/// *pattern* in the store's glob language, so rule 3 may push a literal
/// only when it has no `*` / `?` in it; `= 'cpu*'` used to reach the store
/// as a glob and answer with every `cpu…` series. Over series literally
/// named `cpu*` and `cpu?usage` beside the ones those would match as
/// patterns: a plain scan, a `GROUP BY metric_name` and a family statement
/// under each predicate equal the reference.
#[test]
fn metric_name_literals_are_never_read_as_patterns() {
    let mut db = Tsdb::new();
    for (name, base) in [("cpu*", 1.0), ("cpu?usage", 2.0), ("cpu_usage", 3.0), ("cpuXusage", 4.0)]
    {
        for (host, t0) in [("h1", 0), ("h2", 30)] {
            let key = SeriesKey::new(name).with_tag("host", host);
            (0..3).for_each(|t| db.insert(&key, t0 + t * 60, base + t as f64));
        }
    }
    let backends = backends_of(&db);
    let rows = |predicate: &str| {
        let sql = format!("SELECT COUNT(*) AS n FROM tsdb WHERE {predicate}");
        backends[0].execute(&sql).expect("runs").rows()[0][0].clone()
    };
    for (predicate, names) in [
        ("metric_name = 'cpu*'", 1),
        ("'cpu?usage' = metric_name", 1),
        ("metric_name = 'cpu_usage'", 1),
        ("metric_name != 'cpu*'", 3),
        ("metric_name IN ('cpu*', 'cpu?usage')", 2),
        ("metric_name LIKE 'cpu_usage'", 3),
        ("metric_name GLOB 'cpu*'", 4),
        ("metric_name = 'cpu*' AND metric_name GLOB 'cpu?*'", 1),
    ] {
        assert_eq!(rows(predicate), Value::Int(names * 6), "{predicate}");
        let scan = format!("SELECT timestamp, metric_name, value FROM tsdb WHERE {predicate}");
        assert_same(&backends, &scan).expect("agrees");
        let grouped = format!(
            "SELECT metric_name, COUNT(*) AS n, MAX(timestamp) AS t FROM tsdb \
             WHERE {predicate} GROUP BY metric_name"
        );
        assert_same(&backends, &grouped).expect("agrees");
        let sql = family_statement("metric_name", "tag['host']", &format!(" WHERE {predicate}"));
        let Ok(Statement::CreateFamily(cf)) = parse_statement(&sql) else { panic!("parses") };
        assert_frames_same(&backends, &cf, &sql);
    }
}

/// Pins the corrected aggregate semantics with exact expected values, at
/// every partition count and in the reference.
#[test]
fn corrected_aggregate_semantics_pinned() {
    // t(ts, host, v) with v = [2, 4, 4, 4, 5, 5, 7, 9] in one group:
    // sample variance = 32/7, stddev = sqrt(32/7) (population would be 4).
    let vals = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
    let rows: Vec<Vec<Value>> = vals
        .iter()
        .enumerate()
        .map(|(i, &v)| vec![Value::Int(i as i64), Value::str("h"), Value::Float(v)])
        .collect();
    let mut catalog = Catalog::new();
    catalog.register("t", Table::from_rows(&["ts", "host", "v"], rows));

    let sql = "SELECT VARIANCE(v) AS var, STDDEV(v) AS sd, SUM(ts) AS si, SUM(v) AS sf, \
               PERCENTILE(v, 0.5) AS med FROM t";
    let query = parse_query(sql).unwrap();
    let expect = vec![
        Value::Float(32.0 / 7.0),
        Value::Float((32.0f64 / 7.0).sqrt()),
        Value::Int(28),     // Int column keeps Int typing
        Value::Float(40.0), // Float column stays Float
        Value::Float(4.5),
    ];
    for parts in [1usize, 2, 3, 8] {
        let out = catalog.execute_query_with(&query, ExecOptions::with_partitions(parts)).unwrap();
        assert_eq!(out.rows()[0], expect, "partitions={parts}");
    }
    let naive = execute_naive(&catalog, &query).unwrap();
    assert_eq!(naive.rows()[0], expect, "reference");
}

/// First-seen group order and first-row reads survive the morsel split:
/// with three morsels of three rows, `b` first appears in morsel 1 and `c`
/// in morsel 2 while `a` spans all three.
#[test]
fn post_aggregate_outputs_keep_first_seen_order_across_morsels() {
    let rows = [
        (0, "a", 1.0),
        (1, "a", 2.0),
        (2, "a", 3.0),
        (3, "b", 10.0),
        (4, "a", 4.0),
        (5, "b", 20.0),
        (6, "c", 100.0),
        (7, "a", 5.0),
        (8, "b", 30.0),
    ];
    let mut catalog = Catalog::new();
    catalog.register(
        "t",
        Table::from_rows(
            &["ts", "host", "v"],
            rows.iter()
                .map(|&(ts, h, v)| vec![Value::Int(ts), Value::str(h), Value::Float(v)])
                .collect(),
        ),
    );
    let query = parse_query(
        "SELECT host, ts AS first_ts, SUM(v) / COUNT(v) AS mean, MAX(v) - MIN(v) AS spread, \
         CASE WHEN COUNT(*) > 1 THEN 'many' ELSE 'one' END AS size FROM t GROUP BY host",
    )
    .unwrap();
    let row = |h: &str, ts: i64, mean: f64, spread: f64, size: &str| {
        vec![
            Value::str(h),
            Value::Int(ts),
            Value::Float(mean),
            Value::Float(spread),
            Value::str(size),
        ]
    };
    let expect = Table::from_rows(
        &["host", "first_ts", "mean", "spread", "size"],
        vec![
            row("a", 0, 3.0, 4.0, "many"),
            row("b", 3, 20.0, 20.0, "many"),
            row("c", 6, 100.0, 0.0, "one"),
        ],
    );
    assert_pinned(&[catalog], &query, &[1, 2, 3, 9], &expect);
}

/// One eligible family query, pinned (no generators): the scan-aggregate
/// result must be value-identical to the plain-table pipeline and the
/// reference at every partition count, including group order without an
/// ORDER BY.
#[test]
fn scan_aggregate_pinned_on_both_backends() {
    let mut db = Tsdb::new();
    for (host, base) in [("web-1", 1.0), ("web-2", 2.0), ("db-1", 10.0)] {
        let key = SeriesKey::new("cpu").with_tag("host", host);
        for t in 0..7 {
            db.insert(&key, t * 60, base + t as f64 * 0.25);
        }
    }
    db.insert(&SeriesKey::new("untagged"), 0, 5.0);
    let backends = backends_of(&db);
    let query = parse_query(
        "SELECT timestamp, tag['host'] AS h, AVG(value) AS m, SUM(value) AS s, \
         COUNT(*) AS n, STDDEV(value) AS sd, PERCENTILE(value, 0.5) AS med \
         FROM tsdb WHERE metric_name = 'cpu' GROUP BY timestamp, tag['host']",
    )
    .unwrap();
    let naive = execute_naive(&backends[0], &query).unwrap();
    assert_eq!(naive.len(), 21);
    assert_pinned(&backends, &query, &[1, 2, 3, 8], &naive);
}

/// `sql` plans as a scan aggregate on the live binding, and equals the
/// reference on both backends at every partition count. Returns the rows.
fn assert_scan_aggregate_pinned(db: &Tsdb, sql: &str) -> Table {
    let backends = backends_of(db);
    let plan = backends[0].execute(&format!("EXPLAIN {sql}")).expect("explains");
    assert!(
        format!("{:?}", plan.rows()).contains("ScanAggregate tsdb"),
        "{sql}: {:?}",
        plan.rows()
    );
    let query = parse_query(sql).unwrap();
    let naive = execute_naive(&backends[0], &query).expect("reference runs");
    assert_pinned(&backends, &query, &[1, 2, 3, 8], &naive);
    naive
}

/// The error-laziness rule: a class key that raises for one series'
/// constants (`SPLIT` by that series' empty `sep` tag) fails the statement
/// only when one of the series' points survives the filters — the row
/// engines never evaluate a dropped row's key.
#[test]
fn scan_aggregate_class_key_errors_stay_lazy() {
    let mut db = Tsdb::new();
    for t in 0..6 {
        db.insert(&SeriesKey::new("cpu.user").with_tag("sep", "."), t * 60, 10.0 + t as f64);
        db.insert(&SeriesKey::new("cpu.sys").with_tag("sep", ""), t * 60, t as f64);
    }
    let sql = |above: f64| {
        format!(
            "SELECT timestamp, SPLIT(metric_name, tag['sep'])[0] AS stem, SUM(value) AS s \
             FROM tsdb WHERE value > {above:?} GROUP BY timestamp, SPLIT(metric_name, tag['sep'])[0]"
        )
    };
    // Every point of the raising series (0.0 ..= 5.0) is dropped.
    let rows = assert_scan_aggregate_pinned(&db, &sql(5.5));
    assert_eq!(rows.len(), 6);
    // One survives: an error from every engine.
    let query = parse_query(&sql(4.5)).unwrap();
    for (backend, catalog) in backends_of(&db).iter().enumerate() {
        assert!(execute_naive(catalog, &query).is_err(), "reference on backend {backend}");
        for parts in [1, 2, 3] {
            let out = catalog.execute_query_with(&query, ExecOptions::with_partitions(parts));
            assert!(out.is_err(), "backend {backend} partitions={parts}: {out:?}");
        }
    }
}

/// The one AND/OR rule: a grouped `OR` / `CASE` short-circuits per group
/// as it does per row, on every engine — an operand that would raise only
/// at run time (`SPLIT` by the group's empty `MIN(tag['sep'])`) is never
/// evaluated for a group the left operand decides, and fails the statement
/// on every engine once one group reaches it. A window call in a grouped
/// item still sees only its own (first) row.
#[test]
fn grouped_outputs_short_circuit_per_group_on_every_engine() {
    let mut db = Tsdb::new();
    for t in 0..6 {
        db.insert(&SeriesKey::new("cpu.user").with_tag("sep", "."), t * 60, 10.0 + t as f64);
        db.insert(&SeriesKey::new("cpu.sys").with_tag("sep", ""), t * 60, t as f64);
    }
    let stem = "SPLIT(metric_name, MIN(tag['sep']))[0]";
    let sql = |n: usize| {
        format!(
            "SELECT metric_name, COUNT(*) > {n} OR {stem} = 'cpu' AS ok, \
             CASE WHEN COUNT(*) > {n} THEN 'full' ELSE {stem} END AS stem \
             FROM tsdb GROUP BY metric_name"
        )
    };
    // Six points a group: `COUNT(*) > 5` decides both, and nothing raises.
    let rows = assert_scan_aggregate_pinned(&db, &sql(5));
    let full = |name: &str| vec![Value::str(name), Value::Bool(true), Value::str("full")];
    assert_eq!(rows.rows(), [full("cpu.sys"), full("cpu.user")]);
    // Its twin reaches the operand for `cpu.sys`: an error from every engine.
    let query = parse_query(&sql(6)).unwrap();
    for (backend, catalog) in backends_of(&db).iter().enumerate() {
        assert!(execute_naive(catalog, &query).is_err(), "reference on backend {backend}");
        for parts in [1, 3] {
            let out = catalog.execute_query_with(&query, ExecOptions::with_partitions(parts));
            assert!(out.is_err(), "backend {backend} partitions={parts}: {out:?}");
        }
    }
    // `LAG(<key>, 1)` in a grouped item: no neighbour, on any engine.
    let query = parse_query(
        "SELECT metric_name, LAG(metric_name, 1) AS prev, LAG(metric_name, 0) AS own, \
         COUNT(*) AS n FROM tsdb GROUP BY metric_name",
    )
    .unwrap();
    let backends = backends_of(&db);
    let naive = execute_naive(&backends[0], &query).expect("reference runs");
    let own = |name: &str| vec![Value::str(name), Value::Null, Value::str(name), Value::Int(6)];
    assert_eq!(naive.rows(), [own("cpu.sys"), own("cpu.user")]);
    assert_pinned(&backends, &query, &[1, 3], &naive);
}

/// Shapes of the dense scan aggregate the generator reaches only by luck.
#[test]
fn scan_aggregate_dense_shapes_pinned() {
    let put = |db: &mut Tsdb, name: &str, host: &str, points: &[(i64, f64)]| {
        let key = SeriesKey::new(name).with_tag("host", host);
        points.iter().for_each(|&(ts, v)| db.insert(&key, ts, v));
    };
    let on_grid = |vs: [f64; 5]| -> Vec<(i64, f64)> { (0..).step_by(60).zip(vs).collect() };

    // A residual filter empties slots 0, 1 and 3 of a grid-aligned class:
    // they are absent rows, not NULL rows, and the rest keep their order.
    let mut db = Tsdb::new();
    put(&mut db, "cpu", "web-1", &on_grid([1.0, 2.0, 3.0, 0.0, 5.0]));
    put(&mut db, "cpu", "web-2", &on_grid([0.0, 1.0, 9.0, 1.0, 0.0]));
    put(&mut db, "disk", "web-1", &on_grid([7.0, 0.0, 0.0, 0.0, 0.0]));
    let rows = assert_scan_aggregate_pinned(
        &db,
        "SELECT timestamp, metric_name, COUNT(*) AS n, SUM(value) AS s, MAX(value) AS hi \
         FROM tsdb WHERE value > 2.5 GROUP BY timestamp, metric_name",
    );
    let row = |ts: i64, name: &str, n: i64, s: f64, hi: f64| {
        vec![Value::Int(ts), Value::str(name), Value::Int(n), Value::Float(s), Value::Float(hi)]
    };
    let expect =
        [row(0, "disk", 1, 7.0, 7.0), row(120, "cpu", 2, 12.0, 9.0), row(240, "cpu", 1, 5.0, 5.0)];
    assert_eq!(rows.rows(), expect);

    // Key values that share a group key but differ in type are one class;
    // each group shows its first contributor's. web-1 ranks first where
    // both series have a point, web-2 is alone at 300.
    put(&mut db, "cpu", "web-2", &[(300, 4.0)]);
    let rows = assert_scan_aggregate_pinned(
        &db,
        "SELECT timestamp, CASE WHEN tag['host'] = 'web-1' THEN 1 ELSE 1.0 END AS one, \
         COUNT(*) AS n FROM tsdb WHERE metric_name = 'cpu' \
         GROUP BY timestamp, CASE WHEN tag['host'] = 'web-1' THEN 1 ELSE 1.0 END",
    );
    let ones: Vec<Value> = rows.rows().iter().map(|r| r[1].clone()).collect();
    assert_eq!(format!("{ones:?}"), "[Int(1), Int(1), Int(1), Int(1), Int(1), Float(1.0)]");

    // A class whose series have pairwise disjoint timestamps: the union
    // grid has a slot per point.
    let mut db = Tsdb::new();
    for (host, offset) in [("a", 0), ("b", 1), ("c", 2)] {
        let points: Vec<(i64, f64)> =
            (0..4).map(|k| (k * 3 + offset, (k + offset) as f64)).collect();
        put(&mut db, "cpu", host, &points);
    }
    let rows = assert_scan_aggregate_pinned(
        &db,
        "SELECT timestamp, metric_name, AVG(value) AS m, MIN(value) AS lo FROM tsdb \
         WHERE value < 4.5 GROUP BY timestamp, metric_name",
    );
    assert_eq!(rows.len(), 11, "twelve slots, one emptied by the filter");
}

/// Where the scan aggregate's dense columns spill to an `AggAcc` or finish
/// to NULL: a NaN first and a NaN later reaching MIN / MAX, a sum of seven
/// magnitudes that share no bits (its expansion outgrows the inline
/// partials in the fold, and in the merge when morsels split it), and
/// one-point groups (a NULL `STDDEV`). For all seven aggregates with a
/// column form, with and without a timestamp key: rows equal the
/// reference's on both backends at every partition count, and every output
/// column is the variant the table aggregate builds (`Float` and `Values`
/// render alike, so rows alone cannot tell).
#[test]
fn scan_aggregate_spill_shapes_pinned() {
    let mut db = Tsdb::new();
    let mut put = |name: &str, host: &str, ts: i64, v: f64| {
        db.insert(&SeriesKey::new(name).with_tag("host", host), ts, v);
    };
    for ts in [0, 60] {
        // Hosts rank in name order: `a` first.
        put("nan_first", "a", ts, f64::NAN);
        put("nan_first", "b", ts, 2.0);
        put("nan_first", "c", ts, -1.0);
        put("nan_later", "a", ts, 2.0);
        put("nan_later", "b", ts, f64::NAN);
        put("nan_later", "c", ts, 5.0);
        for k in 0..7 {
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            put("ladder", &format!("h{k}"), ts, sign * 10f64.powi(300 - 100 * k));
        }
    }
    for ts in [0, 60, 120] {
        put("single", "a", ts, ts as f64 / 7.0);
    }
    put("lone", "a", 0, 0.1);

    let backends = backends_of(&db);
    for keys in ["timestamp, metric_name", "metric_name"] {
        for kind in ["COUNT", "SUM", "AVG", "VARIANCE", "STDDEV", "MIN", "MAX"] {
            let sql = format!("SELECT {keys}, {kind}(value) AS a FROM tsdb GROUP BY {keys}");
            let query = parse_query(&sql).unwrap();
            // MIN / MAX without a timestamp key stay on the table aggregate.
            if keys.starts_with("timestamp") || !kind.starts_with('M') {
                assert_scan_aggregate_pinned(&db, &sql);
            } else {
                let naive = execute_naive(&backends[0], &query).expect("reference runs");
                assert_pinned(&backends, &query, &[1, 2, 3], &naive);
            }
            // The aggregate's column (a class key is a `Dict` on the scan
            // aggregate by design).
            let variant = |t: &Table| std::mem::discriminant(t.columns().last().unwrap());
            for parts in [1, 2, 3] {
                let [fast, table] = [&backends[0], &backends[1]].map(|catalog| {
                    catalog.execute_query_with(&query, ExecOptions::with_partitions(parts)).unwrap()
                });
                assert_eq!(variant(&fast), variant(&table), "{sql} at partitions={parts}");
            }
        }
    }
}

/// The table aggregate over an argument that is `Int` in some morsels and
/// `Float` in others: `x` is one `Values` column, Ints (2^53 ± 1, a NULL)
/// in its first half and Floats (a NULL, NaN, the Float nearest 2^53 + 1,
/// -0.0) in its second. A morsel of Ints pushes them unboxed into `AggAcc`s,
/// one of Floats folds them into dense slots, one that straddles the halves
/// pushes boxed rows — and the merge meets every pairing of the three. Rows
/// equal the reference at every partition count, grouped by a `Str` key
/// (groups `c` and `d` live in one half only) and globally, and every
/// column is the variant `Column::from_values` builds from its values.
#[test]
fn table_aggregate_merges_int_and_float_morsels_pinned() {
    let (int, float) = (Value::Int, Value::Float);
    let rows = [
        ("a", int(P53 + 1)),
        ("b", int(-3)),
        ("a", int(7)),
        ("b", Value::Null),
        ("a", int(-P53 - 1)),
        ("d", int(P53)),
        ("a", float((P53 + 1) as f64)),
        ("b", Value::Null),
        ("a", float(f64::NAN)),
        ("b", float(1.5)),
        ("a", float(-0.0)),
        ("c", float(0.25)),
    ];
    let mut catalog = Catalog::new();
    let rows = rows.into_iter().map(|(k, x)| vec![Value::str(k), x]).collect();
    catalog.register("m", Table::from_rows(&["k", "x"], rows));
    let aggs = "COUNT(x) AS c, SUM(x) AS s, AVG(x) AS a, VARIANCE(x) AS v, STDDEV(x) AS sd, \
                MIN(x) AS lo, MAX(x) AS hi, PERCENTILE(x, 0.5) AS p, COUNT(*) AS n";
    for sql in [format!("SELECT k, {aggs} FROM m GROUP BY k"), format!("SELECT {aggs} FROM m")] {
        let query = parse_query(&sql).unwrap();
        let naive = execute_naive(&catalog, &query).expect("reference runs");
        let parts = [1, 2, 3, 5];
        assert_pinned(std::slice::from_ref(&catalog), &query, &parts, &naive);
        for parts in parts {
            let out = catalog.execute_query_with(&query, ExecOptions::with_partitions(parts));
            for column in out.unwrap().columns() {
                let rebuilt = Column::from_values(column.iter_values().collect());
                let variant = std::mem::discriminant;
                assert_eq!(variant(column), variant(&rebuilt), "{sql} at partitions={parts}");
            }
        }
    }
}

/// The skewed fleet the deleted pushdown report swept: one hot series
/// holds ~all the points, so point-balanced scan-aggregate morsels split
/// it across workers — and must stay row-identical at every count.
#[test]
fn skewed_hot_series_fleet_agrees_at_every_partition_count() {
    let mut db = Tsdb::new();
    let hot = SeriesKey::new("disk").with_tag("host", "host-hot").with_tag("grp", "g0");
    for t in 0..2000i64 {
        db.insert(&hot, t, (t % 997) as f64 * 0.1);
    }
    for s in 0..7 {
        let key = SeriesKey::new("disk")
            .with_tag("host", format!("host-{s}"))
            .with_tag("grp", format!("g{}", s % 3));
        for t in 0..8i64 {
            db.insert(&key, t * 60, t as f64);
        }
    }
    let backends = backends_of(&db);
    for sql in [
        "SELECT timestamp, tag['grp'], AVG(value) AS mean_v, STDDEV(value) AS sd FROM tsdb \
         WHERE metric_name = 'disk' GROUP BY timestamp, tag['grp']",
        "SELECT tag['grp'] AS g, COUNT(*) AS n, SUM(value) AS s, PERCENTILE(value, 0.9) AS p \
         FROM tsdb WHERE value >= 0.5 GROUP BY tag['grp']",
    ] {
        let query = parse_query(sql).unwrap();
        let naive = execute_naive(&backends[0], &query).unwrap();
        assert!(!naive.is_empty());
        // ... the last count being a morsel per point.
        assert_pinned(&backends, &query, &[1, 2, 4, 8, 1_000_000], &naive);
    }
}

/// The hypothesis-table shape: a grouped subquery of G groups joined to a
/// filtered scan of n ≪ G rows on `timestamp`, either side first. Nothing
/// in the plan says which input is smaller; the join reads it off the two
/// materialised tables, and the rows are the reference's either way.
#[test]
fn lopsided_joins_agree_whichever_side_is_smaller() {
    let mut db = Tsdb::new();
    for host in 0..40 {
        let key = SeriesKey::new("cpu").with_tag("host", format!("h{host}"));
        for t in 0..12i64 {
            db.insert(&key, t * 60, (host * 12) as f64 + t as f64 * 0.25);
        }
    }
    for t in 0..12i64 {
        db.insert(&SeriesKey::new("pipeline_runtime"), t * 60, 100.0 - t as f64);
    }
    let backends = backends_of(&db);
    let grouped = "(SELECT timestamp AS t, tag['host'] AS h, AVG(value) AS mean FROM tsdb \
                   WHERE metric_name = 'cpu' GROUP BY timestamp, tag['host']) g";
    // Four timestamps the groups have, one (720) they do not.
    let filtered = "(SELECT timestamp, value FROM tsdb WHERE metric_name = 'pipeline_runtime' \
                    AND timestamp >= 480 UNION ALL SELECT 720, 0.0) r";
    for join in ["JOIN", "LEFT JOIN", "FULL OUTER JOIN"] {
        for (left, right) in [(grouped, filtered), (filtered, grouped)] {
            let sql = format!(
                "SELECT g.t, g.h, g.mean, r.timestamp, r.value FROM {left} {join} {right} \
                 ON g.t = r.timestamp"
            );
            let query = parse_query(&sql).unwrap();
            let naive = execute_naive(&backends[0], &query).unwrap();
            assert!(naive.len() >= 4 * 40, "{join}: {} rows", naive.len());
            assert_pinned(&backends, &query, &[1, 3], &naive);
        }
    }
}

/// SUM over the Int timestamp column keeps Int typing in the scan
/// aggregate, and promotes to the exact float sum on i64 overflow —
/// identically to the row engines.
#[test]
fn scan_aggregate_int_typing_and_overflow_promotion() {
    // Small timestamps: SUM(timestamp) stays Int.
    let mut db = Tsdb::new();
    let key = SeriesKey::new("m").with_tag("host", "a");
    for t in [1i64, 2, 3] {
        db.insert(&key, t, 1.0);
    }
    let query = parse_query("SELECT SUM(timestamp) AS s FROM tsdb").unwrap();
    for (backend, catalog) in backends_of(&db).iter().enumerate() {
        let out = catalog.execute_query_with(&query, ExecOptions::with_partitions(2)).unwrap();
        assert_eq!(out.rows()[0][0], Value::Int(6), "backend {backend}");
    }

    // Near-i64::MAX timestamps: the i128-exact sum overflows i64 and
    // promotes to the error-free float sum in every engine.
    let mut db = Tsdb::new();
    let big = i64::MAX - 10;
    db.insert(&SeriesKey::new("m").with_tag("host", "a"), big, 1.0);
    db.insert(&SeriesKey::new("m").with_tag("host", "b"), big - 1, 2.0);
    let backends = backends_of(&db);
    let naive = execute_naive(&backends[0], &query).unwrap();
    let expect = &naive.rows()[0][0];
    assert!(matches!(expect, Value::Float(_)), "overflow must promote, got {expect:?}");
    assert_pinned(&backends, &query, &[1, 2], &naive);
}

/// Pins `sql` over one-column tables to exact rows at partitions 1 and 3.
/// For the key-exactness cases below: group and join keys agree with `=`
/// (Int keys above 2^53 stay apart, an integral Float meets the Int it
/// equals and only that one, signed zeros are one key), and the reference
/// shares `group_key`, so it cannot be their oracle.
fn pin_exact(
    tables: &[(&str, &str, Vec<Value>)],
    sql: &str,
    names: &[&str],
    rows: Vec<Vec<Value>>,
) {
    let mut catalog = Catalog::new();
    for (table, column, cells) in tables {
        let rows = cells.iter().map(|v| vec![v.clone()]).collect();
        catalog.register(table, Table::from_rows(&[column], rows));
    }
    let expect = Table::from_rows(names, rows);
    assert_pinned(&[catalog], &parse_query(sql).unwrap(), &[1, 3], &expect);
}

const P53: i64 = 1 << 53;

#[test]
fn group_keys_are_exact_beyond_2_pow_53() {
    let int = Value::Int;
    let xs =
        [P53 + 1, P53, P53 + 1, -P53 - 1, -P53, i64::MAX, i64::MAX - 1, i64::MIN, i64::MIN + 1];
    pin_exact(
        &[("k", "x", xs.iter().map(|&x| int(x)).collect())],
        "SELECT x, COUNT(*) AS n FROM k GROUP BY x",
        &["x", "n"],
        vec![
            vec![int(P53 + 1), int(2)],
            vec![int(P53), int(1)],
            vec![int(-P53 - 1), int(1)],
            vec![int(-P53), int(1)],
            vec![int(i64::MAX), int(1)],
            vec![int(i64::MAX - 1), int(1)],
            vec![int(i64::MIN), int(1)],
            vec![int(i64::MIN + 1), int(1)],
        ],
    );
}

#[test]
fn signed_zeros_and_integral_floats_share_the_int_group() {
    let cells = vec![Value::Float(0.0), Value::Float(-0.0), Value::Int(0), Value::Int(1)];
    pin_exact(
        &[("z", "f", cells)],
        "SELECT f, COUNT(*) AS n FROM z GROUP BY f",
        &["f", "n"],
        vec![vec![Value::Float(0.0), Value::Int(3)], vec![Value::Int(1), Value::Int(1)]],
    );
}

#[test]
fn equi_join_keys_match_exactly_what_equals_matches() {
    let int = Value::Int;
    let a = vec![int(P53 + 1), int(i64::MAX), Value::Float(-0.0), int(P53)];
    let b = vec![
        int(P53),
        Value::Float(P53 as f64),
        Value::Float(i64::MAX as f64), // 2^63: above every i64
        int(i64::MAX),
        int(0),
    ];
    pin_exact(
        &[("a", "x", a), ("b", "y", b)],
        "SELECT a.x, b.y FROM a INNER JOIN b ON a.x = b.y",
        &["x", "y"],
        vec![
            vec![int(i64::MAX), int(i64::MAX)],
            vec![Value::Float(-0.0), int(0)],
            vec![int(P53), int(P53)],
            vec![int(P53), Value::Float(P53 as f64)],
        ],
    );
}

/// `GROUP BY timestamp` on a TSDB binding is exact over the whole i64
/// range the store round-trips: neighbours above 2^53 and at both extremes
/// are separate groups, in the scan aggregate as in the table pipeline.
#[test]
fn group_by_timestamp_is_exact_at_the_i64_extremes() {
    let stamps = [i64::MIN, i64::MIN + 1, -P53 - 1, -P53, P53, P53 + 1, i64::MAX - 1, i64::MAX];
    let mut db = Tsdb::new();
    for (i, &ts) in stamps.iter().enumerate() {
        // Neighbouring timestamps sit in different series, and every
        // timestamp is hit twice, so groups merge across series.
        db.insert(&SeriesKey::new("m").with_tag("host", ["a", "b"][i % 2]), ts, 1.0);
        db.insert(&SeriesKey::new("m").with_tag("host", "c"), ts, 2.0);
    }
    let query = parse_query(
        "SELECT timestamp, SUM(value) AS s, COUNT(*) AS n FROM tsdb GROUP BY timestamp",
    )
    .unwrap();
    let expect = Table::from_rows(
        &["timestamp", "s", "n"],
        stamps.iter().map(|&ts| vec![Value::Int(ts), Value::Float(3.0), Value::Int(2)]).collect(),
    );
    assert_pinned(&backends_of(&db), &query, &[1, 3], &expect);
}

fn i64_extremes() -> Vec<Value> {
    vec![Value::Int(i64::MIN), Value::Int(5), Value::Int(-7), Value::Int(i64::MAX)]
}

/// Unary minus promotes at `i64::MIN` like every other Int overflow: the
/// folded constant, the scalar path and the dense column path.
#[test]
fn negation_promotes_at_i64_min() {
    let two63 = Value::Float(9_223_372_036_854_775_808.0);
    pin_exact(
        &[],
        "SELECT -x AS y, -(-9223372036854775807 - 1) AS z \
         FROM (SELECT -9223372036854775807 - 1 AS x) q",
        &["y", "z"],
        vec![vec![two63.clone(), two63.clone()]],
    );
    pin_exact(
        &[("k", "x", i64_extremes())],
        "SELECT -x AS y FROM k WHERE -x > 0",
        &["y"],
        vec![vec![two63], vec![Value::Int(7)]],
    );
}

/// A window offset at the i64 extremes is out of range, not an overflow.
#[test]
fn window_offsets_at_the_i64_extremes_are_out_of_range() {
    pin_exact(
        &[("k", "x", i64_extremes())],
        "SELECT LAG(x, -9223372036854775807 - 1) AS a, LEAD(x, 9223372036854775807) AS b, \
         LAG(x, -9223372036854775807 - 1, 0) AS c, LEAD(x, 9223372036854775807, x) AS d FROM k",
        &["a", "b", "c", "d"],
        i64_extremes()
            .into_iter()
            .map(|x| vec![Value::Null, Value::Null, Value::Int(0), x])
            .collect(),
    );
}

/// MIN/MAX over streams containing NaN are *order-dependent* folds (NaN
/// is incomparable, so `fold_minmax` keeps it as a separate class and the
/// result is the first-seen class's best). The optimizer must therefore
/// keep MIN/MAX-over-value pipelines off the series-major scan aggregate
/// unless `timestamp` is a group key (where series-rank order equals row
/// order within each group) — and either way, every engine must agree.
#[test]
fn minmax_with_nan_agrees_across_engines() {
    let mut db = Tsdb::new();
    // Rank order (canonical key order) differs from row (timestamp)
    // order: host=a scans first but its point is *later*, so a
    // series-major MIN fold would see 5.0 before the NaN that serial row
    // order sees first.
    db.insert(&SeriesKey::new("m").with_tag("host", "a"), 100, 5.0);
    db.insert(&SeriesKey::new("m").with_tag("host", "b"), 0, f64::NAN);
    let backends = backends_of(&db);
    for sql in [
        "SELECT MIN(value) AS lo FROM tsdb",
        "SELECT MAX(value) AS hi FROM tsdb",
        "SELECT metric_name, MIN(value) AS lo FROM tsdb GROUP BY metric_name",
        "SELECT timestamp, MIN(value) AS lo FROM tsdb GROUP BY timestamp",
    ] {
        let query = parse_query(sql).unwrap();
        let naive = execute_naive(&backends[0], &query).unwrap();
        assert_pinned(&backends, &query, &[1, 2], &naive);
    }
}

/// Mixed Int/Float comparisons must be *exact* — no rounding the Int
/// column through f64 — and identical in the vectorized kernels, the row
/// engines and the reference. Pins the cases where a lossy `as f64`
/// compare gives the wrong answer: i64 values above 2^53 against Float
/// constants, Float columns against non-round-trippable Int constants,
/// and NaN data dropping for every operator.
#[test]
fn mixed_int_float_comparisons_pinned_exact() {
    let p53 = 1i64 << 53; // 9007199254740992: the last exactly-representable step
    let rows = vec![
        vec![Value::Int(p53), Value::Float(0.5)],
        vec![Value::Int(p53 + 1), Value::Float(f64::NAN)],
        vec![Value::Int(i64::MAX), Value::Float(9_223_372_036_854_775_807i64 as f64)],
        vec![Value::Int(-3), Value::Float(f64::NEG_INFINITY)],
    ];
    let mut catalog = Catalog::new();
    catalog.register("b", Table::from_rows(&["x", "v"], rows));
    let catalog = [catalog];

    let serial = |sql: &str| {
        let query = parse_query(sql).unwrap();
        catalog[0].execute_query_with(&query, ExecOptions::with_partitions(1)).unwrap()
    };
    let x_of = |t: &Table| -> Vec<Value> { t.rows().iter().map(|r| r[0].clone()).collect() };

    // 2^53 + 1 rounds down to 2^53 under `as f64`; the exact compare must
    // still see it as strictly greater than the 2^53 Float constant.
    let out = serial("SELECT x FROM b WHERE x > 9007199254740992.0");
    assert_eq!(x_of(&out), vec![Value::Int(p53 + 1), Value::Int(i64::MAX)]);
    let out = serial("SELECT x FROM b WHERE x = 9007199254740992.0");
    assert_eq!(x_of(&out), vec![Value::Int(p53)], "!= under rounding, = exactly");

    // i64::MAX as f64 rounds *up* to 2^63, so the Float cell is strictly
    // greater than the Int constant i64::MAX — a lossy compare calls them
    // equal.
    let out = serial("SELECT x FROM b WHERE v <= 9223372036854775807");
    assert_eq!(x_of(&out), vec![Value::Int(p53), Value::Int(-3)]);
    let out = serial("SELECT x FROM b WHERE v > 9223372036854775807");
    assert_eq!(x_of(&out), vec![Value::Int(i64::MAX)]);

    // Fractional constants partition Int values exactly.
    let out = serial("SELECT x FROM b WHERE x <= -2.5");
    assert_eq!(x_of(&out), vec![Value::Int(-3)]);

    // NaN cells drop for EVERY comparison operator (SQL unknown), and
    // -inf compares below every finite constant.
    let out = serial("SELECT x FROM b WHERE v != 12345.0");
    assert_eq!(x_of(&out), vec![Value::Int(p53), Value::Int(i64::MAX), Value::Int(-3)]);
    let out = serial("SELECT x FROM b WHERE v < 1e308");
    assert_eq!(x_of(&out), vec![Value::Int(p53), Value::Int(i64::MAX), Value::Int(-3)]);

    // And every partition count agrees with the reference on every
    // shape, including BETWEEN over the huge-Int boundary.
    for sql in [
        "SELECT x FROM b WHERE x > 9007199254740992.0",
        "SELECT x FROM b WHERE x = 9007199254740992.0",
        "SELECT x FROM b WHERE x != 9007199254740992.0 ORDER BY x",
        "SELECT x FROM b WHERE v <= 9223372036854775807",
        "SELECT x FROM b WHERE x <= -2.5",
        "SELECT x FROM b WHERE v != 12345.0",
        "SELECT x FROM b WHERE v < 1e308 AND x > 2.5",
        "SELECT x FROM b WHERE x BETWEEN -2.5 AND 9007199254740992.0",
        "SELECT COUNT(*) AS n FROM b WHERE v = v",
    ] {
        assert_same(&catalog, sql).unwrap();
    }
}

/// Int arithmetic at the i64 extremes promotes to Float instead of
/// wrapping or panicking, identically in the vectorized kernels, the row
/// engines and the reference (satellite: overflow audit).
#[test]
fn int_arithmetic_overflow_promotes_in_all_engines() {
    let rows = vec![
        vec![Value::Int(i64::MAX), Value::Int(1)],
        vec![Value::Int(i64::MIN), Value::Int(-1)],
        vec![Value::Int(1 << 53), Value::Int(3)],
    ];
    let mut catalog = Catalog::new();
    catalog.register("b", Table::from_rows(&["x", "k"], rows));
    let catalog = [catalog];

    let query = parse_query("SELECT x + 1 AS a, x * k AS m, x - 1 AS s FROM b").unwrap();
    let serial = catalog[0].execute_query_with(&query, ExecOptions::with_partitions(1)).unwrap();
    // i64::MAX + 1 promotes; (2^53) + 1 stays exact Int.
    assert_eq!(serial.rows()[0][0], Value::Float((i128::from(i64::MAX) + 1) as f64));
    assert_eq!(serial.rows()[1][0], Value::Int(i64::MIN + 1));
    assert_eq!(serial.rows()[2][0], Value::Int((1 << 53) + 1));
    // i64::MIN * -1 overflows by exactly one; the exact i128 product
    // converts to 2^63 as f64.
    assert_eq!(serial.rows()[1][1], Value::Float(9_223_372_036_854_775_808.0));
    assert_eq!(serial.rows()[1][2], Value::Float((i128::from(i64::MIN) - 1) as f64));

    for sql in [
        "SELECT x + 1 AS a, x * k AS m, x - 1 AS s FROM b",
        "SELECT x FROM b WHERE x * k > 0",
        "SELECT SUM(x) AS s FROM b",
    ] {
        assert_same(&catalog, sql).unwrap();
    }
}

/// Non-constant PERCENTILE p must error identically everywhere.
#[test]
fn non_constant_percentile_p_rejected_by_all_engines() {
    let rows = vec![
        vec![Value::Int(0), Value::str("a"), Value::Float(1.0)],
        vec![Value::Int(1), Value::str("a"), Value::Float(2.0)],
    ];
    let mut catalog = Catalog::new();
    catalog.register("t", Table::from_rows(&["ts", "host", "v"], rows));
    let query = parse_query("SELECT PERCENTILE(v, ts * 0.1) AS p FROM t").unwrap();
    for parts in [1usize, 2] {
        let out = catalog.execute_query_with(&query, ExecOptions::with_partitions(parts));
        assert!(
            matches!(out, Err(explainit_query::QueryError::BadFunction(_))),
            "partitions={parts}: {out:?}"
        );
    }
    assert!(matches!(
        execute_naive(&catalog, &query),
        Err(explainit_query::QueryError::BadFunction(_))
    ));
}
