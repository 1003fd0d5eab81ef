//! Property tests for the SQL engine: lexer/parser robustness, executor
//! invariants, and pivot correctness.

use explainit_query::{parse_query, pivot_long, Catalog, Table, Value};
use explainit_tsdb::{SeriesKey, Tsdb};
use proptest::prelude::*;

/// Arbitrary identifiers that are never reserved words.
fn ident_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_filter("avoid keywords", |s| {
        !matches!(
            s.to_uppercase().as_str(),
            "SELECT"
                | "FROM"
                | "WHERE"
                | "GROUP"
                | "ORDER"
                | "LIMIT"
                | "UNION"
                | "JOIN"
                | "INNER"
                | "LEFT"
                | "FULL"
                | "OUTER"
                | "ON"
                | "AS"
                | "AND"
                | "OR"
                | "NOT"
                | "IN"
                | "BETWEEN"
                | "IS"
                | "NULL"
                | "LIKE"
                | "CASE"
                | "WHEN"
                | "THEN"
                | "ELSE"
                | "END"
                | "ASC"
                | "DESC"
                | "BY"
                | "ALL"
                | "TRUE"
                | "FALSE"
                | "HAVING"
        )
    })
}

proptest! {
    #[test]
    fn parser_never_panics_on_arbitrary_input(s in "\\PC{0,80}") {
        // Must return Ok or Err, never panic.
        let _ = parse_query(&s);
    }

    #[test]
    fn simple_selects_always_parse(col in ident_strategy(), table in ident_strategy()) {
        let sql = format!("SELECT {col} FROM {table}");
        prop_assert!(parse_query(&sql).is_ok());
        let sql = format!("SELECT {col} AS x FROM {table} WHERE {col} > 0 ORDER BY {col} LIMIT 5");
        prop_assert!(parse_query(&sql).is_ok());
    }

    #[test]
    fn string_literals_round_trip_through_where(v in "[a-zA-Z0-9 ']{0,20}") {
        let mut catalog = Catalog::new();
        catalog.register(
            "t",
            Table::from_rows(&["s"], vec![vec![Value::str(v.clone())], vec![Value::str("other")]]),
        );
        let escaped = v.replace('\'', "''");
        let out = catalog
            .execute(&format!("SELECT s FROM t WHERE s = '{escaped}'"))
            .expect("query runs");
        // The row with the exact value must always come back (plus possibly
        // the "other" row when v == "other").
        prop_assert!(out.rows().iter().any(|r| r[0] == Value::str(v.clone())));
    }

    #[test]
    fn where_filter_is_subset_and_complement_partitions(
        vals in proptest::collection::vec(-100i64..100, 1..40),
        threshold in -100i64..100,
    ) {
        let mut catalog = Catalog::new();
        catalog.register(
            "t",
            Table::from_rows(&["v"], vals.iter().map(|&v| vec![Value::Int(v)]).collect()),
        );
        let above = catalog
            .execute(&format!("SELECT v FROM t WHERE v > {threshold}"))
            .expect("query");
        let below_eq = catalog
            .execute(&format!("SELECT v FROM t WHERE NOT (v > {threshold})"))
            .expect("query");
        prop_assert_eq!(above.len() + below_eq.len(), vals.len());
        for r in above.rows() {
            prop_assert!(r[0].as_i64().expect("int") > threshold);
        }
    }

    #[test]
    fn group_by_avg_matches_manual_aggregation(
        pairs in proptest::collection::vec((0i64..5, -50.0f64..50.0), 1..60)
    ) {
        let mut catalog = Catalog::new();
        catalog.register(
            "t",
            Table::from_rows(
                &["k", "v"],
                pairs.iter().map(|&(k, v)| vec![Value::Int(k), Value::Float(v)]).collect(),
            ),
        );
        let out = catalog
            .execute("SELECT k, AVG(v) AS m FROM t GROUP BY k ORDER BY k")
            .expect("query");
        // Manual aggregation.
        let mut sums: std::collections::BTreeMap<i64, (f64, usize)> = Default::default();
        for &(k, v) in &pairs {
            let e = sums.entry(k).or_insert((0.0, 0));
            e.0 += v;
            e.1 += 1;
        }
        prop_assert_eq!(out.len(), sums.len());
        for (row, (&k, &(sum, n))) in out.rows().iter().zip(sums.iter()) {
            prop_assert_eq!(row[0].as_i64(), Some(k));
            let avg = row[1].as_f64().expect("float");
            prop_assert!((avg - sum / n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn order_by_sorts(vals in proptest::collection::vec(-1000i64..1000, 0..50)) {
        let mut catalog = Catalog::new();
        catalog.register(
            "t",
            Table::from_rows(&["v"], vals.iter().map(|&v| vec![Value::Int(v)]).collect()),
        );
        let out = catalog.execute("SELECT v FROM t ORDER BY v ASC").expect("query");
        let got: Vec<i64> = out.rows().iter().map(|r| r[0].as_i64().expect("int")).collect();
        let mut want = vals.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn limit_truncates(vals in proptest::collection::vec(0i64..100, 0..30), limit in 0usize..40) {
        let mut catalog = Catalog::new();
        catalog.register(
            "t",
            Table::from_rows(&["v"], vals.iter().map(|&v| vec![Value::Int(v)]).collect()),
        );
        let out = catalog
            .execute(&format!("SELECT v FROM t LIMIT {limit}"))
            .expect("query");
        prop_assert_eq!(out.len(), vals.len().min(limit));
    }

    #[test]
    fn inner_join_row_count_matches_nested_loop(
        left in proptest::collection::vec(0i64..6, 0..20),
        right in proptest::collection::vec(0i64..6, 0..20),
    ) {
        let mut catalog = Catalog::new();
        catalog.register(
            "l",
            Table::from_rows(&["k"], left.iter().map(|&v| vec![Value::Int(v)]).collect()),
        );
        catalog.register(
            "r",
            Table::from_rows(&["k"], right.iter().map(|&v| vec![Value::Int(v)]).collect()),
        );
        let out = catalog
            .execute("SELECT l.k FROM l JOIN r ON l.k = r.k")
            .expect("query");
        let expected: usize = left
            .iter()
            .map(|a| right.iter().filter(|&&b| b == *a).count())
            .sum();
        prop_assert_eq!(out.len(), expected);
    }

    #[test]
    fn full_outer_join_covers_all_rows(
        left in proptest::collection::vec(0i64..4, 0..12),
        right in proptest::collection::vec(0i64..4, 0..12),
    ) {
        let mut catalog = Catalog::new();
        catalog.register(
            "l",
            Table::from_rows(&["k"], left.iter().map(|&v| vec![Value::Int(v)]).collect()),
        );
        catalog.register(
            "r",
            Table::from_rows(&["k"], right.iter().map(|&v| vec![Value::Int(v)]).collect()),
        );
        let out = catalog
            .execute("SELECT l.k, r.k FROM l FULL OUTER JOIN r ON l.k = r.k")
            .expect("query");
        // Every left value appears in the left column; every right value in
        // the right column.
        for &v in &left {
            prop_assert!(out.rows().iter().any(|row| row[0].as_i64() == Some(v)));
        }
        for &v in &right {
            prop_assert!(out.rows().iter().any(|row| row[1].as_i64() == Some(v)));
        }
    }

    #[test]
    fn pivot_long_preserves_every_cell(
        cells in proptest::collection::vec((0i64..8, 0usize..3, -10.0f64..10.0), 1..40)
    ) {
        // Last write wins on (ts, feature), in the generated order.
        let mut last: std::collections::BTreeMap<(i64, usize), f64> = Default::default();
        for &(ts, feat, v) in &cells {
            last.insert((ts, feat), v);
        }
        // String label columns, rows exactly as generated: unsorted
        // timestamps, duplicate cells and all.
        let rows: Vec<Vec<Value>> = cells
            .iter()
            .map(|&(ts, feat, v)| {
                vec![
                    Value::Int(ts),
                    Value::str("fam"),
                    Value::str(format!("f{feat}")),
                    Value::Float(v),
                ]
            })
            .collect();
        let unsorted = Table::from_rows(&["ts", "family", "feature", "v"], rows);
        // Dictionary-encoded label columns: the same cells out of a store
        // scan (`metric_name` is a dictionary column, `tag['f']` one
        // evaluated per entry; the store keeps the last write too).
        let mut db = Tsdb::new();
        for &(ts, feat, v) in &cells {
            db.try_insert(&SeriesKey::new("fam").with_tag("f", format!("f{feat}")), ts, v).expect("insert");
        }
        let mut catalog = Catalog::new();
        catalog.register_tsdb("tsdb", &db);
        let dict = catalog
            .execute(
                "SELECT timestamp AS ts, metric_name AS family, tag['f'] AS feature, value AS v \
                 FROM tsdb",
            )
            .expect("scan");
        for table in [unsorted, dict] {
            let frames = pivot_long(&table, "ts", "family", "feature", "v").expect("pivot");
            prop_assert_eq!(frames.len(), 1);
            let frame = &frames[0];
            prop_assert!(frame.timestamps.windows(2).all(|w| w[0] < w[1]), "sorted, unique grid");
            for (&(ts, feat), &v) in &last {
                let row = frame.timestamps.iter().position(|&t| t == ts).expect("ts present");
                let col = frame
                    .feature_names
                    .iter()
                    .position(|n| n == &format!("f{feat}"))
                    .expect("feature present");
                prop_assert_eq!(frame.columns[col][row].to_bits(), v.to_bits());
            }
        }
    }
}
