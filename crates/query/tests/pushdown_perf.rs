//! Perf regression guard: on a tsdb-backed filtered-aggregate family
//! query, the pushdown pipeline must beat the naive full-store
//! materialization by a wide margin (expected ~10–100×; asserted at 2× to
//! stay robust under noisy CI machines).

use std::time::{Duration, Instant};

use explainit_query::reference::execute_naive;
use explainit_query::{parse_query, Catalog};
use explainit_tsdb::{SeriesKey, Tsdb};

fn build_db() -> Tsdb {
    let mut db = Tsdb::new();
    for s in 0..300usize {
        let key = SeriesKey::new(format!("noise_{}", s % 40)).with_tag("host", format!("host-{s}"));
        for t in 0..200i64 {
            db.try_insert(&key, t * 60, (s as f64) + (t as f64) * 0.01).expect("insert");
        }
    }
    for p in ["p1", "p2"] {
        let key = SeriesKey::new("pipeline_runtime").with_tag("pipeline_name", p);
        for t in 0..200i64 {
            db.try_insert(&key, t * 60, 100.0 + t as f64).expect("insert");
        }
    }
    db
}

fn best_of<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let started = Instant::now();
        f();
        best = best.min(started.elapsed());
    }
    best
}

#[test]
fn pushdown_beats_full_store_materialization() {
    let db = build_db();
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &db);
    let query = parse_query(
        "SELECT timestamp, tag['pipeline_name'], AVG(value) AS runtime_sec \
         FROM tsdb WHERE metric_name = 'pipeline_runtime' \
         AND timestamp BETWEEN 0 AND 86400 \
         GROUP BY timestamp, tag['pipeline_name'] ORDER BY timestamp ASC",
    )
    .expect("parse");

    // Answers must agree before timing means anything.
    let fast = catalog.execute_query(&query).expect("pipeline");
    let slow = execute_naive(&catalog, &query).expect("naive");
    assert_eq!(fast.rows(), slow.rows());
    assert!(!fast.is_empty());

    let pipeline = best_of(5, || {
        catalog.execute_query(&query).expect("pipeline");
    });
    let naive = best_of(5, || {
        execute_naive(&catalog, &query).expect("naive");
    });
    assert!(
        pipeline * 2 < naive,
        "pushdown pipeline ({pipeline:?}) must be at least 2x faster than \
         full materialization ({naive:?})"
    );
}

#[test]
fn explain_shows_pushdown_reaching_the_scan() {
    let db = build_db();
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &db);
    let plan = catalog
        .execute(
            "EXPLAIN SELECT timestamp, tag['pipeline_name'], AVG(value) AS runtime_sec \
             FROM tsdb WHERE metric_name = 'pipeline_runtime' \
             AND timestamp BETWEEN 0 AND 86400 \
             GROUP BY timestamp, tag['pipeline_name'] ORDER BY timestamp ASC",
        )
        .expect("explain");
    let text: String = plan.rows().iter().map(|r| r[0].render()).collect::<Vec<_>>().join("\n");
    // The whole pipeline collapses into the scan-level aggregate; the
    // pushed-down predicates surface on its EXPLAIN line.
    assert!(text.contains("ScanAggregate"), "plan:\n{text}");
    assert!(text.contains("name=pipeline_runtime"), "plan:\n{text}");
    assert!(text.contains("time=[0, 86400]"), "plan:\n{text}");
}
