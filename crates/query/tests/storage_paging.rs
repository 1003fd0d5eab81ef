//! The differential family query over a *demand-paged* store:
//! whatever the page budget — zero, about one chunk, or unbounded — every
//! engine must produce rows bit-identical to the fully-resident run,
//! while the paging counters prove the tight budgets actually faulted
//! and evicted. The `CREATE FAMILY` scan pivot reads the same paged chunks
//! and must produce the resident run's frames.

use std::path::PathBuf;

use explainit_query::reference::execute_naive;
use explainit_query::{
    parse_query, parse_statement, Catalog, ExecOptions, FamilyFrame, Statement, Table,
};
use explainit_tsdb::{SeriesKey, StorageOptions, Tsdb};

const FAMILY_SQL: &str = "SELECT timestamp, tag['host'] AS h, AVG(value) AS m, SUM(value) AS s, \
     COUNT(*) AS n, STDDEV(value) AS sd, PERCENTILE(value, 0.5) AS med \
     FROM tsdb WHERE metric_name = 'cpu' GROUP BY timestamp, tag['host']";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("explainit-qpaging-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a store whose series span several chunks (one per flush round),
/// so a one-chunk budget forces paging mid-query.
fn build_store(dir: &std::path::Path) -> Tsdb {
    let mut db = Tsdb::open(dir).expect("open");
    for round in 0..4i64 {
        for (i, host) in ["web-1", "web-2", "db-1"].iter().enumerate() {
            let key = SeriesKey::new("cpu").with_tag("host", *host);
            for t in 0..30i64 {
                let ts = (round * 500 + t) * 60;
                let v = 10.0 * (i as f64 + 1.0) + ((round * 30 + t) as f64 * 0.37).sin();
                db.insert(&key, ts, v);
            }
        }
        db.flush().expect("flush round");
    }
    db
}

/// Partitions 1 and 3 over the TSDB binding (scan aggregate) and over the
/// sort-built table behind its `Catalog::get` registered as a plain table
/// (table aggregate), plus the reference interpreter.
fn run_all_engines(db: &Tsdb, baseline: &Table, label: &str) {
    let mut bound = Catalog::new();
    bound.register_tsdb("tsdb", db);
    let mut plain = Catalog::new();
    plain.register("tsdb", bound.get("tsdb").expect("bound above").as_ref().clone());
    let query = parse_query(FAMILY_SQL).expect("family query parses");
    for (backend, catalog) in [("tsdb binding", &bound), ("plain table", &plain)] {
        for partitions in [1, 3] {
            let out = catalog
                .execute_query_with(&query, ExecOptions::with_partitions(partitions))
                .expect("family query runs");
            let engine = format!("{backend} partitions={partitions}");
            assert_eq!(out.schema(), baseline.schema(), "{label}/{engine} schema");
            assert_eq!(out.rows(), baseline.rows(), "{label}/{engine} rows vs resident baseline");
        }
    }
    let naive = execute_naive(&bound, &query).expect("reference runs");
    assert_eq!(naive.rows(), baseline.rows(), "{label}/reference rows vs resident baseline");
}

/// The long-layout family statement at partitions 1 and 3: the scan pivot
/// on the binding, the table pivot on the plain-table backend.
fn family_frames(db: &Tsdb) -> Vec<Vec<FamilyFrame>> {
    let mut bound = Catalog::new();
    bound.register_tsdb("tsdb", db);
    let mut plain = Catalog::new();
    plain.register("tsdb", bound.get("tsdb").expect("bound above").as_ref().clone());
    let Ok(Statement::CreateFamily(cf)) = parse_statement(
        "CREATE FAMILY f WITH (layout = 'long') AS \
         SELECT timestamp, metric_name, tag, value FROM tsdb WHERE timestamp >= 600",
    ) else {
        panic!("parses")
    };
    let plan = bound.explain_family(&cf).expect("plans");
    assert!(plan.rows()[0][0].render().starts_with("ScanPivot"), "{:?}", plan.rows());
    let run =
        |c: &Catalog, p| c.execute_family(&cf, ExecOptions::with_partitions(p)).expect("runs");
    vec![run(&bound, 1), run(&bound, 3), run(&plain, 1)]
}

#[test]
fn family_query_bit_identical_under_every_page_budget() {
    let dir = tmp_dir("budgets");
    drop(build_store(&dir));

    // Fully-resident baseline: unbounded reopen, one partition.
    let resident = Tsdb::open(&dir).expect("unbounded reopen");
    let stats = resident.storage_stats().expect("stats");
    assert!(stats.chunks >= 12, "several chunks per series on disk");
    let one_chunk = stats.segment_bytes.div_ceil(stats.chunks as u64);
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &resident);
    let query = parse_query(FAMILY_SQL).expect("family query parses");
    let baseline =
        catalog.execute_query_with(&query, ExecOptions::with_partitions(1)).expect("baseline runs");
    assert!(!baseline.rows().is_empty(), "family query returns rows");
    run_all_engines(&resident, &baseline, "unbounded");
    let frames = family_frames(&resident);
    assert_eq!((frames[0].len(), frames[0][0].width(), frames[0][0].len()), (1, 3, 110));
    assert!(frames.iter().all(|f| f == &frames[0]), "scan pivot = table pivot, resident");
    drop(resident);

    for (label, budget) in [("budget-zero", 0), ("budget-one-chunk", one_chunk)] {
        let options =
            StorageOptions { page_budget_bytes: Some(budget), ..StorageOptions::default() };
        let db = Tsdb::open_read_only_with(&dir, options).expect("paged reopen");
        let before = db.storage_stats().expect("stats");
        assert_eq!(before.resident_chunk_bytes, 0, "{label}: cold open keeps nothing resident");
        run_all_engines(&db, &baseline, label);
        assert!(family_frames(&db).iter().all(|f| f == &frames[0]), "{label}: family frames");
        let after = db.storage_stats().expect("stats");
        assert!(after.page_faults > 0, "{label}: the query faulted chunks in");
        assert!(after.evictions > 0, "{label}: budget pressure forced evictions");
        assert!(
            after.peak_resident_chunk_bytes <= budget + 2 * one_chunk,
            "{label}: peak resident chunk bytes {} ran away",
            after.peak_resident_chunk_bytes
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
