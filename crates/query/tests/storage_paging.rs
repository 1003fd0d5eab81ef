//! The differential family query over a *demand-paged* store:
//! whatever the page budget — zero, about one chunk, or unbounded — every
//! engine must produce rows bit-identical to the fully-resident run,
//! while the paging counters prove the tight budgets actually faulted
//! and evicted. The two fused `CREATE FAMILY` operators — the scan pivot
//! and the scan aggregate pivot — read the same paged chunks and must
//! produce the resident run's frames, bit for bit.

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

/// The two fused family statements, each with the plan line the binding
/// gives it: a long one over the bare scan, and the benchmark's wide one
/// over the scan aggregate.
const FAMILY_STATEMENTS: [(&str, &str); 2] = [
    (
        "CREATE FAMILY f WITH (layout = 'long') AS \
         SELECT timestamp, metric_name, tag, value FROM tsdb WHERE timestamp >= 600",
        "ScanPivot",
    ),
    (
        "CREATE FAMILY by_name WITH (family = 'metric_name') AS SELECT timestamp, metric_name, \
         AVG(value) AS mean_v, MAX(value) AS max_v, STDDEV(value) AS sd_v FROM tsdb \
         GROUP BY timestamp, metric_name",
        "ScanAggregatePivot",
    ),
];

/// One run's frames: each frame's name, timestamps and cell bits.
type Frames = Vec<(String, Vec<i64>, Vec<Vec<u64>>)>;

/// Each family statement at partitions 1 and 3 on the binding (its fused
/// operator) and on the plain-table backend (the table pivot), every frame
/// as its name, timestamps and cell bits.
fn family_frames(db: &Tsdb) -> Vec<Frames> {
    let mut bound = Catalog::new();
    bound.register_tsdb("tsdb", db);
    let mut plain = Catalog::new();
    plain.register("tsdb", bound.get("tsdb").expect("bound above").as_ref().clone());
    let bits = |frames: Vec<FamilyFrame>| -> Frames {
        let cells = |c: Vec<f64>| c.into_iter().map(f64::to_bits).collect();
        let frame =
            |f: FamilyFrame| (f.name, f.timestamps, f.columns.into_iter().map(cells).collect());
        frames.into_iter().map(frame).collect()
    };
    let mut out = Vec::new();
    for (sql, fused) in FAMILY_STATEMENTS {
        let Ok(Statement::CreateFamily(cf)) = parse_statement(sql) else { panic!("parses") };
        let plan = bound.explain_family(&cf).expect("plans");
        let line = plan.rows()[0][0].render();
        assert!(line.starts_with(&format!("{fused} tsdb")), "{:?}", plan.rows());
        let run =
            |c: &Catalog, p| c.execute_family(&cf, ExecOptions::with_partitions(p)).expect("runs");
        out.extend([run(&bound, 1), run(&bound, 3), run(&plain, 1)].map(bits));
    }
    out
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
    let shape = |run: &Frames| (run.len(), run[0].2.len(), run[0].1.len());
    assert_eq!(shape(&frames[0]), (1, 3, 110), "the long statement");
    assert_eq!(shape(&frames[3]), (1, 3, 120), "the wide statement");
    for (runs, what) in frames.chunks(3).zip(["scan pivot", "scan aggregate pivot"]) {
        assert!(runs.iter().all(|f| f == &runs[0]), "{what} = table pivot, resident");
    }
    drop(resident);

    for (label, budget) in [("budget-zero", 0), ("budget-one-chunk", one_chunk)] {
        let options =
            StorageOptions { page_budget_bytes: Some(budget), ..StorageOptions::default() };
        let db = Tsdb::open_read_only_with(&dir, options).expect("paged reopen");
        let before = db.storage_stats().expect("stats");
        assert_eq!(before.resident_chunk_bytes, 0, "{label}: cold open keeps nothing resident");
        run_all_engines(&db, &baseline, label);
        assert_eq!(family_frames(&db), frames, "{label}: family frames");
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
