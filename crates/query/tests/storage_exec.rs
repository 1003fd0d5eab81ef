//! Query execution over a *reopened* durable store: the differential
//! family query (partitions 1 and 3, over the TSDB binding and over the
//! same observations as a plain table, plus the reference interpreter)
//! must be bit-identical to the in-memory run
//! (including after a torn WAL tail), and a time-filtered ScanAggregate
//! must decode only the chunks its range overlaps. The `CREATE FAMILY`
//! scan pivot is held to the same two: frames equal to the table pivot of
//! the in-memory run, each overlapping chunk decoded once, pruned chunks
//! never.

use std::path::PathBuf;

use explainit_query::reference::execute_naive;
use explainit_query::{
    parse_query, parse_statement, pivot_long, Catalog, ExecOptions, FamilyFrame, Statement, Table,
};
use explainit_tsdb::{SeriesKey, Tsdb};

const FAMILY_SQL: &str = "SELECT timestamp, tag['host'] AS h, AVG(value) AS m, SUM(value) AS s, \
     COUNT(*) AS n, STDDEV(value) AS sd, PERCENTILE(value, 0.5) AS med \
     FROM tsdb WHERE metric_name = 'cpu' GROUP BY timestamp, tag['host']";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("explainit-qstore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The aligned-fleet ingest both stores receive, point for point.
fn fleet_points() -> Vec<(SeriesKey, i64, f64)> {
    let mut points = Vec::new();
    for (i, host) in ["web-1", "web-2", "db-1"].iter().enumerate() {
        let key = SeriesKey::new("cpu").with_tag("host", *host);
        for t in 0..40i64 {
            let v = 10.0 * (i as f64 + 1.0) + (t as f64 * 0.37).sin();
            points.push((key.clone(), t * 60, v));
        }
    }
    points.push((SeriesKey::new("untagged"), 0, 5.0));
    points
}

/// Runs the family query at partitions 1 and 3 over both backends of
/// `db` — the TSDB binding (scan aggregate) and the sort-built table behind
/// its `Catalog::get` registered as a plain table (table aggregate) — and
/// through the reference interpreter, asserting all match `baseline`.
fn assert_all_engines_match(db: &Tsdb, baseline: &Table) {
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
            let label = format!("{backend} partitions={partitions}");
            assert_eq!(out.schema(), baseline.schema(), "{label} schema");
            assert_eq!(out.rows(), baseline.rows(), "{label} rows vs in-memory baseline");
        }
    }
    let naive = execute_naive(&bound, &query).expect("reference runs");
    assert_eq!(naive.rows(), baseline.rows(), "reference rows vs in-memory baseline");
}

fn in_memory_baseline(db: &Tsdb) -> Table {
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", db);
    let query = parse_query(FAMILY_SQL).expect("family query parses");
    catalog.execute_query_with(&query, ExecOptions::with_partitions(1)).expect("baseline runs")
}

#[test]
fn family_query_bit_identical_after_reopen() {
    let dir = tmp_dir("reopen");
    let mut memory = Tsdb::new();
    {
        let mut durable = Tsdb::open(&dir).expect("open");
        for (key, ts, v) in fleet_points() {
            memory.insert(&key, ts, v);
            durable.insert(&key, ts, v);
        }
        durable.flush().expect("flush");
    }
    let reopened = Tsdb::open(&dir).expect("reopen");
    let baseline = in_memory_baseline(&memory);
    assert!(!baseline.rows().is_empty(), "family query returns rows");
    assert_all_engines_match(&reopened, &baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn family_query_bit_identical_after_torn_wal_tail() {
    let dir = tmp_dir("torn");
    let mut memory = Tsdb::new();
    {
        let mut durable = Tsdb::open(&dir).expect("open");
        for (key, ts, v) in fleet_points() {
            memory.insert(&key, ts, v);
            durable.insert(&key, ts, v);
        }
        durable.flush().expect("flush the fleet into segments");
        // Post-flush inserts: one WAL record each. The last one will be
        // torn; all but the last belong in the recovered store.
        let late = SeriesKey::new("cpu").with_tag("host", "web-1");
        durable.try_insert(&late, 5000 * 60, 42.0).expect("committed insert");
        memory.insert(&late, 5000 * 60, 42.0);
        durable.try_insert(&late, 5001 * 60, 43.0).expect("to-be-torn insert");
        durable.sync().expect("sync");
    }
    // Tear the WAL mid-way through the last record.
    let wal_path = dir.join("wal");
    let wal = std::fs::read(&wal_path).expect("read wal");
    let mut offsets = Vec::new();
    let mut at = 0usize;
    while at + 8 <= wal.len() {
        offsets.push(at);
        let len = u32::from_le_bytes(wal[at..at + 4].try_into().unwrap()) as usize;
        at += 8 + len;
    }
    let last_start = *offsets.last().expect("wal has records");
    std::fs::write(&wal_path, &wal[..last_start + 5]).expect("tear tail");

    let reopened = Tsdb::open(&dir).expect("reopen over the torn tail");
    let baseline = in_memory_baseline(&memory);
    assert_all_engines_match(&reopened, &baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn time_filtered_scan_aggregate_decodes_only_overlapping_chunks() {
    let dir = tmp_dir("lazy");
    let hosts = ["web-1", "web-2", "db-1"];
    {
        let mut db = Tsdb::open(&dir).expect("open");
        // Two disjoint time windows, flushed separately: two chunks per
        // series on disk.
        for host in hosts {
            let key = SeriesKey::new("cpu").with_tag("host", host);
            for t in 0..30i64 {
                db.insert(&key, t * 60, t as f64);
            }
        }
        db.flush().expect("flush window 1");
        for host in hosts {
            let key = SeriesKey::new("cpu").with_tag("host", host);
            for t in 1000..1030i64 {
                db.insert(&key, t * 60, t as f64);
            }
        }
        db.flush().expect("flush window 2");
    }
    let db = Tsdb::open(&dir).expect("reopen");
    assert_eq!(db.storage_stats().expect("stats").chunks, 6);
    assert_eq!(db.decode_count(), 0, "recovery decodes nothing");

    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &db); // snapshot shares chunk bytes + counter
    let query = parse_query(
        "SELECT tag['host'] AS h, AVG(value) AS m, COUNT(*) AS n FROM tsdb \
         WHERE metric_name = 'cpu' AND timestamp BETWEEN 60000 AND 61740 \
         GROUP BY tag['host']",
    )
    .expect("parses");
    let out = catalog.execute_query_with(&query, ExecOptions::with_partitions(2)).expect("runs");
    assert_eq!(out.len(), 3, "one group per host");
    assert_eq!(
        db.decode_count(),
        3,
        "only the window-2 chunk of each matched series was decompressed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The long-layout family statement the scan pivot takes, `filter` pushed.
fn family_frames(catalog: &Catalog, filter: &str, partitions: usize) -> Vec<FamilyFrame> {
    let sql = format!(
        "CREATE FAMILY f WITH (layout = 'long') AS \
         SELECT timestamp, metric_name, tag['host'] AS host, value FROM tsdb{filter}"
    );
    let Ok(Statement::CreateFamily(cf)) = parse_statement(&sql) else { panic!("parses") };
    let plan = catalog.explain_family(&cf).expect("plans");
    assert!(plan.rows()[0][0].render().starts_with("ScanPivot"), "{:?}", plan.rows());
    catalog.execute_family(&cf, ExecOptions::with_partitions(partitions)).expect("runs")
}

#[test]
fn scan_pivot_over_a_reopened_store_equals_the_table_pivot_and_decodes_each_chunk_once() {
    let dir = tmp_dir("pivot");
    let mut memory = Tsdb::new();
    {
        // Two disjoint time windows, flushed separately: two chunks per
        // series on disk; one series misses the first window.
        let mut durable = Tsdb::open(&dir).expect("open");
        for (window, hosts) in
            [(0i64, &["web-1", "web-2"][..]), (1000, &["web-1", "web-2", "db-1"])]
        {
            for (i, host) in hosts.iter().enumerate() {
                let key = SeriesKey::new("cpu").with_tag("host", *host);
                for t in window..window + 30 {
                    let v = 10.0 * i as f64 + (t as f64 * 0.37).sin();
                    memory.insert(&key, t * 60, v);
                    durable.insert(&key, t * 60, v);
                }
            }
            durable.flush().expect("flush window");
        }
    }
    let db = Tsdb::open(&dir).expect("reopen");
    assert_eq!(db.storage_stats().expect("stats").chunks, 5);
    assert_eq!(db.decode_count(), 0, "recovery decodes nothing");

    // The oracle never touches the reopened store: the table pivot over
    // the in-memory twin's gathered rows.
    let oracle = |filter: &str| {
        let mut catalog = Catalog::new();
        catalog.register_tsdb("tsdb", &memory);
        let table = catalog
            .execute(&format!(
                "SELECT timestamp, metric_name, tag['host'] AS host, value FROM tsdb{filter}"
            ))
            .expect("stage one");
        pivot_long(&table, "timestamp", "metric_name", "host", "value").expect("pivots")
    };
    // One binding for every run: its snapshot shares the store's chunk
    // bytes and decode counter, and keeps what it decoded.
    let mut bound = Catalog::new();
    bound.register_tsdb("tsdb", &db);
    let window_2 = " WHERE timestamp BETWEEN 60000 AND 61740";
    assert_eq!(family_frames(&bound, window_2, 2), oracle(window_2));
    assert_eq!(db.decode_count(), 3, "only the window-2 chunk of each series was decompressed");
    for partitions in [1, 3] {
        let frames = family_frames(&bound, "", partitions);
        assert_eq!(frames, oracle(""));
        assert_eq!(frames[0].width(), 3);
        assert_eq!(frames[0].len(), 60, "db-1 gap-filled over the first window");
    }
    assert_eq!(db.decode_count(), 5, "every chunk decoded exactly once across all three runs");
    let _ = std::fs::remove_dir_all(&dir);
}
