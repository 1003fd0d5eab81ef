//! Query execution over a *reopened* durable store: the differential
//! family query (partitions 1 and 3, over the TSDB binding and over the
//! same observations as a plain table, plus the reference interpreter)
//! must be bit-identical to the in-memory run (including after a torn WAL
//! tail, and under every page budget, where the paging counters prove the
//! tight budgets faulted and evicted), and a time-filtered ScanAggregate
//! must decode only the chunks its range overlaps. The `CREATE FAMILY`
//! operators are held to the same: the scan pivot's and the scan aggregate
//! pivot's frames equal to the table pivot's at every budget, each
//! overlapping chunk decoded once, pruned chunks never. A chunk that
//! cannot be read fails every engine, the reference interpreter included,
//! and a session over a paged store stays within its budget.

use std::path::{Path, PathBuf};

use explainit_query::reference::execute_naive;
use explainit_query::{
    parse_query, parse_statement, pivot_long, Catalog, ExecOptions, FamilyFrame, QueryError,
    Statement, Table,
};
use explainit_tsdb::{SeriesKey, StorageOptions, Tsdb};

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
fn assert_all_engines_match(db: &Tsdb, baseline: &Table, label: &str) {
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
            let engine = format!("{label}/{backend} partitions={partitions}");
            assert_eq!(out.schema(), baseline.schema(), "{engine} schema");
            assert_eq!(out.rows(), baseline.rows(), "{engine} rows vs baseline");
        }
    }
    let naive = execute_naive(&bound, &query).expect("reference runs");
    assert_eq!(naive.rows(), baseline.rows(), "{label}/reference rows vs baseline");
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
            memory.try_insert(&key, ts, v).expect("insert");
            durable.try_insert(&key, ts, v).expect("insert");
        }
        durable.flush().expect("flush");
    }
    let reopened = Tsdb::open(&dir).expect("reopen");
    let baseline = in_memory_baseline(&memory);
    assert!(!baseline.rows().is_empty(), "family query returns rows");
    assert_all_engines_match(&reopened, &baseline, "reopened");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn family_query_bit_identical_after_torn_wal_tail() {
    let dir = tmp_dir("torn");
    let mut memory = Tsdb::new();
    {
        let mut durable = Tsdb::open(&dir).expect("open");
        for (key, ts, v) in fleet_points() {
            memory.try_insert(&key, ts, v).expect("insert");
            durable.try_insert(&key, ts, v).expect("insert");
        }
        durable.flush().expect("flush the fleet into segments");
        // Post-flush inserts: one WAL record each. The last one will be
        // torn; all but the last belong in the recovered store.
        let late = SeriesKey::new("cpu").with_tag("host", "web-1");
        durable.try_insert(&late, 5000 * 60, 42.0).expect("committed insert");
        memory.try_insert(&late, 5000 * 60, 42.0).expect("insert");
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
    assert_all_engines_match(&reopened, &baseline, "torn tail");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The reference interpreter reads a TSDB binding through its
/// materialized view. A chunk that cannot be read fails that view, and so
/// the statement, exactly as it fails the executor's scan: an error, never
/// a table with the chunk's rows missing. Nothing is cached on failure, so
/// the same binding reads every row once the bytes are whole again.
#[test]
fn an_unreadable_chunk_fails_the_reference_and_the_materialized_view() {
    let dir = tmp_dir("unreadable");
    {
        let mut durable = Tsdb::open(&dir).expect("open");
        for (key, ts, v) in fleet_points() {
            durable.try_insert(&key, ts, v).expect("insert");
        }
        durable.flush().expect("flush the fleet into segments");
    }
    let db = Tsdb::open_read_only(&dir).expect("reopen read-only");
    let segment = std::fs::read_dir(&dir)
        .expect("list")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|e| e == "seg"))
        .expect("a segment");
    // The last byte of a segment is in its last chunk's payload.
    let whole = std::fs::read(&segment).expect("read segment");
    let mut flipped = whole.clone();
    *flipped.last_mut().expect("non-empty segment") ^= 0x10;
    std::fs::write(&segment, &flipped).expect("damage segment");

    let mut bound = Catalog::new();
    bound.register_tsdb("tsdb", &db);
    let query = parse_query("SELECT * FROM tsdb").expect("parses");
    for attempt in 0..2 {
        let err = execute_naive(&bound, &query).expect_err("an unreadable chunk is an error");
        assert!(matches!(err, QueryError::Storage(_)), "attempt {attempt}: {err:?}");
        let err = bound.get("tsdb").expect_err("the view fails too");
        assert!(matches!(err, QueryError::Storage(_)), "attempt {attempt}: {err:?}");
    }
    assert!(matches!(bound.execute("SELECT * FROM tsdb"), Err(QueryError::Storage(_))));

    std::fs::write(&segment, &whole).expect("repair segment");
    let rows = execute_naive(&bound, &query).expect("whole bytes read again").len();
    assert_eq!(rows, fleet_points().len());
    assert_eq!(bound.get("tsdb").expect("the view builds").len(), rows);
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
                    memory.try_insert(&key, t * 60, v).expect("insert");
                    durable.try_insert(&key, t * 60, v).expect("insert");
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
    let aggregate = parse_query(
        "SELECT tag['host'] AS h, AVG(value) AS m, COUNT(*) AS n FROM tsdb \
         WHERE metric_name = 'cpu' AND timestamp BETWEEN 60000 AND 61740 GROUP BY tag['host']",
    )
    .expect("parses");
    let out = bound.execute_query_with(&aggregate, ExecOptions::with_partitions(2)).expect("runs");
    assert_eq!(out.len(), 3, "one group per host");
    assert_eq!(db.decode_count(), 3, "only the window-2 chunk of each series was decompressed");
    let window_2 = " WHERE timestamp BETWEEN 60000 AND 61740";
    assert_eq!(family_frames(&bound, window_2, 2), oracle(window_2));
    assert_eq!(db.decode_count(), 3, "the window-2 pivot decoded no other chunk");
    for partitions in [1, 3] {
        let frames = family_frames(&bound, "", partitions);
        assert_eq!(frames, oracle(""));
        assert_eq!(frames[0].width(), 3);
        assert_eq!(frames[0].len(), 60, "db-1 gap-filled over the first window");
    }
    assert_eq!(db.decode_count(), 5, "every chunk decoded exactly once across all three runs");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `crates/tsdb/tests/storage_paging.rs::build_large_store`: 48 series over five metrics,
/// four flushes of 250 points each, so 192 chunks on disk.
fn build_large_store(dir: &Path) {
    let mut db = Tsdb::open(dir).expect("open");
    for round in 0..4i64 {
        for s in 0..48i64 {
            let key = SeriesKey::new(format!("m{}", s % 5)).with_tag("host", s.to_string());
            let points: Vec<(i64, f64)> = (0..250i64)
                .map(|t| ((round * 250 + t) * 60, ((s * 7919 + t * 31) % 1000) as f64 * 0.25))
                .collect();
            db.try_insert_batch(&key, &points).expect("insert");
        }
        db.flush().expect("flush");
    }
}

/// A session's statements share one binding (the facade's `Session` runs
/// them through such a catalog): after each of 50 statements, a `GROUP BY
/// metric_name` and a long `CREATE FAMILY` in turn, pages plus blocks stay
/// within the budget and one decoded chunk, and each answers as at first.
#[test]
fn a_session_over_a_paged_store_stays_within_its_budget() {
    let dir = tmp_dir("session-budget");
    build_large_store(&dir);
    let budget = 65_536;
    let options = StorageOptions { page_budget_bytes: Some(budget), ..StorageOptions::default() };
    let db = Tsdb::open_read_only_with(&dir, options).expect("paged reopen");
    let mut session = Catalog::new();
    session.register_tsdb("tsdb", &db);
    let aggregate =
        "SELECT metric_name, AVG(value) AS m, COUNT(*) AS n FROM tsdb GROUP BY metric_name";
    let aggregate = parse_query(aggregate).expect("parses");
    let family = "CREATE FAMILY metrics WITH (layout = 'long', family = 'metric_name') AS \
                  SELECT timestamp, metric_name, tag, value FROM tsdb";
    let Ok(Statement::CreateFamily(family)) = parse_statement(family) else { panic!("parses") };
    // One decoded chunk: the largest holds 250 points of 16 bytes.
    let (one_block, opts) = (250 * 16, ExecOptions::default());
    let (mut rows, mut frames) = (None, None);
    for statement in 0..50 {
        if statement % 2 == 0 {
            let out = session.execute_query_with(&aggregate, opts).expect("runs").rows();
            assert_eq!(&out, rows.get_or_insert_with(|| out.clone()), "statement {statement}");
        } else {
            let out = session.execute_family(&family, opts).expect("runs");
            assert_eq!(&out, frames.get_or_insert_with(|| out.clone()), "statement {statement}");
        }
        let resident = db.storage_stats().expect("stats").resident_bytes;
        assert!(resident <= budget + one_block, "statement {statement}: {resident} bytes");
    }
    assert_eq!((rows.map(|r| r.len()), frames.map(|f| f.len())), (Some(5), Some(5)));
    assert!(db.storage_stats().expect("stats").evictions > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Builds a store whose series span several chunks (one per flush round),
/// so a one-chunk budget forces paging mid-query.
fn build_store(dir: &Path) -> Tsdb {
    let mut db = Tsdb::open(dir).expect("open");
    for round in 0..4i64 {
        for (i, host) in ["web-1", "web-2", "db-1"].iter().enumerate() {
            let key = SeriesKey::new("cpu").with_tag("host", *host);
            for t in 0..30i64 {
                let ts = (round * 500 + t) * 60;
                let v = 10.0 * (i as f64 + 1.0) + ((round * 30 + t) as f64 * 0.37).sin();
                db.try_insert(&key, ts, v).expect("insert");
            }
        }
        db.flush().expect("flush round");
    }
    db
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
fn fused_family_frames(db: &Tsdb) -> Vec<Frames> {
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
    let baseline = in_memory_baseline(&resident);
    assert!(!baseline.rows().is_empty(), "family query returns rows");
    assert_all_engines_match(&resident, &baseline, "unbounded");
    let frames = fused_family_frames(&resident);
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
        assert_all_engines_match(&db, &baseline, label);
        assert_eq!(fused_family_frames(&db), frames, "{label}: family frames");
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
