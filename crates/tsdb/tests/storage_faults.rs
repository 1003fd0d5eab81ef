//! Crash-ordering faults injected into the durable write paths.
//!
//! Two bug classes these pin down:
//!
//! * **Flush failure must not truncate the WAL.** A segment write that
//!   fails *after* the WAL fsync used to leave the sealed chunks with no
//!   durable home if anything had truncated the log; every injection
//!   point below proves the WAL bytes survive the failed flush untouched
//!   and a reopen replays them bit-identically. The in-process handle
//!   recovers too: the sealed-but-unwritten chunks are parked and the
//!   next (disarmed) flush writes them.
//! * **A crash mid-compaction must not double-count points.** The merged
//!   segment's `supersedes` header is what recovery trusts; killing the
//!   delete loop leaves the input files on disk and recovery must drop
//!   them, not re-count them.

use std::collections::BTreeMap;

use explainit_tsdb::storage::failpoint::{arm, disarm, Point};
use explainit_tsdb::{MetricFilter, SeriesKey, Tsdb};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("explainit-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every series' full contents, canonically ordered — the bit-identity
/// observable for comparing a store against its expected state.
fn contents(db: &Tsdb) -> Vec<(String, Vec<i64>, Vec<f64>)> {
    let Some(range) = db.time_span() else { return Vec::new() };
    let mut rows: BTreeMap<String, (Vec<i64>, Vec<f64>)> = BTreeMap::new();
    for part in db.scan_parts(&MetricFilter::all(), &range) {
        let row = rows.entry(part.key.canonical()).or_default();
        row.0.extend_from_slice(&part.timestamps);
        row.1.extend_from_slice(&part.values);
    }
    rows.into_iter().map(|(key, (ts, vs))| (key, ts, vs)).collect()
}

fn fleet() -> Vec<(SeriesKey, i64, f64)> {
    let mut points = Vec::new();
    for host in ["a", "b", "c"] {
        let key = SeriesKey::new("cpu").with_tag("host", host);
        for t in 0..50i64 {
            points.push((key.clone(), t * 60, t as f64 + 0.25));
        }
    }
    points
}

/// One flush-failure scenario: ingest, sync, fail the flush at `point`,
/// prove the WAL survived byte-for-byte, then prove both recovery paths
/// (reopen-after-crash and in-process retry) land on the same contents.
fn flush_failure_scenario(point: Point, tag: &str) {
    let dir = tmp_dir(tag);
    let tag_str = dir.file_name().and_then(|n| n.to_str()).map(str::to_string).unwrap_or_default();
    let mut memory = Tsdb::new();
    let mut db = Tsdb::open(&dir).expect("open");
    for (key, ts, v) in fleet() {
        memory.try_insert(&key, ts, v).expect("insert");
        db.try_insert(&key, ts, v).expect("insert");
    }
    db.sync().expect("sync");
    let wal_before = std::fs::read(dir.join("wal")).expect("read wal");
    assert!(!wal_before.is_empty(), "committed records are in the log");

    arm(point, &tag_str);
    let err = db.flush().expect_err("armed flush fails");
    assert!(format!("{err}").contains("failpoint"), "the injected error surfaced: {err}");
    // The WAL is the only guaranteed durable copy — a failed flush must
    // leave it exactly as the last sync wrote it.
    let wal_after = std::fs::read(dir.join("wal")).expect("read wal after failure");
    assert_eq!(wal_before, wal_after, "failed flush must not touch the WAL ({point:?})");

    // Crash model: a fresh process recovers the directory as-is.
    let reopened = Tsdb::open(&dir).expect("reopen after failed flush");
    assert_eq!(contents(&reopened), contents(&memory), "reopen replays bit-identically");
    drop(reopened);
    disarm(&tag_str);

    // In-process model: the handle that saw the failure retries — the
    // sealed chunks it parked get a durable home and the WAL truncates.
    db.flush().expect("disarmed retry flush succeeds");
    assert_eq!(contents(&db), contents(&memory), "retrying handle serves the same contents");
    let wal_final = std::fs::read(dir.join("wal")).expect("read wal after retry");
    assert!(wal_final.is_empty(), "successful flush truncates the WAL");
    drop(db);
    let final_open = Tsdb::open(&dir).expect("reopen after retry");
    assert_eq!(contents(&final_open), contents(&memory), "post-retry store is bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flush_failure_before_segment_create_keeps_wal() {
    flush_failure_scenario(Point::SegmentCreate, "seg-create");
}

#[test]
fn flush_failure_after_segment_write_keeps_wal() {
    flush_failure_scenario(Point::SegmentWrite, "seg-write");
}

#[test]
fn flush_failure_after_segment_sync_keeps_wal() {
    flush_failure_scenario(Point::SegmentSync, "seg-sync");
}

#[test]
fn flush_failure_after_segment_rename_keeps_wal() {
    flush_failure_scenario(Point::SegmentRename, "seg-rename");
}

#[test]
fn flush_failure_after_dir_sync_keeps_wal() {
    flush_failure_scenario(Point::SegmentDirSync, "seg-dirsync");
}

#[test]
fn crash_mid_compaction_does_not_double_count_points() {
    let dir = tmp_dir("compact-kill");
    let tag_str = dir.file_name().and_then(|n| n.to_str()).map(str::to_string).unwrap_or_default();
    let mut memory = Tsdb::new();
    let mut db = Tsdb::open(&dir).expect("open");
    // Two flushes -> two segments, so compaction has real inputs.
    for (key, ts, v) in fleet() {
        memory.try_insert(&key, ts, v).expect("insert");
        db.try_insert(&key, ts, v).expect("insert");
    }
    db.flush().expect("flush window 1");
    for host in ["a", "b", "c"] {
        let key = SeriesKey::new("cpu").with_tag("host", host);
        for t in 1000..1050i64 {
            memory.try_insert(&key, t * 60, t as f64).expect("insert");
            db.try_insert(&key, t * 60, t as f64).expect("insert");
        }
    }
    db.flush().expect("flush window 2");
    assert!(db.storage_stats().expect("stats").segments >= 2, "multiple segments to merge");
    let expected_points = memory.point_count();

    // Kill the delete loop: the merged segment is durable, every input
    // file still exists — the on-disk state a crash would leave.
    arm(Point::CompactDelete, &tag_str);
    let err = db.compact().expect_err("killed compaction reports failure");
    assert!(format!("{err}").contains("failpoint"), "the injected error surfaced: {err}");
    let leftover_segments = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "seg"))
        .count();
    assert!(leftover_segments > 1, "superseded inputs survive the simulated crash");
    disarm(&tag_str);

    // The in-process handle already committed the merged view: scans keep
    // working and nothing is counted twice.
    assert_eq!(db.point_count(), expected_points, "in-process view unaffected");
    assert_eq!(contents(&db), contents(&memory), "in-process contents identical");
    drop(db);

    // Recovery trusts the merged segment's `supersedes` header: the
    // leftover inputs are dropped (and their files cleaned), never
    // re-counted.
    let reopened = Tsdb::open(&dir).expect("reopen after killed compaction");
    assert_eq!(reopened.point_count(), expected_points, "no double-counted points");
    assert_eq!(contents(&reopened), contents(&memory), "contents identical after recovery");
    let remaining = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "seg"))
        .count();
    assert_eq!(remaining, 1, "recovery cleaned the superseded leftovers");
    let _ = std::fs::remove_dir_all(&dir);
}
