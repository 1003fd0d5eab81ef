//! Crash-ordering faults injected into the durable write paths.
//!
//! Two bug classes these pin down:
//!
//! * **A failed flush changes nothing.** A segment write that fails
//!   *after* the WAL fsync used to leave the sealed chunks with no durable
//!   home if anything had truncated the log; every injection point below
//!   proves the WAL bytes survive the failed flush untouched, a reopen
//!   replays them bit-identically, and no segment file is left behind.
//!   The in-process handle is as it was too — its chunks join the sealed
//!   tiers only once the segment is durable and read back, and the heads
//!   the flush encoded decode back otherwise — so a write into the failed
//!   flush's range and the next (disarmed) flush go through like any
//!   other.
//! * **A crash mid-compaction must not double-count points.** The merged
//!   segment's `supersedes` header is what recovery trusts; killing the
//!   delete loop leaves the input files on disk and recovery must drop
//!   them, not re-count them.
//! * **A failed compaction loses nothing.** Compaction re-chunks: it pages
//!   in and decodes its inputs and writes new chunks. A failure at any
//!   segment-write step, or an input chunk that fails its checksum, is an
//!   error that leaves the WAL, the segment list and the writer's scans as
//!   they were, and a reopen holds the same points by bits. A flush that a
//!   write into a sealed range made compacting fails the same way.
//! * **A failed write leaves no orphan.** Its retry takes the same id, so
//!   the retry's rename replaces any file the failure left.

use std::collections::BTreeMap;

use explainit_tsdb::storage::chunk::encode_run;
use explainit_tsdb::storage::failpoint::{arm, disarm, Point};
use explainit_tsdb::storage::segment::{map_segment, segment_path, write_segment};
use explainit_tsdb::storage::StorageError;
use explainit_tsdb::{MetricFilter, SeriesKey, Tsdb};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("explainit-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

type Rows = Vec<(String, Vec<i64>, Vec<f64>)>;

/// Every series' full contents, canonically ordered — the bit-identity
/// observable for comparing a store against its expected state.
fn contents(db: &Tsdb) -> Rows {
    scan(db, &MetricFilter::all()).expect("a full scan")
}

/// The contents of the series `filter` matches, or the scan's error.
fn scan(db: &Tsdb, filter: &MetricFilter) -> Result<Rows, String> {
    let parts = db.scan_parts_between(filter, i64::MIN, i64::MAX).map_err(|e| e.to_string())?;
    let mut rows: BTreeMap<String, (Vec<i64>, Vec<f64>)> = BTreeMap::new();
    for part in parts {
        let row = rows.entry(part.key.canonical()).or_default();
        row.0.extend_from_slice(&part.timestamps);
        row.1.extend_from_slice(&part.values);
    }
    Ok(rows.into_iter().map(|(key, (ts, vs))| (key, ts, vs)).collect())
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

/// The `.seg` files of a store directory, by name, with their bytes.
fn segment_files(dir: &std::path::Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("read dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "seg"))
        .map(|e| {
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).expect("read"))
        })
        .collect()
}

/// The names of a store directory's segment files, `.seg` and in-flight
/// `.tmp` alike, sorted.
fn segment_names(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read dir")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("seg-"))
        .collect();
    names.sort();
    names
}

/// What a flush or a compaction commits: live segments, sealed chunks,
/// segment bytes and the freelist.
fn committed(db: &Tsdb) -> (usize, usize, u64, Vec<u64>) {
    let stats = db.storage_stats().expect("stats");
    (stats.segments, stats.chunks, stats.segment_bytes, stats.freelist)
}

/// Writes round `round` of `fleet()` into `db` and `memory`.
fn write_round(db: &mut Tsdb, memory: &mut Tsdb, round: i64) {
    for (key, ts, v) in fleet() {
        memory.try_insert(&key, ts + round * 3_000, v).expect("insert");
        db.try_insert(&key, ts + round * 3_000, v).expect("insert");
    }
}

/// A writer at `dir` and the in-memory model of it, holding `fleet()` in
/// three flushed rounds: three segments, three 50-point chunks per series
/// for compaction to re-chunk into one.
fn written_in_rounds(dir: &std::path::Path) -> (Tsdb, Tsdb) {
    let mut memory = Tsdb::new();
    let mut db = Tsdb::open(dir).expect("open");
    for round in 0..3i64 {
        write_round(&mut db, &mut memory, round);
        db.flush().expect("flush a round");
    }
    let stats = db.storage_stats().expect("stats");
    assert_eq!((stats.segments, stats.chunks), (3, 9), "three rounds of three series");
    (db, memory)
}

/// One compaction-failure scenario: fail a re-chunking compaction at
/// `point` and prove the WAL, the segment list, the segment files and the
/// writer's scans are as they were and a reopen equals the model; then the
/// disarmed retry re-chunks and a reopen still equals the model, over as
/// many segments as the writer holds. With `late`, the compaction is a
/// plain flush that an overwrite inside the first round made compacting.
fn compaction_failure_scenario(point: Point, tag: &str, late: bool) {
    let dir = tmp_dir(tag);
    let tag_str = dir.file_name().and_then(|n| n.to_str()).map(str::to_string).unwrap_or_default();
    let (mut db, mut memory) = written_in_rounds(&dir);
    if late {
        let key = SeriesKey::new("cpu").with_tag("host", "b");
        memory.try_insert(&key, 20 * 60, -1.5).expect("overwrite");
        db.try_insert(&key, 20 * 60, -1.5).expect("overwrite");
        db.sync().expect("sync");
    }
    let compact = |db: &mut Tsdb| if late { db.flush() } else { db.compact() };
    let wal_before = std::fs::read(dir.join("wal")).expect("read wal");
    let files_before = segment_files(&dir);
    let before = committed(&db);

    arm(point, &tag_str);
    let err = compact(&mut db).expect_err("armed compaction fails");
    assert!(format!("{err}").contains("failpoint"), "the injected error surfaced: {err}");
    disarm(&tag_str);
    assert_eq!(std::fs::read(dir.join("wal")).expect("read wal"), wal_before, "{point:?}");
    assert_eq!(committed(&db), before, "nothing committed ({point:?})");
    let names_before: Vec<String> = files_before.keys().cloned().collect();
    assert_eq!(segment_names(&dir), names_before, "no segment file added ({point:?})");
    assert_eq!(segment_files(&dir), files_before, "no segment file changed ({point:?})");
    assert_eq!(contents(&db), contents(&memory), "the writer's scans are unchanged");
    let reopened = Tsdb::open_read_only(&dir).expect("reopen after failed compaction");
    assert_eq!(contents(&reopened), contents(&memory), "reopen equals the model");
    drop(reopened);

    compact(&mut db).expect("disarmed retry compacts");
    assert_eq!(db.storage_stats().expect("stats").chunks, 3, "one chunk per series");
    assert_eq!(contents(&db), contents(&memory), "the re-chunked writer serves the same points");
    let segments = db.storage_stats().expect("stats").segments;
    drop(db);
    let reopened = Tsdb::open(&dir).expect("reopen after retry");
    assert_eq!(contents(&reopened), contents(&memory), "the re-chunked store is bit-identical");
    let reopened_segments = reopened.storage_stats().expect("stats").segments;
    assert_eq!(reopened_segments, segments, "no orphan segment ({point:?})");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One flush-failure scenario: ingest, sync, fail the flush at `point`,
/// prove the WAL survived byte-for-byte and the writer's committed state,
/// scans and segment files are as they were, then prove both recovery
/// paths (reopen-after-crash, and an in-process overwrite inside the
/// failed flush's range followed by a retry) land on the model. The retry
/// takes the failed attempt's id, so its rename replaces any file the
/// failure left (the removal after a failure is best effort; one is
/// planted here, with values the store never held). With `late`, the
/// ingest rewrites a flushed round, so every series unseals and the flush
/// compacts.
fn flush_failure_scenario(point: Point, tag: &str, late: bool) {
    let dir = tmp_dir(tag);
    let tag_str = dir.file_name().and_then(|n| n.to_str()).map(str::to_string).unwrap_or_default();
    let mut memory = Tsdb::new();
    let mut db = Tsdb::open(&dir).expect("open");
    if late {
        for (key, ts, v) in fleet() {
            memory.try_insert(&key, ts, -v).expect("insert");
            db.try_insert(&key, ts, -v).expect("insert");
        }
        db.flush().expect("flush the round the ingest rewrites");
    }
    for (key, ts, v) in fleet() {
        memory.try_insert(&key, ts, v).expect("insert");
        db.try_insert(&key, ts, v).expect("insert");
    }
    db.sync().expect("sync");
    let wal_before = std::fs::read(dir.join("wal")).expect("read wal");
    assert!(!wal_before.is_empty(), "committed records are in the log");
    let names_before = segment_names(&dir);
    let before = committed(&db);

    arm(point, &tag_str);
    let err = db.flush().expect_err("armed flush fails");
    assert!(format!("{err}").contains("failpoint"), "the injected error surfaced: {err}");
    // The WAL is the only guaranteed durable copy — a failed flush must
    // leave it exactly as the last sync wrote it.
    let wal_after = std::fs::read(dir.join("wal")).expect("read wal after failure");
    assert_eq!(wal_before, wal_after, "failed flush must not touch the WAL ({point:?})");
    assert_eq!(committed(&db), before, "nothing committed ({point:?})");
    assert_eq!(contents(&db), contents(&memory), "the writer's scans are unchanged ({point:?})");
    assert_eq!(segment_names(&dir), names_before, "no segment file left behind ({point:?})");

    // Crash model: a fresh process recovers the directory as-is.
    let reopened = Tsdb::open(&dir).expect("reopen after failed flush");
    assert_eq!(contents(&reopened), contents(&memory), "reopen replays bit-identically");
    drop(reopened);
    disarm(&tag_str);
    let planted = [(SeriesKey::new("cpu").with_tag("host", "a"), encode_run(&[0], &[-7.0]))];
    write_segment(&dir, u64::from(late), &[], &planted).expect("plant");

    // In-process model: the handle that saw the failure overwrites a point
    // inside the failed flush's range and retries — its heads get a
    // durable home, each key once, and the WAL truncates.
    let key = SeriesKey::new("cpu").with_tag("host", "b");
    memory.try_insert(&key, 20 * 60, -1.5).expect("overwrite");
    db.try_insert(&key, 20 * 60, -1.5).expect("overwrite");
    db.flush().expect("disarmed retry flush succeeds");
    assert_eq!(contents(&db), contents(&memory), "retrying handle serves the model");
    let wal_final = std::fs::read(dir.join("wal")).expect("read wal after retry");
    assert!(wal_final.is_empty(), "successful flush truncates the WAL");
    let segments = db.storage_stats().expect("stats").segments;
    assert_eq!(segments, 1, "one segment holds the store ({point:?})");
    let retry = map_segment(&segment_path(&dir, u64::from(late))).expect("the failed id");
    let shape = (retry.series.len(), retry.supersedes.len());
    assert_eq!(shape, (3, usize::from(late)), "the retry replaced the planted file ({point:?})");
    drop(db);
    let final_open = Tsdb::open(&dir).expect("reopen after retry");
    assert_eq!(contents(&final_open), contents(&memory), "post-retry store is bit-identical");
    let reopened_segments = final_open.storage_stats().expect("stats").segments;
    assert_eq!(reopened_segments, segments, "no orphan segment ({point:?})");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flush_failure_before_segment_create_keeps_wal() {
    flush_failure_scenario(Point::SegmentCreate, "seg-create", false);
    flush_failure_scenario(Point::SegmentCreate, "late-seg-create", true);
}

#[test]
fn flush_failure_after_segment_write_keeps_wal() {
    flush_failure_scenario(Point::SegmentWrite, "seg-write", false);
    flush_failure_scenario(Point::SegmentWrite, "late-seg-write", true);
}

#[test]
fn flush_failure_after_segment_sync_keeps_wal() {
    flush_failure_scenario(Point::SegmentSync, "seg-sync", false);
    flush_failure_scenario(Point::SegmentSync, "late-seg-sync", true);
}

#[test]
fn flush_failure_after_segment_rename_keeps_wal() {
    flush_failure_scenario(Point::SegmentRename, "seg-rename", false);
    flush_failure_scenario(Point::SegmentRename, "late-seg-rename", true);
}

#[test]
fn flush_failure_after_dir_sync_keeps_wal() {
    flush_failure_scenario(Point::SegmentDirSync, "seg-dirsync", false);
    flush_failure_scenario(Point::SegmentDirSync, "late-seg-dirsync", true);
}

#[test]
fn compaction_failure_before_segment_create_keeps_the_store() {
    compaction_failure_scenario(Point::SegmentCreate, "compact-create", false);
    compaction_failure_scenario(Point::SegmentCreate, "late-compact-create", true);
}

#[test]
fn compaction_failure_after_segment_write_keeps_the_store() {
    compaction_failure_scenario(Point::SegmentWrite, "compact-write", false);
    compaction_failure_scenario(Point::SegmentWrite, "late-compact-write", true);
}

#[test]
fn compaction_failure_after_segment_sync_keeps_the_store() {
    compaction_failure_scenario(Point::SegmentSync, "compact-sync", false);
    compaction_failure_scenario(Point::SegmentSync, "late-compact-sync", true);
}

#[test]
fn compaction_failure_after_segment_rename_keeps_the_store() {
    compaction_failure_scenario(Point::SegmentRename, "compact-rename", false);
    compaction_failure_scenario(Point::SegmentRename, "late-compact-rename", true);
}

#[test]
fn compaction_failure_after_dir_sync_keeps_the_store() {
    compaction_failure_scenario(Point::SegmentDirSync, "compact-dirsync", false);
    compaction_failure_scenario(Point::SegmentDirSync, "late-compact-dirsync", true);
}

/// Flips the last byte of the first segment of `dir` — the payload of host
/// c's chunk of the first round — and returns the file and its clean bytes.
fn flip_first_round(dir: &std::path::Path) -> (std::path::PathBuf, Vec<u8>) {
    let files = segment_files(dir);
    let (first, clean) = files.into_iter().next().expect("a segment");
    let path = dir.join(first);
    let mut flipped = clean.clone();
    *flipped.last_mut().expect("payload") ^= 0x10;
    std::fs::write(&path, &flipped).expect("flip a payload byte");
    (path, clean)
}

/// A payload byte flipped under a writer fails its compaction with
/// `Corrupt` before anything is written: the WAL, the segment list and the
/// files stay, and the writer's scans are what they were — the damaged
/// chunk an error, every other series the model's points. A compaction
/// with heads to write fails too, but they come after every sealed range,
/// so they first make a segment of their own: the WAL truncates and later
/// flushes go on. A late write's head overlaps the segments it came from
/// and only a compacting write can hold it, so every flush then fails and
/// changes nothing until the chunk reads again (or retention expires its
/// segment: a flush reads no expired chunk). With the byte restored the
/// compaction goes through and loses nothing.
#[test]
fn a_flipped_payload_byte_fails_compaction_before_anything_is_written() {
    let dir = tmp_dir("compact-flip");
    let (db, mut memory) = written_in_rounds(&dir);
    drop(db);
    let mut db = Tsdb::open(&dir).expect("reopen: every chunk cold");
    let (path, clean) = flip_first_round(&dir);
    let files = segment_files(&dir);
    let wal_before = std::fs::read(dir.join("wal")).expect("read wal");
    let before = committed(&db);
    let all = MetricFilter::all();
    let host = |h: &str| MetricFilter::name("cpu").with_tag("host", h);
    let intact = |db: &Tsdb, memory: &Tsdb| {
        for h in ["a", "b"] {
            assert_eq!(scan(db, &host(h)), scan(memory, &host(h)), "host {h} is the model's");
        }
    };
    let scan_before = scan(&db, &all).expect_err("the damaged chunk fails a full scan");

    let err = db.compact().expect_err("a damaged input fails the compaction");
    assert!(matches!(err, StorageError::Corrupt { .. }), "typed: {err}");
    assert!(err.to_string().contains("checksum mismatch"), "{err}");
    assert_eq!(std::fs::read(dir.join("wal")).expect("read wal"), wal_before);
    assert_eq!(committed(&db), before, "nothing committed");
    assert_eq!(segment_files(&dir), files, "no segment written or deleted");
    assert_eq!(scan(&db, &all), Err(scan_before), "the writer's scans are unchanged");
    intact(&db, &memory);
    assert!(scan(&db, &host("c")).is_err(), "host c holds the damaged chunk");

    write_round(&mut db, &mut memory, 3);
    let err = db.compact().expect_err("a compaction with heads fails too");
    assert!(matches!(err, StorageError::Corrupt { .. }), "typed: {err}");
    assert!(std::fs::read(dir.join("wal")).expect("read wal").is_empty(), "the heads are durable");
    assert_eq!(db.storage_stats().expect("stats").segments, 4, "in a segment of their own");
    intact(&Tsdb::open_read_only(&dir).expect("read-only reopen"), &memory);
    write_round(&mut db, &mut memory, 4);
    db.flush().expect("a flush below the threshold goes on");
    let key = SeriesKey::new("cpu").with_tag("host", "b");
    memory.try_insert(&key, 20 * 60, -1.5).expect("overwrite");
    db.try_insert(&key, 20 * 60, -1.5).expect("overwrite");
    db.sync().expect("sync");
    let wal_before = std::fs::read(dir.join("wal")).expect("read wal");
    let (files, before) = (segment_files(&dir), committed(&db));
    for attempt in 0..2 {
        let err = db.flush().expect_err("a late write's flush cannot read its input");
        assert!(matches!(err, StorageError::Corrupt { .. }), "attempt {attempt}: {err}");
        assert_eq!(std::fs::read(dir.join("wal")).expect("read wal"), wal_before);
        assert_eq!((committed(&db), segment_files(&dir)), (before.clone(), files.clone()));
        intact(&db, &memory);
    }

    std::fs::write(&path, clean).expect("restore the byte");
    db.compact().expect("compaction over intact inputs");
    assert_eq!(db.storage_stats().expect("stats").chunks, 3, "one chunk per series");
    assert_eq!(contents(&db), contents(&memory));
    drop(db);
    let reopened = Tsdb::open(&dir).expect("reopen after compaction");
    assert_eq!(contents(&reopened), contents(&memory), "the re-chunked store is bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
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

    // The in-process handle already committed the merged view, its two
    // 50-point rounds re-chunked into one chunk per series: scans keep
    // working and nothing is counted twice.
    let stats = db.storage_stats().expect("stats");
    assert_eq!((stats.segments, stats.chunks), (1, 3), "the merged segment committed");
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

/// A WAL write that fails part-way — a full disk mid-write — refuses its
/// batch and leaves no torn frame: the file is cut back to its last whole
/// frame, and the frames before the refused one stay buffered. A batch
/// larger than the WAL's write buffer is written as it is appended, so its
/// frame is the one the failure tears. Were the torn bytes left, replay
/// would stop at them and drop every record synced after them.
#[test]
fn a_failed_wal_write_hides_no_later_record() {
    let dir = tmp_dir("wal-torn");
    let tag_str = dir.file_name().and_then(|n| n.to_str()).map(str::to_string).unwrap_or_default();
    let wal_len = || std::fs::metadata(dir.join("wal")).expect("stat wal").len();
    let batch = |n: i64, sign: f64| (0..n).map(|t| (t * 60, sign * t as f64)).collect::<Vec<_>>();
    let key = |host: &str| SeriesKey::new("cpu").with_tag("host", host);
    let mut memory = Tsdb::new();
    let mut db = Tsdb::open(&dir).expect("open");
    let insert = |db: &mut Tsdb, memory: &mut Tsdb, host: &str, points: &[(i64, f64)]| {
        memory.try_insert_batch(&key(host), points).expect("insert");
        db.try_insert_batch(&key(host), points)
    };
    insert(&mut db, &mut memory, "a", &batch(50, 1.0)).expect("append A");
    db.sync().expect("sync A");
    let synced = wal_len();
    insert(&mut db, &mut memory, "a2", &batch(20, 2.0)).expect("append A2, buffered");
    let committed = db.storage_stats().expect("stats").wal_bytes;

    arm(Point::WalWrite, &tag_str);
    let big = batch(8192, -1.0);
    let err = db.try_insert_batch(&key("b"), &big).expect_err("the torn write refuses B");
    disarm(&tag_str);
    assert!(format!("{err}").contains("failpoint"), "the injected error surfaced: {err}");
    assert_eq!(wal_len(), synced, "the torn bytes are cut back to the last whole frame");
    assert_eq!(db.storage_stats().expect("stats").wal_bytes, committed, "A2 stays committed");
    assert_eq!(contents(&db), contents(&memory), "B is not applied");

    insert(&mut db, &mut memory, "c", &batch(30, 3.0)).expect("append C");
    db.sync().expect("sync C");
    let stats = db.storage_stats().expect("stats");
    assert_eq!(wal_len(), stats.wal_bytes, "the log holds whole frames only");
    let expected = contents(&memory);
    assert_eq!(expected.len(), 3, "A, A2 and C");
    let reader = Tsdb::open_read_only(&dir).expect("read-only open");
    assert_eq!(contents(&reader), expected, "a reader replays A, A2 and C");
    drop((reader, db));
    let reopened = Tsdb::open(&dir).expect("writable reopen");
    assert_eq!(contents(&reopened), expected, "a writer replays A, A2 and C");
    assert_eq!(wal_len(), stats.wal_bytes, "the reopen truncated nothing");
    let _ = std::fs::remove_dir_all(&dir);
}
