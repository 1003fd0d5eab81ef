//! Out-of-core behaviour of a reopened store: demand paging, the memory
//! budget with eviction of pages and decoded blocks, read-only opens, and
//! retention.

use std::collections::BTreeMap;
use std::path::Path;

use explainit_tsdb::storage::{AUTO_COMPACT_SEGMENTS, CHUNK_MAX_POINTS};
use explainit_tsdb::{
    MetricFilter, Series, SeriesKey, SeriesSlice, StorageError, StorageOptions, Tsdb,
};
use proptest::prelude::*;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("explainit-paging-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Each series' points in canonical key order.
type Rows = Vec<(String, Vec<i64>, Vec<f64>)>;

fn contents(db: &Tsdb) -> Rows {
    let Some(range) = db.time_span() else { return Vec::new() };
    rows_of(&db.scan_parts(&MetricFilter::all(), &range))
}

/// A scan's points, series by series in canonical key order.
fn rows_of(parts: &[SeriesSlice<'_>]) -> Rows {
    let mut rows: BTreeMap<String, (Vec<i64>, Vec<f64>)> = BTreeMap::new();
    for part in parts {
        let row = rows.entry(part.key.canonical()).or_default();
        row.0.extend_from_slice(&part.timestamps);
        row.1.extend_from_slice(&part.values);
    }
    rows.into_iter().map(|(key, (ts, vs))| (key, ts, vs)).collect()
}

/// Builds a flushed multi-chunk store and returns its expected contents.
fn build_store(dir: &Path) -> Rows {
    let mut db = Tsdb::open(dir).expect("open");
    // Three flush rounds -> three chunks per series on disk.
    for round in 0..3i64 {
        for host in ["a", "b", "c"] {
            let key = SeriesKey::new("cpu").with_tag("host", host);
            for t in 0..40i64 {
                let ts = (round * 1000 + t) * 60;
                db.try_insert(&key, ts, (round * 40 + t) as f64 + 0.5).expect("insert");
            }
        }
        db.flush().expect("flush");
    }
    contents(&db)
}

/// A store whose full scan holds more undecoded points (48,000 in 192
/// chunks) than the scan decodes one by one, so its chunks fault, verify
/// and decode on the worker pool. Returns the expected contents.
fn build_large_store(dir: &Path) -> Rows {
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
    contents(&db)
}

/// The decoded size of a `build_large_store` chunk: 250 points of 16 bytes.
const ONE_BLOCK: u64 = 250 * 16;

/// The store's chunk count and mean compressed chunk size.
fn chunk_sizes(dir: &Path) -> (u64, u64) {
    let stats = Tsdb::open_read_only(dir).expect("reopen").storage_stats().expect("stats");
    (stats.chunks as u64, stats.segment_bytes.div_ceil(stats.chunks as u64))
}

fn open_paged(dir: &Path, page_budget_bytes: Option<u64>) -> Tsdb {
    let options = StorageOptions { page_budget_bytes, ..StorageOptions::default() };
    Tsdb::open_read_only_with(dir, options).expect("paged reopen")
}

/// A cold open holds only the chunk directory; a scan at any budget then
/// returns the points with one fault and one decode per chunk, and a
/// second scan returns them again. The small store decodes on the caller,
/// the large one on the worker pool. Unbounded, the store opens as the
/// writer, whose recovery must fault and decode nothing either.
#[test]
fn scans_under_any_budget_return_the_points_with_one_fault_and_decode_per_chunk() {
    let stores =
        [("serial", build_store as fn(&Path) -> Rows, 9), ("pooled", build_large_store, 192)];
    for (tag, build, chunks) in stores {
        let dir = tmp_dir(tag);
        let expected = build(&dir);
        let (counted, chunk_bytes) = chunk_sizes(&dir);
        assert_eq!(counted, chunks, "{tag}: the chunk directory is fully known");
        for budget in [None, Some(0), Some(chunks * chunk_bytes / 8), Some(chunk_bytes)] {
            let db = match budget {
                None => Tsdb::open(&dir).expect("writer reopen"),
                Some(_) => open_paged(&dir, budget),
            };
            let stats = db.storage_stats().expect("stats");
            assert_eq!((stats.resident_bytes, stats.page_faults, db.decode_count()), (0, 0, 0));
            assert_eq!(contents(&db), expected, "{tag} {budget:?}");
            let stats = db.storage_stats().expect("stats");
            assert_eq!(stats.page_faults, chunks, "{tag} {budget:?}: one fault per chunk");
            assert_eq!(db.decode_count(), chunks, "{tag} {budget:?}: one decode per chunk");
            assert_eq!(stats.evictions > 0, budget.is_some(), "{tag} {budget:?}: {stats:?}");
            // Pages are charged from before a pooled wave's buffers exist,
            // after the clock made room for them, and the clock evicts
            // right after each serial fault: the peak overshoots by about
            // one chunk (twice the mean for uneven sizes). A wave of a full
            // budget next to a full budget of resident pages would reach
            // twice the 1/8 budget.
            let peak = stats.peak_resident_chunk_bytes;
            assert!(budget.is_none_or(|b| peak <= b + 2 * chunk_bytes), "{tag} {budget:?}: {peak}");
            assert_eq!(contents(&db), expected, "{tag} {budget:?}: the second scan");
            let stats = db.storage_stats().expect("stats");
            match budget {
                // Unbounded, pages and blocks stay: a second scan decodes nothing.
                None => {
                    assert_eq!(db.decode_count(), chunks, "{tag}: rescans hit the blocks");
                    assert!(stats.resident_chunk_bytes > 0, "{tag}: pages stay resident");
                }
                Some(b) => {
                    let resident = stats.resident_bytes;
                    assert!(resident <= b + ONE_BLOCK, "{tag} {b}: {resident} bytes resident");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn clones_taken_at_open_share_one_decode() {
    let dir = tmp_dir("clones");
    let expected = build_large_store(&dir);
    let db = Tsdb::open_read_only(&dir).expect("reopen");
    let (a, b) = (db.clone(), db.clone());
    for (scanned, handle) in [("clone A", &a), ("clone B", &b), ("the store", &db)] {
        assert_eq!(contents(handle), expected, "{scanned}");
        assert_eq!(db.decode_count(), 192, "{scanned}: every chunk decoded once in all");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_scan_outlives_the_eviction_of_its_blocks() {
    let dir = tmp_dir("outlives");
    let expected = build_large_store(&dir);
    let (_, one_chunk) = chunk_sizes(&dir);
    let db = open_paged(&dir, Some(one_chunk));
    let held = db.scan_parts_between(&MetricFilter::name("m0"), i64::MIN, i64::MAX);
    let held = held.expect("scan m0");
    // A full scan, pooled: every block it takes in pushes older ones out.
    assert_eq!(contents(&db), expected);
    let stats = db.storage_stats().expect("stats");
    assert!(stats.resident_bytes <= one_chunk + ONE_BLOCK, "m0's blocks are gone: {stats:?}");
    let m0: Rows = expected.into_iter().filter(|(k, _, _)| k.starts_with("m0{")).collect();
    assert_eq!(rows_of(&held), m0, "the held slices read their evicted blocks");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pooled_decode_fails_the_scan_on_a_damaged_chunk() {
    let dir = tmp_dir("pooled-damage");
    build_large_store(&dir);
    let db = Tsdb::open_read_only(&dir).expect("reopen");
    // The last byte of the newest segment: the payload of its last chunk.
    let segment = (0..)
        .map(|id| dir.join(format!("seg-{id:08}.seg")))
        .take_while(|p| p.exists())
        .last()
        .expect("a segment");
    let mut bytes = std::fs::read(&segment).expect("read");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&segment, &bytes).expect("flip");
    let err = db
        .scan_parts_between(&MetricFilter::all(), i64::MIN, i64::MAX)
        .expect_err("a damaged chunk fails the scan");
    assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    assert!(err.to_string().contains("chunk checksum mismatch"), "{err}");
    let range = db.time_span().expect("data");
    assert!(db.scan_parts(&MetricFilter::all(), &range).is_empty(), "no partial scan");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whole-series reads go through the chunks' decoded blocks — the tier
/// the budget covers together with the pages. (A second, unaccounted
/// whole-series copy used to leak here.)
#[test]
fn decode_caches_are_accounted_and_evictable() {
    let dir = tmp_dir("decode-caches");
    build_store(&dir);
    let budget = 1024u64;
    let options = StorageOptions { page_budget_bytes: Some(budget), ..StorageOptions::default() };
    let mut db = Tsdb::open_with(&dir, options).expect("reopen");

    // A whole-store scan decodes way past the budget; the clock evicts
    // blocks as it goes, with nothing called once the scan's parts drop.
    let range = db.time_span().expect("data");
    let scanned = |db: &Tsdb| -> usize {
        db.scan_parts(&MetricFilter::all(), &range).iter().map(|p| p.timestamps.len()).sum()
    };
    let total = scanned(&db);
    assert_eq!(total, 360);
    assert_eq!(db.iter().map(|(_, s)| s.points().count()).sum::<usize>(), total);
    let stats = db.storage_stats().expect("stats");
    // One decoded chunk: 40 points of 16 bytes.
    assert!(
        stats.resident_bytes <= budget + 40 * 16,
        "resident bytes {} stay within the {budget}-byte budget and one block",
        stats.resident_bytes
    );
    assert!(stats.resident_bytes > stats.resident_chunk_bytes, "blocks count: {stats:?}");
    assert!(stats.evictions > 0, "block drops are visible in the counters");

    // The store still serves the same data afterwards (re-faulting and
    // re-decoding as needed).
    assert_eq!(scanned(&db), total);

    // A flush's chunks start Paged in the segment it wrote, about 90
    // bytes a chunk, and the clock makes room for them at once.
    for host in 0..8i64 {
        let key = SeriesKey::new("mem").with_tag("host", host.to_string());
        let points: Vec<_> = (0..40).map(|t| (t * 60, (t * t * host) as f64 + 0.25)).collect();
        db.try_insert_batch(&key, &points).expect("insert");
    }
    db.flush().expect("flush");
    let stats = db.storage_stats().expect("stats");
    assert!(stats.resident_bytes <= budget, "the flush's pages fit: {stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A writer's flushed chunks are pages of the segment it wrote, which the
/// clock evicts like any other, so under a page budget a store written in
/// rounds stays within it after every flush. Compaction re-chunks the
/// rounds into the merged segment's pages: the budget holds after it too,
/// before and after a full scan of the same points.
#[test]
fn a_writer_stays_within_its_page_budget_through_flushes_and_compaction() {
    let dir = tmp_dir("compact-budget");
    let budget = 64 << 10;
    let options = StorageOptions { page_budget_bytes: Some(budget), ..StorageOptions::default() };
    let mut db = Tsdb::open_with(&dir, options).expect("open");
    for round in 0..6i64 {
        for s in 0..48i64 {
            let key = SeriesKey::new(format!("m{}", s % 5)).with_tag("host", s.to_string());
            let points: Vec<(i64, f64)> = (0..250i64)
                .map(|t| ((round * 250 + t) * 60, ((s * 7919 + t * 31) % 1000) as f64 * 0.25))
                .collect();
            db.try_insert_batch(&key, &points).expect("insert");
        }
        db.flush().expect("flush a round");
        let stats = db.storage_stats().expect("stats");
        assert!(stats.resident_bytes <= budget, "after round {round}'s flush: {stats:?}");
    }
    let expected = contents(&db);
    let stats = db.storage_stats().expect("stats");
    assert_eq!(stats.chunks, 6 * 48);

    db.compact().expect("compact");
    // One decoded chunk: at most CHUNK_MAX_POINTS points of 16 bytes.
    let one_block = CHUNK_MAX_POINTS as u64 * 16;
    let stats = db.storage_stats().expect("stats");
    assert_eq!(stats.chunks, 48, "six 250-point rounds re-chunk into one chunk a series");
    assert!(stats.resident_bytes <= budget + one_block, "after the compaction: {stats:?}");
    assert_eq!(contents(&db), expected, "the re-chunked writer scans the same points");
    let stats = db.storage_stats().expect("stats");
    assert!(stats.resident_bytes <= budget + one_block, "after a full scan: {stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One read path: on a reopened store, at any budget, `Series::points`
    /// ≡ the series' ordered scan slices end to end ≡ what was inserted
    /// (sealed chunks from several flushes plus a WAL-replayed head).
    #[test]
    fn points_equal_ordered_scan_slices_equal_inserted(
        fleet in proptest::collection::vec(
            proptest::collection::btree_map(any::<i64>(), any::<u64>(), 1..60),
            1..4,
        ),
        flush_every in 1usize..40,
    ) {
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = tmp_dir(&format!("one-read-path-{case}"));
        let key = |i: usize| SeriesKey::new("m").with_tag("host", i.to_string());
        let one_chunk = {
            let mut db = Tsdb::open(&dir).expect("open");
            let mut inserted = 0usize;
            for (i, points) in fleet.iter().enumerate() {
                for (&ts, &bits) in points {
                    db.try_insert(&key(i), ts, f64::from_bits(bits)).expect("insert");
                    inserted += 1;
                    if inserted.is_multiple_of(flush_every) {
                        db.flush().expect("flush");
                    }
                }
            }
            db.sync().expect("sync");
            let stats = db.storage_stats().expect("stats");
            stats.segment_bytes.div_ceil(stats.chunks.max(1) as u64)
        };
        for budget in [Some(0), Some(one_chunk), None] {
            let options = StorageOptions { page_budget_bytes: budget, ..StorageOptions::default() };
            let db = Tsdb::open_read_only_with(&dir, options).expect("reopen");
            for (i, points) in fleet.iter().enumerate() {
                let inserted: Vec<(i64, u64)> = points.iter().map(|(&ts, &bits)| (ts, bits)).collect();
                let walked: Vec<(i64, u64)> = db
                    .get(&key(i))
                    .expect("series")
                    .points()
                    .map(|p| (p.ts, p.value.to_bits()))
                    .collect();
                let filter = MetricFilter::all().with_tag("host", i.to_string());
                let scanned: Vec<(i64, u64)> = db
                    .scan_parts_ordered_between(&filter, i64::MIN, i64::MAX)
                    .expect("scan")
                    .iter()
                    .flat_map(|p| p.timestamps.iter().copied().zip(p.values.iter().map(|v| v.to_bits())))
                    .collect();
                prop_assert_eq!(&walked, &inserted, "budget {:?}: points()", budget);
                prop_assert_eq!(&scanned, &inserted, "budget {:?}: scan slices", budget);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn read_only_handles_coexist_and_never_touch_the_store() {
    let dir = tmp_dir("read-only");
    let expected = build_store(&dir);
    // Leave committed-but-unflushed records in the WAL: read-only opens
    // must replay them without truncating anything.
    {
        let mut writer = Tsdb::open(&dir).expect("writer");
        writer.try_insert(&SeriesKey::new("late"), 0, 9.0).expect("insert");
        writer.sync().expect("sync");
    }
    let wal_before = std::fs::read(dir.join("wal")).expect("read wal");
    assert!(!wal_before.is_empty());

    let mut ro1 = Tsdb::open_read_only(&dir).expect("first read-only open");
    let ro2 = Tsdb::open_read_only(&dir).expect("second concurrent read-only open");
    assert!(ro1.is_read_only() && ro2.is_read_only());
    for ro in [&ro1, &ro2] {
        assert_eq!(ro.get(&SeriesKey::new("late")).map(|s| s.len()), Some(1), "WAL replayed");
        let mut rows = contents(ro);
        rows.retain(|(k, _, _)| !k.starts_with("late"));
        assert_eq!(rows, expected, "read-only view serves the flushed fleet");
    }

    // Every mutating surface refuses, and a refused point reaches neither
    // the log nor the in-memory view: a scan returns what the open found.
    let opened = contents(&ro1);
    let err = ro1.try_insert(&SeriesKey::new("x"), 0, 1.0).expect_err("insert refused");
    assert!(matches!(err, StorageError::ReadOnly), "{err}");
    let err = ro1.try_insert(&SeriesKey::new("late"), 120, 3.0).expect_err("insert refused");
    assert!(matches!(err, StorageError::ReadOnly), "{err}");
    assert!(matches!(ro1.sync().expect_err("sync refused"), StorageError::ReadOnly));
    assert!(matches!(ro1.flush().expect_err("flush refused"), StorageError::ReadOnly));
    assert!(matches!(ro1.compact().expect_err("compact refused"), StorageError::ReadOnly));
    assert_eq!(contents(&ro1), opened, "the refused points are nowhere");

    // And the log's bytes never moved.
    let wal_after = std::fs::read(dir.join("wal")).expect("read wal after");
    assert_eq!(wal_before, wal_after, "read-only opens left the WAL untouched");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retention_drops_expired_segments_at_flush_without_decoding() {
    let dir = tmp_dir("retention-flush");
    let options = StorageOptions { retention: Some(10_000), ..StorageOptions::default() };
    let mut db = Tsdb::open_with(&dir, options).expect("open");
    let key = SeriesKey::new("m");
    for t in 0..50i64 {
        db.try_insert(&key, t * 60, t as f64).expect("insert");
    }
    db.flush().expect("flush old window");
    assert_eq!(db.storage_stats().expect("stats").segments, 1);

    // A new window far past the retention horizon: the flush that makes
    // it durable also expires the old segment — whole file, no decode.
    for t in 1000..1050i64 {
        db.try_insert(&key, t * 60, t as f64).expect("insert");
    }
    db.flush().expect("flush new window");
    let stats = db.storage_stats().expect("stats");
    assert_eq!(stats.segments, 1, "expired segment dropped at flush");
    assert_eq!(db.decode_count(), 0, "retention never decoded a chunk");
    assert_eq!(db.point_count(), 50, "only the new window's points remain");
    assert_eq!(db.get(&key).map(|s| s.timestamps().first().copied()), Some(Some(60_000)));

    // Reopen agrees: the file is gone, not merely hidden.
    drop(db);
    let reopened = Tsdb::open(&dir).expect("reopen");
    assert_eq!(reopened.point_count(), 50);
    assert_eq!(reopened.storage_stats().expect("stats").segments, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The chunks of a re-chunking compaction are not the chunks the writer
/// sealed, so the writer's tier is rebuilt from the merged segment: when
/// retention expires that segment, its chunks leave memory with its file.
#[test]
fn retention_after_a_rechunking_compaction_keeps_memory_and_disk_one_view() {
    let dir = tmp_dir("retention-compact");
    let options = StorageOptions { retention: Some(10_000), ..StorageOptions::default() };
    let mut db = Tsdb::open_with(&dir, options).expect("open");
    let key = SeriesKey::new("m");
    for round in 0..3i64 {
        for t in 0..20i64 {
            db.try_insert(&key, (round * 20 + t) * 60, t as f64).expect("insert");
        }
        db.flush().expect("flush a round");
    }
    db.compact().expect("compact");
    assert_eq!(db.storage_stats().expect("stats").chunks, 1, "three rounds in one chunk");

    for t in 1000..1050i64 {
        db.try_insert(&key, t * 60, t as f64).expect("insert");
    }
    db.flush().expect("flush past the horizon");
    let stats = db.storage_stats().expect("stats");
    assert_eq!((stats.segments, stats.chunks), (1, 1), "the merged segment expired");
    assert_eq!(db.point_count(), 50, "and its points left memory");
    let expected = contents(&db);
    drop(db);
    let reopened = Tsdb::open(&dir).expect("reopen");
    assert_eq!(contents(&reopened), expected, "memory and disk are one view");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An overwrite inside a flushed window unseals it, and the next flush
/// compacts: one segment holds the rewritten window and supersedes the one
/// it rewrote. When retention expires that segment, its chunk leaves
/// memory with its file, matched by segment id, and nothing is read or
/// decoded to find it.
#[test]
fn retention_drops_the_segment_an_unsealed_flush_compacted() {
    let dir = tmp_dir("retention-unsealed");
    let key = SeriesKey::new("m");
    {
        let mut db = Tsdb::open(&dir).expect("open");
        for t in 0..50i64 {
            db.try_insert(&key, t * 60, t as f64).expect("insert");
        }
        db.flush().expect("flush a window");
        db.try_insert(&key, 20 * 60, -1.0).expect("overwrite");
        db.flush().expect("flush the overwritten window");
        let stats = db.storage_stats().expect("stats");
        assert_eq!((stats.segments, stats.freelist), (1, vec![0]), "the window superseded");
    }
    let options = StorageOptions { retention: Some(10_000), ..StorageOptions::default() };
    let mut db = Tsdb::open_with(&dir, options.clone()).expect("reopen with retention");
    let stats = db.storage_stats().expect("stats");
    assert_eq!((stats.segments, stats.chunks), (1, 1), "one chunk of one segment");
    assert_eq!(stats.resident_chunk_bytes, 0, "nothing is resident: {stats:?}");
    assert_eq!(db.point_count(), 50);

    for t in 1000..1050i64 {
        db.try_insert(&key, t * 60, t as f64).expect("insert");
    }
    let decodes = db.decode_count();
    db.flush().expect("flush past the horizon");
    assert_eq!(db.decode_count(), decodes, "retention decoded nothing");
    let stats = db.storage_stats().expect("stats");
    assert_eq!((stats.segments, stats.chunks), (1, 1), "the compacted segment expired");
    assert_eq!(db.point_count(), 50, "and its chunk left memory with it");
    let expected = contents(&db);
    assert_eq!(expected[0].1.first(), Some(&60_000), "only the new window remains");
    drop(db);
    let reopened = Tsdb::open_with(&dir, options).expect("reopen");
    assert_eq!(reopened.point_count(), 50);
    assert_eq!(contents(&reopened), expected, "memory and disk are one view");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Retention cannot bring back a value a later write replaced: the flush
/// that rewrote the range superseded the segment holding the old value.
/// Here a series holds the first segment's newest point far past the
/// overwritten one, so a flush past the retention window keeps that
/// segment; the writer and a read-only reopen read the overwrite.
/// Retention keeps chunks, not segments: `compact()` rewrites every series
/// with only the chunks the window keeps, so m, wholly behind it, expires
/// in the writer and on disk alike. And a later write behind the cutoff is
/// written nowhere: the writer, a read-only reopen and a reopen agree.
#[test]
fn retention_never_brings_back_an_overwritten_value() {
    let dir = tmp_dir("retention-overwrite");
    let (m, n) = (SeriesKey::new("m"), SeriesKey::new("n"));
    {
        let mut db = Tsdb::open(&dir).expect("open");
        let window: Vec<(i64, f64)> = (0..50i64).map(|t| (t * 60, t as f64)).collect();
        db.try_insert_batch(&m, &window).expect("insert");
        db.try_insert(&n, 50_000, 1.0).expect("insert");
        db.flush().expect("flush");
        db.try_insert(&m, 1200, -1.0).expect("overwrite");
        db.flush().expect("flush the overwrite");
    }
    let at = |db: &Tsdb, ts: i64| {
        let points = db.get(&m).into_iter().flat_map(Series::points);
        points.filter(|p| p.ts == ts).map(|p| p.value).collect::<Vec<_>>()
    };
    let at_1200 = |db: &Tsdb| at(db, 1200);
    let options = StorageOptions { retention: Some(48_000), ..StorageOptions::default() };
    let mut db = Tsdb::open_with(&dir, options.clone()).expect("reopen with retention");
    db.try_insert(&n, 51_000, 2.0).expect("insert");
    db.flush().expect("flush past the window");
    assert_eq!(at_1200(&db), [-1.0], "the writer");
    let reopened = Tsdb::open_read_only(&dir).expect("read-only reopen");
    assert_eq!(at_1200(&reopened), [-1.0], "a read-only reopen");
    drop(reopened);

    // m (0..2940) lies wholly behind the 3,000 cutoff: compacting expires it.
    let len = |db: &Tsdb, key: &SeriesKey| db.get(key).map_or(0, Series::len);
    db.compact().expect("compact");
    assert_eq!((len(&db, &m), len(&db, &n)), (0, 2), "the writer keeps only n");
    drop(db);
    let compacted = Tsdb::open(&dir).expect("reopen after compact");
    assert_eq!((len(&compacted, &m), len(&compacted, &n)), (0, 2), "a reopen after compact()");
    drop(compacted);

    let mut db = Tsdb::open_with(&dir, options).expect("reopen with retention");
    db.try_insert(&m, 600, -2.0).expect("a write behind the cutoff");
    assert_eq!(at(&db, 600), [-2.0], "held until the flush");
    db.flush().expect("flush a head behind the window");
    let views = |db: &Tsdb| (len(db, &m), at(db, 600), at_1200(db), len(db, &n));
    assert_eq!(views(&db), (0, vec![], vec![], 2), "the writer holds no m");
    assert!(std::fs::read(dir.join("wal")).expect("read wal").is_empty(), "nor does the log");
    drop(db);
    let reopened = Tsdb::open_read_only(&dir).expect("read-only reopen");
    assert_eq!(views(&reopened), (0, vec![], vec![], 2), "a read-only reopen holds no m");
    drop(reopened);
    let reopened = Tsdb::open(&dir).expect("reopen");
    assert_eq!(views(&reopened), (0, vec![], vec![], 2), "a reopen holds no m");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Retention holds on a store that compacts on its own: 200 hourly rounds
/// of one series under a 24-hour window. Each compaction rewrites the
/// series with only the chunks the window keeps, so the oldest point held,
/// by the writer and by a reopen alike, lies at most the window, one
/// chunk's span and the flushes since the last compaction behind the
/// newest.
#[test]
fn retention_holds_on_a_compacting_store() {
    let dir = tmp_dir("retention-rounds");
    let (minute, hour) = (60i64, 3_600i64);
    let window = 24 * hour;
    let options = StorageOptions { retention: Some(window), ..StorageOptions::default() };
    let mut db = Tsdb::open_with(&dir, options.clone()).expect("open");
    let key = SeriesKey::new("m");
    for round in 0..200i64 {
        let points: Vec<_> = (0..60).map(|t| (round * hour + t * minute, t as f64)).collect();
        db.try_insert_batch(&key, &points).expect("insert");
        db.flush().expect("flush a round");
    }
    let newest = 199 * hour + 59 * minute;
    let chunk_span = CHUNK_MAX_POINTS as i64 * minute;
    let since_compaction = (AUTO_COMPACT_SEGMENTS as i64 - 1) * hour;
    let oldest_allowed = newest - window - chunk_span - since_compaction;
    let span = |db: &Tsdb| db.get(&key).and_then(Series::time_span).expect("points");
    let held = span(&db);
    assert_eq!(held.end, newest + 1, "the newest round is held");
    assert!(held.start >= oldest_allowed, "the writer holds {held:?}, from {oldest_allowed}");
    drop(db);
    let reopened = Tsdb::open_read_only_with(&dir, options.clone()).expect("read-only reopen");
    assert_eq!(span(&reopened), held, "a read-only reopen holds what the writer held");
    drop(reopened);
    let reopened = Tsdb::open_with(&dir, options).expect("reopen");
    assert_eq!(span(&reopened), held, "a reopen holds what the writer held");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retention_applies_at_open_too() {
    let dir = tmp_dir("retention-open");
    {
        let mut db = Tsdb::open(&dir).expect("open");
        let key = SeriesKey::new("m");
        for t in 0..50i64 {
            db.try_insert(&key, t * 60, t as f64).expect("insert");
        }
        db.flush().expect("flush old window");
        for t in 1000..1050i64 {
            db.try_insert(&key, t * 60, t as f64).expect("insert");
        }
        db.flush().expect("flush new window");
        assert_eq!(db.storage_stats().expect("stats").segments, 2);
    }
    let options = StorageOptions { retention: Some(10_000), ..StorageOptions::default() };
    let db = Tsdb::open_with(&dir, options).expect("reopen with retention");
    assert_eq!(db.storage_stats().expect("stats").segments, 1, "expired segment dropped at open");
    assert_eq!(db.point_count(), 50);
    assert_eq!(db.decode_count(), 0, "retention never decoded a chunk");
    let _ = std::fs::remove_dir_all(&dir);
}
