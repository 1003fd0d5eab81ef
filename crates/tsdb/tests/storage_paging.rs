//! Out-of-core behaviour of a reopened store: demand paging, the memory
//! budget with eviction, decode-cache accounting, read-only opens, and
//! retention.

use std::collections::BTreeMap;

use explainit_tsdb::{MetricFilter, SeriesKey, StorageError, StorageOptions, Tsdb};
use proptest::prelude::*;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("explainit-paging-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn contents(db: &Tsdb) -> Vec<(String, Vec<i64>, Vec<f64>)> {
    let Some(range) = db.time_span() else { return Vec::new() };
    let mut rows: BTreeMap<String, (Vec<i64>, Vec<f64>)> = BTreeMap::new();
    for part in db.scan_parts(&MetricFilter::all(), &range) {
        let row = rows.entry(part.key.canonical()).or_default();
        row.0.extend_from_slice(part.timestamps);
        row.1.extend_from_slice(part.values);
    }
    rows.into_iter().map(|(key, (ts, vs))| (key, ts, vs)).collect()
}

/// Builds a flushed multi-chunk store and returns its expected contents.
fn build_store(dir: &std::path::Path) -> Vec<(String, Vec<i64>, Vec<f64>)> {
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

#[test]
fn cold_open_keeps_only_the_chunk_directory_resident() {
    let dir = tmp_dir("cold-open");
    let expected = build_store(&dir);
    let db = Tsdb::open(&dir).expect("reopen");
    let stats = db.storage_stats().expect("stats");
    assert_eq!(stats.resident_chunk_bytes, 0, "no chunk bytes resident before any scan");
    assert_eq!(stats.page_faults, 0, "recovery faults nothing in");
    assert_eq!(db.decode_count(), 0, "recovery decodes nothing");
    assert_eq!(stats.chunks, 9, "the chunk directory itself is fully known");

    assert_eq!(contents(&db), expected, "first scan pages everything in correctly");
    let stats = db.storage_stats().expect("stats");
    assert_eq!(stats.page_faults, 9, "every chunk faulted in exactly once");
    assert!(stats.resident_chunk_bytes > 0, "unbounded store keeps pages resident");
    assert_eq!(stats.evictions, 0, "no budget, no evictions");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scans_under_any_budget_are_bit_identical() {
    let dir = tmp_dir("budgets");
    let expected = build_store(&dir);
    let resident = Tsdb::open(&dir).expect("unbounded reopen");
    let baseline = contents(&resident);
    assert_eq!(baseline, expected);
    let segment_bytes = resident.storage_stats().expect("stats").segment_bytes;
    let chunks = resident.storage_stats().expect("stats").chunks as u64;
    drop(resident);

    // Budget 0 (evict immediately) and about one chunk's worth.
    for budget in [0, segment_bytes.div_ceil(chunks)] {
        let options =
            StorageOptions { page_budget_bytes: Some(budget), ..StorageOptions::default() };
        let db = Tsdb::open_read_only_with(&dir, options).expect("paged reopen");
        assert_eq!(contents(&db), baseline, "budget {budget} diverged");
        let stats = db.storage_stats().expect("stats");
        assert_eq!(stats.page_faults, 9, "budget {budget}: every chunk faulted");
        assert!(stats.evictions > 0, "budget {budget}: pressure forced evictions");
        // The clock can only evict between faults, so the peak overshoots
        // by at most about one chunk (plus slack for uneven chunk sizes).
        assert!(
            stats.peak_resident_chunk_bytes <= budget + 2 * segment_bytes.div_ceil(chunks),
            "budget {budget}: peak {} ran away",
            stats.peak_resident_chunk_bytes
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store whose full scan holds more undecoded points (48,000 in 192
/// chunks) than the scan decodes one by one, so its chunks fault, verify
/// and decode on the worker pool. Returns the expected contents.
fn build_large_store(dir: &std::path::Path) -> Vec<(String, Vec<i64>, Vec<f64>)> {
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

#[test]
fn pooled_decode_returns_the_points_with_one_fault_and_decode_per_chunk() {
    let dir = tmp_dir("pooled");
    let expected = build_large_store(&dir);
    assert_eq!(expected.iter().map(|(_, ts, _)| ts.len()).sum::<usize>(), 48_000);
    let unbounded = Tsdb::open_read_only(&dir).expect("reopen");
    let stats = unbounded.storage_stats().expect("stats");
    let (chunks, segment_bytes) = (stats.chunks as u64, stats.segment_bytes);
    assert_eq!(chunks, 192);
    drop(unbounded);
    let chunk_bytes = segment_bytes.div_ceil(chunks);
    for budget in [None, Some(segment_bytes / 8), Some(chunk_bytes)] {
        let options = StorageOptions { page_budget_bytes: budget, ..StorageOptions::default() };
        let db = Tsdb::open_read_only_with(&dir, options).expect("paged reopen");
        assert_eq!(contents(&db), expected, "budget {budget:?}");
        let stats = db.storage_stats().expect("stats");
        assert_eq!(stats.page_faults, chunks, "budget {budget:?}: one fault per chunk");
        assert_eq!(db.decode_count(), chunks, "budget {budget:?}: one decode per chunk");
        if let Some(budget) = budget {
            assert!(stats.evictions > 0, "budget {budget}: pressure forced evictions");
            // A wave's pages are charged from before their buffers exist,
            // after the clock made room for them: the peak overshoots by
            // about one chunk, as on the serial path (twice the mean for
            // uneven sizes). A wave of a full budget next to a full budget
            // of resident pages would reach twice the 1/8 budget.
            assert!(
                stats.peak_resident_chunk_bytes <= budget + 2 * chunk_bytes,
                "budget {budget}: peak {} ran away",
                stats.peak_resident_chunk_bytes
            );
        }
        // The caches hold: a second scan faults and decodes nothing more.
        assert_eq!(contents(&db), expected);
        assert_eq!(db.decode_count(), chunks, "budget {budget:?}: rescans hit the caches");
    }
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

/// Whole-series reads go through the per-chunk decode caches — the tier
/// that is charged to the pager and shed by `evict_to_budget`. (A second,
/// unaccounted whole-series copy used to leak here.)
#[test]
fn decode_caches_are_accounted_and_evictable() {
    let dir = tmp_dir("decode-caches");
    build_store(&dir);
    let budget = 1024u64;
    let options = StorageOptions { page_budget_bytes: Some(budget), ..StorageOptions::default() };
    let mut db = Tsdb::open_with(&dir, options).expect("reopen");

    // A whole-store scan decodes way past the budget — and the accounting
    // must *see* that.
    let range = db.time_span().expect("data");
    let scanned = |db: &Tsdb| -> usize {
        db.scan_parts(&MetricFilter::all(), &range).iter().map(|p| p.timestamps.len()).sum()
    };
    let total = scanned(&db);
    assert_eq!(total, 360);
    assert_eq!(db.iter().map(|(_, s)| s.points().count()).sum::<usize>(), total);
    let stats = db.storage_stats().expect("stats");
    assert!(
        stats.resident_bytes > budget,
        "decode caches count: {} resident vs {budget} budget",
        stats.resident_bytes
    );

    let dropped = db.evict_to_budget();
    assert!(dropped > 0, "eviction shed the decoded caches");
    let stats = db.storage_stats().expect("stats");
    assert!(
        stats.resident_bytes <= budget,
        "resident bytes {} fell back under the {budget}-byte budget",
        stats.resident_bytes
    );
    assert!(stats.evictions > 0, "cache drops are visible in the counters");

    // The store still serves the same data afterwards (re-faulting and
    // re-decoding as needed).
    assert_eq!(scanned(&db), total);
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

    // Every mutating surface refuses.
    let err = ro1.try_insert(&SeriesKey::new("x"), 0, 1.0).expect_err("insert refused");
    assert!(matches!(err, StorageError::ReadOnly), "{err}");
    assert!(matches!(ro1.sync().expect_err("sync refused"), StorageError::ReadOnly));
    assert!(matches!(ro1.flush().expect_err("flush refused"), StorageError::ReadOnly));
    assert!(matches!(ro1.compact().expect_err("compact refused"), StorageError::ReadOnly));

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
