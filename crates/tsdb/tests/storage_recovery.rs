//! Crash-recovery and durability tests against the public `Tsdb` API:
//! reopen round trips, torn-WAL-tail truncation at every byte boundary,
//! insert-contract equivalence between the live path and WAL replay, a
//! checksummed WAL record that does not decode, auto-compaction, and lazy
//! decode proofs.

use std::path::{Path, PathBuf};

use explainit_tsdb::storage::crc32;
use explainit_tsdb::{MetricFilter, SeriesKey, StorageError, TimeRange, Tsdb};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("explainit-tsdb-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Parses the WAL frame layout (`[len u32][crc u32][payload]`, from the
/// documented record format) into the byte offset where each record
/// starts, plus the total length.
fn wal_record_offsets(wal: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut at = 0usize;
    while at + 8 <= wal.len() {
        offsets.push(at);
        let len = u32::from_le_bytes(wal[at..at + 4].try_into().unwrap()) as usize;
        at += 8 + len;
    }
    assert_eq!(at, wal.len(), "test harness parsed the WAL cleanly");
    offsets
}

/// Asserts two stores hold identical logical contents (keys, timestamps,
/// and bit-identical values).
fn assert_same_contents(a: &Tsdb, b: &Tsdb) {
    assert_eq!(a.series_count(), b.series_count());
    assert_eq!(a.point_count(), b.point_count());
    for id in a.find(&MetricFilter::all()) {
        let sa = a.series(id);
        let sb = b.get(&sa.key).expect("key present in both");
        assert_eq!(sa.timestamps(), sb.timestamps(), "timestamps for {}", sa.key);
        let (va, vb) = (sa.values(), sb.values());
        assert_eq!(va.len(), vb.len());
        for (x, y) in va.iter().zip(vb) {
            assert_eq!(x.to_bits(), y.to_bits(), "values for {}", sa.key);
        }
    }
}

#[test]
fn flush_reopen_round_trip_is_bit_identical() {
    let dir = tmp_dir("roundtrip");
    let keys: Vec<SeriesKey> =
        (0..4).map(|i| SeriesKey::new("disk").with_tag("host", format!("node-{i}"))).collect();
    let mut reference = Tsdb::new();
    {
        let mut db = Tsdb::open(&dir).expect("open");
        for (i, key) in keys.iter().enumerate() {
            for t in 0..50i64 {
                let v = (t as f64) * 0.1 + i as f64;
                db.insert(key, t * 60, v);
                reference.insert(key, t * 60, v);
            }
        }
        // Special values must survive the XOR codec bit-exactly.
        let special = SeriesKey::new("special");
        for (t, v) in [(0, f64::NAN), (60, -0.0), (120, f64::INFINITY), (180, f64::NEG_INFINITY)] {
            db.insert(&special, t, v);
            reference.insert(&special, t, v);
        }
        db.flush().expect("flush");
        assert!(db.is_durable());
        assert_eq!(db.data_dir(), Some(dir.as_path()));
    }
    let reopened = Tsdb::open(&dir).expect("reopen");
    assert_same_contents(&reopened, &reference);
    // Sealed/head split is invisible to logical equality.
    for id in reopened.find(&MetricFilter::all()) {
        let s = reopened.series(id);
        assert_eq!(Some(s), reference.get(&s.key));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The aligned fleet the paper's monitoring setting implies: every series
/// samples the same 60-second grid, and values are integer-quantised
/// gauges on a bounded xorshift random walk (queue depths, utilisation
/// percentages). On that shape the delta-of-delta timestamp codec costs
/// about a bit per point and the XOR value codec a handful.
#[test]
fn sealed_segments_beat_raw_points_fivefold_on_integer_gauges() {
    const SERIES: usize = 16;
    const POINTS: usize = 2_000;
    let dir = tmp_dir("compression-floor");
    let mut reference = Tsdb::new();
    let mut db = Tsdb::open(&dir).expect("open");
    for idx in 0..SERIES {
        let key = SeriesKey::new("cpu")
            .with_tag("host", format!("host-{:03}", idx / 4))
            .with_tag("core", format!("{}", idx % 4));
        let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ (idx as u64 + 1);
        let mut level = 40 + (idx as i64 % 20);
        let points: Vec<(i64, f64)> = (0..POINTS)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                level = (level + (x % 7) as i64 - 3).clamp(0, 100);
                (i as i64 * 60, level as f64)
            })
            .collect();
        db.try_insert_batch(&key, &points).expect("ingest batch");
        reference.try_insert_batch(&key, &points).expect("in-memory batch");
    }
    db.flush().expect("flush to segments");
    drop(db);
    let reopened = Tsdb::open_read_only(&dir).expect("reopen");
    assert_same_contents(&reopened, &reference);
    let stats = reopened.storage_stats().expect("durable store has stats");
    let raw_bytes = (SERIES * POINTS * 16) as u64;
    assert!(
        stats.segment_bytes * 5 <= raw_bytes,
        "{} segment bytes for {raw_bytes} raw bytes: below the 5x floor",
        stats.segment_bytes
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unsynced_inserts_do_not_survive_but_synced_ones_do() {
    let dir = tmp_dir("sync");
    let key = SeriesKey::new("m");
    {
        let mut db = Tsdb::open(&dir).expect("open");
        db.try_insert(&key, 0, 1.0).expect("insert");
        db.sync().expect("sync");
        db.try_insert(&key, 60, 2.0).expect("insert");
        // Dropped without sync: the second point sits in the BufWriter at
        // best; durability was never promised for it.
        std::mem::forget(db); // simulate a crash: no Drop flushing
    }
    let reopened = Tsdb::open(&dir).expect("reopen");
    let s = reopened.get(&key).expect("series");
    assert_eq!(s.timestamps(), &[0], "only the synced point is committed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_recovers_committed_prefix_at_every_byte() {
    let dir = tmp_dir("torn");
    let key = SeriesKey::new("m").with_tag("host", "a");
    {
        let mut db = Tsdb::open(&dir).expect("open");
        for t in 0..5i64 {
            db.try_insert(&key, t * 60, t as f64 + 0.5).expect("insert");
        }
        db.sync().expect("sync");
    }
    let wal_path = dir.join("wal");
    let full = std::fs::read(&wal_path).expect("read wal");
    let offsets = wal_record_offsets(&full);
    assert_eq!(offsets.len(), 5, "one record per insert");
    let last_start = offsets[4];
    // Cut the file at every byte boundary of the last record: recovery
    // must always land on exactly the four committed points.
    for cut in last_start..full.len() {
        std::fs::write(&wal_path, &full[..cut]).expect("truncate");
        let db = Tsdb::open(&dir).expect("reopen cut={cut}");
        let s = db.get(&key).expect("series survives");
        assert_eq!(s.timestamps(), &[0, 60, 120, 180], "cut={cut}");
        assert_eq!(s.values(), &[0.5, 1.5, 2.5, 3.5], "cut={cut}");
        // Reopen truncated the torn tail on disk; restore for the next cut.
        drop(db);
        std::fs::write(&wal_path, &full).expect("restore");
    }
    let db = Tsdb::open(&dir).expect("reopen full");
    assert_eq!(db.get(&key).expect("series").timestamps(), &[0, 60, 120, 180, 240]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The WAL replay path must reproduce `Series::push` exactly: duplicates
/// last-writer-wins, out-of-order arrivals sort — in arrival order.
#[test]
fn replay_matches_live_insert_contract_for_out_of_order_and_duplicates() {
    let dir = tmp_dir("contract");
    let key = SeriesKey::new("m");
    // Arrival order exercises every push branch: in-order appends,
    // out-of-order insertion, duplicate overwrites (both at the tail and
    // in the middle), and a duplicate of the very first point.
    let arrivals: [(i64, f64); 9] = [
        (100, 1.0),
        (200, 2.0),
        (150, 1.5),  // out-of-order insert
        (200, 2.5),  // duplicate of the tail: overwrite
        (50, 0.5),   // out-of-order before everything
        (150, -1.5), // duplicate in the middle: overwrite
        (300, 3.0),
        (100, 9.0), // duplicate of the (now) second point
        (50, 0.25), // duplicate of the first point
    ];
    let mut reference = Tsdb::new();
    {
        let mut db = Tsdb::open(&dir).expect("open");
        for &(ts, v) in &arrivals {
            db.insert(&key, ts, v);
            reference.insert(&key, ts, v);
        }
        db.sync().expect("sync");
        // No flush: everything must come back through WAL replay alone.
    }
    let replayed = Tsdb::open(&dir).expect("reopen");
    assert_same_contents(&replayed, &reference);
    assert_eq!(
        replayed.get(&key).expect("series").timestamps(),
        &[50, 100, 150, 200, 300],
        "sorted, deduplicated"
    );
    assert_eq!(replayed.get(&key).expect("series").values(), &[0.25, 9.0, -1.5, 2.5, 3.0]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Out-of-order writes that land inside already-sealed history unseal the
/// series; the next flush writes overlapping segments that recovery must
/// merge with last-writer-wins.
#[test]
fn out_of_order_write_into_sealed_range_survives_reopen() {
    let dir = tmp_dir("unseal");
    let key = SeriesKey::new("m");
    {
        let mut db = Tsdb::open(&dir).expect("open");
        for t in [0i64, 60, 120] {
            db.insert(&key, t, t as f64);
        }
        db.flush().expect("first flush");
        // These land inside the sealed range: overwrite ts 60, insert ts 90.
        db.insert(&key, 60, -60.0);
        db.insert(&key, 90, 90.0);
        db.flush().expect("second flush");
        assert!(db.storage_stats().expect("stats").segments >= 2, "overlapping segments");
    }
    let reopened = Tsdb::open(&dir).expect("reopen");
    let s = reopened.get(&key).expect("series");
    assert_eq!(s.timestamps(), &[0, 60, 90, 120]);
    assert_eq!(s.values(), &[0.0, -60.0, 90.0, 120.0], "later flush wins on ts 60");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A write into the sealed range unseals the series, which reads every
/// sealed chunk. One that cannot be read must fail the write, not drop its
/// points from memory for a flush or compaction to make the loss durable.
#[test]
fn a_write_into_an_unreadable_sealed_chunk_fails_and_loses_nothing() {
    let dir = tmp_dir("unseal-damaged");
    let key = SeriesKey::new("m");
    let points: Vec<(i64, f64)> = (0..100i64).map(|t| (t * 60, t as f64 * 0.5)).collect();
    {
        let mut db = Tsdb::open(&dir).expect("open");
        db.try_insert_batch(&key, &points).expect("insert");
        db.flush().expect("flush");
    }
    let segment = dir.join("seg-00000000.seg");
    let good = std::fs::read(&segment).expect("read");
    let mut db = Tsdb::open(&dir).expect("writer reopen");
    // The last byte is the one chunk's payload: a v2 open reads only the
    // directory, so the damage shows at the first read of the chunk.
    let mut bad = good.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    std::fs::write(&segment, &bad).expect("flip");

    let err = db.try_insert_batch(&key, &[(90, 9.0)]).expect_err("unseal reads the chunk");
    assert!(err.to_string().contains("chunk checksum mismatch"), "{err}");
    db.insert(&key, 90, 9.0);
    let err = db.compact().expect_err("the refused insert fails the next flush");
    assert!(err.to_string().contains("chunk checksum mismatch"), "{err}");
    let err = db.compact().expect_err("compaction cannot copy the chunk either");
    assert!(err.to_string().contains("chunk checksum mismatch"), "{err}");
    assert_eq!(db.point_count(), 100, "the sealed tier is intact");
    drop(db);
    assert_eq!(std::fs::read(&segment).expect("still on disk"), bad, "segment untouched");

    // Repaired, the store holds what was flushed and none of the refused
    // writes (neither reached the log).
    std::fs::write(&segment, &good).expect("repair");
    let db = Tsdb::open(&dir).expect("reopen");
    let s = db.get(&key).expect("series");
    assert_eq!(s.timestamps(), points.iter().map(|p| p.0).collect::<Vec<_>>());
    assert_eq!(s.values(), points.iter().map(|p| p.1).collect::<Vec<_>>());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A frame whose checksum holds but whose payload is no record this
/// writer makes was written whole, so it is not a torn tail: open fails
/// with `Corrupt` naming the WAL and the frame's offset, writable or not,
/// and the log keeps every byte (truncating there would drop the committed
/// batch after it).
#[test]
fn a_checksummed_wal_record_that_does_not_decode_fails_open_and_keeps_the_log() {
    let dir = tmp_dir("undecodable");
    {
        let mut db = Tsdb::open(&dir).expect("open");
        db.try_insert_batch(&SeriesKey::new("a"), &[(0, 1.0), (60, 2.0)]).expect("batch");
        db.try_insert_batch(&SeriesKey::new("b"), &[(0, 3.0)]).expect("batch");
        db.sync().expect("sync");
    }
    let wal_path = dir.join("wal");
    let two = std::fs::read(&wal_path).expect("read wal");
    let second = wal_record_offsets(&two)[1];
    let mut payload = two[8..second].to_vec();
    payload[0] = 3; // a record kind no build writes
    let (len, sum) = ((payload.len() as u32).to_le_bytes(), crc32(&payload).to_le_bytes());
    let bytes = [&two[..second], &len, &sum, &payload, &two[second..]].concat();
    std::fs::write(&wal_path, &bytes).expect("write wal");
    for read_only in [false, true] {
        let opened = if read_only { Tsdb::open_read_only(&dir) } else { Tsdb::open(&dir) };
        match opened {
            Err(StorageError::Corrupt { what, detail }) => {
                assert_eq!(what, format!("{} record at byte {second}", wal_path.display()));
                assert_eq!(detail, "unknown record kind 3");
            }
            other => panic!("read_only={read_only}: expected Corrupt, got {other:?}"),
        }
        assert_eq!(std::fs::read(&wal_path).expect("read wal"), bytes, "read_only={read_only}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeated_flushes_auto_compact_and_keep_everything() {
    let dir = tmp_dir("autocompact");
    let key = SeriesKey::new("m");
    let cycles = 10i64; // > AUTO_COMPACT_SEGMENTS
    {
        let mut db = Tsdb::open(&dir).expect("open");
        for c in 0..cycles {
            for t in 0..16i64 {
                let ts = (c * 16 + t) * 60;
                db.insert(&key, ts, ts as f64 * 0.5);
            }
            db.flush().expect("flush");
        }
        let stats = db.storage_stats().expect("stats");
        assert!(
            stats.segments < cycles as usize,
            "auto-compaction folded segments: {} live after {cycles} flushes",
            stats.segments
        );
        assert!(!stats.freelist.is_empty(), "superseded ids recorded");
        assert_eq!(stats.wal_bytes, 0, "flush truncates the WAL");
    }
    let reopened = Tsdb::open(&dir).expect("reopen");
    assert_eq!(reopened.point_count(), (cycles * 16) as usize);
    let s = reopened.get(&key).expect("series");
    assert!(s.timestamps().windows(2).all(|w| w[0] < w[1]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_compact_folds_to_one_segment() {
    let dir = tmp_dir("compact");
    let key = SeriesKey::new("m");
    let mut db = Tsdb::open(&dir).expect("open");
    for c in 0..3i64 {
        for t in 0..8i64 {
            db.insert(&key, (c * 8 + t) * 60, 1.0);
        }
        db.flush().expect("flush");
    }
    assert_eq!(db.storage_stats().expect("stats").segments, 3);
    db.compact().expect("compact");
    let stats = db.storage_stats().expect("stats");
    assert_eq!(stats.segments, 1);
    assert_eq!(stats.freelist.len(), 3);
    let reopened = Tsdb::open(&dir).expect("reopen");
    assert_eq!(reopened.point_count(), 24);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scans_decode_only_overlapping_chunks() {
    let dir = tmp_dir("lazy");
    let keys: Vec<SeriesKey> =
        (0..3).map(|i| SeriesKey::new("cpu").with_tag("host", format!("h{i}"))).collect();
    {
        let mut db = Tsdb::open(&dir).expect("open");
        // Two flushes at disjoint time windows: two chunks per series.
        for key in &keys {
            for t in 0..20i64 {
                db.insert(key, t * 60, t as f64);
            }
        }
        db.flush().expect("flush window 1");
        for key in &keys {
            for t in 100..120i64 {
                db.insert(key, t * 60, t as f64);
            }
        }
        db.flush().expect("flush window 2");
    }
    let db = Tsdb::open(&dir).expect("reopen");
    assert_eq!(db.storage_stats().expect("stats").chunks, 6);
    assert_eq!(db.decode_count(), 0, "recovery of disjoint chunks decodes nothing");

    // A scan restricted to window 2 must decode exactly one chunk per
    // matched series.
    let parts =
        db.scan_parts_between(&MetricFilter::name("cpu"), 100 * 60, 119 * 60).expect("scan");
    assert_eq!(db.decode_count(), 3, "window-1 chunks stayed compressed");
    let total: usize = parts.iter().map(|p| p.timestamps.len()).sum();
    assert_eq!(total, 60);
    // Repeating the scan hits the decode caches.
    db.scan_parts_between(&MetricFilter::name("cpu"), 100 * 60, 119 * 60).expect("rescan");
    assert_eq!(db.decode_count(), 3);
    // The full-range scan decodes the rest, once.
    let _ = db.scan_parts(&MetricFilter::name("cpu"), &TimeRange::new(i64::MIN, i64::MAX));
    assert_eq!(db.decode_count(), 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multi_slice_parts_concatenate_to_the_series() {
    let dir = tmp_dir("parts");
    let key = SeriesKey::new("m");
    {
        let mut db = Tsdb::open(&dir).expect("open");
        for t in 0..10i64 {
            db.insert(&key, t * 60, t as f64);
        }
        db.flush().expect("flush");
        for t in 10..15i64 {
            db.insert(&key, t * 60, t as f64); // head points on top of sealed
        }
        db.flush().expect("flush 2");
        for t in 15..18i64 {
            db.insert(&key, t * 60, t as f64); // live head
        }
        db.sync().expect("sync");
    }
    let db = Tsdb::open(&dir).expect("reopen");
    let range = TimeRange::new(0, i64::MAX);
    let parts = db.scan_parts(&MetricFilter::name("m"), &range);
    assert!(parts.len() >= 2, "sealed series scans as one slice per chunk");
    // Concatenated in order, the slices are the whole series.
    let flat_ts: Vec<i64> = parts.iter().flat_map(|p| p.timestamps.iter().copied()).collect();
    let flat_vs: Vec<f64> = parts.iter().flat_map(|p| p.values.iter().copied()).collect();
    let series = db.get(&key).expect("series");
    assert_eq!(flat_ts, series.timestamps());
    assert_eq!(flat_vs, series.values());
    assert_eq!(flat_ts.len(), 18);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clones_detach_from_the_directory() {
    let dir = tmp_dir("clone");
    let key = SeriesKey::new("m");
    let mut db = Tsdb::open(&dir).expect("open");
    db.insert(&key, 0, 1.0);
    db.flush().expect("flush");
    let mut snapshot = db.clone();
    assert!(!snapshot.is_durable(), "clones are in-memory snapshot views");
    assert!(snapshot.data_dir().is_none());
    assert!(matches!(snapshot.flush(), Err(StorageError::NotDurable)));
    assert!(matches!(snapshot.sync(), Err(StorageError::NotDurable)));
    // Writes to the clone never reach the directory.
    snapshot.insert(&key, 60, 2.0);
    drop(db);
    let reopened = Tsdb::open(&dir).expect("reopen");
    assert_eq!(reopened.point_count(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_memory_store_rejects_durable_calls() {
    let mut db = Tsdb::new();
    db.insert(&SeriesKey::new("m"), 0, 1.0);
    assert!(!db.is_durable());
    assert!(matches!(db.flush(), Err(StorageError::NotDurable)));
    assert!(matches!(db.sync(), Err(StorageError::NotDurable)));
    assert!(matches!(db.compact(), Err(StorageError::NotDurable)));
    assert!(db.storage_stats().is_none());
    // try_insert still works (no WAL to fail).
    db.try_insert(&SeriesKey::new("m"), 60, 2.0).expect("in-memory try_insert");
    assert_eq!(db.point_count(), 2);
}

#[test]
fn batch_insert_is_one_wal_record_with_push_semantics() {
    let dir = tmp_dir("batch");
    let key = SeriesKey::new("m");
    {
        let mut db = Tsdb::open(&dir).expect("open");
        db.try_insert_batch(&key, &[(60, 1.0), (0, 0.0), (60, 2.0), (120, 3.0)]).expect("batch");
        db.sync().expect("sync");
    }
    let wal = std::fs::read(Path::new(&dir).join("wal")).expect("read wal");
    assert_eq!(wal_record_offsets(&wal).len(), 1, "one record for the whole batch");
    let db = Tsdb::open(&dir).expect("reopen");
    let s = db.get(&key).expect("series");
    assert_eq!(s.timestamps(), &[0, 60, 120]);
    assert_eq!(s.values(), &[0.0, 2.0, 3.0], "batch replays in arrival order");
    let _ = std::fs::remove_dir_all(&dir);
}
