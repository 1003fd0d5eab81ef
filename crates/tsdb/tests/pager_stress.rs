//! Pager stress under lockdep: reader threads scan one snapshot clone of
//! a store through a tiny page budget while the writer it was cloned from
//! ingests, flushes and auto-compacts, with no lock between them. The
//! clone shares the writer's pager and page slots, so the readers' faults
//! and decodes race on the same slots' pages and blocks, contend with the
//! writer's seals and merges on the same clock, and keep paging from
//! segment files the compaction has deleted.
//! Any clock/slot order violation or guard-held-across-I/O fault panics
//! the offending thread immediately (lockdep is force-armed), so a clean
//! run is a machine-checked witness of the locking discipline under real
//! contention.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use explainit_tsdb::storage::AUTO_COMPACT_SEGMENTS;
use explainit_tsdb::{MetricFilter, SeriesKey, StorageOptions, Tsdb};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("explainit-stress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The point count and value sum of a full scan.
fn scan_totals(db: &Tsdb) -> (usize, f64) {
    db.scan_parts_between(&MetricFilter::all(), i64::MIN, i64::MAX)
        .expect("every chunk reads")
        .iter()
        .fold((0, 0.0), |(n, sum), p| (n + p.values.len(), sum + p.values.iter().sum::<f64>()))
}

/// A store small enough to build fast but big enough that a tiny budget
/// forces continuous fault/evict traffic: 8 series x 3 flushed segments.
fn build_store(dir: &std::path::Path) {
    let mut db = Tsdb::open(dir).expect("open");
    for round in 0..3i64 {
        for series in 0..8i64 {
            let key = SeriesKey::new("cpu").with_tag("host", format!("h{series}"));
            for t in 0..200i64 {
                let ts = (round * 1000 + t) * 60;
                db.try_insert(&key, ts, (round * 200 + t) as f64).expect("insert");
            }
        }
        db.flush().expect("flush");
    }
}

#[test]
fn readers_of_a_snapshot_fault_while_the_writer_flushes_and_compacts() {
    explainit_sync::arm();
    let dir = tmp_dir("snapshot-compact");
    build_store(&dir);

    // Tiny budget: every scan pass must page chunks in and push others
    // out, keeping the clock and slot locks hot on every reader.
    let options = StorageOptions { page_budget_bytes: Some(2 * 1024), ..Default::default() };
    let mut writer = Tsdb::open_with(&dir, options).expect("reopen under budget");
    let snapshot = writer.clone();
    let scan = || scan_totals(&snapshot);
    let expected = scan();
    assert_eq!(expected.0, 3 * 8 * 200);

    // Readers count their passes; the writer paces each round on them,
    // so every round of ingest, flush and compaction runs while the
    // readers are mid-scan.
    const READERS: usize = 4;
    let passes = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let writer = std::thread::scope(|scope| {
        let (scan, passes, stop) = (&scan, &passes, &stop);
        for _ in 0..READERS {
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    assert_eq!(scan(), expected, "a scan of the snapshot lost points");
                    passes.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let writer = scope.spawn(move || {
            // Enough flushes that the segment count reaches the automatic
            // compaction threshold, which deletes the files the snapshot's
            // cold chunks were opened from. The deadline only keeps a
            // failed reader from hanging the run.
            let deadline = Instant::now() + Duration::from_secs(20);
            for round in 0..AUTO_COMPACT_SEGMENTS as i64 {
                let seen = passes.load(Ordering::Relaxed);
                for series in 0..8i64 {
                    let key = SeriesKey::new("cpu").with_tag("host", format!("h{series}"));
                    for t in 0..50i64 {
                        writer
                            .try_insert(&key, (10_000 + round * 100 + t) * 60, t as f64)
                            .expect("insert");
                    }
                }
                writer.flush().expect("flush under contention");
                while passes.load(Ordering::Relaxed) < seen + READERS && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            stop.store(true, Ordering::Relaxed);
            writer
        });
        writer.join().expect("writer thread")
    });

    let rounds = AUTO_COMPACT_SEGMENTS;
    assert!(passes.into_inner() >= rounds * READERS, "the readers stopped scanning");
    assert_eq!(scan(), expected, "the snapshot never sees the writer's ingests");
    assert_eq!(writer.point_count(), expected.0 + rounds * 8 * 50);
    let stats = writer.storage_stats().expect("durable store has stats");
    assert!(stats.page_faults > 0, "stress run never faulted a cold chunk");
    assert!(stats.evictions > 0, "stress run never evicted under the tiny budget");
    assert!(!stats.freelist.is_empty(), "the writer's flushes never compacted");
    let _ = std::fs::remove_dir_all(&dir);
}
