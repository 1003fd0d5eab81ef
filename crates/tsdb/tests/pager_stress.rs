//! Pager stress under lockdep: reader threads faulting a cold store
//! through a tiny page budget while a writer ingests and flushes. Any
//! clock/slot/shared-lock order violation or guard-held-across-I/O fault
//! panics the offending thread immediately (lockdep is force-armed), so
//! a clean run is a machine-checked witness of the locking discipline
//! under real contention — the regression net for the concurrent server.

use std::sync::atomic::{AtomicBool, Ordering};

use explainit_tsdb::{MetricFilter, SeriesKey, SharedTsdb, StorageOptions, Tsdb};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("explainit-stress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A store small enough to build fast but big enough that a tiny budget
/// forces continuous fault/evict traffic: 8 series x 3 flushed chunks.
fn build_store(dir: &std::path::Path) -> f64 {
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
    let range = db.time_span().expect("non-empty");
    db.scan_parts(&MetricFilter::all(), &range).iter().flat_map(|p| p.values).sum()
}

#[test]
fn readers_fault_under_budget_while_writer_flushes() {
    explainit_sync::arm();
    let dir = tmp_dir("fault-flush");
    let expected_sum = build_store(&dir);

    // Tiny budget: every scan pass must page chunks in and push others
    // out, keeping the clock and slot locks hot on every reader.
    let options = StorageOptions { page_budget_bytes: Some(2 * 1024), ..Default::default() };
    let shared = SharedTsdb::open_with(&dir, options).expect("reopen under budget");

    let stop = AtomicBool::new(false);
    let readers = 4;
    std::thread::scope(|scope| {
        let shared = &shared;
        let stop = &stop;
        for _ in 0..readers {
            scope.spawn(move || {
                let mut passes = 0u32;
                while !stop.load(Ordering::Relaxed) || passes < 3 {
                    let sum: f64 = shared.with(|db| {
                        let range = db.time_span().expect("non-empty store");
                        db.scan_parts(&MetricFilter::all(), &range)
                            .iter()
                            .flat_map(|p| p.values)
                            .sum()
                    });
                    assert!(
                        sum >= expected_sum,
                        "scan lost points under paging pressure: {sum} < {expected_sum}"
                    );
                    passes += 1;
                }
            });
        }
        scope.spawn(move || {
            // One writer: ingest fresh points and flush/seal them while
            // the readers stream cold chunks through the budget window.
            for round in 0..5i64 {
                shared.ingest(|db| {
                    for series in 0..8i64 {
                        let key = SeriesKey::new("cpu").with_tag("host", format!("h{series}"));
                        for t in 0..50i64 {
                            db.insert(&key, (10_000 + round * 100 + t) * 60, t as f64);
                        }
                    }
                });
                shared.flush().expect("flush under contention");
            }
            stop.store(true, Ordering::Relaxed);
        });
    });

    let (faults, evictions) = shared.with(|db| {
        let stats = db.storage_stats().expect("durable store has stats");
        (stats.page_faults, stats.evictions)
    });
    assert!(faults > 0, "stress run never faulted a cold chunk");
    assert!(evictions > 0, "stress run never evicted under the tiny budget");
    let _ = std::fs::remove_dir_all(&dir);
}
