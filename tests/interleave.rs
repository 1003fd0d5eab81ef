//! Deterministic interleaving coverage of the pager and of a writer
//! shared between threads: three two-thread scenarios driven through
//! *every* permutation of their step interleavings by
//! `explainit_sync::sched`, with lockdep force-armed so each schedule is
//! also a lock-order witness.
//!
//! Each schedule's observable outcome is rendered to a string and the
//! schedule is run twice — the harness asserts the two runs are
//! bit-identical, i.e. the outcome is a function of the schedule alone,
//! never of OS scheduling. Data-level invariants (no lost points, pinned
//! snapshots staying pinned) are additionally asserted across all
//! schedules.

use std::sync::Arc;

use explainit_sync::sched::{interleavings, run_schedule};
use explainit_sync::{LockClass, Mutex};
use explainit_tsdb::{MetricFilter, SeriesKey, StorageOptions, Tsdb};

/// Harness-shared scratch state (step logs, the reader's pinned
/// snapshot). Ranked below everything the steps take, the I/O threshold
/// included.
static SCRATCH: LockClass = LockClass::new("test.interleave.scratch", 5);

/// The store the two threads of scenarios 2 and 3 share. A flush does
/// its I/O under it, so it ranks below the store's own classes and the
/// I/O threshold.
static STORE: LockClass = LockClass::new("test.interleave.store", 10);

/// Scenario 3's pinned-clone slot. Steps log to the journal while
/// holding it, so it ranks below [`SCRATCH`] (and lockdep would flag a
/// same-class nesting as a self-deadlock if the two shared a class).
static PINNED_SLOT: LockClass = LockClass::new("test.interleave.pinned", 4);

fn tmp_dir(tag: &str, schedule_idx: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("explainit-interleave-{tag}-{schedule_idx}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

type Log = Arc<Mutex<Vec<String>>>;

fn log(log: &Log, entry: String) {
    log.lock().push(entry);
}

fn render(log: &Log) -> String {
    log.lock().join("; ")
}

/// Runs `scenario` once per schedule twice over, asserting bit-identical
/// outcomes per schedule, and returns one outcome string per schedule.
fn exhaust(counts: &[usize], mut scenario: impl FnMut(&[usize]) -> String) -> Vec<String> {
    let schedules = interleavings(counts);
    assert!(schedules.len() >= 2, "exhaustive coverage needs multiple schedules");
    schedules
        .iter()
        .map(|schedule| {
            let first = scenario(schedule);
            let second = scenario(schedule);
            assert_eq!(
                first, second,
                "schedule {schedule:?} must produce a bit-identical outcome on re-run"
            );
            first
        })
        .collect()
}

/// Scenario 1: two readers faulting disjoint series through a budget so
/// tight every touch evicts the other thread's pages — the clock sweep
/// and the fault path interleave at every step boundary.
#[test]
fn concurrent_fault_and_evict_is_deterministic_per_schedule() {
    explainit_sync::arm();
    let dir = tmp_dir("fault-evict", 0);
    {
        let mut db = Tsdb::open(&dir).expect("open");
        for host in ["h0", "h1", "h2", "h3"] {
            let key = SeriesKey::new("cpu").with_tag("host", host);
            for t in 0..300i64 {
                db.try_insert(&key, t * 60, t as f64).expect("insert");
            }
        }
        db.flush().expect("flush");
    }
    let per_series: f64 = (0..300).map(|t| t as f64).sum();

    let outcomes = exhaust(&[3, 3], |schedule| {
        let options = StorageOptions { page_budget_bytes: Some(512), ..Default::default() };
        let db = Tsdb::open_read_only_with(&dir, options).expect("reopen under budget");
        let journal: Log = Arc::new(Mutex::new(&SCRATCH, Vec::new()));
        let scan = |thread: usize, step: usize, host: &'static str| {
            let db = &db;
            let journal = journal.clone();
            Box::new(move || {
                let range = db.time_span().expect("non-empty");
                let sum: f64 = db
                    .scan_parts(&MetricFilter::all().with_tag("host", host), &range)
                    .iter()
                    .flat_map(|p| p.values)
                    .sum();
                log(&journal, format!("t{thread}s{step} {host}={sum}"));
            }) as Box<dyn FnOnce() + Send + '_>
        };
        run_schedule(
            schedule,
            vec![
                vec![scan(0, 0, "h0"), scan(0, 1, "h1"), scan(0, 2, "h0")],
                vec![scan(1, 0, "h2"), scan(1, 1, "h3"), scan(1, 2, "h2")],
            ],
        );
        let stats = db.storage_stats().expect("durable store has stats");
        assert!(stats.page_faults > 0, "tight budget must fault");
        assert!(stats.evictions > 0, "tight budget must evict");
        for entry in journal.lock().iter() {
            let sum: f64 = entry.split('=').nth(1).expect("sum field").parse().expect("f64");
            assert_eq!(sum, per_series, "no scan may lose points under eviction pressure");
        }
        format!("{}; faults={} evictions={}", render(&journal), stats.page_faults, stats.evictions)
    });
    assert_eq!(outcomes.len(), 20, "[3,3] has exactly 20 interleavings");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scenario 2: a writer ingesting + flushing while a second thread
/// repeatedly opens the same directory read-only — every interleaving of
/// "durable state advances" and "a cold reader recovers it".
#[test]
fn flush_and_read_only_open_is_deterministic_per_schedule() {
    explainit_sync::arm();
    for (idx, schedule) in interleavings(&[3, 3]).iter().enumerate() {
        let dir = tmp_dir("flush-open", idx);
        let run = |schedule: &[usize]| {
            let _ = std::fs::remove_dir_all(&dir);
            let store = Arc::new(Mutex::new(&STORE, Tsdb::open(&dir).expect("writer open")));
            let journal: Log = Arc::new(Mutex::new(&SCRATCH, Vec::new()));

            let ingest = |step: usize, base: i64| {
                let (store, journal) = (store.clone(), journal.clone());
                Box::new(move || {
                    let mut db = store.lock();
                    for t in 0..10i64 {
                        db.insert(&SeriesKey::new("m"), (base + t) * 60, t as f64);
                    }
                    drop(db);
                    log(&journal, format!("t0s{step} ingested"));
                }) as Box<dyn FnOnce() + Send>
            };
            let flush = |step: usize| {
                let (store, journal) = (store.clone(), journal.clone());
                Box::new(move || {
                    store.lock().flush().expect("flush");
                    log(&journal, format!("t0s{step} flushed"));
                }) as Box<dyn FnOnce() + Send>
            };
            let observe = |step: usize| {
                let (dir, journal) = (dir.clone(), journal.clone());
                Box::new(move || {
                    let seen = Tsdb::open_read_only(&dir).expect("read-only open").point_count();
                    log(&journal, format!("t1s{step} saw {seen}"));
                }) as Box<dyn FnOnce() + Send>
            };

            run_schedule(
                schedule,
                vec![
                    vec![ingest(0, 0), flush(1), ingest(2, 100)],
                    vec![observe(0), observe(1), observe(2)],
                ],
            );
            // A cold reader recovers WAL'd and flushed points alike, so
            // each observation must equal the points ingested so far.
            assert_eq!(store.lock().point_count(), 20, "writer sees both batches");
            render(&journal)
        };
        let first = run(schedule);
        let second = run(schedule);
        assert_eq!(first, second, "schedule {schedule:?} outcome must be bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Scenario 3: ingests racing a reader that pins a clone of the store —
/// the clone must stay frozen at the moment it was taken through every
/// interleaving of later ingests, and a fresh clone must observe them.
#[test]
fn ingest_and_pinned_clone_is_deterministic_per_schedule() {
    explainit_sync::arm();
    let outcomes = exhaust(&[3, 3], |schedule| {
        let mut seed = Tsdb::new();
        seed.insert(&SeriesKey::new("m"), 0, 1.0);
        let store = Arc::new(Mutex::new(&STORE, seed));
        let pinned: Arc<Mutex<Option<Tsdb>>> = Arc::new(Mutex::new(&PINNED_SLOT, None));
        let journal: Log = Arc::new(Mutex::new(&SCRATCH, Vec::new()));

        let ingest = |step: usize, ts: i64| {
            let (store, journal) = (store.clone(), journal.clone());
            Box::new(move || {
                let points = {
                    let mut db = store.lock();
                    db.insert(&SeriesKey::new("m"), ts, 1.0);
                    db.point_count()
                };
                log(&journal, format!("t0s{step} points={points}"));
            }) as Box<dyn FnOnce() + Send>
        };
        let pin = {
            let (store, pinned, journal) = (store.clone(), pinned.clone(), journal.clone());
            Box::new(move || {
                let snap = store.lock().clone();
                log(&journal, format!("t1s0 pinned points={}", snap.point_count()));
                *pinned.lock() = Some(snap);
            }) as Box<dyn FnOnce() + Send>
        };
        let read_pinned = {
            let (pinned, journal) = (pinned.clone(), journal.clone());
            Box::new(move || {
                let guard = pinned.lock();
                let snap = guard.as_ref().expect("pinned in step 0");
                log(&journal, format!("t1s1 pinned points={}", snap.point_count()));
            }) as Box<dyn FnOnce() + Send>
        };
        let repin = {
            let (store, pinned, journal) = (store.clone(), pinned.clone(), journal.clone());
            Box::new(move || {
                let before = pinned.lock().as_ref().expect("pinned").point_count();
                let snap = store.lock().clone();
                assert!(snap.point_count() >= before, "a later clone never holds less");
                log(&journal, format!("t1s2 repinned points={}", snap.point_count()));
            }) as Box<dyn FnOnce() + Send>
        };

        run_schedule(
            schedule,
            vec![
                vec![ingest(0, 60), ingest(1, 120), ingest(2, 180)],
                vec![pin, read_pinned, repin],
            ],
        );
        // The pinned clone is immune to every later ingest: steps 0 and 1
        // of the reader must agree with each other in any schedule.
        let entries = journal.lock().clone();
        let pinned_line = entries.iter().find(|e| e.starts_with("t1s0")).expect("pin ran");
        let reread_line = entries.iter().find(|e| e.starts_with("t1s1")).expect("reread ran");
        assert_eq!(
            pinned_line.trim_start_matches("t1s0 pinned"),
            reread_line.trim_start_matches("t1s1 pinned"),
            "a pinned clone must not see later ingests"
        );
        assert_eq!(store.lock().point_count(), 4, "three ingests after the seeding insert");
        render(&journal)
    });
    assert_eq!(outcomes.len(), 20, "[3,3] has exactly 20 interleavings");
}
