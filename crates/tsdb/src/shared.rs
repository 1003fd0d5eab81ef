//! A shareable, versioned store handle for long-lived sessions.
//!
//! [`crate::Tsdb`] is a plain value: consumers that want a stable view
//! clone it (the query catalog's `register_tsdb` snapshot-at-bind
//! contract). A long-lived session layered on top of that contract goes
//! stale the moment an ingester writes new points — it would have to
//! re-bind after every write to see them.
//!
//! [`SharedTsdb`] closes that gap: one store behind an `Arc<RwLock<..>>`
//! with a **generation counter** that advances on every mutation. Readers
//! take cheap shared-lock views; a binding remembers the generation it
//! snapshotted at and re-snapshots only when the counter has moved, so
//! "fresh ingests become visible" costs one counter comparison per query
//! and one clone per actual change.

use std::sync::Arc;

use explainit_sync::{LockClass, RwLock};

use crate::model::SeriesKey;
use crate::store::Tsdb;

/// The outermost lock of the workspace: a flush legitimately performs
/// WAL/segment I/O under the write side, so the rank sits well below
/// [`explainit_sync::IO_LOCK_RANK_THRESHOLD`], and every other lock
/// (catalog bindings, decode caches, pager) nests inside it.
static SHARED_TSDB: LockClass = LockClass::new("tsdb.shared", 10);

/// The generation a [`SharedTsdb`] starts at.
pub const INITIAL_GENERATION: u64 = 0;

struct Versioned {
    generation: u64,
    db: Tsdb,
}

/// A cloneable handle to one time series store shared between ingesters
/// and readers. Cloning the handle shares the store; mutations through any
/// clone advance the generation seen by all of them.
#[derive(Clone)]
pub struct SharedTsdb {
    inner: Arc<RwLock<Versioned>>,
}

impl std::fmt::Debug for SharedTsdb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let guard = self.inner.read();
        f.debug_struct("SharedTsdb")
            .field("generation", &guard.generation)
            .field("series", &guard.db.series_count())
            .finish()
    }
}

impl Default for SharedTsdb {
    fn default() -> Self {
        SharedTsdb::new(Tsdb::new())
    }
}

impl SharedTsdb {
    /// Wraps a store in a shared handle at [`INITIAL_GENERATION`].
    pub fn new(db: Tsdb) -> Self {
        SharedTsdb {
            inner: Arc::new(RwLock::new(
                &SHARED_TSDB,
                Versioned { generation: INITIAL_GENERATION, db },
            )),
        }
    }

    /// Opens a durable store at `dir` (see [`Tsdb::open`]) behind a shared
    /// handle. This handle owns the directory's single writer; snapshots
    /// taken from it are detached in-memory views.
    pub fn open(dir: impl AsRef<std::path::Path>) -> Result<Self, crate::storage::StorageError> {
        Ok(SharedTsdb::new(Tsdb::open(dir)?))
    }

    /// [`SharedTsdb::open`] with explicit [`crate::storage::StorageOptions`]
    /// (page budget, retention) — see [`Tsdb::open_with`].
    pub fn open_with(
        dir: impl AsRef<std::path::Path>,
        options: crate::storage::StorageOptions,
    ) -> Result<Self, crate::storage::StorageError> {
        Ok(SharedTsdb::new(Tsdb::open_with(dir, options)?))
    }

    /// Flushes the underlying durable store (see [`Tsdb::flush`]).
    ///
    /// Takes the write lock but does **not** advance the generation: a
    /// flush changes only the physical representation (heads sealed into
    /// compressed segments), never the logical contents, so existing
    /// bindings stay valid and no reader needs to re-snapshot.
    pub fn flush(&self) -> Result<(), crate::storage::StorageError> {
        self.inner.write().db.flush()
    }

    /// The current generation. Advances by at least one for every mutating
    /// call; equal generations from the same handle imply identical
    /// contents.
    pub fn generation(&self) -> u64 {
        self.inner.read().generation
    }

    /// True when both handles share one underlying store.
    pub fn same_store(&self, other: &SharedTsdb) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Runs a closure over a shared-lock view of the store.
    pub fn with<R>(&self, f: impl FnOnce(&Tsdb) -> R) -> R {
        f(&self.inner.read().db)
    }

    /// Runs a closure with mutable access and advances the generation.
    pub fn ingest<R>(&self, f: impl FnOnce(&mut Tsdb) -> R) -> R {
        let mut guard = self.inner.write();
        let r = f(&mut guard.db);
        guard.generation += 1;
        r
    }

    /// Inserts one observation (convenience over [`SharedTsdb::ingest`]).
    pub fn insert(&self, key: &SeriesKey, ts: i64, value: f64) {
        self.ingest(|db| db.insert(key, ts, value));
    }

    /// A point-in-time copy of the store with the generation it was taken
    /// at. The clone happens under the shared lock, so the pair is
    /// consistent: re-checking [`SharedTsdb::generation`] against the
    /// returned generation detects any later ingest.
    pub fn snapshot(&self) -> (u64, Tsdb) {
        let guard = self.inner.read();
        (guard.generation, guard.db.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_advances_on_mutation() {
        let shared = SharedTsdb::default();
        assert_eq!(shared.generation(), INITIAL_GENERATION);
        shared.insert(&SeriesKey::new("m"), 0, 1.0);
        assert_eq!(shared.generation(), INITIAL_GENERATION + 1);
        shared.ingest(|db| {
            db.insert(&SeriesKey::new("m"), 60, 2.0);
            db.insert(&SeriesKey::new("m"), 120, 3.0);
        });
        assert_eq!(shared.generation(), INITIAL_GENERATION + 2);
    }

    #[test]
    fn clones_share_the_store() {
        let a = SharedTsdb::default();
        let b = a.clone();
        assert!(a.same_store(&b));
        b.insert(&SeriesKey::new("m"), 0, 1.0);
        assert_eq!(a.generation(), b.generation());
        assert_eq!(a.with(Tsdb::point_count), 1);
        assert!(!a.same_store(&SharedTsdb::default()));
    }

    #[test]
    fn snapshot_is_a_consistent_point_in_time_copy() {
        let shared = SharedTsdb::default();
        shared.insert(&SeriesKey::new("m"), 0, 1.0);
        let (gen_then, snap) = shared.snapshot();
        shared.insert(&SeriesKey::new("m"), 60, 2.0);
        assert_eq!(snap.point_count(), 1); // unaffected by the later write
        assert!(shared.generation() > gen_then);
    }
}
