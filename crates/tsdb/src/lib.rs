//! A tagged time series database with an optional durable storage engine.
//!
//! This is the storage substrate of the ExplainIt! reproduction, standing in
//! for the OpenTSDB/Druid/Parquet sources of the paper (§2, §4). The data
//! model is the paper's: an observation has a timestamp (epoch minutes in
//! practice), a metric *name*, a set of key-value *tags*, and a numeric
//! value. A [`Series`] is one `(name, tags)` combination; a [`Tsdb`] holds
//! many series behind an inverted tag index and answers filtered scans
//! and range queries. Putting series side by side on one timestamp grid
//! (with the paper's "interpolate to the closest non-null observation"
//! policy) is not done here: it is the family statement's pivot, in
//! `explainit-query`.
//!
//! ```
//! use explainit_tsdb::{SeriesKey, Tsdb, MetricFilter};
//!
//! let mut db = Tsdb::new();
//! let key = SeriesKey::new("disk").with_tag("host", "datanode-1").with_tag("type", "read_latency");
//! db.insert(&key, 0, 1.2);
//! db.insert(&key, 60, 1.4);
//! let hits = db.find(&MetricFilter::name("disk"));
//! assert_eq!(hits.len(), 1);
//! ```
//!
//! # The open/flush lifecycle
//!
//! [`Tsdb::new`] is purely in-memory. [`Tsdb::open`] binds the store to a
//! directory managed by the [`storage`] engine (append-only WAL +
//! immutable compressed segment files) and recovers whatever is there —
//! including after a crash: torn WAL tails truncate to the last committed
//! record, in-flight segment writes are discarded, and half-finished
//! compactions roll forward. A checksummed WAL record that does not
//! decode is no crash but foreign bytes: the open fails with
//! [`StorageError::Corrupt`] and the log is left as it was. That directory is the store's only on-disk
//! form: whatever reads a store back from disk goes through `Tsdb::open*`.
//!
//! * **Ingest** (`insert`, `try_insert`, `try_insert_batch`) appends one
//!   WAL batch record per call and updates the in-memory index through
//!   the [`Series::push`] insert contract — an in-memory store is filled
//!   the same way, minus the log. Records are buffered; they survive a
//!   crash only after the next `sync()` or `flush()`.
//! * **[`Tsdb::flush`]** is the durability point: it fsyncs the WAL,
//!   seals in-memory heads into delta-of-delta + XOR compressed chunks
//!   inside a new segment file, truncates the WAL, and auto-compacts when
//!   small segments accumulate.
//! * **Scans** over a reopened store decode chunks *lazily*: `scan_parts*`
//!   prunes on chunk `[min_ts, max_ts]` metadata and only decompresses
//!   chunks overlapping the query's time range ([`Tsdb::decode_count`]
//!   makes this observable).
//! * **Clones** of a durable store detach from the directory (in-memory
//!   snapshot views sharing compressed bytes) — exactly one handle writes.
//!
//! # Out-of-core residency: Cold → Paged → Decoded
//!
//! A reopened store keeps only the per-series *chunk directory* resident
//! (min/max timestamp, point count, file offset, byte length, CRC), and
//! opening reads nothing else. Each chunk's compressed bytes live **Cold**
//! on disk until a scan touches them; the first touch faults them in with
//! one positioned read checked against the chunk's CRC (**Paged**, counted
//! as a page fault), and decoding on top of that yields the **Decoded**
//! per-chunk cache. A scan whose chunks are many faults and decodes them
//! on the worker pool; one that cannot read a chunk fails. Those three states are all
//! there is: a whole-series read ([`Series::points`]) walks the same
//! per-chunk caches a scan hands out, and one object — the pager — counts
//! the faults, the evictions and the decodes.
//!
//! [`StorageOptions::page_budget_bytes`] bounds this: a clock (second
//! chance) sweep evicts paged compressed bytes back to Cold whenever a
//! fault pushes the resident total over budget, and every decoded cache
//! is accounted too — [`Tsdb::evict_to_budget`] (run automatically at
//! each flush) sheds them once the total overshoots. All of it is
//! observable via [`Tsdb::storage_stats`]: `resident_bytes`,
//! `resident_chunk_bytes`, `peak_resident_chunk_bytes`, `page_faults`,
//! `evictions`. Chunks sealed in this process stay pinned resident until
//! they reach a segment file and the store reopens; with no budget (the
//! default) nothing ever evicts, preserving the historical behaviour.
//!
//! [`StorageOptions::retention`] drops whole segments — file and all —
//! whose newest point fell behind the retention window, by directory
//! metadata alone, at open and after every flush.
//!
//! # Locking discipline
//!
//! Every lock in this crate is an [`explainit_sync`] wrapper carrying a
//! static `LockClass` rank (chunk decode caches 50 → pager clock 60 →
//! pager slots 70 → pooled decode handoff 75 → failpoint plans 80),
//! checked at runtime by the lockdep machinery rather than documented as
//! prose: in debug builds
//! (or under `EXPLAINIT_LOCKDEP=1`) any acquisition that inverts the
//! rank order, nests a class inside itself, or closes a cycle in the
//! observed class-order graph panics immediately with both witness
//! stacks, and faulting a page or fsyncing while holding a class ranked
//! at or above `IO_LOCK_RANK_THRESHOLD` is flagged the same way. The
//! rank table and nesting rules live in ROADMAP.md ("Concurrency
//! discipline"); the poisoning policy is documented on `explainit_sync`.
//!
//! # Read-only opens
//!
//! [`Tsdb::open_read_only`] observes an existing store without the
//! writer role: no WAL creation/extension/truncation, no tmp-file or
//! superseded/expired segment deletion, and every mutating surface fails
//! with [`StorageError::ReadOnly`]. Any number of read-only handles may
//! coexist (each a consistent view as of its open), including alongside
//! one writer.

#![forbid(unsafe_code)]

mod glob;
mod model;
pub mod storage;
mod store;

pub use glob::{glob_literal_prefix, glob_match, is_glob, wildcard_match};
pub use model::{DataPoint, Series, SeriesKey, TimeRange};
pub use storage::pager::PagerCounters;
pub use storage::{StorageError, StorageOptions, StorageStats};
pub use store::{MetricFilter, SeriesId, SeriesSlice, TagFilter, Tsdb};
