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
//! db.try_insert(&key, 0, 1.2)?;
//! db.try_insert(&key, 60, 1.4)?;
//! let hits = db.find(&MetricFilter::name("disk"));
//! assert_eq!(hits.len(), 1);
//! # Ok::<(), explainit_tsdb::StorageError>(())
//! ```
//!
//! # The open/flush lifecycle
//!
//! [`Tsdb::new`] is purely in-memory. [`Tsdb::open`] binds the store to a
//! directory managed by the [`storage`] engine (append-only WAL +
//! immutable compressed segment files) and recovers whatever is there —
//! including after a crash: torn WAL tails truncate to the last committed
//! record, in-flight segment writes are discarded, and the files a
//! committed segment superseded are deleted. A checksummed WAL record that does not
//! decode is no crash but foreign bytes: the open fails with
//! [`StorageError::Corrupt`] and the log is left as it was. That directory is the store's only on-disk
//! form: whatever reads a store back from disk goes through `Tsdb::open*`.
//!
//! * **Ingest** (`try_insert`, `try_insert_batch`) appends one WAL batch
//!   record per call and updates the in-memory index through the
//!   [`Series::push`] insert contract — an in-memory store is filled the
//!   same way, minus the log. A write that fails is that call's error and
//!   is applied nowhere. Records are buffered; they survive a crash only
//!   after the next `sync()` or `flush()`.
//! * **[`Tsdb::flush`]** is the durability point: it fsyncs the WAL,
//!   writes in-memory heads as delta-of-delta + XOR compressed chunks of
//!   one new segment file, which supersedes the segments retention
//!   expired, adopts them from it (a failed write changes nothing in
//!   memory), truncates the WAL and deletes the superseded files. A flush
//!   *compacts* when small segments accumulate, when a write landed in a
//!   series' sealed range, and always under [`Tsdb::compact`]: its one
//!   segment then holds every series, each series' round-sized chunks
//!   merged into chunks of up to [`storage::CHUNK_MAX_POINTS`] points, and
//!   supersedes every other segment — so no two segments ever hold
//!   overlapping chunks, and an open that finds two is `Corrupt`.
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
//! block; all three are the state of one object, the chunk's page slot,
//! which every clone of the store shares. A scan whose chunks are many
//! faults and decodes them on the worker pool; one that cannot read a
//! chunk fails. A whole-series read ([`Series::points`]) walks the same
//! blocks a scan hands out, and one object — the pager — counts the
//! faults, the evictions and the decodes.
//!
//! Every sealed chunk is a chunk of a live segment; those a flush just
//! wrote start Paged, with no fault counted.
//! [`StorageOptions::page_budget_bytes`] bounds pages plus blocks: when a
//! fault, a decode or a written page pushes them over budget, a clock
//! (second chance) sweep evicts slots' blocks and pages back to Cold,
//! behind `&self` on any handle. Scan slices hold their blocks, so they
//! stay valid through eviction. All of it is observable via
//! [`Tsdb::storage_stats`]: `resident_bytes`, `resident_chunk_bytes`,
//! `peak_resident_chunk_bytes`, `page_faults`, `evictions`. Nothing is
//! pinned; with no budget (the default) nothing ever evicts.
//!
//! [`StorageOptions::retention`] expires every chunk whose newest point
//! fell behind the retention window, by metadata alone. Whole segments of
//! them go — file and all, and their chunks in memory by segment id — at
//! open, and at every flush, whose segment supersedes them; and a flush
//! writes, and its writer adopts, only the chunks the window keeps, so a
//! compaction drops the expired chunks of the segments it rewrites.
//!
//! # Locking discipline
//!
//! Every lock in this crate is an [`explainit_sync`] wrapper carrying a
//! static `LockClass` rank (pager clock 60 → pager slots 70 → pooled
//! decode handoff 75 → failpoint plans 80),
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
pub use storage::{StorageError, StorageOptions, StorageStats};
pub use store::{MetricFilter, SeriesId, SeriesSlice, SliceColumn, TagFilter, Tsdb};
