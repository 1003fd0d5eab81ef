//! The durable storage engine under [`crate::Tsdb`].
//!
//! On-disk layout of a store directory:
//!
//! ```text
//! <dir>/wal                 append-only ingest log (length-prefixed,
//!                           CRC-checksummed records; truncated tail
//!                           recovered on open)
//! <dir>/seg-NNNNNNNN.seg    immutable time-partitioned segments holding
//!                           per-series compressed chunks (delta-of-delta
//!                           timestamps + XOR values), whole-file CRC
//! <dir>/seg-NNNNNNNN.tmp    in-flight segment write (ignored + removed
//!                           on open)
//! ```
//!
//! Lifecycle: [`crate::Tsdb::open`] replays segments and the WAL into an
//! in-memory index whose sealed point data stays *compressed* (chunks
//! decode lazily, per scan, per time range); `try_insert` appends to the
//! WAL and the in-memory head; [`crate::Tsdb::flush`] makes everything
//! durable by sealing heads into a new segment and truncating the WAL
//! (auto-compacting when small segments pile up). Crash recovery
//! invariants live in [`recover`]; the exact byte formats in [`wal`] and
//! [`segment`].

pub mod chunk;
pub mod compact;
pub mod failpoint;
pub mod pager;
pub mod recover;
pub mod segment;
pub mod wal;

use std::path::{Path, PathBuf};

pub use chunk::{ChunkMeta, SealedChunk, CHUNK_MAX_POINTS};
pub use pager::{Pager, PagerCounters};

/// Number of sealed segments that triggers an automatic small-segment
/// merge at the end of [`crate::Tsdb::flush`].
pub const AUTO_COMPACT_SEGMENTS: usize = 8;

/// A typed storage failure. I/O problems keep their source error and the
/// path context; structural problems name what was malformed. Nothing on
/// the storage paths panics on I/O — every fallible byte-level step
/// surfaces here.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O failure, with what the engine was doing.
    Io {
        /// Human-readable operation context (path + verb).
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A structurally invalid file or chunk.
    Corrupt {
        /// What was being parsed (file path or `"chunk"`).
        what: String,
        /// What was wrong.
        detail: String,
    },
    /// A durable-only operation was called on a purely in-memory store.
    NotDurable,
    /// A mutating operation was called on a read-only handle
    /// ([`crate::Tsdb::open_read_only`]).
    ReadOnly,
}

impl StorageError {
    pub(crate) fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        StorageError::Io { context: context.into(), source }
    }

    pub(crate) fn corrupt(what: impl std::fmt::Display, detail: impl Into<String>) -> Self {
        StorageError::Corrupt { what: what.to_string(), detail: detail.into() }
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io { context, source } => write!(f, "{context}: {source}"),
            StorageError::Corrupt { what, detail } => write!(f, "corrupt {what}: {detail}"),
            StorageError::NotDurable => {
                write!(f, "store has no backing directory (open it with Tsdb::open)")
            }
            StorageError::ReadOnly => {
                write!(f, "store was opened read-only (writes require Tsdb::open)")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Open-time configuration for a durable store
/// ([`crate::Tsdb::open_with`] / [`crate::Tsdb::open_read_only_with`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageOptions {
    /// Memory budget in bytes over resident compressed chunk bytes.
    /// `None` (the default) is unbounded: every chunk stays resident once
    /// touched, matching the pre-paging behaviour of plain `open`.
    pub page_budget_bytes: Option<u64>,
    /// Retention window in timestamp units. Whole segments whose `max_ts`
    /// falls more than `retention` behind the store's global maximum
    /// timestamp are dropped — file and all — without decoding a single
    /// chunk. `None` keeps everything.
    pub retention: Option<i64>,
}

/// Counters a durable store exposes for reports and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageStats {
    /// Live segment files.
    pub segments: usize,
    /// Total compressed chunk payload bytes across live segments.
    pub segment_bytes: u64,
    /// Sealed chunks across all series.
    pub chunks: usize,
    /// Current WAL length in bytes (committed records only).
    pub wal_bytes: u64,
    /// Segment ids reclaimed by compaction/supersession since open — the
    /// freelist: their files are deleted and the ids are never reused
    /// (ids stay monotone so `supersedes` references are unambiguous
    /// across crashes).
    pub freelist: Vec<u64>,
    /// All accounted resident bytes: compressed chunk bytes plus decoded
    /// caches (the per-chunk decode caches).
    pub resident_bytes: u64,
    /// Compressed chunk bytes currently resident (pinned + paged-in).
    pub resident_chunk_bytes: u64,
    /// High-water mark of `resident_chunk_bytes` since open — the number
    /// the paging gate checks against `1.25 × page_budget_bytes`.
    pub peak_resident_chunk_bytes: u64,
    /// Cold chunk loads since open (one positioned read each).
    pub page_faults: u64,
    /// Pages and caches dropped to stay under the budget.
    pub evictions: u64,
}

/// One live segment file.
#[derive(Debug)]
pub struct SegmentHandle {
    /// Monotone segment id (encoded in the file name and header).
    pub id: u64,
    /// Absolute path of the segment file.
    pub path: PathBuf,
    /// Compressed chunk payload bytes inside the file.
    pub data_bytes: u64,
    /// Largest timestamp across the segment's chunks (`None` for a
    /// segment holding only empty series) — what retention compares
    /// against the global maximum without opening the file.
    pub max_ts: Option<i64>,
}

/// The mutable engine state a durable [`crate::Tsdb`] carries. Cloning a
/// durable store detaches from this (clones are in-memory snapshot views
/// sharing the compressed chunk bytes), so exactly one handle ever writes
/// the directory.
#[derive(Debug)]
pub struct Storage {
    /// The store directory.
    pub dir: PathBuf,
    /// The open WAL appender. `None` on read-only handles, which never
    /// create, extend, or truncate the log.
    pub wal: Option<wal::Wal>,
    /// Committed WAL length observed at open by a read-only handle (a
    /// writer reads its live length from `wal` instead).
    pub wal_tail: u64,
    /// Live segments, ascending id.
    pub segments: Vec<SegmentHandle>,
    /// Next segment id (monotone; never reuses freed ids).
    pub next_segment_id: u64,
    /// Ids whose files were reclaimed (superseded by compaction).
    pub freelist: Vec<u64>,
    /// First WAL-append failure since the last flush, surfaced by the
    /// next `flush()` — the infallible `Tsdb::insert` signature cannot
    /// return it at the call site.
    pub sticky_error: Option<StorageError>,
    /// Set when a series was wholesale-replaced (`Tsdb::insert_series` or
    /// a WAL `Replace` replay): stale chunks for that key may live in old
    /// segments, so the next flush must rewrite every segment from the
    /// in-memory view instead of appending an incremental one.
    pub needs_rewrite: bool,
    /// Chunks sealed by a flush whose segment write then failed: they are
    /// resident in memory but have no durable home yet, so the next flush
    /// must retry writing them (their WAL records are retained too — the
    /// WAL is only truncated after the segment write succeeds, so either
    /// path recovers them).
    pub pending: Vec<(crate::SeriesKey, Vec<chunk::EncodedChunk>)>,
    /// The options this store was opened with (flush applies
    /// `options.retention` after each successful segment write).
    pub options: StorageOptions,
}

impl Storage {
    /// Allocates the next monotone segment id.
    pub fn take_segment_id(&mut self) -> u64 {
        let id = self.next_segment_id;
        self.next_segment_id += 1;
        id
    }

    /// Whether this handle may mutate the directory.
    pub fn is_read_only(&self) -> bool {
        self.wal.is_none()
    }

    /// Current committed WAL length in bytes.
    pub fn wal_len(&self) -> u64 {
        match &self.wal {
            Some(w) => w.len(),
            None => self.wal_tail,
        }
    }
}

/// CRC-32 (IEEE 802.3, the zlib polynomial) over a byte slice — the
/// checksum both the WAL records and segment files carry.
pub fn crc32(bytes: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    // Table built on first use; 1 KiB, shared process-wide. Init runs
    // under flush (tsdb.shared) or decode (tsdb.chunk.decoded) paths,
    // hence a rank above both; it does no I/O and takes no locks.
    static CRC32_TABLE: explainit_sync::LockClass =
        explainit_sync::LockClass::new("tsdb.crc32.table", 55);
    static TABLE: explainit_sync::OnceLock<[u32; 256]> =
        explainit_sync::OnceLock::new(&CRC32_TABLE);
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Fsyncs a directory so a just-renamed file inside it survives a crash
/// (a no-op error on platforms that refuse directory handles is ignored —
/// the data file itself is already synced).
pub(crate) fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    explainit_sync::check_io("fsyncing a storage directory");
    match std::fs::File::open(dir) {
        Ok(f) => {
            let _ = f.sync_all();
            Ok(())
        }
        Err(e) => Err(StorageError::io(format!("opening {} for sync", dir.display()), e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn storage_error_display_and_source() {
        let e = StorageError::io("reading x", std::io::Error::other("boom"));
        assert!(e.to_string().contains("reading x"));
        assert!(std::error::Error::source(&e).is_some());
        let c = StorageError::corrupt("seg-1", "bad magic");
        assert_eq!(c.to_string(), "corrupt seg-1: bad magic");
        assert!(StorageError::NotDurable.to_string().contains("Tsdb::open"));
    }
}
