//! The durable storage engine under [`crate::Tsdb`].
//!
//! On-disk layout of a store directory:
//!
//! ```text
//! <dir>/wal                 append-only ingest log (length-prefixed,
//!                           CRC-checksummed point-batch records, one
//!                           kind; a torn tail is truncated on open, a
//!                           checksummed record that does not decode
//!                           fails the open)
//! <dir>/seg-NNNNNNNN.seg    immutable time-partitioned segments holding
//!                           per-series compressed chunks (delta-of-delta
//!                           timestamps + XOR values); `EXPLSEG2`: a
//!                           directory with its own CRC and a CRC per
//!                           chunk (`EXPLSEG1`, one whole-file CRC, is
//!                           read but no longer written)
//! <dir>/seg-NNNNNNNN.tmp    in-flight segment write (ignored + removed
//!                           on open)
//! ```
//!
//! Lifecycle: [`crate::Tsdb::open`] replays segments and the WAL into an
//! in-memory index whose sealed point data stays *compressed*: opening
//! reads each segment's directory only, and chunks fault in, are checked
//! against their CRC and decode lazily, per scan, per time range — on the
//! worker pool when a scan has many of them. A chunk that cannot be read
//! is an error of the scan that touched it. `try_insert` appends to the
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
    /// First WAL-append failure, or unseal that could not read a sealed
    /// chunk, since the last flush, surfaced by the next `flush()` — the
    /// infallible `Tsdb::insert` signature cannot return it at the call
    /// site.
    pub sticky_error: Option<StorageError>,
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
/// checksum WAL records, segment directories and chunk payloads carry.
///
/// Slicing-by-8: each step folds eight input bytes through eight lookup
/// tables at once, and a bytewise loop over table 0 finishes the last
/// `len % 8` bytes. The value is the textbook one-byte-per-step CRC's, bit
/// for bit; only the speed differs (≈ 4× on segment-sized inputs).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc = !0u32;
    for w in words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in tail {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The slicing-by-8 tables, built at compile time: `[0]` is the classic
/// bytewise table, and `[k][b]` advances `[k - 1][b]` by one zero byte — the
/// CRC contribution of byte `b` followed by `k` zero bytes.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    const POLY: u32 = 0xEDB8_8320;
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
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

    /// CRC-32 from its definition, a byte at a time and a bit at a time
    /// within it — no tables: the reference the sliced kernel must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn crc32_equals_the_bytewise_reference() {
        let mut s = 0x853C_49E6_748F_EA9Bu64;
        let random: Vec<u8> = (0..(1 << 20))
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 32) as u8
            })
            .collect();
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        // Every length across the word/tail split, from every alignment.
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &random[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "start={start} len={len}");
            }
        }
        assert_eq!(crc32(&random), crc32_bytewise(&random), "1 MiB");
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
