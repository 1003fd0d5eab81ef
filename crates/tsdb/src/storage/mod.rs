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
//!                           chunk
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
//! durable with one segment write, which says in its header what it
//! supersedes: the heads, superseding the segments retention expired — or,
//! when small segments pile up or a write landed in a sealed range, every
//! series re-chunked ([`compact::rechunk`]), superseding every segment —
//! and holds only the chunks retention keeps.
//! It adopts the chunks it wrote, truncates the WAL and deletes the
//! superseded files. Every sealed chunk in memory is a chunk of a live
//! segment, and no two live segments hold overlapping chunks of a series.
//! Crash recovery invariants live in [`recover`]; the exact byte formats
//! in [`wal`] and [`segment`].

pub mod chunk;
pub mod compact;
pub mod failpoint;
pub mod pager;
pub mod recover;
pub mod segment;
pub mod wal;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::model::{Series, SeriesKey};
use chunk::EncodedChunk;
pub use chunk::{ChunkMeta, SealedChunk, CHUNK_MAX_POINTS};
pub use pager::Pager;

/// Bytes the WAL and the segment writer gather before a write: large
/// enough that a write costs its bytes, not its system call.
pub(crate) const WRITE_BUFFER: usize = 64 << 10;

/// Number of live segments a [`crate::Tsdb::flush`] would leave that makes
/// it compact: its one write then rewrites every series instead.
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
    /// A batch whose WAL record would be longer than the log accepts:
    /// refused before anything is logged or applied, since replay would
    /// read so long a record as a torn tail. Split the batch.
    RecordTooLarge {
        /// The record's payload length in bytes (saturating).
        bytes: u64,
        /// The longest payload the WAL accepts.
        limit: u32,
    },
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
            StorageError::RecordTooLarge { bytes, limit } => {
                write!(f, "a WAL record of {bytes} bytes exceeds the {limit}-byte limit")
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
    /// Retention window in timestamp units: a chunk whose newest point
    /// falls more than `retention` behind the store's newest point has
    /// expired. A segment holding only expired chunks is dropped — file
    /// and all — at open and at every flush, and a flush writes only the
    /// chunks the window keeps: of the heads, and when it compacts, of
    /// every series. A store that compacts so holds at most the window,
    /// one chunk's span and the flushes since its last compaction. Nothing
    /// is decoded to expire it. `None` keeps everything.
    pub retention: Option<i64>,
}

/// Counters a durable store exposes for reports and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Live segment files.
    pub segments: usize,
    /// Total compressed chunk payload bytes across live segments.
    pub segment_bytes: u64,
    /// Sealed chunks across all series.
    pub chunks: usize,
    /// Current WAL length in bytes (committed records only).
    pub wal_bytes: u64,
    /// Segment ids reclaimed by supersession or retention since open — the
    /// freelist: their files are deleted and the ids are never reused
    /// (ids stay monotone so `supersedes` references are unambiguous
    /// across crashes).
    pub freelist: Vec<u64>,
    /// What the page budget covers: compressed chunk bytes plus the
    /// decoded blocks the chunks' page slots hold. A block a scan still
    /// reads after the clock evicted it from its slot is not counted.
    pub resident_bytes: u64,
    /// Compressed chunk bytes currently resident (paged in, and the pages
    /// a pooled decode holds in flight).
    pub resident_chunk_bytes: u64,
    /// High-water mark of `resident_chunk_bytes` since open — the number
    /// the paging gate checks against `1.25 × page_budget_bytes`.
    pub peak_resident_chunk_bytes: u64,
    /// Cold chunk loads since open (one positioned read each).
    pub page_faults: u64,
    /// Slots whose block and pageable page the clock dropped to stay
    /// under the budget.
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

/// The mutable engine state a durable [`crate::Tsdb`] carries: the WAL
/// and the live segments, which hold every sealed chunk of the in-memory
/// series. Cloning a durable store detaches from this (clones are
/// in-memory snapshot views sharing the compressed chunk bytes), so
/// exactly one handle ever writes the directory.
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
    /// Ids whose files were reclaimed (superseded by a write, or expired).
    pub freelist: Vec<u64>,
    /// The options this store was opened with (each flush's write
    /// supersedes the segments `options.retention` expired).
    pub options: StorageOptions,
}

impl Storage {
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

    /// The one way segments join and leave the store: writes `view` (the
    /// series at `order`, with their chunks) as a segment superseding
    /// `supersedes`, and reads its directory back. Only then do the segment
    /// list, the next id and the freelist change, and every series adopts
    /// its part ([`Series::adopt`]): the chunks of superseded segments
    /// leave, and the new ones join, Paged with the bytes just written. An
    /// empty `view` writes nothing. Returns the files to delete
    /// ([`Storage::remove`]). On a failure memory is unchanged, and what
    /// the write left on disk — the `.tmp`, or the file already renamed
    /// into place — is removed, best effort: the WAL and the old segments
    /// are the truth, and the retry writes under the same id, so its
    /// rename replaces any file the failure left.
    pub(crate) fn adopt(
        &mut self,
        series: &mut [Series],
        order: &[usize],
        view: &[(SeriesKey, Vec<EncodedChunk>)],
        supersedes: &[u64],
        pager: &Arc<Pager>,
    ) -> Result<Vec<PathBuf>, StorageError> {
        let mut adopted = vec![Vec::new(); series.len()];
        if !view.is_empty() {
            let id = self.next_segment_id;
            let written = segment::write_segment(&self.dir, id, supersedes, view)
                .and_then(|handle| Ok((segment::map_segment(&handle.path)?, handle)));
            let (mapped, handle) = match written {
                Ok(written) => written,
                Err(e) => {
                    let path = segment::segment_path(&self.dir, id);
                    let _ = std::fs::remove_file(path.with_extension("tmp"));
                    let _ = std::fs::remove_file(path);
                    return Err(e);
                }
            };
            self.next_segment_id += 1;
            for ((&i, (_, chunks)), on_disk) in order.iter().zip(view).zip(&mapped.series) {
                debug_assert_eq!(series[i].key, on_disk.key);
                let slots = chunks.iter().zip(&on_disk.chunks).map(|(chunk, at)| {
                    debug_assert_eq!(chunk.meta, at.meta);
                    SealedChunk::paged(chunk.clone(), mapped.cold_ref(at), pager)
                });
                adopted[i] = slots.collect();
            }
            self.segments.push(handle);
        }
        let (gone, live): (Vec<_>, Vec<_>) =
            self.segments.drain(..).partition(|s| supersedes.contains(&s.id));
        self.segments = live;
        self.freelist.extend_from_slice(supersedes);
        for (s, chunks) in series.iter_mut().zip(adopted) {
            s.adopt(supersedes, chunks);
        }
        Ok(gone.into_iter().map(|s| s.path).collect())
    }

    /// Deletes `paths`, the files of the segments a committed
    /// [`Storage::adopt`] superseded, in one loop. Whatever this leaves
    /// behind — the loop stops at the first failure of the `CompactDelete`
    /// failpoint, as a crash would — memory and the live segments already
    /// agree, and the next writable open deletes a superseded file itself.
    pub(crate) fn remove(&self, paths: &[PathBuf]) -> Result<(), StorageError> {
        if paths.is_empty() {
            return Ok(());
        }
        let mut first_err = None;
        for path in paths {
            if let Some(e) = failpoint::trip(failpoint::Point::CompactDelete, path) {
                first_err = Some(e);
                break;
            }
            if let Err(e) = std::fs::remove_file(path) {
                let e = StorageError::io(format!("removing {}", path.display()), e);
                first_err = first_err.or(Some(e));
            }
        }
        sync_dir(&self.dir)?;
        first_err.map_or(Ok(()), Err)
    }
}

/// The retention cutoff: `retention` behind the `newest` of the store's
/// points (the live segments' and those not yet in one). `None` without a
/// window or a point.
pub(crate) fn cutoff(retention: Option<i64>, newest: impl Iterator<Item = i64>) -> Option<i64> {
    let retention = retention?;
    Some(newest.max()?.saturating_sub(retention))
}

/// Whether a segment or a chunk whose newest point is `max_ts` has fallen
/// behind `cutoff`: retention drops it whole.
pub(crate) fn expired(max_ts: Option<i64>, cutoff: Option<i64>) -> bool {
    max_ts.zip(cutoff).is_some_and(|(m, c)| m < c)
}

/// CRC-32 (IEEE 802.3, the zlib polynomial) over a byte slice — the
/// checksum WAL records, segment directories and chunk payloads carry.
///
/// Braided, as zlib computes it: the input goes in blocks of
/// [`CRC_LANES`] 8-byte words, and word `j` of every block feeds lane `j`,
/// so the lanes' table lookups do not wait on each other. Each word folds
/// through the eight [`CRC32_BRAID`] tables, which advance its bytes past
/// the other lanes' words to where the lane's next word starts. The last
/// whole block combines the lanes into one CRC a word at a time, and the
/// bytewise table finishes the bytes after it (fewer than a block). The
/// value is the textbook one-byte-per-step CRC's, bit for bit; only the
/// speed differs.
pub fn crc32(bytes: &[u8]) -> u32 {
    let (blocks, rest) = bytes.as_chunks::<{ 8 * CRC_LANES }>();
    let mut crc = !0u32;
    if let Some((last, blocks)) = blocks.split_last() {
        let mut lanes = [0u64; CRC_LANES];
        lanes[0] = u64::from(crc);
        for block in blocks {
            for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
                let word = *lane ^ u64::from_le_bytes(*word);
                *lane = (0..8).fold(0, |acc, k| {
                    acc ^ u64::from(CRC32_BRAID[k][(word >> (8 * k)) as usize & 0xFF])
                });
            }
        }
        let mut comb = 0u64;
        for (lane, word) in lanes.iter().zip(last.as_chunks::<8>().0) {
            comb = u64::from(crc32_word(comb ^ *lane ^ u64::from_le_bytes(*word)));
        }
        crc = comb as u32;
    }
    for &b in rest {
        crc = CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Independent lanes of [`crc32`]: zlib's choice for 64-bit words, five
/// chains of lookups in flight at once.
const CRC_LANES: usize = 5;

/// Eight bytewise CRC steps over a word whose low 32 bits already hold the
/// running CRC.
#[inline(always)]
fn crc32_word(mut data: u64) -> u32 {
    for _ in 0..8 {
        data = (data >> 8) ^ u64::from(CRC32_TABLE[(data & 0xFF) as usize]);
    }
    data as u32
}

/// The classic bytewise table: the CRC of each byte from a zero CRC.
static CRC32_TABLE: [u32; 256] = crc32_table();

/// The braid tables: `[k][b]` is the CRC of byte `b` at byte `k` of a word,
/// followed by the rest of its block's bytes as zeros — so a lane's CRC is
/// ready for the lane's word in the next block.
static CRC32_BRAID: [[u32; 256]; 8] = crc32_braid();

const fn crc32_table() -> [u32; 256] {
    const POLY: u32 = 0xEDB8_8320;
    let mut t = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[b] = c;
        b += 1;
    }
    t
}

const fn crc32_braid() -> [[u32; 256]; 8] {
    let table = crc32_table();
    let mut t = [[0u32; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let mut c = table[b];
            let mut zeros = 0;
            while zeros < 8 * CRC_LANES - 1 - k {
                c = table[(c & 0xFF) as usize] ^ (c >> 8);
                zeros += 1;
            }
            t[k][b] = c;
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
    /// within it — no tables: the reference the braided kernel must equal.
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
        // Every length across the block/word/tail splits, from every
        // alignment.
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
