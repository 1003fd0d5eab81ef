//! Immutable segment files: the sealed, compressed on-disk form of the
//! store.
//!
//! A segment file is version 2 (little-endian):
//!
//! ```text
//! magic: b"EXPLSEG2"
//! id: u64
//! dir_len: u32                               bytes of the directory
//! directory:
//!   supersedes_count: u32, { id: u64 }*      segments this one replaces
//!   series_count: u32
//!   per series:
//!     name_len: u32, name bytes
//!     tag_count: u32, { key_len: u32, key, val_len: u32, val }*
//!     chunk_count: u32
//!     per chunk: min_ts: i64, max_ts: i64, count: u32, len: u32, crc32: u32
//! dir_crc32: u32                             over every preceding byte
//! data region: the chunk payloads back to back, in directory order
//! ```
//!
//! A chunk's payload starts where the previous one's ended, so the
//! directory stores no offsets, and the file is exactly
//! `20 + dir_len + 4 + Σ len` bytes. Integrity is per part: opening reads
//! the header and the directory, checks their CRC and checks the file
//! length against the directory — a truncated or extended file is corrupt
//! at open — and each chunk's payload is checked against its own CRC
//! whenever it is read ([`super::pager::ColdRef::read`]), so a flipped
//! data byte is corrupt at the first read that touches it. Open is
//! O(directory), not O(data).
//!
//! A file with any other magic is corrupt.
//!
//! Segments are written to `seg-NNNNNNNN.tmp`, fsynced, renamed into
//! place, and the directory fsynced — a crash mid-write leaves only a
//! `.tmp` the next open deletes.

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use super::chunk::{ChunkMeta, EncodedChunk};
use super::failpoint::{self, Point};
use super::pager::{read_exact_at, ColdRef};
use super::{crc32, sync_dir, SegmentHandle, StorageError, WRITE_BUFFER};
use crate::model::SeriesKey;

const MAGIC_V2: &[u8; 8] = b"EXPLSEG2";

/// Bytes of the v2 fixed header: magic, id, `dir_len`.
const HEADER_V2: usize = 8 + 8 + 4;

/// Fewest directory bytes each entry kind takes: a superseded id; a series
/// (name length, tag count, chunk count); a tag (key and value lengths); a
/// chunk (`min_ts`, `max_ts`, count, len, crc). A count is refused when
/// the bytes left cannot hold that many entries, so a directory whose CRC
/// holds cannot reserve more than its own size suggests.
const MIN_SUPERSEDES: usize = 8;
const MIN_SERIES: usize = 12;
const MIN_TAG: usize = 8;
const MIN_CHUNK: usize = 28;

/// One chunk's directory entry with its payload location resolved to an
/// absolute file offset — everything a cold chunk keeps resident.
#[derive(Debug, Clone, Copy)]
pub struct MappedChunk {
    /// Pruning metadata.
    pub meta: ChunkMeta,
    /// Absolute byte offset of the payload inside the segment file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC-32 of the payload.
    pub crc: u32,
}

/// One series' directory entry of a mapped segment.
#[derive(Debug, Clone)]
pub struct MappedSeries {
    /// The series identity.
    pub key: SeriesKey,
    /// Its chunks, ascending `min_ts`.
    pub chunks: Vec<MappedChunk>,
}

/// A segment mapped for demand paging: its directory, verified, with an
/// open read handle — chunk payloads load later with one positioned read
/// each, checked against their CRC.
#[derive(Debug)]
pub struct MappedSegment {
    /// The segment id from the header (must match the file name).
    pub id: u64,
    /// Ids of segments this one replaced: the inputs of a compacting
    /// flush and expired segments.
    pub supersedes: Vec<u64>,
    /// The per-series chunk directory.
    pub series: Vec<MappedSeries>,
    /// Total compressed chunk payload bytes.
    pub data_bytes: u64,
    /// Largest `max_ts` across all chunks (`None` when chunkless).
    pub max_ts: Option<i64>,
    /// Open read handle, shared by every cold chunk of the segment (the
    /// inode outlives a later unlink as long as chunks reference it).
    pub file: Arc<std::fs::File>,
}

impl MappedSegment {
    /// Where `chunk`, one of this segment's, pages in from.
    pub fn cold_ref(&self, chunk: &MappedChunk) -> ColdRef {
        ColdRef {
            file: Arc::clone(&self.file),
            segment_id: self.id,
            offset: chunk.offset,
            len: chunk.len,
            crc: chunk.crc,
        }
    }
}

/// Path of segment `id` inside a store directory.
pub fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.seg"))
}

/// Parses a segment id out of a `seg-NNNNNNNN.seg` file name.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// True when a directory entry is an in-flight segment write left behind
/// by a crash.
pub fn is_tmp_segment(name: &str) -> bool {
    name.strip_prefix("seg-").is_some_and(|rest| rest.ends_with(".tmp"))
}

/// Writes segment `id` atomically (tmp → fsync → rename → dir fsync) in
/// the v2 layout and returns its live handle. Only the header and the
/// directory are built in memory; the payloads stream from `series`
/// through a [`WRITE_BUFFER`] (64 KiB) buffer.
/// Series should arrive in canonical key order; chunks per series in
/// ascending time order.
pub fn write_segment(
    dir: &Path,
    id: u64,
    supersedes: &[u64],
    series: &[(SeriesKey, Vec<EncodedChunk>)],
) -> Result<SegmentHandle, StorageError> {
    let too_big = |what: &str| {
        StorageError::corrupt(segment_path(dir, id).display(), format!("{what} over 4 GiB"))
    };
    // The fixed header with a `dir_len` patched in below, then the
    // directory.
    let mut head = Vec::new();
    head.extend_from_slice(MAGIC_V2);
    head.extend_from_slice(&id.to_le_bytes());
    head.extend_from_slice(&[0; 4]);
    head.extend_from_slice(&(supersedes.len() as u32).to_le_bytes());
    for &old in supersedes {
        head.extend_from_slice(&old.to_le_bytes());
    }
    head.extend_from_slice(&(series.len() as u32).to_le_bytes());
    let mut data_bytes = 0u64;
    for (key, chunks) in series {
        write_str(&mut head, &key.name);
        head.extend_from_slice(&(key.tags.len() as u32).to_le_bytes());
        for (k, v) in &key.tags {
            write_str(&mut head, k);
            write_str(&mut head, v);
        }
        head.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
        for chunk in chunks {
            let len = u32::try_from(chunk.bytes.len()).map_err(|_| too_big("a chunk payload"))?;
            head.extend_from_slice(&chunk.meta.min_ts.to_le_bytes());
            head.extend_from_slice(&chunk.meta.max_ts.to_le_bytes());
            head.extend_from_slice(&chunk.meta.count.to_le_bytes());
            head.extend_from_slice(&len.to_le_bytes());
            head.extend_from_slice(&crc32(&chunk.bytes).to_le_bytes());
            data_bytes += u64::from(len);
        }
    }
    let dir_len = u32::try_from(head.len() - HEADER_V2).map_err(|_| too_big("the directory"))?;
    head[HEADER_V2 - 4..HEADER_V2].copy_from_slice(&dir_len.to_le_bytes());
    let dir_crc = crc32(&head);
    head.extend_from_slice(&dir_crc.to_le_bytes());
    let max_ts = series.iter().flat_map(|(_, cs)| cs.iter().map(|c| c.meta.max_ts)).max();

    let path = segment_path(dir, id);
    let tmp = path.with_extension("tmp");
    let ctx = |verb: &str, p: &Path| format!("{verb} {}", p.display());
    // Failpoints fire *after* each real step (except Create), modelling a
    // crash between the operation and its acknowledgement — the caller
    // sees an error while the bytes may already be durable.
    if let Some(e) = failpoint::trip(Point::SegmentCreate, &tmp) {
        return Err(e);
    }
    {
        explainit_sync::check_io("writing and fsyncing a segment file");
        let f =
            std::fs::File::create(&tmp).map_err(|e| StorageError::io(ctx("creating", &tmp), e))?;
        let mut out = BufWriter::with_capacity(WRITE_BUFFER, f);
        let payloads = series.iter().flat_map(|(_, chunks)| chunks);
        std::iter::once(&head[..])
            .chain(payloads.map(|chunk| &chunk.bytes[..]))
            .try_for_each(|bytes| out.write_all(bytes))
            .and_then(|()| out.flush())
            .map_err(|e| StorageError::io(ctx("writing", &tmp), e))?;
        if let Some(e) = failpoint::trip(Point::SegmentWrite, &tmp) {
            return Err(e);
        }
        out.get_ref().sync_all().map_err(|e| StorageError::io(ctx("syncing", &tmp), e))?;
        if let Some(e) = failpoint::trip(Point::SegmentSync, &tmp) {
            return Err(e);
        }
    }
    std::fs::rename(&tmp, &path)
        .map_err(|e| StorageError::io(format!("renaming {} into place", tmp.display()), e))?;
    if let Some(e) = failpoint::trip(Point::SegmentRename, &path) {
        return Err(e);
    }
    sync_dir(dir)?;
    if let Some(e) = failpoint::trip(Point::SegmentDirSync, &path) {
        return Err(e);
    }
    Ok(SegmentHandle { id, path, data_bytes, max_ts })
}

/// A parsed directory: the supersedes list and each series' chunks, with
/// offsets relative to the data region, and the payload bytes in all.
struct Directory {
    supersedes: Vec<u64>,
    series: Vec<(SeriesKey, Vec<MappedChunk>)>,
    data_len: u64,
}

/// Parses a v2 directory (after the fixed header); the chunk offsets are
/// the running sum of the payload lengths before each one.
fn parse_directory(
    bytes: &[u8],
    at: &mut usize,
    corrupt: &dyn Fn(&str) -> StorageError,
) -> Result<Directory, StorageError> {
    let n_supersedes =
        read_count(bytes, at, MIN_SUPERSEDES).ok_or_else(|| corrupt("bad supersedes count"))?;
    let mut supersedes = Vec::with_capacity(n_supersedes);
    for _ in 0..n_supersedes {
        supersedes.push(read_u64(bytes, at).ok_or_else(|| corrupt("truncated supersedes"))?);
    }
    let n_series = read_count(bytes, at, MIN_SERIES).ok_or_else(|| corrupt("bad series count"))?;
    let mut series: Vec<(SeriesKey, Vec<MappedChunk>)> = Vec::with_capacity(n_series);
    let mut next = 0u64;
    for _ in 0..n_series {
        let name = read_str(bytes, at).ok_or_else(|| corrupt("truncated series name"))?;
        let n_tags = read_count(bytes, at, MIN_TAG).ok_or_else(|| corrupt("bad tag count"))?;
        let mut key = SeriesKey::new(name);
        for _ in 0..n_tags {
            let k = read_str(bytes, at).ok_or_else(|| corrupt("truncated tag key"))?;
            let v = read_str(bytes, at).ok_or_else(|| corrupt("truncated tag value"))?;
            key.tags.insert(k, v);
        }
        let n_chunks =
            read_count(bytes, at, MIN_CHUNK).ok_or_else(|| corrupt("bad chunk count"))?;
        let mut chunks = Vec::with_capacity(n_chunks);
        for _ in 0..n_chunks {
            let truncated = || corrupt("truncated chunk meta");
            let min_ts = read_u64(bytes, at).ok_or_else(truncated)? as i64;
            let max_ts = read_u64(bytes, at).ok_or_else(truncated)? as i64;
            let count = read_u32(bytes, at).ok_or_else(truncated)?;
            let len = u64::from(read_u32(bytes, at).ok_or_else(truncated)?);
            let crc = read_u32(bytes, at).ok_or_else(truncated)?;
            if count == 0 || min_ts > max_ts {
                return Err(corrupt("empty or inverted chunk meta"));
            }
            chunks.push(MappedChunk {
                meta: ChunkMeta { min_ts, max_ts, count },
                offset: next,
                len,
                crc,
            });
            next += len;
        }
        series.push((key, chunks));
    }
    Ok(Directory { supersedes, series, data_len: next })
}

/// Maps a segment for demand paging: reads and verifies the header and
/// the directory and keeps the chunk directory, with offsets resolved to
/// absolute file positions, and an open read handle: the resident
/// footprint of a fully cold segment.
pub fn map_segment(path: &Path) -> Result<MappedSegment, StorageError> {
    let file = std::fs::File::open(path)
        .map_err(|e| StorageError::io(format!("opening {}", path.display()), e))?;
    let read = |buf: &mut [u8], offset: u64| {
        read_exact_at(&file, buf, offset)
            .map_err(|e| StorageError::io(format!("reading {}", path.display()), e))
    };
    let corrupt = |detail: &str| StorageError::corrupt(path.display(), detail.to_string());
    let file_len = file
        .metadata()
        .map_err(|e| StorageError::io(format!("reading the length of {}", path.display()), e))?
        .len();
    if file_len < HEADER_V2 as u64 + 4 {
        return Err(corrupt("file shorter than the fixed header"));
    }
    let mut header = [0u8; HEADER_V2];
    read(&mut header, 0)?;
    let magic = &header[..MAGIC_V2.len()];
    if magic != MAGIC_V2 {
        return Err(corrupt(&format!("bad magic \"{}\"", magic.escape_ascii())));
    }
    let mut at = MAGIC_V2.len();
    let id = read_u64(&header, &mut at).ok_or_else(|| corrupt("truncated id"))?;
    let dir_len = read_u32(&header, &mut at).ok_or_else(|| corrupt("truncated header"))?;
    let data_start = HEADER_V2 as u64 + u64::from(dir_len) + 4;
    if data_start > file_len {
        return Err(corrupt("directory runs past the end of the file"));
    }
    let mut head = vec![0u8; data_start as usize];
    read(&mut head, 0)?;
    let (body, stored) = head.split_at(head.len() - 4);
    if crc32(body) != u32::from_le_bytes([stored[0], stored[1], stored[2], stored[3]]) {
        return Err(corrupt("directory checksum mismatch"));
    }
    let mut at = HEADER_V2;
    let directory = parse_directory(body, &mut at, &corrupt)?;
    if at != body.len() {
        return Err(corrupt("directory longer than its entries"));
    }
    if data_start + directory.data_len != file_len {
        return Err(corrupt("file length does not match its directory"));
    }
    let mut max_ts = None;
    let series = directory
        .series
        .into_iter()
        .map(|(key, chunks)| MappedSeries {
            key,
            chunks: chunks
                .into_iter()
                .map(|c| {
                    max_ts = Some(max_ts.map_or(c.meta.max_ts, |m: i64| m.max(c.meta.max_ts)));
                    MappedChunk { offset: data_start + c.offset, ..c }
                })
                .collect(),
        })
        .collect();
    Ok(MappedSegment {
        id,
        supersedes: directory.supersedes,
        series,
        data_bytes: directory.data_len,
        max_ts,
        file: Arc::new(file),
    })
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn read_u32(bytes: &[u8], at: &mut usize) -> Option<u32> {
    let v = u32::from_le_bytes(bytes.get(*at..*at + 4)?.try_into().ok()?);
    *at += 4;
    Some(v)
}

fn read_u64(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let v = u64::from_le_bytes(bytes.get(*at..*at + 8)?.try_into().ok()?);
    *at += 8;
    Some(v)
}

/// Reads an entry count, refusing one the `bytes` left after it cannot
/// hold at `min_entry` bytes an entry.
fn read_count(bytes: &[u8], at: &mut usize, min_entry: usize) -> Option<usize> {
    let v = read_u32(bytes, at)? as usize;
    (v <= (bytes.len() - *at) / min_entry).then_some(v)
}

fn read_str(bytes: &[u8], at: &mut usize) -> Option<String> {
    let len = read_u32(bytes, at)? as usize;
    let s = String::from_utf8(bytes.get(*at..*at + len)?.to_vec()).ok()?;
    *at += len;
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::chunk::encode_run;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("explainit-seg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// A mapped chunk's payload, read the way `open` pages it in.
    fn payload(segment: &MappedSegment, chunk: &MappedChunk) -> Vec<u8> {
        segment.cold_ref(chunk).read().expect("positioned read")
    }

    fn sample_series() -> Vec<(SeriesKey, Vec<EncodedChunk>)> {
        let a = SeriesKey::new("disk").with_tag("host", "h1");
        let b = SeriesKey::new("mem");
        vec![
            (a, encode_run(&[0, 60, 120], &[1.0, f64::NAN, -0.0])),
            (b, encode_run(&[i64::MIN, i64::MAX], &[f64::INFINITY, 2.0])),
        ]
    }

    #[test]
    fn write_read_round_trip() {
        let dir = tmp_dir("roundtrip");
        let handle = write_segment(&dir, 7, &[3, 5], &sample_series()).expect("write");
        assert_eq!(handle.id, 7);
        assert!(handle.path.ends_with("seg-00000007.seg"));
        let parsed = map_segment(&handle.path).expect("map");
        assert_eq!(parsed.id, 7);
        assert_eq!(parsed.supersedes, vec![3, 5]);
        assert_eq!(parsed.series.len(), 2);
        assert_eq!(parsed.data_bytes, handle.data_bytes);
        let disk = &parsed.series[0];
        assert_eq!(disk.key.tag("host"), Some("h1"));
        let bytes = payload(&parsed, &disk.chunks[0]);
        let (ts, vs) = crate::storage::chunk::decode(&bytes, disk.chunks[0].meta.count as usize)
            .expect("decode");
        assert_eq!(ts, vec![0, 60, 120]);
        assert!(vs[1].is_nan() && vs[2].to_bits() == (-0.0f64).to_bits());
        let mem = &parsed.series[1];
        assert_eq!(mem.chunks[0].meta.min_ts, i64::MIN);
        assert_eq!(mem.chunks[0].meta.max_ts, i64::MAX);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_names_parse_and_tmp_detection() {
        assert_eq!(parse_segment_name("seg-00000007.seg"), Some(7));
        assert_eq!(parse_segment_name("seg-12345678.seg"), Some(12_345_678));
        assert_eq!(parse_segment_name("seg-.seg"), None);
        assert_eq!(parse_segment_name("seg-7a.seg"), None);
        assert_eq!(parse_segment_name("wal"), None);
        assert!(is_tmp_segment("seg-00000007.tmp"));
        assert!(!is_tmp_segment("seg-00000007.seg"));
        assert!(!is_tmp_segment("other.tmp"));
    }

    #[test]
    fn map_segment_resolves_absolute_offsets() {
        let dir = tmp_dir("map");
        let handle = write_segment(&dir, 3, &[1], &sample_series()).expect("write");
        assert_eq!(handle.max_ts, Some(i64::MAX), "handle carries the segment max_ts");
        let mapped = map_segment(&handle.path).expect("map");
        assert_eq!(mapped.id, 3);
        assert_eq!(mapped.supersedes, vec![1]);
        assert_eq!(mapped.data_bytes, handle.data_bytes);
        assert_eq!(mapped.max_ts, Some(i64::MAX));
        // Every mapped chunk's positioned read must reproduce the payload
        // that was written for it.
        let written = sample_series();
        for ((key, chunks), ms) in written.iter().zip(&mapped.series) {
            assert_eq!(*key, ms.key);
            for (wc, mc) in chunks.iter().zip(&ms.chunks) {
                assert_eq!(wc.meta, mc.meta);
                assert_eq!(payload(&mapped, mc), wc.bytes[..]);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_segment_round_trips() {
        let dir = tmp_dir("empty");
        let handle = write_segment(&dir, 0, &[], &[]).expect("write");
        let parsed = map_segment(&handle.path).expect("map");
        assert_eq!(parsed.id, 0);
        assert!(parsed.series.is_empty());
        assert_eq!(parsed.data_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
