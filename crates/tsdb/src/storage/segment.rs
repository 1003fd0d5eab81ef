//! Immutable segment files: the sealed, compressed on-disk form of the
//! store.
//!
//! The writer emits version 2 (little-endian):
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
//! Version 1 (`EXPLSEG1`) is still read, never written: the same header
//! and directory with no `dir_len`, each chunk entry `min_ts: i64, max_ts:
//! i64, count: u32, offset: u64, len: u64` (offsets into the data region),
//! the data region, then one `crc32: u32` over every preceding byte. Its
//! open reads and checks the whole file and computes each chunk's CRC from
//! the verified bytes, so its later faults are checked the same way.
//! Compaction rewrites a v1 store's segments as v2.
//!
//! Segments are written to `seg-NNNNNNNN.tmp`, fsynced, renamed into
//! place, and the directory fsynced — a crash mid-write leaves only a
//! `.tmp` the next open deletes.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use super::chunk::{ChunkMeta, EncodedChunk};
use super::failpoint::{self, Point};
use super::pager::read_exact_at;
use super::{crc32, sync_dir, SegmentHandle, StorageError};
use crate::model::SeriesKey;

const MAGIC_V1: &[u8; 8] = b"EXPLSEG1";
const MAGIC_V2: &[u8; 8] = b"EXPLSEG2";

/// Bytes of the v2 fixed header: magic, id, `dir_len`.
const HEADER_V2: usize = 8 + 8 + 4;

/// Defensive cap on v1 directory counts so a corrupt file cannot drive
/// huge allocations before the CRC check would have caught it (a v2
/// directory is checked before it is parsed).
const MAX_COUNT: u32 = 1 << 24;

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
    /// Ids of segments this one replaced (compaction output).
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
/// the v2 layout and returns its live handle. Series should arrive in
/// canonical key order; chunks per series in ascending time order.
pub fn write_segment(
    dir: &Path,
    id: u64,
    supersedes: &[u64],
    series: &[(SeriesKey, Vec<EncodedChunk>)],
) -> Result<SegmentHandle, StorageError> {
    let too_big = |what: &str| {
        StorageError::corrupt(segment_path(dir, id).display(), format!("{what} over 4 GiB"))
    };
    let mut directory = Vec::new();
    directory.extend_from_slice(&(supersedes.len() as u32).to_le_bytes());
    for &old in supersedes {
        directory.extend_from_slice(&old.to_le_bytes());
    }
    directory.extend_from_slice(&(series.len() as u32).to_le_bytes());
    let mut data_bytes = 0u64;
    for (key, chunks) in series {
        write_str(&mut directory, &key.name);
        directory.extend_from_slice(&(key.tags.len() as u32).to_le_bytes());
        for (k, v) in &key.tags {
            write_str(&mut directory, k);
            write_str(&mut directory, v);
        }
        directory.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
        for chunk in chunks {
            let len = u32::try_from(chunk.bytes.len()).map_err(|_| too_big("a chunk payload"))?;
            directory.extend_from_slice(&chunk.meta.min_ts.to_le_bytes());
            directory.extend_from_slice(&chunk.meta.max_ts.to_le_bytes());
            directory.extend_from_slice(&chunk.meta.count.to_le_bytes());
            directory.extend_from_slice(&len.to_le_bytes());
            directory.extend_from_slice(&crc32(&chunk.bytes).to_le_bytes());
            data_bytes += u64::from(len);
        }
    }
    let dir_len = u32::try_from(directory.len()).map_err(|_| too_big("the directory"))?;
    let mut body = Vec::with_capacity(HEADER_V2 + directory.len() + 4 + data_bytes as usize);
    body.extend_from_slice(MAGIC_V2);
    body.extend_from_slice(&id.to_le_bytes());
    body.extend_from_slice(&dir_len.to_le_bytes());
    body.extend_from_slice(&directory);
    let dir_crc = crc32(&body);
    body.extend_from_slice(&dir_crc.to_le_bytes());
    for chunk in series.iter().flat_map(|(_, chunks)| chunks) {
        body.extend_from_slice(&chunk.bytes);
    }
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
        let mut f =
            std::fs::File::create(&tmp).map_err(|e| StorageError::io(ctx("creating", &tmp), e))?;
        f.write_all(&body).map_err(|e| StorageError::io(ctx("writing", &tmp), e))?;
        if let Some(e) = failpoint::trip(Point::SegmentWrite, &tmp) {
            return Err(e);
        }
        f.sync_all().map_err(|e| StorageError::io(ctx("syncing", &tmp), e))?;
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
/// offsets relative to the data region.
struct Directory {
    supersedes: Vec<u64>,
    series: Vec<(SeriesKey, Vec<MappedChunk>)>,
}

/// Parses the directory shared by both versions; `read_location` reads
/// one chunk entry's version-specific tail (after `min_ts, max_ts,
/// count`) into `(offset, len, crc)`.
fn parse_directory(
    bytes: &[u8],
    at: &mut usize,
    corrupt: &dyn Fn(&str) -> StorageError,
    mut read_location: impl FnMut(&[u8], &mut usize) -> Option<(u64, u64, u32)>,
) -> Result<Directory, StorageError> {
    let n_supersedes = read_count(bytes, at).ok_or_else(|| corrupt("bad supersedes count"))?;
    let mut supersedes = Vec::with_capacity(n_supersedes);
    for _ in 0..n_supersedes {
        supersedes.push(read_u64(bytes, at).ok_or_else(|| corrupt("truncated supersedes"))?);
    }
    let n_series = read_count(bytes, at).ok_or_else(|| corrupt("bad series count"))?;
    let mut series: Vec<(SeriesKey, Vec<MappedChunk>)> = Vec::with_capacity(n_series);
    for _ in 0..n_series {
        let name = read_str(bytes, at).ok_or_else(|| corrupt("truncated series name"))?;
        let n_tags = read_count(bytes, at).ok_or_else(|| corrupt("bad tag count"))?;
        let mut key = SeriesKey::new(name);
        for _ in 0..n_tags {
            let k = read_str(bytes, at).ok_or_else(|| corrupt("truncated tag key"))?;
            let v = read_str(bytes, at).ok_or_else(|| corrupt("truncated tag value"))?;
            key.tags.insert(k, v);
        }
        let n_chunks = read_count(bytes, at).ok_or_else(|| corrupt("bad chunk count"))?;
        let mut chunks = Vec::with_capacity(n_chunks);
        for _ in 0..n_chunks {
            let truncated = || corrupt("truncated chunk meta");
            let min_ts = read_u64(bytes, at).ok_or_else(truncated)? as i64;
            let max_ts = read_u64(bytes, at).ok_or_else(truncated)? as i64;
            let count = read_u32(bytes, at).ok_or_else(truncated)?;
            let (offset, len, crc) = read_location(bytes, at).ok_or_else(truncated)?;
            if count == 0 || min_ts > max_ts {
                return Err(corrupt("empty or inverted chunk meta"));
            }
            chunks.push(MappedChunk {
                meta: ChunkMeta { min_ts, max_ts, count },
                offset,
                len,
                crc,
            });
        }
        series.push((key, chunks));
    }
    Ok(Directory { supersedes, series })
}

/// Maps a segment for demand paging: reads and verifies the header and
/// the directory (v2) — or the whole file (v1) — and keeps the chunk
/// directory, with offsets resolved to absolute file positions, and an
/// open read handle: the resident footprint of a fully cold segment.
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
    let mut magic = [0u8; 8];
    if file_len < magic.len() as u64 {
        return Err(corrupt("file shorter than the fixed header"));
    }
    read(&mut magic, 0)?;
    let (id, directory, data_start, data_len) = match &magic {
        MAGIC_V2 => {
            let mut header = [0u8; HEADER_V2];
            if file_len < HEADER_V2 as u64 + 4 {
                return Err(corrupt("file shorter than the fixed header"));
            }
            read(&mut header, 0)?;
            let mut at = magic.len();
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
            let mut next = 0u64;
            let directory = parse_directory(body, &mut at, &corrupt, |bytes, at| {
                let len = u64::from(read_u32(bytes, at)?);
                let crc = read_u32(bytes, at)?;
                let offset = next;
                next += len;
                Some((offset, len, crc))
            })?;
            if at != body.len() {
                return Err(corrupt("directory longer than its entries"));
            }
            if data_start + next != file_len {
                return Err(corrupt("file length does not match its directory"));
            }
            (id, directory, data_start, next)
        }
        MAGIC_V1 => {
            let mut bytes = vec![0u8; file_len as usize];
            read(&mut bytes, 0)?;
            map_v1(&bytes, &corrupt)?
        }
        _ => return Err(corrupt("bad magic")),
    };
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
        data_bytes: data_len,
        max_ts,
        file: Arc::new(file),
    })
}

/// Verifies a whole v1 file's checksum and parses its directory, giving
/// every chunk the CRC of its (verified) payload. Returns the id, the
/// directory, and the data region's start and length.
fn map_v1(
    bytes: &[u8],
    corrupt: &dyn Fn(&str) -> StorageError,
) -> Result<(u64, Directory, u64, u64), StorageError> {
    if bytes.len() < MAGIC_V1.len() + 8 + 4 + 4 + 4 {
        return Err(corrupt("file shorter than the fixed header"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    if crc32(body) != u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]) {
        return Err(corrupt("whole-file checksum mismatch"));
    }
    let mut at = MAGIC_V1.len();
    let id = read_u64(body, &mut at).ok_or_else(|| corrupt("truncated id"))?;
    let mut directory = parse_directory(body, &mut at, corrupt, |bytes, at| {
        Some((read_u64(bytes, at)?, read_u64(bytes, at)?, 0))
    })?;
    let data = &body[at..];
    for (_, chunks) in &mut directory.series {
        for c in chunks {
            let end = c.offset.checked_add(c.len).filter(|&e| e <= data.len() as u64);
            let Some(end) = end else {
                return Err(corrupt("chunk payload outside data region"));
            };
            c.crc = crc32(&data[c.offset as usize..end as usize]);
        }
    }
    Ok((id, directory, at as u64, data.len() as u64))
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

fn read_count(bytes: &[u8], at: &mut usize) -> Option<usize> {
    let v = read_u32(bytes, at)?;
    if v > MAX_COUNT {
        return None;
    }
    Some(v as usize)
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
    use crate::storage::pager::ColdRef;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("explainit-seg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// A mapped chunk's payload, read the way `open` pages it in.
    fn payload(segment: &MappedSegment, chunk: &MappedChunk) -> Vec<u8> {
        let cold = ColdRef {
            file: segment.file.clone(),
            segment_id: segment.id,
            offset: chunk.offset,
            len: chunk.len,
            crc: chunk.crc,
        };
        cold.read().expect("positioned read")
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
