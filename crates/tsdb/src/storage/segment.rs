//! Immutable segment files: the sealed, compressed on-disk form of the
//! store.
//!
//! File layout (little-endian):
//!
//! ```text
//! magic: b"EXPLSEG1"
//! id: u64
//! supersedes_count: u32, { id: u64 }*        segments this one replaces
//! series_count: u32
//! per series:
//!   name_len: u32, name bytes
//!   tag_count: u32, { key_len: u32, key, val_len: u32, val }*
//!   chunk_count: u32
//!   per chunk: min_ts: i64, max_ts: i64, count: u32,
//!              offset: u64 (into the data region), len: u64
//! data region: concatenated compressed chunk payloads
//! crc32: u32                                 over every preceding byte
//! ```
//!
//! Segments are written to `seg-NNNNNNNN.tmp`, fsynced, renamed into
//! place, and the directory fsynced — a crash mid-write leaves only a
//! `.tmp` the next open deletes. The whole-file CRC means a segment either
//! parses completely or is reported corrupt; there is no partial read.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use super::chunk::{ChunkMeta, EncodedChunk};
use super::failpoint::{self, Point};
use super::{crc32, sync_dir, SegmentHandle, StorageError};
use crate::model::SeriesKey;

const MAGIC: &[u8; 8] = b"EXPLSEG1";

/// Defensive cap on directory counts so a corrupt file cannot drive huge
/// allocations before the CRC check would have caught it.
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
}

/// One series' directory entry of a mapped segment.
#[derive(Debug, Clone)]
pub struct MappedSeries {
    /// The series identity.
    pub key: SeriesKey,
    /// Its chunks, ascending `min_ts`.
    pub chunks: Vec<MappedChunk>,
}

/// A segment validated and mapped for demand paging: the whole file was
/// read once to verify the CRC, then only the directory stays resident
/// along with an open read handle — chunk payloads load later with one
/// positioned read each.
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

/// Writes segment `id` atomically (tmp → fsync → rename → dir fsync) and
/// returns its live handle. Series should arrive in canonical key order;
/// chunks per series in ascending time order.
pub fn write_segment(
    dir: &Path,
    id: u64,
    supersedes: &[u64],
    series: &[(SeriesKey, Vec<EncodedChunk>)],
) -> Result<SegmentHandle, StorageError> {
    let mut body = Vec::new();
    body.extend_from_slice(MAGIC);
    body.extend_from_slice(&id.to_le_bytes());
    body.extend_from_slice(&(supersedes.len() as u32).to_le_bytes());
    for &old in supersedes {
        body.extend_from_slice(&old.to_le_bytes());
    }
    body.extend_from_slice(&(series.len() as u32).to_le_bytes());
    // Directory first, then the data region: chunk offsets are relative to
    // the data region so the directory size never feeds back into them.
    let mut data = Vec::new();
    for (key, chunks) in series {
        write_str(&mut body, &key.name);
        body.extend_from_slice(&(key.tags.len() as u32).to_le_bytes());
        for (k, v) in &key.tags {
            write_str(&mut body, k);
            write_str(&mut body, v);
        }
        body.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
        for chunk in chunks {
            body.extend_from_slice(&chunk.meta.min_ts.to_le_bytes());
            body.extend_from_slice(&chunk.meta.max_ts.to_le_bytes());
            body.extend_from_slice(&chunk.meta.count.to_le_bytes());
            body.extend_from_slice(&(data.len() as u64).to_le_bytes());
            body.extend_from_slice(&(chunk.bytes.len() as u64).to_le_bytes());
            data.extend_from_slice(&chunk.bytes);
        }
    }
    let data_bytes = data.len() as u64;
    body.extend_from_slice(&data);
    let sum = crc32(&body);
    body.extend_from_slice(&sum.to_le_bytes());
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

/// The validated directory of a segment body, before payload resolution.
struct RawSegment {
    id: u64,
    supersedes: Vec<u64>,
    /// Chunk offsets are relative to the data region.
    raw: Vec<(SeriesKey, Vec<MappedChunk>)>,
    /// Byte offset of the data region inside the body (== inside the
    /// file, since the body is a prefix of it).
    data_start: usize,
    data_len: u64,
}

/// Validates the whole-file checksum and parses the directory of one
/// segment body (the file minus its 4-byte CRC trailer).
fn parse_body(bytes: &[u8], path: &Path) -> Result<RawSegment, StorageError> {
    let what = path.display();
    let corrupt = |detail: &str| StorageError::corrupt(path.display(), detail.to_string());
    if bytes.len() < MAGIC.len() + 8 + 4 + 4 + 4 {
        return Err(corrupt("file shorter than the fixed header"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(tail.try_into().map_err(|_| corrupt("missing trailer"))?);
    if crc32(body) != stored {
        return Err(StorageError::corrupt(what, "whole-file checksum mismatch".to_string()));
    }
    if &body[..MAGIC.len()] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let mut at = MAGIC.len();
    let id = read_u64(body, &mut at).ok_or_else(|| corrupt("truncated id"))?;
    let n_supersedes = read_count(body, &mut at).ok_or_else(|| corrupt("bad supersedes count"))?;
    let mut supersedes = Vec::with_capacity(n_supersedes);
    for _ in 0..n_supersedes {
        supersedes.push(read_u64(body, &mut at).ok_or_else(|| corrupt("truncated supersedes"))?);
    }
    let n_series = read_count(body, &mut at).ok_or_else(|| corrupt("bad series count"))?;
    let mut raw: Vec<(SeriesKey, Vec<MappedChunk>)> = Vec::with_capacity(n_series);
    for _ in 0..n_series {
        let name = read_str(body, &mut at).ok_or_else(|| corrupt("truncated series name"))?;
        let n_tags = read_count(body, &mut at).ok_or_else(|| corrupt("bad tag count"))?;
        let mut key = SeriesKey::new(name);
        for _ in 0..n_tags {
            let k = read_str(body, &mut at).ok_or_else(|| corrupt("truncated tag key"))?;
            let v = read_str(body, &mut at).ok_or_else(|| corrupt("truncated tag value"))?;
            key.tags.insert(k, v);
        }
        let n_chunks = read_count(body, &mut at).ok_or_else(|| corrupt("bad chunk count"))?;
        let mut chunks = Vec::with_capacity(n_chunks);
        for _ in 0..n_chunks {
            let min_ts =
                read_u64(body, &mut at).ok_or_else(|| corrupt("truncated chunk meta"))? as i64;
            let max_ts =
                read_u64(body, &mut at).ok_or_else(|| corrupt("truncated chunk meta"))? as i64;
            let count = read_u32(body, &mut at).ok_or_else(|| corrupt("truncated chunk meta"))?;
            let offset = read_u64(body, &mut at).ok_or_else(|| corrupt("truncated chunk meta"))?;
            let len = read_u64(body, &mut at).ok_or_else(|| corrupt("truncated chunk meta"))?;
            if count == 0 || min_ts > max_ts {
                return Err(corrupt("empty or inverted chunk meta"));
            }
            chunks.push(MappedChunk { meta: ChunkMeta { min_ts, max_ts, count }, offset, len });
        }
        raw.push((key, chunks));
    }
    let data_start = at;
    let data_len = (body.len() - data_start) as u64;
    // Bounds-check every payload location up front so both readers can
    // trust the directory.
    for (_, chunks) in &raw {
        for c in chunks {
            if c.offset.checked_add(c.len).filter(|&e| e <= data_len).is_none() {
                return Err(corrupt("chunk payload outside data region"));
            }
        }
    }
    Ok(RawSegment { id, supersedes, raw, data_start, data_len })
}

/// Reads a segment once to validate its whole-file checksum, then keeps
/// only the chunk directory (with offsets resolved to absolute file
/// positions) and an open read handle — the resident footprint of a fully
/// cold segment.
pub fn map_segment(path: &Path) -> Result<MappedSegment, StorageError> {
    let bytes = std::fs::read(path)
        .map_err(|e| StorageError::io(format!("reading {}", path.display()), e))?;
    let parsed = parse_body(&bytes, path)?;
    drop(bytes);
    let file = std::fs::File::open(path)
        .map_err(|e| StorageError::io(format!("opening {} for paging", path.display()), e))?;
    let mut max_ts = None;
    let series = parsed
        .raw
        .into_iter()
        .map(|(key, chunks)| MappedSeries {
            key,
            chunks: chunks
                .into_iter()
                .map(|c| {
                    max_ts = Some(max_ts.map_or(c.meta.max_ts, |m: i64| m.max(c.meta.max_ts)));
                    MappedChunk { offset: parsed.data_start as u64 + c.offset, ..c }
                })
                .collect(),
        })
        .collect();
    Ok(MappedSegment {
        id: parsed.id,
        supersedes: parsed.supersedes,
        series,
        data_bytes: parsed.data_len,
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
    fn any_corruption_fails_the_checksum() {
        let dir = tmp_dir("corrupt");
        let handle = write_segment(&dir, 1, &[], &sample_series()).expect("write");
        let clean = std::fs::read(&handle.path).expect("read");
        for hit in [0, 8, clean.len() / 2, clean.len() - 5] {
            let mut bytes = clean.clone();
            bytes[hit] ^= 0x01;
            std::fs::write(&handle.path, &bytes).expect("write");
            let err = map_segment(&handle.path).expect_err("must fail");
            assert!(matches!(err, StorageError::Corrupt { .. }), "hit={hit}: {err}");
        }
        // Truncation fails too.
        std::fs::write(&handle.path, &clean[..clean.len() - 1]).expect("write");
        assert!(map_segment(&handle.path).is_err());
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
