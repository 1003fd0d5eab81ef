//! Crash recovery: rebuild the store's state from whatever a crash left
//! in the directory.
//!
//! Recovery invariants (the contract `Tsdb::open` relies on):
//!
//! 1. `seg-*.tmp` files are in-flight segment writes that never renamed
//!    into place — deleted, never read.
//! 2. A segment named in any live segment's `supersedes` list is stale
//!    compaction input. Its file (if the crash happened before the
//!    deletes) is removed and its id recorded on the freelist. Segment
//!    ids are monotone and never reused, so a `supersedes` reference is
//!    unambiguous across any crash point.
//! 3. Per series, chunks are taken in ascending segment-id order. When
//!    every chunk starts after the previous one ends the series stays
//!    *lazy* (cold chunk directory entries are handed to the index
//!    untouched — no payload is even read). When chunks overlap — an
//!    out-of-order ingest unsealed the series and a later flush
//!    re-covered the range — the overlapping series is merged eagerly,
//!    later segments winning (the same last-writer-wins rule as the live
//!    insert path), and re-encoded into disjoint resident chunks.
//! 4. The WAL tail is truncated to the last fully-committed record, and
//!    the surviving records replay through the exact `Series::push`
//!    semantics (see `model.rs`) on top of the segment state.
//!
//! Two open modes refine this. A *read-only* open performs no directory
//! mutation at all: tmp files are ignored (not deleted), superseded and
//! retention-expired segments are excluded (not removed), and the WAL is
//! replayed without being created, extended, or truncated. A *retention*
//! window drops whole live segments whose `max_ts` has fallen more than
//! `retention` behind the store's global maximum timestamp (segments +
//! WAL) — by directory metadata alone, without decoding a chunk.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

use super::chunk::{decode, encode_run, ChunkMeta};
use super::pager::ColdRef;
use super::segment::{is_tmp_segment, map_segment, parse_segment_name};
use super::wal::{self, WalRecord};
use super::{SegmentHandle, StorageError};
use crate::model::SeriesKey;

/// Where a recovered chunk's compressed bytes are.
#[derive(Debug, Clone)]
pub enum ChunkData {
    /// In memory (the chunk was re-encoded by an overlap merge and has no
    /// on-disk home of its own yet).
    Resident(Arc<Vec<u8>>),
    /// On disk, to be demand-paged from a live segment file.
    Cold(ColdRef),
}

impl ChunkData {
    /// The compressed bytes, reading them from disk when cold (used by
    /// the overlap merge; the index itself keeps cold chunks cold).
    pub fn load(&self) -> Result<Arc<Vec<u8>>, StorageError> {
        match self {
            ChunkData::Resident(bytes) => Ok(Arc::clone(bytes)),
            ChunkData::Cold(cold) => cold.read().map(Arc::new),
        }
    }
}

/// One sealed chunk as recovery hands it to the index.
#[derive(Debug, Clone)]
pub struct RecoveredChunk {
    /// Pruning metadata (always resident).
    pub meta: ChunkMeta,
    /// The payload location.
    pub data: ChunkData,
}

/// How to recover (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct RecoverOptions {
    /// Mutate nothing: ignore tmp files, exclude (rather than delete)
    /// superseded and expired segments, leave the WAL untouched.
    pub read_only: bool,
    /// Retention window; `None` keeps every live segment.
    pub retention: Option<i64>,
}

/// Everything `Tsdb::open` needs to rebuild a store.
#[derive(Debug)]
pub struct Recovered {
    /// Live segments, ascending id.
    pub segments: Vec<SegmentHandle>,
    /// Next id to allocate (strictly above every id ever observed).
    pub next_segment_id: u64,
    /// Ids reclaimed by supersession or retention, ascending.
    pub freelist: Vec<u64>,
    /// Per-series sealed chunks, ascending key order; within a series the
    /// chunks are strictly ascending and disjoint in time.
    pub series: Vec<(SeriesKey, Vec<RecoveredChunk>)>,
    /// Committed WAL records to replay on top of the sealed state.
    pub wal_records: Vec<WalRecord>,
    /// Byte offset of the last committed WAL record's end (the torn tail
    /// past it is truncated when the WAL reopens for writing).
    pub wal_committed: u64,
}

/// Scans a store directory and rebuilds the recovered state. Creates the
/// directory if it does not exist (a fresh store) — unless opening
/// read-only, where a missing directory is an error.
pub fn recover(dir: &Path, opts: &RecoverOptions) -> Result<Recovered, StorageError> {
    if opts.read_only {
        if !dir.is_dir() {
            return Err(StorageError::io(
                format!("opening {} read-only", dir.display()),
                std::io::Error::new(std::io::ErrorKind::NotFound, "no such store directory"),
            ));
        }
    } else {
        std::fs::create_dir_all(dir)
            .map_err(|e| StorageError::io(format!("creating {}", dir.display()), e))?;
    }

    // Pass 1: classify directory entries; drop in-flight tmp files.
    let mut seg_ids: Vec<u64> = Vec::new();
    let entries = std::fs::read_dir(dir)
        .map_err(|e| StorageError::io(format!("listing {}", dir.display()), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StorageError::io(format!("listing {}", dir.display()), e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if is_tmp_segment(name) {
            if !opts.read_only {
                let p = entry.path();
                std::fs::remove_file(&p)
                    .map_err(|e| StorageError::io(format!("removing {}", p.display()), e))?;
            }
        } else if let Some(id) = parse_segment_name(name) {
            seg_ids.push(id);
        }
    }
    seg_ids.sort_unstable();

    // Pass 2: map segments ascending (each directory verified; only it
    // stays resident) and collect supersession edges.
    let mut mapped = Vec::with_capacity(seg_ids.len());
    let mut superseded: BTreeSet<u64> = BTreeSet::new();
    let mut max_id_seen: Option<u64> = None;
    for id in seg_ids {
        let path = super::segment::segment_path(dir, id);
        let seg = map_segment(&path)?;
        if seg.id != id {
            return Err(StorageError::corrupt(
                path.display(),
                format!("header id {} does not match file name id {id}", seg.id),
            ));
        }
        max_id_seen = Some(max_id_seen.map_or(id, |m: u64| m.max(id)));
        for &old in &seg.supersedes {
            superseded.insert(old);
            max_id_seen = Some(max_id_seen.map_or(old, |m: u64| m.max(old)));
        }
        mapped.push((seg, path));
    }

    // The WAL replays in every mode (a pure read); its newest point also
    // feeds the retention cutoff, so un-flushed recent ingest keeps older
    // segments alive exactly as flushed ingest would.
    let (wal_records, wal_committed) = wal::replay(dir)?;

    // Retention: drop whole live segments entirely behind the cutoff,
    // from directory metadata alone.
    let mut expired: BTreeSet<u64> = BTreeSet::new();
    if let Some(retention) = opts.retention {
        let seg_max = mapped
            .iter()
            .filter(|(s, _)| !superseded.contains(&s.id))
            .filter_map(|(s, _)| s.max_ts)
            .max();
        let wal_max = wal_records.iter().flat_map(|r| r.points.iter().map(|&(t, _)| t)).max();
        let global_max = match (seg_max, wal_max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        if let Some(global_max) = global_max {
            let cutoff = global_max.saturating_sub(retention);
            for (seg, _) in &mapped {
                if superseded.contains(&seg.id) {
                    continue;
                }
                if seg.max_ts.is_some_and(|m| m < cutoff) {
                    expired.insert(seg.id);
                }
            }
        }
    }

    // Pass 3: drop superseded and expired segments (deleting files only
    // in writer mode — the crash may have hit between writing a compacted
    // segment and the deletes) and assemble per-series chunk lists in
    // segment-id order.
    let mut segments = Vec::new();
    let mut by_series: BTreeMap<SeriesKey, Vec<RecoveredChunk>> = BTreeMap::new();
    for (seg, path) in mapped {
        if superseded.contains(&seg.id) || expired.contains(&seg.id) {
            if !opts.read_only {
                std::fs::remove_file(&path)
                    .map_err(|e| StorageError::io(format!("removing {}", path.display()), e))?;
            }
            continue;
        }
        segments.push(SegmentHandle {
            id: seg.id,
            path,
            data_bytes: seg.data_bytes,
            max_ts: seg.max_ts,
        });
        for s in seg.series {
            let file = &seg.file;
            by_series.entry(s.key).or_default().extend(s.chunks.into_iter().map(|c| {
                RecoveredChunk {
                    meta: c.meta,
                    data: ChunkData::Cold(ColdRef {
                        file: Arc::clone(file),
                        segment_id: seg.id,
                        offset: c.offset,
                        len: c.len,
                        crc: c.crc,
                    }),
                }
            }));
        }
    }

    // Pass 4: per series, keep disjoint ascending chunk runs cold and
    // eagerly merge anything overlapping.
    let mut series = Vec::with_capacity(by_series.len());
    for (key, chunks) in by_series {
        let disjoint = chunks.windows(2).all(|w| w[0].meta.max_ts < w[1].meta.min_ts)
            && chunks.iter().all(|c| c.meta.min_ts <= c.meta.max_ts);
        let chunks = if disjoint { chunks } else { merge_overlapping(&key, chunks)? };
        series.push((key, chunks));
    }

    let freelist: Vec<u64> = superseded.iter().chain(expired.iter()).copied().collect();
    let mut freelist = freelist;
    freelist.sort_unstable();
    freelist.dedup();
    Ok(Recovered {
        segments,
        next_segment_id: max_id_seen.map_or(0, |m| m + 1),
        freelist,
        series,
        wal_records,
        wal_committed,
    })
}

/// Decodes overlapping chunks in arrival (segment-id) order, merges them
/// with last-writer-wins duplicate handling, and re-encodes a disjoint
/// resident run.
fn merge_overlapping(
    key: &SeriesKey,
    chunks: Vec<RecoveredChunk>,
) -> Result<Vec<RecoveredChunk>, StorageError> {
    let mut merged: BTreeMap<i64, f64> = BTreeMap::new();
    for chunk in &chunks {
        let bytes = chunk.data.load()?;
        let (ts, vs) = decode(&bytes, chunk.meta.count as usize).map_err(|e| {
            StorageError::corrupt(
                format!("series {key}"),
                format!("overlapping chunk failed to decode during merge: {e}"),
            )
        })?;
        for (t, v) in ts.into_iter().zip(vs) {
            merged.insert(t, v); // later chunks overwrite: last-writer-wins
        }
    }
    let ts: Vec<i64> = merged.keys().copied().collect();
    let vs: Vec<f64> = merged.values().copied().collect();
    Ok(encode_run(&ts, &vs)
        .into_iter()
        .map(|c| RecoveredChunk { meta: c.meta, data: ChunkData::Resident(c.bytes) })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::chunk::encode_run;
    use crate::storage::segment::{segment_path, write_segment};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("explainit-recover-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn writer() -> RecoverOptions {
        RecoverOptions::default()
    }

    #[test]
    fn fresh_directory_recovers_empty() {
        let dir = tmp_dir("fresh");
        let r = recover(&dir, &writer()).expect("recover");
        assert!(r.segments.is_empty() && r.series.is_empty() && r.wal_records.is_empty());
        assert_eq!(r.next_segment_id, 0);
        assert!(dir.is_dir(), "directory created");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_only_open_requires_an_existing_directory() {
        let dir = tmp_dir("ro-missing");
        let err = recover(&dir, &RecoverOptions { read_only: true, ..Default::default() })
            .expect_err("missing directory");
        assert!(matches!(err, StorageError::Io { .. }), "{err}");
        assert!(!dir.exists(), "read-only recovery must not create the directory");
    }

    #[test]
    fn tmp_segments_are_deleted_not_read() {
        let dir = tmp_dir("tmp");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("seg-00000003.tmp"), b"half a segment").expect("write");
        let r = recover(&dir, &writer()).expect("recover");
        assert!(r.segments.is_empty());
        assert!(!dir.join("seg-00000003.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_only_recovery_leaves_tmp_and_superseded_files_alone() {
        let dir = tmp_dir("ro-preserve");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let key = SeriesKey::new("m");
        write_segment(&dir, 0, &[], &[(key.clone(), encode_run(&[0, 60], &[1.0, 2.0]))])
            .expect("seg 0");
        write_segment(&dir, 1, &[0], &[(key.clone(), encode_run(&[0, 60], &[1.0, 2.0]))])
            .expect("seg 1 supersedes 0");
        std::fs::write(dir.join("seg-00000002.tmp"), b"in flight").expect("tmp");
        let r = recover(&dir, &RecoverOptions { read_only: true, ..Default::default() })
            .expect("recover");
        assert_eq!(r.segments.len(), 1);
        assert_eq!(r.segments[0].id, 1);
        assert!(segment_path(&dir, 0).exists(), "superseded file preserved");
        assert!(dir.join("seg-00000002.tmp").exists(), "tmp file preserved");
        // A writer open afterwards cleans both up.
        let r = recover(&dir, &writer()).expect("writer recover");
        assert_eq!(r.segments.len(), 1);
        assert!(!segment_path(&dir, 0).exists());
        assert!(!dir.join("seg-00000002.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn superseded_segments_are_removed_and_freelisted() {
        let dir = tmp_dir("supersede");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let key = SeriesKey::new("m");
        let run = encode_run(&[0, 60], &[1.0, 2.0]);
        write_segment(&dir, 0, &[], &[(key.clone(), run.clone())]).expect("seg 0");
        write_segment(&dir, 1, &[], &[(key.clone(), encode_run(&[120], &[3.0]))]).expect("seg 1");
        // Segment 2 is the compaction of 0 and 1; the crash hit before the
        // old files were deleted.
        write_segment(
            &dir,
            2,
            &[0, 1],
            &[(key.clone(), encode_run(&[0, 60, 120], &[1.0, 2.0, 3.0]))],
        )
        .expect("seg 2");
        let r = recover(&dir, &writer()).expect("recover");
        assert_eq!(r.segments.len(), 1);
        assert_eq!(r.segments[0].id, 2);
        assert_eq!(r.freelist, vec![0, 1]);
        assert_eq!(r.next_segment_id, 3);
        assert!(!segment_path(&dir, 0).exists() && !segment_path(&dir, 1).exists());
        assert_eq!(r.series.len(), 1);
        assert_eq!(r.series[0].1.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disjoint_chunks_stay_encoded_overlapping_chunks_merge() {
        let dir = tmp_dir("merge");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let lazy = SeriesKey::new("lazy");
        let hot = SeriesKey::new("hot");
        write_segment(
            &dir,
            0,
            &[],
            &[
                (hot.clone(), encode_run(&[0, 60, 120], &[1.0, 2.0, 3.0])),
                (lazy.clone(), encode_run(&[0, 60], &[1.0, 2.0])),
            ],
        )
        .expect("seg 0");
        // Segment 1 overlaps `hot` (ts 60 rewritten) but extends `lazy`
        // disjointly.
        write_segment(
            &dir,
            1,
            &[],
            &[
                (hot.clone(), encode_run(&[60, 180], &[9.0, 4.0])),
                (lazy.clone(), encode_run(&[120], &[3.0])),
            ],
        )
        .expect("seg 1");
        let r = recover(&dir, &writer()).expect("recover");
        let by_key: BTreeMap<_, _> = r.series.into_iter().collect();
        // `lazy` keeps its two original chunks untouched — and cold.
        assert_eq!(by_key[&lazy].len(), 2);
        assert!(by_key[&lazy].iter().all(|c| matches!(c.data, ChunkData::Cold(_))));
        // `hot` merged: 4 distinct timestamps, later value for ts 60 wins.
        let merged = &by_key[&hot];
        let total: u32 = merged.iter().map(|c| c.meta.count).sum();
        assert_eq!(total, 4);
        assert!(matches!(merged[0].data, ChunkData::Resident(_)), "merged chunks are resident");
        let bytes = merged[0].data.load().expect("load");
        let (ts, vs) = decode(&bytes, merged[0].meta.count as usize).expect("decode merged");
        assert_eq!(ts, vec![0, 60, 120, 180]);
        assert_eq!(vs, vec![1.0, 9.0, 3.0, 4.0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_drops_whole_expired_segments_without_reading_payloads() {
        let dir = tmp_dir("retention");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let key = SeriesKey::new("m");
        write_segment(&dir, 0, &[], &[(key.clone(), encode_run(&[0, 60], &[1.0, 2.0]))])
            .expect("old window");
        write_segment(&dir, 1, &[], &[(key.clone(), encode_run(&[10_000], &[3.0]))])
            .expect("new window");
        // Cutoff = 10_000 - 1000 = 9000: segment 0 (max_ts 60) expires.
        let r = recover(&dir, &RecoverOptions { retention: Some(1000), ..Default::default() })
            .expect("recover");
        assert_eq!(r.segments.len(), 1);
        assert_eq!(r.segments[0].id, 1);
        assert_eq!(r.freelist, vec![0]);
        assert!(!segment_path(&dir, 0).exists(), "expired file deleted");
        let total: u32 = r.series.iter().flat_map(|(_, cs)| cs.iter().map(|c| c.meta.count)).sum();
        assert_eq!(total, 1, "only the new window's point survives");
        // A retention window covering everything keeps both segments.
        let dir2 = tmp_dir("retention-keep");
        std::fs::create_dir_all(&dir2).expect("mkdir");
        write_segment(&dir2, 0, &[], &[(key.clone(), encode_run(&[0, 60], &[1.0, 2.0]))])
            .expect("old window");
        write_segment(&dir2, 1, &[], &[(key.clone(), encode_run(&[10_000], &[3.0]))])
            .expect("new window");
        let r = recover(&dir2, &RecoverOptions { retention: Some(20_000), ..Default::default() })
            .expect("recover");
        assert_eq!(r.segments.len(), 2);
        assert!(r.freelist.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn read_only_retention_excludes_but_keeps_expired_files() {
        let dir = tmp_dir("ro-retention");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let key = SeriesKey::new("m");
        write_segment(&dir, 0, &[], &[(key.clone(), encode_run(&[0], &[1.0]))]).expect("old");
        write_segment(&dir, 1, &[], &[(key.clone(), encode_run(&[10_000], &[3.0]))]).expect("new");
        let r = recover(&dir, &RecoverOptions { read_only: true, retention: Some(1000) })
            .expect("recover");
        assert_eq!(r.segments.len(), 1);
        assert!(segment_path(&dir, 0).exists(), "read-only never deletes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_id_name_mismatch_is_corrupt() {
        let dir = tmp_dir("mismatch");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let handle =
            write_segment(&dir, 4, &[], &[(SeriesKey::new("m"), encode_run(&[0], &[1.0]))])
                .expect("write");
        std::fs::rename(&handle.path, segment_path(&dir, 9)).expect("rename");
        let err = recover(&dir, &writer()).expect_err("must fail");
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
