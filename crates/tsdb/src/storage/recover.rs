//! Crash recovery: rebuild the store's state from whatever a crash left
//! in the directory.
//!
//! Recovery invariants (the contract `Tsdb::open` relies on):
//!
//! 1. `seg-*.tmp` files are in-flight segment writes that never renamed
//!    into place — deleted, never read.
//! 2. A segment named in any live segment's `supersedes` list is stale:
//!    the input of a compacting flush or a segment retention expired.
//!    Its file (if the crash happened before the deletes) is removed and
//!    its id recorded on the freelist. Segment ids are monotone and a
//!    committed id is never reused (only a failed write's retry takes its
//!    id again), so a `supersedes` reference is unambiguous across any
//!    crash point.
//! 3. Per series, chunks are taken in ascending segment-id order, and each
//!    starts after the previous one ends: a flush that rewrites a range
//!    supersedes every segment holding it, so live segments never
//!    overlap. The series stays *lazy* — cold chunk directory entries are
//!    handed to the index untouched, no payload is even read. Chunks that
//!    overlap are `Corrupt`, naming the series and both segments.
//! 4. The WAL tail is truncated to the last fully-committed record, and
//!    the surviving records replay through the exact `Series::push`
//!    semantics (see `model.rs`) on top of the segment state.
//!
//! Nothing is deleted until all of this holds, so an open that fails
//! leaves the directory as it found it.
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

use super::chunk::SealedChunk;
use super::pager::Pager;
use super::segment::{is_tmp_segment, map_segment, parse_segment_name};
use super::wal::{self, WalRecord};
use super::{SegmentHandle, StorageError};
use crate::model::SeriesKey;

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
    pub series: Vec<(SeriesKey, Vec<SealedChunk>)>,
    /// Committed WAL records to replay on top of the sealed state.
    pub wal_records: Vec<WalRecord>,
    /// Byte offset of the last committed WAL record's end (the torn tail
    /// past it is truncated when the WAL reopens for writing).
    pub wal_committed: u64,
}

/// Scans a store directory and rebuilds the recovered state. Creates the
/// directory if it does not exist (a fresh store) — unless opening
/// read-only, where a missing directory is an error.
pub fn recover(
    dir: &Path,
    opts: &RecoverOptions,
    pager: &Arc<Pager>,
) -> Result<Recovered, StorageError> {
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

    // Pass 1: classify directory entries; in-flight tmp files are stale.
    let mut seg_ids: Vec<u64> = Vec::new();
    let mut stale = Vec::new();
    let entries = std::fs::read_dir(dir)
        .map_err(|e| StorageError::io(format!("listing {}", dir.display()), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StorageError::io(format!("listing {}", dir.display()), e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if is_tmp_segment(name) {
            stale.push(entry.path());
        } else if let Some(id) = parse_segment_name(name) {
            seg_ids.push(id);
        }
    }
    seg_ids.sort_unstable();

    // Pass 2: map segments ascending (each directory verified; only it
    // stays resident) and collect supersession edges.
    let mut mapped = Vec::with_capacity(seg_ids.len());
    let mut superseded: BTreeSet<u64> = BTreeSet::new();
    for id in seg_ids {
        let path = super::segment::segment_path(dir, id);
        let seg = map_segment(&path)?;
        if seg.id != id {
            return Err(StorageError::corrupt(
                path.display(),
                format!("header id {} does not match file name id {id}", seg.id),
            ));
        }
        superseded.extend(&seg.supersedes);
        mapped.push((seg, path));
    }
    let ids_seen = mapped.iter().map(|(s, _)| s.id).chain(superseded.iter().copied());
    let next_segment_id = ids_seen.max().map_or(0, |m| m + 1);

    // The WAL replays in every mode (a pure read); its newest point also
    // feeds the retention cutoff, so un-flushed recent ingest keeps older
    // segments alive exactly as flushed ingest would.
    let (wal_records, wal_committed) = wal::replay(dir)?;

    // Retention: drop whole live segments entirely behind the cutoff,
    // from directory metadata alone.
    let live = || mapped.iter().map(|(s, _)| s).filter(|s| !superseded.contains(&s.id));
    let wal_ts = wal_records.iter().flat_map(|r| r.points.iter().map(|&(t, _)| t));
    let cutoff = super::cutoff(opts.retention, live().filter_map(|s| s.max_ts).chain(wal_ts));
    let expired: BTreeSet<u64> =
        live().filter(|s| super::expired(s.max_ts, cutoff)).map(|s| s.id).collect();

    // Pass 3: drop superseded and expired segments (the crash may have hit
    // between writing a segment and deleting what it superseded) and
    // assemble per-series chunk lists in segment-id order.
    let mut segments = Vec::new();
    let mut by_series: BTreeMap<SeriesKey, Vec<SealedChunk>> = BTreeMap::new();
    for (mut seg, path) in mapped {
        if superseded.contains(&seg.id) || expired.contains(&seg.id) {
            stale.push(path);
            continue;
        }
        segments.push(SegmentHandle {
            id: seg.id,
            path,
            data_bytes: seg.data_bytes,
            max_ts: seg.max_ts,
        });
        for s in std::mem::take(&mut seg.series) {
            let cold = s.chunks.iter().map(|c| SealedChunk::cold(c.meta, seg.cold_ref(c), pager));
            by_series.entry(s.key).or_default().extend(cold);
        }
    }

    // Pass 4: every series' chunks ascend across its live segments.
    for (key, chunks) in &by_series {
        if let Some(w) = chunks.windows(2).find(|w| w[0].meta.max_ts >= w[1].meta.min_ts) {
            let (a, b) = (w[0].segment_id(), w[1].segment_id());
            let detail = format!("chunks of segments {a} and {b} overlap");
            return Err(StorageError::corrupt(format!("series {key}"), detail));
        }
    }
    // A writer deletes what is stale only once the store recovered.
    if !opts.read_only {
        for path in &stale {
            std::fs::remove_file(path)
                .map_err(|e| StorageError::io(format!("removing {}", path.display()), e))?;
        }
    }

    Ok(Recovered {
        segments,
        next_segment_id,
        freelist: superseded.union(&expired).copied().collect(),
        series: by_series.into_iter().collect(),
        wal_records,
        wal_committed,
    })
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
        let r = recover(&dir, &writer(), &Pager::unbounded()).expect("recover");
        assert!(r.segments.is_empty() && r.series.is_empty() && r.wal_records.is_empty());
        assert_eq!(r.next_segment_id, 0);
        assert!(dir.is_dir(), "directory created");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_only_open_requires_an_existing_directory() {
        let dir = tmp_dir("ro-missing");
        let err = recover(
            &dir,
            &RecoverOptions { read_only: true, ..Default::default() },
            &Pager::unbounded(),
        )
        .expect_err("missing directory");
        assert!(matches!(err, StorageError::Io { .. }), "{err}");
        assert!(!dir.exists(), "read-only recovery must not create the directory");
    }

    #[test]
    fn tmp_segments_are_deleted_not_read() {
        let dir = tmp_dir("tmp");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("seg-00000003.tmp"), b"half a segment").expect("write");
        let r = recover(&dir, &writer(), &Pager::unbounded()).expect("recover");
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
        let r = recover(
            &dir,
            &RecoverOptions { read_only: true, ..Default::default() },
            &Pager::unbounded(),
        )
        .expect("recover");
        assert_eq!(r.segments.len(), 1);
        assert_eq!(r.segments[0].id, 1);
        assert!(segment_path(&dir, 0).exists(), "superseded file preserved");
        assert!(dir.join("seg-00000002.tmp").exists(), "tmp file preserved");
        // A writer open afterwards cleans both up.
        let r = recover(&dir, &writer(), &Pager::unbounded()).expect("writer recover");
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
        let r = recover(&dir, &writer(), &Pager::unbounded()).expect("recover");
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
    fn disjoint_chunks_stay_cold() {
        let dir = tmp_dir("disjoint");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let key = SeriesKey::new("lazy");
        write_segment(&dir, 0, &[], &[(key.clone(), encode_run(&[0, 60], &[1.0, 2.0]))])
            .expect("seg 0");
        // Segment 1 extends the series disjointly.
        write_segment(&dir, 1, &[], &[(key.clone(), encode_run(&[120], &[3.0]))]).expect("seg 1");
        let pager = Pager::unbounded();
        let r = recover(&dir, &writer(), &pager).expect("recover");
        let chunks = &r.series[0].1;
        let ids: Vec<u64> = chunks.iter().map(SealedChunk::segment_id).collect();
        assert_eq!(ids, [0, 1], "both chunks, as the segments hold them");
        let c = pager.counters();
        assert_eq!((c.resident_chunk_bytes, c.page_faults), (0, 0), "nothing read: {c:?}");
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
        let r = recover(
            &dir,
            &RecoverOptions { retention: Some(1000), ..Default::default() },
            &Pager::unbounded(),
        )
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
        let r = recover(
            &dir2,
            &RecoverOptions { retention: Some(20_000), ..Default::default() },
            &Pager::unbounded(),
        )
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
        let r = recover(
            &dir,
            &RecoverOptions { read_only: true, retention: Some(1000) },
            &Pager::unbounded(),
        )
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
        let err = recover(&dir, &writer(), &Pager::unbounded()).expect_err("must fail");
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
