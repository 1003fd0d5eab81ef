//! Segment compaction: fold every live segment into one.
//!
//! Compaction never decodes a chunk — it rewrites the *sealed in-memory
//! view* (per-series `Arc` chunk payloads, already disjoint and in
//! canonical key order) into a single fresh segment whose `supersedes`
//! header lists every input id. Crash safety comes from ordering: the
//! merged segment is durable (tmp → fsync → rename → dir fsync) *before*
//! any input file is deleted, and recovery treats a superseded segment
//! whose file still exists as deletable leftovers. Reclaimed ids go on
//! the freelist and are never reused — `Storage::take_segment_id` is
//! monotone — so `supersedes` references stay unambiguous forever.
//!
//! Callers must only compact when the in-memory sealed view covers the
//! full durable state, i.e. immediately after `flush` seals the heads
//! (`Tsdb::flush` / `Tsdb::compact` enforce this ordering).

use super::chunk::EncodedChunk;
use super::failpoint::{self, Point};
use super::segment::write_segment;
use super::{sync_dir, Storage, StorageError};
use crate::model::SeriesKey;

/// Merges all live segments into one, superseding and deleting them.
/// `series` is the sealed in-memory view (canonical key order, disjoint
/// chunks per series). A store with one or zero segments is a no-op.
pub fn merge_segments(
    storage: &mut Storage,
    series: &[(SeriesKey, Vec<EncodedChunk>)],
) -> Result<(), StorageError> {
    if storage.segments.len() <= 1 {
        return Ok(());
    }
    let old_ids: Vec<u64> = storage.segments.iter().map(|s| s.id).collect();
    let new_id = storage.take_segment_id();
    let handle = write_segment(&storage.dir, new_id, &old_ids, series)?;
    // The merged segment is durable and its `supersedes` header names
    // every input, so the new segment is the truth from here on. Commit
    // the in-memory state *before* touching the input files: a failure
    // (or crash) anywhere in the delete loop then leaves memory and disk
    // agreeing on the merged segment, and recovery deletes the leftover
    // superseded files itself without double-counting a point.
    let old = std::mem::replace(&mut storage.segments, vec![handle]);
    storage.freelist.extend(old_ids);
    let mut first_err = None;
    for old in &old {
        if let Some(e) = failpoint::trip(Point::CompactDelete, &old.path) {
            // Kill point: stop mid-loop, like a crash — every remaining
            // superseded file survives on disk.
            first_err = Some(e);
            break;
        }
        if let Err(e) = std::fs::remove_file(&old.path) {
            if first_err.is_none() {
                first_err = Some(StorageError::io(format!("removing {}", old.path.display()), e));
            }
        }
    }
    sync_dir(&storage.dir)?;
    match first_err {
        // Surfaced so the caller keeps its WAL (replay over the merged
        // segment is idempotent), but the store state is already
        // consistent — only stale files linger until the next open.
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::chunk::{decode, encode_run};
    use crate::storage::recover::{recover, RecoverOptions, Recovered};
    use crate::storage::wal::Wal;
    use crate::storage::StorageOptions;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("explainit-compact-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn storage_at(dir: &std::path::Path) -> Storage {
        let r = recover(dir, &RecoverOptions::default()).expect("recover");
        Storage {
            dir: dir.to_path_buf(),
            wal: Some(Wal::open(dir, r.wal_committed).expect("wal")),
            wal_tail: 0,
            segments: r.segments,
            next_segment_id: r.next_segment_id,
            freelist: r.freelist,
            sticky_error: None,
            pending: Vec::new(),
            options: StorageOptions::default(),
        }
    }

    /// The recovered per-series chunks in segment-writer form.
    fn sealed_view(r: &Recovered) -> Vec<(SeriesKey, Vec<EncodedChunk>)> {
        r.series
            .iter()
            .map(|(key, chunks)| {
                let chunks = chunks
                    .iter()
                    .map(|c| EncodedChunk { meta: c.meta, bytes: c.data.load().expect("load") })
                    .collect();
                (key.clone(), chunks)
            })
            .collect()
    }

    #[test]
    fn merge_folds_segments_and_reclaims_ids() {
        let dir = tmp_dir("fold");
        let key = SeriesKey::new("m");
        write_segment(&dir, 0, &[], &[(key.clone(), encode_run(&[0, 60], &[1.0, 2.0]))])
            .expect("seg 0");
        write_segment(&dir, 1, &[], &[(key.clone(), encode_run(&[120], &[3.0]))]).expect("seg 1");
        let mut storage = storage_at(&dir);
        assert_eq!(storage.segments.len(), 2);
        // The sealed in-memory view after recovery: both chunks, disjoint.
        let r = recover(&dir, &RecoverOptions::default()).expect("recover");
        merge_segments(&mut storage, &sealed_view(&r)).expect("merge");
        assert_eq!(storage.segments.len(), 1);
        assert_eq!(storage.segments[0].id, 2);
        assert_eq!(storage.freelist, vec![0, 1]);
        assert_eq!(storage.next_segment_id, 3);

        // Reopening sees one segment carrying everything.
        let r = recover(&dir, &RecoverOptions::default()).expect("recover after merge");
        assert_eq!(r.segments.len(), 1);
        assert_eq!(r.series.len(), 1);
        let chunks = &r.series[0].1;
        let total: u32 = chunks.iter().map(|c| c.meta.count).sum();
        assert_eq!(total, 3);
        let bytes = chunks[0].data.load().expect("load");
        let (ts, _) = decode(&bytes, chunks[0].meta.count as usize).expect("decode");
        assert_eq!(ts[0], 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_segment_is_a_no_op() {
        let dir = tmp_dir("noop");
        write_segment(&dir, 0, &[], &[(SeriesKey::new("m"), encode_run(&[0], &[1.0]))])
            .expect("seg 0");
        let mut storage = storage_at(&dir);
        let r = recover(&dir, &RecoverOptions::default()).expect("recover");
        merge_segments(&mut storage, &sealed_view(&r)).expect("merge");
        assert_eq!(storage.segments.len(), 1);
        assert_eq!(storage.segments[0].id, 0, "untouched");
        assert!(storage.freelist.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
