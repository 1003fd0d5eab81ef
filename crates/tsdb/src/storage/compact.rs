//! Segment compaction: fold every live segment into one, re-chunking
//! each series on the way.
//!
//! A store written in rounds seals one short chunk per series per flush.
//! Compaction merges each series' adjacent sealed chunks greedily, whole
//! chunks only, into runs of at most [`CHUNK_MAX_POINTS`] points: a run of
//! two or more is decoded, concatenated and encoded once ([`rechunk`]); a
//! chunk with no merge partner keeps its bytes, and a full chunk never has
//! one. The points and their order do not change, nor does the segment
//! format, so a compacted store scans bit for bit as before, over fewer
//! and larger chunks.
//!
//! Crash safety comes from ordering. Every input chunk is paged in
//! (checked against its CRC) and every merged run decoded *before*
//! anything is written, so an unreadable input, or one in a merged run
//! that does not decode, is an error that leaves the store as it was. The
//! merged segment, whose `supersedes` header lists every input id, is
//! written and adopted through [`Storage::adopt`], the step a flush takes
//! too: durable (tmp → fsync → rename → dir fsync) and its directory read
//! back before the in-memory state commits, and removed again if anything
//! past the rename fails. At the commit every sealed chunk of an input
//! segment leaves its tier, and the merged segment's chunks join it,
//! Paged with the bytes just written, so a page budget holds after a
//! compaction and retention drops these chunks by segment id. Only then
//! are the inputs deleted, and recovery treats a superseded segment whose
//! file still exists as deletable leftovers. Reclaimed ids go on the
//! freelist and are never reused — `Storage::take_segment_id` is monotone
//! — so `supersedes` references stay unambiguous forever.
//!
//! Callers must only compact when the sealed tiers cover the full durable
//! state, i.e. immediately after `flush` adopts the heads (`Tsdb::flush`
//! and `Tsdb::compact` share the one call site that does this).

use std::sync::Arc;

use super::chunk::{decode_into, encode_run, EncodedChunk, SealedChunk, CHUNK_MAX_POINTS};
use super::failpoint::{self, Point};
use super::pager::Pager;
use super::{sync_dir, Storage, StorageError};
use crate::model::{Series, SeriesKey};

/// Merges all live segments into one, superseding and deleting them, with
/// every sealed tier of `series` re-chunked into it and then adopted from
/// it. A lone segment is rewritten too: one that an older build compacted
/// holds round-sized chunks. A store with no segment is a no-op.
pub(crate) fn merge_segments(
    storage: &mut Storage,
    series: &mut [Series],
    pager: &Arc<Pager>,
) -> Result<(), StorageError> {
    if storage.segments.is_empty() {
        return Ok(());
    }
    // Every series with a sealed tier, in canonical key order.
    let mut order: Vec<usize> =
        (0..series.len()).filter(|&i| !series[i].sealed_chunks().is_empty()).collect();
    order.sort_by_cached_key(|&i| series[i].key.canonical());
    let view = view(series, &order)?;
    let old_ids: Vec<u64> = storage.segments.iter().map(|s| s.id).collect();
    // Once adopted, the merged segment is the truth: memory already
    // agrees with it, so a failure (or crash) anywhere in the delete loop
    // leaves memory and disk agreeing, and recovery deletes the leftover
    // superseded files itself without double-counting a point.
    let old = storage.adopt(series, &order, &view, &old_ids, pager)?;
    drop(view);
    let mut first_err = None;
    for path in old.iter().map(|s| &s.path) {
        if let Some(e) = failpoint::trip(Point::CompactDelete, path) {
            // Kill point: stop mid-loop, like a crash — every remaining
            // superseded file survives on disk.
            first_err = Some(e);
            break;
        }
        if let Err(e) = std::fs::remove_file(path) {
            if first_err.is_none() {
                first_err = Some(StorageError::io(format!("removing {}", path.display()), e));
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

/// What the merged segment holds: the series at `order`, each with its
/// chunks paged in and re-chunked.
fn view(
    series: &[Series],
    order: &[usize],
) -> Result<Vec<(SeriesKey, Vec<EncodedChunk>)>, StorageError> {
    order
        .iter()
        .map(|&i| {
            let chunks = series[i].sealed_chunks().iter().map(SealedChunk::encoded);
            Ok((series[i].key.clone(), rechunk(chunks.collect::<Result<_, _>>()?)?))
        })
        .collect()
}

/// Re-chunks one series' sealed tier (ascending, disjoint chunks), doing
/// no I/O: adjacent chunks merge greedily, whole chunks only, into runs of
/// at most [`CHUNK_MAX_POINTS`] points, and each run of two or more is
/// decoded, concatenated and encoded once. A chunk with no merge partner
/// keeps its bytes. The output holds the input's points in their order,
/// and no two adjacent output chunks could merge. A chunk in a run that
/// does not decode, or a run whose chunks do not ascend, is `Corrupt`.
pub fn rechunk(chunks: Vec<EncodedChunk>) -> Result<Vec<EncodedChunk>, StorageError> {
    let mut out = Vec::with_capacity(chunks.len());
    let mut run = Vec::new();
    let mut points = 0;
    for chunk in chunks {
        let count = chunk.meta.count as usize;
        if points + count > CHUNK_MAX_POINTS {
            out.extend(merge_run(std::mem::take(&mut run))?);
            points = 0;
        }
        points += count;
        run.push(chunk);
    }
    out.extend(merge_run(run)?);
    Ok(out)
}

/// One greedy run as chunks: a lone chunk as it is, two or more as the
/// one chunk their points encode to.
fn merge_run(run: Vec<EncodedChunk>) -> Result<Vec<EncodedChunk>, StorageError> {
    if run.len() < 2 {
        return Ok(run);
    }
    let total = run.iter().map(|c| c.meta.count as usize).sum();
    let mut points = (Vec::with_capacity(total), Vec::with_capacity(total));
    for chunk in &run {
        let last = points.0.last().copied();
        let first = points.0.len();
        decode_into(&chunk.bytes, chunk.meta.count as usize, &mut points)?;
        if last.is_some_and(|last| last >= points.0[first]) {
            return Err(StorageError::corrupt("chunk", "chunks to merge do not ascend"));
        }
    }
    Ok(encode_run(&points.0, &points.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::chunk::decode;
    use crate::storage::recover::{recover, RecoverOptions};
    use crate::storage::segment::write_segment;
    use crate::storage::wal::Wal;
    use crate::storage::StorageOptions;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("explainit-compact-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// The writer state and the sealed tiers `Tsdb::open` recovers.
    fn open_at(dir: &std::path::Path, pager: &Arc<Pager>) -> (Storage, Vec<Series>) {
        let r = recover(dir, &RecoverOptions::default(), pager).expect("recover");
        let series = r.series.into_iter().map(|(key, c)| Series::from_storage(key, c)).collect();
        let storage = Storage {
            dir: dir.to_path_buf(),
            wal: Some(Wal::open(dir, r.wal_committed).expect("wal")),
            wal_tail: 0,
            segments: r.segments,
            next_segment_id: r.next_segment_id,
            freelist: r.freelist,
            options: StorageOptions::default(),
        };
        (storage, series)
    }

    fn counts(chunks: &[EncodedChunk]) -> Vec<u32> {
        chunks.iter().map(|c| c.meta.count).collect()
    }

    /// Chunks of the given sizes over one ascending minute grid.
    fn rounds(sizes: &[usize]) -> Vec<EncodedChunk> {
        let mut at = 0i64;
        let mut chunks = Vec::new();
        for &n in sizes {
            let ts: Vec<i64> = (at..at + n as i64).map(|i| i * 60).collect();
            let vs: Vec<f64> = ts.iter().map(|&t| t as f64 * 0.5).collect();
            chunks.extend(encode_run(&ts, &vs));
            at += n as i64;
        }
        chunks
    }

    #[test]
    fn merge_folds_segments_rechunks_and_reclaims_ids() {
        let dir = tmp_dir("fold");
        let key = SeriesKey::new("m");
        write_segment(&dir, 0, &[], &[(key.clone(), encode_run(&[0, 60], &[1.0, 2.0]))])
            .expect("seg 0");
        write_segment(&dir, 1, &[], &[(key.clone(), encode_run(&[120], &[3.0]))]).expect("seg 1");
        let pager = Pager::unbounded();
        let (mut storage, mut series) = open_at(&dir, &pager);
        assert_eq!(storage.segments.len(), 2);
        merge_segments(&mut storage, &mut series, &pager).expect("merge");
        assert_eq!(storage.segments.len(), 1);
        assert_eq!(storage.segments[0].id, 2);
        assert_eq!(storage.freelist, vec![0, 1]);
        assert_eq!(storage.next_segment_id, 3);
        // The writer's tier now pages from the merged segment.
        let sealed = series[0].sealed_chunks();
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].segment_id(), 2);

        // Reopening sees one segment carrying everything, in one chunk.
        let r = recover(&dir, &RecoverOptions::default(), &pager).expect("recover after merge");
        assert_eq!(r.segments.len(), 1);
        assert_eq!(r.series.len(), 1);
        let chunks = &r.series[0].1;
        assert_eq!(chunks.len(), 1);
        let bytes = chunks[0].encoded().expect("load").bytes;
        let (ts, vs) = decode(&bytes, chunks[0].meta.count as usize).expect("decode");
        assert_eq!((ts, vs), (vec![0, 60, 120], vec![1.0, 2.0, 3.0]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_single_segment_is_rewritten_and_no_segment_is_a_no_op() {
        let dir = tmp_dir("single");
        let key = SeriesKey::new("m");
        let mut chunks = encode_run(&[0], &[1.0]);
        chunks.extend(encode_run(&[60], &[2.0]));
        write_segment(&dir, 0, &[], &[(key, chunks)]).expect("seg 0");
        let pager = Pager::unbounded();
        let (mut storage, mut series) = open_at(&dir, &pager);
        merge_segments(&mut storage, &mut series, &pager).expect("merge");
        assert_eq!(storage.segments.len(), 1);
        assert_eq!(storage.segments[0].id, 1, "rewritten");
        assert_eq!(storage.freelist, vec![0]);
        assert_eq!(series[0].sealed_chunks().len(), 1, "its two chunks re-chunked");

        let empty = tmp_dir("empty");
        let (mut storage, mut series) = open_at(&empty, &pager);
        merge_segments(&mut storage, &mut series, &pager).expect("merge");
        assert!(storage.segments.is_empty() && storage.next_segment_id == 0, "nothing written");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&empty);
    }

    #[test]
    fn rechunk_merges_greedily_and_leaves_lone_chunks_alone() {
        let input = rounds(&[2000, 100, 2048, 30, 40, 2000, 60, 1, 1]);
        let output = rechunk(input.clone()).expect("rechunk");
        assert_eq!(counts(&output), [2000, 100, 2048, 70, 2000, 62]);
        for (i, o) in [(0, 0), (1, 1), (2, 2), (5, 4)] {
            assert!(Arc::ptr_eq(&input[i].bytes, &output[o].bytes), "chunk {i} kept its bytes");
        }
        // A second pass finds nothing to merge.
        let again = rechunk(output.clone()).expect("rechunk again");
        assert!(again.iter().zip(&output).all(|(a, b)| Arc::ptr_eq(&a.bytes, &b.bytes)));
        assert!(rechunk(Vec::new()).expect("empty").is_empty());
    }

    #[test]
    fn a_run_that_does_not_decode_or_ascend_is_corrupt() {
        let mut garbage = rounds(&[3, 3]);
        garbage[1].bytes = Arc::new(vec![0xFF; 2]);
        assert!(matches!(rechunk(garbage), Err(StorageError::Corrupt { .. })));
        let mut overlapping = rounds(&[3]);
        overlapping.extend(rounds(&[3]));
        assert!(matches!(rechunk(overlapping), Err(StorageError::Corrupt { .. })));
        // A lone chunk is not decoded: it keeps its bytes, whatever they are.
        let mut lone = rounds(&[2048, 3]);
        lone[0].bytes = Arc::new(vec![0xFF; 2]);
        assert_eq!(counts(&rechunk(lone).expect("nothing to merge")), [2048, 3]);
    }
}
