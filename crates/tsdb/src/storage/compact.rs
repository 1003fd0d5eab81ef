//! Re-chunking: what a compacting flush does to each series on its way
//! into the one segment it writes.
//!
//! A store written in rounds seals one short chunk per series per flush.
//! When a flush compacts (`Tsdb::flush` once small segments pile up or a
//! write landed in a sealed range, and `Tsdb::compact` always), its one
//! segment write holds every series — its sealed tier followed by its
//! head, less the chunks whose newest point is behind the retention
//! window — and supersedes every live segment. [`rechunk`] merges each
//! series' adjacent chunks greedily, whole chunks only, into runs of at
//! most [`CHUNK_MAX_POINTS`] points: a run of two or more is decoded,
//! concatenated and encoded once; a chunk with no merge partner keeps its
//! bytes, and a full chunk never has one. The points and their order do
//! not change, nor does the segment format, so a compacted store scans bit
//! for bit as before, over fewer and larger chunks. A plain flush runs its
//! heads through [`rechunk`] too, and they come out as they went in: a
//! taken head is full chunks and at most one short one after them.
//!
//! Every input chunk is paged in (checked against its CRC) and every
//! merged run decoded *before* anything is written, so an unreadable input,
//! or one in a merged run that does not decode, is an error that leaves
//! the store as it was.

use super::chunk::{decode_into, encode_run, EncodedChunk, CHUNK_MAX_POINTS};
use super::StorageError;

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
    use std::sync::Arc;

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
