//! The `TsdbScan` operator: a pushed-down scan's hits gathered into
//! observation rows in `(timestamp, canonical key)` order. The order comes
//! from a k-way merge over the per-series sorted slices (`merge_gather_order`:
//! identity and transpose fast paths, then a stable two-way merge cascade
//! whose big levels run on scoped threads), and the rows are gathered in
//! morsels on the shared pool.

use explainit_sync::pool;
use explainit_tsdb::SeriesSlice;

use super::ExecOptions;
use super::{effective_partitions, morsel_ranges, run_partitioned, scan_hits, shared_grid};
use crate::catalog::Catalog;
use crate::column::Column;
use crate::plan::{tsdb_scan_columns, ScanSpec, TSDB_COLUMNS};
use crate::table::{Schema, Table};
use crate::{QueryError, Result};

/// The plain scan: the spec's hits gathered into the (pruned) observation
/// columns, one row per point, in `(timestamp, canonical key)` order.
pub(super) fn run_tsdb_scan(
    catalog: &Catalog,
    scan: &ScanSpec,
    columns: &Option<Vec<usize>>,
    opts: &ExecOptions,
) -> Result<Table> {
    let binding = catalog.tsdb_binding(&scan.table)?;
    // Per-snapshot dictionaries, built once: metric_name and tag columns are
    // emitted as code vectors over shared Arc dictionaries instead of
    // cloning a String / tag map per row.
    let dicts = binding.dicts();
    let wanted: Vec<usize> = match columns {
        Some(c) => c.clone(),
        None => (0..TSDB_COLUMNS.len()).collect(),
    };
    let schema = Schema::new(tsdb_scan_columns(columns));

    // Rank order is the tiebreak order of the observation view: rows sort
    // by timestamp with ties in canonical key order.
    let hits = scan_hits(binding.db(), scan)?;

    let total = gather_rows(hits.iter().map(|p| p.timestamps.len()))?;
    // Side vectors over the concatenation, each built only when an output
    // column reads it.
    let ts_concat: Option<Vec<i64>> = wanted.contains(&0).then(|| {
        let mut v = Vec::with_capacity(total);
        for part in &hits {
            v.extend_from_slice(part.timestamps);
        }
        v
    });
    let hit_of: Option<Vec<u32>> = (wanted.contains(&1) || wanted.contains(&2)).then(|| {
        let mut v = Vec::with_capacity(total);
        for (h, part) in hits.iter().enumerate() {
            v.extend(std::iter::repeat_n(h as u32, part.timestamps.len()));
        }
        v
    });
    // Row order over the concatenation. Each series' slice is already
    // timestamp-sorted, so a k-way merge keyed on `(timestamp, rank)`
    // produces exactly the `(timestamp, canonical key)` order of the
    // materialized view behind `Catalog::get` (within one series
    // timestamps are strictly increasing, so the pair is a total order) in
    // O(N log K) instead of a global O(N log N) sort. Worker budget for
    // big cascade levels: the explicit partition count, or every core in
    // auto mode (`partitions: 1` forces the serial cascade — output is
    // identical either way).
    let workers = match opts.partitions {
        0 => pool::workers(),
        p => p,
    };
    let order = merge_gather_order(&hits, total, workers);

    // Decode per-hit dictionary codes and concatenate values once; the
    // gather below then reads pure native vectors.
    let name_code_of_hit: Option<Vec<u32>> =
        wanted.contains(&1).then(|| hits.iter().map(|p| dicts.name_code[p.id.index()]).collect());
    let tag_code_of_hit: Option<Vec<u32>> =
        wanted.contains(&2).then(|| hits.iter().map(|p| dicts.tag_code[p.id.index()]).collect());
    let vals_concat: Option<Vec<f64>> = wanted.contains(&3).then(|| {
        let mut v = Vec::with_capacity(total);
        for part in &hits {
            v.extend_from_slice(part.values);
        }
        v
    });

    // Materializes the output columns for one contiguous slice of the
    // row order — the unit of the parallel gather.
    let build_cols = |idx: &[u32]| -> Vec<Column> {
        wanted
            .iter()
            .map(|&c| match c {
                0 => {
                    let ts = ts_concat.as_ref().expect("concatenated for wanted column"); // invariant: populated above for every wanted column
                    Column::Int(idx.iter().map(|&i| ts[i as usize]).collect())
                }
                1 => {
                    let codes = name_code_of_hit.as_ref().expect("decoded for wanted column"); // invariant: populated above for every wanted column
                    let hit = hit_of.as_ref().expect("mapped for wanted column"); // invariant: populated above for every wanted column
                    Column::dict(
                        dicts.names.clone(),
                        idx.iter().map(|&i| codes[hit[i as usize] as usize]).collect(),
                    )
                }
                2 => {
                    let codes = tag_code_of_hit.as_ref().expect("decoded for wanted column"); // invariant: populated above for every wanted column
                    let hit = hit_of.as_ref().expect("mapped for wanted column"); // invariant: populated above for every wanted column
                    Column::dict(
                        dicts.tags.clone(),
                        idx.iter().map(|&i| codes[hit[i as usize] as usize]).collect(),
                    )
                }
                _ => {
                    let vals = vals_concat.as_ref().expect("concatenated for wanted column"); // invariant: populated above for every wanted column
                    Column::Float(idx.iter().map(|&i| vals[i as usize]).collect())
                }
            })
            .collect()
    };

    // Per-row column materialization runs morsel-parallel on the worker
    // pool (the serial term of every pipeline above it);
    // chunks concatenate in order, so the output is identical to the
    // single-threaded gather.
    let ranges = morsel_ranges(total, effective_partitions(opts, total));
    let out_cols: Vec<Column> = if ranges.len() <= 1 {
        build_cols(&order)
    } else {
        let parts = run_partitioned(ranges.len(), |m| {
            let (a, b) = ranges[m];
            Ok(build_cols(&order[a..b]))
        })?;
        let mut parts = parts.into_iter();
        let mut acc = parts.next().expect("at least one morsel"); // invariant: partitioning always yields at least one morsel
        for part in parts {
            for (dst, src) in acc.iter_mut().zip(part) {
                dst.append_preserving(src);
            }
        }
        acc
    };
    Ok(Table::from_columnar_parts(schema, out_cols, total))
}

/// The row count of a gather over spans of these lengths. Row positions are
/// `u32` (the merge order and its run offsets), so a scan of more rows is a
/// typed error here, before anything is allocated, instead of a wrap.
fn gather_rows(span_lens: impl Iterator<Item = usize>) -> Result<usize> {
    let total: u128 = span_lens.map(|n| n as u128).sum();
    u32::try_from(total).map(|rows| rows as usize).map_err(|_| {
        QueryError::Plan(format!("one scan gathers at most {} rows: narrow it", u32::MAX))
    })
}

/// Sort-free row ordering for the scan gather: a k-way merge over the
/// per-series sorted timestamp slices, returning indices into their
/// concatenation in `(timestamp, series rank)` order — bit-identical to a
/// global stable sort by timestamp over the rank-ordered concatenation,
/// because within one series timestamps are strictly increasing, making
/// the pair a total order over all rows.
///
/// Two structure fast paths make the dominant monitoring shapes O(N) with
/// no comparisons at all:
///
/// * **time-partitioned** — consecutive ranks' time windows don't overlap
///   (backfills, per-epoch series): the concatenation is already row
///   order, so the permutation is the identity;
/// * **grid-aligned** — every series carries the *same* timestamp vector
///   (one scrape interval across the fleet, the Appendix-C family shape):
///   row order is a perfect transpose, `(t, rank) → offsets[rank] + t`.
///
/// The general path is a balanced bottom-up cascade of stable two-way
/// merges — a tournament tree unrolled level by level: runs enter in rank
/// order and every merge takes the left run on timestamp ties, so each
/// intermediate run is `(timestamp, rank)`-sorted without ever storing or
/// comparing ranks. That keeps the k-way bound of N log K sequential
/// comparisons with the timestamp key carried inline. Within one
/// level every pair's output range is known up front (run lengths are
/// input-determined), so big levels fan the pair merges out across
/// `workers` scoped threads into disjoint slices of the double buffer —
/// the merged bytes are identical to the serial cascade by construction.
fn merge_gather_order(hits: &[SeriesSlice<'_>], total: usize, workers: usize) -> Vec<u32> {
    // Non-empty runs in rank order: (concat offset, timestamps).
    let mut run_meta: Vec<(u32, &[i64])> = Vec::with_capacity(hits.len());
    let mut offset = 0u32;
    for part in hits {
        let n = part.timestamps.len();
        if n > 0 {
            run_meta.push((offset, part.timestamps));
        }
        offset += n as u32;
    }

    // Trivial and time-partitioned shapes: the identity permutation. A
    // boundary tie (`last == next first`) stays identity too — the stable
    // sort keeps the lower rank first, which is concatenation order.
    let partitioned = run_meta
        .windows(2)
        .all(|w| w[0].1.last().expect("non-empty run") <= w[1].1.first().expect("non-empty run")); // invariant: zero-point runs are never emitted
    if partitioned {
        let mut order: Vec<u32> = Vec::with_capacity(total);
        for &(off, ts) in &run_meta {
            order.extend(off..off + ts.len() as u32);
        }
        return order;
    }

    // Grid-aligned fleets: every run shares one timestamp vector, so row
    // order is the transpose (all ranks at ts[0], then all at ts[1], ...).
    if let Some(grid) = shared_grid(run_meta.iter().map(|&(_, ts)| ts)) {
        let mut order: Vec<u32> = Vec::with_capacity(total);
        for t in 0..grid.len() as u32 {
            order.extend(run_meta.iter().map(|&(off, _)| off + t));
        }
        return order;
    }

    // General shape: cascade of stable two-way merges over (ts, index)
    // pairs; `<=` keeps the left (lower-rank) run first on equal
    // timestamps, so rank never needs storing.
    let mut cur: Vec<(i64, u32)> = Vec::with_capacity(total);
    let mut runs: Vec<(usize, usize)> = Vec::with_capacity(run_meta.len());
    for &(off, ts) in &run_meta {
        let start = cur.len();
        cur.extend(ts.iter().enumerate().map(|(i, &t)| (t, off + i as u32)));
        runs.push((start, cur.len()));
    }
    let mut buf: Vec<(i64, u32)> = vec![(0, 0); cur.len()];
    while runs.len() > 1 {
        // Every pair's output range follows from the input run lengths
        // alone, so the level's merges are independent writes into
        // disjoint, contiguous slices of `buf`.
        let mut next_runs: Vec<(usize, usize)> = Vec::with_capacity(runs.len().div_ceil(2));
        let mut start = 0usize;
        for pair in runs.chunks(2) {
            let len: usize = pair.iter().map(|&(a, b)| b - a).sum();
            next_runs.push((start, start + len));
            start += len;
        }
        let pairs: Vec<MergeJob<'_>> = runs.chunks(2).zip(next_runs.iter().copied()).collect();
        let nworkers = workers.min(pairs.len());
        if nworkers > 1 && cur.len() >= PARALLEL_MERGE_MIN_ROWS {
            // One contiguous batch of pairs per worker; batch output
            // regions tile `buf` in order, so `split_at_mut` hands each
            // thread exactly its region.
            let batches = morsel_ranges(pairs.len(), nworkers);
            let mut slices: Vec<&mut [(i64, u32)]> = Vec::with_capacity(batches.len());
            let mut rest: &mut [(i64, u32)] = &mut buf;
            let mut consumed = 0usize;
            for &(_, b) in &batches {
                let end = pairs[b - 1].1 .1;
                let (head, tail) = rest.split_at_mut(end - consumed);
                slices.push(head);
                rest = tail;
                consumed = end;
            }
            let (cur_ref, pairs_ref) = (&cur, &pairs);
            std::thread::scope(|scope| {
                for (&(a, b), out) in batches.iter().zip(slices) {
                    let base = pairs_ref[a].1 .0;
                    scope.spawn(move || {
                        for &(pair, (o_start, o_end)) in &pairs_ref[a..b] {
                            merge_pair(cur_ref, pair, &mut out[o_start - base..o_end - base]);
                        }
                    });
                }
            });
        } else {
            for &(pair, (o_start, o_end)) in &pairs {
                merge_pair(&cur, pair, &mut buf[o_start..o_end]);
            }
        }
        std::mem::swap(&mut cur, &mut buf);
        runs = next_runs;
    }
    cur.into_iter().map(|(_, i)| i).collect()
}

/// Below this row count a cascade level merges serially: scoped-thread
/// spawn overhead would dominate the merge itself.
const PARALLEL_MERGE_MIN_ROWS: usize = 1 << 16;

/// One cascade merge job: the one or two input runs (as `(start, end)`
/// ranges into the level's source buffer) plus the output range they
/// tile in the destination buffer.
type MergeJob<'a> = (&'a [(usize, usize)], (usize, usize));

/// Stable two-way merge of one cascade pair (or copy-through of an odd
/// trailing run) into its preassigned output slice. `<=` keeps the left
/// (lower-rank) run first on equal timestamps.
fn merge_pair(cur: &[(i64, u32)], pair: &[(usize, usize)], out: &mut [(i64, u32)]) {
    match *pair {
        [(la, lb), (ra, rb)] => {
            let (mut l, mut r, mut o) = (la, ra, 0usize);
            while l < lb && r < rb {
                if cur[l].0 <= cur[r].0 {
                    out[o] = cur[l];
                    l += 1;
                } else {
                    out[o] = cur[r];
                    r += 1;
                }
                o += 1;
            }
            out[o..o + (lb - l)].copy_from_slice(&cur[l..lb]);
            let o = o + (lb - l);
            out[o..o + (rb - r)].copy_from_slice(&cur[r..rb]);
        }
        [(la, lb)] => out.copy_from_slice(&cur[la..lb]),
        _ => unreachable!("chunks(2) yields 1..=2 runs"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_gather_past_u32_positions_is_a_typed_error() {
        assert_eq!(gather_rows([3usize, 0, 4].into_iter()).unwrap(), 7);
        assert_eq!(gather_rows([u32::MAX as usize].into_iter()).unwrap(), u32::MAX as usize);
        for lens in [vec![u32::MAX as usize, 1], vec![1 << 31, 1 << 31], vec![usize::MAX, 2]] {
            let err = gather_rows(lens.into_iter()).unwrap_err();
            assert!(matches!(&err, QueryError::Plan(m) if m.contains("4294967295")), "{err}");
        }
    }
}
