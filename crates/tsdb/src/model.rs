//! Core data model: series keys, data points, time ranges.

use std::collections::BTreeMap;
use std::fmt;

use crate::storage::chunk::{decode_into, encode_run, EncodedChunk, SealedChunk};
use crate::storage::StorageError;

/// A half-open time range `[start, end)` in the same units the database is
/// fed with (the workloads use epoch seconds at minute granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeRange {
    /// Inclusive start.
    pub start: i64,
    /// Exclusive end.
    pub end: i64,
}

impl TimeRange {
    /// Creates `[start, end)`.
    ///
    /// # Panics
    /// Panics if `start > end`.
    pub fn new(start: i64, end: i64) -> Self {
        assert!(start <= end, "time range start {start} after end {end}");
        TimeRange { start, end }
    }

    /// True if `t` falls inside the range.
    #[inline]
    pub fn contains(&self, t: i64) -> bool {
        t >= self.start && t < self.end
    }

    /// Length of the range.
    pub fn duration(&self) -> i64 {
        self.end - self.start
    }
}

/// A single timestamped observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataPoint {
    /// Observation timestamp.
    pub ts: i64,
    /// Observed value.
    pub value: f64,
}

/// The identity of a series: metric name plus sorted key-value tags.
///
/// Tags are stored in a `BTreeMap` so two keys with the same tags in a
/// different insertion order compare (and hash) equal — the paper's tag
/// model has set semantics.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric name, e.g. `pipeline_runtime`.
    pub name: String,
    /// Key-value tags, e.g. `host=datanode-1`.
    pub tags: BTreeMap<String, String>,
}

impl SeriesKey {
    /// Creates a key with no tags.
    pub fn new(name: impl Into<String>) -> Self {
        SeriesKey { name: name.into(), tags: BTreeMap::new() }
    }

    /// Builder-style tag insertion.
    pub fn with_tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.tags.insert(key.into(), value.into());
        self
    }

    /// Looks up a tag value.
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags.get(key).map(String::as_str)
    }

    /// Canonical display form `name{k1=v1,k2=v2}`.
    pub fn canonical(&self) -> String {
        let mut s = self.name.clone();
        if !self.tags.is_empty() {
            s.push('{');
            for (i, (k, v)) in self.tags.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(k);
                s.push('=');
                s.push_str(v);
            }
            s.push('}');
        }
        s
    }
}

impl fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// One time series: a key plus columnar, timestamp-sorted storage in two
/// tiers.
///
/// * The **head**: plain parallel vectors holding recent, mutable points.
/// * The **sealed tier**: immutable compressed chunks (see
///   [`crate::storage::chunk`]), each a chunk of a live segment: recovered
///   from the segment files, or adopted from the segment a `Tsdb::flush`
///   just wrote. Sealed chunks are strictly ascending and time-disjoint,
///   and every head point lies after the last sealed timestamp.
///
/// All read accessors present the *logical* series — the sealed tier is a
/// representation detail. There is one read path: [`Series::points`] walks
/// the sealed chunks' decoded blocks and then the head, exactly what
/// `Tsdb::scan_parts*` hands out slice by slice (and prunes by time
/// range), so a whole-series read is charged to the pager, and its blocks
/// evicted by the pager's clock, like any scan.
///
/// # Insert contract (out-of-order and duplicate timestamps)
///
/// [`Series::push`] pins the store's ingest semantics. A batch
/// (`Tsdb::try_insert_batch`, and each WAL record replayed by `Tsdb::open`)
/// is pushed point by point in arrival order, so a recovered store is
/// point-for-point identical to the store that wrote the log:
///
/// * **In-order** arrivals (`ts` greater than every stored timestamp)
///   append in O(1).
/// * **Duplicate** timestamps overwrite the stored value —
///   *last-writer-wins*, in arrival order.
/// * **Out-of-order** arrivals insert sorted (O(n) in the head). If the
///   timestamp lands at or before the last *sealed* timestamp, the sealed
///   chunks it reaches (from the first whose newest point is not before
///   it) first hydrate into the head and leave the sealed tier, the earlier
///   ones unread, and the series is *unsealed*: the next flush compacts,
///   so no stale copy of the range stays on disk. A chunk it reaches that
///   cannot be read makes the push an error and leaves the series as it
///   was (an unseal that skipped it would drop its points, and the next
///   flush would make the loss durable); an earlier one fails that flush.
#[derive(Debug, Clone)]
pub struct Series {
    /// Identity of the series.
    pub key: SeriesKey,
    /// Immutable compressed history, ascending and disjoint in time.
    sealed: Vec<SealedChunk>,
    /// Head timestamps (every one greater than the last sealed timestamp).
    timestamps: Vec<i64>,
    /// Head values, parallel to `timestamps`.
    values: Vec<f64>,
    /// Set when sealed chunks moved into the head since the series last
    /// adopted chunks: its head then overlaps what its old segments hold.
    unsealed: bool,
}

/// Logical equality: two series are equal when their keys and *contents*
/// match, regardless of how the points split between sealed chunks and the
/// head (a reopened store compares equal to the store that wrote it).
impl PartialEq for Series {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
            && self.len() == other.len()
            && self.points().zip(other.points()).all(|(a, b)| {
                a.ts == b.ts && (a.value == b.value || (a.value.is_nan() && b.value.is_nan()))
            })
    }
}

impl Series {
    /// Creates an empty series.
    pub fn new(key: SeriesKey) -> Self {
        Series::from_storage(key, Vec::new())
    }

    /// Rebuilds a series from recovered segment chunks (ascending,
    /// disjoint) with an empty head. Cold chunks stay cold: only their
    /// directory metadata is resident until a scan touches them.
    pub(crate) fn from_storage(key: SeriesKey, sealed: Vec<SealedChunk>) -> Self {
        debug_assert!(sealed.windows(2).all(|w| w[0].meta.max_ts < w[1].meta.min_ts));
        Series { key, sealed, timestamps: Vec::new(), values: Vec::new(), unsealed: false }
    }

    /// Appends or overwrites the observation at `ts` — see the insert
    /// contract in the [`Series`] docs: O(1) in-order appends, sorted
    /// insertion for out-of-order arrivals, last-writer-wins duplicates,
    /// and automatic unsealing when a write lands in the sealed range.
    /// Only that unseal can fail, when a sealed chunk cannot be read; the
    /// series is then unchanged.
    pub fn push(&mut self, ts: i64, value: f64) -> Result<(), StorageError> {
        self.unseal_for(ts)?;
        match self.timestamps.last() {
            Some(&last) if last < ts => {
                self.timestamps.push(ts);
                self.values.push(value);
            }
            Some(&last) if last == ts => {
                // invariant: timestamps and values stay in lockstep, so a
                // matched last timestamp implies a last value exists.
                *self.values.last_mut().expect("non-empty") = value;
            }
            None => {
                self.timestamps.push(ts);
                self.values.push(value);
            }
            _ => match self.timestamps.binary_search(&ts) {
                Ok(i) => self.values[i] = value,
                Err(i) => {
                    self.timestamps.insert(i, ts);
                    self.values.insert(i, value);
                }
            },
        }
        Ok(())
    }

    /// [`Series::push`] of each point in arrival order, with the room the
    /// batch needs reserved once, so a fresh head filled in order ends at
    /// exactly its length. A batch strictly increasing past every stored
    /// timestamp is appended in one pass, which is what those pushes do.
    pub(crate) fn push_batch(&mut self, points: &[(i64, f64)]) -> Result<(), StorageError> {
        self.timestamps.reserve(points.len());
        self.values.reserve(points.len());
        let last = self.timestamps.last().or(self.sealed.last().map(|c| &c.meta.max_ts));
        let appends = points.first().is_some_and(|&(first, _)| last.is_none_or(|&l| l < first))
            && points.windows(2).all(|w| w[0].0 < w[1].0);
        if appends {
            self.timestamps.extend(points.iter().map(|&(ts, _)| ts));
            self.values.extend(points.iter().map(|&(_, value)| value));
            return Ok(());
        }
        points.iter().try_for_each(|&(ts, value)| self.push(ts, value))
    }

    /// Makes `ts` writable: when it lands at or before the last sealed
    /// timestamp, hydrates the sealed chunks it reaches into the head, cuts
    /// the sealed tier before them and marks the series unsealed. Each is
    /// read before anything changes, so one that cannot be read is the
    /// error and the series stays as it was.
    pub(crate) fn unseal_for(&mut self, ts: i64) -> Result<(), StorageError> {
        let from = self.sealed.partition_point(|c| c.meta.max_ts < ts);
        if from == self.sealed.len() {
            return Ok(());
        }
        let tail = &self.sealed[from..];
        let n = tail.iter().map(|c| c.meta.count as usize).sum::<usize>() + self.timestamps.len();
        let mut head = (Vec::with_capacity(n), Vec::with_capacity(n));
        for chunk in tail {
            let block = chunk.decoded()?;
            head.0.extend_from_slice(&block.timestamps);
            head.1.extend_from_slice(&block.values);
        }
        head.0.extend_from_slice(&self.timestamps);
        head.1.extend_from_slice(&self.values);
        (self.timestamps, self.values) = head;
        self.sealed.truncate(from);
        self.unsealed = true;
        Ok(())
    }

    /// Whether the series unsealed since it last adopted chunks
    /// ([`Series::unseal_for`], [`Series::adopt`]).
    pub(crate) fn unsealed(&self) -> bool {
        self.unsealed
    }

    /// Encodes the head into chunks for a segment write and empties it, so
    /// a flush holds each point once; `None` when the head is empty.
    /// [`Series::adopt`] takes the chunks in once the segment holds them,
    /// and [`Series::restore_head`] puts the head back if it does not.
    pub(crate) fn take_head(&mut self) -> Option<Vec<EncodedChunk>> {
        if self.timestamps.is_empty() {
            return None;
        }
        let chunks = encode_run(&self.timestamps, &self.values);
        (self.timestamps, self.values) = (Vec::new(), Vec::new());
        Some(chunks)
    }

    /// Puts back the head [`Series::take_head`] encoded into `chunks`, bit
    /// for bit: the codec is exact.
    pub(crate) fn restore_head(&mut self, chunks: &[EncodedChunk]) -> Result<(), StorageError> {
        let n = chunks.iter().map(|c| c.meta.count as usize).sum();
        let mut head = (Vec::with_capacity(n), Vec::with_capacity(n));
        for chunk in chunks {
            decode_into(&chunk.bytes, chunk.meta.count as usize, &mut head)?;
        }
        (self.timestamps, self.values) = head;
        Ok(())
    }

    /// Takes in `chunks`, this series' part of a segment write that
    /// supersedes the segments `superseded`: their chunks leave the sealed
    /// tier, `chunks` join its end, and the series is sealed again. A
    /// flush's chunks are its taken head, and it supersedes the expired
    /// segments; a compacting flush's are the whole series, and it
    /// supersedes every segment; both less what retention expired.
    pub(crate) fn adopt(&mut self, superseded: &[u64], chunks: Vec<SealedChunk>) {
        self.sealed.retain(|c| !superseded.contains(&c.segment_id()));
        self.sealed.extend(chunks);
        self.unsealed = false;
        debug_assert!(self.sealed.windows(2).all(|w| w[0].meta.max_ts < w[1].meta.min_ts));
    }

    /// The sealed chunks (ascending, disjoint) — the lazy scan path.
    pub(crate) fn sealed_chunks(&self) -> &[SealedChunk] {
        &self.sealed
    }

    /// Head observations in the inclusive `[lo, hi]` range, as slices.
    pub(crate) fn head_range_between(&self, lo: i64, hi: i64) -> (&[i64], &[f64]) {
        if lo > hi {
            return (&[], &[]);
        }
        let a = self.timestamps.partition_point(|&t| t < lo);
        let b = self.timestamps.partition_point(|&t| t <= hi);
        (&self.timestamps[a..b], &self.values[a..b])
    }

    /// Number of observations (metadata only — no decode).
    pub fn len(&self) -> usize {
        self.sealed.iter().map(|c| c.meta.count as usize).sum::<usize>() + self.timestamps.len()
    }

    /// True when the series has no observations.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.timestamps.is_empty()
    }

    /// The sorted timestamps, collected from [`Series::points`].
    pub fn timestamps(&self) -> Vec<i64> {
        self.points().map(|p| p.ts).collect()
    }

    /// The values, parallel to [`Series::timestamps`].
    pub fn values(&self) -> Vec<f64> {
        self.points().map(|p| p.value).collect()
    }

    /// Iterates observations as [`DataPoint`]s: every sealed chunk in
    /// order, read through its decoded block, then the head. A sealed chunk
    /// that cannot be read contributes no points here; the scans
    /// (`Tsdb::scan_parts_between`) and the write path ([`Series::push`])
    /// report it as an error.
    pub fn points(&self) -> impl Iterator<Item = DataPoint> + '_ {
        let sealed =
            self.sealed.iter().filter_map(|chunk| chunk.decoded().ok()).flat_map(|block| {
                (0..block.timestamps.len())
                    .map(move |i| DataPoint { ts: block.timestamps[i], value: block.values[i] })
            });
        let head = self.timestamps.iter().zip(&self.values);
        sealed.chain(head.map(|(&ts, &value)| DataPoint { ts, value }))
    }

    /// First and last timestamp, if non-empty (metadata only — sealed
    /// chunk spans and head bounds, no decode).
    ///
    /// The half-open result saturates at `i64::MAX`: a series holding an
    /// observation at `i64::MAX` has no representable exclusive end, so the
    /// span's `end` clamps there instead of overflowing.
    pub fn time_span(&self) -> Option<TimeRange> {
        let first = self.sealed.first().map(|c| c.meta.min_ts).or(self.timestamps.first().copied());
        let last = self.timestamps.last().copied().or(self.sealed.last().map(|c| c.meta.max_ts));
        match (first, last) {
            (Some(a), Some(b)) => Some(TimeRange::new(a, b.saturating_add(1))),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_range_contains_and_duration() {
        let r = TimeRange::new(10, 20);
        assert!(r.contains(10) && r.contains(19));
        assert!(!r.contains(20) && !r.contains(9));
        assert_eq!(r.duration(), 10);
    }

    #[test]
    fn series_key_tag_order_irrelevant() {
        let a = SeriesKey::new("m").with_tag("x", "1").with_tag("y", "2");
        let b = SeriesKey::new("m").with_tag("y", "2").with_tag("x", "1");
        assert_eq!(a, b);
        assert_eq!(a.canonical(), "m{x=1,y=2}");
    }

    #[test]
    fn series_push_in_order_and_out_of_order() {
        let mut s = Series::new(SeriesKey::new("m"));
        s.push(10, 1.0).expect("push");
        s.push(30, 3.0).expect("push");
        s.push(20, 2.0).expect("push"); // out-of-order insert
        assert_eq!(s.timestamps(), &[10, 20, 30]);
        assert_eq!(s.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn series_push_duplicate_overwrites() {
        let mut s = Series::new(SeriesKey::new("m"));
        s.push(10, 1.0).expect("push");
        s.push(10, 9.0).expect("push");
        assert_eq!(s.len(), 1);
        assert_eq!(s.values(), &[9.0]);
    }

    #[test]
    fn push_batch_is_a_push_per_point() {
        let batches: [&[(i64, f64)]; 6] = [
            &[(10, 1.0), (20, 2.0)],
            &[(30, 3.0), (40, 4.0)],
            &[(40, 9.0), (50, 5.0)],
            &[(70, 7.0), (60, 6.0)],
            &[(80, 8.0), (80, 8.5)],
            &[],
        ];
        let (mut batched, mut pushed) =
            (Series::new(SeriesKey::new("m")), Series::new(SeriesKey::new("m")));
        for batch in batches {
            batched.push_batch(batch).expect("push_batch");
            batch.iter().for_each(|&(ts, value)| pushed.push(ts, value).expect("push"));
            assert_eq!(batched, pushed);
        }
    }

    #[test]
    fn time_span_saturates_at_i64_max() {
        let mut s = Series::new(SeriesKey::new("m"));
        s.push(0, 1.0).expect("push");
        s.push(i64::MAX, 2.0).expect("push");
        assert_eq!(s.time_span(), Some(TimeRange::new(0, i64::MAX)));
    }

    #[test]
    fn time_span() {
        let mut s = Series::new(SeriesKey::new("m"));
        s.push_batch(&[(5, 0.0), (9, 0.0)]).expect("push_batch");
        assert_eq!(s.time_span(), Some(TimeRange::new(5, 10)));
        assert_eq!(Series::new(SeriesKey::new("e")).time_span(), None);
    }
}
