//! The series store with its inverted tag index, optionally backed by the
//! durable storage engine in [`crate::storage`].

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::{Deref, Range};
use std::path::Path;
use std::sync::Arc;

use crate::glob::{glob_literal_prefix, glob_match, is_glob};
use crate::model::{Series, SeriesKey, TimeRange};
use crate::storage::chunk::{self, ChunkMeta, DecodedBlock, EncodedChunk, SealedChunk};
use crate::storage::pager::Pager;
use crate::storage::recover::RecoverOptions;
use crate::storage::wal::{Wal, WalRecord};
use crate::storage::{
    compact, recover, Storage, StorageError, StorageOptions, StorageStats, AUTO_COMPACT_SEGMENTS,
};

/// Fewest points in a scan's overlapping, not yet decoded chunks for which
/// their fault, check and decode run on the worker pool rather than one by
/// one on the caller.
///
/// Measured as a cold full scan, serial against pooled, on 2 cores (AMD
/// EPYC), over stores written in 12 rounds of 120 points and re-chunked by
/// compaction (960 + 4 × 120 points a series, or one 1,440-point chunk):
/// the pool wins from between 2^13 and 2^14 points, by 9–35% at 2^15, and
/// loses 12–15% at 2^12. The caller's per-chunk work moves the
/// crossover: a store that keeps 120-point chunks, which compaction no
/// longer leaves behind, crossed only at 2^16.
const PARALLEL_DECODE_MIN_POINTS: usize = 1 << 15;

/// Opaque, dense identifier of a series inside one [`Tsdb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesId(pub(crate) u32);

impl SeriesId {
    /// Index form for external columnar bookkeeping.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// A single tag predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TagFilter {
    /// Tag must exist and equal the value exactly.
    Equals(String, String),
    /// Tag must exist and match the glob pattern.
    Glob(String, String),
    /// Tag key must exist with any value.
    HasKey(String),
    /// Tag key must be absent (the paper's `*{host=NULL}` family).
    Absent(String),
}

impl TagFilter {
    fn matches(&self, key: &SeriesKey) -> bool {
        match self {
            TagFilter::Equals(k, v) => key.tag(k) == Some(v.as_str()),
            TagFilter::Glob(k, pat) => key.tag(k).is_some_and(|v| glob_match(pat, v)),
            TagFilter::HasKey(k) => key.tag(k).is_some(),
            TagFilter::Absent(k) => key.tag(k).is_none(),
        }
    }
}

/// A partition handle over one series' in-range observations: the atom of
/// partition-parallel scan execution. A slice cut from a sealed chunk holds
/// the chunk's decoded block, so it stays valid after the pager's clock
/// evicts that block from its slot; a head slice borrows the store.
#[derive(Debug, Clone)]
pub struct SeriesSlice<'a> {
    /// Dense store-local series id (stable across scans of one instance).
    pub id: SeriesId,
    /// The series key (metric name + tags).
    pub key: &'a SeriesKey,
    /// In-range timestamps, ascending.
    pub timestamps: SliceColumn<'a, i64>,
    /// Values parallel to `timestamps`.
    pub values: SliceColumn<'a, f64>,
}

/// One column of a [`SeriesSlice`], dereferencing to `[i64]`
/// (timestamps) or `[f64]` (values): a range of the series head, borrowed,
/// or of a decoded chunk block, held.
#[derive(Clone)]
pub struct SliceColumn<'a, T>(Run<'a, T>);

#[derive(Clone)]
enum Run<'a, T> {
    Head(&'a [T]),
    Block(Arc<DecodedBlock>, Range<usize>),
}

impl Deref for SliceColumn<'_, i64> {
    type Target = [i64];

    fn deref(&self) -> &[i64] {
        match &self.0 {
            Run::Head(run) => run,
            Run::Block(block, range) => &block.timestamps[range.clone()],
        }
    }
}

impl Deref for SliceColumn<'_, f64> {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        match &self.0 {
            Run::Head(run) => run,
            Run::Block(block, range) => &block.values[range.clone()],
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for SliceColumn<'_, T>
where
    Self: Deref<Target = [T]>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> SeriesSlice<'a> {
    fn head(id: SeriesId, key: &'a SeriesKey, (ts, vs): (&'a [i64], &'a [f64])) -> Self {
        let (timestamps, values) = (SliceColumn(Run::Head(ts)), SliceColumn(Run::Head(vs)));
        SeriesSlice { id, key, timestamps, values }
    }

    fn block(id: SeriesId, key: &'a SeriesKey, block: Arc<DecodedBlock>, at: Range<usize>) -> Self {
        let timestamps = SliceColumn(Run::Block(Arc::clone(&block), at.clone()));
        let values = SliceColumn(Run::Block(block, at));
        SeriesSlice { id, key, timestamps, values }
    }
}

/// A metric selection filter: optional name pattern plus tag predicates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricFilter {
    /// Metric name **pattern**: any `*` / `?` in it is a glob metacharacter
    /// (there is no escape), and a string without them matches exactly.
    /// `None` matches every name. A caller holding a *literal* must not pass
    /// one with a metacharacter in it: the SQL layer keeps `metric_name =
    /// 'cpu*'` a row filter and pushes only what is a pattern already
    /// (`ScanSpec::name` in the query crate is this field).
    pub name: Option<String>,
    /// All predicates must hold (conjunction).
    pub tags: Vec<TagFilter>,
}

impl MetricFilter {
    /// Matches all series.
    pub fn all() -> Self {
        MetricFilter::default()
    }

    /// Filter on a metric name (exact or glob).
    pub fn name(name: impl Into<String>) -> Self {
        MetricFilter { name: Some(name.into()), tags: Vec::new() }
    }

    /// Builder-style exact tag predicate.
    pub fn with_tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.tags.push(TagFilter::Equals(key.into(), value.into()));
        self
    }

    /// True when the filter accepts the key.
    pub fn matches(&self, key: &SeriesKey) -> bool {
        if let Some(name) = &self.name {
            let ok = if is_glob(name) { glob_match(name, &key.name) } else { name == &key.name };
            if !ok {
                return false;
            }
        }
        self.tags.iter().all(|t| t.matches(key))
    }
}

/// The time series database: an in-memory index, optionally backed by a
/// durable store directory ([`Tsdb::open`]).
///
/// Lookup structures:
/// * `by_key` — exact key to id;
/// * `name_index` — metric name to ids (names are low-cardinality);
/// * `tag_index` — `(key, value)` pair to ids (the classic OpenTSDB-style
///   inverted index).
///
/// # Durability lifecycle
///
/// [`Tsdb::open`] recovers a directory (segments + WAL replay, see
/// [`crate::storage::recover`]); inserts append to the WAL; [`Tsdb::flush`]
/// is the durability point — it fsyncs the WAL, writes the in-memory heads
/// as one new compressed segment superseding what it replaces and adopts
/// its chunks, and truncates the WAL; it compacts instead when small
/// segments pile up or a write landed in a sealed range. Cloning a durable store
/// yields an *in-memory snapshot view* that shares the compressed chunk
/// bytes but detaches from the directory, so exactly one handle ever
/// writes it.
///
/// # Residency lifecycle
///
/// Every sealed chunk is a chunk of a live segment. Chunks recovered from
/// segment files start **Cold**: only their directory entry (min/max
/// timestamp, count, offset, length) is resident. The first scan that
/// touches one faults its compressed bytes in with a single positioned
/// read checked against the chunk's CRC (**Paged**), and decoding on top
/// of that yields the **Decoded** block; all three are the state of the
/// chunk's one page slot, which clones share. Chunks a flush just wrote
/// start Paged, with no fault counted. A
/// [`StorageOptions::page_budget_bytes`] budget bounds pages and blocks
/// together: the pager's clock evicts both behind `&self` after every
/// fault, decode and page written (see [`crate::storage::pager`]), on any
/// handle, while each scan keeps the blocks its slices read; no page is
/// pinned. With no budget (plain [`Tsdb::open`]) every touched chunk simply stays
/// resident and decoded.
#[derive(Debug)]
pub struct Tsdb {
    series: Vec<Series>,
    by_key: HashMap<SeriesKey, SeriesId>,
    name_index: BTreeMap<String, BTreeSet<SeriesId>>,
    tag_index: BTreeMap<(String, String), BTreeSet<SeriesId>>,
    /// The durable engine, present only on the handle `Tsdb::open` built.
    storage: Option<Storage>,
    /// The pager owning residency accounting, the eviction clock and the
    /// chunk-decode count (the observable that proves scans decode
    /// lazily), shared by this store and all its clones. Unbounded unless
    /// the store was opened with a budget.
    pager: Arc<Pager>,
}

impl Default for Tsdb {
    fn default() -> Self {
        Tsdb {
            series: Vec::new(),
            by_key: HashMap::new(),
            name_index: BTreeMap::new(),
            tag_index: BTreeMap::new(),
            storage: None,
            pager: Pager::unbounded(),
        }
    }
}

/// Clones detach from the store directory: the clone is an in-memory
/// snapshot view sharing the sealed chunk payloads (`Arc` page slots),
/// never the WAL or segment files. This is what the
/// catalog's snapshot-at-bind contract consumes. The pager is shared too:
/// a clone scanning cold chunks faults through (and is budgeted by) the
/// same clock, and its `ColdRef`s hold open file handles, so paging keeps
/// working even after the writer compacts the segment files away.
impl Clone for Tsdb {
    fn clone(&self) -> Self {
        Tsdb {
            series: self.series.clone(),
            by_key: self.by_key.clone(),
            name_index: self.name_index.clone(),
            tag_index: self.tag_index.clone(),
            storage: None,
            pager: Arc::clone(&self.pager),
        }
    }
}

impl Tsdb {
    /// Creates an empty in-memory database.
    pub fn new() -> Self {
        Tsdb::default()
    }

    /// Opens (creating if needed) a durable database at `dir`, recovering
    /// whatever a previous process — or a crash — left there: segment
    /// files rebuild the sealed tier, then committed WAL records replay
    /// through the exact [`Series::push`] insert contract. A torn WAL tail
    /// is truncated to the last fully-committed record.
    pub fn open(dir: impl AsRef<Path>) -> Result<Tsdb, StorageError> {
        Tsdb::open_with(dir, StorageOptions::default())
    }

    /// [`Tsdb::open`] with explicit [`StorageOptions`]: a page budget
    /// bounds resident compressed chunk bytes (cold chunks demand-page in
    /// and evict under clock pressure), and a retention window expires the
    /// chunks behind it without decoding them: whole segments of them at
    /// open and at every flush, which writes only the chunks it keeps (see
    /// [`StorageOptions::retention`]).
    pub fn open_with(dir: impl AsRef<Path>, options: StorageOptions) -> Result<Tsdb, StorageError> {
        Tsdb::open_impl(dir.as_ref(), options, false)
    }

    /// Opens an *existing* store without taking the writer role: the WAL
    /// is replayed but never created, extended, or truncated; tmp files
    /// and superseded/expired segments are ignored rather than deleted.
    /// Any number of read-only handles may coexist with each other (and
    /// with one writer, seeing its state as of their open). All mutating
    /// surfaces ([`Tsdb::try_insert`], [`Tsdb::flush`], [`Tsdb::sync`],
    /// [`Tsdb::compact`]) fail with [`StorageError::ReadOnly`].
    pub fn open_read_only(dir: impl AsRef<Path>) -> Result<Tsdb, StorageError> {
        Tsdb::open_read_only_with(dir, StorageOptions::default())
    }

    /// [`Tsdb::open_read_only`] with explicit [`StorageOptions`]. The
    /// retention window only *excludes* expired segments from the view —
    /// a read-only handle never deletes their files.
    pub fn open_read_only_with(
        dir: impl AsRef<Path>,
        options: StorageOptions,
    ) -> Result<Tsdb, StorageError> {
        Tsdb::open_impl(dir.as_ref(), options, true)
    }

    fn open_impl(
        dir: &Path,
        options: StorageOptions,
        read_only: bool,
    ) -> Result<Tsdb, StorageError> {
        let pager = Pager::with_budget(options.page_budget_bytes);
        let recovered = recover::recover(
            dir,
            &RecoverOptions { read_only, retention: options.retention },
            &pager,
        )?;
        let mut db = Tsdb { pager, ..Tsdb::new() };
        for (key, chunks) in recovered.series {
            let id = db.series_id(&key);
            db.series[id.index()] = Series::from_storage(key, chunks);
        }
        for WalRecord { key, points } in recovered.wal_records {
            let id = db.series_id(&key);
            db.series[id.index()].push_batch(&points)?;
        }
        let wal = if read_only { None } else { Some(Wal::open(dir, recovered.wal_committed)?) };
        db.storage = Some(Storage {
            dir: dir.to_path_buf(),
            wal,
            wal_tail: recovered.wal_committed,
            segments: recovered.segments,
            next_segment_id: recovered.next_segment_id,
            freelist: recovered.freelist,
            options,
        });
        Ok(db)
    }

    /// True when this handle observes a store directory it may not write.
    pub fn is_read_only(&self) -> bool {
        self.storage.as_ref().is_some_and(Storage::is_read_only)
    }

    /// True when this handle owns a store directory.
    pub fn is_durable(&self) -> bool {
        self.storage.is_some()
    }

    /// The store directory, when durable.
    pub fn data_dir(&self) -> Option<&Path> {
        self.storage.as_ref().map(|s| s.dir.as_path())
    }

    /// Chunk decodes performed by this store and its clones since open —
    /// tests assert on deltas of this to prove time-filtered scans leave
    /// out-of-range chunks compressed.
    pub fn decode_count(&self) -> u64 {
        self.pager.decode_count()
    }

    /// Storage counters, when durable. The paging counters come from the
    /// shared pager: `resident_bytes` covers compressed chunk bytes plus
    /// the decoded blocks slots hold, `peak_resident_chunk_bytes` is the
    /// high-water mark the out-of-core gate checks against the budget, and
    /// `page_faults`/`evictions` prove cold chunks actually paged.
    pub fn storage_stats(&self) -> Option<StorageStats> {
        self.storage.as_ref().map(|s| StorageStats {
            segments: s.segments.len(),
            segment_bytes: s.segments.iter().map(|h| h.data_bytes).sum(),
            chunks: self.series.iter().map(|series| series.sealed_chunks().len()).sum(),
            wal_bytes: s.wal_len(),
            freelist: s.freelist.clone(),
            ..self.pager.counters()
        })
    }

    /// The page budget this store was opened with, if any.
    pub fn page_budget(&self) -> Option<u64> {
        self.pager.budget()
    }

    /// Fsyncs the WAL: everything inserted so far survives a crash (as
    /// replayable log records). Cheaper than [`Tsdb::flush`] — no sealing,
    /// no segment write.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        match self.storage.as_mut() {
            Some(storage) => match storage.wal.as_mut() {
                Some(wal) => wal.sync(),
                None => Err(StorageError::ReadOnly),
            },
            None => Err(StorageError::NotDurable),
        }
    }

    /// The durability point: fsyncs the WAL, writes one segment and adopts
    /// its chunks ([`Storage::adopt`]: they join the sealed tiers as Paged
    /// slots of the segment), truncates the WAL and deletes the files the
    /// segment superseded. The segment holds the heads and supersedes the
    /// segments the retention window expired. The flush *compacts* when it
    /// would leave [`AUTO_COMPACT_SEGMENTS`] segments, or when a write
    /// landed in a series' sealed range since its last flush: the one
    /// segment then holds every series re-chunked (see
    /// [`crate::storage::compact`]) and supersedes every segment, so no two
    /// segments ever hold overlapping chunks. Either way it holds only the
    /// chunks retention keeps: one whose newest point is behind the window
    /// is written nowhere and leaves memory. A failed write or read-back
    /// changes nothing in memory: the heads, which the flush holds only
    /// encoded, decode back bit for bit, the WAL stays, and a retry encodes
    /// again under the same segment id. A sealed chunk that cannot be read
    /// fails a compacting flush; unless a series is unsealed (its head
    /// then overlaps what the old segments hold), the heads are first made
    /// durable in a segment of their own, so later flushes go on. Write
    /// errors are not carried here: each came back from the `try_insert*`
    /// call that caused it.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        self.flush_then_compact_at(AUTO_COMPACT_SEGMENTS)
    }

    /// A flush that compacts however few segments there are, re-chunking
    /// every series (see [`crate::storage::compact`]). A store of one
    /// segment is rewritten as well.
    pub fn compact(&mut self) -> Result<(), StorageError> {
        self.flush_then_compact_at(1)
    }

    /// [`Tsdb::flush`], compacting when it would leave `segments` live
    /// segments: one segment write, whose `supersedes` names every segment
    /// it replaces, and one delete loop after it.
    fn flush_then_compact_at(&mut self, segments: usize) -> Result<(), StorageError> {
        let Some(storage) = self.storage.as_mut() else {
            return Err(StorageError::NotDurable);
        };
        let Some(wal) = storage.wal.as_mut() else {
            return Err(StorageError::ReadOnly);
        };
        wal.sync()?;
        let heads: Vec<_> = self.series.iter_mut().map(Series::take_head).collect();
        let heads_max =
            heads.iter().flatten().filter_map(|h| h.last()).map(|c| c.meta.max_ts).max();
        let newest = storage.segments.iter().filter_map(|s| s.max_ts).chain(heads_max);
        let cutoff = crate::storage::cutoff(storage.options.retention, newest);
        let expired = |max_ts: Option<i64>| crate::storage::expired(max_ts, cutoff);
        let expired_ids: Vec<u64> =
            storage.segments.iter().filter(|s| expired(s.max_ts)).map(|s| s.id).collect();
        let unsealed = self.series.iter().any(Series::unsealed);
        let left = storage.segments.len() - expired_ids.len()
            + usize::from(heads_max.is_some() && !expired(heads_max));
        let compacting = left >= segments || unsealed;
        let supersedes: Vec<u64> = if compacting {
            storage.segments.iter().map(|s| s.id).collect()
        } else {
            expired_ids.clone()
        };
        let mut unread = None;
        let planned = match segment_view(&self.series, &heads, compacting, cutoff) {
            Ok(view) => Ok((view, supersedes)),
            Err(e) if !unsealed => {
                unread = Some(e);
                segment_view(&self.series, &heads, false, cutoff).map(|view| (view, expired_ids))
            }
            Err(e) => Err(e),
        };
        let adopted = planned.and_then(|((order, view), supersedes)| {
            storage.adopt(&mut self.series, &order, &view, &supersedes, &self.pager)
        });
        let superseded = match adopted {
            Ok(superseded) => superseded,
            Err(e) => {
                for (series, head) in self.series.iter_mut().zip(&heads) {
                    if let Some(chunks) = head {
                        series.restore_head(chunks)?;
                    }
                }
                return Err(e);
            }
        };
        if let Some(wal) = storage.wal.as_mut() {
            wal.truncate()?;
        }
        storage.remove(&superseded)?;
        unread.map_or(Ok(()), Err)
    }

    /// Number of distinct series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Total number of stored observations.
    pub fn point_count(&self) -> usize {
        self.series.iter().map(Series::len).sum()
    }

    /// Returns (creating if necessary) the id for a series key.
    pub fn series_id(&mut self, key: &SeriesKey) -> SeriesId {
        if let Some(&id) = self.by_key.get(key) {
            return id;
        }
        // invariant: series ids are u32 by on-disk format; 4 billion
        // distinct keys exhaust memory long before this converts lossily.
        let id = SeriesId(u32::try_from(self.series.len()).expect("series id overflow"));
        self.series.push(Series::new(key.clone()));
        self.by_key.insert(key.clone(), id);
        self.name_index.entry(key.name.clone()).or_default().insert(id);
        for (k, v) in &key.tags {
            self.tag_index.entry((k.clone(), v.clone())).or_default().insert(id);
        }
        id
    }

    /// Inserts one observation, creating the series on first touch. On a
    /// durable store the point is logged to the WAL first (durable after
    /// the next [`Tsdb::sync`] / [`Tsdb::flush`]). Every failure is this
    /// call's error — a read-only store, a WAL append that fails, a sealed
    /// chunk that cannot be read — and the point is then *not* applied in
    /// memory either, so the in-memory and logged states never diverge.
    pub fn try_insert(&mut self, key: &SeriesKey, ts: i64, value: f64) -> Result<(), StorageError> {
        self.try_insert_batch(key, &[(ts, value)])
    }

    /// Inserts a batch of observations for one series under a single WAL
    /// record (points replay in arrival order through the
    /// [`Series::push`] contract, so out-of-order and duplicate timestamps
    /// behave exactly like individual inserts). A batch that reaches into
    /// a sealed chunk that cannot be read is an error before anything is
    /// logged or applied.
    pub fn try_insert_batch(
        &mut self,
        key: &SeriesKey,
        points: &[(i64, f64)],
    ) -> Result<(), StorageError> {
        let Some(first) = points.iter().map(|&(ts, _)| ts).min() else {
            return Ok(());
        };
        self.make_writable(key, first)?;
        self.wal_append(key, points)?;
        let id = self.series_id(key);
        self.series[id.index()].push_batch(points)
    }

    /// Unseals `key`'s series when `ts` lands in its sealed range, so the
    /// pushes that follow cannot fail. A sealed chunk that cannot be read
    /// is the error, raised before the write reaches the log.
    fn make_writable(&mut self, key: &SeriesKey, ts: i64) -> Result<(), StorageError> {
        match self.by_key.get(key) {
            Some(id) => self.series[id.index()].unseal_for(ts),
            None => Ok(()),
        }
    }

    fn wal_append(&mut self, key: &SeriesKey, points: &[(i64, f64)]) -> Result<(), StorageError> {
        match self.storage.as_mut() {
            Some(storage) => match storage.wal.as_mut() {
                Some(wal) => wal.append(key, points),
                None => Err(StorageError::ReadOnly),
            },
            None => Ok(()),
        }
    }

    /// Borrows a series by id.
    ///
    /// # Panics
    /// Panics if the id came from a different database instance.
    pub fn series(&self, id: SeriesId) -> &Series {
        &self.series[id.index()]
    }

    /// Looks up a series by exact key.
    pub fn get(&self, key: &SeriesKey) -> Option<&Series> {
        self.by_key.get(key).map(|id| &self.series[id.index()])
    }

    /// Iterates all series.
    pub fn iter(&self) -> impl Iterator<Item = (SeriesId, &Series)> {
        self.series.iter().enumerate().map(|(i, s)| (SeriesId(i as u32), s))
    }

    /// All distinct metric names, sorted.
    pub fn metric_names(&self) -> Vec<&str> {
        self.name_index.keys().map(String::as_str).collect()
    }

    /// Finds series ids matching the filter, using the indexes where the
    /// filter is exact, a `name_index` range scan for glob names with a
    /// literal prefix, and a full scan only for prefix-free globs with no
    /// exact tag predicate.
    pub fn find(&self, filter: &MetricFilter) -> Vec<SeriesId> {
        // Fast path: exact name narrows the candidate set via the index.
        let candidates: Vec<SeriesId> = match &filter.name {
            Some(name) if !is_glob(name) => match self.name_index.get(name) {
                Some(set) => set.iter().copied().collect(),
                None => return Vec::new(),
            },
            // Glob with a literal prefix (`disk*`, `pipeline_?`): range-scan
            // the ordered name index over the prefix instead of walking
            // every series. Candidate ids stay ascending (matching the
            // other index paths) via the BTreeSet union.
            Some(name) if !glob_literal_prefix(name).is_empty() => {
                let prefix = glob_literal_prefix(name);
                let mut ids: BTreeSet<SeriesId> = BTreeSet::new();
                for (indexed, set) in self.name_index.range(prefix.to_string()..) {
                    if !indexed.starts_with(prefix) {
                        break;
                    }
                    if glob_match(name, indexed) {
                        ids.extend(set.iter().copied());
                    }
                }
                ids.into_iter().collect()
            }
            _ => {
                // Try narrowing by the first exact tag predicate.
                let exact_tag = filter.tags.iter().find_map(|t| match t {
                    TagFilter::Equals(k, v) => Some((k.clone(), v.clone())),
                    _ => None,
                });
                match exact_tag {
                    Some(kv) => match self.tag_index.get(&kv) {
                        Some(set) => set.iter().copied().collect(),
                        None => return Vec::new(),
                    },
                    None => (0..self.series.len()).map(|i| SeriesId(i as u32)).collect(),
                }
            }
        };
        candidates.into_iter().filter(|id| filter.matches(&self.series[id.index()].key)).collect()
    }

    /// Finds series and restricts them to a time range, returning
    /// *partition handles* carrying the [`SeriesId`] — the unit the
    /// partition-parallel query executor distributes across workers and the
    /// key into any per-series side tables (dictionary codes,
    /// pre-aggregates).
    ///
    /// A purely in-memory series yields exactly one slice (possibly
    /// empty). A series with sealed compressed history yields one slice
    /// per *overlapping* chunk plus one for the in-range head — chunks
    /// outside the time range are pruned on metadata and never decoded
    /// (observable via [`Tsdb::decode_count`]). Slices of one series never
    /// overlap in time and arrive in ascending time order, so consumers
    /// that tiebreak equal timestamps by slice rank see the same order a
    /// single contiguous slice would give them.
    ///
    /// A chunk slice holds its decoded block, so the slices stay valid
    /// while the pager's clock evicts blocks behind them.
    ///
    /// A chunk that cannot be read — an I/O error, a checksum mismatch, a
    /// bit stream that does not decode — fails the whole scan: this form
    /// then returns no slices at all, never a partial scan, and
    /// [`Tsdb::scan_parts_between`] returns the error.
    pub fn scan_parts(&self, filter: &MetricFilter, range: &TimeRange) -> Vec<SeriesSlice<'_>> {
        // An empty/inverted half-open range keeps the one-empty-slice-per-
        // matched-series shape via `lo > hi`; `>=` so a range ending at
        // i64::MIN never reaches the `end - 1` below.
        let (lo, hi) =
            if range.start >= range.end { (0, -1) } else { (range.start, range.end - 1) };
        self.scan_parts_between(filter, lo, hi).unwrap_or_default()
    }

    /// [`Tsdb::scan_parts`] over the *inclusive* `[lo, hi]` time range —
    /// the form the query layer's inclusive plan bounds map onto without
    /// losing points at `timestamp == i64::MAX` (which no half-open range
    /// can cover). An inverted range is empty. A chunk that cannot be read
    /// is the scan's error.
    pub fn scan_parts_between(
        &self,
        filter: &MetricFilter,
        lo: i64,
        hi: i64,
    ) -> Result<Vec<SeriesSlice<'_>>, StorageError> {
        self.slices_of(self.find(filter), lo, hi)
    }

    /// The slices of `ids` over `[lo, hi]`, each chunk slice holding its
    /// block. The blocks the slots hold are taken first; when the other
    /// overlapping chunks hold at least [`PARALLEL_DECODE_MIN_POINTS`],
    /// they are faulted, verified and decoded on the worker pool, and else
    /// one by one as their slices are cut.
    fn slices_of(
        &self,
        ids: Vec<SeriesId>,
        lo: i64,
        hi: i64,
    ) -> Result<Vec<SeriesSlice<'_>>, StorageError> {
        let overlapping = |id: &SeriesId| {
            let chunks = self.series[id.index()].sealed_chunks();
            chunks.iter().filter(move |c| lo <= hi && c.overlaps(lo, hi))
        };
        let mut blocks: Vec<_> = ids.iter().flat_map(overlapping).map(|c| c.cached()).collect();
        let pending: Vec<_> = ids
            .iter()
            .flat_map(overlapping)
            .zip(&blocks)
            .filter_map(|(c, block)| block.is_none().then_some(c))
            .collect();
        let points: usize = pending.iter().map(|c| c.meta.count as usize).sum();
        let workers = explainit_sync::pool::workers();
        if points >= PARALLEL_DECODE_MIN_POINTS && workers > 1 {
            let mut decoded = chunk::decode_on_pool(&pending, workers, &self.pager)?.into_iter();
            for block in blocks.iter_mut().filter(|b| b.is_none()) {
                *block = decoded.next();
            }
        }
        let mut blocks = blocks.into_iter();
        let mut parts = Vec::new();
        for id in ids {
            let s = &self.series[id.index()];
            let before = parts.len();
            for chunk in overlapping(&id) {
                let block = match blocks.next().flatten() {
                    Some(block) => block,
                    None => chunk.decoded()?,
                };
                let a = block.timestamps.partition_point(|&t| t < lo);
                let b = block.timestamps.partition_point(|&t| t <= hi);
                if a < b {
                    parts.push(SeriesSlice::block(id, &s.key, block, a..b));
                }
            }
            let head = s.head_range_between(lo, hi);
            if !head.0.is_empty() || parts.len() == before {
                // The trailing head slice; also keeps the one-slice-per-
                // matched-series shape when nothing overlapped at all.
                parts.push(SeriesSlice::head(id, &s.key, head));
            }
        }
        Ok(parts)
    }

    /// [`Tsdb::scan_parts_between`] in canonical series-key order.
    ///
    /// The position of each slice in the returned vector is the series'
    /// *rank*: the tiebreak order of the relational observation view
    /// (rows sorted by timestamp, ties in canonical key order). Both the
    /// materializing scan and the scan-level aggregate operator consume
    /// this order, so their notion of "first-seen row" agrees exactly.
    pub fn scan_parts_ordered_between(
        &self,
        filter: &MetricFilter,
        lo: i64,
        hi: i64,
    ) -> Result<Vec<SeriesSlice<'_>>, StorageError> {
        let mut ids = self.find(filter);
        ids.sort_by_cached_key(|id| self.series[id.index()].key.canonical());
        self.slices_of(ids, lo, hi)
    }

    /// The union time span of all series, if any data exists.
    pub fn time_span(&self) -> Option<TimeRange> {
        let mut span: Option<TimeRange> = None;
        for s in &self.series {
            if let Some(r) = s.time_span() {
                span = Some(match span {
                    None => r,
                    Some(acc) => TimeRange::new(acc.start.min(r.start), acc.end.max(r.end)),
                });
            }
        }
        span
    }
}

/// A segment's series with their chunks, as [`Storage::adopt`] writes them.
type SegmentView = Vec<(SeriesKey, Vec<EncodedChunk>)>;

/// What one flush writes: the series (indices in canonical key order, so
/// segment directories are deterministic for a given logical store) and
/// their chunks. Each series writes its sealed tier when `compacting`,
/// paged in, then its taken head, keeping the chunks retention keeps (those
/// not behind `cutoff`), re-chunked. Series with nothing to write are left
/// out.
fn segment_view(
    series: &[Series],
    heads: &[Option<Vec<EncodedChunk>>],
    compacting: bool,
    cutoff: Option<i64>,
) -> Result<(Vec<usize>, SegmentView), StorageError> {
    let kept = |meta: &ChunkMeta| !crate::storage::expired(Some(meta.max_ts), cutoff);
    let mut order: Vec<usize> = (0..series.len()).collect();
    order.sort_by_cached_key(|&i| series[i].key.canonical());
    let (mut written, mut view) = (Vec::new(), Vec::new());
    for i in order {
        let sealed = series[i].sealed_chunks().iter().filter(|c| compacting && kept(&c.meta));
        let mut chunks = sealed.map(SealedChunk::encoded).collect::<Result<Vec<_>, _>>()?;
        chunks.extend(heads[i].iter().flatten().filter(|c| kept(&c.meta)).cloned());
        let chunks = compact::rechunk(chunks)?;
        if !chunks.is_empty() {
            written.push(i);
            view.push((series[i].key.clone(), chunks));
        }
    }
    Ok((written, view))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Tsdb {
        let mut db = Tsdb::new();
        for host in ["datanode-1", "datanode-2", "namenode-1"] {
            let key =
                SeriesKey::new("disk").with_tag("host", host).with_tag("type", "read_latency");
            for t in 0..10 {
                db.try_insert(&key, t * 60, t as f64).expect("insert");
            }
        }
        let key = SeriesKey::new("runtime").with_tag("component", "pipeline-1");
        for t in 0..10 {
            db.try_insert(&key, t * 60, 100.0 + t as f64).expect("insert");
        }
        db
    }

    #[test]
    fn insert_and_count() {
        let db = sample_db();
        assert_eq!(db.series_count(), 4);
        assert_eq!(db.point_count(), 40);
    }

    #[test]
    fn exact_name_lookup_uses_index() {
        let db = sample_db();
        assert_eq!(db.find(&MetricFilter::name("disk")).len(), 3);
        assert_eq!(db.find(&MetricFilter::name("runtime")).len(), 1);
        assert!(db.find(&MetricFilter::name("nope")).is_empty());
    }

    #[test]
    fn glob_name_lookup() {
        let db = sample_db();
        assert_eq!(db.find(&MetricFilter::name("r*")).len(), 1);
        assert_eq!(db.find(&MetricFilter::name("*")).len(), 4);
    }

    #[test]
    fn glob_prefix_range_scan_matches_brute_force() {
        let mut db = Tsdb::new();
        for name in ["disk_read", "disk_write", "diskette", "disco", "net_in", "runtime"] {
            for host in ["a", "b"] {
                db.try_insert(&SeriesKey::new(name).with_tag("host", host), 0, 1.0)
                    .expect("insert");
            }
        }
        for pat in ["disk*", "disk_*", "disk_rea?", "dis*o", "d*", "z*", "*isk*", "disk_read"] {
            let fast = db.find(&MetricFilter::name(pat));
            let brute: Vec<SeriesId> =
                db.iter().filter(|(_, s)| glob_match(pat, &s.key.name)).map(|(id, _)| id).collect();
            assert_eq!(fast, brute, "pattern {pat}");
        }
        // Prefix-bounded globs combine with tag predicates.
        let f = MetricFilter::name("disk_*").with_tag("host", "a");
        assert_eq!(db.find(&f).len(), 2);
    }

    #[test]
    fn scan_parts_carries_ids_and_slices() {
        let db = sample_db();
        let parts = db.scan_parts(&MetricFilter::name("disk"), &TimeRange::new(120, 300));
        assert_eq!(parts.len(), 3);
        for p in &parts {
            assert_eq!(db.series(p.id).key, *p.key);
            assert_eq!(*p.timestamps, [120, 180, 240]);
            assert_eq!(p.timestamps.len(), p.values.len());
        }
    }

    #[test]
    fn scan_parts_ordered_ranks_by_canonical_key() {
        let db = sample_db();
        let parts = db.scan_parts_ordered_between(&MetricFilter::all(), 0, 599).expect("scan");
        assert_eq!(parts.len(), 4);
        let canon: Vec<String> = parts.iter().map(|p| p.key.canonical()).collect();
        let mut sorted = canon.clone();
        sorted.sort();
        assert_eq!(canon, sorted, "parts must come back in canonical order");
    }

    #[test]
    fn scan_parts_between_includes_i64_max_points() {
        let mut db = Tsdb::new();
        let key = SeriesKey::new("edge");
        db.try_insert(&key, 0, 1.0).expect("insert");
        db.try_insert(&key, i64::MAX, 2.0).expect("insert");
        let parts =
            db.scan_parts_between(&MetricFilter::name("edge"), i64::MIN, i64::MAX).expect("scan");
        assert_eq!(*parts[0].timestamps, [0, i64::MAX]);
        let parts =
            db.scan_parts_ordered_between(&MetricFilter::name("edge"), 1, i64::MAX).expect("scan");
        assert_eq!(*parts[0].timestamps, [i64::MAX]);
        assert_eq!(*parts[0].values, [2.0]);
        // Inverted bounds are an empty scan, not a panic.
        let parts = db.scan_parts_between(&MetricFilter::name("edge"), 5, 4).expect("scan");
        assert!(parts[0].timestamps.is_empty());
    }

    #[test]
    fn tag_filters() {
        let db = sample_db();
        let f = MetricFilter::all().with_tag("host", "datanode-1");
        assert_eq!(db.find(&f).len(), 1);
        let f = MetricFilter {
            name: None,
            tags: vec![TagFilter::Glob("host".into(), "datanode*".into())],
        };
        assert_eq!(db.find(&f).len(), 2);
        let f = MetricFilter { name: None, tags: vec![TagFilter::Absent("host".into())] };
        assert_eq!(db.find(&f).len(), 1); // runtime has no host tag
        let f = MetricFilter { name: None, tags: vec![TagFilter::HasKey("component".into())] };
        assert_eq!(db.find(&f).len(), 1);
    }

    #[test]
    fn combined_name_and_tag() {
        let db = sample_db();
        let f = MetricFilter::name("disk").with_tag("host", "namenode-1");
        let hits = db.find(&f);
        assert_eq!(hits.len(), 1);
        assert_eq!(db.series(hits[0]).key.tag("host"), Some("namenode-1"));
    }

    #[test]
    fn duplicate_insert_same_key_reuses_series() {
        let mut db = Tsdb::new();
        let key = SeriesKey::new("m").with_tag("a", "b");
        db.try_insert(&key, 0, 1.0).expect("insert");
        db.try_insert(&key, 60, 2.0).expect("insert");
        assert_eq!(db.series_count(), 1);
        assert_eq!(db.get(&key).unwrap().len(), 2);
    }

    #[test]
    fn metric_names_are_sorted_and_distinct() {
        let db = sample_db();
        assert_eq!(db.metric_names(), vec!["disk", "runtime"]);
    }

    #[test]
    fn time_span_union() {
        let db = sample_db();
        assert_eq!(db.time_span(), Some(TimeRange::new(0, 541)));
        assert_eq!(Tsdb::new().time_span(), None);
    }
}
