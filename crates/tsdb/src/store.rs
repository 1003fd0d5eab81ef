//! The series store with its inverted tag index, optionally backed by the
//! durable storage engine in [`crate::storage`].

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;

use crate::glob::{glob_literal_prefix, glob_match, is_glob};
use crate::model::{Series, SeriesKey, TimeRange};
use crate::storage::chunk::{self, ChunkMeta, EncodedChunk};
use crate::storage::pager::Pager;
use crate::storage::recover::RecoverOptions;
use crate::storage::wal::{Wal, WalRecord};
use crate::storage::{
    compact, recover, segment, Storage, StorageError, StorageOptions, StorageStats,
    AUTO_COMPACT_SEGMENTS,
};

/// Fewest points in a scan's overlapping, not yet decoded chunks for which
/// their fault, check and decode run on the worker pool rather than one by
/// one on the caller.
///
/// Measured as a cold full scan, serial against pooled, on a 2-core Xeon:
/// with chunks of 240 or 480 points the pool wins from about 2^14 points
/// (by 20–35% at 2^15), with 120-point chunks, whose per-chunk work on the
/// caller weighs more, only from 2^16 (up to 12% slower in between).
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

/// A borrowed partition handle over one series' in-range observations:
/// the atom of partition-parallel scan execution. Handles are cheap to
/// copy, so a scheduler can bucket them into morsels freely.
#[derive(Debug, Clone, Copy)]
pub struct SeriesSlice<'a> {
    /// Dense store-local series id (stable across scans of one instance).
    pub id: SeriesId,
    /// The series key (metric name + tags).
    pub key: &'a SeriesKey,
    /// In-range timestamps, ascending.
    pub timestamps: &'a [i64],
    /// Values parallel to `timestamps`.
    pub values: &'a [f64],
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

    /// Builder-style glob tag predicate.
    pub fn with_tag_glob(mut self, key: impl Into<String>, pattern: impl Into<String>) -> Self {
        self.tags.push(TagFilter::Glob(key.into(), pattern.into()));
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
/// is the durability point — it fsyncs the WAL, seals in-memory heads into
/// a new compressed segment, truncates the WAL, and auto-compacts when
/// small segments pile up. Cloning a durable store yields an *in-memory
/// snapshot view* that shares the compressed chunk bytes but detaches from
/// the directory, so exactly one handle ever writes it.
///
/// # Residency lifecycle
///
/// Chunks recovered from segment files start **Cold**: only their
/// directory entry (min/max timestamp, count, offset, length) is
/// resident. The first scan that touches one faults its compressed bytes
/// in with a single positioned read checked against the chunk's CRC
/// (**Paged**), and decoding on top of that yields the **Decoded** cache. A [`StorageOptions::page_budget_bytes`]
/// budget bounds the paged tier with clock eviction (see
/// [`crate::storage::pager`]); decoded caches are accounted too and shed
/// at mutation points via [`Tsdb::evict_to_budget`]. With no budget
/// (plain [`Tsdb::open`]) every touched chunk simply stays resident.
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
    /// and evict under clock pressure), and a retention window drops whole
    /// expired segments — at open and after every flush — without decoding
    /// them.
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
        let recovered =
            recover::recover(dir, &RecoverOptions { read_only, retention: options.retention })?;
        let mut db = Tsdb::new();
        db.pager = Pager::with_budget(options.page_budget_bytes);
        for (key, chunks) in recovered.series {
            let id = db.series_id(&key);
            db.series[id.index()] = Series::from_storage(key, chunks, &db.pager);
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
            sticky_error: None,
            pending: Vec::new(),
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
    /// decoded caches, `peak_resident_chunk_bytes` is the high-water mark
    /// the out-of-core gate checks against the budget, and
    /// `page_faults`/`evictions` prove cold chunks actually paged.
    pub fn storage_stats(&self) -> Option<StorageStats> {
        self.storage.as_ref().map(|s| {
            let pager = self.pager.counters();
            StorageStats {
                segments: s.segments.len(),
                segment_bytes: s.segments.iter().map(|h| h.data_bytes).sum(),
                chunks: self.series.iter().map(|series| series.sealed_chunks().len()).sum(),
                wal_bytes: s.wal_len(),
                freelist: s.freelist.clone(),
                resident_bytes: pager.resident_bytes,
                resident_chunk_bytes: pager.resident_chunk_bytes,
                peak_resident_chunk_bytes: pager.peak_resident_chunk_bytes,
                page_faults: pager.page_faults,
                evictions: pager.evictions,
            }
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

    /// The durability point: fsyncs the WAL, seals every non-empty head
    /// into compressed chunks written as a new segment, truncates the WAL,
    /// and merges segments when [`AUTO_COMPACT_SEGMENTS`] have piled up.
    /// Surfaces any sticky error a previous infallible `insert` recorded.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        let Some(storage) = self.storage.as_mut() else {
            return Err(StorageError::NotDurable);
        };
        if storage.is_read_only() {
            return Err(StorageError::ReadOnly);
        }
        if let Some(err) = storage.sticky_error.take() {
            return Err(err);
        }
        if let Some(wal) = storage.wal.as_mut() {
            wal.sync()?;
        }
        // Seal heads in canonical key order so segment directories are
        // deterministic for a given logical store. Chunks a previous flush
        // sealed but failed to write (`pending`) lead the batch: their WAL
        // records are still intact, and either path — segment retry here
        // or WAL replay after a crash — recovers them exactly once.
        let mut order: Vec<usize> = (0..self.series.len()).collect();
        order.sort_by_cached_key(|&i| self.series[i].key.canonical());
        let mut new_chunks: Vec<(SeriesKey, Vec<EncodedChunk>)> =
            std::mem::take(&mut storage.pending);
        for &i in &order {
            if let Some(chunks) = self.series[i].seal_head(&self.pager) {
                new_chunks.push((self.series[i].key.clone(), chunks));
            }
        }
        if !new_chunks.is_empty() {
            let id = storage.take_segment_id();
            match segment::write_segment(&storage.dir, id, &[], &new_chunks) {
                Ok(handle) => storage.segments.push(handle),
                Err(err) => {
                    // The sealed chunks have no durable home yet: park them
                    // for the next flush and keep the WAL — truncating it
                    // here would drop the only durable copy of these points.
                    storage.pending = new_chunks;
                    return Err(err);
                }
            }
        }
        if let Some(wal) = storage.wal.as_mut() {
            wal.truncate()?;
        }
        self.apply_retention()?;
        let Some(storage) = self.storage.as_mut() else {
            return Err(StorageError::NotDurable);
        };
        if storage.segments.len() >= AUTO_COMPACT_SEGMENTS {
            let view = sealed_view(&self.series, &order)?;
            compact::merge_segments(storage, &view)?;
        }
        self.evict_to_budget();
        Ok(())
    }

    /// Drops whole segments that fell out of the retention window — by
    /// directory metadata alone, without decoding a chunk — and removes
    /// their chunks from the in-memory sealed tiers so memory and disk
    /// stay one view. Called after every successful flush; a no-op
    /// without a configured window.
    fn apply_retention(&mut self) -> Result<(), StorageError> {
        let Some(storage) = self.storage.as_mut() else {
            return Ok(());
        };
        let Some(retention) = storage.options.retention else {
            return Ok(());
        };
        // After a flush every point lives in a segment, so the segment
        // directory alone yields the store's global maximum timestamp.
        let Some(global_max) = storage.segments.iter().filter_map(|s| s.max_ts).max() else {
            return Ok(());
        };
        let cutoff = global_max.saturating_sub(retention);
        let expired: Vec<u64> = storage
            .segments
            .iter()
            .filter(|s| s.max_ts.is_some_and(|m| m < cutoff))
            .map(|s| s.id)
            .collect();
        if expired.is_empty() {
            return Ok(());
        }
        let mut dropped = Vec::new();
        storage.segments.retain(|s| {
            if expired.contains(&s.id) {
                dropped.push(s.path.clone());
                false
            } else {
                true
            }
        });
        // Chunks sealed by this process carry no segment id yet, so read
        // the expiring segments' directories (metadata only — payloads
        // stay untouched) to know which in-memory chunks go with them.
        let mut expired_metas: HashMap<SeriesKey, Vec<ChunkMeta>> = HashMap::new();
        for path in &dropped {
            let mapped = segment::map_segment(path)?;
            for s in mapped.series {
                expired_metas.entry(s.key).or_default().extend(s.chunks.iter().map(|c| c.meta));
            }
        }
        storage.freelist.extend(expired.iter().copied());
        for path in &dropped {
            std::fs::remove_file(path)
                .map_err(|e| StorageError::io(format!("removing {}", path.display()), e))?;
        }
        crate::storage::sync_dir(&storage.dir)?;
        static NO_METAS: &[ChunkMeta] = &[];
        for series in &mut self.series {
            let metas = expired_metas.get(&series.key).map_or(NO_METAS, Vec::as_slice);
            series.drop_expired_chunks(&expired, metas);
        }
        Ok(())
    }

    /// Sheds the per-chunk decode caches when total resident bytes exceed
    /// the page budget, then lets the pager's clock evict compressed chunk
    /// bytes down to the budget. Returns the number of caches dropped. Runs
    /// automatically at the end of every flush; exposed so long-running
    /// read paths can bound memory between flushes too. A no-op on an
    /// unbounded store.
    pub fn evict_to_budget(&mut self) -> u64 {
        let mut dropped = 0;
        if self.pager.over_budget() {
            for series in &mut self.series {
                dropped += series.shed_caches();
            }
            self.pager.note_cache_evictions(dropped);
        }
        self.pager.enforce();
        dropped
    }

    /// Flushes, then folds all segments into one regardless of how few
    /// there are. Running right after a flush is what makes this safe: the
    /// sealed in-memory view then covers the full durable state.
    pub fn compact(&mut self) -> Result<(), StorageError> {
        self.flush()?;
        let Some(storage) = self.storage.as_mut() else {
            return Err(StorageError::NotDurable);
        };
        let mut order: Vec<usize> = (0..self.series.len()).collect();
        order.sort_by_cached_key(|&i| self.series[i].key.canonical());
        let view = sealed_view(&self.series, &order)?;
        compact::merge_segments(storage, &view)
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

    /// Inserts one observation, creating the series on first touch.
    ///
    /// On a durable store the point is logged to the WAL (durable after
    /// the next [`Tsdb::sync`]/[`Tsdb::flush`]). This signature cannot
    /// report I/O failures, so the first WAL-append error is recorded and
    /// surfaced by the next `flush()`; callers that want the error at the
    /// call site use [`Tsdb::try_insert`].
    pub fn insert(&mut self, key: &SeriesKey, ts: i64, value: f64) {
        // A write into a sealed chunk that cannot be read applies nowhere,
        // neither in memory nor in the log, and fails the next flush.
        if let Err(err) = self.make_writable(key, ts) {
            self.record_sticky(err);
            return;
        }
        let wal_err = self.wal_append(key, &[(ts, value)]).err();
        let id = self.series_id(key);
        let push_err = self.series[id.index()].push(ts, value).err();
        if let Some(err) = wal_err.or(push_err) {
            self.record_sticky(err);
        }
    }

    /// [`Tsdb::insert`] that surfaces WAL-append failures at the call
    /// site. On error the point is *not* applied in memory either, so the
    /// in-memory and logged states never diverge.
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
                Some(wal) => wal.append(&WalRecord { key: key.clone(), points: points.to_vec() }),
                None => Err(StorageError::ReadOnly),
            },
            None => Ok(()),
        }
    }

    fn record_sticky(&mut self, err: StorageError) {
        if let Some(storage) = self.storage.as_mut() {
            if storage.sticky_error.is_none() {
                storage.sticky_error = Some(err);
            }
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

    /// The slices of `ids` over `[lo, hi]`. When the overlapping chunks
    /// not yet decoded hold at least [`PARALLEL_DECODE_MIN_POINTS`], they
    /// are faulted, verified and decoded on the worker pool first; the
    /// slices are then cut from the decode caches either way.
    fn slices_of(
        &self,
        ids: Vec<SeriesId>,
        lo: i64,
        hi: i64,
    ) -> Result<Vec<SeriesSlice<'_>>, StorageError> {
        let pending: Vec<_> = ids
            .iter()
            .flat_map(|id| self.series[id.index()].sealed_chunks())
            .filter(|c| lo <= hi && c.overlaps(lo, hi) && !c.is_decoded())
            .collect();
        let points: usize = pending.iter().map(|c| c.meta.count as usize).sum();
        if points >= PARALLEL_DECODE_MIN_POINTS {
            let workers = explainit_sync::pool::workers();
            if workers > 1 {
                chunk::decode_on_pool(&pending, workers, &self.pager)?;
            }
        }
        let mut parts = Vec::new();
        for id in ids {
            self.push_slices(&mut parts, id, lo, hi)?;
        }
        Ok(parts)
    }

    /// Appends the partition handles of one series restricted to `[lo,
    /// hi]` — the lazy-decode core of the scan surface.
    fn push_slices<'a>(
        &'a self,
        out: &mut Vec<SeriesSlice<'a>>,
        id: SeriesId,
        lo: i64,
        hi: i64,
    ) -> Result<(), StorageError> {
        let s = &self.series[id.index()];
        let before = out.len();
        for chunk in s.sealed_chunks() {
            if lo > hi || !chunk.overlaps(lo, hi) {
                continue;
            }
            let (ts, vs) = chunk.decoded()?;
            let a = ts.partition_point(|&t| t < lo);
            let b = ts.partition_point(|&t| t <= hi);
            if a < b {
                out.push(SeriesSlice { id, key: &s.key, timestamps: &ts[a..b], values: &vs[a..b] });
            }
        }
        let (ts, vs) = s.head_range_between(lo, hi);
        if !ts.is_empty() || out.len() == before {
            // The trailing head slice; also keeps the one-slice-per-matched-
            // series shape when nothing overlapped at all.
            out.push(SeriesSlice { id, key: &s.key, timestamps: ts, values: vs });
        }
        Ok(())
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

/// The sealed in-memory view in the given canonical-order permutation:
/// what compaction serializes. Chunk payloads are shared (`Arc` page
/// slots), so this never decodes or copies point data — but cold chunks
/// do page their compressed bytes in (and may evict again right after
/// under a tight budget), which is why it is fallible.
fn sealed_view(
    series: &[Series],
    order: &[usize],
) -> Result<Vec<(SeriesKey, Vec<EncodedChunk>)>, StorageError> {
    let mut view = Vec::new();
    for &i in order {
        let s = &series[i];
        if s.sealed_chunks().is_empty() {
            continue;
        }
        let mut chunks = Vec::with_capacity(s.sealed_chunks().len());
        for c in s.sealed_chunks() {
            chunks.push(c.encoded()?);
        }
        view.push((s.key.clone(), chunks));
    }
    Ok(view)
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
                db.insert(&key, t * 60, t as f64);
            }
        }
        let key = SeriesKey::new("runtime").with_tag("component", "pipeline-1");
        for t in 0..10 {
            db.insert(&key, t * 60, 100.0 + t as f64);
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
                db.insert(&SeriesKey::new(name).with_tag("host", host), 0, 1.0);
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
            assert_eq!(p.timestamps, &[120, 180, 240]);
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
        db.insert(&key, 0, 1.0);
        db.insert(&key, i64::MAX, 2.0);
        let parts =
            db.scan_parts_between(&MetricFilter::name("edge"), i64::MIN, i64::MAX).expect("scan");
        assert_eq!(parts[0].timestamps, &[0, i64::MAX]);
        let parts =
            db.scan_parts_ordered_between(&MetricFilter::name("edge"), 1, i64::MAX).expect("scan");
        assert_eq!(parts[0].timestamps, &[i64::MAX]);
        assert_eq!(parts[0].values, &[2.0]);
        // Inverted bounds are an empty scan, not a panic.
        let parts = db.scan_parts_between(&MetricFilter::name("edge"), 5, 4).expect("scan");
        assert!(parts[0].timestamps.is_empty());
    }

    #[test]
    fn tag_filters() {
        let db = sample_db();
        let f = MetricFilter::all().with_tag("host", "datanode-1");
        assert_eq!(db.find(&f).len(), 1);
        let f = MetricFilter::all().with_tag_glob("host", "datanode*");
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
        db.insert(&key, 0, 1.0);
        db.insert(&key, 60, 2.0);
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
