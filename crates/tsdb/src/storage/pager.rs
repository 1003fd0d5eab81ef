//! The chunk pager: a memory budget over compressed chunk bytes with a
//! clock (second-chance) eviction policy, plus the accounting for decode
//! caches and the count of decodes — the store's one accounting object.
//!
//! Every sealed chunk owns a [`PageSlot`]. A slot is either **pinned**
//! (its compressed bytes were produced in this process — sealed from the
//! head or re-encoded during recovery — and have no on-disk home to
//! reload from, so they stay resident) or **pageable** (the bytes live in
//! a segment file; the slot holds a [`ColdRef`] and loads them with a
//! single positioned read on first touch — a *page fault*, checked against
//! the chunk's CRC — after which the clock may evict them again).
//!
//! Residency states of a sealed chunk, as the lifecycle docs put it:
//!
//! ```text
//! Cold   -- fault (pread) -->   Paged   -- decode -->   Decoded
//!   ^                             |
//!   +--------- eviction ----------+
//! ```
//!
//! The pager tracks two gauges. `chunk_resident` counts compressed chunk
//! bytes currently in memory (pinned + paged) — this is what the clock
//! enforces the budget over, online, behind `&self`. `cache_resident`
//! counts the per-chunk decode caches; those hand out borrows with stable
//! addresses, so they cannot be dropped mid-scan —
//! [`crate::Tsdb::evict_to_budget`] sheds them at mutation points instead.
//! `resident_bytes` in [`super::StorageStats`] is the sum of both.

use std::fs::File;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use explainit_sync::{check_io, LockClass, Mutex};

use super::{crc32, StorageError};

/// The clock ring: taken by `enforce` before any per-slot lock. Rank
/// `IO_LOCK_RANK_THRESHOLD` — never held across a fault read.
static PAGER_CLOCK: LockClass =
    LockClass::new("tsdb.pager.clock", explainit_sync::IO_LOCK_RANK_THRESHOLD);

/// Per-slot resident bytes: innermost lock of the whole workspace order.
/// One class for every slot — holding two slots at once is a bug.
static PAGER_SLOT: LockClass = LockClass::new("tsdb.pager.slot", 70);

/// Where a pageable chunk's compressed bytes live on disk, and the CRC-32
/// they must have.
///
/// Holds the segment's open file handle (shared by every chunk of the
/// segment), so a fault stays valid even after compaction or retention
/// unlinks the path — on Unix the inode survives until the last handle
/// closes, which is exactly the lifetime of the chunks referencing it.
#[derive(Debug, Clone)]
pub struct ColdRef {
    /// Open read handle on the segment file.
    pub file: Arc<File>,
    /// Id of the segment the bytes came from (retention drops by id).
    pub segment_id: u64,
    /// Absolute byte offset of the chunk payload inside the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC-32 of the payload, from the segment directory.
    pub crc: u32,
}

impl ColdRef {
    /// Reads the chunk payload with one positioned read and verifies it.
    pub fn read(&self) -> Result<Vec<u8>, StorageError> {
        let mut buf = vec![0u8; self.len as usize];
        self.read_into(&mut buf)?;
        Ok(buf)
    }

    /// [`ColdRef::read`] into a buffer of exactly `len` bytes the caller
    /// allocated: a short file is `Io`, bytes that fail the CRC `Corrupt`.
    pub fn read_into(&self, buf: &mut [u8]) -> Result<(), StorageError> {
        check_io("faulting a cold chunk page");
        let at = || format!("segment {} chunk at offset {}", self.segment_id, self.offset);
        read_exact_at(&self.file, buf, self.offset)
            .map_err(|e| StorageError::io(format!("paging in {}", at()), e))?;
        if crc32(buf) != self.crc {
            return Err(StorageError::corrupt(at(), "chunk checksum mismatch"));
        }
        Ok(())
    }
}

/// Fills `buf` from `offset` of `file` with one positioned read.
#[cfg(unix)]
pub(super) fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
pub(super) fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    // No positioned-read primitive: clone the handle so the shared one
    // keeps no cursor state.
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

/// One chunk's residency slot: the compressed bytes when resident, and
/// the cold location to reload them from when pageable.
#[derive(Debug)]
pub struct PageSlot {
    pager: Arc<Pager>,
    /// Compressed payload length (what residency accounting charges).
    len: u64,
    /// `None` for pinned slots (bytes have no on-disk home yet).
    cold: Option<ColdRef>,
    bytes: Mutex<Option<Arc<Vec<u8>>>>,
    /// Clock second-chance bit: set on every access, cleared by a sweep.
    referenced: AtomicBool,
    /// Whether the slot is already in the clock ring.
    enrolled: AtomicBool,
}

impl PageSlot {
    /// True when the slot holds no bytes (it never does for pinned slots).
    pub fn is_empty(&self) -> bool {
        self.bytes.lock().is_none()
    }

    /// Compressed payload length in bytes, resident or not.
    pub fn page_len(&self) -> u64 {
        self.len
    }

    /// The segment id a pageable slot reads from, if any.
    pub fn segment_id(&self) -> Option<u64> {
        self.cold.as_ref().map(|c| c.segment_id)
    }

    /// The compressed bytes, faulting them in from disk when cold.
    pub fn bytes(self: &Arc<Self>) -> Result<Arc<Vec<u8>>, StorageError> {
        if let Some(resident) = self.resident() {
            return Ok(resident);
        }
        // invariant: a slot with no resident bytes is always pageable —
        // pinned slots are constructed resident and never evicted.
        let cold = self.cold().ok_or_else(|| {
            StorageError::corrupt("chunk", "pinned chunk lost its resident bytes")
        })?;
        // Read outside the slot lock (the clock sweep takes clock -> slot,
        // per the `tsdb.pager.*` LockClass ranks, so a fault must never
        // hold slot while enrolling; `check_io` enforces the read side).
        Ok(self.install(cold.read()?))
    }

    /// The resident bytes, if any, marking the slot referenced.
    pub fn resident(&self) -> Option<Arc<Vec<u8>>> {
        self.referenced.store(true, Ordering::Relaxed);
        self.bytes.lock().as_ref().map(Arc::clone)
    }

    /// Where a pageable slot's bytes live on disk (`None` when pinned).
    pub fn cold(&self) -> Option<&ColdRef> {
        self.cold.as_ref()
    }

    /// Makes `loaded` — this slot's verified page, read by whoever faulted
    /// it — the resident copy, counts the fault and lets the clock enforce
    /// the budget. A racer that installed first wins and its copy is
    /// returned instead.
    pub fn install(self: &Arc<Self>, loaded: Vec<u8>) -> Arc<Vec<u8>> {
        let loaded = Arc::new(loaded);
        {
            let mut guard = self.bytes.lock();
            if let Some(racer) = guard.as_ref() {
                return Arc::clone(racer);
            }
            *guard = Some(Arc::clone(&loaded));
        }
        self.pager.note_fault(self.len);
        if !self.enrolled.swap(true, Ordering::Relaxed) {
            self.pager.clock.lock().ring.push(Arc::downgrade(self));
        }
        self.pager.enforce();
        loaded
    }

    /// Drops the resident bytes of a pageable slot, returning the bytes
    /// freed (0 when pinned or already cold).
    fn evict(&self) -> u64 {
        if self.cold.is_none() {
            return 0;
        }
        match self.bytes.lock().take() {
            Some(_) => self.len,
            None => 0,
        }
    }
}

impl Drop for PageSlot {
    fn drop(&mut self) {
        let resident = self.bytes.get_mut().is_some();
        if resident {
            self.pager.release_resident(self.len);
        }
    }
}

#[derive(Debug, Default)]
struct Clock {
    ring: Vec<Weak<PageSlot>>,
    hand: usize,
}

/// Counter snapshot surfaced through [`super::StorageStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagerCounters {
    /// All accounted resident bytes: compressed chunks + decoded caches.
    pub resident_bytes: u64,
    /// Compressed chunk bytes currently resident (pinned + paged, and the
    /// pages a pooled decode holds in flight).
    pub resident_chunk_bytes: u64,
    /// High-water mark of `resident_chunk_bytes` since open.
    pub peak_resident_chunk_bytes: u64,
    /// Cold chunk loads (one positioned read each).
    pub page_faults: u64,
    /// Pages and caches dropped to stay under budget.
    pub evictions: u64,
}

/// The per-store pager, shared by the durable handle and every clone, so
/// faults and decodes from snapshot views count against one budget.
#[derive(Debug)]
pub struct Pager {
    /// Budget in bytes over compressed chunk residency; `u64::MAX` means
    /// unbounded (the default for in-memory stores and plain `open`).
    budget: u64,
    chunk_resident: AtomicU64,
    peak_chunk_resident: AtomicU64,
    cache_resident: AtomicU64,
    faults: AtomicU64,
    evictions: AtomicU64,
    decodes: AtomicU64,
    clock: Mutex<Clock>,
}

impl Pager {
    /// A pager that never evicts (every chunk stays resident once
    /// touched) — the behaviour of stores opened without a budget.
    pub fn unbounded() -> Arc<Pager> {
        Pager::with_budget(None)
    }

    /// A pager enforcing `budget` bytes of compressed chunk residency
    /// (`None` = unbounded).
    pub fn with_budget(budget: Option<u64>) -> Arc<Pager> {
        Arc::new(Pager {
            budget: budget.unwrap_or(u64::MAX),
            chunk_resident: AtomicU64::new(0),
            peak_chunk_resident: AtomicU64::new(0),
            cache_resident: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            decodes: AtomicU64::new(0),
            clock: Mutex::new(&PAGER_CLOCK, Clock { ring: Vec::new(), hand: 0 }),
        })
    }

    /// The configured budget, when bounded.
    pub fn budget(&self) -> Option<u64> {
        if self.budget == u64::MAX {
            None
        } else {
            Some(self.budget)
        }
    }

    /// A pinned slot whose bytes are already in memory and have no
    /// on-disk home to reload from (freshly sealed or recovery-merged
    /// chunks). Never evicted; accounted until dropped.
    pub fn slot_resident(self: &Arc<Self>, bytes: Arc<Vec<u8>>) -> Arc<PageSlot> {
        let len = bytes.len() as u64;
        self.add_resident(len);
        Arc::new(PageSlot {
            pager: Arc::clone(self),
            len,
            cold: None,
            bytes: Mutex::new(&PAGER_SLOT, Some(bytes)),
            referenced: AtomicBool::new(true),
            enrolled: AtomicBool::new(false),
        })
    }

    /// A pageable slot starting cold: nothing resident until the first
    /// fault loads the bytes from the segment file.
    pub fn slot_cold(self: &Arc<Self>, cold: ColdRef) -> Arc<PageSlot> {
        Arc::new(PageSlot {
            pager: Arc::clone(self),
            len: cold.len,
            cold: Some(cold),
            bytes: Mutex::new(&PAGER_SLOT, None),
            referenced: AtomicBool::new(false),
            enrolled: AtomicBool::new(false),
        })
    }

    fn add_resident(&self, n: u64) {
        let now = self.chunk_resident.fetch_add(n, Ordering::Relaxed) + n;
        self.peak_chunk_resident.fetch_max(now, Ordering::Relaxed);
    }

    fn release_resident(&self, n: u64) {
        self.chunk_resident.fetch_sub(n, Ordering::Relaxed);
    }

    fn note_fault(&self, n: u64) {
        self.faults.fetch_add(1, Ordering::Relaxed);
        self.add_resident(n);
    }

    /// Counts one chunk decode.
    pub fn note_decode(&self) {
        self.decodes.fetch_add(1, Ordering::Relaxed);
    }

    /// Chunk decodes since the pager was created.
    pub fn decode_count(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }

    /// Accounts a chunk's decode cache coming into existence.
    pub fn cache_added(&self, n: u64) {
        self.cache_resident.fetch_add(n, Ordering::Relaxed);
    }

    /// Accounts a decoded cache being dropped.
    pub fn cache_removed(&self, n: u64) {
        self.cache_resident.fetch_sub(n, Ordering::Relaxed);
    }

    /// Counts cache invalidations done by [`crate::Tsdb::evict_to_budget`]
    /// so they show up in the `evictions` counter alongside page drops.
    pub fn note_cache_evictions(&self, n: u64) {
        self.evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// True when total accounted residency (chunks + caches) exceeds the
    /// budget — the trigger for shedding caches at mutation points.
    pub fn over_budget(&self) -> bool {
        let total = self.chunk_resident.load(Ordering::Relaxed)
            + self.cache_resident.load(Ordering::Relaxed);
        total > self.budget
    }

    /// Counter snapshot.
    pub fn counters(&self) -> PagerCounters {
        let chunk = self.chunk_resident.load(Ordering::Relaxed);
        PagerCounters {
            resident_bytes: chunk + self.cache_resident.load(Ordering::Relaxed),
            resident_chunk_bytes: chunk,
            peak_resident_chunk_bytes: self.peak_chunk_resident.load(Ordering::Relaxed),
            page_faults: self.faults.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Clock sweep: evicts pageable slots (second-chance on the
    /// referenced bit) until compressed residency is back under budget or
    /// nothing evictable remains. Safe behind `&self` — compressed bytes
    /// are never borrowed out, only decoded caches are.
    pub fn enforce(&self) {
        self.evict_down_to(self.budget);
    }

    /// Charges `n` bytes of pages the caller is about to hold outside any
    /// slot — a pooled decode's wave — after the clock has made room for
    /// them under the budget, so those pages in flight and the resident
    /// ones together stay within it. The charge lasts until the
    /// [`Reservation`] gives it back.
    pub(crate) fn reserve(&self, n: u64) -> Reservation<'_> {
        self.evict_down_to(self.budget.saturating_sub(n));
        self.add_resident(n);
        Reservation { pager: self, bytes: n }
    }

    /// The clock sweep behind [`Pager::enforce`] and [`Pager::reserve`]:
    /// evicts until compressed residency is at most `limit`.
    fn evict_down_to(&self, limit: u64) {
        if self.budget == u64::MAX || self.chunk_resident.load(Ordering::Relaxed) <= limit {
            return;
        }
        let mut clock = self.clock.lock();
        let mut without_progress = 0usize;
        while self.chunk_resident.load(Ordering::Relaxed) > limit {
            if clock.ring.is_empty() || without_progress > 2 * clock.ring.len() {
                break;
            }
            if clock.hand >= clock.ring.len() {
                clock.hand = 0;
            }
            let hand = clock.hand;
            let Some(slot) = clock.ring[hand].upgrade() else {
                clock.ring.swap_remove(hand);
                continue;
            };
            if slot.referenced.swap(false, Ordering::Relaxed) {
                clock.hand += 1;
                without_progress += 1;
                continue;
            }
            let freed = slot.evict();
            if freed > 0 {
                self.release_resident(freed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                without_progress = 0;
            } else {
                without_progress += 1;
            }
            clock.hand += 1;
        }
    }
}

/// Pages held outside any slot, charged to the pager's residency: taken
/// by [`Pager::reserve`], given back page by page as each is installed or
/// dropped, and the rest when the reservation drops.
#[derive(Debug)]
pub(crate) struct Reservation<'a> {
    pager: &'a Pager,
    bytes: u64,
}

impl Reservation<'_> {
    /// Gives back `n` of the reserved bytes (at most what is left).
    pub(crate) fn release(&mut self, n: u64) {
        let n = n.min(self.bytes);
        self.bytes -= n;
        self.pager.release_resident(n);
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.pager.release_resident(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn cold_ref(dir: &std::path::Path, name: &str, payload: &[u8], offset: u64) -> ColdRef {
        let path = dir.join(name);
        let mut f = std::fs::File::create(&path).expect("create");
        f.write_all(&vec![0u8; offset as usize]).expect("pad");
        f.write_all(payload).expect("payload");
        f.sync_all().expect("sync");
        ColdRef {
            file: Arc::new(std::fs::File::open(&path).expect("open")),
            segment_id: 0,
            offset,
            len: payload.len() as u64,
            crc: crc32(payload),
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("explainit-pager-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn fault_reads_at_offset_and_counts() {
        let dir = tmp_dir("fault");
        let pager = Pager::with_budget(Some(1024));
        let slot = pager.slot_cold(cold_ref(&dir, "seg", b"hello chunk", 7));
        assert!(slot.is_empty());
        assert_eq!(pager.counters().resident_chunk_bytes, 0);
        let bytes = slot.bytes().expect("fault");
        assert_eq!(&bytes[..], b"hello chunk");
        let c = pager.counters();
        assert_eq!(c.page_faults, 1);
        assert_eq!(c.resident_chunk_bytes, 11);
        // Second access hits the resident copy: no new fault.
        let again = slot.bytes().expect("hit");
        assert_eq!(&again[..], b"hello chunk");
        assert_eq!(pager.counters().page_faults, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fault_verifies_the_payload_checksum() {
        let dir = tmp_dir("crc");
        let mut cold = cold_ref(&dir, "seg", b"hello chunk", 3);
        cold.crc ^= 1;
        match cold.read() {
            Err(StorageError::Corrupt { what, detail }) => {
                assert_eq!(what, "segment 0 chunk at offset 3");
                assert_eq!(detail, "chunk checksum mismatch");
            }
            other => panic!("expected a corrupt chunk, got {other:?}"),
        }
        cold.len += 1;
        assert!(matches!(cold.read(), Err(StorageError::Io { .. })), "short file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clock_evicts_down_to_budget() {
        let dir = tmp_dir("evict");
        let pager = Pager::with_budget(Some(24));
        let slots: Vec<_> = (0..4)
            .map(|i| pager.slot_cold(cold_ref(&dir, &format!("seg{i}"), &[i as u8; 16], i as u64)))
            .collect();
        for slot in &slots {
            let _ = slot.bytes().expect("fault");
        }
        let c = pager.counters();
        assert_eq!(c.page_faults, 4);
        assert!(c.resident_chunk_bytes <= 24 + 16, "stays near budget: {c:?}");
        assert!(c.evictions >= 2, "older pages evicted: {c:?}");
        // Evicted slots fault back in transparently with the same bytes.
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(&slot.bytes().expect("refault")[..], &[i as u8; 16]);
        }
        assert!(c.peak_resident_chunk_bytes <= 24 + 16, "peak bounded: {c:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reservation_makes_room_first_and_is_charged_until_released() {
        let dir = tmp_dir("reserve");
        let pager = Pager::with_budget(Some(32));
        let slots: Vec<_> = (0..2)
            .map(|i| pager.slot_cold(cold_ref(&dir, &format!("seg{i}"), &[i as u8; 16], 0)))
            .collect();
        for slot in &slots {
            let _ = slot.bytes().expect("fault");
        }
        assert_eq!(pager.counters().resident_chunk_bytes, 32);
        let mut held = pager.reserve(16);
        let c = pager.counters();
        assert_eq!(c.resident_chunk_bytes, 32, "one page evicted to make room: {c:?}");
        assert_eq!(c.peak_resident_chunk_bytes, 32, "never over budget: {c:?}");
        assert_eq!(slots.iter().filter(|s| s.is_empty()).count(), 1);
        held.release(10);
        assert_eq!(pager.counters().resident_chunk_bytes, 22);
        drop(held);
        assert_eq!(pager.counters().resident_chunk_bytes, 16);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_slots_are_never_evicted() {
        let dir = tmp_dir("pinned");
        let pager = Pager::with_budget(Some(4));
        let pinned = pager.slot_resident(Arc::new(vec![9u8; 32]));
        let cold = pager.slot_cold(cold_ref(&dir, "seg", &[1u8; 16], 0));
        let _ = cold.bytes().expect("fault");
        pager.enforce();
        assert!(!pinned.is_empty(), "pinned bytes survive pressure");
        assert_eq!(&pinned.bytes().expect("pinned")[..], &[9u8; 32]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_slots_releases_accounting() {
        let pager = Pager::unbounded();
        let slot = pager.slot_resident(Arc::new(vec![0u8; 100]));
        assert_eq!(pager.counters().resident_chunk_bytes, 100);
        drop(slot);
        assert_eq!(pager.counters().resident_chunk_bytes, 0);
        assert!(pager.budget().is_none());
    }

    #[test]
    #[should_panic(
        expected = "acquiring class `tsdb.pager.clock` (rank 60) while holding `tsdb.pager.slot`"
    )]
    fn slot_then_clock_inversion_is_caught() {
        explainit_sync::arm();
        let dir = tmp_dir("inversion");
        let pager = Pager::with_budget(Some(1024));
        let slot = pager.slot_cold(cold_ref(&dir, "seg", b"payload", 0));
        // Deliberately invert the sanctioned clock -> slot order: hold the
        // slot's bytes lock and then take the clock ring.
        let _slot_guard = slot.bytes.lock();
        let _clock_guard = pager.clock.lock();
    }

    #[test]
    #[should_panic(expected = "faulting a cold chunk page")]
    fn fault_while_holding_clock_is_caught() {
        explainit_sync::arm();
        let dir = tmp_dir("io-under-clock");
        let pager = Pager::with_budget(Some(1024));
        let slot = pager.slot_cold(cold_ref(&dir, "seg", b"payload", 0));
        let cold = slot.cold.clone().expect("pageable slot");
        let _clock_guard = pager.clock.lock();
        let _ = cold.read();
    }

    #[test]
    fn cache_accounting_feeds_over_budget() {
        let pager = Pager::with_budget(Some(64));
        assert!(!pager.over_budget());
        pager.cache_added(100);
        assert!(pager.over_budget());
        assert_eq!(pager.counters().resident_bytes, 100);
        pager.cache_removed(100);
        assert!(!pager.over_budget());
    }
}
