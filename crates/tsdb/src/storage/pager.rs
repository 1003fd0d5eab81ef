//! The chunk pager: a memory budget over a store's chunks — compressed
//! pages and decoded blocks alike — with a clock (second-chance) eviction
//! policy, plus the count of decodes: the store's one accounting object.
//!
//! Every sealed chunk owns a [`PageSlot`], which every clone of its series
//! shares. A slot holds a [`ColdRef`] to its segment file and loads the
//! bytes with a single positioned read on first touch — a *page fault*,
//! checked against the chunk's CRC. It starts Cold when a segment is
//! mapped, and Paged when the writer just wrote the bytes (no fault is
//! counted). It keeps the chunk's decoded block next to its page once a
//! reader decoded it:
//!
//! ```text
//! Cold   -- fault (pread) -->   Paged   -- decode -->   Decoded
//!   ^                                                      |
//!   +---------------------- eviction ----------------------+
//! ```
//!
//! The budget covers the compressed pages (`resident_chunk_bytes`, pages a
//! pooled decode holds in flight included) plus the blocks slots hold, and
//! after every page or block a slot takes in (a fault, a decode, a written
//! page) the clock sweeps, behind `&self`, until both fit. Readers hold
//! their own `Arc`s, so an eviction never pulls memory from under a scan:
//! the budget stops counting it, and it goes with the last reader.

use std::fs::File;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use explainit_sync::{check_io, LockClass, Mutex};

use super::chunk::DecodedBlock;
use super::{crc32, StorageError, StorageStats};

/// The clock ring: taken by the sweep before any per-slot lock. Rank
/// `IO_LOCK_RANK_THRESHOLD` — never held across a fault read.
static PAGER_CLOCK: LockClass =
    LockClass::new("tsdb.pager.clock", explainit_sync::IO_LOCK_RANK_THRESHOLD);

/// Per-slot page and block: innermost lock of the whole workspace order.
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

/// What a slot holds in memory: the compressed page and the decoded block.
#[derive(Debug, Default)]
struct Resident {
    page: Option<Arc<Vec<u8>>>,
    block: Option<Arc<DecodedBlock>>,
}

/// One chunk's residency slot: the compressed bytes and the decoded block
/// when resident, and the cold location to reload the bytes from.
#[derive(Debug)]
pub struct PageSlot {
    pager: Arc<Pager>,
    /// Compressed payload length (what page residency charges).
    len: u64,
    cold: ColdRef,
    resident: Mutex<Resident>,
    /// Clock second-chance bit: set on every access, cleared by a sweep.
    referenced: AtomicBool,
    /// Whether the slot is in the clock ring, which under a budget is
    /// exactly while it holds something the clock may evict. Changed only
    /// under the slot lock.
    enrolled: AtomicBool,
}

impl PageSlot {
    /// True when the slot holds no page.
    pub fn is_empty(&self) -> bool {
        self.resident.lock().page.is_none()
    }

    /// Compressed payload length in bytes, resident or not.
    pub fn page_len(&self) -> u64 {
        self.len
    }

    /// The compressed bytes, faulting them in from disk when cold.
    pub fn bytes(self: &Arc<Self>) -> Result<Arc<Vec<u8>>, StorageError> {
        if let Some(resident) = self.resident() {
            return Ok(resident);
        }
        // Read outside the slot lock (the clock sweep takes clock -> slot,
        // per the `tsdb.pager.*` LockClass ranks, so a fault must never
        // hold slot while enrolling; `check_io` enforces the read side).
        Ok(self.install(self.cold.read()?))
    }

    /// The resident bytes, if any, marking the slot referenced.
    pub fn resident(&self) -> Option<Arc<Vec<u8>>> {
        self.referenced.store(true, Ordering::Relaxed);
        self.resident.lock().page.as_ref().map(Arc::clone)
    }

    /// The decoded block, if the slot holds one, marking it referenced.
    pub(crate) fn block(&self) -> Option<Arc<DecodedBlock>> {
        self.referenced.store(true, Ordering::Relaxed);
        self.resident.lock().block.as_ref().map(Arc::clone)
    }

    /// Where the slot's bytes live on disk.
    pub fn cold(&self) -> &ColdRef {
        &self.cold
    }

    /// Makes `loaded` — this slot's verified page, read by whoever faulted
    /// it — the resident copy and counts the fault; see [`PageSlot::take_in`].
    pub fn install(self: &Arc<Self>, loaded: Vec<u8>) -> Arc<Vec<u8>> {
        self.take_in(Arc::new(loaded), |r| &mut r.page, |pager, _| pager.note_fault(self.len))
    }

    /// Makes `decoded` — this slot's block, decoded by whoever read it —
    /// the slot's copy and counts the decode; see [`PageSlot::take_in`].
    pub(crate) fn keep(self: &Arc<Self>, decoded: DecodedBlock) -> Arc<DecodedBlock> {
        let decoded = Arc::new(decoded);
        self.take_in(decoded, |r| &mut r.block, |pager, block| pager.note_decode(block.bytes()))
    }

    /// Puts `new` in its place in the slot and `count`s it, unless a racer
    /// got there first: then the racer's copy is returned, and `new` goes
    /// after the slot lock is released. A slot that took something in
    /// joins the ring if it was out of it, and the clock enforces the
    /// budget.
    fn take_in<T>(
        self: &Arc<Self>,
        new: Arc<T>,
        place: fn(&mut Resident) -> &mut Option<Arc<T>>,
        count: impl FnOnce(&Pager, &T),
    ) -> Arc<T> {
        let enrol = {
            let mut resident = self.resident.lock();
            let held = place(&mut resident);
            if let Some(racer) = held {
                return Arc::clone(racer);
            }
            *held = Some(Arc::clone(&new));
            count(&self.pager, &new);
            self.referenced.store(true, Ordering::Relaxed);
            !self.enrolled.swap(true, Ordering::Relaxed)
        };
        self.pager.admit(enrol.then(|| Arc::downgrade(self)));
        new
    }

    /// Takes the block and the page: the slot holds nothing after it and
    /// leaves the ring. The taken `Arc`s go back to the caller, to be
    /// dropped after the slot lock is released.
    fn evict(&self) -> Resident {
        let mut resident = self.resident.lock();
        self.enrolled.store(false, Ordering::Relaxed);
        std::mem::take(&mut resident)
    }
}

impl Drop for PageSlot {
    fn drop(&mut self) {
        self.pager.release(self.len, self.resident.get_mut());
    }
}

#[derive(Debug, Default)]
struct Clock {
    ring: Vec<Weak<PageSlot>>,
    hand: usize,
}

/// The per-store pager, shared by the durable handle and every clone, so
/// faults and decodes from snapshot views count against one budget.
#[derive(Debug)]
pub struct Pager {
    /// Budget in bytes over compressed pages plus decoded blocks;
    /// `u64::MAX` means unbounded (the default for in-memory stores and
    /// plain `open`).
    budget: u64,
    chunk_resident: AtomicU64,
    peak_chunk_resident: AtomicU64,
    block_resident: AtomicU64,
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

    /// A pager enforcing `budget` bytes of residency (`None` = unbounded).
    pub fn with_budget(budget: Option<u64>) -> Arc<Pager> {
        Arc::new(Pager {
            budget: budget.unwrap_or(u64::MAX),
            chunk_resident: AtomicU64::new(0),
            peak_chunk_resident: AtomicU64::new(0),
            block_resident: AtomicU64::new(0),
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

    /// A slot starting Cold: nothing resident until the first fault loads
    /// the bytes from the segment file.
    pub fn slot_cold(self: &Arc<Self>, cold: ColdRef) -> Arc<PageSlot> {
        Arc::new(PageSlot {
            pager: Arc::clone(self),
            len: cold.len,
            cold,
            resident: Mutex::new(&PAGER_SLOT, Resident::default()),
            referenced: AtomicBool::new(false),
            enrolled: AtomicBool::new(false),
        })
    }

    /// A slot starting Paged with `bytes`, the page just written
    /// where `cold` points: charged and in the clock like a faulted page,
    /// but no fault is counted, as nothing was read.
    pub(crate) fn slot_paged(
        self: &Arc<Self>,
        cold: ColdRef,
        bytes: Arc<Vec<u8>>,
    ) -> Arc<PageSlot> {
        let slot = self.slot_cold(cold);
        slot.take_in(bytes, |r| &mut r.page, |pager, page| pager.add_page(page.len() as u64));
        slot
    }

    fn add_page(&self, n: u64) {
        let now = self.chunk_resident.fetch_add(n, Ordering::Relaxed) + n;
        self.peak_chunk_resident.fetch_max(now, Ordering::Relaxed);
    }

    fn release_page(&self, n: u64) {
        self.chunk_resident.fetch_sub(n, Ordering::Relaxed);
    }

    /// Stops charging for what a slot with pages of `len` bytes held,
    /// returning whether it held anything.
    fn release(&self, len: u64, held: &Resident) -> bool {
        if held.page.is_some() {
            self.release_page(len);
        }
        if let Some(block) = &held.block {
            self.block_resident.fetch_sub(block.bytes(), Ordering::Relaxed);
        }
        held.page.is_some() || held.block.is_some()
    }

    fn note_fault(&self, n: u64) {
        self.faults.fetch_add(1, Ordering::Relaxed);
        self.add_page(n);
    }

    /// Counts one chunk decode, whose block of `n` bytes a slot now holds.
    fn note_decode(&self, n: u64) {
        self.decodes.fetch_add(1, Ordering::Relaxed);
        self.block_resident.fetch_add(n, Ordering::Relaxed);
    }

    /// Chunk decodes since the pager was created.
    pub fn decode_count(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }

    /// What the budget covers: compressed pages plus held blocks.
    fn resident(&self) -> u64 {
        self.chunk_resident.load(Ordering::Relaxed) + self.block_resident.load(Ordering::Relaxed)
    }

    /// The paging counters, as [`StorageStats`] fields (the others zero).
    pub fn counters(&self) -> StorageStats {
        StorageStats {
            resident_bytes: self.resident(),
            resident_chunk_bytes: self.chunk_resident.load(Ordering::Relaxed),
            peak_resident_chunk_bytes: self.peak_chunk_resident.load(Ordering::Relaxed),
            page_faults: self.faults.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            ..StorageStats::default()
        }
    }

    /// A slot took in a page or a block: it joins the ring when `enrolled`
    /// says it was not in it, and the clock enforces the budget. Nothing
    /// is ever evicted without a budget, so then nothing joins.
    fn admit(&self, enrolled: Option<Weak<PageSlot>>) {
        if self.budget == u64::MAX {
            return;
        }
        if let Some(slot) = enrolled {
            self.clock.lock().ring.push(slot);
        }
        self.evict_down_to(self.budget);
    }

    /// Charges `n` bytes of pages the caller is about to hold outside any
    /// slot — a pooled decode's wave — after the clock has made room for
    /// them under the budget, so those pages in flight and the resident
    /// ones together stay within it. The charge lasts until the
    /// [`Reservation`] gives it back.
    pub(crate) fn reserve(&self, n: u64) -> Reservation<'_> {
        self.evict_down_to(self.budget.saturating_sub(n));
        self.add_page(n);
        Reservation { pager: self, bytes: n }
    }

    /// The clock sweep behind [`Pager::admit`] and [`Pager::reserve`]:
    /// evicts slots (second-chance on the referenced bit) until pages plus
    /// blocks are at most `limit` or nothing evictable remains. A slot is
    /// in the ring only while it holds something to evict, and leaves it
    /// when evicted, so the sweep's work is paid for by the installs that
    /// enrolled the slots and the reads that set their bits.
    fn evict_down_to(&self, limit: u64) {
        if self.budget == u64::MAX || self.resident() <= limit {
            return;
        }
        let mut clock = self.clock.lock();
        let mut without_progress = 0usize;
        while self.resident() > limit {
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
            let taken = slot.evict();
            clock.ring.swap_remove(hand);
            if self.release(slot.len, &taken) {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                without_progress = 0;
            } else {
                without_progress += 1;
            }
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
        self.pager.release_page(n);
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.pager.release_page(self.bytes);
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
    #[should_panic(
        expected = "acquiring class `tsdb.pager.clock` (rank 60) while holding `tsdb.pager.slot`"
    )]
    fn slot_then_clock_inversion_is_caught() {
        explainit_sync::arm();
        let dir = tmp_dir("inversion");
        let pager = Pager::with_budget(Some(1024));
        let slot = pager.slot_cold(cold_ref(&dir, "seg", b"payload", 0));
        // Deliberately invert the sanctioned clock -> slot order: hold the
        // slot's lock and then take the clock ring.
        let _slot_guard = slot.resident.lock();
        let _clock_guard = pager.clock.lock();
    }

    #[test]
    #[should_panic(expected = "faulting a cold chunk page")]
    fn fault_while_holding_clock_is_caught() {
        explainit_sync::arm();
        let dir = tmp_dir("io-under-clock");
        let pager = Pager::with_budget(Some(1024));
        let slot = pager.slot_cold(cold_ref(&dir, "seg", b"payload", 0));
        let cold = slot.cold.clone();
        let _clock_guard = pager.clock.lock();
        let _ = cold.read();
    }

    #[test]
    fn the_clock_evicts_a_slot_page_and_block_together() {
        let dir = tmp_dir("blocks");
        let block =
            |n: i64| DecodedBlock { timestamps: (0..n).collect(), values: vec![0.5; n as usize] };
        let pager = Pager::with_budget(Some(64));
        let a = pager.slot_cold(cold_ref(&dir, "seg-a", &[9u8; 16], 0));
        let b = pager.slot_cold(cold_ref(&dir, "seg-b", &[1u8; 16], 0));
        let _ = a.bytes().expect("fault a");
        let held = a.keep(block(2));
        let _ = b.bytes().expect("fault b");
        assert_eq!(pager.counters().resident_bytes, 16 + 32 + 16, "pages and a block fit");
        let _ = b.keep(block(2));
        let c = pager.counters();
        assert_eq!((c.evictions, c.resident_bytes), (1, 48), "one slot went: {c:?}");
        assert!(a.is_empty() && a.block().is_none(), "it lost its page and its block");
        assert_eq!(held.timestamps, [0, 1], "a reader's block outlives its eviction");
        // Room for a 64-byte wave: everything goes.
        let wave = pager.reserve(64);
        let c = pager.counters();
        assert!(b.is_empty() && b.block().is_none(), "page and block evicted");
        // The wave, and no page or block.
        assert_eq!((c.evictions, c.resident_chunk_bytes, c.resident_bytes), (2, 64, 64), "{c:?}");
        drop(wave);
        assert_eq!(&a.bytes().expect("refault")[..], &[9u8; 16], "an evicted page faults back");
        drop((a, b));
        assert_eq!(pager.counters().resident_bytes, 0, "dropped slots release their bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
