//! The per-series compressed chunk codec: delta-of-delta timestamps and
//! XOR (Gorilla-style) f64 values over one sorted point run.
//!
//! A chunk is the immutable storage unit of a sealed series: up to
//! [`CHUNK_MAX_POINTS`] observations with strictly increasing timestamps,
//! encoded into a bit stream that typical monitoring shapes compress by an
//! order of magnitude (a fixed scrape interval costs one *bit* per
//! timestamp after the first two points; values XOR against their
//! predecessor so repeated or slowly-moving gauges shrink to a few bits).
//!
//! The codec is exact for the entire domain the store accepts:
//!
//! * timestamps cover all of `i64` — deltas are carried as `u64` (strictly
//!   increasing timestamps bound every delta by `2^64 - 1`), with an
//!   escape bucket storing the raw 64-bit delta when the delta-of-delta
//!   leaves the bucketed range, so `i64::MIN → i64::MAX` round-trips;
//! * values are encoded by their IEEE-754 bit pattern — NaN payloads,
//!   `-0.0` and the infinities all round-trip bit-identically.
//!
//! The encoder ([`encode`]) writes each point's fields through a 64-bit
//! accumulator that leaves as whole 8-byte words, a field and its tag or
//! control bits in one write wherever they fit in 64 bits, into a
//! per-thread buffer sized for the worst case, then copies the stream out
//! at its length.
//! The decoder ([`decode_into`]) reads one big-endian 8-byte word per step
//! at a cursor that only moves forward: a run of zero delta-of-delta bits
//! (a fixed scrape interval) is consumed with one `leading_zeros` per
//! load, and a value's control bits come from the same load as its
//! payload whenever both fit. Nothing past the end of the stream is
//! refused as it is read — it reads as zero — but the cursor is checked
//! once per point and before any other error is reported, so damaged bytes
//! fail exactly as a reader that refused every short read would fail them.
//!
//! A reader decodes a chunk at exactly one site, [`SealedChunk::decoded`]
//! — or, for a scan with many undecoded chunks, [`decode_on_pool`], which
//! runs the same fault, check and decode on the worker pool — and every
//! decode is counted on the store's pager (surfaced as
//! `Tsdb::decode_count`), which is how tests *prove* scans are lazy: a
//! time-filtered query must only ever decode chunks whose `[min_ts,
//! max_ts]` spans overlap the query range. A chunk that fails to page in,
//! fails its checksum or fails to decode is an error at that site, never
//! fewer points.

use std::cell::RefCell;
use std::sync::Arc;

use explainit_sync::{pool, LockClass, Mutex};

use super::pager::{ColdRef, PageSlot, Pager, Reservation};
use super::StorageError;

/// One pooled decode job's buffers, taken out by the worker that runs it
/// and let go at once (no lock is taken, and no I/O done, while it is
/// held).
static DECODE_HANDOFF: LockClass = LockClass::new("tsdb.chunk.handoff", 75);

/// Hard cap on points per chunk: bounds the decode unit (and therefore the
/// granularity of lazy scans) independently of how large a series grows
/// between flushes.
pub const CHUNK_MAX_POINTS: usize = 2048;

/// Immutable metadata of one encoded chunk, cheap enough to keep resident
/// for every chunk in the store: scans prune on it without any decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Timestamp of the first point.
    pub min_ts: i64,
    /// Timestamp of the last point.
    pub max_ts: i64,
    /// Number of points in the chunk (always > 0).
    pub count: u32,
}

/// One encoded chunk ready to be placed into a segment file.
#[derive(Debug, Clone)]
pub struct EncodedChunk {
    /// Pruning metadata.
    pub meta: ChunkMeta,
    /// The compressed bit stream.
    pub bytes: Arc<Vec<u8>>,
}

/// A chunk's decoded points. The chunk's [`PageSlot`] holds one behind an
/// `Arc`, charged to the page budget for as long as the slot holds it;
/// every reader holds its own `Arc`, so the clock may evict the block from
/// the slot while scans still read it.
#[derive(Debug)]
pub struct DecodedBlock {
    /// The timestamps, ascending.
    pub(crate) timestamps: Vec<i64>,
    /// The values, parallel to `timestamps` (only a decode makes a block,
    /// so the two are always the same length).
    pub(crate) values: Vec<f64>,
}

impl DecodedBlock {
    /// What the block charges the budget while a slot holds it: 16 bytes
    /// per point, one `i64` timestamp and one `f64` value.
    pub(crate) fn bytes(&self) -> u64 {
        self.timestamps.len() as u64 * 16
    }
}

/// A compressed chunk held by a sealed series: its pruning metadata and
/// its [`PageSlot`], which every clone of the series shares. The slot is
/// the chunk's one residency state: the compressed bytes, demand-paged
/// from the segment file that holds them (Cold → Paged, with clock
/// eviction back to Cold), and the decoded block on top, which the clock
/// evicts too.
#[derive(Debug, Clone)]
pub struct SealedChunk {
    /// Pruning metadata (also used to maintain the sealed-tier ordering
    /// invariant without touching the payload).
    pub meta: ChunkMeta,
    slot: Arc<PageSlot>,
}

impl SealedChunk {
    /// A chunk recovered from a segment file, starting Cold: only `meta`
    /// is resident; the compressed bytes fault in on first touch.
    pub fn cold(meta: ChunkMeta, cold: ColdRef, pager: &Arc<Pager>) -> Self {
        SealedChunk { meta, slot: pager.slot_cold(cold) }
    }

    /// A chunk just written to the segment `cold` points into, starting
    /// Paged with the written bytes ([`Pager::slot_paged`]).
    pub(crate) fn paged(chunk: EncodedChunk, cold: ColdRef, pager: &Arc<Pager>) -> Self {
        SealedChunk { meta: chunk.meta, slot: pager.slot_paged(cold, chunk.bytes) }
    }

    /// True when the chunk's time span intersects the inclusive `[lo, hi]`
    /// range — the pruning test scans apply before any decode.
    pub fn overlaps(&self, lo: i64, hi: i64) -> bool {
        self.meta.max_ts >= lo && self.meta.min_ts <= hi
    }

    /// The decoded block: the slot's, or else faulted in (and verified)
    /// and decoded outside the slot lock, then kept in the slot — counting
    /// the decode — unless a racer's landed first. The `Arc` stays valid
    /// however soon the clock evicts the block. A chunk that cannot be
    /// paged in, fails its checksum or does not decode is an error, and
    /// stays undecoded.
    pub fn decoded(&self) -> Result<Arc<DecodedBlock>, StorageError> {
        if let Some(block) = self.slot.block() {
            return Ok(block);
        }
        let bytes = self.slot.bytes()?;
        let (timestamps, values) = decode(&bytes, self.meta.count as usize)?;
        Ok(self.slot.keep(DecodedBlock { timestamps, values }))
    }

    /// The decoded block if the slot holds one, without decoding.
    pub(crate) fn cached(&self) -> Option<Arc<DecodedBlock>> {
        self.slot.block()
    }

    /// The id of the segment the chunk pages from (a write that
    /// supersedes the segment drops the chunk by it).
    pub fn segment_id(&self) -> u64 {
        self.slot.cold().segment_id
    }

    /// The chunk in segment-writer form, paging the bytes in if cold.
    pub fn encoded(&self) -> Result<EncodedChunk, StorageError> {
        Ok(EncodedChunk { meta: self.meta, bytes: self.slot.bytes()? })
    }
}

/// Where a pooled decode job's compressed bytes come from.
enum Page {
    /// Already resident (paged in before the scan).
    Resident(Arc<Vec<u8>>),
    /// Cold: the buffer the worker reads the page into.
    Cold(Vec<u8>),
}

/// One chunk's fault, check and decode on the pool. The caller allocates
/// every buffer that outlives the job — the page the slot keeps and the
/// vectors of the decoded block — and the worker only fills them: memory
/// a worker thread allocates lands in its own allocator arena and would
/// stay there, growing the process, after the job is gone.
struct DecodeJob<'a> {
    chunk: &'a SealedChunk,
    page: Page,
    points: (Vec<i64>, Vec<f64>),
}

impl<'a> DecodeJob<'a> {
    /// A job over `resident`, the chunk's page if it was resident when the
    /// wave began, or else over a buffer for the worker to read it into.
    fn new(chunk: &'a SealedChunk, resident: Option<Arc<Vec<u8>>>) -> Self {
        let page = match resident {
            Some(bytes) => Page::Resident(bytes),
            None => Page::Cold(vec![0; chunk.slot.page_len() as usize]),
        };
        let count = chunk.meta.count as usize;
        DecodeJob { chunk, page, points: (Vec::with_capacity(count), Vec::with_capacity(count)) }
    }

    /// The worker's half: read and verify the page if cold, then decode.
    fn run(mut self) -> Result<Self, StorageError> {
        let DecodeJob { chunk, page, points } = &mut self;
        let bytes = match page {
            Page::Resident(bytes) => &bytes[..],
            Page::Cold(buf) => {
                chunk.slot.cold().read_into(buf)?;
                &buf[..]
            }
        };
        decode_into(bytes, chunk.meta.count as usize, points)?;
        Ok(self)
    }

    /// The caller's half: the page leaves the wave's reservation and, if
    /// it was read, becomes resident (a counted fault, with the clock
    /// enforcing the budget); the points become the slot's block, which
    /// is returned.
    fn finish(self, held: &mut Reservation<'_>) -> Arc<DecodedBlock> {
        held.release(self.chunk.slot.page_len());
        if let Page::Cold(buf) = self.page {
            self.chunk.slot.install(buf);
        }
        let (timestamps, values) = self.points;
        self.chunk.slot.keep(DecodedBlock { timestamps, values })
    }
}

/// Faults, verifies and decodes `chunks` on `workers` threads of the
/// worker pool, exactly as [`SealedChunk::decoded`] would one by one: the
/// same bytes, the same counts, the first error in chunk order. Returns
/// each chunk's block, in chunk order.
///
/// Chunks go in waves of at most one page budget of compressed bytes (one
/// wave when unbounded; a chunk larger than the budget goes alone). A
/// wave's pages are charged to the pager from before their buffers exist
/// until each is installed, and the clock first evicts to make room for
/// them, so resident pages and pages in flight together stay within the
/// budget as on the serial path. Each wave's pages and blocks go to their
/// slots in chunk order on the calling thread.
pub(crate) fn decode_on_pool(
    chunks: &[&SealedChunk],
    workers: usize,
    pager: &Pager,
) -> Result<Vec<Arc<DecodedBlock>>, StorageError> {
    let wave_bytes = pager.budget().unwrap_or(u64::MAX);
    let mut blocks = Vec::with_capacity(chunks.len());
    let mut rest = chunks;
    while !rest.is_empty() {
        let mut bytes = 0u64;
        let n = rest
            .iter()
            .position(|c| {
                bytes += c.slot.page_len();
                bytes > wave_bytes
            })
            .unwrap_or(rest.len())
            .max(1);
        let (wave, tail) = rest.split_at(n);
        // Take the resident pages before making room, so the room made
        // cannot turn them cold; they are charged to the wave as well as
        // to their slots, and may be evicted from the slots meanwhile.
        let resident: Vec<_> = wave.iter().map(|c| c.slot.resident()).collect();
        let mut held = pager.reserve(wave.iter().map(|c| c.slot.page_len()).sum());
        let jobs: Vec<Mutex<Option<DecodeJob>>> = wave
            .iter()
            .zip(resident)
            .map(|(c, page)| Mutex::new(&DECODE_HANDOFF, Some(DecodeJob::new(c, page))))
            .collect();
        let done = pool::run_indexed(jobs.len(), workers, |i| {
            let job = jobs[i].lock().take();
            job.ok_or_else(|| StorageError::corrupt("chunk", "decode job taken twice"))?.run()
        });
        for job in done {
            blocks.push(job?.finish(&mut held));
        }
        rest = tail;
    }
    Ok(blocks)
}

/// Splits one sorted point run into encoded chunks of at most
/// [`CHUNK_MAX_POINTS`] points each.
///
/// The input must be non-empty with strictly increasing timestamps (the
/// [`crate::Series`] head invariant).
pub fn encode_run(ts: &[i64], vals: &[f64]) -> Vec<EncodedChunk> {
    debug_assert_eq!(ts.len(), vals.len());
    debug_assert!(ts.windows(2).all(|w| w[0] < w[1]));
    let mut chunks = Vec::with_capacity(ts.len().div_ceil(CHUNK_MAX_POINTS));
    let mut at = 0;
    while at < ts.len() {
        let end = (at + CHUNK_MAX_POINTS).min(ts.len());
        let (cts, cvs) = (&ts[at..end], &vals[at..end]);
        chunks.push(EncodedChunk {
            meta: ChunkMeta { min_ts: cts[0], max_ts: cts[cts.len() - 1], count: cts.len() as u32 },
            bytes: Arc::new(encode(cts, cvs)),
        });
        at = end;
    }
    chunks
}

// ---------------------------------------------------------------------------
// Bit-level codec
// ---------------------------------------------------------------------------

/// Encodes one sorted run into the chunk bit stream.
///
/// Delta-of-delta bucket tags, from most to least common: `0` (dod = 0),
/// `10` + 7 bits, `110` + 9 bits, `1110` + 12 bits, `1111` + the raw 64-bit
/// *delta* (not dod — the escape must cover a delta-of-delta range wider
/// than 64 bits, since deltas span `1..=2^64-1`). A value is `0` (repeat),
/// `10` + the payload in the previous XOR window, or `11` + 5-bit leading
/// zeros + 6-bit `len - 1` + a new window's `len` bits.
///
/// Every field goes to a [`WordWriter`] as one write — a bucket's tag with
/// its payload, a value's control bits with its header and payload —
/// whenever it fits in 64 bits: all but the raw-delta escape, a reused
/// window over 62 bits and a new one over 51. The stream is written into
/// the thread's [`ENCODE_SCRATCH`] and returned in a buffer of exactly its
/// length, which a page slot may keep for as long as the chunk lives.
pub fn encode(ts: &[i64], vals: &[f64]) -> Vec<u8> {
    ENCODE_SCRATCH
        .with_borrow_mut(|scratch| write_run(WordWriter::new(scratch, ts.len()), ts, vals))
}

thread_local! {
    /// The buffer a thread's [`encode`] calls write into, kept at the
    /// largest chunk's worst case (37 KiB at 2048 points). A worst-case
    /// buffer allocated per chunk, then trimmed or copied out and freed,
    /// left holes that raised `incident_cold`'s `peak_rss_mb` by about
    /// 1 MiB.
    static ENCODE_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// [`encode`]'s stream, written through `w`.
fn write_run(mut w: WordWriter<'_>, ts: &[i64], vals: &[f64]) -> Vec<u8> {
    // Timestamps: raw first value, then bucketed delta-of-delta with the
    // previous delta starting at zero (so the first delta itself goes
    // through the buckets — small scrape intervals stay cheap).
    w.put(ts[0] as u64, 64);
    let mut prev_delta: u64 = 0;
    for pair in ts.windows(2) {
        // Strictly increasing timestamps: the difference is 1..=2^64-1 and
        // fits u64 exactly even across the full i64 domain.
        let delta = pair[1].wrapping_sub(pair[0]) as u64;
        let dod = delta as i128 - prev_delta as i128;
        match dod {
            0 => w.put(0, 1),
            -63..=64 => w.put(0b10 << 7 | (dod + 63) as u64, 9),
            -255..=256 => w.put(0b110 << 9 | (dod + 255) as u64, 12),
            -2047..=2048 => w.put(0b1110 << 12 | (dod + 2047) as u64, 16),
            _ => {
                w.put(0b1111, 4);
                w.put(delta, 64);
            }
        }
        prev_delta = delta;
    }
    // Values: raw first bit pattern, then Gorilla XOR with a sticky
    // leading/length window. No window yet is `win_len = 0`, which no XOR
    // fits.
    w.put(vals[0].to_bits(), 64);
    let mut prev_bits = vals[0].to_bits();
    let (mut win_lead, mut win_len) = (0u32, 0u32);
    for &v in &vals[1..] {
        let bits = v.to_bits();
        let xor = bits ^ prev_bits;
        prev_bits = bits;
        if xor == 0 {
            w.put(0, 1);
            continue;
        }
        let lead = xor.leading_zeros().min(31); // 5-bit field
        let trail = xor.trailing_zeros();
        if lead >= win_lead && 64 - trail <= win_lead + win_len {
            // Fits the previous meaningful window: control '10' + bits.
            let payload = xor >> (64 - win_lead - win_len);
            match win_len <= 62 {
                true => w.put(0b10 << win_len | payload, 2 + win_len),
                false => {
                    w.put(0b10, 2);
                    w.put(payload, win_len);
                }
            }
        } else {
            // New window: control '11' + 5-bit leading + 6-bit (len - 1).
            let len = 64 - lead - trail; // >= 1 because xor != 0
            let head = 0b11 << 11 | u64::from(lead) << 6 | u64::from(len - 1);
            match len <= 51 {
                true => w.put(head << len | xor >> trail, 13 + len),
                false => {
                    w.put(head, 13);
                    w.put(xor >> trail, len);
                }
            }
            win_lead = lead;
            win_len = len;
        }
    }
    w.finish()
}

/// Decodes a chunk bit stream holding `count` points.
pub fn decode(bytes: &[u8], count: usize) -> Result<(Vec<i64>, Vec<f64>), StorageError> {
    let mut points = (Vec::with_capacity(count), Vec::with_capacity(count));
    decode_into(bytes, count, &mut points)?;
    Ok(points)
}

/// [`decode`] into vectors the caller allocated: it appends `count` points
/// to `points` and, given room for them, allocates nothing itself — what
/// lets a pool worker decode into caller-owned memory, and compaction
/// decode a run of chunks into one buffer.
///
/// The stream is read through [`Bits`], one 8-byte load at a time: a run of
/// zero delta-of-delta bits takes one `leading_zeros` per load (up to
/// [`WORD_BITS`] timestamps), and a value's control bits come from the same
/// load as its reused window's payload whenever the two fit in it. A read
/// past the end is zero padding, never refused: the cursor is checked once
/// per point (per run, for a run of equal deltas), before any other error
/// is reported and at the end, so a stream decodes to the points, or fails
/// with the error, that a reader refusing every read past the end would
/// give.
pub(crate) fn decode_into(
    bytes: &[u8],
    count: usize,
    (ts, vals): &mut (Vec<i64>, Vec<f64>),
) -> Result<(), StorageError> {
    if count == 0 {
        return Err(StorageError::corrupt("chunk", "zero-point chunk"));
    }
    let mut r = Bits { bytes, pos: 0 };
    let mut prev = r.read(64) as i64;
    ts.push(prev);
    let mut prev_delta: u64 = 0;
    let mut left = count - 1;
    while left > 0 {
        r.check()?;
        let word = r.peek();
        // A run of zero delta-of-deltas: `run` points `prev_delta` apart.
        let run = (word.leading_zeros() as usize).min(WORD_BITS).min(left);
        if run > 0 {
            let last = prev as i128 + prev_delta as i128 * run as i128;
            if prev_delta == 0 || last > i64::MAX as i128 {
                // The cursor just past the run's first bad point.
                r.pos += match prev_delta {
                    0 => 1,
                    d => ((i64::MAX as i128 - prev as i128) / d as i128) as usize + 1,
                };
                return Err(r.corrupt(NON_INCREASING));
            }
            // Every point is in range, so wrapping arithmetic is exact.
            let step = prev_delta as i64;
            ts.extend((1..=run as i64).map(|k| prev.wrapping_add(step.wrapping_mul(k))));
            prev = last as i64;
            r.pos += run;
            left -= run;
            continue;
        }
        // A bucket tag and its payload, or the escape and a raw delta.
        let (delta, width) = match word >> 60 {
            0b1000..=0b1011 => (apply_dod(prev_delta, (word >> 55 & 0x7F) as i128 - 63), 9),
            0b1100 | 0b1101 => (apply_dod(prev_delta, (word >> 52 & 0x1FF) as i128 - 255), 12),
            0b1110 => (apply_dod(prev_delta, (word >> 48 & 0xFFF) as i128 - 2047), 16),
            _ => {
                r.pos += 4;
                (r.read(64), 0)
            }
        };
        r.pos += width;
        let next = prev as i128 + delta as i128;
        if delta == 0 || next > i64::MAX as i128 {
            return Err(r.corrupt(NON_INCREASING));
        }
        prev = next as i64;
        ts.push(prev);
        prev_delta = delta;
        left -= 1;
    }
    let mut prev_bits = r.read(64);
    vals.push(f64::from_bits(prev_bits));
    let mut win_lead: u32 = 0;
    let mut win_len: u32 = 0;
    for _ in 1..count {
        r.check()?;
        let word = r.peek();
        // The bits of `word` that are the stream's (or its padding).
        let loaded = 64 - (r.pos % 8) as u32;
        if word >> 63 == 0 {
            r.pos += 1;
        } else if word >> 62 == 0b10 {
            if win_len == 0 {
                r.pos += 2;
                return Err(r.corrupt("window reuse before any window"));
            }
            let payload = match 2 + win_len <= loaded {
                true => (word << 2) >> (64 - win_len),
                false => Bits { bytes, pos: r.pos + 2 }.read(win_len),
            };
            r.pos += 2 + win_len as usize;
            prev_bits ^= payload << (64 - win_lead - win_len);
        } else {
            let lead = (word >> 57 & 0x1F) as u32;
            let len = (word >> 51 & 0x3F) as u32 + 1;
            if lead + len > 64 {
                r.pos += 13;
                return Err(r.corrupt("xor window exceeds 64 bits"));
            }
            win_lead = lead;
            win_len = len;
            let payload = match 13 + len <= loaded {
                true => (word << 13) >> (64 - len),
                false => Bits { bytes, pos: r.pos + 13 }.read(len),
            };
            r.pos += 13 + len as usize;
            prev_bits ^= payload << (64 - lead - len);
        }
        vals.push(f64::from_bits(prev_bits));
    }
    r.check()
}

/// What a chunk whose stream ends before its last point fails with.
const SHORT: &str = "bit stream shorter than its point count";

/// What a chunk whose timestamps do not strictly ascend within `i64` fails
/// with.
const NON_INCREASING: &str = "non-increasing timestamp";

fn apply_dod(prev_delta: u64, dod: i128) -> u64 {
    // Wrapping on purpose: a corrupt stream may push outside the valid
    // delta range; the decode loop's monotonicity check rejects the result.
    (prev_delta as i128).wrapping_add(dod) as u64
}

/// Widest read done in one load: after a shift of up to 7 bits to the
/// stream's bit offset, a 64-bit word still holds 57 whole bits.
const WORD_BITS: usize = 56;

/// Most bits one point can take: a raw-delta escape (68 bits) and a new
/// 64-bit XOR window (77 bits). The first point's 128 raw bits fit too.
const MAX_POINT_BITS: usize = 145;

/// MSB-first bit stream writer. Bits gather at the top of a 64-bit
/// accumulator, which leaves as one big-endian word whenever it fills;
/// [`WordWriter::finish`] writes the last partial word's whole bytes,
/// zero-padding the last of them.
struct WordWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Pending bits in the top `pending` bits; the bits below are zero.
    acc: u64,
    /// Always below 64 between calls.
    pending: u32,
}

impl<'a> WordWriter<'a> {
    /// A writer over `out`, emptied and given room for `points` points at
    /// the most bits each, so no write reallocates.
    fn new(out: &'a mut Vec<u8>, points: usize) -> Self {
        out.clear();
        out.reserve((points * MAX_POINT_BITS).div_ceil(64) * 8);
        WordWriter { out, acc: 0, pending: 0 }
    }

    /// Appends the low `n` bits of `value`, `1 <= n <= 64`, whose bits
    /// above them are zero.
    #[inline(always)]
    fn put(&mut self, value: u64, n: u32) {
        debug_assert!((1..=64).contains(&n));
        debug_assert!(n == 64 || value >> n == 0);
        let filled = self.pending + n;
        if filled < 64 {
            self.acc |= value << (64 - filled);
            self.pending = filled;
            return;
        }
        // The word fills: its free low bits take the top of `value`, and
        // the `spill` bits left over start the next word.
        let spill = filled - 64;
        self.acc |= value >> spill;
        self.out.extend_from_slice(&self.acc.to_be_bytes());
        self.acc = value.checked_shl(64 - spill).unwrap_or(0);
        self.pending = spill;
    }

    /// The stream, copied into a buffer of exactly its length.
    fn finish(self) -> Vec<u8> {
        let tail = self.pending.div_ceil(8) as usize;
        self.out.extend_from_slice(&self.acc.to_be_bytes()[..tail]);
        self.out.to_vec()
    }
}

/// An MSB-first bit stream under a cursor that only moves forward. A load
/// is one big-endian 8-byte read at the byte holding the cursor, shifted
/// left by the cursor's bit offset: its top `WORD_BITS + 1` bits at least
/// are the stream's, and zero past its end. No read is refused; the cursor
/// passes the end iff some read did not fit, which [`Bits::check`] reports.
struct Bits<'a> {
    bytes: &'a [u8],
    /// The cursor, in bits from the start.
    pos: usize,
}

impl Bits<'_> {
    /// The 64 bits from the cursor on, zero past the end.
    #[inline(always)]
    fn peek(&self) -> u64 {
        let at = self.pos / 8;
        let word = match self.bytes.get(at..).and_then(<[u8]>::first_chunk::<8>) {
            Some(word) => u64::from_be_bytes(*word),
            None => {
                let rest = self.bytes.get(at..).unwrap_or_default();
                let mut word = [0u8; 8];
                word[..rest.len()].copy_from_slice(rest);
                u64::from_be_bytes(word)
            }
        };
        word << (self.pos % 8)
    }

    /// The next `n <= 64` bits, moving the cursor past them; a read wider
    /// than [`WORD_BITS`] takes two loads.
    fn read(&mut self, n: u32) -> u64 {
        if n > WORD_BITS as u32 {
            let hi = self.read(n - 32);
            return (hi << 32) | self.read(32);
        }
        // `checked_shr` is `None` only for n = 0, whose value is 0.
        let value = self.peek().checked_shr(64 - n).unwrap_or(0);
        self.pos += n as usize;
        value
    }

    /// Whether the cursor has passed the end: a read did not fit.
    fn short(&self) -> bool {
        self.pos > self.bytes.len() * 8
    }

    /// [`SHORT`] once a read has not fit.
    fn check(&self) -> Result<(), StorageError> {
        match self.short() {
            true => Err(StorageError::corrupt("chunk", SHORT)),
            false => Ok(()),
        }
    }

    /// A corrupt chunk: `detail`, or [`SHORT`] if a read has not fit — the
    /// failure a reader that refuses every read past the end meets first.
    fn corrupt(&self, detail: &str) -> StorageError {
        StorageError::corrupt("chunk", if self.short() { SHORT } else { detail })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(ts: &[i64], vals: &[f64]) {
        let bytes = encode(ts, vals);
        let (dts, dvs) = decode(&bytes, ts.len()).expect("decode");
        assert_eq!(dts, ts);
        assert_eq!(dvs.len(), vals.len());
        for (a, b) in dvs.iter().zip(vals) {
            assert_eq!(a.to_bits(), b.to_bits(), "values must round-trip bit-exactly");
        }
    }

    #[test]
    fn single_point() {
        round_trip(&[42], &[1.5]);
        round_trip(&[i64::MIN], &[f64::NAN]);
        round_trip(&[i64::MAX], &[-0.0]);
    }

    #[test]
    fn aligned_grid_compresses_hard() {
        let ts: Vec<i64> = (0..2000).map(|i| i * 60).collect();
        let vals: Vec<f64> = (0..2000).map(|i| (i % 7) as f64).collect();
        let bytes = encode(&ts, &vals);
        // 2000 points raw = 32000 bytes; a fixed grid must beat 5x easily.
        assert!(bytes.len() * 5 < ts.len() * 16, "compressed to {} bytes", bytes.len());
        round_trip(&ts, &vals);
    }

    #[test]
    fn i64_extreme_timestamps() {
        round_trip(&[i64::MIN, -1, 0, 1, i64::MAX], &[0.0; 5]);
        round_trip(&[i64::MIN, i64::MAX], &[1.0, 2.0]);
        round_trip(&[i64::MAX - 1, i64::MAX], &[1.0, 2.0]);
    }

    #[test]
    fn special_values() {
        let nan_payload = f64::from_bits(0x7ff8_0000_dead_beef);
        round_trip(
            &[0, 1, 2, 3, 4, 5],
            &[f64::NAN, nan_payload, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY],
        );
    }

    #[test]
    fn irregular_deltas() {
        let ts = [0, 1, 100, 101, 1_000_000, 1_000_060, i64::MAX / 2];
        let vals = [1.0, -1.0, 3.5e300, -3.5e-300, 0.1, 0.1, 7.0];
        round_trip(&ts, &vals);
    }

    #[test]
    fn encode_run_splits_at_chunk_cap() {
        let n = CHUNK_MAX_POINTS + 17;
        let ts: Vec<i64> = (0..n as i64).collect();
        let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let chunks = encode_run(&ts, &vals);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].meta.count as usize, CHUNK_MAX_POINTS);
        assert_eq!(chunks[1].meta.count as usize, 17);
        assert_eq!(chunks[0].meta.min_ts, 0);
        assert_eq!(chunks[1].meta.max_ts, n as i64 - 1);
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_panic() {
        let ts: Vec<i64> = (0..100).map(|i| i * 3).collect();
        let vals: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        let bytes = encode(&ts, &vals);
        for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut], 100).is_err(), "cut={cut}");
        }
        // All ones: first timestamp -1, then an escaped raw delta of
        // 2^64 - 1, which overshoots i64::MAX.
        match decode(&[0xFF; 40], 10) {
            Err(StorageError::Corrupt { detail, .. }) => {
                assert_eq!(detail, "non-increasing timestamp")
            }
            other => panic!("expected a corrupt chunk, got {other:?}"),
        }
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Bits `[start, start + n)` of an MSB-first stream, one bit at a time,
    /// zero past its end.
    fn reference_bits(bytes: &[u8], start: usize, n: usize) -> u64 {
        let bit = |i: usize| bytes.get(i / 8).map_or(0, |b| u64::from(b >> (7 - i % 8) & 1));
        (start..start + n).fold(0, |v, i| (v << 1) | bit(i))
    }

    #[test]
    fn random_width_writes_read_back() {
        let mut s = 0x9E37_79B9_7F4A_7C15;
        let writes: Vec<(u64, usize)> = (0..10_000)
            .map(|_| {
                let width = 1 + (xorshift(&mut s) % 64) as usize;
                let value = xorshift(&mut s).checked_shr(64 - width as u32).unwrap_or(0);
                (value, width)
            })
            .collect();
        let mut buf = Vec::new();
        let mut w = WordWriter::new(&mut buf, 0);
        for &(value, width) in &writes {
            w.put(value, width as u32);
        }
        let bytes = w.finish();
        let total: usize = writes.iter().map(|&(_, width)| width).sum();
        assert_eq!(bytes.len(), total.div_ceil(8));
        let mut r = Bits { bytes: &bytes, pos: 0 };
        let mut at = 0;
        for (i, &(value, width)) in writes.iter().enumerate() {
            assert_eq!(reference_bits(&bytes, at, width), value, "write {i} on the wire");
            assert_eq!(r.read(width as u32), value, "read {i}, width {width}");
            assert!(!r.short(), "read {i}, width {width} fits");
            at += width;
        }
        assert_eq!(r.read((bytes.len() * 8 - total) as u32), 0, "zero padding");
        assert!(r.check().is_ok(), "the last bit is in the stream");
        assert_eq!(r.read(1), 0);
        assert!(r.short(), "one bit past the end did not fit");
    }

    /// The rule the decoder's one cursor check rests on: after any read,
    /// the cursor is past the end iff that read or an earlier one did not
    /// fit, and what a read returns is the stream's bits, zero past its end.
    #[test]
    fn reads_end_on_the_last_bit_and_not_one_past_it() {
        let mut s = 0x2545_F491_4F6C_DD1D;
        for offset in 0..8usize {
            for width in [1, 56, 57, 64] {
                // Every stream length from one that cuts the read short to
                // one that leaves a byte to spare.
                for len in 0..=(offset + width).div_ceil(8) + 1 {
                    let bytes: Vec<u8> = (0..len).map(|_| xorshift(&mut s) as u8).collect();
                    let case = format!("offset {offset}, width {width}, {len} bytes");
                    let mut r = Bits { bytes: &bytes, pos: 0 };
                    assert_eq!(r.read(offset as u32), reference_bits(&bytes, 0, offset), "{case}");
                    assert_eq!(r.short(), offset > len * 8, "{case}");
                    let end = offset + width;
                    let value = reference_bits(&bytes, offset, width);
                    assert_eq!(r.read(width as u32), value, "{case}");
                    assert_eq!(r.short(), end > len * 8, "{case}: the read did not fit");
                    assert_eq!(r.check().is_err(), end > len * 8, "{case}");
                    if end > len * 8 {
                        match r.corrupt("another fault") {
                            StorageError::Corrupt { detail, .. } => assert_eq!(detail, SHORT),
                            other => panic!("{case}: {other:?}"),
                        }
                        continue;
                    }
                    // The rest of the stream (nothing when the read itself
                    // ended on the last bit), then one bit past it.
                    let rest = len * 8 - end;
                    assert_eq!(r.read(rest as u32), reference_bits(&bytes, end, rest), "{case}");
                    assert!(!r.short(), "{case}: the stream's last bit fits");
                    assert_eq!(r.read(0), 0, "{case}");
                    assert!(!r.short(), "{case}: an empty read fits");
                    assert_eq!(r.read(1), 0, "{case}: one bit past the end reads as padding");
                    assert!(r.short(), "{case}: one bit past the end");
                }
            }
        }
    }

    /// `n` chunks of 100 points, written one after another to one file and
    /// handed out cold on a pager whose budget holds `budget_chunks` of the
    /// largest; returns the file's directory, the pager, the chunks, their
    /// points and that largest payload.
    #[allow(clippy::type_complexity)]
    fn cold_chunks(
        tag: &str,
        n: i64,
        budget_chunks: Option<u64>,
    ) -> (std::path::PathBuf, Arc<Pager>, Vec<SealedChunk>, Vec<(Vec<i64>, Vec<f64>)>, u64) {
        let dir =
            std::env::temp_dir().join(format!("explainit-chunk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let (mut file, mut placed, mut expected) = (Vec::new(), Vec::new(), Vec::new());
        for c in 0..n {
            let ts: Vec<i64> = (0..100).map(|t| (c * 100 + t) * 60).collect();
            let vs: Vec<f64> = ts.iter().map(|&t| (t * 7919 % 1000) as f64 * 0.25).collect();
            let chunk = encode_run(&ts, &vs).pop().expect("one chunk");
            placed.push((chunk.meta, file.len() as u64, chunk.bytes.len() as u64));
            file.extend_from_slice(&chunk.bytes);
            expected.push((ts, vs));
        }
        let path = dir.join("payloads");
        std::fs::write(&path, &file).expect("write");
        let largest = placed.iter().map(|&(_, _, len)| len).max().unwrap_or(0);
        let pager = Pager::with_budget(budget_chunks.map(|k| k * largest));
        let handle = Arc::new(std::fs::File::open(&path).expect("open"));
        let chunks = placed
            .into_iter()
            .map(|(meta, offset, len)| {
                let crc = crate::storage::crc32(&file[offset as usize..(offset + len) as usize]);
                let cold = ColdRef { file: Arc::clone(&handle), segment_id: 0, offset, len, crc };
                SealedChunk::cold(meta, cold, &pager)
            })
            .collect();
        (dir, pager, chunks, expected, largest)
    }

    /// The pooled path on two workers whatever the machine's core count:
    /// the scan's serial path only calls it on more than one core.
    #[test]
    fn pooled_decode_on_two_workers_is_the_serial_decode() {
        for budget_chunks in [None, Some(4)] {
            let (dir, pager, chunks, expected, largest) = cold_chunks("pooled", 24, budget_chunks);
            let refs: Vec<&SealedChunk> = chunks.iter().collect();
            let blocks = decode_on_pool(&refs, 2, &pager).expect("decode");
            assert_eq!(blocks.len(), 24, "{budget_chunks:?}: a block per chunk");
            for (block, (ts, vs)) in blocks.iter().zip(&expected) {
                assert_eq!((&block.timestamps, &block.values), (ts, vs), "{budget_chunks:?}");
            }
            let c = pager.counters();
            assert_eq!(c.page_faults, 24, "{budget_chunks:?}: one fault per chunk");
            assert_eq!(pager.decode_count(), 24, "{budget_chunks:?}: one decode per chunk");
            match pager.budget() {
                // Unbounded, every slot keeps its block.
                None => assert!(chunks.iter().all(|c| c.cached().is_some())),
                Some(budget) => {
                    assert!(c.evictions > 0, "{c:?}");
                    // A wave is charged while in flight, after room was
                    // made for it: a full-budget wave beside a full budget
                    // of resident pages would show as twice the budget.
                    assert!(c.peak_resident_chunk_bytes <= budget + largest, "{c:?}");
                    assert!(c.resident_bytes <= budget, "blocks count too: {c:?}");
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn pooled_decode_fails_on_the_first_damaged_chunk_in_order() {
        for budget_chunks in [None, Some(4)] {
            let (dir, pager, chunks, _, _) = cold_chunks("pooled-damage", 24, budget_chunks);
            let path = dir.join("payloads");
            let mut bytes = std::fs::read(&path).expect("read");
            for damaged in [9, 5] {
                let ColdRef { offset, .. } = chunks[damaged].slot.cold();
                bytes[*offset as usize] ^= 0x10;
            }
            std::fs::write(&path, &bytes).expect("flip");
            let refs: Vec<&SealedChunk> = chunks.iter().collect();
            let err = decode_on_pool(&refs, 2, &pager).expect_err("a damaged chunk is an error");
            let offset = chunks[5].slot.cold().offset;
            assert_eq!(
                err.to_string(),
                format!("corrupt segment 0 chunk at offset {offset}: chunk checksum mismatch"),
                "{budget_chunks:?}"
            );
            assert_eq!(pager.decode_count(), 5, "{budget_chunks:?}: the chunks before it");
            if budget_chunks.is_none() {
                assert!(chunks[..5].iter().all(|c| c.cached().is_some()));
            }
            assert!(chunks[5..].iter().all(|c| c.cached().is_none()), "{budget_chunks:?}");
            assert_eq!(pager.counters().resident_chunk_bytes, pager_resident(&chunks));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The compressed bytes the chunks' slots hold: all a pager should
    /// count once a failed wave has given its reservation back.
    fn pager_resident(chunks: &[SealedChunk]) -> u64 {
        chunks.iter().filter(|c| !c.slot.is_empty()).map(|c| c.slot.page_len()).sum()
    }

    #[test]
    fn decode_counter_counts_once_per_chunk() {
        let (dir, pager, chunks, expected, _) = cold_chunks("decode-count", 1, None);
        assert_eq!(chunks[0].decoded().expect("decode").timestamps, expected[0].0);
        assert_eq!(chunks[0].decoded().expect("cached").values, expected[0].1);
        assert_eq!(pager.decode_count(), 1, "second access hits the cache");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
