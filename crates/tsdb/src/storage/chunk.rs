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
//! A reader decodes a chunk at exactly one site, [`SealedChunk::decoded`]
//! — or, for a scan with many undecoded chunks, [`decode_on_pool`], which
//! runs the same fault, check and decode on the worker pool — and every
//! decode is counted on the store's pager (surfaced as
//! `Tsdb::decode_count`), which is how tests *prove* scans are lazy: a
//! time-filtered query must only ever decode chunks whose `[min_ts,
//! max_ts]` spans overlap the query range. A chunk that fails to page in,
//! fails its checksum or fails to decode is an error at that site, never
//! fewer points.

use std::sync::Arc;

use explainit_sync::{pool, LockClass, Mutex, OnceLock};

use super::pager::{ColdRef, PageSlot, Pager, Reservation};
use super::StorageError;

/// The per-chunk decode cache. Its init only wraps points decoded
/// beforehand, so nothing waits on I/O inside it; the rank sits below
/// [`explainit_sync::IO_LOCK_RANK_THRESHOLD`] all the same.
static CHUNK_DECODED: LockClass = LockClass::new("tsdb.chunk.decoded", 50);

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

/// A chunk's decoded points, whose memory is accounted against the store's
/// page budget for as long as any `Arc` keeps it alive. Clones of a series
/// share one block; the accounting releases exactly once, when the last
/// reference drops.
#[derive(Debug)]
pub struct DecodedBlock {
    points: (Vec<i64>, Vec<f64>),
    pager: Arc<Pager>,
    cost: u64,
}

impl DecodedBlock {
    /// Wraps decoded points, charging their footprint to `pager` until the
    /// last reference drops.
    fn new(points: (Vec<i64>, Vec<f64>), pager: Arc<Pager>) -> Arc<Self> {
        // 16 bytes per point: one i64 timestamp + one f64 value.
        let cost = points.0.len() as u64 * 16;
        pager.cache_added(cost);
        Arc::new(DecodedBlock { points, pager, cost })
    }

    /// The decoded parallel timestamp/value vectors.
    pub fn points(&self) -> &(Vec<i64>, Vec<f64>) {
        &self.points
    }
}

impl Drop for DecodedBlock {
    fn drop(&mut self) {
        self.pager.cache_removed(self.cost);
    }
}

/// A compressed chunk held by a sealed series, with a write-once decode
/// cache. The cache gives decoded slices a stable address behind `&self`,
/// which is what lets `Tsdb::scan_parts*` hand borrowed [`crate::SeriesSlice`]
/// partition handles straight out of compressed storage.
///
/// The compressed bytes themselves live in a [`PageSlot`]: resident and
/// pinned for chunks sealed in this process, demand-paged (Cold → Paged,
/// with clock eviction back to Cold) for chunks recovered from segment
/// files.
#[derive(Debug, Clone)]
pub struct SealedChunk {
    /// Pruning metadata (also used to maintain the sealed-tier ordering
    /// invariant without touching the payload).
    pub meta: ChunkMeta,
    slot: Arc<PageSlot>,
    /// Behind an `Arc` so series clones share one decode (and its budget
    /// accounting).
    decoded: OnceLock<Arc<DecodedBlock>>,
    pager: Arc<Pager>,
}

impl SealedChunk {
    /// Wraps a freshly encoded chunk whose bytes have no on-disk home yet:
    /// the slot is pinned resident until the chunk reaches a segment file
    /// and the store reopens.
    pub fn new(chunk: EncodedChunk, pager: Arc<Pager>) -> Self {
        SealedChunk {
            meta: chunk.meta,
            slot: pager.slot_resident(chunk.bytes),
            decoded: OnceLock::new(&CHUNK_DECODED),
            pager,
        }
    }

    /// A chunk recovered from a segment file, starting Cold: only `meta`
    /// is resident; the compressed bytes fault in on first touch.
    pub fn cold(meta: ChunkMeta, cold: ColdRef, pager: Arc<Pager>) -> Self {
        SealedChunk {
            meta,
            slot: pager.slot_cold(cold),
            decoded: OnceLock::new(&CHUNK_DECODED),
            pager,
        }
    }

    /// True when the chunk's time span intersects the inclusive `[lo, hi]`
    /// range — the pruning test scans apply before any decode.
    pub fn overlaps(&self, lo: i64, hi: i64) -> bool {
        self.meta.max_ts >= lo && self.meta.min_ts <= hi
    }

    /// The decoded points, faulting in (and verifying) the compressed
    /// bytes and decoding — counting the decode — on first access. A chunk
    /// that cannot be paged in, fails its checksum or does not decode is
    /// an error, and stays undecoded.
    pub fn decoded(&self) -> Result<&(Vec<i64>, Vec<f64>), StorageError> {
        if let Some(block) = self.decoded.get() {
            return Ok(block.points());
        }
        let bytes = self.slot.bytes()?;
        let count = self.meta.count as usize;
        let mut points = (Vec::with_capacity(count), Vec::with_capacity(count));
        decode_into(&bytes, count, &mut points)?;
        Ok(self.keep(points))
    }

    /// True once the decode cache holds the points.
    pub fn is_decoded(&self) -> bool {
        self.decoded.get().is_some()
    }

    /// Makes `points` the decode cache unless a racer's decode landed
    /// first, counting the decode that lands.
    fn keep(&self, points: (Vec<i64>, Vec<f64>)) -> &(Vec<i64>, Vec<f64>) {
        self.decoded
            .get_or_init(|| {
                self.pager.note_decode();
                DecodedBlock::new(points, Arc::clone(&self.pager))
            })
            .points()
    }

    /// The segment id a Cold-capable chunk pages from, if any (pinned
    /// chunks have none — their bytes never came from a segment file).
    pub fn segment_id(&self) -> Option<u64> {
        self.slot.segment_id()
    }

    /// The chunk in segment-writer form, paging the bytes in if cold.
    pub fn encoded(&self) -> Result<EncodedChunk, StorageError> {
        Ok(EncodedChunk { meta: self.meta, bytes: self.slot.bytes()? })
    }

    /// Drops the decode cache (this handle's reference to it), returning
    /// whether one was populated. Used by `Tsdb::evict_to_budget` to shed
    /// accounted caches at mutation points.
    pub fn clear_decoded(&mut self) -> bool {
        let had = self.decoded.get().is_some();
        self.decoded = OnceLock::new(&CHUNK_DECODED);
        had
    }
}

/// Where a pooled decode job's compressed bytes come from.
enum Page {
    /// Already resident (pinned, or paged in before the scan).
    Resident(Arc<Vec<u8>>),
    /// Cold: the buffer the worker reads the page into.
    Cold(Vec<u8>),
}

/// One chunk's fault, check and decode on the pool. The caller allocates
/// every buffer that outlives the job — the page the slot keeps and the
/// vectors the decode cache keeps — and the worker only fills them:
/// memory a worker thread allocates lands in its own allocator arena and
/// would stay there, growing the process, after the job is gone.
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
                let cold = chunk.slot.cold().ok_or_else(|| {
                    StorageError::corrupt("chunk", "pinned chunk lost its resident bytes")
                })?;
                cold.read_into(buf)?;
                &buf[..]
            }
        };
        decode_into(bytes, chunk.meta.count as usize, points)?;
        Ok(self)
    }

    /// The caller's half: the page leaves the wave's reservation and, if
    /// it was read, becomes resident (a counted fault, with the clock
    /// enforcing the budget); the points become the decode cache.
    fn finish(self, held: &mut Reservation<'_>) {
        held.release(self.chunk.slot.page_len());
        if let Page::Cold(buf) = self.page {
            self.chunk.slot.install(buf);
        }
        self.chunk.keep(self.points);
    }
}

/// Faults, verifies and decodes `chunks` on `workers` threads of the
/// worker pool, exactly as [`SealedChunk::decoded`] would one by one: the
/// same bytes, the same counts, the first error in chunk order.
///
/// Chunks go in waves of at most one page budget of compressed bytes (one
/// wave when unbounded; a chunk larger than the budget goes alone). A
/// wave's pages are charged to the pager from before their buffers exist
/// until each is installed, and the clock first evicts to make room for
/// them, so resident pages and pages in flight together stay within the
/// budget as on the serial path. Each wave's pages become resident in
/// chunk order on the calling thread.
pub(crate) fn decode_on_pool(
    chunks: &[&SealedChunk],
    workers: usize,
    pager: &Pager,
) -> Result<(), StorageError> {
    let wave_bytes = pager.budget().unwrap_or(u64::MAX);
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
            job?.finish(&mut held);
        }
        rest = tail;
    }
    Ok(())
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

/// Delta-of-delta bucket tags, from most to least common:
/// `0` (dod = 0), `10` + 7 bits, `110` + 9 bits, `1110` + 12 bits,
/// `1111` + the raw 64-bit *delta* (not dod — the escape must cover a
/// delta-of-delta range wider than 64 bits, since deltas span `1..=2^64-1`).
const DOD_BUCKETS: [(i128, i128, u64, u32); 3] =
    [(-63, 64, 0b10, 2), (-255, 256, 0b110, 3), (-2047, 2048, 0b1110, 4)];

/// Encodes one sorted run into the chunk bit stream.
pub fn encode(ts: &[i64], vals: &[f64]) -> Vec<u8> {
    let mut w = BitWriter::new();
    // Timestamps: raw first value, then bucketed delta-of-delta with the
    // previous delta starting at zero (so the first delta itself goes
    // through the buckets — small scrape intervals stay cheap).
    w.write_bits(ts[0] as u64, 64);
    let mut prev_delta: u64 = 0;
    for pair in ts.windows(2) {
        // Strictly increasing timestamps: the difference is 1..=2^64-1 and
        // fits u64 exactly even across the full i64 domain.
        let delta = (pair[1] as i128 - pair[0] as i128) as u64;
        let dod = delta as i128 - prev_delta as i128;
        if dod == 0 {
            w.write_bits(0, 1);
        } else {
            let mut written = false;
            for &(lo, hi, tag, tag_bits) in &DOD_BUCKETS {
                if dod >= lo && dod <= hi {
                    let payload_bits = match tag_bits {
                        2 => 7,
                        3 => 9,
                        _ => 12,
                    };
                    w.write_bits(tag, tag_bits as usize);
                    w.write_bits((dod - lo) as u64, payload_bits);
                    written = true;
                    break;
                }
            }
            if !written {
                w.write_bits(0b1111, 4);
                w.write_bits(delta, 64);
            }
        }
        prev_delta = delta;
    }
    // Values: raw first bit pattern, then Gorilla XOR with a sticky
    // leading/length window.
    w.write_bits(vals[0].to_bits(), 64);
    let mut prev_bits = vals[0].to_bits();
    let mut win_lead: u32 = u32::MAX; // no window yet
    let mut win_len: u32 = 0;
    for &v in &vals[1..] {
        let bits = v.to_bits();
        let xor = bits ^ prev_bits;
        prev_bits = bits;
        if xor == 0 {
            w.write_bits(0, 1);
            continue;
        }
        let lead = xor.leading_zeros().min(31); // 5-bit field
        let trail = xor.trailing_zeros();
        let len = 64 - lead - trail; // >= 1 because xor != 0
        if win_lead != u32::MAX && lead >= win_lead && 64 - trail <= win_lead + win_len {
            // Fits the previous meaningful window: control '10' + bits.
            w.write_bits(0b10, 2);
            w.write_bits(xor >> (64 - win_lead - win_len), win_len as usize);
        } else {
            // New window: control '11' + 5-bit leading + 6-bit (len - 1).
            w.write_bits(0b11, 2);
            w.write_bits(lead as u64, 5);
            w.write_bits((len - 1) as u64, 6);
            w.write_bits(xor >> trail, len as usize);
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

/// [`decode`] into vectors the caller allocated: it pushes `count` points
/// onto `points` (empty, with room for `count`) and allocates nothing
/// itself — what lets a pool worker decode into caller-owned memory.
fn decode_into(
    bytes: &[u8],
    count: usize,
    (ts, vals): &mut (Vec<i64>, Vec<f64>),
) -> Result<(), StorageError> {
    let corrupt = || StorageError::corrupt("chunk", "bit stream shorter than its point count");
    if count == 0 {
        return Err(StorageError::corrupt("chunk", "zero-point chunk"));
    }
    debug_assert!(ts.is_empty() && vals.is_empty());
    let mut r = BitReader::new(bytes);
    let mut prev = r.read_bits(64).ok_or_else(corrupt)? as i64;
    ts.push(prev);
    let mut prev_delta: u64 = 0;
    for _ in 1..count {
        let delta = if r.read_bits(1).ok_or_else(corrupt)? == 0 {
            prev_delta
        } else if r.read_bits(1).ok_or_else(corrupt)? == 0 {
            apply_dod(prev_delta, r.read_bits(7).ok_or_else(corrupt)? as i128 - 63)
        } else if r.read_bits(1).ok_or_else(corrupt)? == 0 {
            apply_dod(prev_delta, r.read_bits(9).ok_or_else(corrupt)? as i128 - 255)
        } else if r.read_bits(1).ok_or_else(corrupt)? == 0 {
            apply_dod(prev_delta, r.read_bits(12).ok_or_else(corrupt)? as i128 - 2047)
        } else {
            r.read_bits(64).ok_or_else(corrupt)?
        };
        let next = (prev as i128)
            .checked_add(delta as i128)
            .filter(|&t| t > prev as i128 && t <= i64::MAX as i128);
        match next {
            Some(t) => {
                prev = t as i64;
                ts.push(prev);
            }
            None => return Err(StorageError::corrupt("chunk", "non-increasing timestamp")),
        }
        prev_delta = delta;
    }
    let first = r.read_bits(64).ok_or_else(corrupt)?;
    vals.push(f64::from_bits(first));
    let mut prev_bits = first;
    let mut win_lead: u32 = 0;
    let mut win_len: u32 = 0;
    for _ in 1..count {
        let bits = if r.read_bits(1).ok_or_else(corrupt)? == 0 {
            prev_bits
        } else if r.read_bits(1).ok_or_else(corrupt)? == 0 {
            if win_len == 0 {
                return Err(StorageError::corrupt("chunk", "window reuse before any window"));
            }
            let payload = r.read_bits(win_len as usize).ok_or_else(corrupt)?;
            prev_bits ^ (payload << (64 - win_lead - win_len))
        } else {
            let lead = r.read_bits(5).ok_or_else(corrupt)? as u32;
            let len = r.read_bits(6).ok_or_else(corrupt)? as u32 + 1;
            if lead + len > 64 {
                return Err(StorageError::corrupt("chunk", "xor window exceeds 64 bits"));
            }
            win_lead = lead;
            win_len = len;
            let payload = r.read_bits(len as usize).ok_or_else(corrupt)?;
            prev_bits ^ (payload << (64 - lead - len))
        };
        vals.push(f64::from_bits(bits));
        prev_bits = bits;
    }
    Ok(())
}

fn apply_dod(prev_delta: u64, dod: i128) -> u64 {
    // Wrapping on purpose: a corrupt stream may push outside the valid
    // delta range; the decode loop's monotonicity check rejects the result.
    (prev_delta as i128).wrapping_add(dod) as u64
}

/// Widest read or write done in one step: after a shift of up to 7 bits to
/// the stream's bit offset, a 64-bit word still holds 57 whole bits.
const WORD_BITS: usize = 56;

/// MSB-first bit stream writer. Bits gather in a 64-bit accumulator and
/// leave it as whole bytes; [`BitWriter::finish`] zero-pads the last
/// partial byte.
struct BitWriter {
    out: Vec<u8>,
    /// Pending bits in the low `pending` bits (higher bits are already
    /// emitted and ignored).
    acc: u64,
    /// Always below 8 between calls.
    pending: usize,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter { out: Vec::new(), acc: 0, pending: 0 }
    }

    fn write_bits(&mut self, value: u64, n: usize) {
        debug_assert!(n <= 64);
        debug_assert!(n == 64 || value < (1u64 << n));
        if n > WORD_BITS {
            self.write_bits(value >> 32, n - 32);
            self.write_bits(value & 0xFFFF_FFFF, 32);
            return;
        }
        // pending < 8 and n <= 56: every pending bit survives the shift.
        self.acc = (self.acc << n) | value;
        self.pending += n;
        while self.pending >= 8 {
            self.pending -= 8;
            self.out.push((self.acc >> self.pending) as u8);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.pending > 0 {
            self.out.push((self.acc << (8 - self.pending)) as u8);
        }
        self.out
    }
}

/// MSB-first bit stream reader. Each read is one big-endian 8-byte load
/// at the byte holding the cursor (zero-padded past the end of the
/// stream), shifted left by the cursor's bit offset, keeping the top `n`
/// bits; a read wider than [`WORD_BITS`] takes two. `None` past the end.
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize, // bit position
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    fn read_bits(&mut self, n: usize) -> Option<u64> {
        debug_assert!(n <= 64);
        if self.pos + n > self.bytes.len() * 8 {
            return None;
        }
        if n > WORD_BITS {
            let hi = self.read_bits(n - 32)?;
            return Some((hi << 32) | self.read_bits(32)?);
        }
        let rest = &self.bytes[self.pos / 8..];
        let word = match rest.first_chunk::<8>() {
            Some(word) => u64::from_be_bytes(*word),
            None => {
                let mut word = [0u8; 8];
                word[..rest.len()].copy_from_slice(rest);
                u64::from_be_bytes(word)
            }
        };
        // `checked_shr` is `None` only for n = 0, whose value is 0.
        let value = (word << (self.pos % 8)).checked_shr(64 - n as u32).unwrap_or(0);
        self.pos += n;
        Some(value)
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

    /// Bits `[start, start + n)` of an MSB-first stream, one bit at a time.
    fn reference_bits(bytes: &[u8], start: usize, n: usize) -> u64 {
        (start..start + n).fold(0, |v, i| (v << 1) | u64::from((bytes[i / 8] >> (7 - i % 8)) & 1))
    }

    #[test]
    fn random_width_writes_read_back() {
        let mut s = 0x9E37_79B9_7F4A_7C15;
        let writes: Vec<(u64, usize)> = (0..10_000)
            .map(|_| {
                let width = (xorshift(&mut s) % 65) as usize;
                let value = xorshift(&mut s).checked_shr(64 - width as u32).unwrap_or(0);
                (value, width)
            })
            .collect();
        let mut w = BitWriter::new();
        for &(value, width) in &writes {
            w.write_bits(value, width);
        }
        let bytes = w.finish();
        let total: usize = writes.iter().map(|&(_, width)| width).sum();
        assert_eq!(bytes.len(), total.div_ceil(8));
        let mut r = BitReader::new(&bytes);
        let mut at = 0;
        for (i, &(value, width)) in writes.iter().enumerate() {
            assert_eq!(reference_bits(&bytes, at, width), value, "write {i} on the wire");
            assert_eq!(r.read_bits(width), Some(value), "read {i}, width {width}");
            at += width;
        }
        assert_eq!(r.read_bits(bytes.len() * 8 - total), Some(0), "zero padding");
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn reads_end_on_the_last_bit_and_not_one_past_it() {
        let mut s = 0x2545_F491_4F6C_DD1D;
        for offset in 0..8usize {
            for width in [1, 56, 57, 64] {
                // Every stream length from one that cuts the read short to
                // one that leaves a byte to spare.
                for len in 0..=(offset + width).div_ceil(8) + 1 {
                    let bytes: Vec<u8> = (0..len).map(|_| xorshift(&mut s) as u8).collect();
                    let mut r = BitReader::new(&bytes);
                    if offset > len * 8 {
                        assert_eq!(r.read_bits(offset), None);
                        continue;
                    }
                    assert_eq!(r.read_bits(offset), Some(reference_bits(&bytes, 0, offset)));
                    let end = offset + width;
                    let case = format!("offset {offset}, width {width}, {len} bytes");
                    if end > len * 8 {
                        assert_eq!(r.read_bits(width), None, "{case}");
                        continue;
                    }
                    let value = reference_bits(&bytes, offset, width);
                    assert_eq!(r.read_bits(width), Some(value), "{case}");
                    // The rest of the stream (nothing when the read itself
                    // ended on the last bit), then one bit past it.
                    let rest = len * 8 - end;
                    assert_eq!(
                        r.read_bits(rest),
                        Some(reference_bits(&bytes, end, rest)),
                        "{case}"
                    );
                    assert_eq!(r.read_bits(1), None, "{case}: one bit past the end");
                    assert_eq!(r.read_bits(0), Some(0), "{case}");
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
                SealedChunk::cold(meta, cold, Arc::clone(&pager))
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
            decode_on_pool(&refs, 2, &pager).expect("decode");
            for (chunk, points) in chunks.iter().zip(&expected) {
                assert!(chunk.is_decoded(), "{budget_chunks:?}");
                assert_eq!(chunk.decoded().expect("cached"), points, "{budget_chunks:?}");
            }
            let c = pager.counters();
            assert_eq!(c.page_faults, 24, "{budget_chunks:?}: one fault per chunk");
            assert_eq!(pager.decode_count(), 24, "{budget_chunks:?}: one decode per chunk");
            if let Some(budget) = pager.budget() {
                assert!(c.evictions > 0, "{c:?}");
                // A wave is charged while in flight, after room was made
                // for it: a full-budget wave beside a full budget of
                // resident pages would show as twice the budget.
                assert!(c.peak_resident_chunk_bytes <= budget + largest, "{c:?}");
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
                let ColdRef { offset, .. } = chunks[damaged].slot.cold().expect("cold");
                bytes[*offset as usize] ^= 0x10;
            }
            std::fs::write(&path, &bytes).expect("flip");
            let refs: Vec<&SealedChunk> = chunks.iter().collect();
            let err = decode_on_pool(&refs, 2, &pager).expect_err("a damaged chunk is an error");
            let offset = chunks[5].slot.cold().expect("cold").offset;
            assert_eq!(
                err.to_string(),
                format!("corrupt segment 0 chunk at offset {offset}: chunk checksum mismatch"),
                "{budget_chunks:?}"
            );
            assert!(chunks[..5].iter().all(SealedChunk::is_decoded), "{budget_chunks:?}");
            assert!(!chunks[5].is_decoded(), "{budget_chunks:?}");
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
        let pager = Pager::unbounded();
        let chunks = encode_run(&[0, 60, 120], &[1.0, 2.0, 3.0]);
        let sealed = SealedChunk::new(chunks[0].clone(), Arc::clone(&pager));
        assert_eq!(sealed.decoded().expect("decode").0, vec![0, 60, 120]);
        assert_eq!(sealed.decoded().expect("cached").1, vec![1.0, 2.0, 3.0]);
        assert_eq!(pager.decode_count(), 1, "second access hits the cache");
    }
}
