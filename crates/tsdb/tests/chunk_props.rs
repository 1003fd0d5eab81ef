//! Property tests pinning the chunk codec: every byte-level encoder must
//! round-trip bit-exactly against the in-memory reference for arbitrary
//! sorted runs — including i64-extreme timestamps and every f64 bit
//! pattern (NaN payloads, ±0, infinities, subnormals) — and compaction's
//! re-chunking must keep every point of such runs, bit for bit.

use std::sync::Arc;

use explainit_tsdb::storage::chunk::{decode, encode, encode_run, EncodedChunk, CHUNK_MAX_POINTS};
use explainit_tsdb::storage::compact::rechunk;
use explainit_tsdb::storage::segment::write_segment;
use explainit_tsdb::storage::wal::{Wal, WalRecord};
use explainit_tsdb::storage::{crc32, StorageError};
use explainit_tsdb::{MetricFilter, SeriesKey, Tsdb};
use proptest::prelude::*;

/// The only two ways a decode of hostile bytes may end (ROADMAP aim 3):
/// points, or a typed `Corrupt` — never a panic, never another error.
fn decodes_or_is_corrupt(bytes: &[u8], count: usize) -> bool {
    matches!(decode(bytes, count), Ok(_) | Err(StorageError::Corrupt { .. }))
}

fn assert_round_trip(ts: &[i64], vals: &[f64]) -> Result<(), TestCaseError> {
    let bytes = encode(ts, vals);
    let (dts, dvs) = decode(&bytes, ts.len()).expect("self-encoded chunk decodes");
    prop_assert_eq!(&dts[..], ts);
    prop_assert_eq!(dvs.len(), vals.len());
    for (a, b) in dvs.iter().zip(vals) {
        prop_assert_eq!(a.to_bits(), b.to_bits(), "bit-exact value round trip");
    }
    Ok(())
}

proptest! {
    #[test]
    fn sorted_runs_round_trip(pts in proptest::collection::btree_map(
        any::<i64>(), -1.0e308f64..1.0e308, 1..200usize)) {
        let ts: Vec<i64> = pts.keys().copied().collect();
        let vals: Vec<f64> = pts.values().copied().collect();
        assert_round_trip(&ts, &vals)?;
    }

    #[test]
    fn every_f64_bit_pattern_round_trips(pts in proptest::collection::btree_map(
        -1_000_000i64..1_000_000, any::<u64>(), 1..100usize)) {
        // Values drawn from raw u64 bit patterns: NaNs with arbitrary
        // payloads, infinities, subnormals, -0.0 — all must survive.
        let ts: Vec<i64> = pts.keys().copied().collect();
        let vals: Vec<f64> = pts.values().map(|&b| f64::from_bits(b)).collect();
        assert_round_trip(&ts, &vals)?;
    }

    #[test]
    fn grid_timestamps_round_trip(start in -1_000_000i64..1_000_000,
                                  step in 1i64..100_000,
                                  n in 1usize..300,
                                  v0 in -100.0f64..100.0) {
        let ts: Vec<i64> = (0..n as i64).map(|i| start + i * step).collect();
        let vals: Vec<f64> = (0..n).map(|i| v0 + i as f64).collect();
        assert_round_trip(&ts, &vals)?;
    }

    #[test]
    fn truncated_streams_error_never_panic(pts in proptest::collection::btree_map(
        0i64..100_000, -100.0f64..100.0, 2..50usize), frac in 0usize..100) {
        let ts: Vec<i64> = pts.keys().copied().collect();
        let vals: Vec<f64> = pts.values().copied().collect();
        let bytes = encode(&ts, &vals);
        let cut = bytes.len() * frac / 100;
        if cut < bytes.len() {
            // Not enough bytes for the advertised count: typed error.
            prop_assert!(decode(&bytes[..cut], ts.len()).is_err());
        }
    }

    #[test]
    fn a_flipped_bit_decodes_or_is_corrupt(pts in proptest::collection::btree_map(
        any::<i64>(), any::<u64>(), 1..200usize), bit in any::<u64>()) {
        let ts: Vec<i64> = pts.keys().copied().collect();
        let vals: Vec<f64> = pts.values().map(|&b| f64::from_bits(b)).collect();
        let mut bytes = encode(&ts, &vals);
        let bit = (bit % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 0x80 >> (bit % 8);
        prop_assert!(decodes_or_is_corrupt(&bytes, ts.len()), "bit={}", bit);
    }

    #[test]
    fn encode_run_split_preserves_order_and_meta(n in 1usize..5000, step in 1i64..1000) {
        let ts: Vec<i64> = (0..n as i64).map(|i| i * step).collect();
        let vals: Vec<f64> = (0..n).map(|i| (i % 13) as f64).collect();
        let chunks = encode_run(&ts, &vals);
        prop_assert_eq!(chunks.len(), n.div_ceil(CHUNK_MAX_POINTS));
        let total: u32 = chunks.iter().map(|c| c.meta.count).sum();
        prop_assert_eq!(total as usize, n);
        // Chunk metas tile the run: ascending, disjoint, tight bounds.
        prop_assert!(chunks.windows(2).all(|w| w[0].meta.max_ts < w[1].meta.min_ts));
        prop_assert_eq!(chunks[0].meta.min_ts, ts[0]);
        prop_assert_eq!(chunks[chunks.len() - 1].meta.max_ts, ts[n - 1]);
        // And each piece decodes back to its slice of the run.
        let mut at = 0usize;
        for c in &chunks {
            let (dts, dvs) = decode(&c.bytes, c.meta.count as usize).expect("decode piece");
            prop_assert_eq!(&dts[..], &ts[at..at + dts.len()]);
            prop_assert_eq!(&dvs[..], &vals[at..at + dvs.len()]);
            at += dts.len();
        }
    }
}

/// `n` points whose strictly increasing timestamps start at `i64::MIN` or
/// near zero, take raw-delta escapes and may end at `i64::MAX`, and whose
/// values mix NaN payloads of either sign, −0.0, infinities, subnormals,
/// repeats, random bit patterns and small steps.
fn hostile_run(n: usize, seed: u64) -> (Vec<i64>, Vec<f64>) {
    let mut s = seed | 1;
    let mut t = if seed & 1 == 0 { i64::MIN } else { (seed >> 40) as i64 - (1 << 23) };
    let mut v = 0.0f64;
    let (mut ts, mut vals) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        let r = xorshift(&mut s);
        v = match r % 8 {
            0 => f64::from_bits(0x7FF0_0000_0000_0000 | (r >> 12) | 1 | (r << 63)),
            1 => -0.0,
            2 => v,
            3 => [f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE / 2.0][(r >> 8) as usize % 3],
            4 => f64::from_bits(r),
            _ => v + ((r >> 11) as f64 / (1u64 << 53) as f64 - 0.5),
        };
        ts.push(t);
        vals.push(v);
        t += match (r >> 3) % 16 {
            0 => 1 + (r >> 24) as i64,
            1..=3 => 1 + ((r >> 8) % 3000) as i64,
            _ => 60,
        };
    }
    if seed & 2 == 0 {
        if let Some(last) = ts.last_mut() {
            *last = i64::MAX;
        }
    }
    (ts, vals)
}

proptest! {
    /// Rounds of chunks, as flushes seal them, re-chunk without loss: the
    /// output decodes to the input points bit for bit, no chunk exceeds
    /// the split, no two adjacent chunks could have merged, and a chunk
    /// left alone keeps its bytes.
    #[test]
    fn rechunk_keeps_every_point_and_packs_whole_chunks(
        seed in any::<u64>(),
        rounds in proptest::collection::vec((0u8..3, 1usize..700), 1..10usize),
    ) {
        let sizes: Vec<usize> =
            rounds.iter().map(|&(kind, n)| if kind == 0 { n + 1900 } else { n }).collect();
        let (ts, vals) = hostile_run(sizes.iter().sum(), seed);
        let mut input = Vec::new();
        let mut at = 0;
        for n in sizes {
            input.extend(encode_run(&ts[at..at + n], &vals[at..at + n]));
            at += n;
        }
        let output = rechunk(input.clone()).expect("valid chunks re-chunk");
        let (mut got_ts, mut got_bits) = (Vec::new(), Vec::new());
        for chunk in &output {
            prop_assert!(chunk.meta.count as usize <= CHUNK_MAX_POINTS);
            let (cts, cvs) = decode(&chunk.bytes, chunk.meta.count as usize).expect("decodes");
            prop_assert_eq!((cts[0], cts[cts.len() - 1]), (chunk.meta.min_ts, chunk.meta.max_ts));
            got_ts.extend(cts);
            got_bits.extend(cvs.iter().map(|v| v.to_bits()));
        }
        prop_assert_eq!(&got_ts, &ts);
        prop_assert_eq!(got_bits, vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        for pair in output.windows(2) {
            prop_assert!(
                (pair[0].meta.count + pair[1].meta.count) as usize > CHUNK_MAX_POINTS,
                "{} and {} points could have merged", pair[0].meta.count, pair[1].meta.count
            );
        }
        // A merged chunk spans two or more inputs, so a chunk with an
        // input's meta was left alone.
        for chunk in &output {
            if let Some(original) = input.iter().find(|c| c.meta == chunk.meta) {
                prop_assert!(Arc::ptr_eq(&original.bytes, &chunk.bytes), "lone chunk re-encoded");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The decoder against the reader it replaced
// ---------------------------------------------------------------------------

/// MSB-first bit reader that refuses every read past the end: one
/// big-endian 8-byte load per read of up to 56 bits, two for a wider one.
/// The store's decoder before the single-load one, kept as its oracle.
struct ReferenceReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl ReferenceReader<'_> {
    fn read_bits(&mut self, n: usize) -> Option<u64> {
        if self.pos + n > self.bytes.len() * 8 {
            return None;
        }
        if n > 56 {
            let hi = self.read_bits(n - 32)?;
            return Some((hi << 32) | self.read_bits(32)?);
        }
        let rest = &self.bytes[self.pos / 8..];
        let mut word = [0u8; 8];
        let take = rest.len().min(8);
        word[..take].copy_from_slice(&rest[..take]);
        let value = (u64::from_be_bytes(word) << (self.pos % 8)).checked_shr(64 - n as u32);
        self.pos += n;
        Some(value.unwrap_or(0))
    }
}

/// The chunk decoder as it read the stream before the single-load decoder:
/// every field through [`ReferenceReader`], every read checked.
fn reference_decode(bytes: &[u8], count: usize) -> Result<(Vec<i64>, Vec<f64>), StorageError> {
    let corrupt =
        |detail: &str| StorageError::Corrupt { what: "chunk".into(), detail: detail.into() };
    let short = || corrupt("bit stream shorter than its point count");
    if count == 0 {
        return Err(corrupt("zero-point chunk"));
    }
    let apply_dod = |prev_delta: u64, dod: i128| (prev_delta as i128).wrapping_add(dod) as u64;
    let mut r = ReferenceReader { bytes, pos: 0 };
    let (mut ts, mut vals) = (Vec::with_capacity(count), Vec::with_capacity(count));
    let mut prev = r.read_bits(64).ok_or_else(short)? as i64;
    ts.push(prev);
    let mut prev_delta: u64 = 0;
    for _ in 1..count {
        let delta = if r.read_bits(1).ok_or_else(short)? == 0 {
            prev_delta
        } else if r.read_bits(1).ok_or_else(short)? == 0 {
            apply_dod(prev_delta, r.read_bits(7).ok_or_else(short)? as i128 - 63)
        } else if r.read_bits(1).ok_or_else(short)? == 0 {
            apply_dod(prev_delta, r.read_bits(9).ok_or_else(short)? as i128 - 255)
        } else if r.read_bits(1).ok_or_else(short)? == 0 {
            apply_dod(prev_delta, r.read_bits(12).ok_or_else(short)? as i128 - 2047)
        } else {
            r.read_bits(64).ok_or_else(short)?
        };
        let next = (prev as i128)
            .checked_add(delta as i128)
            .filter(|&t| t > prev as i128 && t <= i64::MAX as i128);
        match next {
            Some(t) => {
                prev = t as i64;
                ts.push(prev);
            }
            None => return Err(corrupt("non-increasing timestamp")),
        }
        prev_delta = delta;
    }
    let first = r.read_bits(64).ok_or_else(short)?;
    vals.push(f64::from_bits(first));
    let mut prev_bits = first;
    let mut win_lead: u32 = 0;
    let mut win_len: u32 = 0;
    for _ in 1..count {
        let bits = if r.read_bits(1).ok_or_else(short)? == 0 {
            prev_bits
        } else if r.read_bits(1).ok_or_else(short)? == 0 {
            if win_len == 0 {
                return Err(corrupt("window reuse before any window"));
            }
            let payload = r.read_bits(win_len as usize).ok_or_else(short)?;
            prev_bits ^ (payload << (64 - win_lead - win_len))
        } else {
            let lead = r.read_bits(5).ok_or_else(short)? as u32;
            let len = r.read_bits(6).ok_or_else(short)? as u32 + 1;
            if lead + len > 64 {
                return Err(corrupt("xor window exceeds 64 bits"));
            }
            win_lead = lead;
            win_len = len;
            let payload = r.read_bits(len as usize).ok_or_else(short)?;
            prev_bits ^ (payload << (64 - lead - len))
        };
        vals.push(f64::from_bits(bits));
        prev_bits = bits;
    }
    Ok((ts, vals))
}

/// A decode's outcome in a comparable form: the points by their bits, or
/// the error's variant and message.
fn outcome(
    decoded: Result<(Vec<i64>, Vec<f64>), StorageError>,
) -> Result<(Vec<i64>, Vec<u64>), String> {
    match decoded {
        Ok((ts, vals)) => Ok((ts, vals.iter().map(|v| v.to_bits()).collect())),
        Err(e @ StorageError::Corrupt { .. }) => Err(format!("Corrupt: {e}")),
        Err(e) => Err(format!("other: {e}")),
    }
}

/// The store's decoder and [`reference_decode`] agree on `bytes`, by the
/// bits of every point or by the error.
fn agrees_with_reference(bytes: &[u8], count: usize) -> Result<(), String> {
    let (got, want) = (outcome(decode(bytes, count)), outcome(reference_decode(bytes, count)));
    match got == want {
        true => Ok(()),
        false => Err(format!("{count} points over {} bytes: {got:?} vs {want:?}", bytes.len())),
    }
}

/// `n` values whose XORs mostly open or reuse windows 55 to 64 bits wide,
/// so a reused payload does not fit beside its control bits in one load,
/// nor does a new window's after its 13 header bits; one in eight repeats.
fn wide_windows(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    let mut bits = xorshift(&mut s);
    let (mut lead, mut len) = (0u32, 64u32);
    let mut vals = vec![f64::from_bits(bits)];
    for _ in 1..n {
        let r = xorshift(&mut s);
        if r.is_multiple_of(8) {
            vals.push(f64::from_bits(bits));
            continue;
        }
        if r % 8 < 4 {
            // A new window: both of its end bits set.
            len = 55 + (r >> 8) as u32 % 10;
            lead = (r >> 16) as u32 % (65 - len).min(32);
        }
        let mask = u64::MAX >> (64 - len) << (64 - lead - len);
        let ends = 1u64 << (63 - lead) | 1u64 << (64 - lead - len);
        let xor = match r % 8 < 4 {
            true => (xorshift(&mut s) & mask) | ends,
            // Inside the last window, so the encoder reuses it.
            false => (xorshift(&mut s) & mask).max(1u64 << (64 - lead - len)),
        };
        bits ^= xor;
        vals.push(f64::from_bits(bits));
    }
    vals
}

/// The corpus the decoder is held to the reference on: the pinned encoder
/// corpus (aligned grid, irregular deltas, i64 extremes, NaN payloads and
/// ±0, the 2048-point walk with raw escapes), wide XOR windows, and
/// hostile runs.
fn decoder_corpus() -> Vec<(Vec<i64>, Vec<f64>)> {
    let grid_ts: Vec<i64> = (0..500).map(|i| 1_600_000_000 + i * 60).collect();
    let grid_vals: Vec<f64> = (0..500).map(|i| (i % 7) as f64).collect();
    let nan_vals = vec![
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::from_bits(0x7ff4_dead_beef_cafe),
        f64::from_bits(0xfff8_0000_0000_0000),
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let extreme_ts = vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    let mut corpus = vec![
        (grid_ts, grid_vals),
        (
            vec![0, 1, 100, 101, 1_000_000, 1_000_060, i64::MAX / 2],
            vec![1.0, -1.0, 3.5e300, -3.5e-300, 0.1, 0.1, 7.0],
        ),
        (extreme_ts, vec![1.5; 7]),
        ((0..7).collect(), nan_vals),
        random_walk(CHUNK_MAX_POINTS, 0x9E37_79B9_7F4A_7C15),
    ];
    for seed in 1..=2u64 {
        let ts: Vec<i64> = (0..100).map(|i| i * 60).collect();
        corpus.push((ts, wide_windows(100, seed)));
        corpus.push(hostile_run(100, seed * 0x9E37_79B9));
    }
    corpus
}

/// Every stream the corpus encodes to decodes to the reference's points or
/// fails with its error, read for its point count, one fewer, one more and
/// none; so does every cut and every single bit flip of each stream but
/// the 2048-point walk's (16 KB), whose first 200 points stand in for it.
#[test]
fn decoder_matches_the_reference_reader_on_the_corpus_every_flip_and_every_cut() {
    let mut corpus = decoder_corpus();
    corpus.push(random_walk(200, 7));
    for (ts, vals) in corpus {
        let bytes = encode(&ts, &vals);
        let n = ts.len();
        for count in [n, n - 1, n + 1, 0] {
            agrees_with_reference(&bytes, count).unwrap_or_else(|e| panic!("intact: {e}"));
        }
        if n == CHUNK_MAX_POINTS {
            continue;
        }
        for cut in 0..bytes.len() {
            agrees_with_reference(&bytes[..cut], n).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        }
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 0x80 >> (bit % 8);
            agrees_with_reference(&flipped, n).unwrap_or_else(|e| panic!("bit {bit}: {e}"));
            flipped[bit / 8] ^= 0x80 >> (bit % 8);
        }
    }
}

/// Wide windows decode through the two-load paths, against the reference.
#[test]
fn windows_of_55_to_64_bits_round_trip() {
    for seed in 1..=16u64 {
        let vals = wide_windows(2000, seed);
        let ts: Vec<i64> = (0..2000).collect();
        assert_round_trip(&ts, &vals).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        agrees_with_reference(&encode(&ts, &vals), ts.len()).unwrap_or_else(|e| panic!("{e}"));
    }
}

proptest! {
    /// Arbitrary runs, then arbitrary damage — a cut, a few flipped bits, a
    /// wrong point count, or random bytes — decode as the reference does.
    #[test]
    fn decoder_matches_the_reference_reader(
        seed in any::<u64>(),
        n in 1usize..400,
        wide in any::<bool>(),
        damage in (0u8..5, any::<u64>(), proptest::collection::vec(any::<u64>(), 1..4)),
    ) {
        let (ts, mut vals) = hostile_run(n, seed);
        if wide {
            vals = wide_windows(n, seed);
        }
        let mut bytes = encode(&ts, &vals);
        let mut count = n;
        let (kind, at, bits) = damage;
        match kind {
            0 => bytes.truncate((at % (bytes.len() as u64 + 1)) as usize),
            1 => {
                for bit in &bits {
                    let bit = (bit % (bytes.len() as u64 * 8)) as usize;
                    bytes[bit / 8] ^= 0x80 >> (bit % 8);
                }
            }
            2 => count = (at % (2 * n as u64 + 2)) as usize,
            3 => {
                let random = bits.iter().flat_map(|b| b.to_be_bytes());
                bytes = random.take(1 + (at % 32) as usize).collect();
            }
            _ => {}
        }
        let agreed = agrees_with_reference(&bytes, count);
        prop_assert!(agreed.is_ok(), "{}", agreed.unwrap_err());
    }
}

// ---------------------------------------------------------------------------
// The encoder against the writer it replaced
// ---------------------------------------------------------------------------

/// Delta-of-delta buckets of [`reference_encode`]: `(lo, hi, tag, tag bits)`.
const REFERENCE_DOD_BUCKETS: [(i128, i128, u64, u32); 3] =
    [(-63, 64, 0b10, 2), (-255, 256, 0b110, 3), (-2047, 2048, 0b1110, 4)];

/// MSB-first bit writer whose 64-bit accumulator leaves a byte at a time:
/// the store's writer before the word-at-a-time one, kept as its oracle.
struct ReferenceWriter {
    out: Vec<u8>,
    acc: u64,
    pending: usize,
}

impl ReferenceWriter {
    fn write_bits(&mut self, value: u64, n: usize) {
        if n > 56 {
            self.write_bits(value >> 32, n - 32);
            self.write_bits(value & 0xFFFF_FFFF, 32);
            return;
        }
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

/// The chunk encoder as it wrote the stream before the word-at-a-time
/// writer: every tag and payload a write of its own, the buckets a loop.
fn reference_encode(ts: &[i64], vals: &[f64]) -> Vec<u8> {
    let mut w = ReferenceWriter { out: Vec::new(), acc: 0, pending: 0 };
    w.write_bits(ts[0] as u64, 64);
    let mut prev_delta: u64 = 0;
    for pair in ts.windows(2) {
        let delta = (pair[1] as i128 - pair[0] as i128) as u64;
        let dod = delta as i128 - prev_delta as i128;
        if dod == 0 {
            w.write_bits(0, 1);
        } else {
            let mut written = false;
            for &(lo, hi, tag, tag_bits) in &REFERENCE_DOD_BUCKETS {
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
    w.write_bits(vals[0].to_bits(), 64);
    let mut prev_bits = vals[0].to_bits();
    let mut win_lead: u32 = u32::MAX;
    let mut win_len: u32 = 0;
    for &v in &vals[1..] {
        let bits = v.to_bits();
        let xor = bits ^ prev_bits;
        prev_bits = bits;
        if xor == 0 {
            w.write_bits(0, 1);
            continue;
        }
        let lead = xor.leading_zeros().min(31);
        let trail = xor.trailing_zeros();
        let len = 64 - lead - trail;
        if win_lead != u32::MAX && lead >= win_lead && 64 - trail <= win_lead + win_len {
            w.write_bits(0b10, 2);
            w.write_bits(xor >> (64 - win_lead - win_len), win_len as usize);
        } else {
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

/// Runs at the encoder's edges: every delta-of-delta bucket's bounds and
/// one past each, both signs; i64-extreme timestamps and raw-delta
/// escapes; NaN payloads and -0.0; new and reused XOR windows of 45 to 64
/// bits at both ends of the word, across the widths where a field and its
/// control bits stop fitting one 64-bit write; and chunks of 1, 2 and 2048
/// points.
fn encoder_edges() -> Vec<(Vec<i64>, Vec<f64>)> {
    let mut runs = Vec::new();
    // Deltas of `base` and `base + d` alternate, so the dods are d and -d.
    let dods = [1i64, 62, 63, 64, 65, 254, 255, 256, 257, 2046, 2047, 2048, 2049, 1 << 40];
    for base in [10_000i64, 1 << 41] {
        let mut ts = vec![0i64];
        for d in dods {
            for delta in [base + d, base] {
                ts.push(ts[ts.len() - 1] + delta);
            }
        }
        let vals = (0..ts.len()).map(|i| i as f64).collect();
        runs.push((ts, vals));
    }
    // A first delta in each bucket and one past it.
    for first in [1i64, 64, 65, 256, 257, 2048, 2049] {
        runs.push((vec![7, 7 + first, 7 + 2 * first], vec![0.5; 3]));
    }
    for ts in [
        vec![i64::MIN, i64::MAX],
        vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX],
        vec![i64::MIN, 0, i64::MAX],
        vec![i64::MAX - 2, i64::MAX - 1, i64::MAX],
    ] {
        let vals = [f64::NAN, -0.0, f64::from_bits(0xfff0_0000_dead_beef), 0.0];
        let vals = (0..ts.len()).map(|i| vals[i % 4]).collect();
        runs.push((ts, vals));
    }
    // A new window of `len` bits at `lead`, both ends set; a reuse of it;
    // a repeat; a reuse of a narrower part of it.
    for len in 45..=64u32 {
        for lead in [0, (64 - len).min(31)] {
            let mask = u64::MAX >> (64 - len) << (64 - lead - len);
            let ends = 1u64 << (63 - lead) | 1u64 << (64 - lead - len);
            let inner = 0x5A5A_5A5A_5A5A_5A5Au64 & mask | 1u64 << (64 - lead - len);
            let bits = [0, ends | (mask & 0x0F0F_0F0F_0F0F_0F0F), 0, 0, 0];
            let bits = [bits[0], bits[1], bits[1] ^ inner, bits[1] ^ inner, bits[1] ^ ends];
            runs.push(((0..5).collect(), bits.iter().map(|&b| f64::from_bits(b)).collect()));
        }
    }
    for (n, seed) in [(1, 3), (2, 5), (2, 6), (CHUNK_MAX_POINTS, 9), (CHUNK_MAX_POINTS, 10)] {
        runs.push(hostile_run(n, seed));
    }
    runs
}

/// The encoder writes the reference's bytes over the decoder's corpus and
/// the encoder's edges.
#[test]
fn encoder_matches_the_reference_writer() {
    for (i, (ts, vals)) in decoder_corpus().into_iter().chain(encoder_edges()).enumerate() {
        assert_eq!(encode(&ts, &vals), reference_encode(&ts, &vals), "run {i}: {ts:?}");
    }
}

proptest! {
    /// Hostile runs of up to a full chunk, with wide XOR windows or not,
    /// encode to the reference's bytes.
    #[test]
    fn encoder_matches_the_reference_writer_on_hostile_runs(
        seed in any::<u64>(),
        n in 1usize..=CHUNK_MAX_POINTS,
        wide in any::<bool>(),
    ) {
        let (ts, mut vals) = hostile_run(n, seed);
        if wide {
            vals = wide_windows(n, seed);
        }
        prop_assert_eq!(encode(&ts, &vals), reference_encode(&ts, &vals));
    }
}

// ---------------------------------------------------------------------------
// The CRC against its definition
// ---------------------------------------------------------------------------

/// CRC-32/IEEE from its definition: a bit at a time, no tables.
fn reference_crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
        }
    }
    !crc
}

/// `n` bytes of a seeded xorshift stream.
fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
    let mut s = seed | 1;
    (0..n).map(|_| (xorshift(&mut s) >> 32) as u8).collect()
}

/// The IEEE check value, and every length up to 512 bytes from each of
/// eight byte offsets: every split into whole braided blocks, combining
/// words and a bytewise tail.
#[test]
fn crc32_matches_the_bitwise_reference_at_every_short_length_and_offset() {
    assert_eq!(reference_crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    let buffer = random_bytes(512 + 8, 0x853C_49E6_748F_EA9B);
    for offset in 0..8 {
        for len in 0..=512 {
            let bytes = &buffer[offset..offset + len];
            assert_eq!(crc32(bytes), reference_crc32(bytes), "offset {offset}, {len} bytes");
        }
    }
}

proptest! {
    /// Random bytes of any length up to 64 KiB, from any offset.
    #[test]
    fn crc32_matches_the_bitwise_reference(
        seed in any::<u64>(),
        len in 0usize..=1 << 16,
        offset in 0usize..8,
    ) {
        let buffer = random_bytes(offset + len, seed);
        let bytes = &buffer[offset..];
        prop_assert_eq!(crc32(bytes), reference_crc32(bytes));
    }
}

// Pinned corner cases the generators cannot be trusted to hit every run.

#[test]
fn single_point_series_round_trip() {
    for ts in [i64::MIN, -1, 0, 1, i64::MAX] {
        for v in [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE] {
            let bytes = encode(&[ts], &[v]);
            let (dts, dvs) = decode(&bytes, 1).expect("decode");
            assert_eq!(dts, vec![ts]);
            assert_eq!(dvs[0].to_bits(), v.to_bits());
        }
    }
}

#[test]
fn i64_extreme_timestamp_runs_round_trip() {
    let cases: [&[i64]; 4] = [
        &[i64::MIN, i64::MAX],
        &[i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX],
        &[i64::MAX - 2, i64::MAX - 1, i64::MAX],
        &[i64::MIN, i64::MIN + 1, i64::MIN + 2],
    ];
    for ts in cases {
        let vals: Vec<f64> = (0..ts.len()).map(|i| i as f64 * 1.5).collect();
        let bytes = encode(ts, &vals);
        let (dts, dvs) = decode(&bytes, ts.len()).expect("decode");
        assert_eq!(dts, ts);
        assert_eq!(dvs, vals);
    }
}

#[test]
fn nan_payloads_and_signed_zero_are_bit_exact() {
    let vals = [
        f64::from_bits(0x7ff8_0000_0000_0001), // quiet NaN, payload 1
        f64::from_bits(0x7ff4_dead_beef_cafe), // signaling-style payload
        f64::from_bits(0xfff8_0000_0000_0000), // negative NaN
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let ts: Vec<i64> = (0..vals.len() as i64).collect();
    let bytes = encode(&ts, &vals);
    let (_, dvs) = decode(&bytes, vals.len()).expect("decode");
    for (a, b) in dvs.iter().zip(&vals) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// xorshift64: a fixed, dependency-free stream for the pinned corpora.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// `n` points of a seeded random walk whose timestamp deltas visit every
/// delta-of-delta bucket (including the raw escape) and whose values mix
/// repeats, small steps and fresh XOR windows.
fn random_walk(n: usize, seed: u64) -> (Vec<i64>, Vec<f64>) {
    let mut s = seed;
    let (mut t, mut v) = (1_600_000_000i64, 100.0f64);
    let mut ts = Vec::with_capacity(n);
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        ts.push(t);
        vals.push(v);
        let r = xorshift(&mut s);
        t += match r % 16 {
            0 => 1 + (r >> 40) as i64,
            1..=3 => 1 + ((r >> 8) % 3000) as i64,
            _ => 60,
        };
        if !r.is_multiple_of(5) {
            v += ((r >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 4.0;
        }
    }
    (ts, vals)
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("explainit-format-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// `segment.rs`'s `sample_series`: two series, NaN / -0.0 / ±inf values
/// and i64-extreme timestamps.
fn sample_series() -> Vec<(SeriesKey, Vec<EncodedChunk>)> {
    vec![
        (
            SeriesKey::new("disk").with_tag("host", "h1"),
            encode_run(&[0, 60, 120], &[1.0, f64::NAN, -0.0]),
        ),
        (SeriesKey::new("mem"), encode_run(&[i64::MIN, i64::MAX], &[f64::INFINITY, 2.0])),
    ]
}

/// `(name, byte length, CRC-32)` of every pinned byte image.
fn format_pins() -> Vec<(&'static str, usize, u32)> {
    let pin = |name, bytes: &[u8]| (name, bytes.len(), crc32(bytes));
    let grid_ts: Vec<i64> = (0..500).map(|i| 1_600_000_000 + i * 60).collect();
    let grid_vals: Vec<f64> = (0..500).map(|i| (i % 7) as f64).collect();
    let nan_vals = [
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::from_bits(0x7ff4_dead_beef_cafe),
        f64::from_bits(0xfff8_0000_0000_0000),
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let extreme_ts = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    let (walk_ts, walk_vals) = random_walk(CHUNK_MAX_POINTS, 0x9E37_79B9_7F4A_7C15);
    let mut pins = vec![
        pin("aligned grid", &encode(&grid_ts, &grid_vals)),
        pin(
            "irregular deltas",
            &encode(
                &[0, 1, 100, 101, 1_000_000, 1_000_060, i64::MAX / 2],
                &[1.0, -1.0, 3.5e300, -3.5e-300, 0.1, 0.1, 7.0],
            ),
        ),
        pin("i64 extremes", &encode(&extreme_ts, &[1.5; 7])),
        pin("nan payloads and signed zero", &encode(&[0, 1, 2, 3, 4, 5, 6], &nan_vals)),
        pin("random walk", &encode(&walk_ts, &walk_vals)),
    ];

    // The segment file the writer emits over `segment.rs`'s
    // `sample_series`.
    let dir = tmp_dir("segment");
    let handle = write_segment(&dir, 7, &[3, 5], &sample_series()).expect("write segment");
    pins.push(pin("segment file v2", &std::fs::read(&handle.path).expect("read segment")));
    let _ = std::fs::remove_dir_all(&dir);

    // One WAL `Batch` frame.
    let dir = tmp_dir("wal");
    let mut wal = Wal::open(&dir, 0).expect("open wal");
    let key = SeriesKey::new("disk").with_tag("host", "h1");
    wal.append(&key, &[(0, 1.0), (60, 2.5)]).expect("append");
    wal.sync().expect("sync");
    pins.push(pin("wal batch frame", &std::fs::read(Wal::path_in(&dir)).expect("read wal")));
    let _ = std::fs::remove_dir_all(&dir);
    pins
}

/// The bytes the store writes, pinned at the commit before the word-at-a-
/// time codec and CRC kernels: round-trip properties cannot see a format
/// change (encoder and decoder would move together), this can.
#[test]
fn encoder_bytes_are_the_parent_format() {
    // Every row but "segment file v2" is the format of the commit before
    // the word-at-a-time kernels; that row pins the `EXPLSEG2` writer from
    // its first version on.
    const PARENT_FORMAT: [(&str, usize, u32); 7] = [
        ("aligned grid", 1062, 0x892B_37B0),
        ("irregular deltas", 83, 0x9060_D4DE),
        ("i64 extremes", 52, 0xAF13_B800),
        ("nan payloads and signed zero", 68, 0x6D9A_E2F0),
        ("random walk", 16499, 0x900D_40DC),
        ("segment file v2", 201, 0xAD3C_E901),
        ("wal batch frame", 71, 0x1135_17E0),
    ];
    assert_eq!(format_pins(), PARENT_FORMAT);
}

#[test]
fn every_bit_flip_and_truncation_of_a_chunk_decodes_or_is_corrupt() {
    let (ts, vals) = random_walk(200, 7);
    let bytes = encode(&ts, &vals);
    for cut in 0..bytes.len() {
        let err = decode(&bytes[..cut], ts.len()).expect_err("a cut stream is short");
        assert!(matches!(err, StorageError::Corrupt { .. }), "cut={cut}: {err}");
    }
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 0x80 >> (bit % 8);
        assert!(decodes_or_is_corrupt(&flipped, ts.len()), "bit={bit}");
    }
}

/// Every point of the store in `dir`, opened read-only: `(series, ts,
/// value bits)` in scan order.
fn open_and_scan(dir: &std::path::Path) -> Result<Vec<(String, i64, u64)>, StorageError> {
    scan_all(&Tsdb::open_read_only(dir)?)
}

/// Every point of `db`: `(series, ts, value bits)` in scan order.
fn scan_all(db: &Tsdb) -> Result<Vec<(String, i64, u64)>, StorageError> {
    let parts = db.scan_parts_between(&MetricFilter::all(), i64::MIN, i64::MAX)?;
    Ok(parts
        .iter()
        .flat_map(|p| {
            let key = p.key.canonical();
            p.timestamps.iter().zip(&*p.values).map(move |(&t, v)| (key.clone(), t, v.to_bits()))
        })
        .collect())
}

/// The sample series' points, as [`open_and_scan`] reports them.
fn sample_points() -> Vec<(String, i64, u64)> {
    sample_series()
        .into_iter()
        .flat_map(|(key, chunks)| {
            let key = key.canonical();
            chunks.into_iter().flat_map(move |c| {
                let (ts, vs) = decode(&c.bytes, c.meta.count as usize).expect("decode");
                let key = key.clone();
                ts.into_iter().zip(vs).map(move |(t, v)| (key.clone(), t, v.to_bits()))
            })
        })
        .collect()
}

/// Every byte flip, every truncation and an appended byte of a whole
/// segment file end in `Corrupt` or `Io` — at open, or at the first scan
/// that reads the byte — never in a panic and never in other points.
fn assert_every_mutation_is_an_error(tag: &str, clean: &[u8]) {
    let dir = tmp_dir(tag);
    let path = dir.join("seg-00000007.seg");
    std::fs::write(&path, clean).expect("write");
    assert_eq!(open_and_scan(&dir).expect("the clean file scans"), sample_points());
    let assert_error = |what: &str| match open_and_scan(&dir) {
        Err(StorageError::Corrupt { .. } | StorageError::Io { .. }) => {}
        other => panic!("{tag}, {what}: expected Corrupt or Io, got {other:?}"),
    };
    for at in 0..clean.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bytes = clean.to_vec();
            bytes[at] ^= mask;
            std::fs::write(&path, &bytes).expect("write");
            assert_error(&format!("byte {at} ^ {mask:#04x}"));
        }
    }
    for len in 0..clean.len() {
        std::fs::write(&path, &clean[..len]).expect("write");
        assert_error(&format!("cut to {len} bytes"));
    }
    std::fs::write(&path, [clean, &[0]].concat()).expect("write");
    assert_error("one byte appended");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_byte_flip_and_truncation_of_a_segment_file_is_an_error() {
    let dir = tmp_dir("v2-hostile");
    let handle = write_segment(&dir, 7, &[3, 5], &sample_series()).expect("write segment");
    let v2 = std::fs::read(&handle.path).expect("read segment");
    let _ = std::fs::remove_dir_all(&dir);
    assert_every_mutation_is_an_error("v2-hostile", &v2);
}

/// A segment of the retired `EXPLSEG1` format is foreign bytes: writer and
/// reader opens both fail with `Corrupt`, naming the file and the magic,
/// and leave the file as it was.
#[test]
fn a_segment_with_the_v1_magic_fails_every_open() {
    let dir = tmp_dir("v1-magic");
    let path = dir.join("seg-00000007.seg");
    let bytes = [b"EXPLSEG1".as_slice(), &7u64.to_le_bytes(), &[0; 16]].concat();
    std::fs::write(&path, &bytes).expect("write");
    for read_only in [false, true] {
        let opened = if read_only { Tsdb::open_read_only(&dir) } else { Tsdb::open(&dir) };
        match opened.map(|_| ()).expect_err("a v1 segment is refused") {
            StorageError::Corrupt { what, detail } => {
                assert!(what.ends_with("seg-00000007.seg"), "read_only={read_only}: {what}");
                assert_eq!(detail, "bad magic \"EXPLSEG1\"", "read_only={read_only}");
            }
            other => panic!("read_only={read_only}: expected Corrupt, got {other:?}"),
        }
    }
    assert_eq!(std::fs::read(&path).expect("read"), bytes, "the file is untouched");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory's CRC proves integrity, not a sane size: a 32-byte segment
/// whose checksummed directory claims 2^24 series is refused on its count
/// before anything is reserved for them.
#[test]
fn a_directory_count_its_bytes_cannot_hold_is_corrupt() {
    let dir = tmp_dir("huge-count");
    let mut bytes = [b"EXPLSEG2".as_slice(), &0u64.to_le_bytes(), &8u32.to_le_bytes()].concat();
    bytes.extend_from_slice(&0u32.to_le_bytes()); // supersedes
    bytes.extend_from_slice(&(1u32 << 24).to_le_bytes()); // series
    bytes.extend_from_slice(&crc32(&bytes).to_le_bytes());
    assert_eq!(bytes.len(), 32);
    std::fs::write(dir.join("seg-00000000.seg"), &bytes).expect("write");
    match open_and_scan(&dir).expect_err("the count is refused") {
        StorageError::Corrupt { detail, .. } => assert_eq!(detail, "bad series count"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A small WAL record: one of three names, with or without a tag, and one
/// to three points of any timestamp and value bits (NaN payloads, ±0 and
/// duplicate timestamps included).
fn wal_record() -> impl Strategy<Value = WalRecord> {
    let points = proptest::collection::vec((any::<i64>(), any::<u64>()), 1..4);
    (0usize..3, any::<bool>(), points).prop_map(|(name, tagged, points)| {
        let mut key = SeriesKey::new(["cpu", "disk", "mem"][name]);
        if tagged {
            key = key.with_tag("host", "h1");
        }
        WalRecord { key, points: points.into_iter().map(|(t, v)| (t, f64::from_bits(v))).collect() }
    })
}

proptest! {
    /// Every single-byte flip and every cut of a three-record WAL opens to
    /// the store of a prefix of the written records, or fails `Corrupt`:
    /// never a panic, another error, or a point no record wrote.
    #[test]
    fn a_flipped_or_cut_wal_opens_to_a_prefix_or_is_corrupt(
        records in proptest::collection::vec(wal_record(), 3),
        mask in 1u8..=255,
    ) {
        let dir = tmp_dir("wal-hostile");
        let mut wal = Wal::open(&dir, 0).expect("open wal");
        for record in &records {
            wal.append(&record.key, &record.points).expect("append");
        }
        wal.sync().expect("sync");
        drop(wal);
        let path = Wal::path_in(&dir);
        let clean = std::fs::read(&path).expect("read wal");
        let mut db = Tsdb::new();
        let mut prefixes = vec![scan_all(&db).expect("scan")];
        for record in &records {
            db.try_insert_batch(&record.key, &record.points).expect("insert");
            prefixes.push(scan_all(&db).expect("scan"));
        }
        prop_assert_eq!(open_and_scan(&dir).expect("the clean log opens"), prefixes[3].clone());
        let variants = (0..clean.len())
            .map(|at| {
                let mut bytes = clean.clone();
                bytes[at] ^= mask;
                (format!("byte {at} ^ {mask:#04x}"), bytes)
            })
            .chain((0..clean.len()).map(|len| (format!("cut to {len}"), clean[..len].to_vec())));
        for (what, bytes) in variants {
            std::fs::write(&path, &bytes).expect("write wal");
            match open_and_scan(&dir) {
                Ok(points) => prop_assert!(prefixes.contains(&points), "{}: not a prefix", what),
                Err(StorageError::Corrupt { .. }) => {}
                Err(other) => prop_assert!(false, "{}: {}", what, other),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
