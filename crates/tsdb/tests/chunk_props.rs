//! Property tests pinning the chunk codec: every byte-level encoder must
//! round-trip bit-exactly against the in-memory reference for arbitrary
//! sorted runs — including i64-extreme timestamps and every f64 bit
//! pattern (NaN payloads, ±0, infinities, subnormals).

use explainit_tsdb::storage::chunk::{decode, encode, encode_run, EncodedChunk, CHUNK_MAX_POINTS};
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

/// `write_segment(dir, 7, &[3, 5], &sample_series())` as written by the
/// last `EXPLSEG1` writer.
const V1_SEGMENT: &[u8] = include_bytes!("fixtures/v1-seg-00000007.seg");

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

    // The segment file over `segment.rs`'s `sample_series`: the v1 bytes
    // the format's last writer produced (a checked-in fixture, which
    // `v1_fixture_reads_back_the_sample_points` reads), and what the writer
    // emits now.
    pins.push(pin("segment file", V1_SEGMENT));
    let dir = tmp_dir("segment");
    let handle = write_segment(&dir, 7, &[3, 5], &sample_series()).expect("write segment");
    pins.push(pin("segment file v2", &std::fs::read(&handle.path).expect("read segment")));
    let _ = std::fs::remove_dir_all(&dir);

    // One WAL `Batch` frame.
    let dir = tmp_dir("wal");
    let mut wal = Wal::open(&dir, 0).expect("open wal");
    let key = SeriesKey::new("disk").with_tag("host", "h1");
    wal.append(&WalRecord { key, points: vec![(0, 1.0), (60, 2.5)] }).expect("append");
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
    const PARENT_FORMAT: [(&str, usize, u32); 8] = [
        ("aligned grid", 1062, 0x892B_37B0),
        ("irregular deltas", 83, 0x9060_D4DE),
        ("i64 extremes", 52, 0xAF13_B800),
        ("nan payloads and signed zero", 68, 0x6D9A_E2F0),
        ("random walk", 16499, 0x900D_40DC),
        ("segment file", 213, 0x2144_DF1C),
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
            p.timestamps.iter().zip(p.values).map(move |(&t, v)| (key.clone(), t, v.to_bits()))
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

#[test]
fn v1_fixture_reads_back_the_sample_points() {
    let dir = tmp_dir("v1-fixture");
    std::fs::write(dir.join("seg-00000007.seg"), V1_SEGMENT).expect("write fixture");
    assert_eq!(open_and_scan(&dir).expect("a v1 store opens and scans"), sample_points());
    let _ = std::fs::remove_dir_all(&dir);
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
    assert_every_mutation_is_an_error("v1-hostile", V1_SEGMENT);
}

#[test]
fn compaction_rewrites_a_v1_store_as_v2() {
    let dir = tmp_dir("v1-compact");
    std::fs::write(dir.join("seg-00000007.seg"), V1_SEGMENT).expect("write fixture");
    {
        let mut db = Tsdb::open(&dir).expect("open a v1 store for writing");
        db.insert(&SeriesKey::new("net"), 5, 0.5);
        db.compact().expect("compact");
    }
    let segments: Vec<Vec<u8>> = std::fs::read_dir(&dir)
        .expect("list")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .map(|p| std::fs::read(p).expect("read"))
        .collect();
    assert_eq!(segments.len(), 1, "one compacted segment");
    assert_eq!(&segments[0][..8], b"EXPLSEG2");
    let mut expect = sample_points();
    expect.push(("net".to_string(), 5, 0.5f64.to_bits()));
    assert_eq!(open_and_scan(&dir).expect("scan"), expect);
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
            wal.append(record).expect("append");
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
