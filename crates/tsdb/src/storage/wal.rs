//! The append-only write-ahead log.
//!
//! Record layout (little-endian):
//!
//! ```text
//! [payload_len: u32][crc32(payload): u32][payload bytes]
//! payload := kind: u8
//!            name_len: u32, name bytes
//!            tag_count: u32, { key_len: u32, key, val_len: u32, val }*
//!            point_count: u32, { ts: i64, value: f64 }*
//! ```
//!
//! `kind` is always 1: a point batch replayed through
//! [`crate::Series::push`] (identical out-of-order / duplicate-timestamp
//! semantics to the live insert path — the contract `model.rs` pins).
//!
//! Recovery reads records until the file ends or a record fails its
//! length or checksum — a torn tail from a crash mid-append — and
//! truncates the file back to the last fully-committed record, so the
//! store reopens with exactly the committed prefix. A record whose
//! checksum holds but whose payload does not decode (another kind, too
//! few bytes, bytes left over) was written whole by something other than
//! this writer: replay fails with [`StorageError::Corrupt`] and the file
//! stays as it is, since truncating there would drop every committed
//! record after it.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use super::{crc32, StorageError};
use crate::model::SeriesKey;

/// Largest accepted payload: a defensive cap so a corrupt length prefix
/// cannot drive a giant allocation during replay.
const MAX_PAYLOAD: u32 = 1 << 28;

const KIND_BATCH: u8 = 1;

/// One committed WAL record: points appended through the insert path.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Target series.
    pub key: SeriesKey,
    /// Observations in arrival order.
    pub points: Vec<(i64, f64)>,
}

/// The open WAL appender: a buffered writer plus the committed length.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    writer: BufWriter<File>,
    /// Bytes of committed records (the offset replay validated up to, plus
    /// everything appended since).
    len: u64,
}

impl Wal {
    /// Path of the WAL inside a store directory.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join("wal")
    }

    /// Opens (creating if needed) the WAL for appending at `committed`
    /// bytes, truncating any torn tail past it first.
    pub fn open(dir: &Path, committed: u64) -> Result<Wal, StorageError> {
        let path = Wal::path_in(dir);
        let ctx = |verb: &str| format!("{verb} {}", path.display());
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| StorageError::io(ctx("opening"), e))?;
        file.set_len(committed).map_err(|e| StorageError::io(ctx("truncating"), e))?;
        let mut file = file;
        file.seek(SeekFrom::Start(committed)).map_err(|e| StorageError::io(ctx("seeking"), e))?;
        Ok(Wal { path, writer: BufWriter::new(file), len: committed })
    }

    /// Committed WAL length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no records are committed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one record (buffered; durable after [`Wal::sync`]).
    pub fn append(&mut self, record: &WalRecord) -> Result<(), StorageError> {
        let payload = encode_payload(record);
        let ctx = || format!("appending to {}", self.path.display());
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.writer.write_all(&frame).map_err(|e| StorageError::io(ctx(), e))?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Flushes buffered records to the OS and fsyncs — the durability
    /// point for everything appended so far.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        explainit_sync::check_io("fsyncing the WAL");
        let ctx = || format!("syncing {}", self.path.display());
        self.writer.flush().map_err(|e| StorageError::io(ctx(), e))?;
        self.writer.get_ref().sync_all().map_err(|e| StorageError::io(ctx(), e))
    }

    /// Empties the log (after its contents were sealed into a segment).
    pub fn truncate(&mut self) -> Result<(), StorageError> {
        explainit_sync::check_io("truncating and fsyncing the WAL");
        let ctx = || format!("truncating {}", self.path.display());
        self.writer.flush().map_err(|e| StorageError::io(ctx(), e))?;
        let file = self.writer.get_mut();
        file.set_len(0).map_err(|e| StorageError::io(ctx(), e))?;
        file.seek(SeekFrom::Start(0)).map_err(|e| StorageError::io(ctx(), e))?;
        file.sync_all().map_err(|e| StorageError::io(ctx(), e))?;
        self.len = 0;
        Ok(())
    }
}

/// Reads every fully-committed record from a WAL file, returning them with
/// the committed byte length. A missing file is an empty log. A torn tail
/// (a bad length or checksum) ends the scan at the last good record — the
/// caller truncates there via [`Wal::open`]. A checksummed record that
/// does not decode is [`StorageError::Corrupt`], naming the file and the
/// record's byte offset.
pub fn replay(dir: &Path) -> Result<(Vec<WalRecord>, u64), StorageError> {
    let path = Wal::path_in(dir);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(StorageError::io(format!("reading {}", path.display()), e)),
    };
    let mut records = Vec::new();
    let mut at = 0usize;
    while at + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte slice")) as usize; // invariant: slice length fixed above
        let sum = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4-byte slice")); // invariant: slice length fixed above
        if len as u32 > MAX_PAYLOAD || at + 8 + len > bytes.len() {
            break; // torn tail: incomplete record
        }
        let payload = &bytes[at + 8..at + 8 + len];
        // An empty frame is no record this writer makes but what a tail
        // zero-filled by a crash looks like (its CRC is 0 too): torn.
        if len == 0 || crc32(payload) != sum {
            break; // torn tail: half-written payload
        }
        let record = decode_payload(payload).map_err(|detail| {
            StorageError::corrupt(format!("{} record at byte {at}", path.display()), detail)
        })?;
        records.push(record);
        at += 8 + len;
    }
    Ok((records, at as u64))
}

fn encode_payload(record: &WalRecord) -> Vec<u8> {
    let WalRecord { key, points } = record;
    let mut out = Vec::with_capacity(32 + points.len() * 16);
    out.push(KIND_BATCH);
    write_str(&mut out, &key.name);
    out.extend_from_slice(&(key.tags.len() as u32).to_le_bytes());
    for (k, v) in &key.tags {
        write_str(&mut out, k);
        write_str(&mut out, v);
    }
    out.extend_from_slice(&(points.len() as u32).to_le_bytes());
    for &(ts, v) in points {
        out.extend_from_slice(&ts.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes one checksummed payload; the error says what did not fit.
fn decode_payload(payload: &[u8]) -> Result<WalRecord, String> {
    const SHORT: &str = "record payload is short";
    match payload.first() {
        Some(&KIND_BATCH) => {}
        Some(&kind) => return Err(format!("unknown record kind {kind}")),
        None => return Err(SHORT.into()),
    }
    let mut at = 1usize;
    let name = read_str(payload, &mut at).ok_or(SHORT)?;
    let n_tags = read_u32(payload, &mut at).ok_or(SHORT)?;
    let mut key = SeriesKey::new(name);
    for _ in 0..n_tags {
        let k = read_str(payload, &mut at).ok_or(SHORT)?;
        let v = read_str(payload, &mut at).ok_or(SHORT)?;
        key.tags.insert(k, v);
    }
    let n_points = read_u32(payload, &mut at).ok_or(SHORT)? as usize;
    let body = payload.get(at..).ok_or(SHORT)?;
    match body.len().checked_sub(n_points.saturating_mul(16)) {
        None => return Err(SHORT.into()),
        Some(0) => {}
        Some(extra) => return Err(format!("trailing bytes after the record: {extra}")),
    }
    let points = body
        .as_chunks::<16>()
        .0
        .iter()
        .map(|p| {
            let ts = i64::from_le_bytes(std::array::from_fn(|i| p[i]));
            (ts, f64::from_le_bytes(std::array::from_fn(|i| p[8 + i])))
        })
        .collect();
    Ok(WalRecord { key, points })
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn read_u32(bytes: &[u8], at: &mut usize) -> Option<u32> {
    let v = u32::from_le_bytes(bytes.get(*at..*at + 4)?.try_into().ok()?);
    *at += 4;
    Some(v)
}

fn read_str(bytes: &[u8], at: &mut usize) -> Option<String> {
    let len = read_u32(bytes, at)? as usize;
    let s = String::from_utf8(bytes.get(*at..*at + len)?.to_vec()).ok()?;
    *at += len;
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("explainit-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        let key = SeriesKey::new("disk").with_tag("host", "h1");
        vec![
            WalRecord { key: key.clone(), points: vec![(0, 1.0), (60, 2.5)] },
            WalRecord { key: SeriesKey::new("mem"), points: vec![(120, f64::NAN)] },
            WalRecord { key, points: vec![(0, 9.0), (60, 8.0), (180, 7.0)] },
        ]
    }

    #[test]
    fn append_sync_replay_round_trip() {
        let dir = tmp_dir("roundtrip");
        let mut wal = Wal::open(&dir, 0).expect("open");
        for rec in sample_records() {
            wal.append(&rec).expect("append");
        }
        wal.sync().expect("sync");
        let (records, len) = replay(&dir).expect("replay");
        assert_eq!(len, wal.len());
        assert_eq!(records.len(), 3);
        // NaN makes PartialEq false on the second record; compare bits.
        let (a, b) = (&records[1], &sample_records()[1]);
        assert_eq!(a.key, b.key);
        assert_eq!(a.points[0].0, b.points[0].0);
        assert_eq!(a.points[0].1.to_bits(), b.points[0].1.to_bits());
        assert_eq!(records[0], sample_records()[0]);
        assert_eq!(records[2], sample_records()[2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_recovers_committed_prefix_at_every_cut() {
        let dir = tmp_dir("torn");
        let mut wal = Wal::open(&dir, 0).expect("open");
        let records = sample_records();
        let mut commit_offsets = vec![0u64];
        for rec in &records {
            wal.append(rec).expect("append");
            commit_offsets.push(wal.len());
        }
        wal.sync().expect("sync");
        drop(wal);
        let full = std::fs::read(Wal::path_in(&dir)).expect("read wal");
        let last_start = commit_offsets[records.len() - 1] as usize;
        // Truncate at every byte boundary of the LAST record: replay must
        // recover exactly the records fully committed before the cut.
        for cut in last_start..full.len() {
            std::fs::write(Wal::path_in(&dir), &full[..cut]).expect("write cut");
            let (recovered, good) = replay(&dir).expect("replay");
            assert_eq!(recovered.len(), records.len() - 1, "cut={cut}");
            assert_eq!(good as usize, last_start, "cut={cut}");
        }
        // The full file recovers everything.
        std::fs::write(Wal::path_in(&dir), &full).expect("restore");
        let (recovered, good) = replay(&dir).expect("replay");
        assert_eq!(recovered.len(), records.len());
        assert_eq!(good as usize, full.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_payload_stops_at_last_good_record() {
        let dir = tmp_dir("corrupt");
        let mut wal = Wal::open(&dir, 0).expect("open");
        for rec in sample_records() {
            wal.append(&rec).expect("append");
        }
        wal.sync().expect("sync");
        let first_len = {
            let (_, len) = replay(&dir).expect("replay");
            len
        };
        let mut bytes = std::fs::read(Wal::path_in(&dir)).expect("read");
        // Flip a byte inside the SECOND record's payload.
        let hit = bytes.len() - 9;
        bytes[hit] ^= 0xFF;
        std::fs::write(Wal::path_in(&dir), &bytes).expect("write");
        let (records, good) = replay(&dir).expect("replay");
        assert_eq!(records.len(), 2);
        assert!(good < first_len || records.len() == 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checksummed_record_that_does_not_decode_is_corrupt() {
        let dir = tmp_dir("undecodable");
        let frame =
            |p: &[u8]| [&(p.len() as u32).to_le_bytes(), &crc32(p).to_le_bytes(), p].concat();
        let payload = encode_payload(&sample_records()[0]);
        let good = frame(&payload);
        let mut replace = payload.clone();
        replace[0] = 2; // the whole-series replacement kind of older builds
        let cases = [
            (replace, "unknown record kind 2"),
            (payload[..payload.len() - 1].to_vec(), "record payload is short"),
            ([&payload[..], &[0]].concat(), "trailing bytes after the record: 1"),
        ];
        for (bad, detail) in cases {
            std::fs::write(Wal::path_in(&dir), [&good[..], &frame(&bad)].concat()).expect("write");
            match replay(&dir) {
                Err(StorageError::Corrupt { what, detail: got }) => {
                    assert!(
                        what.ends_with(&format!("wal record at byte {}", good.len())),
                        "{what}"
                    );
                    assert_eq!(got, detail);
                }
                other => panic!("{detail}: expected Corrupt, got {other:?}"),
            }
        }
        // A zero-filled tail is torn, not corrupt, though its empty frame
        // checksums.
        std::fs::write(Wal::path_in(&dir), [&good[..], &[0; 16]].concat()).expect("write");
        let (records, committed) = replay(&dir).expect("replay");
        assert_eq!((records.len(), committed as usize), (1, good.len()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_wal_is_empty() {
        let dir = tmp_dir("missing");
        let (records, len) = replay(&dir).expect("replay");
        assert!(records.is_empty());
        assert_eq!(len, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_appends_after_committed_prefix() {
        let dir = tmp_dir("reopen");
        let mut wal = Wal::open(&dir, 0).expect("open");
        wal.append(&sample_records()[0]).expect("append");
        wal.sync().expect("sync");
        let committed = wal.len();
        drop(wal);
        // Simulate a torn tail after the committed record.
        let mut bytes = std::fs::read(Wal::path_in(&dir)).expect("read");
        bytes.extend_from_slice(&[1, 2, 3]);
        std::fs::write(Wal::path_in(&dir), &bytes).expect("write");
        let (records, good) = replay(&dir).expect("replay");
        assert_eq!(records.len(), 1);
        assert_eq!(good, committed);
        let mut wal = Wal::open(&dir, good).expect("reopen");
        wal.append(&sample_records()[1]).expect("append");
        wal.sync().expect("sync");
        let (records, _) = replay(&dir).expect("replay");
        assert_eq!(records.len(), 2, "tail truncated, new record appended cleanly");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
