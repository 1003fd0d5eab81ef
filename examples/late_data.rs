//! Late data over a durable store: every point of every series arrives
//! again, inside the range the store already sealed. Each series unseals,
//! so the flush that makes the rewrite durable compacts: its one segment
//! holds every series and supersedes every other segment, and no two
//! segments ever hold overlapping chunks. The points are the ones already
//! stored, so every statement over the store answers as before.
//!
//! Run with: `cargo run --release --example late_data -- DIR`, where `DIR`
//! is a store, e.g. one `explainit simulate --data-dir DIR` wrote.

use explainit::tsdb::Tsdb;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::args().nth(1).ok_or("usage: late_data DIR")?;
    let mut db = Tsdb::open(&dir)?;
    let series: Vec<_> = db
        .iter()
        .map(|(_, s)| (s.key.clone(), s.points().map(|p| (p.ts, p.value)).collect::<Vec<_>>()))
        .collect();
    for (key, points) in &series {
        db.try_insert_batch(key, points)?;
    }
    db.flush()?;
    let stats = db.storage_stats().ok_or("a durable store")?;
    println!(
        "rewrote {dir}: {} series, {} points, {} segment(s), {} chunks",
        series.len(),
        db.point_count(),
        stats.segments,
        stats.chunks
    );
    Ok(())
}
