//! §5.3 case study: periodic pipeline slowdowns traced to a service
//! scanning the filesystem through the Namenode every 15 minutes
//! (Table 4 / Figure 7).
//!
//! Run with: `cargo run --release --example periodic_slowdown`

use explainit::core::{report, Engine, EngineConfig};
use explainit::stats::{autocorrelation, pearson};
use explainit::workloads::case_studies::{self, SCORER, TARGET};

fn main() {
    let study = case_studies::study("5.3").expect("a §5 study");
    let mut engine = Engine::new(EngineConfig::default());
    for f in study.families {
        engine.add_family(f);
    }
    let rt = engine.family(TARGET).expect("runtime family").data.column(0);

    println!("Figure 7 — runtime with ~15-minute spikes (first 4 hours):");
    println!("  {}\n", report::sparkline(&rt[..240], 96));
    println!(
        "runtime autocorrelation at lag 15 min: {:.2} (periodic signature)\n",
        autocorrelation(&rt, 15)
    );

    let ranking = engine.rank(TARGET, &study.given, SCORER).expect("ranking");
    println!("{}", report::render_ranking(&ranking));

    // The sign analysis that ruled out garbage collection.
    let gc = engine.family("namenode_gc_time").expect("gc family").data.column(0);
    println!(
        "corr(runtime, namenode_gc_time) = {:+.2} -> negative, GC ruled out (§5.3)\n",
        pearson(&rt, &gc)
    );

    let (_, after) = case_studies::namenode_periodic();
    let rt_after = after
        .families()
        .into_iter()
        .find(|f| f.name == TARGET)
        .expect("runtime family")
        .data
        .column(0);
    println!("After the fix (Figure 7 right): ");
    println!("  {}", report::sparkline(&rt_after[..240], 96));
    println!("  lag-15 autocorrelation drops to {:.2}", autocorrelation(&rt_after, 15));
}
