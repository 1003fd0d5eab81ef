//! §5.4 case study: weekly runtime spikes traced to the RAID controller's
//! consistency check (Table 5, Figures 8 and 9), including the importance
//! of choosing a long enough time range.
//!
//! Run with: `cargo run --release --example weekly_spikes`

use explainit::core::{report, Engine, EngineConfig};
use explainit::stats::{autocorrelation, mean};
use explainit::workloads::case_studies::{self, SCORER, TARGET};
use explainit::workloads::families_by_name;

fn main() {
    let study = case_studies::study("5.4").expect("a §5 study");

    // A short (2-day) window hides the weekly structure...
    let two_days = study.sim.range_of((0, 2 * 1440));
    let short_fams = families_by_name(&study.sim.db, &two_days).expect("two days of points");
    let short_rt = short_fams.iter().find(|f| f.name == TARGET).expect("runtime").data.column(0);
    println!("Two-day view (the spike looks like a one-off):");
    println!("  {}\n", report::sparkline(&short_rt, 96));

    // ...the month view the study ranks reveals the period (Figure 8).
    let month = study.families.iter().find(|f| f.name == TARGET).expect("runtime");
    let month_rt = month.data.column(0);
    let step = month.timestamps[1] - month.timestamps[0];
    println!("Month view at {}-minute resolution (Figure 8 — weekly spikes):", step / 60);
    println!("  {}", report::sparkline(&month_rt, 112));
    let weekly_lag = (7 * 86_400 / step) as usize; // one week in samples
    println!("  autocorrelation at a 1-week lag: {:.2}\n", autocorrelation(&month_rt, weekly_lag));

    // Rank over the month.
    let mut engine = Engine::new(EngineConfig::default());
    for f in study.families {
        engine.add_family(f);
    }
    let ranking = engine.rank(TARGET, &study.given, SCORER).expect("ranking");
    println!("{}", report::render_ranking(&ranking));
    println!(
        "disk_util rank {:?}, load_avg rank {:?}, raid_temperature rank {:?} \
         (paper: disk IO at 3-4, RAID temperature at 7)\n",
        ranking.rank_of("disk_util"),
        ranking.rank_of("load_avg"),
        ranking.rank_of("raid_temperature")
    );

    // Figure 9: the staged intervention.
    let intervention = case_studies::raid_intervention();
    let rt = intervention
        .families()
        .into_iter()
        .find(|f| f.name == TARGET)
        .expect("runtime")
        .data
        .column(0);
    println!("Figure 9 — intervention (20% cap | disabled | 20% | 5% cap):");
    println!("  {}", report::sparkline(&rt, 80));
    println!(
        "  mean runtime by phase: {:.1}s | {:.1}s | {:.1}s | {:.1}s",
        mean(&rt[2..15]),
        mean(&rt[16..20]),
        mean(&rt[21..25]),
        mean(&rt[27..40])
    );
}
