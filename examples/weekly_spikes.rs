//! §5.4 case study: weekly runtime spikes traced to the RAID controller's
//! consistency check (Table 5, Figures 8 and 9), including the importance
//! of choosing a long enough time range.
//!
//! Run with: `cargo run --release --example weekly_spikes`

use explainit::core::{report, Engine, EngineConfig, ScorerKind};
use explainit::stats::{autocorrelation, mean};
use explainit::workloads::{case_studies, families_by_name};

fn main() {
    let sim = case_studies::weekly_raid();

    // A short (2-day) window hides the weekly structure...
    let two_days = explainit::tsdb::TimeRange::new(sim.start_ts, sim.start_ts + 2 * 1440 * 60);
    let short_fams = families_by_name(&sim.db, &two_days).expect("two days of points");
    let short_rt =
        short_fams.iter().find(|f| f.name == "pipeline_runtime").expect("runtime").data.column(0);
    println!("Two-day view (the spike looks like a one-off):");
    println!("  {}\n", report::sparkline(&short_rt, 96));

    // ...the month view reveals the period (Figure 8).
    let month = sim.time_range();
    let grid: Vec<i64> = (month.start..month.end).step_by(600).collect();
    let month_fams: Vec<_> = sim.families().into_iter().map(|f| f.restrict_to(&grid)).collect();
    let month_rt =
        month_fams.iter().find(|f| f.name == "pipeline_runtime").expect("runtime").data.column(0);
    println!("Month view at 10-minute resolution (Figure 8 — weekly spikes):");
    println!("  {}", report::sparkline(&month_rt, 112));
    let weekly_lag = 7 * 1440 / 10; // one week in 10-minute samples
    println!("  autocorrelation at a 1-week lag: {:.2}\n", autocorrelation(&month_rt, weekly_lag));

    // Rank over the month.
    let mut engine = Engine::new(EngineConfig::default());
    for f in month_fams {
        engine.add_family(f);
    }
    let ranking = engine.rank("pipeline_runtime", &[], ScorerKind::L2).expect("ranking");
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
        .find(|f| f.name == "pipeline_runtime")
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
