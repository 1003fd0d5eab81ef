//! Regenerates Table 5 and Figures 8–9 (§5.4): weekly pipeline slowdowns
//! caused by the RAID controller's periodic consistency check.
//!
//! Expected shape (paper): save-time / indexing-runtime effects at ranks
//! 1–2, load average rank 3 and disk utilisation rank 4 as the evidence,
//! RAID monitoring data (temperature) at rank 7; Figure 8 shows the weekly
//! spikes over a month; Figure 9 shows the staged intervention
//! (default 20% cap → disabled → re-enabled → 5% cap).

use explainit_core::{report, Engine, EngineConfig, ScorerKind};
use explainit_eval::Relevance;
use explainit_workloads::case_studies;

fn main() {
    println!("=== Table 5 / Figures 8-9: weekly RAID consistency check (§5.4) ===\n");
    let sim = case_studies::weekly_raid();

    // Month-long range at 10-minute resolution (the paper: "when we looked
    // at time ranges of over a month, we noticed a regularity").
    let range = sim.time_range();
    let grid: Vec<i64> = (range.start..range.end).step_by(600).collect();
    let families: Vec<_> = sim.families().into_iter().map(|f| f.restrict_to(&grid)).collect();
    let runtime = families.iter().find(|f| f.name == "pipeline_runtime").expect("runtime family");
    println!("Figure 8 — pipeline runtime across four weeks (one spike per week):");
    println!("  {}\n", report::sparkline(&runtime.data.column(0), 112));

    let mut engine = Engine::new(EngineConfig::default());
    for f in &families {
        engine.add_family(f.clone());
    }
    println!(
        "Ranking {} families ({} features) against pipeline_runtime with L2...\n",
        engine.family_count(),
        engine.feature_count()
    );
    let ranking = engine.rank("pipeline_runtime", &[], ScorerKind::L2).expect("ranking succeeds");
    println!("{}", report::render_ranking(&ranking));

    println!("Interpretation:");
    for (i, e) in ranking.entries.iter().enumerate().take(10) {
        let label = match sim.truth.label(&e.family) {
            explainit_workloads::Label::Cause => "CAUSE  <- disk IO pressure from the RAID check",
            explainit_workloads::Label::Effect => "effect (expected)",
            explainit_workloads::Label::Irrelevant => "irrelevant",
        };
        println!("  {:>2}. {:<28} {}", i + 1, e.family, label);
    }
    let eval = explainit_eval::evaluate_ranking(&ranking, 20, |f| match sim.truth.label(f) {
        explainit_workloads::Label::Cause => Relevance::Cause,
        explainit_workloads::Label::Effect => Relevance::Effect,
        explainit_workloads::Label::Irrelevant => Relevance::Irrelevant,
    });
    println!(
        "\nFirst cause rank: {:?} (paper: rank 3 = load average); success@10 = {}",
        eval.first_cause_rank,
        eval.success_at(10)
    );

    // Figure 9: staged intervention on the consistency-check capacity.
    println!("\nFigure 9 — intervention timeline (20% cap | disabled | 20% | 5% cap):");
    let intervention = case_studies::raid_intervention();
    let fams = intervention.families();
    let rt =
        fams.iter().find(|f| f.name == "pipeline_runtime").expect("runtime family").data.column(0);
    println!("  runtime: {}", report::sparkline(&rt, 80));
    let phase = |range: std::ops::Range<usize>| -> f64 { explainit_stats::mean(&rt[range]) };
    println!(
        "  mean runtime: default={:.1}s  disabled={:.1}s  re-enabled={:.1}s  5%-cap={:.1}s",
        phase(2..15),
        phase(16..20),
        phase(21..25),
        phase(27..40)
    );
    println!("  (paper: disabling or capping the check stabilises the runtimes)");
}
