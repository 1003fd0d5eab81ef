//! Regenerates Table 6: the five scoring methods compared across the 11
//! evaluation scenarios — per-scenario discounted gain (1/rank of first
//! cause), plus the summary block (harmonic/arithmetic mean, stdev,
//! success@{1,5,10,20}).
//!
//! Usage: `table6_report [--scale paper] [--scenarios 1,3,5]`
//!
//! Expected shape (paper): CorrMean weakest; CorrMax and L2-P50 best
//! top-1/gain; L2 and L2-P500 best top-5..20 coverage; failures ("-")
//! scattered across methods, no method dominating.

use std::time::Instant;

use explainit_bench::{engine_for_window, evaluate, fmt_gain, rank_runtime};
use explainit_core::{EngineConfig, ScorerKind};
use explainit_eval::{summarize, RankingEval};
use explainit_workloads::scenarios::{scenario_specs, Scale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--scale") && args.iter().any(|a| a == "paper") {
        Scale::Paper
    } else {
        Scale::Reduced
    };
    let wanted: Option<Vec<usize>> = args
        .iter()
        .position(|a| a == "--scenarios")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').filter_map(|p| p.parse().ok()).collect());

    println!("=== Table 6: scoring methods across the 11 incident scenarios ===");
    println!("(scale: {scale:?}; Reduced is about 1/8 of the paper's feature counts, Paper the published ones)\n");

    let scorers = ScorerKind::table6_set();
    let specs = scenario_specs(scale);
    let mut per_scorer: Vec<Vec<RankingEval>> = vec![Vec::new(); scorers.len()];

    println!(
        "{:<9} {:>9} {:>9}  {}",
        "Scenario",
        "#Families",
        "#Features",
        scorers.iter().map(|s| format!("{:>9}", s.name())).collect::<Vec<_>>().join(" ")
    );
    for spec in &specs {
        if let Some(w) = &wanted {
            if !w.contains(&spec.id) {
                continue;
            }
        }
        let t0 = Instant::now();
        let sim = spec.run();
        let engine = engine_for_window(&sim, spec.analysis_window(), EngineConfig::default());
        let mut cells = Vec::new();
        for (si, scorer) in scorers.iter().enumerate() {
            let ranking = rank_runtime(&engine, &[], *scorer);
            let eval = evaluate(&sim, &ranking);
            cells.push(format!("{:>9}", fmt_gain(eval.discounted_gain)));
            per_scorer[si].push(eval);
        }
        println!(
            "{:<9} {:>9} {:>9}  {}   [{:.1?}]",
            spec.id,
            engine.family_count(),
            engine.feature_count(),
            cells.join(" "),
            t0.elapsed()
        );
    }

    println!("\nSummary:");
    type Extract = fn(&explainit_eval::ScorerSummary) -> f64;
    let metric_rows: [(&str, Extract); 7] = [
        ("Harmonic mean (disc. gain)", |s| s.harmonic_gain),
        ("Average (discounted gain)", |s| s.mean_gain),
        ("Stdev of discounted gain", |s| s.stdev_gain),
        ("Success (%) top-1", |s| 100.0 * s.success_top1),
        ("Success (%) top-5", |s| 100.0 * s.success_top5),
        ("Success (%) top-10", |s| 100.0 * s.success_top10),
        ("Success (%) top-20", |s| 100.0 * s.success_top20),
    ];
    let summaries: Vec<explainit_eval::ScorerSummary> =
        per_scorer.iter().map(|evals| summarize(evals)).collect();
    print!("{:<28}", "");
    for s in &scorers {
        print!(" {:>9}", s.name());
    }
    println!();
    for (label, extract) in metric_rows {
        print!("{label:<28}");
        for s in &summaries {
            print!(" {:>9.3}", extract(s));
        }
        println!();
    }
    println!(
        "\nPaper reference: CorrMax & L2-P50 lead top-1 (23%); L2/L2-P500 lead top-5..20 \
         (64-82%); all reach 82% at top-20."
    );
}
