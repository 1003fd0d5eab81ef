//! §5.1 case study: injecting packet drops into a live system and using
//! ExplainIt! to point at the network as the root cause (Table 3 /
//! Figure 5).
//!
//! Run with: `cargo run --release --example fault_injection`

use explainit::core::Engine;
use explainit::core::{report, EngineConfig, ScorerKind};
use explainit::workloads::case_studies::{self, TARGET};

fn main() {
    // The study zooms to the incident before ranking (the paper's Figure-2
    // workflow): a 2-hour fault diluted across a whole quiet day starves
    // every scorer of signal.
    let study = case_studies::study("5.1").expect("a §5 study");
    let (w0, w1) = study.fault_window.expect("§5.1 has a fault window");
    let (a0, a1) = study.analysed;
    println!(
        "Simulated a day of cluster telemetry ({} series); injected 10% packet \
         drops during minutes {w0}..{w1}; analysing minutes {a0}..{a1}.\n",
        study.sim.db.series_count()
    );

    let runtime = study.families.iter().find(|f| f.name == TARGET).expect("runtime family");
    println!("pipeline runtime (Figure 5 — spike during the fault window):");
    println!("  {}\n", report::sparkline(&runtime.data.column(0), 96));

    let mut engine = Engine::new(EngineConfig::default());
    for f in study.families {
        engine.add_family(f);
    }
    // Score with both a univariate and the joint scorer, as an operator
    // comparing methods would.
    for scorer in [ScorerKind::CorrMax, ScorerKind::L2] {
        let ranking = engine.rank(TARGET, &study.given, scorer).expect("ranking");
        println!("--- scorer: {} ---", scorer.name());
        println!("{}", report::render_ranking(&ranking));
        println!(
            "tcp_retransmits rank: {:?} (the paper found it at rank 4)\n",
            ranking.rank_of("tcp_retransmits")
        );
    }

    // Drill down: the paper's takeaway is that runtime/latency families are
    // semantically one group; merge them and re-rank.
    let runtime_fams: Vec<String> = engine
        .family_names()
        .into_iter()
        .filter(|n| n.starts_with("pipeline_"))
        .map(str::to_string)
        .collect();
    println!(
        "Follow-up interaction: the operator groups {} pipeline families together \
         and reruns the search restricted to infrastructure metrics.",
        runtime_fams.len()
    );
    let infra: Vec<&str> = engine
        .family_names()
        .into_iter()
        .filter(|n| !n.starts_with("pipeline_") && !n.starts_with("svc_"))
        .collect();
    let ranking =
        engine.rank_in_search_space(TARGET, &study.given, &infra, ScorerKind::L2).expect("ranking");
    println!("{}", report::render_ranking(&ranking));
}
