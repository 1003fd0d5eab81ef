//! §5.1 case study: injecting packet drops into a live system and using
//! ExplainIt! to point at the network as the root cause (Table 3 /
//! Figure 5).
//!
//! Run with: `cargo run --release --example fault_injection`

use explainit::core::Engine;
use explainit::core::{report, EngineConfig, ScorerKind};
use explainit::tsdb::TimeRange;
use explainit::workloads::{case_studies, families_by_name};

fn main() {
    let sim = case_studies::packet_drop();
    let (w0, w1) = case_studies::packet_drop_window();
    println!(
        "Simulated a day of cluster telemetry ({} series); injected 10% packet \
         drops during minutes {w0}..{w1}.\n",
        sim.db.series_count()
    );

    let families = sim.families();
    let runtime = families.iter().find(|f| f.name == "pipeline_runtime").expect("runtime family");
    println!("pipeline runtime (Figure 5 — spike during the fault window):");
    println!("  {}\n", report::sparkline(&runtime.data.column(0), 96));

    // The paper's Figure-2 workflow: zoom the analysis range onto a window
    // around the incident before ranking (a 2-hour fault diluted across a
    // whole quiet day starves every scorer of signal).
    let focus = TimeRange::new(
        sim.start_ts + (w0 as i64 - 180) * 60,
        sim.start_ts + (w1 as i64 + 180) * 60,
    );
    let mut engine = Engine::new(EngineConfig::default());
    for f in families_by_name(&sim.db, &focus).expect("the window holds points") {
        engine.add_family(f);
    }
    // Score with both a univariate and the joint scorer, as an operator
    // comparing methods would.
    for scorer in [ScorerKind::CorrMax, ScorerKind::L2] {
        let ranking = engine.rank("pipeline_runtime", &[], scorer).expect("ranking");
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
    let ranking = engine
        .rank_in_search_space("pipeline_runtime", &[], &infra, ScorerKind::L2)
        .expect("ranking");
    println!("{}", report::render_ranking(&ranking));
}
