//! Quickstart: the three-step ExplainIt! workflow (§1, Figure 11).
//!
//! 1. select a target metric (SQL over the TSDB),
//! 2. declare the hypothesis search space (group metrics into families),
//! 3. review the candidate causes ranked by predictability.
//!
//! Run with: `cargo run --release --example quickstart`

use explainit::core::{report, Engine, EngineConfig, ScorerKind};
use explainit::query::{pivot_long, Catalog};
use explainit::workloads::{simulate, ClusterSpec, Fault};

fn main() {
    // A small simulated cluster with an injected packet-drop incident.
    let sim = simulate(&ClusterSpec {
        minutes: 480,
        datanodes: 4,
        pipelines: 2,
        service_hosts: 3,
        noise_services: 8,
        metrics_per_noise_service: 3,
        seed: 7,
        faults: vec![Fault::PacketDrop { start_min: 200, end_min: 280, rate: 0.1 }],
        ..ClusterSpec::default()
    });
    let range = sim.time_range();

    // ---- Step 1: select the target metric with SQL -------------------------
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &sim.db);
    let target_sql = format!(
        "SELECT timestamp, metric_name, tag['pipeline_name'] AS feature, AVG(value) AS v \
         FROM tsdb WHERE metric_name = 'pipeline_runtime' \
         AND timestamp BETWEEN {} AND {} \
         GROUP BY timestamp, metric_name, tag['pipeline_name'] ORDER BY timestamp ASC",
        range.start, range.end
    );
    println!("Step 1 — target metric query:\n  {target_sql}\n");
    let target_table = catalog.execute(&target_sql).expect("target query");
    let target_frames =
        pivot_long(&target_table, "timestamp", "metric_name", "feature", "v").expect("pivot");
    println!(
        "  -> family '{}' with {} features x {} minutes\n",
        target_frames[0].name,
        target_frames[0].width(),
        target_frames[0].len()
    );

    // ---- Step 2: declare the search space -----------------------------------
    // Group every metric in the system by its name (the paper's default).
    let search_sql = format!(
        "SELECT timestamp, metric_name, CONCAT(tag['host'], tag['pipeline_name']) AS feature, \
         AVG(value) AS v FROM tsdb \
         WHERE timestamp BETWEEN {} AND {} \
         GROUP BY timestamp, metric_name, CONCAT(tag['host'], tag['pipeline_name']) \
         ORDER BY timestamp ASC",
        range.start, range.end
    );
    println!("Step 2 — search space query (group by metric name):\n  {search_sql}\n");
    let table = catalog.execute(&search_sql).expect("search query");
    let frames = pivot_long(&table, "timestamp", "metric_name", "feature", "v").expect("pivot");
    println!("  -> {} candidate feature families\n", frames.len());

    // ---- Step 3: rank hypotheses --------------------------------------------
    let mut engine = Engine::new(EngineConfig::default());
    engine.add_frames_owned(frames);
    let ranking = engine.rank("pipeline_runtime", &[], ScorerKind::L2).expect("ranking");
    println!("Step 3 — candidate causes, ranked:\n");
    println!("{}", report::render_ranking(&ranking));
    println!(
        "Ground truth: the injected fault drives 'tcp_retransmits' \
         (ranked {:?} here).",
        ranking.rank_of("tcp_retransmits")
    );
}
