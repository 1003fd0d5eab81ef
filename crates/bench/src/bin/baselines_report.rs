//! Related-work baseline comparison (§7 of the paper):
//!
//! 1. **PC skeleton discovery** (Spirtes et al.) — full structure learning
//!    over a subsystem, counting CI tests, versus ExplainIt!'s targeted
//!    hypothesis set on the same variables;
//! 2. **Vanishing-correlation ranking** (Chen et al. / Cheng et al.) — rank
//!    by how much pairwise invariants weaken in the anomaly window; the
//!    paper's critique is that in their environment "existing correlations
//!    among variables do not weaken sufficiently".

use explainit_causal::{pc_skeleton, PcConfig};
use explainit_core::baselines::vanishing_correlation_rank;
use explainit_core::{Engine, EngineConfig, ScorerKind};
use explainit_linalg::Matrix;
use explainit_workloads::{simulate, ClusterSpec, Fault};

fn main() {
    let sim = simulate(&ClusterSpec {
        minutes: 480,
        datanodes: 4,
        pipelines: 2,
        service_hosts: 3,
        noise_services: 6,
        metrics_per_noise_service: 2,
        seed: 404,
        faults: vec![Fault::PacketDrop { start_min: 240, end_min: 360, rate: 0.1 }],
        ..ClusterSpec::default()
    });
    let families = sim.families();

    // ---- 1. PC vs targeted hypotheses ---------------------------------------
    println!("=== Baseline 1: PC structure learning vs targeted hypotheses (§3.3/§7) ===\n");
    // Restrict PC to one representative column per family (full PC over
    // hundreds of columns is exactly the blow-up the paper avoids).
    let subsystem: Vec<&str> = vec![
        "pipeline_runtime",
        "pipeline_input_rate",
        "tcp_retransmits",
        "disk_read_latency",
        "namenode_rpc_latency",
        "cpu_usage",
        "svc_000_metric_0",
    ];
    let cols: Vec<Vec<f64>> = subsystem
        .iter()
        .map(|name| {
            families.iter().find(|f| f.name == *name).expect("family exists").data.column(0)
        })
        .collect();
    let data = Matrix::from_columns(&cols);
    let skel = pc_skeleton(&data, &PcConfig::default());
    println!("PC skeleton over {} variables:", subsystem.len());
    for (i, j) in skel.edges() {
        println!("  {} — {}", subsystem[i], subsystem[j]);
    }
    println!("  CI tests run: {} (grows combinatorially with subsystem size)\n", skel.tests_run);
    let mut engine = Engine::new(EngineConfig::default());
    for f in &families {
        engine.add_family(f.clone());
    }
    let ranking = engine.rank("pipeline_runtime", &[], ScorerKind::L2).expect("ranking");
    println!(
        "ExplainIt!: {} hypotheses scored for the same question ('what explains \
         runtime?') across ALL {} families — one score per family, no structure \
         search. tcp_retransmits rank: {:?}\n",
        ranking.hypotheses_scored,
        engine.family_count(),
        ranking.rank_of("tcp_retransmits")
    );

    // ---- 2. Vanishing correlations -------------------------------------------
    println!("=== Baseline 2: vanishing-correlation ranking (§7) ===\n");
    let vanishing = vanishing_correlation_rank(&families, "pipeline_runtime", (0, 240), (240, 360))
        .expect("baseline runs");
    println!("Top 8 by correlation drop (reference 0-240 vs anomaly 240-360):");
    for v in vanishing.iter().take(8) {
        println!(
            "  {:<24} drop {:.3} (ref {:.2} -> anomaly {:.2})",
            v.family, v.drop, v.reference_corr, v.anomaly_corr
        );
    }
    let pos = vanishing.iter().position(|v| v.family == "tcp_retransmits").map(|i| i + 1);
    println!(
        "\ntcp_retransmits rank under vanishing-correlation: {pos:?} \
         (ExplainIt! L2: {:?})",
        ranking.rank_of("tcp_retransmits")
    );
    println!(
        "Reading: the injected fault *strengthens* the retransmit-runtime coupling \
         rather than weakening an invariant, so the vanishing-correlation signal \
         points elsewhere — the paper's argument for dependence-strength ranking."
    );
}
