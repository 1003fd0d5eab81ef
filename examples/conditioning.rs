//! §5.2 case study: disentangling multiple sources of variation by
//! conditioning on the observed input load (Figures 6, 14, 15).
//!
//! The hypervisor drops packets under load, so *everything* load-driven
//! correlates with runtime; conditioning on the input size removes the
//! understood variation and surfaces the network-stack cause.
//!
//! Run with: `cargo run --release --example conditioning`

use explainit::core::report::{explain, render_ranking};
use explainit::core::{Engine, EngineConfig};
use explainit::stats::mean;
use explainit::workloads::case_studies::{self, SCORER, TARGET};
use explainit::workloads::SimOutput;

fn main() {
    let study = case_studies::study("5.2").expect("a §5 study");
    let mut engine = Engine::new(EngineConfig::default());
    for f in study.families {
        engine.add_family(f);
    }

    println!("Unconditioned global search (everything load-driven scores high):\n");
    let global = engine.rank(TARGET, &[], SCORER).expect("ranking");
    println!("{}", render_ranking(&global));

    println!("Conditioned on {} (§3.4):\n", study.given.join(", "));
    let conditioned = engine.rank(TARGET, &study.given, SCORER).expect("ranking");
    println!("{}", render_ranking(&conditioned));
    println!(
        "tcp_retransmits: rank {:?} unconditioned -> {:?} conditioned\n",
        global.rank_of("tcp_retransmits"),
        conditioned.rank_of("tcp_retransmits")
    );

    // Figures 14/15: overlay of the (residualised) target and E[Y | X, Z].
    println!("Figure 15 — residual runtime vs prediction from tcp_retransmits | input:");
    let overlay = explain(&engine, TARGET, "tcp_retransmits", &study.given, 1.0).expect("overlay");
    println!("{}", overlay.render_ascii(96));

    // Figure 6: effect of the fix.
    let rt = |sim: &SimOutput| {
        sim.families().into_iter().find(|f| f.name == TARGET).expect("runtime").data.column(0)
    };
    let (_, after) = case_studies::hypervisor();
    let b = rt(&study.sim);
    let a = rt(&after);
    println!(
        "After the buffer fix: mean runtime {:.1}s -> {:.1}s ({:.1}% improvement; paper ~10%)",
        mean(&b),
        mean(&a),
        100.0 * (1.0 - mean(&a) / mean(&b))
    );
}
