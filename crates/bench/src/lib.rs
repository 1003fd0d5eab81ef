//! Shared helpers of the paper's table and figure regenerators — the
//! eleven report binaries under `src/bin/`, and nothing else: the
//! benchmark of this repository is the `bench/` package.
//!
//! | Paper artefact | Binary |
//! |---|---|
//! | Table 2 (asymptotic cost) | `table2_report` |
//! | Table 3 (§5.1 ranking) | `table3_report` |
//! | Table 4 (§5.3 ranking) | `table4_report` |
//! | Table 5 (§5.4 ranking) | `table5_report` |
//! | Table 6 (scorer comparison) | `table6_report` |
//! | Figure 5/7/8/9 (case-study series) | embedded in the table reports |
//! | Figure 6 (runtime distributions) | `fig6_report` |
//! | Figure 10 (score time density) | `fig10_report` |
//! | Figure 12 (OLS r² null) | `fig12_report` |
//! | Figure 13 (ridge r² null) | `fig13_report` |
//! | Ridge-vs-Lasso remark (§3.5) | `ablation_report` |
//! | Related-work baselines (§7) | `baselines_report` |

#![forbid(unsafe_code)]

use std::time::Duration;

use explainit_core::{Engine, EngineConfig, Ranking, ScorerKind};
use explainit_eval::{evaluate_ranking, RankingEval, Relevance};
use explainit_workloads::{Label, SimOutput};

/// Builds an engine loaded with a simulation's by-name families — the
/// family statement (`explainit_workloads::FAMILIES_BY_METRIC`) over the
/// whole simulated range, at the data's own timestamps.
pub fn engine_for(sim: &SimOutput, config: EngineConfig) -> Engine {
    let mut engine = Engine::new(config);
    for f in sim.families() {
        engine.add_family(f);
    }
    engine
}

/// Builds an engine over a restricted analysis window (`(lo, hi)` in
/// minutes from simulation start) — the paper's Figure-2 "total time
/// range" selection the operator makes around the incident, as the family
/// statement's `timestamp BETWEEN` bound.
pub fn engine_for_window(sim: &SimOutput, window: (usize, usize), config: EngineConfig) -> Engine {
    let range = explainit_tsdb::TimeRange::new(
        sim.start_ts + window.0 as i64 * sim.step,
        sim.start_ts + window.1 as i64 * sim.step,
    );
    let mut engine = Engine::new(config);
    let families = explainit_workloads::families_by_name(&sim.db, &range)
        .expect("the window holds simulated points");
    for f in families {
        engine.add_family(f);
    }
    engine
}

/// Ranks all families against `pipeline_runtime` (the paper's target in
/// every case study) with the given scorer.
pub fn rank_runtime(engine: &Engine, condition: &[&str], scorer: ScorerKind) -> Ranking {
    engine
        .rank("pipeline_runtime", condition, scorer)
        .expect("target family exists in simulator output")
}

/// Translates simulator ground truth into eval relevance labels.
pub fn relevance_of(sim: &SimOutput, family: &str) -> Relevance {
    match sim.truth.label(family) {
        Label::Cause => Relevance::Cause,
        Label::Effect => Relevance::Effect,
        Label::Irrelevant => Relevance::Irrelevant,
    }
}

/// Evaluates a ranking against the simulation's labels at the paper's
/// top-20 cutoff.
pub fn evaluate(sim: &SimOutput, ranking: &Ranking) -> RankingEval {
    evaluate_ranking(ranking, 20, |family| relevance_of(sim, family))
}

/// Per-hypothesis timing stats for Figure 10: mean and max scoring time per
/// feature family.
pub fn time_stats(ranking: &Ranking) -> (Duration, Duration) {
    let times: Vec<Duration> =
        ranking.entries.iter().filter(|e| e.error.is_none()).map(|e| e.duration).collect();
    if times.is_empty() {
        return (Duration::ZERO, Duration::ZERO);
    }
    let total: Duration = times.iter().sum();
    let mean = total / times.len() as u32;
    let max = *times.iter().max().expect("non-empty");
    (mean, max)
}

/// Formats an optional discounted gain the way Table 6 does (`-` for
/// failures).
pub fn fmt_gain(g: Option<f64>) -> String {
    match g {
        Some(v) => format!("{v:.3}"),
        None => "-".to_string(),
    }
}

/// Renders a row of fixed-width cells.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (c, w) in cells.iter().zip(widths.iter()) {
        out.push_str(&format!("{c:>w$}  ", w = w));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use explainit_workloads::{ClusterSpec, Fault};

    fn small_sim() -> SimOutput {
        explainit_workloads::simulate(&ClusterSpec {
            minutes: 240,
            datanodes: 3,
            pipelines: 2,
            service_hosts: 3,
            noise_services: 5,
            metrics_per_noise_service: 2,
            seed: 77,
            faults: vec![Fault::PacketDrop { start_min: 100, end_min: 180, rate: 0.1 }],
            ..ClusterSpec::default()
        })
    }

    #[test]
    fn end_to_end_ranking_finds_cause() {
        let sim = small_sim();
        let engine = engine_for(&sim, EngineConfig { workers: 2, ..EngineConfig::default() });
        let ranking = rank_runtime(&engine, &[], ScorerKind::CorrMax);
        let eval = evaluate(&sim, &ranking);
        assert!(eval.success_at(20), "cause family must appear in the top 20");
    }

    #[test]
    fn time_stats_are_positive() {
        let sim = small_sim();
        let engine = engine_for(&sim, EngineConfig { workers: 1, ..EngineConfig::default() });
        let ranking = rank_runtime(&engine, &[], ScorerKind::CorrMean);
        let (mean, max) = time_stats(&ranking);
        assert!(max >= mean);
        assert!(max > Duration::ZERO);
    }

    #[test]
    fn gain_formatting() {
        assert_eq!(fmt_gain(Some(0.5)), "0.500");
        assert_eq!(fmt_gain(None), "-");
    }
}
