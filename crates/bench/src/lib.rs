//! Shared harness code for the table/figure report binaries and criterion
//! benches.
//!
//! Every table and figure of the paper's evaluation has a regenerator:
//!
//! | Paper artefact | Binary / bench |
//! |---|---|
//! | Table 2 (asymptotic cost) | `table2_report`, `benches/table2_cost` |
//! | Table 3 (§5.1 ranking) | `table3_report` |
//! | Table 4 (§5.3 ranking) | `table4_report` |
//! | Table 5 (§5.4 ranking) | `table5_report` |
//! | Table 6 (scorer comparison) | `table6_report` |
//! | Figure 5/7/8/9 (case-study series) | embedded in the table reports |
//! | Figure 6 (runtime distributions) | `fig6_report` |
//! | Figure 10 (score time density) | `fig10_report`, `benches/fig10_score_time` |
//! | Figure 12 (OLS r² null) | `fig12_report` |
//! | Figure 13 (ridge r² null) | `fig13_report` |
//! | Ridge-vs-Lasso remark (§3.5) | `ablation_report` |

#![forbid(unsafe_code)]

use std::time::Duration;

use explainit_core::{Engine, EngineConfig, Ranking, ScorerKind};
use explainit_eval::{evaluate_ranking, RankingEval, Relevance};
use explainit_workloads::{Label, SimOutput};

/// Builds an engine loaded with a simulation's by-name families.
pub fn engine_for(sim: &SimOutput, config: EngineConfig) -> Engine {
    let mut engine = Engine::new(config);
    for f in sim.families() {
        engine.add_family(f);
    }
    engine
}

/// Builds an engine over a restricted analysis window (`(lo, hi)` in
/// minutes from simulation start) — the paper's Figure-2 "total time
/// range" selection the operator makes around the incident.
pub fn engine_for_window(sim: &SimOutput, window: (usize, usize), config: EngineConfig) -> Engine {
    let range = explainit_tsdb::TimeRange::new(
        sim.start_ts + window.0 as i64 * sim.step,
        sim.start_ts + window.1 as i64 * sim.step,
    );
    let mut engine = Engine::new(config);
    for f in explainit_workloads::families_by_name(&sim.db, &range, sim.step) {
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

/// A pathologically skewed fleet for the query-layer sweeps: one hot
/// `disk` series holds `fleet * points` observations (think one chatty
/// host scraping at 100x the fleet interval) while the remaining
/// `fleet - 1` series carry 8 points each. Series-count morsels would
/// hand ~everything to a single worker; the executor's point-balanced
/// split cuts the hot series itself, so the skewed partition sweep in
/// `parallel_scaling` genuinely engages >1 worker.
pub fn build_skewed_db(fleet: usize, points: usize) -> explainit_tsdb::Tsdb {
    use explainit_tsdb::{SeriesKey, Tsdb};
    let mut db = Tsdb::new();
    let hot = SeriesKey::new("disk").with_tag("host", "host-hot").with_tag("grp", "g0");
    for t in 0..(fleet * points) {
        db.insert(&hot, t as i64, (t % 997) as f64 * 0.1);
    }
    for s in 0..fleet.saturating_sub(1) {
        let key = SeriesKey::new("disk")
            .with_tag("host", format!("host-{s}"))
            .with_tag("grp", format!("g{}", s % 8));
        for t in 0..8 {
            db.insert(&key, t as i64 * 60, t as f64);
        }
    }
    db
}

/// Typed-minicolumn kernels vs their Value-at-a-time equivalents, shared
/// by `benches/kernels.rs` and the `bench_report` bin so both time the
/// same code. The boxed side replays the engine's retained
/// Value-at-a-time strategy (still present as the general fallback in
/// the executor): pull each row out of a [`Column`] as a boxed
/// [`Value`], compare with `sql_cmp` / accumulate with a scratch
/// argument vector through `AggAcc::push`.
pub mod kernel_baselines {
    use explainit_query::kernel::{self, ArithOp, CmpOp};
    use explainit_query::{AggAcc, Column, Value};
    use std::cmp::Ordering;

    /// Deterministic f64 column: values cycle a prime modulus so
    /// comparisons select ~half the rows and sums stay finite.
    pub fn floats(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i.wrapping_mul(2_654_435_761) % 1997) as f64 * 0.5 - 499.0).collect()
    }

    /// Deterministic i64 column over the same cycle.
    pub fn ints(n: usize) -> Vec<i64> {
        (0..n).map(|i| (i.wrapping_mul(2_654_435_761) % 1997) as i64 - 998).collect()
    }

    /// Value-at-a-time compare: box each row out of the column, `sql_cmp`
    /// against the constant, count the kept rows.
    pub fn boxed_cmp(col: &Column, k: f64) -> usize {
        let kv = Value::Float(k);
        (0..col.len()).filter(|&i| col.get(i).sql_cmp(&kv) == Some(Ordering::Greater)).count()
    }

    /// Typed compare: branch-free selection refinement over the raw slice.
    pub fn typed_f64_cmp(vals: &[f64], k: f64, sel: &mut Vec<u32>) -> usize {
        sel.clear();
        sel.extend(0..vals.len() as u32);
        kernel::refine_f64_cmp(CmpOp::Gt, vals, None, k, sel);
        sel.len()
    }

    /// Typed mixed Int/Float compare: the constant compiles once into an
    /// integer threshold test; the loop never touches floats.
    pub fn typed_i64_cmp(vals: &[i64], k: f64, sel: &mut Vec<u32>) -> usize {
        sel.clear();
        sel.extend(0..vals.len() as u32);
        kernel::refine_i64_test(kernel::compile_i64_cmp(CmpOp::Gt, k), vals, None, sel);
        sel.len()
    }

    /// Value-at-a-time arithmetic: box each row, unbox, multiply, rebox.
    pub fn boxed_arith(col: &Column, k: f64) -> Vec<Value> {
        let kv = Value::Float(k);
        (0..col.len())
            .map(|i| match (col.get(i).as_f64(), kv.as_f64()) {
                (Some(a), Some(b)) => Value::Float(a * b),
                _ => Value::Null,
            })
            .collect()
    }

    /// Typed arithmetic: one multiply per lane over the raw slice.
    pub fn typed_f64_arith(vals: &[f64], k: f64) -> Vec<f64> {
        kernel::f64_arith_const(ArithOp::Mul, vals, k, false)
    }

    /// Value-at-a-time aggregate: one boxed row through a scratch
    /// argument vector per element — the executor's retained scratch
    /// loop.
    pub fn boxed_fold(name: &str, col: &Column) -> Value {
        let mut acc = AggAcc::new(name).expect("known aggregate");
        let mut scratch: Vec<Value> = Vec::with_capacity(1);
        for i in 0..col.len() {
            scratch.clear();
            scratch.push(col.get(i));
            acc.push(&scratch).expect("single-arg push");
        }
        acc.finish().expect("finishes")
    }

    /// Typed aggregate: fold the (slice, selection, validity) triple.
    pub fn typed_fold(name: &str, vals: &[f64]) -> Value {
        let mut acc = AggAcc::new(name).expect("known aggregate");
        acc.fold_f64s(vals, 0..vals.len(), None);
        acc.finish().expect("finishes")
    }
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
