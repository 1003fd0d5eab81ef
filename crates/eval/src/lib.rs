//! Ranking-quality metrics and summaries for the evaluation harness (§6).
//!
//! The paper measures scorers with:
//!
//! * **Ranking accuracy / discounted gain** — `1/r` where `r` is the rank of
//!   the first true cause in the top-20 (binary relevance, Zipfian
//!   discount), with a log-discount variant (`1/log2(1+r)`) reported to
//!   behave identically;
//! * **Success@k** — 1 if any cause appears in the top-k;
//! * summaries across scenarios: arithmetic mean, harmonic mean (failures
//!   substituted with 0.001), and the standard deviation of the gain.
//!
//! This crate computes those metrics from an engine
//! [`explainit_core::Ranking`] plus a labelling function, keeping it
//! decoupled from how ground truth is produced (simulator labels here,
//! human labels in the paper). One ranking in, one evaluation out: fusing
//! several rankings (§8, future work in the paper) is not implemented.

#![forbid(unsafe_code)]

use explainit_core::Ranking;

/// Relevance of one ranked family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relevance {
    /// A true cause (binary relevance 1).
    Cause,
    /// An effect of the incident (relevance 0, but "expected").
    Effect,
    /// Irrelevant (relevance 0).
    Irrelevant,
}

/// Evaluation of a single ranking against labels.
#[derive(Debug, Clone, PartialEq)]
pub struct RankingEval {
    /// 1-based rank of the first cause within the evaluated prefix, if any.
    pub first_cause_rank: Option<usize>,
    /// `1/r` discounted gain; `None` marks the paper's "-" failures.
    pub discounted_gain: Option<f64>,
    /// `1/log2(1+r)` variant.
    pub log_discounted_gain: Option<f64>,
    /// Labels of the evaluated prefix, in rank order.
    pub labels: Vec<Relevance>,
}

impl RankingEval {
    /// Success@k: is there a cause in the top-k?
    pub fn success_at(&self, k: usize) -> bool {
        self.first_cause_rank.is_some_and(|r| r <= k)
    }

    /// The gain value used in summary statistics, substituting `fail_value`
    /// (the paper uses 0.001 for the harmonic mean) for failures.
    pub fn gain_or(&self, fail_value: f64) -> f64 {
        self.discounted_gain.unwrap_or(fail_value)
    }
}

/// Evaluates a ranking's top-`cutoff` prefix with the given labeller.
pub fn evaluate_ranking(
    ranking: &Ranking,
    cutoff: usize,
    label: impl Fn(&str) -> Relevance,
) -> RankingEval {
    let labels: Vec<Relevance> =
        ranking.entries.iter().take(cutoff).map(|e| label(&e.family)).collect();
    let first_cause_rank = labels.iter().position(|&l| l == Relevance::Cause).map(|i| i + 1);
    let discounted_gain = first_cause_rank.map(|r| 1.0 / r as f64);
    let log_discounted_gain = first_cause_rank.map(|r| 1.0 / (1.0 + r as f64).log2());
    RankingEval { first_cause_rank, discounted_gain, log_discounted_gain, labels }
}

/// Cross-scenario summary of one scorer (a column of Table 6's summary
/// block).
#[derive(Debug, Clone, PartialEq)]
pub struct ScorerSummary {
    /// Arithmetic mean of the discounted gain (failures as 0.0).
    pub mean_gain: f64,
    /// Standard deviation of the discounted gain.
    pub stdev_gain: f64,
    /// Harmonic mean with failures substituted by 0.001.
    pub harmonic_gain: f64,
    /// Fraction of scenarios with a cause at rank 1.
    pub success_top1: f64,
    /// Fraction with a cause in the top 5.
    pub success_top5: f64,
    /// Fraction with a cause in the top 10.
    pub success_top10: f64,
    /// Fraction with a cause in the top 20.
    pub success_top20: f64,
}

/// Summarises per-scenario evaluations exactly as Table 6's summary rows.
pub fn summarize(evals: &[RankingEval]) -> ScorerSummary {
    let n = evals.len().max(1) as f64;
    let gains: Vec<f64> = evals.iter().map(|e| e.discounted_gain.unwrap_or(0.0)).collect();
    let mean_gain = gains.iter().sum::<f64>() / n;
    let var = gains.iter().map(|g| (g - mean_gain) * (g - mean_gain)).sum::<f64>() / n;
    // Harmonic mean with the paper's 0.001 substitution for failures.
    let harmonic_gain = if evals.is_empty() {
        0.0
    } else {
        n / evals.iter().map(|e| 1.0 / e.gain_or(0.001)).sum::<f64>()
    };
    let frac = |k: usize| evals.iter().filter(|e| e.success_at(k)).count() as f64 / n;
    ScorerSummary {
        mean_gain,
        stdev_gain: var.sqrt(),
        harmonic_gain,
        success_top1: frac(1),
        success_top5: frac(5),
        success_top10: frac(10),
        success_top20: frac(20),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explainit_core::{Engine, EngineConfig, FeatureFamily, ScorerKind};

    fn make_ranking(order: &[&str]) -> Ranking {
        // Build a tiny engine whose ranking order we control by correlation
        // strength.
        let n = 60usize;
        let ts: Vec<i64> = (0..n as i64).collect();
        let base: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin()).collect();
        let mut e = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        e.add_family(FeatureFamily::univariate("y", ts.clone(), base.clone()));
        for (rank, name) in order.iter().enumerate() {
            // Decreasing signal-to-noise by rank.
            let w = 1.0 / (rank + 1) as f64;
            let vals: Vec<f64> = base
                .iter()
                .enumerate()
                .map(|(i, v)| w * v + (1.0 - w) * (((i * 37 + rank * 101) % 17) as f64 / 17.0))
                .collect();
            e.add_family(FeatureFamily::univariate(*name, ts.clone(), vals));
        }
        e.rank("y", &[], ScorerKind::CorrMax).unwrap()
    }

    #[test]
    fn first_cause_rank_and_gain() {
        let r = make_ranking(&["eff1", "cause1", "junk"]);
        let eval = evaluate_ranking(&r, 20, |name| match name {
            "cause1" => Relevance::Cause,
            "eff1" => Relevance::Effect,
            _ => Relevance::Irrelevant,
        });
        assert_eq!(eval.first_cause_rank, Some(2));
        assert_eq!(eval.discounted_gain, Some(0.5));
        assert!(eval.success_at(5));
        assert!(!eval.success_at(1));
    }

    #[test]
    fn no_cause_is_failure() {
        let r = make_ranking(&["a", "b"]);
        let eval = evaluate_ranking(&r, 20, |_| Relevance::Irrelevant);
        assert_eq!(eval.first_cause_rank, None);
        assert_eq!(eval.discounted_gain, None);
        assert!(!eval.success_at(20));
        assert_eq!(eval.gain_or(0.001), 0.001);
    }

    #[test]
    fn cutoff_limits_window() {
        let r = make_ranking(&["a", "b", "cause"]);
        let eval = evaluate_ranking(&r, 2, |n| {
            if n == "cause" {
                Relevance::Cause
            } else {
                Relevance::Irrelevant
            }
        });
        assert_eq!(eval.first_cause_rank, None, "cause is outside the cutoff");
    }

    #[test]
    fn summary_matches_hand_computation() {
        let evals = vec![
            RankingEval {
                first_cause_rank: Some(1),
                discounted_gain: Some(1.0),
                log_discounted_gain: Some(1.0),
                labels: vec![Relevance::Cause],
            },
            RankingEval {
                first_cause_rank: Some(4),
                discounted_gain: Some(0.25),
                log_discounted_gain: Some(1.0 / 5f64.log2()),
                labels: vec![],
            },
            RankingEval {
                first_cause_rank: None,
                discounted_gain: None,
                log_discounted_gain: None,
                labels: vec![],
            },
        ];
        let s = summarize(&evals);
        assert!((s.mean_gain - (1.25 / 3.0)).abs() < 1e-12);
        assert!((s.success_top1 - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.success_top5 - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.success_top20, 2.0 / 3.0);
        // Harmonic mean: 3 / (1/1 + 1/0.25 + 1/0.001) = 3/1005.
        assert!((s.harmonic_gain - 3.0 / 1005.0).abs() < 1e-9);
        assert!(s.stdev_gain > 0.0);
    }

    #[test]
    fn log_discount_orders_like_zipfian() {
        let r = make_ranking(&["c1", "c2", "c3"]);
        let eval_hi = evaluate_ranking(&r, 20, |n| {
            if n == "c1" {
                Relevance::Cause
            } else {
                Relevance::Irrelevant
            }
        });
        let eval_lo = evaluate_ranking(&r, 20, |n| {
            if n == "c3" {
                Relevance::Cause
            } else {
                Relevance::Irrelevant
            }
        });
        assert!(eval_hi.discounted_gain > eval_lo.discounted_gain);
        assert!(eval_hi.log_discounted_gain > eval_lo.log_discounted_gain);
    }

    #[test]
    fn empty_summary_is_zeroes() {
        let s = summarize(&[]);
        assert_eq!(s.mean_gain, 0.0);
        assert_eq!(s.success_top20, 0.0);
    }
}
