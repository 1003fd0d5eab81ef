//! Report rendering: ranking tables and prediction overlays.
//!
//! §D of the paper ("Visualisations are important"): beside the score, the
//! operator sees the target series and the model's prediction `E[Y | X, Z]`
//! overlaid (Figures 14/15), which distinguishes "explains the spike" from
//! "explains the sawtooth". Terminal-friendly ASCII renderings stand in for
//! the web UI.

use std::borrow::Cow;

use explainit_ml::RidgeModel;

use crate::engine::{Engine, Ranking};
use crate::family::FeatureFamily;
use crate::scorers::residualize;
use crate::{CoreError, Result};

/// The data behind a Figure-14/15 style overlay: observed target vs the
/// model's conditional prediction.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Shared timestamps.
    pub timestamps: Vec<i64>,
    /// Observed target (first feature of Y; residualised when Z given).
    pub observed: Vec<f64>,
    /// Predicted target `E[Y | X]` (or `E[RY;Z | RX;Z]` when conditioned).
    pub predicted: Vec<f64>,
    /// True when the series are residuals after conditioning on Z.
    pub conditioned: bool,
}

impl Explanation {
    /// Renders a two-row ASCII sparkline overlay (`height` character rows
    /// per series).
    pub fn render_ascii(&self, width: usize) -> String {
        let mut out = String::new();
        out.push_str("observed : ");
        out.push_str(&sparkline(&self.observed, width));
        out.push('\n');
        out.push_str("predicted: ");
        out.push_str(&sparkline(&self.predicted, width));
        out.push('\n');
        out
    }
}

/// Builds the prediction overlay for one `(X, Y, Z)` triple by refitting
/// the ridge model on the aligned data.
pub fn explain(
    engine: &Engine,
    target: &str,
    candidate: &str,
    condition: &[&str],
    lambda: f64,
) -> Result<Explanation> {
    let y_fam =
        engine.family(target).ok_or_else(|| CoreError::UnknownFamily(target.to_string()))?;
    let x_fam =
        engine.family(candidate).ok_or_else(|| CoreError::UnknownFamily(candidate.to_string()))?;
    let mut ts = x_fam.shared_timestamps(&y_fam.timestamps);
    let mut z_fams = Vec::new();
    for c in condition {
        let zf = engine.family(c).ok_or_else(|| CoreError::UnknownFamily(c.to_string()))?;
        ts = zf.shared_timestamps(&ts);
        z_fams.push(zf);
    }
    if ts.len() < 4 {
        return Err(CoreError::InsufficientOverlap { rows: ts.len(), needed: 4 });
    }
    let x = x_fam.rows_at(&ts);
    let y = y_fam.rows_at(&ts).select_columns(&[0]);
    let (x_eff, y_eff, conditioned) = match FeatureFamily::hcat_rows_at(z_fams, &ts)? {
        None => (x, y, false),
        Some(z) => (Cow::Owned(residualize(&x, &z)?), residualize(&y, &z)?, true),
    };
    let model =
        RidgeModel::fit(&x_eff, &y_eff, lambda).map_err(|e| CoreError::Model(e.to_string()))?;
    let pred = model.predict(&x_eff);
    Ok(Explanation {
        timestamps: ts,
        observed: y_eff.column(0),
        predicted: pred.column(0),
        conditioned,
    })
}

/// Renders a ranking as a text table mirroring the paper's Tables 3–5
/// (rank, feature family, score, p-value).
pub fn render_ranking(ranking: &Ranking) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Target: {}   Scorer: {}   Conditioned on: {}\n",
        ranking.target,
        ranking.scorer.name(),
        if ranking.conditioned_on.is_empty() {
            "-".to_string()
        } else {
            ranking.conditioned_on.join(", ")
        }
    ));
    out.push_str(&format!(
        "Scored {} hypotheses in {:.2?} ({:.2?} preparing the shared plan)\n",
        ranking.hypotheses_scored, ranking.elapsed, ranking.prepared
    ));
    out.push_str(&format!(
        "{:<5} {:<42} {:>7} {:>10} {:>9} {:>8}\n",
        "Rank", "Feature Family", "Score", "p-value", "Features", "Time"
    ));
    for (i, e) in ranking.entries.iter().enumerate() {
        match &e.error {
            None => out.push_str(&format!(
                "{:<5} {:<42} {:>7.3} {:>10.2e} {:>9} {:>7.0?}\n",
                i + 1,
                truncate(&e.family, 42),
                e.score,
                e.p_value,
                e.family_width,
                e.duration
            )),
            Some(err) => out.push_str(&format!(
                "{:<5} {:<42} {:>7} {:>10} {:>9} (error: {})\n",
                i + 1,
                truncate(&e.family, 42),
                "-",
                "-",
                e.family_width,
                err
            )),
        }
    }
    out
}

/// Unicode sparkline of a series resampled to `width` buckets.
pub fn sparkline(values: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return "·".repeat(width);
    }
    let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    let buckets = width.min(values.len()).max(1);
    let per = values.len() as f64 / buckets as f64;
    let mut out = String::with_capacity(buckets * 3);
    for b in 0..buckets {
        let start = (b as f64 * per) as usize;
        let end = (((b + 1) as f64 * per) as usize).min(values.len()).max(start + 1);
        let window = &values[start..end];
        let mean: f64 =
            window.iter().filter(|v| v.is_finite()).sum::<f64>() / window.len().max(1) as f64;
        let idx = (((mean - lo) / span) * 7.0).round().clamp(0.0, 7.0) as usize;
        out.push(BARS[idx]);
    }
    out
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::family::FeatureFamily;
    use crate::scorers::ScorerKind;

    fn engine() -> Engine {
        let n = 120usize;
        let ts: Vec<i64> = (0..n as i64).collect();
        let cause: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let target: Vec<f64> = cause.iter().map(|v| 2.0 * v + 1.0).collect();
        let mut e = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        e.add_family(FeatureFamily::univariate("y", ts.clone(), target));
        e.add_family(FeatureFamily::univariate("x", ts.clone(), cause));
        e.add_family(FeatureFamily::univariate(
            "z",
            ts,
            (0..n).map(|i| (i * 31 % 17) as f64).collect(),
        ));
        e
    }

    #[test]
    fn explanation_tracks_target() {
        let e = engine();
        let ex = explain(&e, "y", "x", &[], 1e-6).unwrap();
        assert!(!ex.conditioned);
        let err: f64 =
            ex.observed.iter().zip(ex.predicted.iter()).map(|(a, b)| (a - b).abs()).sum::<f64>()
                / ex.observed.len() as f64;
        assert!(err < 0.05, "mean abs err {err}");
    }

    #[test]
    fn conditioned_explanation_uses_residuals() {
        let e = engine();
        let ex = explain(&e, "y", "x", &["z"], 1e-6).unwrap();
        assert!(ex.conditioned);
        // Residualised observed has ~zero mean.
        let mean: f64 = ex.observed.iter().sum::<f64>() / ex.observed.len() as f64;
        assert!(mean.abs() < 1e-6);
    }

    #[test]
    fn unknown_names_error() {
        let e = engine();
        assert!(explain(&e, "nope", "x", &[], 1.0).is_err());
        assert!(explain(&e, "y", "nope", &[], 1.0).is_err());
        assert!(explain(&e, "y", "x", &["nope"], 1.0).is_err());
    }

    #[test]
    fn ranking_renders() {
        let e = engine();
        let r = e.rank("y", &[], ScorerKind::CorrMax).unwrap();
        let text = render_ranking(&r);
        assert!(text.contains("Feature Family"));
        assert!(text.contains("x"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn sparkline_shapes() {
        let rising: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let s = sparkline(&rising, 8);
        assert_eq!(s.chars().count(), 8);
        let first = s.chars().next().unwrap();
        let last = s.chars().last().unwrap();
        assert!(first < last, "rising series should end higher: {s}");
        assert_eq!(sparkline(&[], 8), "");
        assert_eq!(sparkline(&[f64::NAN], 4), "····");
        // Constant series renders uniformly.
        let flat = sparkline(&[5.0; 16], 4);
        assert!(flat.chars().all(|c| c == flat.chars().next().unwrap()));
    }

    #[test]
    fn explanation_ascii_render() {
        let e = engine();
        let ex = explain(&e, "y", "x", &[], 1e-6).unwrap();
        let text = ex.render_ascii(20);
        assert!(text.contains("observed"));
        assert!(text.contains("predicted"));
    }
}
