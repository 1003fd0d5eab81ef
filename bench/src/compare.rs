//! `compare A.json B.json`: judges result B (a change) against result A
//! (its parent) by the bounds `BENCHMARK.json` fixes.

use crate::json::Json;
use crate::spec::{MetricDef, Spec};
use crate::stats::{quartiles, spread};

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Improved,
    Regression,
    /// A's own spread is wider than the bound, so "no worse" cannot be
    /// told from noise: not the same as unchanged.
    Unresolved,
}

/// The share of A's median by which B is worse (negative when better),
/// and what that means under the metric's bound.
fn judge(def: &MetricDef, a: f64, a_spread: Option<f64>, b: f64) -> (f64, Verdict) {
    let bound = def.bound.unwrap_or(0.0);
    let worse = if def.higher_is_better { (a - b) / a.abs() } else { (b - a) / a.abs() };
    let verdict = if worse > bound {
        Verdict::Regression
    } else if a_spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

struct Side {
    median: f64,
    samples: Vec<f64>,
}

fn side(record: &Json, metric: &str) -> Option<Side> {
    let m = record
        .get("metrics")?
        .as_arr()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?;
    Some(Side {
        median: m.get("value")?.as_f64()?,
        samples: m.get("samples")?.as_arr().iter().filter_map(Json::as_f64).collect(),
    })
}

fn with_quartiles(side: &Side) -> String {
    match quartiles(&side.samples) {
        Some((q1, q3)) => format!("{:.6} [{q1:.6}, {q3:.6}]", side.median),
        None => format!("{:.6} [one sample]", side.median),
    }
}

fn failure_ratio(record: &Json) -> Option<(f64, f64)> {
    Some((record.get("failed")?.as_f64()?, record.get("attempted")?.as_f64()?))
}

fn load(path: &str) -> Result<Json, String> {
    Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

fn workload<'a>(result: &'a Json, name: &str) -> Option<&'a Json> {
    result
        .get("workloads")?
        .as_arr()
        .iter()
        .find(|r| r.get("workload").and_then(Json::as_str) == Some(name))
}

/// Prints one row per end-to-end metric and workload. `Ok(false)` when B
/// regressed on any of them or failed a larger share of its ops.
pub fn compare(spec: &Spec, a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut passed = true;
    println!(
        "A = {a_path} (the base of every share), B = {b_path}; median [first, third quartile]"
    );
    for (name, _) in &spec.workloads {
        let (Some(ra), Some(rb)) = (workload(&a, name), workload(&b, name)) else {
            return Err(format!("{name} is missing from one of the results"));
        };
        println!("{name}");
        for def in &spec.end_to_end {
            let (Some(sa), Some(sb)) = (side(ra, &def.name), side(rb, &def.name)) else {
                return Err(format!("{name} has no {} in one of the results", def.name));
            };
            let (worse, verdict) = judge(def, sa.median, spread(&sa.samples), sb.median);
            passed &= verdict != Verdict::Regression;
            println!(
                "  {:<16} {:<6} A {:<36} B {:<36} {:+.2}% of {:.6} worse, bound {:.0}%: {}",
                def.name,
                def.unit,
                with_quartiles(&sa),
                with_quartiles(&sb),
                100.0 * worse,
                sa.median,
                100.0 * def.bound.unwrap_or(0.0),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Improved => "improved",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                },
            );
        }
        let (Some((fa, na)), Some((fb, nb))) = (failure_ratio(ra), failure_ratio(rb)) else {
            return Err(format!("{name} has no op counts in one of the results"));
        };
        let more_failed = fb / nb > fa / na;
        passed &= !more_failed;
        println!(
            "  failed ops       A {fa} of {na}, B {fb} of {nb}: {}",
            if more_failed { "REGRESSION" } else { "ok" }
        );
    }
    Ok(passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher_is_better: bool, bound: f64) -> MetricDef {
        MetricDef { name: "m".into(), unit: "s".into(), higher_is_better, bound: Some(bound) }
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let lower = def(false, 0.10);
        assert_eq!(judge(&lower, 1.0, Some(0.02), 1.05).1, Verdict::Ok);
        assert_eq!(judge(&lower, 1.0, Some(0.02), 1.11).1, Verdict::Regression);
        assert_eq!(judge(&lower, 1.0, Some(0.02), 0.80).1, Verdict::Improved);
        // Within the bound, but A's own runs spread wider than the bound.
        assert_eq!(judge(&lower, 1.0, Some(0.15), 1.05).1, Verdict::Unresolved);
        assert_eq!(judge(&lower, 1.0, Some(0.15), 0.80).1, Verdict::Unresolved);
        // A regression is one whatever the spread; one sample has none.
        assert_eq!(judge(&lower, 1.0, Some(0.15), 1.20).1, Verdict::Regression);
        assert_eq!(judge(&lower, 1.0, None, 1.05).1, Verdict::Ok);

        let higher = def(true, 0.10);
        let (worse, verdict) = judge(&higher, 100.0, None, 85.0);
        assert_eq!((worse, verdict), (0.15, Verdict::Regression));
        assert_eq!(judge(&higher, 100.0, None, 120.0).1, Verdict::Improved);
    }
}
