//! The benchmark's definition, read from the `BENCHMARK.json` compiled
//! into the binary: what `run` must emit and what `compare` judges by.

use crate::json::{is_metric_name, Json};

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// True when a larger value is the better one.
    pub higher_is_better: bool,
    /// Share of the parent's median a change may worsen the metric by;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    pub fn load() -> Spec {
        Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let text_of = |item: &Json, key: &str| {
            item.get(key).and_then(Json::as_str).map(str::to_string).ok_or(format!("no {key}"))
        };
        let name_of = |item: &Json| {
            text_of(item, "name").and_then(|n| {
                if is_metric_name(&n) {
                    Ok(n)
                } else {
                    Err(format!("bad name: {n}"))
                }
            })
        };
        let metrics = |key: &str| {
            doc.get(key)
                .ok_or(format!("no {key}"))?
                .as_arr()
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: name_of(m)?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect::<Result<Vec<_>, String>>()
        };
        Ok(Spec {
            run_seconds: doc.get("run_seconds").and_then(Json::as_f64).ok_or("no run_seconds")?,
            workloads: doc
                .get("workloads")
                .ok_or("no workloads")?
                .as_arr()
                .iter()
                .map(|w| Ok((name_of(w)?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let spec = Spec::load();
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(spec.end_to_end.iter().chain(&spec.per_layer).map(|m| m.name.as_str()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (name, why) in &spec.workloads {
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        for m in &spec.end_to_end {
            assert!(m.bound.is_some_and(|b| (0.0..=0.25).contains(&b)), "{}", m.name);
        }
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let largest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s takes the largest bound");
    }
}
