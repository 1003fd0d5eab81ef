//! `run`: one workload measured in this process, or every workload, each
//! in a child process of its own so that the memory peak is per workload.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::spec::Spec;
use crate::stats::{median, tail};
use crate::trace::{spans_json, unit_self_seconds, Span, Tracer};
use crate::workloads::{self, Counts, Workload};

pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run exactly this many ops instead of measuring for `seconds`.
    pub ops: Option<usize>,
    pub data_dir: PathBuf,
}

/// Records, traces and results go here, relative to the working directory
/// (the root of the checkout).
pub const OUT_DIR: &str = "bench/out";

/// Set-up is short and does not repeat within a tenth, so each run sets
/// up this many times and reports the median.
const SETUPS: usize = 3;
/// A run on a slow machine still measures this many ops.
const MIN_OPS: usize = 3;

/// A metric's reported value and the samples it is the median of.
struct Measured {
    value: f64,
    samples: Vec<f64>,
}

impl Measured {
    fn of(samples: Vec<f64>) -> Measured {
        Measured { value: median(&samples), samples }
    }

    fn exact(value: f64) -> Measured {
        Measured { value, samples: vec![value] }
    }
}

fn record_path(workload: &str, trace: bool) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{}-{workload}.json", if trace { "trace" } else { "run" }))
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Per name, the value of each unit (an op, or a set-up when negative)
/// that reported it: op units when any op did, otherwise set-up units. A
/// layer call made in both is reported for the ops.
fn unit_samples(reports: impl Iterator<Item = (i64, String, f64)>) -> BTreeMap<String, Vec<f64>> {
    let mut by_name: BTreeMap<String, Vec<(i64, f64)>> = BTreeMap::new();
    for (unit, name, value) in reports {
        by_name.entry(name).or_default().push((unit, value));
    }
    by_name
        .into_iter()
        .map(|(name, units)| {
            let in_ops = units.iter().any(|&(unit, _)| unit >= 0);
            let kept = units.into_iter().filter(|&(unit, _)| (unit >= 0) == in_ops);
            (name, kept.map(|(_, value)| value).collect())
        })
        .collect()
}

/// Measures one workload in this process and prints the result line.
pub fn run_one(spec: &Spec, args: &RunArgs, name: &str) -> Result<(), String> {
    let dir = args.data_dir.join(format!("{name}-{}", std::process::id()));
    let mut workload: Box<dyn Workload> = workloads::build(name, args.seed, dir.clone())
        .ok_or_else(|| format!("unknown workload: {name}"))?;
    let outcome = measure(workload.as_mut(), args);
    let _ = std::fs::remove_dir_all(&dir);
    let run = outcome?;

    let defs = if args.trace { &spec.per_layer } else { &spec.end_to_end };
    // A layer the workload does not enter reports nothing for it.
    let absent = Measured { value: 0.0, samples: Vec::new() };
    let mut result_metrics = Vec::new();
    let mut record_metrics = Vec::new();
    for def in defs {
        let m = match run.values.get(def.name.as_str()) {
            Some(m) if m.value.is_finite() => m,
            None if args.trace => &absent,
            _ => return Err(format!("{name} did not measure {}", def.name)),
        };
        let unit = Json::str(def.unit.as_str());
        result_metrics.push((
            def.name.clone(),
            Json::obj([("value", Json::Num(m.value)), ("unit", unit.clone())]),
        ));
        record_metrics.push(Json::obj([
            ("name", Json::str(def.name.as_str())),
            ("unit", unit),
            ("better", Json::str(if def.higher_is_better { "higher" } else { "lower" })),
            ("bound", def.bound.map_or(Json::Null, Json::Num)),
            ("value", Json::Num(m.value)),
            ("samples", Json::Arr(m.samples.iter().copied().map(Json::Num).collect())),
        ]));
    }
    let verdict = [
        ("correct", Json::Bool(run.failed == 0)),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(run.failed as f64)),
    ];
    let mut record = vec![
        ("workload", Json::str(name)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
    ];
    record.extend(verdict.iter().cloned());
    record.push(("metrics", Json::Arr(record_metrics)));
    if args.trace {
        record.push(("spans", spans_json(&run.spans)));
        record.push(("counts", counts_json(&run.counts)));
    } else {
        // Reported with the untraced run but not gated: the tail does not
        // repeat within a tenth on a shared two-core machine.
        let diagnostics =
            DIAGNOSTICS.iter().filter_map(|&d| Some((d, Json::Num(run.values.get(d)?.value))));
        record.push(("diagnostics", Json::obj(diagnostics)));
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    std::fs::write(record_path(name, args.trace), Json::obj(record).render() + "\n")
        .map_err(|e| e.to_string())?;

    let result = verdict.into_iter().chain([("metrics", Json::Obj(result_metrics))]);
    println!("{}", Json::obj(result).render());
    Ok(())
}

const DIAGNOSTICS: [&str; 5] = [
    "session.op_s_tail",
    "session.tail_pct",
    "session.samples",
    "session.ranking_crc32",
    "core.causes_in_top10",
];

fn counts_json(counts: &[(i64, &'static str, f64)]) -> Json {
    let mut by_unit: BTreeMap<i64, Vec<(&str, Json)>> = BTreeMap::new();
    for &(unit, name, value) in counts {
        by_unit.entry(unit).or_default().push((name, Json::Num(value)));
    }
    Json::Arr(
        by_unit
            .into_iter()
            .map(|(unit, fields)| {
                Json::obj(std::iter::once(("op", Json::Num(unit as f64))).chain(fields))
            })
            .collect(),
    )
}

struct Run {
    attempted: usize,
    failed: usize,
    values: BTreeMap<String, Measured>,
    spans: Vec<Span>,
    counts: Vec<(i64, &'static str, f64)>,
}

fn measure(workload: &mut dyn Workload, args: &RunArgs) -> Result<Run, String> {
    let mut tracer = Tracer::new(args.trace);
    let mut off = Tracer::new(false);
    let mut counts: Vec<(i64, &'static str, f64)> = Vec::new();
    let mut keep =
        |unit: i64, new: Counts| counts.extend(new.into_iter().map(|(n, v)| (unit, n, v)));

    let mut setup_s = Vec::new();
    for i in 1..=SETUPS as i64 {
        tracer.set_unit(-i);
        let started = Instant::now();
        let new = tracer.span("setup", |t| workload.set_up(t))?;
        setup_s.push(started.elapsed().as_secs_f64());
        keep(-i, new);
    }

    let (mut op_s, mut trace_extra) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while match args.ops {
        Some(ops) => attempted < ops,
        None => attempted < MIN_OPS || Instant::now() < deadline,
    } {
        let unit = attempted as i64;
        tracer.set_unit(unit);
        attempted += 1;
        // End-to-end numbers always come from this untraced op. A traced
        // run repeats it inside spans, then once more layer by layer.
        let outcome = workload.op(&mut off).and_then(|plain| {
            op_s.push(plain.seconds);
            if !args.trace {
                return Ok(plain.counts);
            }
            let traced = tracer.span("op", |t| workload.op(t))?;
            // Paired: an op and its traced repeat run back to back, so a
            // shift in the machine's speed mostly cancels within the pair.
            trace_extra.push(traced.seconds / plain.seconds - 1.0);
            let mut new = traced.counts;
            new.extend(tracer.span("decomposed", |t| workload.decomposed(t))?);
            Ok(new)
        });
        match outcome {
            Ok(new) => keep(unit, new),
            Err(why) => {
                eprintln!("op {unit} failed: {why}");
                failed += 1;
            }
        }
    }

    let peak_rss_mb = peak_rss_mib()?;
    match workload.verify_reference() {
        Ok(new) => keep(0, new),
        Err(why) => {
            eprintln!("every op failed: {why}");
            failed = attempted;
        }
    }

    let spans = tracer.into_spans();
    let counted = counts.iter().map(|&(unit, name, value)| (unit, name.to_string(), value));
    let timed =
        unit_self_seconds(&spans).into_iter().map(|(u, name, s)| (u, format!("{name}_s"), s));
    let mut values: BTreeMap<String, Measured> = unit_samples(counted.chain(timed))
        .into_iter()
        .map(|(name, samples)| (name, Measured::of(samples)))
        .collect();
    if let Some((value, pct)) = tail(&op_s) {
        values.insert("session.op_s_tail".into(), Measured::exact(value));
        values.insert("session.tail_pct".into(), Measured::exact(pct));
    }
    values.insert("session.samples".into(), Measured::exact(op_s.len() as f64));
    values.insert("peak_rss_mb".into(), Measured::exact(peak_rss_mb));
    values.insert("setup_s".into(), Measured::of(setup_s));
    if !trace_extra.is_empty() {
        values.insert("trace.overhead_pct".into(), Measured::exact(100.0 * median(&trace_extra)));
    }
    // The denominator for a traced run's shares: its own untraced ops.
    values.insert("session.op_s".into(), Measured::exact(median(&op_s)));
    values.insert("op_s_p50".into(), Measured::of(op_s));

    let get = |name: &str| values.get(name).map(|m| m.value);
    let sum = |names: &[&str]| names.iter().map(|n| get(n)).sum::<Option<f64>>();
    let mut derived = Vec::new();
    // What `CREATE FAMILY` spends outside the three layer calls it makes.
    if let (Some(whole), Some(parts)) = (
        get("session.create_family_s"),
        sum(&["query.stage1_s", "query.pivot_s", "core.register_s"]),
    ) {
        derived.push(("session.glue_s", whole - parts));
    }
    if let (Some(points), Some(s)) = (get("points"), sum(&["tsdb.ingest_s", "tsdb.flush_s"])) {
        derived.push(("tsdb.ingest_points_per_s", points / s));
    }
    if let (Some(points), Some(s)) = (get("points"), sum(&["tsdb.open_s", "tsdb.scan_cold_s"])) {
        derived.push(("tsdb.scan_points_per_s", points / s));
    }
    for (name, value) in derived {
        values.insert(name.to_string(), Measured::exact(value));
    }
    Ok(Run { attempted, failed, values, spans, counts })
}

/// Measures every workload, each in a child process, prints every metric
/// by name and writes the set of records as one result file.
pub fn run_all(spec: &Spec, args: &RunArgs) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    for (name, _) in &spec.workloads {
        let mut child = Command::new(&exe);
        child.args(["run", "--workload", name]);
        child.args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        child.arg("--data-dir").arg(&args.data_dir);
        if let Some(ops) = args.ops {
            child.args(["--ops", &ops.to_string()]);
        }
        // `output` waits for the child; its result line is in the record too.
        let output =
            child.stderr(std::process::Stdio::inherit()).output().map_err(|e| e.to_string())?;
        if !output.status.success() {
            return Err(format!("{name}: the run exited with {}", output.status));
        }
        let text =
            std::fs::read_to_string(record_path(name, args.trace)).map_err(|e| e.to_string())?;
        let record = Json::parse(&text)?;
        print_record(name, &record);
        records.push(record);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or(Json::Null, |o| Json::str(String::from_utf8_lossy(&o.stdout).trim()))
    };
    let result = Json::obj([
        ("label", Json::str("measured in the builder's sandbox; the latencies are this machine's")),
        (
            "env",
            Json::obj([
                ("nproc", Json::Num(nproc as f64)),
                ("partitions", Json::str(format!("auto ({nproc})"))),
                ("workers", Json::str(format!("auto ({nproc})"))),
                ("git_commit", tool("git", &["rev-parse", "HEAD"])),
                ("rustc", tool("rustc", &["--version"])),
                ("seed", Json::Num(args.seed as f64)),
                ("seconds", Json::Num(args.seconds)),
                ("data_dir", Json::str(args.data_dir.to_string_lossy())),
            ]),
        ),
        ("workloads", Json::Arr(records)),
    ]);
    let path =
        Path::new(OUT_DIR).join(if args.trace { "result-trace.json" } else { "result.json" });
    std::fs::write(&path, result.render() + "\n").map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    let failed = result
        .get("workloads")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .any(|r| r.get("correct") != Some(&Json::Bool(true)));
    if failed {
        return Err("at least one op failed".to_string());
    }
    Ok(())
}

fn print_record(name: &str, record: &Json) {
    let number = |key: &str| record.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!("{name}: {} ops, {} failed", number("attempted"), number("failed"));
    for m in record.get("metrics").map_or(&[][..], Json::as_arr) {
        let field = |key: &str| m.get(key).and_then(Json::as_str).unwrap_or("");
        let bound = m.get("bound").and_then(Json::as_f64);
        println!(
            "  {:<34} {:>16.6} {:<8} better: {:<6} {}",
            field("name"),
            m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            field("unit"),
            field("better"),
            bound.map_or(String::new(), |b| format!("bound: {:.0}%", 100.0 * b)),
        );
    }
    for (key, value) in match record.get("diagnostics") {
        Some(Json::Obj(fields)) => fields.as_slice(),
        _ => &[],
    } {
        println!("  {:<34} {:>16.6} (not gated)", key, value.as_f64().unwrap_or(f64::NAN));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_samples_prefer_ops_over_set_ups() {
        let report = |unit, name: &str, value| (unit, name.to_string(), value);
        let samples = unit_samples(
            [
                report(-1, "bytes_per_point", 7.0),
                report(-2, "bytes_per_point", 7.5),
                report(-1, "tsdb.segments", 1.0),
                report(0, "tsdb.segments", 5.0),
                report(1, "tsdb.segments", 6.0),
            ]
            .into_iter(),
        );
        assert_eq!(samples["bytes_per_point"], vec![7.0, 7.5]);
        assert_eq!(samples["tsdb.segments"], vec![5.0, 6.0]);
    }

    #[test]
    fn peak_rss_reads_this_process() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
