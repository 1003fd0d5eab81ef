//! `explainit-bench`: the paper's workflow as named workloads, measured
//! end to end and, in a separate traced run, layer by layer from outside
//! the program. See `bench/README.md`.

mod api;
mod compare;
mod json;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::RunArgs;
use spec::Spec;

const USAGE: &str = "usage:
  explainit-bench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                      [--ops N] [--data-dir DIR]
  explainit-bench compare A.json B.json";

fn parse_run(spec: &Spec, args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 7,
        seconds: spec.run_seconds,
        trace: false,
        ops: None,
        data_dir: Path::new(run::OUT_DIR).join("data"),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds =
                    value.parse().ok().filter(|s| (0.0..=3600.0).contains(s)).ok_or_else(bad)?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--ops" => parsed.ops = Some(value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?),
            "--data-dir" => parsed.data_dir = PathBuf::from(value),
            _ => return Err(format!("unknown option: {flag}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => {
            parse_run(&spec, rest).and_then(|run| match run.workload.clone() {
                Some(name) => run::run_one(&spec, &run, &name),
                None => run::run_all(&spec, &run),
            })
        }
        Some((command, rest)) if command == "compare" && rest.len() == 2 => {
            match compare::compare(&spec, &rest[0], &rest[1]) {
                Ok(true) => Ok(()),
                Ok(false) => Err("B is worse than A beyond a bound".to_string()),
                Err(e) => Err(e),
            }
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    /// The settings of one table of a manifest, comments and blanks dropped.
    fn table(manifest: &str, header: &str) -> Vec<String> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != header)
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .filter_map(|l| l.split('#').next().map(|l| l.split_whitespace().collect::<String>()))
            .filter(|l| !l.is_empty())
            .collect()
    }

    /// The benchmark must never measure other codegen than the shipped
    /// binary gets.
    #[test]
    fn release_profile_equals_the_root_manifests() {
        let root = table(include_str!("../../Cargo.toml"), "[profile.release]");
        assert!(!root.is_empty(), "the root manifest has a release profile");
        assert_eq!(table(include_str!("../Cargo.toml"), "[profile.release]"), root);
    }
}
