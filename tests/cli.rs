//! Integration tests of the `explainit` CLI binary: the full
//! simulate → sql → rank → explain loop through the executable interface,
//! every step a fresh process over a `--data-dir` store.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_explainit")).args(args).output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("explainit-cli-test-{}-{name}", std::process::id()))
}

/// Simulates into a fresh store directory and returns it with the
/// command's stdout.
fn simulate(name: &str, fault: &str, minutes: &str, seed: &str) -> (PathBuf, String) {
    let dir = tmp_path(name);
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(&[
        "simulate",
        "--data-dir",
        dir.to_str().expect("utf8 path"),
        "--fault",
        fault,
        "--minutes",
        minutes,
        "--seed",
        seed,
    ]);
    assert!(out.status.success(), "simulate failed: {}", stderr(&out));
    (dir, stdout(&out))
}

/// The rendered rows of the last `ranking` relation in `stdout`.
fn ranking_rows(stdout: &str) -> Vec<String> {
    let lines: Vec<&str> = stdout.lines().collect();
    let header = lines.iter().rposition(|l| l.starts_with("rank ")).expect("a ranking table");
    lines[header + 1..].iter().take_while(|l| !l.starts_with('(')).map(|l| l.to_string()).collect()
}

/// Everything a script prints except the per-statement summary lines,
/// which embed wall-clock timings.
fn untimed(stdout: &str) -> String {
    stdout.lines().filter(|l| !l.starts_with("-- [")).collect::<Vec<_>>().join("\n")
}

/// A failed command: non-zero exit, an `error:` line, no panic.
fn assert_clean_error(out: &Output, what: &str) {
    let err = stderr(out);
    assert!(!out.status.success(), "{what} should fail");
    assert!(err.starts_with("error: "), "{what}: {err}");
    assert!(!err.contains("panicked"), "{what}: {err}");
}

/// The statement `rank` / `explain` / `case-study` get their families from.
const FAMILIES: &str = explainit::workloads::FAMILIES_BY_METRIC;

#[test]
fn simulate_rank_explain_round_trip() {
    let (dir, sim_stdout) = simulate("round-trip", "packet_drop", "240", "9");
    let d = dir.to_str().expect("utf8 path");
    assert!(sim_stdout.contains("tcp_retransmits"), "cause families listed");

    let out = run(&[
        "sql",
        "--data-dir",
        d,
        "SELECT metric_name, COUNT(*) AS n FROM tsdb GROUP BY metric_name ORDER BY n DESC LIMIT 3",
    ]);
    assert!(out.status.success(), "sql failed: {}", stderr(&out));
    assert!(stdout(&out).contains("(3 rows)"));

    // rank with auto selection
    let out = run(&["rank", "--data-dir", d, "--scorer", "auto", "--top", "10"]);
    assert!(out.status.success(), "rank failed: {}", stderr(&out));
    assert!(stdout(&out).contains("auto-selected scorer"));
    assert!(stdout(&out).contains("pipeline_runtime"));

    // `rank` is the family statement plus EXPLAIN FOR: the same rows as the
    // script that spells both out.
    let out = run(&["rank", "--data-dir", d, "--scorer", "l2", "--top", "5"]);
    assert!(out.status.success(), "rank failed: {}", stderr(&out));
    let ranked = ranking_rows(&stdout(&out));
    assert_eq!(ranked.len(), 5);
    let script = format!("{FAMILIES}; EXPLAIN FOR pipeline_runtime USING SCORER l2 TOP 5");
    let out = run(&["sql", "--data-dir", d, &script]);
    assert!(out.status.success(), "script failed: {}", stderr(&out));
    assert_eq!(ranking_rows(&stdout(&out)), ranked);

    // explain overlay
    let out = run(&["explain", "--data-dir", d, "--candidate", "tcp_retransmits"]);
    assert!(out.status.success(), "explain failed: {}", stderr(&out));
    assert!(stdout(&out).contains("observed"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sql_script_runs_the_declarative_workflow() {
    let (dir, _) = simulate("script", "packet_drop", "240", "11");
    let d = dir.to_str().expect("utf8 path");

    // A whole case study as one inline script: create → rank → compose.
    let script = format!(
        "{FAMILIES}; EXPLAIN FOR pipeline_runtime USING SCORER corrmax TOP 5; \
         SELECT family FROM ranking WHERE rank = 1"
    );
    let out = run(&["sql", "--data-dir", d, &script]);
    assert!(out.status.success(), "script failed: {}", stderr(&out));
    let inline = stdout(&out);
    assert!(inline.contains("EXPLAIN FOR pipeline_runtime"), "summary shown:\n{inline}");
    assert!(inline.contains("(5 rows)"), "TOP 5 ranking rendered:\n{inline}");
    assert!(inline.contains("(1 rows)"), "composed SELECT over ranking:\n{inline}");

    // The same script from a file via -f, and demand-paged under a budget
    // far below the store's size: identical output.
    let script_file = tmp_path("workflow.sql");
    std::fs::write(&script_file, &script).expect("write script");
    let f = script_file.to_str().expect("utf8 path");
    for extra in [&[][..], &["--page-budget", "65536"]] {
        let out = run(&[&["sql", "--data-dir", d, "-f", f], extra].concat());
        assert!(out.status.success(), "-f {extra:?} failed: {}", stderr(&out));
        assert_eq!(untimed(&stdout(&out)), untimed(&inline), "-f {extra:?}");
    }

    // The family statement plans as the scan pivot.
    let out = run(&["sql", "--data-dir", d, &format!("EXPLAIN {FAMILIES}")]);
    assert!(out.status.success(), "EXPLAIN failed: {}", stderr(&out));
    assert!(stdout(&out).contains("ScanPivot tsdb layout=long"), "{}", stdout(&out));

    // Empty results still report their row count.
    let out = run(&[
        "sql",
        "--data-dir",
        d,
        "SELECT value FROM tsdb WHERE metric_name = 'no_such_metric'",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("(0 rows)"));

    let _ = std::fs::remove_file(&script_file);
    let _ = std::fs::remove_dir_all(&dir);
}

/// 1-based position of `family` in the ranking `stdout` prints.
fn rank_in(stdout: &str, family: &str) -> Option<usize> {
    ranking_rows(stdout)
        .iter()
        .position(|r| r.split_whitespace().nth(1) == Some(family))
        .map(|i| i + 1)
}

#[test]
fn case_studies_rank_their_injected_causes() {
    // §5.1 zooms to the incident (Figure 2). The rankings of all four
    // studies are pinned in `tests/paper.rs`; this checks what the CLI
    // adds: the range line, the study's ranking through the session, and
    // the ground truth.
    let out = run(&["case-study", "5.1"]);
    assert!(out.status.success(), "case-study 5.1 failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("analysed range: minutes 480..960"), "{text}");
    assert_eq!(rank_in(&text, "tcp_retransmits"), Some(4), "{text}");
    let truth = text.lines().find(|l| l.starts_with("ground-truth causes:"));
    assert!(truth.is_some_and(|l| l.contains("tcp_retransmits")), "{text}");
    // A trailing argument is refused, not ignored.
    let out = run(&["case-study", "5.2", "--condition", "foo"]);
    assert_clean_error(&out, "case-study with a trailing argument");
    assert!(stderr(&out).contains("unexpected trailing argument: --condition"));
    assert_clean_error(&run(&["case-study", "5.9"]), "unknown case study");
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    // `explainit case-study 5.3 | head -1`, with the reader gone before the
    // first line: every write fails with a broken pipe.
    let mut child = Command::new(env!("CARGO_BIN_EXE_explainit"))
        .args(["case-study", "5.3"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("the command ends");
    // Success and silence: no panic (101), no `error: writing stdout`.
    let err = stderr(&out);
    assert!(out.status.success(), "{:?}: {err}", out.status);
    assert!(err.is_empty(), "{err}");
}

#[test]
fn sql_rejects_trailing_garbage() {
    let (dir, _) = simulate("garbage", "none", "60", "42");
    let d = dir.to_str().expect("utf8 path");

    // A stray extra CLI argument (classic shell-quoting slip) is an error,
    // not silently dropped.
    let out = run(&["sql", "--data-dir", d, "SELECT 1", "garbage"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unexpected trailing argument"));

    // Unseparated statements inside the string are a parse error too.
    let out = run(&["sql", "--data-dir", d, "SELECT 1 SELECT 2"]);
    assert!(!out.status.success());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_inputs_fail_cleanly() {
    let out = run(&["frobnicate"]);
    assert_clean_error(&out, "unknown command");
    assert!(stderr(&out).contains("unknown command"));

    let out = run(&["rank", "--data-dir", "/nonexistent/store"]);
    assert_clean_error(&out, "missing directory");

    // A bare path is not a data source; the error says what is.
    for args in [
        &["sql", "/tmp/incident.tsdb", "SELECT 1"][..],
        &["rank", "/tmp/incident.tsdb"],
        &["explain", "/tmp/incident.tsdb", "--candidate", "tcp_retransmits"],
    ] {
        let out = run(args);
        assert_clean_error(&out, "bare FILE");
        assert!(stderr(&out).contains("--data-dir"), "{}", stderr(&out));
    }

    let (dir, _) = simulate("bad-inputs", "none", "60", "42");
    let d = dir.to_str().expect("utf8 path");

    // Bad SQL surfaces a query error, not a panic.
    assert_clean_error(&run(&["sql", "--data-dir", d, "SELEKT oops"]), "bad SQL");

    // One flipped byte in a segment file fails a checksum: the
    // directory's at open, or — for a payload byte, as here in the middle
    // of the data region — the chunk's at the first statement that reads
    // it.
    let segment = std::fs::read_dir(&dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.extension().is_some_and(|e| e == "seg"))
        .expect("a sealed segment");
    let mut bytes = std::fs::read(&segment).expect("read segment");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&segment, &bytes).expect("write segment");
    for args in
        [&["rank", "--data-dir", d][..], &["sql", "--data-dir", d, "SELECT COUNT(*) FROM tsdb"]]
    {
        let out = run(args);
        assert_clean_error(&out, "corrupt segment");
        assert!(stderr(&out).contains("checksum"), "{}", stderr(&out));
    }

    let _ = std::fs::remove_dir_all(&dir);
}

fn store_files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .map(|p| (p.clone(), std::fs::read(&p).expect("read store file")))
        .collect();
    files.sort();
    files
}

#[test]
fn refused_simulate_leaves_the_store_untouched() {
    let (dir, _) = simulate("refused", "none", "60", "42");
    let d = dir.to_str().expect("utf8 path");
    // A torn WAL tail, which a writer's recovery would truncate; and a
    // retention window, which a writer's open would enforce by unlinking.
    let wal = dir.join("wal");
    let mut torn = std::fs::read(&wal).expect("read wal");
    torn.extend_from_slice(b"\x99\x00\x00\x00garbage");
    std::fs::write(&wal, &torn).expect("tear wal");
    let before = store_files(&dir);

    let out = run(&["simulate", "--data-dir", d, "--retention", "1", "--minutes", "60"]);
    assert_clean_error(&out, "simulate into a non-empty store");
    assert!(stderr(&out).contains("refusing to simulate"), "{}", stderr(&out));
    assert_eq!(store_files(&dir), before, "a refused simulate must not write");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_prints_usage() {
    let out = run(&["--help"]);
    assert!(out.status.success());
    assert!(stderr(&out).contains("USAGE"));
}
