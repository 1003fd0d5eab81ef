//! End-to-end scenario test: the multi-fault workload driven through the
//! CLI's `sql -f` script path — simulate → CREATE FAMILY → EXPLAIN FOR →
//! SELECT over `ranking` — asserting the top-k ranking is *identical* at
//! every partition count. The stage-one family query runs through the
//! executor, so any partition-dependence in aggregation would change the
//! frames, the scores, and therefore this byte-compared output.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_explainit"))
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("explainit-multifault-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn multi_fault_top_k_is_stable_across_partition_counts() {
    let store = tmp_path("incident");
    let _ = std::fs::remove_dir_all(&store);
    let out = bin()
        .args([
            "simulate",
            "--data-dir",
            store.to_str().expect("utf8 path"),
            "--fault",
            "multi",
            "--minutes",
            "240",
            "--seed",
            "17",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "simulate failed: {}", String::from_utf8_lossy(&out.stderr));
    let sim_stdout = String::from_utf8_lossy(&out.stdout);
    assert!(sim_stdout.contains("injected causes"), "multi-fault causes listed:\n{sim_stdout}");

    // The paper's whole workflow as a script, three times: every stage-one
    // query is an eligible scan-aggregate shape (GROUP BY timestamp + the
    // dictionary columns). The first feeds the long pivot a group per
    // series; the second is the benchmark's `family_agg_paged` statement —
    // a class per metric name into the *wide* pivot; the third has the
    // scan aggregate finish a ratio and a spread over its own columns.
    let scripts = [
        "CREATE FAMILY metrics WITH (layout = 'long', family = 'metric_name') AS \
           SELECT timestamp, metric_name, tag, AVG(value) AS value FROM tsdb \
           GROUP BY timestamp, metric_name, tag; \
         EXPLAIN FOR pipeline_runtime USING SCORER l2 TOP 8; \
         SELECT rank, family, score FROM ranking ORDER BY rank",
        "CREATE FAMILY by_name WITH (family='metric_name') AS \
           SELECT timestamp, metric_name, AVG(value) AS mean_v, MAX(value) AS max_v, \
           STDDEV(value) AS sd_v FROM tsdb GROUP BY timestamp, metric_name; \
         EXPLAIN FOR pipeline_runtime USING SCORER corrmax TOP 8; \
         SELECT rank, family, score FROM ranking ORDER BY rank",
        "CREATE FAMILY by_ratio WITH (family='metric_name') AS \
           SELECT timestamp, metric_name, SUM(value) / COUNT(value) AS mean_v, \
           MAX(value) - MIN(value) AS spread_v FROM tsdb GROUP BY timestamp, metric_name; \
         EXPLAIN FOR pipeline_runtime USING SCORER corrmax TOP 8; \
         SELECT rank, family, score FROM ranking ORDER BY rank",
    ];
    let script_file = tmp_path("workflow.sql");

    let run = |extra: &[&str]| -> String {
        let mut args = vec![
            "sql",
            "--data-dir",
            store.to_str().expect("utf8 path"),
            "-f",
            script_file.to_str().expect("utf8 path"),
        ];
        args.extend_from_slice(extra);
        let out = bin().args(&args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "sql {extra:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Per-statement summary lines (`-- [2] EXPLAIN FOR ... in 1.2ms`)
        // embed wall-clock timings; everything else — the rendered family
        // table, notices and the ranking relation — must be byte-stable.
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("-- ["))
            .collect::<Vec<_>>()
            .join("\n")
    };

    for script in scripts {
        std::fs::write(&script_file, script).expect("write script");
        let baseline = run(&["--partitions", "1"]);
        assert!(baseline.contains("(8 rows)"), "TOP 8 ranking rendered:\n{baseline}");
        assert!(baseline.contains("pipeline_runtime"), "target named:\n{baseline}");

        // Partition sweep, resident and demand-paged: identical bytes, not
        // just identical top entries.
        for partitions in ["1", "2", "4"] {
            let got = run(&["--partitions", partitions]);
            assert_eq!(got, baseline, "ranking diverged at partitions={partitions}");
        }
        for partitions in ["1", "4"] {
            let got = run(&["--partitions", partitions, "--page-budget", "65536"]);
            assert_eq!(got, baseline, "ranking diverged paged at partitions={partitions}");
        }
    }

    let _ = std::fs::remove_file(&script_file);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn sql_rejects_bad_executor_flags() {
    let store = tmp_path("flags");
    let _ = std::fs::remove_dir_all(&store);
    let out = bin()
        .args([
            "simulate",
            "--data-dir",
            store.to_str().expect("utf8 path"),
            "--fault",
            "none",
            "--minutes",
            "60",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    // --partitions needs a count; unknown flags stay errors.
    let out = bin()
        .args(["sql", "--data-dir", store.to_str().expect("utf8 path"), "SELECT 1", "--partitions"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let out = bin()
        .args(["sql", "--data-dir", store.to_str().expect("utf8 path"), "SELECT 1", "--frobnicate"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected trailing argument"));

    // The tuning flag itself is accepted, after the statement or before it.
    let dir = store.to_str().expect("utf8 path");
    let count = "SELECT COUNT(*) AS n FROM tsdb";
    for args in [
        ["sql", "--data-dir", dir, count, "--partitions", "2"],
        ["sql", "--data-dir", dir, "--partitions", "3", count],
    ] {
        let out = bin().args(args).output().expect("binary runs");
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stdout).contains("(1 rows)"), "{args:?}");
    }
    // With the statement forgotten, its count is not mistaken for one.
    let out =
        bin().args(["sql", "--data-dir", dir, "--partitions", "3"]).output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sql requires a statement"), "{stderr}");

    let _ = std::fs::remove_dir_all(&store);
}
