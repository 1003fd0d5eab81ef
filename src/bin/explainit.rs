//! The ExplainIt! command-line interface.
//!
//! Drives the full workflow of the paper from a terminal. A data source
//! is always a `--data-dir DIR` store (WAL + compressed segments):
//! `simulate` writes one, and `sql`, `rank` and `explain` open it
//! read-only — crash recovery, lazy chunk decode, demand paging under
//! `--page-budget` — and run statements on the declarative [`Session`], so
//! the CLI and the SQL surface share one code path:
//!
//! ```text
//! explainit simulate --data-dir ./fleet --fault packet_drop       # make data
//! explainit sql --data-dir ./fleet "SELECT COUNT(*) FROM tsdb"    # explore it
//! explainit sql --data-dir ./fleet -f case_study.sql              # whole workflow
//! explainit rank --data-dir ./fleet --scorer auto                 # step 3
//! explainit explain --data-dir ./fleet --candidate tcp_retransmits # fig 14/15
//! explainit case-study 5.1                                        # the paper's §5
//! ```
//!
//! `case-study` alone opens no directory: it ranks the study
//! `workloads::case_studies::study` defines — the one the paper suite
//! (`tests/paper.rs`) pins — simulated in memory, its families from the
//! same family statement `rank` and `explain` run ([`FAMILIES_BY_METRIC`]).
//!
//! Output goes through a fallible writer: a closed stdout (`| head -1`)
//! ends the command quietly, any other write error is an `error:` line.

use std::io::{self, Write};
use std::process::ExitCode;

use explainit::core::report::explain;
use explainit::core::EngineConfig;
use explainit::query::Statement;
use explainit::tsdb::{StorageOptions, Tsdb};
use explainit::workloads::{case_studies, simulate, ClusterSpec, Fault, FAMILIES_BY_METRIC};
use explainit::{Session, StatementOutcome};

/// Why a command stopped early.
enum Failure {
    /// A message for the `error:` line.
    Message(String),
    /// Writing the output failed.
    Output(io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Message(message)
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Self {
        Failure::Message(message.to_string())
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Output(e)
    }
}

type CmdResult = Result<(), Failure>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        print_usage();
        return ExitCode::FAILURE;
    };
    let mut out = io::stdout().lock();
    let result = match command.as_str() {
        "simulate" => cmd_simulate(&mut out, &args[1..]),
        "rank" => cmd_rank(&mut out, &args[1..]),
        "sql" => cmd_sql(&mut out, &args[1..]),
        "explain" => cmd_explain(&mut out, &args[1..]),
        "case-study" => cmd_case_study(&mut out, &args[1..]),
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command: {other}").into()),
    };
    match result.and_then(|()| out.flush().map_err(Failure::from)) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`| head`): nothing is left to say.
        Err(Failure::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Output(e)) => {
            eprintln!("error: writing stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Message(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "ExplainIt! — declarative root-cause analysis for time series\n\n\
         USAGE:\n  explainit simulate --data-dir DIR [--fault KIND] [--minutes N] [--seed N] [--retention N]\n\
         \x20 explainit sql --data-dir DIR [--partitions N] \"STMT; STMT; ...\" | -f SCRIPT.sql\n\
         \x20     (executor tuning, before or after the statement; default: one partition per core)\n\
         \x20 explainit rank --data-dir DIR [--target FAMILY] [--condition A,B] [--scorer NAME] [--top K]\n\
         \x20 explainit explain --data-dir DIR --candidate FAMILY [--target FAMILY] [--condition A,B]\n\
         \x20 explainit case-study 5.1|5.2|5.3|5.4\n\n\
         DATA SOURCE: --data-dir DIR is a store directory (WAL + compressed segments).\n\
         \x20 simulate writes it and refuses a non-empty one; sql, rank and explain open it\n\
         \x20 read-only, so they run next to an ingester or each other, and take\n\
         \x20 [--page-budget BYTES] to demand-page it (0 or unset means unbounded).\n\
         \x20 rank and explain group the store by metric name with the statement\n\
         \x20 CREATE FAMILY metrics WITH (layout='long', family='metric_name') AS\n\
         \x20 SELECT timestamp, metric_name, tag, value FROM tsdb.\n\n\
         SQL STATEMENTS: ordinary SELECT / EXPLAIN <query>, plus the RCA surface:\n\
         \x20 [EXPLAIN] CREATE FAMILY name [WITH (layout='wide'|'long', ts=.., family=.., feature=.., value=..)] AS SELECT ...\n\
         \x20 EXPLAIN FOR target [GIVEN fam, ...] [USING SCORER name] [TOP k]   (result also registered as table 'ranking')\n\
         \x20 SHOW FAMILIES | SHOW TABLES | DROP FAMILY name\n\
         \x20 An expression may be at most 64 levels high: nesting and flat chains both\n\
         \x20 count, so a WHERE of more than 64 AND-ed conjuncts (or a 65-term sum) is\n\
         \x20 a parse error — group with parentheses to stay under it.\n\n\
         EXPLAIN OUTPUT: the optimized operator tree, one node per line. Scan nodes\n\
         \x20 show the predicates pushed into the store's tag index (name=.., tag[k]=..,\n\
         \x20 time=[lo, hi]); a GROUP BY over timestamp / metric_name / tag expressions\n\
         \x20 (CONCAT(tag['a'], tag['b']) included) collapses into one `ScanAggregate`\n\
         \x20 line, outputs over its keys and aggregates (SUM(value) / COUNT(value))\n\
         \x20 with it — one that reads a non-key column keeps `Aggregate` over `TsdbScan`\n\
         \x20 — and a SELECT of exactly the scan's columns is the bare `TsdbScan`.\n\
         \x20 Filter lines over a scan end in refine=dict|kernel|general: once per\n\
         \x20 series, typed loop over the column, or evaluated over the surviving rows.\n\
         \x20 A join is `Join Inner|Left|FullOuter on <expr>` and nothing else: the plan\n\
         \x20 holds no estimates, the hash index goes over whichever input turns out\n\
         \x20 shorter. There is no parallelism node either: every operator splits its\n\
         \x20 input by size (--partitions).\n\
         \x20 EXPLAIN CREATE FAMILY .. shows the family statement's plan and registers\n\
         \x20 nothing: a `Pivot layout=.. ts=.. family=.. [feature=.. value=..]` line (the\n\
         \x20 role columns as resolved; `into=name` for a single-family wide pivot) over\n\
         \x20 the stage-one plan, which runs to a table first. A long pivot straight\n\
         \x20 over the store — ts and value the scan's own columns, family and feature\n\
         \x20 expressions over metric_name / tag, nothing but pushed name/tag/time\n\
         \x20 predicates in WHERE — is the single line `ScanPivot tsdb [name=..] [tag[k]=..]\n\
         \x20 [time=[lo, hi]] layout=long ..`: series go to family matrices with no row\n\
         \x20 in between, the fast path for the paper's stage two. A wide pivot over a\n\
         \x20 GROUP BY timestamp[, family key] whose other outputs are bare aggregate\n\
         \x20 calls (Appendix C's AVG / MAX / STDDEV per metric) is the single line\n\
         \x20 `ScanAggregatePivot tsdb .. layout=wide ts=timestamp family=.. group=[..]\n\
         \x20 items=[..]`: each family's frame is built from the aggregate's columns,\n\
         \x20 with no row table in between.\n\n\
         FAULT KINDS: packet_drop, hypervisor, namenode, raid, disk, multi, none\n\
         SCORERS: auto, corrmean, corrmax, l2, l2p50, l2p500, lasso"
    );
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Takes `name VALUE` out of `args`, wherever it stands.
fn take_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else { return Ok(None) };
    if i + 1 == args.len() {
        return Err(format!("{name} requires a value"));
    }
    args.remove(i);
    Ok(Some(args.remove(i)))
}

/// Opens the store a command reads: takes `--data-dir DIR` and
/// `--page-budget BYTES` out of `args`, wherever they stand, and returns
/// the store with the arguments that remain. The open is *read-only* (a
/// session never takes the writer role, so it can run next to an ingester
/// or another session) and demand-paged under the budget when one is given.
fn open_store(args: &[String]) -> Result<(Tsdb, Vec<String>), String> {
    let mut rest = args.to_vec();
    let dir = take_flag(&mut rest, "--data-dir")?.ok_or(
        "no data source: pass --data-dir DIR, the store `simulate --data-dir DIR` writes \
         (a bare FILE argument is not one)",
    )?;
    let page_budget_bytes = match take_flag(&mut rest, "--page-budget")? {
        Some(v) => {
            let bytes: u64 = v.parse().map_err(|e| format!("--page-budget: {e}"))?;
            (bytes > 0).then_some(bytes)
        }
        None => None,
    };
    // A read-only open requires an existing store; refusing a missing dir
    // here gives a friendlier error than the engine's NotFound.
    if !std::path::Path::new(&dir).is_dir() {
        return Err(format!("{dir} is not a directory (simulate --data-dir creates one)"));
    }
    let options = StorageOptions { page_budget_bytes, ..StorageOptions::default() };
    let db = Tsdb::open_read_only_with(&dir, options).map_err(|e| format!("opening {dir}: {e}"))?;
    Ok((db, rest))
}

fn cmd_simulate(out: &mut impl Write, args: &[String]) -> CmdResult {
    let dir = flag(args, "--data-dir").ok_or("simulate requires --data-dir DIR")?;
    // Refuse a non-empty store before simulating and before taking the
    // writer role on it: a writer's open truncates a torn WAL tail and,
    // with --retention, unlinks expired segments.
    if std::path::Path::new(dir).exists() {
        let held = Tsdb::open_read_only(dir).map_err(|e| format!("opening {dir}: {e}"))?;
        if held.point_count() > 0 {
            return Err(format!(
                "{dir} already holds {} points; refusing to simulate into a non-empty store",
                held.point_count()
            )
            .into());
        }
    }
    let minutes: usize = flag(args, "--minutes")
        .map_or(Ok(720), str::parse)
        .map_err(|e| format!("--minutes: {e}"))?;
    let seed: u64 =
        flag(args, "--seed").map_or(Ok(42), str::parse).map_err(|e| format!("--seed: {e}"))?;
    let fault = match flag(args, "--fault").unwrap_or("packet_drop") {
        "packet_drop" => vec![Fault::PacketDrop {
            start_min: minutes / 2,
            end_min: minutes / 2 + minutes / 8,
            rate: 0.1,
        }],
        "hypervisor" => vec![Fault::HypervisorDrop { intensity: 0.3 }],
        "namenode" => vec![Fault::NamenodeScan { period_min: 15, duration_min: 5 }],
        "raid" => vec![Fault::RaidCheck {
            period_min: minutes / 2,
            duration_min: minutes / 12,
            io_share: 0.2,
        }],
        "disk" => vec![Fault::DiskSaturation {
            start_min: minutes / 3,
            end_min: minutes / 2,
            intensity: 0.5,
        }],
        // Compound incident: packet drops + a disk hog + a periodic
        // Namenode scan, concurrently (the multi-fault workload).
        "multi" => case_studies::multi_fault_spec(minutes).faults,
        "none" => vec![],
        other => return Err(format!("unknown fault kind: {other}").into()),
    };
    let retention: Option<i64> = match flag(args, "--retention") {
        Some(v) => Some(v.parse().map_err(|e| format!("--retention: {e}"))?),
        None => None,
    };
    let sim = simulate(&ClusterSpec { minutes, seed, faults: fault, ..ClusterSpec::default() });
    let options = StorageOptions { retention, ..StorageOptions::default() };
    let mut durable = Tsdb::open_with(dir, options).map_err(|e| format!("opening {dir}: {e}"))?;
    for (_, series) in sim.db.iter() {
        let points: Vec<(i64, f64)> = series.points().map(|p| (p.ts, p.value)).collect();
        durable
            .try_insert_batch(&series.key, &points)
            .map_err(|e| format!("writing {dir}: {e}"))?;
    }
    durable.flush().map_err(|e| format!("flushing {dir}: {e}"))?;
    let disk = durable.storage_stats().map_or(0, |s| s.segment_bytes);
    writeln!(
        out,
        "wrote {dir}: {} series, {} points, {} minutes ({} segment bytes, durable)",
        durable.series_count(),
        durable.point_count(),
        sim.minutes,
        disk
    )?;
    if !sim.truth.cause_families.is_empty() {
        writeln!(out, "injected causes: {:?}", sim.truth.cause_families)?;
    }
    Ok(())
}

/// Opens the store `args` name and runs [`FAMILIES_BY_METRIC`] over it.
fn rca_session(args: &[String]) -> Result<Session, String> {
    let (db, _) = open_store(args)?;
    let mut session = Session::new();
    session.bind_tsdb("tsdb", &db);
    session.execute(FAMILIES_BY_METRIC).map_err(|e| e.to_string())?;
    Ok(session)
}

/// Prints one statement outcome the way psql would: notices, the
/// rendered relation, and an explicit row count (also for empty results).
fn print_outcome(out: &mut impl Write, outcome: &StatementOutcome) -> io::Result<()> {
    for notice in &outcome.notices {
        writeln!(out, "-- {notice}")?;
    }
    write!(out, "{}", outcome.table.render(40))?;
    writeln!(out, "({} rows)", outcome.table.len())
}

fn cmd_sql(out: &mut impl Write, args: &[String]) -> CmdResult {
    let (db, mut args) = open_store(args)?;
    // The executor tuning flag may stand on either side of the statement.
    let mut opts = explainit::query::ExecOptions::default();
    if let Some(n) = take_flag(&mut args, "--partitions")? {
        opts.partitions = n.parse().map_err(|e| format!("--partitions: {e}"))?;
    }
    let (script, consumed) = match args.first().map(String::as_str) {
        Some("-f") => {
            let file = args.get(1).ok_or("-f requires a script FILE")?;
            (std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?, 2)
        }
        Some(inline) => (inline.to_string(), 1),
        None => return Err("sql requires a statement string or -f SCRIPT.sql".into()),
    };
    // Anything else trailing is an error, not silently dropped: a
    // shell-quoting slip would otherwise run a *prefix* of what the user
    // wrote.
    if let Some(extra) = args.get(consumed) {
        return Err(format!("unexpected trailing argument: {extra}").into());
    }
    let mut session = Session::new();
    session.set_exec_options(opts);
    session.bind_tsdb("tsdb", &db);
    let outcomes = session.execute_script(&script).map_err(|e| e.to_string())?;
    if outcomes.is_empty() {
        return Err("the script contains no statements".into());
    }
    for (i, outcome) in outcomes.iter().enumerate() {
        if outcomes.len() > 1 {
            writeln!(out, "-- [{}] {}", i + 1, outcome.summary)?;
        }
        print_outcome(out, outcome)?;
        if i + 1 < outcomes.len() {
            writeln!(out)?;
        }
    }
    Ok(())
}

fn cmd_rank(out: &mut impl Write, args: &[String]) -> CmdResult {
    let mut session = rca_session(args)?;
    let statement = Statement::ExplainFor(explainit::query::ExplainFor {
        target: flag(args, "--target").unwrap_or("pipeline_runtime").to_string(),
        given: flag(args, "--condition")
            .map(|s| s.split(',').map(str::to_string).collect())
            .unwrap_or_default(),
        scorer: flag(args, "--scorer").map(str::to_string),
        top: Some(
            flag(args, "--top").map_or(Ok(20), str::parse).map_err(|e| format!("--top: {e}"))?,
        ),
    });
    let outcome = session.execute_statement(&statement).map_err(|e| e.to_string())?;
    writeln!(out, "-- {}", outcome.summary)?;
    print_outcome(out, &outcome)?;
    Ok(())
}

fn cmd_explain(out: &mut impl Write, args: &[String]) -> CmdResult {
    let candidate = flag(args, "--candidate").ok_or("explain requires --candidate FAMILY")?;
    let target = flag(args, "--target").unwrap_or("pipeline_runtime");
    let condition: Vec<&str> =
        flag(args, "--condition").map(|s| s.split(',').collect()).unwrap_or_default();
    let session = rca_session(args)?;
    let overlay =
        explain(session.engine(), target, candidate, &condition, 1.0).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "E[{target} | {candidate}{}] over {} samples{}:\n",
        if condition.is_empty() { String::new() } else { format!(", {}", condition.join(",")) },
        overlay.timestamps.len(),
        if overlay.conditioned { " (residualised)" } else { "" }
    )?;
    writeln!(out, "{}", overlay.render_ascii(96))?;
    Ok(())
}

fn cmd_case_study(out: &mut impl Write, args: &[String]) -> CmdResult {
    let which = args.first().ok_or("case-study requires 5.1|5.2|5.3|5.4")?;
    if let Some(extra) = args.get(1) {
        return Err(format!("unexpected trailing argument: {extra}").into());
    }
    let study = case_studies::study(which)
        .ok_or_else(|| format!("unknown case study: {which} (use 5.1..5.4)"))?;
    writeln!(out, "case study {which}: {}\n", study.story)?;
    if let Some((w0, w1)) = study.fault_window {
        let (a0, a1) = study.analysed;
        writeln!(out, "fault window: minutes {w0}..{w1}; analysed range: minutes {a0}..{a1}")?;
    }
    let mut session = Session::with_config(EngineConfig::default());
    for family in study.families {
        session.add_family(family);
    }
    let statement = Statement::ExplainFor(explainit::query::ExplainFor {
        target: case_studies::TARGET.to_string(),
        given: study.given.iter().map(|g| g.to_string()).collect(),
        scorer: Some(case_studies::SCORER.name()),
        top: None,
    });
    let outcome = session.execute_statement(&statement).map_err(|e| e.to_string())?;
    writeln!(out, "-- {}", outcome.summary)?;
    print_outcome(out, &outcome)?;
    writeln!(out, "ground-truth causes: {:?}", study.sim.truth.cause_families)?;
    Ok(())
}
