//! The five workloads. Each is closed-loop and single-client: the next op
//! starts when the previous one has returned and been checked. The engine
//! keeps its shipped defaults (`ExecOptions::default()`,
//! `EngineConfig::default()`), so partitions and workers resolve to the
//! machine's core count.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::api::{
    parse_statement, pivot_long, pivot_wide, simulate, Catalog, ClusterSpec, Engine, ExecOptions,
    Fault, FeatureFamily, MetricFilter, ScorerKind, SeriesKey, SeriesSlice, Session, SimOutput,
    Statement, StorageError, StorageOptions, Table, Tsdb, Value,
};
use crate::trace::Tracer;

/// Named numbers a phase reports beside its time: counters read from the
/// program, sizes, exact ratios.
pub type Counts = Vec<(&'static str, f64)>;

pub struct OpOutcome {
    /// Wall time of the program's work in the op, without the check.
    pub seconds: f64,
    pub counts: Counts,
}

pub trait Workload {
    /// Everything before the first timed op. Run several times; each run
    /// starts from nothing and the last one's state serves the ops.
    fn set_up(&mut self, t: &mut Tracer) -> Result<Counts, String>;
    /// One op through the surface a user has (`Session::execute`, `Tsdb`),
    /// then its output check; a failed check is an `Err`.
    fn op(&mut self, t: &mut Tracer) -> Result<OpOutcome, String>;
    /// Traced runs only: the op's steps again as calls into each layer's
    /// public functions, one span per call. Nothing to add where the op is
    /// already calls into one layer and its own spans are the attribution.
    fn decomposed(&mut self, _: &mut Tracer) -> Result<Counts, String> {
        Ok(Vec::new())
    }
    /// Called once after the ops and after the memory peak is read, so the
    /// reference computation does not count towards it: checks what the
    /// ops agreed on against the never-persisted in-memory store. The
    /// storage workloads check every op against the generated points.
    fn verify_reference(&mut self) -> Result<Counts, String> {
        Ok(Vec::new())
    }
}

/// The workload `name`, keeping its store under `dir`.
pub fn build(name: &str, seed: u64, dir: PathBuf) -> Option<Box<dyn Workload>> {
    Some(match name {
        "incident_cold" => Box::new(Script::new(&INCIDENT_COLD, seed, dir)),
        "family_agg_paged" => Box::new(Script::new(&FAMILY_AGG_PAGED, seed, dir)),
        "rerank_warm" => Box::new(Rerank::new(seed, dir)),
        "ingest_rounds" => Box::new(IngestRounds { seed, dir, input: None }),
        "scan_paged" => Box::new(ScanPaged { seed, dir, input: None }),
        _ => return None,
    })
}

const TOP: usize = 20;
const TARGET: &str = "pipeline_runtime";
/// The paper analyses a day of per-minute data (§5); the incident script
/// uses the 8 hours ROADMAP's baseline table was measured on.
const DAY_MIN: usize = 1440;
const INCIDENT_MIN: usize = 480;
const LONG_SELECT: &str = "SELECT timestamp, metric_name, tag, value FROM tsdb";
const LONG_OPTIONS: &str = "layout='long', family='metric_name'";

// ---------------------------------------------------------------- inputs

struct Input {
    sim: SimOutput,
    series: Vec<(SeriesKey, Vec<(i64, f64)>)>,
    points: usize,
    minutes: usize,
}

/// The simulated cluster at its default size with one packet-drop fault
/// in the middle eighth of the horizon. The seed is the only variable.
fn generate(t: &mut Tracer, minutes: usize, seed: u64) -> Input {
    let spec = ClusterSpec::default().with_minutes(minutes).with_seed(seed).with_faults(vec![
        Fault::PacketDrop { start_min: minutes / 2, end_min: minutes / 2 + minutes / 8, rate: 0.1 },
    ]);
    let sim = t.span("workloads.simulate", |_| simulate(&spec));
    let series: Vec<(SeriesKey, Vec<(i64, f64)>)> = sim
        .db
        .iter()
        .map(|(_, s)| (s.key.clone(), s.points().map(|p| (p.ts, p.value)).collect()))
        .collect();
    let points = series.iter().map(|(_, p)| p.len()).sum();
    Input { sim, series, points, minutes }
}

impl Input {
    fn family_count(&self) -> usize {
        self.sim.db.metric_names().len()
    }
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(text)?;
    }
    std::fs::create_dir_all(dir).map_err(text)
}

/// `rchar` and `wchar` of this process: bytes passed to read and write
/// calls, whether or not they reached a device. Zeros where the file
/// cannot be read.
fn io_chars() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |name: &str| {
        text.lines().find_map(|l| l.strip_prefix(name)?.trim().parse::<f64>().ok()).unwrap_or(0.0)
    };
    (field("rchar:"), field("wchar:"))
}

fn storage(page_budget_bytes: Option<u64>) -> StorageOptions {
    StorageOptions { page_budget_bytes, ..StorageOptions::default() }
}

// --------------------------------------------------------------- ingest

/// What a finished ingest leaves on disk, as counts.
fn stored_counts(db: &Tsdb, points: usize, wrote: f64, wal_peak: u64) -> Result<Counts, String> {
    let stats = db.storage_stats().ok_or("the store is not durable")?;
    if db.point_count() != points {
        return Err(format!("store holds {} points, ingested {points}", db.point_count()));
    }
    Ok(vec![
        ("points", points as f64),
        ("bytes_per_point", stats.segment_bytes as f64 / points as f64),
        ("tsdb.segments", stats.segments as f64),
        ("tsdb.chunks", stats.chunks as f64),
        ("tsdb.segment_bytes", stats.segment_bytes as f64),
        ("tsdb.wal_bytes_peak", wal_peak as f64),
        ("tsdb.write_bytes_per_point", wrote / points as f64),
    ])
}

/// Simulates and stores with one batch per series and one flush: how the
/// CLI's `simulate --data-dir` fills a store. The points are dropped once
/// stored; the script workloads read them back from `dir`.
fn simulate_into(
    t: &mut Tracer,
    dir: &Path,
    minutes: usize,
    seed: u64,
) -> Result<(Input, Counts), String> {
    let mut input = generate(t, minutes, seed);
    fresh_dir(dir)?;
    let wrote = io_chars().1;
    let mut db = Tsdb::open(dir).map_err(text)?;
    t.span("tsdb.ingest", |_| {
        input.series.iter().try_for_each(|(key, points)| db.try_insert_batch(key, points))
    })
    .map_err(text)?;
    let wal_peak = db.storage_stats().map_or(0, |s| s.wal_bytes);
    t.span("tsdb.flush", |_| db.flush()).map_err(text)?;
    let counts = stored_counts(&db, input.points, io_chars().1 - wrote, wal_peak)?;
    input.series = Vec::new();
    Ok((input, counts))
}

const ROUNDS: usize = 12;
const BATCH_POINTS: usize = 60;

/// The store as a collector fills it: every series' next stretch in
/// hour-sized batches, then a flush, twelve times over, so that automatic
/// compaction past 8 segments runs. `dir` must be empty.
fn ingest_rounds(t: &mut Tracer, dir: &Path, input: &Input) -> Result<Counts, String> {
    let wrote = io_chars().1;
    let mut db = Tsdb::open(dir).map_err(text)?;
    let per_round = input.minutes.div_ceil(ROUNDS);
    let mut wal_peak = 0;
    for round in 0..ROUNDS {
        t.span("tsdb.ingest", |_| {
            input.series.iter().try_for_each(|(key, points)| {
                let lo = (round * per_round).min(points.len());
                let hi = (lo + per_round).min(points.len());
                points[lo..hi].chunks(BATCH_POINTS).try_for_each(|b| db.try_insert_batch(key, b))
            })
        })
        .map_err(text)?;
        wal_peak = wal_peak.max(db.storage_stats().map_or(0, |s| s.wal_bytes));
        t.span("tsdb.flush", |_| db.flush()).map_err(text)?;
    }
    stored_counts(&db, input.points, io_chars().1 - wrote, wal_peak)
}

// ------------------------------------------------------- output checks

/// Paging counters of a read handle after an op.
fn paging_counts(db: &Tsdb, points: usize, read: f64) -> Result<Counts, String> {
    let stats = db.storage_stats().ok_or("the store is not durable")?;
    let counts = vec![
        ("tsdb.page_faults", stats.page_faults as f64),
        ("tsdb.evictions", stats.evictions as f64),
        ("tsdb.chunk_decodes", db.decode_count() as f64),
        ("tsdb.peak_resident_chunk_bytes", stats.peak_resident_chunk_bytes as f64),
        ("tsdb.read_bytes_per_point", read / points as f64),
    ];
    if let Some(budget) = db.page_budget() {
        // A store larger than its cache must have paged, and stayed near
        // its budget while doing so (the gate `storage_report` applies).
        if stats.page_faults == 0 || stats.evictions == 0 {
            return Err(format!(
                "paged store did not page: {} faults, {} evictions",
                stats.page_faults, stats.evictions
            ));
        }
        if stats.peak_resident_chunk_bytes as f64 > 1.25 * budget as f64 {
            return Err(format!(
                "peak resident {} bytes exceeds 1.25 x the {budget}-byte budget",
                stats.peak_resident_chunk_bytes
            ));
        }
    }
    Ok(counts)
}

/// Order-independent digest of a set of points.
#[derive(Debug, Default, PartialEq)]
struct PointDigest {
    count: usize,
    value_bits_xor: u64,
    ts_sum: i64,
}

impl PointDigest {
    fn add(&mut self, points: impl Iterator<Item = (i64, f64)>) {
        for (ts, value) in points {
            self.count += 1;
            self.value_bits_xor ^= value.to_bits();
            self.ts_sum = self.ts_sum.wrapping_add(ts);
        }
    }

    fn of_input(input: &Input) -> PointDigest {
        let mut digest = PointDigest::default();
        for (_, points) in &input.series {
            digest.add(points.iter().copied());
        }
        digest
    }

    /// What a full scan returned, which must be exactly the input.
    fn of_scan(parts: &[SeriesSlice<'_>]) -> PointDigest {
        let mut digest = PointDigest::default();
        for part in parts {
            digest.add(part.timestamps.iter().copied().zip(part.values.iter().copied()));
        }
        digest
    }
}

/// `CREATE FAMILY` must register one family per metric name, each with a
/// row per simulated minute.
fn check_families(table: &Table, families: usize, minutes: usize) -> Result<(), String> {
    if table.len() != families {
        return Err(format!("{} families registered, expected {families}", table.len()));
    }
    match table.rows().iter().find(|row| row[1] != Value::Int(minutes as i64)) {
        Some(row) => Err(format!("family {} has {} rows", row[0].render(), row[1].render())),
        None => Ok(()),
    }
}

/// A ranking reduced to what must repeat bit for bit: family order, score
/// and p-value.
type RankingBits = Vec<(String, u64, u64)>;

fn in_unit_interval(v: f64) -> bool {
    (0.0..=1.0).contains(&v)
}

/// An `EXPLAIN FOR` result must be `TOP` scored rows, every score and
/// p-value in [0, 1].
fn check_ranking(table: &Table) -> Result<RankingBits, String> {
    if table.len() != TOP {
        return Err(format!("ranking has {} rows, expected {TOP}", table.len()));
    }
    table
        .rows()
        .iter()
        .map(|row| match (&row[1], &row[2], &row[3], &row[5]) {
            (Value::Str(family), Value::Float(score), Value::Float(p), Value::Null)
                if in_unit_interval(*score) && in_unit_interval(*p) =>
            {
                Ok((family.clone(), score.to_bits(), p.to_bits()))
            }
            _ => Err(format!("bad ranking row: {row:?}")),
        })
        .collect()
}

/// Every op must give the ranking the first op gave.
fn agree(expected: &mut Option<RankingBits>, got: RankingBits) -> Result<(), String> {
    match expected {
        None => {
            *expected = Some(got);
            Ok(())
        }
        Some(first) if *first == got => Ok(()),
        Some(_) => Err("ranking differs from the first op's".to_string()),
    }
}

fn crc32(bytes: impl Iterator<Item = u8>) -> u32 {
    !bytes.fold(!0u32, |crc, byte| {
        (0..8).fold(crc ^ u32::from(byte), |c, _| (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg()))
    })
}

/// What the workload says about its checked, unconditioned ranking of the
/// target: the injected cause families among its first ten (of three; on
/// some seeds a day of data buries all of them, so this is reported, not
/// required), and a CRC-32 over family names and score bits, one number
/// by which a later change can show its ranking equals its parent's.
fn ranking_counts(sim: &SimOutput, ranking: &RankingBits) -> Counts {
    let causes =
        ranking.iter().take(10).filter(|(f, _, _)| sim.truth.cause_families.contains(f)).count();
    let crc = crc32(ranking.iter().flat_map(|(f, score, _)| f.bytes().chain(score.to_le_bytes())));
    vec![("core.causes_in_top10", causes as f64), ("session.ranking_crc32", f64::from(crc))]
}

// ------------------------------------------------------------- explains

/// One `EXPLAIN FOR` statement.
struct Explain {
    target: &'static str,
    given: &'static [&'static str],
    scorer: &'static str,
}

impl Explain {
    fn sql(&self) -> String {
        let given = match self.given {
            [] => String::new(),
            given => format!(" GIVEN {}", given.join(", ")),
        };
        format!("EXPLAIN FOR {}{given} USING SCORER {} TOP {TOP}", self.target, self.scorer)
    }

    /// The statement as the call `Session` makes for it, with `top_k`
    /// raised to every hypothesis so that each one's scoring time is seen.
    /// Its first `TOP` must be what the session returned: the attribution
    /// is only worth reading if these calls are the op.
    fn rank(
        &self,
        engine: &mut Engine,
        expected: Option<&RankingBits>,
        t: &mut Tracer,
    ) -> Result<Counts, String> {
        let kind = ScorerKind::parse(self.scorer).ok_or("unknown scorer")?;
        let top_k = std::mem::replace(&mut engine.config_mut().top_k, usize::MAX);
        let ranking = t.span("core.rank", |_| engine.rank(self.target, self.given, kind));
        engine.config_mut().top_k = top_k;
        let ranking = ranking.map_err(text)?;
        let seconds = || ranking.entries.iter().map(|e| e.duration.as_secs_f64());
        let counts = vec![
            ("core.hypotheses", ranking.hypotheses_scored as f64),
            (
                "core.failed_hypotheses",
                ranking.entries.iter().filter(|e| e.error.is_some()).count() as f64,
            ),
            ("core.score_s_sum", seconds().sum()),
            ("core.score_s_max", seconds().fold(0.0, f64::max)),
        ];
        let bits: RankingBits = ranking
            .entries
            .iter()
            .take(TOP)
            .map(|e| (e.family.clone(), e.score.to_bits(), e.p_value.to_bits()))
            .collect();
        if expected != Some(&bits) {
            return Err(format!("the decomposed pass ranks differently: {}", self.sql()));
        }
        Ok(counts)
    }
}

// ------------------------------------------------------ script workloads

enum Layout {
    Long,
    Wide,
}

/// A cold script: open the store, bind it, `CREATE FAMILY`, `EXPLAIN FOR`.
struct ScriptSpec {
    minutes: usize,
    page_budget: Option<u64>,
    family: &'static str,
    options: &'static str,
    select: &'static str,
    layout: Layout,
    explain: Explain,
}

/// ROADMAP's baseline script, the CLI's `sql --data-dir DIR -f script`:
/// every point gathered as a row, then the long pivot.
static INCIDENT_COLD: ScriptSpec = ScriptSpec {
    minutes: INCIDENT_MIN,
    page_budget: None,
    family: "metrics",
    options: LONG_OPTIONS,
    select: LONG_SELECT,
    layout: Layout::Long,
    explain: Explain { target: TARGET, given: &[], scorer: "l2" },
};

/// The Appendix-C shape over a store five times its 2 MiB page budget:
/// a scan-level aggregate, then the wide pivot over 7x fewer rows.
static FAMILY_AGG_PAGED: ScriptSpec = ScriptSpec {
    minutes: DAY_MIN,
    page_budget: Some(2 << 20),
    family: "by_name",
    options: "family='metric_name'",
    select: "SELECT timestamp, metric_name, AVG(value) AS mean_v, MAX(value) AS max_v, \
             STDDEV(value) AS sd_v FROM tsdb GROUP BY timestamp, metric_name",
    layout: Layout::Wide,
    explain: Explain { target: TARGET, given: &[], scorer: "corrmax" },
};

fn create_family_sql(family: &str, options: &str, select: &str) -> String {
    format!("CREATE FAMILY {family} WITH ({options}) AS {select}")
}

struct Script {
    spec: &'static ScriptSpec,
    seed: u64,
    dir: PathBuf,
    create_sql: String,
    explain_sql: String,
    input: Option<Input>,
    expected: Option<RankingBits>,
}

impl Script {
    fn new(spec: &'static ScriptSpec, seed: u64, dir: PathBuf) -> Script {
        Script {
            spec,
            seed,
            dir,
            create_sql: create_family_sql(spec.family, spec.options, spec.select),
            explain_sql: spec.explain.sql(),
            input: None,
            expected: None,
        }
    }
}

impl Workload for Script {
    fn set_up(&mut self, t: &mut Tracer) -> Result<Counts, String> {
        let (input, counts) = simulate_into(t, &self.dir, self.spec.minutes, self.seed)?;
        self.input = Some(input);
        Ok(counts)
    }

    fn op(&mut self, t: &mut Tracer) -> Result<OpOutcome, String> {
        let input = self.input.as_ref().ok_or("op before set-up")?;
        let read = io_chars().0;
        let started = Instant::now();
        let (db, mut session) = t
            .span("session.open_bind", |_| {
                let db = Tsdb::open_read_only_with(&self.dir, storage(self.spec.page_budget))?;
                let mut session = Session::new();
                session.bind_tsdb("tsdb", &db);
                Ok::<_, StorageError>((db, session))
            })
            .map_err(text)?;
        let created =
            t.span("session.create_family", |_| session.execute(&self.create_sql)).map_err(text)?;
        let ranked =
            t.span("session.explain_for", |_| session.execute(&self.explain_sql)).map_err(text)?;
        let seconds = started.elapsed().as_secs_f64();
        let read = io_chars().0 - read;

        check_families(&created.table, input.family_count(), input.minutes)?;
        agree(&mut self.expected, check_ranking(&ranked.table)?)?;
        Ok(OpOutcome { seconds, counts: paging_counts(&db, input.points, read)? })
    }

    fn decomposed(&mut self, t: &mut Tracer) -> Result<Counts, String> {
        let spec = self.spec;
        let db = t
            .span("tsdb.open", |_| Tsdb::open_read_only_with(&self.dir, storage(spec.page_budget)))
            .map_err(text)?;
        let mut catalog = Catalog::new();
        t.span("query.bind", |_| catalog.register_tsdb("tsdb", &db));
        let create = t
            .span("query.parse_plan", |_| {
                catalog.execute(&format!("EXPLAIN {}", spec.select))?;
                parse_statement(&self.create_sql)
            })
            .map_err(text)?;
        let Statement::CreateFamily(create) = create else {
            return Err("CREATE FAMILY parsed as another statement".to_string());
        };
        let table = t
            .span("query.stage1", |_| {
                catalog.execute_query_with(&create.query, ExecOptions::default())
            })
            .map_err(text)?;
        let frames = t
            .span("query.pivot", |_| match spec.layout {
                Layout::Long => pivot_long(&table, "timestamp", "metric_name", "tag", "value"),
                Layout::Wide => pivot_wide(&table, "timestamp", "metric_name"),
            })
            .map_err(text)?;
        let mut counts = vec![
            ("query.stage1_rows", table.len() as f64),
            ("query.pivot_families", frames.len() as f64),
            ("query.pivot_cells", frames.iter().map(|f| f.len() * f.width()).sum::<usize>() as f64),
        ];
        drop(table);
        let mut engine = Engine::default();
        t.span("core.register", |_| {
            for frame in frames {
                engine.add_family(FeatureFamily::from_frame_owned(frame));
            }
        });
        counts.extend(spec.explain.rank(&mut engine, self.expected.as_ref(), t)?);
        Ok(counts)
    }

    fn verify_reference(&mut self) -> Result<Counts, String> {
        let input = self.input.as_ref().ok_or("no set-up")?;
        let mut session = Session::new();
        session.bind_tsdb("tsdb", &input.sim.db);
        session.execute(&self.create_sql).map_err(text)?;
        let reference = check_ranking(&session.execute(&self.explain_sql).map_err(text)?.table)?;
        if self.expected.as_ref() != Some(&reference) {
            return Err("the ranking differs from the in-memory reference".to_string());
        }
        Ok(ranking_counts(&input.sim, &reference))
    }
}

// ---------------------------------------------------------- rerank_warm

/// The paper's interactive loop (§5, Fig. 10) on a warm session: change
/// the conditioning set, the target or the scorer and rank again. One
/// cycle is the op, so that the median does not hop between scorers.
static CYCLE: [Explain; 8] = [
    Explain { target: TARGET, given: &[], scorer: "l2" },
    Explain { target: TARGET, given: &["pipeline_input_rate"], scorer: "l2" },
    Explain { target: "pipeline_latency", given: &["pipeline_input_rate"], scorer: "l2" },
    Explain { target: TARGET, given: &[], scorer: "l2p50" },
    Explain { target: TARGET, given: &[], scorer: "corrmax" },
    Explain { target: TARGET, given: &[], scorer: "corrmean" },
    Explain { target: "tcp_retransmits", given: &[], scorer: "l2" },
    Explain { target: TARGET, given: &["pipeline_input_rate", "tcp_retransmits"], scorer: "l2" },
];

struct Rerank {
    seed: u64,
    dir: PathBuf,
    create_sql: String,
    cycle_sql: Vec<String>,
    warm: Option<(Input, Session)>,
    expected: Vec<Option<RankingBits>>,
}

impl Rerank {
    fn new(seed: u64, dir: PathBuf) -> Rerank {
        Rerank {
            seed,
            dir,
            create_sql: create_family_sql("metrics", LONG_OPTIONS, LONG_SELECT),
            cycle_sql: CYCLE.iter().map(Explain::sql).collect(),
            warm: None,
            expected: vec![None; CYCLE.len()],
        }
    }
}

impl Workload for Rerank {
    fn set_up(&mut self, t: &mut Tracer) -> Result<Counts, String> {
        self.warm = None;
        let (input, counts) = simulate_into(t, &self.dir, DAY_MIN, self.seed)?;
        let db = t.span("tsdb.open", |_| Tsdb::open_read_only(&self.dir)).map_err(text)?;
        let mut session = Session::new();
        t.span("query.bind", |_| session.bind_tsdb("tsdb", &db));
        let created =
            t.span("session.create_family", |_| session.execute(&self.create_sql)).map_err(text)?;
        check_families(&created.table, input.family_count(), input.minutes)?;
        self.warm = Some((input, session));
        Ok(counts)
    }

    fn op(&mut self, t: &mut Tracer) -> Result<OpOutcome, String> {
        let (_, session) = self.warm.as_mut().ok_or("op before set-up")?;
        let started = Instant::now();
        let ranked = self
            .cycle_sql
            .iter()
            .map(|sql| t.span("session.explain_for", |_| session.execute(sql)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(text)?;
        let seconds = started.elapsed().as_secs_f64();
        for (expected, outcome) in self.expected.iter_mut().zip(&ranked) {
            agree(expected, check_ranking(&outcome.table)?)?;
        }
        Ok(OpOutcome { seconds, counts: Vec::new() })
    }

    fn decomposed(&mut self, t: &mut Tracer) -> Result<Counts, String> {
        let (_, session) = self.warm.as_mut().ok_or("op before set-up")?;
        t.span("query.parse_plan", |_| {
            self.cycle_sql.iter().try_for_each(|s| parse_statement(s).map(drop))
        })
        .map_err(text)?;
        let mut totals: Counts = Vec::new();
        for (explain, expected) in CYCLE.iter().zip(&self.expected) {
            for (name, value) in explain.rank(session.engine_mut(), expected.as_ref(), t)? {
                match totals.iter_mut().find(|(n, _)| *n == name) {
                    // The slowest hypothesis of the cycle; everything else adds up.
                    Some((_, total)) if name == "core.score_s_max" => *total = total.max(value),
                    Some((_, total)) => *total += value,
                    None => totals.push((name, value)),
                }
            }
        }
        Ok(totals)
    }

    fn verify_reference(&mut self) -> Result<Counts, String> {
        let (input, _) = self.warm.as_ref().ok_or("no set-up")?;
        let mut session = Session::new();
        session.bind_tsdb("tsdb", &input.sim.db);
        session.execute(&self.create_sql).map_err(text)?;
        for (sql, expected) in self.cycle_sql.iter().zip(&self.expected) {
            let reference = check_ranking(&session.execute(sql).map_err(text)?.table)?;
            if expected.as_ref() != Some(&reference) {
                return Err(format!("differs from the in-memory reference: {sql}"));
            }
        }
        // The first statement is the unconditioned ranking of the target.
        Ok(ranking_counts(&input.sim, self.expected[0].as_ref().ok_or("no op ran")?))
    }
}

// ------------------------------------------------------ storage workloads

struct IngestRounds {
    seed: u64,
    dir: PathBuf,
    input: Option<(Input, PointDigest)>,
}

impl Workload for IngestRounds {
    fn set_up(&mut self, t: &mut Tracer) -> Result<Counts, String> {
        let input = generate(t, DAY_MIN, self.seed);
        let digest = PointDigest::of_input(&input);
        self.input = Some((input, digest));
        Ok(Vec::new())
    }

    fn op(&mut self, t: &mut Tracer) -> Result<OpOutcome, String> {
        let (input, digest) = self.input.as_ref().ok_or("op before set-up")?;
        fresh_dir(&self.dir)?;
        let started = Instant::now();
        let counts = ingest_rounds(t, &self.dir, input)?;
        let seconds = started.elapsed().as_secs_f64();
        // What was acknowledged must be what a reader finds.
        let db = Tsdb::open_read_only(&self.dir).map_err(text)?;
        let span = db.time_span().ok_or("the reopened store is empty")?;
        if PointDigest::of_scan(&db.scan_parts(&MetricFilter::all(), &span)) != *digest {
            return Err("a reopened store does not hold the ingested points".to_string());
        }
        Ok(OpOutcome { seconds, counts })
    }
}

/// A ninth of the store: most of a full scan faults and evicts.
const SCAN_BUDGET: u64 = 1 << 20;

struct ScanPaged {
    seed: u64,
    dir: PathBuf,
    input: Option<(usize, PointDigest)>,
}

impl Workload for ScanPaged {
    fn set_up(&mut self, t: &mut Tracer) -> Result<Counts, String> {
        let input = generate(t, DAY_MIN, self.seed);
        fresh_dir(&self.dir)?;
        let counts = ingest_rounds(t, &self.dir, &input)?;
        self.input = Some((input.points, PointDigest::of_input(&input)));
        Ok(counts)
    }

    fn op(&mut self, _: &mut Tracer) -> Result<OpOutcome, String> {
        let (points, digest) = self.input.as_ref().ok_or("op before set-up")?;
        let read = io_chars().0;
        let started = Instant::now();
        let db = Tsdb::open_read_only_with(&self.dir, storage(Some(SCAN_BUDGET))).map_err(text)?;
        let span = db.time_span().ok_or("the store is empty")?;
        let parts = db.scan_parts(&MetricFilter::all(), &span);
        let seconds = started.elapsed().as_secs_f64();
        let read = io_chars().0 - read;
        let scanned = PointDigest::of_scan(&parts);
        drop(parts);
        if scanned != *digest {
            return Err(format!("scanned {scanned:?}, ingested {digest:?}"));
        }
        Ok(OpOutcome { seconds, counts: paging_counts(&db, *points, read)? })
    }

    fn decomposed(&mut self, t: &mut Tracer) -> Result<Counts, String> {
        let db = t
            .span("tsdb.open", |_| Tsdb::open_read_only_with(&self.dir, storage(Some(SCAN_BUDGET))))
            .map_err(text)?;
        let span = db.time_span().ok_or("the store is empty")?;
        // Under the budget the second scan faults again; it is warm only
        // in what the first left decoded.
        for name in ["tsdb.scan_cold", "tsdb.scan_warm"] {
            t.span(name, |_| drop(db.scan_parts(&MetricFilter::all(), &span)));
        }
        Ok(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32("123456789".bytes()), 0xCBF4_3926);
    }

    #[test]
    fn explain_sql_spells_the_given_clause() {
        assert_eq!(CYCLE[0].sql(), "EXPLAIN FOR pipeline_runtime USING SCORER l2 TOP 20");
        assert_eq!(
            CYCLE[7].sql(),
            "EXPLAIN FOR pipeline_runtime GIVEN pipeline_input_rate, tcp_retransmits \
             USING SCORER l2 TOP 20"
        );
    }
}
