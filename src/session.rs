//! The declarative session: multi-statement SQL scripts driving the RCA
//! engine end-to-end.
//!
//! The paper's thesis is that the *whole* root-cause workflow is
//! declarative: stage-one family queries, the pivot into the Feature
//! Family Table, and hypothesis ranking are all expressed in one query
//! language (Figure 4, Appendix C). [`Session`] is that surface — a
//! stateful pairing of a query [`Catalog`] with an embedded
//! [`Engine`] that executes `;`-separated scripts mixing ordinary SQL
//! with the RCA statements:
//!
//! ```sql
//! CREATE FAMILY metrics WITH (layout = 'long', family = 'metric_name')
//!   AS SELECT timestamp, metric_name, tag, value FROM tsdb;
//! EXPLAIN FOR pipeline_runtime GIVEN pipeline_input_rate
//!   USING SCORER l2 TOP 10;
//! SELECT family, score FROM ranking WHERE score > 0.5;
//! ```
//!
//! * `CREATE FAMILY` is one plan in the query crate — the stage-one
//!   query under a pivot root ([`Catalog::execute_family`]; a long pivot
//!   straight over a TSDB scan goes from series to family matrices, and a
//!   wide pivot over a scan aggregate from groups to frames, without a
//!   row in between) — whose frames are registered with the
//!   engine here; `EXPLAIN CREATE FAMILY ...` shows that plan and
//!   registers nothing;
//! * `EXPLAIN FOR` runs Algorithm 1 and returns the ranking as an
//!   ordinary [`Table`], also registered in the catalog under
//!   [`RANKING_TABLE`] so later `SELECT`s compose with it;
//! * `SHOW FAMILIES` / `SHOW TABLES` / `DROP FAMILY` manage session
//!   state; plain queries (including `EXPLAIN <query>` plan dumps) run
//!   unchanged.
//!
//! Bind a store with [`Session::bind_tsdb`]: a point-in-time snapshot,
//! so a statement sees later ingests only after the store is bound again.

use std::collections::BTreeMap;
use std::fmt;

use explainit_core::{
    auto_select_scorer, CoreError, Engine, EngineConfig, FeatureFamily, Ranking, ScorerKind,
};
use explainit_query::{
    parse_script, parse_statement, Catalog, CreateFamily, ExecOptions, ExplainFor, QueryError,
    Statement, Table, Value, FAMILY_COLUMNS,
};
use explainit_tsdb::Tsdb;

/// The catalog table each `EXPLAIN FOR` (re)registers its result under.
pub const RANKING_TABLE: &str = "ranking";

/// Errors surfaced while executing session statements.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The query layer rejected or failed a statement.
    Query(QueryError),
    /// The RCA engine rejected a ranking request.
    Core(CoreError),
    /// A session-level statement error (bad option, unknown family, ...).
    Statement(String),
    /// A script error with its 1-based statement position; the original
    /// error stays matchable in `source`.
    AtStatement {
        /// 1-based position in the script.
        index: usize,
        /// The underlying error.
        source: Box<SessionError>,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Query(e) => write!(f, "{e}"),
            SessionError::Core(e) => write!(f, "{e}"),
            SessionError::Statement(m) => write!(f, "{m}"),
            SessionError::AtStatement { index, source } => {
                write!(f, "statement {index}: {source}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<QueryError> for SessionError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::Statement(m) => SessionError::Statement(m),
            other => SessionError::Query(other),
        }
    }
}

impl From<CoreError> for SessionError {
    fn from(e: CoreError) -> Self {
        SessionError::Core(e)
    }
}

/// Result alias for session operations.
pub type Result<T> = std::result::Result<T, SessionError>;

/// The outcome of one executed statement.
#[derive(Debug, Clone)]
pub struct StatementOutcome {
    /// One-line description of what ran (for logs / the CLI).
    pub summary: String,
    /// The statement's result relation (every statement returns one).
    pub table: Table,
    /// Side-channel messages (auto-scorer choice, registrations, ...).
    pub notices: Vec<String>,
}

/// A stateful declarative session: a SQL catalog plus an embedded
/// hypothesis-ranking engine, driven by multi-statement scripts.
#[derive(Debug, Default)]
pub struct Session {
    catalog: Catalog,
    engine: Engine,
    /// `CREATE FAMILY` statement name → the engine families it registered.
    groups: BTreeMap<String, Vec<String>>,
    /// Executor options every statement's queries run with (partition
    /// count, scan-aggregate pushdown). Defaults to auto/on.
    exec_options: ExecOptions,
}

impl Session {
    /// Creates a session with the default engine configuration.
    pub fn new() -> Session {
        Session::default()
    }

    /// Creates a session with an explicit engine configuration.
    pub fn with_config(config: EngineConfig) -> Session {
        Session { engine: Engine::new(config), ..Session::default() }
    }

    /// Binds a point-in-time snapshot of a store as table `name`; bind
    /// again to see later ingests.
    pub fn bind_tsdb(&mut self, name: &str, db: &Tsdb) {
        self.catalog.register_tsdb(name, db);
    }

    /// The session's catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The embedded ranking engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the engine: its configuration (the benchmark
    /// raises `top_k` to time every hypothesis) and programmatic family
    /// registration.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Adds a programmatically built family (outside any statement group).
    pub fn add_family(&mut self, family: FeatureFamily) {
        self.engine.add_family(family);
    }

    /// Sets the executor options (the partition count) used by every
    /// subsequent statement's queries — the CLI's `sql --partitions N`
    /// flag lands here, and the partition-sweep end-to-end test drives it
    /// directly.
    pub fn set_exec_options(&mut self, opts: ExecOptions) {
        self.exec_options = opts;
    }

    /// The executor options statements currently run with.
    pub fn exec_options(&self) -> ExecOptions {
        self.exec_options
    }

    /// Executes a `;`-separated script, returning one outcome per
    /// statement. Execution stops at the first failing statement; the
    /// error names its 1-based position.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<StatementOutcome>> {
        let statements = parse_script(sql)?;
        let mut outcomes = Vec::with_capacity(statements.len());
        for (i, statement) in statements.iter().enumerate() {
            let outcome = self
                .execute_statement(statement)
                .map_err(|e| SessionError::AtStatement { index: i + 1, source: Box::new(e) })?;
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }

    /// Executes exactly one statement.
    pub fn execute(&mut self, sql: &str) -> Result<StatementOutcome> {
        let statement = parse_statement(sql)?;
        self.execute_statement(&statement)
    }

    /// Executes a pre-parsed statement.
    pub fn execute_statement(&mut self, statement: &Statement) -> Result<StatementOutcome> {
        match statement {
            Statement::Query(q) => {
                let table = self.catalog.execute_query_with(q, self.exec_options)?;
                let summary = if q.explain {
                    "EXPLAIN".to_string()
                } else {
                    format!("SELECT: {} rows", table.len())
                };
                Ok(StatementOutcome { summary, table, notices: Vec::new() })
            }
            Statement::CreateFamily(cf) => self.create_family(cf),
            Statement::ExplainFor(e) => self.explain_for(e),
            Statement::ShowFamilies => Ok(self.show_families()),
            Statement::ShowTables => Ok(self.show_tables()),
            Statement::DropFamily { name } => self.drop_family(name),
        }
    }

    /// `CREATE FAMILY`: stage-one query → pivot (one plan, in the query
    /// crate) → engine registration. `EXPLAIN CREATE FAMILY` stops at the
    /// plan.
    fn create_family(&mut self, cf: &CreateFamily) -> Result<StatementOutcome> {
        if cf.explain {
            let table = self.catalog.explain_family(cf)?;
            return Ok(StatementOutcome {
                summary: "EXPLAIN".to_string(),
                table,
                notices: Vec::new(),
            });
        }
        let frames = self.catalog.execute_family(cf, self.exec_options)?;
        // Re-running a CREATE FAMILY replaces its previous group wholesale.
        if let Some(old) = self.groups.remove(&cf.name) {
            for family in old {
                self.engine.remove_family(&family);
            }
        }
        let mut rows = Vec::with_capacity(frames.len());
        let mut registered = Vec::with_capacity(frames.len());
        for frame in frames {
            let family = FeatureFamily::from_frame_owned(frame);
            // A name collision steals the family from any other group.
            for members in self.groups.values_mut() {
                members.retain(|m| m != &family.name);
            }
            self.groups.retain(|_, members| !members.is_empty());
            rows.push(vec![
                Value::Str(family.name.clone()),
                Value::Int(family.len() as i64),
                Value::Int(family.width() as i64),
            ]);
            registered.push(family.name.clone());
            self.engine.add_family(family);
        }
        let summary = format!("CREATE FAMILY {}: {} families registered", cf.name, rows.len());
        self.groups.insert(cf.name.clone(), registered);
        Ok(StatementOutcome {
            summary,
            table: Table::from_rows(&FAMILY_COLUMNS, rows),
            notices: Vec::new(),
        })
    }

    /// `EXPLAIN FOR`: one Algorithm-1 ranking, returned as a table and
    /// registered under [`RANKING_TABLE`] for downstream `SELECT`s.
    fn explain_for(&mut self, e: &ExplainFor) -> Result<StatementOutcome> {
        let mut notices = Vec::new();
        let scorer_name = e.scorer.as_deref().unwrap_or("auto");
        let scorer = if scorer_name.eq_ignore_ascii_case("auto") {
            let t_steps = self.engine.family(&e.target).map_or(0, FeatureFamily::len);
            let choice = auto_select_scorer(self.engine.families(), t_steps);
            notices.push(format!(
                "auto-selected scorer {}: {}",
                choice.scorer.name(),
                choice.reason
            ));
            choice.scorer
        } else {
            ScorerKind::parse(scorer_name).ok_or_else(|| {
                SessionError::Statement(format!(
                    "unknown scorer: {scorer_name} \
                     (expected auto, corrmean, corrmax, l2, l2p50, l2p500 or lasso)"
                ))
            })?
        };
        let given: Vec<&str> = e.given.iter().map(String::as_str).collect();
        // TOP k applies to this request only.
        let default_top = self.engine.config().top_k;
        if let Some(k) = e.top {
            self.engine.config_mut().top_k = k;
        }
        let outcome = self.engine.rank(&e.target, &given, scorer);
        self.engine.config_mut().top_k = default_top;
        let ranking = outcome?;
        let table = ranking_table(&ranking);
        self.catalog.register(RANKING_TABLE, table.clone());
        notices.push(format!("ranking registered as table '{RANKING_TABLE}'"));
        let summary = format!(
            "EXPLAIN FOR {}: {} hypotheses scored with {} in {:.1?} ({:.1?} preparing the shared plan)",
            ranking.target,
            ranking.hypotheses_scored,
            ranking.scorer.name(),
            ranking.elapsed,
            ranking.prepared
        );
        Ok(StatementOutcome { summary, table, notices })
    }

    /// `SHOW FAMILIES`: every engine family with its statement group.
    fn show_families(&self) -> StatementOutcome {
        let rows: Vec<Vec<Value>> = self
            .engine
            .families()
            .iter()
            .map(|family| {
                let group = self
                    .groups
                    .iter()
                    .find(|(_, members)| members.contains(&family.name))
                    .map_or(Value::Null, |(g, _)| Value::Str(g.clone()));
                vec![
                    Value::Str(family.name.clone()),
                    group,
                    Value::Int(family.len() as i64),
                    Value::Int(family.width() as i64),
                ]
            })
            .collect();
        StatementOutcome {
            summary: format!("SHOW FAMILIES: {} families", rows.len()),
            table: Table::from_rows(&["family", "source", "rows", "features"], rows),
            notices: Vec::new(),
        }
    }

    /// `SHOW TABLES`: the catalog's registered table names.
    fn show_tables(&self) -> StatementOutcome {
        let rows: Vec<Vec<Value>> =
            self.catalog.table_names().iter().map(|n| vec![Value::str(*n)]).collect();
        StatementOutcome {
            summary: format!("SHOW TABLES: {} tables", rows.len()),
            table: Table::from_rows(&["table"], rows),
            notices: Vec::new(),
        }
    }

    /// `DROP FAMILY`: removes one family, or a whole statement group.
    fn drop_family(&mut self, name: &str) -> Result<StatementOutcome> {
        let dropped: Vec<String> = if let Some(members) = self.groups.remove(name) {
            members.into_iter().filter(|m| self.engine.remove_family(m)).collect()
        } else if self.engine.remove_family(name) {
            for members in self.groups.values_mut() {
                members.retain(|m| m != name);
            }
            self.groups.retain(|_, members| !members.is_empty());
            vec![name.to_string()]
        } else {
            return Err(SessionError::Statement(format!("unknown family or group: {name}")));
        };
        let rows: Vec<Vec<Value>> = dropped.iter().map(|n| vec![Value::str(n)]).collect();
        Ok(StatementOutcome {
            summary: format!("DROP FAMILY {name}: {} families dropped", dropped.len()),
            table: Table::from_rows(&["dropped"], rows),
            notices: Vec::new(),
        })
    }
}

/// Renders a [`Ranking`] as the ordinary relation `EXPLAIN FOR` returns.
fn ranking_table(ranking: &Ranking) -> Table {
    let rows: Vec<Vec<Value>> = ranking
        .entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            vec![
                Value::Int(i as i64 + 1),
                Value::Str(entry.family.clone()),
                Value::Float(entry.score),
                Value::Float(entry.p_value),
                Value::Int(entry.family_width as i64),
                entry.error.as_ref().map_or(Value::Null, |e| Value::Str(e.clone())),
            ]
        })
        .collect();
    Table::from_rows(&["rank", "family", "score", "p_value", "features", "error"], rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use explainit_tsdb::SeriesKey;

    /// A store where `runtime` tracks `cause` and ignores the noise series.
    fn signal_db() -> Tsdb {
        let mut db = Tsdb::new();
        let n = 64;
        for t in 0..n {
            let ts = t * 60;
            let cause = ((t * 37 + 11) % 23) as f64 - 11.0;
            let noise = ((t * 13 + 5) % 7) as f64;
            db.try_insert(&SeriesKey::new("cause").with_tag("host", "a"), ts, cause)
                .expect("insert");
            db.try_insert(&SeriesKey::new("noise").with_tag("host", "a"), ts, noise)
                .expect("insert");
            db.try_insert(
                &SeriesKey::new("runtime").with_tag("pipeline_name", "p"),
                ts,
                3.0 * cause + 0.25,
            )
            .expect("insert");
        }
        db
    }

    fn session() -> Session {
        let mut s = Session::new();
        s.bind_tsdb("tsdb", &signal_db());
        s
    }

    #[test]
    fn full_script_workflow() {
        let mut s = session();
        let outcomes = s
            .execute_script(
                "CREATE FAMILY metrics WITH (layout = 'long', family = 'metric_name') AS \
                   SELECT timestamp, metric_name, tag, value FROM tsdb; \
                 EXPLAIN FOR runtime USING SCORER corrmax TOP 2; \
                 SELECT family FROM ranking WHERE rank = 1",
            )
            .unwrap();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].table.len(), 3, "three metric-name families");
        let ranking = &outcomes[1].table;
        assert_eq!(ranking.len(), 2, "TOP 2");
        assert_eq!(ranking.rows()[0][1], Value::str("cause"));
        assert_eq!(outcomes[2].table.rows()[0][0], Value::str("cause"));
    }

    #[test]
    fn create_family_single_frame_takes_statement_name() {
        let mut s = session();
        s.execute(
            "CREATE FAMILY target AS \
             SELECT timestamp, AVG(value) AS runtime_sec FROM tsdb \
             WHERE metric_name = 'runtime' GROUP BY timestamp",
        )
        .unwrap();
        let fam = s.engine().family("target").unwrap();
        assert_eq!(fam.width(), 1);
        assert_eq!(fam.len(), 64);
    }

    #[test]
    fn wide_layout_with_family_column_splits_frames() {
        let mut s = session();
        s.execute(
            "CREATE FAMILY by_name WITH (family = 'metric_name') AS \
             SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb \
             GROUP BY timestamp, metric_name",
        )
        .unwrap();
        assert_eq!(s.engine().family_count(), 3);
        assert!(s.engine().family("cause").is_some());
    }

    #[test]
    fn explain_for_auto_scorer_emits_notice() {
        let mut s = session();
        s.execute(
            "CREATE FAMILY metrics WITH (layout = 'long', family = 'metric_name') AS \
             SELECT timestamp, metric_name, tag, value FROM tsdb",
        )
        .unwrap();
        let outcome = s.execute("EXPLAIN FOR runtime").unwrap();
        assert!(outcome.notices.iter().any(|n| n.contains("auto-selected scorer")));
        assert_eq!(outcome.table.rows()[0][1], Value::str("cause"));
    }

    #[test]
    fn show_and_drop_family_lifecycle() {
        let mut s = session();
        s.execute(
            "CREATE FAMILY metrics WITH (layout = 'long', family = 'metric_name') AS \
             SELECT timestamp, metric_name, tag, value FROM tsdb",
        )
        .unwrap();
        let shown = s.execute("SHOW FAMILIES").unwrap();
        assert_eq!(shown.table.len(), 3);
        assert_eq!(shown.table.rows()[0][1], Value::str("metrics"), "group column");
        // Dropping one member keeps the rest of the group.
        let dropped = s.execute("DROP FAMILY noise").unwrap();
        assert_eq!(dropped.table.len(), 1);
        assert_eq!(s.engine().family_count(), 2);
        // Dropping the group removes the remainder.
        let dropped = s.execute("DROP FAMILY metrics").unwrap();
        assert_eq!(dropped.table.len(), 2);
        assert_eq!(s.engine().family_count(), 0);
        assert!(s.execute("DROP FAMILY metrics").is_err());
    }

    #[test]
    fn rerunning_create_family_replaces_the_group() {
        let mut s = session();
        for _ in 0..2 {
            s.execute(
                "CREATE FAMILY metrics WITH (layout = 'long', family = 'metric_name') AS \
                 SELECT timestamp, metric_name, tag, value FROM tsdb",
            )
            .unwrap();
        }
        assert_eq!(s.engine().family_count(), 3, "no duplicates after re-run");
        // Narrowing the query shrinks the group instead of leaking members.
        s.execute(
            "CREATE FAMILY metrics WITH (layout = 'long', family = 'metric_name') AS \
             SELECT timestamp, metric_name, tag, value FROM tsdb \
             WHERE metric_name = 'cause'",
        )
        .unwrap();
        assert_eq!(s.engine().family_count(), 1);
        assert!(s.engine().family("noise").is_none());
    }

    #[test]
    fn show_tables_lists_ranking_after_explain_for() {
        let mut s = session();
        s.execute(
            "CREATE FAMILY metrics WITH (layout = 'long', family = 'metric_name') AS \
             SELECT timestamp, metric_name, tag, value FROM tsdb",
        )
        .unwrap();
        let before = s.execute("SHOW TABLES").unwrap();
        assert_eq!(before.table.len(), 1, "just the tsdb binding");
        s.execute("EXPLAIN FOR runtime USING SCORER corrmax").unwrap();
        let after = s.execute("SHOW TABLES").unwrap();
        let names: Vec<String> = after.table.rows().iter().map(|r| r[0].render()).collect();
        assert!(names.contains(&RANKING_TABLE.to_string()), "names: {names:?}");
    }

    #[test]
    fn group_bookkeeping_prunes_emptied_groups() {
        let mut s = session();
        let create_all = "CREATE FAMILY a WITH (family = 'metric_name') AS \
             SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb \
             GROUP BY timestamp, metric_name";
        s.execute(create_all).unwrap();
        // A second statement producing the same family names steals all of
        // a's members; the emptied group must vanish with them.
        s.execute(&create_all.replacen("FAMILY a", "FAMILY b", 1)).unwrap();
        let err = s.execute("DROP FAMILY a").unwrap_err();
        assert!(err.to_string().contains("unknown family"), "got: {err}");
        assert_eq!(s.execute("DROP FAMILY b").unwrap().table.len(), 3);
    }

    #[test]
    fn statement_errors_name_their_position() {
        let mut s = session();
        let err = s.execute_script("SELECT 1; EXPLAIN FOR nope; SELECT 2").unwrap_err();
        assert!(err.to_string().contains("statement 2"), "got: {err}");
        // The original error stays matchable under the position wrapper.
        match err {
            SessionError::AtStatement { index: 2, source } => {
                assert!(matches!(*source, SessionError::Core(CoreError::UnknownFamily(_))));
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = s
            .execute("CREATE FAMILY f WITH (shape = 'round') AS SELECT timestamp, value FROM tsdb")
            .unwrap_err();
        assert!(err.to_string().contains("unknown CREATE FAMILY option"), "got: {err}");
        let err = s.execute("EXPLAIN FOR runtime USING SCORER warp").unwrap_err();
        assert!(err.to_string().contains("unknown scorer"), "got: {err}");
    }

    #[test]
    fn empty_stage_one_result_is_an_error() {
        let mut s = session();
        let err = s
            .execute("CREATE FAMILY f AS SELECT timestamp, value FROM tsdb WHERE metric_name = 'x'")
            .unwrap_err();
        assert!(err.to_string().contains("no rows"), "got: {err}");
    }

    #[test]
    fn statement_errors_are_the_same_on_both_pivot_paths() {
        let mut s = session();
        // The scan pivot (a bare scan under a long pivot) and the table
        // pivot (the same rows through a residual filter).
        for source in ["FROM tsdb", "FROM tsdb WHERE value > -1000000"] {
            let run = |s: &mut Session, with: &str, select: &str, filter: &str| {
                s.execute(&format!("CREATE FAMILY f {with} AS SELECT {select} {source}{filter}"))
            };
            let glue = if source.contains("WHERE") { " AND" } else { " WHERE" };
            let long = "WITH (layout = 'long')";
            let all = "timestamp, metric_name, tag, value";
            let err = run(&mut s, long, all, &format!("{glue} metric_name = 'x'")).unwrap_err();
            assert_eq!(
                err,
                SessionError::Statement(
                    "CREATE FAMILY f: the stage-one query returned no rows".into()
                )
            );
            let err = run(&mut s, long, "timestamp, metric_name, value", "").unwrap_err();
            assert_eq!(
                err,
                SessionError::Statement(
                    "the stage-one query returns only 3 columns, too few for this layout".into()
                )
            );
            let err = run(&mut s, "WITH (layout = 'long', feature = 'host')", all, "").unwrap_err();
            assert!(
                matches!(&err, SessionError::Query(QueryError::UnknownColumn(c)) if c == "host"),
                "got: {err:?}"
            );
            let err = run(&mut s, "WITH (layout = 'tall')", all, "").unwrap_err();
            assert_eq!(
                err,
                SessionError::Statement("unknown layout 'tall' (expected 'wide' or 'long')".into())
            );
            assert_eq!(s.engine().family_count(), 0, "a failed statement registers nothing");
            // And the outcome relation: family, rows, features in
            // registration order.
            let outcome = run(&mut s, long, all, "").unwrap();
            assert_eq!(outcome.summary, "CREATE FAMILY f: 3 families registered");
            assert_eq!(outcome.table.schema().columns(), ["family", "rows", "features"]);
            let row = |name: &str| vec![Value::str(name), Value::Int(64), Value::Int(1)];
            assert_eq!(outcome.table.rows(), [row("cause"), row("noise"), row("runtime")]);
            s.execute("DROP FAMILY f").unwrap();
        }
    }

    #[test]
    fn explain_create_family_shows_the_plan_and_registers_nothing() {
        let mut s = session();
        let outcome = s
            .execute(
                "EXPLAIN CREATE FAMILY metrics WITH (layout = 'long', family = 'metric_name') AS \
                 SELECT timestamp, metric_name, tag, value FROM tsdb WHERE metric_name = 'cause'",
            )
            .unwrap();
        assert_eq!(outcome.summary, "EXPLAIN");
        assert_eq!(
            outcome.table.rows(),
            [vec![Value::str(
                "ScanPivot tsdb name=cause layout=long ts=timestamp family=metric_name \
                 feature=tag value=value"
            )]]
        );
        assert_eq!(s.engine().family_count(), 0);
        assert!(s.execute("DROP FAMILY metrics").is_err(), "no group either");
    }

    #[test]
    fn rebinding_sees_ingests_between_statements() {
        let mut db = signal_db();
        let mut s = Session::new();
        s.bind_tsdb("tsdb", &db);
        let count = |s: &mut Session| {
            s.execute("SELECT COUNT(*) AS n FROM tsdb").unwrap().table.rows()[0][0].clone()
        };
        assert_eq!(count(&mut s), Value::Int(192));
        db.try_insert(&SeriesKey::new("late").with_tag("host", "b"), 0, 1.0).expect("insert");
        assert_eq!(count(&mut s), Value::Int(192), "the binding is a snapshot");
        s.bind_tsdb("tsdb", &db);
        assert_eq!(count(&mut s), Value::Int(193), "a re-bind sees the ingest");
    }
}
