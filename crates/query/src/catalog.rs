//! The table catalog: named tables plus TSDB virtual table bindings.
//!
//! A TSDB registered via [`Catalog::register_tsdb`] is a **snapshot**: the
//! store is cloned at bind time and the binding never changes (re-bind to
//! see later ingests). It stays a store, not rows: the optimizer pushes
//! `metric_name`, `tag['k']` and `timestamp` predicates down into its
//! inverted tag index instead of materializing the whole store as rows.
//! Row materialization only happens for queries that genuinely read
//! everything (and for the naive reference executor), and is cached.
//!
//! Each binding carries lazily built **scan dictionaries** ([`TsdbDicts`]):
//! the distinct metric names and tag maps of the store, each behind a
//! shared `Arc`, plus a per-series code. Scans emit their
//! `metric_name`/`tag` columns as [`crate::column::Column::Dict`] code
//! vectors over these dictionaries, so a scan allocates no per-row strings
//! or tag-map clones no matter how many rows it returns.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use explainit_sync::{LockClass, OnceLock};

use explainit_tsdb::{MetricFilter, StorageError, Tsdb};

/// A binding's materialized relational view; set once the snapshot's
/// scan, which decodes chunks and may fault pages, has succeeded.
static BINDING_CACHE: LockClass = LockClass::new("query.binding.cache", 30);

/// A binding's scan dictionaries; init walks the snapshot like the view.
static BINDING_DICTS: LockClass = LockClass::new("query.binding.dicts", 32);

use crate::ast::{CreateFamily, Query};
use crate::exec::{execute, execute_with, ExecOptions};
use crate::parser::parse_query;
use crate::pivot::FamilyFrame;
use crate::plan::TSDB_COLUMNS;
use crate::table::{Schema, Table};
use crate::value::Value;
use crate::{QueryError, Result};

/// Shared dictionaries for one TSDB binding's scan columns.
#[derive(Debug)]
pub(crate) struct TsdbDicts {
    /// Distinct metric names as `Value::Str`.
    pub names: Arc<Vec<Value>>,
    /// `names` code per series, indexed by `SeriesId::index()`.
    pub name_code: Vec<u32>,
    /// Distinct tag maps as `Value::Map`.
    pub tags: Arc<Vec<Value>>,
    /// `tags` code per series, indexed by `SeriesId::index()`.
    pub tag_code: Vec<u32>,
}

impl TsdbDicts {
    fn build(db: &Tsdb) -> TsdbDicts {
        let mut names: Vec<Value> = Vec::new();
        let mut name_ix: HashMap<String, u32> = HashMap::new();
        let mut tags: Vec<Value> = Vec::new();
        let mut tag_ix: HashMap<BTreeMap<String, String>, u32> = HashMap::new();
        let mut name_code = vec![0u32; db.series_count()];
        let mut tag_code = vec![0u32; db.series_count()];
        for (id, series) in db.iter() {
            let nc = *name_ix.entry(series.key.name.clone()).or_insert_with(|| {
                names.push(Value::Str(series.key.name.clone()));
                (names.len() - 1) as u32
            });
            name_code[id.index()] = nc;
            let tc = *tag_ix.entry(series.key.tags.clone()).or_insert_with(|| {
                tags.push(Value::Map(series.key.tags.clone()));
                (tags.len() - 1) as u32
            });
            tag_code[id.index()] = tc;
        }
        TsdbDicts { names: Arc::new(names), name_code, tags: Arc::new(tags), tag_code }
    }
}

/// The snapshot of a bound store, with its lazily built materialized
/// view and scan dictionaries.
#[derive(Debug)]
pub(crate) struct TsdbBinding {
    db: Tsdb,
    cache: OnceLock<Arc<Table>>,
    dicts: OnceLock<TsdbDicts>,
}

impl TsdbBinding {
    /// The bound store snapshot.
    pub(crate) fn db(&self) -> &Tsdb {
        &self.db
    }

    /// The scan dictionaries (built on first use).
    pub(crate) fn dicts(&self) -> &TsdbDicts {
        self.dicts.get_or_init(|| TsdbDicts::build(&self.db))
    }

    /// The materialized relational view (built on first use) — the
    /// pushdown path in the executor avoids this entirely. A chunk that
    /// cannot be read is the view's error, and nothing is cached then.
    fn table(&self, name: &str) -> Result<Arc<Table>> {
        if let Some(table) = self.cache.get() {
            return Ok(table.clone());
        }
        let table = Arc::new(
            table_from_tsdb(&self.db)
                .map_err(|e| QueryError::Storage(format!("scanning {name}: {e}")))?,
        );
        Ok(self.cache.get_or_init(|| table).clone())
    }
}

/// One registered table: plain rows, or a bound TSDB snapshot.
#[derive(Debug)]
enum Source {
    Mem(Arc<Table>),
    Tsdb(Arc<TsdbBinding>),
}

/// A catalog of named tables that SQL queries run against.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Source>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers (or replaces) a table under a case-insensitive name.
    pub fn register(&mut self, name: &str, table: Table) {
        self.tables.insert(name.to_lowercase(), Source::Mem(Arc::new(table)));
    }

    /// Removes a registered table or binding. Returns true if it existed.
    pub fn deregister(&mut self, name: &str) -> bool {
        self.tables.remove(&name.to_lowercase()).is_some()
    }

    /// Binds a TSDB as a relational table (default name `tsdb`) with the
    /// paper's observation schema: `timestamp, metric_name, tag, value`.
    ///
    /// The store is snapshotted at bind time (re-bind after ingesting more
    /// data) but *not* materialized: filtered queries scan through the tag
    /// index via predicate pushdown.
    pub fn register_tsdb(&mut self, name: &str, db: &Tsdb) {
        let binding = TsdbBinding {
            db: db.clone(),
            cache: OnceLock::new(&BINDING_CACHE),
            dicts: OnceLock::new(&BINDING_DICTS),
        };
        self.tables.insert(name.to_lowercase(), Source::Tsdb(Arc::new(binding)));
    }

    /// The snapshot behind a TSDB binding; any other name is
    /// [`QueryError::UnknownTable`].
    pub(crate) fn tsdb_binding(&self, name: &str) -> Result<&TsdbBinding> {
        match self.tables.get(&name.to_lowercase()) {
            Some(Source::Tsdb(binding)) => Ok(binding),
            _ => Err(QueryError::UnknownTable(name.to_string())),
        }
    }

    /// True when `name` is a TSDB binding.
    pub fn is_tsdb(&self, name: &str) -> bool {
        matches!(self.tables.get(&name.to_lowercase()), Some(Source::Tsdb(_)))
    }

    /// Looks a table up (case-insensitive); an unregistered name is
    /// [`QueryError::UnknownTable`]. For a TSDB binding this materializes
    /// (and caches) the full relational view — the pushdown path in the
    /// executor avoids this entirely — and a chunk that cannot be read is
    /// [`QueryError::Storage`].
    pub fn get(&self, name: &str) -> Result<Arc<Table>> {
        match self.tables.get(&name.to_lowercase()) {
            Some(Source::Mem(t)) => Ok(t.clone()),
            Some(Source::Tsdb(binding)) => binding.table(name),
            None => Err(QueryError::UnknownTable(name.to_string())),
        }
    }

    /// The schema of a registered table without materializing it.
    pub fn schema_of(&self, name: &str) -> Option<Schema> {
        match self.tables.get(&name.to_lowercase())? {
            Source::Mem(t) => Some(t.schema().clone()),
            Source::Tsdb(_) => {
                Some(Schema::new(TSDB_COLUMNS.iter().map(|s| s.to_string()).collect()))
            }
        }
    }

    /// Registered table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Parses and executes a SQL string (`EXPLAIN <query>` returns the
    /// optimized plan as a one-column table).
    pub fn execute(&self, sql: &str) -> Result<Table> {
        let query = parse_query(sql)?;
        self.execute_query(&query)
    }

    /// Executes a pre-parsed query.
    pub fn execute_query(&self, query: &Query) -> Result<Table> {
        execute(self, query)
    }

    /// Executes a pre-parsed query with explicit execution options (e.g. a
    /// forced partition count for the parallel pipelines).
    pub fn execute_query_with(&self, query: &Query, opts: ExecOptions) -> Result<Table> {
        execute_with(self, query, opts)
    }

    /// Executes a `CREATE FAMILY` statement — stage one and the pivot, one
    /// plan — to its family frames in registration order. Two shapes fuse
    /// and build frames without a row table: a long pivot straight over a
    /// TSDB scan (`ScanPivot`: series to matrices) and a wide pivot over a
    /// scan aggregate grouped by `timestamp` and the family column
    /// (`ScanAggregatePivot`: groups to frames, class by class). Every
    /// other shape executes its stage-one query to a [`Table`] and pivots
    /// that. The plan's shape alone decides; [`Catalog::explain_family`]
    /// shows which. Statement-level failures (an unknown option or layout,
    /// no rows, too few columns) are [`crate::QueryError::Statement`]s.
    pub fn execute_family(&self, cf: &CreateFamily, opts: ExecOptions) -> Result<Vec<FamilyFrame>> {
        crate::exec::execute_family(self, cf, opts)
    }

    /// `EXPLAIN CREATE FAMILY ...`: the statement's optimized plan as a
    /// one-column table, the `Pivot`, `ScanPivot` or `ScanAggregatePivot`
    /// line on top.
    pub fn explain_family(&self, cf: &CreateFamily) -> Result<Table> {
        crate::exec::explain_family(self, cf)
    }

    /// Executes a query and registers the result as a new table — the
    /// paper's workflow stores each stage (Target, Condition, feature
    /// families) in a session-scoped temporary table.
    pub fn execute_into(&mut self, sql: &str, into: &str) -> Result<Table> {
        let t = self.execute(sql)?;
        self.register(into, t.clone());
        Ok(t)
    }
}

/// Converts a TSDB to the relational observation table.
///
/// Rows are ordered by `(timestamp, series key)` for deterministic output.
/// A chunk that cannot be read fails the whole conversion.
pub fn table_from_tsdb(db: &Tsdb) -> std::result::Result<Table, StorageError> {
    let mut rows: Vec<(i64, String, Vec<Value>)> = Vec::with_capacity(db.point_count());
    for part in db.scan_parts_between(&MetricFilter::all(), i64::MIN, i64::MAX)? {
        let canonical = part.key.canonical();
        for (&ts, &value) in part.timestamps.iter().zip(part.values) {
            rows.push((
                ts,
                canonical.clone(),
                vec![
                    Value::Int(ts),
                    Value::Str(part.key.name.clone()),
                    Value::Map(part.key.tags.clone()),
                    Value::Float(value),
                ],
            ));
        }
    }
    rows.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    Ok(Table::from_rows(&TSDB_COLUMNS, rows.into_iter().map(|(_, _, r)| r).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use explainit_tsdb::SeriesKey;

    fn db() -> Tsdb {
        let mut db = Tsdb::new();
        for (host, base) in [("web-1", 1.0), ("web-2", 2.0)] {
            let key = SeriesKey::new("cpu").with_tag("host", host);
            for t in 0..3 {
                db.insert(&key, t * 60, base + t as f64);
            }
        }
        let key = SeriesKey::new("pipeline_runtime").with_tag("pipeline_name", "p1");
        for t in 0..3 {
            db.insert(&key, t * 60, 10.0 * t as f64);
        }
        db
    }

    #[test]
    fn tsdb_binding_schema_and_rows() {
        let mut c = Catalog::new();
        c.register_tsdb("tsdb", &db());
        let t = c.execute("SELECT * FROM tsdb").unwrap();
        assert_eq!(t.schema().columns(), &["timestamp", "metric_name", "tag", "value"]);
        assert_eq!(t.len(), 9);
    }

    #[test]
    fn paper_target_query_runs() {
        let mut c = Catalog::new();
        c.register_tsdb("tsdb", &db());
        let t = c
            .execute(
                "SELECT timestamp, tag['pipeline_name'], AVG(value) AS runtime_sec \
                 FROM tsdb WHERE metric_name = 'pipeline_runtime' \
                 AND timestamp BETWEEN 0 AND 200 \
                 GROUP BY timestamp, tag['pipeline_name'] ORDER BY timestamp ASC",
            )
            .unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.rows()[2][2], Value::Float(20.0));
        assert_eq!(t.rows()[0][1], Value::str("p1"));
    }

    #[test]
    fn tag_filtering() {
        let mut c = Catalog::new();
        c.register_tsdb("tsdb", &db());
        let t =
            c.execute("SELECT value FROM tsdb WHERE tag['host'] = 'web-2' ORDER BY value").unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.rows()[0][0], Value::Float(2.0));
    }

    #[test]
    fn execute_into_registers_result() {
        let mut c = Catalog::new();
        c.register_tsdb("tsdb", &db());
        c.execute_into(
            "SELECT timestamp, AVG(value) AS v FROM tsdb WHERE metric_name = 'cpu' GROUP BY timestamp",
            "target",
        )
        .unwrap();
        let t = c.execute("SELECT COUNT(*) FROM target").unwrap();
        assert_eq!(t.rows()[0][0], Value::Int(3));
    }

    #[test]
    fn case_insensitive_names() {
        let mut c = Catalog::new();
        c.register("MyTable", Table::empty(&["x"]));
        assert!(c.get("mytable").is_ok());
        assert!(c.execute("SELECT * FROM MYTABLE").is_ok());
    }

    #[test]
    fn tsdb_binding_exposed_for_pushdown() {
        let mut c = Catalog::new();
        c.register_tsdb("tsdb", &db());
        assert!(c.is_tsdb("tsdb"));
        assert!(c.tsdb_binding("tsdb").is_ok());
        assert!(!c.is_tsdb("nope"));
        assert_eq!(c.tsdb_binding("nope").unwrap_err(), QueryError::UnknownTable("nope".into()));
        c.register("plain", Table::empty(&["x"]));
        assert!(!c.is_tsdb("plain"));
        assert!(c.tsdb_binding("plain").is_err());
    }

    #[test]
    fn deregister_removes_tables() {
        let mut c = Catalog::new();
        c.register("t", Table::empty(&["x"]));
        assert!(c.deregister("T"));
        assert!(!c.deregister("t"));
        assert_eq!(c.get("t").unwrap_err(), QueryError::UnknownTable("t".into()));
    }

    #[test]
    fn schema_of_does_not_materialize() {
        let mut c = Catalog::new();
        c.register_tsdb("tsdb", &db());
        let s = c.schema_of("tsdb").unwrap();
        assert_eq!(s.columns(), &["timestamp", "metric_name", "tag", "value"]);
    }

    #[test]
    fn binding_stays_a_snapshot() {
        let mut store = db();
        let mut c = Catalog::new();
        c.register_tsdb("tsdb", &store);
        store.insert(&SeriesKey::new("cpu").with_tag("host", "web-3"), 0, 7.0);
        let count =
            |c: &Catalog| c.execute("SELECT COUNT(*) FROM tsdb").unwrap().rows()[0][0].clone();
        assert_eq!(count(&c), Value::Int(9)); // the late insert is invisible
        c.register_tsdb("tsdb", &store);
        assert_eq!(count(&c), Value::Int(10)); // until the store is bound again
    }

    #[test]
    fn explain_renders_pushed_down_plan() {
        let mut c = Catalog::new();
        c.register_tsdb("tsdb", &db());
        let t = c
            .execute(
                "EXPLAIN SELECT timestamp, AVG(value) AS v FROM tsdb \
                 WHERE metric_name = 'cpu' AND tag['host'] = 'web-1' \
                 AND timestamp BETWEEN 0 AND 120 GROUP BY timestamp",
            )
            .unwrap();
        assert_eq!(t.schema().columns(), &["plan"]);
        let text: Vec<String> = t.rows().iter().map(|r| r[0].render()).collect();
        let joined = text.join("\n");
        // The GROUP BY timestamp pipeline collapses all the way into the
        // scan; the pushed-down predicates surface on its EXPLAIN line.
        assert!(joined.contains("ScanAggregate"), "plan:\n{joined}");
        assert!(joined.contains("name=cpu"), "plan:\n{joined}");
        assert!(joined.contains("tag[host]=web-1"), "plan:\n{joined}");
        assert!(joined.contains("time=[0, 120]"), "plan:\n{joined}");
    }
}
