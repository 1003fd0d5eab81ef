//! Tables: named, typed column vectors.
//!
//! A [`Table`] is columnar — one [`Column`] per schema entry — which is
//! what the vectorized executor operates on. `rows()` builds owned rows on
//! demand for the naive reference executor and for tests; no operator
//! reads rows, and a table keeps no row-major copy of its values.

use crate::column::Column;
use crate::value::Value;
use crate::{QueryError, Result};

/// Column names of a table. Names may be qualified (`t.col`) after joins;
/// resolution matches on the unqualified suffix when unambiguous.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<String>,
}

impl Schema {
    /// Creates a schema from column names.
    pub fn new(columns: Vec<String>) -> Self {
        Schema { columns }
    }

    /// Column names in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Resolves a (possibly qualified) column reference to an index.
    ///
    /// Resolution order: exact match, then unique suffix match on the
    /// unqualified name (`runtime` finds `t.runtime` when only one table has
    /// a `runtime` column). Ambiguity and misses produce
    /// [`QueryError::UnknownColumn`].
    pub fn resolve(&self, name: &str) -> Result<usize> {
        if let Some(i) = self.columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
            return Ok(i);
        }
        // Suffix match: "col" matches "tbl.col".
        let matches: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.rsplit('.').next().is_some_and(|last| last.eq_ignore_ascii_case(name))
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            1 => Ok(matches[0]),
            0 => {
                let near = self.near_misses(name);
                if near.is_empty() {
                    Err(QueryError::UnknownColumn(name.to_string()))
                } else {
                    Err(QueryError::UnknownColumn(format!(
                        "{name} (did you mean {}?)",
                        near.join(" or ")
                    )))
                }
            }
            _ => Err(QueryError::UnknownColumn(format!(
                "{name} is ambiguous (candidates: {})",
                matches.iter().map(|&i| self.columns[i].as_str()).collect::<Vec<_>>().join(", ")
            ))),
        }
    }

    /// Plausible intended columns for a name that failed to resolve: both
    /// the qualified names and their unqualified suffixes are considered,
    /// matched by small edit distance (scaled to the name's length) or by
    /// one being a prefix of the other. At most three, closest first.
    fn near_misses(&self, name: &str) -> Vec<String> {
        let budget = match name.len() {
            0..=3 => 1,
            _ => 2,
        };
        let target = name.to_ascii_lowercase();
        let mut scored: Vec<(usize, &String)> = self
            .columns
            .iter()
            .filter_map(|col| {
                let candidates = [col.as_str(), col.rsplit('.').next().unwrap_or(col)];
                candidates
                    .iter()
                    .filter_map(|c| {
                        let c = c.to_ascii_lowercase();
                        if target.len().min(c.len()) >= 3
                            && (c.starts_with(&target) || target.starts_with(&c))
                        {
                            return Some(1);
                        }
                        let d = edit_distance(&target, &c);
                        (d <= budget).then_some(d)
                    })
                    .min()
                    .map(|d| (d, col))
            })
            .collect();
        scored.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));
        scored.into_iter().take(3).map(|(_, c)| c.clone()).collect()
    }

    /// Prefixes every column with `alias.` (stripping any previous
    /// qualifier), used when a table enters a join scope.
    pub fn qualified(&self, alias: &str) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| {
                    let base = c.rsplit('.').next().unwrap_or(c);
                    format!("{alias}.{base}")
                })
                .collect(),
        }
    }
}

/// Levenshtein distance over bytes (column names are ASCII in practice).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// An in-memory table: schema plus typed value columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    /// Explicit row count: a table can have rows but no columns
    /// (`SELECT 1`-style constant queries start from one empty row).
    len: usize,
}

impl Table {
    /// Creates an empty table with the given column names.
    pub fn empty(columns: &[&str]) -> Self {
        Table {
            schema: Schema::new(columns.iter().map(|s| s.to_string()).collect()),
            columns: columns.iter().map(|_| Column::empty()).collect(),
            len: 0,
        }
    }

    /// Creates a table from rows.
    ///
    /// # Panics
    /// Panics if any row width differs from the column count.
    pub fn from_rows(columns: &[&str], rows: Vec<Vec<Value>>) -> Self {
        let schema = Schema::new(columns.iter().map(|s| s.to_string()).collect());
        Table::from_parts(schema, rows)
    }

    /// Creates a table taking ownership of schema and rows (the row-era
    /// constructor, still used by the naive reference executor).
    ///
    /// # Panics
    /// Panics if any row width differs from the schema width.
    pub fn from_parts(schema: Schema, rows: Vec<Vec<Value>>) -> Self {
        let width = schema.len();
        let len = rows.len();
        let mut per_column: Vec<Vec<Value>> = (0..width).map(|_| Vec::with_capacity(len)).collect();
        for row in rows {
            assert_eq!(row.len(), width, "row width mismatch");
            for (acc, v) in per_column.iter_mut().zip(row) {
                acc.push(v);
            }
        }
        let columns = per_column.into_iter().map(Column::from_values).collect();
        Table { schema, columns, len }
    }

    /// Creates a zero-column table with `len` (empty) rows — the input of a
    /// constant `SELECT` without FROM.
    pub fn unit(len: usize) -> Self {
        Table { schema: Schema::default(), columns: Vec::new(), len }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Decomposes into `(schema, columns, len)` for operator pipelines.
    pub(crate) fn into_columnar_parts(self) -> (Schema, Vec<Column>, usize) {
        (self.schema, self.columns, self.len)
    }

    /// Rebuilds a table from operator output without a width-zero length
    /// guess (zero-column tables keep an explicit row count).
    pub(crate) fn from_columnar_parts(schema: Schema, columns: Vec<Column>, len: usize) -> Table {
        debug_assert_eq!(schema.len(), columns.len());
        debug_assert!(columns.iter().all(|c| c.len() == len));
        Table { schema, columns, len }
    }

    /// Replaces the schema (a pure rename — used by join-scope
    /// qualification).
    ///
    /// # Panics
    /// Panics if the new schema's width differs.
    pub(crate) fn with_schema(mut self, schema: Schema) -> Table {
        assert_eq!(schema.len(), self.schema.len(), "rename must preserve width");
        self.schema = schema;
        self
    }

    /// Keeps only the first `n` rows.
    pub(crate) fn truncated(mut self, n: usize) -> Table {
        if n >= self.len {
            return self;
        }
        for c in &mut self.columns {
            c.truncate(n);
        }
        self.len = n;
        self
    }

    /// The physical columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// One physical column by index.
    pub fn column_at(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// The rows, built on each call (a row per index, a value per column).
    pub fn rows(&self) -> Vec<Vec<Value>> {
        (0..self.len).map(|r| self.columns.iter().map(|c| c.get(r)).collect()).collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.schema.len(), "row width mismatch");
        for (c, v) in self.columns.iter_mut().zip(row) {
            c.push(v);
        }
        self.len += 1;
    }

    /// Extracts a column by name as a value vector.
    pub fn column(&self, name: &str) -> Result<Vec<Value>> {
        let i = self.schema.resolve(name)?;
        Ok(self.columns[i].iter_values().collect())
    }

    /// Renders the table as an aligned-text report (first `max_rows` rows).
    pub fn render(&self, max_rows: usize) -> String {
        let mut widths: Vec<usize> = self.schema.columns().iter().map(String::len).collect();
        let shown = self.len.min(max_rows);
        let rendered: Vec<Vec<String>> =
            (0..shown).map(|r| self.columns.iter().map(|c| c.get(r).render()).collect()).collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.schema.columns().iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
            }
            out.push('\n');
        }
        if self.len > max_rows {
            out.push_str(&format!("... ({} more rows)\n", self.len - max_rows));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_exact_and_suffix() {
        let s = Schema::new(vec!["a.ts".into(), "b.ts".into(), "a.v".into()]);
        assert_eq!(s.resolve("a.ts").unwrap(), 0);
        assert_eq!(s.resolve("v").unwrap(), 2);
        assert!(matches!(s.resolve("ts"), Err(QueryError::UnknownColumn(_))));
        assert!(matches!(s.resolve("nope"), Err(QueryError::UnknownColumn(_))));
    }

    #[test]
    fn resolve_miss_suggests_near_columns() {
        let s = Schema::new(vec!["timestamp".into(), "metric_name".into(), "value".into()]);
        // One transposition away.
        let err = s.resolve("vlaue").unwrap_err();
        assert!(
            matches!(&err, QueryError::UnknownColumn(m) if m.contains("did you mean value?")),
            "{err}"
        );
        // Prefix of a real column.
        let err = s.resolve("metric").unwrap_err();
        assert!(matches!(&err, QueryError::UnknownColumn(m) if m.contains("metric_name")), "{err}");
        // Qualified candidates surface their full names.
        let q = Schema::new(vec!["t.runtime".into(), "u.w".into()]);
        let err = q.resolve("runtmie").unwrap_err();
        assert!(matches!(&err, QueryError::UnknownColumn(m) if m.contains("t.runtime")), "{err}");
        // Nothing close: the bare name, no suggestion clause.
        let err = s.resolve("zzz").unwrap_err();
        assert!(matches!(&err, QueryError::UnknownColumn(m) if m == "zzz"), "{err}");
    }

    #[test]
    fn resolve_is_case_insensitive() {
        let s = Schema::new(vec!["Timestamp".into()]);
        assert_eq!(s.resolve("timestamp").unwrap(), 0);
        assert_eq!(s.resolve("TIMESTAMP").unwrap(), 0);
    }

    #[test]
    fn qualify_strips_old_prefix() {
        let s = Schema::new(vec!["old.v".into(), "w".into()]);
        let q = s.qualified("t");
        assert_eq!(q.columns(), &["t.v".to_string(), "t.w".to_string()]);
    }

    #[test]
    fn table_round_trip() {
        let t = Table::from_rows(
            &["ts", "v"],
            vec![vec![Value::Int(0), Value::Float(1.0)], vec![Value::Int(1), Value::Float(2.0)]],
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.column("v").unwrap(), vec![Value::Float(1.0), Value::Float(2.0)]);
    }

    #[test]
    fn homogeneous_rows_become_typed_columns() {
        let t = Table::from_rows(
            &["ts", "v", "host"],
            vec![
                vec![Value::Int(0), Value::Float(1.0), Value::str("a")],
                vec![Value::Int(1), Value::Float(2.0), Value::str("b")],
            ],
        );
        assert!(matches!(t.column_at(0), Column::Int(_)));
        assert!(matches!(t.column_at(1), Column::Float(_)));
        assert!(matches!(t.column_at(2), Column::Str(_)));
    }

    #[test]
    fn columnar_construction_and_rows() {
        let t = Table::from_columnar_parts(
            Schema::new(vec!["ts".into(), "v".into()]),
            vec![Column::Int(vec![0, 1]), Column::Float(vec![1.0, 2.0])],
            2,
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[1], vec![Value::Int(1), Value::Float(2.0)]);
        assert_eq!(t.rows().len(), 2);
    }

    #[test]
    fn rows_follow_push_row_and_truncated() {
        let mut t = Table::from_rows(&["x"], vec![vec![Value::Int(1)]]);
        assert_eq!(t.rows().len(), 1);
        t.push_row(vec![Value::Int(2)]);
        t.push_row(vec![Value::Int(3)]);
        assert_eq!(t.rows(), [[Value::Int(1)], [Value::Int(2)], [Value::Int(3)]]);
        let t = t.truncated(2);
        assert_eq!(t.rows(), [[Value::Int(1)], [Value::Int(2)]]);
        assert_eq!(t.truncated(0).rows(), Vec::<Vec<Value>>::new());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn push_row_checks_width() {
        let mut t = Table::empty(&["a", "b"]);
        t.push_row(vec![Value::Int(1)]);
    }

    #[test]
    fn unit_table_has_rows_without_columns() {
        let t = Table::unit(1);
        assert_eq!(t.len(), 1);
        assert!(t.schema().is_empty());
        assert_eq!(t.rows(), [Vec::<Value>::new()]);
    }

    #[test]
    fn render_truncates() {
        let t = Table::from_rows(&["n"], (0..5).map(|i| vec![Value::Int(i)]).collect());
        let s = t.render(2);
        assert!(s.contains("3 more rows"));
    }
}
