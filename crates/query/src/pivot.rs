//! Pivoting query results into feature families.
//!
//! The second stage of the paper's pipeline (Figure 4) turns stage-one query
//! output into the Feature Family Table: one entry per `(timestamp, family)`
//! holding a map of feature values. Two layouts are supported:
//!
//! * **wide** — `(ts, family, v1, v2, ...)`: each numeric column is a
//!   feature of the family (the paper's network-features query produces 6
//!   features per `(src, port)` family);
//! * **long** — `(ts, family, feature, value)`: each distinct feature string
//!   becomes a column (grouping all of `disk{host=...}` under family
//!   `disk`).
//!
//! Missing `(ts, feature)` cells follow the paper's policy: interpolated to
//! the closest non-null observation of that feature.
//!
//! ## One core, keyed by ids
//!
//! Stage two is a plan node ([`crate::LogicalPlan::Pivot`], configured by a
//! [`PivotSpec`]) with three executions, and all three build their frames
//! on the same dense core ([`FrameBuilder`]) and read a cell the same way
//! (`numbers`: an `Int` widened to `f64`, anything that is not a number a
//! gap):
//!
//! * the **table pivot** ([`pivot_long`] / [`pivot_wide`] / [`pivot_one`],
//!   [`PivotSpec::frames`]) runs over any stage-one [`Table`]. Family and
//!   feature labels become `u32` ids in first-appearance order — a
//!   [`Column::Dict`] label is rendered once per dictionary entry, a
//!   [`Column::Str`] label is interned by borrowed `&str` — so no row
//!   allocates or hashes a `String`;
//! * the **scan pivot** (`exec/scan_pivot.rs`) reads series straight off the
//!   store when the plan is a long pivot over a bare TSDB scan, resolving
//!   both labels once per *series*;
//! * the **scan aggregate pivot** (`exec/scan_aggregate.rs`) takes a wide
//!   pivot over a `GROUP BY timestamp[, <family key>]` scan aggregate from
//!   the aggregate's per-class finished columns: a group's family label is
//!   its first contributor's key, rendered once per series, and a class's
//!   groups are already a family's rows in order.
//!
//! Either way each family gets one sorted timestamp grid, built once, and
//! every cell is written straight into a NaN-initialised dense column —
//! through a moving cursor when the input is timestamp-ordered, a binary
//! search otherwise — before each column is gap-filled.
//!
//! The rules all three obey (the differential suite holds each fused
//! execution to the table pivot frame for frame, cell for cell):
//!
//! * **Order.** Families come out in first-appearance order of the input
//!   rows, and so do the features of each family. TSDB rows are ordered by
//!   `(timestamp, series rank)`, so for the scan pivot that is the order of
//!   each family's / feature's earliest `(first timestamp in range, rank)`,
//!   and for the scan aggregate pivot that of each family's earliest group
//!   (its first contributor's `(timestamp, rank)`).
//!   It is the order the engine registers families in and the column order
//!   of every matrix, so each downstream float sum keeps its operand order.
//! * **Last write wins.** Two rows landing on one `(family, feature,
//!   timestamp)` cell leave the later row's value (a later series rank, for
//!   the scan pivot; a later first contributor, for the scan aggregate
//!   pivot, whose classes can share a label: `NULL` and `'NULL'` both
//!   render `NULL`). A non-finite value never overwrites anything: it
//!   leaves a gap, but its timestamp still joins the family's grid.
//! * **Gap fill.** A gap takes the value of the feature's nearest finite
//!   observation in time, the earlier one on a tie; a feature with none
//!   becomes all-zero (a constant the scorers treat as signal-free).

use std::borrow::Cow;
use std::collections::HashMap;

use crate::ast::CreateFamily;
use crate::column::Column;
use crate::table::{Schema, Table};
use crate::value::Value;
use crate::{QueryError, Result};

/// A dense per-family frame: shared timestamps × named feature columns.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyFrame {
    /// Family name (the paper's grouping key, e.g. metric name).
    pub name: String,
    /// Sorted shared timestamps.
    pub timestamps: Vec<i64>,
    /// Feature column names.
    pub feature_names: Vec<String>,
    /// One dense column per feature (parallel to `feature_names`, each of
    /// `timestamps.len()` values).
    pub columns: Vec<Vec<f64>>,
}

impl FamilyFrame {
    /// Number of time steps.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// True when the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Number of features.
    pub fn width(&self) -> usize {
        self.columns.len()
    }
}

// ---------------------------------------------------------------------------
// The pivot specification: what `CREATE FAMILY ... WITH (...)` asks for
// ---------------------------------------------------------------------------

/// The two stage-one result layouts (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `(ts, family, v1, v2, ...)`.
    Wide,
    /// `(ts, family, feature, value)`.
    Long,
}

impl Layout {
    /// The option spelling (`WITH (layout = '...')`, `EXPLAIN`).
    pub fn name(self) -> &'static str {
        match self {
            Layout::Wide => "wide",
            Layout::Long => "long",
        }
    }
}

/// How `CREATE FAMILY` turns stage-one rows into family frames: the payload
/// of [`crate::LogicalPlan::Pivot`].
#[derive(Debug, Clone, PartialEq)]
pub struct PivotSpec {
    /// The statement name: the family a wide pivot without a family column
    /// produces.
    pub name: String,
    /// The stage-one layout.
    pub layout: Layout,
    /// Explicit timestamp column (default: the first column).
    pub ts: Option<String>,
    /// Explicit family-label column (long default: the second column; wide
    /// default: none — the whole result is the one family `name`).
    pub family: Option<String>,
    /// Explicit feature-label column (long only; default: the third).
    pub feature: Option<String>,
    /// Explicit value column (long only; default: the fourth).
    pub value: Option<String>,
}

/// The input columns a [`PivotSpec`] resolved its roles to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PivotRoles {
    pub ts: usize,
    /// `None`: a wide pivot into the single family named by the statement.
    pub family: Option<usize>,
    /// `Some((feature, value))` for the long layout; a wide pivot takes
    /// every column that is not `ts` / `family` as a feature.
    pub long: Option<(usize, usize)>,
}

impl PivotSpec {
    /// A spec with every role at its positional default.
    pub fn positional(name: &str, layout: Layout) -> PivotSpec {
        PivotSpec {
            name: name.to_string(),
            layout,
            ts: None,
            family: None,
            feature: None,
            value: None,
        }
    }

    /// Reads a statement's `WITH (...)` options. Unknown options and
    /// layouts are statement errors ([`QueryError::Statement`]).
    pub fn parse(cf: &CreateFamily) -> Result<PivotSpec> {
        let mut spec = PivotSpec::positional(&cf.name, Layout::Wide);
        for (key, value) in &cf.options {
            let text = value.render();
            match key.as_str() {
                "layout" => {
                    spec.layout = match text.to_ascii_lowercase().as_str() {
                        "wide" => Layout::Wide,
                        "long" => Layout::Long,
                        other => {
                            return Err(QueryError::Statement(format!(
                                "unknown layout '{other}' (expected 'wide' or 'long')"
                            )))
                        }
                    }
                }
                "ts" => spec.ts = Some(text),
                "family" => spec.family = Some(text),
                "feature" => spec.feature = Some(text),
                "value" => spec.value = Some(text),
                other => {
                    return Err(QueryError::Statement(format!(
                        "unknown CREATE FAMILY option '{other}' \
                         (expected layout, ts, family, feature or value)"
                    )))
                }
            }
        }
        Ok(spec)
    }

    /// Resolves every role against the stage-one output schema: the
    /// configured column (case-insensitive, [`Schema::resolve`]) or the
    /// positional default.
    pub(crate) fn roles(&self, schema: &Schema) -> Result<PivotRoles> {
        let column = |explicit: &Option<String>, index: usize| -> Result<usize> {
            let name = match explicit {
                Some(name) => name,
                None => schema.columns().get(index).ok_or_else(|| {
                    QueryError::Statement(format!(
                        "the stage-one query returns only {} columns, too few for this layout",
                        schema.len()
                    ))
                })?,
            };
            schema.resolve(name)
        };
        let ts = column(&self.ts, 0)?;
        match self.layout {
            Layout::Wide => {
                let family = match &self.family {
                    Some(_) => Some(column(&self.family, 1)?),
                    None => None,
                };
                Ok(PivotRoles { ts, family, long: None })
            }
            Layout::Long => {
                let family = column(&self.family, 1)?;
                let feature = column(&self.feature, 2)?;
                let value = column(&self.value, 3)?;
                Ok(PivotRoles { ts, family: Some(family), long: Some((feature, value)) })
            }
        }
    }

    /// The table pivot: the frames of an executed stage-one result.
    pub fn frames(&self, table: &Table) -> Result<Vec<FamilyFrame>> {
        let roles = self.roles(table.schema())?;
        match (roles.family, roles.long) {
            (Some(family), Some((feature, value))) => {
                Ok(long_frames(table, roles.ts, family, feature, value))
            }
            (Some(family), None) => wide_frames(table, roles.ts, Some(family), &self.name),
            (None, _) => Ok(vec![one_frame(table, roles.ts, &self.name)?]),
        }
    }

    /// The `EXPLAIN` attributes: the layout and each role's resolved column
    /// (`?` where `schema` does not resolve it — execution will say why).
    pub(crate) fn describe(&self, schema: Option<&Schema>) -> String {
        let roles = schema.and_then(|s| self.roles(s).ok());
        let named = |i: Option<usize>| match (schema, i) {
            (Some(s), Some(i)) => s.columns()[i].clone(),
            _ => "?".to_string(),
        };
        let mut line = format!("layout={} ts={}", self.layout.name(), named(roles.map(|r| r.ts)));
        match self.layout {
            Layout::Wide if self.family.is_none() => line.push_str(&format!(" into={}", self.name)),
            _ => line.push_str(&format!(" family={}", named(roles.and_then(|r| r.family)))),
        }
        if self.layout == Layout::Long {
            let long = roles.and_then(|r| r.long);
            line.push_str(&format!(
                " feature={} value={}",
                named(long.map(|l| l.0)),
                named(long.map(|l| l.1))
            ));
        }
        line
    }
}

// ---------------------------------------------------------------------------
// The dense core
// ---------------------------------------------------------------------------

/// Renders a family / feature label — the one rendering both executions
/// of the pivot use (`NULL` labels group under `"NULL"`).
pub(crate) fn render_family(v: &Value) -> String {
    v.render()
}

/// Strings → dense `u32` ids in first-appearance order.
#[derive(Default)]
pub(crate) struct Interner<'a> {
    ids: HashMap<Cow<'a, str>, u32>,
    /// Id → label.
    pub names: Vec<String>,
}

impl<'a> Interner<'a> {
    pub(crate) fn intern(&mut self, label: Cow<'a, str>) -> u32 {
        if let Some(&id) = self.ids.get(label.as_ref()) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(label.to_string());
        self.ids.insert(label, id);
        id
    }
}

/// One family under construction: its sorted timestamp grid and one
/// NaN-initialised dense column per feature. Every execution of the pivot
/// writes its cells through this type, so the last-write-wins and gap-fill
/// rules live in one place.
pub(crate) struct FrameBuilder {
    frame: FamilyFrame,
    /// Grid slot of the previous [`FrameBuilder::slot`] call.
    cursor: usize,
}

impl FrameBuilder {
    /// `timestamps` must be strictly ascending.
    pub(crate) fn new(name: String, timestamps: Vec<i64>, feature_names: Vec<String>) -> Self {
        let columns = vec![vec![f64::NAN; timestamps.len()]; feature_names.len()];
        FrameBuilder { frame: FamilyFrame { name, timestamps, feature_names, columns }, cursor: 0 }
    }

    /// The grid slot of `ts` (which must be on the grid): the previous
    /// slot or its successor when the caller walks in timestamp order, a
    /// binary search otherwise.
    pub(crate) fn slot(&mut self, ts: i64) -> usize {
        self.cursor = seek(&self.frame.timestamps, self.cursor, ts);
        self.cursor
    }

    /// Writes one cell. A non-finite value leaves what is there.
    pub(crate) fn set(&mut self, column: usize, slot: usize, value: f64) {
        if value.is_finite() {
            self.frame.columns[column][slot] = value;
        }
    }

    /// Writes one timestamp-ascending run (a series' decoded span) into
    /// `column`; every timestamp must be on the grid.
    pub(crate) fn write_run(&mut self, column: usize, ts: &[i64], values: &[f64]) {
        let grid = &self.frame.timestamps;
        let col = &mut self.frame.columns[column];
        let mut write = |slot: usize, v: f64| {
            if v.is_finite() {
                col[slot] = v;
            }
        };
        if ts.len() == grid.len() {
            // An ascending subset of the grid as long as the grid is the grid.
            values.iter().enumerate().for_each(|(slot, &v)| write(slot, v));
            return;
        }
        let mut cursor = 0;
        for (&t, &v) in ts.iter().zip(values) {
            cursor = seek(grid, cursor, t);
            write(cursor, v);
        }
    }

    /// Gap-fills every column and hands the frame over.
    pub(crate) fn finish(mut self) -> FamilyFrame {
        for col in &mut self.frame.columns {
            nearest_fill(&self.frame.timestamps, col);
        }
        self.frame
    }
}

/// The index of `ts` in the strictly ascending `grid`, given the index the
/// previous lookup returned.
pub(crate) fn seek(grid: &[i64], cursor: usize, ts: i64) -> usize {
    match grid[cursor].cmp(&ts) {
        std::cmp::Ordering::Equal => cursor,
        std::cmp::Ordering::Less if grid.get(cursor + 1) == Some(&ts) => cursor + 1,
        std::cmp::Ordering::Less => cursor + 1 + grid[cursor + 1..].partition_point(|&g| g < ts),
        std::cmp::Ordering::Greater => grid[..cursor].partition_point(|&g| g < ts),
    }
}

/// Sorts (when it is not already sorted) and dedups a family's timestamps.
pub(crate) fn into_grid(mut timestamps: Vec<i64>) -> Vec<i64> {
    if !timestamps.is_sorted() {
        // Stable sort: concatenated ascending runs merge, not re-sort.
        timestamps.sort();
    }
    timestamps.dedup();
    timestamps
}

/// Replaces NaN gaps with the value of the nearest (in time) non-NaN
/// observation, the earlier one on a tie; all-NaN columns become all-zero
/// (a constant feature the scorers already treat as signal-free).
/// Distances are compared as `abs_diff`s, so a grid spanning more than
/// `i64::MAX` (the store round-trips the full `i64` domain) cannot overflow.
fn nearest_fill(timestamps: &[i64], col: &mut [f64]) {
    let mut before: Option<usize> = None;
    let mut i = 0;
    while i < col.len() {
        if col[i].is_finite() {
            before = Some(i);
            i += 1;
            continue;
        }
        // The gap run [i, end) and its known neighbours.
        let end = (i..col.len()).find(|&j| col[j].is_finite()).unwrap_or(col.len());
        let after = (end < col.len()).then_some(end);
        for k in i..end {
            let t = timestamps[k];
            col[k] = match (before, after) {
                (None, None) => 0.0,
                (Some(b), None) => col[b],
                (None, Some(a)) => col[a],
                (Some(b), Some(a)) => {
                    if t.abs_diff(timestamps[b]) <= timestamps[a].abs_diff(t) {
                        col[b]
                    } else {
                        col[a]
                    }
                }
            };
        }
        i = end;
    }
}

// ---------------------------------------------------------------------------
// The table pivot
// ---------------------------------------------------------------------------

/// The rows of a table the pivot reads — those whose timestamp cell is an
/// integer — with their timestamps. A dense `Int` column keeps every row
/// and is borrowed as it is.
struct TsRows<'t> {
    ts: Cow<'t, [i64]>,
    /// Table row of each kept position; `None` = every row, in order.
    rows: Option<Vec<usize>>,
}

impl<'t> TsRows<'t> {
    fn new(col: &'t Column) -> Self {
        if let Column::Int(v) = col {
            return TsRows { ts: Cow::Borrowed(v), rows: None };
        }
        let (rows, ts) = (0..col.len()).filter_map(|i| Some((i, col.get(i).as_i64()?))).unzip();
        TsRows { ts: Cow::Owned(ts), rows: Some(rows) }
    }

    /// `(table row, timestamp)` of every kept row, in table order.
    fn iter(&self) -> impl Iterator<Item = (usize, i64)> + '_ {
        self.ts.iter().enumerate().map(|(j, &t)| (self.rows.as_ref().map_or(j, |r| r[j]), t))
    }
}

/// A column's cells as the pivot reads them: an `Int` widened to `f64`,
/// NaN for a gap (a NULL, a string) — a `Float` column as it is.
pub(crate) fn numbers(col: &Column) -> Cow<'_, [f64]> {
    match col {
        Column::Float(v) => Cow::Borrowed(v),
        Column::Int(v) => Cow::Owned(v.iter().map(|&i| i as f64).collect()),
        other => Cow::Owned(
            (0..other.len()).map(|i| other.get(i).as_f64().unwrap_or(f64::NAN)).collect(),
        ),
    }
}

/// The label ids of the kept rows, interned in first-appearance order.
/// A dictionary entry is rendered once however many rows carry its code; a
/// `Str` cell is interned by reference; anything else renders per row.
fn label_ids(col: &Column, rows: &TsRows) -> (Vec<String>, Vec<u32>) {
    let mut interner = Interner::default();
    let ids = match col {
        Column::Dict { values, codes } => {
            let mut id_of_code = vec![u32::MAX; values.len()];
            rows.iter()
                .map(|(i, _)| {
                    let code = codes[i] as usize;
                    if id_of_code[code] == u32::MAX {
                        id_of_code[code] = interner.intern(render_family(&values[code]).into());
                    }
                    id_of_code[code]
                })
                .collect()
        }
        Column::Str(v) => rows.iter().map(|(i, _)| interner.intern(Cow::Borrowed(&v[i]))).collect(),
        other => {
            rows.iter().map(|(i, _)| interner.intern(render_family(&other.get(i)).into())).collect()
        }
    };
    (interner.names, ids)
}

/// One sorted timestamp grid per family id.
fn family_grids(families: usize, family_of: &[u32], rows: &TsRows) -> Vec<Vec<i64>> {
    let mut grids: Vec<Vec<i64>> = vec![Vec::new(); families];
    for (&f, &t) in family_of.iter().zip(rows.ts.iter()) {
        let grid = &mut grids[f as usize];
        // Timestamp-ordered input repeats a family's current timestamp.
        if grid.last() != Some(&t) {
            grid.push(t);
        }
    }
    grids.into_iter().map(into_grid).collect()
}

fn long_frames(
    table: &Table,
    ts: usize,
    family: usize,
    feature: usize,
    value: usize,
) -> Vec<FamilyFrame> {
    let rows = TsRows::new(table.column_at(ts));
    let (family_names, family_of) = label_ids(table.column_at(family), &rows);
    let (feature_labels, label_of) = label_ids(table.column_at(feature), &rows);
    // Each row's column within its family: (family, feature label) pairs
    // number per family in first-appearance order.
    let mut feature_names: Vec<Vec<String>> = vec![Vec::new(); family_names.len()];
    let mut column_ids: HashMap<(u32, u32), u32> = HashMap::new();
    let column_of: Vec<u32> = family_of
        .iter()
        .zip(&label_of)
        .map(|(&f, &l)| {
            *column_ids.entry((f, l)).or_insert_with(|| {
                let names = &mut feature_names[f as usize];
                names.push(feature_labels[l as usize].clone());
                (names.len() - 1) as u32
            })
        })
        .collect();
    let grids = family_grids(family_names.len(), &family_of, &rows);
    let mut frames: Vec<FrameBuilder> = family_names
        .into_iter()
        .zip(grids)
        .zip(feature_names)
        .map(|((name, grid), features)| FrameBuilder::new(name, grid, features))
        .collect();
    let values = numbers(table.column_at(value));
    for ((i, t), (&f, &c)) in rows.iter().zip(family_of.iter().zip(&column_of)) {
        let frame = &mut frames[f as usize];
        let slot = frame.slot(t);
        frame.set(c as usize, slot, values[i]);
    }
    frames.into_iter().map(FrameBuilder::finish).collect()
}

/// The wide pivot: one frame per label of the `family` column, or — with
/// no family column — one frame named `single` over every row.
fn wide_frames(
    table: &Table,
    ts: usize,
    family: Option<usize>,
    single: &str,
) -> Result<Vec<FamilyFrame>> {
    let features: Vec<usize> =
        (0..table.schema().len()).filter(|&i| i != ts && Some(i) != family).collect();
    if features.is_empty() {
        let layout = if family.is_some() { "pivot_wide" } else { "pivot_one" };
        return Err(QueryError::Plan(format!("{layout} needs at least one feature column")));
    }
    let feature_names: Vec<String> =
        features.iter().map(|&i| table.schema().columns()[i].clone()).collect();
    let rows = TsRows::new(table.column_at(ts));
    let (family_names, family_of) = match family {
        Some(family) => label_ids(table.column_at(family), &rows),
        // Also with no usable rows: an empty frame under that name.
        None => (vec![single.to_string()], vec![0; rows.ts.len()]),
    };
    let grids = family_grids(family_names.len(), &family_of, &rows);
    let mut frames: Vec<FrameBuilder> = family_names
        .into_iter()
        .zip(grids)
        .map(|(name, grid)| FrameBuilder::new(name, grid, feature_names.clone()))
        .collect();
    let columns: Vec<Cow<[f64]>> = features.iter().map(|&i| numbers(table.column_at(i))).collect();
    for ((i, t), &f) in rows.iter().zip(&family_of) {
        let frame = &mut frames[f as usize];
        let slot = frame.slot(t);
        for (c, column) in columns.iter().enumerate() {
            frame.set(c, slot, column[i]);
        }
    }
    Ok(frames.into_iter().map(FrameBuilder::finish).collect())
}

fn one_frame(table: &Table, ts: usize, name: &str) -> Result<FamilyFrame> {
    // Without a family column there is exactly one frame.
    Ok(wide_frames(table, ts, None, name)?.swap_remove(0))
}

/// Pivots a wide table: `ts_col` and `family_col` identify the row, every
/// *other* column is a feature (non-numeric cells become gaps, then get
/// nearest-filled).
pub fn pivot_wide(table: &Table, ts_col: &str, family_col: &str) -> Result<Vec<FamilyFrame>> {
    let ts = table.schema().resolve(ts_col)?;
    let family = table.schema().resolve(family_col)?;
    wide_frames(table, ts, Some(family), "")
}

/// Pivots a wide table into a *single* family named `family_name`:
/// `ts_col` identifies the row, every other column is a feature. Used for
/// target/condition queries that aggregate to one series set per timestamp
/// and carry no family label column.
pub fn pivot_one(table: &Table, ts_col: &str, family_name: &str) -> Result<FamilyFrame> {
    one_frame(table, table.schema().resolve(ts_col)?, family_name)
}

/// Pivots a long table: each row is `(ts, family, feature, value)`.
pub fn pivot_long(
    table: &Table,
    ts_col: &str,
    family_col: &str,
    feature_col: &str,
    value_col: &str,
) -> Result<Vec<FamilyFrame>> {
    let ts = table.schema().resolve(ts_col)?;
    let family = table.schema().resolve(family_col)?;
    let feature = table.schema().resolve(feature_col)?;
    let value = table.schema().resolve(value_col)?;
    Ok(long_frames(table, ts, family, feature, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wide_table() -> Table {
        Table::from_rows(
            &["ts", "name", "cpu", "mem"],
            vec![
                vec![Value::Int(0), Value::str("web"), Value::Float(1.0), Value::Float(10.0)],
                vec![Value::Int(60), Value::str("web"), Value::Float(2.0), Value::Float(20.0)],
                vec![Value::Int(0), Value::str("db"), Value::Float(5.0), Value::Float(50.0)],
            ],
        )
    }

    #[test]
    fn wide_pivot_produces_one_frame_per_family() {
        let frames = pivot_wide(&wide_table(), "ts", "name").unwrap();
        assert_eq!(frames.len(), 2);
        let web = frames.iter().find(|f| f.name == "web").unwrap();
        assert_eq!(web.timestamps, vec![0, 60]);
        assert_eq!(web.feature_names, vec!["cpu", "mem"]);
        assert_eq!(web.columns[0], vec![1.0, 2.0]);
        assert_eq!(web.columns[1], vec![10.0, 20.0]);
        let db = frames.iter().find(|f| f.name == "db").unwrap();
        assert_eq!(db.timestamps, vec![0]);
    }

    #[test]
    fn pivot_one_collapses_to_a_named_family() {
        let t = Table::from_rows(
            &["ts", "runtime_sec", "input_gb"],
            vec![
                vec![Value::Int(60), Value::Float(2.0), Value::Float(20.0)],
                vec![Value::Int(0), Value::Float(1.0), Value::Float(10.0)],
            ],
        );
        let f = pivot_one(&t, "ts", "pipeline_runtime").unwrap();
        assert_eq!(f.name, "pipeline_runtime");
        assert_eq!(f.timestamps, vec![0, 60]);
        assert_eq!(f.feature_names, vec!["runtime_sec", "input_gb"]);
        assert_eq!(f.columns[0], vec![1.0, 2.0]);
        assert_eq!(f.columns[1], vec![10.0, 20.0]);
    }

    #[test]
    fn pivot_one_empty_input_keeps_schema() {
        let t = Table::empty(&["ts", "v"]);
        let f = pivot_one(&t, "ts", "empty").unwrap();
        assert!(f.is_empty());
        assert_eq!(f.feature_names, vec!["v"]);
        assert!(pivot_one(&Table::empty(&["ts"]), "ts", "x").is_err());
    }

    #[test]
    fn long_pivot_spreads_features() {
        let t = Table::from_rows(
            &["ts", "fam", "feat", "v"],
            vec![
                vec![Value::Int(0), Value::str("disk"), Value::str("h1.read"), Value::Float(1.0)],
                vec![Value::Int(0), Value::str("disk"), Value::str("h2.read"), Value::Float(2.0)],
                vec![Value::Int(60), Value::str("disk"), Value::str("h1.read"), Value::Float(3.0)],
                vec![Value::Int(60), Value::str("disk"), Value::str("h2.read"), Value::Float(4.0)],
            ],
        );
        let frames = pivot_long(&t, "ts", "fam", "feat", "v").unwrap();
        assert_eq!(frames.len(), 1);
        let f = &frames[0];
        assert_eq!(f.width(), 2);
        assert_eq!(f.columns[0], vec![1.0, 3.0]);
        assert_eq!(f.columns[1], vec![2.0, 4.0]);
    }

    #[test]
    fn missing_cells_nearest_filled() {
        let t = Table::from_rows(
            &["ts", "fam", "feat", "v"],
            vec![
                vec![Value::Int(0), Value::str("f"), Value::str("a"), Value::Float(1.0)],
                vec![Value::Int(60), Value::str("f"), Value::str("b"), Value::Float(9.0)],
                vec![Value::Int(120), Value::str("f"), Value::str("a"), Value::Float(5.0)],
            ],
        );
        let frames = pivot_long(&t, "ts", "fam", "feat", "v").unwrap();
        let f = &frames[0];
        // Feature a is missing at ts=60: equidistant to 0 and 120, prefers
        // the earlier (1.0).
        let a = &f.columns[f.feature_names.iter().position(|n| n == "a").unwrap()];
        assert_eq!(a, &vec![1.0, 1.0, 5.0]);
        // Feature b only exists at 60: clamps outward.
        let b = &f.columns[f.feature_names.iter().position(|n| n == "b").unwrap()];
        assert_eq!(b, &vec![9.0, 9.0, 9.0]);
    }

    #[test]
    fn non_numeric_values_are_gaps() {
        let t = Table::from_rows(
            &["ts", "fam", "x"],
            vec![
                vec![Value::Int(0), Value::str("f"), Value::str("oops")],
                vec![Value::Int(60), Value::str("f"), Value::Float(2.0)],
            ],
        );
        let frames = pivot_wide(&t, "ts", "fam").unwrap();
        assert_eq!(frames[0].columns[0], vec![2.0, 2.0]);
    }

    #[test]
    fn all_gap_feature_becomes_zero() {
        let t = Table::from_rows(
            &["ts", "fam", "x"],
            vec![vec![Value::Int(0), Value::str("f"), Value::Null]],
        );
        let frames = pivot_wide(&t, "ts", "fam").unwrap();
        assert_eq!(frames[0].columns[0], vec![0.0]);
    }

    #[test]
    fn null_family_becomes_null_string() {
        let t = Table::from_rows(
            &["ts", "fam", "x"],
            vec![vec![Value::Int(0), Value::Null, Value::Float(1.0)]],
        );
        let frames = pivot_wide(&t, "ts", "fam").unwrap();
        assert_eq!(frames[0].name, "NULL");
    }

    #[test]
    fn no_feature_columns_errors() {
        let t = Table::from_rows(&["ts", "fam"], vec![vec![Value::Int(0), Value::str("f")]]);
        assert!(pivot_wide(&t, "ts", "fam").is_err());
    }

    #[test]
    fn unsorted_input_timestamps_sorted() {
        let t = Table::from_rows(
            &["ts", "fam", "x"],
            vec![
                vec![Value::Int(120), Value::str("f"), Value::Float(3.0)],
                vec![Value::Int(0), Value::str("f"), Value::Float(1.0)],
                vec![Value::Int(60), Value::str("f"), Value::Float(2.0)],
            ],
        );
        let frames = pivot_wide(&t, "ts", "fam").unwrap();
        assert_eq!(frames[0].timestamps, vec![0, 60, 120]);
        assert_eq!(frames[0].columns[0], vec![1.0, 2.0, 3.0]);
    }
    #[test]
    fn nearest_fill_compares_distances_without_overflow() {
        // A grid wider than i64::MAX: `t - before` overflowed here (a debug
        // panic, the wrong neighbour in release).
        let ts = [i64::MIN, 0, i64::MAX];
        let mut col = [1.0, f64::NAN, 9.0];
        nearest_fill(&ts, &mut col);
        // |0 - MIN| = 2^63 > |MAX - 0| = 2^63 - 1: the later neighbour.
        assert_eq!(col, [1.0, 9.0, 9.0]);
        let ts = [i64::MIN, -1, i64::MAX - 1];
        let mut col = [1.0, f64::NAN, 9.0];
        nearest_fill(&ts, &mut col);
        assert_eq!(col, [1.0, 1.0, 9.0], "an exact tie keeps the earlier neighbour");
        let mut col = [f64::NAN, f64::NAN, 4.0];
        nearest_fill(&ts, &mut col);
        assert_eq!(col, [4.0, 4.0, 4.0]);
    }

    #[test]
    fn last_finite_write_wins_and_non_finite_keeps_its_timestamp() {
        let t = Table::from_rows(
            &["ts", "fam", "feat", "v"],
            vec![
                vec![Value::Int(60), Value::str("f"), Value::str("a"), Value::Float(1.0)],
                vec![Value::Int(60), Value::str("f"), Value::str("a"), Value::Float(2.0)],
                vec![Value::Int(60), Value::str("f"), Value::str("a"), Value::Float(f64::NAN)],
                vec![Value::Int(0), Value::str("f"), Value::str("a"), Value::Float(f64::INFINITY)],
            ],
        );
        let frames = pivot_long(&t, "ts", "fam", "feat", "v").unwrap();
        assert_eq!(frames[0].timestamps, vec![0, 60]);
        assert_eq!(frames[0].columns[0], vec![2.0, 2.0]);
    }

    #[test]
    fn dictionary_labels_merge_entries_that_render_alike() {
        use std::sync::Arc;
        // Two dictionary entries with one rendering are one family; NULL
        // renders as "NULL"; ids follow first appearance, not code order.
        let dict = Arc::new(vec![Value::str("b"), Value::Null, Value::str("b"), Value::str("a")]);
        let t = Table::from_columnar_parts(
            Schema::new(vec!["ts".into(), "fam".into(), "x".into()]),
            vec![
                Column::Int(vec![0, 0, 60, 60]),
                Column::dict(dict, vec![3, 0, 2, 1]),
                Column::Float(vec![1.0, 2.0, 3.0, 4.0]),
            ],
            4,
        );
        let frames = pivot_wide(&t, "ts", "fam").unwrap();
        let names: Vec<&str> = frames.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "NULL"]);
        assert_eq!(frames[1].timestamps, vec![0, 60]);
        assert_eq!(frames[1].columns[0], vec![2.0, 3.0]);
    }

    #[test]
    fn spec_resolves_roles_by_name_or_position() {
        let cf = |options: Vec<(&str, &str)>| CreateFamily {
            name: "m".into(),
            options: options.into_iter().map(|(k, v)| (k.to_string(), Value::str(v))).collect(),
            query: crate::parser::parse_query("SELECT 1").unwrap(),
            explain: false,
        };
        let schema = Schema::new(vec!["t".into(), "name".into(), "tags".into(), "v".into()]);
        let spec = PivotSpec::parse(&cf(vec![("layout", "LONG"), ("family", "NAME")])).unwrap();
        let roles = spec.roles(&schema).unwrap();
        assert_eq!(roles, PivotRoles { ts: 0, family: Some(1), long: Some((2, 3)) });
        assert_eq!(
            spec.describe(Some(&schema)),
            "layout=long ts=t family=name feature=tags value=v"
        );
        let narrow = Schema::new(vec!["t".into(), "v".into()]);
        assert!(matches!(spec.roles(&narrow), Err(QueryError::UnknownColumn(_))));
        let positional = PivotSpec::parse(&cf(vec![("layout", "long")])).unwrap();
        let err = positional.roles(&narrow).unwrap_err();
        assert!(matches!(&err, QueryError::Statement(m) if m.contains("only 2 columns")), "{err}");
        let wide = PivotSpec::parse(&cf(vec![])).unwrap();
        assert_eq!(wide.roles(&narrow).unwrap(), PivotRoles { ts: 0, family: None, long: None });
        assert_eq!(wide.describe(Some(&narrow)), "layout=wide ts=t into=m");
        let err = PivotSpec::parse(&cf(vec![("layout", "tall")])).unwrap_err();
        assert!(matches!(&err, QueryError::Statement(m) if m.contains("unknown layout")), "{err}");
    }
}
