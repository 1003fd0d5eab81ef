//! Plan-time semantic analysis: a static type checker over the AST.
//!
//! The checker runs in [`crate::exec`] after planning and before
//! optimization, so malformed statements are rejected *before* any data is
//! scanned — with a byte position into the SQL text (threaded from the
//! lexer through [`crate::ast::SelectSpans`]) instead of a runtime error
//! minutes into a fleet-sized scan.
//!
//! # The `ColType` lattice
//!
//! Column types form a flat lattice: the concrete types `Int`, `Float`,
//! `Str`, `Bool`, `Map`, `List` at the bottom and [`ColType::Any`] (type
//! statically unknown) on top, with one diagonal edge — `Int ⊔ Float =
//! Float`, because the engine freely coerces between the numeric types.
//! Every column additionally carries a nullability flag ([`ColInfo`]).
//!
//! # Conservativeness
//!
//! The engine is dynamically typed at runtime, so the checker must reject
//! only what is *guaranteed* to error on any non-empty input: a statement
//! is rejected when an expression applies an operation to an operand whose
//! type is definitely known (not `Any`) and definitely unsupported —
//! `-host`, `'a' * 2`, `UPPER(value)` — or when a function is called with
//! an arity the runtime always rejects. Value-dependent failures (a
//! `List` index that is a non-integral float, `SPLIT` on a column that is
//! sometimes a map) still surface at execution; the differential suites
//! rely on this asymmetry: well-typed statements never get *new* errors.
//!
//! Two deliberate exceptions, called out in the ISSUE and pinned by tests,
//! reject at plan time what the runtime only detects on specific data:
//! `PERCENTILE` with a non-constant `p` (runtime needs two distinct values
//! in one group to notice) and `UNION` arity mismatches over empty inputs.
//!
//! The same inference drives the `EXPLAIN` kernel-refinability annotation
//! (see [`crate::plan::render_with`]): a filter over statically-numeric
//! columns is marked refinable without probing minicolumn runs.

use crate::ast::{BinaryOp, Expr, JoinKind, Query, SelectItem, SelectStmt, TableRef, UnaryOp};
use crate::catalog::Catalog;
use crate::column::Column;
use crate::functions::{is_aggregate, is_window};
use crate::table::Schema;
use crate::value::Value;
use crate::{QueryError, Result};

/// A column's static type: the flat value-type lattice with `Any` on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
    /// String-to-string map (TSDB tag sets).
    Map,
    /// List of values (`SPLIT` results).
    List,
    /// Statically unknown — anything may flow here at runtime.
    Any,
}

impl ColType {
    /// Least upper bound: equal types join to themselves, the numeric
    /// types join to `Float`, everything else joins to `Any`.
    pub fn join(self, other: ColType) -> ColType {
        use ColType::*;
        match (self, other) {
            (a, b) if a == b => a,
            (Int, Float) | (Float, Int) => Float,
            _ => Any,
        }
    }

    /// True for `Int` / `Float` — operands the arithmetic kernels accept.
    pub fn is_numeric(self) -> bool {
        matches!(self, ColType::Int | ColType::Float)
    }
}

impl std::fmt::Display for ColType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ColType::Int => "Int",
            ColType::Float => "Float",
            ColType::Str => "Str",
            ColType::Bool => "Bool",
            ColType::Map => "Map",
            ColType::List => "List",
            ColType::Any => "Any",
        })
    }
}

/// A column's inferred type plus nullability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColInfo {
    /// The lattice type.
    pub ty: ColType,
    /// True when NULL may appear in this column.
    pub nullable: bool,
}

impl ColInfo {
    /// A concrete, non-null column.
    pub fn new(ty: ColType, nullable: bool) -> ColInfo {
        ColInfo { ty, nullable }
    }

    /// The lattice top: unknown type, possibly null.
    pub fn any() -> ColInfo {
        ColInfo { ty: ColType::Any, nullable: true }
    }

    /// Pointwise least upper bound.
    pub fn join(self, other: ColInfo) -> ColInfo {
        ColInfo { ty: self.ty.join(other.ty), nullable: self.nullable || other.nullable }
    }

    /// The definitely-known type, `None` when `Any`.
    fn def(self) -> Option<ColType> {
        (self.ty != ColType::Any).then_some(self.ty)
    }

    /// True when the type is definitely one of `set`.
    fn def_in(self, set: &[ColType]) -> bool {
        self.def().is_some_and(|t| set.contains(&t))
    }
}

/// A [`Schema`] with per-column [`ColInfo`], the unit the checker threads
/// through FROM/JOIN scopes and derives per plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedSchema {
    schema: Schema,
    cols: Vec<ColInfo>,
}

impl TypedSchema {
    /// Pairs names with types.
    ///
    /// # Panics
    /// Panics when the lengths disagree (internal construction only).
    pub fn new(schema: Schema, cols: Vec<ColInfo>) -> TypedSchema {
        assert_eq!(schema.len(), cols.len(), "typed schema width mismatch");
        TypedSchema { schema, cols }
    }

    /// Zero columns (the `SELECT 1` unit scope).
    pub fn empty() -> TypedSchema {
        TypedSchema { schema: Schema::default(), cols: Vec::new() }
    }

    /// The column names.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The column types, parallel to [`TypedSchema::schema`].
    pub fn cols(&self) -> &[ColInfo] {
        &self.cols
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when there are no columns.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Resolves a column reference (same rules as [`Schema::resolve`]) to
    /// its type.
    pub fn resolve(&self, name: &str) -> Result<ColInfo> {
        Ok(self.cols[self.schema.resolve(name)?])
    }

    /// Join-scope qualification: prefixes names, keeps types.
    fn qualified(&self, alias: &str) -> TypedSchema {
        TypedSchema { schema: self.schema.qualified(alias), cols: self.cols.clone() }
    }

    /// Marks every column nullable (the NULL-extended side of an outer
    /// join).
    fn make_nullable(&mut self) {
        for c in &mut self.cols {
            c.nullable = true;
        }
    }

    /// Concatenates two scopes (join output).
    fn concat(mut self, right: TypedSchema) -> TypedSchema {
        let mut names = self.schema.columns().to_vec();
        names.extend(right.schema.columns().iter().cloned());
        self.cols.extend(right.cols);
        TypedSchema { schema: Schema::new(names), cols: self.cols }
    }
}

/// The observation-schema types of a TSDB binding:
/// `timestamp Int, metric_name Str, tag Map, value Float`, all non-null.
pub(crate) const TSDB_COL_TYPES: [ColType; 4] =
    [ColType::Int, ColType::Str, ColType::Map, ColType::Float];

/// Columns larger than this are typed `Any` instead of scanned — typing is
/// a plan-time pass and must stay O(1)-ish per table.
const TYPE_SCAN_CAP: usize = 65_536;

/// Infers a physical column's static type by inspecting its encoding:
/// dense typed vectors are exact and non-null for free; dictionaries scan
/// their (small) value set; generic value vectors are scanned up to
/// [`TYPE_SCAN_CAP`] entries.
fn column_type(col: &Column) -> ColInfo {
    fn fold_values<'a>(vals: impl Iterator<Item = &'a Value>) -> ColInfo {
        let mut ty: Option<ColType> = None;
        let mut nullable = false;
        for v in vals {
            let t = match v {
                Value::Null => {
                    nullable = true;
                    continue;
                }
                Value::Int(_) => ColType::Int,
                Value::Float(_) => ColType::Float,
                Value::Str(_) => ColType::Str,
                Value::Bool(_) => ColType::Bool,
                Value::Map(_) => ColType::Map,
                Value::List(_) => ColType::List,
            };
            ty = Some(match ty {
                None => t,
                Some(prev) => prev.join(t),
            });
        }
        // An all-null or empty column constrains nothing: Any, nullable.
        ColInfo { ty: ty.unwrap_or(ColType::Any), nullable: nullable || ty.is_none() }
    }
    match col {
        Column::Int(_) => ColInfo::new(ColType::Int, false),
        Column::Float(_) => ColInfo::new(ColType::Float, false),
        Column::Str(_) => ColInfo::new(ColType::Str, false),
        Column::Bool(_) => ColInfo::new(ColType::Bool, false),
        Column::Dict { values, .. } => fold_values(values.iter()),
        Column::Values(v) if v.len() <= TYPE_SCAN_CAP => fold_values(v.iter()),
        Column::Values(_) => ColInfo::any(),
    }
}

/// The typed schema of a catalog base table. TSDB bindings get the fixed
/// observation-schema types without materializing anything; in-memory
/// tables are typed from their physical column encodings.
pub(crate) fn base_table_types(catalog: &Catalog, name: &str) -> Result<TypedSchema> {
    let schema =
        catalog.schema_of(name).ok_or_else(|| QueryError::UnknownTable(name.to_string()))?;
    if catalog.is_tsdb(name) {
        let cols = TSDB_COL_TYPES.iter().map(|&t| ColInfo::new(t, false)).collect();
        return Ok(TypedSchema::new(schema, cols));
    }
    // Mem tables are cheap Arc clones; only TSDB `get` would materialize.
    let table = catalog.get(name).ok_or_else(|| QueryError::UnknownTable(name.to_string()))?;
    let cols = table.columns().iter().map(column_type).collect();
    Ok(TypedSchema::new(schema, cols))
}

// ---------------------------------------------------------------------------
// Statement checking
// ---------------------------------------------------------------------------

/// Type-checks a whole query (all UNION branches) against the catalog.
///
/// Called by the executor between planning and optimization; also usable
/// standalone. Every rejection carries an `at byte N` source position.
pub fn check_query(catalog: &Catalog, query: &Query) -> Result<()> {
    query_types(catalog, query).map(|_| ())
}

/// Type-checks a query and returns its output [`TypedSchema`] (the first
/// branch's names; types joined across UNION branches).
pub fn query_types(catalog: &Catalog, query: &Query) -> Result<TypedSchema> {
    let mut out: Option<TypedSchema> = None;
    for select in &query.selects {
        let s = check_select(catalog, select)?;
        match &mut out {
            None => out = Some(s),
            Some(first) => {
                if s.len() != first.len() {
                    // Mirrors the executor's Union-arm message, caught
                    // before any branch runs.
                    return Err(QueryError::Plan(format!(
                        "UNION arity mismatch: [{}] has {} columns, [{}] has {}",
                        first.schema.columns().join(", "),
                        first.len(),
                        s.schema.columns().join(", "),
                        s.len()
                    ))
                    .at_byte(select.spans.select));
                }
                for (a, b) in first.cols.iter_mut().zip(s.cols.iter()) {
                    *a = a.join(*b);
                }
            }
        }
    }
    out.ok_or_else(|| QueryError::Plan("query has no SELECT".into()))
}

/// Expression evaluation context, mirroring the executor's split in
/// [`crate::eval`].
#[derive(Clone, Copy)]
enum Ctx<'a> {
    /// Row-at-a-time evaluation (WHERE, ON, GROUP BY keys, projection
    /// items of ungrouped queries, aggregate arguments): an aggregate call
    /// here is the runtime's "outside GROUP BY context" plan error.
    Row,
    /// Per-group evaluation (items / hidden keys of a grouped query):
    /// aggregates allowed; carries the GROUP BY keys for the PERCENTILE-p
    /// constancy analysis.
    Grouped {
        /// The statement's GROUP BY expressions.
        group_by: &'a [Expr],
    },
}

/// Checks one SELECT, mirroring `plan::build_select`'s scoping rules
/// exactly (join qualification, wildcard expansion, ORDER BY resolution),
/// and returns its output schema with types.
fn check_select(catalog: &Catalog, select: &SelectStmt) -> Result<TypedSchema> {
    let spans = &select.spans;

    // ---- FROM + JOINs: build the input scope --------------------------
    let mut scope = match &select.from {
        Some(tref) => {
            let base = table_ref_types(catalog, tref).map_err(|e| e.at_byte(spans.from))?;
            if select.joins.is_empty() {
                base
            } else {
                let alias = tref.scope_name().ok_or_else(|| {
                    QueryError::Plan("subquery in a join needs an alias".into()).at_byte(spans.from)
                })?;
                base.qualified(alias)
            }
        }
        None => TypedSchema::empty(),
    };
    for (ji, join) in select.joins.iter().enumerate() {
        let right = table_ref_types(catalog, &join.table).map_err(|e| e.at_byte(spans.from))?;
        let alias = join.table.scope_name().ok_or_else(|| {
            QueryError::Plan("joined subquery needs an alias".into()).at_byte(spans.from)
        })?;
        let mut right = right.qualified(alias);
        match join.kind {
            JoinKind::Inner => {}
            JoinKind::Left => right.make_nullable(),
            JoinKind::FullOuter => {
                scope.make_nullable();
                right.make_nullable();
            }
        }
        scope = scope.concat(right);
        // ON sees the cumulative scope of everything joined so far.
        infer(&join.on, &scope, Ctx::Row).map_err(|e| e.at_byte(spans.join_on(ji)))?;
    }

    // ---- WHERE --------------------------------------------------------
    if let Some(pred) = &select.where_clause {
        infer(pred, &scope, Ctx::Row).map_err(|e| e.at_byte(spans.where_clause))?;
    }

    // ---- GROUP BY keys ------------------------------------------------
    for (i, key) in select.group_by.iter().enumerate() {
        infer(key, &scope, Ctx::Row).map_err(|e| e.at_byte(spans.group(i)))?;
    }

    // ---- projection items ---------------------------------------------
    let has_aggregates = select.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
        SelectItem::Wildcard => false,
    });
    let grouped = !select.group_by.is_empty() || has_aggregates;
    let item_ctx = if grouped { Ctx::Grouped { group_by: &select.group_by } } else { Ctx::Row };

    let mut names: Vec<String> = Vec::new();
    let mut cols: Vec<ColInfo> = Vec::new();
    for (i, item) in select.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                if grouped {
                    return Err(QueryError::Plan(
                        "SELECT * cannot be combined with GROUP BY".into(),
                    )
                    .at_byte(spans.item(i)));
                }
                names.extend(scope.schema.columns().iter().cloned());
                cols.extend(scope.cols.iter().copied());
            }
            SelectItem::Expr { expr, alias } => {
                let info = infer(expr, &scope, item_ctx).map_err(|e| e.at_byte(spans.item(i)))?;
                names.push(alias.clone().unwrap_or_else(|| expr.default_name()));
                cols.push(info);
            }
        }
    }

    // ---- ORDER BY -----------------------------------------------------
    // A bare column resolving in the output schema sorts the projected
    // value (already typed); anything else is a hidden key evaluated
    // against the projection input, per group when grouped.
    let out_names = Schema::new(names.clone());
    for (i, ok) in select.order_by.iter().enumerate() {
        let sorts_output =
            matches!(&ok.expr, Expr::Column(name) if out_names.resolve(name).is_ok());
        if !sorts_output {
            infer(&ok.expr, &scope, item_ctx).map_err(|e| e.at_byte(spans.order(i)))?;
        }
    }

    Ok(TypedSchema::new(out_names, cols))
}

fn table_ref_types(catalog: &Catalog, tref: &TableRef) -> Result<TypedSchema> {
    match tref {
        TableRef::Named { name, .. } => base_table_types(catalog, name),
        TableRef::Subquery { query, .. } => query_types(catalog, query),
    }
}

// ---------------------------------------------------------------------------
// Expression inference
// ---------------------------------------------------------------------------

/// Infers an expression's type against a scope in row context (WHERE-like
/// evaluation), rejecting definitely-ill-typed operations. The public
/// entry point for tests and tooling; statement checking goes through
/// [`check_query`].
pub fn infer_expr(expr: &Expr, scope: &TypedSchema) -> Result<ColInfo> {
    infer(expr, scope, Ctx::Row)
}

const NOT_STRING: [ColType; 5] =
    [ColType::Int, ColType::Float, ColType::Bool, ColType::Map, ColType::List];
const NOT_NUMERIC: [ColType; 3] = [ColType::Str, ColType::Map, ColType::List];

fn infer(expr: &Expr, scope: &TypedSchema, ctx: Ctx<'_>) -> Result<ColInfo> {
    match expr {
        Expr::Literal(v) => Ok(literal_type(v)),
        Expr::Column(name) => match scope.resolve(name) {
            // An ambiguous bare column is *not* a guaranteed runtime error:
            // pushdown re-scopes join predicates into the side where the
            // name is unique, and the reference interpreter resolves it
            // positionally. Keep it opaque rather than over-reject.
            Err(QueryError::UnknownColumn(m)) if m.contains("ambiguous") => Ok(ColInfo::any()),
            other => other,
        },
        Expr::Binary { op, left, right } => {
            let l = infer(left, scope, ctx)?;
            let r = infer(right, scope, ctx)?;
            infer_binary(*op, l, r)
        }
        Expr::Unary { op, operand } => {
            let v = infer(operand, scope, ctx)?;
            match op {
                UnaryOp::Neg => {
                    if v.def_in(&[ColType::Str, ColType::Bool, ColType::Map, ColType::List]) {
                        return Err(QueryError::Type(format!("cannot negate a {}", v.ty)));
                    }
                    Ok(ColInfo::new(
                        if v.ty.is_numeric() { v.ty } else { ColType::Any },
                        v.nullable,
                    ))
                }
                UnaryOp::Not => Ok(ColInfo::new(ColType::Bool, v.nullable)),
            }
        }
        Expr::Function { name, args } => infer_function(name, args, scope, ctx),
        Expr::Index { container, index } => {
            let c = infer(container, scope, ctx)?;
            let i = infer(index, scope, ctx)?;
            match c.def() {
                Some(ColType::Map) => {
                    if i.def_in(&NOT_STRING) {
                        return Err(QueryError::Type("map index must be a string".into()));
                    }
                    Ok(ColInfo::new(ColType::Str, true))
                }
                Some(ColType::List) => {
                    if i.def_in(&NOT_NUMERIC) {
                        return Err(QueryError::Type("list index must be an integer".into()));
                    }
                    Ok(ColInfo::any())
                }
                Some(other) => Err(QueryError::Type(format!("cannot index into a {other}"))),
                None => Ok(ColInfo::any()),
            }
        }
        // IN / BETWEEN / IS NULL compare via sql_cmp (never a type error),
        // but their operands evaluate row-at-a-time even inside a grouped
        // projection (group-context evaluation resolves them on the
        // group's first row), so aggregates beneath them are rejected.
        Expr::InList { expr, list, .. } => {
            infer(expr, scope, Ctx::Row)?;
            for item in list {
                infer(item, scope, Ctx::Row)?;
            }
            Ok(ColInfo::new(ColType::Bool, true))
        }
        Expr::Between { expr, low, high, .. } => {
            infer(expr, scope, Ctx::Row)?;
            infer(low, scope, Ctx::Row)?;
            infer(high, scope, Ctx::Row)?;
            Ok(ColInfo::new(ColType::Bool, true))
        }
        Expr::IsNull { expr, .. } => {
            infer(expr, scope, Ctx::Row)?;
            Ok(ColInfo::new(ColType::Bool, false))
        }
        Expr::Case { when_then, else_expr } => {
            let mut out: Option<ColInfo> = None;
            for (cond, result) in when_then {
                infer(cond, scope, ctx)?;
                let r = infer(result, scope, ctx)?;
                out = Some(match out {
                    None => r,
                    Some(prev) => prev.join(r),
                });
            }
            let out = out.unwrap_or_else(ColInfo::any);
            match else_expr {
                Some(e) => {
                    let e = infer(e, scope, ctx)?;
                    Ok(out.join(e))
                }
                // No ELSE: NULL when no arm matches.
                None => Ok(ColInfo::new(out.ty, true)),
            }
        }
    }
}

fn literal_type(v: &Value) -> ColInfo {
    match v {
        Value::Null => ColInfo::any(),
        Value::Int(_) => ColInfo::new(ColType::Int, false),
        Value::Float(_) => ColInfo::new(ColType::Float, false),
        Value::Str(_) => ColInfo::new(ColType::Str, false),
        Value::Bool(_) => ColInfo::new(ColType::Bool, false),
        Value::Map(_) => ColInfo::new(ColType::Map, false),
        Value::List(_) => ColInfo::new(ColType::List, false),
    }
}

fn infer_binary(op: BinaryOp, l: ColInfo, r: ColInfo) -> Result<ColInfo> {
    use BinaryOp::*;
    match op {
        // Three-valued logic; operands are always evaluated, never
        // type-checked at runtime.
        And | Or => Ok(ColInfo::new(ColType::Bool, true)),
        // sql_cmp yields NULL for incomparable operands, never an error.
        Eq | NotEq | Lt | LtEq | Gt | GtEq => Ok(ColInfo::new(ColType::Bool, true)),
        Like | Glob => {
            if l.def_in(&NOT_STRING) {
                let name = if op == Like { "LIKE" } else { "GLOB" };
                return Err(QueryError::Type(format!("{name} expects a string operand")));
            }
            if r.def_in(&NOT_STRING) {
                let name = if op == Like { "LIKE" } else { "GLOB" };
                return Err(QueryError::Type(format!("{name} expects a string pattern")));
            }
            Ok(ColInfo::new(ColType::Bool, true))
        }
        Add | Sub | Mul | Div | Mod => {
            // `+` doubles as string concatenation when BOTH sides are
            // strings; everything else goes through numeric coercion
            // (bools count as 0/1).
            if op == Add && l.def() == Some(ColType::Str) && r.def() == Some(ColType::Str) {
                return Ok(ColInfo::new(ColType::Str, l.nullable || r.nullable));
            }
            let cross_str = |a: ColInfo, b: ColInfo| {
                op == Add && a.def() == Some(ColType::Str) && b.def().is_some()
            };
            for side in [l, r] {
                let bad = if op == Add {
                    side.def_in(&[ColType::Map, ColType::List])
                } else {
                    side.def_in(&NOT_NUMERIC)
                };
                if bad {
                    return Err(QueryError::Type(format!(
                        "arithmetic on non-number ({} operand)",
                        side.ty
                    )));
                }
            }
            if cross_str(l, r) || cross_str(r, l) {
                return Err(QueryError::Type("arithmetic on non-number (Str operand)".into()));
            }
            let nullable = l.nullable
                || r.nullable
                // Division / modulo by zero yields NULL.
                || matches!(op, Div | Mod);
            let ty = match (l.def(), r.def()) {
                _ if op == Div => ColType::Float,
                (Some(ColType::Int), Some(ColType::Int)) => ColType::Int,
                (Some(a), Some(b)) if a.is_numeric() && b.is_numeric() => ColType::Float,
                _ => ColType::Any,
            };
            Ok(ColInfo::new(ty, nullable))
        }
    }
}

fn infer_function(name: &str, args: &[Expr], scope: &TypedSchema, ctx: Ctx<'_>) -> Result<ColInfo> {
    if is_aggregate(name) {
        let group_by = match ctx {
            Ctx::Row => {
                return Err(QueryError::Plan(format!(
                    "aggregate {name} used outside GROUP BY context"
                )));
            }
            Ctx::Grouped { group_by } => group_by,
        };
        // Aggregate arguments are evaluated row-at-a-time: a nested
        // aggregate is the runtime's outside-GROUP-BY plan error.
        let arg_tys: Vec<ColInfo> =
            args.iter().map(|a| infer(a, scope, Ctx::Row)).collect::<Result<_>>()?;
        if name == "PERCENTILE" {
            check_percentile_p(args, group_by)?;
        }
        let first = arg_tys.first().copied().unwrap_or_else(ColInfo::any);
        return Ok(match name {
            "COUNT" => ColInfo::new(ColType::Int, false),
            "AVG" | "STDDEV" | "VARIANCE" | "PERCENTILE" => ColInfo::new(ColType::Float, true),
            "MIN" | "MAX" => ColInfo::new(first.ty, true),
            // SUM stays integer-exact over Int inputs but promotes to
            // Float on overflow, so only a definitely-Float input gives a
            // definite output type.
            "SUM" if first.def() == Some(ColType::Float) => ColInfo::new(ColType::Float, true),
            _ => ColInfo::any(),
        });
    }
    if is_window(name) {
        // LAG / LEAD: value, optional integer offset, optional default.
        if args.is_empty() || args.len() > 3 {
            return Err(QueryError::BadFunction(format!("{name} expects 1-3 arguments")));
        }
        let arg_tys: Vec<ColInfo> =
            args.iter().map(|a| infer(a, scope, Ctx::Row)).collect::<Result<_>>()?;
        if let Some(offset) = arg_tys.get(1) {
            if offset.def_in(&NOT_NUMERIC) {
                return Err(QueryError::Type(format!("{name} offset must be integer")));
            }
        }
        let mut out = ColInfo::new(arg_tys[0].ty, true);
        if let Some(default) = arg_tys.get(2) {
            out = out.join(*default);
            out.nullable = true;
        }
        return Ok(out);
    }
    infer_scalar(name, args, scope, ctx)
}

/// Static PERCENTILE-p analysis: `p` must be a literal in `[0, 1]` after
/// constant folding, or (syntactically) one of the GROUP BY keys — the two
/// shapes that guarantee per-group constancy. The runtime only notices a
/// varying `p` when one group sees two distinct values, which makes the
/// failure data-dependent; rejecting statically is this module's one
/// deliberate strictness (pinned by the differential suite).
fn check_percentile_p(args: &[Expr], group_by: &[Expr]) -> Result<()> {
    let Some(p) = args.get(1) else {
        return Err(QueryError::BadFunction("PERCENTILE needs a p argument".into()));
    };
    let folded = crate::optimize::fold_expr(p.clone());
    if let Expr::Literal(v) = &folded {
        return match v.as_f64() {
            Some(f) if (0.0..=1.0).contains(&f) => Ok(()),
            Some(_) => Err(QueryError::BadFunction("PERCENTILE p must be in [0,1]".into())),
            None => Err(QueryError::BadFunction("PERCENTILE needs a p argument".into())),
        };
    }
    if group_by.iter().any(|g| g == p || *g == folded) {
        return Ok(());
    }
    Err(QueryError::BadFunction(
        "PERCENTILE p must be constant per group (a literal or a GROUP BY key)".into(),
    ))
}

fn infer_scalar(name: &str, args: &[Expr], scope: &TypedSchema, ctx: Ctx<'_>) -> Result<ColInfo> {
    let tys: Vec<ColInfo> = args.iter().map(|a| infer(a, scope, ctx)).collect::<Result<_>>()?;
    let arity = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(QueryError::BadFunction(format!(
                "{name} expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    let want_str = |i: usize, msg: &str| -> Result<()> {
        if tys[i].def_in(&NOT_STRING) {
            Err(QueryError::Type(msg.to_string()))
        } else {
            Ok(())
        }
    };
    let want_num = |i: usize| -> Result<()> {
        if tys[i].def_in(&NOT_NUMERIC) {
            Err(QueryError::Type(format!("{name} expects a numeric argument")))
        } else {
            Ok(())
        }
    };
    match name {
        // CONCAT renders anything (NULLs as empty) — no constraints.
        "CONCAT" => Ok(ColInfo::new(ColType::Str, false)),
        "SPLIT" => {
            arity(2)?;
            want_str(0, "SPLIT expects (string, string)")?;
            want_str(1, "SPLIT expects (string, string)")?;
            Ok(ColInfo::new(ColType::List, true))
        }
        "UPPER" | "LOWER" | "TRIM" => {
            arity(1)?;
            want_str(0, &format!("{name} expects a string"))?;
            Ok(ColInfo::new(ColType::Str, tys[0].nullable))
        }
        "LENGTH" => {
            arity(1)?;
            if tys[0].def_in(&[ColType::Int, ColType::Float, ColType::Bool, ColType::Map]) {
                return Err(QueryError::Type("LENGTH expects a string or list".into()));
            }
            Ok(ColInfo::new(ColType::Int, tys[0].nullable))
        }
        "COALESCE" => {
            let joined = tys.iter().copied().reduce(ColInfo::join);
            Ok(match joined {
                Some(j) => ColInfo::new(j.ty, tys.iter().all(|t| t.nullable)),
                None => ColInfo::any(),
            })
        }
        "GREATEST" | "LEAST" => {
            if args.is_empty() {
                return Err(QueryError::BadFunction(format!("{name} needs arguments")));
            }
            for i in 0..tys.len() {
                want_num(i)?;
            }
            Ok(ColInfo::new(ColType::Float, true))
        }
        "ABS" | "SQRT" | "LN" | "EXP" | "FLOOR" | "CEIL" => {
            arity(1)?;
            want_num(0)?;
            Ok(ColInfo::new(ColType::Float, tys[0].nullable))
        }
        "ROUND" => {
            if args.len() != 1 {
                arity(2)?;
            }
            want_num(0)?;
            if tys.len() == 2 && tys[1].def_in(&NOT_NUMERIC) {
                return Err(QueryError::Type("ROUND digits must be integer".into()));
            }
            Ok(ColInfo::new(ColType::Float, tys[0].nullable))
        }
        "POW" | "POWER" => {
            arity(2)?;
            want_num(0)?;
            want_num(1)?;
            Ok(ColInfo::new(ColType::Float, true))
        }
        "SUBSTR" | "SUBSTRING" => {
            if args.len() != 2 && args.len() != 3 {
                return Err(QueryError::BadFunction(format!("{name} expects 2 or 3 args")));
            }
            want_str(0, "SUBSTR expects a string")?;
            for (i, ty) in tys.iter().enumerate().skip(1) {
                if ty.def_in(&NOT_NUMERIC) {
                    return Err(QueryError::Type(format!(
                        "SUBSTR {} must be integer",
                        if i == 1 { "start" } else { "length" }
                    )));
                }
            }
            Ok(ColInfo::new(ColType::Str, tys[0].nullable))
        }
        "REPLACE" => {
            arity(3)?;
            for i in 0..3 {
                want_str(i, "REPLACE expects three strings")?;
            }
            Ok(ColInfo::new(ColType::Str, tys[0].nullable))
        }
        "HOSTGROUP" => {
            arity(1)?;
            want_str(0, "HOSTGROUP expects a string")?;
            Ok(ColInfo::new(ColType::Str, tys[0].nullable))
        }
        // IF takes any condition (truthiness) and any branch types.
        "IF" => {
            arity(3)?;
            Ok(tys[1].join(tys[2]))
        }
        "NULLIF" => {
            arity(2)?;
            Ok(ColInfo::new(tys[0].ty, true))
        }
        other => Err(QueryError::BadFunction(format!("unknown function {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::table::Table;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "t",
            Table::from_rows(
                &["ts", "host", "v"],
                vec![
                    vec![Value::Int(0), Value::str("web-1"), Value::Float(1.0)],
                    vec![Value::Int(1), Value::str("web-2"), Value::Float(2.0)],
                ],
            ),
        );
        c.register(
            "u",
            Table::from_rows(
                &["ts", "w"],
                vec![vec![Value::Int(0), Value::Null], vec![Value::Int(1), Value::Int(7)]],
            ),
        );
        c
    }

    fn check(sql: &str) -> Result<TypedSchema> {
        let q = parse_query(sql).expect("parse");
        query_types(&catalog(), &q)
    }

    #[test]
    fn lattice_joins() {
        assert_eq!(ColType::Int.join(ColType::Float), ColType::Float);
        assert_eq!(ColType::Float.join(ColType::Int), ColType::Float);
        assert_eq!(ColType::Str.join(ColType::Str), ColType::Str);
        assert_eq!(ColType::Str.join(ColType::Int), ColType::Any);
        assert_eq!(ColType::Any.join(ColType::Int), ColType::Any);
    }

    #[test]
    fn base_table_typing_from_columns() {
        let ts = base_table_types(&catalog(), "t").unwrap();
        assert_eq!(ts.cols()[0], ColInfo::new(ColType::Int, false));
        assert_eq!(ts.cols()[1], ColInfo::new(ColType::Str, false));
        assert_eq!(ts.cols()[2], ColInfo::new(ColType::Float, false));
        // u.w mixes Null and Int -> nullable Int.
        let us = base_table_types(&catalog(), "u").unwrap();
        assert_eq!(us.cols()[1], ColInfo::new(ColType::Int, true));
    }

    #[test]
    fn well_typed_statements_pass() {
        for sql in [
            "SELECT ts, v * 2 AS d FROM t WHERE v > 1",
            "SELECT host, AVG(v) AS m FROM t GROUP BY host ORDER BY m DESC",
            "SELECT UPPER(host) AS h, -v AS nv FROM t",
            "SELECT COALESCE(w, 0) AS w0 FROM u",
            "SELECT t.v FROM t JOIN u ON t.ts = u.ts",
            "SELECT PERCENTILE(v, 0.5) AS p50 FROM t",
            "SELECT PERCENTILE(v, ts) AS p FROM t GROUP BY ts",
            "SELECT CONCAT(host, '-', ts) AS k FROM t",
            "SELECT v FROM t UNION ALL SELECT w FROM u",
            "SELECT 1 + 2 AS three",
        ] {
            assert!(check(sql).is_ok(), "{sql}: {:?}", check(sql));
        }
    }

    #[test]
    fn string_arithmetic_rejected_with_position() {
        let err = check("SELECT host * 2 FROM t").unwrap_err();
        let QueryError::Type(msg) = &err else { panic!("{err:?}") };
        assert!(msg.contains("at byte 7"), "{msg}");
        assert!(check("SELECT v FROM t WHERE host - 1 > 0").is_err());
    }

    #[test]
    fn negation_of_string_rejected() {
        assert!(matches!(check("SELECT -host FROM t"), Err(QueryError::Type(_))));
        // Negating a nullable Int is fine.
        assert!(check("SELECT -w FROM u").is_ok());
    }

    #[test]
    fn bad_arity_rejected() {
        assert!(matches!(
            check("SELECT UPPER(host, host) FROM t"),
            Err(QueryError::BadFunction(_))
        ));
        assert!(matches!(check("SELECT SUBSTR(host) FROM t"), Err(QueryError::BadFunction(_))));
        assert!(matches!(check("SELECT NOSUCHFN(v) FROM t"), Err(QueryError::BadFunction(_))));
    }

    #[test]
    fn percentile_p_rules() {
        // Non-constant p that is not a group key: the ISSUE's flagship
        // static rejection.
        assert!(matches!(
            check("SELECT PERCENTILE(v, ts * 0.1) AS p FROM t"),
            Err(QueryError::BadFunction(_))
        ));
        assert!(matches!(check("SELECT PERCENTILE(v) FROM t"), Err(QueryError::BadFunction(_))));
        assert!(matches!(
            check("SELECT PERCENTILE(v, 1.5) FROM t"),
            Err(QueryError::BadFunction(_))
        ));
        // Constant-foldable p is fine.
        assert!(check("SELECT PERCENTILE(v, 1.0 / 2.0) AS p FROM t").is_ok());
    }

    #[test]
    fn aggregate_outside_group_context_rejected() {
        assert!(matches!(check("SELECT v FROM t WHERE AVG(v) > 1"), Err(QueryError::Plan(_))));
        // Nested aggregate: argument evaluation is row-at-a-time.
        assert!(matches!(check("SELECT AVG(SUM(v)) FROM t"), Err(QueryError::Plan(_))));
    }

    #[test]
    fn union_arity_mismatch_with_position() {
        let err = check("SELECT ts, v FROM t UNION ALL SELECT ts FROM u").unwrap_err();
        let QueryError::Plan(msg) = &err else { panic!("{err:?}") };
        assert!(msg.contains("UNION arity mismatch"), "{msg}");
        assert!(msg.contains("at byte 30"), "{msg}");
    }

    #[test]
    fn unknown_columns_and_tables_positioned() {
        let err = check("SELECT nope FROM t").unwrap_err();
        let QueryError::UnknownColumn(msg) = &err else { panic!("{err:?}") };
        assert!(msg.contains("at byte 7"), "{msg}");
        assert!(matches!(check("SELECT v FROM missing"), Err(QueryError::UnknownTable(_))));
    }

    #[test]
    fn map_and_list_indexing() {
        // Indexing a scalar is definitely wrong.
        assert!(matches!(check("SELECT v['x'] FROM t"), Err(QueryError::Type(_))));
        // SPLIT yields a list; integer indexing is fine, string is not.
        assert!(check("SELECT SPLIT(host, '-')[0] FROM t").is_ok());
        assert!(matches!(check("SELECT SPLIT(host, '-')['x'] FROM t"), Err(QueryError::Type(_))));
    }

    #[test]
    fn outer_join_nullability() {
        let ts = check("SELECT t.v, u.w FROM t LEFT JOIN u ON t.ts = u.ts").unwrap();
        assert!(!ts.cols()[0].nullable, "left side of LEFT JOIN stays non-null");
        assert!(ts.cols()[1].nullable, "right side of LEFT JOIN is nullable");
    }

    #[test]
    fn subquery_types_flow_through() {
        let ts = check("SELECT d FROM (SELECT v * 2 AS d FROM t) s").unwrap();
        assert_eq!(ts.cols()[0].ty, ColType::Float);
        // Errors inside a subquery surface too.
        assert!(check("SELECT d FROM (SELECT host * 2 AS d FROM t) s").is_err());
    }

    #[test]
    fn infer_expr_public_entry() {
        let scope = base_table_types(&catalog(), "t").unwrap();
        let q = parse_query("SELECT v + 1 FROM t").unwrap();
        let crate::ast::SelectItem::Expr { expr, .. } = &q.selects[0].items[0] else {
            panic!("expected expr item")
        };
        let info = infer_expr(expr, &scope).unwrap();
        assert_eq!(info.ty, ColType::Float);
    }
}
