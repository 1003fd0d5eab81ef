//! A declarative SQL-subset engine over the time series store, built as a
//! three-stage **plan → optimize → columnar-execute** pipeline.
//!
//! The paper's thesis is that *databases are in a unique position to enable
//! exploratory causal analysis*: users enumerate hypotheses with SQL
//! (Appendix C lists the production queries), so hypothesis-exploration
//! throughput is bounded by query throughput. The production system leaned
//! on Spark SQL's optimizer and columnar execution; this crate implements
//! the same staging from scratch:
//!
//! 1. **Plan** ([`plan`]) — the parsed AST is lowered to a logical operator
//!    tree (`Scan`/`Filter`/`Project`/`Aggregate`/`Join`/`Sort`/`Limit`/
//!    `Union`), with ORDER BY keys resolved to output columns or hidden
//!    input-scope key columns at plan time. A static type checker
//!    ([`types`], [`check_query`]) then runs before any rewrite: every
//!    statement guaranteed to fail at runtime — string arithmetic, wrong
//!    function arity, aggregates in row contexts, a non-constant or
//!    out-of-range `PERCENTILE` p — is rejected here with the source byte
//!    position of the offending expression, and unknown columns suggest
//!    near-miss names. In debug builds (and whenever
//!    `EXPLAINIT_VERIFY_PLANS` is set) a plan verifier ([`verify`])
//!    additionally re-checks structural invariants after every optimizer
//!    rule.
//! 2. **Optimize** ([`optimize`]) — rule-based rewrites: constant folding,
//!    predicate pushdown (through projections and aliases, into the
//!    matching side of joins, and through aggregate group keys), and —
//!    crucially — pushdown *into storage*: on a table bound with
//!    [`Catalog::register_tsdb`], `metric_name = '…'` / `GLOB` / `LIKE`,
//!    `tag['k'] = 'v'`, `tag['k'] IS [NOT] NULL` and `timestamp` range
//!    conjuncts are absorbed into the scan's [`ScanSpec`] — a name
//!    *pattern*, tag predicates, an inclusive time range: the one
//!    description of a pushed-down scan, held by `TsdbScan`,
//!    `ScanAggregate` and `ScanPivot` alike, printed the same on all three
//!    `EXPLAIN` lines and resolved against the inverted indexes by one
//!    executor function — instead of a full-store materialization. (A name
//!    literal holding `*` / `?` is not a pattern and stays a row filter:
//!    `metric_name = 'cpu*'` matches the series named `cpu*`.) Projection
//!    pruning then drops unused
//!    observation columns (skipping per-row tag-map clones entirely when
//!    `tag` is never read), and a projection that only restates its input
//!    is dropped (`SELECT timestamp, metric_name, tag, value FROM tsdb`
//!    plans as a bare `TsdbScan`).
//! 3. **Execute** — four layers, one job each:
//!    * `exec` (internal, one file per operator) is the **operators** over
//!      typed column vectors ([`Table`] is columnar; its `rows()`, built on
//!      demand, serves callers and the oracle, never an operator): scan
//!      gather, fused filter chains over
//!      one selection vector, projection, hash and nested-loop joins,
//!      grouped aggregation, sort, union. Operators decide which rows flow
//!      where and on how many workers; they evaluate nothing themselves.
//!    * [`veval`] is the **one expression evaluator** under them: every
//!      non-aggregate expression over columns — operators, scalar calls,
//!      `CASE`, `LAG`/`LEAD` — with the row walker's results and its Ok/Err
//!      outcome. Anything over a single dictionary column runs once per
//!      distinct entry.
//!    * [`kernel`] is the **typed inner loops** `veval` lowers to:
//!      branch-free selection refinement and chunked arithmetic over raw
//!      `i64`/`f64` slices.
//!    * [`eval`] is the **scalar semantics** all of them call (what `+`,
//!      `LIKE`, `tag['k']` mean on two values) and the **row walker** that
//!      [`mod@reference`] and the tests use as the oracle.
//!
//!    TSDB scans emit *dictionary-encoded* `metric_name`/`tag` columns
//!    ([`Column::Dict`]: one shared `Arc` dictionary per binding plus a
//!    `u32` code per row). Operators split their input into morsels by its
//!    size — the partition count is the only execution option
//!    ([`ExecOptions`] / [`Catalog::execute_query_with`]) — and serial
//!    execution is the one-morsel case of the same code: the projection and
//!    the table aggregate run the filter chain under them per morsel; the
//!    projection concatenates morsel outputs in order (a window call forces
//!    one morsel); the aggregate builds mergeable partial states per
//!    morsel and merges them in morsel order — bit-identical at every
//!    partition count by construction (error-free float summation) — and
//!    an output that is not a bare key or aggregate call (`SUM(v) /
//!    COUNT(v)`) is the column evaluator's result over the operator's key
//!    and finished-aggregate columns. The hottest shape of
//!    all — an aggregate whose group keys are `timestamp` and/or
//!    expressions over the dictionary-encoded scan columns, sitting
//!    directly on a TSDB
//!    scan — collapses further into a single `LogicalPlan::ScanAggregate`
//!    node: the executor folds each series' sorted point vectors straight
//!    off the store into accumulators addressed `class × grid slot` (no row
//!    materialization; the class — the series' key values — resolved once
//!    per series, the slot read off the class's sorted timestamp grid, so
//!    nothing is hashed per point), merges the morsels' blocks slot by slot
//!    and hands the next operator typed key columns (`Column::Int`
//!    timestamps, `Column::Dict` class keys). The
//!    differential suite runs every generated query at partitions 1 and 3,
//!    over the TSDB binding and over the same observations registered as a
//!    plain table, against the reference interpreter.
//! 4. **Pivot** — stage two of the paper's pipeline (Figure 4) is a plan
//!    node, not a caller's afterthought: a `CREATE FAMILY` statement plans
//!    as its stage-one query under a `LogicalPlan::Pivot` root
//!    ([`Catalog::execute_family`], configured by a [`PivotSpec`]) and
//!    comes back as dense [`FamilyFrame`]s. A long pivot sitting straight
//!    on a TSDB scan — timestamp and value the scan's own columns, family
//!    and feature expressions over `metric_name` / `tag` — fuses with it
//!    into `LogicalPlan::ScanPivot`, whose operator resolves both labels
//!    once per *series* and writes each decoded chunk span straight into
//!    its family's matrix: no row-per-point table is built only to be
//!    transposed back. Every other shape (aggregates, joins, registered
//!    tables, residual filters, the wide layout) runs stage one to a
//!    [`Table`] and pivots that ([`pivot_long`] / [`pivot_wide`] /
//!    [`pivot_one`], also callable directly). Both executions share one
//!    id-keyed dense core and one set of ordering, last-write-wins and
//!    gap-fill rules (module docs of `pivot.rs`); the differential suite
//!    holds them equal cell for cell, the plan's shape alone picks between
//!    them, and `EXPLAIN CREATE FAMILY ...` shows which.
//!
//! ## Reading `EXPLAIN` output
//!
//! `EXPLAIN <query>` returns the optimized plan as a one-column table —
//! the fastest way to confirm a predicate reached the scan. For the
//! paper's Appendix-C family query the whole pipeline collapses into one
//! node (under the Sort):
//!
//! ```text
//! Sort [#0 ASC]
//!   ScanAggregate tsdb name=disk time=[0, 10000000] \
//!     group=[timestamp, tag[grp]] \
//!     items=[timestamp AS timestamp, tag[grp] AS tag[grp], AVG(value) AS mean_v]
//! ```
//!
//! A `where=[...]` attribute lists residual predicates the scan indexes
//! could not absorb (evaluated per series / per point before
//! aggregation). Their order tells you how each conjunct executes — the
//! optimizer sorts the chain into three classes, and within the span
//! loop the whole chain runs as a *fused* filter over one selection
//! vector (no intermediate column is materialized between conjuncts):
//!
//! 1. predicates over `metric_name`/`tag` dictionary columns first —
//!    evaluated once per series, not per point;
//! 2. kernel-refinable point predicates next — comparisons, `BETWEEN`,
//!    `IS NULL` and literal `IN` lists over `timestamp`/`value`, which
//!    refine the selection vector in place with typed branch-free
//!    loops ([`kernel`]);
//! 3. everything else last — general expressions (arithmetic, scalar
//!    calls, `CASE`, `OR`) evaluated over the gathered survivors.
//!
//! When residual predicates appear as explicit `Filter` nodes instead
//! (any non-`ScanAggregate` plan), each filter line over a scan carries
//! a `refine=dict|kernel|general` annotation naming the same class, so
//! the chain order above is visible directly: reading top-down you
//! should see `general` before `kernel` before `dict` (outermost runs
//! last). A filter over a registered (non-TSDB) table shows
//! `refine=kernel` only when the static types ([`types`]) prove every
//! referenced column is dense and numeric — the precondition for the
//! typed selection-vector loops.
//!
//! If you expected the pushdown and see an `Aggregate` over a `TsdbScan`
//! instead, the pipeline was not eligible: a group key that is not
//! `timestamp` or an expression over the dictionary columns
//! (`metric_name`, `tag['k']`, `CONCAT(tag['a'], tag['b'])`), an output
//! that reads a non-key column (the group's first row, which only the table
//! aggregate keeps; so does a key under `IN` / `BETWEEN` / `IS NULL`), a
//! window call anywhere, a join/UNION context, `MIN`/`MAX` over the raw
//! `tag` map, or — without a `timestamp` group key — `MIN`/`MAX` over a
//! float stream or a scalar call (NaN and mixed classes are incomparable,
//! so that fold is accumulation-order dependent) all fall back to the table
//! aggregate.
//!
//! A join is the line `Join Inner|Left|FullOuter on <expr>` and nothing
//! else. The plan is a shape — it carries no row estimates — and the hash
//! join indexes whichever materialised input turns out shorter.
//!
//! `EXPLAIN CREATE FAMILY ...` puts the pivot on top: `Pivot layout=long
//! ts=timestamp family=metric_name feature=feat value=v` over the stage-one
//! plan (role columns as resolved, `?` where one does not resolve; a
//! single-family wide pivot shows `into=<name>`), or the one line
//! `ScanPivot tsdb name=cpu time=[0, 600] layout=long ts=timestamp
//! family=metric_name feature=tag['host'] value=value` when the pivot fused
//! with its scan. If you expected `ScanPivot` and see `Pivot` over a
//! `Project`/`Filter`/`TsdbScan`, one of these holds: the layout is wide, a
//! role does not resolve, ts or value is not the bare `timestamp` / `value`
//! column, a label reads a per-point column or holds a window call, a
//! residual `Filter` (anything the scan's indexes could not absorb), a
//! `Sort`/`Limit`, or an extra stage-one column that is not a plain column.
//! A wide pivot over a `ScanAggregate` is the one line `ScanAggregatePivot
//! tsdb layout=wide ts=timestamp family=metric_name group=[timestamp,
//! metric_name] items=[…]` when ts is the bare `timestamp` key, the family
//! the only class key (or, `into=<name>`, there is none) and every other
//! output a bare aggregate call; a feature such as `SUM(value) /
//! COUNT(value)`, a second class key, an `ORDER BY` or the long layout keep
//! `Pivot` over `ScanAggregate`.
//!
//! The pre-pipeline tree-walking interpreter is retained verbatim in
//! [`reference`] as a differential-testing oracle (see
//! `tests/differential.rs`).
//!
//! Supported SQL surface:
//!
//! * `SELECT` projections with aliases, arithmetic and scalar functions
//!   (`CONCAT`, `SPLIT(s, sep)[i]`, `GREATEST`, `COALESCE`, ...);
//! * `WHERE` with full boolean logic, `IN`, `BETWEEN`, `LIKE` (SQL
//!   wildcards), `GLOB` (shell wildcards — pushable to the TSDB name/tag
//!   indexes, with a literal-prefix range scan of the name index),
//!   `IS [NOT] NULL`;
//! * `GROUP BY` with `AVG`/`SUM`/`MIN`/`MAX`/`COUNT`/`STDDEV`/`VARIANCE`/
//!   `PERCENTILE(expr, p)` — `SUM` keeps Int typing over all-Int input
//!   (promoting to Float on i64 overflow), `STDDEV`/`VARIANCE` are the
//!   *sample* (n−1) statistics, and `PERCENTILE` requires `p` to be
//!   constant within each group;
//! * the window functions `LAG`/`LEAD(expr [, k [, default]])` over the
//!   current row order in the select list (§3.5 footnote: lagged features
//!   for time series); anywhere else a window call sees only its own row;
//! * `UNION ALL` of compatible queries (stage-one family queries are
//!   unioned, Figure 4) with Int/Float column coercion;
//! * `INNER` / `LEFT` / `FULL OUTER JOIN ... ON` equality conditions (the
//!   hypothesis-generation join of Appendix C);
//! * `ORDER BY ... ASC|DESC`, `LIMIT`;
//! * map access `tag['host']` against the TSDB virtual table;
//! * `EXPLAIN <query>`.
//!
//! **Statements and scripts** ([`parse_statement`] / [`parse_script`]):
//! beyond plain queries, the parser understands the paper's declarative
//! RCA statements, separated by `;` in scripts:
//!
//! * `CREATE FAMILY <name> [WITH (layout = 'wide'|'long', ts = ..,
//!   family = .., feature = .., value = ..)] AS <query>` — stage one +
//!   pivot into the Feature Family Table; prefixed with `EXPLAIN` it
//!   returns its plan instead;
//! * `EXPLAIN FOR <target> [GIVEN <fam>, ...] [USING SCORER <name>]
//!   [TOP <k>]` — hypothesis ranking (distinct from the `EXPLAIN <query>`
//!   plan dump via one token of lookahead);
//! * `SHOW FAMILIES`, `SHOW TABLES`, `DROP FAMILY <name>`.
//!
//! The statement keywords are recognised positionally, never reserved:
//! `family`, `top`, `scorer`, `create`, ... all remain valid identifiers
//! and aliases inside ordinary queries. This crate parses the RCA
//! statements, executes plain queries and plans and runs `CREATE FAMILY` up
//! to its frames ([`Catalog::execute_family`]); the stateful executor that
//! registers them with the ranking engine is the facade crate's `Session`.
//!
//! The query entry point is [`Catalog`]: register tables (or bind a
//! [`explainit_tsdb::Tsdb`] as the `tsdb` virtual table — or a
//! [`explainit_tsdb::SharedTsdb`] via [`Catalog::register_tsdb_shared`]
//! for a live binding that tracks ingests through its generation counter)
//! and call [`Catalog::execute`].
//!
//! ```
//! use explainit_query::{Catalog, Table, Value};
//!
//! let mut catalog = Catalog::new();
//! let table = Table::from_rows(
//!     &["ts", "host", "v"],
//!     vec![
//!         vec![Value::Int(0), Value::str("a"), Value::Float(1.0)],
//!         vec![Value::Int(0), Value::str("b"), Value::Float(3.0)],
//!     ],
//! );
//! catalog.register("m", table);
//! let out = catalog.execute("SELECT ts, AVG(v) AS mean_v FROM m GROUP BY ts").unwrap();
//! assert_eq!(out.rows()[0][1], Value::Float(2.0));
//! ```

#![forbid(unsafe_code)]

mod ast;
mod catalog;
mod column;
mod error;
pub mod eval;
mod exec;
mod functions;
pub mod kernel;
mod lexer;
pub mod optimize;
mod parser;
mod pivot;
pub mod plan;
pub mod reference;
mod table;
pub mod types;
mod value;
pub mod verify;
pub mod veval;

pub use ast::{
    BinaryOp, CreateFamily, ExplainFor, Expr, JoinKind, OrderKey, Query, SelectItem, SelectStmt,
    Statement, TableRef, UnaryOp,
};
pub use catalog::Catalog;
pub use column::Column;
pub use error::QueryError;
pub use exec::ExecOptions;
pub use functions::{AggAcc, AggColumn};
pub use lexer::{tokenize, Token};
pub use parser::{parse_query, parse_script, parse_statement};
pub use pivot::{pivot_long, pivot_one, pivot_wide, FamilyFrame, Layout, PivotSpec};
pub use plan::{LogicalPlan, ScanSpec, FAMILY_COLUMNS};
pub use table::{Schema, Table};
pub use types::{check_query, infer_expr, ColInfo, ColType, TypedSchema};
pub use value::Value;

/// Result alias for query operations.
pub type Result<T> = std::result::Result<T, QueryError>;
