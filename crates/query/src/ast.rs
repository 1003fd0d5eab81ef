//! Abstract syntax tree for the SQL subset.

use crate::value::Value;

/// One statement of the declarative RCA surface (Figure 4 / Appendix C of
/// the paper as SQL): plain queries plus the session statements that drive
/// the root-cause engine. Produced by [`crate::parse_statement`] /
/// [`crate::parse_script`]; the session statements are executed by a
/// stateful session layer (the facade crate's `Session`), while
/// [`Statement::Query`] runs on a bare [`crate::Catalog`] too.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// An ordinary query (optionally `EXPLAIN`-prefixed).
    Query(Query),
    /// `CREATE FAMILY <name> [WITH (...)] AS <query>` — stage one + pivot:
    /// run the query, pivot the result into feature-family frames, register
    /// them with the RCA engine.
    CreateFamily(CreateFamily),
    /// `EXPLAIN FOR <target> [GIVEN ...] [USING SCORER ...] [TOP k]` —
    /// hypothesis ranking, returned as an ordinary table.
    ExplainFor(ExplainFor),
    /// `SHOW FAMILIES` — the registered feature families.
    ShowFamilies,
    /// `SHOW TABLES` — the catalog's registered tables.
    ShowTables,
    /// `DROP FAMILY <name>` — remove a family (or a whole `CREATE FAMILY`
    /// group) from the engine.
    DropFamily {
        /// Family or group name.
        name: String,
    },
}

/// `CREATE FAMILY` payload: where the stage-one rows come from and how to
/// pivot them into the Feature Family Table.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateFamily {
    /// The statement name: the family name for single-frame pivots, and
    /// the *group* name when the pivot yields one frame per family label.
    pub name: String,
    /// `WITH (key = value, ...)` options (`layout`, `ts`, `family`,
    /// `feature`, `value`), validated by the session layer.
    pub options: Vec<(String, Value)>,
    /// The stage-one query producing the rows to pivot.
    pub query: Query,
    /// True for `EXPLAIN CREATE FAMILY ...`: return the statement's
    /// optimized plan (the pivot on top) and register nothing.
    pub explain: bool,
}

/// `EXPLAIN FOR` payload: one Algorithm-1 ranking request.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainFor {
    /// Target family (Y).
    pub target: String,
    /// Conditioning families (Z) from the `GIVEN` clause.
    pub given: Vec<String>,
    /// Scorer name from `USING SCORER` (`auto` when absent).
    pub scorer: Option<String>,
    /// `TOP k` result count (engine default when absent).
    pub top: Option<usize>,
}

/// A full query: one or more SELECTs combined with UNION ALL, optionally
/// prefixed with `EXPLAIN`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The selects, unioned in order.
    pub selects: Vec<SelectStmt>,
    /// True for `EXPLAIN <query>`: return the optimized plan instead of
    /// executing it.
    pub explain: bool,
}

/// One SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM clause (None supports `SELECT 1`-style constant queries).
    pub from: Option<TableRef>,
    /// JOIN clauses applied left to right.
    pub joins: Vec<JoinClause>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT row count.
    pub limit: Option<usize>,
    /// Source byte offsets of the statement's components, recorded by the
    /// parser so plan-time diagnostics can point into the SQL text. A
    /// hand-built statement may leave this defaulted (offsets of 0).
    pub spans: SelectSpans,
}

/// Byte offsets (into the original SQL text) for the components of one
/// SELECT statement. Offsets are recorded at the first token of each
/// component; `Default` (all zeros / empty) is valid for synthetic ASTs and
/// simply makes diagnostics point at byte 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelectSpans {
    /// Offset of the `SELECT` keyword itself.
    pub select: usize,
    /// One offset per projection item, in order.
    pub items: Vec<usize>,
    /// Offset of the FROM table reference.
    pub from: usize,
    /// One offset per JOIN's ON predicate, in order.
    pub join_ons: Vec<usize>,
    /// Offset of the WHERE predicate.
    pub where_clause: usize,
    /// One offset per GROUP BY expression, in order.
    pub group_by: Vec<usize>,
    /// One offset per ORDER BY key, in order.
    pub order_by: Vec<usize>,
}

impl SelectSpans {
    /// Offset of projection item `i`, falling back to the SELECT keyword.
    pub fn item(&self, i: usize) -> usize {
        self.items.get(i).copied().unwrap_or(self.select)
    }

    /// Offset of GROUP BY expression `i`, falling back to the SELECT keyword.
    pub fn group(&self, i: usize) -> usize {
        self.group_by.get(i).copied().unwrap_or(self.select)
    }

    /// Offset of ORDER BY key `i`, falling back to the SELECT keyword.
    pub fn order(&self, i: usize) -> usize {
        self.order_by.get(i).copied().unwrap_or(self.select)
    }

    /// Offset of JOIN `i`'s ON predicate, falling back to the SELECT keyword.
    pub fn join_on(&self, i: usize) -> usize {
        self.join_ons.get(i).copied().unwrap_or(self.select)
    }
}

/// A projected item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*` — all columns of the FROM scope.
    Wildcard,
    /// An expression with an optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// `AS alias` if given.
        alias: Option<String>,
    },
}

/// A table reference in FROM or JOIN.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A named table in the catalog, with optional alias.
    Named {
        /// Catalog table name.
        name: String,
        /// Alias for qualified column references.
        alias: Option<String>,
    },
    /// A parenthesised subquery, with optional alias.
    Subquery {
        /// The inner query.
        query: Box<Query>,
        /// Alias for qualified column references.
        alias: Option<String>,
    },
}

impl TableRef {
    /// The name columns get qualified with inside join scopes.
    pub fn scope_name(&self) -> Option<&str> {
        match self {
            TableRef::Named { alias: Some(a), .. } => Some(a),
            TableRef::Named { name, .. } => Some(name),
            TableRef::Subquery { alias, .. } => alias.as_deref(),
        }
    }
}

/// Join flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Rows must match on both sides.
    Inner,
    /// Keep all left rows, NULL-extend right.
    Left,
    /// Keep all rows from both sides (Appendix C's hypothesis join).
    FullOuter,
}

/// One JOIN clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// INNER / LEFT / FULL OUTER.
    pub kind: JoinKind,
    /// The joined table.
    pub table: TableRef,
    /// The ON predicate.
    pub on: Expr,
}

/// ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Sort expression.
    pub expr: Expr,
    /// Ascending (default) or descending.
    pub ascending: bool,
}

/// Binary operators in precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `OR`
    Or,
    /// `AND`
    And,
    /// `=`
    Eq,
    /// `!=` / `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `LIKE` (SQL `%`/`_` wildcards)
    Like,
    /// `GLOB` (shell `*`/`?` wildcards — the paper's `disk{host=datanode*}`
    /// selector family, pushable to the TSDB tag index)
    Glob,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `-x`
    Neg,
    /// `NOT x`
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Column reference, possibly qualified (`t.col`).
    Column(String),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Function call (scalar, aggregate or window — resolved at execution).
    Function {
        /// Uppercased function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Subscript: `expr[index]` for maps (string key) and lists (int).
    Index {
        /// The container expression.
        container: Box<Expr>,
        /// The index expression.
        index: Box<Expr>,
    },
    /// `expr IN (v1, v2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr BETWEEN low AND high` (inclusive).
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `CASE WHEN c THEN v [WHEN ...] [ELSE e] END`.
    Case {
        /// `(condition, result)` arms in order.
        when_then: Vec<(Expr, Expr)>,
        /// ELSE result (NULL if absent).
        else_expr: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Column reference helper.
    pub fn col(name: &str) -> Expr {
        Expr::Column(name.to_string())
    }

    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Calls `f` on this expression and every sub-expression, parents first.
    pub(crate) fn walk<'e>(&'e self, f: &mut impl FnMut(&'e Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Column(_) => {}
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Unary { operand, .. } => operand.walk(f),
            Expr::Function { args, .. } => args.iter().for_each(|a| a.walk(f)),
            Expr::Index { container, index } => {
                container.walk(f);
                index.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                list.iter().for_each(|e| e.walk(f));
            }
            Expr::Between { expr, low, high, .. } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::Case { when_then, else_expr } => {
                for (c, v) in when_then {
                    c.walk(f);
                    v.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
        }
    }

    /// Rebuilds this node with `f` applied to each direct child, in the
    /// order [`Expr::walk`] visits them: with `walk`, the one statement of
    /// which variant has which children. A rewrite is its own logic plus a
    /// call (`fold_expr`, `map_columns`); one that descends only part of the
    /// way (`eval::map_grouped`) says so by not calling this.
    pub(crate) fn map_children(self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        let mut boxed = |e: Box<Expr>| Box::new(f(*e));
        match self {
            leaf @ (Expr::Literal(_) | Expr::Column(_)) => leaf,
            Expr::Binary { op, left, right } => {
                let left = boxed(left);
                Expr::Binary { op, left, right: boxed(right) }
            }
            Expr::Unary { op, operand } => Expr::Unary { op, operand: boxed(operand) },
            Expr::Function { name, args } => {
                Expr::Function { name, args: args.into_iter().map(f).collect() }
            }
            Expr::Index { container, index } => {
                let container = boxed(container);
                Expr::Index { container, index: boxed(index) }
            }
            Expr::InList { expr, list, negated } => {
                let expr = boxed(expr);
                Expr::InList { expr, list: list.into_iter().map(f).collect(), negated }
            }
            Expr::Between { expr, low, high, negated } => {
                let (expr, low) = (boxed(expr), boxed(low));
                Expr::Between { expr, low, high: boxed(high), negated }
            }
            Expr::IsNull { expr, negated } => Expr::IsNull { expr: boxed(expr), negated },
            Expr::Case { when_then, else_expr } => {
                let when_then = when_then.into_iter().map(|(c, v)| (f(c), f(v))).collect();
                Expr::Case { when_then, else_expr: else_expr.map(|e| Box::new(f(*e))) }
            }
        }
    }

    /// True if any node is a call to a function `pred` accepts.
    fn calls(&self, pred: fn(&str) -> bool) -> bool {
        let mut found = false;
        self.walk(&mut |e| found |= matches!(e, Expr::Function { name, .. } if pred(name)));
        found
    }

    /// True if any node in this expression is an aggregate function call.
    pub fn contains_aggregate(&self) -> bool {
        self.calls(crate::functions::is_aggregate)
    }

    /// True if any node in this expression is a window call (`LAG`/`LEAD`).
    pub fn contains_window(&self) -> bool {
        self.calls(crate::functions::is_window)
    }

    /// The column names this expression references, in source order.
    pub(crate) fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column(c) = e {
                out.push(c.as_str());
            }
        });
        out
    }

    /// A display name for unaliased projections (mirrors common SQL engines:
    /// bare columns keep their name, everything else gets a rendered form).
    pub fn default_name(&self) -> String {
        match self {
            Expr::Column(c) => c.rsplit('.').next().unwrap_or(c).to_string(),
            Expr::Function { name, .. } => name.to_lowercase(),
            Expr::Literal(v) => v.render(),
            _ => "expr".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Function { name: "AVG".into(), args: vec![Expr::col("v")] };
        assert!(agg.contains_aggregate());
        let nested = Expr::Binary {
            op: BinaryOp::Add,
            left: Box::new(agg),
            right: Box::new(Expr::lit(1i64)),
        };
        assert!(nested.contains_aggregate());
        let scalar = Expr::Function { name: "CONCAT".into(), args: vec![Expr::col("a")] };
        assert!(!scalar.contains_aggregate());
    }

    #[test]
    fn default_names() {
        assert_eq!(Expr::col("t.runtime").default_name(), "runtime");
        assert_eq!(Expr::Function { name: "AVG".into(), args: vec![] }.default_name(), "avg");
        assert_eq!(Expr::lit(5i64).default_name(), "5");
    }

    #[test]
    fn table_ref_scope_names() {
        let named = TableRef::Named { name: "t".into(), alias: None };
        assert_eq!(named.scope_name(), Some("t"));
        let aliased = TableRef::Named { name: "t".into(), alias: Some("x".into()) };
        assert_eq!(aliased.scope_name(), Some("x"));
    }
}
