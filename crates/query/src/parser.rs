//! Recursive-descent parser for the SQL subset.

use crate::ast::{
    BinaryOp, CreateFamily, ExplainFor, Expr, JoinClause, JoinKind, OrderKey, Query, SelectItem,
    SelectSpans, SelectStmt, Statement, TableRef, UnaryOp,
};
use crate::lexer::{tokenize_spanned, Token};
use crate::value::Value;
use crate::{QueryError, Result};

/// Words that terminate expressions / cannot be bare aliases.
const RESERVED: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "LIMIT", "UNION", "JOIN", "INNER", "LEFT", "FULL",
    "OUTER", "ON", "AS", "AND", "OR", "NOT", "IN", "BETWEEN", "IS", "NULL", "LIKE", "GLOB", "CASE",
    "WHEN", "THEN", "ELSE", "END", "ASC", "DESC", "BY", "ALL", "TRUE", "FALSE", "HAVING",
    "EXPLAIN",
];

/// Bound on the height of a parsed expression tree, and on how deep the
/// recursive descent nests to build one (parentheses add depth without
/// adding height; a left-deep `1 + 1 + …` chain adds height without adding
/// depth). Everything downstream — the folder, the type checker, both
/// evaluators, `Clone` and `Drop` — recurses over the tree, so the bound is
/// what keeps hostile SQL a parse error instead of a stack overflow. Sized
/// so the deepest accepted expression runs end to end on a 2 MiB thread
/// stack in a debug build (`static_analysis.rs` executes one at the bound).
pub(crate) const MAX_EXPR_HEIGHT: usize = 64;

/// Parses a SQL string into a [`Query`]. A leading `EXPLAIN` keyword marks
/// the query for plan rendering instead of execution.
pub fn parse_query(sql: &str) -> Result<Query> {
    let mut p = Parser::new(sql)?;
    let explain = p.eat_kw("EXPLAIN");
    let mut q = p.query()?;
    q.explain = explain;
    if p.pos != p.tokens.len() {
        return Err(QueryError::Parse(format!(
            "unexpected trailing input at token {:?} at byte {}",
            p.tokens[p.pos],
            p.here(),
        )));
    }
    Ok(q)
}

/// Parses exactly one [`Statement`] (a trailing `;` is allowed; anything
/// beyond it is rejected).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut statements = parse_script(sql)?;
    match statements.len() {
        1 => Ok(statements.pop().expect("length checked")), // invariant: length checked by the match arm
        0 => Err(QueryError::Parse("empty statement".into())),
        n => Err(QueryError::Parse(format!("expected one statement, found {n}"))),
    }
}

/// Parses a `;`-separated script into its statements. Empty statements
/// (stray or trailing semicolons) are skipped; parse errors name the
/// 1-based statement they occurred in.
///
/// The RCA statement keywords (`CREATE`, `FAMILY`, `FOR`, `GIVEN`,
/// `USING`, `SCORER`, `TOP`, `SHOW`, `DROP`, `WITH`, ...) are recognised
/// *positionally*, not reserved: inside ordinary queries they all remain
/// usable as table names, column names and aliases.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(sql)?;
    let mut out = Vec::new();
    loop {
        while p.eat_token(&Token::Semicolon) {}
        if p.peek().is_none() {
            break;
        }
        let idx = out.len() + 1;
        out.push(p.statement().map_err(|e| at_statement(idx, e))?);
        if p.peek().is_none() {
            break;
        }
        if !p.eat_token(&Token::Semicolon) {
            return Err(at_statement(
                idx,
                QueryError::Parse(format!(
                    "unexpected trailing input at token {:?} (statements are separated by ';')",
                    p.peek()
                )),
            ));
        }
    }
    Ok(out)
}

/// Labels a parse error with the 1-based statement index of a script.
fn at_statement(idx: usize, e: QueryError) -> QueryError {
    match e {
        QueryError::Parse(m) => QueryError::Parse(format!("statement {idx}: {m}")),
        other => other,
    }
}

struct Parser {
    tokens: Vec<Token>,
    /// Byte offset of each token in the source text (parallel to `tokens`).
    spans: Vec<usize>,
    pos: usize,
    /// Open nesting levels of the descent (see [`MAX_EXPR_HEIGHT`]).
    depth: usize,
    /// Height of the expression tree the last expression rule returned.
    height: usize,
}

impl Parser {
    fn new(sql: &str) -> Result<Parser> {
        let (tokens, spans) = tokenize_spanned(sql)?.into_iter().unzip();
        Ok(Parser { tokens, spans, pos: 0, depth: 0, height: 0 })
    }

    /// Byte offset of the token about to be consumed (end of input falls
    /// back to the last token's offset).
    fn here(&self) -> usize {
        self.spans.get(self.pos).copied().unwrap_or_else(|| self.spans.last().copied().unwrap_or(0))
    }

    fn too_deep(&self) -> QueryError {
        QueryError::Parse(format!("expression nests deeper than {MAX_EXPR_HEIGHT} levels"))
            .at_byte(self.here())
    }

    /// Runs `rule` one nesting level down.
    fn nested<T>(&mut self, rule: fn(&mut Parser) -> Result<T>) -> Result<T> {
        if self.depth == MAX_EXPR_HEIGHT {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let out = rule(self);
        self.depth -= 1;
        out
    }

    /// Records a node built over children of height `below` at most.
    fn grow(&mut self, below: usize) -> Result<()> {
        if below >= MAX_EXPR_HEIGHT {
            return Err(self.too_deep());
        }
        self.height = below + 1;
        Ok(())
    }

    /// `left op right`, right after `right` was parsed.
    fn binary(
        &mut self,
        op: BinaryOp,
        left: Expr,
        left_height: usize,
        right: Expr,
    ) -> Result<Expr> {
        self.grow(left_height.max(self.height))?;
        Ok(Expr::Binary { op, left: Box::new(left), right: Box::new(right) })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(QueryError::Parse(format!(
                "expected keyword {kw}, found {:?} at byte {}",
                self.peek(),
                self.here(),
            )))
        }
    }

    fn eat_token(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_token(&mut self, t: &Token) -> Result<()> {
        if self.eat_token(t) {
            Ok(())
        } else {
            Err(QueryError::Parse(format!(
                "expected {t:?}, found {:?} at byte {}",
                self.peek(),
                self.here(),
            )))
        }
    }

    fn peek_is_reserved(&self) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if RESERVED.iter().any(|r| s.eq_ignore_ascii_case(r)))
    }

    fn ident(&mut self) -> Result<String> {
        let at = self.here();
        match self.advance() {
            Some(Token::Ident(s)) => Ok(s),
            other => {
                Err(QueryError::Parse(format!("expected identifier, found {other:?} at byte {at}")))
            }
        }
    }

    /// True when the next two tokens are the given keywords — the
    /// two-token lookahead that keeps every statement keyword usable as a
    /// plain identifier elsewhere.
    fn peek_kws(&self, first: &str, second: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(first)) && self.peek2().is_some_and(|t| t.is_kw(second))
    }

    /// A family / scorer name: a bare identifier, or a string literal for
    /// names that are not valid identifiers (`'disk{host=a}'`).
    fn object_name(&mut self) -> Result<String> {
        match self.advance() {
            Some(Token::Ident(s)) => Ok(s),
            Some(Token::StringLit(s)) => Ok(s),
            other => Err(QueryError::Parse(format!("expected a name, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        // `EXPLAIN CREATE` can only open a family statement: a query
        // starts with SELECT.
        let explain_family = self.peek_kws("EXPLAIN", "CREATE");
        if explain_family {
            self.pos += 1;
        }
        if explain_family || self.peek_kws("CREATE", "FAMILY") {
            self.expect_kw("CREATE")?;
            self.expect_kw("FAMILY")?;
            return self.create_family(explain_family);
        }
        if self.peek_kws("DROP", "FAMILY") {
            self.pos += 2;
            return Ok(Statement::DropFamily { name: self.object_name()? });
        }
        if self.peek_kws("SHOW", "FAMILIES") {
            self.pos += 2;
            return Ok(Statement::ShowFamilies);
        }
        if self.peek_kws("SHOW", "TABLES") {
            self.pos += 2;
            return Ok(Statement::ShowTables);
        }
        if self.peek_kws("EXPLAIN", "FOR") {
            self.pos += 2;
            return self.explain_for();
        }
        // Anything else is an ordinary (possibly EXPLAIN-prefixed) query.
        let explain = self.eat_kw("EXPLAIN");
        let mut q = self.query()?;
        q.explain = explain;
        Ok(Statement::Query(q))
    }

    /// `CREATE FAMILY <name> [WITH (k = v, ...)] AS <query>` (the leading
    /// keywords are already consumed).
    fn create_family(&mut self, explain: bool) -> Result<Statement> {
        let name = self.object_name()?;
        let mut options = Vec::new();
        if self.eat_kw("WITH") {
            self.expect_token(&Token::LParen)?;
            loop {
                let key = self.ident()?.to_lowercase();
                self.expect_token(&Token::Eq)?;
                self.int_in_range()?;
                let value = match self.advance() {
                    Some(Token::StringLit(s)) | Some(Token::Ident(s)) => Value::Str(s),
                    Some(Token::IntLit(n)) => Value::Int(n),
                    Some(Token::FloatLit(f)) => Value::Float(f),
                    other => {
                        return Err(QueryError::Parse(format!(
                            "expected an option value after {key} =, found {other:?}"
                        )))
                    }
                };
                options.push((key, value));
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
        }
        self.expect_kw("AS")?;
        let query = self.query()?;
        Ok(Statement::CreateFamily(CreateFamily { name, options, query, explain }))
    }

    /// `EXPLAIN FOR <target> [GIVEN a, b] [USING SCORER s] [TOP k]` (the
    /// leading keywords are already consumed).
    fn explain_for(&mut self) -> Result<Statement> {
        let target = self.object_name()?;
        let mut given = Vec::new();
        if self.eat_kw("GIVEN") {
            given.push(self.object_name()?);
            while self.eat_token(&Token::Comma) {
                given.push(self.object_name()?);
            }
        }
        let scorer = if self.eat_kw("USING") {
            self.expect_kw("SCORER")?;
            Some(self.object_name()?)
        } else {
            None
        };
        let top = if self.eat_kw("TOP") {
            self.int_in_range()?;
            match self.advance() {
                Some(Token::IntLit(n)) if n > 0 => Some(n as usize),
                other => {
                    return Err(QueryError::Parse(format!(
                        "TOP expects a positive integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Statement::ExplainFor(ExplainFor { target, given, scorer, top }))
    }

    fn query(&mut self) -> Result<Query> {
        let mut selects = vec![self.select()?];
        while self.eat_kw("UNION") {
            // UNION ALL and plain UNION are both bag semantics here; the
            // paper's stage-one queries use UNION of disjoint families.
            self.eat_kw("ALL");
            selects.push(self.select()?);
        }
        Ok(Query { selects, explain: false })
    }

    fn select(&mut self) -> Result<SelectStmt> {
        let mut spans = SelectSpans { select: self.here(), ..SelectSpans::default() };
        self.expect_kw("SELECT")?;
        spans.items.push(self.here());
        let mut items = vec![self.select_item()?];
        while self.eat_token(&Token::Comma) {
            spans.items.push(self.here());
            items.push(self.select_item()?);
        }
        let mut from = None;
        let mut joins = Vec::new();
        if self.eat_kw("FROM") {
            spans.from = self.here();
            from = Some(self.table_ref()?);
            loop {
                let kind = if self.eat_kw("JOIN") {
                    JoinKind::Inner
                } else if self.peek().is_some_and(|t| t.is_kw("INNER")) {
                    self.pos += 1;
                    self.expect_kw("JOIN")?;
                    JoinKind::Inner
                } else if self.peek().is_some_and(|t| t.is_kw("LEFT")) {
                    self.pos += 1;
                    self.eat_kw("OUTER");
                    self.expect_kw("JOIN")?;
                    JoinKind::Left
                } else if self.peek().is_some_and(|t| t.is_kw("FULL")) {
                    self.pos += 1;
                    self.eat_kw("OUTER");
                    self.expect_kw("JOIN")?;
                    JoinKind::FullOuter
                } else {
                    break;
                };
                let table = self.table_ref()?;
                self.expect_kw("ON")?;
                spans.join_ons.push(self.here());
                let on = self.expr()?;
                joins.push(JoinClause { kind, table, on });
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            spans.where_clause = self.here();
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            spans.group_by.push(self.here());
            group_by.push(self.expr()?);
            while self.eat_token(&Token::Comma) {
                spans.group_by.push(self.here());
                group_by.push(self.expr()?);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                spans.order_by.push(self.here());
                let expr = self.expr()?;
                let ascending = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push(OrderKey { expr, ascending });
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            self.int_in_range()?;
            match self.advance() {
                Some(Token::IntLit(n)) if n >= 0 => Some(n as usize),
                other => {
                    return Err(QueryError::Parse(format!(
                        "LIMIT expects a non-negative integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(SelectStmt { items, from, joins, where_clause, group_by, order_by, limit, spans })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_token(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if !self.peek_is_reserved() {
            // Bare alias: a non-reserved identifier right after the expr.
            match self.peek() {
                Some(Token::Ident(_)) => Some(self.ident()?),
                _ => None,
            }
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        if self.eat_token(&Token::LParen) {
            let query = self.nested(Parser::query)?;
            self.expect_token(&Token::RParen)?;
            let alias = self.optional_alias()?;
            return Ok(TableRef::Subquery { query: Box::new(query), alias });
        }
        let name = self.ident()?;
        let alias = self.optional_alias()?;
        Ok(TableRef::Named { name, alias })
    }

    fn optional_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("AS") {
            return Ok(Some(self.ident()?));
        }
        if !self.peek_is_reserved() {
            if let Some(Token::Ident(_)) = self.peek() {
                return Ok(Some(self.ident()?));
            }
        }
        Ok(None)
    }

    // ---- expressions, precedence climbing --------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.nested(Parser::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let left_height = self.height;
            let right = self.and_expr()?;
            left = self.binary(BinaryOp::Or, left, left_height, right)?;
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let left_height = self.height;
            let right = self.not_expr()?;
            left = self.binary(BinaryOp::And, left, left_height, right)?;
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            let operand = self.nested(Parser::not_expr)?;
            self.grow(self.height)?;
            return Ok(Expr::Unary { op: UnaryOp::Not, operand: Box::new(operand) });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        let left_height = self.height;
        // NOT IN / NOT BETWEEN / NOT LIKE / NOT GLOB.
        let negated = if self.peek().is_some_and(|t| t.is_kw("NOT"))
            && self.peek2().is_some_and(|t| {
                t.is_kw("IN") || t.is_kw("BETWEEN") || t.is_kw("LIKE") || t.is_kw("GLOB")
            }) {
            self.pos += 1;
            true
        } else {
            false
        };
        if self.eat_kw("IN") {
            self.expect_token(&Token::LParen)?;
            let mut list = vec![self.expr()?];
            let mut below = left_height.max(self.height);
            while self.eat_token(&Token::Comma) {
                list.push(self.expr()?);
                below = below.max(self.height);
            }
            self.expect_token(&Token::RParen)?;
            self.grow(below)?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            let below = left_height.max(self.height);
            self.expect_kw("AND")?;
            let high = self.additive()?;
            self.grow(below.max(self.height))?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        for (kw, op) in [("LIKE", BinaryOp::Like), ("GLOB", BinaryOp::Glob)] {
            if self.eat_kw(kw) {
                let right = self.additive()?;
                let matched = self.binary(op, left, left_height, right)?;
                return Ok(if negated {
                    self.grow(self.height)?;
                    Expr::Unary { op: UnaryOp::Not, operand: Box::new(matched) }
                } else {
                    matched
                });
            }
        }
        if negated {
            return Err(QueryError::Parse("dangling NOT before comparison".into()));
        }
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            self.grow(left_height)?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinaryOp::Eq),
            Some(Token::NotEq) => Some(BinaryOp::NotEq),
            Some(Token::Lt) => Some(BinaryOp::Lt),
            Some(Token::LtEq) => Some(BinaryOp::LtEq),
            Some(Token::Gt) => Some(BinaryOp::Gt),
            Some(Token::GtEq) => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return self.binary(op, left, left_height, right);
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let left_height = self.height;
            let right = self.multiplicative()?;
            left = self.binary(op, left, left_height, right)?;
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                Some(Token::Percent) => BinaryOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let left_height = self.height;
            let right = self.unary()?;
            left = self.binary(op, left, left_height, right)?;
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_token(&Token::Minus) {
            // `i64::MIN` has no positive twin to negate: its magnitude is a
            // literal only here, directly under the minus.
            if self.eat_token(&Token::IntLit(i64::MIN)) {
                self.height = 1;
                return Ok(Expr::Literal(Value::Int(i64::MIN)));
            }
            let operand = self.nested(Parser::unary)?;
            self.grow(self.height)?;
            return Ok(Expr::Unary { op: UnaryOp::Neg, operand: Box::new(operand) });
        }
        if self.eat_token(&Token::Plus) {
            return self.nested(Parser::unary);
        }
        self.postfix()
    }

    /// The lexer hands over the magnitude of `i64::MIN` as
    /// `IntLit(i64::MIN)` so that `unary` can accept it under a minus; every
    /// other place that reads an integer literal calls this first.
    fn int_in_range(&self) -> Result<()> {
        if self.peek() == Some(&Token::IntLit(i64::MIN)) {
            let magnitude = i64::MIN.unsigned_abs();
            return Err(QueryError::Parse(format!("integer literal {magnitude} is out of range"))
                .at_byte(self.here()));
        }
        Ok(())
    }

    fn postfix(&mut self) -> Result<Expr> {
        let mut e = self.primary()?;
        while self.eat_token(&Token::LBracket) {
            let container_height = self.height;
            let index = self.expr()?;
            self.expect_token(&Token::RBracket)?;
            self.grow(container_height.max(self.height))?;
            e = Expr::Index { container: Box::new(e), index: Box::new(index) };
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr> {
        self.height = 1; // a leaf, unless an arm below builds over operands
        self.int_in_range()?;
        match self.peek().cloned() {
            Some(Token::IntLit(n)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(n)))
            }
            Some(Token::FloatLit(f)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Float(f)))
            }
            Some(Token::StringLit(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Str(s)))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect_token(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                if name.eq_ignore_ascii_case("NULL") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Null));
                }
                if name.eq_ignore_ascii_case("TRUE") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if name.eq_ignore_ascii_case("FALSE") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                if name.eq_ignore_ascii_case("CASE") {
                    self.pos += 1;
                    return self.case_expr();
                }
                // Function call?
                if self.peek2() == Some(&Token::LParen) {
                    self.pos += 2;
                    let mut args = Vec::new();
                    let mut below = 0;
                    if !self.eat_token(&Token::RParen) {
                        loop {
                            // COUNT(*).
                            if self.peek() == Some(&Token::Star) {
                                self.pos += 1;
                                self.height = 1;
                                args.push(Expr::Literal(Value::Int(1)));
                            } else {
                                args.push(self.expr()?);
                            }
                            below = below.max(self.height);
                            if !self.eat_token(&Token::Comma) {
                                break;
                            }
                        }
                        self.expect_token(&Token::RParen)?;
                    }
                    self.grow(below)?;
                    return Ok(Expr::Function { name: name.to_uppercase(), args });
                }
                // Qualified column t.c?
                self.pos += 1;
                if self.eat_token(&Token::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column(format!("{name}.{col}")));
                }
                Ok(Expr::Column(name))
            }
            other => Err(QueryError::Parse(format!("unexpected token {other:?}"))),
        }
    }

    fn case_expr(&mut self) -> Result<Expr> {
        let mut when_then = Vec::new();
        let mut below = 0;
        while self.eat_kw("WHEN") {
            let cond = self.expr()?;
            below = below.max(self.height);
            self.expect_kw("THEN")?;
            let result = self.expr()?;
            below = below.max(self.height);
            when_then.push((cond, result));
        }
        if when_then.is_empty() {
            return Err(QueryError::Parse("CASE requires at least one WHEN arm".into()));
        }
        let else_expr = if self.eat_kw("ELSE") { Some(Box::new(self.expr()?)) } else { None };
        self.expect_kw("END")?;
        self.grow(if else_expr.is_some() { below.max(self.height) } else { below })?;
        Ok(Expr::Case { when_then, else_expr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_select() {
        let q = parse_query("SELECT a FROM t").unwrap();
        assert_eq!(q.selects.len(), 1);
        let s = &q.selects[0];
        assert_eq!(s.items.len(), 1);
        assert!(matches!(
            s.from,
            Some(TableRef::Named { ref name, .. }) if name == "t"
        ));
    }

    #[test]
    fn aliases_with_and_without_as() {
        let q = parse_query("SELECT a AS x, b y FROM t").unwrap();
        let items = &q.selects[0].items;
        match (&items[0], &items[1]) {
            (SelectItem::Expr { alias: Some(x), .. }, SelectItem::Expr { alias: Some(y), .. }) => {
                assert_eq!(x, "x");
                assert_eq!(y, "y");
            }
            other => panic!("unexpected items {other:?}"),
        }
    }

    #[test]
    fn full_clause_stack() {
        let q = parse_query(
            "SELECT ts, AVG(v) AS m FROM t WHERE ts BETWEEN 0 AND 100 \
             GROUP BY ts ORDER BY ts ASC LIMIT 10",
        )
        .unwrap();
        let s = &q.selects[0];
        assert!(s.where_clause.is_some());
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].ascending);
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn union_all_of_selects() {
        let q =
            parse_query("SELECT a FROM t UNION ALL SELECT a FROM u UNION SELECT a FROM w").unwrap();
        assert_eq!(q.selects.len(), 3);
    }

    #[test]
    fn joins_parse() {
        let q = parse_query(
            "SELECT * FROM a FULL OUTER JOIN b ON a.ts = b.ts LEFT JOIN c ON a.ts = c.ts \
             JOIN d ON a.ts = d.ts",
        )
        .unwrap();
        let joins = &q.selects[0].joins;
        assert_eq!(joins.len(), 3);
        assert_eq!(joins[0].kind, JoinKind::FullOuter);
        assert_eq!(joins[1].kind, JoinKind::Left);
        assert_eq!(joins[2].kind, JoinKind::Inner);
    }

    #[test]
    fn subquery_in_from() {
        let q = parse_query("SELECT x FROM (SELECT a AS x FROM t) sub").unwrap();
        match &q.selects[0].from {
            Some(TableRef::Subquery { alias: Some(a), .. }) => assert_eq!(a, "sub"),
            other => panic!("expected subquery, got {other:?}"),
        }
    }

    #[test]
    fn map_and_list_indexing() {
        let q = parse_query("SELECT tag['host'], SPLIT(h, '-')[0] FROM tsdb").unwrap();
        let items = &q.selects[0].items;
        assert!(matches!(items[0], SelectItem::Expr { expr: Expr::Index { .. }, .. }));
        assert!(matches!(items[1], SelectItem::Expr { expr: Expr::Index { .. }, .. }));
    }

    #[test]
    fn precedence_and_parens() {
        let q = parse_query("SELECT 1 + 2 * 3").unwrap();
        match &q.selects[0].items[0] {
            SelectItem::Expr { expr: Expr::Binary { op: BinaryOp::Add, right, .. }, .. } => {
                assert!(matches!(**right, Expr::Binary { op: BinaryOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        let q2 = parse_query("SELECT (1 + 2) * 3").unwrap();
        match &q2.selects[0].items[0] {
            SelectItem::Expr { expr: Expr::Binary { op: BinaryOp::Mul, left, .. }, .. } => {
                assert!(matches!(**left, Expr::Binary { op: BinaryOp::Add, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn i64_min_is_a_literal_only_under_a_unary_minus() {
        let item = |sql: &str| match parse_query(sql).unwrap().selects.remove(0).items.remove(0) {
            SelectItem::Expr { expr, .. } => expr,
            other => panic!("unexpected {other:?}"),
        };
        let min = Expr::Literal(Value::Int(i64::MIN));
        assert_eq!(item("SELECT -9223372036854775808"), min);
        assert!(matches!(
            item("SELECT 5 - -9223372036854775808"),
            Expr::Binary { op: BinaryOp::Sub, right, .. } if *right == min
        ));
        for sql in [
            "SELECT 9223372036854775808",
            "SELECT 5 - 9223372036854775808",
            "SELECT 1 LIMIT 9223372036854775808",
            "EXPLAIN FOR t TOP 9223372036854775808",
            "CREATE FAMILY f WITH (k = 9223372036854775808) AS SELECT 1",
        ] {
            let err = parse_statement(sql).unwrap_err().to_string();
            assert!(err.contains("out of range (at byte "), "{sql}: {err}");
        }
        assert!(matches!(parse_query("SELECT 9223372036854775809"), Err(QueryError::Lex { .. })));
    }

    #[test]
    fn boolean_precedence() {
        // a OR b AND c == a OR (b AND c)
        let q = parse_query("SELECT * FROM t WHERE a OR b AND c").unwrap();
        match q.selects[0].where_clause.as_ref().unwrap() {
            Expr::Binary { op: BinaryOp::Or, right, .. } => {
                assert!(matches!(**right, Expr::Binary { op: BinaryOp::And, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn in_between_null_like() {
        let q = parse_query(
            "SELECT * FROM t WHERE a IN ('x', 'y') AND b NOT IN (1) AND \
             c BETWEEN 1 AND 2 AND d IS NOT NULL AND e LIKE 'web%' AND f NOT LIKE '_x'",
        )
        .unwrap();
        assert!(q.selects[0].where_clause.is_some());
    }

    #[test]
    fn case_expression() {
        let q = parse_query("SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t").unwrap();
        assert!(matches!(q.selects[0].items[0], SelectItem::Expr { expr: Expr::Case { .. }, .. }));
    }

    #[test]
    fn count_star() {
        let q = parse_query("SELECT COUNT(*) FROM t").unwrap();
        match &q.selects[0].items[0] {
            SelectItem::Expr { expr: Expr::Function { name, args }, .. } => {
                assert_eq!(name, "COUNT");
                assert_eq!(args.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explain_prefix_sets_flag() {
        let q = parse_query("EXPLAIN SELECT a FROM t").unwrap();
        assert!(q.explain);
        let q = parse_query("SELECT a FROM t").unwrap();
        assert!(!q.explain);
        // EXPLAIN must prefix a whole query, not appear mid-stream.
        assert!(parse_query("SELECT a FROM t EXPLAIN").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_query("SELECT a FROM t extra garbage !").is_err());
        assert!(parse_query("SELECT").is_err());
        assert!(parse_query("FROM t").is_err());
    }

    #[test]
    fn qualified_columns() {
        let q = parse_query("SELECT t.a, u.b FROM t JOIN u ON t.k = u.k").unwrap();
        match &q.selects[0].items[0] {
            SelectItem::Expr { expr: Expr::Column(c), .. } => assert_eq!(c, "t.a"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paper_appendix_c_target_query_parses() {
        let sql = "SELECT timestamp, tag['pipeline_name'], AVG(value) as runtime_sec \
                   FROM tsdb WHERE metric_name = 'pipeline_runtime' \
                   AND timestamp BETWEEN 0 AND 86400 \
                   GROUP BY timestamp, tag['pipeline_name'] ORDER BY timestamp ASC";
        let q = parse_query(sql).unwrap();
        assert_eq!(q.selects[0].group_by.len(), 2);
    }

    #[test]
    fn create_family_with_options() {
        let s = parse_statement(
            "CREATE FAMILY disk WITH (layout = 'long', ts = 'timestamp', family = metric_name) \
             AS SELECT timestamp, metric_name, tag, value FROM tsdb",
        )
        .unwrap();
        match s {
            Statement::CreateFamily(cf) => {
                assert_eq!(cf.name, "disk");
                assert_eq!(cf.options.len(), 3);
                assert_eq!(cf.options[0], ("layout".to_string(), Value::str("long")));
                // Bare identifiers are accepted as option values.
                assert_eq!(cf.options[2], ("family".to_string(), Value::str("metric_name")));
                assert_eq!(cf.query.selects.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn create_family_without_options() {
        let s = parse_statement(
            "CREATE FAMILY runtime AS SELECT timestamp, AVG(value) v FROM tsdb GROUP BY timestamp",
        )
        .unwrap();
        assert!(matches!(s, Statement::CreateFamily(cf) if cf.options.is_empty()));
    }

    #[test]
    fn explain_for_full_clause_stack() {
        let s = parse_statement(
            "EXPLAIN FOR pipeline_runtime GIVEN load, 'disk{host=a}' USING SCORER l2 TOP 5",
        )
        .unwrap();
        match s {
            Statement::ExplainFor(e) => {
                assert_eq!(e.target, "pipeline_runtime");
                assert_eq!(e.given, vec!["load", "disk{host=a}"]);
                assert_eq!(e.scorer.as_deref(), Some("l2"));
                assert_eq!(e.top, Some(5));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explain_for_minimal() {
        let s = parse_statement("EXPLAIN FOR runtime").unwrap();
        match s {
            Statement::ExplainFor(e) => {
                assert!(e.given.is_empty() && e.scorer.is_none() && e.top.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_statement("EXPLAIN FOR runtime TOP 0").is_err());
    }

    #[test]
    fn explain_create_family_sets_the_statement_flag() {
        let sql = "CREATE FAMILY m WITH (layout = 'long') AS SELECT timestamp, value FROM tsdb";
        let plain = parse_statement(sql).unwrap();
        assert!(matches!(&plain, Statement::CreateFamily(cf) if !cf.explain));
        let explained = parse_statement(&format!("EXPLAIN {sql}")).unwrap();
        match (plain, explained) {
            (Statement::CreateFamily(a), Statement::CreateFamily(b)) => {
                assert!(b.explain);
                assert_eq!((a.name, a.options), (b.name, b.options));
                assert_eq!(a.query.selects.len(), b.query.selects.len());
            }
            other => panic!("unexpected {other:?}"),
        }
        // `create` stays an identifier wherever a query can hold one.
        assert!(parse_statement("EXPLAIN SELECT create FROM family").is_ok());
        assert!(parse_statement("EXPLAIN CREATE TABLE t").is_err());
    }

    #[test]
    fn explain_for_and_explain_query_coexist() {
        // A leading EXPLAIN still marks an ordinary query for plan dumping;
        // only the FOR lookahead selects the ranking statement.
        let s = parse_statement("EXPLAIN SELECT a FROM t").unwrap();
        assert!(matches!(s, Statement::Query(q) if q.explain));
        let s = parse_statement("EXPLAIN FOR t").unwrap();
        assert!(matches!(s, Statement::ExplainFor(_)));
    }

    #[test]
    fn show_and_drop_statements() {
        assert_eq!(parse_statement("SHOW FAMILIES").unwrap(), Statement::ShowFamilies);
        assert_eq!(parse_statement("show tables;").unwrap(), Statement::ShowTables);
        assert!(matches!(
            parse_statement("DROP FAMILY 'disk io'").unwrap(),
            Statement::DropFamily { name } if name == "disk io"
        ));
    }

    #[test]
    fn script_splits_on_semicolons() {
        let script = parse_script(
            "CREATE FAMILY f AS SELECT ts, v FROM t;;\n\
             -- a comment between statements\n\
             EXPLAIN FOR f TOP 3;\n\
             SELECT * FROM ranking;",
        )
        .unwrap();
        assert_eq!(script.len(), 3);
        assert!(matches!(script[0], Statement::CreateFamily(_)));
        assert!(matches!(script[1], Statement::ExplainFor(_)));
        assert!(matches!(script[2], Statement::Query(_)));
        assert!(parse_script("  ;; ;").unwrap().is_empty());
    }

    #[test]
    fn script_errors_name_the_statement() {
        let err = parse_script("SELECT 1; SELECT; SELECT 2").unwrap_err();
        assert!(err.to_string().contains("statement 2"), "got: {err}");
        // Missing separator between statements is rejected, not ignored.
        let err = parse_script("SELECT 1 SELECT 2").unwrap_err();
        assert!(err.to_string().contains("';'"), "got: {err}");
        // parse_statement rejects multi-statement input.
        assert!(parse_statement("SELECT 1; SELECT 2").is_err());
        assert!(parse_statement("   ;  ").is_err());
    }

    #[test]
    fn statement_keywords_stay_plain_identifiers_in_queries() {
        // Every new keyword works as a table name, column name or alias —
        // they are recognised positionally, never reserved.
        let q = parse_query(
            "SELECT family, top, given scorer, tables FROM create \
             JOIN drop ON create.family = drop.family WHERE show = 1",
        )
        .unwrap();
        assert_eq!(q.selects[0].items.len(), 4);
        match &q.selects[0].items[2] {
            SelectItem::Expr { alias: Some(a), .. } => assert_eq!(a, "scorer"),
            other => panic!("unexpected {other:?}"),
        }
        // ... and in scripts too.
        let script = parse_script("SELECT top FROM families; SELECT scorer FROM for").unwrap();
        assert_eq!(script.len(), 2);
        // `SELECT create` (no FROM) round-trips as a bare column reference.
        let s = parse_statement("SELECT create").unwrap();
        match s {
            Statement::Query(q) => {
                assert!(matches!(&q.selects[0].items[0],
                    SelectItem::Expr { expr: Expr::Column(c), .. } if c == "create"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paper_appendix_c_process_query_parses() {
        let sql = "SELECT timestamp, CONCAT(service_name, SPLIT(hostname, '-')[0]), \
                   AVG(stime + utime) as cpu, AVG(statm_resident) as mem, \
                   AVG(GREATEST(write_b - cancelled_write_b, 0)) \
                   FROM processes \
                   WHERE SPLIT(hostname, '-')[0] IN ('web', 'app', 'db', 'pipeline') \
                   AND timestamp BETWEEN 0 AND 86400 \
                   GROUP BY timestamp, CONCAT(service_name, SPLIT(hostname, '-')[0]) \
                   ORDER BY timestamp ASC";
        assert!(parse_query(sql).is_ok());
    }
}
