use std::fmt;

/// Errors produced while lexing, parsing, planning or executing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Lexer rejected the input.
    Lex {
        /// Byte offset of the offending character.
        position: usize,
        /// Explanation.
        message: String,
    },
    /// Parser rejected the token stream.
    Parse(String),
    /// A referenced table does not exist.
    UnknownTable(String),
    /// A referenced column does not exist (includes candidates when
    /// ambiguous).
    UnknownColumn(String),
    /// A function name is not recognised or was called with a bad arity.
    BadFunction(String),
    /// A type error (e.g. adding a string to a map). The static checker
    /// ([`crate::types`]) reports these at plan time with an `at byte N`
    /// source position in the message; runtime detection remains for
    /// value-dependent cases the checker cannot decide.
    Type(String),
    /// Structural error: mismatched UNION schemas, aggregates mixed wrongly,
    /// a violated optimizer invariant (see [`crate::optimize`]), etc.
    Plan(String),
    /// A `CREATE FAMILY` statement-level error (unknown option or layout, a
    /// stage-one result with no rows or too few columns). Displays as the
    /// bare message; the session layer reports it as its own statement error.
    Statement(String),
    /// The store could not be read while executing: a chunk's page failed
    /// to load, failed its checksum or did not decode. Carries the storage
    /// error's message; the statement returns no result.
    Storage(String),
}

impl QueryError {
    /// Tags the error's message with a source byte offset (`at byte N`),
    /// used by the plan-time checker to point diagnostics into the SQL
    /// text. `Lex` already carries a position and passes through untouched.
    pub(crate) fn at_byte(self, position: usize) -> QueryError {
        let tag = |m: String| format!("{m} (at byte {position})");
        match self {
            QueryError::Lex { .. } => self,
            QueryError::Parse(m) => QueryError::Parse(tag(m)),
            QueryError::UnknownTable(t) => QueryError::UnknownTable(tag(t)),
            QueryError::UnknownColumn(c) => QueryError::UnknownColumn(tag(c)),
            QueryError::BadFunction(m) => QueryError::BadFunction(tag(m)),
            QueryError::Type(m) => QueryError::Type(tag(m)),
            QueryError::Plan(m) => QueryError::Plan(tag(m)),
            QueryError::Statement(m) => QueryError::Statement(tag(m)),
            QueryError::Storage(m) => QueryError::Storage(tag(m)),
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Lex { position, message } => {
                write!(f, "lex error at byte {position}: {message}")
            }
            QueryError::Parse(m) => write!(f, "parse error: {m}"),
            QueryError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            QueryError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            QueryError::BadFunction(m) => write!(f, "bad function: {m}"),
            QueryError::Type(m) => write!(f, "type error: {m}"),
            QueryError::Plan(m) => write!(f, "plan error: {m}"),
            QueryError::Statement(m) => write!(f, "{m}"),
            QueryError::Storage(m) => write!(f, "storage error: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}
