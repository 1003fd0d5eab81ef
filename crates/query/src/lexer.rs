//! SQL tokenizer.

use crate::{QueryError, Result};

/// A lexical token. Keywords are uppercased identifiers matched at parse
/// time, so `select` and `SELECT` are both `Ident("SELECT")`.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (normalised to uppercase for keywords; original
    /// case preserved in the payload for identifiers — comparison helpers on
    /// the parser side handle case-insensitivity).
    Ident(String),
    /// Single-quoted string literal (escaped quotes via doubling).
    StringLit(String),
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;` — statement separator in scripts.
    Semicolon,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `!=` or `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl Token {
    /// True when this token is the given keyword (case-insensitive).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenizes a SQL string, pairing every token with the byte offset it
/// starts at. The offsets survive parsing (see `SelectSpans`) so semantic
/// errors can point back into the source text.
pub fn tokenize_spanned(input: &str) -> Result<Vec<(Token, usize)>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let c = bytes[i] as char;
        let tok = match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
                continue;
            }
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            '(' => {
                i += 1;
                Token::LParen
            }
            ')' => {
                i += 1;
                Token::RParen
            }
            '[' => {
                i += 1;
                Token::LBracket
            }
            ']' => {
                i += 1;
                Token::RBracket
            }
            ',' => {
                i += 1;
                Token::Comma
            }
            ';' => {
                i += 1;
                Token::Semicolon
            }
            '.' => {
                i += 1;
                Token::Dot
            }
            '*' => {
                i += 1;
                Token::Star
            }
            '+' => {
                i += 1;
                Token::Plus
            }
            '-' => {
                i += 1;
                Token::Minus
            }
            '/' => {
                i += 1;
                Token::Slash
            }
            '%' => {
                i += 1;
                Token::Percent
            }
            '=' => {
                i += 1;
                Token::Eq
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    i += 2;
                    Token::NotEq
                } else {
                    return Err(QueryError::Lex {
                        position: i,
                        message: "expected '=' after '!'".into(),
                    });
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    i += 2;
                    Token::LtEq
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    i += 2;
                    Token::NotEq
                } else {
                    i += 1;
                    Token::Lt
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    i += 2;
                    Token::GtEq
                } else {
                    i += 1;
                    Token::Gt
                }
            }
            '\'' => {
                // String literal; '' escapes a quote.
                let mut s = String::new();
                let mut j = i + 1;
                loop {
                    if j >= bytes.len() {
                        return Err(QueryError::Lex {
                            position: i,
                            message: "unterminated string literal".into(),
                        });
                    }
                    if bytes[j] == b'\'' {
                        if j + 1 < bytes.len() && bytes[j + 1] == b'\'' {
                            s.push('\'');
                            j += 2;
                        } else {
                            j += 1;
                            break;
                        }
                    } else {
                        s.push(bytes[j] as char);
                        j += 1;
                    }
                }
                i = j;
                Token::StringLit(s)
            }
            '0'..='9' => {
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                // Scientific notation.
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j].is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &input[start..i];
                if is_float {
                    let v = text.parse::<f64>().map_err(|e| QueryError::Lex {
                        position: start,
                        message: format!("bad float literal {text}: {e}"),
                    })?;
                    Token::FloatLit(v)
                } else {
                    let v = match text.parse::<i64>() {
                        Ok(v) => v,
                        // The magnitude of `i64::MIN`: the parser accepts
                        // it directly under a unary minus and nowhere else.
                        Err(_) if text.parse::<u64>() == Ok(i64::MIN.unsigned_abs()) => i64::MIN,
                        Err(e) => {
                            return Err(QueryError::Lex {
                                position: start,
                                message: format!("bad int literal {text}: {e}"),
                            })
                        }
                    };
                    Token::IntLit(v)
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                Token::Ident(input[start..i].to_string())
            }
            other => {
                return Err(QueryError::Lex {
                    position: i,
                    message: format!("unexpected character {other:?}"),
                });
            }
        };
        tokens.push((tok, start));
    }
    Ok(tokens)
}

/// Tokenizes a SQL string (positions discarded).
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    Ok(tokenize_spanned(input)?.into_iter().map(|(t, _)| t).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_select_tokens() {
        let t = tokenize("SELECT a, b FROM t WHERE x >= 1.5").unwrap();
        assert_eq!(t[0], Token::Ident("SELECT".into()));
        assert!(t.contains(&Token::Comma));
        assert!(t.contains(&Token::GtEq));
        assert!(t.contains(&Token::FloatLit(1.5)));
    }

    #[test]
    fn string_literal_with_escape() {
        let t = tokenize("'it''s'").unwrap();
        assert_eq!(t, vec![Token::StringLit("it's".into())]);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(matches!(tokenize("'abc"), Err(QueryError::Lex { .. })));
    }

    #[test]
    fn comparison_operators() {
        let t = tokenize("a != b <> c <= d >= e < f > g = h").unwrap();
        let ops: Vec<&Token> = t
            .iter()
            .filter(|t| {
                matches!(
                    t,
                    Token::NotEq | Token::LtEq | Token::GtEq | Token::Lt | Token::Gt | Token::Eq
                )
            })
            .collect();
        assert_eq!(ops.len(), 7);
        assert_eq!(*ops[0], Token::NotEq);
        assert_eq!(*ops[1], Token::NotEq);
    }

    #[test]
    fn map_access_tokens() {
        let t = tokenize("tag['host']").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Ident("tag".into()),
                Token::LBracket,
                Token::StringLit("host".into()),
                Token::RBracket
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let t = tokenize("SELECT a -- trailing comment\nFROM t").unwrap();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn scientific_notation() {
        let t = tokenize("1e3 2.5e-2").unwrap();
        assert_eq!(t, vec![Token::FloatLit(1000.0), Token::FloatLit(0.025)]);
    }

    #[test]
    fn negative_numbers_are_minus_then_literal() {
        let t = tokenize("-5").unwrap();
        assert_eq!(t, vec![Token::Minus, Token::IntLit(5)]);
    }

    #[test]
    fn bad_character_errors() {
        assert!(matches!(tokenize("a @ b"), Err(QueryError::Lex { .. })));
    }

    #[test]
    fn semicolon_is_a_token() {
        let t = tokenize("SELECT 1; SELECT 2").unwrap();
        assert_eq!(t[2], Token::Semicolon);
    }

    #[test]
    fn keyword_detection_helper() {
        let t = tokenize("select").unwrap();
        assert!(t[0].is_kw("SELECT"));
        assert!(t[0].is_kw("select"));
        assert!(!t[0].is_kw("FROM"));
    }

    #[test]
    fn spans_are_byte_offsets() {
        let t = tokenize_spanned("SELECT a, 'x' FROM t -- c\nWHERE a >= 1.5").unwrap();
        let offsets: Vec<usize> = t.iter().map(|&(_, p)| p).collect();
        assert_eq!(offsets, vec![0, 7, 8, 10, 14, 19, 26, 32, 34, 37]);
        assert_eq!(t[3].0, Token::StringLit("x".into()));
        assert_eq!(t[8].0, Token::GtEq);
    }

    #[test]
    fn explain_prefix_tokenizes_as_keyword() {
        let t = tokenize("EXPLAIN SELECT 1").unwrap();
        assert!(t[0].is_kw("EXPLAIN"));
        let t = tokenize("explain select 1").unwrap();
        assert!(t[0].is_kw("EXPLAIN"));
    }
}
