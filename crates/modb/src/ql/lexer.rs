//! Lexer for the MOD query language.
//!
//! §4 of the paper sketches SQL-style statements such as
//!
//! ```sql
//! SELECT T FROM MOD
//! WHERE EXISTS Time IN [t1,t2]
//! AND ProbabilityNN(T, TrQ, Time) > 0
//! ```
//!
//! This lexer tokenizes that surface syntax (keywords are
//! case-insensitive; identifiers like `Tr5` are case-sensitive).

use std::fmt;

/// A token with its source position (byte offset).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind/value.
    pub kind: TokenKind,
    /// Byte offset in the source string (for error messages).
    pub pos: usize,
}

/// Token kinds of the query language.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    // keywords
    /// `SELECT`
    Select,
    /// `FROM`
    From,
    /// `MOD`
    Mod,
    /// `WHERE`
    Where,
    /// `EXISTS`
    Exists,
    /// `FORALL`
    Forall,
    /// `ATLEAST`
    AtLeast,
    /// `AT`
    At,
    /// `OF`
    Of,
    /// `TIME`
    Time,
    /// `IN`
    In,
    /// `AND`
    And,
    /// `RANK`
    Rank,
    /// `PROB_NN` / `PROBABILITYNN`
    ProbNn,
    /// `PROB_RNN` / `PROBABILITYRNN` (reverse NN — the §7 extension)
    ProbRnn,
    /// `REGISTER` (standing-query registration)
    Register,
    /// `CONTINUOUS`
    Continuous,
    /// `AS`
    As,
    /// `UNREGISTER`
    Unregister,
    /// `SHOW`
    Show,
    /// `SUBSCRIPTIONS`
    Subscriptions,
    /// `WATCH` (attach to an existing standing query by name)
    Watch,
    /// `METRICS` (telemetry exposition)
    Metrics,
    /// `TRACE` (epoch-scoped pipeline trace)
    Trace,
    /// `EPOCH`
    Epoch,
    /// `PREFIX`
    Prefix,
    // literals / identifiers
    /// A numeric literal.
    Number(f64),
    /// An identifier (e.g. `Tr5`).
    Ident(String),
    // symbols
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
    /// `>`
    Greater,
    /// `>=`
    GreaterEq,
    /// `=`
    Equals,
    /// `*`
    Star,
    /// `%`
    Percent,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Select => write!(f, "SELECT"),
            TokenKind::From => write!(f, "FROM"),
            TokenKind::Mod => write!(f, "MOD"),
            TokenKind::Where => write!(f, "WHERE"),
            TokenKind::Exists => write!(f, "EXISTS"),
            TokenKind::Forall => write!(f, "FORALL"),
            TokenKind::AtLeast => write!(f, "ATLEAST"),
            TokenKind::At => write!(f, "AT"),
            TokenKind::Of => write!(f, "OF"),
            TokenKind::Time => write!(f, "TIME"),
            TokenKind::In => write!(f, "IN"),
            TokenKind::And => write!(f, "AND"),
            TokenKind::Rank => write!(f, "RANK"),
            TokenKind::ProbNn => write!(f, "PROB_NN"),
            TokenKind::ProbRnn => write!(f, "PROB_RNN"),
            TokenKind::Register => write!(f, "REGISTER"),
            TokenKind::Continuous => write!(f, "CONTINUOUS"),
            TokenKind::As => write!(f, "AS"),
            TokenKind::Unregister => write!(f, "UNREGISTER"),
            TokenKind::Show => write!(f, "SHOW"),
            TokenKind::Subscriptions => write!(f, "SUBSCRIPTIONS"),
            TokenKind::Watch => write!(f, "WATCH"),
            TokenKind::Metrics => write!(f, "METRICS"),
            TokenKind::Trace => write!(f, "TRACE"),
            TokenKind::Epoch => write!(f, "EPOCH"),
            TokenKind::Prefix => write!(f, "PREFIX"),
            TokenKind::Number(n) => write!(f, "{n}"),
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::LBracket => write!(f, "["),
            TokenKind::RBracket => write!(f, "]"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Greater => write!(f, ">"),
            TokenKind::GreaterEq => write!(f, ">="),
            TokenKind::Equals => write!(f, "="),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Percent => write!(f, "%"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// Lexer error: an unexpected character or malformed number.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the source.
    pub pos: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// The keywords, matched without regard to ASCII case.
static KEYWORDS: [(&str, TokenKind); 28] = [
    ("SELECT", TokenKind::Select),
    ("FROM", TokenKind::From),
    ("MOD", TokenKind::Mod),
    ("WHERE", TokenKind::Where),
    ("EXISTS", TokenKind::Exists),
    ("FORALL", TokenKind::Forall),
    ("ATLEAST", TokenKind::AtLeast),
    ("AT", TokenKind::At),
    ("OF", TokenKind::Of),
    ("TIME", TokenKind::Time),
    ("IN", TokenKind::In),
    ("AND", TokenKind::And),
    ("RANK", TokenKind::Rank),
    ("PROB_NN", TokenKind::ProbNn),
    ("PROBABILITYNN", TokenKind::ProbNn),
    ("PROB_RNN", TokenKind::ProbRnn),
    ("PROBABILITYRNN", TokenKind::ProbRnn),
    ("REGISTER", TokenKind::Register),
    ("CONTINUOUS", TokenKind::Continuous),
    ("AS", TokenKind::As),
    ("UNREGISTER", TokenKind::Unregister),
    ("SHOW", TokenKind::Show),
    ("SUBSCRIPTIONS", TokenKind::Subscriptions),
    ("WATCH", TokenKind::Watch),
    ("METRICS", TokenKind::Metrics),
    ("TRACE", TokenKind::Trace),
    ("EPOCH", TokenKind::Epoch),
    ("PREFIX", TokenKind::Prefix),
];

/// Tokenizes a query string.
pub fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        let pos = i;
        let kind = match c {
            '(' => {
                i += 1;
                TokenKind::LParen
            }
            ')' => {
                i += 1;
                TokenKind::RParen
            }
            '[' => {
                i += 1;
                TokenKind::LBracket
            }
            ']' => {
                i += 1;
                TokenKind::RBracket
            }
            ',' => {
                i += 1;
                TokenKind::Comma
            }
            '*' => {
                i += 1;
                TokenKind::Star
            }
            '%' => {
                i += 1;
                TokenKind::Percent
            }
            '=' => {
                i += 1;
                TokenKind::Equals
            }
            '>' => {
                i += 1;
                if i < bytes.len() && bytes[i] as char == '=' {
                    i += 1;
                    TokenKind::GreaterEq
                } else {
                    TokenKind::Greater
                }
            }
            c if c.is_ascii_digit() || c == '.' || c == '-' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_digit()
                        || d == '.'
                        || d == 'e'
                        || d == 'E'
                        || d == '+'
                        || (d == '-' && matches!(bytes[i - 1] as char, 'e' | 'E'))
                    {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text = &src[start..i];
                let n: f64 = text.parse().map_err(|_| LexError {
                    message: format!("malformed number '{text}'"),
                    pos: start,
                })?;
                TokenKind::Number(n)
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_alphanumeric() || d == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text = &src[start..i];
                KEYWORDS
                    .iter()
                    .find(|(keyword, _)| keyword.eq_ignore_ascii_case(text))
                    .map_or_else(
                        || TokenKind::Ident(text.to_string()),
                        |(_, kind)| kind.clone(),
                    )
            }
            other => {
                return Err(LexError {
                    message: format!("unexpected character '{other}'"),
                    pos,
                })
            }
        };
        out.push(Token { kind, pos });
    }
    out.push(Token {
        kind: TokenKind::Eof,
        pos: bytes.len(),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            kinds("select FROM Mod wHeRe"),
            vec![
                TokenKind::Select,
                TokenKind::From,
                TokenKind::Mod,
                TokenKind::Where,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn full_statement_tokenizes() {
        let toks = kinds(
            "SELECT Tr3 FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(Tr3, Tr0, TIME) > 0",
        );
        assert!(toks.contains(&TokenKind::Ident("Tr3".into())));
        assert!(toks.contains(&TokenKind::ProbNn));
        assert!(toks.contains(&TokenKind::Number(60.0)));
        assert!(toks.contains(&TokenKind::Greater));
        assert_eq!(*toks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn probabilitynn_alias() {
        assert_eq!(kinds("ProbabilityNN")[0], TokenKind::ProbNn);
    }

    #[test]
    fn numbers_including_decimals_and_negatives() {
        assert_eq!(
            kinds("0.5 -3 1e-2"),
            vec![
                TokenKind::Number(0.5),
                TokenKind::Number(-3.0),
                TokenKind::Number(0.01),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn symbols_and_geq() {
        assert_eq!(
            kinds(">= > = * % ( ) [ ] ,"),
            vec![
                TokenKind::GreaterEq,
                TokenKind::Greater,
                TokenKind::Equals,
                TokenKind::Star,
                TokenKind::Percent,
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::LBracket,
                TokenKind::RBracket,
                TokenKind::Comma,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn rejects_garbage() {
        let err = tokenize("SELECT ? FROM").unwrap_err();
        assert!(err.message.contains("unexpected character"));
        assert_eq!(err.pos, 7);
    }
}
