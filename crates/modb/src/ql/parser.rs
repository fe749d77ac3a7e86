//! Recursive-descent parser for the MOD query language.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! statement  := query
//!             | REGISTER CONTINUOUS query AS IDENT
//!             | UNREGISTER IDENT
//!             | SHOW SUBSCRIPTIONS
//! query      := SELECT target FROM MOD WHERE quant AND prob
//! target     := '*' | IDENT
//! quant      := EXISTS  TIME IN interval
//!             | FORALL  TIME IN interval
//!             | ATLEAST number ['%'] OF TIME IN interval
//!             | AT number TIME IN interval
//! interval   := '[' number ',' number ']'
//! prob       := PROB_NN  '(' target ',' IDENT ',' TIME [',' RANK number] ')' cmp
//!             | PROB_RNN '(' target ',' IDENT ',' TIME ')' cmp
//! cmp        := '>' number          -- number in [0, 1); 0 = the §4
//!                                   -- non-zero-probability semantics,
//!                                   -- positive = §7 threshold queries
//! ```
//!
//! `PROB_RNN` is the reverse-NN predicate of the §7 extensions: "`target`
//! has `query` as a possible nearest neighbor". It takes no RANK bound.
//! `REGISTER CONTINUOUS` installs the query as a *standing* query whose
//! answer the server maintains incrementally (see
//! [`crate::subscription`]).
//!
//! Errors carry a [`SourceSpan`] — byte offset plus 1-based line/column —
//! so the CLI and server can point at the offending token
//! ([`ParseError::render`] draws the caret).

use super::ast::{PredicateKind, Quantifier, Query, QuerySpans, Statement, Target};
use super::lexer::{tokenize, LexError, Token, TokenKind};
use std::fmt;

/// A position in the query source: byte offset plus 1-based line and
/// column (computed at the parse entry points; `line == 0` means the
/// error has not been located against its source yet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SourceSpan {
    /// Byte offset in the source.
    pub offset: usize,
    /// 1-based line number (0 = unlocated).
    pub line: u32,
    /// 1-based column number in characters (0 = unlocated).
    pub col: u32,
}

impl SourceSpan {
    /// A span knowing only its byte offset.
    pub fn at(offset: usize) -> Self {
        SourceSpan {
            offset,
            line: 0,
            col: 0,
        }
    }

    /// The two-line caret rendering shared by every error that points
    /// at a statement token: the offending source line, then a `^`
    /// under the column. The span is located against `src` first, so
    /// offset-only spans render correctly.
    pub fn render_caret(&self, src: &str) -> String {
        let located = if self.line == 0 {
            SourceSpan::locate(src, self.offset)
        } else {
            *self
        };
        let line_src = src
            .lines()
            .nth(located.line.saturating_sub(1) as usize)
            .unwrap_or("");
        let caret_pad = " ".repeat(located.col.saturating_sub(1) as usize);
        format!("  {line_src}\n  {caret_pad}^")
    }

    /// Locates `offset` within `src`, filling line and column.
    pub fn locate(src: &str, offset: usize) -> Self {
        let offset = offset.min(src.len());
        let upto = &src[..offset];
        let line = upto.matches('\n').count() as u32 + 1;
        let col = upto
            .rsplit_once('\n')
            .map(|(_, tail)| tail)
            .unwrap_or(upto)
            .chars()
            .count() as u32
            + 1;
        SourceSpan { offset, line, col }
    }
}

/// Parse error with source-span information.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Where in the source the offending token sits.
    pub span: SourceSpan,
}

impl ParseError {
    fn at(message: String, offset: usize) -> Self {
        ParseError {
            message,
            span: SourceSpan::at(offset),
        }
    }

    /// The byte offset of the offending token.
    pub fn pos(&self) -> usize {
        self.span.offset
    }

    fn located(mut self, src: &str) -> Self {
        self.span = SourceSpan::locate(src, self.span.offset);
        self
    }

    /// Renders the error with the offending source line and a caret
    /// pointing at the token:
    ///
    /// ```text
    /// parse error at line 1, column 8: expected '*' or an identifier, found ,
    ///   SELECT , FROM MOD ...
    ///          ^
    /// ```
    pub fn render(&self, src: &str) -> String {
        format!("{self}\n{}", self.span.render_caret(src))
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.span.line > 0 {
            write!(
                f,
                "parse error at line {}, column {}: {}",
                self.span.line, self.span.col, self.message
            )
        } else {
            write!(
                f,
                "parse error at byte {}: {}",
                self.span.offset, self.message
            )
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::at(e.message, e.pos)
    }
}

struct Parser {
    tokens: Vec<Token>,
    idx: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.idx.min(self.tokens.len() - 1)]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.idx.min(self.tokens.len() - 1)].clone();
        self.idx += 1;
        t
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        let t = self.advance();
        if std::mem::discriminant(&t.kind) == std::mem::discriminant(kind) {
            Ok(t)
        } else {
            Err(ParseError::at(
                format!("expected {kind}, found {}", t.kind),
                t.pos,
            ))
        }
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        let t = self.advance();
        match t.kind {
            TokenKind::Number(n) => Ok(n),
            other => Err(ParseError::at(
                format!("expected a number, found {other}"),
                t.pos,
            )),
        }
    }

    fn target(&mut self) -> Result<Target, ParseError> {
        let t = self.advance();
        match t.kind {
            TokenKind::Star => Ok(Target::All),
            TokenKind::Ident(s) => Ok(Target::One(s)),
            other => Err(ParseError::at(
                format!("expected '*' or an identifier, found {other}"),
                t.pos,
            )),
        }
    }

    fn interval(&mut self) -> Result<(f64, f64), ParseError> {
        self.expect(&TokenKind::LBracket)?;
        let a = self.number()?;
        self.expect(&TokenKind::Comma)?;
        let b = self.number()?;
        let closing = self.expect(&TokenKind::RBracket)?;
        if !(a.is_finite() && b.is_finite() && a < b) {
            return Err(ParseError::at(
                format!("invalid window [{a}, {b}]"),
                closing.pos,
            ));
        }
        Ok((a, b))
    }

    fn quantifier(&mut self) -> Result<(Quantifier, (f64, f64)), ParseError> {
        let t = self.advance();
        let quant = match t.kind {
            TokenKind::Exists => Quantifier::Exists,
            TokenKind::Forall => Quantifier::Forall,
            TokenKind::AtLeast => {
                let n = self.number()?;
                // Optional '%' turns 50 into 0.5.
                let frac = if self.peek().kind == TokenKind::Percent {
                    self.advance();
                    n / 100.0
                } else {
                    n
                };
                if !(0.0..=1.0).contains(&frac) {
                    return Err(ParseError::at(
                        format!("fraction {frac} outside [0, 1]"),
                        t.pos,
                    ));
                }
                self.expect(&TokenKind::Of)?;
                Quantifier::AtLeast(frac)
            }
            TokenKind::At => Quantifier::At(self.number()?),
            other => {
                return Err(ParseError::at(
                    format!("expected EXISTS, FORALL, ATLEAST or AT, found {other}"),
                    t.pos,
                ))
            }
        };
        self.expect(&TokenKind::Time)?;
        self.expect(&TokenKind::In)?;
        let window = self.interval()?;
        if let Quantifier::At(t_at) = quant {
            if t_at < window.0 || t_at > window.1 {
                return Err(ParseError::at(
                    format!(
                        "fixed time {t_at} outside window [{}, {}]",
                        window.0, window.1
                    ),
                    0,
                ));
            }
        }
        Ok((quant, window))
    }

    #[allow(clippy::type_complexity)]
    fn prob(
        &mut self,
    ) -> Result<
        (
            PredicateKind,
            Target,
            String,
            Option<usize>,
            f64,
            QuerySpans,
        ),
        ParseError,
    > {
        let mut spans = QuerySpans::default();
        let head = self.advance();
        spans.predicate = SourceSpan::at(head.pos);
        let predicate = match head.kind {
            TokenKind::ProbNn => PredicateKind::Nn,
            TokenKind::ProbRnn => PredicateKind::Rnn,
            other => {
                return Err(ParseError::at(
                    format!("expected PROB_NN or PROB_RNN, found {other}"),
                    head.pos,
                ))
            }
        };
        self.expect(&TokenKind::LParen)?;
        let target = self.target()?;
        self.expect(&TokenKind::Comma)?;
        let q = self.advance();
        let query_object = match q.kind {
            TokenKind::Ident(s) => s,
            other => {
                return Err(ParseError::at(
                    format!("expected the query trajectory name, found {other}"),
                    q.pos,
                ))
            }
        };
        self.expect(&TokenKind::Comma)?;
        self.expect(&TokenKind::Time)?;
        let mut rank = None;
        if self.peek().kind == TokenKind::Comma {
            self.advance();
            let rank_tok = self.expect(&TokenKind::Rank)?;
            spans.rank = SourceSpan::at(rank_tok.pos);
            if predicate == PredicateKind::Rnn {
                return Err(ParseError::at(
                    "PROB_RNN does not support RANK bounds".to_string(),
                    rank_tok.pos,
                ));
            }
            let t = self.advance();
            match t.kind {
                TokenKind::Number(n) if n >= 1.0 && n.fract() == 0.0 => rank = Some(n as usize),
                other => {
                    return Err(ParseError::at(
                        format!("RANK expects a positive integer, found {other}"),
                        t.pos,
                    ))
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::Greater)?;
        let cmp = self.advance();
        spans.threshold = SourceSpan::at(cmp.pos);
        let prob_threshold = match cmp.kind {
            TokenKind::Number(n) if (0.0..1.0).contains(&n) => n,
            other => {
                return Err(ParseError::at(
                    format!("probability comparisons need '> p' with p in [0, 1), found {other}"),
                    cmp.pos,
                ))
            }
        };
        Ok((predicate, target, query_object, rank, prob_threshold, spans))
    }
}

impl Parser {
    /// One `SELECT … AND <prob>` query, without consuming the trailing
    /// token (EOF for one-shot queries, `AS` for registrations).
    fn query(&mut self) -> Result<Query, ParseError> {
        self.expect(&TokenKind::Select)?;
        let target = self.target()?;
        self.expect(&TokenKind::From)?;
        self.expect(&TokenKind::Mod)?;
        self.expect(&TokenKind::Where)?;
        let (quantifier, window) = self.quantifier()?;
        self.expect(&TokenKind::And)?;
        let (predicate, prob_target, query_object, rank, prob_threshold, spans) = self.prob()?;
        let next = self.peek().clone();
        // Semantic check: the SELECT target and the predicate subject
        // must agree.
        if target != prob_target {
            return Err(ParseError::at(
                format!("SELECT target {target} does not match predicate subject {prob_target}"),
                next.pos,
            ));
        }
        if let Target::One(name) = &target {
            if *name == query_object {
                return Err(ParseError::at(
                    format!("target {name} cannot be its own query object"),
                    next.pos,
                ));
            }
        }
        Ok(Query {
            target,
            quantifier,
            window,
            query_object,
            predicate,
            rank,
            prob_threshold,
            spans,
        })
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        let t = self.advance();
        match t.kind {
            TokenKind::Ident(s) => Ok(s),
            other => Err(ParseError::at(
                format!("expected an identifier, found {other}"),
                t.pos,
            )),
        }
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        let stmt = match self.peek().kind {
            TokenKind::Register => {
                self.advance();
                self.expect(&TokenKind::Continuous)?;
                let query = self.query()?;
                self.expect(&TokenKind::As)?;
                let name = self.ident()?;
                Statement::Register { name, query }
            }
            TokenKind::Unregister => {
                self.advance();
                Statement::Unregister {
                    name: self.ident()?,
                }
            }
            TokenKind::Watch => {
                self.advance();
                Statement::Watch {
                    name: self.ident()?,
                }
            }
            TokenKind::Show => {
                self.advance();
                match self.peek().kind {
                    TokenKind::Metrics => {
                        self.advance();
                        let prefix = if self.peek().kind == TokenKind::Prefix {
                            self.advance();
                            Some(self.ident()?)
                        } else {
                            None
                        };
                        Statement::ShowMetrics { prefix }
                    }
                    _ => {
                        self.expect(&TokenKind::Subscriptions)?;
                        Statement::ShowSubscriptions
                    }
                }
            }
            TokenKind::Trace => {
                self.advance();
                self.expect(&TokenKind::Epoch)?;
                let t = self.advance();
                match t.kind {
                    TokenKind::Number(n) if n >= 0.0 && n.fract() == 0.0 => {
                        Statement::TraceEpoch { epoch: n as u64 }
                    }
                    other => {
                        return Err(ParseError::at(
                            format!("expected a non-negative integer epoch, found {other}"),
                            t.pos,
                        ))
                    }
                }
            }
            _ => Statement::Select(self.query()?),
        };
        self.expect(&TokenKind::Eof)?;
        Ok(stmt)
    }
}

/// Parses a one-shot `SELECT` query (rejecting the subscription verbs —
/// use [`parse_statement`] for the full statement surface).
pub fn parse(src: &str) -> Result<Query, ParseError> {
    match parse_statement(src)? {
        Statement::Select(q) => Ok(q),
        other => Err(ParseError::at(
            format!("expected a SELECT query, found the statement '{other}'"),
            0,
        )
        .located(src)),
    }
}

/// Parses any top-level statement: a `SELECT` query, one of the
/// standing-query verbs (`REGISTER CONTINUOUS … AS name`,
/// `UNREGISTER name`, `WATCH name`, `SHOW SUBSCRIPTIONS`), or one of
/// the telemetry verbs (`SHOW METRICS [PREFIX p]`, `TRACE EPOCH e`).
/// Errors come back located (line/column filled against `src`).
pub fn parse_statement(src: &str) -> Result<Statement, ParseError> {
    let run = || -> Result<Statement, ParseError> {
        let tokens = tokenize(src)?;
        let mut p = Parser { tokens, idx: 0 };
        p.statement()
    };
    run().map_err(|e| e.located(src))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_uq11() {
        let q = parse(
            "SELECT Tr3 FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(Tr3, Tr0, TIME) > 0",
        )
        .unwrap();
        assert_eq!(q.target, Target::One("Tr3".into()));
        assert_eq!(q.quantifier, Quantifier::Exists);
        assert_eq!(q.window, (0.0, 60.0));
        assert_eq!(q.query_object, "Tr0");
        assert_eq!(q.rank, None);
    }

    #[test]
    fn parses_atleast_with_percent() {
        let q = parse(
            "SELECT Tr3 FROM MOD WHERE ATLEAST 50 % OF TIME IN [0, 60] \
             AND PROB_NN(Tr3, Tr0, TIME, RANK 2) > 0",
        )
        .unwrap();
        assert_eq!(q.quantifier, Quantifier::AtLeast(0.5));
        assert_eq!(q.rank, Some(2));
    }

    #[test]
    fn parses_uq31_star() {
        let q =
            parse("SELECT * FROM MOD WHERE EXISTS TIME IN [10, 20] AND PROB_NN(*, Tr7, TIME) > 0")
                .unwrap();
        assert_eq!(q.target, Target::All);
        assert_eq!(q.query_object, "Tr7");
    }

    #[test]
    fn parses_fixed_time() {
        let q = parse(
            "SELECT Tr1 FROM MOD WHERE AT 30 TIME IN [0, 60] AND PROB_NN(Tr1, Tr0, TIME) > 0",
        )
        .unwrap();
        assert_eq!(q.quantifier, Quantifier::At(30.0));
    }

    #[test]
    fn rejects_target_mismatch() {
        let err = parse(
            "SELECT Tr3 FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(Tr4, Tr0, TIME) > 0",
        )
        .unwrap_err();
        assert!(err.message.contains("does not match"));
    }

    #[test]
    fn rejects_self_query() {
        let err = parse(
            "SELECT Tr3 FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(Tr3, Tr3, TIME) > 0",
        )
        .unwrap_err();
        assert!(err.message.contains("own query object"));
    }

    #[test]
    fn rejects_bad_window() {
        let err = parse(
            "SELECT Tr3 FROM MOD WHERE EXISTS TIME IN [60, 0] AND PROB_NN(Tr3, Tr0, TIME) > 0",
        )
        .unwrap_err();
        assert!(err.message.contains("invalid window"));
    }

    #[test]
    fn rejects_fixed_time_outside_window() {
        let err = parse(
            "SELECT Tr3 FROM MOD WHERE AT 99 TIME IN [0, 60] AND PROB_NN(Tr3, Tr0, TIME) > 0",
        )
        .unwrap_err();
        assert!(err.message.contains("outside window"));
    }

    #[test]
    fn rejects_bad_rank() {
        let err = parse(
            "SELECT Tr3 FROM MOD WHERE EXISTS TIME IN [0, 60] \
             AND PROB_NN(Tr3, Tr0, TIME, RANK 0.5) > 0",
        )
        .unwrap_err();
        assert!(err.message.contains("positive integer"));
    }

    #[test]
    fn rejects_out_of_range_comparison() {
        for bad in ["> 5", "> 1", "> -0.1"] {
            let err = parse(&format!(
                "SELECT Tr3 FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(Tr3, Tr0, TIME) {bad}",
            ))
            .unwrap_err();
            assert!(
                err.message.contains("p in [0, 1)"),
                "{bad}: {}",
                err.message
            );
        }
    }

    #[test]
    fn accepts_threshold_comparison() {
        let q = parse(
            "SELECT Tr3 FROM MOD WHERE ATLEAST 0.5 OF TIME IN [0, 60] \
             AND PROB_NN(Tr3, Tr0, TIME) > 0.65",
        )
        .unwrap();
        assert!((q.prob_threshold - 0.65).abs() < 1e-12);
    }

    #[test]
    fn rejects_fraction_above_one() {
        let err = parse(
            "SELECT Tr3 FROM MOD WHERE ATLEAST 1.5 OF TIME IN [0, 60] \
             AND PROB_NN(Tr3, Tr0, TIME) > 0",
        )
        .unwrap_err();
        assert!(err.message.contains("outside [0, 1]"));
    }

    #[test]
    fn parses_reverse_nn() {
        let q =
            parse("SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_RNN(*, Tr0, TIME) > 0")
                .unwrap();
        assert_eq!(q.predicate, PredicateKind::Rnn);
        assert_eq!(q.rank, None);
        let q1 = parse(
            "SELECT Tr2 FROM MOD WHERE FORALL TIME IN [0, 60] AND PROB_RNN(Tr2, Tr0, TIME) > 0",
        )
        .unwrap();
        assert_eq!(q1.predicate, PredicateKind::Rnn);
        assert_eq!(q1.target, Target::One("Tr2".into()));
    }

    #[test]
    fn reverse_nn_rejects_rank() {
        let err = parse(
            "SELECT Tr2 FROM MOD WHERE EXISTS TIME IN [0, 60] \
             AND PROB_RNN(Tr2, Tr0, TIME, RANK 2) > 0",
        )
        .unwrap_err();
        assert!(
            err.message.contains("does not support RANK"),
            "{}",
            err.message
        );
    }

    #[test]
    fn forward_queries_carry_nn_predicate() {
        let q = parse(
            "SELECT Tr3 FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(Tr3, Tr0, TIME) > 0",
        )
        .unwrap();
        assert_eq!(q.predicate, PredicateKind::Nn);
    }

    #[test]
    fn errors_carry_line_and_column_spans() {
        let src =
            "SELECT Tr3 FROM MOD\nWHERE EXISTS TIME IN [0, 60]\nAND PROB_NN(Tr4, Tr0, TIME) > 0";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("does not match"));
        // The span points at the end of the statement on line 3.
        assert_eq!(err.span.line, 3);
        assert!(err.span.col > 1, "{:?}", err.span);
        assert_eq!(err.span.offset, src.len());
        // A mid-token error points at the offending token itself.
        let src2 = "SELECT ,";
        let err2 = parse(src2).unwrap_err();
        assert_eq!((err2.span.line, err2.span.col), (1, 8));
        assert_eq!(err2.pos(), 7);
        let rendered = err2.render(src2);
        assert!(rendered.contains("line 1, column 8"), "{rendered}");
        assert!(rendered.ends_with("  SELECT ,\n         ^"), "{rendered}");
    }

    #[test]
    fn parses_subscription_statements() {
        let stmt = parse_statement(
            "REGISTER CONTINUOUS SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
             AND PROB_NN(*, Tr0, TIME) > 0 AS near0",
        )
        .unwrap();
        match &stmt {
            Statement::Register { name, query } => {
                assert_eq!(name, "near0");
                assert_eq!(query.query_object, "Tr0");
                assert_eq!(query.target, Target::All);
            }
            other => panic!("expected Register, got {other:?}"),
        }
        // Statements round-trip through Display.
        assert_eq!(parse_statement(&stmt.to_string()).unwrap(), stmt);
        assert_eq!(
            parse_statement("UNREGISTER near0").unwrap(),
            Statement::Unregister {
                name: "near0".into()
            }
        );
        assert_eq!(
            parse_statement("show subscriptions").unwrap(),
            Statement::ShowSubscriptions
        );
        // WATCH attaches to an existing subscription by name, and
        // round-trips through Display like the others.
        let watch = parse_statement("WATCH near0").unwrap();
        assert_eq!(
            watch,
            Statement::Watch {
                name: "near0".into()
            }
        );
        assert_eq!(parse_statement(&watch.to_string()).unwrap(), watch);
        assert!(parse_statement("WATCH").is_err(), "WATCH requires a name");
        // A SELECT through the statement surface.
        assert!(matches!(
            parse_statement(
                "SELECT Tr1 FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(Tr1, Tr0, TIME) > 0"
            ),
            Ok(Statement::Select(_))
        ));
        // parse() refuses non-SELECT statements.
        let err = parse("UNREGISTER near0").unwrap_err();
        assert!(err.message.contains("expected a SELECT query"), "{err}");
        // Missing name is caught with a located span.
        let err = parse_statement(
            "REGISTER CONTINUOUS SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
             AND PROB_NN(*, Tr0, TIME) > 0",
        )
        .unwrap_err();
        assert!(err.message.contains("expected AS"), "{err}");
        assert_eq!(err.span.line, 1);
    }

    #[test]
    fn parses_telemetry_statements() {
        assert_eq!(
            parse_statement("show metrics").unwrap(),
            Statement::ShowMetrics { prefix: None }
        );
        let filtered = parse_statement("SHOW METRICS PREFIX wal").unwrap();
        assert_eq!(
            filtered,
            Statement::ShowMetrics {
                prefix: Some("wal".into())
            }
        );
        assert_eq!(parse_statement(&filtered.to_string()).unwrap(), filtered);
        let trace = parse_statement("trace epoch 42").unwrap();
        assert_eq!(trace, Statement::TraceEpoch { epoch: 42 });
        assert_eq!(parse_statement(&trace.to_string()).unwrap(), trace);
        // The epoch must be a non-negative integer literal.
        let err = parse_statement("TRACE EPOCH 1.5").unwrap_err();
        assert!(err.message.contains("non-negative integer"), "{err}");
        let err = parse_statement("TRACE EPOCH -3").unwrap_err();
        assert!(err.message.contains("non-negative integer"), "{err}");
        assert!(parse_statement("TRACE 42").is_err(), "EPOCH is required");
        // PREFIX without a name is rejected.
        assert!(parse_statement("SHOW METRICS PREFIX").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let err = parse(
            "SELECT Tr3 FROM MOD WHERE EXISTS TIME IN [0, 60] \
             AND PROB_NN(Tr3, Tr0, TIME) > 0 EXTRA",
        )
        .unwrap_err();
        assert!(err.message.contains("expected <eof>"), "{}", err.message);
    }
}
