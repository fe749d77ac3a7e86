//! Abstract syntax of the MOD query language.

use super::parser::SourceSpan;
use std::fmt;

/// The SELECT target: one named trajectory (Categories 1/2) or all
/// trajectories (`*`, Categories 3/4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// All trajectories in the MOD.
    All,
    /// One named trajectory, e.g. `Tr5`.
    One(String),
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::All => write!(f, "*"),
            Target::One(s) => write!(f, "{s}"),
        }
    }
}

/// The temporal quantifier of the WHERE clause: `EXISTS`, `FORALL`,
/// `ATLEAST x OF` or `AT t`, decided by the rules of
/// [`unn_core::query::Quantifier`].
pub use unn_core::query::Quantifier;

/// The probabilistic predicate of the WHERE clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateKind {
    /// `PROB_NN(target, q, TIME [, RANK k])` — the forward NN predicate of
    /// §4 (Categories 1–4).
    Nn,
    /// `PROB_RNN(target, q, TIME)` — the *reverse* NN predicate (a §7
    /// future-work variant): "does `q` have non-zero probability of being
    /// `target`'s nearest neighbor?" RANK bounds are not supported.
    Rnn,
}

/// Source positions of the tokens later stages may need to point at
/// (e.g. a `REGISTER CONTINUOUS` refusal rendering a caret at the
/// unsupported clause). Byte offsets into the parsed statement; all
/// zero for queries built programmatically.
///
/// Spans are carried alongside the semantic fields but excluded from
/// [`Query`] equality — two queries with the same meaning compare equal
/// regardless of where (or whether) they were parsed.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuerySpans {
    /// The predicate keyword (`PROB_NN` / `PROB_RNN`).
    pub predicate: SourceSpan,
    /// The `RANK` keyword, when a rank bound was given.
    pub rank: SourceSpan,
    /// The threshold literal of the `> p` comparison.
    pub threshold: SourceSpan,
}

/// A parsed query:
///
/// ```sql
/// SELECT <target> FROM MOD
/// WHERE <quantifier> TIME IN [a, b]
///   AND PROB_NN(<target>, <query>, TIME [, RANK k]) > 0
/// -- or, for reverse NN:
///   AND PROB_RNN(<target>, <query>, TIME) > 0
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    /// What to retrieve.
    pub target: Target,
    /// The temporal quantifier.
    pub quantifier: Quantifier,
    /// The query window `[tb, te]`.
    pub window: (f64, f64),
    /// The name of the querying trajectory (`Tr_q`).
    pub query_object: String,
    /// Which probabilistic predicate is being tested.
    pub predicate: PredicateKind,
    /// Optional rank bound `k` (Categories 2/4; forward NN only).
    pub rank: Option<usize>,
    /// Probability threshold of the comparison `PROB_NN(...) > p`.
    /// `0.0` is the paper's §4 semantics (non-zero probability); positive
    /// values give the §7 *threshold* queries.
    pub prob_threshold: f64,
    /// Token positions for caret rendering (not part of equality).
    pub spans: QuerySpans,
}

impl PartialEq for Query {
    fn eq(&self, other: &Self) -> bool {
        // Spans deliberately excluded: equality is semantic.
        self.target == other.target
            && self.quantifier == other.quantifier
            && self.window == other.window
            && self.query_object == other.query_object
            && self.predicate == other.predicate
            && self.rank == other.rank
            && self.prob_threshold == other.prob_threshold
    }
}

/// A top-level statement of the query language: a one-shot query or one
/// of the standing-query (subscription) management verbs.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A one-shot `SELECT …` query.
    Select(Query),
    /// `REGISTER CONTINUOUS <query> AS <name>` — install `query` as a
    /// standing query whose answer is incrementally maintained as the MOD
    /// mutates.
    Register {
        /// Subscription name (unique per server).
        name: String,
        /// The standing query.
        query: Query,
    },
    /// `UNREGISTER <name>` — drop a standing query.
    Unregister {
        /// Subscription name.
        name: String,
    },
    /// `WATCH <name>` — attach this session's push stream to an
    /// existing standing query. Over a network connection the server
    /// wires the connection's outbox to the subscription, so every
    /// watcher of one name receives the same pushed frames (encoded
    /// once, broadcast to all).
    Watch {
        /// The standing query to watch.
        name: String,
    },
    /// `SHOW SUBSCRIPTIONS` — list the registered standing queries.
    ShowSubscriptions,
    /// `SHOW METRICS [PREFIX <p>]` — snapshot the server's telemetry
    /// registry (counters, gauges, latency histograms), optionally
    /// filtered to metric names starting with `p`.
    ShowMetrics {
        /// Optional metric-name prefix filter.
        prefix: Option<String>,
    },
    /// `TRACE EPOCH <e>` — the buffered pipeline trace events of one
    /// commit epoch: which shares the maintenance round visited, the
    /// ladder decision each took, and the stage durations.
    TraceEpoch {
        /// The commit epoch to reconstruct.
        epoch: u64,
    },
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(q) => write!(f, "{q}"),
            Statement::Register { name, query } => {
                write!(f, "REGISTER CONTINUOUS {query} AS {name}")
            }
            Statement::Unregister { name } => write!(f, "UNREGISTER {name}"),
            Statement::Watch { name } => write!(f, "WATCH {name}"),
            Statement::ShowSubscriptions => write!(f, "SHOW SUBSCRIPTIONS"),
            Statement::ShowMetrics { prefix: None } => write!(f, "SHOW METRICS"),
            Statement::ShowMetrics {
                prefix: Some(prefix),
            } => write!(f, "SHOW METRICS PREFIX {prefix}"),
            Statement::TraceEpoch { epoch } => write!(f, "TRACE EPOCH {epoch}"),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT {} FROM MOD WHERE ", self.target)?;
        match &self.quantifier {
            Quantifier::Exists => write!(f, "EXISTS TIME IN ")?,
            Quantifier::Forall => write!(f, "FORALL TIME IN ")?,
            Quantifier::AtLeast(x) => write!(f, "ATLEAST {x} OF TIME IN ")?,
            Quantifier::At(t) => write!(f, "AT {t} TIME IN ")?,
        }
        let pred = match self.predicate {
            PredicateKind::Nn => "PROB_NN",
            PredicateKind::Rnn => "PROB_RNN",
        };
        write!(
            f,
            "[{}, {}] AND {pred}({}, {}, TIME",
            self.window.0, self.window.1, self.target, self.query_object
        )?;
        if let Some(k) = self.rank {
            write!(f, ", RANK {k}")?;
        }
        write!(f, ") > {}", self.prob_threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trippable_surface() {
        let q = Query {
            target: Target::One("Tr3".into()),
            quantifier: Quantifier::AtLeast(0.5),
            window: (0.0, 60.0),
            query_object: "Tr0".into(),
            predicate: PredicateKind::Nn,
            rank: Some(2),
            prob_threshold: 0.0,
            spans: QuerySpans::default(),
        };
        let s = q.to_string();
        assert!(s.contains("SELECT Tr3"));
        assert!(s.contains("ATLEAST 0.5 OF TIME"));
        assert!(s.contains("RANK 2"));
        let q2 = crate::ql::parser::parse(&s).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn star_target_display() {
        let q = Query {
            target: Target::All,
            quantifier: Quantifier::Exists,
            window: (0.0, 1.0),
            query_object: "Tr9".into(),
            predicate: PredicateKind::Nn,
            rank: None,
            prob_threshold: 0.0,
            spans: QuerySpans::default(),
        };
        assert!(q.to_string().contains("SELECT *"));
    }

    #[test]
    fn reverse_display_round_trips() {
        let q = Query {
            target: Target::All,
            quantifier: Quantifier::Exists,
            window: (0.0, 60.0),
            query_object: "Tr0".into(),
            predicate: PredicateKind::Rnn,
            rank: None,
            prob_threshold: 0.0,
            spans: QuerySpans::default(),
        };
        let s = q.to_string();
        assert!(s.contains("PROB_RNN"), "{s}");
        let q2 = crate::ql::parser::parse(&s).unwrap();
        assert_eq!(q, q2);
    }
}
