//! Rendering a maintained answer through a statement's quantifier and
//! target, like a one-shot execution of it.

use crate::ql::ast::{Quantifier, Query, Target};
use crate::ql::parse_object_name;
use crate::server::QueryOutput;
use unn_core::answer::AnswerSet;
use unn_core::probrows::{probe_column, ProbRowSet};
use unn_traj::trajectory::Oid;

/// Renders an [`AnswerSet`] through a query's quantifier and target —
/// the same decision rules the one-shot execution path applies to its
/// engine, derived from the maintained qualification intervals instead.
pub fn render_output(query: &Query, answer: &AnswerSet) -> QueryOutput {
    let window = answer.window();
    let tol = 1e-7 * window.len().max(1.0);
    match &query.target {
        Target::One(name) => {
            let intervals = parse_object_name(name).and_then(|oid| answer.intervals_of(oid));
            let answer = match (&query.quantifier, intervals) {
                (Quantifier::Exists, iv) => iv.map(|iv| !iv.is_empty()).unwrap_or(false),
                (Quantifier::Forall, Some(iv)) => iv.covers_interval(window, tol),
                (Quantifier::Forall, None) => false,
                (Quantifier::AtLeast(x), iv) => {
                    let frac = iv.map(|iv| iv.total_len() / window.len()).unwrap_or(0.0);
                    frac + 1e-12 >= *x
                }
                (Quantifier::At(t), iv) => iv.map(|iv| iv.covers(*t)).unwrap_or(false),
            };
            QueryOutput::Boolean(answer)
        }
        Target::All => {
            let rows = answer
                .entries()
                .iter()
                .filter_map(|e| {
                    let frac = e.fraction(window);
                    match &query.quantifier {
                        Quantifier::Exists => Some((e.oid, frac)),
                        Quantifier::Forall => e
                            .intervals
                            .covers_interval(window, tol)
                            .then_some((e.oid, 1.0)),
                        Quantifier::AtLeast(x) => (frac + 1e-12 >= *x).then_some((e.oid, frac)),
                        Quantifier::At(t) => e.intervals.covers(*t).then_some((e.oid, frac)),
                    }
                })
                .collect();
            QueryOutput::Objects(rows)
        }
    }
}

/// Renders a [`ProbRowSet`] through a query's quantifier and target —
/// the sampled analogue of the one-shot threshold decision rules: the
/// qualifying fraction of `oid` is the fraction of probes where its
/// `P^NN` exceeds the statement's threshold, `FORALL` means every probe
/// passed, and `AT t` reads the probe column containing `t`.
///
/// The semantics are deliberately *probe-based*: a standing query's
/// maintained truth is its sampled rows, so `AT t` answers from the
/// probe column containing `t`, whereas a one-shot execution of the
/// same statement evaluates the probability at exactly `t` (and
/// one-shot `PROB_RNN(…) > 0` uses exact band intervals). Near a
/// threshold crossing between two probes the two surfaces can disagree;
/// raise the registry's sampling density to narrow the window.
pub fn render_row_output(query: &Query, rows: &ProbRowSet) -> QueryOutput {
    let p = query.prob_threshold;
    let samples = rows.samples();
    let full = 1.0 - 0.5 / samples as f64;
    let decide = |frac: f64, at_hit: bool| match &query.quantifier {
        Quantifier::Exists => frac > 0.0,
        Quantifier::Forall => frac >= full,
        Quantifier::AtLeast(x) => frac + 1e-12 >= *x,
        Quantifier::At(_) => at_hit,
    };
    let at_hit_of = |oid: Oid| match &query.quantifier {
        Quantifier::At(t) => rows
            .row_of(oid)
            .and_then(|r| r.at(probe_column(rows.window(), samples, *t)))
            .map(|prob| prob > p)
            .unwrap_or(false),
        _ => false,
    };
    match &query.target {
        Target::One(name) => {
            let answer = parse_object_name(name)
                .map(|oid| decide(rows.fraction_above(oid, p), at_hit_of(oid)))
                .unwrap_or(false);
            QueryOutput::Boolean(answer)
        }
        Target::All => {
            let out = rows
                .rows()
                .iter()
                .filter_map(|r| {
                    let frac = rows.fraction_above(r.oid, p);
                    decide(frac, at_hit_of(r.oid)).then_some((r.oid, frac))
                })
                .collect();
            QueryOutput::Objects(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PrefilterPolicy;
    use crate::ql::parser::parse;
    use crate::subscription::testutil::*;
    use crate::subscription::SubscriptionRegistry;

    #[test]
    fn render_matches_one_shot_semantics() {
        let store = populated_store();
        let reg = SubscriptionRegistry::new();
        for (name, stmt) in [
            (
                "exists",
                "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(*, Tr0, TIME) > 0",
            ),
            (
                "atleast",
                "SELECT * FROM MOD WHERE ATLEAST 0.5 OF TIME IN [0, 10] \
                 AND PROB_NN(*, Tr0, TIME) > 0",
            ),
            (
                "one",
                "SELECT Tr1 FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(Tr1, Tr0, TIME) > 0",
            ),
            (
                "far",
                "SELECT Tr3 FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(Tr3, Tr0, TIME) > 0",
            ),
        ] {
            reg.register(
                &store,
                name,
                parse(stmt).unwrap(),
                PrefilterPolicy::default(),
            )
            .unwrap();
        }
        match reg.output("exists").unwrap() {
            QueryOutput::Objects(rows) => {
                let oids: Vec<Oid> = rows.iter().map(|(o, _)| *o).collect();
                assert!(oids.contains(&Oid(1)));
                assert!(!oids.contains(&Oid(3)), "far object must not qualify");
            }
            other => panic!("expected Objects, got {other:?}"),
        }
        assert_eq!(reg.output("one").unwrap(), QueryOutput::Boolean(true));
        assert_eq!(reg.output("far").unwrap(), QueryOutput::Boolean(false));
        match reg.output("atleast").unwrap() {
            QueryOutput::Objects(rows) => {
                for (_, frac) in rows {
                    assert!(frac >= 0.5 - 1e-9);
                }
            }
            other => panic!("expected Objects, got {other:?}"),
        }
    }

    #[test]
    fn row_rendering_applies_threshold_and_quantifier() {
        let store = populated_store();
        let reg = SubscriptionRegistry::new();
        // Tr1 (one mile away, everything else far) dominates: its P^NN
        // exceeds 0.4 essentially always.
        reg.register(
            &store,
            "hot",
            parse(
                "SELECT Tr1 FROM MOD WHERE ATLEAST 0.6 OF TIME IN [0, 10] \
                 AND PROB_NN(Tr1, Tr0, TIME) > 0.4",
            )
            .unwrap(),
            PrefilterPolicy::default(),
        )
        .unwrap();
        assert_eq!(reg.output("hot").unwrap(), QueryOutput::Boolean(true));
        // The far object fails any positive-threshold test.
        reg.register(
            &store,
            "cold",
            parse(
                "SELECT Tr3 FROM MOD WHERE EXISTS TIME IN [0, 10] \
                 AND PROB_NN(Tr3, Tr0, TIME) > 0.4",
            )
            .unwrap(),
            PrefilterPolicy::default(),
        )
        .unwrap();
        assert_eq!(reg.output("cold").unwrap(), QueryOutput::Boolean(false));
        // Reverse star rendering lists the perspectives with their
        // qualifying fractions.
        reg.register(&store, "rev", rnn_query(), PrefilterPolicy::default())
            .unwrap();
        match reg.output("rev").unwrap() {
            QueryOutput::Objects(rows) => {
                assert!(rows.iter().any(|(o, _)| *o == Oid(1)), "{rows:?}");
                for (_, frac) in &rows {
                    assert!((0.0..=1.0 + 1e-9).contains(frac));
                }
            }
            other => panic!("expected Objects, got {other:?}"),
        }
    }
}
