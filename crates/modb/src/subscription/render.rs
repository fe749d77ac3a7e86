//! The target rules of every `SELECT` (one named object, or the whole
//! MOD): one-shot executions
//! ([`crate::server::ModServer::execute_parsed`]) and standing queries
//! ([`super::SubscriptionRegistry::output`]) both render their answer
//! value through these functions, which leave each quantifier decision
//! to [`Quantifier`]'s rules.
//!
//! The surfaces differ only where their answer values do: the `AT t`
//! instant rule a row statement is rendered with (exact `P^NN` at `t`
//! one-shot, the probe column containing `t` when registered), and
//! `PROB_RNN(…) > 0`, which a one-shot execution answers from exact band
//! intervals ([`render_output`]) and a standing query from sampled rows
//! ([`render_row_output`]).

use crate::ql::ast::{Quantifier, Query, Target};
use crate::ql::parse_object_name;
use crate::server::QueryOutput;
use unn_core::answer::AnswerSet;
use unn_core::probrows::{probe_column, ProbRowSet};
use unn_geom::interval::IntervalSet;
use unn_traj::trajectory::Oid;

/// Renders an [`AnswerSet`] — qualification intervals, rank-bounded or
/// not — through a query's target, deciding each object's intervals by
/// [`Quantifier::holds`]. A named object absent from the answer has the
/// empty set; whole-MOD rows carry each admitted entry's fraction of the
/// window (`1.0` under `FORALL`).
pub fn render_output(query: &Query, answer: &AnswerSet) -> QueryOutput {
    let window = answer.window();
    let quantifier = &query.quantifier;
    match &query.target {
        Target::One(name) => {
            let intervals = parse_object_name(name).and_then(|oid| answer.intervals_of(oid));
            let empty = IntervalSet::default();
            QueryOutput::Boolean(quantifier.holds(intervals.unwrap_or(&empty), window))
        }
        Target::All => {
            let rows = answer
                .entries()
                .iter()
                .filter(|e| quantifier.holds(&e.intervals, window))
                .map(|e| match quantifier {
                    Quantifier::Forall => (e.oid, 1.0),
                    _ => (e.oid, e.fraction(window)),
                })
                .collect();
            QueryOutput::Objects(rows)
        }
    }
}

/// Renders a [`ProbRowSet`] through a query's target under its
/// threshold `p`: an object's qualifying fraction is the fraction of
/// probes where its probability exceeds `p`, decided by
/// [`Quantifier::holds_on_probes`] with `at(oid, t) > p` as the `AT t`
/// rule, where `at` is the caller's instant rule returning the
/// probability at `t`. Whole-MOD rows list every object the set holds a
/// row for (so `ATLEAST 0 %` lists them all), each with its qualifying
/// fraction.
///
/// A standing query passes `probe_column_at`: its maintained truth is
/// its sampled rows, so `AT t` reads the probe column containing `t`. A
/// one-shot execution passes the exact probability at `t`. Near a
/// threshold crossing between two probes the two can disagree; raise
/// the registry's sampling density to narrow the window.
pub fn render_row_output(
    query: &Query,
    rows: &ProbRowSet,
    at: impl Fn(Oid, f64) -> f64,
) -> QueryOutput {
    let p = query.prob_threshold;
    let decide = |oid: Oid, frac: f64| {
        query
            .quantifier
            .holds_on_probes(frac, rows.samples(), |t| at(oid, t) > p)
    };
    match &query.target {
        Target::One(name) => {
            let answer = parse_object_name(name)
                .map(|oid| decide(oid, rows.fraction_above(oid, p)))
                .unwrap_or(false);
            QueryOutput::Boolean(answer)
        }
        Target::All => {
            let out = rows
                .rows()
                .iter()
                .filter_map(|r| {
                    let frac = rows.fraction_above(r.oid, p);
                    decide(r.oid, frac).then_some((r.oid, frac))
                })
                .collect();
            QueryOutput::Objects(out)
        }
    }
}

/// The verdict of a row statement that reads its `AT t` instant rule
/// alone — one named target under `AT t`: `at(oid, t) > p`, exactly what
/// [`render_row_output`] renders for it, without a row set. `None` for
/// every other statement, whose verdict reads its rows.
pub fn render_instant(query: &Query, at: impl Fn(Oid, f64) -> f64) -> Option<QueryOutput> {
    match (&query.target, &query.quantifier) {
        (Target::One(name), Quantifier::At(t)) => Some(QueryOutput::Boolean(
            parse_object_name(name).is_some_and(|oid| at(oid, *t) > query.prob_threshold),
        )),
        _ => None,
    }
}

/// The standing queries' `AT t` rule for [`render_row_output`]: the
/// probability `rows` hold for `oid` in the probe column containing `t`
/// (zero where the object has no point there).
pub(crate) fn probe_column_at(rows: &ProbRowSet) -> impl Fn(Oid, f64) -> f64 + '_ {
    move |oid, t| {
        let k = probe_column(rows.window(), rows.samples(), t);
        rows.row_of(oid).and_then(|r| r.at(k)).unwrap_or(0.0)
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
