//! One renderer for every `SELECT`: a one-shot execution of a statement
//! and the same statement registered as a standing query decide their
//! quantifier and target through the same rules, so they answer bit for
//! bit alike on a fresh registration.
//!
//! Two statement families are left out on purpose, because the two
//! surfaces keep different representations of them: `AT t` on a row
//! statement (the one-shot path evaluates `P^NN` at exactly `t`, the
//! standing query reads the probe column containing `t`), and
//! `PROB_RNN(…) > 0` (exact band intervals one-shot, sampled rows when
//! registered).

use proptest::prelude::*;
use uncertain_nn::core::probrows::probe_time;
use uncertain_nn::prelude::*;

const W: (f64, f64) = (0.0, 60.0);

fn server(n: usize, seed: u64) -> ModServer {
    let cfg = WorkloadConfig {
        num_objects: n,
        seed,
        ..WorkloadConfig::default()
    };
    let s = ModServer::new();
    s.register_all(generate_uncertain(&cfg, 0.5)).unwrap();
    s
}

fn stmt(quant: &str, pred: &str, target: &str, q: &str, rank: &str, p: f64) -> String {
    format!(
        "SELECT {target} FROM MOD WHERE {quant} TIME IN [{}, {}] \
         AND {pred}({target}, {q}, TIME{rank}) > {p}",
        W.0, W.1
    )
}

/// A `SELECT` answer with each fraction as its bits, so `-0.0`/`0.0` or
/// a last-ulp drift cannot hide behind float equality.
fn bits(out: &QueryOutput) -> Result<Vec<(Oid, u64)>, bool> {
    match out {
        QueryOutput::Objects(rows) => Ok(rows.iter().map(|(o, f)| (*o, f.to_bits())).collect()),
        QueryOutput::Boolean(b) => Err(*b),
        other => panic!("expected a SELECT answer, got {other:?}"),
    }
}

fn objects(out: QueryOutput) -> Vec<(Oid, f64)> {
    match out {
        QueryOutput::Objects(rows) => rows,
        other => panic!("expected Objects, got {other:?}"),
    }
}

/// Registers `statement` under `name` and asserts its rendered standing
/// answer equals the one-shot execution bit for bit. The registrations
/// stay: statements on one query object and window ride one share, so
/// each later one registers without an evaluation.
fn assert_one_answer(s: &ModServer, name: &str, statement: &str) {
    s.subscribe(name, statement).unwrap();
    let standing = s.subscription_output(name).unwrap();
    let one_shot = s.execute(statement).unwrap();
    assert_eq!(bits(&one_shot), bits(&standing), "{statement}");
}

#[test]
fn one_shot_equals_the_registered_rendering() {
    let interval_quants = [
        "EXISTS",
        "FORALL",
        "ATLEAST 30 % OF",
        "ATLEAST 0 % OF",
        "AT 23.7",
    ];
    let row_quants = ["EXISTS", "FORALL", "ATLEAST 20 % OF", "ATLEAST 0 % OF"];
    let mut checked = 0;
    for (n, seed, q) in [(16, 1, "Tr0"), (16, 2, "Tr3"), (16, 3, "Tr5")] {
        let s = server(n, seed);
        // Named targets: the first objects of the star answer, plus one
        // object outside it.
        let star = objects(
            s.execute(&stmt("EXISTS", "PROB_NN", "*", q, "", 0.0))
                .unwrap(),
        );
        let inside: Vec<String> = star.iter().take(2).map(|(o, _)| o.to_string()).collect();
        let outside = (0..n as u64)
            .map(Oid)
            .find(|o| o.to_string() != q && !star.iter().any(|(s, _)| s == o))
            .map(|o| o.to_string());
        let targets: Vec<String> = std::iter::once("*".to_string())
            .chain(inside)
            .chain(outside)
            .collect();
        for (i, target) in targets.iter().enumerate() {
            for rank in ["", ", RANK 1", ", RANK 2"] {
                for quant in interval_quants {
                    let st = stmt(quant, "PROB_NN", target, q, rank, 0.0);
                    checked += 1;
                    assert_one_answer(&s, &format!("s{checked}"), &st);
                }
            }
            for (pred, p) in [("PROB_NN", 0.2), ("PROB_NN", 0.55), ("PROB_RNN", 0.3)] {
                // A one-shot reverse statement samples every perspective:
                // two targets (the whole MOD and one object) suffice.
                if pred == "PROB_RNN" && i > 1 {
                    continue;
                }
                for quant in row_quants {
                    let st = stmt(quant, pred, target, q, "", p);
                    checked += 1;
                    assert_one_answer(&s, &format!("s{checked}"), &st);
                }
            }
        }
    }
    assert_eq!(checked, 3 * (4 * 23 + 2 * 4));
}

/// `ATLEAST 0 %` over the whole MOD keeps every object the rows hold,
/// as the registered statement always did: one-shot used to list only
/// the objects with a probe above the threshold.
#[test]
fn atleast_zero_percent_lists_every_row() {
    let s = server(40, 3);
    let all = stmt("ATLEAST 0 % OF", "PROB_NN", "*", "Tr0", "", 0.2);
    s.subscribe("all", &all).unwrap();
    let SubAnswer::Rows(rows) = s.subscription_answer("all").unwrap() else {
        panic!("a threshold statement maintains rows");
    };
    let listed = objects(s.execute(&all).unwrap());
    let row_oids: Vec<Oid> = rows.rows().iter().map(|r| r.oid).collect();
    let listed_oids: Vec<Oid> = listed.iter().map(|(o, _)| *o).collect();
    assert_eq!(listed_oids, row_oids);
    assert!(
        listed.iter().any(|(_, f)| *f == 0.0),
        "some row never passes the threshold: {listed:?}"
    );
    assert_eq!(listed, objects(s.subscription_output("all").unwrap()));
}

/// `RANK k` with a positive threshold keeps an instant only when the
/// object is both above the threshold and within rank `k` there: the
/// fraction is the share of probes passing both tests, and `AT t`
/// applies the same pair of tests at `t`.
#[test]
fn rank_and_threshold_intersect() {
    const P: f64 = 0.2;
    let s = server(40, 3);
    // The two halves of the composed predicate, each from its own
    // standing query: the threshold rows and the rank-1 intervals.
    s.subscribe("rows", &stmt("EXISTS", "PROB_NN", "*", "Tr5", "", P))
        .unwrap();
    s.subscribe(
        "ranked",
        &stmt("EXISTS", "PROB_NN", "*", "Tr5", ", RANK 1", 0.0),
    )
    .unwrap();
    let SubAnswer::Rows(rows) = s.subscription_answer("rows").unwrap() else {
        panic!("a threshold statement maintains rows");
    };
    let SubAnswer::Intervals(ranked) = s.subscription_answer("ranked").unwrap() else {
        panic!("a RANK statement maintains intervals");
    };
    let window = TimeInterval::new(W.0, W.1);
    let n = rows.samples();
    let both = |oid: Oid, k: u32| {
        let t = probe_time(window, n, k);
        rows.row_of(oid)
            .and_then(|r| r.at(k))
            .is_some_and(|prob| prob > P)
            && ranked.intervals_of(oid).is_some_and(|iv| iv.covers(t))
    };
    let want: Vec<(Oid, f64)> = rows
        .rows()
        .iter()
        .map(|r| {
            (
                r.oid,
                (0..n).filter(|k| both(r.oid, *k)).count() as f64 / n as f64,
            )
        })
        .filter(|(_, f)| *f > 0.0)
        .collect();
    let got = objects(
        s.execute(&stmt("EXISTS", "PROB_NN", "*", "Tr5", ", RANK 1", P))
            .unwrap(),
    );
    assert_eq!(
        got, want,
        "no object is listed without a probe passing both"
    );
    // `AT t`: at every probe above the threshold, the verdict is the
    // conjunction — no outside rank 1, where the threshold alone would
    // say yes. (Below the threshold both rules say no.)
    let mut outside_rank = 0;
    for r in rows.rows() {
        let above = r.points.iter().filter(|(_, prob)| *prob > P);
        for &(k, prob) in above {
            let t = probe_time(window, n, k);
            let at = format!("AT {t:?}");
            let one = stmt(&at, "PROB_NN", &r.oid.to_string(), "Tr5", ", RANK 1", P);
            let verdict = s.execute(&one).unwrap();
            assert_eq!(verdict, QueryOutput::Boolean(both(r.oid, k)), "{one}");
            outside_rank += (prob > P && !both(r.oid, k)) as usize;
        }
    }
    assert!(
        outside_rank > 0,
        "the fleet must have a probe above P outside rank 1"
    );
}

/// A row statement naming one object under `AT t` reads the exact
/// instant rule alone, never the sampled rows: its verdict is the
/// object's membership in the whole-MOD answer of the same statement,
/// which applies that rule to every object with a row — forward and
/// reverse.
#[test]
fn one_target_at_t_is_membership_in_the_whole_mod_answer() {
    let s = server(16, 2);
    for (pred, p) in [("PROB_NN", 0.2), ("PROB_RNN", 0.3)] {
        let mut listed = 0;
        for t in [5.5, 23.7, 41.0] {
            let at = format!("AT {t}");
            let star = objects(s.execute(&stmt(&at, pred, "*", "Tr3", "", p)).unwrap());
            for oid in (0..16).map(Oid).filter(|&o| o != Oid(3)) {
                let one = stmt(&at, pred, &oid.to_string(), "Tr3", "", p);
                let member = star.iter().any(|(o, _)| *o == oid);
                assert_eq!(
                    s.execute(&one).unwrap(),
                    QueryOutput::Boolean(member),
                    "{one}"
                );
                listed += member as usize;
            }
        }
        assert!(listed > 0, "{pred}: some object must pass the instant rule");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One semantics for the per-object path and the answer-set path: on
    /// random fleets, `ModServer::execute`'s verdict under every
    /// quantifier — for each named object and for the whole MOD, with and
    /// without `RANK k`, forward and reverse — is `Quantifier`'s rule
    /// applied to that object's own `nonzero_intervals`, `rank_intervals`
    /// or `rnn_intervals` (an object the engine does not hold has the
    /// empty set). The whole MOD lists the objects that qualify at some
    /// instant and that the rule admits, each with its fraction of the
    /// window (`1.0` under `FORALL`). A shadow of the query object,
    /// 0.05 mi beside it, qualifies throughout, so `FORALL` admits
    /// someone.
    #[test]
    fn execute_is_the_rule_over_each_objects_intervals(
        n in 6usize..12,
        seed in 0u64..1_000,
        q in 0u64..6,
    ) {
        let s = server(n, seed);
        let query = s.store().get(Oid(q)).unwrap();
        let shadow: Vec<_> = query
            .trajectory()
            .samples()
            .iter()
            .map(|p| (p.position.x + 0.05, p.position.y, p.time))
            .collect();
        let shadow = Trajectory::from_triples(Oid(n as u64), &shadow).unwrap();
        s.register(UncertainTrajectory::with_uniform_pdf(shadow, 0.5).unwrap())
            .unwrap();
        let n = n + 1;
        let window = TimeInterval::new(W.0, W.1);
        let q_name = Oid(q).to_string();
        let (engine, _) = s.engine(Oid(q), window).unwrap();
        let rev = s.reverse_engine(Oid(q), window).unwrap();
        let quantifiers = [
            ("EXISTS", Quantifier::Exists),
            ("FORALL", Quantifier::Forall),
            ("ATLEAST 30 % OF", Quantifier::AtLeast(0.3)),
            ("ATLEAST 0 % OF", Quantifier::AtLeast(0.0)),
            ("AT 23.7", Quantifier::At(23.7)),
        ];
        for (quant, rule) in quantifiers {
            for (pred, rank) in [("PROB_NN", None), ("PROB_NN", Some(1)), ("PROB_NN", Some(2)), ("PROB_RNN", None)] {
                let intervals = |o: Oid| match (pred, rank) {
                    ("PROB_RNN", _) => rev.rnn_intervals(o),
                    (_, None) => engine.nonzero_intervals(o),
                    (_, Some(k)) => engine.rank_intervals(o, k),
                }
                .unwrap_or_default();
                let w = if pred == "PROB_RNN" { rev.window() } else { engine.window() };
                let rank = rank.map_or(String::new(), |k| format!(", RANK {k}"));
                let mut want = Vec::new();
                for o in (0..n as u64).map(Oid).filter(|&o| o != Oid(q)) {
                    let iv = intervals(o);
                    let verdict = rule.holds(&iv, w);
                    let one = stmt(quant, pred, &o.to_string(), &q_name, &rank, 0.0);
                    prop_assert_eq!(s.execute(&one).unwrap(), QueryOutput::Boolean(verdict), "{}", one);
                    if verdict && !iv.is_empty() {
                        let frac = if rule == Quantifier::Forall { 1.0 } else { window_fraction(&iv, w) };
                        want.push((o, frac.to_bits()));
                    }
                }
                let star = stmt(quant, pred, "*", &q_name, &rank, 0.0);
                prop_assert_eq!(bits(&s.execute(&star).unwrap()), Ok(want), "{}", star);
            }
        }
    }
}
