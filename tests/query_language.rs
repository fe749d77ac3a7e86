//! End-to-end tests of the §4 query language against generated workloads,
//! including consistency between the SQL surface and the programmatic
//! engine API.

use uncertain_nn::modb::ql::{parse, Quantifier, Target};
use uncertain_nn::prelude::*;

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

#[test]
fn sql_and_api_agree_on_category_1() {
    let s = server(40, 3);
    let (engine, _) = s.engine(Oid(0), TimeInterval::new(0.0, 60.0)).unwrap();
    for target in 1..40u64 {
        let stmt = format!(
            "SELECT Tr{target} FROM MOD WHERE EXISTS TIME IN [0, 60] \
             AND PROB_NN(Tr{target}, Tr0, TIME) > 0"
        );
        let via_sql = match s.execute(&stmt).unwrap() {
            QueryOutput::Boolean(b) => b,
            other => panic!("expected Boolean, got {other:?}"),
        };
        // `None` means the default prefiltered engine dropped the target:
        // provably outside the 4r band, so the predicate is false.
        let via_api = engine.uq11_exists(Oid(target)).unwrap_or(false);
        assert_eq!(via_sql, via_api, "target {target}");
    }
}

#[test]
fn sql_and_api_agree_on_category_3() {
    let s = server(30, 9);
    let (engine, _) = s.engine(Oid(5), TimeInterval::new(0.0, 60.0)).unwrap();
    let stmt = "SELECT * FROM MOD WHERE ATLEAST 0.3 OF TIME IN [0, 60] \
                AND PROB_NN(*, Tr5, TIME) > 0";
    let via_sql = match s.execute(stmt).unwrap() {
        QueryOutput::Objects(objs) => objs,
        other => panic!("expected Objects, got {other:?}"),
    };
    let mut via_api: Vec<(Oid, f64)> = engine
        .answer()
        .entries()
        .iter()
        .filter(|e| Quantifier::AtLeast(0.3).holds(&e.intervals, engine.window()))
        .map(|e| (e.oid, e.fraction(engine.window())))
        .collect();
    let mut via_sql_sorted = via_sql.clone();
    via_api.sort_by_key(|(o, _)| *o);
    via_sql_sorted.sort_by_key(|(o, _)| *o);
    assert_eq!(via_api.len(), via_sql_sorted.len());
    for ((o1, f1), (o2, f2)) in via_api.iter().zip(&via_sql_sorted) {
        assert_eq!(o1, o2);
        assert!((f1 - f2).abs() < 1e-9);
    }
}

#[test]
fn rank_queries_through_sql() {
    let s = server(25, 17);
    let stmt = "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
                AND PROB_NN(*, Tr0, TIME, RANK 2) > 0";
    let rank2 = match s.execute(stmt).unwrap() {
        QueryOutput::Objects(objs) => objs,
        other => panic!("expected Objects, got {other:?}"),
    };
    let stmt1 = "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
                 AND PROB_NN(*, Tr0, TIME, RANK 1) > 0";
    let rank1 = match s.execute(stmt1).unwrap() {
        QueryOutput::Objects(objs) => objs,
        other => panic!("expected Objects, got {other:?}"),
    };
    // Rank-1 qualifiers are a subset of rank-2 qualifiers.
    let ids2: Vec<Oid> = rank2.iter().map(|(o, _)| *o).collect();
    for (o, _) in &rank1 {
        assert!(ids2.contains(o), "{o} at rank 1 missing from rank 2");
    }
    assert!(rank1.len() <= rank2.len());
}

#[test]
fn parse_display_round_trip() {
    let statements = [
        "SELECT Tr3 FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(Tr3, Tr0, TIME) > 0",
        "SELECT * FROM MOD WHERE FORALL TIME IN [5, 25] AND PROB_NN(*, Tr2, TIME) > 0",
        "SELECT Tr9 FROM MOD WHERE ATLEAST 0.75 OF TIME IN [0, 10] AND PROB_NN(Tr9, Tr1, TIME, RANK 3) > 0",
        "SELECT Tr4 FROM MOD WHERE AT 12 TIME IN [0, 30] AND PROB_NN(Tr4, Tr8, TIME) > 0",
    ];
    for stmt in statements {
        let q1 = parse(stmt).unwrap();
        let q2 = parse(&q1.to_string()).unwrap();
        assert_eq!(q1, q2, "round trip failed for '{stmt}'");
    }
}

#[test]
fn quantifier_semantics_are_ordered() {
    // FORALL ⇒ ATLEAST x ⇒ EXISTS for every object and any x ∈ (0, 1].
    let s = server(35, 29);
    for target in [1u64, 7, 13, 22] {
        let forall = format!(
            "SELECT Tr{target} FROM MOD WHERE FORALL TIME IN [0, 60] AND PROB_NN(Tr{target}, Tr0, TIME) > 0"
        );
        let atleast = format!(
            "SELECT Tr{target} FROM MOD WHERE ATLEAST 0.5 OF TIME IN [0, 60] AND PROB_NN(Tr{target}, Tr0, TIME) > 0"
        );
        let exists = format!(
            "SELECT Tr{target} FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(Tr{target}, Tr0, TIME) > 0"
        );
        let get = |stmt: &str| match s.execute(stmt).unwrap() {
            QueryOutput::Boolean(b) => b,
            other => panic!("expected Boolean, got {other:?}"),
        };
        let (f, a, e) = (get(&forall), get(&atleast), get(&exists));
        assert!(!f || a, "FORALL true but ATLEAST false for {target}");
        assert!(!a || e, "ATLEAST true but EXISTS false for {target}");
    }
}

#[test]
fn fixed_time_consistent_with_intervals() {
    let s = server(20, 41);
    let (engine, _) = s.engine(Oid(0), TimeInterval::new(0.0, 60.0)).unwrap();
    for target in 1..20u64 {
        let intervals = engine.nonzero_intervals(Oid(target));
        for t in [7.5, 22.5, 41.0, 55.5] {
            let stmt = format!(
                "SELECT Tr{target} FROM MOD WHERE AT {t} TIME IN [0, 60] \
                 AND PROB_NN(Tr{target}, Tr0, TIME) > 0"
            );
            let via_sql = match s.execute(&stmt).unwrap() {
                QueryOutput::Boolean(b) => b,
                other => panic!("expected Boolean, got {other:?}"),
            };
            // `None` means the default prefiltered engine dropped the
            // target: provably zero probability at every instant.
            let Some(intervals) = intervals.as_ref() else {
                assert!(!via_sql, "prefiltered-out target {target} must be false");
                continue;
            };
            // Skip instants close to a boundary of the inside set.
            let margin = intervals
                .spans()
                .iter()
                .map(|iv| (iv.start() - t).abs().min((iv.end() - t).abs()))
                .fold(f64::INFINITY, f64::min);
            if margin > 1e-6 {
                assert_eq!(via_sql, intervals.covers(t), "target {target} t {t}");
            }
        }
    }
}

#[test]
fn threshold_queries_end_to_end() {
    // The §7 future-work extension: PROB_NN(...) > p with p > 0.
    let s = server(30, 61);
    let stmt = "SELECT * FROM MOD WHERE ATLEAST 0.2 OF TIME IN [0, 60] \
                AND PROB_NN(*, Tr0, TIME) > 0.5";
    let strong = match s.execute(stmt).unwrap() {
        QueryOutput::Objects(objs) => objs,
        other => panic!("expected Objects, got {other:?}"),
    };
    // Threshold > 0.5 qualifiers are a subset of the non-zero qualifiers.
    let stmt0 = "SELECT * FROM MOD WHERE ATLEAST 0.2 OF TIME IN [0, 60] \
                 AND PROB_NN(*, Tr0, TIME) > 0";
    let weak = match s.execute(stmt0).unwrap() {
        QueryOutput::Objects(objs) => objs,
        other => panic!("expected Objects, got {other:?}"),
    };
    let weak_ids: Vec<Oid> = weak.iter().map(|(o, _)| *o).collect();
    for (o, frac) in &strong {
        assert!(weak_ids.contains(o), "{o} passes p=0.5 but not p=0");
        assert!(*frac >= 0.2 - 1e-9);
    }
    // Raising the threshold can only shrink the answer.
    let stmt9 = "SELECT * FROM MOD WHERE ATLEAST 0.2 OF TIME IN [0, 60] \
                 AND PROB_NN(*, Tr0, TIME) > 0.9";
    let strongest = match s.execute(stmt9).unwrap() {
        QueryOutput::Objects(objs) => objs,
        other => panic!("expected Objects, got {other:?}"),
    };
    assert!(strongest.len() <= strong.len());
}

#[test]
fn threshold_round_trips_through_display() {
    let q = parse(
        "SELECT Tr3 FROM MOD WHERE ATLEAST 0.5 OF TIME IN [0, 60] \
         AND PROB_NN(Tr3, Tr0, TIME) > 0.65",
    )
    .unwrap();
    assert!((q.prob_threshold - 0.65).abs() < 1e-12);
    let q2 = parse(&q.to_string()).unwrap();
    assert_eq!(q, q2);
}

#[test]
fn ast_quantifier_variants_parse() {
    let q = parse(
        "SELECT Tr1 FROM MOD WHERE ATLEAST 65 % OF TIME IN [0, 60] AND PROB_NN(Tr1, Tr0, TIME) > 0",
    )
    .unwrap();
    assert_eq!(q.target, Target::One("Tr1".into()));
    match q.quantifier {
        Quantifier::AtLeast(x) => assert!((x - 0.65).abs() < 1e-12),
        other => panic!("unexpected quantifier {other:?}"),
    }
}
