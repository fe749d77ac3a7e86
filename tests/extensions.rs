//! Integration tests for the §7 future-work extensions, exercised through
//! the public API on the paper's random-waypoint workload: reverse NN,
//! all-pairs, heterogeneous radii, continuous k-NN and threshold
//! queries.

use uncertain_nn::core::hetero::HeteroCandidate;
use uncertain_nn::prelude::*;

fn workload(n: usize, seed: u64) -> Vec<Trajectory> {
    let mut cfg = WorkloadConfig::with_objects(n, seed);
    cfg.duration_minutes = 30.0;
    generate(&cfg)
}

fn server_with(n: usize, seed: u64, radius: f64) -> ModServer {
    let server = ModServer::new();
    for tr in workload(n, seed) {
        server
            .register(UncertainTrajectory::with_uniform_pdf(tr, radius).unwrap())
            .unwrap();
    }
    server
}

const WINDOW: (f64, f64) = (0.0, 30.0);

#[test]
fn reverse_statements_match_engine_answers() {
    let s = server_with(40, 7, 0.5);
    let w = TimeInterval::new(WINDOW.0, WINDOW.1);
    let rev = s.reverse_engine(Oid(0), w).unwrap();
    let expected: Vec<Oid> = rev.answer_set().entries().iter().map(|e| e.oid).collect();
    let out = s
        .execute("SELECT * FROM MOD WHERE EXISTS TIME IN [0, 30] AND PROB_RNN(*, Tr0, TIME) > 0")
        .unwrap();
    match out {
        QueryOutput::Objects(objs) => {
            let got: Vec<Oid> = objs.iter().map(|(o, _)| *o).collect();
            for oid in &expected {
                assert!(got.contains(oid), "{oid} missing from statement answer");
            }
            for oid in &got {
                assert!(expected.contains(oid), "{oid} extra in statement answer");
            }
        }
        other => panic!("expected Objects, got {other:?}"),
    }
    // Single-target statements agree with the per-object predicates.
    for oid in [1u64, 5, 17] {
        let stmt = format!(
            "SELECT Tr{oid} FROM MOD WHERE EXISTS TIME IN [0, 30] \
             AND PROB_RNN(Tr{oid}, Tr0, TIME) > 0"
        );
        let expected = Quantifier::Exists.holds(&rev.rnn_intervals(Oid(oid)).unwrap(), w);
        assert_eq!(
            s.execute(&stmt).unwrap(),
            QueryOutput::Boolean(expected),
            "oid {oid}"
        );
    }
}

#[test]
fn reverse_and_forward_relations_are_distinct_but_consistent() {
    let trs = workload(25, 99);
    let w = TimeInterval::new(WINDOW.0, WINDOW.1);
    let r = 0.5;
    let rev = ReverseNnEngine::new(&trs, Oid(0), w, r).unwrap();
    // Consistency: q is a possible NN of i exactly when, in i's forward
    // engine, q's function enters i's band — validated against a fresh
    // forward engine built by hand.
    let q_tr = trs.iter().find(|t| t.oid() == Oid(0)).unwrap();
    for tr in trs.iter().take(8) {
        if tr.oid() == Oid(0) {
            continue;
        }
        let fs = difference_distances(tr, &trs, &w).unwrap();
        let fwd = QueryEngine::new(tr.oid(), fs, r);
        assert_eq!(
            rev.rnn_intervals(tr.oid()),
            fwd.nonzero_intervals(q_tr.oid()),
            "perspective {}",
            tr.oid()
        );
    }
}

#[test]
fn all_pairs_covers_every_object_and_matches_singles() {
    let trs = workload(15, 3);
    let w = TimeInterval::new(WINDOW.0, WINDOW.1);
    let pairs = all_pairs_nn(&trs, w, 0.5).unwrap();
    assert_eq!(pairs.len(), trs.len());
    for p in &pairs {
        // Sequences tile the window.
        assert!((p.sequence.first().unwrap().1.start() - w.start()).abs() < 1e-9);
        assert!((p.sequence.last().unwrap().1.end() - w.end()).abs() < 1e-9);
    }
    // Cross-check one subject against a hand-built engine.
    let subject = &trs[4];
    let fs = difference_distances(subject, &trs, &w).unwrap();
    let engine = QueryEngine::new(subject.oid(), fs, 0.5);
    let own = pairs.iter().find(|p| p.subject == subject.oid()).unwrap();
    assert_eq!(own.sequence, engine.continuous_nn_answer());
}

#[test]
fn hetero_server_path_on_mixed_fleet() {
    let server = ModServer::new();
    let trs = workload(30, 11);
    // Radii alternate between tight GPS (0.1) and loose cell-tower (1.5).
    for (k, tr) in trs.into_iter().enumerate() {
        let r = if k % 2 == 0 { 0.1 } else { 1.5 };
        server
            .register(UncertainTrajectory::with_uniform_pdf(tr, r).unwrap())
            .unwrap();
    }
    let w = TimeInterval::new(WINDOW.0, WINDOW.1);
    let h = server.hetero_engine(Oid(0), w).unwrap();
    let stats = h.stats();
    assert_eq!(stats.total, 29);
    assert!(stats.kept >= 1, "someone must be possible");
    assert!(stats.kept <= stats.total);
    // Instant probabilities form a distribution.
    let probs = h.probabilities_at(15.0).unwrap();
    let sum: f64 = probs.iter().map(|(_, p)| p).sum();
    assert!((sum - 1.0).abs() < 1e-2, "sum {sum}");
    // Every positive-probability object is possible at that instant.
    for (oid, p) in &probs {
        if *p > 0.0 {
            assert_eq!(h.possible_at(*oid, 15.0), Some(true), "{oid}");
        }
    }
}

#[test]
fn hetero_reduces_to_homogeneous_on_equal_radii() {
    let trs = workload(20, 42);
    let w = TimeInterval::new(WINDOW.0, WINDOW.1);
    let r = 0.5;
    let q_tr = trs.iter().find(|t| t.oid() == Oid(0)).unwrap();
    let fs = difference_distances(q_tr, &trs, &w).unwrap();
    let hom = QueryEngine::new(Oid(0), fs.clone(), r);
    let het = HeteroEngine::new(
        Oid(0),
        fs.iter()
            .map(|f| HeteroCandidate {
                f: f.clone(),
                radius: r,
            })
            .collect(),
        r,
    );
    for f in fs.iter().take(10) {
        let a = window_fraction(&hom.nonzero_intervals(f.owner()).unwrap(), hom.window());
        let b = window_fraction(&het.possible_intervals(f.owner()).unwrap(), het.window());
        assert!((a - b).abs() < 1e-6, "{}: {a} vs {b}", f.owner());
    }
}

#[test]
fn knn_prefixes_nest_and_match_crisp_nn() {
    let s = server_with(25, 5, 0.5);
    let w = TimeInterval::new(WINDOW.0, WINDOW.1);
    let k1 = s.knn_answer(Oid(0), w, 1).unwrap();
    let k3 = s.knn_answer(Oid(0), w, 3).unwrap();
    // The 1-NN answer is the prefix of the 3-NN answer everywhere.
    for probe in 0..100 {
        let t = w.start() + (probe as f64 + 0.5) * w.len() / 100.0;
        let a = k1.knn_at(t).unwrap();
        let b = k3.knn_at(t).unwrap();
        assert_eq!(a[0], b[0], "t={t}");
    }
    // And equals the crisp continuous NN answer.
    let crisp = s.continuous_nn(Oid(0), w).unwrap();
    for (oid, iv) in &crisp.sequence {
        let mid = iv.midpoint();
        assert_eq!(k1.knn_at(mid).unwrap()[0], *oid, "t={mid}");
    }
}

#[test]
fn theorem_1_holds_on_generated_workloads() {
    let trs = workload(20, 13);
    let w = TimeInterval::new(WINDOW.0, WINDOW.1);
    let q_tr = trs.iter().find(|t| t.oid() == Oid(0)).unwrap();
    let fs = difference_distances(q_tr, &trs, &w).unwrap();
    let engine = QueryEngine::new(Oid(0), fs.clone(), 0.5);
    let crisp = continuous_knn(&fs, 3);
    let agreement = uncertain_nn::core::topk::semantics_agreement(&engine, &crisp, 3, 120);
    assert!(agreement > 0.93, "agreement {agreement}");
}

#[test]
fn threshold_statements_on_workload() {
    let s = server_with(30, 17, 0.5);
    // Threshold statements narrow the §4 answers: every object passing
    // `> 0.5` also passes `> 0`.
    let strict = s
        .execute(
            "SELECT * FROM MOD WHERE ATLEAST 0.1 OF TIME IN [0, 30] \
             AND PROB_NN(*, Tr0, TIME) > 0.5",
        )
        .unwrap();
    let loose = s
        .execute(
            "SELECT * FROM MOD WHERE ATLEAST 0.1 OF TIME IN [0, 30] \
             AND PROB_NN(*, Tr0, TIME) > 0",
        )
        .unwrap();
    let (QueryOutput::Objects(strict), QueryOutput::Objects(loose)) = (strict, loose) else {
        panic!("expected Objects")
    };
    let loose_ids: Vec<Oid> = loose.iter().map(|(o, _)| *o).collect();
    for (oid, _) in &strict {
        assert!(loose_ids.contains(oid), "{oid} in strict but not loose");
    }
}
