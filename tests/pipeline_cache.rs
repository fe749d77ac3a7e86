//! Integration tests of the snapshot → prefilter → envelope → execute
//! pipeline: the epoch-keyed engine cache's invalidation contract, and
//! the acceptance criterion that the default prefiltered + cached path
//! answers **identically** to the naive exhaustive path across every
//! query category.

use std::sync::Arc;
use uncertain_nn::modb::PrefilterPolicy;
use uncertain_nn::prelude::*;

fn fleet(n: usize, seed: u64) -> Vec<UncertainTrajectory> {
    generate_uncertain(&WorkloadConfig::with_objects(n, seed), 0.5)
}

fn server(n: usize, seed: u64) -> ModServer {
    let s = ModServer::new();
    s.register_all(fleet(n, seed)).unwrap();
    s
}

#[test]
fn snapshot_is_shared_and_epoch_stamped() {
    let s = server(20, 5);
    let a = s.store().snapshot();
    let b = s.store().snapshot();
    assert!(
        Arc::ptr_eq(&a, &b),
        "unchanged store must reuse the snapshot"
    );
    assert_eq!(a.epoch(), s.store().epoch());
}

#[test]
fn repeated_queries_hit_the_cache() {
    let s = server(30, 7);
    let w = TimeInterval::new(0.0, 60.0);
    let (_, stats1) = s.engine(Oid(0), w).unwrap();
    assert!(!stats1.cache_hit, "first query must build");
    let (_, stats2) = s.engine(Oid(0), w).unwrap();
    assert!(stats2.cache_hit, "second query must hit the cache");
    assert_eq!(stats1.prefiltered, stats2.prefiltered);
    assert_eq!(stats1.kept, stats2.kept);
    assert_eq!(stats1.envelope_pieces, stats2.envelope_pieces);
    let cs = s.metrics_snapshot(Some("cache_"));
    let (hits, misses) = (cs.value("cache_hits_total"), cs.value("cache_misses_total"));
    assert!(hits >= Some(1) && misses >= Some(1), "{cs:?}");
    // A different window or query object is a distinct engine.
    let (_, stats3) = s.engine(Oid(1), w).unwrap();
    assert!(!stats3.cache_hit);
    let (_, stats4) = s.engine(Oid(0), TimeInterval::new(0.0, 30.0)).unwrap();
    assert!(!stats4.cache_hit);
}

#[test]
fn register_and_unregister_bump_the_epoch_and_force_rebuild() {
    let s = server(25, 11);
    let w = TimeInterval::new(0.0, 60.0);
    let e0 = s.store().epoch();
    let before = s.engine(Oid(0), w).unwrap().0.continuous_nn_answer();
    assert!(s.engine(Oid(0), w).unwrap().1.cache_hit);

    // Register a new object hugging the query: the epoch bumps, the
    // cached engine is stale, and the rebuilt answer must see Tr999.
    let query_tr = s.store().get(Oid(0)).unwrap();
    let hugger: Vec<(f64, f64, f64)> = query_tr
        .trajectory()
        .samples()
        .iter()
        .map(|smp| (smp.position.x + 0.05, smp.position.y, smp.time))
        .collect();
    s.register(
        UncertainTrajectory::with_uniform_pdf(
            Trajectory::from_triples(Oid(999), &hugger).unwrap(),
            0.5,
        )
        .unwrap(),
    )
    .unwrap();
    let e1 = s.store().epoch();
    assert!(e1 > e0, "register must bump the epoch");
    let (engine, stats) = s.engine(Oid(0), w).unwrap();
    assert!(!stats.cache_hit, "mutation must invalidate the cache");
    let after = engine.continuous_nn_answer();
    assert!(
        after.iter().all(|(o, _)| *o == Oid(999)),
        "the hugging object must now own the whole answer: {after:?}"
    );
    assert_ne!(before, after);

    // Unregister it again: another epoch bump, another rebuild, and the
    // answer returns to the original.
    s.store().remove(Oid(999)).unwrap();
    assert!(s.store().epoch() > e1, "remove must bump the epoch");
    let (engine, stats) = s.engine(Oid(0), w).unwrap();
    assert!(!stats.cache_hit);
    assert_eq!(engine.continuous_nn_answer(), before);
}

#[test]
fn cached_and_cold_answers_are_identical_across_uq_variants() {
    let s = server(40, 13);
    let w = TimeInterval::new(0.0, 60.0);
    let (_, stats) = s.engine(Oid(0), w).unwrap();
    assert!(!stats.cache_hit);
    let (cached, stats) = s.engine(Oid(0), w).unwrap();
    assert!(stats.cache_hit);
    // The cold side is built outside the cache, over the same snapshot.
    let cold = QueryPlanner::default()
        .plan(s.store().snapshot(), Oid(0), w)
        .unwrap()
        .build_engine()
        .map(Arc::new)
        .unwrap();
    assert!(
        !Arc::ptr_eq(&cold, &cached),
        "the cold engine is a second build"
    );
    let oids: Vec<Oid> = s.store().oids();
    // Every quantifier decides one of these answer values, so equal bits
    // here are equal verdicts under every quantifier.
    let bits = |iv: &IntervalSet| -> Vec<(u64, u64)> {
        iv.spans()
            .iter()
            .map(|s| (s.start().to_bits(), s.end().to_bits()))
            .collect()
    };
    let answer_bits = |a: &AnswerSet| -> Vec<(Oid, Vec<(u64, u64)>)> {
        a.entries()
            .iter()
            .map(|e| (e.oid, bits(&e.intervals)))
            .collect()
    };
    for oid in oids.iter().copied().filter(|o| *o != Oid(0)) {
        assert_eq!(cold.uq11_exists(oid), cached.uq11_exists(oid), "{oid}");
        assert_eq!(
            cold.nonzero_intervals(oid).map(|iv| bits(&iv)),
            cached.nonzero_intervals(oid).map(|iv| bits(&iv)),
            "{oid}"
        );
    }
    assert_eq!(answer_bits(cold.answer()), answer_bits(cached.answer()));
    for k in [1usize, 2, 3] {
        assert_eq!(
            answer_bits(&cold.ranked_answer_set(k)),
            answer_bits(&cached.ranked_answer_set(k)),
            "k={k}"
        );
    }
    assert_eq!(cold.uq31_all(), cached.uq31_all());
    assert_eq!(cold.continuous_nn_answer(), cached.continuous_nn_answer());
}

/// The acceptance criterion: the default prefiltered + cached pipeline
/// answers every query category identically to the exhaustive path.
#[test]
fn prefiltered_pipeline_matches_naive_path_on_all_query_categories() {
    let trs = fleet(60, 17);
    let w = (0.0, 60.0);
    let naive = ModServer::with_policy(PrefilterPolicy::Exhaustive);
    naive.register_all(trs.clone()).unwrap();
    let policy = PrefilterPolicy::Scan { epochs: 8 };
    let fast = ModServer::with_policy(policy);
    fast.register_all(trs.clone()).unwrap();
    let statements = [
            // Category 1: one target, all quantifiers.
            "SELECT Tr7 FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(Tr7, Tr0, TIME) > 0".to_string(),
            "SELECT Tr7 FROM MOD WHERE FORALL TIME IN [0, 60] AND PROB_NN(Tr7, Tr0, TIME) > 0".to_string(),
            "SELECT Tr31 FROM MOD WHERE ATLEAST 0.25 OF TIME IN [0, 60] AND PROB_NN(Tr31, Tr0, TIME) > 0".to_string(),
            "SELECT Tr12 FROM MOD WHERE AT 30 TIME IN [0, 60] AND PROB_NN(Tr12, Tr0, TIME) > 0".to_string(),
            // Category 2: rank-bounded single target.
            "SELECT Tr7 FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(Tr7, Tr0, TIME, RANK 2) > 0".to_string(),
            "SELECT Tr19 FROM MOD WHERE ATLEAST 0.1 OF TIME IN [0, 60] AND PROB_NN(Tr19, Tr0, TIME, RANK 3) > 0".to_string(),
            // Category 3: whole MOD.
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0".to_string(),
            "SELECT * FROM MOD WHERE FORALL TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0".to_string(),
            "SELECT * FROM MOD WHERE ATLEAST 0.4 OF TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0".to_string(),
            // Category 4: whole MOD, rank-bounded.
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME, RANK 2) > 0".to_string(),
            "SELECT * FROM MOD WHERE ATLEAST 0.2 OF TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME, RANK 3) > 0".to_string(),
            // §7 threshold extension.
            "SELECT * FROM MOD WHERE ATLEAST 0.2 OF TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0.5".to_string(),
            // §7 reverse NN.
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_RNN(*, Tr0, TIME) > 0".to_string(),
        ];
    for stmt in &statements {
        let a = naive.execute(stmt).unwrap();
        let b = fast.execute(stmt).unwrap();
        match (a, b) {
            (QueryOutput::Boolean(x), QueryOutput::Boolean(y)) => {
                assert_eq!(x, y, "{policy:?}: {stmt}");
            }
            (QueryOutput::Objects(mut xs), QueryOutput::Objects(mut ys)) => {
                xs.sort_by_key(|(o, _)| *o);
                ys.sort_by_key(|(o, _)| *o);
                let x_ids: Vec<Oid> = xs.iter().map(|(o, _)| *o).collect();
                let y_ids: Vec<Oid> = ys.iter().map(|(o, _)| *o).collect();
                assert_eq!(x_ids, y_ids, "{policy:?}: {stmt}");
                for ((_, fx), (_, fy)) in xs.iter().zip(&ys) {
                    assert!(
                        (fx - fy).abs() < 1e-9,
                        "{policy:?}: fraction {fx} vs {fy} for {stmt}"
                    );
                }
            }
            (a, b) => panic!("{policy:?}: shape mismatch {a:?} vs {b:?} for {stmt}"),
        }
    }
    // The crisp continuous answers agree too.
    let wi = TimeInterval::new(w.0, w.1);
    assert_eq!(
        naive.continuous_nn(Oid(0), wi).unwrap().sequence,
        fast.continuous_nn(Oid(0), wi).unwrap().sequence,
        "{policy:?}"
    );
    assert_eq!(
        naive.knn_answer(Oid(0), wi, 3).unwrap().cells(),
        fast.knn_answer(Oid(0), wi, 3).unwrap().cells(),
        "{policy:?}"
    );
}

/// Regression: `ATLEAST 0 %` holds vacuously for every registered
/// object (fraction 0 + tolerance >= 0), including objects the
/// prefilter dropped — the prefiltered path must agree with the
/// exhaustive engine, not blanket-answer `false`.
#[test]
fn atleast_zero_matches_exhaustive_for_prefiltered_out_objects() {
    let mk = |oid: u64, y: f64| {
        UncertainTrajectory::with_uniform_pdf(
            Trajectory::from_triples(Oid(oid), &[(0.0, y, 0.0), (10.0, y, 10.0)]).unwrap(),
            0.5,
        )
        .unwrap()
    };
    // Tr3 sits 300 miles away: dropped by every prefilter.
    let trs = vec![mk(0, 0.0), mk(1, 1.0), mk(3, 300.0)];
    let stmt = "SELECT Tr3 FROM MOD WHERE ATLEAST 0 % OF TIME IN [0, 10] \
                AND PROB_NN(Tr3, Tr0, TIME) > 0";
    let exists = "SELECT Tr3 FROM MOD WHERE EXISTS TIME IN [0, 10] \
                  AND PROB_NN(Tr3, Tr0, TIME) > 0";
    for policy in [
        PrefilterPolicy::Exhaustive,
        PrefilterPolicy::Scan { epochs: 4 },
    ] {
        let s = ModServer::with_policy(policy);
        s.register_all(trs.clone()).unwrap();
        assert_eq!(
            s.execute(stmt).unwrap(),
            QueryOutput::Boolean(true),
            "{policy:?}: ATLEAST 0 is vacuously true"
        );
        assert_eq!(
            s.execute(exists).unwrap(),
            QueryOutput::Boolean(false),
            "{policy:?}: EXISTS stays false for the far object"
        );
    }
}

#[test]
fn prefilter_actually_prunes_on_spread_out_workloads() {
    let s = server(80, 23);
    let w = TimeInterval::new(0.0, 60.0);
    let (_, stats) = s.engine(Oid(0), w).unwrap();
    assert_eq!(stats.candidates, 79);
    assert!(
        stats.prefiltered < stats.candidates,
        "expected the scan prefilter to drop someone: {stats:?}"
    );
    assert!(stats.kept <= stats.prefiltered);
}

#[test]
fn stale_snapshots_stay_usable_after_mutation() {
    let s = server(10, 31);
    let old = s.store().snapshot();
    s.store().remove(Oid(3)).unwrap();
    // The old snapshot still answers reads at its own epoch.
    assert!(old.contains(Oid(3)));
    let new = s.store().snapshot();
    assert!(!new.contains(Oid(3)));
    assert!(new.epoch() > old.epoch());
}
