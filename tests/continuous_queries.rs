//! End-to-end and property tests of the standing-query subsystem: the
//! QL registration surface, the per-subscription change feed, and the
//! core acceptance property — `answer ⊕ delta` folded over any mutation
//! interleaving equals a fresh exhaustive evaluation of the final
//! contents, bit-identically, for every prefilter backend.

use proptest::prelude::*;
use uncertain_nn::core::answer::AnswerSet;
use uncertain_nn::core::probrows::ProbRowSet;
use uncertain_nn::modb::subscription::SubAnswer;
use uncertain_nn::modb::{PrefilterPolicy, QueryPlanner, SubscriptionInfo, SubscriptionStats};
use uncertain_nn::prelude::*;
use unn_traj::uncertain::common_pdf_kind;

const WINDOW: (f64, f64) = (0.0, 60.0);
const RADIUS: f64 = 0.5;

fn make_tr(oid: u64, wps: &[(f64, f64)]) -> UncertainTrajectory {
    let n = wps.len().max(2);
    let step = (WINDOW.1 - WINDOW.0) / (n - 1) as f64;
    let triples: Vec<(f64, f64, f64)> = wps
        .iter()
        .cycle()
        .take(n)
        .enumerate()
        .map(|(k, (x, y))| (*x, *y, WINDOW.0 + k as f64 * step))
        .collect();
    UncertainTrajectory::with_uniform_pdf(
        Trajectory::from_triples(Oid(oid), &triples).unwrap(),
        RADIUS,
    )
    .unwrap()
}

fn straight(oid: u64, y: f64) -> UncertainTrajectory {
    make_tr(oid, &[(0.0, y), (30.0, y)])
}

/// Fresh exhaustive evaluation of a standing query against the server's
/// current contents — the ground truth every maintained answer must
/// equal bit-for-bit.
fn fresh_answer(server: &ModServer, query: Oid, rank: Option<usize>) -> AnswerSet {
    let engine = QueryPlanner::new(PrefilterPolicy::Exhaustive)
        .plan(
            server.store().snapshot(),
            query,
            TimeInterval::new(WINDOW.0, WINDOW.1),
        )
        .expect("plans")
        .build_engine()
        .expect("builds");
    match rank {
        Some(k) => engine.ranked_answer_set(k),
        None => engine.answer_set(),
    }
}

/// Fresh exhaustive probability-row evaluation (forward threshold or
/// reverse) at the registry's current sampling density — the ground
/// truth of the row subscriptions.
fn fresh_rows(server: &ModServer, query: Oid, reverse: bool) -> ProbRowSet {
    let samples = server.subscription_registry().row_samples();
    let snapshot = server.store().snapshot();
    let kind = common_pdf_kind(&snapshot)
        .expect("shared pdf")
        .expect("populated");
    let kernel = ColumnKernel::new(kind.convolve_with(&kind).as_ref());
    let plan = QueryPlanner::new(PrefilterPolicy::Exhaustive)
        .plan(snapshot, query, TimeInterval::new(WINDOW.0, WINDOW.1))
        .expect("plans");
    if reverse {
        plan.build_reverse_engine()
            .expect("builds")
            .prob_row_set_kernel(&kernel, samples)
    } else {
        plan.build_engine()
            .expect("builds")
            .prob_row_set_kernel(&kernel, samples)
    }
}

/// The maintained answer, expected to be intervals.
fn maintained_intervals(server: &ModServer, name: &str) -> AnswerSet {
    match server.subscription_answer(name).unwrap() {
        SubAnswer::Intervals(a) => a,
        other => panic!("expected intervals, got {other:?}"),
    }
}

/// The maintained answer, expected to be rows.
fn maintained_rows(server: &ModServer, name: &str) -> ProbRowSet {
    match server.subscription_answer(name).unwrap() {
        SubAnswer::Rows(r) => r,
        other => panic!("expected rows, got {other:?}"),
    }
}

#[test]
fn register_unregister_show_via_the_query_language() {
    let server = ModServer::new();
    server
        .register_all((0..6).map(|k| straight(k, k as f64)))
        .unwrap();
    let reg = server
        .execute(
            "REGISTER CONTINUOUS SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
             AND PROB_NN(*, Tr0, TIME) > 0 AS near0",
        )
        .unwrap();
    let info = match reg {
        QueryOutput::Registered(info) => info,
        other => panic!("expected Registered, got {other:?}"),
    };
    assert_eq!(info.name, "near0");
    assert!(info.entries >= 1);
    // SHOW lists it.
    match server.execute("SHOW SUBSCRIPTIONS").unwrap() {
        QueryOutput::Subscriptions(subs) => {
            assert_eq!(subs.len(), 1);
            assert_eq!(subs[0].name, "near0");
            assert!(subs[0].statement.contains("PROB_NN"));
        }
        other => panic!("expected Subscriptions, got {other:?}"),
    }
    // Duplicate name refused.
    assert!(server
        .execute(
            "REGISTER CONTINUOUS SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
             AND PROB_NN(*, Tr1, TIME) > 0 AS near0",
        )
        .is_err());
    // RNN and threshold statements register through the row ladder now.
    assert!(matches!(
        server.execute(
            "REGISTER CONTINUOUS SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
             AND PROB_RNN(*, Tr0, TIME) > 0 AS rev",
        ),
        Ok(QueryOutput::Registered(_))
    ));
    assert!(matches!(
        server.execute(
            "REGISTER CONTINUOUS SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
             AND PROB_NN(*, Tr0, TIME) > 0.5 AS thresh",
        ),
        Ok(QueryOutput::Registered(_))
    ));
    // The one remaining unsupported shape: RANK + positive threshold.
    let err = server
        .execute(
            "REGISTER CONTINUOUS SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
             AND PROB_NN(*, Tr0, TIME, RANK 2) > 0.5 AS rankthresh",
        )
        .unwrap_err();
    assert!(err.to_string().contains("RANK"), "{err}");
    // A typo'd UNREGISTER hints at the nearest registered name…
    let err = server.execute("UNREGISTER naer0").unwrap_err();
    assert!(
        err.to_string().contains("did you mean 'near0'"),
        "nearest-name hint expected: {err}"
    );
    // …the real name drops, and a second drop errors (no similar name
    // remains, so no hint).
    assert_eq!(
        server.execute("UNREGISTER near0").unwrap(),
        QueryOutput::Unregistered("near0".into())
    );
    let err = server.execute("UNREGISTER near0").unwrap_err();
    assert!(err.to_string().contains("no subscription named"), "{err}");
    server.execute("UNREGISTER rev").unwrap();
    server.execute("UNREGISTER thresh").unwrap();
    match server.execute("SHOW SUBSCRIPTIONS").unwrap() {
        QueryOutput::Subscriptions(subs) => assert!(subs.is_empty()),
        other => panic!("expected Subscriptions, got {other:?}"),
    }
}

#[test]
fn change_feed_streams_only_the_changed_objects() {
    let server = ModServer::new();
    server
        .register_all([
            straight(0, 0.0),
            straight(1, 1.0),
            straight(2, 2.0),
            straight(3, 500.0),
        ])
        .unwrap();
    server
        .subscribe(
            "near0",
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0",
        )
        .unwrap();
    assert_eq!(server.poll_subscription("near0").unwrap(), vec![]);
    // A newcomer inside the band but above the envelope (the NN is still
    // Tr1) shows up as exactly one upsert; the unchanged qualifiers do
    // not reappear in the delta.
    server.register(straight(7, 1.5)).unwrap();
    let deltas = server.poll_subscription("near0").unwrap();
    assert_eq!(deltas.len(), 1);
    let d = deltas[0].as_intervals().unwrap();
    assert_eq!(d.upserts.len(), 1, "{deltas:?}");
    assert_eq!(d.upserts[0].oid, Oid(7));
    assert!(d.removed.is_empty());
    // Far churn produces no deltas at all.
    server.register(straight(90, 44_000.0)).unwrap();
    server.store().remove(Oid(90)).unwrap();
    assert_eq!(server.poll_subscription("near0").unwrap(), vec![]);
    let info = &server.subscriptions()[0];
    // Far churn is discarded either way: by the cached proof (skipped)
    // or, cheaper still, by the registry's guard index before the share
    // is touched at all (skipped_unvisited).
    assert!(
        info.stats.skipped + info.stats.skipped_unvisited >= 2,
        "{info:?}"
    );
    // Removing the newcomer streams its removal.
    server.store().remove(Oid(7)).unwrap();
    let deltas = server.poll_subscription("near0").unwrap();
    assert_eq!(deltas.len(), 1);
    assert_eq!(deltas[0].as_intervals().unwrap().removed, vec![Oid(7)]);
    // Unknown names error.
    assert!(server.poll_subscription("bogus").is_err());
}

#[test]
fn single_commit_update_is_one_maintenance_round() {
    let server = ModServer::new();
    server
        .register_all([
            straight(0, 0.0),
            straight(1, 1.0),
            straight(2, 3.0),
            straight(3, 9.0),
        ])
        .unwrap();
    server
        .subscribe(
            "near0",
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0",
        )
        .unwrap();
    // One GPS correction through the single-commit update op.
    server.store().update(straight(1, 1.5));
    let info = &server.subscriptions()[0];
    assert_eq!(
        info.stats.skipped + info.stats.patched + info.stats.rebuilt,
        1,
        "one commit must be one maintenance round: {info:?}"
    );
    assert_eq!(
        maintained_intervals(&server, "near0"),
        fresh_answer(&server, Oid(0), None)
    );
}

#[test]
fn truncated_delta_log_forces_a_full_rebuild() {
    let server = ModServer::new();
    server
        .register_all((0..8).map(|k| straight(k, k as f64)))
        .unwrap();
    server
        .subscribe(
            "near0",
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0",
        )
        .unwrap();
    // Shrink the log so one bulk commit blows past it: the registry sees
    // `ops_since == None` and must re-plan from scratch.
    server.store().set_delta_log_capacity(2);
    server
        .register_all((100..108).map(|k| straight(k, 0.25 + (k - 100) as f64 * 0.1)))
        .unwrap();
    let info = &server.subscriptions()[0];
    assert!(info.stats.rebuilt >= 1, "truncation must rebuild: {info:?}");
    assert!(info.error.is_none(), "{info:?}");
    assert_eq!(
        maintained_intervals(&server, "near0"),
        fresh_answer(&server, Oid(0), None),
        "the rebuild must land on the fresh answer"
    );
    // The newcomers actually qualified (the rebuild saw them).
    assert!(maintained_intervals(&server, "near0")
        .intervals_of(Oid(100))
        .is_some());
}

#[test]
fn row_subscription_counters_are_observable() {
    let server = ModServer::new();
    server.subscription_registry().set_row_samples(32);
    server
        .register_all([
            straight(0, 0.0),
            straight(1, 1.0),
            straight(2, 3.0),
            straight(3, 500.0),
        ])
        .unwrap();
    server
        .subscribe(
            "hot",
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0.3",
        )
        .unwrap();
    server
        .subscribe(
            "rev",
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_RNN(*, Tr0, TIME) > 0",
        )
        .unwrap();
    // Far churn: the threshold sub skips outright; the reverse sub
    // carries every untouched perspective.
    server.register(straight(90, 44_000.0)).unwrap();
    server.store().remove(Oid(90)).unwrap();
    // Near churn: both patch, recomputing rows incrementally.
    server.register(straight(7, 1.5)).unwrap();
    let by_name = |name: &str| {
        server
            .subscriptions()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap()
    };
    let hot = by_name("hot");
    assert!(
        hot.stats.skipped + hot.stats.skipped_unvisited >= 2,
        "{hot:?}"
    );
    assert_eq!(hot.stats.patched, 1, "{hot:?}");
    assert!(hot.stats.rows_patched >= 1, "{hot:?}");
    let rev = by_name("rev");
    assert!(rev.stats.perspectives_skipped >= 4, "{rev:?}");
    assert!(rev.stats.rows_patched >= 1, "{rev:?}");
    assert!(rev.error.is_none(), "{rev:?}");
    // Both stayed bit-identical to fresh exhaustive evaluations.
    assert_eq!(
        maintained_rows(&server, "hot"),
        fresh_rows(&server, Oid(0), false)
    );
    assert_eq!(
        maintained_rows(&server, "rev"),
        fresh_rows(&server, Oid(0), true)
    );
}

#[test]
fn clearing_the_store_empties_every_subscription() {
    let server = ModServer::new();
    server
        .register_all((0..5).map(|k| straight(k, k as f64)))
        .unwrap();
    server
        .subscribe(
            "near0",
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0",
        )
        .unwrap();
    server.store().clear();
    let info = &server.subscriptions()[0];
    assert!(info.error.is_some(), "{info:?}");
    assert!(server.subscription_answer("near0").unwrap().is_empty());
    let deltas = server.poll_subscription("near0").unwrap();
    assert!(
        deltas
            .iter()
            .any(|d| !d.as_intervals().unwrap().removed.is_empty()),
        "the emptying must stream removals: {deltas:?}"
    );
}

/// Places an object at height `y` over the whole window.
type Place = fn(u64, f64) -> UncertainTrajectory;

/// The stale-reuse scene: the query Tr0 at y = 0 and A = Tr1, B = Tr2,
/// C = Tr3 at y = 1, 3.5 and 6.5, placed by `place`. `LE = 1`, so the
/// `4r` band reaches y = 3: B is a candidate outside it, C is beyond
/// every guard. Moving B to y = 5 stays outside the band and the guard;
/// moving A to y = 10 then makes B the nearest neighbour, with C inside
/// its band (`LE = 5`, band to 7).
fn stale_reuse_server(
    place: Place,
    name: &str,
    statement: &str,
    policy: PrefilterPolicy,
) -> ModServer {
    let server = ModServer::new();
    server
        .register_all([place(0, 0.0), place(1, 1.0), place(2, 3.5), place(3, 6.5)])
        .unwrap();
    let query = uncertain_nn::modb::ql::parser::parse(statement).unwrap();
    server
        .subscription_registry()
        .register(server.store(), name, query, policy)
        .unwrap();
    server
}

/// Moving along x at 1 mi/min over the whole window, at height `y`.
fn cruising(oid: u64, y: f64) -> UncertainTrajectory {
    make_tr(oid, &[(0.0, y), (60.0, y)])
}

/// Parked at `(0, y)` for the whole window.
fn parked(oid: u64, y: f64) -> UncertainTrajectory {
    make_tr(oid, &[(0.0, y), (0.0, y)])
}

/// The two geometries of the stale-reuse scene: moving objects under the
/// default prefilter, and parked ones with every object a candidate.
fn stale_reuse_cases() -> [(Place, PrefilterPolicy); 2] {
    [
        (cruising, PrefilterPolicy::default()),
        (parked, PrefilterPolicy::Exhaustive),
    ]
}

fn share_stats(server: &ModServer, name: &str) -> SubscriptionStats {
    server.subscription_registry().info(name).unwrap().stats
}

/// A skip that absorbs an update of a candidate leaves that candidate's
/// old function in the carried engine; the next patch must not reuse
/// it. Here B's update is skipped (B is no band survivor, and its new
/// place is outside every guard), and A's move patches: reusing B's
/// function at y = 3.5 puts the envelope there, so C (at 6.5) drops out
/// and B holds `P = 1`, where a cold evaluation gives B ≈ 0.9996 and
/// C ≈ 0.00045.
#[test]
fn a_skipped_update_is_never_reused_stale_by_threshold_rows() {
    for (place, policy) in stale_reuse_cases() {
        let server = stale_reuse_server(
            place,
            "hot",
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0.3",
            policy,
        );
        server.store().update(place(2, 5.0));
        assert_eq!(share_stats(&server, "hot").skipped, 1, "{policy}");
        server.store().update(place(1, 10.0));
        let stats = share_stats(&server, "hot");
        assert_eq!(
            (stats.patched, stats.rebuilt),
            (1, 0),
            "{policy}: {stats:?}"
        );
        let fresh = fresh_rows(&server, Oid(0), false);
        assert_eq!(
            fresh.rows().iter().map(|r| r.oid).collect::<Vec<_>>(),
            vec![Oid(2), Oid(3)],
            "{policy}"
        );
        assert_eq!(maintained_rows(&server, "hot"), fresh, "{policy}");
    }
}

/// The `> 0` twin: a banded interval share clears the removal of a
/// candidate outside the band (the band-survivor rule), so it skips B's
/// update too — and its next patch must build B afresh.
#[test]
fn a_skipped_update_is_never_reused_stale_by_banded_intervals() {
    for (place, policy) in stale_reuse_cases() {
        let server = stale_reuse_server(
            place,
            "near",
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0",
            policy,
        );
        server.store().update(place(2, 5.0));
        let stats = share_stats(&server, "near");
        assert_eq!(
            (stats.skipped, stats.patched),
            (1, 0),
            "{policy}: {stats:?}"
        );
        server.store().update(place(1, 10.0));
        let fresh = fresh_answer(&server, Oid(0), None);
        assert_eq!(
            fresh.entries().iter().map(|e| e.oid).collect::<Vec<_>>(),
            vec![Oid(2), Oid(3)],
            "{policy}"
        );
        assert_eq!(maintained_intervals(&server, "near"), fresh, "{policy}");
    }
}

#[test]
fn patches_that_push_nothing_are_counted_quiet() {
    let server = ModServer::new();
    server
        .register_all((0..5).map(|k| straight(k, k as f64)))
        .unwrap();
    server
        .subscribe(
            "hot",
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0.3",
        )
        .unwrap();
    let counter = |name: &str| server.metrics_snapshot(None).value(name).unwrap();
    // Re-sending the nearest neighbour unchanged patches (its removal is
    // a band survivor's) and changes nothing.
    server.store().update(straight(1, 1.0));
    assert_eq!(counter("ladder_patched_total"), 1);
    assert_eq!(counter("subs_ladder_patched_quiet_total"), 1);
    assert!(server.poll_subscription("hot").unwrap().is_empty());
    // A newcomer nearer than Tr1 changes the rows: a patch, not quiet.
    server.store().insert(straight(9, 0.5)).unwrap();
    assert_eq!(counter("ladder_patched_total"), 2);
    assert_eq!(counter("subs_ladder_patched_quiet_total"), 1);
    assert_eq!(server.poll_subscription("hot").unwrap().len(), 1);
}

/// One scripted mutation: (kind, target selector, waypoints for inserts).
type OpSpec = (usize, usize, Vec<(f64, f64)>);

fn arb_waypoints() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0..50.0f64, 0.0..50.0f64), 4)
}

fn arb_script() -> impl Strategy<Value = (Vec<Vec<(f64, f64)>>, Vec<OpSpec>)> {
    (
        prop::collection::vec(arb_waypoints(), 8..=14),
        prop::collection::vec((0usize..4, 0usize..64, arb_waypoints()), 4..=10),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property: across random interleavings of insert /
    /// remove / single-commit update, the maintained answer of each standing query (plain and ranked)
    /// equals a fresh exhaustive evaluation bit-for-bit, and folding the
    /// emitted deltas over the initial answer reproduces it.
    #[test]
    fn folded_deltas_equal_fresh_exhaustive_evaluation(script in arb_script()) {
        let (base, ops) = script;
        let policy = PrefilterPolicy::Scan { epochs: 6 };
            let server = ModServer::with_policy(policy);
            // Sparse row sampling keeps the per-op P^WD quadrature cost
            // of the row subscriptions proportionate to a property test
            // (the density knob trades sharpness for maintenance cost;
            // the bit-identity property is density-independent).
            server.subscription_registry().set_row_samples(12);
            server
                .register_all(
                    base.iter()
                        .enumerate()
                        .map(|(i, wps)| make_tr(i as u64, wps)),
                )
                .unwrap();
            server
                .subscribe(
                    "plain",
                    "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
                     AND PROB_NN(*, Tr0, TIME) > 0",
                )
                .unwrap();
            server
                .subscribe(
                    "ranked",
                    "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
                     AND PROB_NN(*, Tr1, TIME, RANK 2) > 0",
                )
                .unwrap();
            // The row ladder rides the same interleavings: a threshold
            // subscription over Tr0 on every backend, and a reverse one
            // over Tr1 on the first backend only — reverse planning is
            // always exhaustive (every perspective needs the whole MOD),
            // so the prefilter ablation does not reach it, and its
            // sampled evaluation dominates the proptest's budget.
            server
                .subscribe(
                    "hot",
                    "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
                     AND PROB_NN(*, Tr0, TIME) > 0.25",
                )
                .unwrap();
            let with_reverse = matches!(policy, PrefilterPolicy::Scan { .. });
            if with_reverse {
                server
                    .subscribe(
                        "rev",
                        "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
                         AND PROB_RNN(*, Tr1, TIME) > 0",
                    )
                    .unwrap();
            }
            let names: &[&str] = if with_reverse {
                &["plain", "ranked", "hot", "rev"]
            } else {
                &["plain", "ranked", "hot"]
            };
            let mut folded: Vec<SubAnswer> = names
                .iter()
                .map(|n| server.subscription_answer(n).unwrap())
                .collect();
            let mut next_oid = base.len() as u64;
            for (kind, target, wps) in &ops {
                match kind {
                    0 => {
                        server.register(make_tr(next_oid, wps)).unwrap();
                        next_oid += 1;
                    }
                    1 => {
                        let oids = server.store().oids();
                        // Keep the two query objects and a quorum alive.
                        if oids.len() > 4 {
                            let victim = oids[2 + target % (oids.len() - 2)];
                            server.store().remove(victim).unwrap();
                        }
                    }
                    2 => {
                        // Single-commit GPS correction of a random
                        // existing object (possibly a query object —
                        // exercising the rebuild path).
                        let oids = server.store().oids();
                        let victim = oids[target % oids.len()];
                        let mut moved = wps.clone();
                        moved[0].0 += 1.0;
                        server.store().update(make_tr(victim.0, &moved));
                    }
                    _ => {
                        server
                            .register_all([
                                make_tr(next_oid, wps),
                                make_tr(next_oid + 1, &wps.iter().map(|(x, y)| (x + 1.0, y + 1.0)).collect::<Vec<_>>()),
                            ])
                            .unwrap();
                        next_oid += 2;
                    }
                }
                for (acc, name) in folded.iter_mut().zip(names) {
                    for d in server.poll_subscription(name).unwrap() {
                        *acc = acc.apply(&d);
                    }
                }
            }
            for (name, folded) in names.iter().zip(&folded) {
                let maintained = server.subscription_answer(name).unwrap();
                let info = server
                    .subscriptions()
                    .into_iter()
                    .find(|s| s.name == *name)
                    .unwrap();
                prop_assert!(
                    info.error.is_none(),
                    "{policy:?}/{name}: parked on {:?}",
                    info.error
                );
                let fresh = match *name {
                    "plain" => SubAnswer::Intervals(fresh_answer(&server, Oid(0), None)),
                    "ranked" => SubAnswer::Intervals(fresh_answer(&server, Oid(1), Some(2))),
                    "hot" => SubAnswer::Rows(fresh_rows(&server, Oid(0), false)),
                    "rev" => SubAnswer::Rows(fresh_rows(&server, Oid(1), true)),
                    _ => unreachable!(),
                };
                prop_assert_eq!(
                    &maintained,
                    &fresh,
                    "{:?}/{}: maintained != fresh exhaustive",
                    policy,
                    name
                );
                prop_assert_eq!(
                    folded,
                    &maintained,
                    "{:?}/{}: folded deltas != maintained answer",
                    policy,
                    name
                );
            }
    }
}

/// The info rows stay coherent: every routed commit lands in exactly one
/// of the three ladder counters.
#[test]
fn maintenance_counters_partition_the_commits() {
    let server = ModServer::new();
    server
        .register_all((0..10).map(|k| straight(k, 2.0 * k as f64)))
        .unwrap();
    server
        .subscribe(
            "near0",
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0",
        )
        .unwrap();
    let base_epoch = server.store().epoch();
    let commits = 12u64;
    for k in 0..commits {
        match k % 3 {
            0 => {
                server.register(straight(100 + k, 70_000.0)).unwrap();
            }
            1 => {
                server.store().update(straight(2, 3.0 + 0.01 * k as f64));
            }
            _ => {
                server.store().update(straight(0, 0.01 * k as f64));
            }
        }
        // The partition holds after every single commit, not just at the
        // end: sequentially each commit is one completed round, so the
        // two visit classes always sum to the commits routed so far.
        let SubscriptionInfo { stats, .. } = server.subscriptions().remove(0);
        assert_eq!(
            stats.visited + stats.skipped_unvisited,
            server.store().epoch() - base_epoch,
            "after commit {k}: {stats:?}"
        );
    }
    let SubscriptionInfo { stats, .. } = server.subscriptions().remove(0);
    // Every round that examines the share lands in exactly one ladder
    // counter; every other round was pruned by the guard index. Under
    // batch window 1 there is one round per commit, so the two visit
    // classes partition the commits exactly.
    assert_eq!(
        stats.visited,
        stats.skipped + stats.patched + stats.rebuilt,
        "{stats:?}"
    );
    assert_eq!(
        stats.visited + stats.skipped_unvisited,
        commits,
        "{stats:?}"
    );
    // A commit the index pruned leaves the share's watermark behind;
    // the next visit folds it into one ladder pass. The final commit
    // updates the query object (a guaranteed visit), so by now every
    // pruned commit has been folded exactly once.
    assert_eq!(stats.batched_commits, stats.skipped_unvisited, "{stats:?}");
    assert!(
        stats.skipped_unvisited >= 1,
        "far registrations prune unvisited: {stats:?}"
    );
    assert!(stats.patched >= 1, "{stats:?}");
    assert!(
        stats.rebuilt >= 1,
        "query-object updates rebuild: {stats:?}"
    );
    assert_eq!(
        maintained_intervals(&server, "near0"),
        fresh_answer(&server, Oid(0), None)
    );
}

/// The partition invariant under true concurrency: however rounds and
/// commits interleave, no reader ever observes
/// `visited + skipped_unvisited` exceeding the commits routed so far.
/// The round counter only advances once a round's effects are
/// published, and an in-flight round pre-claims its own slot, so the
/// skipped-unvisited arithmetic never double-counts a round that a
/// concurrent visit is still absorbing.
#[test]
fn maintenance_counters_never_overcount_mid_round() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let server = ModServer::new();
    server
        .register_all((0..10).map(|k| straight(k, 2.0 * k as f64)))
        .unwrap();
    server
        .subscribe(
            "near0",
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0",
        )
        .unwrap();
    let base_epoch = server.store().epoch();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server_ref = &server;
        // Near writer: every update lands inside the share's band, so
        // its rounds visit and walk the ladder.
        let near = scope.spawn(move || {
            for k in 0..40u64 {
                server_ref
                    .store()
                    .update(straight(2, 3.0 + 0.01 * k as f64));
            }
        });
        // Far writer: provably outside the corridor guard, so its
        // commits are pruned unvisited once the guard is published.
        let far = scope.spawn(move || {
            for k in 0..40u64 {
                let oid = 10_000 + k;
                server_ref
                    .register(straight(oid, 70_000.0 + k as f64))
                    .unwrap();
                if k % 2 == 0 {
                    server_ref.store().remove(Oid(oid)).unwrap();
                }
            }
        });
        // Reader: counters first, commit count second. Reading the
        // epoch *after* the stats biases the race against the
        // invariant — a round publishing between the two reads only
        // raises the right-hand side.
        let done_ref = &done;
        let reader = scope.spawn(move || {
            while !done_ref.load(Ordering::Acquire) {
                let SubscriptionInfo { stats, .. } = server_ref.subscriptions().remove(0);
                let commits = server_ref.store().epoch() - base_epoch;
                assert!(
                    stats.visited + stats.skipped_unvisited <= commits,
                    "mid-round overcount: visited {} + skipped_unvisited {} > commits {commits}",
                    stats.visited,
                    stats.skipped_unvisited,
                );
            }
        });
        near.join().unwrap();
        far.join().unwrap();
        done.store(true, Ordering::Release);
        reader.join().unwrap();
    });
    // A final query-object update forces a visit that folds every
    // outstanding pruned commit; the maintained answer must equal a
    // fresh exhaustive evaluation bit-for-bit.
    server.store().update(straight(0, 0.123));
    let SubscriptionInfo { stats, .. } = server.subscriptions().remove(0);
    assert!(stats.visited >= 1, "{stats:?}");
    assert!(
        stats.visited + stats.skipped_unvisited <= server.store().epoch() - base_epoch,
        "{stats:?}"
    );
    assert_eq!(
        maintained_intervals(&server, "near0"),
        fresh_answer(&server, Oid(0), None)
    );
}
