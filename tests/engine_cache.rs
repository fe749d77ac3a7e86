//! The engine cache's carry edges, driven through the server: after each
//! store mutation a one-shot forward query is either **carried** (the
//! cached engine's `ForwardProof` clears every op logged since it was
//! built, so the same engine is served) or **missed** (rebuilt), and the
//! `cache_carried_total` / `cache_misses_total` registry counters say
//! which. Whatever the path, the served engine answers exactly like a
//! cold plan + build on the same snapshot.

use std::sync::Arc;
use uncertain_nn::prelude::*;

/// The query Tr0 parks at the origin and its nearest neighbor Tr1 three
/// miles away, so `max LE₁ = 3` and, at `r = 0.5`, the proof's reach is
/// `3 + 4r = 5` miles.
const REACH: f64 = 5.0;
const EPS: f64 = 1e-6;

/// `(carried, missed)` counter moves of one lookup.
const CARRIED: (u64, u64) = (1, 0);
const MISSED: (u64, u64) = (0, 1);

fn window() -> TimeInterval {
    TimeInterval::new(0.0, 60.0)
}

/// An object parked at `(x, 0)` over the whole window.
fn parked(oid: u64, x: f64) -> UncertainTrajectory {
    UncertainTrajectory::with_uniform_pdf(
        Trajectory::from_triples(Oid(oid), &[(x, 0.0, 0.0), (x, 0.0, 60.0)]).unwrap(),
        0.5,
    )
    .unwrap()
}

fn counters(server: &ModServer) -> (u64, u64) {
    let m = server.metrics_snapshot(Some("cache_"));
    let get = |name| m.value(name).expect("a registry counter");
    (get("cache_carried_total"), get("cache_misses_total"))
}

/// Serves Tr0's engine under `policy`, checks it against a cold plan +
/// build on the same snapshot, and returns it with the counter moves.
fn serve(server: &ModServer, policy: PrefilterPolicy) -> (Arc<QueryEngine>, (u64, u64)) {
    let before = counters(server);
    let (engine, _) = server.engine_with_policy(Oid(0), window(), policy).unwrap();
    let after = counters(server);
    let cold = QueryPlanner::new(policy)
        .plan(server.store().snapshot(), Oid(0), window())
        .unwrap()
        .build_engine()
        .unwrap();
    assert_eq!(engine.answer_set(), cold.answer_set());
    assert_eq!(engine.continuous_nn_answer(), cold.continuous_nn_answer());
    (engine, (after.0 - before.0, after.1 - before.1))
}

fn is_candidate(engine: &QueryEngine, oid: u64) -> bool {
    engine.functions().iter().any(|f| f.owner() == Oid(oid))
}

#[test]
fn carry_edges_through_the_server() {
    let server = ModServer::new();
    server
        .register_all([parked(0, 0.0), parked(1, 3.0), parked(2, 100.0)])
        .unwrap();
    let scan = server.prefilter_policy();
    let (first, moved) = serve(&server, scan);
    assert_eq!(moved, MISSED);
    assert!(is_candidate(&first, 1) && !is_candidate(&first, 2));

    server.register(parked(7, REACH + EPS)).unwrap();
    let (served, moved) = serve(&server, scan);
    assert_eq!(moved, CARRIED, "an insert beyond the reach carries");
    assert!(Arc::ptr_eq(&first, &served), "the carried engine is served");

    server.register(parked(8, REACH - EPS)).unwrap();
    let (rebuilt, moved) = serve(&server, scan);
    assert_eq!(moved, MISSED, "an insert within the reach rebuilds");
    assert!(is_candidate(&rebuilt, 8) && !is_candidate(&rebuilt, 2));

    server.store().remove(Oid(8)).unwrap();
    assert_eq!(serve(&server, scan).1, MISSED, "removing a candidate");
    server.store().remove(Oid(2)).unwrap();
    assert_eq!(serve(&server, scan).1, CARRIED, "removing a non-candidate");

    server.store().update(parked(0, 0.0));
    assert_eq!(serve(&server, scan).1, MISSED, "updating the query object");

    server.store().set_delta_log_capacity(1);
    server.register(parked(20, 1_000.0)).unwrap();
    server.register(parked(21, 1_001.0)).unwrap();
    assert_eq!(
        serve(&server, scan).1,
        MISSED,
        "a log truncated past the entry"
    );
    server.store().set_delta_log_capacity(4096);
    server.register(parked(22, 1_002.0)).unwrap();
    assert_eq!(
        serve(&server, scan).1,
        CARRIED,
        "a complete log carries again"
    );

    let exhaustive = PrefilterPolicy::Exhaustive;
    assert_eq!(serve(&server, exhaustive).1, MISSED);
    server.register(parked(23, 1_003.0)).unwrap();
    assert_eq!(
        serve(&server, exhaustive).1,
        MISSED,
        "exhaustive never carries"
    );
}
