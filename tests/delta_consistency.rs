//! Property tests of the delta-epoch layer: a random interleaving of
//! `insert` / `remove` / `bulk_load` — with snapshots and cached queries
//! exercised *between* the mutations so the incremental paths (snapshot
//! `apply_delta`, engine carry) actually run — must leave the MOD
//! answering **every** query category bit-identically to a server
//! freshly rebuilt from the final contents with the exhaustive policy.

use proptest::prelude::*;
use uncertain_nn::modb::PrefilterPolicy;
use uncertain_nn::prelude::*;

const WINDOW: (f64, f64) = (0.0, 60.0);
const RADIUS: f64 = 0.5;

/// Waypoints (shared sample times over the window) to a trajectory.
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

/// One scripted mutation: (kind, target selector, waypoints for inserts).
type OpSpec = (usize, usize, Vec<(f64, f64)>);

fn arb_waypoints() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0..50.0f64, 0.0..50.0f64), 4)
}

fn arb_script() -> impl Strategy<Value = (Vec<Vec<(f64, f64)>>, Vec<OpSpec>)> {
    (
        prop::collection::vec(arb_waypoints(), 8..=16),
        prop::collection::vec((0usize..3, 0usize..64, arb_waypoints()), 3..=10),
    )
}

/// Replays the script on a live server, interleaving snapshot/index/query
/// work between mutations, and returns it.
fn replay(policy: PrefilterPolicy, base: &[Vec<(f64, f64)>], ops: &[OpSpec]) -> ModServer {
    let w = TimeInterval::new(WINDOW.0, WINDOW.1);
    let live = ModServer::with_policy(policy);
    live.register_all(
        base.iter()
            .enumerate()
            .map(|(i, wps)| make_tr(i as u64, wps)),
    )
    .unwrap();
    let mut next_oid = base.len() as u64;
    for (kind, target, wps) in ops {
        // Materialize the snapshot *before* the op so the refresh after
        // the op has something to patch, and warm the engine cache so
        // the carry check gets exercised.
        let _ = live.store().snapshot();
        let _ = live.engine(Oid(0), w);
        match kind {
            0 => {
                live.register(make_tr(next_oid, wps)).unwrap();
                next_oid += 1;
            }
            1 => {
                let oids = live.store().oids();
                // Never remove the query object; keep at least 3 around.
                if oids.len() > 3 {
                    let victim = oids[1 + target % (oids.len() - 1)];
                    live.store().remove(victim).unwrap();
                }
            }
            _ => {
                let shifted: Vec<(f64, f64)> =
                    wps.iter().map(|(x, y)| (x + 1.0, y + 1.0)).collect();
                live.register_all([make_tr(next_oid, wps), make_tr(next_oid + 1, &shifted)])
                    .unwrap();
                next_oid += 2;
            }
        }
        let _ = live.engine(Oid(0), w);
    }
    live
}

/// A server freshly rebuilt from `live`'s final contents, answering
/// exhaustively — the ground truth.
fn rebuild_exhaustive(live: &ModServer) -> ModServer {
    let fresh = ModServer::with_policy(PrefilterPolicy::Exhaustive);
    fresh
        .register_all(live.store().snapshot().to_vec())
        .unwrap();
    fresh
}

fn statements() -> Vec<String> {
    [
        "SELECT Tr1 FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(Tr1, Tr0, TIME) > 0",
        "SELECT Tr2 FROM MOD WHERE FORALL TIME IN [0, 60] AND PROB_NN(Tr2, Tr0, TIME) > 0",
        "SELECT Tr3 FROM MOD WHERE ATLEAST 0.25 OF TIME IN [0, 60] AND PROB_NN(Tr3, Tr0, TIME) > 0",
        "SELECT Tr1 FROM MOD WHERE AT 30 TIME IN [0, 60] AND PROB_NN(Tr1, Tr0, TIME) > 0",
        "SELECT Tr2 FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(Tr2, Tr0, TIME, RANK 2) > 0",
        "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0",
        "SELECT * FROM MOD WHERE ATLEAST 0.4 OF TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0",
        "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME, RANK 2) > 0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn assert_same_output(a: QueryOutput, b: QueryOutput, ctx: &str) {
    match (a, b) {
        (QueryOutput::Boolean(x), QueryOutput::Boolean(y)) => {
            assert_eq!(x, y, "{ctx}");
        }
        (QueryOutput::Objects(mut xs), QueryOutput::Objects(mut ys)) => {
            xs.sort_by_key(|(o, _)| *o);
            ys.sort_by_key(|(o, _)| *o);
            let x_ids: Vec<Oid> = xs.iter().map(|(o, _)| *o).collect();
            let y_ids: Vec<Oid> = ys.iter().map(|(o, _)| *o).collect();
            assert_eq!(x_ids, y_ids, "{ctx}");
            for ((_, fx), (_, fy)) in xs.iter().zip(&ys) {
                assert!((fx - fy).abs() < 1e-9, "{ctx}: fraction {fx} vs {fy}");
            }
        }
        (a, b) => panic!("{ctx}: shape mismatch {a:?} vs {b:?}"),
    }
}

/// The `DeltaLog` truncation contract (see the docs on
/// `unn_modb::delta::DeltaLog`): a delta consumer whose last-seen epoch
/// fell off the bounded log gets `None` from `ops_since` and must
/// rebuild from the live contents — never patch against the incomplete
/// history. Exercised end-to-end through every consumer: snapshot
/// maintenance, the engine-cache carry, and a standing-query
/// subscription.
#[test]
fn truncation_forces_every_delta_consumer_to_rebuild() {
    let server = ModServer::new();
    server
        .register_all((0..12).map(|i| make_tr(i, &[(0.0, i as f64), (30.0, i as f64)])))
        .unwrap();
    let w = TimeInterval::new(WINDOW.0, WINDOW.1);
    // Warm every consumer: the snapshot, a cached carriable engine, and
    // a standing query.
    let _ = server.store().snapshot();
    let _ = server.engine(Oid(0), w).unwrap();
    server
        .subscribe(
            "near0",
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0",
        )
        .unwrap();
    let rebuilds_before = server.store().delta_stats().snapshots_rebuilt;
    // Truncate: cap the log so the next bulk commit evicts its own
    // prefix — consumers parked before it must detect the gap.
    server.store().set_delta_log_capacity(3);
    server
        .register_all((100..108).map(|i| make_tr(i, &[(0.5, 0.5 + (i - 100) as f64), (29.0, 1.0)])))
        .unwrap();
    let stats = server.store().delta_stats();
    assert!(
        stats.log_floor > 0,
        "the truncation must raise the floor: {stats:?}"
    );
    // The subscription detected the gap and rebuilt (never patched).
    let info = server
        .subscriptions()
        .into_iter()
        .find(|s| s.name == "near0")
        .unwrap();
    assert!(info.stats.rebuilt >= 1, "{info:?}");
    assert_eq!(info.stats.patched, 0, "patching across a gap is the bug");
    // The snapshot rebuilt from the live contents rather than patching.
    let snap = server.store().snapshot();
    assert_eq!(snap.len(), 20);
    assert!(
        server.store().delta_stats().snapshots_rebuilt > rebuilds_before,
        "{:?}",
        server.store().delta_stats()
    );
    // And everything still answers identically to a fresh exhaustive
    // server — the rebuilt state is the live state.
    let fresh = rebuild_exhaustive(&server);
    let stmt = "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0";
    assert_same_output(
        server.execute(stmt).unwrap(),
        fresh.execute(stmt).unwrap(),
        "post-truncation",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn delta_maintained_answers_equal_fresh_rebuild(script in arb_script()) {
        let (base, ops) = script;
        let w = TimeInterval::new(WINDOW.0, WINDOW.1);
        let policy = PrefilterPolicy::Scan { epochs: 6 };
            let live = replay(policy, &base, &ops);
            let fresh = rebuild_exhaustive(&live);
            prop_assert!(
                live.store().delta_stats().snapshots_delta_applied > 0,
                "{policy:?}: the script never took the delta path"
            );
            for stmt in statements() {
                // Tr1/Tr2/Tr3 can be removed by the script; both sides
                // must then agree on the *error*, not just on answers.
                match (live.execute(&stmt), fresh.execute(&stmt)) {
                    (Ok(a), Ok(b)) => assert_same_output(a, b, &format!("{policy:?}: {stmt}")),
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("{policy:?}: {stmt}: {a:?} vs {b:?}"),
                }
            }
            prop_assert_eq!(
                live.continuous_nn(Oid(0), w).unwrap().sequence,
                fresh.continuous_nn(Oid(0), w).unwrap().sequence,
                "{:?}: crisp NN timeline diverged", policy
            );
    }
}
