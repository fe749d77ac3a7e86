//! Equivalence property of the indexed maintenance path: a server
//! running guard-indexed maintenance must maintain answers
//! **bit-identical** to a cold `PrefilterPolicy::Exhaustive` evaluation of the same
//! statements on the final contents — the contract every maintained
//! answer is held to — across random mutation interleavings, every
//! prefilter backend, and mixed interval/row subscription populations.
//!
//! The script deliberately includes the hard cases for the index:
//! mutations far outside every guard box (pure prunes), mutations of
//! the query objects themselves (guard republish + rebuild), and a
//! subscription registered mid-script, whose later rounds must not
//! replay epochs its initial answer already saw. Registration while a
//! commit's round is still pending is the registry's unit test
//! `registration_between_a_commit_and_its_round_catches_up`.

use proptest::prelude::*;
use uncertain_nn::modb::subscription::SubAnswer;
use uncertain_nn::modb::{PrefilterPolicy, QueryPlanner};
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

/// One scripted mutation: (kind, target selector, waypoints).
type OpSpec = (usize, usize, Vec<(f64, f64)>);

fn arb_waypoints() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0..50.0f64, 0.0..50.0f64), 4)
}

/// Base population, mutation script, and the index (into the script) at
/// which the mid-script subscription registers.
type Script = (Vec<Vec<(f64, f64)>>, Vec<OpSpec>, usize);

fn arb_script() -> impl Strategy<Value = Script> {
    (
        prop::collection::vec(arb_waypoints(), 6..=10),
        prop::collection::vec((0usize..4, 0usize..64, arb_waypoints()), 5..=10),
        0usize..5,
    )
}

/// The statement's answer evaluated cold: an exhaustive plan over the
/// server's current contents, intervals for `> 0` statements and
/// full-density sampled rows (at the registry's probe count) for
/// threshold ones.
fn cold_answer(server: &ModServer, query: Oid, rows: bool) -> SubAnswer {
    let snapshot = server.store().snapshot();
    let kind = common_pdf_kind(&snapshot)
        .expect("shared pdf")
        .expect("populated");
    let engine = QueryPlanner::new(PrefilterPolicy::Exhaustive)
        .plan(snapshot, query, TimeInterval::new(WINDOW.0, WINDOW.1))
        .expect("plans")
        .build_engine()
        .expect("builds");
    if rows {
        let kernel = ColumnKernel::new(kind.convolve_with(&kind).as_ref());
        let samples = server.subscription_registry().row_samples();
        SubAnswer::Rows(engine.prob_row_set_kernel(&kernel, samples))
    } else {
        SubAnswer::Intervals(engine.answer_set())
    }
}

/// Builds the server: base population plus a mixed subscription
/// population — interval standing queries over `Tr0` (shared-engine
/// duplicates included) and a probability-row threshold query over
/// `Tr1`.
fn build_server(policy: PrefilterPolicy, base: &[Vec<(f64, f64)>]) -> ModServer {
    let server = ModServer::with_policy(policy);
    // Sparse rows keep the P^WD quadrature proportionate to a property
    // test; the equivalence property is density-independent because the
    // cold evaluation samples at the same density.
    server.subscription_registry().set_row_samples(12);
    server
        .register_all(
            base.iter()
                .enumerate()
                .map(|(i, wps)| make_tr(i as u64, wps)),
        )
        .unwrap();
    for (name, stmt) in [
        (
            "near",
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0",
        ),
        (
            // Identical shape as "near": coalesces onto the same shared
            // engine, so the index maintains one guard for both names.
            "near2",
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0",
        ),
        (
            "hot",
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr1, TIME) > 0.25",
        ),
    ] {
        server.subscribe(name, stmt).unwrap();
    }
    server
}

/// Applies one scripted op to a server. Far inserts land at y ~ 500 —
/// provably outside every guard box, so the maintenance round prunes
/// all shares untouched.
fn apply_op(server: &ModServer, op: &OpSpec, next_oid: &mut u64) {
    let (kind, target, wps) = op;
    match kind {
        0 => {
            server.register(make_tr(*next_oid, wps)).unwrap();
            *next_oid += 1;
        }
        1 => {
            let far = [
                (0.0, 500.0 + *target as f64),
                (30.0, 500.0 + *target as f64),
            ];
            server.register(make_tr(*next_oid, &far)).unwrap();
            *next_oid += 1;
        }
        2 => {
            let oids = server.store().oids();
            // Keep the two query objects and a quorum alive.
            if oids.len() > 4 {
                let victim = oids[2 + target % (oids.len() - 2)];
                server.store().remove(victim).unwrap();
            }
        }
        _ => {
            // Single-commit correction of a random existing object —
            // possibly a query object, forcing a guard republish
            // mid-window.
            let oids = server.store().oids();
            let victim = oids[target % oids.len()];
            let mut moved = wps.clone();
            moved[0].0 += 1.0;
            server.store().update(make_tr(victim.0, &moved));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The acceptance property of the maintenance index: indexed
    /// maintenance answers bit-identically to a cold exhaustive evaluation of the
    /// final contents after any mutation interleaving, including for
    /// the subscription registered mid-script.
    #[test]
    fn indexed_batched_sync_matches_cold_evaluation(script in arb_script()) {
        let (base, ops, mid_at) = script;
        let policy = PrefilterPolicy::Scan { epochs: 6 };
            let server = build_server(policy, &base);

            let mid_at = mid_at.min(ops.len().saturating_sub(1));
            let mut next_oid = base.len() as u64;
            for (i, op) in ops.iter().enumerate() {
                apply_op(&server, op, &mut next_oid);
                if i == mid_at {
                    server
                        .subscribe(
                            "mid",
                            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
                             AND PROB_NN(*, Tr1, TIME) > 0",
                        )
                        .unwrap();
                }
            }

            for (name, query, rows) in [
                ("near", Oid(0), false),
                ("near2", Oid(0), false),
                ("hot", Oid(1), true),
                ("mid", Oid(1), false),
            ] {
                let got = server.subscription_answer(name).unwrap();
                prop_assert_eq!(
                    got,
                    cold_answer(&server, query, rows),
                    "indexed+batched answer for '{}' diverged from the \
                     cold exhaustive evaluation under {:?}",
                    name,
                    policy
                );
            }
    }
}
