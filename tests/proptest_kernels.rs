//! Property test of the probability kernel's contract with the
//! row-subscription ladder: maintained rows stay bit-identical to a
//! fresh full-density exhaustive evaluation across random mutation
//! interleavings.

use proptest::prelude::*;
use uncertain_nn::core::probrows::ProbRowSet;
use uncertain_nn::modb::subscription::SubAnswer;
use uncertain_nn::modb::{PrefilterPolicy, QueryPlanner};
use uncertain_nn::prelude::*;
use unn_traj::uncertain::common_pdf_kind;

const WINDOW: (f64, f64) = (0.0, 60.0);
const RADIUS: f64 = 0.5;
/// The threshold of the standing queries under test.
const P: f64 = 0.25;

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

/// Fresh exhaustive full-density forward row evaluation — the ground
/// truth the maintained rows are judged against.
fn fresh_rows(server: &ModServer, query: Oid) -> ProbRowSet {
    let samples = server.subscription_registry().row_samples();
    let snapshot = server.store().snapshot();
    let kind = common_pdf_kind(&snapshot)
        .expect("shared pdf")
        .expect("populated");
    let kernel = ColumnKernel::new(kind.convolve_with(&kind).as_ref());
    QueryPlanner::new(PrefilterPolicy::Exhaustive)
        .plan(snapshot, query, TimeInterval::new(WINDOW.0, WINDOW.1))
        .expect("plans")
        .build_engine()
        .expect("builds")
        .prob_row_set_kernel(&kernel, samples)
}

fn maintained_rows(server: &ModServer, name: &str) -> ProbRowSet {
    match server.subscription_answer(name).unwrap() {
        SubAnswer::Rows(r) => r,
        other => panic!("expected rows, got {other:?}"),
    }
}

/// A populated server with one threshold row subscription.
fn server_with_hot(policy: PrefilterPolicy, base: &[Vec<(f64, f64)>]) -> ModServer {
    let server = ModServer::with_policy(policy);
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
            "hot",
            &format!(
                "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
                 AND PROB_NN(*, Tr0, TIME) > {P}"
            ),
        )
        .unwrap();
    server
}

/// One scripted mutation: (kind, target selector, waypoints).
type OpSpec = (usize, usize, Vec<(f64, f64)>);

fn arb_waypoints() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0..50.0f64, 0.0..50.0f64), 4)
}

fn arb_script() -> impl Strategy<Value = (Vec<Vec<(f64, f64)>>, Vec<OpSpec>)> {
    (
        prop::collection::vec(arb_waypoints(), 6..=10),
        prop::collection::vec((0usize..3, 0usize..64, arb_waypoints()), 3..=8),
    )
}

/// Replays the mutation script against the server (insert / remove /
/// single-commit update, query object kept alive).
fn run_script(server: &ModServer, base_len: usize, ops: &[OpSpec]) {
    let mut next_oid = base_len as u64;
    for (kind, target, wps) in ops {
        match kind {
            0 => {
                server.register(make_tr(next_oid, wps)).unwrap();
                next_oid += 1;
            }
            1 => {
                let oids = server.store().oids();
                if oids.len() > 3 {
                    let victim = oids[1 + target % (oids.len() - 1)];
                    server.store().remove(victim).unwrap();
                }
            }
            _ => {
                let oids = server.store().oids();
                let victim = oids[target % oids.len()];
                let mut moved = wps.clone();
                moved[0].0 += 1.0;
                server.store().update(make_tr(victim.0, &moved));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Maintained rows equal the fresh full-density evaluation
    /// bit-for-bit.
    #[test]
    fn maintained_rows_bit_identical_to_fresh(script in arb_script()) {
        let (base, ops) = script;
        let policy = PrefilterPolicy::Scan { epochs: 6 };
        let server = server_with_hot(policy, &base);
        run_script(&server, base.len(), &ops);
        let info = server
            .subscriptions()
            .into_iter()
            .find(|s| s.name == "hot")
            .unwrap();
        prop_assert!(info.error.is_none(), "{policy:?}: parked on {:?}", info.error);
        let maintained = maintained_rows(&server, "hot");
        let fresh = fresh_rows(&server, Oid(0));
        prop_assert_eq!(
            &maintained,
            &fresh,
            "{:?}: maintained rows != fresh full density",
            policy
        );
    }
}
