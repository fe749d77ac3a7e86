//! Property tests of the adaptive probability kernel's contract with
//! the row-subscription ladder:
//!
//! * **tolerance 0 (the default)** — maintained rows stay bit-identical
//!   to a fresh full-density exhaustive evaluation across random
//!   mutation interleavings and prefilter backends, and the adaptive
//!   counters never move;
//! * **tolerance > 0** — every maintained probability classifies on the
//!   same side of the subscription threshold as the full-density value,
//!   and deviates from it by no more than the stated bound (columns the
//!   ladder cannot certify are refined to full density, so they stay
//!   bit-exact).

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
/// truth both tolerance regimes are judged against.
fn fresh_rows(server: &ModServer, query: Oid) -> ProbRowSet {
    let samples = server.subscription_registry().row_samples();
    let snapshot = server.store().snapshot();
    let kind = common_pdf_kind(&snapshot)
        .expect("shared pdf")
        .expect("populated");
    let pdf = kind.convolve_with(&kind);
    QueryPlanner::new(PrefilterPolicy::Exhaustive)
        .plan(snapshot, query, TimeInterval::new(WINDOW.0, WINDOW.1))
        .expect("plans")
        .build_engine()
        .expect("builds")
        .prob_row_set(pdf.as_ref(), samples)
}

fn maintained_rows(server: &ModServer, name: &str) -> ProbRowSet {
    match server.subscription_answer(name).unwrap() {
        SubAnswer::Rows(r) => r,
        other => panic!("expected rows, got {other:?}"),
    }
}

/// A populated server with one threshold row subscription at the given
/// tolerance.
fn server_with_hot(policy: PrefilterPolicy, base: &[Vec<(f64, f64)>], tolerance: f64) -> ModServer {
    let server = ModServer::with_policy(policy);
    server.subscription_registry().set_row_samples(12);
    server.subscription_registry().set_row_tolerance(tolerance);
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

    /// With the tolerance knob at its default 0, the adaptive ladder is
    /// provably inert: maintained rows equal the fresh full-density
    /// evaluation bit-for-bit, and no column is ever
    /// classified by the coarse rungs.
    #[test]
    fn zero_tolerance_rows_bit_identical(script in arb_script()) {
        let (base, ops) = script;
        let policy = PrefilterPolicy::Scan { epochs: 6 };
            let server = server_with_hot(policy, &base, 0.0);
            run_script(&server, base.len(), &ops);
            let info = server
                .subscriptions()
                .into_iter()
                .find(|s| s.name == "hot")
                .unwrap();
            prop_assert!(info.error.is_none(), "{policy:?}: parked on {:?}", info.error);
            prop_assert_eq!(
                info.stats.columns_refined + info.stats.columns_coarse_only,
                0,
                "{:?}: the ladder must stay inert at tolerance 0",
                policy
            );
            let maintained = maintained_rows(&server, "hot");
            let fresh = fresh_rows(&server, Oid(0));
            prop_assert_eq!(
                &maintained,
                &fresh,
                "{:?}: tolerance-0 maintained rows != fresh full density",
                policy
            );
    }

    /// With a positive tolerance, every maintained probability lands on
    /// the same side of the subscription threshold as the full-density
    /// value and within `2·tolerance` of it (the ladder accepts a
    /// coarse value only when its error bound is within the tolerance
    /// AND clear of the threshold by bound + tolerance; everything else
    /// is refined to full density).
    #[test]
    fn adaptive_rows_classify_like_full_density(
        script in arb_script(),
        tol in 1e-4..5e-3f64,
    ) {
        let (base, ops) = script;
        let server = server_with_hot(PrefilterPolicy::Scan { epochs: 6 }, &base, tol);
        run_script(&server, base.len(), &ops);
        let info = server
            .subscriptions()
            .into_iter()
            .find(|s| s.name == "hot")
            .unwrap();
        prop_assert!(info.error.is_none(), "parked on {:?}", info.error);
        let maintained = maintained_rows(&server, "hot");
        let fresh = fresh_rows(&server, Oid(0));
        for (row, exact) in maintained.rows().iter().zip(fresh.rows()) {
            prop_assert_eq!(row.oid, exact.oid);
            for ((k, p), (ke, pe)) in row.points.iter().zip(&exact.points) {
                prop_assert_eq!(k, ke);
                prop_assert_eq!(
                    *p > P, *pe > P,
                    "oid {:?} sample {}: adaptive {} vs full {} straddle p={}",
                    row.oid, k, p, pe, P
                );
                prop_assert!(
                    (p - pe).abs() <= 2.0 * tol,
                    "oid {:?} sample {}: adaptive {} deviates from full {} beyond 2*{}",
                    row.oid, k, p, pe, tol
                );
            }
        }
    }
}

/// The refinement counters are observable through the stats surface:
/// with a tolerance set, in-band churn drives dirty columns through the
/// ladder and lands each in exactly one of the two counters.
#[test]
fn adaptive_counters_move_under_churn() {
    let base: Vec<Vec<(f64, f64)>> = (0..8)
        .map(|k| vec![(0.0, k as f64), (30.0, k as f64)])
        .collect();
    let server = server_with_hot(PrefilterPolicy::Scan { epochs: 6 }, &base, 1e-3);
    for shift in 1..4 {
        let victim = Oid(3);
        let moved: Vec<(f64, f64)> =
            vec![(0.1 * shift as f64, 3.0), (30.0 + 0.1 * shift as f64, 3.0)];
        server.store().update(make_tr(victim.0, &moved));
    }
    let info = server
        .subscriptions()
        .into_iter()
        .find(|s| s.name == "hot")
        .unwrap();
    assert!(info.error.is_none(), "parked on {:?}", info.error);
    assert!(
        info.stats.columns_refined + info.stats.columns_coarse_only > 0,
        "in-band churn with a tolerance must exercise the ladder: {:?}",
        info.stats
    );
}
