//! Audit of the forward skip proofs in isolation
//! ([`ForwardProof::ops_unaffected`] for interval answers,
//! [`ForwardProof::ops_unaffected_rows`] for probability rows, and
//! [`ForwardProof::ops_unaffected_exact`], the box stage with the exact
//! band test behind it, as the banded standing queries run it).
//!
//! The maintenance suites exercise the proofs through the whole ladder on
//! one geometry (tens of miles, `r = 0.5`, a 60-minute window). Here one
//! generator spans the scales the proofs' constants could be sensitive
//! to — object spacing from 1e-3 to 1e4 mi, `r` from far below to far
//! above the spacing, windows from one second to days, parked legs,
//! co-moving and coincident trajectories, an insertion placed exactly at
//! the guard's edge `max LE + 4r ± 1e-9` — and holds every verdict to the
//! contract directly: whenever a proof says "unaffected", a **cold**
//! evaluation of the fleet with the ops applied must equal the cold
//! evaluation without them, bit for bit.
//!
//! The converse is not a contract — a proof may always answer "affected"
//! — but how often it does so needlessly is the slack left to a sharper
//! proof, so the rate is printed per proof.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use uncertain_nn::modb::{DeltaOp, DeltaRecord, ForwardProof};
use uncertain_nn::prelude::*;
use uncertain_nn::prob::UniformDifferencePdf;

/// Probe density of the audited rows: enough columns to land inside
/// every band episode of these small fleets, few enough for a debug build.
const SAMPLES: u32 = 8;

struct Scene {
    fleet: Vec<UncertainTrajectory>,
    window: TimeInterval,
    radius: f64,
    /// Typical object spacing, miles.
    scale: f64,
}

fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    10f64.powf(rng.random_range(lo.log10()..hi.log10()))
}

fn object(oid: u64, legs: &[(f64, f64, f64)], radius: f64) -> UncertainTrajectory {
    UncertainTrajectory::with_uniform_pdf(
        Trajectory::from_triples(Oid(oid), legs).expect("increasing knot times"),
        radius,
    )
    .expect("positive radius")
}

/// `knots` waypoints within `reach` of `around`, at the given times.
fn wander(rng: &mut StdRng, around: (f64, f64), reach: f64, times: &[f64]) -> Vec<(f64, f64, f64)> {
    times
        .iter()
        .map(|&t| {
            (
                around.0 + rng.random_range(-reach..reach),
                around.1 + rng.random_range(-reach..reach),
                t,
            )
        })
        .collect()
}

fn scene(rng: &mut StdRng) -> Scene {
    let scale = log_uniform(rng, 1e-3, 1e4);
    let radius = match rng.random_range(0..3) {
        0 => 0.01,
        1 => scale * log_uniform(rng, 1e-2, 1.0),
        _ => scale * log_uniform(rng, 1.0, 30.0), // r ≫ spacing: everything in band
    };
    // Minutes: one second … three days.
    let len = log_uniform(rng, 1.0 / 60.0, 3.0 * 1440.0);
    let window = TimeInterval::new(0.0, len);
    let knots = |rng: &mut StdRng| -> Vec<f64> {
        let mut ts = vec![0.0, len];
        for _ in 0..rng.random_range(0..3) {
            ts.push(len * rng.random_range(0.05..0.95));
        }
        ts.sort_by(f64::total_cmp);
        ts.dedup();
        ts
    };
    let home = (
        scale * rng.random_range(-5.0..5.0),
        scale * rng.random_range(-5.0..5.0),
    );
    let times = knots(rng);
    let query_legs = wander(rng, home, 3.0 * scale, &times);
    let mut fleet = vec![object(0, &query_legs, radius)];
    let n = rng.random_range(6..=12u64);
    for oid in 1..n {
        let spot = (
            home.0 + scale * rng.random_range(-10.0..10.0),
            home.1 + scale * rng.random_range(-10.0..10.0),
        );
        let legs = match rng.random_range(0..7) {
            // Parked for the whole window (a = 0: a constant or purely
            // hyperbolic distance to a moving query).
            0 => vec![(spot.0, spot.1, 0.0), (spot.0, spot.1, len)],
            // Stop-and-go: a parked leg between two moving ones.
            1 => {
                let (a, b) = (len * 0.3, len * 0.7);
                let end = wander(rng, spot, 2.0 * scale, &[len])[0];
                let start = wander(rng, spot, 2.0 * scale, &[0.0])[0];
                vec![start, (spot.0, spot.1, a), (spot.0, spot.1, b), end]
            }
            // Co-moving with the query: a constant offset, so a constant
            // distance function.
            2 => {
                let off = (spot.0 - home.0, spot.1 - home.1);
                query_legs
                    .iter()
                    .map(|&(x, y, t)| (x + off.0, y + off.1, t))
                    .collect()
            }
            // Coincident with the query itself: distance identically 0.
            3 if oid == 1 => query_legs.clone(),
            // Coincident with the previous object: two equal functions.
            3 => fleet[oid as usize - 1]
                .trajectory()
                .samples()
                .iter()
                .map(|s| (s.position.x, s.position.y, s.time))
                .collect(),
            _ => {
                let times = knots(rng);
                wander(rng, spot, 3.0 * scale, &times)
            }
        };
        fleet.push(object(oid, &legs, radius));
    }
    Scene {
        fleet,
        window,
        radius,
        scale,
    }
}

/// Every `to_bits` of a cold evaluation: the interval answer and the rows.
#[derive(PartialEq)]
struct Cold {
    answer: Vec<u64>,
    rows: Vec<u64>,
}

fn cold(
    fleet: &[UncertainTrajectory],
    scene: &Scene,
    policy: PrefilterPolicy,
    kernel: &ColumnKernel,
) -> (QueryEngine, Cold) {
    let snapshot = Arc::new(QuerySnapshot::new(1, fleet.to_vec()));
    let engine = QueryPlanner::new(policy)
        .plan(snapshot, Oid(0), scene.window)
        .expect("query present, window valid")
        .build_engine()
        .expect("every object covers the window");
    let mut answer = Vec::new();
    for e in engine.answer_set().entries() {
        answer.push(e.oid.0);
        for iv in e.intervals.spans() {
            answer.extend([iv.start().to_bits(), iv.end().to_bits()]);
        }
    }
    let mut rows = Vec::new();
    for r in engine.prob_row_set_kernel(kernel, SAMPLES).rows() {
        rows.push(r.oid.0);
        for (k, p) in &r.points {
            rows.extend([u64::from(*k), p.to_bits()]);
        }
    }
    (engine, Cold { answer, rows })
}

/// `fleet` with `ops` applied in order (ascending by id, as a snapshot is).
fn applied(fleet: &[UncertainTrajectory], ops: &[DeltaRecord]) -> Vec<UncertainTrajectory> {
    let mut out = fleet.to_vec();
    for rec in ops {
        match &rec.op {
            DeltaOp::Remove(oid) => out.retain(|t| t.oid() != *oid),
            DeltaOp::Insert(tr) => {
                assert!(
                    out.iter().all(|t| t.oid() != tr.oid()),
                    "insert of a live id"
                );
                out.push((**tr).clone());
            }
        }
    }
    out.sort_by_key(|t| t.oid());
    out
}

fn insert(tr: UncertainTrajectory) -> DeltaRecord {
    DeltaRecord {
        epoch: 2,
        op: DeltaOp::Insert(Arc::new(tr)),
    }
}

fn remove(oid: u64) -> DeltaRecord {
    DeltaRecord {
        epoch: 2,
        op: DeltaOp::Remove(Oid(oid)),
    }
}

/// The commits the audit throws at one proof: the guard's edge from both
/// sides, far and near insertions, every single removal, updates (the
/// store logs them as remove + insert) to far and near places, and the
/// query object itself.
fn commits(rng: &mut StdRng, scene: &Scene, proof: &ForwardProof) -> Vec<Vec<DeltaRecord>> {
    let len = scene.window.end();
    let r = scene.radius;
    let guard = proof.guard_box();
    let parked = |oid: u64, x: f64, y: f64| object(oid, &[(x, y, 0.0), (x, y, len)], r);
    let fresh = scene.fleet.len() as u64 + 7;
    let mid_y = 0.5 * (guard.min[1] + guard.max[1]);
    let far = guard.max[0] + 10.0 * (guard.max[0] - guard.min[0]) + scene.scale;
    let near = (
        0.5 * (guard.min[0] + guard.max[0]),
        mid_y + scene.scale * rng.random_range(-1.0..1.0),
    );
    let mut out = vec![
        // The guard box is the query corridor inflated by
        // `max LE + 4r`: parked at its x-face and inside its y-range, the
        // newcomer's gap to the corridor is the reach itself, ± 1e-9.
        vec![insert(parked(fresh, guard.max[0] + 1e-9, mid_y))],
        vec![insert(parked(fresh, guard.max[0] - 1e-9, mid_y))],
        vec![insert(parked(fresh, guard.min[0] - 1e-9, mid_y))],
        vec![insert(parked(fresh, guard.min[0] + 1e-9, mid_y))],
        vec![insert(parked(fresh, far, mid_y))],
        vec![insert(parked(fresh, near.0, near.1))],
        vec![insert(object(
            fresh,
            &wander(rng, near, 4.0 * scene.scale, &[0.0, 0.5 * len, len]),
            r,
        ))],
        vec![remove(0)],
        vec![remove(0), insert(parked(0, near.0, near.1))],
    ];
    for oid in 1..scene.fleet.len() as u64 {
        out.push(vec![remove(oid)]);
    }
    for _ in 0..3 {
        let oid = rng.random_range(1..scene.fleet.len() as u64);
        out.push(vec![remove(oid), insert(parked(oid, far, mid_y))]);
        out.push(vec![
            remove(oid),
            insert(object(
                oid,
                &wander(rng, near, 2.0 * scene.scale, &[0.0, len]),
                r,
            )),
        ]);
    }
    out
}

#[derive(Default)]
struct Tally {
    commits: usize,
    cleared: usize,
    needless: usize,
}

impl Tally {
    fn record(&mut self, cleared: bool, changed: bool) {
        self.commits += 1;
        self.cleared += usize::from(cleared);
        self.needless += usize::from(!cleared && !changed);
    }

    fn print(&self, name: &str) {
        println!(
            "{name}: {} commits, {} cleared, {} needlessly affected ({:.1} %)",
            self.commits,
            self.cleared,
            self.needless,
            100.0 * self.needless as f64 / self.commits as f64
        );
    }
}

#[test]
fn a_cleared_commit_never_changes_a_cold_evaluation() {
    let mut rng = StdRng::seed_from_u64(0x0F0A_2009);
    let (mut intervals, mut rows) = (Tally::default(), Tally::default());
    for case in 0..36 {
        let scene = scene(&mut rng);
        let kernel = ColumnKernel::new(&UniformDifferencePdf::new(scene.radius));
        for policy in [PrefilterPolicy::default(), PrefilterPolicy::Exhaustive] {
            let (engine, before) = cold(&scene.fleet, &scene, policy, &kernel);
            let proof = ForwardProof::derive(&engine, scene.fleet[0].trajectory());
            for (i, ops) in commits(&mut rng, &scene, &proof).into_iter().enumerate() {
                let refs: Vec<&DeltaRecord> = ops.iter().collect();
                let cleared = proof.ops_unaffected(&refs);
                let cleared_rows = proof.ops_unaffected_rows(&refs);
                // The first four commits sit 1e-9 outside, inside, outside,
                // inside the guard's x-faces: there the verdict must flip.
                if i < 4 {
                    let outside = i % 2 == 0;
                    assert_eq!(cleared, outside, "case {case} ({policy}): edge {i}");
                    assert_eq!(cleared_rows, outside, "case {case} ({policy}): edge {i}");
                }
                let after_fleet = applied(&scene.fleet, &ops);
                if after_fleet.iter().all(|t| t.oid() != Oid(0)) {
                    // No query, no cold answer to compare with: the proofs
                    // must simply refuse.
                    assert!(
                        !cleared && !cleared_rows,
                        "case {case}: query removal cleared"
                    );
                    continue;
                }
                let (_, after) = cold(&after_fleet, &scene, policy, &kernel);
                let context = || {
                    format!(
                        "case {case} ({policy}, spacing {:e} mi, r {:e}, window {:e} min), ops {:?}",
                        scene.scale,
                        scene.radius,
                        scene.window.end(),
                        ops.iter()
                            .map(|o| match &o.op {
                                DeltaOp::Insert(t) => format!("+{}", t.oid()),
                                DeltaOp::Remove(o) => format!("-{o}"),
                            })
                            .collect::<Vec<_>>()
                    )
                };
                if cleared {
                    assert!(
                        cleared_rows,
                        "the row obligation is the weaker one: {}",
                        context()
                    );
                    assert!(before == after, "interval proof unsound: {}", context());
                }
                if cleared_rows {
                    assert!(
                        before.rows == after.rows,
                        "row proof unsound (rows): {}",
                        context()
                    );
                    assert!(
                        before.answer == after.answer,
                        "row proof unsound (banded answer): {}",
                        context()
                    );
                }
                intervals.record(cleared, before.answer != after.answer);
                rows.record(cleared_rows, before.rows != after.rows);
            }
        }
    }
    intervals.print("ops_unaffected");
    rows.print("ops_unaffected_rows");
    // The audit is only worth its name if both outcomes occur.
    for tally in [&intervals, &rows] {
        assert!(
            tally.cleared > tally.commits / 10,
            "hardly anything cleared"
        );
        assert!(tally.cleared < tally.commits, "everything cleared");
    }
}

/// The exact stage clears an insertion the box refuses iff the
/// newcomer's distance function passes the band test a patch would run
/// on it (`columns`: the probe grid of a row consumer).
fn admits<'a>(
    engine: &'a QueryEngine,
    scene: &'a Scene,
    columns: Option<(u32, f64)>,
) -> impl Fn(&UncertainTrajectory) -> bool + 'a {
    move |tr| {
        let query = scene.fleet[0].trajectory();
        CandidateSet::build(query, std::iter::once(tr.trajectory()), &scene.window).is_ok_and(
            |set| {
                set.functions()
                    .iter()
                    .all(|f| engine.admits_unchanged(f, columns))
            },
        )
    }
}

#[test]
fn an_exactly_cleared_commit_never_changes_a_cold_evaluation() {
    let mut rng = StdRng::seed_from_u64(0x0F0A_2009);
    let (mut intervals, mut rows) = (Tally::default(), Tally::default());
    let mut beyond_the_box = 0;
    for case in 0..36 {
        let scene = scene(&mut rng);
        let kernel = ColumnKernel::new(&UniformDifferencePdf::new(scene.radius));
        for policy in [PrefilterPolicy::default(), PrefilterPolicy::Exhaustive] {
            let (engine, before) = cold(&scene.fleet, &scene, policy, &kernel);
            let proof = ForwardProof::derive(&engine, scene.fleet[0].trajectory());
            let columns = Some((SAMPLES, kernel.band()));
            for ops in commits(&mut rng, &scene, &proof) {
                let refs: Vec<&DeltaRecord> = ops.iter().collect();
                let cleared = proof.ops_unaffected_exact(&refs, admits(&engine, &scene, None));
                let cleared_rows =
                    proof.ops_unaffected_exact(&refs, admits(&engine, &scene, columns));
                // The exact stage only ever adds to the box stage.
                if proof.ops_unaffected_rows(&refs) {
                    assert!(
                        cleared && cleared_rows,
                        "case {case}: box clears, exact refuses"
                    );
                } else {
                    beyond_the_box += usize::from(cleared_rows);
                }
                let after_fleet = applied(&scene.fleet, &ops);
                if after_fleet.iter().all(|t| t.oid() != Oid(0)) {
                    assert!(
                        !cleared && !cleared_rows,
                        "case {case}: query removal cleared"
                    );
                    continue;
                }
                let (_, after) = cold(&after_fleet, &scene, policy, &kernel);
                let context = || {
                    format!(
                        "case {case} ({policy}, spacing {:e} mi, r {:e}, window {:e} min), ops {:?}",
                        scene.scale,
                        scene.radius,
                        scene.window.end(),
                        ops.iter()
                            .map(|o| match &o.op {
                                DeltaOp::Insert(t) => format!("+{}", t.oid()),
                                DeltaOp::Remove(o) => format!("-{o}"),
                            })
                            .collect::<Vec<_>>()
                    )
                };
                if cleared {
                    assert!(
                        before.answer == after.answer,
                        "exact stage unsound (banded answer): {}",
                        context()
                    );
                }
                if cleared_rows {
                    assert!(before == after, "exact stage unsound (rows): {}", context());
                }
                intervals.record(cleared, before.answer != after.answer);
                rows.record(cleared_rows, before != after);
            }
        }
    }
    intervals.print("ops_unaffected_exact (intervals)");
    rows.print("ops_unaffected_exact (rows)");
    println!("{beyond_the_box} commits cleared only by the exact stage");
    // The stage must be exercised: some commits clear only through it.
    assert!(beyond_the_box > 0, "the exact stage never cleared a commit");
    for tally in [&intervals, &rows] {
        assert!(tally.cleared < tally.commits, "everything cleared");
    }
}
