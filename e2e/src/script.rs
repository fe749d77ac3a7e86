//! The seeded generator: fleets, standing queries and op scripts.
//!
//! Everything the server receives is produced here; the same seed gives
//! the same script, bit for bit. Geometry is the paper's §5
//! random-waypoint workload (40 × 40 mi, 15–60 mph, 60 min, velocity
//! changes every 10 min), uniform pdf, r = 0.5 mi, window `[0, 60]`.
//!
//! The *dataset* — region fleet, standing queries, the spot where a churn
//! object enters each query's band, hot set — is drawn from the fixed
//! [`DATASET_SEED`], like the table of a database benchmark; `--seed`
//! draws the *op stream* over it (in which order the churn objects move
//! and where they park, which key is read, which trajectories are
//! ingested). A near commit costs anything from 20 to 300 ms depending on
//! which standing queries' guard boxes the moved object crosses and
//! whether it redraws an envelope, so with the geometry redrawn per seed
//! the medians of two seeds differ by 40 %, and with only the entry spots
//! redrawn still by 15 %; with the dataset fixed they differ by
//! run-to-run noise only, which is what a regression bound needs. One
//! spot per query, so that every cycle of a run makes the same 32 moves
//! and the quietest cycle of one run compares with that of another.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unn_traj::generator::{generate, WorkloadConfig};
use unn_traj::trajectory::{Oid, Trajectory, TrajectorySample};
use unn_traj::uncertain::UncertainTrajectory;

/// Seed of the dataset (the paper's venue and year, as in
/// `WorkloadConfig::default`).
pub const DATASET_SEED: u64 = 0xEDB7_2009;

pub const WINDOW: (f64, f64) = (0.0, 60.0);
pub const RADIUS: f64 = 0.5;

/// Objects in the churn workloads' region fleet.
pub const CHURN_FLEET: usize = 600;
/// Distinct standing queries, and names registered per query.
pub const STANDING_QUERIES: usize = 16;
pub const NAMES_PER_QUERY: usize = 4;
/// The last this-many standing queries are `PROB_NN > 0.3` (row
/// answers); the others are `PROB_NN > 0` (interval answers).
pub const THRESHOLD_QUERIES: usize = 4;
pub const THRESHOLD: f64 = 0.3;
/// Objects that live in the far lot and take the far updates.
pub const REMOTE_OBJECTS: usize = 32;
/// Near ops per cycle: every standing query entered once and left once.
pub const NEAR_CYCLE: usize = 2 * STANDING_QUERIES;
/// Fresh lot trajectories drawn per script; ops beyond that reuse them
/// in turn (a far op still replaces a random remote object's trajectory
/// with another one).
const LOT_POOL: usize = 4096;

/// Objects in `query_mix`'s region fleet, the hot set, and the rhythm.
pub const QUERY_FLEET: usize = 500;
pub const HOT_SET: usize = 16;
/// One read in this many is drawn from the whole fleet, the others from
/// the hot set: 80 % hot.
pub const COLD_EVERY: usize = 5;
pub const READS_PER_WRITE: usize = 8;
/// One read in this many is checked against a cold exhaustive answer.
pub const CHECK_EVERY: usize = 20;

/// Side of `ingest_recover`'s square region, miles: tens of thousands of
/// objects at about the density of the 600-object fleet on 40 × 40 mi,
/// so that a probe query after a restart meets a neighbourhood like the
/// paper's and not thousands of objects inside one band.
pub const INGEST_REGION: f64 = 280.0;

/// The far lot: a 40 × 20 mi strip 80 mi south of the region. A guard
/// box is the query's corridor box inflated by the proof's reach, and
/// the reach the server derives today never exceeds 62 mi (see the
/// README's findings), so a gap of 80 mi is provably skipped; it is
/// still close enough that a spatial index over the whole store keeps a
/// sane extent.
const LOT_HEIGHT: f64 = 20.0;
const LOT_Y_SHIFT: f64 = -100.0;

/// A band entry offset: between 1.7 and 1.9 mi from the query object's
/// expected location. That is inside the 4r = 2 mi band at every instant
/// whatever the rest of the fleet does (the band is the lower envelope
/// plus 4r, and the envelope is never negative), so the move flips
/// membership in the query's answer; and it is rarely close enough to
/// become the nearest neighbour and redraw the whole envelope.
const ENTRY_MIN: f64 = 1.7;
const ENTRY_MAX: f64 = 1.9;

pub fn select_statement(object: Oid, threshold: f64) -> String {
    format!(
        "SELECT * FROM MOD WHERE EXISTS TIME IN [{}, {}] AND PROB_NN(*, Tr{}, TIME) > {}",
        WINDOW.0, WINDOW.1, object.0, threshold
    )
}

/// One distinct standing query and the names registered on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Standing {
    pub object: Oid,
    pub threshold: f64,
    pub statement: String,
    pub names: Vec<String>,
}

/// One `update` of a churn workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOp {
    pub tr: UncertainTrajectory,
    /// The standing query whose answer this move flips: every one of its
    /// names must push a frame for the commit. `None` for a far update,
    /// which must push nothing.
    pub target: Option<usize>,
}

/// `near_churn` / `far_churn`: same fleet, same subscriptions.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnScript {
    /// Region fleet, then one parked churn object per standing query,
    /// then the remote objects; oids ascend in that order from 0.
    pub fleet: Vec<UncertainTrajectory>,
    pub standing: Vec<Standing>,
    pub warmup: Vec<ChurnOp>,
    pub ops: Vec<ChurnOp>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum MixOp {
    Read {
        object: Oid,
        statement: String,
        /// Compare the response with a cold exhaustive evaluation.
        check: bool,
    },
    Write(UncertainTrajectory),
}

#[derive(Debug, Clone, PartialEq)]
pub struct MixScript {
    pub fleet: Vec<UncertainTrajectory>,
    pub warmup: Vec<MixOp>,
    pub ops: Vec<MixOp>,
}

/// `ingest_recover`: each generator thread inserts its own list.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestScript {
    pub per_thread: [Vec<UncertainTrajectory>; 2],
    /// Three fixed one-shot queries (on the first objects thread 0
    /// inserts) answered before the first kill and after each restart.
    pub probes: Vec<String>,
}

fn uncertain(tr: Trajectory) -> UncertainTrajectory {
    UncertainTrajectory::with_uniform_pdf(tr, RADIUS).expect("valid radius")
}

fn region_fleet(n: usize, seed: u64) -> Vec<Trajectory> {
    generate(&WorkloadConfig::with_objects(n, seed))
}

/// `n` random-waypoint trajectories inside the far lot (oids as
/// generated; callers renumber).
fn lot_trajectories(n: usize, seed: u64) -> Vec<Trajectory> {
    let cfg = WorkloadConfig {
        region_height: LOT_HEIGHT,
        ..WorkloadConfig::with_objects(n, seed)
    };
    generate(&cfg)
        .iter()
        .map(|tr| shifted(tr, tr.oid(), 0.0, LOT_Y_SHIFT))
        .collect()
}

fn shifted(tr: &Trajectory, oid: Oid, dx: f64, dy: f64) -> Trajectory {
    let samples = tr
        .samples()
        .iter()
        .map(|s| TrajectorySample::new(s.position.x + dx, s.position.y + dy, s.time))
        .collect();
    Trajectory::new(oid, samples).expect("a shifted trajectory stays valid")
}

fn renumbered(tr: &Trajectory, oid: Oid) -> UncertainTrajectory {
    uncertain(shifted(tr, oid, 0.0, 0.0))
}

/// One of the independent random streams drawn from a seed.
fn stream(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt))
}

fn distinct_indices(rng: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    let mut picked = Vec::with_capacity(count);
    while picked.len() < count {
        let i = rng.random_range(0..n);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

fn shuffled(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..i + 1));
    }
    order
}

/// The churn fleet and subscriptions, then `warmup + ops` updates.
///
/// `near`: passes over the churn objects in a fresh random order, every
/// object entering its query's band on one pass and leaving it on the
/// next, so any [`NEAR_CYCLE`] consecutive ops hold each (query,
/// direction) pair exactly once; where an object enters is part of the
/// dataset, so every cycle makes the same moves, in a seeded order. Far: each op replaces a random remote object's
/// trajectory inside the lot.
pub fn churn_script(seed: u64, near: bool, warmup: usize, ops: usize) -> ChurnScript {
    let region = region_fleet(CHURN_FLEET, DATASET_SEED);
    let query_objects =
        distinct_indices(&mut stream(DATASET_SEED, 1), CHURN_FLEET, STANDING_QUERIES);
    let standing: Vec<Standing> = query_objects
        .iter()
        .enumerate()
        .map(|(k, &i)| {
            let object = region[i].oid();
            let threshold = if k >= STANDING_QUERIES - THRESHOLD_QUERIES {
                THRESHOLD
            } else {
                0.0
            };
            Standing {
                object,
                threshold,
                statement: select_statement(object, threshold),
                names: (0..NAMES_PER_QUERY)
                    .map(|j| format!("q{k:02}n{j}"))
                    .collect(),
            }
        })
        .collect();

    let churn_oid = |k: usize| Oid((CHURN_FLEET + k) as u64);
    let remote_oid = |j: usize| Oid((CHURN_FLEET + STANDING_QUERIES + j) as u64);
    let parked = lot_trajectories(STANDING_QUERIES, DATASET_SEED.wrapping_add(2));
    let remote = lot_trajectories(REMOTE_OBJECTS, DATASET_SEED.wrapping_add(3));
    let mut fleet: Vec<UncertainTrajectory> = region.iter().cloned().map(uncertain).collect();
    fleet.extend(
        parked
            .iter()
            .enumerate()
            .map(|(k, tr)| renumbered(tr, churn_oid(k))),
    );
    fleet.extend(
        remote
            .iter()
            .enumerate()
            .map(|(j, tr)| renumbered(tr, remote_oid(j))),
    );

    let mut spot_rng = stream(DATASET_SEED, 5);
    let spots: Vec<(f64, f64)> = (0..STANDING_QUERIES)
        .map(|_| {
            let angle = spot_rng.random_range(0.0..std::f64::consts::TAU);
            let reach = spot_rng.random_range(ENTRY_MIN..ENTRY_MAX);
            (reach * angle.cos(), reach * angle.sin())
        })
        .collect();

    let total = warmup + ops;
    let mut rng = stream(seed, 1);
    // A lot trajectory per op: where a leaving object parks, or what a
    // remote object is replaced with.
    let lot = lot_trajectories(total.clamp(1, LOT_POOL), rng.random_range(0..u64::MAX));
    let mut inside = [false; STANDING_QUERIES];
    let mut order = Vec::new();
    let mut script: Vec<ChurnOp> = (0..total)
        .map(|i| {
            if !near {
                let j = rng.random_range(0..REMOTE_OBJECTS);
                return ChurnOp {
                    tr: renumbered(&lot[i % lot.len()], remote_oid(j)),
                    target: None,
                };
            }
            if i % STANDING_QUERIES == 0 {
                order = shuffled(&mut rng, STANDING_QUERIES);
            }
            let k = order[i % STANDING_QUERIES];
            inside[k] = !inside[k];
            let tr = if inside[k] {
                let (dx, dy) = spots[k];
                uncertain(shifted(&region[query_objects[k]], churn_oid(k), dx, dy))
            } else {
                renumbered(&lot[i % lot.len()], churn_oid(k))
            };
            ChurnOp {
                tr,
                target: Some(k),
            }
        })
        .collect();
    let ops = script.split_off(warmup);
    ChurnScript {
        fleet,
        standing,
        warmup: script,
        ops,
    }
}

/// `ops` counts reads and writes together; every
/// `READS_PER_WRITE + 1`-th op is a far write.
pub fn mix_script(seed: u64, warmup: usize, ops: usize) -> MixScript {
    let region = region_fleet(QUERY_FLEET, DATASET_SEED);
    let hot = distinct_indices(&mut stream(DATASET_SEED, 4), QUERY_FLEET, HOT_SET);
    let remote_oid = |j: usize| Oid((QUERY_FLEET + j) as u64);
    let remote = lot_trajectories(REMOTE_OBJECTS, DATASET_SEED.wrapping_add(3));
    let mut fleet: Vec<UncertainTrajectory> = region.iter().cloned().map(uncertain).collect();
    fleet.extend(
        remote
            .iter()
            .enumerate()
            .map(|(j, tr)| renumbered(tr, remote_oid(j))),
    );

    let total = warmup + ops;
    let mut rng = stream(seed, 2);
    let lot = lot_trajectories(
        total / (READS_PER_WRITE + 1) + 1,
        rng.random_range(0..u64::MAX),
    );
    let mut reads = 0usize;
    let mut cold_at = 0;
    let mut script: Vec<MixOp> = (0..total)
        .map(|i| {
            if i % (READS_PER_WRITE + 1) == READS_PER_WRITE {
                let j = rng.random_range(0..REMOTE_OBJECTS);
                return MixOp::Write(renumbered(&lot[i / (READS_PER_WRITE + 1)], remote_oid(j)));
            }
            // One read in every COLD_EVERY is drawn from the whole fleet,
            // at a position drawn per group: any stretch of reads holds
            // the same share of cold plans, whatever the seed.
            if reads % COLD_EVERY == 0 {
                cold_at = rng.random_range(0..COLD_EVERY);
            }
            let idx = if reads % COLD_EVERY == cold_at {
                rng.random_range(0..QUERY_FLEET)
            } else {
                hot[rng.random_range(0..HOT_SET)]
            };
            let object = region[idx].oid();
            reads += 1;
            MixOp::Read {
                object,
                statement: select_statement(object, 0.0),
                check: reads % CHECK_EVERY == 0,
            }
        })
        .collect();
    let ops = script.split_off(warmup);
    MixScript {
        fleet,
        warmup: script,
        ops,
    }
}

/// `inserts` fresh trajectories split between the two generator threads
/// (even positions to thread 0, odd to thread 1).
pub fn ingest_script(seed: u64, inserts: usize) -> IngestScript {
    let fleet_seed = stream(seed, 3).random_range(0..u64::MAX);
    let cfg = WorkloadConfig {
        region_width: INGEST_REGION,
        region_height: INGEST_REGION,
        ..WorkloadConfig::with_objects(inserts, fleet_seed)
    };
    let mut per_thread = [Vec::new(), Vec::new()];
    for (i, tr) in generate(&cfg).into_iter().enumerate() {
        per_thread[i % 2].push(uncertain(tr));
    }
    let probes = per_thread[0]
        .iter()
        .take(3)
        .map(|tr| select_statement(tr.oid(), 0.0))
        .collect();
    IngestScript { per_thread, probes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script() {
        assert_eq!(churn_script(7, true, 5, 40), churn_script(7, true, 5, 40));
        assert_eq!(churn_script(7, false, 5, 40), churn_script(7, false, 5, 40));
        assert_eq!(mix_script(7, 9, 90), mix_script(7, 9, 90));
        assert_eq!(ingest_script(7, 50), ingest_script(7, 50));
        // Another seed: another op stream over the same dataset.
        let (a, b) = (churn_script(7, true, 5, 40), churn_script(8, true, 5, 40));
        assert_ne!(a.ops, b.ops);
        assert_eq!((a.fleet, a.standing), (b.fleet, b.standing));
        assert_ne!(mix_script(7, 9, 90).ops, mix_script(8, 9, 90).ops);
        assert_ne!(ingest_script(7, 50), ingest_script(8, 50));
    }

    #[test]
    fn churn_script_shape() {
        let s = churn_script(3, true, NEAR_CYCLE, 2 * NEAR_CYCLE);
        assert_eq!(
            s.fleet.len(),
            CHURN_FLEET + STANDING_QUERIES + REMOTE_OBJECTS
        );
        assert_eq!((s.warmup.len(), s.ops.len()), (NEAR_CYCLE, 2 * NEAR_CYCLE));
        assert_eq!(s.standing.len(), STANDING_QUERIES);
        let rows = s.standing.iter().filter(|q| q.threshold > 0.0).count();
        assert_eq!(rows, THRESHOLD_QUERIES);
        // Every cycle holds each (query, direction) pair exactly once; an
        // entry sits 1.7 to 1.9 mi from the query object, a parked
        // object far south of the region.
        for cycle in s.ops.chunks(NEAR_CYCLE) {
            let mut seen = std::collections::BTreeSet::new();
            for op in cycle {
                let k = op.target.expect("near ops have a target");
                assert_eq!(op.tr.oid(), Oid((CHURN_FLEET + k) as u64));
                let q = s.fleet[s.standing[k].object.0 as usize].trajectory();
                let d = op
                    .tr
                    .trajectory()
                    .position_clamped(30.0)
                    .distance(q.position_clamped(30.0));
                let entering = (ENTRY_MIN..ENTRY_MAX).contains(&d);
                assert!(entering || d > 70.0, "d = {d}");
                assert!(seen.insert((k, entering)));
            }
            assert_eq!(seen.len(), NEAR_CYCLE);
        }
        let far = churn_script(3, false, 4, 60);
        assert_eq!(far.fleet, s.fleet);
        assert_eq!(far.standing, s.standing);
        assert!(far.ops.iter().all(|op| op.target.is_none()
            && op.tr.oid().0 >= (CHURN_FLEET + STANDING_QUERIES) as u64
            && op
                .tr
                .trajectory()
                .samples()
                .iter()
                .all(|p| p.position.y <= -80.0)));
    }

    #[test]
    fn mix_script_rhythm_and_hot_share() {
        let s = mix_script(5, 0, 9000);
        for (i, op) in s.ops.iter().enumerate() {
            assert_eq!(matches!(op, MixOp::Write(_)), i % 9 == 8);
        }
        let mut counts = std::collections::BTreeMap::new();
        let mut checked = 0;
        for op in &s.ops {
            if let MixOp::Read { object, check, .. } = op {
                *counts.entry(*object).or_insert(0usize) += 1;
                checked += usize::from(*check);
            }
        }
        let mut by_count: Vec<usize> = counts.values().copied().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        let hot: usize = by_count.iter().take(HOT_SET).sum();
        let share = hot as f64 / 8000.0;
        assert!((0.77..0.84).contains(&share), "hot share {share}");
        assert_eq!(checked, 8000 / CHECK_EVERY);
    }

    #[test]
    fn ingest_script_splits_between_threads() {
        let s = ingest_script(2, 101);
        assert_eq!((s.per_thread[0].len(), s.per_thread[1].len()), (51, 50));
        assert_eq!(s.probes.len(), 3);
        let mut oids: Vec<u64> = s.per_thread.iter().flatten().map(|t| t.oid().0).collect();
        oids.sort_unstable();
        oids.dedup();
        assert_eq!(oids.len(), 101);
    }
}
