//! One hash over every bit the column kernel produces on a fixed corpus.
//!
//! The system's contract is bit-identity: a leader and a follower, a cold
//! and a maintained answer, compute the same `P^NN` **bits** — also when
//! they run on different CPUs. The kernel earns that by using only
//! correctly-rounded IEEE operations in an order the source fixes
//! (`unn_prob::profile`, "Determinism"); this example is the check. It
//! evaluates the full-density probability rows of four query objects on
//! the 600-object §5 workload and folds every `(object, probe, P.to_bits())`
//! into one FNV-1a digest. CI builds and runs it twice — default flags,
//! and `RUSTFLAGS="-C target-cpu=native"` in its own target directory,
//! where the compiler is free to use every vector extension and fused
//! multiply-add the host has — and fails if the two outputs differ. The
//! first line is also pinned to its committed value, so a numerics change
//! cannot ride in unnoticed.
//!
//! The second line hashes the same four queries driven through **one kept
//! kernel** — the way a threshold share's kernel lives across commits —
//! across a whole-window band entry → exit → entry of an object on each
//! query object's own path. From its second evaluation on, a probe column
//! reads back the quadrature blocks the kernel remembers
//! (`unn_core::kernel`, "Memo"); every row set is checked `to_bits`
//! against a fresh kernel's before it is hashed. CI pins it too.
//!
//! The third line hashes the `UQ31` answers of the same four queries'
//! cold engines: every `(object, interval start, interval end)` as bits.
//! No row reads a band-crossing instant, so this is the line that moves
//! when the band solver (`unn_geom::roots`) changes numerics; CI pins it
//! beside the first.
//!
//! Run with: `cargo run --release --example kernel_digest`

use std::sync::Arc;
use uncertain_nn::core::probrows::probe_time;
use uncertain_nn::prelude::*;
use uncertain_nn::prob::UniformDifferencePdf;
use uncertain_nn::traj::trajectory::TrajectorySample;

const RADIUS: f64 = 0.5;
const SAMPLES: u32 = 128;
const QUERIES: [u64; 4] = [0, 150, 300, 450];

/// FNV-1a over 64-bit words, and the number of values folded in.
struct Digest {
    hash: u64,
    values: usize,
}

impl Digest {
    fn new() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            values: 0,
        }
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.hash = (self.hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn rows(&mut self, rows: &ProbRowSet) {
        for row in rows.rows() {
            self.word(row.oid.0);
            for (k, p) in &row.points {
                self.word(u64::from(*k));
                self.word(p.to_bits());
                self.values += 1;
            }
        }
    }

    fn intervals(&mut self, answer: &[(Oid, IntervalSet)]) {
        for (oid, set) in answer {
            self.word(oid.0);
            for span in set.spans() {
                self.word(span.start().to_bits());
                self.word(span.end().to_bits());
                self.values += 2;
            }
        }
    }
}

fn kernel() -> ColumnKernel {
    ColumnKernel::new(&UniformDifferencePdf::new(RADIUS))
}

fn engine(snapshot: &Arc<QuerySnapshot>, query: u64, window: TimeInterval) -> QueryEngine {
    QueryPlanner::default()
        .plan(Arc::clone(snapshot), Oid(query), window)
        .expect("the query object is in the fleet")
        .build_engine()
        .expect("every object covers the window")
}

/// An object on `query`'s own path, a constant distance off: up to
/// 1.8 mi, and closer than the query's nearest neighbour somewhere, so
/// it enters the band for the whole window and redraws the envelope.
fn band_object(query: &UncertainTrajectory, without: &QueryEngine) -> UncertainTrajectory {
    let farthest_nn = (0..SAMPLES)
        .filter_map(|k| {
            let t = probe_time(without.window(), SAMPLES, k);
            without.envelope().eval(t)
        })
        .fold(0.0, f64::max);
    let offset = (0.9 * farthest_nn).min(1.8);
    let samples = query
        .trajectory()
        .samples()
        .iter()
        .map(|s| {
            TrajectorySample::new(
                s.position.x + 0.6 * offset,
                s.position.y + 0.8 * offset,
                s.time,
            )
        })
        .collect();
    let tr = Trajectory::new(Oid(1_000_000), samples).expect("a shifted path stays valid");
    UncertainTrajectory::with_uniform_pdf(tr, RADIUS).expect("valid radius")
}

fn main() {
    let fleet = generate_uncertain(&WorkloadConfig::with_objects(600, 0xEDB7_2009), RADIUS);
    let snapshot = Arc::new(QuerySnapshot::new(1, fleet.clone()));
    let window = TimeInterval::new(0.0, 60.0);

    let cold = kernel();
    let mut digest = Digest::new();
    for query in QUERIES {
        digest.rows(&engine(&snapshot, query, window).prob_row_set_kernel(&cold, SAMPLES));
    }
    println!(
        "kernel_digest {:016x} ({} row values)",
        digest.hash, digest.values
    );

    let kept = kernel();
    let mut digest = Digest::new();
    for query in QUERIES {
        let without = engine(&snapshot, query, window);
        let query_tr = fleet
            .iter()
            .find(|t| t.oid() == Oid(query))
            .expect("the query object is in the fleet");
        let mut entered = fleet.clone();
        entered.push(band_object(query_tr, &without));
        let with = engine(&Arc::new(QuerySnapshot::new(2, entered)), query, window);
        // Registration and a first patch: from here on the kernel
        // remembers every column.
        for _ in 0..2 {
            without.prob_row_set_kernel(&kept, SAMPLES);
        }
        for (step, engine) in [("entry", &with), ("exit", &without), ("entry", &with)] {
            let rows = engine.prob_row_set_kernel(&kept, SAMPLES);
            let fresh = engine.prob_row_set_kernel(&kernel(), SAMPLES);
            let bits = |set: &ProbRowSet| -> Vec<(Oid, u32, u64)> {
                set.rows()
                    .iter()
                    .flat_map(|r| r.points.iter().map(move |&(k, p)| (r.oid, k, p.to_bits())))
                    .collect()
            };
            assert!(
                bits(&rows) == bits(&fresh),
                "query {query}, {step}: the kept kernel's rows differ from a fresh kernel's"
            );
            digest.rows(&rows);
        }
    }
    println!(
        "kernel_digest_kept {:016x} ({} row values)",
        digest.hash, digest.values
    );

    let mut digest = Digest::new();
    for query in QUERIES {
        digest.intervals(&engine(&snapshot, query, window).uq31_all());
    }
    println!(
        "answer_digest {:016x} ({} endpoints)",
        digest.hash, digest.values
    );
}
