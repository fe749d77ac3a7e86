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
//! multiply-add the host has — and fails if the two lines differ.
//!
//! Run with: `cargo run --release --example kernel_digest`

use std::sync::Arc;
use uncertain_nn::prelude::*;
use uncertain_nn::prob::UniformDifferencePdf;

const RADIUS: f64 = 0.5;
const SAMPLES: u32 = 128;
const QUERIES: [u64; 4] = [0, 150, 300, 450];

fn main() {
    let fleet = generate_uncertain(&WorkloadConfig::with_objects(600, 0xEDB7_2009), RADIUS);
    let snapshot = Arc::new(QuerySnapshot::new(1, fleet));
    let kernel = ColumnKernel::new(&UniformDifferencePdf::new(RADIUS));
    let window = TimeInterval::new(0.0, 60.0);
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |word: u64| {
        for byte in word.to_le_bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let mut values = 0usize;
    for query in QUERIES {
        let rows = QueryPlanner::default()
            .plan(Arc::clone(&snapshot), Oid(query), window)
            .expect("the query object is in the fleet")
            .build_engine()
            .expect("every object covers the window")
            .prob_row_set_kernel(&kernel, SAMPLES);
        for row in rows.rows() {
            fold(row.oid.0);
            for (k, p) in &row.points {
                fold(u64::from(*k));
                fold(p.to_bits());
                values += 1;
            }
        }
    }
    println!("kernel_digest {digest:016x} ({values} row values)");
}
