//! A miniature of the paper's Figure 13: how the `4r`-band pruning power
//! varies with the uncertainty radius (the full reproduction lives in
//! `crates/bench/src/bin/fig13.rs`).
//!
//! Every verdict is checked against an oracle that shares nothing with
//! the band solver — a dense sampling of `f(t) ≤ LE(t) + 4r` — and the
//! kept counts must grow with the radius; the example exits non-zero
//! otherwise (CI runs it).
//!
//! Run with: `cargo run --release --example pruning_study`

use uncertain_nn::prelude::*;
use uncertain_nn::traj::distance::DistanceFunction;

/// Probes per candidate of the sampling oracle.
const PROBES: usize = 2000;

/// Smallest sampled `f(t) − LE(t)` per candidate: the candidate is in the
/// `4r` band at some probe iff this is at most `4r`.
fn sampled_clearances(fs: &[DistanceFunction], envelope: &Envelope) -> Vec<f64> {
    let probes = envelope.span().sample_points(PROBES - 1);
    let les: Vec<f64> = probes
        .iter()
        .map(|&t| envelope.eval(t).expect("probe inside the window"))
        .collect();
    fs.iter()
        .map(|f| {
            probes
                .iter()
                .zip(&les)
                .map(|(&t, le)| f.eval(t).expect("probe inside the window") - le)
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

fn main() {
    let cfg = WorkloadConfig {
        num_objects: 500,
        seed: 7,
        ..WorkloadConfig::default()
    };
    let trajectories = generate(&cfg);
    let window = TimeInterval::new(0.0, 60.0);
    let query = &trajectories[0];
    let fs = difference_distances(query, &trajectories, &window).expect("same window");
    let envelope = lower_envelope(&fs);
    let clearances = sampled_clearances(&fs, &envelope);

    println!(
        "Pruning power vs uncertainty radius ({} objects):\n",
        cfg.num_objects
    );
    println!(
        "{:>10} {:>12} {:>12} {:>10}",
        "radius", "kept", "pruned", "kept %"
    );
    let mut previous_kept = 0;
    for radius in [0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0] {
        let (kept, stats) = prune_by_band(&fs, &envelope, radius);
        for (idx, clearance) in clearances.iter().enumerate() {
            let margin = clearance - 4.0 * radius;
            if margin.abs() > 1e-6 {
                assert_eq!(
                    kept.contains(&idx),
                    margin < 0.0,
                    "r = {radius}: {} is {} the band by {margin} at the probes",
                    fs[idx].owner(),
                    if margin < 0.0 { "inside" } else { "outside" },
                );
            }
        }
        assert!(
            kept.len() >= previous_kept,
            "r = {radius}: kept {} < {previous_kept} at the smaller radius",
            kept.len()
        );
        previous_kept = kept.len();
        println!(
            "{:>10.2} {:>12} {:>12} {:>9.1}%",
            radius,
            kept.len(),
            stats.total - stats.kept,
            100.0 * stats.kept_fraction()
        );
    }

    println!(
        "\nReading: at r = 0.5 mi the envelope prunes ~90% of the objects \
         (paper, Figure 13); larger uncertainty keeps more candidates \
         because the 4r band is wider."
    );
}
