//! Fleet monitoring: the paper's motivating scenario (§2.1 cites FedEx/UPS
//! fleets with server-side full-trajectory motion plans).
//!
//! A dispatcher tracks a fleet over a 40×40-mile metro area for one hour.
//! GPS/route uncertainty is modelled with 0.5-mile uncertainty disks. The
//! dispatcher asks, for a chosen truck:
//!
//! * who can possibly be its nearest neighbor during the shift (UQ31),
//! * which escorts are *always* possible nearest neighbors (UQ32),
//! * which units are possible NNs at least 30% of the shift (UQ33),
//! * and how strong the top candidates' probabilities actually are
//!   (IPAC-NN descriptors).
//!
//! Run with: `cargo run --release --example fleet_monitoring`

use uncertain_nn::core::ipac::annotate_probabilities;
use uncertain_nn::prelude::*;

fn main() {
    // One hour of fleet motion in the paper's workload model.
    let cfg = WorkloadConfig {
        num_objects: 300,
        seed: 42,
        ..WorkloadConfig::default()
    };
    let radius = 0.5;
    let fleet = generate_uncertain(&cfg, radius);

    let server = ModServer::new();
    server.register_all(fleet).expect("fresh ids");

    let truck = Oid(17);
    let shift = TimeInterval::new(0.0, 60.0);

    let (engine, stats) = server.engine(truck, shift).expect("engine builds");
    println!(
        "Fleet of {} vehicles; dispatch focus: {truck}",
        server.store().len()
    );
    println!(
        "Envelope preprocessing: {} candidates -> {} possible NNs after pruning \
         ({:.1}% pruned), {} envelope pieces, {:?}",
        stats.candidates,
        stats.kept,
        100.0 * (1.0 - stats.kept as f64 / stats.candidates as f64),
        stats.envelope_pieces,
        stats.preprocess,
    );

    // Crisp continuous NN timeline.
    println!("\nNearest-vehicle timeline (crisp semantics):");
    for (oid, iv) in engine.continuous_nn_answer() {
        println!(
            "  {oid:>6} during [{:5.1}, {:5.1}] min",
            iv.start(),
            iv.end()
        );
    }

    // UQ31: everything with non-zero probability sometime.
    let possible = engine.uq31_all();
    println!(
        "\nUQ31 — vehicles with non-zero NN probability at some point: {}",
        possible.len()
    );

    // The whole-MOD quantifiers decide each entry of an answer set.
    let admitted = |answer: &AnswerSet, q: Quantifier| -> Vec<(Oid, f64)> {
        let w = answer.window();
        answer
            .entries()
            .iter()
            .filter(|e| q.holds(&e.intervals, w))
            .map(|e| (e.oid, e.fraction(w)))
            .collect()
    };

    // UQ32: throughout the shift.
    let always: Vec<Oid> = admitted(engine.answer(), Quantifier::Forall)
        .into_iter()
        .map(|(oid, _)| oid)
        .collect();
    println!("UQ32 — vehicles possible at *every* instant: {always:?}");

    // UQ33 with X = 30%.
    let mut steady = admitted(engine.answer(), Quantifier::AtLeast(0.30));
    steady.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("UQ33 — possible NNs for ≥ 30% of the shift:");
    for (oid, frac) in steady.iter().take(8) {
        println!("  {oid:>6}: {:.0}% of the shift", frac * 100.0);
    }

    // Rank-2 coverage (Category 4): backup candidates.
    let mut backups = admitted(&engine.ranked_answer_set(2), Quantifier::AtLeast(0.30));
    backups.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("UQ43 — within the top-2 ranks for ≥ 30% of the shift:");
    for (oid, frac) in backups.iter().take(8) {
        println!("  {oid:>6}: {:.0}%", frac * 100.0);
    }

    // Probability strength of the top of the tree.
    let mut tree = engine.ipac_tree(2);
    annotate_probabilities(&mut tree, engine.functions(), radius, 3);
    println!("\nIPAC-NN level-1 nodes with sampled P^NN:");
    for node in &tree.roots {
        let avg = if node.descriptor.prob_samples.is_empty() {
            f64::NAN
        } else {
            node.descriptor
                .prob_samples
                .iter()
                .map(|(_, p)| p)
                .sum::<f64>()
                / node.descriptor.prob_samples.len() as f64
        };
        println!(
            "  {:>6} [{:5.1}, {:5.1}] min  d ∈ [{:.2}, {:.2}] mi   avg P^NN ≈ {:.3}",
            node.owner.to_string(),
            node.span.start(),
            node.span.end(),
            node.descriptor.min_distance,
            node.descriptor.max_distance,
            avg
        );
    }
}
