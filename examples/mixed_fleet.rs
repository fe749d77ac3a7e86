//! Heterogeneous uncertainty radii: a mixed-quality tracking fleet.
//!
//! §7 of the paper closes with "allow for different uncertainty zones of
//! the object locations (i.e., circles with different radii)". This
//! example runs that extension end to end: half the fleet reports over
//! precise GPS (0.1-mile disks), half over coarse cell-tower fixes
//! (1.5-mile disks). With unequal radii:
//!
//! * the homogeneous server path refuses the MOD (`MixedRadii`),
//! * the hetero engine prunes with **per-object** bands
//!   `d_i − (r_i + r_q) ≤ min_j (d_j + r_j + r_q)` built on shifted
//!   envelopes,
//! * Theorem 1 no longer applies: the probability ranking can differ from
//!   the center-distance ranking, so rankings are computed with exact
//!   per-pair difference pdfs.
//!
//! Run with: `cargo run --release --example mixed_fleet`

use uncertain_nn::prelude::*;

fn main() {
    let cfg = WorkloadConfig {
        num_objects: 150,
        seed: 77,
        ..WorkloadConfig::default()
    };
    let trajectories = generate(&cfg);

    let server = ModServer::new();
    for (k, tr) in trajectories.into_iter().enumerate() {
        // Even ids: GPS quality. Odd ids: cell-tower quality.
        let r = if k % 2 == 0 { 0.1 } else { 1.5 };
        server
            .register(UncertainTrajectory::with_uniform_pdf(tr, r).unwrap())
            .expect("fresh ids");
    }

    let focus = Oid(0); // a GPS-quality vehicle
    let shift = TimeInterval::new(0.0, 60.0);

    // The paper's homogeneous machinery refuses mixed radii...
    match server.engine(focus, shift) {
        Err(e) => println!("homogeneous path: {e} (as expected)"),
        Ok(_) => unreachable!("mixed radii must be rejected"),
    }

    // ...the §7 extension handles them.
    let engine = server
        .hetero_engine(focus, shift)
        .expect("hetero engine builds");
    let stats = engine.stats();
    println!(
        "hetero engine: {} candidates, {} possible somewhere ({:.1}% pruned)",
        stats.total,
        stats.kept,
        100.0 * (1.0 - stats.kept_fraction())
    );

    // Possibility sets, GPS vs cell-tower.
    let mut possible = engine.all_possible();
    possible.sort_by(|a, b| b.1.total_len().total_cmp(&a.1.total_len()));
    println!("\nMost persistent possible NNs:");
    for (oid, iv) in possible.iter().take(8) {
        let r = if oid.0 % 2 == 0 { 0.1 } else { 1.5 };
        println!(
            "  {oid:>6} (r = {r:3.1} mi): possible {:5.1} of 60 min",
            iv.total_len()
        );
    }
    let coarse = possible.iter().filter(|(o, _)| o.0 % 2 == 1).count();
    println!(
        "  {} of {} survivors are coarse-tracked — big disks stay possible longer",
        coarse,
        possible.len()
    );

    // Instant ranking by exact probability (Theorem 1 does not apply).
    let t = 30.0;
    let ranking = engine.ranking_at(t).expect("instant inside the shift");
    println!("\nP^NN ranking at t = {t} min:");
    for (oid, p) in ranking.iter().take(5) {
        let d = engine
            .candidates()
            .iter()
            .find(|c| c.f.owner() == *oid)
            .and_then(|c| c.f.eval(t))
            .unwrap();
        let r = if oid.0 % 2 == 0 { 0.1 } else { 1.5 };
        println!("  {oid:>6}: P^NN = {p:.3}   center distance {d:6.2} mi, r = {r}");
    }

    // Detect a Theorem-1 inversion: probability order differing from
    // center-distance order among the top candidates.
    let mut by_distance: Vec<(Oid, f64)> = ranking
        .iter()
        .map(|(oid, _)| {
            let d = engine
                .candidates()
                .iter()
                .find(|c| c.f.owner() == *oid)
                .and_then(|c| c.f.eval(t))
                .unwrap();
            (*oid, d)
        })
        .collect();
    by_distance.sort_by(|a, b| a.1.total_cmp(&b.1));
    let prob_order: Vec<Oid> = ranking.iter().map(|(o, _)| *o).collect();
    let dist_order: Vec<Oid> = by_distance.iter().map(|(o, _)| *o).collect();
    if prob_order != dist_order {
        println!(
            "\nTheorem-1 inversion witnessed: probability order {:?} vs \
             distance order {:?}",
            &prob_order[..prob_order.len().min(4)],
            &dist_order[..dist_order.len().min(4)]
        );
    } else {
        println!("\nNo inversion at this instant (orders coincide here).");
    }

    // Per-object queries, hetero Category-1 style, on the two most
    // persistent survivors.
    for (oid, iv) in possible.iter().take(2) {
        let always = Quantifier::Forall.holds(iv, shift);
        println!(
            "{oid}: possible {:.0}% of the shift{}",
            window_fraction(iv, shift).max(0.0) * 100.0,
            if always { ", at every instant" } else { "" }
        );
    }
}
