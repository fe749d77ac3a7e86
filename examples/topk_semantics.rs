//! Top-k semantics: crisp trajectories vs uncertain trajectories.
//!
//! §7 of the paper proposes to "compare the semantics of traditional
//! Top-k NN queries for crisp trajectories with that for uncertain
//! trajectories". This example materializes both answers on the paper's
//! workload:
//!
//! * the **crisp** continuous k-NN answer — a partition of the window into
//!   cells with the ordered k nearest objects by expected locations
//!   (`continuous_knn`, Algorithm 3's recursion without the band stop);
//! * the **uncertain** Top-k at sampled instants — the ranking by exact
//!   `P^NN` (Eq. 5 over the convolved difference pdfs).
//!
//! Theorem 1 predicts the two agree whenever all objects share one
//! rotationally symmetric pdf — and the measured agreement is ≈ 100%.
//! With heterogeneous radii the prediction fails, which is where the
//! `mixed_fleet` example picks up.
//!
//! Run with: `cargo run --release --example topk_semantics`

use uncertain_nn::core::topk::semantics_agreement;
use uncertain_nn::prelude::*;

fn main() {
    let cfg = WorkloadConfig {
        num_objects: 250,
        seed: 2009,
        ..WorkloadConfig::default()
    };
    let radius = 0.5;
    let trajectories = generate(&cfg);
    let window = TimeInterval::new(0.0, 60.0);
    let k = 3;

    let query = trajectories
        .iter()
        .find(|t| t.oid() == Oid(0))
        .expect("workload contains Tr0");
    let fs = difference_distances(query, &trajectories, &window).expect("window valid");

    // Crisp continuous k-NN: the full time-parameterized answer.
    let crisp = continuous_knn(&fs, k);
    println!(
        "Crisp continuous {k}-NN of Tr0: {} cells over {} minutes",
        crisp.cells().len(),
        window.len()
    );
    for cell in crisp.cells().iter().take(6) {
        let names: Vec<String> = cell.ranked.iter().map(|o| o.to_string()).collect();
        println!(
            "  [{:5.1}, {:5.1}] min: {}",
            cell.span.start(),
            cell.span.end(),
            names.join(" < ")
        );
    }
    if crisp.cells().len() > 6 {
        println!("  ... {} more cells", crisp.cells().len() - 6);
    }

    // Uncertain Top-k at a probe instant.
    let engine = QueryEngine::new(Oid(0), fs, radius);
    let t = 30.0;
    let probabilistic = probabilistic_topk_at(&engine, t, k);
    println!("\nUncertain Top-{k} at t = {t} min (by exact P^NN):");
    for (oid, p) in &probabilistic {
        println!("  {oid:>6}: P^NN = {p:.3}");
    }
    println!(
        "Crisp Top-{k} at t = {t} min:      {:?}",
        crisp.knn_at(t).unwrap()
    );

    // Quantified agreement across the window (Theorem 1 in action).
    let agreement = semantics_agreement(&engine, &crisp, k, 600);
    println!(
        "\nAgreement of the two semantics over 600 probes: {:.1}% \
         (Theorem 1: equal-radius ranking by P^NN == ranking by distance)",
        agreement * 100.0
    );
    assert!(agreement > 0.95, "Theorem 1 violated: {agreement}");

    // Membership stability: how long does each object stay in the top k?
    let mut tenure: Vec<(Oid, f64)> = crisp
        .cells()
        .iter()
        .flat_map(|c| c.ranked.iter().map(move |o| (*o, c.span.len())))
        .fold(
            std::collections::BTreeMap::<Oid, f64>::new(),
            |mut m, (o, l)| {
                *m.entry(o).or_insert(0.0) += l;
                m
            },
        )
        .into_iter()
        .collect();
    tenure.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\nLongest Top-{k} tenures:");
    for (oid, mins) in tenure.iter().take(5) {
        println!("  {oid:>6}: {mins:5.1} min in the top {k}");
    }
}
