//! Reverse nearest-neighbor dispatch: "whose nearest ambulance am I?"
//!
//! §7 of the paper lists *reverse* NN queries as a future-work variant.
//! The operational question is dual to the forward one: instead of asking
//! who is nearest to the ambulance, the dispatcher asks **which incidents
//! would be served by this ambulance** — the vehicles/objects that have
//! the ambulance as a possible nearest neighbor. Removing that ambulance
//! from service affects exactly those objects.
//!
//! The example builds the paper's random-waypoint workload, runs the
//! reverse engine directly and through the `PROB_RNN` statement of the
//! query language, and contrasts the probabilistic reverse answer with the
//! crisp (expected-location) one.
//!
//! Run with: `cargo run --release --example reverse_dispatch`

use uncertain_nn::prelude::*;

fn main() {
    let cfg = WorkloadConfig {
        num_objects: 200,
        seed: 1234,
        ..WorkloadConfig::default()
    };
    let radius = 0.5;
    let server = ModServer::new();
    server
        .register_all(generate_uncertain(&cfg, radius))
        .expect("fresh ids");

    let ambulance = Oid(0);
    let shift = TimeInterval::new(0.0, 60.0);

    println!(
        "MOD of {} objects; reverse focus: {ambulance} (r = {radius} mi)",
        server.store().len()
    );

    // Full reverse engine: one perspective envelope per object.
    let rev = server
        .reverse_engine(ambulance, shift)
        .expect("engine builds");
    let mut probabilistic = rev.answer_set().into_pairs();
    probabilistic.sort_by(|a, b| {
        b.1.total_len()
            .total_cmp(&a.1.total_len())
            .then_with(|| a.0.cmp(&b.0))
    });
    println!(
        "\nProbabilistic RNN — objects that may have {ambulance} as their NN: {}",
        probabilistic.len()
    );
    for (oid, iv) in probabilistic.iter().take(10) {
        println!(
            "  {oid:>6}: possible for {:5.1} of 60 min ({:4.1}%)",
            iv.total_len(),
            100.0 * iv.total_len() / shift.len()
        );
    }

    // The crisp subset: objects whose expected-location NN *is* the
    // ambulance at some point.
    let crisp = rev.crisp_rnn_all();
    println!(
        "\nCrisp RNN (expected locations only): {} objects — always a subset",
        crisp.len()
    );
    for (oid, iv) in crisp.iter().take(10) {
        println!("  {oid:>6}: nearest for {:5.1} min", iv.total_len());
    }
    assert!(crisp.len() <= probabilistic.len());

    // The same retrieval through the query language.
    let stmt = "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_RNN(*, Tr0, TIME) > 0";
    match server.execute(stmt).expect("statement runs") {
        QueryOutput::Objects(objs) => {
            println!("\n{stmt}\n  -> {} objects", objs.len());
            assert_eq!(objs.len(), probabilistic.len());
        }
        other => panic!("expected Objects, got {other:?}"),
    }

    // Per-object drill-down: how exposed is a specific incident?
    for (oid, iv) in probabilistic.iter().take(3) {
        let frac = window_fraction(iv, shift);
        let always = Quantifier::Forall.holds(iv, shift);
        println!(
            "\n{oid}: {ambulance} is a possible NN {:.0}% of the shift{}",
            frac * 100.0,
            if always { " (at every instant!)" } else { "" }
        );
    }

    // Asymmetry demonstration: the forward NN of the ambulance need not
    // have the ambulance as its own possible NN and vice versa.
    let forward = server
        .continuous_nn(ambulance, shift)
        .expect("forward answer");
    let forward_first = forward.sequence[0].0;
    let is_reverse = probabilistic.iter().any(|(o, _)| *o == forward_first);
    println!(
        "\nForward NN at shift start: {forward_first}; is it also a reverse \
         neighbor? {is_reverse} (the two relations differ in general)"
    );
}
