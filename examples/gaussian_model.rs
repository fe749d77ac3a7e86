//! Beyond the uniform disk: the truncated-Gaussian location model.
//!
//! §3.1 of the paper stresses that its results hold for *every*
//! rotationally symmetric location pdf, with the bounded Gaussian as the
//! canonical second example (Figure 3.c). This example runs the full
//! pipeline under that model:
//!
//! * registration with `PdfKind::TruncatedGaussian`;
//! * continuous answers and ranking — **identical** to the uniform model
//!   (Theorem 1 depends only on rotational symmetry, and the `4r` band
//!   depends only on the support radius);
//! * probability *values* — different: the concentrated Gaussian sharpens
//!   the leader's `P^NN`, which shows up in threshold-query answers.
//!
//! Run with: `cargo run --release --example gaussian_model`

use uncertain_nn::prelude::*;

fn main() {
    let cfg = WorkloadConfig {
        num_objects: 120,
        seed: 31,
        ..WorkloadConfig::default()
    };
    let radius = 0.5;
    let trajectories = generate(&cfg);

    // Two servers over the same motion: uniform vs truncated Gaussian.
    let uniform = ModServer::new();
    let gaussian = ModServer::new();
    for tr in &trajectories {
        uniform
            .register(UncertainTrajectory::with_uniform_pdf(tr.clone(), radius).unwrap())
            .unwrap();
        gaussian
            .register(
                UncertainTrajectory::new(
                    tr.clone(),
                    radius,
                    PdfKind::TruncatedGaussian {
                        radius,
                        sigma: radius / 3.0,
                    },
                )
                .unwrap(),
            )
            .unwrap();
    }
    let window = TimeInterval::new(0.0, 60.0);

    // The ranking machinery is pdf-shape-blind (Theorem 1): identical
    // crisp answers and identical possible-NN sets.
    let a_uniform = uniform.continuous_nn(Oid(0), window).unwrap();
    let a_gauss = gaussian.continuous_nn(Oid(0), window).unwrap();
    assert_eq!(a_uniform.sequence, a_gauss.sequence);
    println!(
        "continuous NN answer: {} entries — identical under both models \
         (Theorem 1 uses only rotational symmetry)",
        a_uniform.sequence.len()
    );

    // Probability values differ: the same threshold statement can answer
    // differently.
    let stmt = "SELECT * FROM MOD WHERE ATLEAST 0.05 OF TIME IN [0, 60] \
                AND PROB_NN(*, Tr0, TIME) > 0.5";
    let count = |out: QueryOutput| match out {
        QueryOutput::Objects(rows) => rows.len(),
        other => unreachable!("star query, got {other:?}"),
    };
    let n_uniform = count(uniform.execute(stmt).unwrap());
    let n_gauss = count(gaussian.execute(stmt).unwrap());
    println!("\n{stmt}");
    println!("  uniform model:  {n_uniform} qualifying objects");
    println!("  gaussian model: {n_gauss} qualifying objects");
    println!(
        "  (the concentrated Gaussian puts more mass at the expected \
         location, so dominant\n   objects clear high thresholds more \
         easily: gaussian ≥ uniform is typical)"
    );

    // Instantaneous view of the same effect.
    let t = 30.0;
    let snap = uniform.instantaneous_nn(Oid(0), t).unwrap();
    if let Some((leader, p_uni)) = snap.top() {
        // Recompute the leader's probability under the Gaussian model via
        // the generalized evaluator.
        let trs: Vec<Trajectory> = trajectories.clone();
        let q = trs.iter().find(|tr| tr.oid() == Oid(0)).unwrap();
        let fs = difference_distances(q, &trs, &window).unwrap();
        let engine = QueryEngine::new(Oid(0), fs, radius);
        let kind = PdfKind::TruncatedGaussian {
            radius,
            sigma: radius / 3.0,
        };
        let kernel = ColumnKernel::new(kind.convolve_with(&kind).as_ref());
        let p_gauss =
            uncertain_nn::core::threshold::probability_at_kernel(&engine, &kernel, leader, t)
                .unwrap_or(0.0);
        println!(
            "\nleader at t = {t}: {leader} — P^NN {p_uni:.3} (uniform) vs \
             {p_gauss:.3} (gaussian)"
        );
    }
}
