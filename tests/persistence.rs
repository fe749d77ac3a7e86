//! Persistence round-trips: a MOD saved as a checkpoint image reloads
//! bit-identically and answers queries identically.

use std::path::PathBuf;
use uncertain_nn::modb::durability::{load_image, save_image};
use uncertain_nn::prelude::*;

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("unn_persist_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn reloaded_mod_answers_identically() {
    let cfg = WorkloadConfig {
        num_objects: 25,
        seed: 55,
        ..WorkloadConfig::default()
    };
    let trs = generate_uncertain(&cfg, 0.5);

    let original = ModServer::new();
    original.register_all(trs.clone()).unwrap();

    // Save to a file and reload into a fresh server.
    let dir = scratch("fleet");
    let path = dir.join("fleet.unn");
    save_image(&path, &original.store().snapshot()).unwrap();
    let (_, reloaded_trs) = load_image(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(reloaded_trs, original.store().snapshot().to_vec());

    let reloaded = ModServer::new();
    reloaded.register_all(reloaded_trs).unwrap();

    let window = TimeInterval::new(0.0, 60.0);
    let a = original.continuous_nn(Oid(3), window).unwrap();
    let b = reloaded.continuous_nn(Oid(3), window).unwrap();
    assert_eq!(a.sequence, b.sequence);

    let stmt = "SELECT * FROM MOD WHERE ATLEAST 0.25 OF TIME IN [0, 60] \
                AND PROB_NN(*, Tr3, TIME) > 0";
    assert_eq!(
        original.execute(stmt).unwrap(),
        reloaded.execute(stmt).unwrap()
    );
}

#[test]
fn file_round_trip_with_mixed_pdfs() {
    use uncertain_nn::prob::PdfKind;
    use uncertain_nn::traj::trajectory::Trajectory;

    let dir = scratch("mixed");
    let path = dir.join("mixed.unn");

    let store = ModStore::new();
    let t1 = Trajectory::from_triples(Oid(1), &[(0.0, 0.0, 0.0), (5.0, 5.0, 10.0)]).unwrap();
    let t2 = Trajectory::from_triples(Oid(2), &[(1.0, 0.0, 0.0), (6.0, 4.0, 10.0)]).unwrap();
    store
        .insert(UncertainTrajectory::with_uniform_pdf(t1, 0.5).unwrap())
        .unwrap();
    store
        .insert(
            UncertainTrajectory::new(
                t2,
                0.5,
                PdfKind::TruncatedGaussian {
                    radius: 0.5,
                    sigma: 0.2,
                },
            )
            .unwrap(),
        )
        .unwrap();
    save_image(&path, &store.snapshot()).unwrap();
    let (_, loaded) = load_image(&path).unwrap();
    assert_eq!(loaded, store.snapshot().to_vec());
    std::fs::remove_dir_all(&dir).unwrap();
}
