//! Concurrency tests of the store: writer threads hammer
//! inserts/removes on disjoint id ranges while reader threads
//! continuously take (delta-patched) snapshots. Asserts no lost updates, a strictly
//! monotone epoch per observer, and internally consistent snapshots
//! throughout.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use uncertain_nn::prelude::*;

const WRITERS: u64 = 8;
const PER_WRITER: u64 = 40;

fn tr(oid: u64) -> UncertainTrajectory {
    // Position derived from the id so every object is distinguishable.
    let x = (oid % 37) as f64;
    let y = (oid % 53) as f64;
    UncertainTrajectory::with_uniform_pdf(
        Trajectory::from_triples(Oid(oid), &[(x, y, 0.0), (x + 5.0, y + 2.0, 10.0)]).unwrap(),
        0.5,
    )
    .unwrap()
}

#[test]
fn concurrent_writers_and_snapshotting_readers() {
    let store = Arc::new(ModStore::new());
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Writers: each owns a disjoint id range; inserts everything,
        // then removes the odd half (so the expected survivor set is
        // exact). The writers' commits interleave on the store's one
        // table lock while the readers snapshot between them.
        for w in 0..WRITERS {
            let store = &store;
            scope.spawn(move || {
                let base = w * 1_000;
                for i in 0..PER_WRITER {
                    store.insert(tr(base + i)).unwrap();
                }
                for i in (1..PER_WRITER).step_by(2) {
                    store.remove(Oid(base + i)).unwrap();
                }
            });
        }
        // Readers: snapshot + query until the writers finish; epochs must
        // never go backwards and every snapshot must be sorted.
        for _ in 0..4 {
            let store = &store;
            let done = &done;
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                while !done.load(Ordering::Acquire) {
                    let snap = store.snapshot();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epoch went backwards: {} after {last_epoch}",
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();
                    assert!(
                        snap.objects().windows(2).all(|p| p[0].oid() < p[1].oid()),
                        "snapshot not sorted"
                    );
                }
            });
        }
        // Scope drops writer handles first; flag readers once writers are
        // done by spawning a watcher after the writers' join.
        let store_ref = &store;
        let done_ref = &done;
        scope.spawn(move || {
            // Busy-wait until the exact final population is reached, then
            // stop the readers. (Writers only ever converge there.)
            let expected = WRITERS * (PER_WRITER - PER_WRITER / 2);
            loop {
                if store_ref.len() as u64 == expected
                    && store_ref.epoch() >= WRITERS * (PER_WRITER + PER_WRITER / 2)
                {
                    break;
                }
                std::thread::yield_now();
            }
            done_ref.store(true, Ordering::Release);
        });
    });

    // No lost updates: exactly the even ids of every writer survive.
    let survivors = store.oids();
    let expected_len = (WRITERS * (PER_WRITER - PER_WRITER / 2)) as usize;
    assert_eq!(survivors.len(), expected_len);
    for w in 0..WRITERS {
        let base = w * 1_000;
        for i in (0..PER_WRITER).step_by(2) {
            assert!(
                store.contains(Oid(base + i)),
                "lost update: {} missing",
                base + i
            );
        }
        for i in (1..PER_WRITER).step_by(2) {
            assert!(!store.contains(Oid(base + i)), "zombie: {}", base + i);
        }
    }
    // Every mutation bumped the epoch exactly once: inserts + removes.
    let total_mutations = WRITERS * (PER_WRITER + PER_WRITER / 2);
    assert_eq!(store.epoch(), total_mutations);
    // The final snapshot reflects the final population.
    let snap = store.snapshot();
    assert_eq!(snap.len(), expected_len);
    assert_eq!(snap.epoch(), store.epoch());
}

#[test]
fn concurrent_queries_during_ingest_stay_consistent() {
    let server = Arc::new(ModServer::new());
    // A stable core population the query threads work against.
    server
        .register_all(generate_uncertain(
            &WorkloadConfig::with_objects(30, 19),
            0.5,
        ))
        .unwrap();
    let w = TimeInterval::new(0.0, 60.0);
    let baseline = server.continuous_nn(Oid(0), w).unwrap().sequence;
    std::thread::scope(|scope| {
        // Churn thread: far-away objects stream in and out — provably
        // outside every core engine's band, so answers must not change.
        let server_ref = &server;
        scope.spawn(move || {
            for k in 0..60u64 {
                let oid = 10_000 + k;
                let y = 5_000.0 + k as f64;
                server_ref
                    .register(
                        UncertainTrajectory::with_uniform_pdf(
                            Trajectory::from_triples(Oid(oid), &[(0.0, y, 0.0), (40.0, y, 60.0)])
                                .unwrap(),
                            0.5,
                        )
                        .unwrap(),
                    )
                    .unwrap();
                if k % 2 == 0 {
                    server_ref.store().remove(Oid(oid)).unwrap();
                }
            }
        });
        for _ in 0..3 {
            let server_ref = &server;
            let baseline = &baseline;
            scope.spawn(move || {
                for _ in 0..20 {
                    let ans = server_ref.continuous_nn(Oid(0), w).unwrap();
                    assert_eq!(&ans.sequence, baseline, "answer changed under churn");
                }
            });
        }
    });
    // The carry fast-path should have served at least some of those
    // queries without a rebuild (every churn object is out of reach).
    let stats = server.metrics_snapshot(Some("cache_"));
    assert!(stats.value("cache_hits_total") > Some(0), "{stats:?}");
}
