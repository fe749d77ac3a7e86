//! Durability overhead and recovery cost: what journaling adds to the
//! commit path per fsync policy, and what replay costs per WAL length.
//!
//! The number to read is the absolute append cost per commit:
//! `wal_append/<policy>` minus `wal_append/no_wal` in
//! `BENCH_durability.json` (as committed: `os` +4.6 µs, `every8`
//! +26 µs, `always` +117 µs over a 13 µs baseline). The commit path
//! here is commit-to-queryable, as in the `ingest` bench: the upsert
//! plus the snapshot refresh a serving store performs per commit.
//! `always` shows the price of per-commit fsync; `os` the page-cache
//! floor. Both fsync-bearing figures measure the disk under
//! `std::env::temp_dir()`, not this code — on tmpfs they collapse to
//! the `os` figure, on the sandbox's virtual disk they drift within
//! the hour — so no ratio between the rows is claimed or gated. The
//! `recovery/replay` group scales the snapshot-free replay
//! cost with the record count, bounding post-crash restart time per
//! `checkpoint_every` budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::path::PathBuf;
use std::time::Duration;
use unn_modb::durability::{open_store, recover, FsyncPolicy, WalOptions};
use unn_modb::store::ModStore;
use unn_traj::generator::{generate_uncertain, WorkloadConfig};
use unn_traj::trajectory::{Oid, Trajectory};
use unn_traj::uncertain::UncertainTrajectory;

const RADIUS: f64 = 0.5;
const POPULATION: usize = 200;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("unn_bench_wal_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn populate(store: &ModStore) {
    for tr in generate_uncertain(&WorkloadConfig::with_objects(POPULATION, 7), RADIUS) {
        store.update(tr);
    }
}

/// One journaled mutation: replace a rotating victim with a slightly
/// shifted straight track (a single-commit upsert through the full
/// journal hook).
fn churn(store: &ModStore, k: u64) {
    let oid = Oid(k % POPULATION as u64);
    let shift = 0.001 * ((k % 64) as f64);
    store.update(
        UncertainTrajectory::with_uniform_pdf(
            Trajectory::from_triples(oid, &[(shift, 0.0, 0.0), (30.0 + shift, 5.0, 60.0)])
                .expect("valid"),
            RADIUS,
        )
        .expect("valid"),
    );
}

/// One steady-state serving commit: the mutation plus the snapshot
/// refresh that makes it queryable — the `ingest` bench's definition of
/// the commit path.
fn commit(store: &ModStore, k: u64) {
    churn(store, k);
    let _ = store.snapshot();
}

fn wal_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_append");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));

    // Baseline: the commit-to-queryable path, journaling detached.
    let store = ModStore::new();
    populate(&store);
    let mut k = 0u64;
    group.bench_with_input(
        BenchmarkId::new("no_wal", POPULATION),
        &POPULATION,
        |b, _| {
            b.iter(|| {
                k += 1;
                commit(&store, k);
            })
        },
    );

    let policies: &[(&str, FsyncPolicy)] = &[
        ("always", FsyncPolicy::Always),
        ("every8", FsyncPolicy::EveryN(8)),
        ("os", FsyncPolicy::Os),
    ];
    for (name, fsync) in policies {
        let dir = scratch(name);
        let options = WalOptions {
            fsync: *fsync,
            // No mid-measurement checkpoints: this group times the
            // append hook, not the snapshot writer.
            checkpoint_every: 0,
            ..WalOptions::default()
        };
        let (store, _wal, _) = open_store(&dir, options).expect("wal opens");
        populate(&store);
        let mut k = 0u64;
        group.bench_with_input(BenchmarkId::new(*name, POPULATION), &POPULATION, |b, _| {
            b.iter(|| {
                k += 1;
                commit(&store, k);
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

fn recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));

    for frames in [256u64, 1024] {
        let dir = scratch(&format!("replay_{frames}"));
        let options = WalOptions {
            fsync: FsyncPolicy::Os,
            checkpoint_every: 0,
            ..WalOptions::default()
        };
        let (store, _wal, _) = open_store(&dir, options).expect("wal opens");
        for k in 0..frames {
            churn(&store, k);
        }
        drop(store);
        group.bench_with_input(BenchmarkId::new("replay", frames), &frames, |b, _| {
            b.iter(|| {
                let (recovered, report) = recover(&dir).expect("recovers");
                assert_eq!(report.replayed_records, frames);
                recovered.epoch()
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

criterion_group!(benches, wal_append, recovery);
criterion_main!(benches);
