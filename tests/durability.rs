//! Durability integration: WAL journaling, checkpointing, and crash
//! recovery — property-tested against a never-crashed reference store.
//!
//! The acceptance properties:
//!
//! * recovering a WAL directory copied at **any commit boundary**
//!   (a `kill -9` disk image) rebuilds the store bit-identically to a
//!   reference that applied the same op prefix, and query answers match
//!   across prefilter backends;
//! * a **torn tail** (the final record cut at any byte) recovers
//!   cleanly to the previous commit, loudly reported;
//! * a **flipped byte** anywhere in the final record either fails
//!   loudly (checksum / bound / chain error) or recovers to the
//!   previous commit — never a silent divergence;
//! * a **damaged checkpoint image** — any byte flipped, cut at any
//!   length, or grown — is refused, and an intact one recovers
//!   `to_bits`-equal to the store that wrote it.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use uncertain_nn::modb::durability::{IMAGE_HEADER_LEN, SNAPSHOT_FILE};
use uncertain_nn::modb::net::wire::{encode_payload, Frame, WireOutput};
use uncertain_nn::modb::{open_store, recover, FsyncPolicy, Wal, WalOptions};
use uncertain_nn::prelude::*;

/// Unique scratch directory per test case (proptest cases of one
/// process share a pid).
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "unn_dur_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A WAL directory holds a flat set of files — copying them is exactly
/// the disk image a `kill -9` leaves behind (the page cache survives
/// the process).
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read wal dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy segment");
    }
}

fn straight(oid: u64, x: f64, y: f64) -> UncertainTrajectory {
    UncertainTrajectory::with_uniform_pdf(
        Trajectory::from_triples(Oid(oid), &[(x, y, 0.0), (x + 20.0, y + 5.0, 60.0)]).unwrap(),
        0.5,
    )
    .unwrap()
}

/// The mutation alphabet of the churn workloads. `Remove` of an absent
/// object is skipped (no commit) so the reference replays identically.
#[derive(Clone, Debug)]
enum Op {
    Upsert(u64, i32, i32),
    Remove(u64),
    Clear,
}

fn apply(store: &ModStore, op: &Op) {
    match op {
        Op::Upsert(oid, x, y) => {
            store.update(straight(*oid, f64::from(*x), f64::from(*y)));
        }
        Op::Remove(oid) => {
            if store.get(Oid(*oid)).is_some() {
                store.remove(Oid(*oid)).expect("present object removes");
            }
        }
        Op::Clear => store.clear(),
    }
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Biased toward upserts via a selector range (the vendored
    // proptest shim has no weighted `prop_oneof!`).
    prop::collection::vec(
        (0usize..12, 0u64..8, -30i32..30, -30i32..30).prop_map(|(sel, o, x, y)| match sel {
            0..=7 => Op::Upsert(o, x, y),
            8..=10 => Op::Remove(o),
            _ => Op::Clear,
        }),
        4..28,
    )
}

/// Upserts only — every op commits, so epoch == ops applied (the torn
/// tail tests need that exact correspondence).
fn arb_commits() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u64..6, -30i32..30, -30i32..30).prop_map(|(o, x, y)| Op::Upsert(o, x, y)),
        2..10,
    )
}

/// Small segments + a tight checkpoint cadence so the random runs
/// exercise rotation, pruning, and snapshot+replay recovery — not just
/// single-segment replay.
fn churn_options() -> WalOptions {
    WalOptions {
        fsync: FsyncPolicy::Os,
        segment_bytes: 2048,
        checkpoint_every: 5,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Copy the WAL directory at an arbitrary commit boundary
    /// mid-churn, recover from the copy, and compare against a
    /// reference store that applied the same prefix: state, epoch, and
    /// answers (under every prefilter backend) must be bit-identical.
    #[test]
    fn recovery_at_any_commit_boundary_is_bit_identical(
        ops in arb_ops(),
        cut_frac in 0.0..1.0f64,
        policy_idx in 0usize..2,
    ) {
        let dir = scratch("cut");
        let crash_dir = scratch("cutimg");
        let (store, _wal, _) = open_store(&dir, churn_options()).expect("fresh wal opens");

        let cut = ((ops.len() as f64) * cut_frac) as usize;
        for op in &ops[..cut] {
            apply(&store, op);
        }
        // The kill -9 disk image; churn continues past it on the live
        // store (later appends must not leak into the image).
        copy_dir(&dir, &crash_dir);
        for op in &ops[cut..] {
            apply(&store, op);
        }

        let reference = ModStore::new();
        for op in &ops[..cut] {
            apply(&reference, op);
        }

        let (recovered, report) = recover(&crash_dir).expect("boundary image recovers");
        prop_assert!(report.torn_tail.is_none(), "boundary copy cannot tear");
        prop_assert_eq!(recovered.epoch(), reference.epoch());
        prop_assert_eq!(
            recovered.snapshot().to_vec(),
            reference.snapshot().to_vec()
        );

        // Answers agree across prefilter backends, not just contents.
        if let Some(&q) = recovered.oids().first() {
            let policies = [
                PrefilterPolicy::Exhaustive,
                PrefilterPolicy::Scan { epochs: 4 },
            ];
            let mut lhs = ModServer::with_store(recovered);
            lhs.set_prefilter_policy(policies[policy_idx]);
            let rhs = ModServer::with_store(reference);
            let w = TimeInterval::new(0.0, 60.0);
            let a = lhs.continuous_nn(q, w).map(|a| a.sequence).map_err(|e| e.to_string());
            let b = rhs.continuous_nn(q, w).map(|a| a.sequence).map_err(|e| e.to_string());
            prop_assert_eq!(a, b);
        }

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&crash_dir);
    }

    /// Cut the final record at any interior byte: recovery truncates
    /// the tear, reports it loudly, lands exactly one commit back, and
    /// journaling resumes on the truncated chain.
    #[test]
    fn torn_tail_recovers_to_previous_commit(
        ops in arb_commits(),
        tear_frac in 0.0..1.0f64,
    ) {
        let dir = scratch("tear");
        let boundaries = run_and_record_boundaries(&dir, &ops);
        let n = ops.len();
        let last_start = boundaries[n - 1];
        let file_len = boundaries[n];
        // Strictly interior cut: at least one byte gone, at least one kept.
        prop_assume!(file_len - last_start >= 2);
        let cut = last_start + 1 + ((tear_frac * ((file_len - last_start - 2) as f64)) as u64);

        let seg = only_segment(&dir);
        let f = std::fs::OpenOptions::new().write(true).open(&seg).expect("segment opens");
        f.set_len(cut).expect("truncates");

        let reference = ModStore::new();
        for op in &ops[..n - 1] {
            apply(&reference, op);
        }

        let (recovered, wal, report) =
            open_store(&dir, WalOptions { checkpoint_every: 0, ..WalOptions::default() })
                .expect("torn tail recovers");
        let torn = report.torn_tail.as_ref().expect("tear is reported");
        prop_assert_eq!(torn.offset, last_start);
        prop_assert_eq!(recovered.epoch(), (n - 1) as u64);
        prop_assert_eq!(
            recovered.snapshot().to_vec(),
            reference.snapshot().to_vec()
        );

        // The chain continues from the truncated boundary.
        apply(&recovered, &ops[n - 1]);
        prop_assert_eq!(wal.status().last_epoch, n as u64);
        drop(wal);
        let (reopened, report) = recover(&dir).expect("continued chain recovers");
        prop_assert!(report.torn_tail.is_none());
        prop_assert_eq!(reopened.epoch(), n as u64);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flip any byte of the final record: recovery either fails loudly
    /// or truncates to the previous commit (a len-field flip can mimic
    /// a tear) — it never silently accepts the damage.
    #[test]
    fn corrupt_tail_fails_loudly_or_truncates(
        ops in arb_commits(),
        flip_frac in 0.0..1.0f64,
        mask in 1u8..=255,
    ) {
        let dir = scratch("flip");
        let boundaries = run_and_record_boundaries(&dir, &ops);
        let n = ops.len();
        let last_start = boundaries[n - 1];
        let file_len = boundaries[n];
        let offset = last_start + ((flip_frac * ((file_len - last_start - 1) as f64)) as u64);

        let seg = only_segment(&dir);
        let mut bytes = std::fs::read(&seg).expect("segment reads");
        bytes[offset as usize] ^= mask;
        std::fs::write(&seg, &bytes).expect("segment rewrites");

        let reference = ModStore::new();
        for op in &ops[..n - 1] {
            apply(&reference, op);
        }

        match recover(&dir) {
            Err(e) => {
                // Loud refusal: checksum mismatch, over-bound length,
                // or a record chain gap.
                let msg = e.to_string();
                prop_assert!(msg.contains("corrupt wal record"), "unexpected error: {msg}");
            }
            Ok((recovered, report)) => {
                prop_assert!(
                    report.torn_tail.is_some(),
                    "accepted a flipped byte without reporting a tear"
                );
                prop_assert_eq!(recovered.epoch(), (n - 1) as u64);
                prop_assert_eq!(
                    recovered.snapshot().to_vec(),
                    reference.snapshot().to_vec()
                );
            }
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checkpoint a small mixed-pdf store, then damage `snapshot.unn`
    /// every way one write can go wrong: each byte flipped in turn
    /// (header and body), the file cut at each length, a byte appended.
    /// Recovery must refuse every one of them — never a store, never
    /// another epoch — and so must `Wal::open`, which reads only the
    /// header, for every damage inside it. The intact image recovers
    /// `to_bits`-equal to the live store.
    #[test]
    fn damaged_image_is_never_accepted(
        fleet in prop::collection::vec((-30i32..30, -30i32..30, 0usize..2, 2usize..5), 1..5),
        mask in 1u8..=255,
        extra in 0u8..=255,
    ) {
        let dir = scratch("image");
        let options = WalOptions { checkpoint_every: 0, ..WalOptions::default() };
        let (store, wal, _) = open_store(&dir, options.clone()).expect("fresh wal opens");
        for (oid, &(x, y, pdf, samples)) in fleet.iter().enumerate() {
            store.update(wandering(oid as u64, f64::from(x), f64::from(y), pdf == 1, samples));
        }
        let watermark = wal.checkpoint(&store).expect("checkpoint writes");
        let live = store.snapshot();
        drop((store, wal));

        let image_path = dir.join(SNAPSHOT_FILE);
        let intact = std::fs::read(&image_path).expect("image reads");
        let (recovered, report) = recover(&dir).expect("intact image recovers");
        prop_assert_eq!(report.snapshot_epoch, watermark);
        prop_assert_eq!(report.snapshot_objects, fleet.len());
        prop_assert_eq!(recovered.epoch(), live.epoch());
        prop_assert_eq!(bits(&recovered.snapshot()), bits(&live));
        drop(recovered);

        let refused = |damaged: &[u8], what: String| -> Result<(), TestCaseError> {
            std::fs::write(&image_path, damaged).expect("image rewrites");
            let err = match recover(&dir) {
                Err(e) => e.to_string(),
                Ok((s, _)) => {
                    return Err(TestCaseError::fail(format!(
                        "{what}: recovered a store at epoch {}", s.epoch()
                    )))
                }
            };
            prop_assert!(err.contains("checkpoint image"), "{what}: unexpected error {err}");
            // Every damage below either lands inside the header or
            // changes the file's length, and the header states both.
            if damaged.len() != intact.len() || damaged[..IMAGE_HEADER_LEN] != intact[..IMAGE_HEADER_LEN] {
                prop_assert!(
                    Wal::open(&dir, options.clone()).is_err(),
                    "{what}: Wal::open accepted the header"
                );
            }
            Ok(())
        };
        for at in 0..intact.len() {
            let mut flipped = intact.clone();
            flipped[at] ^= mask;
            refused(&flipped, format!("byte {at} ^ {mask:#04x}"))?;
        }
        for len in 0..intact.len() {
            refused(&intact[..len], format!("cut to {len} bytes"))?;
        }
        let mut grown = intact.clone();
        grown.push(extra);
        refused(&grown, format!("byte {extra:#04x} appended"))?;

        // Put back, the directory is whole again.
        std::fs::write(&image_path, &intact).expect("image restores");
        let (again, _) = recover(&dir).expect("restored image recovers");
        prop_assert_eq!(bits(&again.snapshot()), bits(&live));

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A track of `samples` points with a uniform or a truncated-Gaussian
/// location pdf, on awkward (non-dyadic) coordinates so a formatting or
/// rounding slip anywhere between disk and store would show in the bits.
fn wandering(oid: u64, x: f64, y: f64, gaussian: bool, samples: usize) -> UncertainTrajectory {
    let points: Vec<(f64, f64, f64)> = (0..samples)
        .map(|k| {
            let k = k as f64;
            (x + k / 3.0, y - k * 0.1, k * 60.0 / 7.0)
        })
        .collect();
    let tr = Trajectory::from_triples(Oid(oid), &points).unwrap();
    let radius = 0.5 + x.abs() / 97.0;
    let pdf = if gaussian {
        PdfKind::TruncatedGaussian {
            radius,
            sigma: radius / 3.0,
        }
    } else {
        PdfKind::Uniform { radius }
    };
    UncertainTrajectory::new(tr, radius, pdf).unwrap()
}

/// Every number of every object as its bit pattern.
fn bits(objects: &[UncertainTrajectory]) -> Vec<Vec<u64>> {
    objects
        .iter()
        .map(|tr| {
            let mut out = vec![tr.oid().0, tr.radius().to_bits()];
            match tr.pdf() {
                PdfKind::Uniform { radius } => out.extend([0, radius.to_bits()]),
                PdfKind::TruncatedGaussian { radius, sigma } => {
                    out.extend([1, radius.to_bits(), sigma.to_bits()])
                }
            }
            for s in tr.trajectory().samples() {
                out.extend([
                    s.position.x.to_bits(),
                    s.position.y.to_bits(),
                    s.time.to_bits(),
                ]);
            }
            out
        })
        .collect()
}

/// Applies `ops` (all committing) against a single-segment WAL and
/// returns the segment byte length after each commit, prefixed with the
/// header length — so `boundaries[i]` is the byte offset where record
/// `i` starts and `boundaries[len]` is the final file length.
fn run_and_record_boundaries(dir: &Path, ops: &[Op]) -> Vec<u64> {
    let options = WalOptions {
        fsync: FsyncPolicy::Always,
        checkpoint_every: 0,
        ..WalOptions::default()
    };
    let (store, _wal, _) = open_store(dir, options).expect("fresh wal opens");
    let seg = only_segment(dir);
    let mut boundaries = vec![std::fs::metadata(&seg).expect("segment exists").len()];
    for op in ops {
        apply(&store, op);
        boundaries.push(std::fs::metadata(&seg).expect("segment exists").len());
    }
    boundaries
}

fn only_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("wal dir reads")
        .filter_map(|e| {
            let p = e.expect("dir entry").path();
            (p.extension().map(|x| x == "seg") == Some(true)).then_some(p)
        })
        .collect();
    assert_eq!(segs.len(), 1, "expected a single segment, got {segs:?}");
    segs.pop().unwrap()
}

/// Checkpoint + reopen: the snapshot image absorbs the prefix, replay
/// covers the suffix, journaling resumes, and answers — one-shot and
/// standing-query — match a never-crashed reference.
#[test]
fn checkpoint_then_recover_resumes_the_chain() {
    let dir = scratch("ckpt");
    let options = WalOptions {
        checkpoint_every: 0,
        ..WalOptions::default()
    };
    let (store, wal, _) = open_store(&dir, options.clone()).expect("fresh wal opens");

    let cfg = WorkloadConfig::with_objects(12, 9);
    let fleet = generate_uncertain(&cfg, 0.5);
    for tr in &fleet {
        store.update(tr.clone());
    }
    let watermark = wal.checkpoint(&store).expect("checkpoint writes");
    assert_eq!(watermark, 12);

    // Post-checkpoint churn: replayed from the log, not the image.
    store.update(straight(3, -5.0, 2.0));
    store.remove(Oid(7)).expect("Tr7 present");
    let status = store.wal_status().expect("wal attached");
    assert_eq!(status.checkpoint_epoch, 12);
    assert_eq!(status.last_epoch, 14);
    assert_eq!(status.checkpoints, 1);
    drop(wal);

    let reference = ModStore::new();
    for tr in &fleet {
        reference.update(tr.clone());
    }
    reference.update(straight(3, -5.0, 2.0));
    reference.remove(Oid(7)).expect("Tr7 present");

    let (recovered, wal, report) = open_store(&dir, options).expect("reopens");
    assert_eq!(report.snapshot_epoch, 12);
    assert_eq!(report.snapshot_objects, 12);
    assert_eq!(report.replayed_records, 2);
    assert_eq!(report.recovered_epoch, 14);
    assert_eq!(recovered.epoch(), reference.epoch());
    assert_eq!(recovered.snapshot().to_vec(), reference.snapshot().to_vec());

    // Answers agree — one-shot and a freshly re-registered standing
    // query (registrations are in-memory state; after a crash the
    // client re-registers and must see identical maintained answers).
    let lhs = ModServer::with_store(recovered);
    let rhs = ModServer::with_store(reference);
    let stmt = "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0";
    assert_eq!(
        lhs.execute(stmt).expect("recovered answers"),
        rhs.execute(stmt).expect("reference answers")
    );
    let sub = "REGISTER CONTINUOUS SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
               AND PROB_NN(*, Tr0, TIME) > 0 AS near0";
    lhs.execute(sub).expect("recovered subscribes");
    rhs.execute(sub).expect("reference subscribes");
    lhs.store().update(straight(5, 0.5, 0.5));
    rhs.store().update(straight(5, 0.5, 0.5));
    assert_eq!(
        lhs.subscription_output("near0")
            .expect("recovered sub answers"),
        rhs.subscription_output("near0")
            .expect("reference sub answers")
    );

    // Journaling resumed: the post-recovery commit is itself durable.
    assert_eq!(wal.status().last_epoch, 15);
    drop(wal);
    let (again, _) = recover(&dir).expect("recovers again");
    assert_eq!(again.snapshot().to_vec(), lhs.store().snapshot().to_vec());

    let _ = std::fs::remove_dir_all(&dir);
}

/// `recover` on a directory that never existed yields an empty store
/// (cold start), and `open_store` makes it journaled from epoch 1.
#[test]
fn cold_start_opens_an_empty_journaled_store() {
    let dir = scratch("cold");
    let (store, wal, report) = open_store(&dir, WalOptions::default()).expect("cold start");
    assert_eq!(report, Default::default());
    assert_eq!(store.len(), 0);
    store.update(straight(0, 1.0, 1.0));
    assert_eq!(wal.status().last_epoch, 1);
    assert_eq!(wal.status().appended, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An image of a store that holds nothing still carries its epoch:
/// recovery lands on an empty store at that epoch and the chain resumes.
#[test]
fn empty_image_restores_an_empty_store() {
    let dir = scratch("empty");
    let options = WalOptions {
        checkpoint_every: 0,
        ..WalOptions::default()
    };
    let (store, wal, _) = open_store(&dir, options.clone()).expect("fresh wal opens");
    store.update(straight(4, 1.0, 1.0));
    store.remove(Oid(4)).expect("Tr4 present");
    assert_eq!(wal.checkpoint(&store).expect("checkpoint writes"), 2);
    assert_eq!(
        std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len(),
        IMAGE_HEADER_LEN as u64,
        "an empty image is its header"
    );
    drop((store, wal));

    let (recovered, wal, report) = open_store(&dir, options).expect("reopens");
    assert_eq!(report.snapshot_epoch, 2);
    assert_eq!(report.snapshot_objects, 0);
    assert_eq!(report.replayed_records, 0);
    assert_eq!((recovered.epoch(), recovered.len()), (2, 0));
    recovered.update(straight(5, 2.0, 2.0));
    assert_eq!(wal.status().last_epoch, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Disk and wire share one trajectory encoding: the body of a checkpoint
/// image is byte-for-byte the object list a follower's `Resync` carries
/// for the same snapshot.
#[test]
fn image_body_is_the_resync_object_list() {
    let dir = scratch("resync");
    let (store, wal, _) = open_store(&dir, WalOptions::default()).expect("fresh wal opens");
    for (oid, gaussian) in [(3, false), (1, true), (8, false), (5, true)] {
        store.update(wandering(oid, oid as f64, -2.0, gaussian, 4));
    }
    wal.checkpoint(&store).expect("checkpoint writes");
    let snap = store.snapshot();
    let resync = encode_payload(&Frame::Response {
        id: 0,
        result: Ok(WireOutput::Resync {
            epoch: snap.epoch(),
            objects: snap.to_vec(),
        }),
    });
    // tag, id, ok flag, output tag, epoch, count — then the list.
    let list = &resync[1 + 8 + 1 + 1 + 8 + 4..];
    let image = std::fs::read(dir.join(SNAPSHOT_FILE)).expect("image reads");
    assert_eq!(&image[IMAGE_HEADER_LEN..], list);
    let _ = std::fs::remove_dir_all(&dir);
}
