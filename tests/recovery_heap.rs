//! Recovery never holds a checkpoint image whole.
//!
//! The image body is read in two streamed passes through one fixed
//! buffer (checksum, then decode), so loading a large image allocates
//! the buffer, the object list and the objects themselves — never a
//! body-sized byte buffer. A global allocator of this test binary's own
//! records the largest single request while `recover` loads a
//! 20 000-object (≈ 3.8 MB) image, and holds it under 1 MiB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use uncertain_nn::modb::durability::SNAPSHOT_FILE;
use uncertain_nn::modb::{recover, Wal, WalOptions};
use uncertain_nn::prelude::*;

struct Largest;

/// The largest single allocation since the last reset, across threads.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tracker neither allocates (a
// static atomic) nor touches the memory. `realloc` and `alloc_zeroed`
// keep their default bodies, which allocate through `alloc` — so a
// growing `Vec` is seen at every size it reaches.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's guarantees on `layout` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// The largest single allocation `f` makes.
fn largest_allocation_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let out = f();
    (out, LARGEST.load(Ordering::Relaxed))
}

/// Seven samples: a 189-byte encoding, the size of `ingest_recover`'s.
fn track(oid: u64) -> UncertainTrajectory {
    let (x, y) = ((oid % 200) as f64, (oid / 200) as f64);
    let samples: Vec<_> = (0..7)
        .map(|k| (x + k as f64 / 3.0, y - k as f64 / 7.0, k as f64 * 10.0))
        .collect();
    UncertainTrajectory::with_uniform_pdf(
        Trajectory::from_triples(Oid(oid), &samples).unwrap(),
        0.5,
    )
    .unwrap()
}

#[test]
fn recovery_never_holds_the_image_whole() {
    const OBJECTS: u64 = 20_000;
    let dir = std::env::temp_dir().join(format!("unn_recovery_heap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModStore::new();
    store.bulk_load((0..OBJECTS).map(track)).unwrap();
    let options = WalOptions {
        checkpoint_every: 0,
        ..WalOptions::default()
    };
    let wal = Wal::open(&dir, options).unwrap();
    let watermark = wal.checkpoint(&store).unwrap();
    drop((store, wal));
    let image_len = std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len();
    assert!(image_len > 3 << 20, "a {image_len}-byte image");

    let (recovered, largest) = largest_allocation_in(|| recover(&dir).unwrap());
    let (store, report) = recovered;
    assert_eq!(report.snapshot_epoch, watermark);
    assert_eq!(report.snapshot_objects, OBJECTS as usize);
    assert_eq!(store.len(), OBJECTS as usize);
    assert!(
        largest < 1 << 20,
        "recovering a {image_len}-byte image made a {largest}-byte allocation"
    );
    // The tracker itself sees a large request.
    let (_, seen) = largest_allocation_in(|| drop(std::hint::black_box(vec![1u8; 2 << 20])));
    assert!(seen >= 2 << 20, "{seen}");
    std::fs::remove_dir_all(&dir).unwrap();
}
