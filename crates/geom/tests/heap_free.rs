//! The band solvers never touch the heap.
//!
//! A cold `PROB_NN(…) > 0` answer solves a few hundred band quartics, one
//! per overlay cell that straddles the band edge; each solve is a few
//! hundred nanoseconds, so an allocation per call would be a visible
//! share of it. A counting global allocator (this test binary's own)
//! holds `crossings_shifted`, `min_clearance_above` and `intersections`
//! to zero allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use unn_geom::hyperbola::Hyperbola;
use unn_geom::interval::TimeInterval;
use unn_geom::point::Vec2;

struct Counting;

thread_local! {
    /// Allocations made by this thread (the test harness runs other
    /// threads beside it).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter neither allocates (a
// `const`-initialised thread-local `Cell`) nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
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
static GLOBAL: Counting = Counting;

fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn band_solvers_allocate_nothing() {
    let window = TimeInterval::new(0.0, 10.0);
    let parked = Hyperbola::constant(1.0);
    // A flyby reaching distance 0 at t = 5: it crosses `parked + 2` at
    // t = 2 and t = 8, and `parked` itself at t = 4 and t = 6.
    let flyby = Hyperbola::from_relative_motion(Vec2::new(-5.0, 0.0), Vec2::new(1.0, 0.0), 0.0);
    let grazing = Hyperbola::from_relative_motion(Vec2::new(-5.0, 3.0), Vec2::new(1.0, 0.0), 0.0);
    let mut seen = (0, 0, 0.0);
    let count = allocations_in(|| {
        for other in [&parked, &grazing, &flyby] {
            seen.0 += flyby.crossings_shifted(other, 2.0, &window).len();
            seen.1 += flyby.intersections(other, &window).len();
            seen.2 += flyby.min_clearance_above(other, &window);
            seen.2 += grazing.min_clearance_above(other, &window);
        }
    });
    assert_eq!(count, 0, "the band solvers allocated {count} times");
    // The calls did real work: crossings were found.
    assert!(seen.0 >= 2 && seen.1 >= 2, "{seen:?}");
    // The counter itself works.
    assert!(allocations_in(|| drop(std::hint::black_box(vec![1u8; 16]))) >= 1);
}
