//! A minimal scoped-thread parallel map shared by the pipeline's
//! embarrassingly parallel construction steps (per-candidate difference
//! trajectories, per-perspective reverse envelopes).

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// The number of cores the process may run on, read once: the first
/// call fixes the count for the life of the process, so an affinity or
/// cgroup change made after it is not seen. (Asking the OS reads the
/// cgroup files on every call — tens of microseconds.) A process that
/// pins itself before it starts its work sees its pin.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Maps `f` over `items`, chunking across scoped threads when the host
/// has more than one core **and** the input is at least `min_parallel`
/// long (small inputs and single-core hosts run sequentially). Output
/// order always matches input order exactly, so results are
/// bit-identical to the sequential map.
///
/// # Panics
///
/// Propagates a panic from `f` (the worker thread's panic aborts the
/// scope join).
pub fn par_map<T, R, F>(items: &[T], min_parallel: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = available_cores();
    if threads <= 1 || items.len() < min_parallel {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel map worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_matches_sequential() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        let par = par_map(&items, 0, |x| x * 3 + 1);
        assert_eq!(seq, par);
        // Below the parallel threshold the sequential path is taken.
        let small = par_map(&items[..5], 64, |x| x + 1);
        assert_eq!(small, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn fallible_maps_collect_cleanly() {
        let items: Vec<i64> = (0..200).collect();
        let ok: Result<Vec<i64>, String> = par_map(&items, 0, |x| Ok::<i64, String>(x * 2))
            .into_iter()
            .collect();
        assert_eq!(ok.unwrap()[199], 398);
        let err: Result<Vec<i64>, String> = par_map(&items, 0, |x| {
            if *x == 77 {
                Err("boom".to_string())
            } else {
                Ok(*x)
            }
        })
        .into_iter()
        .collect();
        assert_eq!(err.unwrap_err(), "boom");
    }
}
