//! Offline stand-in for the [`rayon`](https://docs.rs/rayon) data-parallelism
//! crate.
//!
//! The build environment has no access to crates.io, so this workspace vendors
//! the small slice of rayon's API that KaPPa-rs uses:
//!
//! * [`prelude`] with `par_iter` / `into_par_iter`, `enumerate`, `map`,
//!   `collect` and `reduce` — eager parallel iterators that fan work out over
//!   [`std::thread::scope`] worker threads in contiguous chunks;
//! * slice primitives: `par_chunks` and `par_sort_unstable_by` /
//!   `par_sort_unstable_by_key` (chunk-sort + ordered merge);
//! * [`current_num_threads`];
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`], which scope the worker
//!   count for everything running inside `install` via a thread-local.
//!
//! Results are always collected in input order, so a run is deterministic for
//! a fixed seed and thread count — the same guarantee real rayon gives KaPPa's
//! map/collect pipelines.

use std::cell::Cell;

pub mod iter;

/// The commonly used parallel-iterator traits, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, MapIter, ParIter,
        ParallelSlice, ParallelSliceMut,
    };
}

thread_local! {
    /// Worker count installed by [`ThreadPool::install`]; 0 = not inside a pool.
    static INSTALLED_THREADS: Cell<usize> = const { Cell::new(0) };
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Number of worker threads parallel operations on this thread will use.
///
/// Inside [`ThreadPool::install`] this is the pool's configured size;
/// otherwise it is [`std::thread::available_parallelism`].
pub fn current_num_threads() -> usize {
    let installed = INSTALLED_THREADS.with(Cell::get);
    if installed > 0 {
        installed
    } else {
        hardware_threads()
    }
}

/// Error returned by [`ThreadPoolBuilder::build`]. The shim never fails to
/// build a pool; the type exists for API compatibility.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`] with an explicit worker count.
#[derive(Clone, Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default worker count (all hardware threads).
    pub fn new() -> Self {
        ThreadPoolBuilder { num_threads: 0 }
    }

    /// Sets the number of worker threads (0 = all hardware threads).
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool. Never fails in the shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let num_threads = if self.num_threads == 0 {
            hardware_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads })
    }
}

/// A scoped worker-count context. Parallel operations run inside
/// [`ThreadPool::install`] use the pool's thread count.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// The pool's configured worker count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Runs `op` with this pool's thread count governing all parallel
    /// iterators it spawns (restored on exit, including on panic).
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED_THREADS.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(INSTALLED_THREADS.with(|c| c.replace(self.num_threads)));
        op()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let v: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_over_slice_borrows() {
        let data = vec![1u64, 2, 3, 4];
        let doubled: Vec<u64> = data.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
        assert_eq!(data.len(), 4);
    }

    #[test]
    fn enumerate_then_map() {
        let v: Vec<(usize, char)> = vec!['a', 'b', 'c']
            .into_par_iter()
            .enumerate()
            .map(|(i, c)| (i, c))
            .collect();
        assert_eq!(v, vec![(0, 'a'), (1, 'b'), (2, 'c')]);
    }

    #[test]
    fn install_scopes_thread_count() {
        assert!(current_num_threads() >= 1);
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        pool.install(|| assert_eq!(current_num_threads(), 3));
        assert_ne!(INSTALLED_THREADS.with(Cell::get), 3);
    }

    #[test]
    fn reduce_is_deterministic_across_thread_counts() {
        let data: Vec<u64> = (0..10_000).collect();
        let expected: u64 = data.iter().sum();
        for threads in [1usize, 2, 3, 8] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let total = pool.install(|| {
                data.clone()
                    .into_par_iter()
                    .map(|x| x)
                    .reduce(|| 0u64, |a, b| a + b)
            });
            assert_eq!(total, expected, "threads = {threads}");
        }
    }

    #[test]
    fn unmapped_reduce_works() {
        let total: u64 = vec![1u64, 2, 3, 4]
            .into_par_iter()
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 10);
    }

    #[test]
    fn par_chunks_preserves_order_and_coverage() {
        let data: Vec<u32> = (0..103).collect();
        let flattened: Vec<Vec<u32>> = data.par_chunks(10).map(|c| c.to_vec()).collect();
        assert_eq!(flattened.len(), 11);
        assert_eq!(flattened.last().unwrap().len(), 3);
        let rejoined: Vec<u32> = flattened.into_iter().flatten().collect();
        assert_eq!(rejoined, data);
    }

    #[test]
    fn par_sort_sorts_like_sequential_for_total_orders() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let data: Vec<u64> = (0..50_000).map(|_| next()).collect();
        let mut expected = data.clone();
        expected.sort_unstable();
        for threads in [1usize, 2, 4, 7] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut sorted = data.clone();
            pool.install(|| sorted.par_sort_unstable_by(|a, b| a.cmp(b)));
            assert_eq!(sorted, expected, "threads = {threads}");
        }
    }

    #[test]
    fn par_sort_by_key_handles_small_and_odd_sizes() {
        for n in [0usize, 1, 2, 3, 17, 1023, 1025] {
            let mut v: Vec<i64> = (0..n as i64).rev().collect();
            v.par_sort_unstable_by_key(|&x| x);
            assert!(v.windows(2).all(|w| w[0] <= w[1]), "n = {n}");
            assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn work_actually_runs_on_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            let _: Vec<()> = (0..64usize)
                .into_par_iter()
                .map(|_| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                })
                .collect();
        });
        // 4 chunks -> up to 4 distinct worker threads; at least 2 in practice.
        assert!(ids.lock().unwrap().len() >= 2);
    }
}
