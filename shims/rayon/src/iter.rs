//! Eager parallel iterators: sources materialise their items, `map` fans the
//! work out over scoped threads in contiguous chunks, and `collect` gathers
//! the results in input order.
//!
//! Beyond `map`/`collect`, this module provides the slice-level primitives the
//! contraction and refinement hot paths need: [`ParallelSlice::par_chunks`],
//! [`ParallelSliceMut::par_sort_unstable_by`] (a chunk-sort + ordered-merge
//! parallel sort) and an ordered [`MapIter::reduce`] combinator. All of them
//! keep the shim's determinism guarantee: for an associative reduction (and a
//! total order in the sort's case) the result is independent of the worker
//! count.

use std::cmp::Ordering;
use std::ops::Range;

use crate::current_num_threads;

/// A materialised parallel iterator over owned items.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

/// A pending parallel `map`; the closure runs when the result is collected.
pub struct MapIter<T: Send, F> {
    items: Vec<T>,
    f: F,
}

/// Collection types a parallel iterator can gather into (ordered).
pub trait FromParallelIterator<T: Send>: Sized {
    /// Builds the collection from items already in input order.
    fn from_ordered_vec(items: Vec<T>) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_ordered_vec(items: Vec<T>) -> Self {
        items
    }
}

impl<T: Send> ParIter<T> {
    /// Pairs every item with its index, like [`Iterator::enumerate`].
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Applies `f` to every item in parallel (executed on `collect`).
    pub fn map<R, F>(self, f: F) -> MapIter<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        MapIter {
            items: self.items,
            f,
        }
    }

    /// Collects the items (no-op parallelism for an un-mapped source).
    pub fn collect<C: FromParallelIterator<T>>(self) -> C {
        C::from_ordered_vec(self.items)
    }

    /// Reduces the items with `op`, starting each sub-reduction from
    /// `identity()`. Per-thread partial results are combined left-to-right in
    /// input order, so the result is deterministic for associative `op`
    /// regardless of the worker count.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T + Sync,
        OP: Fn(T, T) -> T + Sync,
    {
        par_reduce(self.items, &|x| x, &identity, &op)
    }
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> MapIter<T, F> {
    /// Runs the map on `current_num_threads()` scoped threads and collects the
    /// results in input order.
    pub fn collect<C: FromParallelIterator<R>>(self) -> C {
        C::from_ordered_vec(par_map(self.items, &self.f))
    }

    /// Maps and reduces in one pass without materialising the mapped items.
    /// Partial results are combined left-to-right in input order, so the
    /// result is deterministic for associative `op` regardless of the worker
    /// count.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> R
    where
        ID: Fn() -> R + Sync,
        OP: Fn(R, R) -> R + Sync,
    {
        par_reduce(self.items, &self.f, &identity, &op)
    }
}

/// Chunked fork-join map: splits `items` into one contiguous chunk per worker
/// thread, maps each chunk on its own scoped thread and concatenates the
/// results in order. Panics in workers are propagated to the caller.
fn par_map<T: Send, R: Send, F: Fn(T) -> R + Sync>(items: Vec<T>, f: &F) -> Vec<R> {
    let threads = current_num_threads().clamp(1, items.len().max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_size = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut rest = items;
    while rest.len() > chunk_size {
        let tail = rest.split_off(chunk_size);
        chunks.push(rest);
        rest = tail;
    }
    chunks.push(rest);
    let per_chunk: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    per_chunk.into_iter().flatten().collect()
}

/// Splits `items` into one contiguous chunk per worker, folds every chunk from
/// `identity()` with `op(acc, f(item))` on its own thread, then combines the
/// per-chunk results left-to-right.
fn par_reduce<T, R, F, ID, OP>(items: Vec<T>, f: &F, identity: &ID, op: &OP) -> R
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
    ID: Fn() -> R + Sync,
    OP: Fn(R, R) -> R + Sync,
{
    let threads = current_num_threads().clamp(1, items.len().max(1));
    if threads <= 1 {
        return items.into_iter().fold(identity(), |acc, x| op(acc, f(x)));
    }
    let chunk_size = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut rest = items;
    while rest.len() > chunk_size {
        let tail = rest.split_off(chunk_size);
        chunks.push(rest);
        rest = tail;
    }
    chunks.push(rest);
    let partials: Vec<R> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || chunk.into_iter().fold(identity(), |acc, x| op(acc, f(x))))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    partials.into_iter().fold(identity(), op)
}

/// Parallel chunked iteration over a borrowed slice, mirroring
/// `rayon::slice::ParallelSlice`.
pub trait ParallelSlice<T: Sync> {
    /// Splits the slice into contiguous chunks of at most `chunk_size`
    /// elements (the last chunk may be shorter) and iterates over them in
    /// parallel, in order.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks(chunk_size).collect(),
        }
    }
}

/// Parallel in-place sorting of a mutable slice, mirroring
/// `rayon::slice::ParallelSliceMut`.
///
/// Shim divergence: the element type must be `Clone` (the ordered merge goes
/// through a scratch buffer; real rayon merges with `unsafe` moves, which this
/// workspace forbids). Every call site in the workspace sorts `Copy` tuples,
/// so the extra bound is invisible in practice.
pub trait ParallelSliceMut<T: Send + Clone> {
    /// Sorts the slice (unstably) with `compare` using one sorting thread per
    /// worker followed by an ordered pairwise merge.
    ///
    /// Like any unstable sort, the relative order of elements that compare
    /// equal is unspecified — and here it may additionally vary with the
    /// worker count. Use a total order when bit-reproducibility across thread
    /// counts matters.
    fn par_sort_unstable_by<F>(&mut self, compare: F)
    where
        F: Fn(&T, &T) -> Ordering + Sync;

    /// Sorts the slice (unstably) by the key extracted with `key`.
    fn par_sort_unstable_by_key<K, F>(&mut self, key: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync,
    {
        self.par_sort_unstable_by(|a, b| key(a).cmp(&key(b)));
    }
}

impl<T: Send + Clone> ParallelSliceMut<T> for [T] {
    fn par_sort_unstable_by<F>(&mut self, compare: F)
    where
        F: Fn(&T, &T) -> Ordering + Sync,
    {
        // Small inputs and single-worker runs: plain sequential sort.
        let threads = current_num_threads().clamp(1, self.len() / 1024 + 1);
        if threads <= 1 {
            self.sort_unstable_by(|a, b| compare(a, b));
            return;
        }
        let run = self.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let compare = &compare;
            let mut handles = Vec::with_capacity(threads);
            for part in self.chunks_mut(run) {
                handles.push(scope.spawn(move || part.sort_unstable_by(|a, b| compare(a, b))));
            }
            for h in handles {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            }
        });
        // Merge sorted runs pairwise until one run spans the whole slice.
        let mut width = run;
        let mut scratch: Vec<T> = Vec::with_capacity(self.len());
        while width < self.len() {
            let mut start = 0;
            while start + width < self.len() {
                let end = (start + 2 * width).min(self.len());
                merge_runs(&mut self[start..end], width, &compare, &mut scratch);
                start = end;
            }
            width *= 2;
        }
    }
}

/// Stable two-run merge of `s[..mid]` and `s[mid..]` through `scratch`.
fn merge_runs<T: Clone, F: Fn(&T, &T) -> Ordering>(
    s: &mut [T],
    mid: usize,
    compare: &F,
    scratch: &mut Vec<T>,
) {
    scratch.clear();
    {
        let (left, right) = s.split_at(mid);
        let (mut i, mut j) = (0, 0);
        while i < left.len() && j < right.len() {
            if compare(&left[i], &right[j]) != Ordering::Greater {
                scratch.push(left[i].clone());
                i += 1;
            } else {
                scratch.push(right[j].clone());
                j += 1;
            }
        }
        scratch.extend_from_slice(&left[i..]);
        scratch.extend_from_slice(&right[j..]);
    }
    s.clone_from_slice(scratch);
}

/// Conversion of an owned collection into a parallel iterator.
pub trait IntoParallelIterator {
    /// The iterated item type.
    type Item: Send;
    /// Converts `self` into a [`ParIter`].
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! impl_range_into_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}

impl_range_into_par_iter!(usize, u32, u64, i32, i64);

/// Conversion of a borrowed collection into a parallel iterator of references.
pub trait IntoParallelRefIterator<'data> {
    /// The iterated item type (a reference).
    type Item: Send + 'data;
    /// Borrows `self` as a [`ParIter`] of references.
    fn par_iter(&'data self) -> ParIter<Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}
