//! Delta-move views for the parallel pairwise scheduler.
//!
//! The original scheduler snapshotted the whole [`Partition`] once per colour
//! class and cloned that snapshot again for every pair — `O(n)` allocation and
//! copy per pair, which dominates the refinement wall-clock once `k` (and with
//! it the number of pairs per class) grows. A 2-way search between blocks `a`
//! and `b` only ever *writes* nodes of those two blocks, and only *reads*
//! whether a node is in `a`, in `b`, or elsewhere, so the full copy is wasted
//! work.
//!
//! The replacement is a [`SharedAssignment`]: one atomic mirror of the
//! assignment array, built once per refinement call, that all FM workers read
//! and write through [`DeltaPairView`]s. Why plain relaxed atomics are exact
//! here and not a race:
//!
//! * the pairs of one colour class are **block-disjoint**, so two workers
//!   never write the same node;
//! * every read of a node *outside* the reader's own pair is a membership
//!   test ("is it in `a` or `b`?"). A concurrent writer can only toggle such
//!   a node between *its* two blocks `c` and `d`, neither of which ever
//!   equals `a` or `b` — so the answer is the same no matter when the read
//!   lands.
//!
//! Each worker therefore observes exactly "shared state at class start plus
//! its own moves" — the same thing the old per-pair snapshot provided — and
//! execution is bit-identical to the sequential reference for every thread
//! count (see `tests/parity.rs`). The surviving moves come back to the
//! scheduler as per-pair deltas ([`FmResult::moves`](crate::fm::FmResult)
//! plus block-weight changes) and are applied to the real [`Partition`] and
//! its incrementally-maintained block weights once per class; since FM rolls
//! back its non-surviving moves itself, the mirror never needs re-syncing.
//!
//! A relaxed `AtomicU32` load compiles to an ordinary load, so — unlike an
//! overlay-map design — reading through the view costs the same as indexing
//! the assignment array directly.

use std::sync::atomic::{AtomicU32, Ordering};

use kappa_graph::{BlockAssignment, BlockAssignmentMut, BlockId, NodeId, Partition};

/// An atomic mirror of a partition's assignment array, shared by all pair
/// workers of a refinement call.
#[derive(Debug)]
pub struct SharedAssignment {
    slots: Vec<AtomicU32>,
    k: BlockId,
}

impl SharedAssignment {
    /// Mirrors `partition` (one `O(n)` pass per refinement call, not per
    /// class or pair).
    pub fn from_partition(partition: &Partition) -> Self {
        SharedAssignment {
            slots: partition
                .assignment()
                .iter()
                .map(|&b| AtomicU32::new(b))
                .collect(),
            k: partition.k(),
        }
    }

    /// Current block of `v` (relaxed load — an ordinary read on every major
    /// architecture).
    #[inline]
    pub fn block_of(&self, v: NodeId) -> BlockId {
        self.slots[v as usize].load(Ordering::Relaxed)
    }

    /// Number of mirrored nodes.
    pub fn num_nodes(&self) -> usize {
        self.slots.len()
    }
}

/// One FM worker's handle on the [`SharedAssignment`] for its block pair.
///
/// Implements [`BlockAssignment`] / [`BlockAssignmentMut`] so
/// [`two_way_fm_in`](crate::fm::two_way_fm_in) and
/// [`PairBand::around`](crate::band::PairBand::around) run on it unchanged; `assign` is a
/// relaxed store into the worker's disjoint write set.
#[derive(Debug)]
pub struct DeltaPairView<'a> {
    shared: &'a SharedAssignment,
}

impl<'a> DeltaPairView<'a> {
    /// Creates a view over the shared mirror. `O(1)` — nothing is copied.
    pub fn new(shared: &'a SharedAssignment) -> Self {
        DeltaPairView { shared }
    }
}

impl BlockAssignment for DeltaPairView<'_> {
    #[inline]
    fn k(&self) -> BlockId {
        self.shared.k
    }

    #[inline]
    fn block_of(&self, v: NodeId) -> BlockId {
        self.shared.block_of(v)
    }
}

impl BlockAssignmentMut for DeltaPairView<'_> {
    #[inline]
    fn assign(&mut self, v: NodeId, b: BlockId) {
        self.shared.slots[v as usize].store(b, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_reads_and_writes_the_shared_mirror() {
        let base = Partition::from_assignment(3, vec![0, 1, 2, 0, 1]);
        let shared = SharedAssignment::from_partition(&base);
        let mut view = DeltaPairView::new(&shared);
        assert_eq!(view.k(), 3);
        assert_eq!(view.block_of(1), 1);
        view.assign(1, 0);
        view.assign(4, 0);
        assert_eq!(view.block_of(1), 0);
        assert_eq!(view.block_of(4), 0);
        assert_eq!(view.block_of(2), 2);
        // The original partition is untouched; the mirror carries the moves.
        assert_eq!(base.block_of(1), 1);
        assert_eq!(shared.block_of(1), 0);
        assert_eq!(shared.num_nodes(), 5);
    }

    #[test]
    fn two_views_share_one_mirror() {
        let base = Partition::from_assignment(4, vec![0, 1, 2, 3]);
        let shared = SharedAssignment::from_partition(&base);
        let mut view_ab = DeltaPairView::new(&shared);
        let mut view_cd = DeltaPairView::new(&shared);
        view_ab.assign(0, 1);
        view_cd.assign(2, 3);
        // Each view observes the other's move only as "not in my pair":
        // node 2 toggling 2↔3 never reads as 0 or 1.
        assert!(view_ab.block_of(2) == 2 || view_ab.block_of(2) == 3);
        assert_eq!(view_ab.block_of(0), 1);
        assert_eq!(view_cd.block_of(2), 3);
    }

    #[test]
    fn concurrent_disjoint_writes_land() {
        use rayon::prelude::*;
        let n = 4096usize;
        let base = Partition::from_assignment(8, vec![0; n]);
        let shared = SharedAssignment::from_partition(&base);
        let _: Vec<()> = (0..8u32)
            .into_par_iter()
            .map(|worker| {
                let mut view = DeltaPairView::new(&shared);
                let mut v = worker;
                while (v as usize) < n {
                    view.assign(v, worker);
                    v += 8;
                }
            })
            .collect();
        for v in 0..n as u32 {
            assert_eq!(shared.block_of(v), v % 8);
        }
    }
}
