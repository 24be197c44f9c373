//! Pooled scratch buffers for the refinement hot path.
//!
//! Every 2-way FM search used to allocate three `O(n)` vectors (`in_band`,
//! `gains`, `moved`) and every band BFS one more (`dist`) — per pair, per
//! local iteration, so refinement *allocation* scaled with total graph size
//! even when the searchable band was tiny. [`FmScratch`] keeps the buffers
//! alive between searches instead. One is node-indexed: `pos`, grown once to
//! `n` and reset only at the `O(|band|)` entries a search touched — the band
//! BFS uses it as its seen marker, the FM search as its node → band-position
//! map. The rest are indexed by *band position* and merely cleared (capacity
//! retained): `moved`, and the three vectors of a [`PairBand`] (`nodes`,
//! `gains`, `on_boundary`), which leave the scratch when a band is built and
//! come back when the search has consumed it. [`ScratchPool`] hands the buffers out to the
//! scheduler's concurrent pair workers, so a refinement call performs at most
//! `min(#workers, #pairs)` full-size allocations no matter how many pair
//! searches run.

use std::sync::Mutex;

use kappa_graph::{NodeId, INVALID_NODE};

use crate::band::PairBand;

/// Reusable buffers for one band BFS plus its 2-way FM search.
///
/// Obtain one from a [`ScratchPool`] (or [`FmScratch::new`] for one-off
/// calls) and pass it to [`PairBand::around`] and
/// [`two_way_fm_in`](crate::fm::two_way_fm_in). Both leave every buffer
/// reset, so a scratch can be reused for any later search on any graph.
#[derive(Debug, Default)]
pub struct FmScratch {
    /// Node-indexed, `INVALID_NODE` between uses: "seen" marks during the
    /// band BFS, node → band position during the FM search. Reset
    /// entry-by-entry by each.
    pub(crate) pos: Vec<NodeId>,
    /// Moved flag of each band node, indexed by band position.
    pub(crate) moved: Vec<bool>,
    /// The buffers of the last consumed band, parked for the next one.
    pub(crate) spare: PairBand,
}

impl FmScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        FmScratch::default()
    }

    /// Grows the node-indexed `pos` map to cover `n` nodes.
    fn cover(&mut self, n: usize) {
        if self.pos.len() < n {
            self.pos.resize(n, INVALID_NODE);
        }
        debug_assert!(
            self.pos.iter().all(|&p| p == INVALID_NODE),
            "dirty node-indexed scratch"
        );
    }

    /// Hands out the parked band buffers, emptied, and makes `pos` cover `n`
    /// nodes. Called by the band BFS on entry.
    pub(crate) fn take_band(&mut self, n: usize) -> PairBand {
        self.cover(n);
        let mut band = std::mem::take(&mut self.spare);
        band.nodes.clear();
        band.gains.clear();
        band.on_boundary.clear();
        band
    }

    /// Makes `pos` cover `n` nodes and clears `moved` for a band of
    /// `band_len` nodes. Called by the FM search on entry.
    pub(crate) fn prepare(&mut self, n: usize, band_len: usize) {
        self.cover(n);
        self.moved.clear();
        self.moved.resize(band_len, false);
    }
}

/// A shared pool of [`FmScratch`] buffers for concurrent pair workers.
///
/// Workers [`take`](ScratchPool::take) a scratch at the start of a pair
/// search and [`put`](ScratchPool::put) it back afterwards; the pool grows to
/// at most the peak number of concurrent searches and all later searches
/// reuse those buffers. The mutex is touched twice per *pair* (not per FM
/// iteration), so contention is negligible next to the search itself.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<FmScratch>>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Pops a free scratch, or creates a fresh one when all are in use.
    pub fn take(&self) -> FmScratch {
        self.free
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a scratch to the pool for reuse.
    pub fn put(&self, scratch: FmScratch) {
        self.free
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
    }

    /// Number of scratches currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("scratch pool poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_buffers() {
        let pool = ScratchPool::new();
        assert_eq!(pool.idle(), 0);
        let mut s = pool.take();
        s.prepare(100, 10);
        // Simulate the search's reset contract.
        for p in s.pos.iter_mut() {
            *p = INVALID_NODE;
        }
        let capacity = s.pos.capacity();
        pool.put(s);
        assert_eq!(pool.idle(), 1);
        let s2 = pool.take();
        assert_eq!(s2.pos.capacity(), capacity, "buffer was not reused");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn prepare_clears_band_buffers() {
        let mut s = FmScratch::new();
        s.prepare(8, 4);
        s.moved[3] = true;
        s.prepare(8, 6);
        assert!(s.moved.iter().all(|&m| !m));
        assert_eq!(s.moved.len(), 6);

        let mut band = s.take_band(8);
        band.nodes.extend([1, 2, 3]);
        band.gains.extend([7, 8, 9]);
        band.on_boundary.extend([true, false, true]);
        let capacity = band.nodes.capacity();
        s.spare = band;
        let band = s.take_band(8);
        assert!(band.is_empty() && band.gains.is_empty() && band.on_boundary.is_empty());
        assert_eq!(band.nodes.capacity(), capacity, "buffer was not reused");
    }
}
