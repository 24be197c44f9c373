//! Boundary bands for pairwise refinement (§5.2, Figure 2).
//!
//! Before a local search on the pair `(a, b)`, each PE performs a bounded BFS
//! from the pair boundary and exchanges only this band with its partner. The
//! FM search is then limited to band nodes; if moving something outside the
//! band would have helped, a later global iteration will reach it because the
//! boundary (and hence the band) will have shifted.
//!
//! ## Seeding the band
//!
//! Finding the seeds — the pair boundary itself — used to be a full
//! `O(n + m)` graph scan per pair per local iteration
//! ([`pair_boundary_nodes`]). The [`BandSeeder`] trait abstracts the seed
//! source so the scheduler can plug in the incremental [`BoundaryIndex`]
//! instead:
//!
//! * [`FullScanSeeder`] is the retained reference — a fresh full scan every
//!   time, exactly the historical behaviour;
//! * [`IndexSeeder`] draws the initial seeds from the boundary index (built
//!   per global iteration, `O(|boundary|)` per extraction) and then tracks
//!   the worker's own FM moves: only nodes that were pair-boundary at class
//!   start, were moved, or neighbour a moved node can ever be pair-boundary
//!   during the worker's local iterations, so re-seeding re-examines just
//!   this candidate set — never the whole graph.
//!
//! Both seeders return the pair boundary in ascending node order, so band
//! seeds and everything downstream are bit-identical (`tests/parity.rs`).

use kappa_graph::{
    band_around_boundary, is_pair_boundary, pair_boundary_nodes, BlockAssignment, BlockId,
    BoundaryIndex, GraphAccess, NodeId,
};

/// Computes the band of eligible nodes for refining the pair `(a, b)`:
/// a BFS of depth `depth` from the pair boundary, restricted to the two blocks.
///
/// Returns an empty vector when the blocks share no edge (nothing to refine).
/// Generic over [`BlockAssignment`] so the parallel scheduler can compute
/// bands against its per-pair delta views.
pub fn pair_band<G: GraphAccess, A: BlockAssignment>(
    graph: &G,
    partition: &A,
    a: BlockId,
    b: BlockId,
    depth: usize,
) -> Vec<NodeId> {
    let seeds = pair_boundary_nodes(graph, partition, a, b);
    if seeds.is_empty() {
        return Vec::new();
    }
    band_around_boundary(graph, partition, &seeds, (a, b), depth)
}

/// Source of band seeds (the pair boundary) for the local iterations of one
/// pair search.
///
/// [`seeds`](BandSeeder::seeds) must return exactly what a fresh
/// [`pair_boundary_nodes`] scan of `view` would — ascending node order
/// included; [`observe_moves`](BandSeeder::observe_moves) tells the seeder
/// which surviving moves the FM search just applied to `view`, so an
/// incremental implementation can keep up without rescanning.
pub trait BandSeeder<P: BlockAssignment> {
    /// The current boundary of the pair, ascending by node id.
    fn seeds(&mut self, view: &P) -> Vec<NodeId>;

    /// Records surviving FM moves `(node, new_block)` applied to the view.
    fn observe_moves(&mut self, moves: &[(NodeId, BlockId)]);
}

/// The reference seeder: a fresh `O(n + m)` [`pair_boundary_nodes`] scan on
/// every call. Retained as the ground truth [`IndexSeeder`] is checked
/// against; used by `refine_partition_reference`.
pub struct FullScanSeeder<'g, G> {
    graph: &'g G,
    a: BlockId,
    b: BlockId,
}

impl<'g, G: GraphAccess> FullScanSeeder<'g, G> {
    /// A full-scan seeder for the pair `(a, b)`.
    pub fn new(graph: &'g G, a: BlockId, b: BlockId) -> Self {
        FullScanSeeder { graph, a, b }
    }
}

impl<G: GraphAccess, P: BlockAssignment> BandSeeder<P> for FullScanSeeder<'_, G> {
    fn seeds(&mut self, view: &P) -> Vec<NodeId> {
        pair_boundary_nodes(self.graph, view, self.a, self.b)
    }

    fn observe_moves(&mut self, _moves: &[(NodeId, BlockId)]) {}
}

/// Incremental seeder over a shared [`BoundaryIndex`].
///
/// The index reflects the partition at class start; within the pair search
/// only this worker's own moves can change membership of blocks `a`/`b` (the
/// concurrent pairs of a colour class are block-disjoint), so the true pair
/// boundary is always a subset of: the index's pair boundary at class start,
/// plus moved nodes, plus neighbours of moved nodes. `seeds` re-examines this
/// candidate set against the live view — `O(Σ deg(candidate))`, independent
/// of `n` — and `observe_moves` grows it.
pub struct IndexSeeder<'a, G> {
    graph: &'a G,
    a: BlockId,
    b: BlockId,
    /// Sorted, deduplicated candidate superset of the pair boundary.
    candidates: Vec<NodeId>,
}

impl<'a, G: GraphAccess> IndexSeeder<'a, G> {
    /// An index-backed seeder for the pair `(a, b)`. The index must mirror
    /// the state `view` had when the pair search started.
    pub fn new(graph: &'a G, index: &BoundaryIndex, a: BlockId, b: BlockId) -> Self {
        Self::with_candidates(graph, a, b, index.pair_boundary_sorted(a, b))
    }

    /// A seeder whose candidate list starts as `candidates` (ascending,
    /// duplicate-free) instead of the index's pair boundary — the localized
    /// refiner starts from its touched region.
    pub(crate) fn with_candidates(
        graph: &'a G,
        a: BlockId,
        b: BlockId,
        candidates: Vec<NodeId>,
    ) -> Self {
        IndexSeeder {
            graph,
            a,
            b,
            candidates,
        }
    }
}

impl<G: GraphAccess, P: BlockAssignment> BandSeeder<P> for IndexSeeder<'_, G> {
    fn seeds(&mut self, view: &P) -> Vec<NodeId> {
        // Filtering the sorted candidates against the live view keeps the
        // ascending order of the full scan and revalidates every membership.
        self.candidates
            .iter()
            .copied()
            .filter(|&v| is_pair_boundary(self.graph, view, v, self.a, self.b))
            .collect()
    }

    fn observe_moves(&mut self, moves: &[(NodeId, BlockId)]) {
        if moves.is_empty() {
            return;
        }
        let mut extra: Vec<NodeId> = Vec::with_capacity(moves.len());
        for &(v, _) in moves {
            extra.push(v);
            self.graph.for_each_edge(v, |u, _| extra.push(u));
        }
        extra.sort_unstable();
        extra.dedup();
        self.candidates = merge_sorted_dedup(&self.candidates, &extra);
    }
}

/// The union of two ascending, duplicate-free id lists, ascending and
/// duplicate-free again — how a seeder's candidate list takes in the
/// neighbourhoods of moved nodes.
pub fn merge_sorted_dedup(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let next = a[i].min(b[j]);
        i += (a[i] == next) as usize;
        j += (b[j] == next) as usize;
        merged.push(next);
    }
    merged.extend_from_slice(&a[i..]);
    merged.extend_from_slice(&b[j..]);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_gen::grid::grid2d;
    use kappa_graph::{CsrGraph, Partition};

    fn half_split(side: usize) -> (CsrGraph, Partition) {
        let g = grid2d(side, side);
        let assignment = (0..side * side)
            .map(|i| if i % side < side / 2 { 0 } else { 1 })
            .collect();
        (g, Partition::from_assignment(2, assignment))
    }

    #[test]
    fn merge_sorted_dedup_is_the_set_union() {
        assert_eq!(
            merge_sorted_dedup(&[1, 4, 6, 9], &[0, 4, 5, 9, 12]),
            vec![0, 1, 4, 5, 6, 9, 12]
        );
        assert_eq!(merge_sorted_dedup(&[], &[2, 3]), vec![2, 3]);
        assert_eq!(merge_sorted_dedup(&[2, 3], &[]), vec![2, 3]);
    }

    #[test]
    fn band_size_grows_with_depth() {
        let (g, p) = half_split(10);
        let d1 = pair_band(&g, &p, 0, 1, 1).len();
        let d3 = pair_band(&g, &p, 0, 1, 3).len();
        let all = pair_band(&g, &p, 0, 1, 100).len();
        assert!(d1 < d3);
        assert!(d3 < all);
        assert_eq!(all, 100);
        // Depth 1: the two boundary columns plus one column on each side.
        assert_eq!(d1, 40);
    }

    #[test]
    fn empty_band_for_non_adjacent_blocks() {
        let g = grid2d(6, 6);
        // Three vertical stripes: blocks 0 and 2 never touch.
        let assignment = (0..36).map(|i| ((i % 6) / 2) as u32).collect();
        let p = Partition::from_assignment(3, assignment);
        assert!(pair_band(&g, &p, 0, 2, 5).is_empty());
        assert!(!pair_band(&g, &p, 0, 1, 5).is_empty());
    }

    #[test]
    fn band_through_a_delta_view_matches_band_on_an_equal_partition() {
        use crate::delta::{DeltaPairView, SharedAssignment};
        use kappa_graph::BlockAssignmentMut;

        let (g, p) = half_split(12);
        let shared = SharedAssignment::from_partition(&p);
        let mut view = DeltaPairView::new(&shared);
        // Shift a few nodes across the cut, mirroring the moves on a plain
        // partition; the bands must agree at every depth.
        let mut moved = p.clone();
        for v in [5u32, 17, 29, 41, 6, 18] {
            let side = moved.block_of(v);
            view.assign(v, 1 - side);
            moved.assign(v, 1 - side);
        }
        for depth in [0usize, 1, 3, 100] {
            assert_eq!(
                pair_band(&g, &view, 0, 1, depth),
                pair_band(&g, &moved, 0, 1, depth),
                "depth {depth}"
            );
        }
    }

    #[test]
    fn band_contains_only_pair_nodes() {
        let g = grid2d(8, 8);
        let assignment = (0..64)
            .map(|i| {
                let (x, y) = (i % 8, i / 8);
                ((y / 4) * 2 + x / 4) as u32
            })
            .collect();
        let p = Partition::from_assignment(4, assignment);
        let band = pair_band(&g, &p, 0, 1, 2);
        assert!(!band.is_empty());
        assert!(band
            .iter()
            .all(|&v| p.block_of(v) == 0 || p.block_of(v) == 1));
    }
}
