//! Boundary bands for pairwise refinement (§5.2, Figure 2).
//!
//! Before a local search on the pair `(a, b)`, each PE performs a bounded BFS
//! from the pair boundary and exchanges only this band with its partner. The
//! FM search is then limited to band nodes; if moving something outside the
//! band would have helped, a later global iteration will reach it because the
//! boundary (and hence the band) will have shifted.
//!
//! ## One row visit per band node
//!
//! The BFS is the only pass of a pair search that reads the adjacency rows of
//! unmoved nodes. While [`PairBand::around`] expands node `u` it classifies
//! every neighbour's block anyway, so the same row visit also yields `u`'s
//! pair gain (`Σω(other side) − Σω(own side)`) and whether `u` is on the pair
//! boundary — the two things the FM search used to re-read every row for.
//! Nodes of the last ring (distance = depth) are never expanded; they get
//! the same visit once, without discovery. The result is a [`PairBand`]:
//! the band in BFS order with its gains and boundary flags by band position,
//! which [`two_way_fm_in`](crate::fm::two_way_fm_in) consumes as is. On the
//! paged memory tier every row read is a page-cache lookup and a varint
//! decode, so this is what the out-of-core refinement time is made of.
//!
//! [`band_around_boundary`] (plain BFS), [`is_pair_boundary`] and the
//! test-only `gain::pair_gain` are the oracles the fused visit is tested
//! against.
//!
//! ## Seeding the band
//!
//! Finding the seeds — the pair boundary itself — used to be a full
//! `O(n + m)` graph scan per pair per local iteration
//! ([`pair_boundary_nodes`]). The [`BandSeeder`] trait abstracts the seed
//! source so the scheduler can plug in the incremental
//! [`BoundaryIndex`](kappa_graph::BoundaryIndex) instead:
//!
//! * [`IndexSeeder`] draws the initial seeds from the boundary index (kept
//!   current by the persistent `PartitionState` across moves, classes and
//!   hierarchy levels, never rebuilt; one `O(|boundary|)` pass per colour
//!   class) and then tracks the worker's own FM moves: only nodes that were
//!   pair-boundary at class start, were moved, or neighbour a moved node can
//!   ever be pair-boundary during the worker's local iterations, so
//!   re-seeding re-examines just this candidate set — never the whole graph.
//!   Until the first move the candidates *are* the pair boundary, so the
//!   first seeding reads no row at all;
//! * the test-only `FullScanSeeder` is that full scan, every time — the
//!   reference `IndexSeeder` is compared with, and the example of the seam a
//!   test substitutes its own seeder through.
//!
//! Both return the pair boundary in ascending node order, so band seeds and
//! everything downstream are bit-identical (`band::tests`).
//!
//! ## Reusing an idle pair's band
//!
//! A band is a function of the node sets of its pair's two blocks: the seeds
//! are their common boundary, the BFS stays inside them, and gains and flags
//! count neighbours in them. A search that moves nothing leaves both sets as
//! they were, so until a class commit changes block `a` or `b`, the next
//! search of the pair would grow the very same band. [`IdleBands`] keeps the
//! band of each pair's last idle search, stamped with per-block change
//! counters, and hands it back as [`FirstBand::Reuse`] while both stamps
//! still match — FM runs on it without a BFS.

use std::collections::HashMap;

use kappa_graph::{
    band_around_boundary, is_pair_boundary, pair_boundary_nodes, BlockAssignment, BlockId,
    GraphAccess, NodeId, INVALID_NODE,
};

use crate::scheduler::PairDelta;
use crate::scratch::FmScratch;

/// The band of one pair search as the FM search consumes it: the movable
/// nodes in band-BFS order, and by band position each node's pair gain and
/// whether it is on the pair boundary — all three from one visit of each
/// node's adjacency row, against one view at one instant.
#[derive(Clone, Debug, Default)]
pub struct PairBand {
    pub(crate) nodes: Vec<NodeId>,
    pub(crate) gains: Vec<i64>,
    pub(crate) on_boundary: Vec<bool>,
}

impl PairBand {
    /// The depth-`depth` band of the pair `(a, b)` around `seeds`: the nodes
    /// in exactly [`band_around_boundary`]'s order (seeds outside the pair
    /// and repeated seeds are skipped; depth 0 keeps just the seeds), each
    /// with its pair gain (`Σω(other side) − Σω(own side)`) and
    /// [`is_pair_boundary`] flag under `view`.
    ///
    /// Reads every band node's row exactly once and no other row. The
    /// band's buffers come out of `scratch` and return to it when the search
    /// consumes the band; `scratch`'s node-indexed map serves as the BFS's
    /// seen marker and is left reset.
    pub fn around<G: GraphAccess, A: BlockAssignment>(
        graph: &G,
        view: &A,
        seeds: &[NodeId],
        (a, b): (BlockId, BlockId),
        depth: usize,
        scratch: &mut FmScratch,
    ) -> PairBand {
        let mut band = scratch.take_band(graph.num_nodes());
        let PairBand {
            nodes,
            gains,
            on_boundary,
        } = &mut band;
        let seen = &mut scratch.pos;
        for &s in seeds {
            let block = view.block_of(s);
            if (block == a || block == b) && seen[s as usize] == INVALID_NODE {
                seen[s as usize] = 0;
                nodes.push(s);
            }
        }
        // `nodes` is its own queue: BFS order is level order, so a level is
        // the run of nodes appended while the previous one was visited. The
        // last ring (level = depth) is visited like the rest, not expanded.
        let (mut head, mut level, mut level_end) = (0, 0, nodes.len());
        while head < nodes.len() {
            if head == level_end {
                level += 1;
                level_end = nodes.len();
            }
            let expand = level < depth;
            let (gain, boundary) = visit_row(graph, view, nodes[head], (a, b), |v| {
                if expand && seen[v as usize] == INVALID_NODE {
                    seen[v as usize] = 0;
                    nodes.push(v);
                }
            });
            gains.push(gain);
            on_boundary.push(boundary);
            head += 1;
        }
        for &v in nodes.iter() {
            seen[v as usize] = INVALID_NODE;
        }
        band
    }

    /// The band nodes in BFS order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The pair gain of each band node, by band position.
    pub fn gains(&self) -> &[i64] {
        &self.gains
    }

    /// Whether each band node is on the pair boundary, by band position.
    pub fn on_boundary(&self) -> &[bool] {
        &self.on_boundary
    }

    /// Number of band nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when there is nothing to search.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Drops the nodes `keep` rejects, and their gains and flags with them;
    /// the order of the rest is unchanged.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        let mut kept = 0;
        for i in 0..self.nodes.len() {
            if keep(self.nodes[i]) {
                self.nodes[kept] = self.nodes[i];
                self.gains[kept] = self.gains[i];
                self.on_boundary[kept] = self.on_boundary[i];
                kept += 1;
            }
        }
        self.nodes.truncate(kept);
        self.gains.truncate(kept);
        self.on_boundary.truncate(kept);
    }
}

/// One visit of `u`'s adjacency row for the pair `(a, b)` (`u` is in one of
/// the two blocks): returns `u`'s pair gain and whether `u` has a neighbour
/// on the other side, and reports every neighbour inside the pair to
/// `in_pair`. The one place this crate's searches classify a neighbour as
/// own side / other side / outside the pair.
fn visit_row<G: GraphAccess, A: BlockAssignment>(
    graph: &G,
    view: &A,
    u: NodeId,
    (a, b): (BlockId, BlockId),
    mut in_pair: impl FnMut(NodeId),
) -> (i64, bool) {
    let own = view.block_of(u);
    debug_assert!(own == a || own == b, "node {u} not in the pair ({a}, {b})");
    let other = if own == a { b } else { a };
    let (mut gain, mut on_boundary) = (0i64, false);
    graph.for_each_edge(u, |v, w| {
        let block = view.block_of(v);
        if block == other {
            gain += w as i64;
            on_boundary = true;
            in_pair(v);
        } else if block == own {
            gain -= w as i64;
            in_pair(v);
        }
    });
    (gain, on_boundary)
}

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
/// [`seeds`](BandSeeder::seeds) must return the pair boundary of `view`
/// *within the seeder's movable set* — on a full graph, exactly what a fresh
/// [`pair_boundary_nodes`] scan would, ascending node order included;
/// [`observe_moves`](BandSeeder::observe_moves) tells the seeder which
/// surviving moves the FM search just applied to `view`, so an incremental
/// implementation can keep up without rescanning; [`clip`](BandSeeder::clip)
/// restricts each band grown from the seeds to the movable set.
pub trait BandSeeder<P: BlockAssignment> {
    /// The current boundary of the pair, ascending by node id.
    fn seeds(&mut self, view: &P) -> Vec<NodeId>;

    /// Records surviving FM moves `(node, new_block)` applied to the view.
    fn observe_moves(&mut self, moves: &[(NodeId, BlockId)]);

    /// Restricts a band to the movable set; a no-op for a full graph's seeder.
    fn clip(&mut self, _band: &mut PairBand) {}
}

/// Incremental seeder over a shared
/// [`BoundaryIndex`](kappa_graph::BoundaryIndex).
///
/// The index reflects the partition at class start; within the pair search
/// only this worker's own moves can change membership of blocks `a`/`b` (the
/// concurrent pairs of a colour class are block-disjoint), so the true pair
/// boundary is always a subset of: the index's pair boundary at class start,
/// plus moved nodes, plus neighbours of moved nodes. `seeds` re-examines this
/// candidate set against the live view — `O(Σ deg(candidate))`, independent
/// of `n` — and `observe_moves` grows it. A seeder started from the index's
/// pair boundary is *exact* until it observes a move: its candidates are
/// the pair boundary of the view, and `seeds` returns them without reading
/// a row.
pub struct IndexSeeder<'a, G> {
    graph: &'a G,
    a: BlockId,
    b: BlockId,
    /// Sorted, deduplicated candidate superset of the pair boundary.
    candidates: Vec<NodeId>,
    /// True while `candidates` is exactly the pair boundary of the view.
    exact: bool,
}

impl<'a, G: GraphAccess> IndexSeeder<'a, G> {
    /// A seeder whose candidates are `boundary`: the pair boundary of the
    /// view at search start, ascending — one bucket of
    /// [`BoundaryIndex::class_boundaries_sorted`](kappa_graph::BoundaryIndex::class_boundaries_sorted)
    /// over an index that mirrors the view. Its first seeds are `boundary`
    /// itself, revalidated against nothing.
    pub fn from_pair_boundary(graph: &'a G, a: BlockId, b: BlockId, boundary: Vec<NodeId>) -> Self {
        IndexSeeder {
            exact: true,
            ..Self::with_candidates(graph, a, b, boundary)
        }
    }

    /// A seeder whose candidate list starts as `candidates` (ascending,
    /// duplicate-free), a superset of the pair boundary that every seeding
    /// revalidates — the localized refiner starts from its touched region.
    pub fn with_candidates(graph: &'a G, a: BlockId, b: BlockId, candidates: Vec<NodeId>) -> Self {
        IndexSeeder {
            graph,
            a,
            b,
            candidates,
            exact: false,
        }
    }
}

impl<G: GraphAccess, P: BlockAssignment> BandSeeder<P> for IndexSeeder<'_, G> {
    fn seeds(&mut self, view: &P) -> Vec<NodeId> {
        if self.exact {
            return self.candidates.clone();
        }
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
        self.exact = false;
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

/// How a pair search comes by the band of its first local iteration.
#[derive(Debug)]
pub enum FirstBand {
    /// Grow it from the seeds and keep nothing — the paths that never reuse
    /// a band.
    Grow,
    /// Grow it from the seeds and, if the search moves nothing, hand a copy
    /// back as [`PairDelta::idle_band`].
    GrowAndKeep,
    /// Search this band instead of growing one, and hand it back again if
    /// the search moves nothing: the band of the pair's last search, which
    /// moved nothing, with neither block changed since ([`IdleBands`]).
    Reuse(PairBand),
}

/// The bands of the idle pair searches of one refinement call.
///
/// Holds at most one band per block pair: the one the pair's last search
/// searched and left unmoved, stamped with the change counts its two blocks
/// had then. A class commit that moves nodes between `a` and `b` bumps both
/// counts ([`settle`](Self::settle)), which retires every band stamped
/// before. A store lives for one refinement call and starts after the entry
/// rebalance, which is the only other source of moves before the exit
/// rebalance.
#[derive(Debug)]
pub struct IdleBands {
    /// Per block, how many searches have moved its nodes so far.
    changes: Vec<u64>,
    /// Per pair `(a, b)`: the stamps `(changes[a], changes[b])` and the band.
    bands: HashMap<(BlockId, BlockId), ((u64, u64), PairBand)>,
}

impl IdleBands {
    /// An empty store for a partition into `k` blocks.
    pub fn new(k: BlockId) -> Self {
        IdleBands {
            changes: vec![0; k as usize],
            bands: HashMap::new(),
        }
    }

    /// The first band of the next search of the pair `(a, b)`: the kept band
    /// if neither block changed since it was kept; otherwise one to grow,
    /// and to keep if `keep` (false where no later search of the pair can
    /// follow in this call).
    pub fn first_band(&mut self, a: BlockId, b: BlockId, keep: bool) -> FirstBand {
        match self.bands.remove(&(a, b)) {
            Some((stamps, band)) if stamps == self.stamps(a, b) => FirstBand::Reuse(band),
            _ if keep => FirstBand::GrowAndKeep,
            _ => FirstBand::Grow,
        }
    }

    /// Records the outcome of the pair's search: bumps both blocks if it
    /// moved nodes, keeps its idle band (taken out of `delta`) otherwise.
    pub fn settle(&mut self, a: BlockId, b: BlockId, delta: &mut PairDelta) {
        if !delta.moves.is_empty() {
            self.changes[a as usize] += 1;
            self.changes[b as usize] += 1;
        } else if let Some(band) = delta.idle_band.take() {
            self.bands.insert((a, b), (self.stamps(a, b), band));
        }
    }

    fn stamps(&self, a: BlockId, b: BlockId) -> (u64, u64) {
        (self.changes[a as usize], self.changes[b as usize])
    }
}

#[cfg(test)]
/// The reference seeder: a fresh `O(n + m)` [`pair_boundary_nodes`] scan on
/// every call — the ground truth [`IndexSeeder`] is checked against, and what
/// `refine_partition_reference` seeds with.
pub(crate) struct FullScanSeeder<'g, G> {
    graph: &'g G,
    a: BlockId,
    b: BlockId,
}

#[cfg(test)]
impl<'g, G: GraphAccess> FullScanSeeder<'g, G> {
    /// A full-scan seeder for the pair `(a, b)`.
    pub(crate) fn new(graph: &'g G, a: BlockId, b: BlockId) -> Self {
        FullScanSeeder { graph, a, b }
    }
}

#[cfg(test)]
impl<G: GraphAccess, P: BlockAssignment> BandSeeder<P> for FullScanSeeder<'_, G> {
    fn seeds(&mut self, view: &P) -> Vec<NodeId> {
        pair_boundary_nodes(self.graph, view, self.a, self.b)
    }

    fn observe_moves(&mut self, _moves: &[(NodeId, BlockId)]) {}
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::arbitrary_graph::{arbitrary_graph, xorshift};
    use crate::delta::{DeltaPairView, SharedAssignment};
    use crate::gain::pair_gain;
    use kappa_gen::grid::grid2d;
    use kappa_graph::{BlockAssignmentMut, BoundaryIndex, CsrGraph, GraphBuilder, Partition};
    use kappa_initial::random_partition;
    use proptest::prelude::*;

    /// Every position of `band` against the public oracles: the gain is
    /// [`pair_gain`]'s, the flag [`is_pair_boundary`]'s.
    pub(crate) fn assert_gains_and_flags_match_oracles<A: BlockAssignment>(
        graph: &CsrGraph,
        view: &A,
        band: &PairBand,
        (a, b): (BlockId, BlockId),
    ) {
        assert_eq!(band.gains().len(), band.len());
        assert_eq!(band.on_boundary().len(), band.len());
        for (i, &v) in band.nodes().iter().enumerate() {
            assert_eq!(
                band.gains()[i],
                pair_gain(graph, view, v, a, b),
                "gain of node {v} at band position {i}"
            );
            assert_eq!(
                band.on_boundary()[i],
                is_pair_boundary(graph, view, v, a, b),
                "boundary flag of node {v} at band position {i}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fused band equals the three oracles it replaces in the hot
        /// path — `band_around_boundary` (order), `pair_gain` (every
        /// position), `is_pair_boundary` (every flag) — on a plain partition
        /// and through a delta view with moves already applied, at every
        /// depth class (seeds only, one ring, a few rings, the whole pair),
        /// with stray and repeated seeds thrown in.
        #[test]
        fn fused_band_matches_the_bfs_gain_and_boundary_oracles(
            n in 20usize..140,
            seed in any::<u64>(),
            k in 2u32..5,
        ) {
            let mut next = xorshift(seed);
            let mut builder =
                GraphBuilder::with_node_weights((0..n).map(|_| 1 + next() % 5).collect());
            for _ in 0..2 * n {
                let (u, v) = ((next() % n as u64) as NodeId, (next() % n as u64) as NodeId);
                builder.add_edge(u, v, 1 + next() % 20);
            }
            let graph = builder.build();
            let partition =
                Partition::from_assignment(k, (0..n).map(|_| (next() % k as u64) as u32).collect());
            let a = (next() % k as u64) as u32;
            let b = (a + 1 + (next() % (k as u64 - 1)) as u32) % k;

            let shared = SharedAssignment::from_partition(&partition);
            let mut view = DeltaPairView::new(&shared);
            for _ in 0..n / 4 {
                let v = (next() % n as u64) as NodeId;
                let block = view.block_of(v);
                if block == a || block == b {
                    view.assign(v, a + b - block);
                }
            }

            let strays: Vec<NodeId> = (0..4).map(|_| (next() % n as u64) as NodeId).collect();
            let mut scratch = FmScratch::new();
            assert_band_matches_oracles(&graph, &partition, (a, b), &strays, &mut scratch);
            assert_band_matches_oracles(&graph, &view, (a, b), &strays, &mut scratch);
        }
    }

    /// The body of the proptest above for one view.
    fn assert_band_matches_oracles<A: BlockAssignment>(
        graph: &CsrGraph,
        view: &A,
        (a, b): (BlockId, BlockId),
        strays: &[NodeId],
        scratch: &mut FmScratch,
    ) {
        let mut seeds = pair_boundary_nodes(graph, view, a, b);
        seeds.extend_from_slice(strays);
        for depth in [0usize, 1, 3, 100] {
            let band = PairBand::around(graph, view, &seeds, (a, b), depth, scratch);
            assert_eq!(
                band.nodes(),
                band_around_boundary(graph, view, &seeds, (a, b), depth),
                "depth {depth}"
            );
            assert_gains_and_flags_match_oracles(graph, view, &band, (a, b));
            // Hand the buffers back as the FM search would.
            scratch.spare = band;
        }
    }

    #[test]
    fn retain_keeps_nodes_gains_and_flags_aligned() {
        let (g, p) = half_split(8);
        let seeds = pair_boundary_nodes(&g, &p, 0, 1);
        let mut scratch = FmScratch::new();
        let mut band = PairBand::around(&g, &p, &seeds, (0, 1), 2, &mut scratch);
        let order_before = band.nodes().to_vec();
        band.retain(|v| v % 3 != 0);
        let expected: Vec<NodeId> = order_before.into_iter().filter(|v| v % 3 != 0).collect();
        assert!(!expected.is_empty() && expected.len() < 48);
        assert_eq!(band.nodes(), expected);
        assert_gains_and_flags_match_oracles(&g, &p, &band, (0, 1));
    }

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

    // Band seeds drawn from the boundary index must be bit-identical to the
    // retained full-scan reference — initially and after every batch of
    // simulated FM moves the seeder observes — and so must the bands grown
    // from them.
    #[test]
    fn index_seeder_band_seeds_are_bit_identical_to_full_scan(
        graph in arbitrary_graph(150),
        k in 2u32..5,
        seed in any::<u64>(),
    ) {
        let partition = random_partition(&graph, k, seed);
        let index = BoundaryIndex::build(&graph, &partition);
        let n = graph.num_nodes() as u64;
        let (a, b) = (0u32, 1u32);
        let boundary = index.pair_boundary_sorted(&partition, a, b);
        let mut with_index = IndexSeeder::from_pair_boundary(&graph, a, b, boundary);
        let mut full_scan = FullScanSeeder::new(&graph, a, b);
        // `view` plays the DeltaPairView: the pair's live state during the
        // worker's local iterations, diverging from the index by exactly the
        // observed moves.
        let mut view = partition.clone();
        let mut next = xorshift(seed);
        for round in 0..6 {
            let expected = BandSeeder::<Partition>::seeds(&mut full_scan, &view);
            let got = BandSeeder::<Partition>::seeds(&mut with_index, &view);
            prop_assert_eq!(&got, &expected, "seeds diverged in round {}", round);
            for depth in [1usize, 3] {
                prop_assert_eq!(
                    band_around_boundary(&graph, &view, &got, (a, b), depth),
                    band_around_boundary(&graph, &view, &expected, (a, b), depth),
                    "band diverged in round {} depth {}",
                    round,
                    depth
                );
            }
            // Simulate one FM result: a few nodes of the pair switch sides.
            let mut moves = Vec::new();
            for _ in 0..4 {
                let v = (next() % n) as u32;
                let bv = view.block_of(v);
                if bv == a || bv == b {
                    let to = if bv == a { b } else { a };
                    view.assign(v, to);
                    moves.push((v, to));
                }
            }
            BandSeeder::<Partition>::observe_moves(&mut with_index, &moves);
            BandSeeder::<Partition>::observe_moves(&mut full_scan, &moves);
        }
    }
    }
}
