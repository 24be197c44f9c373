//! The persistent, incrementally maintained partition state of one
//! partitioning run.
//!
//! The paper's central engineering claim is that refinement cost should scale
//! with the *boundary*, not the graph — which only holds if nothing in the
//! pipeline quietly re-derives global state. Historically every layer did:
//! the scheduler rebuilt the [`BoundaryIndex`] and recomputed [`BlockWeights`]
//! per global iteration, `edge_cut` was an `O(m)` rescan per refinement call,
//! the quotient graph was re-read from every boundary row per global
//! iteration, and the rebalancer mutated the partition behind the index's
//! back.
//!
//! [`PartitionState`] bundles four pieces of derived state — the block
//! assignment, the per-block weights, the boundary index and the per-pair
//! cut weights of the quotient graph — behind one
//! [`apply_move`](PartitionState::apply_move) that keeps all of them exact
//! in `O(deg(v))`, in the one pass over `v`'s row that the pair cuts need
//! anyway. The pair cut weights are the only form of the cut it keeps: the
//! edge cut is their sum, and the quotient is their list. Layers *thread
//! the state through* instead of rebuilding it: the refinement scheduler
//! receives it current and returns it current, the rebalancer routes its
//! moves through it, and the uncoarsening loop carries it across hierarchy
//! levels via [`project`](PartitionState::project), which seeds the fine
//! level's index from the coarse boundary (the fine boundary is a subset of
//! the image of the coarse boundary) and keeps the weights and every pair's
//! cut weight, which contraction preserves.
//! [`quotient`](PartitionState::quotient) and
//! [`edge_cut`](PartitionState::edge_cut) therefore cost `O(|E_Q|)` and read
//! no row. The only full `O(n + m)` [`BoundaryIndex::build`] in a run is the
//! coarsest level's — [`full_builds`](PartitionState::full_builds) counts
//! them so tests can prove it. The assignment is the state's one node →
//! block map: the index holds none and is handed this one wherever it needs
//! a node's block.

use std::collections::BTreeMap;

use crate::access::GraphAccess;
use crate::boundary_index::BoundaryIndex;
use crate::partition::{BlockWeights, Partition};
use crate::quotient::QuotientGraph;
use crate::types::{BlockId, EdgeWeight, NodeId, NodeWeight};

/// A partition plus its incrementally maintained derived state: block
/// weights, boundary index and per-pair cut weights.
///
/// Invariant (after every public call): `weights`, `boundary` and
/// `pair_cuts` are exactly what [`BlockWeights::compute`],
/// [`BoundaryIndex::build`] and [`QuotientGraph::build`] would recompute
/// from `partition`, so their sum is [`Partition::edge_cut`] — see
/// [`verify_exact`](PartitionState::verify_exact), which tests use to assert
/// it after arbitrary interleavings of moves and projections.
///
/// ```
/// use kappa_graph::{graph_from_edges, Partition, PartitionState};
///
/// // A path 0 - 1 - 2 - 3 split 2 | 2.
/// let g = graph_from_edges(4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
/// let mut state = PartitionState::build(&g, Partition::from_assignment(2, vec![0, 0, 1, 1]));
/// assert_eq!(state.edge_cut(), 1);
/// assert_eq!(state.weights().weight(0), 2);
///
/// // One call moves node 2 across the cut and keeps everything exact.
/// state.apply_move(&g, 2, 0);
/// assert_eq!(state.edge_cut(), 1);
/// assert_eq!(state.weights().weight(0), 3);
/// assert_eq!(state.boundary().boundary_nodes_sorted(), vec![2, 3]);
/// assert!(state.verify_exact(&g).is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct PartitionState {
    partition: Partition,
    weights: BlockWeights,
    boundary: BoundaryIndex,
    /// The cut weight `ω(E_ab)` of every adjacent block pair `a < b`. Edge
    /// weights are positive, so a pair is adjacent exactly while its weight
    /// is.
    pair_cuts: BTreeMap<(BlockId, BlockId), EdgeWeight>,
    /// Number of full `O(n + m)` boundary-index builds this state (and the
    /// coarse states it was projected from) has performed.
    full_builds: usize,
}

impl PartitionState {
    /// Builds the derived state from scratch: one `O(n + m)` pass each for
    /// the weights, the boundary index and the pair cut weights. This is
    /// the *only* full build a partitioning run should perform (at the
    /// coarsest level); every finer level arrives via
    /// [`project`](PartitionState::project).
    ///
    /// `partition` must be a complete assignment for `graph`.
    pub fn build<G: GraphAccess>(graph: &G, partition: Partition) -> Self {
        debug_assert!(partition.is_complete(), "state over a partial assignment");
        let weights = BlockWeights::compute(graph, &partition);
        let boundary = BoundaryIndex::build(graph, &partition);
        let quotient = QuotientGraph::build(graph, &partition);
        PartitionState {
            partition,
            weights,
            boundary,
            pair_cuts: quotient
                .edges()
                .iter()
                .map(|&(a, b, w)| ((a, b), w))
                .collect(),
            full_builds: 1,
        }
    }

    /// Projects this state of a coarse graph onto the finer `fine_graph`,
    /// given the `coarse_of` map (for every fine node, its coarse image).
    ///
    /// Contraction preserves block weights and the cut weight between every
    /// two blocks, so the weights and the per-pair cut weights carry over
    /// unchanged; the fine boundary index is seeded by scanning **only**
    /// fine nodes whose coarse image is boundary (the fine boundary is a
    /// subset of the image of the coarse boundary), via
    /// [`BoundaryIndex::build_seeded`] — no full `O(n + m)` build.
    pub fn project<G: GraphAccess>(&self, fine_graph: &G, coarse_of: &[NodeId]) -> PartitionState {
        debug_assert_eq!(fine_graph.num_nodes(), coarse_of.len());
        let partition = self.partition.project(coarse_of);
        let boundary = BoundaryIndex::build_seeded(fine_graph, &partition, |v| {
            self.boundary.is_boundary(coarse_of[v as usize])
        });
        debug_assert_eq!(
            self.edge_cut(),
            partition.edge_cut(fine_graph),
            "projection changed the edge cut"
        );
        PartitionState {
            partition,
            weights: self.weights.clone(),
            boundary,
            pair_cuts: self.pair_cuts.clone(),
            full_builds: self.full_builds,
        }
    }

    /// The block assignment.
    #[inline]
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The incrementally maintained per-block weights.
    #[inline]
    pub fn weights(&self) -> &BlockWeights {
        &self.weights
    }

    /// The incrementally maintained boundary index of
    /// [`partition`](Self::partition), which its block queries take.
    #[inline]
    pub fn boundary(&self) -> &BoundaryIndex {
        &self.boundary
    }

    /// The edge cut `Σ_{i<j} ω(E_ij)`, summed over the maintained pair cut
    /// weights in `O(|E_Q|)`.
    pub fn edge_cut(&self) -> EdgeWeight {
        self.pair_cuts.values().sum()
    }

    /// Number of blocks `k`.
    #[inline]
    pub fn k(&self) -> BlockId {
        self.partition.k()
    }

    /// Block of node `v`.
    #[inline]
    pub fn block_of(&self, v: NodeId) -> BlockId {
        self.partition.block_of(v)
    }

    /// Number of full `O(n + m)` boundary-index builds behind this state,
    /// inherited through projections. One per run is the target.
    #[inline]
    pub fn full_builds(&self) -> usize {
        self.full_builds
    }

    /// True if every block weight is at most `l_max` — the balance test
    /// against the already-maintained weights, no recompute.
    pub fn is_balanced(&self, l_max: NodeWeight) -> bool {
        self.weights.as_slice().iter().all(|&w| w <= l_max)
    }

    /// Moves `v` to block `to`, updating the assignment, block weights,
    /// boundary index and per-pair cut weights in
    /// `O(deg(v) · log maxdeg)`. Returns `false` (and does nothing) when `v`
    /// is already in `to`.
    ///
    /// Generic over [`GraphAccess`]: the frozen pipeline passes the level's
    /// [`CsrGraph`](crate::csr::CsrGraph), the dynamic path passes a mid-stream
    /// [`DynamicGraph`](crate::dynamic::DynamicGraph) — the maintenance is
    /// identical because only `v`'s current incidence list matters.
    pub fn apply_move<G: GraphAccess>(&mut self, graph: &G, v: NodeId, to: BlockId) -> bool {
        let from = self.partition.block_of(v);
        if from == to {
            return false;
        }
        // Weighted connectivity of v to its old and new block decides the
        // change of the pair (from, to): edges into `from` become cut, edges
        // into `to` stop being cut. An edge into a third block `c` stays cut
        // but moves from the pair (from, c) to the pair (to, c).
        let mut conn_from: EdgeWeight = 0;
        let mut conn_to: EdgeWeight = 0;
        let (partition, pair_cuts) = (&self.partition, &mut self.pair_cuts);
        graph.for_each_edge(v, |u, w| {
            let b = partition.block_of(u);
            if b == from {
                conn_from += w;
            } else if b == to {
                conn_to += w;
            } else {
                shift_cut(pair_cuts, from, b, 0, w);
                shift_cut(pair_cuts, to, b, w, 0);
            }
        });
        shift_cut(&mut self.pair_cuts, from, to, conn_from, conn_to);
        self.weights.apply_move(from, to, graph.node_weight(v));
        self.partition.assign(v, to);
        self.boundary
            .apply_move(graph, &self.partition, v, from, to);
        true
    }

    /// Absorbs the insertion of edge `{v, u}` with weight `w`: the endpoints'
    /// pair cut grows by `w` when the endpoints are in different blocks, and
    /// the boundary index absorbs the new incidence. Call *after* the graph
    /// mutation (ordering is irrelevant — no adjacency scan is needed, the
    /// update is purely endpoint-local).
    pub fn apply_edge_insert(&mut self, v: NodeId, u: NodeId, w: EdgeWeight) {
        let (bv, bu) = (self.partition.block_of(v), self.partition.block_of(u));
        if bv != bu {
            shift_cut(&mut self.pair_cuts, bv, bu, w, 0);
        }
        self.boundary.edge_inserted(&self.partition, v, u);
    }

    /// Absorbs the deletion of edge `{v, u}` whose weight was `w` — the exact
    /// inverse of [`apply_edge_insert`](Self::apply_edge_insert).
    pub fn apply_edge_delete(&mut self, v: NodeId, u: NodeId, w: EdgeWeight) {
        let (bv, bu) = (self.partition.block_of(v), self.partition.block_of(u));
        if bv != bu {
            shift_cut(&mut self.pair_cuts, bv, bu, 0, w);
        }
        self.boundary.edge_deleted(&self.partition, v, u);
    }

    /// Absorbs a reweight of edge `{v, u}` from `old_w` to `new_w`. Only the
    /// endpoints' pair cut can change; boundary structure and weights are
    /// untouched.
    pub fn apply_edge_reweight(
        &mut self,
        v: NodeId,
        u: NodeId,
        old_w: EdgeWeight,
        new_w: EdgeWeight,
    ) {
        let (bv, bu) = (self.partition.block_of(v), self.partition.block_of(u));
        if bv != bu {
            shift_cut(&mut self.pair_cuts, bv, bu, new_w, old_w);
        }
    }

    /// Absorbs the insertion of a new isolated node of weight `weight` into
    /// block `b`; its id is the previous node count (the caller's
    /// [`DynamicGraph`](crate::dynamic::DynamicGraph) assigns the same id).
    pub fn apply_node_insert(&mut self, b: BlockId, weight: NodeWeight) {
        self.partition.push(b);
        self.weights.add(b, weight);
        self.boundary.node_inserted();
    }

    /// Absorbs the deletion of node `v`, whose incident edges must already be
    /// deleted (each via [`apply_edge_delete`](Self::apply_edge_delete)).
    ///
    /// Ids stay stable: `v` remains in the assignment with its last block —
    /// the graph keeps it as an isolated node of weight 0, which is also what
    /// [`to_csr`](crate::dynamic::DynamicGraph::to_csr) produces for it — so
    /// a fresh rebuild on the graph matches field for field.
    pub fn apply_node_delete(&mut self, v: NodeId, weight: NodeWeight) {
        let b = self.partition.block_of(v);
        self.weights.sub(b, weight);
        self.boundary.node_deleted(v);
    }

    /// Consumes the state, returning the partition.
    pub fn into_partition(self) -> Partition {
        self.partition
    }

    /// The quotient graph of the current partition, read off the maintained
    /// per-pair cut weights in `O(|E_Q|)` — no graph row is read.
    /// Equal to [`QuotientGraph::build`] (proptested in `tests/parity.rs`).
    pub fn quotient(&self) -> QuotientGraph {
        let edges = self.pair_cuts.iter().map(|(&(a, b), &w)| (a, b, w));
        QuotientGraph::from_sorted_edges(self.k(), edges.collect())
    }

    /// Checks every piece of derived state against a fresh recomputation —
    /// the ground truth the incremental maintenance is tested against.
    pub fn verify_exact<G: GraphAccess>(&self, graph: &G) -> Result<(), String> {
        self.partition.validate(graph)?;
        let weights = BlockWeights::compute(graph, &self.partition);
        if weights != self.weights {
            return Err(format!(
                "block weights diverged: cached {:?}, recomputed {:?}",
                self.weights.as_slice(),
                weights.as_slice()
            ));
        }
        let boundary = BoundaryIndex::build(graph, &self.partition);
        if !boundary.equivalent(&self.boundary) {
            return Err("boundary index diverged from a fresh build".to_string());
        }
        let quotient = QuotientGraph::build(graph, &self.partition);
        if quotient != self.quotient() {
            return Err(format!(
                "pair cut weights diverged: cached {:?}, recounted {:?}",
                self.quotient().edges(),
                quotient.edges()
            ));
        }
        Ok(())
    }
}

/// Adds `add` to and takes `sub` from the cut weight between blocks `x` and
/// `y` (`x != y`), dropping the pair when its weight reaches zero.
fn shift_cut(
    cuts: &mut BTreeMap<(BlockId, BlockId), EdgeWeight>,
    x: BlockId,
    y: BlockId,
    add: EdgeWeight,
    sub: EdgeWeight,
) {
    let pair = (x.min(y), x.max(y));
    match cuts.get(&pair).copied().unwrap_or(0) + add - sub {
        0 => cuts.remove(&pair),
        w => cuts.insert(pair, w),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, GraphBuilder};
    use crate::csr::CsrGraph;

    fn grid4() -> CsrGraph {
        let mut b = GraphBuilder::new(16);
        for y in 0..4u32 {
            for x in 0..4u32 {
                let v = y * 4 + x;
                if x + 1 < 4 {
                    b.add_edge(v, v + 1, 1);
                }
                if y + 1 < 4 {
                    b.add_edge(v, v + 4, 1);
                }
            }
        }
        b.build()
    }

    #[test]
    fn build_matches_recomputation() {
        let g = grid4();
        let p = Partition::from_assignment(2, (0..16).map(|i| (i % 4 / 2) as u32).collect());
        let state = PartitionState::build(&g, p);
        assert_eq!(state.full_builds(), 1);
        assert!(state.verify_exact(&g).is_ok());
    }

    #[test]
    fn moves_keep_all_four_pieces_exact() {
        let g = grid4();
        let p = Partition::from_assignment(3, (0..16).map(|i| (i % 3) as u32).collect());
        let mut state = PartitionState::build(&g, p);
        for (v, to) in [(0u32, 1u32), (5, 0), (10, 2), (10, 1), (3, 0), (0, 0)] {
            state.apply_move(&g, v, to);
            assert_eq!(state.block_of(v), to);
            state.verify_exact(&g).unwrap();
        }
    }

    #[test]
    fn move_to_same_block_is_a_no_op() {
        let g = graph_from_edges(3, vec![(0, 1, 1), (1, 2, 1)]);
        let mut state = PartitionState::build(&g, Partition::from_assignment(2, vec![0, 0, 1]));
        let cut = state.edge_cut();
        assert!(!state.apply_move(&g, 0, 0));
        assert_eq!(state.edge_cut(), cut);
        assert!(state.apply_move(&g, 2, 0));
        assert_eq!(state.edge_cut(), 0);
    }

    #[test]
    fn weighted_cut_tracks_moves() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 10);
        b.add_edge(1, 2, 3);
        b.add_edge(2, 3, 10);
        let g = b.build();
        let mut state = PartitionState::build(&g, Partition::from_assignment(2, vec![0, 0, 1, 1]));
        assert_eq!(state.edge_cut(), 3);
        state.apply_move(&g, 1, 1); // edge (0,1) w=10 becomes cut, (1,2) w=3 healed
        assert_eq!(state.edge_cut(), 10);
        state.verify_exact(&g).unwrap();
    }

    #[test]
    fn is_balanced_uses_maintained_weights() {
        let g = grid4();
        let mut state = PartitionState::build(
            &g,
            Partition::from_assignment(2, vec![0; 15].into_iter().chain([1]).collect()),
        );
        assert!(!state.is_balanced(Partition::l_max(&g, 2, 0.03)));
        for v in 8..15u32 {
            state.apply_move(&g, v, 1);
        }
        assert!(state.is_balanced(Partition::l_max(&g, 2, 0.03)));
        state.verify_exact(&g).unwrap();
    }

    #[test]
    fn boundary_derived_quotient_matches_the_full_scan() {
        use crate::quotient::QuotientGraph;
        let g = grid4();
        let p = Partition::from_assignment(
            4,
            (0..16)
                .map(|i| ((i % 4) / 2 + (i / 8) * 2) as u32)
                .collect(),
        );
        let mut state = PartitionState::build(&g, p);
        for (v, to) in [(0u32, 1u32), (5, 2), (10, 3), (10, 0), (3, 2)] {
            state.apply_move(&g, v, to);
            let reference = QuotientGraph::build(&g, state.partition());
            let derived = state.quotient();
            assert_eq!(derived.edges(), reference.edges());
            assert_eq!(derived.num_blocks(), reference.num_blocks());
        }
    }

    #[test]
    fn streaming_hooks_match_rebuild_on_the_compacted_graph() {
        use crate::dynamic::DynamicGraph;
        let mut g = DynamicGraph::new(grid4());
        let p = Partition::from_assignment(2, (0..16).map(|i| (i / 8) as u32).collect());
        let mut state = PartitionState::build(&g, p);

        g.insert_edge(0, 15, 4).unwrap();
        state.apply_edge_insert(0, 15, 4);
        let w = g.delete_edge(5, 6).unwrap();
        state.apply_edge_delete(5, 6, w);
        let old = g.update_edge(7, 11, 9).unwrap();
        state.apply_edge_reweight(7, 11, old, 9);
        let v = g.insert_node(2).unwrap();
        state.apply_node_insert(1, 2);
        g.insert_edge(v, 0, 1).unwrap();
        state.apply_edge_insert(v, 0, 1);
        // A node move through the dynamic (overlaid) adjacency.
        state.apply_move(&g, 4, 1);

        // Kill node 3: incident edges first, then the node.
        for (u, uw) in g.edges_of_collected(3) {
            g.delete_edge(3, u).unwrap();
            state.apply_edge_delete(3, u, uw);
        }
        let wt = g.delete_node(3).unwrap();
        state.apply_node_delete(3, wt);

        let compacted = g.to_csr();
        state.verify_exact(&compacted).unwrap();
        let rebuilt = PartitionState::build(&compacted, state.partition().clone());
        assert_eq!(rebuilt.edge_cut(), state.edge_cut());
        assert_eq!(rebuilt.weights(), state.weights());
        assert!(rebuilt.boundary().equivalent(state.boundary()));
    }

    #[test]
    fn projection_carries_weights_cut_and_seeds_the_index() {
        // Fine path 0-1-2-3-4-5 contracted pairwise into a coarse path 0-1-2.
        let fine = graph_from_edges(
            6,
            vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)],
        );
        let coarse = {
            let mut b = GraphBuilder::new(3);
            b.set_node_weight(0, 2);
            b.set_node_weight(1, 2);
            b.set_node_weight(2, 2);
            b.add_edge(0, 1, 1);
            b.add_edge(1, 2, 1);
            b.build()
        };
        let coarse_of = vec![0, 0, 1, 1, 2, 2];
        let coarse_state =
            PartitionState::build(&coarse, Partition::from_assignment(2, vec![0, 0, 1]));
        let fine_state = coarse_state.project(&fine, &coarse_of);
        assert_eq!(fine_state.edge_cut(), coarse_state.edge_cut());
        assert_eq!(
            fine_state.weights().as_slice(),
            coarse_state.weights().as_slice()
        );
        assert_eq!(fine_state.full_builds(), 1);
        fine_state.verify_exact(&fine).unwrap();
    }
}
