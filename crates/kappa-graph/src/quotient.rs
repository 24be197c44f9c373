//! The quotient graph `Q` of a partition (§5, Figure 1 of the paper).
//!
//! Nodes of `Q` are the blocks of the current partition; an edge `{A, B}` of `Q`
//! indicates that the underlying graph `G` has at least one edge between blocks
//! `A` and `B`, and its weight is the total weight of those cut edges. The
//! parallel refinement algorithm schedules pairwise local searches along the
//! edges of `Q`, grouped into matchings by an edge colouring.

use std::collections::HashMap;

use crate::access::GraphAccess;
use crate::partition::Partition;
use crate::types::{BlockId, EdgeWeight};

/// Quotient graph of a partition: the block-level connectivity structure.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QuotientGraph {
    k: BlockId,
    /// Adjacency: for every block, the (neighbor block, cut weight) pairs sorted
    /// by neighbour id.
    adj: Vec<Vec<(BlockId, EdgeWeight)>>,
    /// Every quotient edge once, as `(a, b, cut_weight)` with `a < b`.
    edges: Vec<(BlockId, BlockId, EdgeWeight)>,
}

impl QuotientGraph {
    /// Builds the quotient graph of `partition` on `graph` with one full
    /// `O(n + m)` scan of every edge.
    ///
    /// This is the parity *reference*: pipelines that hold a
    /// [`PartitionState`](crate::PartitionState) read the identical quotient
    /// off their maintained per-pair cut weights via
    /// [`PartitionState::quotient`](crate::PartitionState::quotient) in
    /// `O(k + |E_Q|)` instead.
    pub fn build<G: GraphAccess>(graph: &G, partition: &Partition) -> Self {
        let mut cut_weights: HashMap<(BlockId, BlockId), EdgeWeight> = HashMap::new();
        for u in GraphAccess::nodes(graph) {
            let bu = partition.block_of(u);
            // Count each undirected edge once, at its smaller endpoint.
            graph.for_each_edge(u, |v, w| {
                if u < v {
                    let bv = partition.block_of(v);
                    if bu != bv {
                        let key = (bu.min(bv), bu.max(bv));
                        *cut_weights.entry(key).or_insert(0) += w;
                    }
                }
            });
        }
        Self::from_cut_weights(partition.k(), cut_weights)
    }

    /// Assembles a quotient graph from aggregated per-pair cut weights
    /// (`(a, b) → Σ ω`, keys normalised `a < b`). Shared by the full-scan
    /// [`build`](Self::build) and the distributed pipeline (which allgathers
    /// per-rank partial weights), so both produce bit-identical edge lists
    /// from equal weight maps.
    pub fn from_cut_weights(
        k: BlockId,
        cut_weights: HashMap<(BlockId, BlockId), EdgeWeight>,
    ) -> Self {
        // kappa-lint: allow(hash-iter) -- drained into a Vec that is sorted immediately below, erasing the hash order.
        let mut edges: Vec<(BlockId, BlockId, EdgeWeight)> = cut_weights
            .into_iter()
            .map(|((a, b), w)| (a, b, w))
            .collect();
        edges.sort_unstable();
        Self::from_sorted_edges(k, edges)
    }

    /// Assembles a quotient graph from its edge list `(a, b, Σ ω)`, every
    /// pair once with `a < b`, ascending — what
    /// [`PartitionState::quotient`](crate::PartitionState::quotient) reads off
    /// its maintained cut weights.
    pub fn from_sorted_edges(k: BlockId, edges: Vec<(BlockId, BlockId, EdgeWeight)>) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "unsorted edges");
        let mut adj = vec![Vec::new(); k as usize];
        for &(a, b, w) in &edges {
            debug_assert!(a < b && b < k, "malformed quotient edge ({a}, {b})");
            adj[a as usize].push((b, w));
            adj[b as usize].push((a, w));
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        QuotientGraph { k, adj, edges }
    }

    /// Number of blocks (nodes of `Q`).
    #[inline]
    pub fn num_blocks(&self) -> BlockId {
        self.k
    }

    /// Number of quotient edges (pairs of adjacent blocks).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Every quotient edge once, as `(a, b, cut_weight)` with `a < b`.
    #[inline]
    pub fn edges(&self) -> &[(BlockId, BlockId, EdgeWeight)] {
        &self.edges
    }

    /// Neighbouring blocks of block `b` with the corresponding cut weights.
    #[inline]
    pub fn neighbors(&self, b: BlockId) -> &[(BlockId, EdgeWeight)] {
        &self.adj[b as usize]
    }

    /// Degree of a block in `Q`.
    #[inline]
    pub fn degree(&self, b: BlockId) -> usize {
        self.adj[b as usize].len()
    }

    /// Maximum degree Δ(Q); the greedy edge colouring uses at most `2Δ − 1` colours.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(|l| l.len()).max().unwrap_or(0)
    }

    /// Total cut weight (must equal `partition.edge_cut(graph)`).
    pub fn total_cut(&self) -> EdgeWeight {
        self.edges.iter().map(|&(_, _, w)| w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::csr::CsrGraph;
    use crate::types::NodeId;

    /// A 4x4 grid graph partitioned into 4 quadrant blocks, as in Figure 1.
    fn grid4() -> (CsrGraph, Partition) {
        let side = 4usize;
        let mut b = GraphBuilder::new(side * side);
        let id = |x: usize, y: usize| (y * side + x) as NodeId;
        for y in 0..side {
            for x in 0..side {
                if x + 1 < side {
                    b.add_edge(id(x, y), id(x + 1, y), 1);
                }
                if y + 1 < side {
                    b.add_edge(id(x, y), id(x, y + 1), 1);
                }
            }
        }
        let g = b.build();
        let assignment = (0..side * side)
            .map(|i| {
                let (x, y) = (i % side, i / side);
                ((y / 2) * 2 + x / 2) as BlockId
            })
            .collect();
        (g, Partition::from_assignment(4, assignment))
    }

    #[test]
    fn quotient_of_quadrant_grid() {
        let (g, p) = grid4();
        let q = QuotientGraph::build(&g, &p);
        assert_eq!(q.num_blocks(), 4);
        // Quadrants: 0-1, 0-2, 1-3, 2-3 adjacent; 0-3 and 1-2 not (no diagonal edges).
        let pairs: Vec<_> = q.edges().iter().map(|&(a, b, _)| (a, b)).collect();
        assert_eq!(pairs, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(q.total_cut(), p.edge_cut(&g));
        assert_eq!(q.max_degree(), 2);
        assert_eq!(q.degree(0), 2);
    }

    #[test]
    fn quotient_edge_weights_are_cut_weights() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 5);
        b.add_edge(0, 2, 3);
        b.add_edge(1, 3, 2);
        b.add_edge(2, 3, 7);
        let g = b.build();
        let p = Partition::from_assignment(2, vec![0, 0, 1, 1]);
        let q = QuotientGraph::build(&g, &p);
        assert_eq!(q.num_edges(), 1);
        assert_eq!(q.edges()[0], (0, 1, 5)); // edges 0-2 (3) and 1-3 (2) are cut
        assert_eq!(q.total_cut(), 5);
    }

    #[test]
    fn empty_and_single_block_quotients() {
        let g = CsrGraph::empty();
        let p = Partition::from_assignment(1, vec![]);
        let q = QuotientGraph::build(&g, &p);
        assert_eq!(q.num_edges(), 0);
        assert_eq!(q.max_degree(), 0);

        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        let g = b.build();
        let p = Partition::trivial(1, 3);
        let q = QuotientGraph::build(&g, &p);
        assert_eq!(q.num_blocks(), 1);
        assert_eq!(q.num_edges(), 0);
        assert_eq!(q.total_cut(), 0);
    }
}
