//! The quotient graph `Q` of a partition (§5, Figure 1 of the paper).
//!
//! Nodes of `Q` are the blocks of the current partition; an edge `{A, B}` of `Q`
//! indicates that the underlying graph `G` has at least one edge between blocks
//! `A` and `B`, and its weight is the total weight of those cut edges. The
//! parallel refinement algorithm schedules pairwise local searches along the
//! edges of `Q`, grouped into matchings by an edge colouring — which is all
//! it reads, so `Q` is stored as that edge list alone, which every producer
//! reaches through [`sum_cut_weights`].

use crate::access::GraphAccess;
use crate::partition::Partition;
use crate::types::{BlockId, EdgeWeight};

/// Quotient graph of a partition: every adjacent block pair once, as
/// `(a, b, cut_weight)` with `a < b`, ascending.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QuotientGraph {
    k: BlockId,
    edges: Vec<(BlockId, BlockId, EdgeWeight)>,
}

/// Sorts cut-weight entries `(a, b, ω)` (each pair normalised `a < b`) by
/// pair and sums the entries of equal pairs into one — the quotient's edge
/// list from any multiset of contributions: one entry per cut edge, or
/// per-rank partial sums.
pub fn sum_cut_weights(edges: &mut Vec<(BlockId, BlockId, EdgeWeight)>) {
    edges.sort_unstable_by_key(|&(a, b, _)| (a, b));
    edges.dedup_by(|next, kept| {
        let same = (next.0, next.1) == (kept.0, kept.1);
        if same {
            kept.2 += next.2;
        }
        same
    });
}

impl QuotientGraph {
    /// Builds the quotient graph of `partition` on `graph` with one full
    /// `O(n + m)` scan of every edge.
    ///
    /// This is the parity *reference*: pipelines that hold a
    /// [`PartitionState`](crate::PartitionState) read the identical quotient
    /// off their maintained per-pair cut weights via
    /// [`PartitionState::quotient`](crate::PartitionState::quotient) in
    /// `O(|E_Q|)` instead.
    pub fn build<G: GraphAccess>(graph: &G, partition: &Partition) -> Self {
        let mut edges = Vec::new();
        for u in graph.stored_nodes() {
            let bu = partition.block_of(u);
            // Count each undirected edge once, at its smaller endpoint.
            graph.for_each_edge(u, |v, w| {
                if u < v {
                    let bv = partition.block_of(v);
                    if bu != bv {
                        edges.push((bu.min(bv), bu.max(bv), w));
                    }
                }
            });
        }
        sum_cut_weights(&mut edges);
        Self::from_sorted_edges(partition.k(), edges)
    }

    /// Assembles a quotient graph from its edge list `(a, b, Σ ω)`, every
    /// pair once with `a < b < k`, ascending — what [`sum_cut_weights`]
    /// leaves behind.
    pub fn from_sorted_edges(k: BlockId, edges: Vec<(BlockId, BlockId, EdgeWeight)>) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "unsorted edges");
        debug_assert!(
            edges.iter().all(|&(a, b, _)| a < b && b < k),
            "malformed quotient edge"
        );
        QuotientGraph { k, edges }
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

    /// Maximum degree Δ(Q); the greedy edge colouring uses at most `2Δ − 1` colours.
    pub fn max_degree(&self) -> usize {
        let mut degree = vec![0usize; self.k as usize];
        for &(a, b, _) in &self.edges {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        degree.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::csr::CsrGraph;
    use crate::types::NodeId;

    fn cut_of(q: &QuotientGraph) -> EdgeWeight {
        q.edges().iter().map(|&(_, _, w)| w).sum()
    }

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
        assert_eq!(cut_of(&q), p.edge_cut(&g));
        assert_eq!(q.max_degree(), 2);
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
        assert_eq!(cut_of(&q), 5);
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
        assert_eq!(cut_of(&q), 0);
    }
}
