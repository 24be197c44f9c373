//! Generic read access to a graph — the seam the memory tier and the
//! dynamic service plug into.
//!
//! [`GraphAccess`] is the whole surface the multilevel pipeline and the
//! incremental-maintenance code read a graph through: node counts, cached
//! totals, coordinate access and one node's incidence list, as an iterator
//! ([`edges_of`](GraphAccess::edges_of)) or a callback
//! ([`for_each_edge`](GraphAccess::for_each_edge)). Method names match
//! [`CsrGraph`]'s inherent methods so that algorithms written against the
//! concrete graph generalise by changing only their signature — `&CsrGraph`
//! becomes `&G` with `G: GraphAccess`.
//!
//! The implementors besides [`CsrGraph`]: the mutating
//! [`DynamicGraph`](crate::DynamicGraph) of the dynamic service, and in
//! `kappa-mem` one delta-varint `SegmentGraph` over two byte stores —
//! `CompactCsr` (a RAM arena at roughly half the footprint) and `PagedGraph`
//! (a file behind a fixed-budget page cache). All of them expose the *same*
//! adjacency structure — sorted neighbour lists, merged parallel edges — so
//! generic algorithms produce bit-identical results on every storage level;
//! `tests/parity.rs` asserts this end to end.
//!
//! Notably **not** on this trait: `neighbors(v) -> &[NodeId]`. A slice return
//! would force every implementor to hold the adjacency of each node
//! contiguously decoded in memory, which is exactly what the compact and
//! paged tiers avoid. Code that wants the target list walks
//! [`edges_of`](GraphAccess::edges_of) instead.

use crate::csr::CsrGraph;
use crate::order::NodeOrder;
use crate::types::{EdgeWeight, NodeId, NodeWeight};

/// Whole-graph read access: everything the multilevel pipeline (matching,
/// contraction, refinement, balance accounting) and the incremental state
/// maintenance need from a graph.
pub trait GraphAccess {
    /// Number of nodes `n = |V|`.
    fn num_nodes(&self) -> usize;

    /// Number of half-edges (`2m`; every undirected edge is counted twice).
    fn num_half_edges(&self) -> usize;

    /// Total node weight `c(V)` (cached by implementors; `O(1)`).
    fn total_node_weight(&self) -> NodeWeight;

    /// The largest node weight `max_v c(v)` (cached by the frozen
    /// implementors; `O(1)` there).
    fn max_node_weight(&self) -> NodeWeight;

    /// Degree of node `v`.
    fn degree(&self, v: NodeId) -> usize;

    /// Node weight `c(v)`.
    fn node_weight(&self, v: NodeId) -> NodeWeight;

    /// The incidence list of `v` as `(target, weight)` pairs, sorted by
    /// ascending target id — the same order for every storage level, which
    /// is what makes cross-tier runs bit-identical.
    fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_;

    /// Calls `f(u, w)` once for every edge `{v, u}` of weight `w`, in
    /// [`edges_of`](Self::edges_of) order. Stores that decode a row in one
    /// pass override it.
    #[inline]
    fn for_each_edge<F: FnMut(NodeId, EdgeWeight)>(&self, v: NodeId, mut f: F) {
        for (u, w) in self.edges_of(v) {
            f(u, w);
        }
    }

    /// Planar coordinates, if the graph carries them.
    fn coords(&self) -> Option<&[[f64; 2]]> {
        None
    }

    /// Number of undirected edges `m = |E|`.
    fn num_edges(&self) -> usize {
        self.num_half_edges() / 2
    }

    /// Iterator over all node ids `0..n`.
    fn nodes(&self) -> std::ops::Range<NodeId> {
        0..(self.num_nodes() as NodeId)
    }

    /// The order the rows are stored in, where that is not id order: a
    /// paged graph keeps a scattered input's rows in a
    /// [`locality_order`](crate::locality_order). Ids mean the same either
    /// way; only the cost of reading rows in a given order differs.
    fn storage_order(&self) -> Option<&NodeOrder> {
        None
    }

    /// Every node id once, in [`storage_order`](Self::storage_order): the
    /// cheap way to read every row when the result does not depend on the
    /// order the nodes are visited in.
    fn stored_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let order = self.storage_order().map(NodeOrder::nodes);
        (0..self.num_nodes()).map(move |p| order.map_or(p as NodeId, |o| o[p]))
    }

    /// Sum of the weights of `v`'s incident edges.
    fn weighted_degree(&self, v: NodeId) -> EdgeWeight {
        let mut sum = 0;
        self.for_each_edge(v, |_, w| sum += w);
        sum
    }

    /// Weight of the edge `{u, v}`, or `None` if absent. Linear in `deg(u)`;
    /// the adjacency list is sorted, so the scan stops early.
    fn edge_weight_between(&self, u: NodeId, v: NodeId) -> Option<EdgeWeight> {
        for (t, w) in self.edges_of(u) {
            if t == v {
                return Some(w);
            }
            if t > v {
                return None;
            }
        }
        None
    }

    /// Coordinates of node `v`, if present.
    fn coord(&self, v: NodeId) -> Option<[f64; 2]> {
        self.coords().map(|c| c[v as usize])
    }
}

impl GraphAccess for CsrGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        CsrGraph::num_nodes(self)
    }

    #[inline]
    fn num_half_edges(&self) -> usize {
        CsrGraph::num_half_edges(self)
    }

    #[inline]
    fn total_node_weight(&self) -> NodeWeight {
        CsrGraph::total_node_weight(self)
    }

    #[inline]
    fn max_node_weight(&self) -> NodeWeight {
        CsrGraph::max_node_weight(self)
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        CsrGraph::degree(self, v)
    }

    #[inline]
    fn node_weight(&self, v: NodeId) -> NodeWeight {
        CsrGraph::node_weight(self, v)
    }

    #[inline]
    fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        CsrGraph::edges_of(self, v)
    }

    #[inline]
    fn coords(&self) -> Option<&[[f64; 2]]> {
        CsrGraph::coords(self)
    }

    #[inline]
    fn edge_weight_between(&self, u: NodeId, v: NodeId) -> Option<EdgeWeight> {
        // The CSR form can binary-search its contiguous neighbour slice.
        CsrGraph::edge_weight_between(self, u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    /// A generic consumer sees exactly what the inherent CSR methods expose.
    fn summarize<G: GraphAccess>(g: &G) -> (usize, usize, NodeWeight, Vec<(NodeId, EdgeWeight)>) {
        let edges = g.nodes().flat_map(|v| g.edges_of(v)).collect();
        (g.num_nodes(), g.num_edges(), g.total_node_weight(), edges)
    }

    #[test]
    fn trait_view_matches_inherent_view() {
        let g = graph_from_edges(4, vec![(0, 1, 2), (1, 2, 3), (2, 3, 1), (0, 3, 7)]);
        let (n, m, w, edges) = summarize(&g);
        assert_eq!(n, 4);
        assert_eq!(m, 4);
        assert_eq!(w, g.total_node_weight());
        let inherent: Vec<(NodeId, EdgeWeight)> =
            g.nodes().flat_map(|v| CsrGraph::edges_of(&g, v)).collect();
        assert_eq!(edges, inherent);
    }

    #[test]
    fn provided_methods_agree_with_csr() {
        let g = graph_from_edges(3, vec![(0, 1, 4), (1, 2, 6)]);
        fn probe<G: GraphAccess>(g: &G) {
            assert_eq!(g.weighted_degree(1), 10);
            assert_eq!(g.edge_weight_between(0, 1), Some(4));
            assert_eq!(g.edge_weight_between(0, 2), None);
            assert_eq!(g.degree(1), 2);
            assert_eq!(g.node_weight(2), 1);
            assert!(g.coord(0).is_none());
        }
        probe(&g);
    }
}
