//! Induced subgraphs with mappings back to the parent graph.
//!
//! Used where a whole part of the graph is partitioned on its own: the
//! Scotch-like baseline bisects the subgraph of each block recursively, and
//! the road-network generator keeps the giant component. The pairwise
//! refinement of §5.2 never extracts a subgraph — it searches the band
//! around a block pair in place (kappa-refine's `PairBand`, and
//! `GatheredRegion` for a band gathered from several ranks).

use std::collections::HashMap;

use crate::csr::CsrGraph;
use crate::types::{EdgeWeight, NodeId};

/// A subgraph induced by a node subset, plus the bookkeeping needed to map
/// results back to the parent graph.
#[derive(Clone, Debug)]
pub struct ExtractedSubgraph {
    /// The induced subgraph.
    pub graph: CsrGraph,
    /// For every subgraph node, the corresponding node of the parent graph.
    pub to_parent: Vec<NodeId>,
}

impl ExtractedSubgraph {
    /// Parent node of subgraph node `v`.
    #[inline]
    pub fn parent_of(&self, v: NodeId) -> NodeId {
        self.to_parent[v as usize]
    }
}

/// Extracts the subgraph induced by `nodes` (duplicates ignored) from
/// `graph`, numbering its nodes in order of first appearance.
pub fn extract_subgraph(graph: &CsrGraph, nodes: &[NodeId]) -> ExtractedSubgraph {
    let mut to_local: HashMap<NodeId, NodeId> = HashMap::with_capacity(nodes.len() * 2);
    let mut to_parent: Vec<NodeId> = Vec::with_capacity(nodes.len());
    for &v in nodes {
        // A repeat keeps its first local id.
        let next = to_parent.len() as NodeId;
        to_local.entry(v).or_insert_with(|| {
            to_parent.push(v);
            next
        });
    }

    // Each remapped row, sorted: the parent has no parallel edges to merge.
    let mut rows = CsrGraph::rows(to_parent.len(), 0);
    let mut row: Vec<(NodeId, EdgeWeight)> = Vec::new();
    for &parent_u in &to_parent {
        row.clear();
        row.extend(
            graph
                .edges_of(parent_u)
                .filter_map(|(parent_v, w)| to_local.get(&parent_v).map(|&v| (v, w))),
        );
        row.sort_unstable_by_key(|&(t, _)| t);
        rows.push_node(row.iter().copied());
    }
    let vwgt = to_parent.iter().map(|&v| graph.node_weight(v)).collect();
    let coords = graph
        .coords()
        .map(|coords| to_parent.iter().map(|&v| coords[v as usize]).collect());
    ExtractedSubgraph {
        graph: rows.finish(vwgt, coords),
        to_parent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as NodeId, (i + 1) as NodeId, (i + 1) as u64);
        }
        b.build()
    }

    #[test]
    fn extract_without_halo() {
        let g = path(6);
        let sub = extract_subgraph(&g, &[1, 2, 3]);
        assert_eq!(sub.graph.num_nodes(), 3);
        assert_eq!(sub.graph.num_edges(), 2);
        // Edge {1,2} has weight 2, edge {2,3} has weight 3 in the parent.
        let w12 = sub.graph.edge_weight_between(0, 1).unwrap();
        let w23 = sub.graph.edge_weight_between(1, 2).unwrap();
        assert_eq!(w12 + w23, 5);
        assert_eq!(sub.parent_of(0), 1);
    }

    #[test]
    fn coordinates_are_carried_over() {
        let mut g = path(4);
        g.set_coords(Some(vec![[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]));
        let sub = extract_subgraph(&g, &[2, 3]);
        assert_eq!(sub.graph.coord(0), Some([2.0, 0.0]));
        assert_eq!(sub.graph.coord(1), Some([3.0, 0.0]));
    }

    #[test]
    fn non_monotone_node_order_matches_a_builder_oracle() {
        // A weighted 3x3 grid; the subset is listed out of id order, with a
        // repeat.
        let mut b = GraphBuilder::with_node_weights((1..=9).collect());
        for (u, v, w) in [
            (0, 1, 3),
            (1, 2, 1),
            (3, 4, 2),
            (4, 5, 7),
            (6, 7, 1),
            (7, 8, 4),
            (0, 3, 5),
            (1, 4, 1),
            (2, 5, 2),
            (3, 6, 6),
            (4, 7, 3),
            (5, 8, 9),
        ] {
            b.add_edge(u, v, w);
        }
        let g = b.build();
        let sub = extract_subgraph(&g, &[7, 2, 4, 1, 8, 4, 5]);
        assert_eq!(sub.to_parent, vec![7, 2, 4, 1, 8, 5]);
        let local = |p: NodeId| sub.to_parent.iter().position(|&x| x == p);
        let weights = sub.to_parent.iter().map(|&v| g.node_weight(v)).collect();
        let mut oracle = GraphBuilder::with_node_weights(weights);
        for (u, v, w) in g.undirected_edges() {
            if let (Some(lu), Some(lv)) = (local(u), local(v)) {
                oracle.add_edge(lu as NodeId, lv as NodeId, w);
            }
        }
        assert_eq!(sub.graph, oracle.build());
    }

    #[test]
    fn duplicate_input_nodes_are_deduplicated() {
        let g = path(4);
        let sub = extract_subgraph(&g, &[1, 1, 2]);
        assert_eq!(sub.graph.num_nodes(), 2);
    }
}
