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
use crate::types::NodeId;

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
        let local = to_parent.len() as NodeId;
        if to_local.insert(v, local).is_none() {
            to_parent.push(v);
        }
    }

    let mut builder = crate::builder::GraphBuilder::with_node_weights(
        to_parent.iter().map(|&v| graph.node_weight(v)).collect(),
    );
    for (local_u, &parent_u) in to_parent.iter().enumerate() {
        let local_u = local_u as NodeId;
        for (parent_v, w) in graph.edges_of(parent_u) {
            // Keep each edge once.
            match to_local.get(&parent_v) {
                Some(&local_v) if local_u < local_v => builder.add_edge(local_u, local_v, w),
                _ => {}
            }
        }
    }
    let mut graph_out = builder.build();
    if let Some(coords) = graph.coords() {
        graph_out.set_coords(Some(
            to_parent.iter().map(|&v| coords[v as usize]).collect(),
        ));
    }

    ExtractedSubgraph {
        graph: graph_out,
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
    fn duplicate_input_nodes_are_deduplicated() {
        let g = path(4);
        let sub = extract_subgraph(&g, &[1, 1, 2]);
        assert_eq!(sub.graph.num_nodes(), 2);
    }
}
