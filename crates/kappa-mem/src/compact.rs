//! `CompactCsr` — the in-RAM compact storage level.
//!
//! Same adjacency structure as [`CsrGraph`] (sorted neighbour lists, merged
//! parallel edges, every undirected edge stored twice), but the edge arrays
//! are replaced by one byte arena of delta-varint segments
//! ([`segment`](crate::segment)) plus an `n + 1` offset table. Unit node
//! weights are elided entirely. On the paper's geometric instances this cuts
//! the resident edge footprint by roughly 4–6× versus the `usize`/`u64` CSR
//! arrays; EXPERIMENTS.md (PR 10) records the traversal cost of decoding.

use kappa_graph::{Adjacency, CsrGraph, EdgeWeight, GraphAccess, NodeId, NodeWeight};

use crate::segment::{decode_degree, decode_segment, encode_segment, SegmentIter};

/// A frozen graph stored as concatenated delta-varint segments in one arena.
#[derive(Clone, Debug, PartialEq)]
pub struct CompactCsr {
    /// `offsets[v]..offsets[v + 1]` is `v`'s byte segment in `arena`. Length `n + 1`.
    offsets: Vec<u64>,
    /// Concatenated per-node segments.
    arena: Vec<u8>,
    /// Whether segments carry explicit edge weights (`false` ⇒ all weight 1).
    weighted: bool,
    /// Node weights; `None` ⇒ all weight 1.
    vwgt: Option<Vec<NodeWeight>>,
    /// Optional planar coordinates (kept: this tier is in-RAM anyway).
    coords: Option<Vec<[f64; 2]>>,
    num_half_edges: usize,
    total_node_weight: NodeWeight,
    max_node_weight: NodeWeight,
}

impl CompactCsr {
    /// Re-encodes a plain CSR graph compactly. The result decodes to the
    /// exact same adjacency (`tests` assert round-trip equality with
    /// [`to_csr`](CompactCsr::to_csr)).
    pub fn from_graph(graph: &CsrGraph) -> Self {
        let weighted = !graph.adjwgt().iter().all(|&w| w == 1);
        let mut writer = CompactWriter::new(graph.num_nodes(), weighted);
        let mut scratch: Vec<(NodeId, EdgeWeight)> = Vec::new();
        for v in graph.nodes() {
            scratch.clear();
            scratch.extend(graph.edges_of(v));
            writer.push_node(&scratch);
        }
        let vwgt = if graph.vwgt().iter().all(|&c| c == 1) {
            None
        } else {
            Some(graph.vwgt().to_vec())
        };
        writer.finish(vwgt, graph.coords().map(|c| c.to_vec()))
    }

    /// Decodes back into plain CSR arrays (used at the coarsest level, where
    /// the graph is small and the initial partitioner wants slices).
    pub fn to_csr(&self) -> CsrGraph {
        let n = self.num_nodes();
        let mut xadj = Vec::with_capacity(n + 1);
        let mut adjncy = Vec::with_capacity(self.num_half_edges);
        let mut adjwgt = Vec::with_capacity(self.num_half_edges);
        xadj.push(0);
        for v in 0..n as NodeId {
            self.for_each_edge(v, |t, w| {
                adjncy.push(t);
                adjwgt.push(w);
            });
            xadj.push(adjncy.len());
        }
        let vwgt = match &self.vwgt {
            Some(c) => c.clone(),
            None => vec![1; n],
        };
        CsrGraph::from_parts(xadj, adjncy, adjwgt, vwgt, self.coords.clone())
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether segments store explicit edge weights.
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Resident heap footprint in bytes (arena + offsets + scalars) —
    /// what the memory-tier experiments report.
    pub fn heap_bytes(&self) -> usize {
        self.arena.len()
            + self.offsets.len() * std::mem::size_of::<u64>()
            + self.vwgt.as_ref().map_or(0, |v| v.len() * 8)
            + self.coords.as_ref().map_or(0, |c| c.len() * 16)
    }

    #[inline]
    fn segment(&self, v: NodeId) -> &[u8] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.arena[lo..hi]
    }
}

impl Adjacency for CompactCsr {
    #[inline]
    fn degree_of(&self, v: NodeId) -> usize {
        decode_degree(self.segment(v))
    }

    #[inline]
    fn node_weight_of(&self, v: NodeId) -> NodeWeight {
        match &self.vwgt {
            Some(c) => c[v as usize],
            None => 1,
        }
    }

    #[inline]
    fn for_each_edge<F: FnMut(NodeId, EdgeWeight)>(&self, v: NodeId, f: F) {
        decode_segment(self.segment(v), self.weighted, f);
    }
}

impl GraphAccess for CompactCsr {
    #[inline]
    fn num_nodes(&self) -> usize {
        CompactCsr::num_nodes(self)
    }

    #[inline]
    fn num_half_edges(&self) -> usize {
        self.num_half_edges
    }

    #[inline]
    fn total_node_weight(&self) -> NodeWeight {
        self.total_node_weight
    }

    #[inline]
    fn max_node_weight(&self) -> NodeWeight {
        self.max_node_weight
    }

    #[inline]
    fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        SegmentIter::new(self.segment(v), self.weighted)
    }

    #[inline]
    fn coords(&self) -> Option<&[[f64; 2]]> {
        self.coords.as_deref()
    }
}

/// Incremental builder: nodes are pushed in ascending id order with their
/// final merged, sorted incidence lists. Used by the streaming construction
/// in [`build`](crate::build) and as the in-RAM sink of tiered contraction.
pub struct CompactWriter {
    offsets: Vec<u64>,
    arena: Vec<u8>,
    weighted: bool,
    num_half_edges: usize,
}

impl CompactWriter {
    /// A writer expecting roughly `nodes_hint` nodes.
    pub fn new(nodes_hint: usize, weighted: bool) -> Self {
        let mut offsets = Vec::with_capacity(nodes_hint + 1);
        offsets.push(0);
        CompactWriter {
            offsets,
            arena: Vec::new(),
            weighted,
            num_half_edges: 0,
        }
    }

    /// Appends the next node's incidence list (sorted, merged).
    pub fn push_node(&mut self, edges: &[(NodeId, EdgeWeight)]) {
        encode_segment(&mut self.arena, edges, self.weighted);
        self.offsets.push(self.arena.len() as u64);
        self.num_half_edges += edges.len();
    }

    /// Number of nodes pushed so far.
    pub fn nodes_pushed(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Seals the graph. `vwgt == None` means unit node weights.
    ///
    /// # Panics
    /// Panics if a provided `vwgt`/`coords` length disagrees with the number
    /// of pushed nodes.
    pub fn finish(
        self,
        vwgt: Option<Vec<NodeWeight>>,
        coords: Option<Vec<[f64; 2]>>,
    ) -> CompactCsr {
        let n = self.offsets.len() - 1;
        if let Some(c) = &vwgt {
            assert_eq!(c.len(), n, "vwgt length mismatch");
        }
        if let Some(c) = &coords {
            assert_eq!(c.len(), n, "coords length mismatch");
        }
        let (total, max) = match &vwgt {
            Some(c) => (c.iter().sum(), c.iter().copied().max().unwrap_or(0)),
            None => (n as NodeWeight, if n == 0 { 0 } else { 1 }),
        };
        let mut arena = self.arena;
        arena.shrink_to_fit();
        CompactCsr {
            offsets: self.offsets,
            arena,
            weighted: self.weighted,
            vwgt,
            coords,
            num_half_edges: self.num_half_edges,
            total_node_weight: total,
            max_node_weight: max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_graph::graph_from_edges;

    fn sample() -> CsrGraph {
        graph_from_edges(
            6,
            vec![
                (0, 1, 3),
                (0, 5, 1),
                (1, 2, 7),
                (2, 3, 1),
                (3, 4, 2),
                (4, 5, 9),
                (1, 4, 1),
            ],
        )
    }

    #[test]
    fn round_trip_preserves_everything() {
        let g = sample();
        let c = CompactCsr::from_graph(&g);
        assert_eq!(GraphAccess::num_nodes(&c), g.num_nodes());
        assert_eq!(GraphAccess::num_half_edges(&c), g.num_half_edges());
        assert_eq!(GraphAccess::total_node_weight(&c), g.total_node_weight());
        assert_eq!(c.to_csr(), g);
        for v in g.nodes() {
            let a: Vec<_> = g.edges_of(v).collect();
            let b: Vec<_> = GraphAccess::edges_of(&c, v).collect();
            assert_eq!(a, b, "node {v}");
            assert_eq!(c.degree_of(v), g.degree(v));
        }
    }

    #[test]
    fn unit_graph_elides_weights() {
        let g = graph_from_edges(4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let c = CompactCsr::from_graph(&g);
        assert!(!c.is_weighted());
        assert_eq!(c.to_csr(), g);
        assert_eq!(GraphAccess::max_node_weight(&c), 1);
        // 4 nodes, 6 half-edges: segments are 1 byte degree + ~1 byte/edge.
        assert!(c.heap_bytes() < 64, "arena unexpectedly large");
    }

    #[test]
    fn compact_is_smaller_than_plain_csr() {
        let g = kappa_gen::rgg::random_geometric_graph(4096, 9);
        let c = CompactCsr::from_graph(&g);
        let csr_bytes = (g.num_nodes() + 1) * 8  // xadj
            + g.num_half_edges() * (4 + 8)       // adjncy + adjwgt
            + g.num_nodes() * 8; // vwgt
                                 // Coordinates cost the same in both; compare the structural part.
        let compact_bytes = c.heap_bytes() - g.num_nodes() * 16;
        assert!(
            compact_bytes * 2 < csr_bytes,
            "compact {compact_bytes} B not < half of CSR {csr_bytes} B"
        );
        assert_eq!(c.to_csr(), g);
    }

    #[test]
    fn empty_graph() {
        let c = CompactCsr::from_graph(&CsrGraph::empty());
        assert_eq!(GraphAccess::num_nodes(&c), 0);
        assert_eq!(GraphAccess::num_half_edges(&c), 0);
        assert_eq!(GraphAccess::total_node_weight(&c), 0);
        assert_eq!(c.to_csr(), CsrGraph::empty());
    }
}
