//! Streaming graph construction.
//!
//! An [`EdgeSource`] inverts control: the producer (today the rgg and grid
//! generators of `kappa-gen`; no file reader yet) replays its edge stream on
//! demand, and the consumer decides how much to hold. Every consumer runs
//! the same counting build ([`count_degrees`](crate::builder::count_degrees)
//! then [`fill_rows`](crate::builder::fill_rows)): a degree pass over the
//! stream, then one fill pass per node range. [`GraphBuilder`] takes all
//! nodes in one range; `kappa-mem` builds its compact and paged storage
//! levels a chunk of nodes at a time, so peak transient memory is one chunk
//! of rows, not the whole edge list.
//!
//! [`GraphBuilder`]: crate::builder::GraphBuilder

use crate::types::{EdgeWeight, NodeId, NodeWeight};

/// A replayable stream of undirected edges.
///
/// Implementors must emit the *same* edge multiset on every call to
/// [`for_each_edge`](EdgeSource::for_each_edge) — construction runs the
/// stream at least twice and the passes must agree. Emission order is free;
/// duplicate `{u, v}` pairs are merged by summing weights and self-loops are
/// dropped — the source goes through the same counting build as
/// [`GraphBuilder`](crate::builder::GraphBuilder), so a graph built from a
/// source is bit-identical to one built from the equivalent edge list.
pub trait EdgeSource {
    /// Number of nodes; emitted endpoints must be `< num_nodes()`.
    fn num_nodes(&self) -> usize;

    /// Replay the stream, calling `f(u, v, w)` once per undirected edge.
    fn for_each_edge<F: FnMut(NodeId, NodeId, EdgeWeight)>(&self, f: F);

    /// Per-node weights, or `None` for unit weights. Called once.
    fn node_weights(&self) -> Option<Vec<NodeWeight>> {
        None
    }

    /// Planar coordinates, or `None`. Called once; only in-RAM storage
    /// levels retain them (the paged tier drops coordinates by design).
    fn coords(&self) -> Option<Vec<[f64; 2]>> {
        None
    }
}

/// An [`EdgeSource`] over an in-memory edge list — what
/// [`GraphBuilder::build`](crate::builder::GraphBuilder::build) replays, and
/// the bridge for other callers that already hold a `Vec` of edges.
pub struct SliceEdgeSource<'a> {
    num_nodes: usize,
    edges: &'a [(NodeId, NodeId, EdgeWeight)],
}

impl<'a> SliceEdgeSource<'a> {
    /// Wrap an edge list as a replayable source.
    pub fn new(num_nodes: usize, edges: &'a [(NodeId, NodeId, EdgeWeight)]) -> Self {
        Self { num_nodes, edges }
    }
}

impl EdgeSource for SliceEdgeSource<'_> {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn for_each_edge<F: FnMut(NodeId, NodeId, EdgeWeight)>(&self, mut f: F) {
        for &(u, v, w) in self.edges {
            f(u, v, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_source_replays_identically() {
        let edges = vec![(0, 1, 2), (1, 2, 3)];
        let src = SliceEdgeSource::new(3, &edges);
        let mut a = Vec::new();
        src.for_each_edge(|u, v, w| a.push((u, v, w)));
        let mut b = Vec::new();
        src.for_each_edge(|u, v, w| b.push((u, v, w)));
        assert_eq!(a, b);
        assert_eq!(a, edges);
        assert_eq!(src.num_nodes(), 3);
        assert!(src.node_weights().is_none());
        assert!(src.coords().is_none());
    }
}
