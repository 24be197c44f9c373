//! Construction of [`CsrGraph`]s: [`GraphBuilder`] and the counting build
//! behind it.
//!
//! The counting build ([`count_degrees`] then [`fill_rows`]) is the one place
//! an edge stream becomes rows: a degree pass, a cursor fill of every row, a
//! sort of each row by target, and a merge that sums parallel edges (exactly
//! the rule used when contracting an edge, §2 of the paper) and drops self
//! loops. [`GraphBuilder`] runs it over all nodes at once; the memory tier's
//! `TierGraph::from_source` runs it over one node range at a time, so a
//! streamed graph never holds more than one chunk of rows.

use std::ops::Range;

use crate::csr::{CsrGraph, CsrRows};
use crate::stream::{EdgeSource, SliceEdgeSource};
use crate::types::{EdgeWeight, NodeId, NodeWeight};

/// Builder for [`CsrGraph`].
///
/// ```
/// use kappa_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 2);
/// b.add_edge(1, 0, 3); // parallel edge: weights are merged
/// b.add_edge(1, 1, 7); // self loop: ignored
/// b.add_edge(1, 2, 1);
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.edge_weight_between(0, 1), Some(5));
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_nodes: usize,
    /// The undirected edges as added; [`build`](GraphBuilder::build) replays
    /// them through the counting build.
    edges: Vec<(NodeId, NodeId, EdgeWeight)>,
    node_weights: Vec<NodeWeight>,
    coords: Option<Vec<[f64; 2]>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes, all of unit weight.
    pub fn new(num_nodes: usize) -> Self {
        Self::with_node_weights(vec![1; num_nodes])
    }

    /// Creates a builder with explicit node weights.
    pub fn with_node_weights(node_weights: Vec<NodeWeight>) -> Self {
        GraphBuilder {
            num_nodes: node_weights.len(),
            edges: Vec::new(),
            node_weights,
            coords: None,
        }
    }

    /// Number of nodes of the graph under construction.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Pre-allocates space for `m` undirected edges.
    pub fn reserve_edges(&mut self, m: usize) {
        self.edges.reserve(m);
    }

    /// Sets the weight of a single node.
    pub fn set_node_weight(&mut self, v: NodeId, w: NodeWeight) {
        self.node_weights[v as usize] = w;
    }

    /// Attaches planar coordinates (must cover every node).
    pub fn set_coords(&mut self, coords: Vec<[f64; 2]>) {
        assert_eq!(
            coords.len(),
            self.num_nodes,
            "coordinate array length mismatch"
        );
        self.coords = Some(coords);
    }

    /// Adds an undirected edge `{u, v}` of weight `w`.
    ///
    /// [`build`](GraphBuilder::build) drops self loops, merges parallel edges
    /// (weights summed) and panics on a zero weight or an endpoint
    /// `>= num_nodes`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: EdgeWeight) {
        self.edges.push((u, v, w));
    }

    /// Builds the CSR graph: the counting build over all nodes.
    ///
    /// # Panics
    /// On a zero-weight edge or an endpoint out of range.
    pub fn build(self) -> CsrGraph {
        let src = SliceEdgeSource::new(self.num_nodes, &self.edges);
        let (degrees, _) = count_degrees(&src);
        fill_rows(&src, &degrees, 0..self.num_nodes).finish(self.node_weights, self.coords)
    }
}

/// The degree pass of the counting build: every node's count of half-edges
/// in `src` (parallel edges counted once per copy, self loops skipped), and
/// whether every such edge has weight 1.
///
/// # Panics
/// On a zero weight or an endpoint `>= src.num_nodes()`.
pub fn count_degrees<S: EdgeSource>(src: &S) -> (Vec<u32>, bool) {
    let n = src.num_nodes();
    let mut degrees = vec![0u32; n];
    let mut all_unit = true;
    src.for_each_edge(|u, v, w| {
        assert!(w > 0, "edge weights must be positive");
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge endpoint out of range: {{{u}, {v}}} with n = {n}"
        );
        if u != v {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
            all_unit &= w == 1;
        }
    });
    (degrees, all_unit)
}

/// The fill, sort and merge of the counting build: the rows of the nodes
/// `range` of `src`, row `v` pushed `v - range.start`-th, each sorted by
/// target with parallel edges merged by summing their weights and self loops
/// dropped. `degrees` is [`count_degrees`] of the same stream. Replays `src`
/// once and holds one slot (12 bytes) per counted half-edge of `range`.
///
/// # Panics
/// If the replay emits other half-edges into `range` than `degrees` counts.
pub fn fill_rows<S: EdgeSource>(src: &S, degrees: &[u32], range: Range<usize>) -> CsrRows {
    let lo = range.start;
    let mut xadj = Vec::with_capacity(range.len() + 1);
    xadj.push(0usize);
    for v in range {
        xadj.push(xadj[v - lo] + degrees[v] as usize);
    }
    let rows = xadj.len() - 1;
    let mut cursor = xadj[..rows].to_vec();
    let mut adjncy = vec![0 as NodeId; xadj[rows]];
    let mut adjwgt = vec![0 as EdgeWeight; xadj[rows]];
    src.for_each_edge(|u, v, w| {
        if u == v {
            return;
        }
        for (x, y) in [(u, v), (v, u)] {
            let i = (x as usize).wrapping_sub(lo);
            if i < rows {
                let c = &mut cursor[i];
                assert!(
                    *c < xadj[i + 1],
                    "EdgeSource emitted more edges on replay than it counted"
                );
                adjncy[*c] = y;
                adjwgt[*c] = w;
                *c += 1;
            }
        }
    });

    // Sort and merge each row, compacting leftwards in place: a merged row is
    // never longer than its slots, so `out` never overtakes the next row.
    let mut row: Vec<(NodeId, EdgeWeight)> = Vec::new();
    let mut out = 0usize;
    for i in 0..rows {
        let (start, end) = (xadj[i], xadj[i + 1]);
        assert_eq!(
            cursor[i], end,
            "EdgeSource emitted fewer edges on replay than it counted"
        );
        row.clear();
        row.extend(
            adjncy[start..end]
                .iter()
                .copied()
                .zip(adjwgt[start..end].iter().copied()),
        );
        row.sort_unstable_by_key(|&(t, _)| t);
        xadj[i] = out;
        for &(t, w) in &row {
            if out > xadj[i] && adjncy[out - 1] == t {
                adjwgt[out - 1] += w;
            } else {
                adjncy[out] = t;
                adjwgt[out] = w;
                out += 1;
            }
        }
    }
    xadj[rows] = out;
    adjncy.truncate(out);
    adjwgt.truncate(out);
    CsrRows {
        xadj,
        adjncy,
        adjwgt,
    }
}

/// Convenience: build a graph directly from an undirected edge list with unit
/// node weights.
pub fn graph_from_edges(
    num_nodes: usize,
    edges: impl IntoIterator<Item = (NodeId, NodeId, EdgeWeight)>,
) -> CsrGraph {
    let mut b = GraphBuilder::new(num_nodes);
    for (u, v, w) in edges {
        b.add_edge(u, v, w);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_adjacency() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(3, 0, 1);
        b.add_edge(0, 1, 1);
        b.add_edge(2, 0, 1);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn merges_parallel_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 0, 5);
        b.add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight_between(0, 1), Some(8));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn drops_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 3);
        b.add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn respects_node_weights() {
        let mut b = GraphBuilder::with_node_weights(vec![2, 3, 5]);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        let g = b.build();
        assert_eq!(g.node_weight(0), 2);
        assert_eq!(g.node_weight(2), 5);
        assert_eq!(g.total_node_weight(), 10);
        assert_eq!(g.max_node_weight(), 5);
    }

    #[test]
    fn isolated_nodes_are_allowed() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.neighbors(4), &[] as &[NodeId]);
    }

    #[test]
    fn graph_from_edges_helper() {
        let g = graph_from_edges(3, vec![(0, 1, 1), (1, 2, 4)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight_between(1, 2), Some(4));
    }

    #[test]
    #[should_panic(expected = "edge weights must be positive")]
    fn zero_weight_edge_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0);
        b.build();
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range")]
    fn out_of_range_edge_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2, 1);
        b.build();
    }
}
