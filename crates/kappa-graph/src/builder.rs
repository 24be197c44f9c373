//! Construction of [`CsrGraph`]s. [`merge_row`] is the one row rule (sort
//! by target, sum equal targets, as when contracting an edge, §2 of the
//! paper) that every producer runs before pushing a row into [`CsrRows`]. The
//! counting build ([`count_degrees`] then [`fill_rows`]) is the one place an
//! edge stream becomes rows: a degree pass, a cursor fill (self loops
//! dropped) and [`merge_row`] on each row. [`GraphBuilder`] runs it over all
//! nodes at once; the memory tier's `TierGraph::from_source` over one node
//! range at a time, so a streamed graph never holds more than one chunk.

use std::ops::Range;

use crate::csr::{CsrGraph, CsrRows, WeightOverflow, MAX_TOTAL_WEIGHT};
use crate::order::{IdSpan, NodeOrder};
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
    /// Empty while every node weighs 1.
    node_weights: Vec<NodeWeight>,
    coords: Option<Vec<[f64; 2]>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes, all of unit weight.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder {
            num_nodes,
            ..Self::with_node_weights(Vec::new())
        }
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
        if self.node_weights.is_empty() {
            self.node_weights = vec![1; self.num_nodes];
        }
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
    /// On a zero-weight edge, an endpoint out of range, or weights that
    /// break the totals rule (a total edge or node weight above
    /// [`MAX_TOTAL_WEIGHT`], see [`crate::csr`]).
    pub fn build(self) -> CsrGraph {
        let src = SliceEdgeSource::new(self.num_nodes, &self.edges);
        let count = count_degrees(&src);
        fill_rows(&src, &count, None, 0..self.num_nodes).finish(self.node_weights, self.coords)
    }
}

/// What the degree pass of the counting build learns about a stream.
#[derive(Clone, Debug)]
pub struct DegreeCount {
    /// Every node's count of half-edges (parallel edges counted once per
    /// copy, self loops skipped).
    pub degrees: Vec<u32>,
    /// Whether every such edge has weight 1.
    pub all_unit: bool,
    /// |u − v| over the same edges: whether the ids are local.
    pub span: IdSpan,
}

/// The degree pass of the counting build over `src`.
///
/// # Panics
/// On a zero weight, an endpoint `>= src.num_nodes()`, or a total weight of
/// the edges other than self loops above [`MAX_TOTAL_WEIGHT`] (the totals
/// rule of [`crate::csr`]: the stream's weights would not fit the 32-bit
/// store).
pub fn count_degrees<S: EdgeSource>(src: &S) -> DegreeCount {
    let n = src.num_nodes();
    let mut count = DegreeCount {
        degrees: vec![0u32; n],
        all_unit: true,
        span: IdSpan::default(),
    };
    let mut total: EdgeWeight = 0;
    src.for_each_edge(|u, v, w| {
        assert!(w > 0, "edge weights must be positive");
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge endpoint out of range: {{{u}, {v}}} with n = {n}"
        );
        if u != v {
            count.degrees[u as usize] += 1;
            count.degrees[v as usize] += 1;
            count.all_unit &= w == 1;
            count.span.add(u, v);
            total = total.saturating_add(w);
        }
    });
    assert!(total <= MAX_TOTAL_WEIGHT, "{}", WeightOverflow::Edges);
    count
}

/// The fill and merge of the counting build: the rows of the nodes at the
/// positions `range` of `order` (`None`: id order) in `src`, the row at
/// position `p` pushed `p - range.start`-th, self loops dropped and each row
/// brought into form by [`merge_row`]. `count` is [`count_degrees`] of the
/// same stream. Replays `src` once and holds one slot (8 bytes: a 4-byte
/// target and a 4-byte weight; 4 in an all-unit stream, whose weights are
/// stored only if a merge sums two edges) per counted half-edge of `range`.
///
/// # Panics
/// If the replay emits other half-edges into `range` than `degrees` counts.
pub fn fill_rows<S: EdgeSource>(
    src: &S,
    count: &DegreeCount,
    order: Option<&NodeOrder>,
    range: Range<usize>,
) -> CsrRows {
    let (lo, degrees) = (range.start, &count.degrees);
    let node_at = |p: usize| order.map_or(p, |o| o.nodes()[p] as usize);
    let position = |v: NodeId| order.map_or(v as usize, |o| o.position(v));
    let mut xadj = Vec::with_capacity(range.len() + 1);
    xadj.push(0usize);
    for p in range {
        xadj.push(xadj[p - lo] + degrees[node_at(p)] as usize);
    }
    let rows = xadj.len() - 1;
    let mut cursor = xadj[..rows].to_vec();
    let mut adjncy = vec![0 as NodeId; xadj[rows]];
    let mut adjwgt = vec![0u32; if count.all_unit { 0 } else { xadj[rows] }];
    src.for_each_edge(|u, v, w| {
        if u == v {
            return;
        }
        for (x, y) in [(u, v), (v, u)] {
            let i = position(x).wrapping_sub(lo);
            if i < rows {
                let c = &mut cursor[i];
                assert!(
                    *c < xadj[i + 1],
                    "EdgeSource emitted more edges on replay than it counted"
                );
                adjncy[*c] = y;
                if let Some(slot) = adjwgt.get_mut(*c) {
                    *slot = u32::try_from(w).expect("the degree pass bounds every weight");
                }
                *c += 1;
            }
        }
    });

    // Merge each row, compacting leftwards in place: a merged row is never
    // longer than its slots, so `out` never overtakes the next row.
    let mut row: Vec<(NodeId, EdgeWeight)> = Vec::new();
    let mut out = 0usize;
    for i in 0..rows {
        let (start, end) = (xadj[i], xadj[i + 1]);
        assert_eq!(
            cursor[i], end,
            "EdgeSource emitted fewer edges on replay than it counted"
        );
        row.clear();
        row.extend((start..end).map(|j| (adjncy[j], adjwgt.get(j).map_or(1, |&w| w.into()))));
        let len = merge_row(&mut row);
        xadj[i] = out;
        for &(t, w) in &row[..len] {
            if w != 1 && adjwgt.is_empty() {
                adjwgt = vec![1; adjncy.len()];
            }
            adjncy[out] = t;
            if let Some(slot) = adjwgt.get_mut(out) {
                *slot = u32::try_from(w).expect("a merged weight is bounded by the stream's total");
            }
            out += 1;
        }
    }
    xadj[rows] = out;
    adjncy.truncate(out);
    adjwgt.truncate(out);
    CsrRows::new(xadj, adjncy, adjwgt)
}

/// The one row rule: sorts `row` by target and sums the weights of equal
/// targets into the merged row at the front of the slice, whose length it
/// returns. Sums commute, so equal targets may arrive in any order.
pub fn merge_row(row: &mut [(NodeId, EdgeWeight)]) -> usize {
    row.sort_unstable_by_key(|&(t, _)| t);
    let mut kept = 0;
    for i in 0..row.len() {
        if kept > 0 && row[kept - 1].0 == row[i].0 {
            row[kept - 1].1 += row[i].1;
        } else {
            row[kept] = row[i];
            kept += 1;
        }
    }
    kept
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
