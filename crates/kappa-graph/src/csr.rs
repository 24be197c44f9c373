//! Compressed sparse row (adjacency array / forward-star) graph representation.
//!
//! This is the "static" half of the hybrid data structure described in §5.2 of
//! the paper: an edge array storing target nodes and edge weights plus a node
//! array storing node weights and the start of the relevant segment of the edge
//! array. Every undirected edge `{u, v}` is stored twice, once in the adjacency
//! list of `u` and once in that of `v`, with identical weight.

use crate::types::{EdgeWeight, NodeId, NodeWeight};

/// Read access to the incidence structure of a weighted undirected graph.
///
/// [`CsrGraph`] is the canonical (frozen) implementor; the streaming
/// [`DynamicGraph`](crate::dynamic::DynamicGraph) implements it over its
/// base-CSR-plus-overlay view. Incremental maintenance code that only needs
/// "the current neighbours of one node" —
/// [`BoundaryIndex::apply_move`](crate::BoundaryIndex::apply_move) and
/// [`PartitionState::apply_move`](crate::PartitionState::apply_move) — is
/// generic over this trait, so a node move stays exact whether the graph is
/// frozen or mid-mutation-stream.
pub trait Adjacency {
    /// Degree of node `v` (number of incident undirected edges).
    fn degree_of(&self, v: NodeId) -> usize;

    /// Node weight `c(v)`.
    fn node_weight_of(&self, v: NodeId) -> NodeWeight;

    /// Calls `f(u, w)` once for every edge `{v, u}` of weight `w`.
    fn for_each_edge<F: FnMut(NodeId, EdgeWeight)>(&self, v: NodeId, f: F);
}

impl Adjacency for CsrGraph {
    #[inline]
    fn degree_of(&self, v: NodeId) -> usize {
        self.degree(v)
    }

    #[inline]
    fn node_weight_of(&self, v: NodeId) -> NodeWeight {
        self.node_weight(v)
    }

    #[inline]
    fn for_each_edge<F: FnMut(NodeId, EdgeWeight)>(&self, v: NodeId, mut f: F) {
        for (u, w) in self.edges_of(v) {
            f(u, w);
        }
    }
}

/// A weighted undirected graph in CSR form, optionally carrying 2-D coordinates
/// (used by the geometric pre-partitioning of §3.3).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CsrGraph {
    /// `xadj[v]..xadj[v+1]` is the range of `v`'s incident half-edges. Length `n + 1`.
    xadj: Vec<usize>,
    /// Target node of every half-edge. Length `2m`.
    adjncy: Vec<NodeId>,
    /// Weight of every half-edge (the two copies of an undirected edge carry the
    /// same weight). Length `2m`.
    adjwgt: Vec<EdgeWeight>,
    /// Node weights `c(v)`. Length `n`.
    vwgt: Vec<NodeWeight>,
    /// Optional planar coordinates, one per node.
    coords: Option<Vec<[f64; 2]>>,
    /// Cached total node weight `c(V)`.
    total_node_weight: NodeWeight,
}

impl CsrGraph {
    /// Assembles a graph from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are structurally inconsistent (lengths, monotone
    /// `xadj`, out-of-range targets). Symmetry is *not* checked here because it
    /// is O(m log m); use [`CsrGraph::validate`] in tests.
    pub fn from_parts(
        xadj: Vec<usize>,
        adjncy: Vec<NodeId>,
        adjwgt: Vec<EdgeWeight>,
        vwgt: Vec<NodeWeight>,
        coords: Option<Vec<[f64; 2]>>,
    ) -> Self {
        let n = vwgt.len();
        assert_eq!(xadj.len(), n + 1, "xadj must have n + 1 entries");
        assert_eq!(*xadj.first().unwrap_or(&0), 0, "xadj[0] must be 0");
        assert_eq!(
            *xadj.last().unwrap_or(&0),
            adjncy.len(),
            "xadj[n] must equal the number of half-edges"
        );
        assert_eq!(adjncy.len(), adjwgt.len(), "adjncy/adjwgt length mismatch");
        assert!(
            xadj.windows(2).all(|w| w[0] <= w[1]),
            "xadj must be non-decreasing"
        );
        assert!(
            adjncy.iter().all(|&t| (t as usize) < n),
            "edge target out of range"
        );
        if let Some(c) = &coords {
            assert_eq!(c.len(), n, "coordinate array length mismatch");
        }
        let total_node_weight = vwgt.iter().sum();
        CsrGraph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
            coords,
            total_node_weight,
        }
    }

    /// The empty graph (no nodes, no edges).
    pub fn empty() -> Self {
        CsrGraph::from_parts(vec![0], Vec::new(), Vec::new(), Vec::new(), None)
    }

    /// A row-push constructor expecting roughly `nodes` rows holding
    /// `half_edges` entries in total: [`CsrRows::push_node`] every node's
    /// row in ascending id order, then [`CsrRows::finish`].
    pub fn rows(nodes: usize, half_edges: usize) -> CsrRows {
        let mut xadj = Vec::with_capacity(nodes + 1);
        xadj.push(0);
        CsrRows {
            xadj,
            adjncy: Vec::with_capacity(half_edges),
            adjwgt: Vec::with_capacity(half_edges),
        }
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Number of stored half-edges (`2m`).
    #[inline]
    pub fn num_half_edges(&self) -> usize {
        self.adjncy.len()
    }

    /// Degree of node `v` (number of incident undirected edges; the graph never
    /// stores self loops or parallel edges).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }

    /// Node weight `c(v)`.
    #[inline]
    pub fn node_weight(&self, v: NodeId) -> NodeWeight {
        self.vwgt[v as usize]
    }

    /// Total node weight `c(V)`.
    #[inline]
    pub fn total_node_weight(&self) -> NodeWeight {
        self.total_node_weight
    }

    /// Total edge weight `ω(E)` (each undirected edge counted once).
    pub fn total_edge_weight(&self) -> EdgeWeight {
        self.adjwgt.iter().sum::<EdgeWeight>() / 2
    }

    /// The neighbours of `v` as a slice of node ids.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adjncy[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// The weights of the half-edges incident to `v`, parallel to [`CsrGraph::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, v: NodeId) -> &[EdgeWeight] {
        &self.adjwgt[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Iterate over `(neighbor, edge_weight)` pairs of `v`.
    #[inline]
    pub fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        let range = self.xadj[v as usize]..self.xadj[v as usize + 1];
        self.adjncy[range.clone()]
            .iter()
            .copied()
            .zip(self.adjwgt[range].iter().copied())
    }

    /// Iterate over all node ids `0..n`.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + 'static {
        0..self.num_nodes() as NodeId
    }

    /// Iterate over every undirected edge exactly once as `(u, v, w)` with `u < v`.
    pub fn undirected_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeWeight)> + '_ {
        self.nodes().flat_map(move |u| {
            self.edges_of(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| (u, v, w))
        })
    }

    /// Weighted degree `Out(v) = Σ_{x ∈ Γ(v)} ω({v, x})`, as used by the
    /// `innerOuter` edge rating.
    pub fn weighted_degree(&self, v: NodeId) -> EdgeWeight {
        self.neighbor_weights(v).iter().sum()
    }

    /// Returns the weight of edge `{u, v}` if it exists (linear scan of the
    /// smaller adjacency list).
    pub fn edge_weight_between(&self, u: NodeId, v: NodeId) -> Option<EdgeWeight> {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.edges_of(a).find(|&(t, _)| t == b).map(|(_, w)| w)
    }

    /// Maximum node weight `max_v c(v)` (0 for the empty graph). Needed for the
    /// balance bound `L_max` of §2.
    pub fn max_node_weight(&self) -> NodeWeight {
        self.vwgt.iter().copied().max().unwrap_or(0)
    }

    /// Maximum degree of any node (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes() as NodeId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Planar coordinates, if the instance carries them.
    #[inline]
    pub fn coords(&self) -> Option<&[[f64; 2]]> {
        self.coords.as_deref()
    }

    /// Coordinate of a single node, if available.
    #[inline]
    pub fn coord(&self, v: NodeId) -> Option<[f64; 2]> {
        self.coords.as_ref().map(|c| c[v as usize])
    }

    /// Attach (or replace) coordinates.
    pub fn set_coords(&mut self, coords: Option<Vec<[f64; 2]>>) {
        if let Some(c) = &coords {
            assert_eq!(
                c.len(),
                self.num_nodes(),
                "coordinate array length mismatch"
            );
        }
        self.coords = coords;
    }

    /// Raw `xadj` array (for algorithms that want to index half-edges directly).
    #[inline]
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// Raw `adjncy` array.
    #[inline]
    pub fn adjncy(&self) -> &[NodeId] {
        &self.adjncy
    }

    /// Raw `adjwgt` array.
    #[inline]
    pub fn adjwgt(&self) -> &[EdgeWeight] {
        &self.adjwgt
    }

    /// Raw node-weight array.
    #[inline]
    pub fn vwgt(&self) -> &[NodeWeight] {
        &self.vwgt
    }

    /// Checks the full set of structural invariants: no self loops, no parallel
    /// edges, symmetry of adjacency and of edge weights, positive edge weights.
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes();
        for v in 0..n as NodeId {
            let mut seen = std::collections::HashSet::new();
            for (t, w) in self.edges_of(v) {
                if t == v {
                    return Err(format!("self loop at node {v}"));
                }
                if !seen.insert(t) {
                    return Err(format!("parallel edge {v} -> {t}"));
                }
                if w == 0 {
                    return Err(format!("zero-weight edge {v} -> {t}"));
                }
                match self.edge_weight_between(t, v) {
                    None => return Err(format!("asymmetric edge: {v} -> {t} has no reverse")),
                    Some(w2) if w2 != w => {
                        return Err(format!(
                            "asymmetric weight on edge {{{v}, {t}}}: {w} vs {w2}"
                        ))
                    }
                    _ => {}
                }
            }
        }
        let recomputed: NodeWeight = self.vwgt.iter().sum();
        if recomputed != self.total_node_weight {
            return Err("cached total node weight is stale".to_string());
        }
        Ok(())
    }

    /// True if the graph is connected (BFS from node 0). The empty graph counts
    /// as connected.
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[0] = true;
        queue.push_back(0 as NodeId);
        let mut count = 1usize;
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count == n
    }

    /// Number of connected components.
    pub fn num_components(&self) -> usize {
        let n = self.num_nodes();
        let mut seen = vec![false; n];
        let mut components = 0usize;
        let mut queue = std::collections::VecDeque::new();
        for s in 0..n {
            if seen[s] {
                continue;
            }
            components += 1;
            seen[s] = true;
            queue.push_back(s as NodeId);
            while let Some(u) = queue.pop_front() {
                for &v in self.neighbors(u) {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        queue.push_back(v);
                    }
                }
            }
        }
        components
    }
}

/// The arrays of a [`CsrGraph`] under construction, one finished row at a
/// time (see [`CsrGraph::rows`]). Rows arrive as the graph will hold them:
/// merged, in their final order, targets already in the graph's id space.
pub struct CsrRows {
    pub(crate) xadj: Vec<usize>,
    pub(crate) adjncy: Vec<NodeId>,
    pub(crate) adjwgt: Vec<EdgeWeight>,
}

impl CsrRows {
    /// The `i`-th pushed row as `(target, weight)` pairs.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        let range = self.xadj[i]..self.xadj[i + 1];
        self.adjncy[range.clone()]
            .iter()
            .copied()
            .zip(self.adjwgt[range].iter().copied())
    }

    /// Appends the next node's `(target, weight)` row.
    pub fn push_node(&mut self, row: impl IntoIterator<Item = (NodeId, EdgeWeight)>) {
        for (t, w) in row {
            self.adjncy.push(t);
            self.adjwgt.push(w);
        }
        self.xadj.push(self.adjncy.len());
    }

    /// Seals the graph with one weight (and optionally one coordinate) per
    /// pushed node.
    ///
    /// # Panics
    /// As [`CsrGraph::from_parts`]: on a length mismatch or a target that is
    /// not a pushed node.
    pub fn finish(self, vwgt: Vec<NodeWeight>, coords: Option<Vec<[f64; 2]>>) -> CsrGraph {
        CsrGraph::from_parts(self.xadj, self.adjncy, self.adjwgt, vwgt, coords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path_graph(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as NodeId, (i + 1) as NodeId, 1);
        }
        b.build()
    }

    #[test]
    fn empty_graph_is_consistent() {
        let g = CsrGraph::empty();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.total_node_weight(), 0);
        assert_eq!(g.max_node_weight(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.is_connected());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn path_graph_basic_accessors() {
        let g = path_graph(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_half_edges(), 8);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert_eq!(g.weighted_degree(2), 2);
        assert_eq!(g.total_edge_weight(), 4);
        assert_eq!(g.total_node_weight(), 5);
        assert!(g.validate().is_ok());
        assert!(g.is_connected());
        assert_eq!(g.num_components(), 1);
    }

    #[test]
    fn undirected_edges_enumerates_each_edge_once() {
        let g = path_graph(4);
        let edges: Vec<_> = g.undirected_edges().collect();
        assert_eq!(edges, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
    }

    #[test]
    fn edge_weight_between_finds_both_directions() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 7);
        b.add_edge(1, 2, 3);
        let g = b.build();
        assert_eq!(g.edge_weight_between(0, 1), Some(7));
        assert_eq!(g.edge_weight_between(1, 0), Some(7));
        assert_eq!(g.edge_weight_between(0, 2), None);
    }

    #[test]
    fn disconnected_graph_components() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(4, 5, 1);
        let g = b.build();
        assert!(!g.is_connected());
        assert_eq!(g.num_components(), 3);
    }

    #[test]
    fn coordinates_roundtrip() {
        let mut g = path_graph(3);
        assert!(g.coords().is_none());
        g.set_coords(Some(vec![[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]));
        assert_eq!(g.coord(1), Some([1.0, 0.0]));
        assert_eq!(g.coords().unwrap().len(), 3);
    }

    #[test]
    #[should_panic(expected = "coordinate array length mismatch")]
    fn wrong_coordinate_length_panics() {
        let mut g = path_graph(3);
        g.set_coords(Some(vec![[0.0, 0.0]]));
    }

    #[test]
    #[should_panic(expected = "xadj must have n + 1 entries")]
    fn from_parts_rejects_bad_xadj() {
        CsrGraph::from_parts(vec![0], Vec::new(), Vec::new(), vec![1, 1], None);
    }

    #[test]
    #[should_panic(expected = "edge target out of range")]
    fn from_parts_rejects_out_of_range_target() {
        CsrGraph::from_parts(vec![0, 1, 1], vec![5], vec![1], vec![1, 1], None);
    }
}
