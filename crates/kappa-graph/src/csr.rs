//! Compressed sparse row (adjacency array / forward-star) graph representation.
//!
//! This is the "static" half of the hybrid data structure described in §5.2 of
//! the paper: an edge array storing target nodes and edge weights plus a node
//! array storing node weights and the start of the relevant segment of the edge
//! array. Every undirected edge `{u, v}` is stored twice, once in the adjacency
//! list of `u` and once in that of `v`, with identical weight.
//!
//! Weights are implicit when all 1: every constructor drops an all-ones edge
//! or node weight array (one canonical form), rows then read one shared run
//! of ones, and only the raw [`CsrGraph::adjwgt`] / [`CsrGraph::vwgt`]
//! materialize the ones, on first call.
//!
//! The mutating half is [`DynamicGraph`](crate::DynamicGraph): the same sorted
//! rows, one growable row per node, folded back into this form by
//! [`to_csr`](crate::DynamicGraph::to_csr). Generic code reads either through
//! [`GraphAccess`](crate::GraphAccess).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::types::{EdgeWeight, NodeId, NodeWeight};

/// A weighted undirected graph in CSR form, optionally carrying 2-D coordinates
/// (used by the geometric pre-partitioning of §3.3).
#[derive(Clone, Debug)]
pub struct CsrGraph {
    /// `xadj[v]..xadj[v+1]` is the range of `v`'s incident half-edges. Length `n + 1`.
    xadj: Vec<usize>,
    /// Target node of every half-edge. Length `2m`.
    adjncy: Vec<NodeId>,
    /// Weight of every half-edge (the two copies of an undirected edge carry the
    /// same weight). Length `2m`, or empty when every weight is 1.
    adjwgt: Vec<EdgeWeight>,
    /// Node weights `c(v)`. Length `n`, or empty when every weight is 1.
    vwgt: Vec<NodeWeight>,
    /// Optional planar coordinates, one per node.
    coords: Option<Vec<[f64; 2]>>,
    /// Cached total node weight `c(V)`.
    total_node_weight: NodeWeight,
    /// Without `adjwgt`: `max_degree` ones, the weight slice of every row.
    unit_run: Vec<EdgeWeight>,
    /// The ones the raw accessors hand out, filled on first call.
    ones: OnceLock<Vec<u64>>,
}

/// Equal arrays; the two runs of ones are derived, so never compared.
impl PartialEq for CsrGraph {
    fn eq(&self, other: &CsrGraph) -> bool {
        fn arrays(g: &CsrGraph) -> impl PartialEq + '_ {
            (&g.xadj, &g.adjncy, &g.adjwgt, &g.vwgt, &g.coords)
        }
        arrays(self) == arrays(other)
    }
}

/// How many implicit weight arrays this process has materialized.
pub static ONES_MATERIALIZED: AtomicUsize = AtomicUsize::new(0);

impl CsrGraph {
    /// Assembles a graph from raw CSR arrays. An empty or all-ones `adjwgt`
    /// (`vwgt`) means every edge (node) weighs 1 and is not stored.
    ///
    /// # Panics
    /// Panics if the arrays are structurally inconsistent (lengths, monotone
    /// `xadj`, out-of-range targets). Symmetry is *not* checked here because it
    /// is O(m log m); use [`CsrGraph::validate`] in tests.
    pub fn from_parts(
        xadj: Vec<usize>,
        adjncy: Vec<NodeId>,
        mut adjwgt: Vec<EdgeWeight>,
        mut vwgt: Vec<NodeWeight>,
        coords: Option<Vec<[f64; 2]>>,
    ) -> Self {
        let n = xadj.len().checked_sub(1).expect("xadj must not be empty");
        assert!(
            vwgt.is_empty() || vwgt.len() == n,
            "xadj must have n + 1 entries"
        );
        assert_eq!(xadj[0], 0, "xadj[0] must be 0");
        assert_eq!(
            *xadj.last().unwrap_or(&0),
            adjncy.len(),
            "xadj[n] must equal the number of half-edges"
        );
        assert!(
            adjwgt.is_empty() || adjwgt.len() == adjncy.len(),
            "adjncy/adjwgt length mismatch"
        );
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
        for weights in [&mut adjwgt, &mut vwgt] {
            if weights.iter().all(|&w| w == 1) {
                *weights = Vec::new();
            }
        }
        let mut g = CsrGraph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
            coords,
            total_node_weight: 0,
            unit_run: Vec::new(),
            ones: OnceLock::new(),
        };
        g.total_node_weight = g.nodes().map(|v| g.node_weight(v)).sum();
        if g.adjwgt.is_empty() {
            g.unit_run = vec![1; g.max_degree()];
        }
        g
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
            adjwgt: Vec::new(),
        }
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.xadj.len() - 1
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
        *self.vwgt.get(v as usize).unwrap_or(&1)
    }

    /// Total node weight `c(V)`.
    #[inline]
    pub fn total_node_weight(&self) -> NodeWeight {
        self.total_node_weight
    }

    /// Total edge weight `ω(E)` (each undirected edge counted once).
    pub fn total_edge_weight(&self) -> EdgeWeight {
        self.undirected_edges().map(|(_, _, w)| w).sum()
    }

    /// True when every edge weighs 1 (no edge weight array is stored).
    pub fn has_unit_edge_weights(&self) -> bool {
        self.adjwgt.is_empty()
    }

    /// True when every node weighs 1 (no node weight array is stored).
    pub fn has_unit_node_weights(&self) -> bool {
        self.vwgt.is_empty()
    }

    /// The neighbours of `v` as a slice of node ids.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adjncy[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// The weights of the half-edges incident to `v`, parallel to [`CsrGraph::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, v: NodeId) -> &[EdgeWeight] {
        let range = self.xadj[v as usize]..self.xadj[v as usize + 1];
        let unit = || &self.unit_run[..range.len()];
        self.adjwgt.get(range.clone()).unwrap_or_else(unit)
    }

    /// Iterate over `(neighbor, edge_weight)` pairs of `v`.
    #[inline]
    pub fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        let weights = self.neighbor_weights(v).iter().copied();
        self.neighbors(v).iter().copied().zip(weights)
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
        let unit = NodeWeight::from(self.num_nodes() > 0);
        self.vwgt.iter().copied().max().unwrap_or(unit)
    }

    /// Maximum degree of any node (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.xadj.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
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

    /// Raw `adjwgt` array (materializes `2m` ones on a unit-weight graph).
    pub fn adjwgt(&self) -> &[EdgeWeight] {
        self.raw(&self.adjwgt, self.adjncy.len())
    }

    /// Raw node-weight array (materializes `n` ones on a unit-weight graph).
    pub fn vwgt(&self) -> &[NodeWeight] {
        self.raw(&self.vwgt, self.num_nodes())
    }

    fn raw<'a>(&'a self, weights: &'a [u64], len: usize) -> &'a [u64] {
        if !weights.is_empty() {
            return weights;
        }
        &self.ones.get_or_init(|| {
            ONES_MATERIALIZED.fetch_add(1, Ordering::Relaxed);
            vec![1; self.adjncy.len().max(self.num_nodes())]
        })[..len]
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
        Ok(())
    }

    /// True if the graph is connected. The empty graph counts as connected.
    pub fn is_connected(&self) -> bool {
        self.num_components() <= 1
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
/// merged by the one row rule [`merge_row`](crate::merge_row), in their
/// final order, targets already in the graph's id space. Weights are
/// stored from the first entry that does not weigh 1 on; until then
/// `adjwgt` is empty.
pub struct CsrRows {
    pub(crate) xadj: Vec<usize>,
    pub(crate) adjncy: Vec<NodeId>,
    pub(crate) adjwgt: Vec<EdgeWeight>,
}

impl CsrRows {
    /// The `i`-th pushed row as `(target, weight)` pairs.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        (self.xadj[i]..self.xadj[i + 1]).map(|j| (self.adjncy[j], self.weight(j)))
    }

    /// The weight of entry `j`.
    pub(crate) fn weight(&self, j: usize) -> EdgeWeight {
        self.adjwgt.get(j).copied().unwrap_or(1)
    }

    /// Stores the implicit unit weights of the entries pushed so far.
    fn store_weights(&mut self) {
        let spare = self.adjncy.capacity() - self.adjwgt.len();
        self.adjwgt.reserve_exact(spare);
        self.adjwgt.resize(self.adjncy.len(), 1);
    }

    /// Number of pushed rows.
    pub fn num_rows(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of entries over all pushed rows.
    pub fn num_half_edges(&self) -> usize {
        self.adjncy.len()
    }

    /// Appends every row of `other` after the rows pushed so far.
    pub fn append(&mut self, other: CsrRows) {
        let offset = self.adjncy.len();
        if !(self.adjwgt.is_empty() && other.adjwgt.is_empty()) {
            self.store_weights();
            match other.adjwgt.is_empty() {
                true => self.adjwgt.resize(offset + other.adjncy.len(), 1),
                false => self.adjwgt.extend(other.adjwgt),
            }
        }
        self.xadj
            .extend(other.xadj[1..].iter().map(|&e| offset + e));
        self.adjncy.extend(other.adjncy);
    }

    /// Makes room for exactly `rows` more rows holding `half_edges` more
    /// entries, so that [`CsrRows::append`]ing them copies each entry once.
    pub fn reserve_exact(&mut self, rows: usize, half_edges: usize) {
        self.xadj.reserve_exact(rows);
        self.adjncy.reserve_exact(half_edges);
        if !self.adjwgt.is_empty() {
            self.adjwgt.reserve_exact(half_edges);
        }
    }

    /// Appends the next node's `(target, weight)` row.
    pub fn push_node(&mut self, row: impl IntoIterator<Item = (NodeId, EdgeWeight)>) {
        for (t, w) in row {
            if !self.adjwgt.is_empty() {
                self.adjwgt.push(w);
            } else if w != 1 {
                self.store_weights();
                self.adjwgt.push(w);
            }
            self.adjncy.push(t);
        }
        self.xadj.push(self.adjncy.len());
    }

    /// Rewrites every pushed target in place: entry `(t, w)` of row `i`
    /// becomes `(f(i, t, w), w)`, visited in row order. Rows keep their
    /// lengths, weights and entry order — a renumbering into another id
    /// space without a copy.
    pub fn remap_targets(&mut self, mut f: impl FnMut(usize, NodeId, EdgeWeight) -> NodeId) {
        for (i, ends) in self.xadj.windows(2).enumerate() {
            for j in ends[0]..ends[1] {
                self.adjncy[j] = f(i, self.adjncy[j], self.weight(j));
            }
        }
    }

    /// Releases the edge-array capacity beyond the pushed entries: rows
    /// pushed without a size hint leave up to half of each array as growth
    /// slack, which a graph that lives on should not keep.
    pub fn shrink_to_fit(&mut self) {
        self.adjncy.shrink_to_fit();
        self.adjwgt.shrink_to_fit();
    }

    /// Seals the graph with one weight (and optionally one coordinate) per
    /// pushed node; an empty `vwgt` means every node weighs 1.
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
    fn append_matches_pushing_every_row_into_one() {
        let g = path_graph(7);
        let mut one = CsrGraph::rows(0, 0);
        let mut joined = CsrGraph::rows(0, 0);
        // An empty fragment in the middle must not disturb the offsets.
        for range in [0..3u32, 3..3, 3..7] {
            let mut fragment = CsrGraph::rows(0, 0);
            for v in range {
                one.push_node(g.edges_of(v));
                fragment.push_node(g.edges_of(v));
            }
            joined.append(fragment);
        }
        assert_eq!(joined.num_rows(), 7);
        assert_eq!(joined.num_half_edges(), g.num_half_edges());
        let joined = joined.finish(Vec::new(), None);
        assert_eq!(joined, one.finish(Vec::new(), None));
        assert_eq!(joined, g);
    }

    #[test]
    fn remap_targets_renumbers_in_place_and_keeps_rows() {
        // The path 0 - 1 - 2 - 3 reversed: node v becomes 3 - v.
        let g = path_graph(4);
        let mut rows = CsrGraph::rows(4, g.num_half_edges());
        for v in 0..4 {
            rows.push_node(g.edges_of(v));
        }
        let mut seen = Vec::new();
        rows.remap_targets(|i, t, w| {
            seen.push((i, t, w));
            3 - t
        });
        assert_eq!(
            seen,
            [
                (0, 1, 1),
                (1, 0, 1),
                (1, 2, 1),
                (2, 1, 1),
                (2, 3, 1),
                (3, 2, 1)
            ]
        );
        let remapped: Vec<Vec<_>> = (0..4).map(|i| rows.row(i).collect()).collect();
        assert_eq!(
            remapped,
            [
                vec![(2, 1)],
                vec![(3, 1), (1, 1)],
                vec![(2, 1), (0, 1)],
                vec![(1, 1)]
            ]
        );
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
