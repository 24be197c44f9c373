//! Compressed sparse row (adjacency array / forward-star) graph representation.
//!
//! This is the "static" half of the hybrid data structure described in §5.2 of
//! the paper: an edge array storing target nodes and edge weights plus a node
//! array storing node weights and the start of the relevant segment of the edge
//! array. Every undirected edge `{u, v}` is stored twice, once in the adjacency
//! list of `u` and once in that of `v`, with identical weight.
//!
//! **32-bit storage, 64-bit arithmetic.** Edge and node weights are stored
//! as `u32` (as in KaHIP and 32-bit METIS) and widen on every read: rows
//! yield [`EdgeWeight`]s, node weights are [`NodeWeight`]s, and every sum,
//! gain, cut, block weight and `L_max` is computed in those 64-bit types.
//!
//! **The totals rule.** A graph's total edge weight `ω(E)` and total node
//! weight `c(V)` must each be at most [`MAX_TOTAL_WEIGHT`] (`u32::MAX`).
//! Every coarse weight is a sum of input weights, bounded by the input's
//! total, so once the input obeys the rule contraction, extraction and
//! the distributed shards cannot overflow the store. Constructors check it:
//! [`CsrGraph::from_parts`], [`CsrRows::finish`] and
//! [`GraphBuilder::build`](crate::GraphBuilder::build) panic on an
//! over-total input, [`CsrGraph::try_from_parts`] and
//! [`CsrRows::try_finish`] return a [`WeightOverflow`] for data from an
//! untrusted source.
//!
//! Weights are implicit when all 1: every constructor drops an all-ones edge
//! or node weight array (one canonical form), and rows then read one shared
//! run of ones. Only the raw [`CsrGraph::adjwgt`] / [`CsrGraph::vwgt`] hand
//! out `u64` arrays; they materialize the ones or a widened copy on first
//! call.
//!
//! The mutating half is [`DynamicGraph`](crate::DynamicGraph): the same sorted
//! rows, one growable row per node, folded back into this form by
//! [`to_csr`](crate::DynamicGraph::to_csr). Generic code reads either through
//! [`GraphAccess`](crate::GraphAccess).

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::types::{EdgeWeight, NodeId, NodeWeight};

/// The largest total edge weight `ω(E)` and total node weight `c(V)` a
/// graph may have: every stored weight is at most its total, so each fits
/// in 32 bits (see the module docs).
pub const MAX_TOTAL_WEIGHT: u64 = u32::MAX as u64;

/// A weight total that breaks the totals rule: the weights do not fit the
/// 32-bit store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightOverflow {
    /// The total edge weight `ω(E)` (or a single edge weight) exceeds
    /// [`MAX_TOTAL_WEIGHT`].
    Edges,
    /// The total node weight `c(V)` (or a single node weight) exceeds
    /// [`MAX_TOTAL_WEIGHT`].
    Nodes,
}

impl fmt::Display for WeightOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self {
            WeightOverflow::Edges => "edge",
            WeightOverflow::Nodes => "node",
        };
        write!(
            f,
            "total {what} weight exceeds {MAX_TOTAL_WEIGHT} (u32::MAX)"
        )
    }
}

impl std::error::Error for WeightOverflow {}

/// Narrows a weight array whose total must obey the totals rule.
fn narrow_all(weights: Vec<u64>, overflow: WeightOverflow) -> Result<Vec<u32>, WeightOverflow> {
    weights
        .into_iter()
        .map(|w| u32::try_from(w).map_err(|_| overflow))
        .collect()
}

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
    adjwgt: Vec<u32>,
    /// Node weights `c(v)`. Length `n`, or empty when every weight is 1.
    vwgt: Vec<u32>,
    /// Optional planar coordinates, one per node.
    coords: Option<Vec<[f64; 2]>>,
    /// Cached total node weight `c(V)`.
    total_node_weight: NodeWeight,
    /// Without `adjwgt`: `max_degree` ones, the weight slice of every row.
    unit_run: Vec<u32>,
    /// The ones the raw accessors hand out for an implicit array, filled on
    /// first call.
    ones: OnceLock<Vec<u64>>,
    /// The widened copies the raw accessors hand out for a stored array,
    /// filled on first call.
    wide_adjwgt: OnceLock<Vec<u64>>,
    wide_vwgt: OnceLock<Vec<u64>>,
}

/// Equal arrays; the runs of ones and the widened copies are derived, so
/// never compared.
impl PartialEq for CsrGraph {
    fn eq(&self, other: &CsrGraph) -> bool {
        fn arrays(g: &CsrGraph) -> impl PartialEq + '_ {
            (&g.xadj, &g.adjncy, &g.adjwgt, &g.vwgt, &g.coords)
        }
        arrays(self) == arrays(other)
    }
}

/// How many `u64` weight arrays (ones of an implicit array, or a widened
/// copy of a stored one) the raw accessors have materialized in this
/// process.
pub static WEIGHTS_MATERIALIZED: AtomicUsize = AtomicUsize::new(0);

impl CsrGraph {
    /// Assembles a graph from raw CSR arrays. An empty or all-ones `adjwgt`
    /// (`vwgt`) means every edge (node) weighs 1 and is not stored.
    ///
    /// # Panics
    /// Panics if the arrays are structurally inconsistent (lengths, monotone
    /// `xadj`, out-of-range targets), or if the weights break the totals
    /// rule: a total edge or node weight above [`MAX_TOTAL_WEIGHT`] (see
    /// [`CsrGraph::try_from_parts`] for the fallible form). Symmetry is
    /// *not* checked here because it is O(m log m); use
    /// [`CsrGraph::validate`] in tests.
    pub fn from_parts(
        xadj: Vec<usize>,
        adjncy: Vec<NodeId>,
        adjwgt: Vec<EdgeWeight>,
        vwgt: Vec<NodeWeight>,
        coords: Option<Vec<[f64; 2]>>,
    ) -> Self {
        CsrGraph::try_from_parts(xadj, adjncy, adjwgt, vwgt, coords)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`CsrGraph::from_parts`] for weights from an untrusted source: a
    /// weight total above [`MAX_TOTAL_WEIGHT`] is a [`WeightOverflow`], not
    /// a panic.
    ///
    /// # Panics
    /// On structurally inconsistent arrays, as [`CsrGraph::from_parts`].
    pub fn try_from_parts(
        xadj: Vec<usize>,
        adjncy: Vec<NodeId>,
        adjwgt: Vec<EdgeWeight>,
        vwgt: Vec<NodeWeight>,
        coords: Option<Vec<[f64; 2]>>,
    ) -> Result<Self, WeightOverflow> {
        let adjwgt = narrow_all(adjwgt, WeightOverflow::Edges)?;
        let vwgt = narrow_all(vwgt, WeightOverflow::Nodes)?;
        CsrGraph::from_stored(xadj, adjncy, adjwgt, vwgt, coords)
    }

    /// The one constructor over the stored (32-bit) arrays: checks the
    /// structure (panics) and the totals rule (errs), and drops all-ones
    /// weight arrays.
    fn from_stored(
        xadj: Vec<usize>,
        adjncy: Vec<NodeId>,
        mut adjwgt: Vec<u32>,
        mut vwgt: Vec<u32>,
        coords: Option<Vec<[f64; 2]>>,
    ) -> Result<Self, WeightOverflow> {
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
        let total = |weights: &[u32], units: usize| match weights.is_empty() {
            true => units as u64,
            false => weights.iter().map(|&w| u64::from(w)).sum(),
        };
        let total_node_weight = total(&vwgt, n);
        if total_node_weight > MAX_TOTAL_WEIGHT {
            return Err(WeightOverflow::Nodes);
        }
        if total(&adjwgt, adjncy.len()) / 2 > MAX_TOTAL_WEIGHT {
            return Err(WeightOverflow::Edges);
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
            total_node_weight,
            unit_run: Vec::new(),
            ones: OnceLock::new(),
            wide_adjwgt: OnceLock::new(),
            wide_vwgt: OnceLock::new(),
        };
        if g.adjwgt.is_empty() {
            g.unit_run = vec![1; g.max_degree()];
        }
        Ok(g)
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
        CsrRows::new(xadj, Vec::with_capacity(half_edges), Vec::new())
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
        self.vwgt
            .get(v as usize)
            .map_or(1, |&w| NodeWeight::from(w))
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

    /// The stored weights of the half-edges incident to `v`, parallel to
    /// [`CsrGraph::neighbors`].
    #[inline]
    fn row_weights(&self, v: NodeId) -> &[u32] {
        let range = self.xadj[v as usize]..self.xadj[v as usize + 1];
        let unit = || &self.unit_run[..range.len()];
        self.adjwgt.get(range.clone()).unwrap_or_else(unit)
    }

    /// Iterate over `(neighbor, edge_weight)` pairs of `v`.
    #[inline]
    pub fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        let weights = self.row_weights(v).iter().map(|&w| EdgeWeight::from(w));
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
        self.row_weights(v)
            .iter()
            .map(|&w| EdgeWeight::from(w))
            .sum()
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
        self.vwgt
            .iter()
            .max()
            .map_or(unit, |&w| NodeWeight::from(w))
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

    /// Raw `adjwgt` array, widened to `u64`: materializes `2m` ones on a
    /// unit-weight graph, else a widened copy of the stored array.
    pub fn adjwgt(&self) -> &[EdgeWeight] {
        self.raw(&self.adjwgt, &self.wide_adjwgt, self.adjncy.len())
    }

    /// Raw node-weight array, widened to `u64`: materializes `n` ones on a
    /// unit-weight graph, else a widened copy of the stored array.
    pub fn vwgt(&self) -> &[NodeWeight] {
        self.raw(&self.vwgt, &self.wide_vwgt, self.num_nodes())
    }

    fn raw<'a>(&'a self, stored: &[u32], wide: &'a OnceLock<Vec<u64>>, len: usize) -> &'a [u64] {
        let count = || WEIGHTS_MATERIALIZED.fetch_add(1, Ordering::Relaxed);
        if !stored.is_empty() {
            return wide.get_or_init(|| {
                count();
                stored.iter().map(|&w| u64::from(w)).collect()
            });
        }
        &self.ones.get_or_init(|| {
            count();
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
/// stored (in 32 bits) from the first entry that does not weigh 1 on; until
/// then `adjwgt` is empty.
pub struct CsrRows {
    pub(crate) xadj: Vec<usize>,
    pub(crate) adjncy: Vec<NodeId>,
    pub(crate) adjwgt: Vec<u32>,
    /// Whether a pushed weight did not fit in 32 bits: sealing then fails
    /// with [`WeightOverflow::Edges`].
    wide: bool,
}

impl CsrRows {
    pub(crate) fn new(xadj: Vec<usize>, adjncy: Vec<NodeId>, adjwgt: Vec<u32>) -> CsrRows {
        CsrRows {
            xadj,
            adjncy,
            adjwgt,
            wide: false,
        }
    }

    /// The `i`-th pushed row as `(target, weight)` pairs.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        (self.xadj[i]..self.xadj[i + 1]).map(|j| (self.adjncy[j], self.weight(j)))
    }

    /// The weight of entry `j`.
    pub(crate) fn weight(&self, j: usize) -> EdgeWeight {
        self.adjwgt.get(j).map_or(1, |&w| EdgeWeight::from(w))
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
        self.wide |= other.wide;
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

    /// Appends the next node's `(target, weight)` row. A weight that does
    /// not fit in 32 bits breaks the totals rule: it is remembered, and
    /// [`CsrRows::finish`] panics ([`CsrRows::try_finish`] errs).
    pub fn push_node(&mut self, row: impl IntoIterator<Item = (NodeId, EdgeWeight)>) {
        for (t, w) in row {
            let w = u32::try_from(w).unwrap_or_else(|_| {
                self.wide = true;
                u32::MAX
            });
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
    /// As [`CsrGraph::from_parts`]: on a length mismatch, a target that is
    /// not a pushed node, or weights that break the totals rule (a total
    /// edge or node weight above [`MAX_TOTAL_WEIGHT`]).
    pub fn finish(self, vwgt: Vec<NodeWeight>, coords: Option<Vec<[f64; 2]>>) -> CsrGraph {
        self.try_finish(vwgt, coords)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`CsrRows::finish`] for rows or weights from an untrusted source:
    /// weights that break the totals rule are a [`WeightOverflow`], not a
    /// panic.
    ///
    /// # Panics
    /// On a length mismatch or a target that is not a pushed node.
    pub fn try_finish(
        self,
        vwgt: Vec<NodeWeight>,
        coords: Option<Vec<[f64; 2]>>,
    ) -> Result<CsrGraph, WeightOverflow> {
        if self.wide {
            return Err(WeightOverflow::Edges);
        }
        let vwgt = narrow_all(vwgt, WeightOverflow::Nodes)?;
        CsrGraph::from_stored(self.xadj, self.adjncy, self.adjwgt, vwgt, coords)
    }

    /// [`CsrRows::finish`] over node weights already in their 32-bit store.
    pub(crate) fn finish_stored(self, vwgt: Vec<u32>, coords: Option<Vec<[f64; 2]>>) -> CsrGraph {
        assert!(!self.wide, "{}", WeightOverflow::Edges);
        CsrGraph::from_stored(self.xadj, self.adjncy, self.adjwgt, vwgt, coords)
            .unwrap_or_else(|e| panic!("{e}"))
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
    fn weights_are_stored_narrow_and_read_wide() {
        let max = MAX_TOTAL_WEIGHT;
        // Both totals exactly u32::MAX: the widest graph the store holds.
        let g = CsrGraph::from_parts(
            vec![0, 1, 2],
            vec![1, 0],
            vec![max, max],
            vec![max - 1, 1],
            None,
        );
        assert_eq!(g.edges_of(0).collect::<Vec<_>>(), [(1, max)]);
        assert_eq!((g.weighted_degree(1), g.total_edge_weight()), (max, max));
        assert_eq!((g.max_node_weight(), g.total_node_weight()), (max - 1, max));
        let before = WEIGHTS_MATERIALIZED.load(Ordering::Relaxed);
        #[expect(clippy::disallowed_methods, reason = "checks the widened raw arrays")]
        let raw = (g.adjwgt().to_vec(), g.vwgt().to_vec());
        assert_eq!(raw, (vec![max, max], vec![max - 1, 1]));
        assert_eq!(WEIGHTS_MATERIALIZED.load(Ordering::Relaxed), before + 2);
    }

    #[test]
    fn totals_past_u32_max_are_refused_by_the_fallible_constructors() {
        let max = MAX_TOTAL_WEIGHT;
        let parts = |adjwgt: Vec<u64>, vwgt: Vec<u64>| {
            CsrGraph::try_from_parts(vec![0, 2, 3, 4], vec![1, 2, 0, 0], adjwgt, vwgt, None)
        };
        let unit = vec![1; 3];
        let over_edges = parts(
            vec![max / 2 + 1, max / 2 + 1, max / 2 + 1, max / 2 + 1],
            unit,
        );
        assert_eq!(over_edges.unwrap_err(), WeightOverflow::Edges);
        let wide_edge = parts(vec![max + 1, 1, max + 1, 1], Vec::new());
        assert_eq!(wide_edge.unwrap_err(), WeightOverflow::Edges);
        let over_nodes = parts(Vec::new(), vec![max / 2, max / 2, 2]);
        assert_eq!(over_nodes.unwrap_err(), WeightOverflow::Nodes);
        assert!(parts(vec![max / 2, 1, max / 2, 1], vec![max / 2, max / 2, 1]).is_ok());

        // Rows: one pushed weight past 32 bits, or a node total past it.
        let mut rows = CsrGraph::rows(2, 2);
        rows.push_node([(1, max + 1)]);
        rows.push_node([(0, max + 1)]);
        assert_eq!(
            rows.try_finish(Vec::new(), None).unwrap_err(),
            WeightOverflow::Edges
        );
        let mut rows = CsrGraph::rows(2, 2);
        rows.push_node([(1, 5)]);
        rows.push_node([(0, 5)]);
        let err = rows.try_finish(vec![max, 1], None).unwrap_err();
        assert_eq!(
            err.to_string(),
            "total node weight exceeds 4294967295 (u32::MAX)"
        );
    }

    #[test]
    #[should_panic(expected = "total edge weight exceeds 4294967295")]
    fn from_parts_panics_past_the_edge_total() {
        CsrGraph::from_parts(
            vec![0, 1, 2],
            vec![1, 0],
            vec![1 << 32; 2],
            Vec::new(),
            None,
        );
    }

    #[test]
    #[should_panic(expected = "total node weight exceeds 4294967295")]
    fn finish_panics_past_the_node_total() {
        let mut rows = CsrGraph::rows(2, 0);
        rows.push_node([]);
        rows.push_node([]);
        rows.finish(vec![1 << 31, 1 << 31], None);
    }

    #[test]
    #[should_panic(expected = "total edge weight exceeds 4294967295")]
    fn build_panics_past_the_edge_total() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1 << 31);
        b.add_edge(1, 2, 1 << 31);
        b.build();
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
