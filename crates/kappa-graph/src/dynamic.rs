//! The live graph of the dynamic repartitioning service: a mutating graph
//! with stable node ids.
//!
//! [`DynamicGraph`] keeps one incidence row per node slot, sorted by target
//! and mirrored at both endpoints like a CSR's half-edges, in two flat arrays
//! laid out like a CSR's but with room for each row to grow. An edge insert,
//! delete or reweight shifts entries within its endpoints' rows in `O(deg)`;
//! a full row moves to the end of the arrays with twice the room (amortised
//! `O(1)` per insert; the slots it leaves are not reused), so refinement
//! walks rows as contiguous as a freshly built CSR's.
//!
//! Node ids are **stable**: deleting a node marks its slot dead — an empty
//! row of weight 0, exactly what [`to_csr`](DynamicGraph::to_csr) produces
//! for it — so a [`PartitionState`](crate::PartitionState) maintained through
//! any mutation stream compares *field-for-field* against a from-scratch
//! rebuild on the fold, with no id translation to hide a bug in.
//!
//! The graph implements [`GraphAccess`] and its rows are exactly the rows
//! `to_csr()` builds, so band BFS, FM, rebalancing and localized refinement
//! run on it in place and make the moves they would make on the fold.
//!
//! Weights are stored in 32 bits under the totals rule of [`crate::csr`]: a
//! mutation that would raise the total edge or node weight above
//! [`MAX_TOTAL_WEIGHT`] is refused with an `Err`, so the fold always seals.

use crate::access::GraphAccess;
use crate::csr::{CsrGraph, WeightOverflow, MAX_TOTAL_WEIGHT};
use crate::types::{EdgeWeight, NodeId, NodeWeight};

/// A mutating weighted graph with stable node ids.
///
/// ```
/// use kappa_graph::{graph_from_edges, DynamicGraph};
///
/// let mut g = DynamicGraph::new(graph_from_edges(3, vec![(0, 1, 1), (1, 2, 1)]));
/// g.insert_edge(0, 2, 5).unwrap();
/// g.delete_edge(1, 2).unwrap();
/// assert_eq!(g.edge_weight(0, 2), Some(5));
/// assert_eq!(g.edge_weight(1, 2), None);
///
/// let v = g.insert_node(2).unwrap(); // new node id 3, weight 2
/// assert_eq!(v, 3);
/// g.insert_edge(v, 0, 1).unwrap();
///
/// let frozen = g.to_csr(); // same ids, same rows
/// assert_eq!(frozen.num_nodes(), 4);
/// assert_eq!(frozen.edge_weight_between(0, 2), Some(5));
/// ```
#[derive(Clone, Debug, Default)]
pub struct DynamicGraph {
    /// Row `v` is `targets[start[v]..start[v] + len[v]]` with the parallel
    /// `weights`: `(u, w)` for every live edge `{v, u}` of weight `w`, sorted
    /// by `u`, inside `cap[v]` reserved slots.
    start: Vec<usize>,
    len: Vec<u32>,
    cap: Vec<u32>,
    targets: Vec<NodeId>,
    weights: Vec<u32>,
    // Per slot: node weight (0 once dead) and liveness; then the live node
    // count, half-edge count (`2m`), total node weight and total edge weight.
    vwgt: Vec<u32>,
    alive: Vec<bool>,
    live_nodes: usize,
    half_edges: usize,
    total_node_weight: NodeWeight,
    total_edge_weight: EdgeWeight,
}

impl DynamicGraph {
    /// Copies a frozen graph into live rows; every node starts live.
    pub fn new(graph: CsrGraph) -> Self {
        let half_edges = graph.num_half_edges();
        let mut g = DynamicGraph {
            targets: Vec::with_capacity(half_edges),
            weights: Vec::with_capacity(half_edges),
            half_edges,
            total_edge_weight: graph.total_edge_weight(),
            ..DynamicGraph::default()
        };
        let mut row = Vec::new();
        for v in graph.nodes() {
            row.clear();
            row.extend(graph.edges_of(v));
            row.sort_unstable_by_key(|&(u, _)| u);
            g.push_slot(graph.node_weight(v), &row);
        }
        g
    }

    /// Appends a live node slot of weight `weight` whose row is `row`; the
    /// weights obey the totals rule (they come from a sealed graph or were
    /// checked by the caller).
    fn push_slot(&mut self, weight: NodeWeight, row: &[(NodeId, EdgeWeight)]) -> NodeId {
        let stored = |w| u32::try_from(w).expect("weights within the totals rule fit the store");
        let v = self.vwgt.len() as NodeId;
        self.start.push(self.targets.len());
        self.len.push(row.len() as u32);
        self.cap.push(row.len() as u32);
        self.targets.extend(row.iter().map(|&(u, _)| u));
        self.weights.extend(row.iter().map(|&(_, w)| stored(w)));
        self.vwgt.push(stored(weight));
        self.alive.push(true);
        self.live_nodes += 1;
        self.total_node_weight += weight;
        v
    }

    /// Refuses a change of the total edge weight from `old` to `new` that
    /// breaks the totals rule.
    fn check_edge_total(&self, old: EdgeWeight, new: EdgeWeight) -> Result<(), String> {
        match (self.total_edge_weight - old).saturating_add(new) > MAX_TOTAL_WEIGHT {
            true => Err(WeightOverflow::Edges.to_string()),
            false => Ok(()),
        }
    }

    /// Number of node slots (live and dead — ids are stable, so this only
    /// grows).
    pub fn num_nodes(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of live nodes.
    pub fn num_live_nodes(&self) -> usize {
        self.live_nodes
    }

    /// True if the node slot `v` exists and is live.
    #[inline]
    pub fn is_alive(&self, v: NodeId) -> bool {
        (v as usize) < self.alive.len() && self.alive[v as usize]
    }

    fn check_endpoint(&self, v: NodeId) -> Result<(), String> {
        if (v as usize) >= self.alive.len() {
            Err(format!("node {v} out of range (n = {})", self.alive.len()))
        } else if !self.alive[v as usize] {
            Err(format!("node {v} is deleted"))
        } else {
            Ok(())
        }
    }

    /// Where `v`'s row lies in `targets` and `weights`.
    #[inline]
    fn range(&self, v: NodeId) -> std::ops::Range<usize> {
        let start = self.start[v as usize];
        start..start + self.len[v as usize] as usize
    }

    /// Where `v` sits (`Ok`) or would sit (`Err`) in `u`'s row.
    fn find(&self, u: NodeId, v: NodeId) -> Result<usize, usize> {
        self.targets[self.range(u)].binary_search(&v)
    }

    /// Positions of the live edge `{u, v}` in the rows of `u` and of `v`.
    fn positions(&self, u: NodeId, v: NodeId) -> Result<(usize, usize), String> {
        self.check_endpoint(u)?;
        self.check_endpoint(v)?;
        match (self.find(u, v), self.find(v, u)) {
            (Ok(i), Ok(j)) => Ok((i, j)),
            _ => Err(format!("edge {{{u}, {v}}} does not exist")),
        }
    }

    /// Inserts `(t, w)` at position `i` of `v`'s row, first moving a full
    /// row to the end of the arrays with twice the room.
    fn insert_at(&mut self, v: NodeId, i: usize, t: NodeId, w: u32) {
        let (vi, row) = (v as usize, self.range(v));
        if row.len() == self.cap[vi] as usize {
            let cap = (2 * row.len()).max(4);
            self.start[vi] = self.targets.len();
            self.cap[vi] = cap as u32;
            self.targets.extend_from_within(row.clone());
            self.weights.extend_from_within(row.clone());
            self.targets.resize(self.start[vi] + cap, 0);
            self.weights.resize(self.start[vi] + cap, 0);
        }
        let (at, end) = (self.start[vi] + i, self.start[vi] + row.len());
        self.targets.copy_within(at..end, at + 1);
        self.weights.copy_within(at..end, at + 1);
        self.targets[at] = t;
        self.weights[at] = w;
        self.len[vi] += 1;
    }

    /// Removes position `i` of `v`'s row and returns its weight.
    fn remove_at(&mut self, v: NodeId, i: usize) -> EdgeWeight {
        let row = self.range(v);
        let at = row.start + i;
        let w = self.weights[at];
        self.targets.copy_within(at + 1..row.end, at);
        self.weights.copy_within(at + 1..row.end, at);
        self.len[v as usize] -= 1;
        w.into()
    }

    /// Weight of the live edge `{u, v}`, if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<EdgeWeight> {
        if u as usize >= self.num_nodes() {
            return None;
        }
        let i = self.find(u, v).ok()?;
        Some(self.weights[self.start[u as usize] + i].into())
    }

    /// Inserts the edge `{u, v}` of weight `w`.
    ///
    /// Errors on self loops, zero weights, dead or out-of-range endpoints,
    /// edges that already exist (use [`update_edge`](Self::update_edge)
    /// to reweight) and a total edge weight that would exceed
    /// [`MAX_TOTAL_WEIGHT`].
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId, w: EdgeWeight) -> Result<(), String> {
        if u == v {
            return Err(format!("self loop on node {u}"));
        }
        if w == 0 {
            return Err("edge weights must be positive".to_string());
        }
        self.check_endpoint(u)?;
        self.check_endpoint(v)?;
        let (Err(i), Err(j)) = (self.find(u, v), self.find(v, u)) else {
            return Err(format!("edge {{{u}, {v}}} already exists"));
        };
        self.check_edge_total(0, w)?;
        let stored = u32::try_from(w).expect("checked against the total");
        self.insert_at(u, i, v, stored);
        self.insert_at(v, j, u, stored);
        self.half_edges += 2;
        self.total_edge_weight += w;
        Ok(())
    }

    /// Deletes the edge `{u, v}`, returning its weight. Errors when the edge
    /// does not exist.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeWeight, String> {
        let (i, j) = self.positions(u, v)?;
        let w = self.remove_at(u, i);
        self.remove_at(v, j);
        self.half_edges -= 2;
        self.total_edge_weight -= w;
        Ok(w)
    }

    /// Changes the weight of the existing edge `{u, v}` to `new_w`, returning
    /// the previous weight. Errors on a zero weight, an absent edge and a
    /// total edge weight that would exceed [`MAX_TOTAL_WEIGHT`].
    pub fn update_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        new_w: EdgeWeight,
    ) -> Result<EdgeWeight, String> {
        if new_w == 0 {
            return Err("edge weights must be positive".to_string());
        }
        let (i, j) = self.positions(u, v)?;
        let at = self.start[u as usize] + i;
        let old = EdgeWeight::from(self.weights[at]);
        self.check_edge_total(old, new_w)?;
        let stored = u32::try_from(new_w).expect("checked against the total");
        self.weights[self.start[v as usize] + j] = stored;
        self.weights[at] = stored;
        self.total_edge_weight = self.total_edge_weight - old + new_w;
        Ok(old)
    }

    /// Appends a new isolated node of weight `weight` and returns its id (the
    /// previous slot count). Errors when the total node weight would exceed
    /// [`MAX_TOTAL_WEIGHT`].
    pub fn insert_node(&mut self, weight: NodeWeight) -> Result<NodeId, String> {
        if self.total_node_weight.saturating_add(weight) > MAX_TOTAL_WEIGHT {
            return Err(WeightOverflow::Nodes.to_string());
        }
        Ok(self.push_slot(weight, &[]))
    }

    /// Deletes node `v`, returning its weight. The node must be isolated —
    /// delete its incident edges first (the serving layer cascades this) —
    /// so that every derived structure sees edge deaths before the node's.
    pub fn delete_node(&mut self, v: NodeId) -> Result<NodeWeight, String> {
        self.check_endpoint(v)?;
        let degree = self.len[v as usize];
        if degree > 0 {
            return Err(format!("node {v} still has {degree} incident edges"));
        }
        let weight = NodeWeight::from(std::mem::take(&mut self.vwgt[v as usize]));
        self.alive[v as usize] = false;
        self.live_nodes -= 1;
        self.total_node_weight -= weight;
        Ok(weight)
    }

    /// The live neighbours of `v` as `(target, weight)` pairs sorted by
    /// target, collected.
    pub fn edges_of_collected(&self, v: NodeId) -> Vec<(NodeId, EdgeWeight)> {
        self.edges_of(v).collect()
    }

    /// The rows as a fresh CSR graph **preserving node ids** (a dead slot is
    /// an isolated node of weight 0), in `O(n + m)` — the ground truth the
    /// exactness tests rebuild a [`PartitionState`](crate::PartitionState)
    /// on and compare field for field.
    pub fn to_csr(&self) -> CsrGraph {
        let mut csr = CsrGraph::rows(self.num_nodes(), self.half_edges);
        for v in self.nodes() {
            csr.push_node(self.edges_of(v));
        }
        csr.finish_stored(self.vwgt.clone(), None)
    }
}

/// Every method is `O(1)` or a row walk except
/// [`max_node_weight`](GraphAccess::max_node_weight), an `O(n)` scan here (a
/// node delete would otherwise have to find the next heaviest node); callers
/// that need it often cache `L_max` instead.
impl GraphAccess for DynamicGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.vwgt.len()
    }

    fn num_half_edges(&self) -> usize {
        self.half_edges
    }

    fn total_node_weight(&self) -> NodeWeight {
        self.total_node_weight
    }

    fn max_node_weight(&self) -> NodeWeight {
        self.vwgt.iter().max().map_or(0, |&w| NodeWeight::from(w))
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        self.len[v as usize] as usize
    }

    #[inline]
    fn node_weight(&self, v: NodeId) -> NodeWeight {
        self.vwgt[v as usize].into()
    }

    #[inline]
    fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        let row = self.range(v);
        self.targets[row.clone()]
            .iter()
            .copied()
            .zip(self.weights[row].iter().map(|&w| EdgeWeight::from(w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn overlay_tracks_inserts_and_deletes() {
        let mut g = DynamicGraph::new(graph_from_edges(4, vec![(0, 1, 1), (1, 2, 2), (2, 3, 3)]));
        assert_eq!(g.num_edges(), 3);
        g.insert_edge(0, 3, 7).unwrap();
        g.delete_edge(1, 2).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.edges_of_collected(0), vec![(1, 1), (3, 7)]);
        assert_eq!(g.edges_of_collected(2), vec![(3, 3)]);
        assert_eq!(g.edge_weight(1, 2), None);
        assert_eq!(g.edge_weight(3, 0), Some(7));
    }

    #[test]
    fn reweight_masks_base_and_updates_overlay() {
        let mut g = DynamicGraph::new(graph_from_edges(3, vec![(0, 1, 1), (1, 2, 2)]));
        assert_eq!(g.update_edge(0, 1, 9).unwrap(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(9));
        assert_eq!(g.edge_weight(1, 0), Some(9), "both copies reweighted");
        assert_eq!(g.num_edges(), 2);
        // Reweighting again, from the other endpoint.
        assert_eq!(g.update_edge(1, 0, 4).unwrap(), 9);
        assert_eq!(g.edge_weight(0, 1), Some(4));
        assert!(g.update_edge(0, 2, 3).is_err(), "absent edge");
    }

    #[test]
    fn node_lifecycle_keeps_ids_stable() {
        let mut g = DynamicGraph::new(graph_from_edges(3, vec![(0, 1, 1), (1, 2, 1)]));
        let v = g.insert_node(5).unwrap();
        assert_eq!(v, 3);
        g.insert_edge(v, 0, 2).unwrap();
        assert_eq!(g.total_node_weight(), 8);
        // Deleting a non-isolated node is refused.
        assert!(g.delete_node(v).is_err());
        g.delete_edge(v, 0).unwrap();
        assert_eq!(g.delete_node(v).unwrap(), 5);
        assert!(!g.is_alive(v));
        assert_eq!(g.num_nodes(), 4, "ids must not be renumbered");
        assert_eq!(g.num_live_nodes(), 3);
        assert_eq!(g.total_node_weight(), 3);
        // Mutations touching the dead slot are refused.
        assert!(g.insert_edge(0, v, 1).is_err());
        assert!(g.delete_node(v).is_err());
    }

    #[test]
    fn rejects_invalid_mutations() {
        let mut g = DynamicGraph::new(graph_from_edges(2, vec![(0, 1, 1)]));
        assert!(g.insert_edge(0, 0, 1).is_err(), "self loop");
        assert!(g.insert_edge(0, 1, 5).is_err(), "duplicate");
        assert!(g.insert_edge(0, 1, 0).is_err(), "zero weight");
        assert!(g.insert_edge(0, 9, 1).is_err(), "out of range");
        assert!(g.delete_edge(0, 9).is_err());
        assert!(g.delete_edge(0, 0).is_err());
        assert!(g.delete_node(7).is_err());
        assert!(g.update_edge(0, 1, 0).is_err(), "zero reweight");
    }

    #[test]
    fn mutations_past_the_weight_totals_are_refused() {
        let max = MAX_TOTAL_WEIGHT;
        let mut g = DynamicGraph::new(graph_from_edges(3, vec![(0, 1, max - 10)]));
        let over = "exceeds 4294967295";
        // Inserts: the total edge weight may reach u32::MAX, not pass it.
        assert!(g.insert_edge(1, 2, 11).unwrap_err().contains(over));
        assert!(g.insert_edge(1, 2, u64::MAX).unwrap_err().contains(over));
        g.insert_edge(1, 2, 10).unwrap();
        // Updates count the weight they replace.
        assert!(g.update_edge(1, 2, 11).unwrap_err().contains(over));
        assert_eq!(g.update_edge(0, 1, max - 11).unwrap(), max - 10);
        assert_eq!(g.update_edge(1, 2, 11).unwrap(), 10);
        // A delete frees its weight.
        assert_eq!(g.delete_edge(1, 2).unwrap(), 11);
        g.insert_edge(0, 2, 11).unwrap();
        // Node inserts: three unit nodes, so u32::MAX − 3 more fit.
        assert!(g.insert_node(max - 2).unwrap_err().contains(over));
        let v = g.insert_node(max - 3).unwrap();
        assert_eq!(g.node_weight(v), max - 3);
        assert!(g.insert_node(1).is_err());
        // Refused mutations changed nothing: the fold seals.
        let c = g.to_csr();
        assert_eq!(c.total_edge_weight(), max);
        assert_eq!(c.total_node_weight(), max);
        assert_eq!(c.edge_weight_between(0, 2), Some(11));
    }

    #[test]
    fn compact_preserves_ids_and_contents() {
        let mut g = DynamicGraph::new(graph_from_edges(4, vec![(0, 1, 1), (1, 2, 2), (2, 3, 3)]));
        g.insert_edge(0, 2, 4).unwrap();
        g.delete_edge(0, 1).unwrap();
        let v = g.insert_node(3).unwrap();
        g.insert_edge(v, 3, 6).unwrap();
        g.update_edge(2, 3, 8).unwrap();
        // Kill node 1 (its last edge goes first).
        g.delete_edge(1, 2).unwrap();
        g.delete_node(1).unwrap();

        let c = g.to_csr();
        assert_eq!(c.num_nodes(), 5);
        assert_eq!(c.num_edges(), 3);
        assert_eq!(c.degree(1), 0, "dead slot is isolated");
        assert_eq!(c.node_weight(1), 0, "dead slot carries no weight");
        assert_eq!(c.edge_weight_between(0, 2), Some(4));
        assert_eq!(c.edge_weight_between(2, 3), Some(8));
        assert_eq!(c.edge_weight_between(3, v), Some(6));
        assert_eq!(c.total_node_weight(), g.total_node_weight());
        assert!(c.validate().is_ok());

        // Round trip: re-wrapping the fold yields the same rows.
        let g2 = DynamicGraph::new(c);
        for n in 0..g.num_nodes() as NodeId {
            assert_eq!(
                g.edges_of_collected(n),
                g2.edges_of_collected(n),
                "node {n}"
            );
        }
    }

    #[test]
    fn delete_then_reinsert_base_edge_lives_in_the_overlay() {
        let mut g = DynamicGraph::new(graph_from_edges(2, vec![(0, 1, 3)]));
        g.delete_edge(0, 1).unwrap();
        assert_eq!(g.num_edges(), 0);
        g.insert_edge(1, 0, 5).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.to_csr().edge_weight_between(0, 1), Some(5));
    }
}
