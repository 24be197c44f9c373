//! Streaming mutations over a frozen CSR graph.
//!
//! The paper's tool class exists to serve workloads whose graphs change while
//! the system runs; [`DynamicGraph`] is the repo's bridge from the frozen
//! [`CsrGraph`] every pipeline stage consumes to such a workload. It is the
//! "dynamic" half of the hybrid data structure sketched in §5.2: the frozen
//! CSR stays untouched as the *base*, and all mutations accumulate in a
//! per-node overlay —
//!
//! - `extra[v]`: edges inserted since the base was frozen (both endpoint
//!   copies mirrored, like the CSR's half-edges),
//! - `deleted[v]`: base targets whose edge has been deleted (sorted, binary
//!   searched during traversal),
//! - live degree / node weight / alive arrays covering base and appended
//!   nodes alike.
//!
//! Node ids are **stable for the lifetime of the overlay**: deleting a node
//! never renumbers the others, it merely marks the slot dead (a dead node is
//! an isolated node of weight 0 — the representation a fresh
//! [`compact`](DynamicGraph::compact) produces for it). This is what lets a
//! [`PartitionState`](crate::PartitionState) ride through an arbitrary
//! mutation stream with `O(1)`/`O(deg)` hook calls and still compare
//! *field-for-field* against a from-scratch rebuild on the compacted graph —
//! no id translation exists to hide a bug in.
//!
//! Traversal ([`Adjacency`]) costs `O(deg · log |deleted|)` per node; a
//! [`compact`](DynamicGraph::compact) folds the overlay into a fresh CSR in
//! `O(n + m)` whenever the overlay fraction makes that worthwhile (the
//! serving layer's compaction policy decides when).

use crate::builder::GraphBuilder;
use crate::csr::{Adjacency, CsrGraph};
use crate::types::{EdgeWeight, NodeId, NodeWeight};

/// A CSR base graph plus an insert/delete overlay with stable node ids.
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
/// let v = g.insert_node(2); // new node id 3, weight 2
/// assert_eq!(v, 3);
/// g.insert_edge(v, 0, 1).unwrap();
///
/// let frozen = g.compact(); // same ids, overlay folded in
/// assert_eq!(frozen.num_nodes(), 4);
/// assert_eq!(frozen.edge_weight_between(0, 2), Some(5));
/// ```
#[derive(Clone, Debug)]
pub struct DynamicGraph {
    base: CsrGraph,
    /// Edges inserted since `base` was frozen: `extra[v]` holds `(u, w)` for
    /// every inserted edge `{v, u}` (mirrored at both endpoints). Also holds
    /// the live copy of reweighted base edges (whose base copy is masked via
    /// `deleted`).
    extra: Vec<Vec<(NodeId, EdgeWeight)>>,
    /// Deleted base targets per node, sorted for binary search during
    /// traversal. Mirrored at both endpoints like `extra`.
    deleted: Vec<Vec<NodeId>>,
    /// Live degree per node (base minus deletions plus insertions).
    deg: Vec<u32>,
    /// Live node weights; dead slots are zeroed.
    vwgt: Vec<NodeWeight>,
    /// Liveness per node slot.
    alive: Vec<bool>,
    /// Number of live nodes.
    live_nodes: usize,
    /// Number of live undirected edges.
    live_edges: usize,
    /// Cached total node weight of live nodes.
    total_node_weight: NodeWeight,
    /// Half-edges resident in the overlay (`extra` entries plus masked base
    /// entries) — the serving layer's compaction heuristic reads this.
    overlay_half_edges: usize,
    /// Mutation counter: bumped by every structural change, so callers can
    /// key caches of derived state (e.g. a [`compact`](Self::compact) fold)
    /// on it and reuse them across repeated reads of an unchanged graph.
    version: u64,
}

impl DynamicGraph {
    /// Wraps a frozen graph in an empty overlay.
    pub fn new(base: CsrGraph) -> Self {
        let n = base.num_nodes();
        let deg = (0..n as NodeId).map(|v| base.degree(v) as u32).collect();
        let vwgt = (0..n as NodeId).map(|v| base.node_weight(v)).collect();
        let live_edges = base.num_edges();
        let total_node_weight = base.total_node_weight();
        DynamicGraph {
            base,
            extra: vec![Vec::new(); n],
            deleted: vec![Vec::new(); n],
            deg,
            vwgt,
            alive: vec![true; n],
            live_nodes: n,
            live_edges,
            total_node_weight,
            overlay_half_edges: 0,
            version: 0,
        }
    }

    /// Mutation counter: strictly increases across every successful mutation
    /// (edge insert/delete/reweight, node insert/delete). Two reads of an
    /// unchanged version see an identical graph, so derived state such as a
    /// [`compact`](Self::compact) fold keyed on the version can be reused.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of node slots (live and dead — ids are stable, so this only
    /// grows).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.alive.len()
    }

    /// Number of live nodes.
    #[inline]
    pub fn num_live_nodes(&self) -> usize {
        self.live_nodes
    }

    /// Number of live undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.live_edges
    }

    /// True if the node slot `v` exists and is live.
    #[inline]
    pub fn is_alive(&self, v: NodeId) -> bool {
        (v as usize) < self.alive.len() && self.alive[v as usize]
    }

    /// Live degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.deg[v as usize] as usize
    }

    /// Node weight `c(v)` (0 for dead slots).
    #[inline]
    pub fn node_weight(&self, v: NodeId) -> NodeWeight {
        self.vwgt[v as usize]
    }

    /// Total node weight of the live graph.
    #[inline]
    pub fn total_node_weight(&self) -> NodeWeight {
        self.total_node_weight
    }

    /// Maximum live node weight (`O(n)` scan; used only by the occasional
    /// `L_max` recomputation, never per mutation).
    pub fn max_node_weight(&self) -> NodeWeight {
        self.vwgt.iter().copied().max().unwrap_or(0)
    }

    /// Half-edges resident in the overlay — grows with every edge mutation
    /// and resets to 0 after [`compact`](Self::compact) + [`new`](Self::new).
    /// Compaction policies compare it against the live edge count.
    #[inline]
    pub fn overlay_half_edges(&self) -> usize {
        self.overlay_half_edges
    }

    /// The balance bound `L_max = (1 + ε)·c(V)/k + max_v c(v)` of §2 over the
    /// live graph.
    pub fn l_max(&self, k: u32, epsilon: f64) -> NodeWeight {
        let avg = self.total_node_weight as f64 / k as f64;
        ((1.0 + epsilon) * avg).ceil() as NodeWeight + self.max_node_weight()
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

    /// Weight of the live edge `{u, v}`, if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<EdgeWeight> {
        if u as usize >= self.alive.len() || v as usize >= self.alive.len() || u == v {
            return None;
        }
        if let Some(&(_, w)) = self.extra[u as usize].iter().find(|&&(t, _)| t == v) {
            return Some(w);
        }
        let base_n = self.base.num_nodes();
        if (u as usize) < base_n
            && (v as usize) < base_n
            && self.deleted[u as usize].binary_search(&v).is_err()
        {
            return self.base.edge_weight_between(u, v);
        }
        None
    }

    /// Inserts the edge `{u, v}` of weight `w`.
    ///
    /// Errors on self loops, zero weights, dead or out-of-range endpoints,
    /// and edges that already exist (use [`update_edge`](Self::update_edge)
    /// to reweight).
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId, w: EdgeWeight) -> Result<(), String> {
        if u == v {
            return Err(format!("self loop on node {u}"));
        }
        if w == 0 {
            return Err("edge weights must be positive".to_string());
        }
        self.check_endpoint(u)?;
        self.check_endpoint(v)?;
        if self.edge_weight(u, v).is_some() {
            return Err(format!("edge {{{u}, {v}}} already exists"));
        }
        self.extra[u as usize].push((v, w));
        self.extra[v as usize].push((u, w));
        self.deg[u as usize] += 1;
        self.deg[v as usize] += 1;
        self.live_edges += 1;
        self.overlay_half_edges += 2;
        self.version += 1;
        Ok(())
    }

    /// Deletes the edge `{u, v}`, returning its weight. Errors when the edge
    /// does not exist.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeWeight, String> {
        self.check_endpoint(u)?;
        self.check_endpoint(v)?;
        let w = self
            .edge_weight(u, v)
            .ok_or_else(|| format!("edge {{{u}, {v}}} does not exist"))?;
        if let Some(i) = self.extra[u as usize].iter().position(|&(t, _)| t == v) {
            // Overlay edge: drop both mirrored copies.
            self.extra[u as usize].swap_remove(i);
            let j = self.extra[v as usize]
                .iter()
                .position(|&(t, _)| t == u)
                .expect("overlay half-edges out of sync");
            self.extra[v as usize].swap_remove(j);
            self.overlay_half_edges -= 2;
        } else {
            // Base edge: mask it at both endpoints.
            let iu = self.deleted[u as usize].binary_search(&v).unwrap_err();
            self.deleted[u as usize].insert(iu, v);
            let iv = self.deleted[v as usize].binary_search(&u).unwrap_err();
            self.deleted[v as usize].insert(iv, u);
            self.overlay_half_edges += 2;
        }
        self.deg[u as usize] -= 1;
        self.deg[v as usize] -= 1;
        self.live_edges -= 1;
        self.version += 1;
        Ok(w)
    }

    /// Changes the weight of the existing edge `{u, v}` to `new_w`, returning
    /// the previous weight.
    pub fn update_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        new_w: EdgeWeight,
    ) -> Result<EdgeWeight, String> {
        if new_w == 0 {
            return Err("edge weights must be positive".to_string());
        }
        self.check_endpoint(u)?;
        self.check_endpoint(v)?;
        if let Some(i) = self.extra[u as usize].iter().position(|&(t, _)| t == v) {
            let old = self.extra[u as usize][i].1;
            self.extra[u as usize][i].1 = new_w;
            let j = self.extra[v as usize]
                .iter()
                .position(|&(t, _)| t == u)
                .expect("overlay half-edges out of sync");
            self.extra[v as usize][j].1 = new_w;
            self.version += 1;
            return Ok(old);
        }
        // Base edge: mask the base copy and re-insert through the overlay.
        let old = self.delete_edge(u, v)?;
        self.insert_edge(u, v, new_w)
            .expect("re-insert of a just-deleted edge");
        Ok(old)
    }

    /// Appends a new isolated node of weight `weight` and returns its id (the
    /// previous slot count).
    pub fn insert_node(&mut self, weight: NodeWeight) -> NodeId {
        let v = self.alive.len() as NodeId;
        self.extra.push(Vec::new());
        self.deleted.push(Vec::new());
        self.deg.push(0);
        self.vwgt.push(weight);
        self.alive.push(true);
        self.live_nodes += 1;
        self.total_node_weight += weight;
        self.version += 1;
        v
    }

    /// Deletes node `v`, returning its weight. The node must be isolated —
    /// delete its incident edges first (the serving layer cascades this) —
    /// so that every derived structure sees edge deaths before the node's.
    pub fn delete_node(&mut self, v: NodeId) -> Result<NodeWeight, String> {
        self.check_endpoint(v)?;
        if self.deg[v as usize] > 0 {
            return Err(format!(
                "node {v} still has {} incident edges",
                self.deg[v as usize]
            ));
        }
        let weight = self.vwgt[v as usize];
        self.vwgt[v as usize] = 0;
        self.alive[v as usize] = false;
        self.live_nodes -= 1;
        self.total_node_weight -= weight;
        self.version += 1;
        Ok(weight)
    }

    /// The live neighbours of `v` as `(target, weight)` pairs, collected.
    pub fn edges_of_collected(&self, v: NodeId) -> Vec<(NodeId, EdgeWeight)> {
        let mut out = Vec::with_capacity(self.degree(v));
        self.for_each_edge(v, |u, w| out.push((u, w)));
        out
    }

    /// Folds the overlay into a fresh CSR graph **preserving node ids**: dead
    /// slots become isolated nodes of weight 0, live nodes keep their weight
    /// and edges. `O(n + m)`, plus the builder's sort of each row.
    ///
    /// Because ids are stable, a [`Partition`](crate::Partition) or
    /// [`PartitionState`](crate::PartitionState) maintained alongside this
    /// graph is directly a partition of the compacted graph — the exactness
    /// test suite rebuilds state from scratch on `compact()` output and
    /// compares field for field.
    pub fn compact(&self) -> CsrGraph {
        let mut b = GraphBuilder::with_node_weights(self.vwgt.clone());
        b.reserve_edges(self.live_edges);
        for v in 0..self.alive.len() as NodeId {
            self.for_each_edge(v, |u, w| {
                if v < u {
                    b.add_edge(v, u, w);
                }
            });
        }
        b.build()
    }

    /// Folds the overlay into a fresh base and returns a new `DynamicGraph`
    /// over it with an **empty** overlay, carrying liveness across — wrapping
    /// [`compact`](Self::compact) output in [`new`](Self::new) directly would
    /// resurrect dead slots (they are indistinguishable from live isolated
    /// weight-0 nodes in the CSR). The serving layer re-bases when the
    /// overlay fraction makes traversal masking more expensive than one
    /// `O(n + m)` fold.
    pub fn rebase(&self) -> DynamicGraph {
        self.rebase_with(self.compact())
    }

    /// [`rebase`](Self::rebase) around an **already computed**
    /// [`compact`](Self::compact) of this graph, saving the redundant fold
    /// when the caller holds one (e.g. a version-keyed compaction cache).
    ///
    /// The result carries this graph's [`version`](Self::version): rebasing
    /// changes the representation, not the graph, so caches keyed on the
    /// version — including the `base` being passed in — stay valid.
    ///
    /// `base` must be `self.compact()` output (or equal to it); anything else
    /// silently desynchronises liveness and derived state.
    pub fn rebase_with(&self, base: CsrGraph) -> DynamicGraph {
        let mut g = DynamicGraph::new(base);
        g.alive = self.alive.clone();
        g.live_nodes = self.live_nodes;
        g.version = self.version;
        g
    }
}

impl Adjacency for DynamicGraph {
    #[inline]
    fn degree_of(&self, v: NodeId) -> usize {
        self.degree(v)
    }

    #[inline]
    fn node_weight_of(&self, v: NodeId) -> NodeWeight {
        self.node_weight(v)
    }

    fn for_each_edge<F: FnMut(NodeId, EdgeWeight)>(&self, v: NodeId, mut f: F) {
        let vi = v as usize;
        if vi < self.base.num_nodes() {
            let masked = &self.deleted[vi];
            for (u, w) in self.base.edges_of(v) {
                if masked.binary_search(&u).is_err() {
                    f(u, w);
                }
            }
        }
        for &(u, w) in &self.extra[vi] {
            f(u, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn sorted_edges(g: &DynamicGraph, v: NodeId) -> Vec<(NodeId, EdgeWeight)> {
        let mut e = g.edges_of_collected(v);
        e.sort_unstable();
        e
    }

    #[test]
    fn overlay_tracks_inserts_and_deletes() {
        let mut g = DynamicGraph::new(graph_from_edges(4, vec![(0, 1, 1), (1, 2, 2), (2, 3, 3)]));
        assert_eq!(g.num_edges(), 3);
        g.insert_edge(0, 3, 7).unwrap();
        g.delete_edge(1, 2).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(1), 1);
        assert_eq!(sorted_edges(&g, 0), vec![(1, 1), (3, 7)]);
        assert_eq!(sorted_edges(&g, 2), vec![(3, 3)]);
        assert_eq!(g.edge_weight(1, 2), None);
        assert_eq!(g.edge_weight(3, 0), Some(7));
    }

    #[test]
    fn reweight_masks_base_and_updates_overlay() {
        let mut g = DynamicGraph::new(graph_from_edges(3, vec![(0, 1, 1), (1, 2, 2)]));
        assert_eq!(g.update_edge(0, 1, 9).unwrap(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(9));
        assert_eq!(g.num_edges(), 2);
        // Reweighting the overlay copy again hits the in-place path.
        assert_eq!(g.update_edge(1, 0, 4).unwrap(), 9);
        assert_eq!(g.edge_weight(0, 1), Some(4));
    }

    #[test]
    fn node_lifecycle_keeps_ids_stable() {
        let mut g = DynamicGraph::new(graph_from_edges(3, vec![(0, 1, 1), (1, 2, 1)]));
        let v = g.insert_node(5);
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
        assert!(g.delete_node(7).is_err());
        assert!(g.update_edge(0, 1, 0).is_err(), "zero reweight");
    }

    #[test]
    fn compact_preserves_ids_and_contents() {
        let mut g = DynamicGraph::new(graph_from_edges(4, vec![(0, 1, 1), (1, 2, 2), (2, 3, 3)]));
        g.insert_edge(0, 2, 4).unwrap();
        g.delete_edge(0, 1).unwrap();
        let v = g.insert_node(3);
        g.insert_edge(v, 3, 6).unwrap();
        g.update_edge(2, 3, 8).unwrap();
        // Kill node 1 (its last edge goes first).
        g.delete_edge(1, 2).unwrap();
        g.delete_node(1).unwrap();

        let c = g.compact();
        assert_eq!(c.num_nodes(), 5);
        assert_eq!(c.num_edges(), 3);
        assert_eq!(c.degree(1), 0, "dead slot is isolated");
        assert_eq!(c.node_weight(1), 0, "dead slot carries no weight");
        assert_eq!(c.edge_weight_between(0, 2), Some(4));
        assert_eq!(c.edge_weight_between(2, 3), Some(8));
        assert_eq!(c.edge_weight_between(3, v), Some(6));
        assert_eq!(c.total_node_weight(), g.total_node_weight());
        assert!(c.validate().is_ok());

        // Round trip: re-wrapping the compacted graph yields the same live
        // structure with an empty overlay.
        let g2 = DynamicGraph::new(c);
        assert_eq!(g2.overlay_half_edges(), 0);
        for n in 0..g.num_nodes() as NodeId {
            assert_eq!(sorted_edges(&g, n), sorted_edges(&g2, n), "node {n}");
        }
    }

    #[test]
    fn rebase_keeps_dead_slots_dead() {
        let mut g = DynamicGraph::new(graph_from_edges(3, vec![(0, 1, 1), (1, 2, 1)]));
        g.delete_edge(1, 2).unwrap();
        g.delete_node(2).unwrap();
        let mut r = g.rebase();
        assert_eq!(r.overlay_half_edges(), 0);
        assert!(!r.is_alive(2), "rebase resurrected a dead slot");
        assert_eq!(r.num_live_nodes(), 2);
        assert!(r.insert_edge(0, 2, 1).is_err());
    }

    #[test]
    fn version_ticks_on_every_mutation_and_survives_rebase() {
        let mut g = DynamicGraph::new(graph_from_edges(3, vec![(0, 1, 1), (1, 2, 2)]));
        assert_eq!(g.version(), 0);
        g.insert_edge(0, 2, 4).unwrap();
        let after_insert = g.version();
        assert!(after_insert > 0);
        // Failed mutations leave the version alone.
        assert!(g.insert_edge(0, 2, 4).is_err());
        assert_eq!(g.version(), after_insert);
        g.update_edge(0, 2, 9).unwrap(); // overlay in-place reweight
        assert!(g.version() > after_insert);
        g.update_edge(0, 1, 7).unwrap(); // base mask + re-insert
        g.delete_edge(1, 2).unwrap();
        let v = g.insert_node(2);
        let before_dead = g.version();
        g.delete_node(v).unwrap();
        assert!(g.version() > before_dead);
        // Rebasing changes the representation, not the graph: the version is
        // carried so caches keyed on it (including the fold being reused)
        // stay valid.
        let cached = g.compact();
        let r = g.rebase_with(cached.clone());
        assert_eq!(r.version(), g.version());
        let refold = r.compact();
        assert_eq!(refold.num_nodes(), cached.num_nodes());
        assert_eq!(refold.num_edges(), cached.num_edges());
        for n in 0..refold.num_nodes() as NodeId {
            assert_eq!(refold.node_weight(n), cached.node_weight(n));
            let mut a: Vec<_> = refold.edges_of(n).collect();
            let mut b: Vec<_> = cached.edges_of(n).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "node {n}");
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
        assert_eq!(g.compact().edge_weight_between(0, 1), Some(5));
    }
}
