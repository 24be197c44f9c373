//! The dynamic-graph repartitioning session.
//!
//! [`DynamicSession`] is the orchestration layer between a stream of graph
//! mutations and the incremental machinery the lower crates provide: it owns
//! a [`DynamicGraph`] and the [`PartitionState`] describing it, forwards
//! every mutation to **both** in lock step (graph mutation + the matching
//! exact state hook), answers placement queries from the maintained
//! assignment in `O(1)`, and decides *when quality repair is worth paying
//! for* — the drift policy of the serving loop:
//!
//! - the **cut baseline** is the best cut the session has seen; when the
//!   maintained cut exceeds `baseline · (1 + cut_drift)`, a localized
//!   re-refinement ([`refine_local`]) runs over the nodes touched since the
//!   last repair;
//! - the **balance trigger** fires when the maintained block weights violate
//!   `L_max(ε)` (node inserts and deletes shift it);
//! - a triggered repair refines the live graph **in place**: band BFS, FM
//!   and rebalancing read a [`GraphAccess`](kappa_graph::GraphAccess), which
//!   [`DynamicGraph`] is, so a repair never folds the graph into a second,
//!   `O(n + m)` copy.
//!
//! Node-id stability end to end means the session never rebuilds derived
//! state: [`PartitionState::full_builds`] stays at its bootstrap value for
//! the session's whole life, which the soak test asserts as the "no full
//! rebuild after warmup" invariant.

use kappa_graph::{
    BlockId, CsrGraph, DynamicGraph, EdgeWeight, NodeId, NodeWeight, Partition, PartitionState,
};
use kappa_refine::{refine_local, RefinementConfig, RefinementStats};

use crate::config::KappaConfig;
use crate::partitioner::KappaPartitioner;

/// Drift policy and repair knobs of a [`DynamicSession`].
#[derive(Clone, Copy, Debug)]
pub struct DynamicConfig {
    /// Relative cut drift that triggers a localized repair: refine when the
    /// maintained cut exceeds `baseline · (1 + cut_drift)`.
    pub cut_drift: f64,
    /// Check the drift/balance triggers after every mutation. Disable to
    /// drive repairs manually via [`DynamicSession::refine_now`].
    pub auto_refine: bool,
    /// The localized refinement pass run on trigger (its `epsilon` is also
    /// the session's balance tolerance; `max_global_iterations` caps the
    /// rounds over the affected pairs).
    pub refine: RefinementConfig,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            cut_drift: 0.10,
            auto_refine: true,
            refine: RefinementConfig {
                max_global_iterations: 3,
                ..RefinementConfig::default()
            },
        }
    }
}

impl DynamicConfig {
    /// A dynamic configuration whose refinement knobs (ε, band depth, queue
    /// selection, patience, local iterations, seed) mirror `config`, so the
    /// serving loop repairs with the same strength the bootstrap partitioned
    /// with.
    pub fn matching(config: &KappaConfig) -> Self {
        DynamicConfig {
            // A repair is three rounds at most and stops at the first
            // gain-free one, whatever the preset's global schedule; it draws
            // from the bootstrap seed itself, not the pipeline's salted one.
            refine: RefinementConfig {
                seed: config.seed,
                max_global_iterations: 3,
                stop_after_no_change: 1,
                ..config.refinement()
            },
            ..Default::default()
        }
    }

    /// Sets the cut-drift trigger threshold.
    pub fn with_cut_drift(mut self, cut_drift: f64) -> Self {
        self.cut_drift = cut_drift;
        self
    }

    /// Enables or disables automatic trigger checks after mutations.
    pub fn with_auto_refine(mut self, auto: bool) -> Self {
        self.auto_refine = auto;
        self
    }
}

/// Counters of everything a session has done — the `stats` line of the
/// serving protocol.
#[derive(Clone, Copy, Debug, Default)]
pub struct DynamicStats {
    /// Edge insertions absorbed.
    pub edge_inserts: u64,
    /// Edge deletions absorbed.
    pub edge_deletes: u64,
    /// Edge reweights absorbed.
    pub edge_reweights: u64,
    /// Node insertions absorbed.
    pub node_inserts: u64,
    /// Node deletions absorbed (cascaded edge deletions are counted under
    /// `edge_deletes` as well).
    pub node_deletes: u64,
    /// Placement queries answered.
    pub queries: u64,
    /// Localized refinement passes run.
    pub local_refines: u64,
    /// Total cut improvement across all localized refinements.
    pub refine_gain_total: i64,
    /// Nodes moved by localized refinements.
    pub refine_nodes_moved: u64,
}

/// A live partition over a mutating graph: placement queries, streaming
/// mutations with exact state maintenance, and threshold-triggered localized
/// repair.
///
/// ```
/// use kappa_core::{DynamicConfig, DynamicSession, KappaConfig};
/// use kappa_gen::grid::grid2d;
///
/// let mut session = DynamicSession::bootstrap(
///     grid2d(16, 16),
///     &KappaConfig::fast(4).with_seed(3),
///     DynamicConfig::default(),
/// );
/// assert!(session.query(17).is_some());
///
/// // Mutations keep the state exact (verified against a full rebuild).
/// session.insert_edge(0, 255, 2).unwrap();
/// session.delete_node(17).unwrap();
/// assert_eq!(session.query(17), None);
/// session.verify().unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct DynamicSession {
    graph: DynamicGraph,
    state: PartitionState,
    config: DynamicConfig,
    /// Nodes touched by mutations since the last repair — the region the
    /// next [`refine_local`] pass is seeded from.
    touched: Vec<NodeId>,
    /// Best cut seen; the drift trigger compares against it.
    baseline_cut: EdgeWeight,
    /// Cached balance bound; recomputed only after node mutations.
    l_max: NodeWeight,
    l_max_dirty: bool,
    stats: DynamicStats,
}

impl DynamicSession {
    /// Opens a session over `graph` with an existing partition (one full
    /// state derivation — the session's only one).
    ///
    /// Errors when `partition` is not a complete in-range assignment.
    pub fn new(
        graph: CsrGraph,
        partition: Partition,
        config: DynamicConfig,
    ) -> Result<Self, String> {
        partition.validate(&graph)?;
        let k = partition.k();
        let state = PartitionState::build(&graph, partition);
        let graph = DynamicGraph::new(graph);
        let l_max = Partition::l_max(&graph, k, config.refine.epsilon);
        let baseline_cut = state.edge_cut();
        Ok(DynamicSession {
            graph,
            state,
            config,
            touched: Vec::new(),
            baseline_cut,
            l_max,
            l_max_dirty: false,
            stats: DynamicStats::default(),
        })
    }

    /// Partitions `graph` from scratch with the full multilevel pipeline and
    /// opens a session over the result.
    pub fn bootstrap(graph: CsrGraph, kappa: &KappaConfig, config: DynamicConfig) -> Self {
        let result = KappaPartitioner::new(*kappa).partition(&graph);
        DynamicSession::new(graph, result.partition, config)
            .expect("pipeline produced an invalid partition")
    }

    /// Number of blocks `k`.
    #[inline]
    pub fn k(&self) -> BlockId {
        self.state.k()
    }

    /// The live graph.
    #[inline]
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The maintained partition state.
    #[inline]
    pub fn state(&self) -> &PartitionState {
        &self.state
    }

    /// Session counters.
    #[inline]
    pub fn stats(&self) -> &DynamicStats {
        &self.stats
    }

    /// The edge cut of the current partition, summed over the state's
    /// maintained pair cut weights (`O(|E_Q|)`, no graph row read).
    #[inline]
    pub fn edge_cut(&self) -> EdgeWeight {
        self.state.edge_cut()
    }

    /// The cut baseline the drift trigger compares against.
    #[inline]
    pub fn baseline_cut(&self) -> EdgeWeight {
        self.baseline_cut
    }

    /// Which block owns node `v` — the service's placement query. `None` for
    /// deleted or out-of-range nodes. `O(1)`.
    pub fn query(&mut self, v: NodeId) -> Option<BlockId> {
        self.stats.queries += 1;
        if self.graph.is_alive(v) {
            Some(self.state.block_of(v))
        } else {
            None
        }
    }

    /// Inserts edge `{u, v}` of weight `w`.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId, w: EdgeWeight) -> Result<(), String> {
        self.graph.insert_edge(u, v, w)?;
        self.state.apply_edge_insert(u, v, w);
        self.stats.edge_inserts += 1;
        self.touched.push(u);
        self.touched.push(v);
        self.after_mutation();
        Ok(())
    }

    /// Deletes edge `{u, v}`, returning its weight.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeWeight, String> {
        let w = self.graph.delete_edge(u, v)?;
        self.state.apply_edge_delete(u, v, w);
        self.stats.edge_deletes += 1;
        self.touched.push(u);
        self.touched.push(v);
        self.after_mutation();
        Ok(w)
    }

    /// Reweights edge `{u, v}` to `w`, returning the previous weight.
    pub fn update_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        w: EdgeWeight,
    ) -> Result<EdgeWeight, String> {
        let old = self.graph.update_edge(u, v, w)?;
        self.state.apply_edge_reweight(u, v, old, w);
        self.stats.edge_reweights += 1;
        self.touched.push(u);
        self.touched.push(v);
        self.after_mutation();
        Ok(old)
    }

    /// Inserts a new isolated node of weight `weight` into `block` (the
    /// lightest block when `None` — the balance-preserving default) and
    /// returns its id.
    pub fn insert_node(
        &mut self,
        weight: NodeWeight,
        block: Option<BlockId>,
    ) -> Result<NodeId, String> {
        let b = match block {
            Some(b) if b < self.k() => b,
            Some(b) => return Err(format!("block {b} out of range (k = {})", self.k())),
            None => {
                let weights = self.state.weights().as_slice();
                weights
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, w)| *w)
                    .map(|(i, _)| i as BlockId)
                    .expect("k >= 1")
            }
        };
        let v = self.graph.insert_node(weight)?;
        self.state.apply_node_insert(b, weight);
        self.stats.node_inserts += 1;
        self.touched.push(v);
        self.l_max_dirty = true;
        self.after_mutation();
        Ok(v)
    }

    /// Deletes node `v`, cascading over its incident edges first so every
    /// derived structure sees the edge deaths before the node's.
    pub fn delete_node(&mut self, v: NodeId) -> Result<(), String> {
        if !self.graph.is_alive(v) {
            return Err(format!("node {v} does not exist"));
        }
        for (u, w) in self.graph.edges_of_collected(v) {
            self.graph.delete_edge(v, u).expect("live incident edge");
            self.state.apply_edge_delete(v, u, w);
            self.stats.edge_deletes += 1;
            self.touched.push(u);
        }
        let weight = self.graph.delete_node(v).expect("now isolated");
        self.state.apply_node_delete(v, weight);
        self.stats.node_deletes += 1;
        self.l_max_dirty = true;
        self.after_mutation();
        Ok(())
    }

    /// The balance bound `L_max(ε)` over the live graph (cached; recomputed
    /// only after node mutations).
    pub fn l_max(&mut self) -> NodeWeight {
        if self.l_max_dirty {
            self.l_max = Partition::l_max(&self.graph, self.k(), self.config.refine.epsilon);
            self.l_max_dirty = false;
        }
        self.l_max
    }

    /// True when the drift policy wants a repair: the maintained cut exceeds
    /// the baseline by more than `cut_drift`, or the maintained weights
    /// violate `L_max`.
    pub fn needs_refine(&mut self) -> bool {
        let cut = self.state.edge_cut();
        let threshold = self.baseline_cut as f64 * (1.0 + self.config.cut_drift);
        if cut as f64 > threshold {
            return true;
        }
        let l_max = self.l_max();
        !self.state.is_balanced(l_max)
    }

    fn after_mutation(&mut self) {
        // Mutations can also *improve* the cut (deleting a cut edge); ratchet
        // the baseline down so drift is always measured against the best
        // state seen.
        self.baseline_cut = self.baseline_cut.min(self.state.edge_cut());
        if self.config.auto_refine && self.needs_refine() {
            self.refine_now();
        }
    }

    /// Runs a localized repair now, regardless of the triggers: re-refines
    /// the live graph around the touched region and resets the baseline to
    /// the repaired cut.
    pub fn refine_now(&mut self) -> RefinementStats {
        let touched = std::mem::take(&mut self.touched);
        let stats = refine_local(&self.graph, &mut self.state, &touched, &self.config.refine);
        self.stats.local_refines += 1;
        self.stats.refine_gain_total += stats.total_gain;
        self.stats.refine_nodes_moved += stats.nodes_moved as u64;
        self.baseline_cut = self.state.edge_cut();
        stats
    }

    /// Checks the maintained state field for field against a from-scratch
    /// rebuild on the live graph — the streaming-exactness ground truth.
    pub fn verify(&self) -> Result<(), String> {
        self.state.verify_exact(&self.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_gen::grid::grid2d;

    fn session(side: usize, k: u32) -> DynamicSession {
        DynamicSession::bootstrap(
            grid2d(side, side),
            &KappaConfig::fast(k).with_seed(5),
            DynamicConfig::default(),
        )
    }

    #[test]
    fn queries_mutations_and_verify() {
        let mut s = session(12, 4);
        assert_eq!(s.state().full_builds(), 1);
        assert!(s.query(0).is_some());
        assert_eq!(s.query(1 << 20), None);
        s.insert_edge(0, 143, 3).unwrap();
        let v = s.insert_node(1, None).unwrap();
        s.insert_edge(v, 5, 1).unwrap();
        s.update_edge(0, 1, 7).unwrap();
        s.delete_node(17).unwrap();
        assert_eq!(s.query(17), None);
        s.verify().unwrap();
        assert_eq!(s.state().full_builds(), 1, "mutations forced a rebuild");
        let st = s.stats();
        assert_eq!(st.edge_inserts, 2);
        assert_eq!(st.node_inserts, 1);
        assert_eq!(st.node_deletes, 1);
        assert!(st.edge_deletes >= 1, "cascade deletes node 17's edges");
    }

    #[test]
    fn cut_drift_triggers_a_localized_repair() {
        let g = grid2d(16, 16);
        let assignment = (0..256).map(|i| if i % 16 < 8 { 0 } else { 1 }).collect();
        let mut s = DynamicSession::new(
            g,
            Partition::from_assignment(2, assignment),
            DynamicConfig::default().with_cut_drift(0.05),
        )
        .unwrap();
        let baseline = s.baseline_cut();
        assert_eq!(baseline, 16);
        // Heavy cross-cut chords until the trigger fires; the repair must
        // bring the cut back within (or below) the drifted threshold's
        // neighbourhood and leave the state exact.
        let before_refines = s.stats().local_refines;
        for i in 0..8u32 {
            let (u, v) = (16 * i + 7, 16 * i + 8);
            s.update_edge(u, v, 50).unwrap();
        }
        assert!(s.stats().local_refines > before_refines, "never triggered");
        s.verify().unwrap();
        assert_eq!(s.state().full_builds(), 1);
    }

    #[test]
    fn manual_mode_defers_repairs() {
        let g = grid2d(10, 10);
        let assignment = (0..100).map(|i| if i % 10 < 5 { 0 } else { 1 }).collect();
        let mut s = DynamicSession::new(
            g,
            Partition::from_assignment(2, assignment),
            DynamicConfig::default().with_auto_refine(false),
        )
        .unwrap();
        for i in 0..5u32 {
            s.update_edge(10 * i + 4, 10 * i + 5, 40).unwrap();
        }
        assert_eq!(s.stats().local_refines, 0);
        assert!(s.needs_refine());
        s.refine_now();
        assert_eq!(s.stats().local_refines, 1);
        assert!(!s.needs_refine());
        s.verify().unwrap();
    }

    #[test]
    fn node_inserts_balance_into_the_lightest_block() {
        let mut s = session(8, 2);
        let weights_before = s.state().weights().as_slice().to_vec();
        let lightest = if weights_before[0] <= weights_before[1] {
            0
        } else {
            1
        };
        let v = s.insert_node(3, None).unwrap();
        assert_eq!(s.query(v), Some(lightest as u32));
        assert!(s.insert_node(1, Some(99)).is_err());
        s.verify().unwrap();
    }
}
