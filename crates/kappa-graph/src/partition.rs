//! Partitions of a graph into `k` blocks, with cut / balance accounting.
//!
//! Terminology from §2 of the paper: the blocks `V_1..V_k` partition `V`, the
//! balance constraint demands `c(V_i) ≤ L_max := (1 + ε)·c(V)/k + max_v c(v)`,
//! and the objective is the total cut `Σ_{i<j} ω(E_ij)`.

use crate::access::GraphAccess;
use crate::types::{BlockId, EdgeWeight, NodeId, NodeWeight, INVALID_BLOCK};

/// Read access to a node → block assignment.
///
/// [`Partition`] is the canonical implementor; refinement workers implement it
/// on lightweight overlay views (a shared base partition plus a small set of
/// local moves) so that concurrent pairwise searches need not clone the whole
/// partition. Algorithms that only *read* block ids (gain computation,
/// boundary and band extraction, 2-way FM) are generic over this trait.
pub trait BlockAssignment {
    /// Number of blocks `k`.
    fn k(&self) -> BlockId;

    /// Block of node `v` (may be `INVALID_BLOCK` if unassigned).
    fn block_of(&self, v: NodeId) -> BlockId;
}

/// Mutable access to a node → block assignment.
pub trait BlockAssignmentMut: BlockAssignment {
    /// Assigns node `v` to block `b`.
    fn assign(&mut self, v: NodeId, b: BlockId);
}

impl BlockAssignment for Partition {
    #[inline]
    fn k(&self) -> BlockId {
        self.k
    }

    #[inline]
    fn block_of(&self, v: NodeId) -> BlockId {
        self.assignment[v as usize]
    }
}

impl BlockAssignmentMut for Partition {
    #[inline]
    fn assign(&mut self, v: NodeId, b: BlockId) {
        debug_assert!(b < self.k || b == INVALID_BLOCK);
        self.assignment[v as usize] = b;
    }
}

/// Per-block node-weight bookkeeping.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockWeights {
    weights: Vec<NodeWeight>,
}

impl BlockWeights {
    /// Computes the block weights of `partition` on `graph`.
    pub fn compute<G: GraphAccess>(graph: &G, partition: &Partition) -> Self {
        let mut weights = vec![0; partition.k() as usize];
        for v in GraphAccess::nodes(graph) {
            let b = partition.block_of(v);
            weights[b as usize] += graph.node_weight(v);
        }
        BlockWeights { weights }
    }

    /// Wraps an explicit per-block weight vector (entry `b` = weight of block
    /// `b`). Used by the distributed pipeline, which maintains the replicated
    /// weight vector itself and still wants the usual accessors.
    pub fn from_weights(weights: Vec<NodeWeight>) -> Self {
        BlockWeights { weights }
    }

    /// Weight of block `b`.
    #[inline]
    pub fn weight(&self, b: BlockId) -> NodeWeight {
        self.weights[b as usize]
    }

    /// All block weights.
    #[inline]
    pub fn as_slice(&self) -> &[NodeWeight] {
        &self.weights
    }

    /// Weight of the heaviest block.
    pub fn max(&self) -> NodeWeight {
        self.weights.iter().copied().max().unwrap_or(0)
    }

    /// Weight of the lightest block.
    pub fn min(&self) -> NodeWeight {
        self.weights.iter().copied().min().unwrap_or(0)
    }

    /// Applies a single node move.
    pub fn apply_move(&mut self, from: BlockId, to: BlockId, node_weight: NodeWeight) {
        self.weights[from as usize] -= node_weight;
        self.weights[to as usize] += node_weight;
    }

    /// Adds weight to block `b` (streaming node insert / node reweight).
    pub fn add(&mut self, b: BlockId, node_weight: NodeWeight) {
        self.weights[b as usize] += node_weight;
    }

    /// Removes weight from block `b` (streaming node delete).
    pub fn sub(&mut self, b: BlockId, node_weight: NodeWeight) {
        self.weights[b as usize] -= node_weight;
    }
}

/// An assignment of every node to a block `0..k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    k: BlockId,
    assignment: Vec<BlockId>,
}

impl Partition {
    /// A partition where every node is unassigned (`INVALID_BLOCK`). Useful as
    /// scratch space for algorithms that fill the assignment incrementally.
    pub fn unassigned(k: BlockId, num_nodes: usize) -> Self {
        Partition {
            k,
            assignment: vec![INVALID_BLOCK; num_nodes],
        }
    }

    /// Wraps an explicit assignment vector.
    ///
    /// # Panics
    /// Panics if an entry is `≥ k` (unassigned sentinel excepted).
    pub fn from_assignment(k: BlockId, assignment: Vec<BlockId>) -> Self {
        assert!(
            assignment.iter().all(|&b| b < k || b == INVALID_BLOCK),
            "block id out of range"
        );
        Partition { k, assignment }
    }

    /// Every node in block 0.
    pub fn trivial(k: BlockId, num_nodes: usize) -> Self {
        Partition {
            k,
            assignment: vec![0; num_nodes],
        }
    }

    /// Number of blocks `k`.
    #[inline]
    pub fn k(&self) -> BlockId {
        self.k
    }

    /// Number of nodes covered by the assignment.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.assignment.len()
    }

    /// Block of node `v` (may be `INVALID_BLOCK` if unassigned).
    #[inline]
    pub fn block_of(&self, v: NodeId) -> BlockId {
        self.assignment[v as usize]
    }

    /// Assigns node `v` to block `b`.
    #[inline]
    pub fn assign(&mut self, v: NodeId, b: BlockId) {
        debug_assert!(b < self.k || b == INVALID_BLOCK);
        self.assignment[v as usize] = b;
    }

    /// The raw assignment slice.
    #[inline]
    pub fn assignment(&self) -> &[BlockId] {
        &self.assignment
    }

    /// Appends a new node assigned to block `b`; its id is the previous node
    /// count. Streaming node inserts extend the assignment this way so node
    /// ids stay aligned with a growing
    /// [`DynamicGraph`](crate::dynamic::DynamicGraph).
    #[inline]
    pub fn push(&mut self, b: BlockId) {
        debug_assert!(b < self.k || b == INVALID_BLOCK);
        self.assignment.push(b);
    }

    /// True if every node has been assigned a valid block.
    pub fn is_complete(&self) -> bool {
        self.assignment.iter().all(|&b| b != INVALID_BLOCK)
    }

    /// Total cut `Σ_{i<j} ω(E_ij)` of this partition on `graph`.
    pub fn edge_cut<G: GraphAccess>(&self, graph: &G) -> EdgeWeight {
        debug_assert_eq!(graph.num_nodes(), self.num_nodes());
        let mut cut = 0;
        for u in graph.stored_nodes() {
            let bu = self.block_of(u);
            graph.for_each_edge(u, |v, w| {
                if bu != self.block_of(v) {
                    cut += w;
                }
            });
        }
        cut / 2
    }

    /// Number of boundary nodes (nodes with at least one neighbour in another block).
    pub fn num_boundary_nodes<G: GraphAccess>(&self, graph: &G) -> usize {
        graph
            .stored_nodes()
            .filter(|&v| {
                let b = self.block_of(v);
                graph.edges_of(v).any(|(u, _)| self.block_of(u) != b)
            })
            .count()
    }

    /// The balance bound `L_max = ⌈(1 + ε)·c(V)/k⌉ + max_v c(v)` from §2.
    pub fn l_max<G: GraphAccess>(graph: &G, k: BlockId, epsilon: f64) -> NodeWeight {
        Self::l_max_of(
            graph.total_node_weight(),
            graph.max_node_weight(),
            k,
            epsilon,
        )
    }

    /// [`Self::l_max`] from the total and the heaviest node weight, for
    /// callers that hold those rather than the graph (a distributed level).
    pub fn l_max_of(total: NodeWeight, max: NodeWeight, k: BlockId, epsilon: f64) -> NodeWeight {
        let avg = total as f64 / k as f64;
        ((1.0 + epsilon) * avg).ceil() as NodeWeight + max
    }

    /// The balance of the partition: `max_i c(V_i) / (c(V)/k)`. The paper reports
    /// this as e.g. `1.03` for a 3 % imbalance.
    pub fn balance<G: GraphAccess>(&self, graph: &G) -> f64 {
        let weights = BlockWeights::compute(graph, self);
        let avg = graph.total_node_weight() as f64 / self.k as f64;
        if avg == 0.0 {
            1.0
        } else {
            weights.max() as f64 / avg
        }
    }

    /// True if every block obeys `c(V_i) ≤ L_max(ε)`.
    pub fn is_balanced<G: GraphAccess>(&self, graph: &G, epsilon: f64) -> bool {
        let lmax = Partition::l_max(graph, self.k, epsilon);
        BlockWeights::compute(graph, self)
            .as_slice()
            .iter()
            .all(|&w| w <= lmax)
    }

    /// Validates that the partition is a complete, in-range assignment for `graph`.
    pub fn validate<G: GraphAccess>(&self, graph: &G) -> Result<(), String> {
        if self.num_nodes() != graph.num_nodes() {
            return Err(format!(
                "partition covers {} nodes but the graph has {}",
                self.num_nodes(),
                graph.num_nodes()
            ));
        }
        for (v, &b) in self.assignment.iter().enumerate() {
            if b == INVALID_BLOCK {
                return Err(format!("node {v} is unassigned"));
            }
            if b >= self.k {
                return Err(format!("node {v} assigned to out-of-range block {b}"));
            }
        }
        Ok(())
    }

    /// Number of non-empty blocks.
    pub fn num_nonempty_blocks(&self) -> usize {
        let mut used = vec![false; self.k as usize];
        for &b in &self.assignment {
            if b != INVALID_BLOCK {
                used[b as usize] = true;
            }
        }
        used.iter().filter(|&&u| u).count()
    }

    /// Projects this partition of a coarse graph onto a finer graph, given the
    /// `coarse_of` map (for every fine node, the coarse node it was contracted
    /// into). This is the uncoarsening step of the multilevel scheme.
    pub fn project(&self, coarse_of: &[NodeId]) -> Partition {
        let assignment = coarse_of
            .iter()
            .map(|&c| self.assignment[c as usize])
            .collect();
        Partition {
            k: self.k,
            assignment,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::csr::CsrGraph;

    fn cycle(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i as NodeId, ((i + 1) % n) as NodeId, 1);
        }
        b.build()
    }

    #[test]
    fn edge_cut_of_cycle_halves() {
        let g = cycle(8);
        let p = Partition::from_assignment(2, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(p.edge_cut(&g), 2);
        assert_eq!(p.num_boundary_nodes(&g), 4);
    }

    #[test]
    fn weighted_cut_counts_weights() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 10);
        b.add_edge(1, 2, 3);
        b.add_edge(2, 3, 10);
        let g = b.build();
        let p = Partition::from_assignment(2, vec![0, 0, 1, 1]);
        assert_eq!(p.edge_cut(&g), 3);
    }

    #[test]
    fn balance_and_lmax() {
        let g = cycle(8);
        let p = Partition::from_assignment(2, vec![0, 0, 0, 0, 0, 0, 0, 1]);
        // max block = 7, avg = 4 -> balance 1.75
        assert!((p.balance(&g) - 1.75).abs() < 1e-9);
        // L_max(3 %) = ceil(1.03 * 4) + 1 = 6 < 7 -> infeasible
        assert!(!p.is_balanced(&g, 0.03));
        // with the +max_v c(v) slack, epsilon = 0.5 gives L_max = 7 >= 7
        assert!(p.is_balanced(&g, 0.5));
        assert_eq!(Partition::l_max(&g, 2, 0.0), 5); // 4 + max node weight 1
    }

    #[test]
    fn block_weights_moves() {
        let g = cycle(4);
        let p = Partition::from_assignment(2, vec![0, 0, 1, 1]);
        let mut bw = BlockWeights::compute(&g, &p);
        assert_eq!(bw.weight(0), 2);
        bw.apply_move(0, 1, 1);
        assert_eq!(bw.weight(0), 1);
        assert_eq!(bw.weight(1), 3);
        assert_eq!(bw.max(), 3);
        assert_eq!(bw.min(), 1);
    }

    #[test]
    fn validate_rejects_unassigned_and_out_of_range() {
        let g = cycle(3);
        let p = Partition::unassigned(2, 3);
        assert!(p.validate(&g).is_err());
        assert!(!p.is_complete());
        let p2 = Partition::from_assignment(2, vec![0, 1, 1]);
        assert!(p2.validate(&g).is_ok());
        assert!(p2.is_complete());
        let p3 = Partition::from_assignment(4, vec![0, 3, 1]);
        assert!(p3.validate(&g).is_err() || p3.k() == 4); // in-range for k = 4
        assert_eq!(p3.num_nonempty_blocks(), 3);
    }

    #[test]
    fn project_maps_through_contraction() {
        // Fine graph of 4 nodes contracted into 2 coarse nodes {0,1} -> 0, {2,3} -> 1.
        let coarse_of = vec![0, 0, 1, 1];
        let coarse_partition = Partition::from_assignment(2, vec![0, 1]);
        let fine = coarse_partition.project(&coarse_of);
        assert_eq!(fine.assignment(), &[0, 0, 1, 1]);
    }

    #[test]
    fn trivial_partition_has_zero_cut() {
        let g = cycle(5);
        let p = Partition::trivial(3, 5);
        assert_eq!(p.edge_cut(&g), 0);
        assert_eq!(p.num_nonempty_blocks(), 1);
    }

    #[test]
    #[should_panic(expected = "block id out of range")]
    fn from_assignment_rejects_out_of_range() {
        Partition::from_assignment(2, vec![0, 2]);
    }
}
