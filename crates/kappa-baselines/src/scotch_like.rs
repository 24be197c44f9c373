//! A Scotch-like multilevel recursive-bisection partitioner (stand-in for
//! sequential Scotch).
//!
//! Scotch partitions by recursive bisection: each bisection is itself a
//! multilevel run whose refinement is a banded 2-way FM ("band refinement", as
//! the paper notes in §7). Quality sits between the Metis family and KaPPa —
//! about 8–10 % worse than KaPPa-Fast/Strong in Table 4 — because the
//! recursive-bisection frame cannot trade nodes between blocks that were
//! separated early.

use kappa_coarsen::{CoarseningConfig, MatcherKind, MultilevelHierarchy};
use kappa_graph::{extract_subgraph, CsrGraph, NodeId, Partition, PartitionState};
use kappa_initial::greedy_graph_growing;
use kappa_matching::{EdgeRating, MatchingAlgorithm};
use kappa_refine::{rebalance_state, refine_partition, QueueSelection, RefinementConfig};

use crate::BaselinePartitioner;

/// BFS band depth of the 2-way refinement.
const BAND_DEPTH: usize = 3;
/// Coarsening stop per bisection (nodes).
const COARSEN_STOP: usize = 120;

/// Scotch-like multilevel recursive-bisection partitioner.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScotchLike;

/// One multilevel 2-way bisection of the subgraph induced by `nodes`,
/// splitting it into `k_left : k_right` weight proportions. Returns the node
/// sets of the two sides.
fn bisect(
    graph: &CsrGraph,
    nodes: &[NodeId],
    k_left: u32,
    k_right: u32,
    epsilon: f64,
    seed: u64,
) -> (Vec<NodeId>, Vec<NodeId>) {
    let sub = extract_subgraph(graph, nodes);

    // Multilevel 2-way partition of the subgraph.
    let coarsen_config = CoarseningConfig {
        stop_at_nodes: COARSEN_STOP,
        seed,
    };
    let hierarchy = MultilevelHierarchy::build(
        &sub.graph,
        MatcherKind::Sequential(MatchingAlgorithm::Greedy),
        EdgeRating::ExpansionStar,
        &coarsen_config,
    );
    let coarsest = hierarchy.coarsest();
    // Unequal target sizes are emulated by growing the first block to the
    // k_left share; greedy_graph_growing targets c(V)/2 for k = 2, so for
    // uneven splits we bias via epsilon on the lighter side.
    let current = greedy_graph_growing(coarsest, 2, epsilon, seed);
    let refinement_config = RefinementConfig {
        epsilon,
        bfs_depth: BAND_DEPTH,
        max_global_iterations: 4,
        local_iterations: 1,
        stop_after_no_change: 1,
        queue_selection: QueueSelection::Alternate,
        patience_alpha: 0.03,
        seed,
    };
    let mut state = hierarchy.uncoarsen(current, |fine, state| {
        refine_partition(fine, state, &refinement_config);
    });

    // For uneven splits (k_left != k_right) shift boundary weight greedily:
    // the 2-way refinement above targeted a 50:50 split, so rebalance the
    // halves towards the k_left : k_right proportion by moving the cheapest
    // boundary nodes.
    if k_left != k_right {
        rebalance_to_proportion(&sub.graph, &mut state, k_left, k_right, epsilon);
    }

    let (mut left, mut right) = (Vec::new(), Vec::new());
    for v in 0..sub.graph.num_nodes() as NodeId {
        let parent = sub.parent_of(v);
        if state.block_of(v) == 0 {
            left.push(parent);
        } else {
            right.push(parent);
        }
    }
    (left, right)
}

fn partition_recursive(
    graph: &CsrGraph,
    nodes: &[NodeId],
    first_block: u32,
    num_blocks: u32,
    epsilon: f64,
    seed: u64,
    partition: &mut Partition,
) {
    if num_blocks <= 1 {
        for &v in nodes {
            partition.assign(v, first_block);
        }
        return;
    }
    let k_left = num_blocks / 2;
    let k_right = num_blocks - k_left;
    let (left, right) = bisect(graph, nodes, k_left, k_right, epsilon, seed);
    partition_recursive(
        graph,
        &left,
        first_block,
        k_left,
        epsilon,
        seed.wrapping_add(1),
        partition,
    );
    partition_recursive(
        graph,
        &right,
        first_block + k_left,
        k_right,
        epsilon,
        seed.wrapping_add(2),
        partition,
    );
}

/// Moves the cheapest boundary nodes from the heavier-than-proportional side to
/// the other until the `k_left : k_right` weight proportion is roughly met.
/// In a 2-way partition a node with a neighbour on the other side is exactly
/// a boundary node, so the candidates come from the state's boundary index.
fn rebalance_to_proportion(
    graph: &CsrGraph,
    state: &mut PartitionState,
    k_left: u32,
    k_right: u32,
    epsilon: f64,
) {
    let total = graph.total_node_weight() as f64;
    let target_left = total * k_left as f64 / (k_left + k_right) as f64;
    // The left block may hold at most target_left*(1+ε), the right block the
    // rest.
    let l_max_left = (target_left * (1.0 + epsilon)) as u64 + graph.max_node_weight();
    let l_max_right = (total - target_left) as u64
        + ((total - target_left) * epsilon) as u64
        + graph.max_node_weight();
    // While a side exceeds its bound, move its cheapest boundary node.
    for _ in 0..graph.num_nodes() {
        let weights = state.weights();
        let (over, to) = if weights.weight(0) > l_max_left {
            (0u32, 1u32)
        } else if weights.weight(1) > l_max_right {
            (1u32, 0u32)
        } else {
            break;
        };
        // Edge weight kept inside `over` minus edge weight cut.
        let cost = |v: NodeId| -> i64 {
            graph
                .edges_of(v)
                .map(|(u, w)| {
                    if state.block_of(u) == over {
                        w as i64
                    } else {
                        -(w as i64)
                    }
                })
                .sum()
        };
        let best = state
            .boundary()
            .boundary_nodes_unordered()
            .iter()
            .copied()
            .filter(|&v| state.block_of(v) == over)
            .min_by_key(|&v| (cost(v), v));
        let Some(v) = best else { break };
        state.apply_move(graph, v, to);
    }
}

impl BaselinePartitioner for ScotchLike {
    fn name(&self) -> &'static str {
        "scotch-like"
    }

    fn partition(&self, graph: &CsrGraph, k: u32, epsilon: f64, seed: u64) -> Partition {
        let k = k.max(1);
        let n = graph.num_nodes();
        if n == 0 || k == 1 {
            return Partition::trivial(k, n);
        }
        let mut partition = Partition::unassigned(k, n);
        let all_nodes: Vec<NodeId> = graph.nodes().collect();
        partition_recursive(graph, &all_nodes, 0, k, epsilon, seed, &mut partition);
        // Recursive bisection can leave slight global imbalance; repair it like
        // Scotch's final balancing step does.
        let l_max = Partition::l_max(graph, k, epsilon);
        if !partition.is_balanced(graph, epsilon) {
            let mut state = PartitionState::build(graph, partition);
            rebalance_state(graph, &mut state, l_max);
            partition = state.into_partition();
        }
        partition
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_gen::grid::grid2d;
    use kappa_gen::rgg::random_geometric_graph;

    #[test]
    fn produces_feasible_partitions_for_powers_of_two() {
        let g = grid2d(24, 24);
        for k in [2u32, 4, 8] {
            let p = ScotchLike.partition(&g, k, 0.03, 1);
            assert!(p.validate(&g).is_ok(), "k = {k}");
            assert_eq!(p.num_nonempty_blocks() as u32, k);
            assert!(p.is_balanced(&g, 0.03), "k = {k} balance {}", p.balance(&g));
        }
    }

    #[test]
    fn handles_odd_k() {
        let g = random_geometric_graph(2000, 4);
        let p = ScotchLike.partition(&g, 6, 0.05, 2);
        assert!(p.validate(&g).is_ok());
        assert_eq!(p.num_nonempty_blocks(), 6);
        assert!(p.balance(&g) < 1.35, "balance {}", p.balance(&g));
    }

    #[test]
    fn two_way_grid_cut_is_near_optimal() {
        let g = grid2d(20, 20);
        let p = ScotchLike.partition(&g, 2, 0.03, 3);
        // Optimal is 20; multilevel bisection with FM should land close.
        assert!(p.edge_cut(&g) <= 40, "cut {}", p.edge_cut(&g));
    }

    /// The instances `tests/golden.rs` pins (ε = 0.03, seed 1): on each the
    /// bisection tree alone ends infeasible, so `partition` runs the final
    /// balance repair and the golden rows cover it.
    #[test]
    fn final_repair_fires_on_the_golden_instances() {
        let instances = [random_geometric_graph(1 << 12, 17), grid2d(64, 64)];
        for g in &instances {
            for k in [4u32, 8] {
                let mut p = Partition::unassigned(k, g.num_nodes());
                let all: Vec<NodeId> = g.nodes().collect();
                partition_recursive(g, &all, 0, k, 0.03, 1, &mut p);
                assert!(!p.is_balanced(g, 0.03), "k = {k}: nothing to repair");
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let p = ScotchLike.partition(&CsrGraph::empty(), 4, 0.03, 0);
        assert_eq!(p.num_nodes(), 0);
        let g = grid2d(2, 2);
        let p = ScotchLike.partition(&g, 1, 0.03, 0);
        assert_eq!(p.edge_cut(&g), 0);
    }
}
