//! Greedy graph growing partitioning (GGGP).
//!
//! Blocks are grown one after another: block `i` starts from a random
//! still-unassigned seed node and repeatedly absorbs the unassigned node with
//! the largest *gain* (weight of edges into the growing block minus weight of
//! edges to the remaining unassigned nodes) until it reaches its target
//! weight. The last block receives everything that remains, followed by a
//! greedy repair pass that moves nodes out of overloaded blocks.

use std::collections::BinaryHeap;

use kappa_graph::{BlockWeights, CsrGraph, NodeId, Partition, INVALID_BLOCK};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Greedy graph growing into `k` blocks with imbalance tolerance `epsilon`.
pub fn greedy_graph_growing(graph: &CsrGraph, k: u32, epsilon: f64, seed: u64) -> Partition {
    assert!(k >= 1);
    let n = graph.num_nodes();
    let mut partition = Partition::unassigned(k, n);
    if n == 0 {
        return partition;
    }
    if k == 1 {
        return Partition::trivial(1, n);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut remaining_weight = graph.total_node_weight();

    let mut unassigned_count = n;
    let mut node_order: Vec<NodeId> = graph.nodes().collect();
    node_order.shuffle(&mut rng);
    let mut order_cursor = 0usize;

    for block in 0..k - 1 {
        if unassigned_count == 0 {
            break;
        }
        // Target recomputed from what is left so late blocks do not starve, and
        // every still-unfilled block is guaranteed at least one node.
        let remaining_blocks = (k - block) as f64;
        let target = (remaining_weight as f64 / remaining_blocks).ceil() as u64;
        let must_leave = (k - 1 - block) as usize;

        // Seed: next unassigned node in the shuffled order.
        while order_cursor < n && partition.block_of(node_order[order_cursor]) != INVALID_BLOCK {
            order_cursor += 1;
        }
        if order_cursor >= n {
            break;
        }
        let seed_node = node_order[order_cursor];

        // Grow by best gain using a lazy max-heap of (gain, node).
        let mut heap: BinaryHeap<(i64, NodeId)> = BinaryHeap::new();
        let mut block_weight = 0u64;
        heap.push((i64::MAX, seed_node));
        while block_weight < target && unassigned_count > must_leave {
            let Some((_, v)) = heap.pop() else { break };
            if partition.block_of(v) != INVALID_BLOCK {
                continue; // stale entry
            }
            partition.assign(v, block);
            unassigned_count -= 1;
            block_weight += graph.node_weight(v);
            for (u, _) in graph.edges_of(v) {
                if partition.block_of(u) == INVALID_BLOCK {
                    heap.push((gain_into_block(graph, &partition, u, block), u));
                }
            }
        }
        remaining_weight -= block_weight;
    }

    // Everything left goes to the last block.
    for v in graph.nodes() {
        if partition.block_of(v) == INVALID_BLOCK {
            partition.assign(v, k - 1);
        }
    }

    repair_balance(graph, &mut partition, epsilon, &mut rng);
    partition
}

/// Gain of assigning `v` to `block`: edge weight towards the block minus edge
/// weight towards still-unassigned territory (classical GGGP rule).
fn gain_into_block(graph: &CsrGraph, partition: &Partition, v: NodeId, block: u32) -> i64 {
    let mut inside = 0i64;
    let mut outside = 0i64;
    for (u, w) in graph.edges_of(v) {
        if partition.block_of(u) == block {
            inside += w as i64;
        } else if partition.block_of(u) == INVALID_BLOCK {
            outside += w as i64;
        }
    }
    inside - outside
}

/// Moves nodes out of overloaded blocks into the lightest feasible neighbouring
/// block (or the globally lightest block as a fallback) until every block is
/// within `L_max` or no further progress is possible.
pub fn repair_balance(graph: &CsrGraph, partition: &mut Partition, epsilon: f64, rng: &mut StdRng) {
    let k = partition.k();
    let lmax = Partition::l_max(graph, k, epsilon);
    let mut weights = BlockWeights::compute(graph, partition);
    let mut order: Vec<NodeId> = graph.nodes().collect();
    order.shuffle(rng);

    // A few sweeps are plenty for the small graphs this runs on.
    for _ in 0..4 {
        let mut moved_any = false;
        for &v in &order {
            let from = partition.block_of(v);
            if weights.weight(from) <= lmax {
                continue;
            }
            // Prefer the lightest neighbouring block; fall back to the globally
            // lightest block so disconnected overloads can still be fixed.
            let mut best: Option<u32> = None;
            for (u, _) in graph.edges_of(v) {
                let b = partition.block_of(u);
                if b != from
                    && best
                        .map(|cur| weights.weight(b) < weights.weight(cur))
                        .unwrap_or(true)
                {
                    best = Some(b);
                }
            }
            let lightest = (0..k).min_by_key(|&b| weights.weight(b)).expect("k >= 1");
            let to = match best {
                Some(b) if weights.weight(b) <= weights.weight(lightest) + graph.node_weight(v) => {
                    b
                }
                _ => lightest,
            };
            if to == from {
                continue;
            }
            let w = graph.node_weight(v);
            if weights.weight(to) + w < weights.weight(from) {
                partition.assign(v, to);
                weights.apply_move(from, to, w);
                moved_any = true;
            }
        }
        if !moved_any || weights.max() <= lmax {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_gen::grid::grid2d;
    use kappa_gen::rmat::rmat_graph;

    #[test]
    fn produces_complete_balanced_partitions_on_grids() {
        let g = grid2d(16, 16);
        for k in [2u32, 4, 8] {
            let p = greedy_graph_growing(&g, k, 0.03, 11);
            assert!(p.validate(&g).is_ok());
            assert_eq!(p.num_nonempty_blocks() as u32, k);
            assert!(
                p.balance(&g) < 1.30,
                "k = {k}: balance {} too bad",
                p.balance(&g)
            );
        }
    }

    #[test]
    fn cut_is_much_better_than_random() {
        let g = grid2d(20, 20);
        let grown = greedy_graph_growing(&g, 4, 0.03, 3);
        let random = crate::random_partition(&g, 4, 3);
        assert!(grown.edge_cut(&g) * 2 < random.edge_cut(&g));
    }

    #[test]
    fn k_equals_one_is_trivial() {
        let g = grid2d(5, 5);
        let p = greedy_graph_growing(&g, 1, 0.03, 0);
        assert_eq!(p.edge_cut(&g), 0);
        assert!(p.validate(&g).is_ok());
    }

    #[test]
    fn handles_graphs_smaller_than_k() {
        let g = grid2d(2, 2);
        let p = greedy_graph_growing(&g, 8, 0.03, 0);
        assert!(p.validate(&g).is_ok());
    }

    #[test]
    fn works_on_social_graphs() {
        let g = rmat_graph(8, 8, 5);
        let p = greedy_graph_growing(&g, 4, 0.05, 9);
        assert!(p.validate(&g).is_ok());
        // Social graphs are hard to balance perfectly, but the repair pass must
        // keep things sane.
        assert!(p.balance(&g) < 1.6, "balance {}", p.balance(&g));
    }

    #[test]
    fn deterministic_per_seed() {
        let g = grid2d(10, 10);
        let a = greedy_graph_growing(&g, 4, 0.03, 21);
        let b = greedy_graph_growing(&g, 4, 0.03, 21);
        assert_eq!(a.assignment(), b.assignment());
    }
}
