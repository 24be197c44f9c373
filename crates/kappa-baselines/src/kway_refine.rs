//! Cheap greedy k-way refinement, the style of local search used by the
//! Metis family: sweep the boundary nodes a few times and move each to the
//! adjacent block with the largest positive gain, provided the move keeps the
//! target block under the weight limit. No hill climbing, no rollback — which
//! is exactly why it is fast and why its quality trails pairwise FM.
//!
//! [`greedy_kway_refinement_indexed`] is a boundary sweep over a
//! [`PartitionState`]: each pass visits, in ascending order, exactly the
//! nodes that are boundary *at visit time* (the pass-start boundary from the
//! index, extended on the fly with higher-id neighbours of moved nodes — the
//! only nodes whose boundary status a move can change), so a pass costs
//! `O(|boundary| log |boundary| + Σ deg)` over visited nodes. Moves go
//! through [`PartitionState::apply_move`], keeping index, weights and cached
//! cut exact. Its test-only twin `greedy_kway_refinement` shares the per-node
//! move rule and visits all `n` nodes per pass, skipping interior ones by
//! inspecting their neighbourhoods (`O(n + m)` per pass however small the
//! boundary); the two are bit-identical because that interior test — "all
//! neighbours in my block" — is precisely non-membership in the boundary
//! index.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kappa_graph::{BlockId, BlockWeights, CsrGraph, NodeId, NodeWeight, PartitionState};

/// The shared move rule: the best strictly-positive-gain move of `v` out of
/// `from`, among the blocks adjacent to `v`, honouring `l_max`. `conn` is a
/// zeroed k-sized scratch, returned zeroed. Returns `None` for interior
/// nodes and nodes with no feasible improving move.
#[inline]
fn best_move_of(
    graph: &CsrGraph,
    block_of: impl Fn(NodeId) -> BlockId,
    weights: &BlockWeights,
    l_max: NodeWeight,
    v: NodeId,
    conn: &mut [i64],
    touched: &mut Vec<BlockId>,
) -> Option<(i64, BlockId)> {
    let from = block_of(v);
    touched.clear();
    for (u, w) in graph.edges_of(v) {
        let b = block_of(u);
        if conn[b as usize] == 0 {
            touched.push(b);
        }
        conn[b as usize] += w as i64;
    }
    let interior = touched.iter().all(|&b| b == from);
    let mut best: Option<(i64, BlockId)> = None;
    if !interior {
        let own_conn = conn[from as usize];
        let vw = graph.node_weight(v);
        for &b in touched.iter() {
            if b == from {
                continue;
            }
            let gain = conn[b as usize] - own_conn;
            if gain > 0
                && weights.weight(b) + vw <= l_max
                && best.map(|(g, _)| gain > g).unwrap_or(true)
            {
                best = Some((gain, b));
            }
        }
    }
    for &b in touched.iter() {
        conn[b as usize] = 0;
    }
    best
}

/// Runs up to `passes` greedy sweeps over the boundary of a
/// [`PartitionState`] (stopping at the first pass without gain); returns the
/// total cut improvement.
///
/// Each pass seeds a min-heap with the current boundary (from the state's
/// index) and walks it in ascending node order. When a node moves, its
/// higher-id neighbours are pushed: they are the only nodes later in the
/// pass whose boundary status the move can change, so a node is boundary at
/// visit time iff it is popped here and still boundary. Interior nodes are
/// never touched.
pub fn greedy_kway_refinement_indexed(
    graph: &CsrGraph,
    state: &mut PartitionState,
    l_max: NodeWeight,
    passes: usize,
) -> i64 {
    let k = state.k();
    let mut total_gain = 0i64;
    let mut conn: Vec<i64> = vec![0; k as usize];
    let mut touched: Vec<BlockId> = Vec::new();
    let mut heap: BinaryHeap<Reverse<NodeId>> = BinaryHeap::new();

    for _ in 0..passes {
        let mut pass_gain = 0i64;
        heap.clear();
        heap.extend(
            state
                .boundary()
                .boundary_nodes_unordered()
                .iter()
                .map(|&v| Reverse(v)),
        );
        let mut last: Option<NodeId> = None;
        while let Some(Reverse(v)) = heap.pop() {
            if last == Some(v) {
                continue; // duplicate push — already visited
            }
            last = Some(v);
            if !state.boundary().is_boundary(v) {
                continue; // left the boundary before its visit position
            }
            let Some((gain, to)) = best_move_of(
                graph,
                |u| state.block_of(u),
                state.weights(),
                l_max,
                v,
                &mut conn,
                &mut touched,
            ) else {
                continue;
            };
            let from = state.block_of(v);
            let vw = graph.node_weight(v);
            // Never drain a block completely.
            if state.weights().weight(from) <= vw {
                continue;
            }
            state.apply_move(graph, v, to);
            pass_gain += gain;
            // The move can only change the boundary status of v's
            // neighbours; those later in the pass must get a visit.
            for &u in graph.neighbors(v) {
                if u > v {
                    heap.push(Reverse(u));
                }
            }
        }
        total_gain += pass_gain;
        if pass_gain == 0 {
            break;
        }
    }
    total_gain
}

#[cfg(test)]
use kappa_graph::Partition;

#[cfg(test)]
/// Runs `passes` greedy full sweeps over all `n` nodes, `O(n + m)` per pass;
/// returns the total cut improvement. The full-sweep twin
/// [`greedy_kway_refinement_indexed`] is checked against.
pub(crate) fn greedy_kway_refinement(
    graph: &CsrGraph,
    partition: &mut Partition,
    l_max: NodeWeight,
    passes: usize,
) -> i64 {
    let k = partition.k();
    let mut weights = BlockWeights::compute(graph, partition);
    let mut total_gain = 0i64;
    let mut conn: Vec<i64> = vec![0; k as usize];
    let mut touched: Vec<BlockId> = Vec::new();

    for _ in 0..passes {
        let mut pass_gain = 0i64;
        for v in graph.nodes() {
            let Some((gain, to)) = best_move_of(
                graph,
                |u| partition.block_of(u),
                &weights,
                l_max,
                v,
                &mut conn,
                &mut touched,
            ) else {
                continue;
            };
            let from = partition.block_of(v);
            let vw = graph.node_weight(v);
            // Never drain a block completely.
            if weights.weight(from) <= vw {
                continue;
            }
            partition.assign(v, to);
            weights.apply_move(from, to, vw);
            pass_gain += gain;
        }
        total_gain += pass_gain;
        if pass_gain == 0 {
            break;
        }
    }
    total_gain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary_graph::arbitrary_graph;
    use kappa_gen::grid::grid2d;
    use kappa_gen::rgg::random_geometric_graph;
    use kappa_initial::random_partition;
    use proptest::prelude::*;

    #[test]
    fn improves_a_noisy_partition() {
        let g = grid2d(16, 16);
        // Stripe partition with 10 % of nodes flipped to the wrong block.
        let assignment = (0..256)
            .map(|i| {
                let stripe = ((i % 16) / 4) as u32;
                if i % 10 == 0 {
                    (stripe + 1) % 4
                } else {
                    stripe
                }
            })
            .collect();
        let mut p = Partition::from_assignment(4, assignment);
        let before = p.edge_cut(&g);
        let l_max = Partition::l_max(&g, 4, 0.05);
        let gain = greedy_kway_refinement(&g, &mut p, l_max, 5);
        let after = p.edge_cut(&g);
        assert_eq!(before as i64 - after as i64, gain);
        assert!(after < before);
        assert!(p.is_balanced(&g, 0.05));
    }

    #[test]
    fn respects_weight_limit() {
        let g = grid2d(8, 8);
        let assignment = (0..64).map(|i| if i % 8 < 4 { 0u32 } else { 1 }).collect();
        let mut p = Partition::from_assignment(2, assignment);
        // A limit exactly at the current block weight forbids any move into
        // either block, so nothing may change.
        let gain = greedy_kway_refinement(&g, &mut p, 32, 3);
        assert_eq!(gain, 0);
        assert!((p.balance(&g) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_passes_is_a_no_op() {
        let g = grid2d(6, 6);
        let mut p = Partition::from_assignment(2, (0..36).map(|i| (i % 2) as u32).collect());
        let before = p.assignment().to_vec();
        assert_eq!(greedy_kway_refinement(&g, &mut p, 100, 0), 0);
        assert_eq!(p.assignment(), &before[..]);
    }

    fn assert_indexed_matches_reference(g: &CsrGraph, p: Partition, l_max: u64, passes: usize) {
        let mut reference = p.clone();
        let gain_ref = greedy_kway_refinement(g, &mut reference, l_max, passes);
        let mut state = PartitionState::build(g, p);
        let gain_idx = greedy_kway_refinement_indexed(g, &mut state, l_max, passes);
        assert_eq!(gain_idx, gain_ref);
        assert_eq!(state.partition().assignment(), reference.assignment());
        state.verify_exact(g).unwrap();
    }

    #[test]
    fn indexed_sweep_is_bit_identical_to_the_full_sweep() {
        let g = grid2d(16, 16);
        let noisy = (0..256)
            .map(|i| {
                let stripe = ((i % 16) / 4) as u32;
                if i % 10 == 0 {
                    (stripe + 1) % 4
                } else {
                    stripe
                }
            })
            .collect();
        assert_indexed_matches_reference(
            &g,
            Partition::from_assignment(4, noisy),
            Partition::l_max(&g, 4, 0.05),
            5,
        );

        // Geometric graph with a scrambled partition: many mid-pass boundary
        // changes exercise the heap-extension path.
        let g = random_geometric_graph(1500, 3);
        let scrambled = (0..1500).map(|i| (i * 7 % 5) as u32).collect();
        assert_indexed_matches_reference(
            &g,
            Partition::from_assignment(5, scrambled),
            Partition::l_max(&g, 5, 0.05),
            4,
        );
    }

    #[test]
    fn indexed_sweep_handles_tight_limits_and_zero_passes() {
        let g = grid2d(8, 8);
        let assignment: Vec<u32> = (0..64).map(|i| if i % 8 < 4 { 0u32 } else { 1 }).collect();
        assert_indexed_matches_reference(
            &g,
            Partition::from_assignment(2, assignment.clone()),
            32,
            3,
        );
        let mut state = PartitionState::build(&g, Partition::from_assignment(2, assignment));
        assert_eq!(greedy_kway_refinement_indexed(&g, &mut state, 100, 0), 0);
        state.verify_exact(&g).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

    // Satellite: the index-backed boundary sweep of the k-way baseline must
    // be bit-identical to the retained full-sweep reference, including the
    // mid-pass boundary growth caused by its own moves.
    #[test]
    fn indexed_kway_refinement_matches_the_full_sweep_reference(
        graph in arbitrary_graph(250),
        k in 2u32..7,
        passes in 1usize..5,
        seed in any::<u64>(),
    ) {
        let start = random_partition(&graph, k, seed);
        let l_max = Partition::l_max(&graph, k, 0.05);
        let mut reference = start.clone();
        let gain_ref = greedy_kway_refinement(&graph, &mut reference, l_max, passes);
        let mut state = PartitionState::build(&graph, start);
        let gain_idx = greedy_kway_refinement_indexed(&graph, &mut state, l_max, passes);
        prop_assert_eq!(gain_idx, gain_ref);
        prop_assert_eq!(state.partition().assignment(), reference.assignment());
        prop_assert!(state.verify_exact(&graph).is_ok());
    }
    }
}
