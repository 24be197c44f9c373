//! K-way greedy rebalancing.
//!
//! After projecting the initial partition down the hierarchy (or when a very
//! coarse graph simply cannot be split feasibly because its node weights are
//! lumpy), individual blocks may exceed `L_max`. The paper's refinement keeps
//! feasibility through the MaxLoad exception inside FM; this module provides
//! the complementary k-way repair pass: repeatedly move the cheapest boundary
//! node (smallest cut increase) out of an overloaded block into its lightest
//! adjacent block until every block fits or no move helps.
//!
//! [`rebalance_state`] is the entry point: it enumerates candidates from the
//! [`PartitionState`]'s boundary index (only boundary nodes can move cheaply
//! — an interior node has no adjacent block to move to), keeps their
//! connectivity while their block stays overloaded (a move updates only the
//! moved node's neighbours) and routes every move through
//! [`PartitionState::apply_move`], so the index, weights and pair cut
//! weights stay exact. Its test-only full-scan twin `rebalance` scans every
//! node per move and writes a bare `Partition`; both pick the minimum of the
//! same candidate tuple set, so they are bit-identical (this module's tests
//! and `scheduler::tests`).

use std::collections::HashMap;

use kappa_graph::{
    BlockAssignment, BlockId, BlockWeights, GraphAccess, NodeId, NodeWeight, Partition,
    PartitionState,
};

/// Candidate move: `(cut delta, resulting target weight, node, target block)`.
/// The tuple ordering makes "cheapest cut increase, then lightest target,
/// then smallest node id" the unique minimum, independent of scan order.
type Candidate = (i64, NodeWeight, NodeId, BlockId);

/// Scores every feasible move of boundary node `v` out of `over_block` and
/// returns the best as `(cut delta, resulting target weight, target block)`,
/// or `None` when no adjacent block can take `v`.
///
/// Shared verbatim by [`rebalance_state`], its test-only full-scan twin and
/// the distributed rebalancer (kappa-dist, which allreduce-mins the per-rank
/// winners), so the three cannot drift: all pick the minimum of the same
/// candidate tuples.
pub fn best_move_of<G: GraphAccess, A: BlockAssignment>(
    graph: &G,
    assignment: &A,
    weights: &BlockWeights,
    over_block: BlockId,
    l_max: NodeWeight,
    v: NodeId,
) -> Option<(i64, NodeWeight, BlockId)> {
    let (to_own, per_block) = connectivity(graph, assignment, over_block, v);
    best_option(to_own, &per_block, weights, graph.node_weight(v), l_max)
}

/// `v`'s connectivity: its edge weight into `over_block`, and `(block, edge
/// weight)` for every other adjacent block.
fn connectivity<G: GraphAccess, A: BlockAssignment>(
    graph: &G,
    assignment: &A,
    over_block: BlockId,
    v: NodeId,
) -> (i64, Vec<(BlockId, i64)>) {
    let mut to_own = 0i64;
    let mut per_block: Vec<(BlockId, i64)> = Vec::new();
    for (u, w) in graph.edges_of(v) {
        let bu = assignment.block_of(u);
        if bu == over_block {
            to_own += w as i64;
        } else if let Some(entry) = per_block.iter_mut().find(|(b, _)| *b == bu) {
            entry.1 += w as i64;
        } else {
            per_block.push((bu, w as i64));
        }
    }
    (to_own, per_block)
}

/// The best feasible move of a node of weight `vw` with connectivity
/// `to_own` / `per_block` (see [`connectivity`]).
fn best_option(
    to_own: i64,
    per_block: &[(BlockId, i64)],
    weights: &BlockWeights,
    vw: NodeWeight,
    l_max: NodeWeight,
) -> Option<(i64, NodeWeight, BlockId)> {
    let mut best: Option<(i64, NodeWeight, BlockId)> = None;
    for &(to, conn) in per_block {
        if weights.weight(to) + vw > l_max {
            continue; // would just shift the overload
        }
        let delta = to_own - conn; // cut increase (negative = improvement)
        let candidate = (delta, weights.weight(to) + vw, to);
        if best.map(|b| candidate < b).unwrap_or(true) {
            best = Some(candidate);
        }
    }
    best
}

/// Scores the fallback move of node `v` (which must be in `over_block`) into
/// the globally `lightest` block — used when no boundary move is feasible.
/// Returns `(cut delta, resulting target weight, target block)`.
pub fn fallback_move_of<G: GraphAccess, A: BlockAssignment>(
    graph: &G,
    assignment: &A,
    weights: &BlockWeights,
    over_block: BlockId,
    lightest: BlockId,
    l_max: NodeWeight,
    v: NodeId,
) -> Option<(i64, NodeWeight, BlockId)> {
    let vw = graph.node_weight(v);
    if weights.weight(lightest) + vw > l_max {
        return None;
    }
    let to_own: i64 = graph
        .edges_of(v)
        .filter(|&(u, _)| assignment.block_of(u) == over_block)
        .map(|(_, w)| w as i64)
        .sum();
    Some((to_own, weights.weight(lightest) + vw, lightest))
}

/// The block every fallback move targets: the globally lightest one (smallest
/// id on ties — `min_by_key` keeps the first minimum). `None` when it is the
/// overloaded block itself, i.e. no fallback exists.
pub fn fallback_target(k: BlockId, weights: &BlockWeights, over_block: BlockId) -> Option<BlockId> {
    let lightest = (0..k).min_by_key(|&b| weights.weight(b))?;
    (lightest != over_block).then_some(lightest)
}

fn fold_candidate(best: &mut Option<Candidate>, candidate: Candidate) {
    if best.map(|b| candidate < b).unwrap_or(true) {
        *best = Some(candidate);
    }
}

/// The fallback when no boundary move is feasible: move an interior node of
/// `over_block` into the globally lightest block. Full scan in both paths —
/// it only runs when the cheap phase found nothing.
fn fallback_candidate<G: GraphAccess>(
    graph: &G,
    partition: &Partition,
    weights: &BlockWeights,
    over_block: BlockId,
    l_max: NodeWeight,
) -> Option<Candidate> {
    let lightest = fallback_target(partition.k(), weights, over_block)?;
    let mut best: Option<Candidate> = None;
    for v in graph.nodes() {
        if partition.block_of(v) != over_block {
            continue;
        }
        if let Some((delta, tw, to)) =
            fallback_move_of(graph, partition, weights, over_block, lightest, l_max, v)
        {
            fold_candidate(&mut best, (delta, tw, v, to));
        }
    }
    best
}

/// The candidates of one overloaded block: every node of it with a
/// neighbour in another block, with the connectivity [`best_move_of`]
/// scores, kept exact across moves.
struct Candidates {
    block: BlockId,
    nodes: Vec<Connected>,
    /// Where each candidate sits in `nodes`.
    at: HashMap<NodeId, usize>,
}

/// A node of the overloaded block and its connectivity.
struct Connected {
    v: NodeId,
    weight: NodeWeight,
    /// Edge weight into the overloaded block.
    to_own: i64,
    /// `(block, edge weight)` for every other adjacent block.
    per_block: Vec<(BlockId, i64)>,
}

impl Candidates {
    /// One row read per boundary node of `block`.
    fn build<G: GraphAccess>(graph: &G, state: &PartitionState, block: BlockId) -> Self {
        let mut candidates = Candidates {
            block,
            nodes: Vec::new(),
            at: HashMap::new(),
        };
        for &v in state.boundary().boundary_nodes_unordered() {
            if state.partition().block_of(v) == block {
                candidates.add(graph, state, v);
            }
        }
        candidates
    }

    fn add<G: GraphAccess>(&mut self, graph: &G, state: &PartitionState, v: NodeId) {
        let (to_own, per_block) = connectivity(graph, state.partition(), self.block, v);
        self.at.insert(v, self.nodes.len());
        self.nodes.push(Connected {
            v,
            weight: graph.node_weight(v),
            to_own,
            per_block,
        });
    }

    /// The full scan's choice: the minimum candidate tuple.
    fn best(&self, weights: &BlockWeights, l_max: NodeWeight) -> Option<Candidate> {
        let scored = self.nodes.iter().filter_map(|c| {
            let (delta, tw, to) = best_option(c.to_own, &c.per_block, weights, c.weight, l_max)?;
            Some((delta, tw, c.v, to))
        });
        scored.min()
    }

    /// Follows the move of `v` from the block to `to`: `v` leaves the
    /// candidates, and each neighbour in the block moves the edge weight
    /// it shares with `v` from the block to `to` (a neighbour that had no
    /// other block becomes a candidate, from its row).
    fn moved<G: GraphAccess>(&mut self, graph: &G, state: &PartitionState, v: NodeId, to: BlockId) {
        if let Some(i) = self.at.remove(&v) {
            self.nodes.swap_remove(i);
            if let Some(swapped) = self.nodes.get(i) {
                self.at.insert(swapped.v, i);
            }
        }
        for (u, w) in graph.edges_of(v) {
            if state.partition().block_of(u) != self.block {
                continue;
            }
            let Some(&i) = self.at.get(&u) else {
                self.add(graph, state, u);
                continue;
            };
            let c = &mut self.nodes[i];
            c.to_own -= w as i64;
            match c.per_block.iter_mut().find(|(b, _)| *b == to) {
                Some(entry) => entry.1 += w as i64,
                None => c.per_block.push((to, w as i64)),
            }
        }
    }
}

/// Moves nodes out of overloaded blocks until all blocks obey `l_max` or no
/// further progress is possible. Returns the number of nodes moved.
///
/// Candidates come from the state's boundary index, read once per
/// overloaded block: a move changes the connectivity of only the moved
/// node's neighbours, which the candidate table updates from the moved node's
/// row, so each move scores every candidate without reading its row and
/// takes the minimum tuple, the full scan's choice. Every move goes
/// through [`PartitionState::apply_move`], keeping the index, weights and
/// pair cut weights exact.
pub fn rebalance_state<G: GraphAccess>(
    graph: &G,
    state: &mut PartitionState,
    l_max: NodeWeight,
) -> usize {
    let k = state.k();
    let mut moved = 0usize;
    let mut candidates: Option<Candidates> = None;

    for _ in 0..graph.num_nodes().saturating_mul(2).max(8) {
        let Some(over_block) = (0..k).find(|&b| state.weights().weight(b) > l_max) else {
            break;
        };
        let cached = candidates.take().filter(|c| c.block == over_block);
        let current = cached.unwrap_or_else(|| Candidates::build(graph, state, over_block));
        let best = current.best(state.weights(), l_max).or_else(|| {
            fallback_candidate(graph, state.partition(), state.weights(), over_block, l_max)
        });
        let Some((_, _, v, to)) = best else { break };
        state.apply_move(graph, v, to);
        moved += 1;
        let current = candidates.insert(current);
        current.moved(graph, state, v, to);
    }
    moved
}

#[cfg(test)]
/// The full-scan twin of [`rebalance_state`] on a bare [`Partition`]: it
/// recomputes the block weights on entry and scans every node per move.
/// Bit-identical to it — the candidate sets coincide (interior nodes never
/// produce candidates) and both take the unique minimum candidate tuple.
pub(crate) fn rebalance<G: GraphAccess>(
    graph: &G,
    partition: &mut Partition,
    l_max: NodeWeight,
) -> usize {
    let k = partition.k();
    let mut weights = BlockWeights::compute(graph, partition);
    let mut moved = 0usize;

    // Each iteration moves one node; cap the total number of moves at 2n as a
    // safety net against oscillation on pathological inputs.
    for _ in 0..graph.num_nodes().saturating_mul(2).max(8) {
        let Some(over_block) = (0..k).find(|&b| weights.weight(b) > l_max) else {
            break;
        };
        // Candidate moves: boundary nodes of the overloaded block, scored by
        // (cut increase, resulting target weight). Interior nodes have no
        // foreign neighbours, so the full scan only ever collects candidates
        // from boundary nodes.
        let mut best: Option<Candidate> = None;
        for v in graph.nodes() {
            if partition.block_of(v) != over_block {
                continue;
            }
            if let Some((delta, tw, to)) =
                best_move_of(graph, partition, &weights, over_block, l_max, v)
            {
                fold_candidate(&mut best, (delta, tw, v, to));
            }
        }
        if best.is_none() {
            best = fallback_candidate(graph, partition, &weights, over_block, l_max);
        }
        let Some((_, _, v, to)) = best else { break };
        let from = partition.block_of(v);
        let vw = graph.node_weight(v);
        partition.assign(v, to);
        weights.apply_move(from, to, vw);
        moved += 1;
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_gen::grid::grid2d;

    #[test]
    fn repairs_an_overloaded_block() {
        let g = grid2d(8, 8);
        // 3/4 of the grid in block 0.
        let assignment = (0..64).map(|i| if i % 8 < 6 { 0u32 } else { 1 }).collect();
        let mut p = Partition::from_assignment(2, assignment);
        let l_max = Partition::l_max(&g, 2, 0.03);
        assert!(!p.is_balanced(&g, 0.03));
        let moved = rebalance(&g, &mut p, l_max);
        assert!(moved > 0);
        assert!(p.is_balanced(&g, 0.03), "balance {}", p.balance(&g));
        assert!(p.validate(&g).is_ok());
    }

    #[test]
    fn balanced_input_is_untouched() {
        let g = grid2d(8, 8);
        let assignment = (0..64).map(|i| if i % 8 < 4 { 0u32 } else { 1 }).collect();
        let mut p = Partition::from_assignment(2, assignment);
        let before = p.assignment().to_vec();
        let moved = rebalance(&g, &mut p, Partition::l_max(&g, 2, 0.03));
        assert_eq!(moved, 0);
        assert_eq!(p.assignment(), &before[..]);
    }

    #[test]
    fn prefers_cheap_moves() {
        let g = grid2d(10, 10);
        let assignment = (0..100)
            .map(|i| if i % 10 < 7 { 0u32 } else { 1 })
            .collect();
        let mut p = Partition::from_assignment(2, assignment);
        let cut_before = p.edge_cut(&g);
        rebalance(&g, &mut p, Partition::l_max(&g, 2, 0.03));
        // Rebalancing a stripe split should not blow the cut up by more than a
        // small factor (it shifts the boundary column by column).
        assert!(p.edge_cut(&g) <= cut_before * 2);
        assert!(p.is_balanced(&g, 0.03));
    }

    #[test]
    fn many_blocks_rebalance() {
        let g = grid2d(12, 12);
        // Everything in block 0, k = 4: maximally unbalanced.
        let mut p = Partition::trivial(4, 144);
        let l_max = Partition::l_max(&g, 4, 0.05);
        rebalance(&g, &mut p, l_max);
        assert!(p.is_balanced(&g, 0.05), "balance {}", p.balance(&g));
    }

    #[test]
    fn state_rebalance_is_bit_identical_and_keeps_the_state_exact() {
        for (w, h, k, stripe) in [
            (8usize, 8usize, 2u32, 6usize),
            (12, 12, 4, 9),
            (10, 7, 3, 8),
        ] {
            let g = grid2d(w, h);
            let assignment = (0..w * h)
                .map(|i| {
                    if i % w < stripe {
                        0u32
                    } else {
                        (i % k as usize) as u32
                    }
                })
                .collect();
            let p = Partition::from_assignment(k, assignment);
            let l_max = Partition::l_max(&g, k, 0.03);
            let mut reference = p.clone();
            let moved_ref = rebalance(&g, &mut reference, l_max);
            let mut state = PartitionState::build(&g, p);
            let moved_state = rebalance_state(&g, &mut state, l_max);
            assert_eq!(moved_state, moved_ref, "{w}x{h} k={k}");
            assert_eq!(state.partition().assignment(), reference.assignment());
            state.verify_exact(&g).unwrap();
        }
    }

    #[test]
    fn cached_rebalance_matches_the_full_scan_on_weighted_random_graphs() {
        // Weighted nodes and edges, k up to 8, several overloaded blocks in
        // turn: the cached candidates must pick the full scan's every move.
        for seed in 1..=6u64 {
            let base = kappa_gen::random_geometric_graph(600, seed);
            let mut x = seed;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut b = kappa_graph::GraphBuilder::with_node_weights(
                (0..600).map(|_| 1 + next() % 4).collect(),
            );
            for (u, v, _) in base.undirected_edges() {
                b.add_edge(u, v, 1 + next() % 6);
            }
            let g = b.build();
            let k = 2 + (seed % 7) as u32;
            let assignment = (0..600)
                .map(|i| match (next() % 3, i) {
                    (0, _) | (_, 550..) => (i % k as usize) as u32,
                    (_, 0..450) => seed as u32 % k,
                    _ => (seed as u32 + 1) % k,
                })
                .collect();
            let p = Partition::from_assignment(k, assignment);
            let l_max = Partition::l_max(&g, k, 0.03);
            let mut reference = p.clone();
            let moved_ref = rebalance(&g, &mut reference, l_max);
            let mut state = PartitionState::build(&g, p);
            let moved_state = rebalance_state(&g, &mut state, l_max);
            assert!(moved_ref > 0, "seed {seed}: nothing to rebalance");
            assert_eq!(moved_state, moved_ref, "seed {seed}");
            assert_eq!(state.partition().assignment(), reference.assignment());
            state.verify_exact(&g).unwrap();
        }
    }

    #[test]
    fn state_rebalance_handles_the_interior_fallback() {
        // Everything in block 0 (no boundary at all): only the fallback can
        // make progress, and it must match the reference exactly.
        let g = grid2d(6, 6);
        let p = Partition::trivial(3, 36);
        let l_max = Partition::l_max(&g, 3, 0.05);
        let mut reference = p.clone();
        rebalance(&g, &mut reference, l_max);
        let mut state = PartitionState::build(&g, p);
        rebalance_state(&g, &mut state, l_max);
        assert_eq!(state.partition().assignment(), reference.assignment());
        assert!(state.is_balanced(l_max));
        state.verify_exact(&g).unwrap();
    }
}
