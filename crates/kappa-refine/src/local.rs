//! Localized re-refinement around a touched region.
//!
//! The dynamic-graph service absorbs a stream of mutations into a
//! [`PartitionState`] via its exact `O(deg)` hooks; what drifts is not the
//! state's *consistency* but its *quality* — every insert that lands across
//! the cut raises it. Re-running the whole multilevel pipeline per drift
//! repair would forfeit everything the incremental maintenance bought, and
//! §5.2's own band restriction points at the alternative: cut quality is
//! decided on the boundary, and a mutation can only degrade the boundary
//! *near the mutation*.
//!
//! [`refine_local`] therefore re-runs the pair search of the static pipeline
//! (the scheduler's own local-iteration loop), but scoped: only block pairs
//! adjacent to the touched region are searched, and each search's band is
//! grown (bounded BFS, as always) from the pair boundary **within the
//! region** rather than the global pair boundary. Moves are routed through
//! [`PartitionState::apply_move`], so the state stays exact — the streaming
//! test suite interleaves `refine_local` calls with mutations and still
//! demands field-for-field equality with a from-scratch rebuild.
//!
//! FM itself runs against a `LocalView` (private): the state's partition plus a
//! hash-map overlay of in-flight moves, so a search on a 50-node band does
//! not clone an `n`-node assignment (the sequential analogue of the
//! scheduler's [`DeltaPairView`](crate::delta::DeltaPairView)).

use std::collections::HashMap;

use kappa_graph::{
    BlockAssignment, BlockAssignmentMut, BlockId, GraphAccess, NodeId, Partition, PartitionState,
};

use crate::balance::rebalance_state;
use crate::band::{FirstBand, IndexSeeder};
use crate::scheduler::{search_pair, PairSearch, RefinementConfig, RefinementStats};
use crate::scratch::FmScratch;

/// The state's partition plus an overlay of in-flight FM moves — cheap to
/// create per pair search, regardless of `n`.
struct LocalView<'a> {
    base: &'a Partition,
    overlay: HashMap<NodeId, BlockId>,
}

impl BlockAssignment for LocalView<'_> {
    #[inline]
    fn k(&self) -> BlockId {
        self.base.k()
    }

    #[inline]
    fn block_of(&self, v: NodeId) -> BlockId {
        match self.overlay.get(&v) {
            Some(&b) => b,
            None => self.base.block_of(v),
        }
    }
}

impl BlockAssignmentMut for LocalView<'_> {
    #[inline]
    fn assign(&mut self, v: NodeId, b: BlockId) {
        self.overlay.insert(v, b);
    }
}

/// Sorted, deduplicated closed neighbourhood of `touched` (the nodes plus
/// every neighbour) — the candidate pool seeds and pairs are drawn from.
fn region_closure<G: GraphAccess>(graph: &G, touched: &[NodeId]) -> Vec<NodeId> {
    let n = graph.num_nodes() as NodeId;
    let mut region: Vec<NodeId> = Vec::with_capacity(touched.len() * 4);
    for &v in touched {
        if v >= n {
            continue;
        }
        region.push(v);
        region.extend(graph.edges_of(v).map(|(u, _)| u));
    }
    region.sort_unstable();
    region.dedup();
    region
}

/// The block pairs with at least one cut edge inside the region, ascending.
fn affected_pairs<G: GraphAccess>(
    graph: &G,
    state: &PartitionState,
    region: &[NodeId],
) -> Vec<(BlockId, BlockId)> {
    let mut pairs: Vec<(BlockId, BlockId)> = Vec::new();
    for &v in region {
        let bv = state.block_of(v);
        for (u, _) in graph.edges_of(v) {
            let bu = state.block_of(u);
            if bu != bv {
                pairs.push((bv.min(bu), bv.max(bu)));
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Re-refines the partition held by `state` only around `touched` (typically
/// the endpoints of recently mutated edges and recently inserted nodes).
/// Moves are routed through the state, which is returned exact; `graph` must
/// be the graph the state currently describes — a frozen CSR, or the
/// mutating [`DynamicGraph`](kappa_graph::DynamicGraph) itself, which the
/// dynamic service refines in place.
///
/// `config` is the static pipeline's own refinement configuration: a round
/// over the affected pairs plays the part of a global iteration, so
/// `max_global_iterations` caps the rounds and `stop_after_no_change`
/// gain-free rounds in a row end the pass early; the returned
/// [`RefinementStats`] counts rounds as global iterations.
///
/// Cost is `O(rounds · Σ_pairs band-BFS + FM)` — independent of `n` and `m`
/// except through the band sizes — plus one `O(k)` balance check and, only
/// when the state arrives infeasible, a global rebalance.
///
/// ```
/// use kappa_gen::grid::grid2d;
/// use kappa_graph::{Partition, PartitionState};
/// use kappa_refine::{refine_local, RefinementConfig};
///
/// let graph = grid2d(8, 8);
/// // A ragged split: column 3 of row 0 left in the wrong block.
/// let mut assignment: Vec<u32> = (0..64).map(|i| if i % 8 < 4 { 0 } else { 1 }).collect();
/// assignment[3] = 1;
/// let mut state = PartitionState::build(&graph, Partition::from_assignment(2, assignment));
/// let before = state.edge_cut();
/// let stats = refine_local(&graph, &mut state, &[3], &RefinementConfig::default());
/// assert!(state.edge_cut() < before);
/// assert_eq!(stats.total_gain, before as i64 - state.edge_cut() as i64);
/// assert!(state.verify_exact(&graph).is_ok());
/// ```
pub fn refine_local<G: GraphAccess>(
    graph: &G,
    state: &mut PartitionState,
    touched: &[NodeId],
    config: &RefinementConfig,
) -> RefinementStats {
    let mut stats = RefinementStats::default();
    let k = state.k();
    if k < 2 || graph.num_nodes() == 0 || touched.is_empty() {
        return stats;
    }
    let l_max = Partition::l_max(graph, k, config.epsilon);
    let cut_before = state.edge_cut() as i64;

    // Mutations (node inserts, deletes, reweights) can leave the state
    // infeasible; FM needs a feasible starting point.
    if !state.is_balanced(l_max) {
        stats.nodes_moved += rebalance_state(graph, state, l_max);
    }

    let mut region = region_closure(graph, touched);
    let mut scratch = FmScratch::new();
    let mut no_change_streak = 0usize;

    for round in 0..config.max_global_iterations {
        let pairs = affected_pairs(graph, state, &region);
        if pairs.is_empty() {
            break;
        }
        let mut round_gain = 0i64;
        let mut round_moves: Vec<NodeId> = Vec::new();

        for (pair_idx, &(a, b)) in pairs.iter().enumerate() {
            stats.pairs_considered += 1;
            let mut view = LocalView {
                base: state.partition(),
                overlay: HashMap::new(),
            };
            // Seed candidates: the region's nodes in `a` or `b` (no other can
            // turn pair-boundary in this search), plus the pair's own moves.
            let in_pair = |&v: &NodeId| [a, b].contains(&state.block_of(v));
            let candidates = region.iter().copied().filter(in_pair).collect();
            let mut seeder = IndexSeeder::with_candidates(graph, a, b, candidates);
            let search = PairSearch {
                a,
                b,
                w_a: state.weights().weight(a),
                w_b: state.weights().weight(b),
                l_max,
                config,
                global_iter: round,
                color_idx: pair_idx,
            };
            let delta = search_pair(
                graph,
                &mut view,
                &mut seeder,
                &mut scratch,
                &search,
                FirstBand::Grow,
            );
            stats.count_pair(&delta);
            round_gain += delta.gain;

            // Commit the pair's surviving moves through the state so the next
            // pair (and the caller) sees exact derived state.
            for (v, to) in delta.moves {
                state.apply_move(graph, v, to);
                round_moves.push(v);
            }
        }

        stats.global_iterations += 1;
        if config.converged(&mut no_change_streak, round_gain) {
            break;
        }
        // Moves shift the boundary: widen the region so the next round sees
        // the pairs the moves may have created.
        region.extend_from_slice(&round_moves);
        for &v in &round_moves {
            // `round_moves` aliases `region` growth, but only pre-extension
            // entries are neighbours-expanded here, which is all we need.
            region.extend(graph.edges_of(v).map(|(u, _)| u));
        }
        region.sort_unstable();
        region.dedup();
    }

    debug_assert_eq!(
        state.edge_cut(),
        state.partition().edge_cut(graph),
        "pair cut weights diverged during localized refinement"
    );
    stats.total_gain = cut_before - state.edge_cut() as i64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary_graph::{arbitrary_graph, xorshift};
    use kappa_gen::grid::grid2d;
    use kappa_graph::{CsrGraph, DynamicGraph};
    use proptest::prelude::*;

    fn striped_state(side: usize, k: u32) -> (CsrGraph, PartitionState) {
        let g = grid2d(side, side);
        let assignment = (0..side * side)
            .map(|i| ((i % side) * k as usize / side) as u32)
            .collect();
        let state = PartitionState::build(&g, Partition::from_assignment(k, assignment));
        (g, state)
    }

    #[test]
    fn repairs_a_ragged_cut_and_stays_exact() {
        let (g, mut state) = striped_state(16, 2);
        // Poke three mutually non-adjacent boundary nodes across the cut —
        // each has strictly positive gain to move back, so the repair does
        // not depend on FM tie-breaking through a zero-gain plateau.
        for v in [7u32, 39, 71] {
            state.apply_move(&g, v, 1 - state.block_of(v));
        }
        let before = state.edge_cut();
        let stats = refine_local(&g, &mut state, &[7, 39, 71], &RefinementConfig::default());
        assert!(state.edge_cut() < before, "no improvement");
        assert_eq!(stats.total_gain, before as i64 - state.edge_cut() as i64);
        assert!(stats.pair_searches > 0);
        state.verify_exact(&g).unwrap();
    }

    #[test]
    fn untouched_regions_are_left_alone() {
        let (g, mut state) = striped_state(12, 2);
        let before = state.partition().assignment().to_vec();
        // A touched node whose 2-hop neighbourhood (region closure plus the
        // pair scan) stays inside block 0: no pair is affected, nothing
        // moves. Node 26 is (row 2, col 2); the cut is at col 5|6.
        let stats = refine_local(&g, &mut state, &[26], &RefinementConfig::default());
        assert_eq!(stats.pairs_considered, 0);
        assert_eq!(stats.nodes_moved, 0);
        assert_eq!(state.partition().assignment(), &before[..]);
    }

    #[test]
    fn degenerate_inputs_are_no_ops() {
        let (g, mut state) = striped_state(6, 2);
        let stats = refine_local(&g, &mut state, &[], &RefinementConfig::default());
        assert_eq!(stats.global_iterations, 0);
        // k = 1: nothing to refine.
        let g1 = grid2d(4, 4);
        let mut s1 = PartitionState::build(&g1, Partition::trivial(1, 16));
        let stats = refine_local(&g1, &mut s1, &[0], &RefinementConfig::default());
        assert_eq!(stats.pair_searches, 0);
        // Out-of-range touched ids are ignored, not a panic.
        let stats = refine_local(&g, &mut state, &[9999], &RefinementConfig::default());
        assert_eq!(stats.pairs_considered, 0);
    }

    #[test]
    fn streaming_mutations_then_local_refine_stay_exact() {
        let (g, mut state) = striped_state(10, 2);
        let mut dyn_g = DynamicGraph::new(g);
        // Wire a handful of cross-cut chords in, absorbing each into the
        // state, then repair the drift locally on the live graph itself.
        let mut touched = Vec::new();
        for (u, v) in [(4u32, 5u32), (24, 27), (44, 47), (64, 65)] {
            if dyn_g.edge_weight(u, v).is_none() {
                dyn_g.insert_edge(u, v, 3).unwrap();
                state.apply_edge_insert(u, v, 3);
                touched.push(u);
                touched.push(v);
            }
        }
        state.verify_exact(&dyn_g.to_csr()).unwrap();
        let before = state.edge_cut();
        refine_local(&dyn_g, &mut state, &touched, &RefinementConfig::default());
        assert!(state.edge_cut() <= before);
        state.verify_exact(&dyn_g.to_csr()).unwrap();
    }

    /// A live copy of `graph` after `ops` seeded mutations — edge inserts,
    /// deletes and reweights, node inserts and (cascading) node deletes —
    /// plus the endpoints the stream touched.
    fn mutated(graph: CsrGraph, seed: u64, ops: usize) -> (DynamicGraph, Vec<NodeId>) {
        let mut g = DynamicGraph::new(graph);
        let mut next = xorshift(seed);
        let mut touched = Vec::new();
        for _ in 0..ops {
            let n = g.num_nodes() as u64;
            let (u, v) = ((next() % n) as NodeId, (next() % n) as NodeId);
            let row = if g.is_alive(u) {
                g.edges_of_collected(u)
            } else {
                Vec::new()
            };
            match next() % 6 {
                0 | 1 => drop(g.insert_edge(u, v, 1 + next() % 9)),
                2 if !row.is_empty() => {
                    let (t, _) = row[(next() % row.len() as u64) as usize];
                    g.delete_edge(u, t).unwrap();
                }
                3 if !row.is_empty() => {
                    let (t, _) = row[(next() % row.len() as u64) as usize];
                    g.update_edge(t, u, 1 + next() % 20).unwrap();
                }
                4 => {
                    let id = g.insert_node(1 + next() % 3).unwrap();
                    let _ = g.insert_edge(id, v, 1 + next() % 9);
                    touched.push(id);
                }
                5 if g.is_alive(u) && g.num_live_nodes() > 2 => {
                    for (t, _) in row {
                        g.delete_edge(u, t).unwrap();
                    }
                    g.delete_node(u).unwrap();
                }
                _ => {}
            }
            touched.extend([u, v]);
        }
        (g, touched)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Read through `GraphAccess`, the live graph is its own `to_csr()`
        /// fold: counts, totals, weights and every row, in order.
        #[test]
        fn live_graph_reads_exactly_like_its_fold(
            graph in arbitrary_graph(60),
            seed in any::<u64>(),
            ops in 0usize..200,
        ) {
            let (live, _) = mutated(graph, seed, ops);
            let fold = live.to_csr();
            prop_assert!(fold.validate().is_ok());
            prop_assert_eq!(GraphAccess::num_nodes(&live), fold.num_nodes());
            prop_assert_eq!(live.num_half_edges(), fold.num_half_edges());
            prop_assert_eq!(live.total_node_weight(), fold.total_node_weight());
            prop_assert_eq!(live.max_node_weight(), fold.max_node_weight());
            for v in fold.nodes() {
                prop_assert_eq!(live.degree(v), fold.degree(v));
                prop_assert_eq!(live.node_weight(v), fold.node_weight(v));
                let row: Vec<_> = live.edges_of(v).collect();
                prop_assert_eq!(row, fold.edges_of(v).collect::<Vec<_>>(), "node {}", v);
            }
        }

        /// Refining the live graph in place makes exactly the moves refining
        /// its fold makes — the dynamic service relies on it to skip the fold.
        #[test]
        fn refine_local_on_the_live_graph_matches_its_fold(
            graph in arbitrary_graph(80),
            seed in any::<u64>(),
            k in 2u32..6,
        ) {
            let (live, touched) = mutated(graph, seed, 120);
            let fold = live.to_csr();
            let mut next = xorshift(seed ^ 0x5eed);
            let assignment = fold.nodes().map(|_| (next() % u64::from(k)) as BlockId).collect();
            let partition = Partition::from_assignment(k, assignment);
            let mut on_live = PartitionState::build(&live, partition.clone());
            let mut on_fold = PartitionState::build(&fold, partition);
            let config = RefinementConfig::default();
            let live_stats = refine_local(&live, &mut on_live, &touched, &config);
            let fold_stats = refine_local(&fold, &mut on_fold, &touched, &config);
            prop_assert_eq!(live_stats, fold_stats);
            prop_assert_eq!(on_live.partition().assignment(), on_fold.partition().assignment());
            prop_assert!(on_live.verify_exact(&fold).is_ok());
        }
    }
}
