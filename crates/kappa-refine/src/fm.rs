//! The 2-way Fiduccia–Mattheyses local search (§5.2 of the paper).
//!
//! For the two blocks `A`, `B` under consideration a PE keeps one priority
//! queue of movable nodes per block, keyed by gain (decrease in cut when the
//! node switches sides). Queues are initialised in random order with the nodes
//! at the pair boundary (restricted to the *band* the caller supplies). Each
//! node moves at most once per search. The queue to serve next is chosen by a
//! [`QueueSelection`] strategy; the search stops when both queues are empty or
//! more than [`patience_bound`] consecutive moves failed to improve the best
//! seen state; finally the move sequence is rolled back to the prefix with the
//! lexicographically smallest `(imbalance, cut)`, where
//! `imbalance = max(0, c(A) − L_max, c(B) − L_max)`.
//!
//! The paper phrases the adaptive stopping rule as `α·min(|A|, |B|)` over the
//! block sizes; since the search can only ever move *band* nodes, this
//! implementation deliberately evaluates the bound over the band-restricted
//! node counts of the two sides (see [`patience_bound`] for the rationale).

use std::collections::BinaryHeap;

use kappa_graph::{
    BlockAssignment, BlockAssignmentMut, BlockId, GraphAccess, NodeId, NodeWeight, INVALID_NODE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::band::PairBand;
use crate::queue_select::QueueSelection;
use crate::scratch::FmScratch;

/// The adaptive stopping bound of one 2-way FM search: the search aborts
/// after this many consecutive moves without improvement.
///
/// The paper (§5.2) gives the rule as `α·min(|A|, |B|)` over the block sizes.
/// This implementation evaluates it over the **band-restricted** node counts
/// of the two sides — `band_count_a` / `band_count_b` are the numbers of
/// eligible (movable) nodes currently in each block — because the search can
/// only ever move band nodes: patience proportional to the full block sizes
/// would make the abort horizon scale with `n` even when only a handful of
/// nodes is searchable, reintroducing exactly the `n`-dependence the banded
/// search exists to avoid. The floor of 8 keeps tiny bands from aborting
/// before the first improving move can be found.
pub fn patience_bound(alpha: f64, band_count_a: usize, band_count_b: usize) -> usize {
    ((alpha * band_count_a.min(band_count_b) as f64).ceil() as usize).max(8)
}

/// The FM seed of one pair search, derived from the refinement base seed and
/// the search coordinates `(global iteration, colour index, local iteration,
/// block pair)`.
///
/// Reached only through [`RefinementConfig::fm_config`](crate::RefinementConfig::fm_config),
/// so every scheduler seeds identical searches for identical coordinates.
pub(crate) fn pair_search_seed(
    base: u64,
    global_iter: usize,
    color_idx: usize,
    local_iter: usize,
    a: BlockId,
    b: BlockId,
) -> u64 {
    base.wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((global_iter * 1000 + color_idx * 100 + local_iter) as u64)
        .wrapping_add((a as u64) << 32 | b as u64)
}

/// Tuning knobs of a single 2-way FM search.
#[derive(Clone, Copy, Debug)]
pub struct FmConfig {
    /// Queue selection strategy (the paper defaults to `TopGain`).
    pub queue_selection: QueueSelection,
    /// FM patience `α`: the search aborts after
    /// [`patience_bound(α, …)`](patience_bound) consecutive moves without
    /// improvement (1 %, 5 %, 20 % for minimal/fast/strong), where the counts
    /// are the band-restricted sizes of the two sides.
    pub patience_alpha: f64,
    /// Balance bound `L_max` each block must respect.
    pub l_max: NodeWeight,
    /// Seed for random tie-breaking and queue initialisation order.
    pub seed: u64,
}

impl Default for FmConfig {
    fn default() -> Self {
        FmConfig {
            queue_selection: QueueSelection::TopGain,
            patience_alpha: 0.05,
            l_max: NodeWeight::MAX,
            seed: 0,
        }
    }
}

/// Outcome of a 2-way FM search.
#[derive(Clone, Debug, Default)]
pub struct FmResult {
    /// Total decrease in edge cut achieved (never negative after rollback,
    /// unless the search had to fix an imbalance at the price of a worse cut).
    pub gain: i64,
    /// Nodes whose block changed, with their new block.
    pub moves: Vec<(NodeId, BlockId)>,
    /// Number of moves attempted before rollback.
    pub attempted_moves: usize,
}

/// Priority-queue entry; ordered by gain, then a random tie-break key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PqEntry {
    gain: i64,
    tie: u64,
    node: NodeId,
}

impl Ord for PqEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.gain
            .cmp(&other.gain)
            .then(self.tie.cmp(&other.tie))
            .then(self.node.cmp(&other.node))
    }
}
impl PartialOrd for PqEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Lazy per-block priority queue: stale entries (gain changed, node moved, or
/// node no longer in the block) are discarded at pop time.
struct LazyQueue {
    heap: BinaryHeap<PqEntry>,
}

impl LazyQueue {
    fn new() -> Self {
        LazyQueue {
            heap: BinaryHeap::new(),
        }
    }

    fn push(&mut self, node: NodeId, gain: i64, rng: &mut StdRng) {
        self.heap.push(PqEntry {
            gain,
            tie: rng.gen(),
            node,
        });
    }

    /// Drops stale entries and returns the best valid gain without removing
    /// it. `pos` maps nodes to band positions; `gains` and `moved` are
    /// band-indexed. Every queued node is a band node, so its position is
    /// always valid.
    fn peek_valid<A: BlockAssignment>(
        &mut self,
        pos: &[NodeId],
        gains: &[i64],
        moved: &[bool],
        partition: &A,
        block: BlockId,
    ) -> Option<i64> {
        while let Some(top) = self.heap.peek() {
            let p = pos[top.node as usize] as usize;
            let stale = moved[p] || partition.block_of(top.node) != block || gains[p] != top.gain;
            if stale {
                self.heap.pop();
            } else {
                return Some(top.gain);
            }
        }
        None
    }

    fn pop_valid<A: BlockAssignment>(
        &mut self,
        pos: &[NodeId],
        gains: &[i64],
        moved: &[bool],
        partition: &A,
        block: BlockId,
    ) -> Option<NodeId> {
        self.peek_valid(pos, gains, moved, partition, block)?;
        self.heap.pop().map(|e| e.node)
    }
}

/// Runs one 2-way FM search on the pair `(block_a, block_b)`, on a band that
/// arrives with its gains and boundary flags ([`PairBand`]), with
/// caller-provided scratch buffers.
///
/// * `band` — the movable nodes. Nodes outside the band are frozen but still
///   contribute to gains.
/// * `weight_a` / `weight_b` — the *full* current weights of the two blocks
///   (not just the band), needed for the balance bound.
///
/// The partition is mutated in place; the returned [`FmResult::moves`] lists
/// the surviving moves (after rollback) so callers that work on a snapshot or
/// a delta view can replay them. The function is generic over
/// [`BlockAssignmentMut`]: the scheduler passes a
/// [`DeltaPairView`](crate::delta::DeltaPairView) so concurrent pair searches
/// share one read-only base partition instead of cloning it.
///
/// `band` must describe `partition` as it is now: the search reads no
/// adjacency row before its first move — initial gains and the initial
/// queues come from the band — and afterwards only the rows of the nodes it
/// moves. Its working state (`gains` and `moved` indexed by *band position*,
/// the node → band-position map) lives in the band and in `scratch`; the
/// node-indexed map is grown to `n` once and reset at only the touched
/// entries before returning, and the band's buffers are parked in `scratch`
/// for the next band, so a reused scratch makes the whole search allocate
/// `O(|band|)` instead of `O(n)`.
#[allow(clippy::too_many_arguments, reason = "independent borrows of state")]
pub fn two_way_fm_in<G: GraphAccess, P: BlockAssignmentMut>(
    graph: &G,
    partition: &mut P,
    block_a: BlockId,
    block_b: BlockId,
    band: PairBand,
    weight_a: NodeWeight,
    weight_b: NodeWeight,
    config: &FmConfig,
    scratch: &mut FmScratch,
) -> FmResult {
    let mut result = FmResult::default();
    if band.is_empty() {
        scratch.spare = band;
        return result;
    }
    let mut rng = StdRng::seed_from_u64(config.seed);

    scratch.prepare(graph.num_nodes(), band.len());
    let FmScratch { pos, moved, spare } = scratch;
    let PairBand {
        nodes: eligible,
        mut gains,
        on_boundary,
    } = band;
    for (i, &v) in eligible.iter().enumerate() {
        debug_assert!(
            partition.block_of(v) == block_a || partition.block_of(v) == block_b,
            "band node {v} outside the pair"
        );
        debug_assert_eq!(pos[v as usize], INVALID_NODE, "duplicate band node {v}");
        pos[v as usize] = i as NodeId;
    }
    // `pos[v] != INVALID_NODE` now means "v is in the band".

    let mut queue_a = LazyQueue::new();
    let mut queue_b = LazyQueue::new();

    // Initialise with boundary nodes of the band, in random order.
    let mut init: Vec<NodeId> = eligible
        .iter()
        .zip(&on_boundary)
        .filter_map(|(&v, &flagged)| flagged.then_some(v))
        .collect();
    // Fisher-Yates via rand.
    for i in (1..init.len()).rev() {
        init.swap(i, rng.gen_range(0..=i));
    }
    for &v in &init {
        if partition.block_of(v) == block_a {
            queue_a.push(v, gains[pos[v as usize] as usize], &mut rng);
        } else {
            queue_b.push(v, gains[pos[v as usize] as usize], &mut rng);
        }
    }

    // Band-restricted node counts of the two sides for the patience bound
    // (see `patience_bound` for why these, not the full block sizes).
    let count_a = eligible
        .iter()
        .filter(|&&v| partition.block_of(v) == block_a)
        .count();
    let count_b = eligible.len() - count_a;
    let patience = patience_bound(config.patience_alpha, count_a, count_b);

    let mut w_a = weight_a;
    let mut w_b = weight_b;
    let imbalance = |wa: NodeWeight, wb: NodeWeight| -> u64 {
        let over_a = wa.saturating_sub(config.l_max);
        let over_b = wb.saturating_sub(config.l_max);
        over_a.max(over_b)
    };

    // Move log for rollback.
    let mut move_log: Vec<(NodeId, BlockId, BlockId)> = Vec::new(); // (node, from, to)
    let mut cum_gain = 0i64;
    let mut best_gain = 0i64;
    let mut best_imbalance = imbalance(w_a, w_b);
    let mut best_prefix = 0usize;
    let mut since_best = 0usize;
    let mut last_was_a = false;
    let mut failed_pops = 0usize;

    loop {
        if since_best > patience {
            break;
        }
        let ga = queue_a.peek_valid(pos, &gains, moved, partition, block_a);
        let gb = queue_b.peek_valid(pos, &gains, moved, partition, block_b);
        let overloaded = w_a > config.l_max || w_b > config.l_max;
        let Some(from_a) = config
            .queue_selection
            .choose(ga, gb, w_a, w_b, overloaded, last_was_a)
        else {
            break;
        };
        let (queue, from, to) = if from_a {
            (&mut queue_a, block_a, block_b)
        } else {
            (&mut queue_b, block_b, block_a)
        };
        let Some(v) = queue.pop_valid(pos, &gains, moved, partition, from) else {
            // The chosen queue was exhausted after all; try the other side
            // once more on the next iteration (the strategy will see `None`).
            last_was_a = from_a;
            // A failed pop performs no move, so no queue can have refilled
            // since the peek: a second consecutive failure means the strategy
            // keeps selecting an emptied queue and retrying would spin
            // forever. (Unreachable for the built-in strategies, which never
            // select a side whose peeked gain is `None`.)
            if failed_pops > 0 || (ga.is_none() && gb.is_none()) {
                break;
            }
            failed_pops += 1;
            continue;
        };
        failed_pops = 0;
        last_was_a = from_a;

        // Never completely drain a block.
        let vw = graph.node_weight(v);
        let p = pos[v as usize] as usize;
        if (from_a && w_a <= vw) || (!from_a && w_b <= vw) {
            moved[p] = true;
            continue;
        }

        // Apply the move.
        let gain_v = gains[p];
        partition.assign(v, to);
        moved[p] = true;
        if from_a {
            w_a -= vw;
            w_b += vw;
        } else {
            w_b -= vw;
            w_a += vw;
        }
        cum_gain += gain_v;
        move_log.push((v, from, to));
        result.attempted_moves += 1;

        // Update gains of unmoved band neighbours inside the pair.
        for (u, w) in graph.edges_of(v) {
            let pu = pos[u as usize];
            if pu == INVALID_NODE || moved[pu as usize] {
                continue;
            }
            let bu = partition.block_of(u);
            if bu != block_a && bu != block_b {
                continue;
            }
            let delta = if bu == from {
                2 * w as i64
            } else {
                -2 * w as i64
            };
            gains[pu as usize] += delta;
            let q = if bu == block_a {
                &mut queue_a
            } else {
                &mut queue_b
            };
            q.push(u, gains[pu as usize], &mut rng);
        }

        // Track the lexicographically best (imbalance, cut) prefix.
        let imb = imbalance(w_a, w_b);
        if (imb, -cum_gain) < (best_imbalance, -best_gain) {
            best_imbalance = imb;
            best_gain = cum_gain;
            best_prefix = move_log.len();
            since_best = 0;
        } else {
            since_best += 1;
        }
    }

    // Roll back everything after the best prefix.
    for &(v, from, _to) in move_log.iter().skip(best_prefix).rev() {
        partition.assign(v, from);
    }
    result.gain = best_gain;
    result.moves = move_log[..best_prefix]
        .iter()
        .map(|&(v, _from, to)| (v, to))
        .collect();

    // Reset the node-indexed scratch at the touched entries only and park
    // the band's buffers, restoring the reuse contract.
    for &v in &eligible {
        pos[v as usize] = INVALID_NODE;
    }
    *spare = PairBand {
        nodes: eligible,
        gains,
        on_boundary,
    };
    result
}

#[cfg(test)]
/// [`two_way_fm_in`] on a bare node list: allocates a fresh [`FmScratch`] and
/// builds the [`PairBand`] with a depth-0 [`PairBand::around`] — one row
/// visit per listed node (repeats and nodes outside the two blocks are
/// skipped). What the unit tests below drive the search through.
#[allow(clippy::too_many_arguments, reason = "mirrors two_way_fm_in")]
pub(crate) fn two_way_fm<G: GraphAccess, P: BlockAssignmentMut>(
    graph: &G,
    partition: &mut P,
    block_a: BlockId,
    block_b: BlockId,
    eligible: &[NodeId],
    weight_a: NodeWeight,
    weight_b: NodeWeight,
    config: &FmConfig,
) -> FmResult {
    let mut scratch = FmScratch::new();
    let band = PairBand::around(
        graph,
        &*partition,
        eligible,
        (block_a, block_b),
        0,
        &mut scratch,
    );
    two_way_fm_in(
        graph,
        partition,
        block_a,
        block_b,
        band,
        weight_a,
        weight_b,
        config,
        &mut scratch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_gen::grid::grid2d;
    use kappa_graph::{graph_from_edges, BlockWeights, GraphBuilder, Partition};

    fn run_fm(
        graph: &kappa_graph::CsrGraph,
        partition: &mut Partition,
        config: &FmConfig,
    ) -> FmResult {
        let eligible: Vec<NodeId> = graph.nodes().collect();
        let weights = BlockWeights::compute(graph, partition);
        two_way_fm(
            graph,
            partition,
            0,
            1,
            &eligible,
            weights.weight(0),
            weights.weight(1),
            config,
        )
    }

    #[test]
    fn fixes_an_obviously_bad_bisection() {
        // 8x8 grid split by a jagged diagonal-ish assignment; FM should find a
        // clean straight cut (cut 8) or close to it.
        let g = grid2d(8, 8);
        let assignment = (0..64)
            .map(|i| {
                let (x, y) = (i % 8, i / 8);
                if (x + y) % 3 == 0 || x < 4 {
                    0u32
                } else {
                    1
                }
            })
            .collect();
        let mut p = Partition::from_assignment(2, assignment);
        let before = p.edge_cut(&g);
        let config = FmConfig {
            l_max: Partition::l_max(&g, 2, 0.10),
            patience_alpha: 0.5,
            seed: 3,
            ..Default::default()
        };
        let result = run_fm(&g, &mut p, &config);
        let after = p.edge_cut(&g);
        assert_eq!(before as i64 - after as i64, result.gain);
        assert!(after < before, "FM did not improve: {before} -> {after}");
        assert!(p.is_balanced(&g, 0.10), "balance {}", p.balance(&g));
        assert!(p.validate(&g).is_ok());
    }

    #[test]
    fn gain_accounting_matches_recomputed_cut() {
        let g = grid2d(6, 6);
        let assignment = (0..36).map(|i| ((i * 7) % 2) as u32).collect();
        let mut p = Partition::from_assignment(2, assignment);
        let before = p.edge_cut(&g);
        let config = FmConfig {
            l_max: Partition::l_max(&g, 2, 0.20),
            patience_alpha: 1.0,
            seed: 5,
            ..Default::default()
        };
        let result = run_fm(&g, &mut p, &config);
        assert_eq!(before as i64 - p.edge_cut(&g) as i64, result.gain);
        assert!(result.gain >= 0);
    }

    #[test]
    fn respects_the_band_restriction() {
        // Only nodes 0 and 1 are eligible; nothing else may move.
        let g = graph_from_edges(
            6,
            vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)],
        );
        let mut p = Partition::from_assignment(2, vec![0, 1, 0, 1, 0, 1]);
        let weights = BlockWeights::compute(&g, &p);
        let config = FmConfig {
            l_max: 100,
            patience_alpha: 1.0,
            seed: 0,
            ..Default::default()
        };
        let before = p.assignment().to_vec();
        let _ = two_way_fm(
            &g,
            &mut p,
            0,
            1,
            &[0, 1],
            weights.weight(0),
            weights.weight(1),
            &config,
        );
        for v in 2..6 {
            assert_eq!(p.block_of(v), before[v as usize], "frozen node {v} moved");
        }
    }

    #[test]
    fn never_drains_a_block_completely() {
        let g = graph_from_edges(4, vec![(0, 1, 10), (1, 2, 10), (2, 3, 10)]);
        let mut p = Partition::from_assignment(2, vec![0, 1, 1, 1]);
        let config = FmConfig {
            l_max: NodeWeight::MAX,
            patience_alpha: 1.0,
            seed: 1,
            ..Default::default()
        };
        let _ = run_fm(&g, &mut p, &config);
        assert_eq!(p.num_nonempty_blocks(), 2);
    }

    #[test]
    fn maxload_reduces_imbalance() {
        // Start with everything in block 0 except one node; MaxLoad must shift
        // weight towards block 1 even at a cut cost.
        let g = grid2d(6, 6);
        let mut assignment = vec![0u32; 36];
        assignment[35] = 1;
        let mut p = Partition::from_assignment(2, assignment);
        let config = FmConfig {
            queue_selection: QueueSelection::MaxLoad,
            l_max: Partition::l_max(&g, 2, 0.03),
            patience_alpha: 1.0,
            seed: 2,
        };
        let before_imbalance = p.balance(&g);
        let _ = run_fm(&g, &mut p, &config);
        assert!(p.balance(&g) < before_imbalance);
    }

    #[test]
    fn all_strategies_produce_valid_results() {
        let g = grid2d(10, 10);
        for strategy in QueueSelection::all() {
            let assignment = (0..100).map(|i| (i % 2) as u32).collect();
            let mut p = Partition::from_assignment(2, assignment);
            let config = FmConfig {
                queue_selection: strategy,
                l_max: Partition::l_max(&g, 2, 0.05),
                patience_alpha: 0.3,
                seed: 7,
            };
            let before = p.edge_cut(&g);
            let result = run_fm(&g, &mut p, &config);
            assert!(p.validate(&g).is_ok());
            assert_eq!(
                before as i64 - p.edge_cut(&g) as i64,
                result.gain,
                "{:?}",
                strategy
            );
        }
    }

    /// Regression for the patience bound: it is `ceil(α·min(count_a,
    /// count_b))` over the *band-restricted* node counts with a floor of 8 —
    /// not over the full block sizes (see `patience_bound`'s doc for why the
    /// implementation deliberately deviates from the paper's `α·min(|A|,|B|)`
    /// phrasing).
    #[test]
    fn patience_bound_uses_band_counts_with_a_floor() {
        assert_eq!(patience_bound(0.05, 100, 300), 8); // ceil(5) < floor
        assert_eq!(patience_bound(0.05, 1000, 2000), 50);
        assert_eq!(patience_bound(0.05, 2000, 1000), 50); // symmetric
        assert_eq!(patience_bound(0.20, 41, 1_000_000), 9); // ceil(8.2)
        assert_eq!(patience_bound(1.0, 3, 3), 8); // tiny bands hit the floor
        assert_eq!(patience_bound(0.0, 1000, 1000), 8);
        // The bound takes only the band counts — a 64-node band yields the
        // same patience whether the graph has 128 or 10^8 nodes, which is
        // what keeps banded searches O(|band|).
        assert_eq!(patience_bound(0.05, 64, 64), 8);
        assert_eq!(patience_bound(0.5, 64, 64), 32);
    }

    /// The patience actually gates the search: with a large band of mostly
    /// negative-gain nodes, a small α must abort after fewer attempted moves
    /// than α = 1.0 does.
    #[test]
    fn smaller_patience_aborts_earlier() {
        let g = grid2d(24, 24);
        let assignment = (0..576).map(|i| ((i / 24) % 2) as u32).collect();
        let original = Partition::from_assignment(2, assignment);
        let run = |alpha: f64| {
            let mut p = original.clone();
            run_fm(
                &g,
                &mut p,
                &FmConfig {
                    l_max: Partition::l_max(&g, 2, 0.03),
                    patience_alpha: alpha,
                    seed: 11,
                    ..Default::default()
                },
            )
            .attempted_moves
        };
        let impatient = run(0.0); // patience = 8 (the floor)
        let patient = run(1.0); // patience = 288
        assert!(
            impatient < patient,
            "patience had no effect: {impatient} vs {patient}"
        );
    }

    /// A strategy that insists on an emptied queue must not spin the search
    /// loop forever: the termination guard breaks after the second
    /// consecutive failed pop.
    #[test]
    fn terminates_when_strategy_repeatedly_selects_an_emptied_queue() {
        // Block A = {0} with weight 10: the never-drain-a-block rule discards
        // node 0 without moving it, leaving queue A empty while queue B still
        // holds candidates — exactly the state StuckOnA refuses to leave.
        let mut b = GraphBuilder::with_node_weights(vec![10, 1, 1, 1]);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let mut p = Partition::from_assignment(2, vec![0, 1, 1, 1]);
        let result = two_way_fm(
            &g,
            &mut p,
            0,
            1,
            &[0, 1, 2, 3],
            10,
            3,
            &FmConfig {
                queue_selection: QueueSelection::StuckOnA,
                l_max: NodeWeight::MAX,
                patience_alpha: 1.0,
                seed: 0,
            },
        );
        // Reaching this line is the point (no hang); the stuck strategy never
        // successfully serves B, so nothing can have moved.
        assert!(result.moves.is_empty());
        assert_eq!(p.assignment(), &[0, 1, 1, 1]);
    }

    /// A reused scratch must leave no residue: running the same search twice
    /// through one `FmScratch` — with a different search in between — gives
    /// bit-identical results, and matches the fresh-allocation wrapper.
    #[test]
    fn scratch_reuse_is_bit_identical() {
        let g = grid2d(10, 10);
        let assignment: Vec<u32> = (0..100).map(|i| ((i * 13) % 2) as u32).collect();
        let config = FmConfig {
            l_max: Partition::l_max(&g, 2, 0.10),
            patience_alpha: 0.5,
            seed: 17,
            ..Default::default()
        };
        let eligible: Vec<NodeId> = g.nodes().collect();
        let run_fresh = || {
            let mut p = Partition::from_assignment(2, assignment.clone());
            let weights = BlockWeights::compute(&g, &p);
            let r = two_way_fm(
                &g,
                &mut p,
                0,
                1,
                &eligible,
                weights.weight(0),
                weights.weight(1),
                &config,
            );
            (r.gain, r.moves, r.attempted_moves, p)
        };
        let expected = run_fresh();

        let mut scratch = crate::scratch::FmScratch::new();
        for round in 0..3 {
            let mut p = Partition::from_assignment(2, assignment.clone());
            let weights = BlockWeights::compute(&g, &p);
            let band = PairBand::around(&g, &p, &eligible, (0, 1), 0, &mut scratch);
            let r = two_way_fm_in(
                &g,
                &mut p,
                0,
                1,
                band,
                weights.weight(0),
                weights.weight(1),
                &config,
                &mut scratch,
            );
            assert_eq!(
                (r.gain, r.moves, r.attempted_moves, p),
                expected,
                "round {round} diverged"
            );
            // Dirty the scratch with a different search (different band,
            // different pair orientation) before the next round.
            let mut q = Partition::from_assignment(2, (0..100).map(|i| (i % 2) as u32).collect());
            let qw = BlockWeights::compute(&g, &q);
            let band: Vec<NodeId> = (20..60).collect();
            let band = PairBand::around(&g, &q, &band, (1, 0), 0, &mut scratch);
            let _ = two_way_fm_in(
                &g,
                &mut q,
                1,
                0,
                band,
                qw.weight(1),
                qw.weight(0),
                &config,
                &mut scratch,
            );
        }
    }

    #[test]
    fn empty_band_is_a_no_op() {
        let g = grid2d(4, 4);
        let mut p = Partition::from_assignment(2, (0..16).map(|i| (i % 2) as u32).collect());
        let before = p.assignment().to_vec();
        let result = two_way_fm(&g, &mut p, 0, 1, &[], 8, 8, &FmConfig::default());
        assert_eq!(result.gain, 0);
        assert!(result.moves.is_empty());
        assert_eq!(p.assignment(), &before[..]);
    }

    #[test]
    fn moves_report_matches_partition_changes() {
        let g = grid2d(8, 8);
        let assignment = (0..64).map(|i| ((i / 3) % 2) as u32).collect();
        let original = Partition::from_assignment(2, assignment);
        let mut p = original.clone();
        let config = FmConfig {
            l_max: Partition::l_max(&g, 2, 0.10),
            patience_alpha: 0.5,
            seed: 9,
            ..Default::default()
        };
        let result = run_fm(&g, &mut p, &config);
        // Replaying the reported moves on the original must give the same result.
        let mut replay = original.clone();
        for &(v, to) in &result.moves {
            replay.assign(v, to);
        }
        assert_eq!(replay.assignment(), p.assignment());
    }
}
