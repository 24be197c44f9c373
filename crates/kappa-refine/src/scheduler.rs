//! The pairwise parallel refinement scheduler (§5 of the paper).
//!
//! At any point in time each PE works on one pair of neighbouring blocks,
//! performing a local search constrained to moving nodes between those two
//! blocks. Pairs are assigned via the quotient graph `Q`: an edge colouring of
//! `Q` partitions its edges into matchings; all pairs of one colour touch
//! disjoint blocks and are therefore refined concurrently (here: as Rayon
//! tasks). Iterating over the colours visits every pair once — a *global
//! iteration*; within one pair the FM search may be repeated — *local
//! iterations*. The loops stop early when an iteration brings no improvement
//! (the strong configuration requires two consecutive unimproved iterations).
//!
//! Because a 2-way move between blocks `A` and `B` only affects edges with both
//! endpoints in `A ∪ B`, the concurrent searches of one colour class are
//! independent: each works through a [`DeltaPairView`] — a handle on one
//! [`SharedAssignment`] atomic mirror that *all* workers read and write
//! directly (safe because write sets are block-disjoint and cross-pair reads
//! are membership tests; see [`crate::delta`]). Note there is no pair-local
//! buffer: a worker's moves land in the shared mirror immediately, and it is
//! the FM search's own rollback of non-surviving moves that keeps the mirror
//! consistent. Each worker returns its surviving move list (the delta), which
//! the scheduler applies to the real partition once per class — the
//! shared-memory analogue of the paper's "the better partitioning of the two
//! blocks is adopted" exchange.
//!
//! The scheduler operates on one [`PartitionState`] — assignment,
//! incremental block weights, incremental boundary index and per-pair cut
//! weights behind a single `apply_move` — that arrives current
//! and is returned current: nothing is rebuilt per call or per global
//! iteration, and the rebalancer routes its moves through the same state.
//! What a call does pay for is what changed:
//!
//! * the quotient of a global iteration is read off the maintained pair cut
//!   weights in `O(|E_Q|)`;
//! * the seeds of a colour class come from one pass over the boundary list
//!   ([`BoundaryIndex::class_boundaries_sorted`](kappa_graph::BoundaryIndex::class_boundaries_sorted)),
//!   and a first seeding reads no row ([`IndexSeeder::from_pair_boundary`]);
//! * a pair whose last search moved nothing and whose blocks no commit has
//!   changed since searches its kept band instead of growing it again
//!   ([`IdleBands`]).
//!
//! The test-only `refine_partition_reference` below — one partition clone
//! per colour class and per pair, full-scan seeds, quotient and rebalancing,
//! a fresh band for every search — is the bit-identical ground truth.

use kappa_graph::{
    BlockAssignmentMut, BlockId, GraphAccess, NodeId, NodeWeight, Partition, PartitionState,
};
use rayon::prelude::*;

use crate::balance::rebalance_state;
use crate::band::{BandSeeder, FirstBand, IdleBands, IndexSeeder, PairBand};
use crate::coloring::color_quotient_edges;
use crate::delta::{DeltaPairView, SharedAssignment};
use crate::fm::{pair_search_seed, two_way_fm_in, FmConfig};
use crate::queue_select::QueueSelection;
use crate::scratch::{FmScratch, ScratchPool};

/// Configuration of the refinement scheduler (one entry per knob of Table 2).
#[derive(Clone, Copy, Debug)]
pub struct RefinementConfig {
    /// Imbalance tolerance ε; `L_max` is derived from it per graph.
    pub epsilon: f64,
    /// BFS depth of the boundary band (1 / 5 / 20 for minimal / fast / strong).
    pub bfs_depth: usize,
    /// Maximum number of global iterations (sweeps over all colours).
    pub max_global_iterations: usize,
    /// Number of local FM repetitions per block pair and colour visit.
    pub local_iterations: usize,
    /// Stop after this many consecutive global iterations without improvement
    /// (1 = "no change", 2 = "2× no change" of the strong configuration).
    pub stop_after_no_change: usize,
    /// Queue selection strategy for the FM searches.
    pub queue_selection: QueueSelection,
    /// FM patience α.
    pub patience_alpha: f64,
    /// Base seed.
    pub seed: u64,
}

impl Default for RefinementConfig {
    fn default() -> Self {
        RefinementConfig {
            epsilon: 0.03,
            bfs_depth: 5,
            max_global_iterations: 15,
            local_iterations: 3,
            stop_after_no_change: 1,
            queue_selection: QueueSelection::TopGain,
            patience_alpha: 0.05,
            seed: 0,
        }
    }
}

impl RefinementConfig {
    /// The FM configuration of the search at coordinates `(global iteration,
    /// colour index, local iteration, block pair)`. Every scheduler — shared,
    /// distributed, localized — derives its searches here, so equal
    /// coordinates mean equal searches (the keystone of the `--ranks 1`
    /// parity).
    pub fn fm_config(
        &self,
        l_max: NodeWeight,
        global_iter: usize,
        color_idx: usize,
        local_iter: usize,
        a: BlockId,
        b: BlockId,
    ) -> FmConfig {
        FmConfig {
            queue_selection: self.queue_selection,
            patience_alpha: self.patience_alpha,
            l_max,
            seed: pair_search_seed(self.seed, global_iter, color_idx, local_iter, a, b),
        }
    }

    /// The stop rule of every scheduler's global iterations: counts an
    /// iteration that gained `gain` into `streak`, the gain-free iterations
    /// in a row, and says whether `stop_after_no_change` of them have run.
    pub fn converged(&self, streak: &mut usize, gain: i64) -> bool {
        *streak = if gain > 0 { 0 } else { *streak + 1 };
        gain <= 0 && *streak >= self.stop_after_no_change
    }
}

/// Statistics returned by [`refine_partition`] and
/// [`refine_local`](crate::refine_local).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefinementStats {
    /// Total cut improvement over the whole refinement (rebalancing moves
    /// included).
    pub total_gain: i64,
    /// Number of global iterations executed (rounds over the affected pairs
    /// in `refine_local`).
    pub global_iterations: usize,
    /// Block pairs examined: the summed colour-class sizes over all global
    /// iterations.
    pub pairs_considered: usize,
    /// Number of pairwise FM searches executed.
    pub pair_searches: usize,
    /// Number of nodes moved (after rollbacks; rebalancing moves included).
    pub nodes_moved: usize,
    /// Number of full `O(n + m)` quotient-graph scans performed.
    /// [`refine_partition`] reads every quotient off the state's maintained
    /// cut weights (`PartitionState::quotient`), so this stays 0; only the
    /// test-only full-scan reference scheduler pays one per global iteration.
    pub quotient_full_scans: usize,
    /// Bands grown by a BFS, one per FM search that did not reuse one.
    pub bands_built: usize,
    /// FM searches that ran on the kept band of an idle pair
    /// ([`IdleBands`]) instead of growing one.
    pub bands_reused: usize,
}

impl RefinementStats {
    /// Counts one pair search: its FM searches, the bands they grew or
    /// reused, and its surviving moves.
    pub fn count_pair(&mut self, delta: &PairDelta) {
        let reused = delta.band_reused as usize;
        self.pair_searches += delta.searches;
        self.bands_built += delta.searches - reused;
        self.bands_reused += reused;
        self.nodes_moved += delta.moves.len();
    }
}

impl std::ops::AddAssign for RefinementStats {
    /// Adds one level's statistics to a run total.
    fn add_assign(&mut self, level: RefinementStats) {
        self.total_gain += level.total_gain;
        self.global_iterations += level.global_iterations;
        self.pairs_considered += level.pairs_considered;
        self.pair_searches += level.pair_searches;
        self.nodes_moved += level.nodes_moved;
        self.quotient_full_scans += level.quotient_full_scans;
        self.bands_built += level.bands_built;
        self.bands_reused += level.bands_reused;
    }
}

/// The delta a single pair search hands back to the scheduler: the surviving
/// moves, the cut gain they achieve, and the number of FM searches run.
pub struct PairDelta {
    /// Surviving moves `(node, new block)`, in the order they were made.
    pub moves: Vec<(NodeId, BlockId)>,
    /// Cut gain of the surviving moves.
    pub gain: i64,
    /// FM searches run (local iterations that found seeds).
    pub searches: usize,
    /// True when the first search ran on a [`FirstBand::Reuse`] band.
    pub band_reused: bool,
    /// The first search's band, when the search moved nothing and its
    /// [`FirstBand`] asked to keep it.
    pub idle_band: Option<PairBand>,
}

/// One pair search's coordinates and bounds: the pair `(a, b)`, its block
/// weights at search start, `L_max`, the configuration, and the
/// `(global iteration, colour index)` its FM seeds derive from.
#[derive(Clone, Copy, Debug)]
pub struct PairSearch<'c> {
    /// First block of the pair.
    pub a: BlockId,
    /// Second block of the pair.
    pub b: BlockId,
    /// Weight of block `a` at search start.
    pub w_a: NodeWeight,
    /// Weight of block `b` at search start.
    pub w_b: NodeWeight,
    /// Balance bound `L_max`.
    pub l_max: NodeWeight,
    /// The refinement configuration.
    pub config: &'c RefinementConfig,
    /// Global iteration (round, in [`refine_local`](crate::refine_local)).
    pub global_iter: usize,
    /// Colour index (pair index, in [`refine_local`](crate::refine_local)).
    pub color_idx: usize,
}

/// Runs the local iterations of one pair search — band seeding + BFS,
/// 2-way FM, pair-local block-weight tracking — against `target` and returns
/// the pair's delta.
///
/// `target` is a [`DeltaPairView`] in [`refine_partition`], an overlay on
/// the state's partition in [`refine_local`](crate::refine_local), a
/// gathered region's partition in
/// [`GatheredRegion::search`](crate::GatheredRegion::search) and a snapshot
/// clone in the test-only reference scheduler; `seeder` is an
/// [`IndexSeeder`] drawn from the shared
/// [`BoundaryIndex`](kappa_graph::BoundaryIndex) in the first, one started
/// from the touched region in the second, a region seeder that clips every
/// band to the gathered band in the third, and the full-scan reference in
/// the fourth. This is the only local-iteration loop of the workspace —
/// kappa-dist runs it on its live view at one rank and on gathered regions
/// across ranks — and sharing it, with the seeders' identical outputs, is
/// what keeps the schedulers bit-identical. `first` says where the first
/// local iteration's band comes from: [`FirstBand::Reuse`] skips seeding,
/// BFS and clip, and a band the caller asked to keep comes back as
/// [`PairDelta::idle_band`] when the search moves nothing. Only a keeping
/// caller ever copies a band.
pub fn search_pair<G: GraphAccess, P: BlockAssignmentMut, S: BandSeeder<P>>(
    graph: &G,
    target: &mut P,
    seeder: &mut S,
    scratch: &mut FmScratch,
    search: &PairSearch,
    first: FirstBand,
) -> PairDelta {
    let PairSearch {
        a,
        b,
        mut w_a,
        mut w_b,
        l_max,
        config,
        global_iter,
        color_idx,
    } = *search;
    let (keep, mut reuse) = match first {
        FirstBand::Grow => (false, None),
        FirstBand::GrowAndKeep => (true, None),
        FirstBand::Reuse(band) => (true, Some(band)),
    };
    let mut delta = PairDelta {
        moves: Vec::new(),
        gain: 0,
        searches: 0,
        band_reused: reuse.is_some(),
        idle_band: None,
    };
    for local_iter in 0..config.local_iterations {
        let band = match reuse.take() {
            Some(band) => band,
            None => {
                let seeds = seeder.seeds(target);
                if seeds.is_empty() {
                    break;
                }
                let mut band =
                    PairBand::around(graph, &*target, &seeds, (a, b), config.bfs_depth, scratch);
                seeder.clip(&mut band);
                band
            }
        };
        let kept = (keep && local_iter == 0).then(|| band.clone());
        let fm_config = config.fm_config(l_max, global_iter, color_idx, local_iter, a, b);
        let result = two_way_fm_in(graph, target, a, b, band, w_a, w_b, &fm_config, scratch);
        delta.searches += 1;
        if result.moves.is_empty() {
            delta.idle_band = kept;
            break;
        }
        delta.gain += result.gain;
        if result.gain == 0 || local_iter + 1 == config.local_iterations {
            delta.moves.extend(result.moves);
            break;
        }
        // Prepare the next local iteration: the seeder learns the moves, the
        // pair's block weights follow them.
        seeder.observe_moves(&result.moves);
        for &(v, to) in &result.moves {
            let vw = graph.node_weight(v);
            if to == a {
                w_a += vw;
                w_b -= vw;
            } else {
                w_b += vw;
                w_a -= vw;
            }
        }
        delta.moves.extend(result.moves);
    }
    delta
}

/// Refines the partition held by `state` in place on one hierarchy level.
/// Returns statistics.
///
/// The state arrives **current** — its boundary index, block weights and
/// pair cut weights already match the assignment (built once at the
/// coarsest level, then carried across levels by
/// [`PartitionState::project`]) — and is returned current, so this function
/// builds the index **zero** times and recomputes neither the weights
/// (previously `O(n)` per global iteration) nor the cut (previously `O(m)`
/// per call). All block pairs of one quotient-colour class run
/// concurrently, each against a [`DeltaPairView`] of the shared partition;
/// the merged deltas are applied once per class through
/// [`PartitionState::apply_move`], and the rebalancer routes its moves the
/// same way, so nothing ever mutates the assignment behind the
/// index's back. The FM searches draw their buffers from a [`ScratchPool`],
/// so neither boundary extraction nor FM performs per-search `O(n)` work,
/// and an [`IdleBands`] store that lives for this call lets an unchanged
/// idle pair skip its band BFS. The result is the same for every thread
/// count, and equal to growing every band afresh.
///
/// ```
/// use kappa_gen::grid::grid2d;
/// use kappa_graph::PartitionState;
/// use kappa_initial::random_partition;
/// use kappa_refine::{refine_partition, RefinementConfig};
///
/// let graph = grid2d(16, 16);
/// let mut state = PartitionState::build(&graph, random_partition(&graph, 4, 7));
/// let before = state.edge_cut();
/// let stats = refine_partition(&graph, &mut state, &RefinementConfig::default());
/// assert_eq!(stats.total_gain, before as i64 - state.edge_cut() as i64);
/// assert!(state.edge_cut() < before);
/// assert!(state.partition().is_balanced(&graph, 0.03));
/// assert!(state.verify_exact(&graph).is_ok()); // returned current
/// ```
pub fn refine_partition<G: GraphAccess + Sync>(
    graph: &G,
    state: &mut PartitionState,
    config: &RefinementConfig,
) -> RefinementStats {
    let mut stats = RefinementStats::default();
    let k = state.k();
    if k < 2 || graph.num_nodes() == 0 {
        return stats;
    }
    let l_max = Partition::l_max(graph, k, config.epsilon);
    let cut_before = state.edge_cut() as i64;
    debug_assert_eq!(
        state.edge_cut(),
        state.partition().edge_cut(graph),
        "stale pair cut weights on entry"
    );

    // Repair gross imbalance first so FM starts from a feasible state.
    if !state.is_balanced(l_max) {
        stats.nodes_moved += rebalance_state(graph, state, l_max);
    }

    // One atomic mirror of the assignment for the whole refinement call. FM
    // workers read and write it through DeltaPairViews; applying their deltas
    // to the state below keeps the two in sync (FM rolls back every
    // non-surviving move itself), so the mirror is never rebuilt.
    let shared = SharedAssignment::from_partition(state.partition());
    // Pooled FM/BFS scratch buffers, reused across all pair searches of this
    // refinement call (at most one live scratch per concurrent worker).
    let scratch_pool = ScratchPool::new();
    // The bands of idle pair searches, for the pair's next visit.
    let mut idle = IdleBands::new(k);

    let mut no_change_streak = 0usize;
    for global_iter in 0..config.max_global_iterations {
        // Read off the state's maintained per-pair cut weights in O(|E_Q|),
        // bit-identical to the full-scan `QuotientGraph::build`.
        let quotient = state.quotient();
        if quotient.num_edges() == 0 {
            break;
        }
        let coloring =
            color_quotient_edges(&quotient, config.seed.wrapping_add(global_iter as u64));
        let mut iteration_gain = 0i64;
        // No pair is searched after the last global iteration.
        let keep = global_iter + 1 < config.max_global_iterations;

        for (color_idx, class) in coloring.classes().enumerate() {
            // All pairs of one colour are block-disjoint: each worker works
            // on the shared mirror through a pair-local delta view, seeds its
            // band from its bucket of one pass over the state's live boundary
            // index (or reuses its idle band) and reads the state's live
            // block weights; no clone, recompute or rebuild of anything.
            let weights = state.weights();
            stats.pairs_considered += class.len();
            let boundaries = state
                .boundary()
                .class_boundaries_sorted(state.partition(), class);
            let jobs: Vec<_> = class
                .iter()
                .zip(boundaries)
                .map(|(&(a, b), boundary)| (a, b, boundary, idle.first_band(a, b, keep)))
                .collect();
            let deltas: Vec<PairDelta> = jobs
                .into_par_iter()
                .map(|(a, b, boundary, first)| {
                    let mut view = DeltaPairView::new(&shared);
                    let mut seeder = IndexSeeder::from_pair_boundary(graph, a, b, boundary);
                    let mut scratch = scratch_pool.take();
                    let search = PairSearch {
                        a,
                        b,
                        w_a: weights.weight(a),
                        w_b: weights.weight(b),
                        l_max,
                        config,
                        global_iter,
                        color_idx,
                    };
                    let delta =
                        search_pair(graph, &mut view, &mut seeder, &mut scratch, &search, first);
                    scratch_pool.put(scratch);
                    delta
                })
                .collect();

            // Apply the merged deltas once per class — one state call updates
            // the partition, block weights, boundary index and pair cut
            // weights, so the next class seeds from the committed
            // state.
            for (&(a, b), mut delta) in class.iter().zip(deltas) {
                stats.count_pair(&delta);
                iteration_gain += delta.gain;
                idle.settle(a, b, &mut delta);
                for (v, to) in delta.moves {
                    state.apply_move(graph, v, to);
                }
            }
        }

        stats.global_iterations += 1;
        if config.converged(&mut no_change_streak, iteration_gain) {
            break;
        }
    }

    // Final safety net: FM with the MaxLoad exception keeps things feasible in
    // practice, but lumpy node weights on coarse levels can still leave an
    // overload behind.
    if !state.is_balanced(l_max) {
        stats.nodes_moved += rebalance_state(graph, state, l_max);
    }
    // Total gain is reported against the maintained cut so rebalancing
    // moves (which are not FM moves) are accounted for as well; the pair
    // cut weights are exact (asserted against a recompute in debug builds).
    debug_assert_eq!(
        state.edge_cut(),
        state.partition().edge_cut(graph),
        "pair cut weights diverged during refinement"
    );
    stats.total_gain = cut_before - state.edge_cut() as i64;
    stats
}

#[cfg(test)]
use {
    crate::balance::rebalance,
    crate::band::FullScanSeeder,
    kappa_graph::{BlockWeights, QuotientGraph},
};

#[cfg(test)]
/// The snapshot-cloning, full-scanning reference scheduler: clones the
/// partition once per colour class and once more per pair, re-derives every
/// band seed with an `O(n + m)` [`FullScanSeeder`] scan and every quotient
/// with a full [`QuotientGraph::build`], and rebalances with the full-scan
/// [`rebalance`]. The ground truth [`refine_partition`] is checked against,
/// for every thread count.
pub(crate) fn refine_partition_reference<G: GraphAccess + Sync>(
    graph: &G,
    partition: &mut Partition,
    config: &RefinementConfig,
) -> RefinementStats {
    let mut stats = RefinementStats::default();
    let k = partition.k();
    if k < 2 || graph.num_nodes() == 0 {
        return stats;
    }
    let l_max = Partition::l_max(graph, k, config.epsilon);
    let cut_before = partition.edge_cut(graph) as i64;

    if !partition.is_balanced(graph, config.epsilon) {
        stats.nodes_moved += rebalance(graph, partition, l_max);
    }

    let mut no_change_streak = 0usize;
    for global_iter in 0..config.max_global_iterations {
        let quotient = QuotientGraph::build(graph, partition);
        stats.quotient_full_scans += 1;
        if quotient.num_edges() == 0 {
            break;
        }
        let coloring =
            color_quotient_edges(&quotient, config.seed.wrapping_add(global_iter as u64));
        let mut iteration_gain = 0i64;

        for (color_idx, class) in coloring.classes().enumerate() {
            let snapshot = partition.clone();
            let weights = BlockWeights::compute(graph, &snapshot);
            stats.pairs_considered += class.len();
            let results: Vec<PairDelta> = class
                .par_iter()
                .map(|&(a, b)| {
                    let mut local = snapshot.clone();
                    let mut seeder = FullScanSeeder::new(graph, a, b);
                    let search = PairSearch {
                        a,
                        b,
                        w_a: weights.weight(a),
                        w_b: weights.weight(b),
                        l_max,
                        config,
                        global_iter,
                        color_idx,
                    };
                    let mut scratch = FmScratch::new();
                    search_pair(
                        graph,
                        &mut local,
                        &mut seeder,
                        &mut scratch,
                        &search,
                        FirstBand::Grow,
                    )
                })
                .collect();

            for delta in results {
                stats.count_pair(&delta);
                iteration_gain += delta.gain;
                for (v, to) in delta.moves {
                    partition.assign(v, to);
                }
            }
        }

        stats.global_iterations += 1;
        if config.converged(&mut no_change_streak, iteration_gain) {
            break;
        }
    }

    if !partition.is_balanced(graph, config.epsilon) {
        stats.nodes_moved += rebalance(graph, partition, l_max);
    }
    stats.total_gain = cut_before - partition.edge_cut(graph) as i64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary_graph::arbitrary_graph;
    use crate::band::pair_band;
    use kappa_coarsen::{CoarseningConfig, MatcherKind, MultilevelHierarchy};
    use kappa_gen::grid::grid2d;
    use kappa_gen::rgg::random_geometric_graph;
    use kappa_graph::{BlockAssignment, CsrGraph, EdgeWeight};
    use kappa_initial::{greedy_graph_growing, random_partition};
    use kappa_matching::{EdgeRating, MatchingAlgorithm};
    use proptest::prelude::*;
    use rayon::ThreadPoolBuilder;
    use std::cell::{Cell, RefCell};

    const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
    const GPA: MatcherKind = MatcherKind::Sequential(MatchingAlgorithm::Gpa);

    /// [`refine_partition`] on a bare [`Partition`]: a fresh state per call.
    fn refine_partition_in_place(
        graph: &CsrGraph,
        partition: &mut Partition,
        config: &RefinementConfig,
    ) -> RefinementStats {
        let owned = std::mem::replace(partition, Partition::unassigned(0, 0));
        let mut state = PartitionState::build(graph, owned);
        let stats = refine_partition(graph, &mut state, config);
        *partition = state.into_partition();
        stats
    }

    /// The stop rule counts gain-free iterations *in a row*: a gain resets
    /// the streak, and a gaining iteration never stops the loop, not even
    /// with `stop_after_no_change = 0`.
    #[test]
    fn the_stop_rule_counts_gain_free_iterations_in_a_row() {
        let gains = [0i64, 5, -1, 3, 0, 0, 7];
        for (stop_after_no_change, expected) in [
            (2, [false, false, false, false, false, true, false]),
            (1, [true, false, true, false, true, true, false]),
            (0, [true, false, true, false, true, true, false]),
        ] {
            let config = RefinementConfig {
                stop_after_no_change,
                ..Default::default()
            };
            let mut streak = 0;
            let stops = gains.map(|gain| config.converged(&mut streak, gain));
            assert_eq!(
                stops, expected,
                "stop_after_no_change {stop_after_no_change}"
            );
        }
    }

    #[test]
    fn improves_a_random_partition_substantially() {
        let g = grid2d(20, 20);
        let mut p = random_partition(&g, 4, 3);
        let before = p.edge_cut(&g);
        let stats = refine_partition_in_place(&g, &mut p, &RefinementConfig::default());
        let after = p.edge_cut(&g);
        assert!(after < before / 2, "cut {before} -> {after}");
        assert_eq!(before as i64 - after as i64, stats.total_gain);
        assert!(p.is_balanced(&g, 0.03), "balance {}", p.balance(&g));
        assert!(p.validate(&g).is_ok());
    }

    #[test]
    fn improves_a_reasonable_initial_partition() {
        let g = grid2d(24, 24);
        let mut p = greedy_graph_growing(&g, 4, 0.03, 5);
        let before = p.edge_cut(&g);
        refine_partition_in_place(&g, &mut p, &RefinementConfig::default());
        assert!(p.edge_cut(&g) <= before);
        assert!(p.is_balanced(&g, 0.03));
    }

    #[test]
    fn respects_k_equals_one() {
        let g = grid2d(6, 6);
        let mut state = PartitionState::build(&g, Partition::trivial(1, 36));
        let stats = refine_partition(&g, &mut state, &RefinementConfig::default());
        assert_eq!(stats.total_gain, 0);
        assert_eq!(stats.global_iterations, 0);
    }

    #[test]
    fn deeper_bands_and_more_iterations_do_not_hurt() {
        let g = random_geometric_graph(2000, 7);
        let base = RefinementConfig {
            bfs_depth: 1,
            local_iterations: 1,
            max_global_iterations: 3,
            ..Default::default()
        };
        let strong = RefinementConfig {
            bfs_depth: 10,
            local_iterations: 3,
            max_global_iterations: 10,
            stop_after_no_change: 2,
            patience_alpha: 0.20,
            ..Default::default()
        };
        let mut p1 = greedy_graph_growing(&g, 8, 0.03, 1);
        let mut p2 = p1.clone();
        refine_partition_in_place(&g, &mut p1, &base);
        refine_partition_in_place(&g, &mut p2, &strong);
        // The strong setting explores strictly more, so it must not be
        // noticeably worse (allow 5 % slack for randomisation).
        assert!(
            (p2.edge_cut(&g) as f64) <= 1.05 * p1.edge_cut(&g) as f64,
            "strong {} vs fast {}",
            p2.edge_cut(&g),
            p1.edge_cut(&g)
        );
    }

    #[test]
    fn repairs_unbalanced_input() {
        let g = grid2d(16, 16);
        // Heavily unbalanced starting point.
        let assignment = (0..256).map(|i| if i < 200 { 0u32 } else { 1 }).collect();
        let mut p = Partition::from_assignment(2, assignment);
        refine_partition_in_place(&g, &mut p, &RefinementConfig::default());
        assert!(p.is_balanced(&g, 0.03), "balance {}", p.balance(&g));
    }

    // Regression for the rebalance / boundary-index desync: rebalancing moves
    // used to bypass the index (raw `Partition::assign`), so any refinement
    // that triggered the repair pass left a stale index behind. Refining an
    // imbalanced input now routes those moves through the state; afterwards
    // the index must still match a fresh full scan exactly.
    #[test]
    fn rebalance_moves_keep_the_boundary_index_in_sync() {
        let g = grid2d(16, 16);
        for k in [2u32, 4] {
            // Heavily unbalanced: almost everything in block 0, so both the
            // entry and exit rebalance passes have real work to do.
            let assignment = (0..256)
                .map(|i| {
                    if i < 240 {
                        0u32
                    } else {
                        (i % k as usize) as u32
                    }
                })
                .collect();
            let mut state = PartitionState::build(&g, Partition::from_assignment(k, assignment));
            let stats = refine_partition(&g, &mut state, &RefinementConfig::default());
            assert!(stats.nodes_moved > 0);
            assert!(state.partition().is_balanced(&g, 0.03));
            state
                .verify_exact(&g)
                .expect("index/weights/cut diverged after rebalancing moves");
        }
    }

    #[test]
    fn delta_scheduler_matches_snapshot_reference_for_every_thread_count() {
        let g = random_geometric_graph(3000, 13);
        let start = random_partition(&g, 16, 21);
        let config = RefinementConfig {
            max_global_iterations: 4,
            ..Default::default()
        };
        let mut expected = start.clone();
        let expected_stats = refine_partition_reference(&g, &mut expected, &config);
        for threads in [1usize, 2, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut state = PartitionState::build(&g, start.clone());
            let stats = pool.install(|| refine_partition(&g, &mut state, &config));
            assert_eq!(
                state.partition().assignment(),
                expected.assignment(),
                "threads {threads}"
            );
            // Equal in every count but the reference's own quotient scans
            // and the bands it grew where the scheduler reused one.
            let expected = RefinementStats {
                quotient_full_scans: 0,
                bands_built: expected_stats.bands_built - stats.bands_reused,
                bands_reused: stats.bands_reused,
                ..expected_stats
            };
            assert_eq!(stats, expected, "threads {threads}");
            state.verify_exact(&g).unwrap();
        }
    }

    /// Idle pairs whose blocks no commit changed search their kept band —
    /// and the result is still the reference's, which grows every band: the
    /// same assignment and the same counts, bands grown plus reused equal to
    /// the reference's bands grown, at every thread count.
    #[test]
    fn unchanged_idle_pairs_reuse_their_band_and_match_the_reference() {
        let g = random_geometric_graph(1 << 14, 3);
        let start = greedy_graph_growing(&g, 32, 0.03, 5);
        let config = RefinementConfig::default(); // the fast preset
        let mut expected = start.clone();
        let expected_stats = refine_partition_reference(&g, &mut expected, &config);
        assert_eq!(expected_stats.bands_reused, 0);
        assert_eq!(expected_stats.bands_built, expected_stats.pair_searches);
        for threads in [1usize, 2, 4] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut state = PartitionState::build(&g, start.clone());
            let stats = pool.install(|| refine_partition(&g, &mut state, &config));
            assert!(stats.bands_reused > 0, "threads {threads}: no band reused");
            assert_eq!(
                state.partition().assignment(),
                expected.assignment(),
                "threads {threads}"
            );
            assert_eq!(
                stats.bands_built + stats.bands_reused,
                expected_stats.bands_built,
                "threads {threads}"
            );
            assert_eq!(stats.pair_searches, expected_stats.pair_searches);
            assert_eq!(stats.total_gain, expected_stats.total_gain);
            state.verify_exact(&g).unwrap();
        }
    }

    /// A graph that counts how often each node's adjacency row is read,
    /// before and after the first `assign` of the search it is handed to.
    struct CountingGraph<'g> {
        graph: &'g CsrGraph,
        assigns: &'g Cell<usize>,
        /// `(reads before the first move, reads after it)` per node.
        reads: RefCell<Vec<(u32, u32)>>,
    }

    impl CountingGraph<'_> {
        fn count(&self, v: NodeId) {
            let reads = &mut self.reads.borrow_mut()[v as usize];
            if self.assigns.get() == 0 {
                reads.0 += 1;
            } else {
                reads.1 += 1;
            }
        }
    }

    impl GraphAccess for CountingGraph<'_> {
        fn num_nodes(&self) -> usize {
            self.graph.num_nodes()
        }

        fn num_half_edges(&self) -> usize {
            self.graph.num_half_edges()
        }

        fn total_node_weight(&self) -> NodeWeight {
            self.graph.total_node_weight()
        }

        fn max_node_weight(&self) -> NodeWeight {
            self.graph.max_node_weight()
        }

        fn degree(&self, v: NodeId) -> usize {
            self.graph.degree(v)
        }

        fn node_weight(&self, v: NodeId) -> NodeWeight {
            self.graph.node_weight(v)
        }

        fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
            self.count(v);
            self.graph.edges_of(v)
        }
    }

    /// A partition that counts its `assign` calls (FM moves and rollbacks).
    struct CountingView<'c> {
        partition: Partition,
        assigns: &'c Cell<usize>,
    }

    impl BlockAssignment for CountingView<'_> {
        fn k(&self) -> BlockId {
            self.partition.k()
        }

        fn block_of(&self, v: NodeId) -> BlockId {
            self.partition.block_of(v)
        }
    }

    impl BlockAssignmentMut for CountingView<'_> {
        fn assign(&mut self, v: NodeId, b: BlockId) {
            self.assigns.set(self.assigns.get() + 1);
            self.partition.assign(v, b);
        }
    }

    /// The property the fused band exists for: one local iteration of a pair
    /// search reads the row of every band node exactly once — and no other
    /// row — before its first move, and afterwards one row per move it makes
    /// (the gain update), nothing else. The seeder reads through the counting
    /// graph too: started from the index's pair boundary, the first local
    /// iteration's seeding reads no row at all.
    #[test]
    fn a_pair_search_reads_each_band_row_once_before_the_first_move() {
        let instances = [
            (random_geometric_graph(1 << 12, 5), 4u32, 5usize),
            (grid2d(48, 48), 4, 3),
            (grid2d(48, 48), 2, 0),
        ];
        for (graph, k, depth) in instances {
            let partition = greedy_graph_growing(&graph, k, 0.03, 7);
            let state = PartitionState::build(&graph, partition.clone());
            let quotient = state.quotient();
            let config = RefinementConfig {
                bfs_depth: depth,
                local_iterations: 1,
                patience_alpha: 0.2,
                ..Default::default()
            };
            let l_max = Partition::l_max(&graph, k, config.epsilon);
            let mut searched = 0;
            for &(a, b, _) in quotient.edges() {
                let band = pair_band(&graph, &partition, a, b, depth);
                let assigns = Cell::new(0);
                let counting = CountingGraph {
                    graph: &graph,
                    assigns: &assigns,
                    reads: RefCell::new(vec![(0, 0); graph.num_nodes()]),
                };
                let mut view = CountingView {
                    partition: partition.clone(),
                    assigns: &assigns,
                };
                let boundary = state
                    .boundary()
                    .pair_boundary_sorted(state.partition(), a, b);
                let mut seeder = IndexSeeder::from_pair_boundary(&counting, a, b, boundary);
                let seeds = BandSeeder::<CountingView>::seeds(&mut seeder, &view);
                let seeding: u32 = counting
                    .reads
                    .borrow()
                    .iter()
                    .map(|&(before, _)| before)
                    .sum();
                assert_eq!(seeding, 0, "pair ({a},{b}): the first seeding read rows");
                assert_eq!(
                    seeds,
                    state
                        .boundary()
                        .pair_boundary_sorted(state.partition(), a, b)
                );
                let search = PairSearch {
                    a,
                    b,
                    w_a: state.weights().weight(a),
                    w_b: state.weights().weight(b),
                    l_max,
                    config: &config,
                    global_iter: 0,
                    color_idx: 0,
                };
                let delta = search_pair(
                    &counting,
                    &mut view,
                    &mut seeder,
                    &mut FmScratch::new(),
                    &search,
                    FirstBand::Grow,
                );
                assert_eq!(delta.searches, 1);
                let reads = counting.reads.into_inner();
                let mut in_band = vec![false; graph.num_nodes()];
                for &v in &band {
                    in_band[v as usize] = true;
                }
                for (v, &(before, after)) in reads.iter().enumerate() {
                    assert_eq!(
                        before, in_band[v] as u32,
                        "pair ({a},{b}) depth {depth}: row {v} read {before}× before the first move"
                    );
                    assert!(after <= 1, "row {v} read {after}× after the first move");
                }
                // Every attempted move reads its node's row once; assigns =
                // attempted moves + rollbacks, survivors = their difference.
                let after: usize = reads.iter().map(|&(_, after)| after as usize).sum();
                assert_eq!(2 * after, assigns.get() + delta.moves.len());
                searched += (after > 0) as usize;
            }
            assert!(searched > 0, "no pair search of k = {k} moved anything");
        }
    }

    #[test]
    fn stats_are_consistent() {
        let g = grid2d(12, 12);
        let mut p = random_partition(&g, 3, 9);
        let before = p.edge_cut(&g);
        let stats = refine_partition_in_place(&g, &mut p, &RefinementConfig::default());
        assert_eq!(stats.total_gain, before as i64 - p.edge_cut(&g) as i64);
        assert!(stats.global_iterations >= 1);
        assert!(stats.pair_searches >= 1);
    }

    // The delta-move scheduler against the snapshot reference, and — since
    // `refine_partition` seeds its bands from the `BoundaryIndex` while the
    // reference re-scans the whole graph — the end-to-end index-on vs.
    // index-off parity proof; the interleaved-mutation property extends it to
    // rebalance moves and seeded level projections.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn delta_move_refinement_is_bit_identical_to_snapshot_reference(
        graph in arbitrary_graph(250),
        k in 2u32..9,
        seed in any::<u64>(),
    ) {
        let start = random_partition(&graph, k, seed);
        let config = RefinementConfig {
            max_global_iterations: 3,
            seed,
            ..Default::default()
        };
        let mut expected = start.clone();
        let expected_stats = refine_partition_reference(&graph, &mut expected, &config);
        for threads in THREAD_COUNTS {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let mut state = PartitionState::build(&graph, start.clone());
            let stats = pool.install(|| refine_partition(&graph, &mut state, &config));
            prop_assert_eq!(
                state.partition().assignment(),
                expected.assignment(),
                "threads {}",
                threads
            );
            prop_assert_eq!(stats.total_gain, expected_stats.total_gain);
            prop_assert_eq!(stats.pair_searches, expected_stats.pair_searches);
            prop_assert_eq!(stats.nodes_moved, expected_stats.nodes_moved);
            prop_assert!(state.verify_exact(&graph).is_ok(), "state not returned current");
        }
    }

    // Tentpole property: arbitrary interleavings of FM delta-moves (through
    // the parallel scheduler), rebalance moves and level projections keep the
    // PartitionState exact — weights, boundary index AND pair cuts match a
    // fresh recomputation after every step, for every thread count — and the
    // whole interleaving stays bit-identical to the reference pipeline that
    // re-derives everything from scratch.
    #[test]
    fn partition_state_stays_exact_under_interleaved_mutations(
        graph in arbitrary_graph(160),
        k in 2u32..6,
        seed in any::<u64>(),
    ) {
        let config = CoarseningConfig { stop_at_nodes: 24, ..Default::default() };
        let hierarchy = MultilevelHierarchy::build(&graph, GPA, EdgeRating::ExpansionStar2, &config);
        let coarsest = hierarchy.coarsest();
        let start = random_partition(coarsest, k, seed);
        let refine_config = RefinementConfig {
            max_global_iterations: 2,
            seed,
            ..Default::default()
        };
        for threads in THREAD_COUNTS {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let mut state = PartitionState::build(coarsest, start.clone());
            let mut reference = start.clone();
            // FM on the coarsest level…
            pool.install(|| refine_partition(coarsest, &mut state, &refine_config));
            refine_partition_reference(coarsest, &mut reference, &refine_config);
            prop_assert!(state.verify_exact(coarsest).is_ok(), "after coarsest FM");
            prop_assert_eq!(state.partition().assignment(), reference.assignment());
            let mut levels = hierarchy.clone();
            while let Some(level) = levels.pop() {
                // …then, per level: project, rebalance against a tight bound
                // (forcing repair moves), and run FM again.
                let fine = levels.coarsest();
                state = state.project(fine, &level.coarse_of);
                reference = reference.project(&level.coarse_of);
                prop_assert!(state.verify_exact(fine).is_ok(), "after projection");

                let l_max = Partition::l_max(fine, k, 0.0);
                let moved_state = rebalance_state(fine, &mut state, l_max);
                let moved_ref = rebalance(fine, &mut reference, l_max);
                prop_assert_eq!(moved_state, moved_ref, "rebalance move counts");
                prop_assert_eq!(state.partition().assignment(), reference.assignment());
                prop_assert!(state.verify_exact(fine).is_ok(), "after rebalance");

                pool.install(|| refine_partition(fine, &mut state, &refine_config));
                refine_partition_reference(fine, &mut reference, &refine_config);
                prop_assert_eq!(state.partition().assignment(), reference.assignment());
                prop_assert!(state.verify_exact(fine).is_ok(), "after FM");
            }
            prop_assert_eq!(state.full_builds(), 1, "more than one full index build");
        }
    }
    }
}
