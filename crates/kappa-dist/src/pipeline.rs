//! The end-to-end distributed pipeline: coarsening → initial partitioning →
//! uncoarsening, SPMD over a [`LocalCluster`].
//!
//! The same three phases as the shared-memory driver in `kappa-core`, with
//! the phase configurations taken from the same [`KappaConfig`] policy
//! methods and the levels kept in the same [`MultilevelHierarchy`], here of
//! one rank's [`DistGraph`] shards. The coarsening loop is this module's own:
//! every step is a fallible collective, and rank folding has to happen
//! before the stop check.
//!
//! * **Coarsening** — repeated [`distributed_matching`] +
//!   [`distributed_contraction`] under [`KappaConfig::coarsening`]'s seeds
//!   and stop rules (node-count threshold, minimum shrink factor, level
//!   cap), evaluated on allreduced global counts; each contraction is
//!   [pushed](MultilevelHierarchy::push) onto the hierarchy.
//! * **Initial partitioning** — the coarsest graph (a few hundred nodes by
//!   construction) is allgathered; every rank runs its share of the
//!   best-of-repeats protocol with rank-offset seeds, the winner is chosen
//!   by the replicated `(infeasible, cut, balance, rank)` key and its
//!   assignment broadcast — the paper's "partition redundantly on every PE,
//!   keep the best" step.
//! * **Uncoarsening** — one [`DistState`] per rank threads through the
//!   levels as the shared pipeline's `uncoarsen` walks them, each level
//!   [popped](MultilevelHierarchy::pop) off the hierarchy and dropped once
//!   the state is projected through it: refined with [`dist_refine`], projected by
//!   reading each owned fine node's coarse block / boundary flag in place
//!   (pulled only when another rank owns the image) and a **seeded** boundary-index
//!   build (only fine nodes whose coarse image is boundary are edge-scanned),
//!   so each rank performs exactly one full index build per run — the
//!   per-rank version of the shared pipeline's `boundary_full_builds == 1`
//!   invariant.
//!
//! With one rank every phase degenerates to the shared-memory code path
//! (same seeds, same kernels), which makes `--ranks 1` cut-bit-identical to
//! `KappaPartitioner` at `--threads 1`; `tests/dist.rs` asserts it.

use kappa_coarsen::{CoarseningConfig, Contraction, MultilevelHierarchy};
use kappa_core::KappaConfig;
use kappa_graph::{BlockId, BlockWeights, CsrGraph, EdgeWeight, NodeId, NodeWeight, Partition};
use kappa_initial::{best_of_repeats, quality_key};
use kappa_refine::RefinementStats;

use crate::comm::{Comm, CommError, CommErrorKind, CommResult, CommStats, LocalCluster};
use crate::contract::distributed_contraction;
use crate::graph::{even_ranges, owner_in, DistGraph};
use crate::matching::distributed_matching;
use crate::refine::dist_refine;
use crate::state::DistState;

/// Configuration of a distributed run: the shared pipeline's knobs plus the
/// number of ranks.
#[derive(Clone, Copy, Debug)]
pub struct DistConfig {
    /// The algorithmic configuration (presets, seeds, ε, …). `num_threads`
    /// is ignored — parallelism comes from the ranks.
    pub base: KappaConfig,
    /// Number of ranks in the cluster.
    pub ranks: usize,
    /// Coarse-level rank folding: once the global node count drops to this
    /// threshold, the graph is folded onto half the active ranks (and onto
    /// half again at every further halving of the threshold), parking the
    /// rest for the remaining coarse levels. `0` disables folding.
    pub fold_threshold: usize,
}

impl DistConfig {
    /// A distributed configuration from a shared one.
    pub fn new(base: KappaConfig, ranks: usize) -> Self {
        // A constructor precondition: it fires at configuration time,
        // before any rank or socket exists.
        assert!(ranks >= 1, "at least one rank");
        DistConfig {
            base,
            ranks,
            fold_threshold: 0,
        }
    }

    /// Sets the rank-folding threshold (`0` disables folding).
    pub fn with_fold_threshold(mut self, fold_threshold: usize) -> Self {
        self.fold_threshold = fold_threshold;
        self
    }
}

/// Result of a distributed run.
#[derive(Clone, Debug)]
pub struct DistRunResult {
    /// The computed global partition.
    pub partition: Partition,
    /// The exact edge cut (allreduced at the finest level).
    pub edge_cut: EdgeWeight,
    /// Number of hierarchy levels (finest included).
    pub hierarchy_levels: usize,
    /// Global node count of the coarsest graph.
    pub coarsest_nodes: usize,
    /// Aggregated refinement statistics (identical on every rank).
    pub refinement: RefinementStats,
    /// Per-rank count of full boundary-index builds — exactly one each.
    pub boundary_full_builds_per_rank: Vec<usize>,
    /// Per-rank communication counters, split by pipeline phase.
    pub comm_per_rank: Vec<CommStats>,
}

/// Partitions `graph` into `config.base.k` blocks over `config.ranks` ranks
/// of an in-process [`LocalCluster`]. A communication failure on any rank
/// (silent or exited peer) surfaces as a diagnosed [`CommError`] naming
/// the stuck rank, peer and tag — never a hang.
pub fn partition_distributed(graph: &CsrGraph, config: &DistConfig) -> CommResult<DistRunResult> {
    run_on_layout(
        graph,
        config.ranks,
        config.base.k,
        |work_graph, range_starts| {
            let cluster = LocalCluster::new(config.ranks);
            let outcomes = cluster.run(|comm| rank_main(comm, work_graph, range_starts, config));
            let mut rank_results = Vec::with_capacity(outcomes.len());
            let mut errors = Vec::new();
            for outcome in outcomes {
                match outcome {
                    Ok(r) => rank_results.push(r),
                    Err(e) => errors.push(e),
                }
            }
            if !errors.is_empty() {
                return Err(pick_diagnostic(errors));
            }
            let trailers = rank_results
                .iter()
                .map(|r| (r.full_builds, r.comm.clone()))
                .collect();
            Ok((rank_results.swap_remove(0), trailers))
        },
    )
}

/// Runs one rank of the distributed pipeline over an arbitrary [`Comm`]
/// backend — the entry point of the `--transport tcp` workers, where every
/// rank is a separate OS process holding its own copy of the input graph.
///
/// Each rank computes the (deterministic) spatial layout redundantly, so no
/// out-of-band coordination beyond `comm` is needed; the assembled
/// [`DistRunResult`] is returned on rank 0 (`Ok(None)` elsewhere) and is
/// bit-identical to [`partition_distributed`] for the same `(graph, config)`.
pub fn partition_with_comm<C: Comm>(
    comm: &mut C,
    graph: &CsrGraph,
    config: &DistConfig,
) -> CommResult<Option<DistRunResult>> {
    let ranks = comm.num_ranks();
    if ranks != config.ranks {
        return Err(CommError::protocol(
            comm.rank(),
            comm.rank(),
            "pipeline",
            format!(
                "cluster has {ranks} ranks but the config expects {}",
                config.ranks
            ),
        ));
    }
    let result = run_on_layout(graph, ranks, config.base.k, |work_graph, range_starts| {
        let result = rank_main(comm, work_graph, range_starts, config)?;
        // One allgather for both trailers; the comm snapshot inside `result`
        // was taken before it, so local and TCP runs report identical counters.
        let trailers = comm.allgather((result.full_builds, result.comm.clone()))?;
        Ok((result, trailers))
    })?;
    Ok((comm.rank() == 0).then_some(result))
}

/// What both entry points share around the SPMD body: the degenerate-input
/// short-circuit, the choice of node layout, and the assembly of the run's
/// result over the input's node ids. `run_ranks` gets the graph to partition
/// and its ownership ranges and returns one rank's (replicated) output plus
/// every rank's `(full index builds, comm counters)` trailer.
fn run_on_layout(
    graph: &CsrGraph,
    ranks: usize,
    k: BlockId,
    run_ranks: impl FnOnce(&CsrGraph, &[NodeId]) -> CommResult<(RankResult, Vec<(usize, CommStats)>)>,
) -> CommResult<DistRunResult> {
    let k = k.max(1);
    let n = graph.num_nodes();
    if n == 0 || k == 1 {
        let partition = Partition::trivial(k, n);
        return Ok(DistRunResult {
            edge_cut: partition.edge_cut(graph),
            partition,
            hierarchy_levels: 1,
            coarsest_nodes: n,
            refinement: RefinementStats::default(),
            boundary_full_builds_per_rank: vec![0; ranks],
            comm_per_rank: vec![CommStats::default(); ranks],
        });
    }
    // Locality-preserving layout (§3.3): with several ranks and available
    // coordinates, re-order the nodes by recursive coordinate bisection so
    // each rank owns a spatially contiguous block — otherwise a spatially
    // random input ordering (e.g. rgg generation order) makes *every* rank
    // boundary a random cut through the graph and starves the interior
    // matching. The result is mapped back through the permutation.
    let layout = spatial_layout(graph, ranks);
    let (result, trailers) = match &layout {
        Some((permuted, range_starts, _)) => run_ranks(permuted, range_starts)?,
        None => run_ranks(graph, &even_ranges(n, ranks))?,
    };
    let partition = match &layout {
        Some((_, _, new_of_old)) => {
            let permuted = result.partition.assignment();
            let assignment = new_of_old.iter().map(|&new| permuted[new as usize]);
            Partition::from_assignment(k, assignment.collect())
        }
        None => result.partition,
    };
    let (boundary_full_builds_per_rank, comm_per_rank) = trailers.into_iter().unzip();
    Ok(DistRunResult {
        partition,
        edge_cut: result.edge_cut,
        hierarchy_levels: result.hierarchy_levels,
        coarsest_nodes: result.coarsest_nodes,
        refinement: result.refinement,
        boundary_full_builds_per_rank,
        comm_per_rank,
    })
}

/// The most diagnostic error of a failed run: a timeout pinpoints the stuck
/// rank and tag, while the disconnects it cascades into merely echo it.
#[expect(clippy::expect_used, reason = "a failed run has an error")]
fn pick_diagnostic(errors: Vec<CommError>) -> CommError {
    errors
        .iter()
        .find(|e| matches!(e.kind, CommErrorKind::Timeout { .. }))
        .cloned()
        .unwrap_or_else(|| errors.into_iter().next().expect("at least one error"))
}

/// The locality-preserving node layout: `None` for one rank (identity — this
/// keeps `--ranks 1` bit-identical to the shared pipeline) or when the graph
/// carries no coordinates (index ranges are the paper's fallback too);
/// otherwise the permuted graph, the per-rank ownership ranges (one
/// contiguous spatial block each) and the old → new id map.
fn spatial_layout(graph: &CsrGraph, ranks: usize) -> Option<(CsrGraph, Vec<NodeId>, Vec<NodeId>)> {
    if ranks <= 1 {
        return None;
    }
    graph.coords()?;
    let part = kappa_core::coordinate_prepartition(graph, ranks);
    // New ids: ascending by (part, old id) — each part becomes a contiguous
    // range, old relative order preserved within a part.
    let n = graph.num_nodes();
    let mut counts = vec![0usize; ranks];
    for &p in &part {
        counts[p] += 1;
    }
    let mut range_starts: Vec<NodeId> = Vec::with_capacity(ranks + 1);
    let mut acc: NodeId = 0;
    range_starts.push(acc);
    for c in &counts {
        acc += *c as NodeId;
        range_starts.push(acc);
    }
    let mut next = range_starts.clone();
    let mut new_of_old: Vec<NodeId> = vec![0; n];
    for (old, &p) in part.iter().enumerate() {
        new_of_old[old] = next[p];
        next[p] += 1;
    }
    // Permute the CSR arrays (coordinates are dropped — the layout already
    // encoded the geometry; the distributed pipeline never reads them).
    let mut old_of_new: Vec<NodeId> = vec![0; n];
    for (old, &new) in new_of_old.iter().enumerate() {
        old_of_new[new as usize] = old as NodeId;
    }
    let mut rows = CsrGraph::rows(n, graph.num_half_edges());
    let mut row: Vec<(NodeId, u64)> = Vec::new();
    for &old in &old_of_new {
        row.clear();
        row.extend(
            graph
                .edges_of(old)
                .map(|(t, w)| (new_of_old[t as usize], w)),
        );
        row.sort_unstable_by_key(|&(t, _)| t);
        rows.push_node(row.iter().copied());
    }
    let vwgt = old_of_new
        .iter()
        .map(|&old| graph.node_weight(old))
        .collect();
    Some((rows.finish(vwgt, None), range_starts, new_of_old))
}

/// Per-rank output of the SPMD body (the partition is replicated).
struct RankResult {
    partition: Partition,
    edge_cut: EdgeWeight,
    hierarchy_levels: usize,
    coarsest_nodes: usize,
    refinement: RefinementStats,
    full_builds: usize,
    comm: CommStats,
}

/// How many ranks stay active for a level of `n` global nodes: at the
/// threshold the active set halves, and halves again at every further
/// halving of the threshold (so an 8-rank run folds 8 → 4 → 2 → 1 as the
/// hierarchy shrinks through `t`, `t/2`, `t/4`). `threshold == 0` disables
/// folding.
fn fold_active(n: usize, active: usize, threshold: usize) -> usize {
    let mut active = active;
    let mut t = threshold;
    while active > 1 && t > 0 && n <= t {
        active = active.div_ceil(2);
        t /= 2;
    }
    active
}

/// One row on its way to its new owner in a fold: global id, node weight,
/// adjacency with global targets.
type FoldRow = (NodeId, NodeWeight, Vec<(NodeId, EdgeWeight)>);

/// Folds the distribution of `dg` onto fewer ranks once its global node
/// count calls for it ([`fold_active`] of `*active`, which is updated), and
/// returns `dg` unchanged otherwise. The new ownership ranges split the nodes
/// evenly over the active ranks and give every parked rank an empty range.
/// One `alltoallv` routes each owned row (global adjacency + node weight) to
/// its new owner; old and new ranges are both contiguous and ascending by
/// rank, so concatenating the incoming parts in rank order reproduces the
/// owned rows in ascending global order (validated, not assumed). Parked
/// ranks keep participating in every collective — they just own nothing,
/// and since coarse ownership is derived from anchor counts, they own
/// nothing on all coarser levels too.
fn fold_graph<'g, C: Comm>(
    comm: &mut C,
    dg: DistGraph<'g>,
    active: &mut usize,
    threshold: usize,
) -> CommResult<DistGraph<'g>> {
    let n = dg.num_global_nodes();
    let target = fold_active(n, *active, threshold);
    if target == *active {
        return Ok(dg);
    }
    *active = target;
    let ranks = dg.ranks();
    let mut new_starts = even_ranges(n, target);
    new_starts.resize(ranks + 1, n as NodeId);
    let (lo, _) = dg.owned_range();
    let mut parts: Vec<Vec<FoldRow>> = vec![Vec::new(); ranks];
    for l in 0..dg.num_owned() as NodeId {
        let gid = lo + l;
        parts[owner_in(&new_starts, gid)].push((
            gid,
            dg.local().node_weight(l),
            dg.local()
                .edges_of(l)
                .map(|(t, w)| (dg.global_of(t), w))
                .collect(),
        ));
    }
    let incoming = comm.alltoallv(parts)?;
    let mut expected = new_starts[comm.rank()];
    let owned = (new_starts[comm.rank() + 1] - expected) as usize;
    let mut rows = CsrGraph::rows(owned, 0);
    let mut vwgt: Vec<NodeWeight> = Vec::with_capacity(owned);
    for (src, part) in incoming.into_iter().enumerate() {
        for (gid, weight, edges) in part {
            if gid != expected {
                return Err(CommError::protocol(
                    comm.rank(),
                    src,
                    "fold",
                    format!("fold rows out of order: got global node {gid}, expected {expected}"),
                ));
            }
            expected += 1;
            rows.push_node(edges);
            vwgt.push(weight);
        }
    }
    if expected != new_starts[comm.rank() + 1] {
        return Err(CommError::protocol(
            comm.rank(),
            comm.rank(),
            "fold",
            format!(
                "fold rows incomplete: got up to global node {expected}, range ends at {}",
                new_starts[comm.rank() + 1]
            ),
        ));
    }
    DistGraph::assemble_with(comm, comm.rank(), ranks, new_starts, rows, vwgt)
}

fn rank_main<C: Comm>(
    comm: &mut C,
    graph: &CsrGraph,
    range_starts: &[NodeId],
    config: &DistConfig,
) -> CommResult<RankResult> {
    let base = &config.base;
    let k = base.k.max(1);
    let coarsening = base.coarsening(graph.num_nodes());

    // --- Phase 1: distributed coarsening. ---
    // Coarse-level rank folding concentrates a small level on fewer ranks
    // *before* its stop check and its matching, so the coarsest level itself
    // is folded too — below the threshold the per-rank seams cost more cut
    // than the parked parallelism buys. The finest graph is folded before
    // the hierarchy borrows it, every coarse graph before it is pushed.
    comm.set_phase("coarsen");
    let mut active = comm.num_ranks();
    let finest = DistGraph::from_global_ranges(graph, range_starts.to_vec(), comm.rank());
    let finest = fold_graph(comm, finest, &mut active, config.fold_threshold)?;
    let mut hierarchy = MultilevelHierarchy::flat(&finest);
    for level in 0..CoarseningConfig::MAX_LEVELS {
        let current = hierarchy.coarsest();
        let n_cur = current.num_global_nodes();
        if n_cur <= coarsening.stop_at_nodes {
            break;
        }
        let seed = coarsening.level_seed(level);
        let matching = distributed_matching(comm, current, base.matching, base.rating, seed)?;
        if coarsening.stalls(matching.matched_pairs, n_cur) {
            break;
        }
        let contraction = distributed_contraction(comm, current, &matching)?;
        let mut coarse_graph = contraction.coarse;
        // The level cap's last coarse graph is never matched, so never folded.
        if level + 1 < CoarseningConfig::MAX_LEVELS {
            coarse_graph = fold_graph(comm, coarse_graph, &mut active, config.fold_threshold)?;
        }
        hierarchy.push(Contraction {
            coarse_graph,
            coarse_of: contraction.coarse_of_owned,
        });
    }
    let coarsest = hierarchy.coarsest();
    let hierarchy_levels = hierarchy.num_levels();
    let coarsest_nodes = coarsest.num_global_nodes();

    // --- Phase 2: redundant initial partitioning of the coarsest graph. ---
    comm.set_phase("initial");
    let coarsest_full = allgather_graph(comm, coarsest)?;
    // Rank r explores its own seed window; rank 0's window equals the
    // shared pipeline's (single-threaded) one.
    let mine = best_of_repeats(&coarsest_full, &base.initial_partitioning(1, comm.rank()));
    // The same quality key best_of_repeats minimises internally, so the
    // cross-rank selection cannot drift from the per-rank one.
    let my_key = quality_key(&coarsest_full, &mine, base.epsilon);
    let keys = comm.allgather(my_key)?;
    #[expect(clippy::expect_used, reason = "one key per rank, ranks >= 1")]
    let winner_rank = keys
        .iter()
        .enumerate()
        .min_by_key(|&(_, key)| key)
        .map(|(r, _)| r)
        .expect("at least one rank");
    let mine = (comm.rank() == winner_rank).then_some(mine);
    let winner = broadcast_winner(comm, winner_rank, mine, k, coarsest_full.num_nodes())?;

    // --- Phase 3: uncoarsening with pairwise distributed refinement. ---
    // The walk `MultilevelHierarchy::uncoarsen` takes, with one shard of the
    // state per rank and every step a fallible collective: pop the coarsest
    // level, project through it, drop it, refine the finer shard.
    let refinement_config = base.refinement();
    let mut stats = RefinementStats::default();
    let mut refine = |comm: &mut C, dg: &DistGraph, st: &mut DistState| {
        comm.set_phase("refine");
        let l_max = level_l_max(comm, dg, k, base.epsilon)?;
        dist_refine(comm, dg, st, &refinement_config, l_max, &mut stats)
    };
    // Coarsest-level state: the one full boundary-index build of the run.
    let view: Vec<BlockId> = (0..coarsest.local().num_nodes() as NodeId)
        .map(|l| winner.block_of(coarsest.global_of(l)))
        .collect();
    let weights = BlockWeights::compute(&coarsest_full, &winner);
    let mut st = DistState::build(coarsest, view, k, weights);
    refine(comm, coarsest, &mut st)?;
    while let Some(level) = hierarchy.pop() {
        comm.set_phase("project");
        let fine = hierarchy.coarsest();
        st = project_state(comm, fine, &level.coarse_graph, &st, &level.coarse_of)?;
        drop(level);
        refine(comm, fine, &mut st)?;
    }

    // --- Gather the global assignment (replicated) and the exact cut. ---
    comm.set_phase("finish");
    let owned_blocks: Vec<BlockId> = st.view()[..finest.num_owned()].to_vec();
    let partition = gather_assignment(comm, owned_blocks, k, finest.range_starts())?;
    let edge_cut = st.edge_cut(comm, &finest)?;

    Ok(RankResult {
        partition,
        edge_cut,
        hierarchy_levels,
        coarsest_nodes,
        refinement: stats,
        full_builds: st.full_builds(),
        comm: comm.stats().clone(),
    })
}

/// Broadcasts the winning initial partition from `root` (which passes it as
/// `mine`) and checks that it splits the coarsest graph's `n` nodes into `k`
/// blocks — its blocks are below its own `k` by construction.
fn broadcast_winner<C: Comm>(
    comm: &mut C,
    root: usize,
    mine: Option<Partition>,
    k: BlockId,
    n: usize,
) -> CommResult<Partition> {
    let winner = comm.broadcast(root, mine)?;
    if winner.k() != k || winner.num_nodes() != n {
        let detail = format!(
            "rank {root}'s initial partition has {} blocks over {} nodes, expected {k} over {n}",
            winner.k(),
            winner.num_nodes()
        );
        return Err(CommError::protocol(comm.rank(), root, "initial", detail));
    }
    Ok(winner)
}

/// Allgathers every rank's owned blocks into the replicated partition of
/// the finest graph, whose ownership ranges are `range_starts`: each rank
/// must send one block below `k` per owned node.
fn gather_assignment<C: Comm>(
    comm: &mut C,
    owned_blocks: Vec<BlockId>,
    k: BlockId,
    range_starts: &[NodeId],
) -> CommResult<Partition> {
    let parts = comm.allgather(owned_blocks)?;
    for (r, part) in parts.iter().enumerate() {
        let owned = (range_starts[r + 1] - range_starts[r]) as usize;
        let detail = if part.len() != owned {
            format!("rank {r} sent {} blocks for its {owned} nodes", part.len())
        } else if let Some(i) = part.iter().position(|&b| b >= k) {
            let gid = range_starts[r] as usize + i;
            format!("rank {r} put node {gid} in block {} of {k}", part[i])
        } else {
            continue;
        };
        return Err(CommError::protocol(comm.rank(), r, "finish", detail));
    }
    Ok(Partition::from_assignment(k, parts.concat()))
}

/// The first of `blocks` (one per global node of `gids`, owned by
/// `owner_of`) that is not below `k`, as the protocol error of its sender.
fn check_projected_blocks(
    rank: usize,
    gids: impl Iterator<Item = NodeId>,
    blocks: impl Iterator<Item = BlockId>,
    k: BlockId,
    owner_of: impl Fn(NodeId) -> usize,
) -> CommResult<()> {
    for (gid, b) in gids.zip(blocks) {
        if b >= k {
            let peer = owner_of(gid);
            let detail = format!("rank {peer} put node {gid} in block {b} of {k}");
            return Err(CommError::protocol(rank, peer, "project", detail));
        }
    }
    Ok(())
}

/// Allgathers the (small) coarsest graph so every rank can partition it
/// redundantly.
fn allgather_graph<C: Comm>(comm: &mut C, dg: &DistGraph) -> CommResult<CsrGraph> {
    // The wire format: one (global row, node weight) pair per owned node.
    let rows: Vec<(Vec<_>, _)> = (0..dg.num_owned() as NodeId)
        .map(|l| {
            (
                dg.local()
                    .edges_of(l)
                    .map(|(t, w)| (dg.global_of(t), w))
                    .collect(),
                dg.local().node_weight(l),
            )
        })
        .collect();
    let all: Vec<_> = comm.allgather(rows)?.into_iter().flatten().collect();
    let n = all.len();
    let mut targets = all.iter().flat_map(|(row, _)| row).map(|&(t, _)| t);
    if let Some(t) = targets.find(|&t| t as usize >= n) {
        let detail = format!("coarsest-graph row targets global node {t} of {n}");
        return Err(CommError::protocol(
            comm.rank(),
            comm.rank(),
            "initial",
            detail,
        ));
    }
    let mut rows = CsrGraph::rows(n, 0);
    let mut vwgt = Vec::with_capacity(n);
    for (row, w) in all {
        rows.push_node(row);
        vwgt.push(w);
    }
    rows.try_finish(vwgt, None).map_err(|e| {
        let detail = format!("coarsest-graph weights do not fit: {e}");
        CommError::protocol(comm.rank(), comm.rank(), "initial", detail)
    })
}

/// The balance bound `L_max` of one level, from allreduced totals — exactly
/// `Partition::l_max` evaluated on the (virtual) global graph.
fn level_l_max<C: Comm>(
    comm: &mut C,
    dg: &DistGraph,
    k: BlockId,
    epsilon: f64,
) -> CommResult<NodeWeight> {
    let owned = (0..dg.num_owned() as NodeId).map(|v| dg.local().node_weight(v));
    // One allgather carries both reductions — half the collective rounds of
    // a sum-allreduce followed by a max-allreduce, same folded values.
    let local: (NodeWeight, NodeWeight) = (owned.clone().sum(), owned.max().unwrap_or(0));
    let both = comm.allgather(local)?;
    let total: NodeWeight = both.iter().map(|&(s, _)| s).sum();
    let max = both.iter().map(|&(_, m)| m).max().unwrap_or(0);
    Ok(Partition::l_max_of(total, max, k, epsilon))
}

/// Projects the coarse state one level down: reads the block and boundary
/// flag of every owned fine node's coarse image — in place when this rank
/// owns the image, pulled from the image's owner otherwise — mirrors the
/// fine blocks over the ghost layer, and seeds the fine boundary-index shard
/// from the image of the coarse boundary (no full build). Weights carry over
/// (contraction preserves them).
fn project_state<C: Comm>(
    comm: &mut C,
    fine: &DistGraph,
    coarse: &DistGraph,
    st: &DistState,
    coarse_of_owned: &[NodeId],
) -> CommResult<DistState> {
    debug_assert_eq!(coarse_of_owned.len(), fine.num_owned());
    let (lo, hi) = coarse.owned_range();
    let coarse_info = |l: NodeId| (st.block_of_local(l), st.index().is_boundary(l));
    // Deduplicated coarse images owned by other ranks — none at one rank,
    // but the pull's collectives run at every rank count.
    let mut remote: Vec<NodeId> = coarse_of_owned
        .iter()
        .copied()
        .filter(|&cid| cid < lo || cid >= hi)
        .collect();
    remote.sort_unstable();
    remote.dedup();
    let pulled: Vec<(BlockId, bool)> = coarse.pull(comm, &remote, coarse_info)?;
    let blocks = pulled.iter().map(|&(b, _)| b);
    check_projected_blocks(comm.rank(), remote.iter().copied(), blocks, st.k(), |gid| {
        coarse.owner_of(gid)
    })?;
    #[expect(clippy::expect_used, reason = "`remote` holds every unowned image")]
    let lookup = |cid: NodeId| -> (BlockId, bool) {
        if cid >= lo && cid < hi {
            return coarse_info(cid - lo);
        }
        pulled[remote.binary_search(&cid).expect("image present")]
    };

    let (mut view, mut candidate): (Vec<BlockId>, Vec<bool>) =
        coarse_of_owned.iter().map(|&cid| lookup(cid)).unzip();
    // Ghost mirrors of block + candidate flag come from the fine owners
    // (which just computed them for their owned nodes).
    let ghost_info = fine.exchange_ghosts(comm, |l| (view[l as usize], candidate[l as usize]))?;
    let blocks = ghost_info.iter().map(|&(b, _)| b);
    check_projected_blocks(
        comm.rank(),
        fine.ghosts().iter().copied(),
        blocks,
        st.k(),
        |gid| fine.owner_of(gid),
    )?;
    view.extend(ghost_info.iter().map(|&(block, _)| block));
    candidate.extend(ghost_info.iter().map(|&(_, cand)| cand));

    Ok(DistState::build_seeded(
        fine,
        view,
        st.k(),
        BlockWeights::from_weights(st.weights().as_slice().to_vec()),
        |l| candidate[l as usize],
        st.full_builds(),
    ))
}

#[cfg(test)]
mod tests {
    use super::{allgather_graph, broadcast_winner, fold_active, gather_assignment, project_state};
    use crate::comm::{Comm, CommError, LocalCluster};
    use crate::graph::DistGraph;
    use crate::state::DistState;
    use kappa_gen::grid::grid2d;
    use kappa_graph::{graph_from_edges, BlockId, BlockWeights, NodeId, Partition};

    /// Rank 0's error of a two-rank run whose rank 1 is a bad peer, checked
    /// to name rank 0, rank 1 and `tag` and to carry `detail`.
    fn assert_blames_rank_1(results: &[Option<CommError>], tag: &str, detail: &str) {
        let e = results[0].as_ref().expect("rank 0 reports the bad peer");
        assert_eq!((e.rank, e.peer, e.tag.as_str()), (0, 1, tag), "{e}");
        assert!(e.to_string().contains(detail), "{e}");
    }

    #[test]
    fn a_winning_partition_of_another_shape_is_diagnosed() {
        // The coarsest graph has 6 nodes and k = 4; rank 1 wins with a
        // partition into 5 blocks, then with one over 5 nodes.
        for (bad, detail) in [
            (
                Partition::from_assignment(5, vec![4; 6]),
                "5 blocks over 6 nodes",
            ),
            (
                Partition::from_assignment(4, vec![0; 5]),
                "4 blocks over 5 nodes",
            ),
        ] {
            let results = LocalCluster::new(2).run(|comm| {
                let mine = (comm.rank() == 1).then(|| bad.clone());
                broadcast_winner(comm, 1, mine, 4, 6).err()
            });
            let expected = format!("rank 1's initial partition has {detail}, expected 4 over 6");
            assert_blames_rank_1(&results, "initial", &expected);
        }
    }

    #[test]
    fn finish_blocks_of_another_length_or_past_k_are_diagnosed() {
        // Two ranks own 8 nodes each of a k = 2 partition.
        let mut past_k = vec![0; 8];
        past_k[7] = 5;
        for (bad, detail) in [
            (vec![0; 3], "rank 1 sent 3 blocks for its 8 nodes"),
            (past_k, "rank 1 put node 15 in block 5 of 2"),
        ] {
            let results = LocalCluster::new(2).run(|comm| {
                let owned = if comm.rank() == 1 {
                    bad.clone()
                } else {
                    vec![0; 8]
                };
                gather_assignment(comm, owned, 2, &[0, 8, 16]).err()
            });
            assert_blames_rank_1(&results, "finish", detail);
        }
    }

    #[test]
    fn a_projected_block_past_k_is_diagnosed() {
        // A 4 × 4 grid, fine ranges 0..8 | 8..16, coarse ranges 0..4 | 4..16
        // and the identity contraction, k = 2 by halves: rank 0 pulls the
        // images of its nodes 4..8 from rank 1 and mirrors nodes 8..12 of
        // rank 1. The bad rank 1 answers the pull, or the ghost exchange,
        // with block 7.
        let g = grid2d(4, 4);
        let partition = Partition::from_assignment(2, (0..16).map(|v| v / 8).collect());
        for (lie_in_pull, detail) in [
            (true, "rank 1 put node 4 in block 7 of 2"),
            (false, "rank 1 put node 8 in block 7 of 2"),
        ] {
            let results = LocalCluster::new(2).run(|comm| {
                let fine = DistGraph::from_global(&g, 2, comm.rank());
                let coarse = DistGraph::from_global_ranges(&g, vec![0, 4, 16], comm.rank());
                let view: Vec<BlockId> = (0..coarse.local().num_nodes() as NodeId)
                    .map(|l| partition.block_of(coarse.global_of(l)))
                    .collect();
                let weights = BlockWeights::compute(&g, &partition);
                let st = DistState::build(&coarse, view, 2, weights);
                if comm.rank() == 1 {
                    let lie = |b: BlockId| if lie_in_pull { 7 } else { b };
                    // The bad peer's pull and ghost exchange meet the ones
                    // inside rank 0's `project_state`.
                    coarse
                        .pull(comm, &[], |l| (lie(st.block_of_local(l)), false))
                        .unwrap();
                    if !lie_in_pull {
                        fine.exchange_ghosts(comm, |_| (7 as BlockId, false))
                            .unwrap();
                    }
                    return None;
                }
                let coarse_of: Vec<NodeId> = (0..8).collect();
                project_state(comm, &fine, &coarse, &st, &coarse_of).err()
            });
            assert_blames_rank_1(&results, "project", detail);
        }
    }

    #[test]
    fn a_peer_row_past_the_coarsest_graph_is_diagnosed() {
        // The ranks disagree about the graph: rank 0 holds a 2-node graph
        // alone, rank 1 the upper half of an 8-node path. Six rows are
        // gathered, and rank 1's row of node 5 names node 6.
        let pair = graph_from_edges(2, [(0, 1, 1)]);
        let path = graph_from_edges(8, (0..7).map(|v| (v, v + 1, 1)));
        let results = LocalCluster::new(2).run(|comm| {
            let (graph, ranges) = match comm.rank() {
                0 => (&pair, vec![0, 2, 2]),
                _ => (&path, vec![0, 4, 8]),
            };
            let dg = DistGraph::from_global_ranges(graph, ranges, comm.rank());
            allgather_graph(comm, &dg).map(|_| ())
        });
        for result in results {
            let err = result.expect_err("target 6 is out of range");
            assert!(err.to_string().contains("global node 6 of 6"), "{err}");
        }
    }

    #[test]
    fn peer_weights_past_the_totals_rule_are_diagnosed() {
        // Both ranks hold a legal 4-node path of total edge weight
        // u32::MAX, but the bad rank 1 puts the heavy edge in its own half,
        // where rank 0's path has it in rank 0's half. The gathered rows sum
        // to 2·u32::MAX − 4, which the coarsest graph cannot store.
        let max = kappa_graph::MAX_TOTAL_WEIGHT;
        let heavy = |w01, w23| graph_from_edges(4, vec![(0, 1, w01), (1, 2, 1), (2, 3, w23)]);
        let graphs = [heavy(max - 2, 1), heavy(1, max - 2)];
        let results = LocalCluster::new(2).run(|comm| {
            let dg = DistGraph::from_global(&graphs[comm.rank()], 2, comm.rank());
            allgather_graph(comm, &dg).err()
        });
        for e in results {
            let e = e.expect("no rank can store the gathered graph");
            assert_eq!(e.tag, "initial", "{e}");
            assert!(e.to_string().contains("total edge weight exceeds"), "{e}");
        }
    }

    #[test]
    fn fold_active_halves_through_the_threshold_cascade() {
        assert_eq!(fold_active(5000, 8, 2048), 8);
        assert_eq!(fold_active(2000, 8, 2048), 4);
        assert_eq!(fold_active(900, 8, 2048), 2);
        assert_eq!(fold_active(400, 8, 2048), 1);
        // Threshold 0 disables folding entirely.
        assert_eq!(fold_active(400, 8, 0), 8);
        // A lone rank never folds further.
        assert_eq!(fold_active(1, 1, 2048), 1);
    }
}
