//! Pairwise distributed refinement, scheduled over the quotient graph.
//!
//! The distributed sibling of `kappa_refine::refine_partition`, in BSP
//! supersteps:
//!
//! 1. Per global iteration every rank contributes its boundary-priced share
//!    of the quotient-graph cut weights; the merged quotient (the shares
//!    checked per sender, concatenated and summed by `sum_cut_weights`) and
//!    its greedy edge colouring are computed **replicated** (same seed, same
//!    result on every rank) — no broadcast needed.
//! 2. The pairs of one colour class are block-disjoint, so they refine
//!    concurrently: pair `i` of a class is assigned to **home rank**
//!    `i mod R`. At one rank every pair runs kappa-refine's own `search_pair`
//!    on the live view. Across ranks the class is gathered once: the seeds
//!    (pair-boundary candidates, kept per rank like the shared
//!    `IndexSeeder`'s) go to the homes, a level-synchronised distributed BFS
//!    grows the depth-`d` bands, each rank ships its share of every band to
//!    the pair's home (one flat [`BandShard`] per pair, filled from its
//!    dense `BandScratch`), the homes run `search_pair` on their assembled
//!    regions **in parallel across ranks**, and the surviving moves are
//!    exchanged.
//! 3. Every rank replays the class's moves through its state — live view,
//!    boundary-index shard, replicated weights — once per class, in
//!    deterministic pair order; a rank holding a moved node vets the move.
//!
//! A level's gain is summed, not measured: a class's pairs share no block,
//! so their exact gains add up, and a rebalancing move costs its cut delta.
//!
//! So every rank count runs one local-iteration loop and one stop rule
//! (`RefinementConfig::converged`). One rank runs the shared scheduler's
//! exact searches — same quotient, colouring, seeds, `search_pair` on an
//! equal view and `IdleBands` reuse — so `--ranks 1` is bit-identical to
//! `--threads 1` by construction, every `RefinementStats` counter included;
//! that a gathered search's first local iteration equals the direct one is
//! kappa-refine's `gathered_region_matches_direct_search` proptest. The
//! distributed rebalancer picks `rebalance_state`'s moves by construction:
//! each rank scores its owned boundary candidates with the shared
//! `best_move_of` and an allreduce-min selects the unique global minimum
//! candidate tuple.

use kappa_graph::{is_pair_boundary, sum_cut_weights, BlockId, NodeId, NodeWeight, QuotientGraph};
use kappa_refine::{
    best_move_of, color_quotient_edges, fallback_move_of, fallback_target, search_pair, BandShard,
    FmScratch, GatheredRegion, IdleBands, IndexSeeder, PairSearch, RefinementConfig,
    RefinementStats, ShardError,
};

use crate::comm::{allreduce_min_opt, Comm, CommError, CommResult, Tag};
use crate::graph::{DistGraph, LocalAssignment};
use crate::state::{DistState, MoveRec};

/// One pair's report from its home rank: the pooled outcome of its local
/// iterations.
#[derive(Clone, Debug)]
struct PairReport {
    pair: usize,
    searches: u64,
    gain: i64,
    moves: Vec<MoveRec>,
}

crate::impl_wire_struct!(PairReport {
    pair,
    searches,
    gain,
    moves,
});

/// One pair of a colour class at class start, as every rank sees it.
struct PairRun {
    a: BlockId,
    b: BlockId,
    home: usize,
    /// Block weights of the pair at class start (replicated).
    w_a: NodeWeight,
    w_b: NodeWeight,
    /// This rank's share of the pair boundary at class start: owned local
    /// ids, ascending (the rank-local shard of the shared `IndexSeeder`
    /// candidate list; at one rank, all of it).
    candidates: Vec<NodeId>,
}

/// How this rank searches the pairs of a colour class; one per level.
enum ClassSearch {
    /// One rank: in place, keeping the bands of idle searches for the pair's
    /// next visit, as the shared scheduler does.
    InPlace(IdleBands),
    /// Across ranks: gathered, with the band scratch handed from class to
    /// class.
    Gathered(BandScratch),
}

/// One colour class and the coordinates its searches derive their FM
/// configurations from.
struct ClassCoords<'c> {
    class: &'c [(BlockId, BlockId)],
    global_iter: usize,
    color_idx: usize,
    config: &'c RefinementConfig,
    l_max: NodeWeight,
}

impl ClassCoords<'_> {
    /// The search of `pair` at these coordinates, from its class-start
    /// block weights.
    fn search(&self, pair: &PairRun) -> PairSearch<'_> {
        PairSearch {
            a: pair.a,
            b: pair.b,
            w_a: pair.w_a,
            w_b: pair.w_b,
            l_max: self.l_max,
            config: self.config,
            global_iter: self.global_iter,
            color_idx: self.color_idx,
        }
    }
}

/// Refines the distributed partition state on one level (collective call).
/// Mirrors `refine_partition`: entry/exit rebalance, global iterations over
/// quotient colourings, local iterations per pair.
pub fn dist_refine<C: Comm>(
    comm: &mut C,
    dg: &DistGraph,
    st: &mut DistState,
    config: &RefinementConfig,
    l_max: NodeWeight,
    stats: &mut RefinementStats,
) -> CommResult<()> {
    let k = st.k();
    if k < 2 || dg.num_global_nodes() == 0 {
        return Ok(());
    }
    if !st.is_balanced(l_max) {
        dist_rebalance(comm, dg, st, l_max, stats)?;
    }

    // One rank searches in place; only a gather needs band scratch.
    let mut search = if comm.num_ranks() > 1 {
        ClassSearch::Gathered(BandScratch::new(dg.num_owned()))
    } else {
        ClassSearch::InPlace(IdleBands::new(k))
    };
    let mut scratch = FmScratch::new();
    let mut no_change_streak = 0usize;
    for global_iter in 0..config.max_global_iterations {
        // Replicated quotient from the allgathered boundary-priced shares.
        let shares = comm.allgather(st.quotient_partial(dg))?;
        // A pair outside `a < b < k` would index the colouring out of bounds.
        for (src, share) in shares.iter().enumerate() {
            if let Some(&(a, b, w)) = share.iter().find(|&&(a, b, _)| a >= b || b >= k) {
                let why =
                    format!("rank {src} reported cut weight {w} between blocks {a} and {b} of {k}");
                return Err(CommError::protocol(comm.rank(), src, "quotient", why));
            }
        }
        let mut edges = shares.concat();
        sum_cut_weights(&mut edges);
        let quotient = QuotientGraph::from_sorted_edges(k, edges);
        if quotient.num_edges() == 0 {
            break;
        }
        let coloring =
            color_quotient_edges(&quotient, config.seed.wrapping_add(global_iter as u64));
        let mut iteration_gain = 0i64;

        for (color_idx, class) in coloring.classes().enumerate() {
            stats.pairs_considered += class.len();
            let coords = ClassCoords {
                class,
                global_iter,
                color_idx,
                config,
                l_max,
            };
            iteration_gain +=
                refine_class(comm, dg, st, &coords, stats, &mut scratch, &mut search)?;
        }

        stats.global_iterations += 1;
        stats.total_gain += iteration_gain;
        if config.converged(&mut no_change_streak, iteration_gain) {
            break;
        }
    }

    if !st.is_balanced(l_max) {
        dist_rebalance(comm, dg, st, l_max, stats)?;
    }
    Ok(())
}

/// Runs all pairs of one colour class to completion (their local iterations)
/// and commits the surviving moves. Returns the class's total gain.
///
/// * **One rank** runs each pair through kappa-refine's `search_pair` on the
///   live view ([`search_in_place`]) — the shared scheduler's exact
///   sequence, idle bands reused alike, so `--ranks 1` is bit-identical to
///   `--threads 1`.
/// * **Across ranks** the class is gathered once ([`gather_and_search`]) and
///   its whole move set crosses the wire in one exchange.
fn refine_class<C: Comm>(
    comm: &mut C,
    dg: &DistGraph,
    st: &mut DistState,
    coords: &ClassCoords,
    stats: &mut RefinementStats,
    scratch: &mut FmScratch,
    search: &mut ClassSearch,
) -> CommResult<i64> {
    let mut pairs = PairRun::start_class(dg, st, coords.class, comm.num_ranks());
    let reports = match search {
        ClassSearch::InPlace(idle) => {
            search_in_place(dg, st, &mut pairs, coords, scratch, idle, stats)
        }
        ClassSearch::Gathered(bands) => {
            let mine = gather_and_search(comm, dg, st, &pairs, coords, scratch, bands)?;
            let reports = exchange_reports(comm, &pairs, mine)?;
            // Every gathered search grows its band.
            stats.bands_built += reports.iter().map(|r| r.searches as usize).sum::<usize>();
            reports
        }
    };

    // Class commit: replay every pair's moves through the state, in pair
    // order.
    let mut class_gain = 0i64;
    for report in reports {
        stats.pair_searches += report.searches as usize;
        stats.nodes_moved += report.moves.len();
        class_gain += report.gain;
        let (pi, pair) = (report.pair, &pairs[report.pair]);
        for rec in report.moves {
            // A move this rank refuses is its home's protocol violation.
            st.apply_committed(dg, rec).map_err(|detail| {
                let (home, a, b) = (pair.home, pair.a, pair.b);
                let detail = format!("rank {home} reported pair {pi} ({a}, {b}) moving {detail}");
                CommError::protocol(comm.rank(), home, "class-reports", detail)
            })?;
        }
    }
    Ok(class_gain)
}

/// One rank: every pair of the class runs the shared `search_pair` on the
/// live view — which its moves update as they are made, while the index
/// stays at class start — seeded exactly from the pair's boundary in the
/// index, or on its kept band when the pair was idle and unchanged since.
/// Counts the searches' bands into `stats`.
fn search_in_place(
    dg: &DistGraph,
    st: &mut DistState,
    pairs: &mut [PairRun],
    coords: &ClassCoords,
    scratch: &mut FmScratch,
    idle: &mut IdleBands,
    stats: &mut RefinementStats,
) -> Vec<PairReport> {
    let graph = dg.local();
    let config = coords.config;
    let keep = coords.global_iter + 1 < config.max_global_iterations;
    let mut reports = Vec::with_capacity(pairs.len());
    for (pi, pair) in pairs.iter_mut().enumerate() {
        let (a, b) = (pair.a, pair.b);
        let search = coords.search(pair);
        let candidates = std::mem::take(&mut pair.candidates);
        let mut seeder = IndexSeeder::from_pair_boundary(graph, a, b, candidates);
        let first = idle.first_band(a, b, keep);
        let mut delta = search_pair(
            graph,
            &mut st.live_view(),
            &mut seeder,
            scratch,
            &search,
            first,
        );
        let reused = delta.band_reused as usize;
        stats.bands_built += delta.searches - reused;
        stats.bands_reused += reused;
        idle.settle(a, b, &mut delta);
        let record = |(l, to)| pair.record(dg.global_of(l), to, graph.node_weight(l));
        reports.push(PairReport {
            pair: pi,
            searches: delta.searches as u64,
            gain: delta.gain,
            moves: delta.moves.into_iter().map(record).collect(),
        });
    }
    reports
}

/// Across ranks: gathers every pair's band to its home — seeds revalidated
/// in the live view, a level-synchronised band BFS, one shard per rank and
/// pair — and runs this rank's home searches, each one `search_pair` on its
/// gathered region ([`GatheredRegion::search`]: follow-up iterations
/// re-seed from the region's own shifted boundary, clipped to the gathered
/// band). Returns the reports of the pairs homed here, in pair order.
///
/// Message frugality:
/// * the band BFS costs one allgather per hop — `2(R-1)` frames rather than
///   an alltoallv's `R(R-1)` — and stops at the first hop every rank enters
///   with nothing left to expand;
/// * seeds and band shards travel to each peer **in one message** (one
///   frame per peer instead of two all-to-all rounds).
fn gather_and_search<C: Comm>(
    comm: &mut C,
    dg: &DistGraph,
    st: &DistState,
    pairs: &[PairRun],
    coords: &ClassCoords,
    scratch: &mut FmScratch,
    bands: &mut BandScratch,
) -> CommResult<Vec<PairReport>> {
    let (me, ranks) = (comm.rank(), comm.num_ranks());
    let config = coords.config;
    // Seeds: revalidated in the live view; the per-home parts ride to the
    // homes together with the band shards below.
    let (mut frontier, mut seed_parts) = live_seeds(dg, st, pairs, ranks, bands);

    // Level-synchronised distributed band BFS — the one part of the schedule
    // that is inherently round-by-round (hop h+1 needs hop h's expansions).
    for _hop in 0..config.bfs_depth {
        let mut next: Vec<(usize, NodeId)> = Vec::new();
        let mut crossings: Vec<(u32, NodeId)> = Vec::new();
        for &(pi, l) in &frontier {
            let (a, b) = (pairs[pi].a, pairs[pi].b);
            for (t, _) in dg.local().edges_of(l) {
                let bt = st.block_of_local(t);
                if bt != a && bt != b {
                    continue;
                }
                if dg.is_owned_local(t) {
                    if bands.insert(pi, t) {
                        next.push((pi, t));
                    }
                } else {
                    crossings.push((pi as u32, dg.global_of(t)));
                }
            }
        }
        // Every rank sees every crossing and keeps the ones it owns, in rank
        // order; the piggybacked frontier flag lets all ranks agree the band
        // is exhausted and skip the remaining hops.
        let all = comm.allgather((frontier.is_empty(), crossings))?;
        if all.iter().all(|(empty, cross)| *empty && cross.is_empty()) {
            break;
        }
        for (src, (_, part)) in all.into_iter().enumerate() {
            for (pi, gid) in part {
                let Some(pair) = pairs.get(pi as usize) else {
                    return Err(unknown_pair(
                        me,
                        src,
                        "band-bfs",
                        "band crossing",
                        pi,
                        pairs.len(),
                    ));
                };
                let Some(l) = dg.local_of(gid) else {
                    continue; // another owner's crossing; it keeps it
                };
                if !dg.is_owned_local(l) {
                    continue;
                }
                let bl = st.block_of_local(l);
                if (bl == pair.a || bl == pair.b) && bands.insert(pi as usize, l) {
                    next.push((pi as usize, l));
                }
            }
        }
        frontier = next;
    }

    // Band shards, shipped with the seeds: one message per peer.
    let mut band_parts = band_shards(dg, st, pairs, bands, ranks);
    for dst in 0..ranks {
        if dst != me {
            let part = (
                std::mem::take(&mut seed_parts[dst]),
                std::mem::take(&mut band_parts[dst]),
            );
            comm.send(dst, Tag::BAND_RECS, part)?;
        }
    }
    // Rank-order receipt keeps per-pair seed concatenation globally
    // ascending (rank segments ascend and ownership ranges are ordered).
    // `pi` is a dense index into `pairs`, so plain Vecs — not hash maps —
    // carry the per-pair state in deterministic order.
    let mut seeds_of: Vec<Vec<NodeId>> = vec![Vec::new(); pairs.len()];
    let mut gathered = GatheredBands::new(pairs.len());
    for src in 0..ranks {
        let (seed_part, band_part) = if src == me {
            (
                std::mem::take(&mut seed_parts[me]),
                std::mem::take(&mut band_parts[me]),
            )
        } else {
            comm.recv::<(Vec<(u32, NodeId)>, Vec<(u32, BandShard)>)>(src, Tag::BAND_RECS)?
        };
        for (pi, gid) in seed_part {
            let Some(seeds) = seeds_of.get_mut(pi as usize) else {
                return Err(unknown_pair(me, src, "band-recs", "seed", pi, pairs.len()));
            };
            seeds.push(gid);
        }
        gathered.receive(me, src, band_part)?;
    }

    // Home FM: the shared `search_pair` on each gathered region, all local
    // iterations pooled on one gather. A pair without seeds assembles nothing.
    let mut my_reports: Vec<PairReport> = Vec::new();
    for (pi, pair) in pairs.iter().enumerate() {
        if pair.home != me {
            continue;
        }
        let mut report = PairReport {
            pair: pi,
            searches: 0,
            gain: 0,
            moves: Vec::new(),
        };
        if !seeds_of[pi].is_empty() {
            let mut region = gathered.assemble(me, st.k(), pi)?;
            let delta = region
                .search(&seeds_of[pi], &coords.search(pair), scratch)
                .map_err(|e| gathered.blame(me, pi, e))?;
            report.searches = delta.searches as u64;
            report.gain = delta.gain;
            for (l, to) in delta.moves {
                let (gid, weight) = region.node(l);
                report.moves.push(pair.record(gid, to, weight));
            }
        }
        my_reports.push(report);
    }
    Ok(my_reports)
}

/// Batched move broadcast: this rank's home reports go to every peer, then
/// every peer's are read in rank order and merged in pair order.
fn exchange_reports<C: Comm>(
    comm: &mut C,
    pairs: &[PairRun],
    mut my_reports: Vec<PairReport>,
) -> CommResult<Vec<PairReport>> {
    let (me, ranks) = (comm.rank(), comm.num_ranks());
    for dst in 0..ranks {
        if dst != me {
            comm.send(dst, Tag::CLASS_REPORTS, my_reports.clone())?;
        }
    }
    let mut slots: Vec<Vec<PairReport>> = Vec::with_capacity(ranks);
    for src in 0..ranks {
        if src == me {
            slots.push(std::mem::take(&mut my_reports));
        } else {
            slots.push(comm.recv(src, Tag::CLASS_REPORTS)?);
        }
    }
    merge_reports(me, pairs, slots)
}

/// The class's reports in pair order, each checked against the rank it came
/// from: a report must name a pair of this class that is homed on its
/// sender, and each of its moves must take a node from one block of that
/// pair to the other. Anything else is that rank's protocol violation — not
/// an index panic, and not a move list applied on a stranger's say-so.
fn merge_reports(
    me: usize,
    pairs: &[PairRun],
    slots: Vec<Vec<PairReport>>,
) -> CommResult<Vec<PairReport>> {
    let mut merged: Vec<PairReport> = Vec::new();
    for (src, part) in slots.into_iter().enumerate() {
        for r in &part {
            let detail = match pairs.get(r.pair).filter(|p| p.home == src) {
                None => format!(
                    "pair {} of a {}-pair class, which is not homed on it",
                    r.pair,
                    pairs.len()
                ),
                Some(p) => match r
                    .moves
                    .iter()
                    .find(|m| ![(p.a, p.b), (p.b, p.a)].contains(&(m.from, m.to)))
                {
                    None => continue,
                    Some(m) => format!(
                        "pair {} ({}, {}) moving node {} from block {} to {}",
                        r.pair, p.a, p.b, m.gid, m.from, m.to
                    ),
                },
            };
            let detail = format!("rank {src} reported {detail}");
            return Err(CommError::protocol(me, src, "class-reports", detail));
        }
        merged.extend(part);
    }
    merged.sort_unstable_by_key(|r| r.pair);
    Ok(merged)
}

impl PairRun {
    /// A surviving move of the pair's search as a broadcastable record.
    fn record(&self, gid: NodeId, to: BlockId, weight: NodeWeight) -> MoveRec {
        MoveRec {
            gid,
            from: if to == self.a { self.b } else { self.a },
            to,
            weight,
        }
    }

    /// The pairs of one colour class at class start: pair `i` homed on rank
    /// `i mod R`, weights from the replicated state, candidates from one
    /// pass over this rank's boundary-index shard.
    fn start_class(
        dg: &DistGraph,
        st: &DistState,
        class: &[(BlockId, BlockId)],
        ranks: usize,
    ) -> Vec<PairRun> {
        let ln = dg.num_owned();
        class
            .iter()
            .zip(st.class_boundaries_sorted(class))
            .enumerate()
            .map(|(i, (&(a, b), mut candidates))| {
                // Ghosts sort after every owned local id.
                candidates.truncate(candidates.partition_point(|&l| (l as usize) < ln));
                PairRun {
                    a,
                    b,
                    home: i % ranks,
                    w_a: st.weights().weight(a),
                    w_b: st.weights().weight(b),
                    candidates,
                }
            })
            .collect()
    }
}

/// Which band each owned node is in, for one colour class on this rank.
///
/// The pairs of a class are block-disjoint, so a node is in at most one of
/// their bands and one dense array serves the whole class; it is allocated
/// once per level (across ranks only — one rank searches in place) and
/// handed from class to class, because [`band_shards`] clears exactly the
/// entries the class set.
struct BandScratch {
    /// The pair whose band holds owned local node `l`, or `NO_PAIR`.
    pair_of: Vec<u32>,
    /// Per pair, this rank's band members (owned locals) as discovered.
    members: Vec<Vec<NodeId>>,
}

const NO_PAIR: u32 = u32::MAX;

impl BandScratch {
    fn new(num_owned: usize) -> Self {
        BandScratch {
            pair_of: vec![NO_PAIR; num_owned],
            members: Vec::new(),
        }
    }

    /// Puts owned local `l` into pair `pi`'s band; false if it was there.
    fn insert(&mut self, pi: usize, l: NodeId) -> bool {
        let fresh = self.pair_of[l as usize] == NO_PAIR;
        if fresh {
            self.pair_of[l as usize] = pi as u32;
            self.members[pi].push(l);
        }
        fresh
    }
}

/// Revalidates every pair's candidates in the live view: a candidate
/// is a seed iff it is pair-boundary now (the same revalidation as
/// `IndexSeeder::seeds`). Starts the band BFS — `bands` and the returned
/// `(pair, owned local)` frontier hold exactly the seeds — and returns, per
/// home rank, the seeds as `(pair, global id)`.
#[allow(clippy::type_complexity, reason = "frontier and seeds, one tuple")]
fn live_seeds(
    dg: &DistGraph,
    st: &DistState,
    pairs: &[PairRun],
    ranks: usize,
    bands: &mut BandScratch,
) -> (Vec<(usize, NodeId)>, Vec<Vec<(u32, NodeId)>>) {
    bands.members.resize_with(pairs.len(), Vec::new);
    let mut frontier: Vec<(usize, NodeId)> = Vec::new();
    let mut seed_parts: Vec<Vec<(u32, NodeId)>> = vec![Vec::new(); ranks];
    let view = LocalAssignment::new(st.view(), st.k());
    for (pi, pair) in pairs.iter().enumerate() {
        for &l in &pair.candidates {
            if is_pair_boundary(dg.local(), &view, l, pair.a, pair.b) {
                seed_parts[pair.home].push((pi as u32, dg.global_of(l)));
                if bands.insert(pi, l) {
                    frontier.push((pi, l));
                }
            }
        }
    }
    (frontier, seed_parts)
}

/// This rank's share of every pair's band as one [`BandShard`] per pair,
/// grouped by the pair's home rank. Empties `bands` on the way.
fn band_shards(
    dg: &DistGraph,
    st: &DistState,
    pairs: &[PairRun],
    bands: &mut BandScratch,
    ranks: usize,
) -> Vec<Vec<(u32, BandShard)>> {
    let mut band_parts: Vec<Vec<(u32, BandShard)>> = vec![Vec::new(); ranks];
    for (pi, members) in bands.members.iter_mut().enumerate() {
        if members.is_empty() {
            continue;
        }
        let pair = &pairs[pi];
        // Ascending local order is ascending global order, whatever order
        // the BFS found the members in.
        members.sort_unstable();
        let degrees: usize = members.iter().map(|&l| dg.local().degree(l)).sum();
        let mut shard = BandShard::with_capacity(members.len(), degrees);
        for l in members.drain(..) {
            bands.pair_of[l as usize] = NO_PAIR;
            let edges = dg.local().edges_of(l).filter_map(|(t, w)| {
                let bt = st.block_of_local(t);
                (bt == pair.a || bt == pair.b)
                    .then(|| (dg.global_of(t), w, bt, dg.local().node_weight(t)))
            });
            let weight = dg.local().node_weight(l);
            shard.push_node(dg.global_of(l), weight, st.block_of_local(l), edges);
        }
        band_parts[pair.home].push((pi as u32, shard));
    }
    band_parts
}

/// Per pair, the band shards its home rank received and who sent each.
struct GatheredBands {
    shards: Vec<Vec<BandShard>>,
    senders: Vec<Vec<usize>>,
}

impl GatheredBands {
    fn new(pairs: usize) -> Self {
        GatheredBands {
            shards: vec![Vec::new(); pairs],
            senders: vec![Vec::new(); pairs],
        }
    }

    /// Files the `band-recs` part rank `src` sent to this rank.
    fn receive(&mut self, me: usize, src: usize, part: Vec<(u32, BandShard)>) -> CommResult<()> {
        for (pi, shard) in part {
            let pairs = self.shards.len();
            let Some(slot) = self.shards.get_mut(pi as usize) else {
                return Err(unknown_pair(me, src, "band-recs", "band shard", pi, pairs));
            };
            slot.push(shard);
            self.senders[pi as usize].push(src);
        }
        Ok(())
    }

    /// Assembles pair `pi`'s region from its shards (consuming them).
    fn assemble(&mut self, me: usize, k: BlockId, pi: usize) -> CommResult<GatheredRegion> {
        let shards = std::mem::take(&mut self.shards[pi]);
        GatheredRegion::assemble(k, &shards).map_err(|e| self.blame(me, pi, e))
    }

    /// A gather fault of pair `pi` as the protocol violation of the rank
    /// whose shard is at fault (of the gather as a whole when none is).
    fn blame(&self, me: usize, pi: usize, e: ShardError) -> CommError {
        let sender = e.shard.and_then(|s| self.senders[pi].get(s).copied());
        let detail = match sender {
            Some(src) => format!("band of pair {pi}, shard from rank {src}: {e}"),
            None => format!("band of pair {pi}: {e}"),
        };
        CommError::protocol(me, sender.unwrap_or(me), "band-recs", detail)
    }
}

/// Rank `src`'s `what` names pair `pi`, which a class of `pairs` pairs does
/// not have: its protocol violation, diagnosed by rank `me`.
fn unknown_pair(me: usize, src: usize, tag: &str, what: &str, pi: u32, pairs: usize) -> CommError {
    let detail = format!("rank {src} sent a {what} for pair {pi} of a {pairs}-pair class");
    CommError::protocol(me, src, tag, detail)
}

/// Candidate tuple of the distributed rebalancer; ordered by
/// `(cut delta, resulting target weight, global node id, target block)` —
/// the same unique-minimum key as the shared `rebalance_state`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct RebalanceCand {
    delta: i64,
    target_weight: NodeWeight,
    gid: NodeId,
    to: BlockId,
    /// Not part of the ordering key in the shared code, but constant (`from`
    /// is always the overloaded block) — carried for the replicated apply.
    weight: NodeWeight,
}

crate::impl_wire_struct!(RebalanceCand {
    delta,
    target_weight,
    gid,
    to,
    weight,
});

/// Distributed greedy rebalancing: moves nodes out of overloaded blocks until
/// every block obeys `l_max` or no move helps. Picks, per move, exactly the
/// candidate `rebalance_state` would (each rank scores its owned boundary
/// nodes with the shared scoring, an allreduce-min selects the global
/// minimum tuple). Adds the moves to `stats.nodes_moved` and minus each
/// winner's cut delta to `stats.total_gain` (exact for a fallback winner
/// too: a node bordering the lightest block would be a boundary winner).
pub fn dist_rebalance<C: Comm>(
    comm: &mut C,
    dg: &DistGraph,
    st: &mut DistState,
    l_max: NodeWeight,
    stats: &mut RefinementStats,
) -> CommResult<()> {
    type Scored = Option<(i64, NodeWeight, BlockId)>;
    let k = st.k();
    let ln = dg.num_owned();
    let cap = dg.num_global_nodes().saturating_mul(2).max(8);
    for _ in 0..cap {
        let (graph, weights) = (dg.local(), st.weights());
        let Some(over_block) = (0..k).find(|&b| weights.weight(b) > l_max) else {
            break;
        };
        let assignment = LocalAssignment::new(st.view(), k);
        // This rank's best candidate among the owned `nodes` of the
        // overloaded block, as `score` prices them.
        let best_candidate = |nodes: &mut dyn Iterator<Item = NodeId>,
                              score: &dyn Fn(NodeId) -> Scored| {
            nodes
                .filter(|&l| (l as usize) < ln && st.block_of_local(l) == over_block)
                .filter_map(|l| {
                    let (delta, target_weight, to) = score(l)?;
                    Some(RebalanceCand {
                        delta,
                        target_weight,
                        gid: dg.global_of(l),
                        to,
                        weight: graph.node_weight(l),
                    })
                })
                .min()
        };
        let key = |c: &RebalanceCand| (c.delta, c.target_weight, c.gid, c.to);
        let mine = best_candidate(
            &mut st.index().boundary_nodes_unordered().iter().copied(),
            &|l| best_move_of(graph, &assignment, weights, over_block, l_max, l),
        );
        let mut best = allreduce_min_opt(comm, mine, key)?;
        if best.is_none() {
            // Fallback: interior node of the overloaded block into the
            // globally lightest block (replicated weights → same target on
            // every rank).
            if let Some(lightest) = fallback_target(k, weights, over_block) {
                let mine = best_candidate(&mut (0..ln as NodeId), &|l| {
                    fallback_move_of(graph, &assignment, weights, over_block, lightest, l_max, l)
                });
                best = allreduce_min_opt(comm, mine, key)?;
            }
        }
        let Some(cand) = best else { break };
        let rec = MoveRec {
            gid: cand.gid,
            from: over_block,
            to: cand.to,
            weight: cand.weight,
        };
        let applied = if cand.to == over_block {
            Err(format!("node {} back into block {over_block}", cand.gid))
        } else {
            st.apply_committed(dg, rec)
        };
        if let Err(detail) = applied {
            // An honest winner moves its owner's node out of `over_block`.
            let (me, gid) = (comm.rank(), cand.gid);
            let named = (gid as usize) < dg.num_global_nodes();
            let owner = if named { dg.owner_of(gid) } else { me };
            let detail = format!("rank {owner}'s {detail}");
            return Err(CommError::protocol(me, owner, "rebalance", detail));
        }
        stats.nodes_moved += 1;
        stats.total_gain -= cand.delta;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{CommErrorKind, LocalCluster};
    use kappa_gen::grid::grid2d;
    use kappa_gen::rgg::random_geometric_graph;
    use kappa_graph::{BlockWeights, EdgeWeight, Partition, PartitionState};
    use kappa_refine::rebalance_state;

    fn shard(dg: &DistGraph, partition: &Partition, g: &kappa_graph::CsrGraph) -> DistState {
        let view: Vec<BlockId> = (0..dg.local().num_nodes() as NodeId)
            .map(|l| partition.block_of(dg.global_of(l)))
            .collect();
        let weights = BlockWeights::compute(g, partition);
        DistState::build(dg, view, partition.k(), weights)
    }

    /// A class leaves no trace in the scratch at any rank count, so the next
    /// class's bands start from nothing; one rank has no band scratch at all.
    #[test]
    fn band_scratch_is_clean_after_a_class() {
        let g = grid2d(16, 16);
        // Four vertical stripes: (0, 1) and (2, 3) form one colour class.
        let assignment: Vec<BlockId> = (0..256).map(|i| (i % 16 / 4) as u32).collect();
        let partition = Partition::from_assignment(4, assignment);
        let l_max = Partition::l_max(&g, 4, 0.03);
        let config = RefinementConfig::default();
        for ranks in [1usize, 2, 3] {
            let searches = LocalCluster::new(ranks).run(|comm| {
                let dg = DistGraph::from_global(&g, ranks, comm.rank());
                let mut st = shard(&dg, &partition, &g);
                let mut search = if ranks > 1 {
                    ClassSearch::Gathered(BandScratch::new(dg.num_owned()))
                } else {
                    ClassSearch::InPlace(IdleBands::new(4))
                };
                let mut scratch = FmScratch::new();
                let mut stats = RefinementStats::default();
                for class in [[(0, 1), (2, 3)], [(1, 2), (0, 3)]] {
                    let coords = ClassCoords {
                        class: &class,
                        global_iter: 0,
                        color_idx: 0,
                        config: &config,
                        l_max,
                    };
                    refine_class(
                        comm,
                        &dg,
                        &mut st,
                        &coords,
                        &mut stats,
                        &mut scratch,
                        &mut search,
                    )
                    .unwrap();
                    if let ClassSearch::Gathered(bands) = &search {
                        assert!(bands.pair_of.iter().all(|&p| p == NO_PAIR), "stale pair_of");
                        assert!(bands.members.iter().all(Vec::is_empty), "stale members");
                    }
                }
                st.verify_exact(comm, &dg).unwrap();
                stats.pair_searches
            });
            assert!(searches[0] >= 3, "ranks {ranks}: the classes were searched");
        }
    }

    #[test]
    fn malformed_shards_blame_their_sender_and_pair() {
        let mut good = BandShard::with_capacity(0, 0);
        good.push_node(4, 1, 0, [(9, 1, 1, 1)]);
        let mut bad = good.clone();
        bad.gids[0] = 5;
        bad.xadj[1] = 7;
        let mut gathered = GatheredBands::new(2);
        gathered.receive(1, 0, vec![(1, good.clone())]).unwrap();
        gathered.receive(1, 2, vec![(1, bad), (0, good)]).unwrap();
        assert!(gathered.assemble(1, 2, 0).is_ok());
        let e = gathered.assemble(1, 2, 1).unwrap_err();
        assert_eq!((e.rank, e.peer, e.tag.as_str()), (1, 2, "band-recs"));
        match &e.kind {
            CommErrorKind::Protocol(detail) => {
                assert!(detail.contains("pair 1"), "{detail}");
                assert!(detail.contains("rank 2"), "{detail}");
                assert!(detail.contains("xadj"), "{detail}");
            }
            other => panic!("expected a protocol violation, got {other:?}"),
        }
        // A shard for a pair the class does not have.
        let e = gathered
            .receive(1, 0, vec![(2, BandShard::with_capacity(0, 0))])
            .unwrap_err();
        assert_eq!(e.peer, 0);
        assert!(matches!(&e.kind, CommErrorKind::Protocol(d) if d.contains("pair 2")));
    }

    #[test]
    fn misrouted_reports_blame_their_sender_and_pair() {
        let g = grid2d(8, 8);
        let assignment: Vec<BlockId> = (0..64).map(|i| (i % 8 / 2) as u32).collect();
        let partition = Partition::from_assignment(4, assignment);
        let dg = DistGraph::from_global(&g, 2, 1);
        let st = shard(&dg, &partition, &g);
        // Pair 0 is homed on rank 0, pair 1 on rank 1.
        let pairs = PairRun::start_class(&dg, &st, &[(0, 1), (2, 3)], 2);
        let report = |pair| PairReport {
            pair,
            searches: 1,
            gain: 0,
            moves: Vec::new(),
        };
        let merged = merge_reports(1, &pairs, vec![vec![report(0)], vec![report(1)]]).unwrap();
        assert_eq!(merged.iter().map(|r| r.pair).collect::<Vec<_>>(), [0, 1]);
        // A move of node 3 (block 1) to block 7 of k = 4, on its pair's home.
        let mut off_pair = report(0);
        off_pair.moves.push(MoveRec {
            gid: 3,
            from: 1,
            to: 7,
            weight: 1,
        });
        // A pair outside the class, a pair of the class homed elsewhere, and
        // a move out of its pair's blocks.
        for (bad, sender) in [
            (report(2), 0usize),
            (report(1), 0),
            (report(0), 1),
            (off_pair, 0),
        ] {
            let stray = bad.pair;
            let mut slots = vec![Vec::new(), Vec::new()];
            slots[sender] = vec![bad];
            let e = merge_reports(1, &pairs, slots).unwrap_err();
            assert_eq!(
                (e.rank, e.peer, e.tag.as_str()),
                (1, sender, "class-reports")
            );
            let expected = (format!("rank {sender}"), format!("pair {stray}"));
            assert!(
                matches!(&e.kind, CommErrorKind::Protocol(d)
                    if d.contains(&expected.0) && d.contains(&expected.1)),
                "{e:?}"
            );
        }
    }

    /// A winning rebalance candidate that moves its node to no block, or
    /// back into the overloaded block, or that misstates the weight of a
    /// node the other rank holds as a ghost, is the protocol error of the
    /// rank owning the node — not a panic in the replicated weights.
    #[test]
    fn rebalance_rejects_a_winner_outside_the_blocks() {
        let g = grid2d(8, 8);
        // Block 0 holds 48 of 64 nodes: overloaded at k = 4.
        let assignment: Vec<BlockId> = (0..64).map(|i| (i % 8 / 2).min(i / 48) as u32).collect();
        let partition = Partition::from_assignment(4, assignment);
        let l_max = Partition::l_max(&g, 4, 0.03);
        // Rank 0 owns rows 0..4; node 36 of row 4 is its ghost, 40 is not.
        for (gid, to, weight, expected) in [
            (40, 7, 1, "node 40 of weight 1 from block 0 to 7 of 4"),
            (40, 0, 1, "node 40 back into block 0"),
            (
                36,
                1,
                2,
                "node 36 of weight 2 from block 0 to 1 of 4; it weighs 1 in",
            ),
        ] {
            let outcomes = LocalCluster::new(2).run(|comm| {
                let dg = DistGraph::from_global(&g, 2, comm.rank());
                if comm.rank() == 1 {
                    // The bad peer: an unbeatable candidate of its own node.
                    let cand = RebalanceCand {
                        delta: i64::MIN,
                        target_weight: 0,
                        gid,
                        to,
                        weight,
                    };
                    comm.allgather(Some(cand)).unwrap();
                    return None;
                }
                let mut st = shard(&dg, &partition, &g);
                let mut stats = RefinementStats::default();
                Some(dist_rebalance(comm, &dg, &mut st, l_max, &mut stats).unwrap_err())
            });
            let e = outcomes[0].as_ref().unwrap();
            assert_eq!((e.rank, e.peer, e.tag.as_str()), (0, 1, "rebalance"));
            assert!(
                matches!(&e.kind, CommErrorKind::Protocol(d)
                    if d.contains(&format!("rank 1's {expected}"))),
                "{e:?}"
            );
        }
    }

    /// A quotient share naming a block past `k`, or a pair out of order, is
    /// the protocol error of the rank that sent it — not an out-of-bounds
    /// index in the replicated colouring.
    #[test]
    fn a_malformed_quotient_share_blames_its_sender() {
        let g = grid2d(8, 8);
        // Four vertical stripes of two columns: balanced, so the level opens
        // with the quotient allgather.
        let partition = Partition::from_assignment(4, (0..64).map(|i| i % 8 / 2).collect());
        let l_max = Partition::l_max(&g, 4, 0.03);
        let config = RefinementConfig::default();
        for (a, b) in [(0, 4), (2, 1)] {
            let outcomes = LocalCluster::new(2).run(|comm| {
                if comm.rank() == 1 {
                    let share: Vec<(BlockId, BlockId, EdgeWeight)> = vec![(a, b, 3)];
                    comm.allgather(share).unwrap();
                    return None;
                }
                let dg = DistGraph::from_global(&g, 2, comm.rank());
                let mut st = shard(&dg, &partition, &g);
                let mut stats = RefinementStats::default();
                Some(dist_refine(comm, &dg, &mut st, &config, l_max, &mut stats).unwrap_err())
            });
            let e = outcomes[0].as_ref().unwrap();
            assert_eq!((e.rank, e.peer, e.tag.as_str()), (0, 1, "quotient"));
            let expected = format!("rank 1 reported cut weight 3 between blocks {a} and {b} of 4");
            assert!(
                matches!(&e.kind, CommErrorKind::Protocol(d) if *d == expected),
                "{e:?}"
            );
        }
    }

    /// A band crossing or a seed naming a pair the class does not have is
    /// the protocol error of the rank that sent it — not an out-of-bounds
    /// index at the rank that owns the crossing or homes the seed.
    #[test]
    fn a_band_message_for_a_pair_outside_the_class_blames_its_sender() {
        let g = grid2d(8, 8);
        let partition = Partition::from_assignment(4, (0..64).map(|i| i % 8 / 2).collect());
        let l_max = Partition::l_max(&g, 4, 0.03);
        let config = RefinementConfig::default();
        for (tag, what) in [("band-bfs", "band crossing"), ("band-recs", "seed")] {
            let outcomes = LocalCluster::new(2).run(|comm| {
                let dg = DistGraph::from_global(&g, 2, comm.rank());
                let mut st = shard(&dg, &partition, &g);
                if comm.rank() == 1 {
                    // The bad peer: its honest quotient share, then pair 99
                    // with rank 0's node 0, as a crossing or as a seed.
                    comm.allgather(st.quotient_partial(&dg)).unwrap();
                    let bogus: Vec<(u32, NodeId)> = vec![(99, 0)];
                    if tag == "band-bfs" {
                        comm.allgather((false, bogus)).unwrap();
                        return None;
                    }
                    // Every hop with nothing to add, then the seed.
                    for _ in 0..config.bfs_depth {
                        let none: Vec<(u32, NodeId)> = Vec::new();
                        let all = comm.allgather((true, none)).unwrap();
                        if all.iter().all(|(empty, cross)| *empty && cross.is_empty()) {
                            break;
                        }
                    }
                    let shards: Vec<(u32, BandShard)> = Vec::new();
                    comm.send(0, Tag::BAND_RECS, (bogus, shards)).unwrap();
                    // Stay until rank 0 has sent its own part.
                    type Part = (Vec<(u32, NodeId)>, Vec<(u32, BandShard)>);
                    comm.recv::<Part>(0, Tag::BAND_RECS).unwrap();
                    return None;
                }
                let mut stats = RefinementStats::default();
                Some(dist_refine(comm, &dg, &mut st, &config, l_max, &mut stats).unwrap_err())
            });
            let e = outcomes[0].as_ref().unwrap();
            assert_eq!((e.rank, e.peer, e.tag.as_str()), (0, 1, tag));
            let expected = format!("rank 1 sent a {what} for pair 99 of a ");
            assert!(
                matches!(&e.kind, CommErrorKind::Protocol(d) if d.starts_with(&expected)),
                "{e:?}"
            );
        }
    }

    /// A home that reports a move of a node out of a block it is not in is
    /// refused by the rank holding the node, which blames the home and the
    /// pair before any replicated weight moves. Node 5 of a 12 × 12 grid
    /// sits in block 1; the bad home of pair (0, 2) reports it moving from
    /// block 2 to block 0, which `merge_reports` cannot tell from a move of
    /// its pair.
    #[test]
    fn a_committed_move_out_of_the_wrong_block_blames_its_home() {
        let g = grid2d(12, 12);
        // Segments of four nodes cycle through the blocks; blocks 0 and 2
        // (and 1 and 3) never touch, so the class itself moves nothing.
        let partition = Partition::from_assignment(4, (0..144).map(|i| (i / 4) % 4).collect());
        let l_max = Partition::l_max(&g, 4, 0.03);
        let config = RefinementConfig::default();
        // Pair 1 is homed on rank 1; rank 0 owns node 5.
        let class = [(1, 3), (0, 2)];
        let outcomes = LocalCluster::new(2).run(|comm| {
            let dg = DistGraph::from_global(&g, 2, comm.rank());
            let mut st = shard(&dg, &partition, &g);
            let coords = ClassCoords {
                class: &class,
                global_iter: 0,
                color_idx: 0,
                config: &config,
                l_max,
            };
            let mut scratch = FmScratch::new();
            let mut bands = BandScratch::new(dg.num_owned());
            if comm.rank() == 1 {
                // The bad home: its own searches, then one move too many.
                let pairs = PairRun::start_class(&dg, &st, &class, 2);
                let mut mine =
                    gather_and_search(comm, &dg, &st, &pairs, &coords, &mut scratch, &mut bands)
                        .unwrap();
                mine[0].moves.push(MoveRec {
                    gid: 5,
                    from: 2,
                    to: 0,
                    weight: 1,
                });
                exchange_reports(comm, &pairs, mine).unwrap();
                return None;
            }
            let mut search = ClassSearch::Gathered(bands);
            let mut stats = RefinementStats::default();
            let e = refine_class(
                comm,
                &dg,
                &mut st,
                &coords,
                &mut stats,
                &mut scratch,
                &mut search,
            )
            .unwrap_err();
            Some((e, st.weights().as_slice().to_vec()))
        });
        let (e, weights) = outcomes[0].as_ref().unwrap();
        assert_eq!((e.rank, e.peer, e.tag.as_str()), (0, 1, "class-reports"));
        assert!(
            matches!(&e.kind, CommErrorKind::Protocol(d)
                if d.contains("rank 1 reported pair 1 (0, 2) moving node 5 of weight 1 \
                    from block 2 to 0 of 4; it weighs 1 in block 1 here")),
            "{e:?}"
        );
        assert_eq!(weights, &[36; 4], "the refused move shifted no weight");
    }

    /// A level's gain is summed from its searches and its rebalancing moves,
    /// never measured; it must still be the exact cut change. Every node
    /// starts in block 0, so the level opens with a rebalance whose first
    /// move is the interior fallback (block 0 has no boundary) and whose
    /// later moves are boundary moves, before the pair searches run.
    #[test]
    fn level_gain_is_the_cut_change_from_an_infeasible_start() {
        for (g, k) in [(grid2d(12, 12), 4u32), (random_geometric_graph(600, 7), 3)] {
            let n = g.num_nodes();
            let partition = Partition::from_assignment(k, vec![0; n]);
            let l_max = Partition::l_max(&g, k, 0.03);
            let config = RefinementConfig::default();
            for ranks in [1usize, 2, 3] {
                let outcomes = LocalCluster::new(ranks).run(|comm| {
                    let dg = DistGraph::from_global(&g, ranks, comm.rank());
                    let mut st = shard(&dg, &partition, &g);
                    let mut stats = RefinementStats::default();
                    dist_refine(comm, &dg, &mut st, &config, l_max, &mut stats).unwrap();
                    (stats, st.view()[..dg.num_owned()].to_vec())
                });
                let stats = outcomes[0].0;
                let refined = Partition::from_assignment(
                    k,
                    outcomes.into_iter().flat_map(|(_, owned)| owned).collect(),
                );
                assert!(stats.nodes_moved as f64 >= n as f64 * 0.5, "ranks {ranks}");
                assert!(refined.is_balanced(&g, 0.03), "ranks {ranks}");
                assert_eq!(
                    stats.total_gain,
                    partition.edge_cut(&g) as i64 - refined.edge_cut(&g) as i64,
                    "ranks {ranks}, n {n}"
                );
            }
        }
    }

    #[test]
    fn dist_rebalance_matches_the_shared_rebalancer() {
        let g = grid2d(12, 12);
        for (k, stripe) in [(2u32, 9usize), (4, 10)] {
            let assignment: Vec<BlockId> = (0..144)
                .map(|i| {
                    if i % 12 < stripe {
                        0
                    } else {
                        (i % k as usize) as u32
                    }
                })
                .collect();
            let partition = Partition::from_assignment(k, assignment);
            let l_max = Partition::l_max(&g, k, 0.03);
            let mut reference = PartitionState::build(&g, partition.clone());
            let moved_ref = rebalance_state(&g, &mut reference, l_max);
            for ranks in [1usize, 2, 3] {
                let views = LocalCluster::new(ranks).run(|comm| {
                    let dg = DistGraph::from_global(&g, ranks, comm.rank());
                    let mut st = shard(&dg, &partition, &g);
                    let mut stats = RefinementStats::default();
                    dist_rebalance(comm, &dg, &mut st, l_max, &mut stats).unwrap();
                    st.verify_exact(comm, &dg).unwrap();
                    let owned: Vec<BlockId> = st.view()[..dg.num_owned()].to_vec();
                    (stats, owned)
                });
                let mut global: Vec<BlockId> = Vec::new();
                let cut_change = partition.edge_cut(&g) as i64 - reference.edge_cut() as i64;
                for (stats, owned) in views {
                    assert_eq!(stats.nodes_moved, moved_ref, "ranks {ranks} move count");
                    assert_eq!(stats.total_gain, cut_change, "ranks {ranks} gain");
                    global.extend(owned);
                }
                assert_eq!(
                    global,
                    reference.partition().assignment(),
                    "ranks {ranks} assignment"
                );
            }
        }
    }
}
