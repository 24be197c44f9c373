//! The distributed graph: 1D block distribution of the CSR with ghost
//! (halo) vertices.
//!
//! Every rank owns a contiguous global node range and stores its shard as an
//! ordinary [`CsrGraph`] over *local* ids: first the owned nodes (local id =
//! global id − range start), then the ghosts — every remote node adjacent to
//! an owned node — sorted by global id. Owned rows carry the node's **full**
//! adjacency (each neighbour is owned or a ghost by construction); ghost rows
//! carry only the edges back into the owned range, which is exactly the
//! half of the ghost's adjacency this rank can know and all it ever needs
//! (propagating ghost updates into owned state, e.g. boundary-index counts).
//!
//! The **owner-computes** rule: a node's authoritative value (block, weight,
//! matching partner, coarse id, …) lives at its owner; every other rank holds
//! a read-only mirror for its ghost copy, refreshed by
//! [`DistGraph::exchange_ghosts`]. The exchange schedule is derivable without
//! communication: rank `s` must send owned node `u` to rank `r` exactly when
//! `u` has a neighbour owned by `r` — knowledge both sides share, because the
//! edge is stored on both sides of the cut.
//!
//! **Assembly in place.** [`DistGraph::assemble`] — behind the level-0 slice
//! ([`DistGraph::from_global_ranges`]), every coarse level (the contraction's
//! [`DistGraph::assemble_with`]) and every fold — rewrites the owned rows it
//! is handed, in place ([`CsrRows::remap_targets`]): owned targets become
//! `t − lo`, remote ones are recorded and become ghost ids once the sorted
//! ghost set is known, and the ghost reverse rows are appended to the same
//! rows. A shard therefore holds its edges once; on any rank whose rows name
//! no remote node there are no ghosts and the shard is the handed rows as
//! they came. A level-0 shard that owns every node — every one-rank run — is
//! not assembled at all: it borrows the caller's graph, so no run holds its
//! input twice. An owner checks every id a peer asks it about
//! ([`DistGraph::pull`], the ghost weights of `assemble_with`) against its
//! own range and answers a foreign id with a protocol error.

use std::borrow::Cow;

use kappa_graph::{
    BlockAssignment, BlockAssignmentMut, BlockId, CsrGraph, CsrRows, EdgeWeight, NodeId,
    NodeWeight, INVALID_NODE,
};

use crate::comm::{Comm, CommError, CommResult, Message};

/// One rank's shard of a distributed graph. A shard that owns every node of
/// a caller's graph borrows it for `'g`; every other shard — a slice, a fold,
/// a coarse level — owns its rows and is a `DistGraph<'static>`.
#[derive(Clone, Debug)]
pub struct DistGraph<'g> {
    rank: usize,
    ranks: usize,
    /// Global ownership ranges: rank `r` owns `range_starts[r] ..
    /// range_starts[r + 1]`. Length `ranks + 1`.
    range_starts: Vec<NodeId>,
    /// Owned rows followed by ghost rows, local ids.
    local: Cow<'g, CsrGraph>,
    /// Number of owned nodes.
    ln: usize,
    /// Global ids of the ghosts (ascending; ghost `g` is local `ln + g`).
    ghost_global: Vec<NodeId>,
    /// For every other rank, the owned local ids that are ghosts there
    /// (ascending). `send_lists[rank]` is empty.
    send_lists: Vec<Vec<NodeId>>,
    /// Ghost index ranges per owner: ghosts of owner `r` occupy
    /// `ghost_of_rank[r] .. ghost_of_rank[r + 1]` (ghost ids ascending, owner
    /// ranges ascending, so the grouping is contiguous).
    ghost_of_rank: Vec<usize>,
}

/// Evenly split `n` nodes over `ranks` contiguous ranges (the same ceil-chunk
/// rule as the shared-memory matcher's index pre-partition).
pub fn even_ranges(n: usize, ranks: usize) -> Vec<NodeId> {
    let chunk = n.div_ceil(ranks.max(1)).max(1);
    (0..=ranks)
        .map(|r| ((r * chunk).min(n)) as NodeId)
        .collect()
}

/// The rank owning `gid` under `range_starts`. Ranges may be empty (more
/// ranks than nodes); the owner is always a non-empty range containing `gid`.
pub fn owner_in(range_starts: &[NodeId], gid: NodeId) -> usize {
    // kappa-lint: allow(dist-no-panic) -- inside debug_assert!, compiled out in release; ranges always hold ranks + 1 >= 2 boundaries
    debug_assert!(gid < *range_starts.last().expect("ranges"));
    range_starts.partition_point(|&s| s <= gid) - 1
}

impl<'g> DistGraph<'g> {
    /// Builds rank `rank`'s shard of `graph` under the even 1D block
    /// distribution. Requires no communication — every rank slices the same
    /// input deterministically.
    pub fn from_global(graph: &'g CsrGraph, ranks: usize, rank: usize) -> Self {
        Self::from_global_ranges(graph, even_ranges(graph.num_nodes(), ranks), rank)
    }

    /// [`Self::from_global`] with explicit ownership ranges (the pipeline's
    /// locality-preserving spatial layout produces uneven ones). A rank whose
    /// range is `0..n` owns the whole graph, has no ghosts and renames no
    /// target, so its shard borrows `graph` as it is; any other range is
    /// copied out and assembled.
    pub fn from_global_ranges(graph: &'g CsrGraph, range_starts: Vec<NodeId>, rank: usize) -> Self {
        let ranks = range_starts.len() - 1;
        let lo = range_starts[rank] as usize;
        let hi = range_starts[rank + 1] as usize;
        if (lo, hi) == (0, graph.num_nodes()) {
            return DistGraph {
                rank,
                ranks,
                range_starts,
                local: Cow::Borrowed(graph),
                ln: hi,
                ghost_global: Vec::new(),
                send_lists: vec![Vec::new(); ranks],
                ghost_of_rank: vec![0; ranks + 1],
            };
        }
        let mut rows = CsrGraph::rows(hi - lo, graph.xadj()[hi] - graph.xadj()[lo]);
        for v in lo..hi {
            rows.push_node(graph.edges_of(v as NodeId));
        }
        let vwgt = (lo..hi).map(|v| graph.node_weight(v as NodeId)).collect();
        DistGraph::assemble(rank, ranks, range_starts, rows, vwgt, |gids, _| {
            Ok(gids.iter().map(|&g| graph.node_weight(g)).collect())
        })
        // kappa-lint: allow(dist-no-panic) -- the ghost-weight closure above always returns Ok, assemble's row count is ln by construction and a slice of a sealed graph obeys its totals rule, so no error path exists
        .expect("local assembly does not communicate")
    }
}

impl DistGraph<'static> {
    /// Assembles a shard from the owned rows, one per owned node in
    /// ascending order with **global** targets, and their node weights `vwgt`.
    /// The rows are rewritten in place into the shard's local ids and the
    /// ghost rows are appended to them, so a shard costs no second copy of
    /// its edges. `ghost_weights` resolves the node weights of the ghost set
    /// (sorted ascending), given the owned weights; [`Self::assemble_with`]
    /// provides the communicating variant used when no rank holds the global
    /// graph.
    pub fn assemble(
        rank: usize,
        ranks: usize,
        range_starts: Vec<NodeId>,
        mut rows: CsrRows,
        mut vwgt: Vec<NodeWeight>,
        ghost_weights: impl FnOnce(&[NodeId], &[NodeWeight]) -> CommResult<Vec<NodeWeight>>,
    ) -> CommResult<Self> {
        let lo = range_starts[rank];
        let hi = range_starts[rank + 1];
        let ln = (hi - lo) as usize;
        if rows.num_rows() != ln || vwgt.len() != ln {
            return Err(CommError::protocol(
                rank,
                rank,
                "assemble",
                format!(
                    "assemble needs one row and one weight per owned node: got {} rows and \
                     {} weights for {ln} nodes",
                    rows.num_rows(),
                    vwgt.len()
                ),
            ));
        }

        // Owned targets become local ids in place (order preserved: owned
        // targets stay in ascending global order, which keeps the
        // interior-edge enumeration identical to the full graph's). Every
        // remote entry is recorded as `(target, owned row, weight)` in row
        // order and marked, to become a ghost id once the ghost set is known.
        let mut cut: Vec<(NodeId, NodeId, EdgeWeight)> = Vec::new();
        rows.remap_targets(|u, t, w| {
            if t >= lo && t < hi {
                return t - lo;
            }
            cut.push((t, u as NodeId, w));
            INVALID_NODE
        });
        let mut ghost_global: Vec<NodeId> = cut.iter().map(|&(t, _, _)| t).collect();
        ghost_global.sort_unstable();
        ghost_global.dedup();
        // Rows may come from a peer: a target past the global node count
        // has no owner. The ghost set is sorted, so its last element decides.
        let n = range_starts[ranks];
        if let Some(&t) = ghost_global.last().filter(|&&t| t >= n) {
            let detail = format!("row target {t} is past the {n} global nodes");
            return Err(CommError::protocol(rank, rank, "assemble", detail));
        }
        let ghost_of = |t: NodeId| (ln + ghost_global.partition_point(|&g| g < t)) as NodeId;
        if !cut.is_empty() {
            let mut marked = cut.iter();
            rows.remap_targets(|_, t, _| match t {
                INVALID_NODE => marked.next().map_or(t, |&(remote, _, _)| ghost_of(remote)),
                _ => t,
            });
        }

        // Sorted by target then owned row, each run of one target is that
        // ghost's reverse row, ascending by owned id; the runs into one
        // rank's range are the owned nodes that rank mirrors.
        cut.sort_unstable_by_key(|&(t, u, _)| (t, u));
        let mut ghost_of_rank = Vec::with_capacity(ranks + 1);
        ghost_of_rank.push(0);
        let mut send_lists: Vec<Vec<NodeId>> = Vec::with_capacity(ranks);
        let mut cut_rest = &cut[..];
        for r in 0..ranks {
            let end = range_starts[r + 1];
            ghost_of_rank.push(ghost_global.partition_point(|&g| g < end));
            let (into_r, rest) = cut_rest.split_at(cut_rest.partition_point(|e| e.0 < end));
            let mut list: Vec<NodeId> = into_r.iter().map(|&(_, u, _)| u).collect();
            list.sort_unstable();
            list.dedup();
            send_lists.push(list);
            cut_rest = rest;
        }
        rows.reserve_exact(ghost_global.len(), cut.len());
        for ghost_row in cut.chunk_by(|a, b| a.0 == b.0) {
            rows.push_node(ghost_row.iter().map(|&(_, u, w)| (u, w)));
        }
        rows.shrink_to_fit();

        let n_local = ln + ghost_global.len();
        let ghost_vwgt = ghost_weights(&ghost_global, &vwgt)?;
        vwgt.extend(ghost_vwgt);
        if vwgt.len() != n_local {
            return Err(CommError::protocol(
                rank,
                rank,
                "assemble",
                format!(
                    "ghost weight count mismatch: {} weights for {n_local} local nodes",
                    vwgt.len()
                ),
            ));
        }

        // Rows and weights may come from peers: weights past the totals
        // rule do not fit the shard's 32-bit store.
        let local = rows.try_finish(vwgt, None).map_err(|e| {
            let detail = format!("shard weights do not fit: {e}");
            CommError::protocol(rank, rank, "assemble", detail)
        })?;
        Ok(DistGraph {
            rank,
            ranks,
            range_starts,
            local: Cow::Owned(local),
            ln,
            ghost_global,
            send_lists,
            ghost_of_rank,
        })
    }

    /// [`Self::assemble`] when ghost node weights must be pulled from their
    /// owners (two `alltoallv` rounds: gid requests, weight responses). A
    /// request for a node this rank does not own is a peer's protocol error.
    pub fn assemble_with<C: Comm>(
        comm: &mut C,
        rank: usize,
        ranks: usize,
        range_starts: Vec<NodeId>,
        rows: CsrRows,
        vwgt: Vec<NodeWeight>,
    ) -> CommResult<Self> {
        let owners = range_starts.clone();
        let lo = range_starts[rank];
        Self::assemble(rank, ranks, range_starts, rows, vwgt, |ghosts, owned| {
            // Ghost gids grouped by owner are already ascending per owner, so
            // the flattened responses line up with the ghost list.
            let mut requests: Vec<Vec<NodeId>> = vec![Vec::new(); ranks];
            for &g in ghosts {
                requests[owner_in(&owners, g)].push(g);
            }
            let incoming = comm.alltoallv(requests)?;
            let responses = answer_requests(rank, lo, owned.len(), "assemble", incoming, |l| {
                owned[l as usize]
            })?;
            Ok(comm.alltoallv(responses)?.into_iter().flatten().collect())
        })
    }
}

impl DistGraph<'_> {
    /// This shard's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the distribution.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Total number of global nodes.
    pub fn num_global_nodes(&self) -> usize {
        // kappa-lint: allow(dist-no-panic) -- range_starts always holds ranks + 1 >= 2 boundaries by construction
        *self.range_starts.last().expect("ranges") as usize
    }

    /// Number of owned nodes.
    pub fn num_owned(&self) -> usize {
        self.ln
    }

    /// The local shard: owned rows (`0..num_owned()`), then ghost rows.
    pub fn local(&self) -> &CsrGraph {
        &self.local
    }

    /// The global ownership range starts (length `ranks + 1`).
    pub fn range_starts(&self) -> &[NodeId] {
        &self.range_starts
    }

    /// This rank's owned global range `[lo, hi)`.
    pub fn owned_range(&self) -> (NodeId, NodeId) {
        (
            self.range_starts[self.rank],
            self.range_starts[self.rank + 1],
        )
    }

    /// The rank owning global node `gid`.
    pub fn owner_of(&self, gid: NodeId) -> usize {
        owner_in(&self.range_starts, gid)
    }

    /// Global id of local node `l` (owned or ghost).
    #[inline]
    pub fn global_of(&self, l: NodeId) -> NodeId {
        if (l as usize) < self.ln {
            self.range_starts[self.rank] + l
        } else {
            self.ghost_global[l as usize - self.ln]
        }
    }

    /// Local id of global node `gid`, if this rank holds it (owned or ghost).
    #[inline]
    pub fn local_of(&self, gid: NodeId) -> Option<NodeId> {
        let (lo, hi) = self.owned_range();
        if gid >= lo && gid < hi {
            Some(gid - lo)
        } else {
            self.ghost_global
                .binary_search(&gid)
                .ok()
                .map(|g| (self.ln + g) as NodeId)
        }
    }

    /// True if local id `l` is an owned node.
    #[inline]
    pub fn is_owned_local(&self, l: NodeId) -> bool {
        (l as usize) < self.ln
    }

    /// Ghost global ids, ascending.
    pub fn ghosts(&self) -> &[NodeId] {
        &self.ghost_global
    }

    /// Refreshes the ghost mirrors of a per-node value: every rank evaluates
    /// `owned` for the owned nodes other ranks mirror, and receives its own
    /// ghosts' values (returned ghost-indexed, parallel to
    /// [`ghosts`](Self::ghosts)). One `alltoallv`. A rank that sends another
    /// number of values than it has nodes mirrored here is a protocol error.
    pub fn exchange_ghosts<T, C, F>(&self, comm: &mut C, mut owned: F) -> CommResult<Vec<T>>
    where
        T: Message,
        C: Comm,
        F: FnMut(NodeId) -> T,
    {
        let parts: Vec<Vec<T>> = self
            .send_lists
            .iter()
            .map(|list| list.iter().map(|&l| owned(l)).collect())
            .collect();
        let received = comm.alltoallv(parts)?;
        let mut out: Vec<T> = Vec::with_capacity(self.ghost_global.len());
        for (r, part) in received.into_iter().enumerate() {
            let mirrored = self.ghost_of_rank[r + 1] - self.ghost_of_rank[r];
            if part.len() != mirrored {
                let detail = format!(
                    "rank {r} sent {} ghost values for the {mirrored} of its nodes rank {} mirrors",
                    part.len(),
                    self.rank
                );
                return Err(CommError::protocol(self.rank, r, "ghosts", detail));
            }
            out.extend(part);
        }
        Ok(out)
    }

    /// Pull arbitrary per-node values for a set of **global** ids from their
    /// owners (two `alltoallv` rounds). `respond` maps an owned local id to
    /// the value. Returns the values parallel to `gids`.
    pub fn pull<T, C, F>(&self, comm: &mut C, gids: &[NodeId], respond: F) -> CommResult<Vec<T>>
    where
        T: Message,
        C: Comm,
        F: FnMut(NodeId) -> T,
    {
        let lo = self.range_starts[self.rank];
        let mut requests: Vec<Vec<NodeId>> = vec![Vec::new(); self.ranks];
        // Remember where each answer goes (requests are grouped by owner).
        let mut slots: Vec<Vec<usize>> = vec![Vec::new(); self.ranks];
        for (i, &gid) in gids.iter().enumerate() {
            let owner = self.owner_of(gid);
            requests[owner].push(gid);
            slots[owner].push(i);
        }
        let incoming = comm.alltoallv(requests)?;
        let responses = answer_requests(self.rank, lo, self.ln, "pull", incoming, respond)?;
        let answers = comm.alltoallv(responses)?;
        let mut out: Vec<Option<T>> = (0..gids.len()).map(|_| None).collect();
        for (r, part) in answers.into_iter().enumerate() {
            for (slot, value) in slots[r].iter().zip(part) {
                out[*slot] = Some(value);
            }
        }
        // A short response part leaves a slot unfilled — a peer answered
        // fewer values than asked. Diagnose it instead of killing the rank.
        out.into_iter()
            .enumerate()
            .map(|(i, v)| {
                v.ok_or_else(|| {
                    CommError::protocol(
                        self.rank,
                        self.owner_of(gids[i]),
                        "pull",
                        format!("pull response missing for global node {}", gids[i]),
                    )
                })
            })
            .collect()
    }
}

/// The owner's side of a request round: `incoming[peer]` lists the global
/// ids `peer` asked this rank (owning `lo .. lo + owned`) about, answered
/// with `respond` of each id's owned local id. An id outside the owned range
/// means the peer disagrees about ownership — diagnosed, naming the peer and
/// the id, instead of indexing past the owned nodes.
fn answer_requests<T>(
    rank: usize,
    lo: NodeId,
    owned: usize,
    tag: &str,
    incoming: Vec<Vec<NodeId>>,
    mut respond: impl FnMut(NodeId) -> T,
) -> CommResult<Vec<Vec<T>>> {
    let mut responses = Vec::with_capacity(incoming.len());
    for (peer, request) in incoming.into_iter().enumerate() {
        let mut answers = Vec::with_capacity(request.len());
        for gid in request {
            let l = gid.wrapping_sub(lo);
            if l as usize >= owned {
                let detail = format!(
                    "rank {peer} asked about global node {gid}, which rank {rank} does not own \
                     (it owns {lo}..{})",
                    lo as usize + owned
                );
                return Err(CommError::protocol(rank, peer, tag, detail));
            }
            answers.push(respond(l));
        }
        responses.push(answers);
    }
    Ok(responses)
}

/// A `BlockAssignment` view over a local (owned + ghost) block vector, for
/// running shared-memory kernels (boundary index, rebalance scoring, pair
/// search through a `&mut` vector) on a shard.
pub struct LocalAssignment<B> {
    blocks: B,
    k: BlockId,
}

impl<B> LocalAssignment<B> {
    /// Wraps a local block vector.
    pub fn new(blocks: B, k: BlockId) -> Self {
        LocalAssignment { blocks, k }
    }
}

impl<B: AsRef<[BlockId]>> BlockAssignment for LocalAssignment<B> {
    #[inline]
    fn k(&self) -> BlockId {
        self.k
    }

    #[inline]
    fn block_of(&self, v: NodeId) -> BlockId {
        self.blocks.as_ref()[v as usize]
    }
}

impl<B: AsRef<[BlockId]> + AsMut<[BlockId]>> BlockAssignmentMut for LocalAssignment<B> {
    #[inline]
    fn assign(&mut self, v: NodeId, b: BlockId) {
        self.blocks.as_mut()[v as usize] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::LocalCluster;
    use kappa_gen::grid::grid2d;
    use kappa_gen::rgg::random_geometric_graph;
    use kappa_graph::graph_from_edges;

    #[test]
    fn shards_cover_the_graph_and_stay_symmetric() {
        let g = random_geometric_graph(500, 3);
        for ranks in [1usize, 2, 3, 5] {
            let mut owned_total = 0;
            let mut half_edges = 0;
            for rank in 0..ranks {
                let dg = DistGraph::from_global(&g, ranks, rank);
                assert!(dg.local().validate().is_ok(), "rank {rank} shard invalid");
                owned_total += dg.num_owned();
                // Owned rows carry the node's full global adjacency.
                let (lo, _) = dg.owned_range();
                for l in 0..dg.num_owned() as NodeId {
                    assert_eq!(
                        dg.local().degree(l),
                        g.degree(lo + l),
                        "rank {rank} node {l}"
                    );
                    assert_eq!(dg.local().node_weight(l), g.node_weight(lo + l));
                    half_edges += dg.local().degree(l);
                }
                // Ghost bookkeeping is involutive.
                for (gi, &gid) in dg.ghosts().iter().enumerate() {
                    let l = (dg.num_owned() + gi) as NodeId;
                    assert_eq!(dg.global_of(l), gid);
                    assert_eq!(dg.local_of(gid), Some(l));
                    assert_ne!(dg.owner_of(gid), rank);
                }
            }
            assert_eq!(owned_total, g.num_nodes());
            assert_eq!(half_edges, g.num_half_edges());
        }
    }

    /// A shard that owns every node is the caller's graph, not a copy of it
    /// — at one rank, and on a rank whose peers own empty ranges.
    #[test]
    fn single_rank_shard_is_the_graph_itself() {
        let g = grid2d(10, 10);
        let n = g.num_nodes() as NodeId;
        for ranges in [vec![0, n], vec![0, n, n]] {
            let dg = DistGraph::from_global_ranges(&g, ranges.clone(), 0);
            assert!(std::ptr::eq(dg.local(), &g), "ranges {ranges:?}");
            assert!(dg.ghosts().is_empty());
            for rank in 0..ranges.len() - 1 {
                check_shard(&g, &ranges, rank);
            }
        }
        // Rank 1 of [0, n, n] owns nothing; its empty shard still assembles.
        let empty = DistGraph::from_global_ranges(&g, vec![0, n, n], 1);
        assert!(!std::ptr::eq(empty.local(), &g));
        assert_eq!((empty.num_owned(), empty.local().num_nodes()), (0, 0));
    }

    /// The shard invariants of one rank of `graph` under `ranges`.
    #[expect(
        clippy::disallowed_methods,
        reason = "a one-rank shard must hand back the caller's raw arrays"
    )]
    fn check_shard(graph: &CsrGraph, ranges: &[NodeId], rank: usize) {
        let ranks = ranges.len() - 1;
        let dg = DistGraph::from_global_ranges(graph, ranges.to_vec(), rank);
        let (lo, hi) = dg.owned_range();
        let ln = dg.num_owned();
        let owned = |t: NodeId| t >= lo && t < hi;
        assert_eq!(ln, (hi - lo) as usize);
        // Every owned row, mapped back, is the global row.
        for l in 0..ln as NodeId {
            let row: Vec<_> = dg
                .local()
                .edges_of(l)
                .map(|(t, w)| (dg.global_of(t), w))
                .collect();
            assert_eq!(row, graph.edges_of(lo + l).collect::<Vec<_>>(), "row {l}");
            assert_eq!(dg.local().node_weight(l), graph.node_weight(lo + l));
        }
        // The ghosts are exactly the remote neighbours, and each ghost row
        // is exactly its reverse edges into the owned range.
        let mut remote: Vec<NodeId> = (lo..hi)
            .flat_map(|v| graph.neighbors(v).iter().copied())
            .filter(|&t| !owned(t))
            .collect();
        remote.sort_unstable();
        remote.dedup();
        assert_eq!(dg.ghosts(), &remote[..]);
        assert_eq!(dg.local().num_nodes(), ln + remote.len());
        for (gi, &gid) in dg.ghosts().iter().enumerate() {
            let l = (ln + gi) as NodeId;
            let reverse: Vec<_> = graph
                .edges_of(gid)
                .filter(|&(t, _)| owned(t))
                .map(|(t, w)| (t - lo, w))
                .collect();
            assert_eq!(dg.local().edges_of(l).collect::<Vec<_>>(), reverse);
            assert_eq!(dg.local().node_weight(l), graph.node_weight(gid));
        }
        // Ghosts group by owner; each owner mirrors exactly the owned nodes
        // with a neighbour in its range.
        assert_eq!(dg.ghost_of_rank.len(), ranks + 1);
        assert_eq!(
            (dg.ghost_of_rank[0], dg.ghost_of_rank[ranks]),
            (0, remote.len())
        );
        for r in 0..ranks {
            for &gid in &dg.ghosts()[dg.ghost_of_rank[r]..dg.ghost_of_rank[r + 1]] {
                assert_eq!(owner_in(ranges, gid), r);
            }
            let mirrored: Vec<NodeId> = (0..ln as NodeId)
                .filter(|_| r != rank)
                .filter(|&l| {
                    graph
                        .neighbors(lo + l)
                        .iter()
                        .any(|&t| owner_in(ranges, t) == r)
                })
                .collect();
            assert_eq!(dg.send_lists[r], mirrored, "rank {rank} sends to {r}");
        }
        if ranks == 1 {
            assert_eq!(dg.local().xadj(), graph.xadj());
            assert_eq!(dg.local().adjncy(), graph.adjncy());
            assert_eq!(dg.local().adjwgt(), graph.adjwgt());
            assert_eq!(dg.local().vwgt(), graph.vwgt());
        }
    }

    #[test]
    fn an_assembled_shard_keeps_every_row_and_its_ghost_bookkeeping() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let weighted = |n: usize, m: usize, next: &mut dyn FnMut(u64) -> u64| {
            let edges: Vec<_> = (0..m)
                .map(|_| {
                    (
                        next(n as u64) as NodeId,
                        next(n as u64) as NodeId,
                        1 + next(9),
                    )
                })
                .filter(|&(u, v, _)| u != v)
                .collect();
            graph_from_edges(n, edges)
        };
        let graphs = [
            random_geometric_graph(400, 2),
            weighted(150, 600, &mut next),
            weighted(9, 12, &mut next),
        ];
        for graph in &graphs {
            let n = graph.num_nodes() as u64;
            // Empty first and last ranges around two uneven ones.
            let third = (n / 3) as NodeId;
            let fixed = [0, 0, third, n as NodeId, n as NodeId];
            for rank in 0..4 {
                check_shard(graph, &fixed, rank);
            }
            for ranks in 1..=4usize {
                // Random cut points: uneven ranges, some of them empty.
                for _ in 0..4 {
                    let mut cuts: Vec<NodeId> = (1..ranks).map(|_| next(n + 1) as NodeId).collect();
                    cuts.sort_unstable();
                    let mut ranges = vec![0];
                    ranges.extend(cuts);
                    ranges.push(n as NodeId);
                    for rank in 0..ranks {
                        check_shard(graph, &ranges, rank);
                    }
                }
            }
        }
    }

    #[test]
    fn ghost_exchange_delivers_owner_values() {
        let g = grid2d(12, 12);
        let ranks = 4;
        let values = LocalCluster::new(ranks).run(|comm| {
            let dg = DistGraph::from_global(&g, ranks, comm.rank());
            // Exchange "global id times 3" and check every ghost mirror.
            let (lo, _) = dg.owned_range();
            let mirrors = dg.exchange_ghosts(comm, |l| (lo + l) as u64 * 3).unwrap();
            (dg.ghosts().to_vec(), mirrors)
        });
        for (ghosts, mirrors) in values {
            assert_eq!(ghosts.len(), mirrors.len());
            for (gid, m) in ghosts.iter().zip(mirrors) {
                assert_eq!(m, *gid as u64 * 3);
            }
        }
    }

    #[test]
    fn pull_fetches_arbitrary_remote_values() {
        let g = grid2d(9, 9);
        let ranks = 3;
        LocalCluster::new(ranks).run(|comm| {
            let dg = DistGraph::from_global(&g, ranks, comm.rank());
            let (lo, _) = dg.owned_range();
            // Every rank pulls the weights of three fixed global nodes.
            let gids = [0u32, 40, 80];
            let got = dg.pull(comm, &gids, |l| g.node_weight(lo + l)).unwrap();
            assert_eq!(got, vec![1, 1, 1]);
        });
    }

    #[test]
    fn empty_ranks_are_legal() {
        let g = grid2d(2, 2); // 4 nodes over 8 ranks: half the ranks are empty
        let ranks = 8;
        LocalCluster::new(ranks).run(|comm| {
            let dg = DistGraph::from_global(&g, ranks, comm.rank());
            assert!(dg.num_owned() <= 1);
            let mirrors = dg.exchange_ghosts(comm, |l| l as u64).unwrap();
            assert_eq!(mirrors.len(), dg.ghosts().len());
        });
    }

    #[test]
    fn a_pull_for_a_node_the_owner_does_not_own_is_diagnosed() {
        // The ranks disagree about the ranges: rank 0 holds an 8-node path
        // and sends node 5 to rank 1, which holds a 2-node graph alone.
        let path = graph_from_edges(8, (0..7).map(|v| (v, v + 1, 1)));
        let pair = graph_from_edges(2, [(0, 1, 1)]);
        let results = LocalCluster::new(2).run(|comm| {
            let (graph, ranges, gids) = match comm.rank() {
                0 => (&path, vec![0, 2, 8], vec![5]),
                _ => (&pair, vec![0, 0, 2], vec![]),
            };
            let dg = DistGraph::from_global_ranges(graph, ranges, comm.rank());
            dg.pull(comm, &gids, |l| dg.local().node_weight(l))
        });
        let err = results[1].as_ref().expect_err("rank 1 does not own node 5");
        assert!(
            err.to_string().contains("rank 0 asked about global node 5"),
            "{err}"
        );
        assert!(results[0].is_err(), "rank 0 gets no answer");
    }

    #[test]
    fn a_ghost_weight_request_for_a_node_the_owner_does_not_own_is_diagnosed() {
        // Rank 1 believes rank 0 owns 0..3 and asks it for node 2's weight;
        // rank 0 owns only 0..2.
        let results = LocalCluster::new(2).run(|comm| {
            // One single-edge row per owned node: its one neighbour.
            let (ranges, neighbours) = match comm.rank() {
                0 => (vec![0, 2, 4], vec![1, 0]),
                _ => (vec![0, 3, 4], vec![2]),
            };
            let mut rows = CsrGraph::rows(neighbours.len(), neighbours.len());
            for &t in &neighbours {
                rows.push_node([(t, 1)]);
            }
            let vwgt = vec![1; neighbours.len()];
            DistGraph::assemble_with(comm, comm.rank(), 2, ranges, rows, vwgt).map(|_| ())
        });
        let err = results[0].as_ref().expect_err("rank 0 does not own node 2");
        assert!(
            err.to_string().contains("rank 1 asked about global node 2"),
            "{err}"
        );
        assert!(results[1].is_err(), "rank 1 gets no answer");
    }

    #[test]
    fn a_ghost_exchange_part_of_the_wrong_length_is_diagnosed() {
        // Rank 0 of a 4 × 4 grid mirrors rank 1's row 2 (four nodes); the bad
        // rank 1 sends one value too few, then one too many.
        let g = grid2d(4, 4);
        for sent in [3usize, 5] {
            let results = LocalCluster::new(2).run(|comm| {
                let dg = DistGraph::from_global(&g, 2, comm.rank());
                if comm.rank() == 1 {
                    // kappa-lint: allow(rank-branch-collective) -- the bad peer's alltoallv meets the one inside rank 0's `exchange_ghosts`, so both branches reach it
                    comm.alltoallv(vec![vec![7u64; sent], Vec::new()]).unwrap();
                    return None;
                }
                Some(dg.exchange_ghosts(comm, |l| l as u64).unwrap_err())
            });
            let e = results[0].as_ref().unwrap();
            assert_eq!((e.rank, e.peer, e.tag.as_str()), (0, 1, "ghosts"));
            let expected = format!("rank 1 sent {sent} ghost values for the 4 of its nodes");
            assert!(e.to_string().contains(&expected), "{e}");
        }
    }

    #[test]
    fn a_row_target_past_the_global_node_count_is_diagnosed() {
        // Rank 0 of 2 owns global nodes 0..2 of 4; node 1's row names node 4.
        let mut rows = CsrGraph::rows(2, 0);
        rows.push_node([(1, 1)]);
        rows.push_node([(0, 1), (4, 1)]);
        let assembled = DistGraph::assemble(0, 2, vec![0, 2, 4], rows, vec![1, 1], |ghosts, _| {
            Ok(vec![1; ghosts.len()])
        });
        let err = assembled.expect_err("target 4 has no owner");
        assert!(err.to_string().contains("row target 4"), "{err}");
    }
}
