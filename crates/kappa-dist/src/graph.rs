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

use kappa_graph::{
    BlockAssignment, BlockAssignmentMut, BlockId, CsrGraph, CsrRows, EdgeWeight, NodeId, NodeWeight,
};

use crate::comm::{Comm, CommError, CommResult, Message};

/// One rank's shard of a distributed graph.
#[derive(Clone, Debug)]
pub struct DistGraph {
    rank: usize,
    ranks: usize,
    /// Global ownership ranges: rank `r` owns `range_starts[r] ..
    /// range_starts[r + 1]`. Length `ranks + 1`.
    range_starts: Vec<NodeId>,
    /// Owned rows followed by ghost rows, local ids.
    local: CsrGraph,
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

impl DistGraph {
    /// Builds rank `rank`'s shard of `graph` under the even 1D block
    /// distribution. Requires no communication — every rank slices the same
    /// input deterministically.
    pub fn from_global(graph: &CsrGraph, ranks: usize, rank: usize) -> DistGraph {
        Self::from_global_ranges(graph, even_ranges(graph.num_nodes(), ranks), rank)
    }

    /// [`Self::from_global`] with explicit ownership ranges (the pipeline's
    /// locality-preserving spatial layout produces uneven ones).
    pub fn from_global_ranges(
        graph: &CsrGraph,
        range_starts: Vec<NodeId>,
        rank: usize,
    ) -> DistGraph {
        let ranks = range_starts.len() - 1;
        let lo = range_starts[rank] as usize;
        let hi = range_starts[rank + 1] as usize;
        let mut rows = CsrGraph::rows(hi - lo, graph.xadj()[hi] - graph.xadj()[lo]);
        for v in lo..hi {
            rows.push_node(graph.edges_of(v as NodeId));
        }
        let vwgt = graph.vwgt()[lo..hi].to_vec();
        Self::assemble(rank, ranks, range_starts, rows, vwgt, |gids| {
            Ok(gids.iter().map(|&g| graph.node_weight(g)).collect())
        })
        // kappa-lint: allow(dist-no-panic) -- the ghost-weight closure above always returns Ok and assemble's row count is ln by construction, so no error path exists
        .expect("local assembly does not communicate")
    }

    /// Assembles a shard from the owned rows, one per owned node in
    /// ascending order with **global** targets, and their node weights `vwgt`.
    /// `ghost_weights` resolves the node weights of the ghost set (sorted
    /// ascending); [`Self::assemble_with`] provides the communicating variant
    /// used when no rank holds the global graph.
    pub fn assemble(
        rank: usize,
        ranks: usize,
        range_starts: Vec<NodeId>,
        rows: CsrRows,
        mut vwgt: Vec<NodeWeight>,
        ghost_weights: impl FnOnce(&[NodeId]) -> CommResult<Vec<NodeWeight>>,
    ) -> CommResult<DistGraph> {
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
        let owner_of = |gid: NodeId| -> usize { owner_in(&range_starts, gid) };

        // Ghost set: remote targets, ascending, deduplicated.
        let mut ghost_global: Vec<NodeId> = (0..ln)
            .flat_map(|i| rows.row(i).map(|(t, _)| t))
            .filter(|&t| t < lo || t >= hi)
            .collect();
        ghost_global.sort_unstable();
        ghost_global.dedup();
        // Rows may come from a peer: a target past the global node count
        // has no owner. The ghost set is sorted, so its last element decides.
        let n = range_starts[ranks];
        if let Some(&t) = ghost_global.last().filter(|&&t| t >= n) {
            let detail = format!("row target {t} is past the {n} global nodes");
            return Err(CommError::protocol(rank, rank, "assemble", detail));
        }
        let ghost_of = |gid: NodeId| -> NodeId {
            // kappa-lint: allow(dist-no-panic) -- ghost_global was built above from exactly the remote targets this closure is called on
            ln as NodeId + ghost_global.binary_search(&gid).expect("ghost") as NodeId
        };

        // Owned rows with remapped targets (order preserved: owned targets
        // stay in ascending global order, which keeps the interior-edge
        // enumeration identical to the full graph's).
        let n_local = ln + ghost_global.len();
        let mut local = CsrGraph::rows(n_local, 0);
        // Ghost reverse rows, built while scanning the owned rows (ascending
        // owned order keeps each ghost row ascending too).
        let mut ghost_rows: Vec<Vec<(NodeId, EdgeWeight)>> = vec![Vec::new(); ghost_global.len()];
        let mut send_marks: Vec<Vec<NodeId>> = vec![Vec::new(); ranks];
        for u_local in 0..ln {
            let mut last_rank_sent = usize::MAX;
            local.push_node(rows.row(u_local).map(|(t, w)| {
                if t >= lo && t < hi {
                    return (t - lo, w);
                }
                let g = ghost_of(t);
                ghost_rows[g as usize - ln].push((u_local as NodeId, w));
                let owner = owner_of(t);
                // Mark u as a member of `owner`'s ghost set (dedup the
                // common consecutive case cheaply; full dedup below).
                if last_rank_sent != owner {
                    send_marks[owner].push(u_local as NodeId);
                    last_rank_sent = owner;
                }
                (g, w)
            }));
        }
        for list in &mut send_marks {
            list.sort_unstable();
            list.dedup();
        }
        send_marks[rank].clear();

        // Append the ghost rows.
        for row in ghost_rows {
            local.push_node(row);
        }
        vwgt.extend(ghost_weights(&ghost_global)?);
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

        // Contiguous ghost grouping per owner.
        let mut ghost_of_rank = Vec::with_capacity(ranks + 1);
        ghost_of_rank.push(0);
        for r in 0..ranks {
            let end = ghost_global.partition_point(|&g| g < range_starts[r + 1]);
            ghost_of_rank.push(end);
        }

        Ok(DistGraph {
            rank,
            ranks,
            range_starts,
            local: local.finish(vwgt, None),
            ln,
            ghost_global,
            send_lists: send_marks,
            ghost_of_rank,
        })
    }

    /// [`Self::assemble`] when ghost node weights must be pulled from their
    /// owners (two `alltoallv` rounds: gid requests, weight responses).
    pub fn assemble_with<C: Comm>(
        comm: &mut C,
        rank: usize,
        ranks: usize,
        range_starts: Vec<NodeId>,
        rows: CsrRows,
        vwgt: Vec<NodeWeight>,
    ) -> CommResult<DistGraph> {
        let owned_weights = vwgt.clone();
        let lo = range_starts[rank];
        Self::assemble(rank, ranks, range_starts.clone(), rows, vwgt, |ghosts| {
            // Ghost gids grouped by owner are already ascending per owner, so
            // the flattened responses line up with the ghost list.
            let mut requests: Vec<Vec<NodeId>> = vec![Vec::new(); ranks];
            for &g in ghosts {
                requests[owner_in(&range_starts, g)].push(g);
            }
            let incoming = comm.alltoallv(requests)?;
            let responses: Vec<Vec<NodeWeight>> = incoming
                .into_iter()
                .map(|req| {
                    req.into_iter()
                        .map(|gid| owned_weights[(gid - lo) as usize])
                        .collect()
                })
                .collect();
            Ok(comm.alltoallv(responses)?.into_iter().flatten().collect())
        })
    }

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
    /// [`ghosts`](Self::ghosts)). One `alltoallv`.
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
            debug_assert_eq!(
                part.len(),
                self.ghost_of_rank[r + 1] - self.ghost_of_rank[r],
                "ghost exchange size mismatch with rank {r}"
            );
            out.extend(part);
        }
        Ok(out)
    }

    /// Pull arbitrary per-node values for a set of **global** ids from their
    /// owners (two `alltoallv` rounds). `respond` maps an owned local id to
    /// the value. Returns the values parallel to `gids`.
    pub fn pull<T, C, F>(&self, comm: &mut C, gids: &[NodeId], mut respond: F) -> CommResult<Vec<T>>
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
        let responses: Vec<Vec<T>> = incoming
            .into_iter()
            .map(|req| req.into_iter().map(|gid| respond(gid - lo)).collect())
            .collect();
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

    #[test]
    fn single_rank_shard_is_the_graph_itself() {
        let g = grid2d(10, 10);
        let dg = DistGraph::from_global(&g, 1, 0);
        assert!(dg.ghosts().is_empty());
        // Identical CSR structure; only the coordinates are dropped (the
        // distributed pipeline partitions by ownership, not geometry).
        assert_eq!(dg.local().xadj(), g.xadj());
        assert_eq!(dg.local().adjncy(), g.adjncy());
        assert_eq!(dg.local().adjwgt(), g.adjwgt());
        assert_eq!(dg.local().vwgt(), g.vwgt());
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
    fn a_row_target_past_the_global_node_count_is_diagnosed() {
        // Rank 0 of 2 owns global nodes 0..2 of 4; node 1's row names node 4.
        let mut rows = CsrGraph::rows(2, 0);
        rows.push_node([(1, 1)]);
        rows.push_node([(0, 1), (4, 1)]);
        let assembled = DistGraph::assemble(0, 2, vec![0, 2, 4], rows, vec![1, 1], |ghosts| {
            Ok(vec![1; ghosts.len()])
        });
        let err = assembled.expect_err("target 4 has no owner");
        assert!(err.to_string().contains("row target 4"), "{err}");
    }
}
