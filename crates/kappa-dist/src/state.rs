//! Each rank's shard of the partition state.
//!
//! [`DistState`] is the distributed sibling of
//! [`kappa_graph::PartitionState`]: the same pieces of derived state,
//! sharded by the owner-computes rule —
//!
//! * the **live local assignment** (`view`): block of every owned and ghost
//!   node. One rank's pair search writes it as it moves nodes, and every
//!   rank's class replay writes every committed move (the distributed
//!   analogue of the shared scheduler's `SharedAssignment` atomic mirror);
//! * the **committed assignment**: the view as of the last committed move.
//!   It lags at class start while a colour class's searches run ahead in the
//!   view, and the class replay catches it up move by move;
//! * a **boundary-index shard**: a [`BoundaryIndex`] over the local
//!   (owned + ghost) graph and the committed assignment. Ghost rows carry
//!   only their owned-side edges, so ghost *membership* in the index is
//!   partial — but that is never read; the index is authoritative exactly
//!   for owned nodes, whose rows are complete;
//! * **replicated block weights** (`k` entries, identical on every rank).
//!
//! The shard keeps no cut: refinement sums its searches' gains, and the
//! run's cut is counted once, at finish, by [`DistState::edge_cut`].
//!
//! The per-rank count of full `O(n_local + m_local)` boundary-index builds is
//! tracked just like in the shared pipeline: exactly one per rank per run
//! (the coarsest level's); every finer level seeds its shard from the image
//! of the coarse boundary.

use kappa_graph::{BlockId, BlockWeights, BoundaryIndex, EdgeWeight, NodeId, NodeWeight};

use crate::comm::{Comm, CommResult};
use crate::graph::{DistGraph, LocalAssignment};

/// One committed node move, as broadcast to every rank. Carries everything a
/// rank needs to update replicated state without holding the node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MoveRec {
    /// Global id of the moved node.
    pub gid: NodeId,
    /// Block the node came from.
    pub from: BlockId,
    /// Block the node moved to.
    pub to: BlockId,
    /// Node weight `c(v)`.
    pub weight: NodeWeight,
}

crate::impl_wire_struct!(MoveRec {
    gid,
    from,
    to,
    weight
});

/// A rank's shard of the distributed partition state.
#[derive(Clone, Debug)]
pub struct DistState {
    k: BlockId,
    /// Live blocks of owned + ghost nodes (the cluster-wide current view).
    view: Vec<BlockId>,
    /// `view` as of the last committed move (class start mid-class).
    committed: Vec<BlockId>,
    /// Boundary index over the local graph and `committed`.
    index: BoundaryIndex,
    /// Replicated per-block weights (identical on every rank).
    weights: BlockWeights,
    /// Full boundary-index builds this shard has performed (1 per run).
    full_builds: usize,
}

impl DistState {
    /// Builds the shard from a complete local view and the replicated block
    /// weights. This performs the rank's **one** full boundary-index build —
    /// only the coarsest level calls it; finer levels arrive via the seeded
    /// projection in the pipeline.
    pub fn build(dg: &DistGraph, view: Vec<BlockId>, k: BlockId, weights: BlockWeights) -> Self {
        Self::build_seeded(dg, view, k, weights, |_| true, 1)
    }

    /// Builds the shard with a **seeded** index: only local nodes for which
    /// `is_candidate` holds are edge-scanned (the projection's "coarse image
    /// is boundary" rule), carrying `inherited_full_builds` forward.
    pub fn build_seeded<F: FnMut(NodeId) -> bool>(
        dg: &DistGraph,
        view: Vec<BlockId>,
        k: BlockId,
        weights: BlockWeights,
        is_candidate: F,
        inherited_full_builds: usize,
    ) -> Self {
        debug_assert_eq!(view.len(), dg.local().num_nodes());
        let index =
            BoundaryIndex::build_seeded(dg.local(), &LocalAssignment::new(&view, k), is_candidate);
        DistState {
            k,
            committed: view.clone(),
            view,
            index,
            weights,
            full_builds: inherited_full_builds,
        }
    }

    /// Number of blocks.
    #[inline]
    pub fn k(&self) -> BlockId {
        self.k
    }

    /// The live local assignment (owned + ghost).
    #[inline]
    pub fn view(&self) -> &[BlockId] {
        &self.view
    }

    /// Live block of local node `l`.
    #[inline]
    pub fn block_of_local(&self, l: NodeId) -> BlockId {
        self.view[l as usize]
    }

    /// The boundary-index shard (class-start state during a colour class).
    #[inline]
    pub fn index(&self) -> &BoundaryIndex {
        &self.index
    }

    /// [`BoundaryIndex::class_boundaries_sorted`] at class start.
    pub fn class_boundaries_sorted(&self, class: &[(BlockId, BlockId)]) -> Vec<Vec<NodeId>> {
        self.index
            .class_boundaries_sorted(&LocalAssignment::new(&self.committed, self.k), class)
    }

    /// Replicated block weights.
    #[inline]
    pub fn weights(&self) -> &BlockWeights {
        &self.weights
    }

    /// The exact global edge cut of the live view (collective): each rank
    /// counts the cut edges of its owned rows whose other endpoint has the
    /// larger global id, and one allreduce adds the counts.
    pub fn edge_cut<C: Comm>(&self, comm: &mut C, dg: &DistGraph) -> CommResult<EdgeWeight> {
        let mut cut = 0;
        for l in 0..dg.num_owned() as NodeId {
            let (g_l, b_l) = (dg.global_of(l), self.view[l as usize]);
            for (t, w) in dg.local().edges_of(l) {
                if dg.global_of(t) > g_l && self.view[t as usize] != b_l {
                    cut += w;
                }
            }
        }
        comm.allreduce_sum(cut)
    }

    /// Full boundary-index builds performed by this shard (and the coarse
    /// shards it was projected from).
    #[inline]
    pub fn full_builds(&self) -> usize {
        self.full_builds
    }

    /// True if every replicated block weight obeys `l_max`.
    pub fn is_balanced(&self, l_max: NodeWeight) -> bool {
        self.weights.as_slice().iter().all(|&w| w <= l_max)
    }

    /// The live view by local id, writable with the mid-class meaning: a
    /// running search's moves change the view, the index stays at class
    /// start.
    pub(crate) fn live_view(&mut self) -> LocalAssignment<&mut [BlockId]> {
        LocalAssignment::new(&mut self.view, self.k)
    }

    /// Applies a committed move to the derived state: replicated weights
    /// and, if the node is local, the view and the boundary-index shard.
    /// Refuses (state untouched, with a description) a record that names no
    /// node or block, or — on a rank holding the node — whose `from` or
    /// `weight` are not the node's committed block and weight.
    ///
    /// Every rank must apply every committed move **in the same global
    /// order**; the lagging committed map supplies the pre-move assignment,
    /// which keeps the replay exact on each shard.
    pub fn apply_committed(&mut self, dg: &DistGraph, rec: MoveRec) -> Result<(), String> {
        let (gid, from, to, weight, k) = (rec.gid, rec.from, rec.to, rec.weight, self.k);
        let local = dg.local_of(gid);
        let held = local.map(|l| (self.committed[l as usize], dg.local().node_weight(l)));
        let named = (gid as usize) < dg.num_global_nodes() && from.max(to) < k;
        if !named || held.is_some_and(|held| held != (from, weight)) {
            let mut why = format!("node {gid} of weight {weight} from block {from} to {to} of {k}");
            if let Some((b, w)) = held {
                why += &format!("; it weighs {w} in block {b} here");
            }
            return Err(why);
        }
        self.weights.apply_move(from, to, weight);
        if let Some(l) = local {
            self.view[l as usize] = to;
            self.committed[l as usize] = to;
            let committed = LocalAssignment::new(&self.committed, k);
            self.index.apply_move(dg.local(), &committed, l, from, to);
        }
        Ok(())
    }

    /// This rank's share of the quotient-graph cut weights, boundary-priced:
    /// scans only owned boundary nodes from the index shard, counting each
    /// cut edge at its smaller global endpoint. Allgathering and summing the
    /// shares yields exactly the map `QuotientGraph::build` derives from the
    /// full graph.
    pub fn quotient_partial(&self, dg: &DistGraph) -> Vec<(BlockId, BlockId, EdgeWeight)> {
        let mut cut: std::collections::HashMap<(BlockId, BlockId), EdgeWeight> =
            std::collections::HashMap::new();
        for &l in self.index.boundary_nodes_unordered() {
            if !dg.is_owned_local(l) {
                continue;
            }
            let g_l = dg.global_of(l);
            let b_l = self.view[l as usize];
            for (t, w) in dg.local().edges_of(l) {
                let g_t = dg.global_of(t);
                if g_t > g_l {
                    let b_t = self.view[t as usize];
                    if b_t != b_l {
                        *cut.entry((b_l.min(b_t), b_l.max(b_t))).or_insert(0) += w;
                    }
                }
            }
        }
        let mut shares: Vec<(BlockId, BlockId, EdgeWeight)> =
            // kappa-lint: allow(hash-iter) -- drained into a Vec that is sorted immediately below, erasing the hash order.
            cut.into_iter().map(|((a, b), w)| (a, b, w)).collect();
        shares.sort_unstable();
        shares
    }

    /// Test oracle: checks the shard against fresh recomputation — committed
    /// map and index vs the view and a full local rebuild, and
    /// (collectively) the replicated weights vs the owned blocks of every
    /// rank.
    pub fn verify_exact<C: Comm>(&self, comm: &mut C, dg: &DistGraph) -> Result<(), String> {
        let fresh = BoundaryIndex::build(dg.local(), &LocalAssignment::new(&self.view, self.k));
        if self.committed != self.view || !fresh.equivalent(&self.index) {
            return Err(format!("rank {}: boundary-index shard diverged", dg.rank()));
        }
        // Replicated weights: recompute from owned nodes and allreduce.
        let mut local = vec![0u64; self.k as usize];
        for l in 0..dg.num_owned() as NodeId {
            local[self.view[l as usize] as usize] += dg.local().node_weight(l);
        }
        let global = comm
            .allreduce(local, |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            })
            .map_err(|e| e.to_string())?;
        if global != self.weights.as_slice() {
            return Err(format!(
                "rank {}: replicated weights diverged: {:?} vs {:?}",
                dg.rank(),
                self.weights.as_slice(),
                global
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::LocalCluster;
    use kappa_gen::grid::grid2d;
    use kappa_gen::rgg::random_geometric_graph;
    use kappa_graph::{BlockAssignmentMut, Partition};

    fn shard_state(dg: &DistGraph, partition: &Partition) -> DistState {
        let view: Vec<BlockId> = (0..dg.local().num_nodes() as NodeId)
            .map(|l| partition.block_of(dg.global_of(l)))
            .collect();
        let mut w = vec![0u64; partition.k() as usize];
        for &b in partition.assignment() {
            w[b as usize] += 1; // unit weights in these tests
        }
        DistState::build(dg, view, partition.k(), BlockWeights::from_weights(w))
    }

    #[test]
    fn partial_cuts_sum_to_the_exact_global_cut() {
        let g = random_geometric_graph(600, 5);
        let partition =
            Partition::from_assignment(4, (0..600).map(|i| ((i * 7) % 4) as u32).collect());
        let expected = partition.edge_cut(&g);
        for ranks in [1usize, 2, 4] {
            let cuts = LocalCluster::new(ranks).run(|comm| {
                let dg = DistGraph::from_global(&g, ranks, comm.rank());
                let st = shard_state(&dg, &partition);
                st.edge_cut(comm, &dg).unwrap()
            });
            for cut in cuts {
                assert_eq!(cut, expected, "ranks {ranks}");
            }
        }
    }

    #[test]
    fn committed_moves_keep_every_shard_exact() {
        let g = grid2d(12, 12);
        let partition =
            Partition::from_assignment(3, (0..144).map(|i| ((i / 4) % 3) as u32).collect());
        let moves: Vec<(NodeId, BlockId)> = vec![(5, 2), (50, 0), (100, 1), (7, 1), (5, 0)];
        let ranks = 3;
        LocalCluster::new(ranks).run(|comm| {
            let dg = DistGraph::from_global(&g, ranks, comm.rank());
            let mut st = shard_state(&dg, &partition);
            let mut reference = partition.clone();
            for &(v, to) in &moves {
                let rec = MoveRec {
                    gid: v,
                    from: reference.block_of(v),
                    to,
                    weight: 1,
                };
                st.apply_committed(&dg, rec).unwrap();
                reference.assign(v, to);
                st.verify_exact(comm, &dg).unwrap();
                assert_eq!(st.edge_cut(comm, &dg).unwrap(), reference.edge_cut(&g));
            }
        });
    }

    /// The view a whole colour class ahead: every move of a batch is
    /// observed before the first is committed, as one class's searches run
    /// ahead of its replay. The batch moves a node, each of its neighbours
    /// and then the node again, so adjacent movers and a twice-moved node
    /// must read each other's committed (not live) blocks during the replay.
    #[test]
    fn replay_catches_up_a_view_a_whole_class_ahead() {
        for (g, k) in [(random_geometric_graph(500, 3), 4u32), (grid2d(12, 12), 3)] {
            let n = g.num_nodes() as NodeId;
            let partition = Partition::from_assignment(k, (0..n).map(|i| (i * 7) % k).collect());
            let v = n / 2 - 1;
            let mut batch: Vec<NodeId> = vec![v, 0];
            batch.extend(g.edges_of(v).map(|(u, _)| u));
            batch.push(v);
            let mut reference = partition.clone();
            let recs: Vec<MoveRec> = batch
                .iter()
                .enumerate()
                .map(|(i, &gid)| {
                    let from = reference.block_of(gid);
                    let to = (from + 1 + (i as u32 % (k - 1))) % k;
                    reference.assign(gid, to);
                    MoveRec {
                        gid,
                        from,
                        to,
                        weight: 1,
                    }
                })
                .collect();
            let expected = reference.edge_cut(&g);
            for ranks in [1usize, 2, 3] {
                LocalCluster::new(ranks).run(|comm| {
                    let dg = DistGraph::from_global(&g, ranks, comm.rank());
                    let mut st = shard_state(&dg, &partition);
                    for rec in &recs {
                        if let Some(l) = dg.local_of(rec.gid) {
                            st.live_view().assign(l, rec.to);
                        }
                    }
                    for &rec in &recs {
                        st.apply_committed(&dg, rec).unwrap();
                    }
                    st.verify_exact(comm, &dg).unwrap();
                    assert_eq!(st.edge_cut(comm, &dg).unwrap(), expected, "ranks {ranks}");
                });
            }
        }
    }

    #[test]
    fn quotient_partials_merge_to_the_full_scan_quotient() {
        let g = random_geometric_graph(400, 9);
        let partition =
            Partition::from_assignment(5, (0..400).map(|i| ((i * 3) % 5) as u32).collect());
        let reference = kappa_graph::QuotientGraph::build(&g, &partition);
        let ranks = 4;
        let merged = LocalCluster::new(ranks).run(|comm| {
            let dg = DistGraph::from_global(&g, ranks, comm.rank());
            let st = shard_state(&dg, &partition);
            let shares = comm.allgather(st.quotient_partial(&dg)).unwrap();
            let mut map = std::collections::HashMap::new();
            for (a, b, w) in shares.into_iter().flatten() {
                *map.entry((a, b)).or_insert(0) += w;
            }
            kappa_graph::QuotientGraph::from_cut_weights(partition.k(), map)
        });
        for q in merged {
            assert_eq!(q.edges(), reference.edges());
        }
    }
}
