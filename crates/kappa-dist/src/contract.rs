//! Distributed contraction: from a [`DistGraph`] + [`DistMatching`] to the
//! next level's [`DistGraph`], with deterministic coarse-id assignment.
//!
//! A coarse node is *anchored* at the smaller global endpoint of its matched
//! pair (or at the node itself when unmatched), and owned by that anchor's
//! rank. Since ownership ranges are contiguous and ascending, numbering each
//! rank's anchors in ascending order and offsetting by an exclusive prefix
//! sum of the per-rank anchor counts yields **globally ascending coarse ids
//! by anchor** — exactly the id order of the shared-memory
//! `contract_matching`, which is what makes the one-rank pipeline produce a
//! bit-identical hierarchy. The rows are built as there, too: by
//! [`RowMerger::merged_row`] over the shard, with one coarse id per local
//! node (owned, then ghosts) and slots for this rank's coarse ids; a pair
//! split across ranks adds its partner's shipped row and is merged again.
//!
//! Communication (all collectives, deterministic):
//! 1. allgather anchor counts → coarse ownership ranges;
//! 2. two ghost-exchange rounds to mirror coarse ids (the second resolves
//!    nodes whose anchor lives on another rank);
//! 3. one `alltoallv` shipping the mapped adjacency of cross-rank matched
//!    partners to their anchor's owner;
//! 4. coarse ghost node weights pulled inside [`DistGraph::assemble_with`].

use std::collections::hash_map::{Entry, HashMap};

use kappa_coarsen::RowMerger;
use kappa_graph::{
    merge_row, CsrGraph, EdgeWeight, NodeId, NodeWeight, WeightOverflow, INVALID_NODE,
    MAX_TOTAL_WEIGHT,
};

use crate::comm::{Comm, CommError, CommResult};
use crate::graph::DistGraph;
use crate::matching::DistMatching;

/// A cross-rank invariant of the contraction protocol failed — the data
/// another rank shipped (or failed to ship) is inconsistent with the local
/// matching. Diagnosed, not panicked: the caller learns which rank saw what.
fn proto_err<C: Comm>(comm: &C, detail: String) -> CommError {
    CommError::protocol(comm.rank(), comm.rank(), "contract", detail)
}

/// A cross-rank partner's row on its way to the anchor's owner: the anchor's
/// global id, the partner's adjacency mapped to coarse ids, its node weight.
type ShippedRow = (NodeId, Vec<(NodeId, EdgeWeight)>, NodeWeight);

/// Result of one distributed contraction step.
#[derive(Clone, Debug)]
pub struct DistContraction {
    /// The coarse distributed graph, which owns its rows.
    pub coarse: DistGraph<'static>,
    /// Global coarse id of every **owned** fine node.
    pub coarse_of_owned: Vec<NodeId>,
}

/// Contracts `matching` on `dg` (collective call).
pub fn distributed_contraction<C: Comm>(
    comm: &mut C,
    dg: &DistGraph,
    matching: &DistMatching,
) -> CommResult<DistContraction> {
    let ln = dg.num_owned();
    let (lo, _) = dg.owned_range();
    let ranks = comm.num_ranks();

    // --- 1. Anchors and coarse ownership ranges. ---
    // Owned node u is an anchor iff unmatched or matched with a larger gid.
    let is_anchor = |l: NodeId| -> bool {
        let p = matching.partner_owned[l as usize];
        p == INVALID_NODE || lo + l < p
    };
    let my_anchors: Vec<NodeId> = (0..ln as NodeId).filter(|&l| is_anchor(l)).collect();
    let counts = comm.allgather(my_anchors.len() as NodeId)?;
    let mut coarse_starts: Vec<NodeId> = vec![0; ranks + 1];
    for (r, c) in counts.iter().enumerate() {
        coarse_starts[r + 1] = coarse_starts[r] + c;
    }
    let my_offset = coarse_starts[comm.rank()];

    // --- 2. Coarse ids for owned nodes (two mirror rounds). ---
    let mut coarse_of_owned: Vec<NodeId> = vec![INVALID_NODE; ln];
    for (i, &l) in my_anchors.iter().enumerate() {
        let cid = my_offset + i as NodeId;
        coarse_of_owned[l as usize] = cid;
        // An owned partner inherits the anchor's id directly.
        let partner = dg.local_of(matching.partner_owned[l as usize]);
        if let Some(pl) = partner.filter(|&pl| dg.is_owned_local(pl)) {
            coarse_of_owned[pl as usize] = cid;
        }
    }
    // Round 1: mirror what is known; owned nodes anchored remotely read
    // their id off the (ghost) anchor — the partner is a neighbour, hence a
    // ghost here.
    let ghost_coarse_round1 = dg.exchange_ghosts(comm, |l| coarse_of_owned[l as usize])?;
    for l in 0..ln as NodeId {
        if coarse_of_owned[l as usize] == INVALID_NODE {
            let p = matching.partner_owned[l as usize];
            debug_assert!(p != INVALID_NODE && p < lo + l);
            let pl = dg.local_of(p).ok_or_else(|| {
                proto_err(
                    comm,
                    format!("matched partner {p} of node {} is not local", lo + l),
                )
            })?;
            debug_assert!(!dg.is_owned_local(pl));
            let cid = ghost_coarse_round1[pl as usize - ln];
            if cid == INVALID_NODE {
                return Err(proto_err(
                    comm,
                    format!("anchor id missing for cross pair ({}, {p})", lo + l),
                ));
            }
            coarse_of_owned[l as usize] = cid;
        }
    }
    // Round 2: now every owned id is final; mirror again for the ghosts.
    // The coarse id of every local node: owned ids, then ghost ids.
    let ghost_coarse = dg.exchange_ghosts(comm, |l| coarse_of_owned[l as usize])?;
    let mut coarse_of = coarse_of_owned;
    coarse_of.extend(ghost_coarse);

    // --- 3. Ship mapped adjacency of cross-rank partners to the anchor. ---
    // For an owned node p matched to a *remote smaller* partner u, the coarse
    // node lives at owner(u): send (u_gid, p's row mapped to coarse ids).
    let mut outgoing: Vec<Vec<ShippedRow>> = vec![Vec::new(); ranks];
    for l in 0..ln as NodeId {
        let p = matching.partner_owned[l as usize];
        if p == INVALID_NODE || p > lo + l {
            continue;
        }
        if dg.local_of(p).map(|pl| dg.is_owned_local(pl)) == Some(true) {
            continue; // pair fully local, handled in-place
        }
        let mapped: Vec<(NodeId, EdgeWeight)> = dg
            .local()
            .edges_of(l)
            .map(|(t, w)| (coarse_of[t as usize], w))
            .collect();
        outgoing[dg.owner_of(p)].push((p, mapped, dg.local().node_weight(l)));
    }
    let shipped = comm.alltoallv(outgoing)?;
    // What a shipped entry adds to this rank's coarse shard's total edge
    // weight, doubled: an edge inside the shard is listed from both ends,
    // an edge out of it once (and mirrored by a ghost row).
    let coarse_mine = my_offset..my_offset + my_anchors.len() as NodeId;
    let load = |(ct, w): (NodeId, EdgeWeight)| match coarse_mine.contains(&ct) {
        true => u128::from(w),
        false => 2 * u128::from(w),
    };
    // Index shipped rows by anchor gid. A row is expected only for an owned
    // anchor whose partner the sender owns, and only once. Per sender, what
    // its rows add to the shard's (doubled) edge and node weight totals.
    let mut shipped_rows = HashMap::new();
    let mut shipped_half_edges = 0;
    let mut shipped_loads = vec![(0u128, 0u128); ranks];
    for (src, part) in shipped.into_iter().enumerate() {
        for (anchor, row, weight) in part {
            let partner = anchor
                .checked_sub(lo)
                .and_then(|l| matching.partner_owned.get(l as usize))
                .copied()
                .filter(|&p| p != INVALID_NODE && p > anchor);
            let detail = if partner.map(|p| dg.owner_of(p)) != Some(src) {
                format!("rank {src} shipped a row for anchor {anchor}, which has no partner there")
            } else if let Entry::Vacant(slot) = shipped_rows.entry(anchor) {
                let cid = coarse_of[(anchor - lo) as usize];
                let edges = row.iter().filter(|&&(ct, _)| ct != cid);
                shipped_loads[src].0 += edges.map(|&e| load(e)).sum::<u128>();
                shipped_loads[src].1 += u128::from(weight);
                shipped_half_edges += row.len();
                slot.insert((row, weight));
                continue;
            } else {
                format!("rank {src} shipped a second row for anchor {anchor}")
            };
            return Err(CommError::protocol(comm.rank(), src, "contract", detail));
        }
    }

    // --- 4. Build the owned coarse rows (ascending anchor order). ---
    // The merger's slots cover this rank's coarse ids; rows into other
    // ranks' coarse nodes are summed by `merge_row`. A coarse row holds at
    // most the entries of its fine rows, so the owned rows plus the shipped
    // ones bound the coarse half-edges and the rows never grow.
    let half_edge_bound = dg.local().xadj()[ln] + shipped_half_edges;
    let mut rows = CsrGraph::rows(my_anchors.len(), half_edge_bound);
    let mut vwgt: Vec<NodeWeight> = Vec::with_capacity(my_anchors.len());
    let mut merger = RowMerger::new(my_offset, my_anchors.len());
    let mut cross_row: Vec<(NodeId, EdgeWeight)> = Vec::new();
    for &l in &my_anchors {
        let p = matching.partner_owned[l as usize];
        let partner = match p {
            INVALID_NODE => None,
            _ => Some(dg.local_of(p).ok_or_else(|| {
                proto_err(
                    comm,
                    format!("matched partner {p} of anchor {} is not local", lo + l),
                )
            })?),
        };
        let owned_partner = partner.filter(|&pl| dg.is_owned_local(pl));
        let reps = (l, owned_partner.unwrap_or(INVALID_NODE));
        let row = merger.merged_row(dg.local(), &coarse_of, reps);
        let mut weight = dg.local().node_weight(l);
        weight += owned_partner.map_or(0, |pl| dg.local().node_weight(pl));
        if partner == owned_partner {
            rows.push_node(row.iter().copied());
        } else {
            // A cross-rank pair: the partner's shipped row joins the
            // anchor's, and the two are merged again.
            let (shipped, partner_weight) = shipped_rows.remove(&(lo + l)).ok_or_else(|| {
                proto_err(
                    comm,
                    format!(
                        "rank {} never received the shipped adjacency row for \
                         anchor {} (partner {p})",
                        comm.rank(),
                        lo + l
                    ),
                )
            })?;
            let cid = coarse_of[l as usize];
            cross_row.clear();
            cross_row.extend_from_slice(row);
            cross_row.extend(shipped.into_iter().filter(|&(ct, _)| ct != cid));
            let len = merge_row(&mut cross_row);
            rows.push_node(cross_row[..len].iter().copied());
            weight += partner_weight;
        }
        vwgt.push(weight);
    }
    // The shard is this rank's rows and the shipped ones, and the totals
    // rule bounds it. The sender whose rows lift it past the rule is blamed,
    // once this rank has taken its part in the assembly's collectives.
    let mut blame = None;
    if shipped_loads.iter().any(|&l| l != (0, 0)) {
        let all_rows = (0..rows.num_rows()).flat_map(|i| rows.row(i));
        let mut edges = all_rows.map(load).sum::<u128>();
        let mut nodes = vwgt.iter().map(|&w| u128::from(w)).sum::<u128>();
        for &(e, n) in &shipped_loads {
            edges = edges.saturating_sub(e);
            nodes = nodes.saturating_sub(n);
        }
        blame = shipped_loads.iter().enumerate().find_map(|(src, &(e, n))| {
            (edges, nodes) = (edges + e, nodes + n);
            let overflow = match (edges / 2, nodes) {
                (e, _) if e > u128::from(MAX_TOTAL_WEIGHT) => WeightOverflow::Edges,
                (_, n) if n > u128::from(MAX_TOTAL_WEIGHT) => WeightOverflow::Nodes,
                _ => return None,
            };
            let detail = format!("rank {src} shipped rows past the totals rule: {overflow}");
            Some(CommError::protocol(comm.rank(), src, "contract", detail))
        });
    }
    let coarse = DistGraph::assemble_with(comm, comm.rank(), ranks, coarse_starts, rows, vwgt);
    let coarse = blame.map_or(coarse, Err)?;
    coarse_of.truncate(ln);
    Ok(DistContraction {
        coarse,
        coarse_of_owned: coarse_of,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::LocalCluster;
    use crate::matching::distributed_matching;
    use kappa_coarsen::contract_matching;
    use kappa_gen::grid::grid2d;
    use kappa_gen::rgg::random_geometric_graph;
    use kappa_matching::{EdgeRating, MatchingAlgorithm};

    /// Reassembles the global coarse graph + mapping from the per-rank shards.
    fn run_contraction(
        g: &CsrGraph,
        ranks: usize,
        seed: u64,
    ) -> (CsrGraph, Vec<NodeId>, Vec<NodeId>) {
        let shards = LocalCluster::new(ranks).run(|comm| {
            let dg = DistGraph::from_global(g, ranks, comm.rank());
            let m = distributed_matching(
                comm,
                &dg,
                MatchingAlgorithm::Gpa,
                EdgeRating::ExpansionStar2,
                seed,
            )
            .unwrap();
            let c = distributed_contraction(comm, &dg, &m).unwrap();
            let coarse_rows: Vec<(Vec<(NodeId, EdgeWeight)>, NodeWeight)> = (0
                ..c.coarse.num_owned() as NodeId)
                .map(|l| {
                    (
                        c.coarse
                            .local()
                            .edges_of(l)
                            .map(|(t, w)| (c.coarse.global_of(t), w))
                            .collect(),
                        c.coarse.local().node_weight(l),
                    )
                })
                .collect();
            (coarse_rows, c.coarse_of_owned.clone(), m)
        });
        let mut xadj = vec![0usize];
        let mut adjncy = Vec::new();
        let mut adjwgt = Vec::new();
        let mut vwgt = Vec::new();
        let mut coarse_of = Vec::new();
        let mut partners = Vec::new();
        for (rows, mapping, m) in shards {
            for (row, w) in rows {
                for (t, ew) in row {
                    adjncy.push(t);
                    adjwgt.push(ew);
                }
                xadj.push(adjncy.len());
                vwgt.push(w);
            }
            coarse_of.extend(mapping);
            partners.extend(m.partner_owned);
        }
        (
            CsrGraph::from_parts(xadj, adjncy, adjwgt, vwgt, None),
            coarse_of,
            partners,
        )
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "compares the raw weight arrays of two coarse graphs"
    )]
    fn distributed_contraction_matches_the_shared_reference() {
        // The distributed matching equals its own shared-memory replay (the
        // partners ARE the matching); contracting that matching with the
        // sequential reference must give a bit-identical coarse graph and
        // mapping for every rank count.
        for (g, seed) in [(grid2d(20, 20), 1u64), (random_geometric_graph(900, 5), 9)] {
            for ranks in [1usize, 2, 3, 4, 8] {
                let (coarse, coarse_of, partners) = run_contraction(&g, ranks, seed);
                let mut reference_matching = kappa_matching::Matching::new(g.num_nodes());
                for v in 0..g.num_nodes() as NodeId {
                    let p = partners[v as usize];
                    if p != INVALID_NODE && v < p {
                        assert!(reference_matching.try_match(v, p));
                    }
                }
                let reference = contract_matching(&g, &reference_matching);
                assert_eq!(coarse_of, reference.coarse_of, "ranks {ranks} mapping");
                assert_eq!(
                    coarse.vwgt(),
                    reference.coarse_graph.vwgt(),
                    "ranks {ranks} weights"
                );
                assert_eq!(
                    coarse.xadj(),
                    reference.coarse_graph.xadj(),
                    "ranks {ranks} xadj"
                );
                assert_eq!(
                    coarse.adjncy(),
                    reference.coarse_graph.adjncy(),
                    "ranks {ranks} adjacency"
                );
                assert_eq!(
                    coarse.adjwgt(),
                    reference.coarse_graph.adjwgt(),
                    "ranks {ranks} edge weights"
                );
                assert!(coarse.validate().is_ok());
            }
        }
    }

    #[test]
    fn node_weight_is_conserved_across_ranks() {
        let g = random_geometric_graph(500, 17);
        for ranks in [2usize, 5] {
            let (coarse, _, _) = run_contraction(&g, ranks, 3);
            assert_eq!(coarse.total_node_weight(), g.total_node_weight());
        }
    }

    #[test]
    fn shipped_weights_past_the_totals_rule_are_diagnosed() {
        // The path 0 – 1 – 2 – 3 over two ranks, {1, 2} matched across the
        // seam. Each rank holds a legal graph of total edge weight u32::MAX,
        // but the bad rank 1 weighs its far edge {2, 3} at u32::MAX − 2
        // where rank 0's graph has {0, 1} there. The row rank 1 ships for
        // node 2 lifts rank 0's coarse shard to 2·u32::MAX − 4, which its
        // 32-bit store cannot hold.
        let max = kappa_graph::MAX_TOTAL_WEIGHT;
        let heavy =
            |w01, w23| kappa_graph::graph_from_edges(4, [(0, 1, w01), (1, 2, 1), (2, 3, w23)]);
        let graphs = [heavy(max - 2, 1), heavy(1, max - 2)];
        let results = LocalCluster::new(2).run(|comm| {
            let dg = DistGraph::from_global(&graphs[comm.rank()], 2, comm.rank());
            let partner_owned = match comm.rank() {
                0 => vec![INVALID_NODE, 2],
                _ => vec![1, INVALID_NODE],
            };
            let matching = DistMatching {
                partner_owned,
                matched_pairs: 1,
            };
            distributed_contraction(comm, &dg, &matching).err()
        });
        let e = results[0]
            .as_ref()
            .expect("rank 0 rejects the shipped weight");
        assert_eq!((e.rank, e.peer, e.tag.as_str()), (0, 1, "contract"), "{e}");
        assert!(e.to_string().contains("total edge weight exceeds"), "{e}");
        assert!(results[1].is_none(), "rank 1's own shard fits");
    }

    #[test]
    fn a_shipped_row_for_an_unknown_or_repeated_anchor_is_diagnosed() {
        // A 4 × 4 grid over two ranks (rows 0–1 | rows 2–3). The bad rank 1
        // matches its node 8 to rank 0's node 4, which rank 0 leaves
        // unmatched; then it matches node 9 to node 4 as well, where rank 0
        // pairs 4 with 8. Either way rank 1 ships a row rank 0 cannot place.
        let g = grid2d(4, 4);
        let unmatched = vec![INVALID_NODE; 8];
        let mut paired = unmatched.clone();
        paired[4] = 8;
        let mut once = unmatched.clone();
        once[0] = 4;
        let mut twice = once.clone();
        twice[1] = 4;
        for (rank0, rank1, expected) in [
            (
                &unmatched,
                &once,
                "a row for anchor 4, which has no partner there",
            ),
            (&paired, &twice, "a second row for anchor 4"),
        ] {
            let results = LocalCluster::new(2).run(|comm| {
                let dg = DistGraph::from_global(&g, 2, comm.rank());
                let partner_owned = [rank0, rank1][comm.rank()].clone();
                let matching = DistMatching {
                    partner_owned,
                    matched_pairs: 1,
                };
                distributed_contraction(comm, &dg, &matching).err()
            });
            let e = results[0].as_ref().expect("rank 0 rejects the row");
            assert_eq!((e.rank, e.peer, e.tag.as_str()), (0, 1, "contract"), "{e}");
            assert!(
                e.to_string()
                    .contains(&format!("rank 1 shipped {expected}")),
                "{e}"
            );
        }
    }
}
