//! Two-phase distributed matching (§3.3 of the paper, over real ranks).
//!
//! **Phase 1 — interior.** Each rank matches its *interior subgraph* (owned
//! nodes, edges with both endpoints owned) with the ordinary sequential
//! matcher of `kappa-matching` under a rank-derived seed. A shard without
//! ghosts — no owned row names a remote node, which always holds at one rank
//! — *is* its interior, and is matched as it stands; only a shard with ghosts
//! copies its interior out. For one rank the phase therefore reduces exactly
//! to `compute_matching` on the graph — the first half of the `--ranks 1`
//! parity argument.
//!
//! **Phase 2 — handshake across rank boundaries.** Cut edges between two
//! locally-unmatched endpoints form the *gap graph*. It is matched by
//! iterated locally-heaviest-edge pointing, realised as a symmetric
//! propose/accept handshake: each round, every rank proposes, for each of its
//! unmatched boundary nodes, that node's most attractive remaining gap edge
//! (highest rating, ties broken by the global edge key); proposals travel to
//! the other endpoint's owner; an edge is matched exactly when it was
//! proposed from **both** sides — the "locally heaviest at both endpoints"
//! condition — which both owners detect independently, so no accept round is
//! needed. Matched flags are refreshed over the ghost layer and rounds repeat
//! until an `allreduce` reports no progress; the globally best remaining gap
//! edge is matched every round, so termination is guaranteed.

use std::borrow::Cow;

use kappa_graph::{CsrGraph, EdgeWeight, NodeId, INVALID_NODE};
use kappa_matching::{compute_matching, rate_edge, EdgeRating, MatchingAlgorithm};

use crate::comm::{Comm, CommError, CommResult};
use crate::graph::DistGraph;

/// A distributed matching: partner *global* ids under the owner-computes
/// rule.
#[derive(Clone, Debug)]
pub struct DistMatching {
    /// Partner global id per owned node (`INVALID_NODE` = unmatched).
    pub partner_owned: Vec<NodeId>,
    /// Global number of matched pairs.
    pub matched_pairs: usize,
}

/// Per-ghost matching info exchanged after the interior phase.
#[derive(Clone, Copy, Debug)]
struct GhostMatchState {
    matched: bool,
}

crate::impl_wire_struct!(GhostMatchState { matched });

/// One gap edge as seen from this rank: an owned endpoint and a ghost
/// endpoint with the rating both sides compute identically.
#[derive(Clone, Copy, Debug)]
struct GapEdge {
    u_local: NodeId,
    ghost_idx: usize,
    u_gid: NodeId,
    t_gid: NodeId,
    rating: f64,
}

impl GapEdge {
    /// Global edge key for deterministic tie-breaks.
    fn key(&self) -> (NodeId, NodeId) {
        (self.u_gid.min(self.t_gid), self.u_gid.max(self.t_gid))
    }

    /// "More attractive" total order: higher rating first, then smaller
    /// global edge key. Both endpoint owners evaluate it identically.
    fn better_than(&self, other: &GapEdge) -> bool {
        self.rating > other.rating || (self.rating == other.rating && self.key() < other.key())
    }
}

/// Computes a distributed matching of `dg` (collective call).
///
/// `Shem` falls back to the interior subgraph as well (it needs full
/// adjacency, which the interior subgraph provides), so all three sequential
/// algorithms are supported.
pub fn distributed_matching<C: Comm>(
    comm: &mut C,
    dg: &DistGraph,
    algorithm: MatchingAlgorithm,
    rating: EdgeRating,
    seed: u64,
) -> CommResult<DistMatching> {
    let ln = dg.num_owned();
    let (lo, hi) = dg.owned_range();

    // --- Phase 1: sequential matching of the interior subgraph. ---
    // Rank 0's seed equals `seed` so a one-rank cluster reproduces the
    // shared-memory `compute_matching` call bit for bit.
    let rank_seed = seed.wrapping_add((comm.rank() as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let interior: Cow<'_, CsrGraph> = if dg.ghosts().is_empty() {
        Cow::Borrowed(dg.local())
    } else {
        Cow::Owned(interior_subgraph(dg))
    };
    let interior_matching = compute_matching(&*interior, algorithm, rating, rank_seed);

    let mut partner_owned: Vec<NodeId> = vec![INVALID_NODE; ln];
    for l in 0..ln as NodeId {
        if let Some(p) = interior_matching.partner_of(l) {
            partner_owned[l as usize] = lo + p;
        }
    }

    // --- Phase 2: handshake over the gap graph. ---
    // Exchange matched flags so both sides agree on which cut edges are gap
    // edges (both endpoints unmatched after the interior phase).
    let mut ghost_state: Vec<GhostMatchState> = dg.exchange_ghosts(comm, |l| GhostMatchState {
        matched: partner_owned[l as usize] != INVALID_NODE,
    })?;

    // All cut edges incident to an owned node, rated exactly as both owners
    // rate them (ratings depend on edge weight, node weights and — for
    // innerOuter — full weighted degrees; owned rows are complete and ghost
    // weighted degrees are pulled below when needed).
    let ghost_wdeg: Vec<EdgeWeight> = if rating == EdgeRating::InnerOuter {
        dg.exchange_ghosts(comm, |l| dg.local().weighted_degree(l))?
    } else {
        Vec::new()
    };
    let mut gap: Vec<GapEdge> = Vec::new();
    for u in 0..ln as NodeId {
        let out_u = if rating == EdgeRating::InnerOuter {
            dg.local().weighted_degree(u)
        } else {
            0
        };
        for (t, w) in dg.local().edges_of(u) {
            if dg.is_owned_local(t) {
                continue;
            }
            let ghost_idx = t as usize - ln;
            let out_t = if rating == EdgeRating::InnerOuter {
                ghost_wdeg[ghost_idx]
            } else {
                0
            };
            let r = rate_edge(
                rating,
                w,
                dg.local().node_weight(u),
                dg.local().node_weight(t),
                out_u,
                out_t,
            );
            gap.push(GapEdge {
                u_local: u,
                ghost_idx,
                u_gid: lo + u,
                t_gid: dg.global_of(t),
                rating: r,
            });
        }
    }

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        // Every round either matches at least one pair somewhere (so at most
        // n/2 productive rounds exist) or is the final no-progress round. A
        // longer run means a rank disagrees about the gap state — a protocol
        // failure to diagnose, not a panic.
        if rounds > dg.num_global_nodes() + 2 {
            return Err(CommError::protocol(
                comm.rank(),
                comm.rank(),
                "gap-handshake",
                format!("gap handshake failed to terminate after {rounds} rounds"),
            ));
        }
        gap.retain(|e| {
            partner_owned[e.u_local as usize] == INVALID_NODE && !ghost_state[e.ghost_idx].matched
        });
        // Best remaining gap edge per owned endpoint. A BTreeMap keyed by the
        // local id: iteration below must follow a deterministic order (std's
        // HashMap order varies per process, which would break cross-transport
        // bit-identity if any downstream step were order-sensitive).
        let mut best: std::collections::BTreeMap<NodeId, GapEdge> =
            std::collections::BTreeMap::new();
        for e in &gap {
            match best.get(&e.u_local) {
                Some(b) if !e.better_than(b) => {}
                _ => {
                    best.insert(e.u_local, *e);
                }
            }
        }
        // Propose each best edge to the other endpoint's owner; an edge
        // proposed from both sides is matched (both owners see it).
        let mut proposals: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); comm.num_ranks()];
        for e in best.values() {
            proposals[dg.owner_of(e.t_gid)].push((e.u_gid, e.t_gid));
        }
        for part in &mut proposals {
            part.sort_unstable();
        }
        let incoming = comm.alltoallv(proposals)?;
        let mut matched_now = 0u64;
        for (src, part) in incoming.into_iter().enumerate() {
            for (u_gid, t_gid) in part {
                // Incoming proposal for edge {u_gid → t_gid}; we must own t_gid.
                if t_gid < lo || t_gid >= hi {
                    let why = format!("rank {src} proposed {{{u_gid}, {t_gid}}} to a non-owner");
                    return Err(CommError::protocol(comm.rank(), src, "gap-handshake", why));
                }
                let t_local = t_gid - lo;
                let Some(my_best) = best.get(&t_local) else {
                    continue;
                };
                if my_best.t_gid == u_gid {
                    // Reciprocal: both sides proposed the same edge.
                    debug_assert_eq!(partner_owned[t_local as usize], INVALID_NODE);
                    partner_owned[t_local as usize] = u_gid;
                    matched_now += 1;
                }
            }
        }
        // Check global progress first: a no-progress round cannot have
        // changed any matched flag anywhere, so breaking before the ghost
        // refresh drops one exchange round per handshake without altering a
        // single exchanged value. (Each matched gap pair is counted twice —
        // once per endpoint owner.)
        if comm.allreduce_sum(matched_now)? == 0 {
            break;
        }
        ghost_state = dg.exchange_ghosts(comm, |l| GhostMatchState {
            matched: partner_owned[l as usize] != INVALID_NODE,
        })?;
    }

    // Count pairs at the smaller endpoint's owner, so each pair counts once.
    let local_pairs = partner_owned
        .iter()
        .enumerate()
        .filter(|&(l, &p)| p != INVALID_NODE && lo + (l as NodeId) < p)
        .count() as u64;
    let matched_pairs = comm.allreduce_sum(local_pairs)? as usize;

    Ok(DistMatching {
        partner_owned,
        matched_pairs,
    })
}

/// The interior subgraph: owned nodes with the edges whose both endpoints are
/// owned, in the same relative order as the full graph (owned local ids are a
/// monotone renumbering of the owned global range). Only built when the shard
/// has ghosts; without them the shard itself is its interior.
fn interior_subgraph(dg: &DistGraph) -> CsrGraph {
    let local = dg.local();
    let ln = dg.num_owned();
    let mut rows = CsrGraph::rows(ln, 0);
    for u in 0..ln as NodeId {
        rows.push_node(local.edges_of(u).filter(|&(t, _)| dg.is_owned_local(t)));
    }
    rows.finish(
        (0..ln as NodeId).map(|u| local.node_weight(u)).collect(),
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{CommErrorKind, LocalCluster};
    use kappa_gen::grid::grid2d;
    use kappa_gen::rgg::random_geometric_graph;

    /// Validates a distributed matching against the global graph: symmetric,
    /// partner edges exist, no node matched twice.
    fn validate_global(g: &CsrGraph, partners: &[NodeId]) {
        for v in 0..g.num_nodes() as NodeId {
            let p = partners[v as usize];
            if p == INVALID_NODE {
                continue;
            }
            assert_ne!(p, v, "self-matched node {v}");
            assert_eq!(partners[p as usize], v, "asymmetric match {v} <-> {p}");
            assert!(g.neighbors(v).contains(&p), "matched non-edge {{{v}, {p}}}");
        }
    }

    fn run_matching(g: &CsrGraph, ranks: usize, seed: u64) -> (Vec<NodeId>, usize) {
        let results = LocalCluster::new(ranks).run(|comm| {
            let dg = DistGraph::from_global(g, ranks, comm.rank());
            let m = distributed_matching(
                comm,
                &dg,
                MatchingAlgorithm::Gpa,
                EdgeRating::ExpansionStar2,
                seed,
            )
            .unwrap();
            (m.partner_owned.clone(), m.matched_pairs)
        });
        let mut partners = Vec::new();
        let pairs = results[0].1;
        for (owned, p) in &results {
            partners.extend_from_slice(owned);
            assert_eq!(*p, pairs, "ranks disagree on the global cardinality");
        }
        (partners, pairs)
    }

    #[test]
    fn single_rank_reduces_to_the_sequential_matcher() {
        let g = random_geometric_graph(800, 3);
        let (partners, pairs) = run_matching(&g, 1, 42);
        let reference =
            compute_matching(&g, MatchingAlgorithm::Gpa, EdgeRating::ExpansionStar2, 42);
        assert_eq!(pairs, reference.cardinality());
        for v in 0..g.num_nodes() as NodeId {
            let p = (partners[v as usize] != INVALID_NODE).then_some(partners[v as usize]);
            assert_eq!(p, reference.partner_of(v), "node {v}");
        }
    }

    #[test]
    fn multi_rank_matchings_are_valid_and_deterministic() {
        let g = random_geometric_graph(700, 11);
        for ranks in [2usize, 3, 4, 8] {
            let (partners, pairs) = run_matching(&g, ranks, 7);
            validate_global(&g, &partners);
            assert!(pairs > 0);
            let (partners2, _) = run_matching(&g, ranks, 7);
            assert_eq!(partners, partners2, "ranks {ranks} not deterministic");
        }
    }

    #[test]
    fn handshake_matches_attractive_cross_rank_edges() {
        // A path that straddles the rank boundary with a heavy middle edge:
        // the gap phase must pick it up when both endpoints stay unmatched.
        // Grid ensures plenty of cross-rank edges in general.
        let g = grid2d(16, 16);
        for ranks in [2usize, 4] {
            let (partners, pairs) = run_matching(&g, ranks, 3);
            validate_global(&g, &partners);
            // A 16x16 grid has a near-perfect matching; the distributed one
            // must stay in the same league (>= 60 % of nodes matched).
            assert!(
                pairs * 2 >= 150,
                "ranks {ranks}: only {pairs} pairs matched"
            );
        }
    }

    /// A gap proposal for a node the receiver does not own — below its range,
    /// where the local id would underflow, or above it, where it would be
    /// dropped — is the proposer's protocol violation.
    #[test]
    fn a_proposal_for_a_node_the_receiver_does_not_own_is_diagnosed() {
        // Rank 0 owns rows 0..4 of an 8 × 8 grid (nodes 0..32), rank 1 the rest.
        let g = grid2d(8, 8);
        for (honest, bad, u_gid, t_gid) in [(1usize, 0usize, 27u32, 3u32), (0, 1, 35, 50)] {
            let outcomes = LocalCluster::new(2).run(|comm| {
                let dg = DistGraph::from_global(&g, 2, comm.rank());
                if comm.rank() == bad {
                    // The bad peer runs the handshake's first two exchanges.
                    let unmatched = |_| GhostMatchState { matched: false };
                    dg.exchange_ghosts(comm, unmatched).unwrap();
                    let mut proposals = vec![Vec::new(), Vec::new()];
                    proposals[honest].push((u_gid, t_gid));
                    // kappa-lint: allow(rank-branch-collective) -- the bad peer's exchanges meet the first two inside the honest rank's `distributed_matching`, so both branches reach them
                    comm.alltoallv(proposals).unwrap();
                    return None;
                }
                let algorithm = MatchingAlgorithm::Gpa;
                let rating = EdgeRating::ExpansionStar2;
                Some(distributed_matching(comm, &dg, algorithm, rating, 1).unwrap_err())
            });
            let e = outcomes[honest].as_ref().unwrap();
            assert_eq!(
                (e.rank, e.peer, e.tag.as_str()),
                (honest, bad, "gap-handshake")
            );
            let expected = format!("rank {bad} proposed {{{u_gid}, ");
            assert!(
                matches!(&e.kind, CommErrorKind::Protocol(d)
                    if d.contains(&expected) && d.contains(&format!("{t_gid}}} to a non-owner"))),
                "{e:?}"
            );
        }
    }

    #[test]
    fn quality_close_to_sequential_across_rank_counts() {
        let g = random_geometric_graph(1000, 23);
        let reference = compute_matching(&g, MatchingAlgorithm::Gpa, EdgeRating::ExpansionStar2, 5)
            .cardinality() as f64;
        for ranks in [2usize, 4, 8] {
            let (_, pairs) = run_matching(&g, ranks, 5);
            assert!(
                pairs as f64 >= 0.75 * reference,
                "ranks {ranks}: {pairs} pairs vs sequential {reference}"
            );
        }
    }
}
