//! Gain computation for pairwise (2-way) FM refinement — test-only
//! (`#[cfg(test)] mod gain;` in `lib.rs`): the per-node oracle the fused
//! band visit ([`PairBand::around`](crate::band::PairBand::around)) is
//! checked against.
//!
//! The gain of moving node `v` from its block to the partner block is the
//! decrease in edge cut: `Σ ω(v, partner-block) − Σ ω(v, own-block)`. Edges to
//! blocks outside the pair are unaffected by the move and therefore do not
//! enter the gain — this is what makes pairwise refinement embarrassingly
//! parallel across disjoint block pairs.

use kappa_graph::{BlockAssignment, BlockId, GraphAccess, NodeId};

/// Gain of moving `v` to the other block of the pair `(a, b)`.
///
/// `v` must currently be in block `a` or `b`. Generic over
/// [`BlockAssignment`] so it works on full partitions and on the delta-move
/// views the parallel scheduler hands its FM workers.
pub fn pair_gain<G: GraphAccess, A: BlockAssignment>(
    graph: &G,
    partition: &A,
    v: NodeId,
    a: BlockId,
    b: BlockId,
) -> i64 {
    let own = partition.block_of(v);
    debug_assert!(own == a || own == b, "node {v} not in the pair ({a}, {b})");
    let other = if own == a { b } else { a };
    let mut gain = 0i64;
    graph.for_each_edge(v, |u, w| {
        let bu = partition.block_of(u);
        if bu == other {
            gain += w as i64;
        } else if bu == own {
            gain -= w as i64;
        }
    });
    gain
}

/// The total cut between blocks `a` and `b` (useful for verifying FM results).
pub fn pair_cut<G: GraphAccess, A: BlockAssignment>(
    graph: &G,
    partition: &A,
    a: BlockId,
    b: BlockId,
) -> u64 {
    let mut cut = 0u64;
    for u in GraphAccess::nodes(graph) {
        let bu = partition.block_of(u);
        graph.for_each_edge(u, |v, w| {
            if u < v {
                let bv = partition.block_of(v);
                if (bu == a && bv == b) || (bu == b && bv == a) {
                    cut += w;
                }
            }
        });
    }
    cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_graph::{graph_from_edges, Partition};

    #[test]
    fn gain_counts_only_pair_edges() {
        // Node 1 in block 0; neighbours: node 0 (block 0, w 2), node 2 (block 1, w 5),
        // node 3 (block 2, w 100 -> ignored).
        let g = graph_from_edges(4, vec![(0, 1, 2), (1, 2, 5), (1, 3, 100)]);
        let p = Partition::from_assignment(3, vec![0, 0, 1, 2]);
        assert_eq!(pair_gain(&g, &p, 1, 0, 1), 3);
        // Moving node 2 towards block 0 gains 5 (no intra-block edges).
        assert_eq!(pair_gain(&g, &p, 2, 0, 1), 5);
    }

    #[test]
    fn negative_gain_for_well_placed_nodes() {
        let g = graph_from_edges(3, vec![(0, 1, 4), (1, 2, 1)]);
        let p = Partition::from_assignment(2, vec![0, 0, 1]);
        assert_eq!(pair_gain(&g, &p, 1, 0, 1), -3);
    }

    #[test]
    fn pair_cut_matches_manual_count() {
        let g = graph_from_edges(5, vec![(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)]);
        let p = Partition::from_assignment(3, vec![0, 0, 1, 1, 2]);
        assert_eq!(pair_cut(&g, &p, 0, 1), 2);
        assert_eq!(pair_cut(&g, &p, 1, 2), 4);
        assert_eq!(pair_cut(&g, &p, 0, 2), 0);
    }

    #[test]
    fn gain_equals_cut_delta() {
        // Applying a move must change the pair cut by exactly the gain.
        let g = graph_from_edges(
            6,
            vec![
                (0, 1, 3),
                (1, 2, 1),
                (2, 3, 7),
                (3, 4, 2),
                (4, 5, 1),
                (1, 4, 2),
            ],
        );
        let mut p = Partition::from_assignment(2, vec![0, 0, 0, 1, 1, 1]);
        for v in 0..6u32 {
            let before = pair_cut(&g, &p, 0, 1);
            let gain = pair_gain(&g, &p, v, 0, 1);
            let from = p.block_of(v);
            let to = if from == 0 { 1 } else { 0 };
            p.assign(v, to);
            let after = pair_cut(&g, &p, 0, 1);
            assert_eq!(before as i64 - after as i64, gain, "node {v}");
            p.assign(v, from); // restore
        }
    }
}
