//! Partition boundaries and bounded-BFS bands (§5.2, Figure 2).
//!
//! Before a pairwise local search, each PE performs a bounded breadth first
//! search starting from the boundary of its block and sends a copy of this
//! *boundary band* to the partner PE. The local search is then limited to the
//! band; anything beyond it can only be reached in a later global iteration.

use std::collections::VecDeque;

use crate::access::GraphAccess;
use crate::partition::BlockAssignment;
use crate::types::{BlockId, NodeId};

/// All boundary nodes of the partition: nodes with at least one neighbour in a
/// different block.
pub fn boundary_nodes<G: GraphAccess, A: BlockAssignment>(graph: &G, partition: &A) -> Vec<NodeId> {
    GraphAccess::nodes(graph)
        .filter(|&v| {
            let b = partition.block_of(v);
            graph.edges_of(v).any(|(u, _)| partition.block_of(u) != b)
        })
        .collect()
}

/// True if `v` is on the boundary of the *pair* `{a, b}` under `partition`:
/// in block `a` with a neighbour in block `b`, or the other way round. The
/// one definition every band seeder — full scan, boundary index, gathered
/// region, distributed rank — revalidates its candidates with.
pub fn is_pair_boundary<G: GraphAccess, A: BlockAssignment>(
    graph: &G,
    partition: &A,
    v: NodeId,
    a: BlockId,
    b: BlockId,
) -> bool {
    let bv = partition.block_of(v);
    let other = if bv == a {
        b
    } else if bv == b {
        a
    } else {
        return false;
    };
    graph
        .edges_of(v)
        .any(|(u, _)| partition.block_of(u) == other)
}

/// The boundary nodes of the *pair* `{a, b}`: nodes of block `a` with a
/// neighbour in block `b`, and vice versa.
pub fn pair_boundary_nodes<G: GraphAccess, A: BlockAssignment>(
    graph: &G,
    partition: &A,
    a: BlockId,
    b: BlockId,
) -> Vec<NodeId> {
    GraphAccess::nodes(graph)
        .filter(|&v| is_pair_boundary(graph, partition, v, a, b))
        .collect()
}

/// Bounded BFS from `seeds`, restricted to nodes whose block is in
/// `allowed_blocks`, up to `depth` hops (depth 0 returns just the seeds that
/// are in an allowed block). Returns the visited nodes in BFS order.
///
/// This is the plain reference BFS — one `O(n)` distance array per call. The
/// refinement hot path runs `kappa_refine::PairBand::around`, which visits
/// the same nodes in the same order out of pooled buffers and takes each
/// node's gain and boundary flag from the same row visit.
pub fn band_around_boundary<G: GraphAccess, A: BlockAssignment>(
    graph: &G,
    partition: &A,
    seeds: &[NodeId],
    allowed_blocks: (BlockId, BlockId),
    depth: usize,
) -> Vec<NodeId> {
    const UNSEEN: u32 = u32::MAX;
    let mut dist = vec![UNSEEN; graph.num_nodes()];
    let allowed = |v: NodeId| {
        let b = partition.block_of(v);
        b == allowed_blocks.0 || b == allowed_blocks.1
    };
    // BFS depths are clamped to the sentinel; a band never reaches 2^32 hops.
    let depth = depth.min((UNSEEN - 1) as usize) as u32;
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    for &s in seeds {
        if allowed(s) && dist[s as usize] == UNSEEN {
            dist[s as usize] = 0;
            order.push(s);
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let d = dist[u as usize];
        if d >= depth {
            continue;
        }
        graph.for_each_edge(u, |v, _| {
            if allowed(v) && dist[v as usize] == UNSEEN {
                dist[v as usize] = d + 1;
                order.push(v);
                queue.push_back(v);
            }
        });
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::csr::CsrGraph;
    use crate::partition::Partition;

    /// Path of 10 nodes split 5 | 5 between two blocks.
    fn split_path() -> (CsrGraph, Partition) {
        let mut b = GraphBuilder::new(10);
        for i in 0..9u32 {
            b.add_edge(i, i + 1, 1);
        }
        let g = b.build();
        let p = Partition::from_assignment(2, vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1]);
        (g, p)
    }

    #[test]
    fn boundary_of_split_path() {
        let (g, p) = split_path();
        assert_eq!(boundary_nodes(&g, &p), vec![4, 5]);
        assert_eq!(pair_boundary_nodes(&g, &p, 0, 1), vec![4, 5]);
        assert_eq!(pair_boundary_nodes(&g, &p, 1, 0), vec![4, 5]);
    }

    #[test]
    fn pair_boundary_ignores_other_blocks() {
        let mut b = GraphBuilder::new(6);
        for i in 0..5u32 {
            b.add_edge(i, i + 1, 1);
        }
        let g = b.build();
        let p = Partition::from_assignment(3, vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(pair_boundary_nodes(&g, &p, 0, 1), vec![1, 2]);
        assert_eq!(pair_boundary_nodes(&g, &p, 1, 2), vec![3, 4]);
        assert_eq!(pair_boundary_nodes(&g, &p, 0, 2), Vec::<NodeId>::new());
    }

    #[test]
    fn band_depth_limits_growth() {
        let (g, p) = split_path();
        let seeds = pair_boundary_nodes(&g, &p, 0, 1);
        let band0 = band_around_boundary(&g, &p, &seeds, (0, 1), 0);
        assert_eq!(band0.len(), 2);
        let band1 = band_around_boundary(&g, &p, &seeds, (0, 1), 1);
        assert_eq!(band1.len(), 4); // nodes 3..=6
        let band_all = band_around_boundary(&g, &p, &seeds, (0, 1), 100);
        assert_eq!(band_all.len(), 10);
    }

    #[test]
    fn band_respects_allowed_blocks() {
        let mut b = GraphBuilder::new(6);
        for i in 0..5u32 {
            b.add_edge(i, i + 1, 1);
        }
        let g = b.build();
        let p = Partition::from_assignment(3, vec![0, 0, 1, 1, 2, 2]);
        let seeds = pair_boundary_nodes(&g, &p, 0, 1);
        let band = band_around_boundary(&g, &p, &seeds, (0, 1), 10);
        // Nodes of block 2 are never entered.
        assert_eq!(band.len(), 4);
        assert!(band.iter().all(|&v| p.block_of(v) != 2));
    }

    #[test]
    fn seeds_outside_allowed_blocks_are_skipped() {
        let (g, p) = split_path();
        let band = band_around_boundary(&g, &p, &[0, 9], (0, 0), 0);
        assert_eq!(band, vec![0]);
    }

    #[test]
    fn no_boundary_when_single_block() {
        let (g, _) = split_path();
        let p = Partition::trivial(1, 10);
        assert!(boundary_nodes(&g, &p).is_empty());
    }
}
