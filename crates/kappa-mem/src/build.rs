//! Streaming construction: [`EdgeSource`] → a [`TierGraph`] on either store,
//! without ever materialising the full edge list.
//!
//! The rows come from kappa-graph's counting build, the same code behind
//! `GraphBuilder::build`, run chunk by chunk:
//!
//! 1. one replay counts degrees ([`count_degrees`], Θ(n) `u32`s) and detects
//!    whether any weight differs from 1;
//! 2. the node range is split into chunks whose fill arrays (12 bytes per
//!    counted half-edge) fit a fixed byte budget, and one replay *per chunk*
//!    builds just that chunk's rows ([`fill_rows`]) before encoding them to
//!    the sink.
//!
//! Peak transient memory is `O(n + CHUNK_BYTES)` instead of `O(m)`; the cost
//! is `1 + ⌈fill bytes / CHUNK_BYTES⌉` replays of the source, which is cheap
//! for generators.
//!
//! Duplicate `{u, v}` pairs are merged by summing and self-loops dropped,
//! exactly like `GraphBuilder`. In an all-unit stream a duplicate would
//! merge to weight 2, contradicting the weightless encoding the first pass
//! committed to — the build panics on that (generators never emit
//! duplicates; weighted sources are unrestricted).

use std::io;

use kappa_graph::builder::{count_degrees, fill_rows};
use kappa_graph::{EdgeSource, EdgeWeight, NodeId};

use crate::graph::{NodeData, PushRow};
use crate::tier::{TierGraph, TierSpec};

/// Byte budget for one chunk's fill arrays. A smaller budget would mean lower
/// peak RAM but more replays of the source.
const CHUNK_BYTES: usize = 128 << 20;

/// Builds the rows of `src` chunk by chunk, handing each node's row to
/// `emit` in ascending node order.
fn for_each_node_list<S: EdgeSource>(
    src: &S,
    degrees: &[u32],
    weighted: bool,
    chunk_bytes: usize,
    emit: &mut PushRow<'_>,
) -> io::Result<()> {
    let n = src.num_nodes();
    // Fill-array cost of one half-edge: u32 target plus u64 weight.
    let chunk_budget = (chunk_bytes / 12).max(1) as u64;
    let mut row: Vec<(NodeId, EdgeWeight)> = Vec::new();
    let mut lo = 0usize;
    while lo < n {
        // Grow the chunk until its fill arrays hit the budget (always at
        // least one node so huge hubs still go through).
        let mut hi = lo;
        let mut slots = 0u64;
        while hi < n && (hi == lo || slots + degrees[hi] as u64 <= chunk_budget) {
            slots += degrees[hi] as u64;
            hi += 1;
        }
        let rows = fill_rows(src, degrees, lo..hi);
        for v in lo..hi {
            row.clear();
            row.extend(rows.row(v - lo));
            assert!(
                weighted || row.iter().all(|&(_, w)| w == 1),
                "duplicate edge at node {v} in a unit-weight stream"
            );
            emit(&row)?;
        }
        lo = hi;
    }
    Ok(())
}

/// A source's node data: all-unit node weights collapse to `None`, matching
/// what `from_graph` detects on a built CSR; coordinates are only asked for
/// where the store keeps them.
fn node_data<S: EdgeSource>(src: &S, keep_coords: bool) -> NodeData {
    let vwgt = src.node_weights().filter(|vwgt| {
        assert_eq!(vwgt.len(), src.num_nodes(), "node_weights length mismatch");
        !vwgt.iter().all(|&c| c == 1)
    });
    (vwgt, keep_coords.then(|| src.coords()).flatten())
}

impl TierGraph {
    /// Builds a graph on the store `spec` names from a replayable edge
    /// stream, with `O(n + chunk)` peak transient memory: on the paged store
    /// the graph never exists in RAM, segments stream to disk chunk by chunk.
    ///
    /// Equivalent to [`from_graph`](TierGraph::from_graph) of the
    /// `GraphBuilder`-built graph — the conformance tests assert exact
    /// equality on both stores.
    pub fn from_source<S: EdgeSource>(src: &S, spec: TierSpec<'_>) -> io::Result<TierGraph> {
        from_source_with_chunk_bytes(src, spec, CHUNK_BYTES)
    }
}

pub(crate) fn from_source_with_chunk_bytes<S: EdgeSource>(
    src: &S,
    spec: TierSpec<'_>,
    chunk_bytes: usize,
) -> io::Result<TierGraph> {
    let (degrees, all_unit) = count_degrees(src);
    spec.build(src.num_nodes(), !all_unit, |push| {
        for_each_node_list(src, &degrees, !all_unit, chunk_bytes, push)?;
        Ok(node_data(src, spec.keeps_coords()))
    })
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::PageCacheConfig;
    use kappa_graph::{graph_from_edges, GraphAccess, SliceEdgeSource};
    use proptest::prelude::*;

    fn edges() -> Vec<(NodeId, NodeId, EdgeWeight)> {
        vec![
            (0, 3, 2),
            (5, 2, 1),
            (1, 0, 4),
            (2, 3, 1),
            (4, 5, 3),
            (0, 3, 5), // duplicate of (0, 3): merges to 7
            (1, 4, 1),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `GraphBuilder` and the streamed compact store (one chunk per node
        /// and the default budget) against a `BTreeMap` that sums weights,
        /// on edge lists in any order with repeated pairs, self-loops and
        /// isolated nodes; a quarter of the cases is a unit-weight stream
        /// without repeats (the weightless encoding).
        #[test]
        fn every_build_equals_the_summed_edge_map(
            n in 1usize..60,
            m in 0usize..150,
            seed in any::<u64>(),
        ) {
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let unit = seed % 4 == 0;
            let mut edges: Vec<(NodeId, NodeId, EdgeWeight)> = Vec::new();
            let mut expected: BTreeMap<(NodeId, NodeId), EdgeWeight> = BTreeMap::new();
            for _ in 0..m {
                // Half the draws come from a handful of nodes, so pairs repeat.
                let span = if next() % 2 == 0 { n.min(6) } else { n } as u64;
                let (u, v) = ((next() % span) as NodeId, (next() % span) as NodeId);
                if unit && (expected.contains_key(&(u, v)) || expected.contains_key(&(v, u))) {
                    continue;
                }
                let w = if unit { 1 } else { 1 + next() % 9 };
                edges.push((u, v, w));
                if u != v {
                    *expected.entry((u, v)).or_default() += w;
                    *expected.entry((v, u)).or_default() += w;
                }
            }
            let mut xadj = vec![0usize; n + 1];
            for &(u, _) in expected.keys() {
                xadj[u as usize + 1] += 1;
            }
            for v in 0..n {
                xadj[v + 1] += xadj[v];
            }
            let targets: Vec<NodeId> = expected.keys().map(|&(_, v)| v).collect();
            let weights: Vec<EdgeWeight> = expected.values().copied().collect();

            let built = graph_from_edges(n, edges.clone());
            prop_assert_eq!(built.xadj(), &xadj[..]);
            prop_assert_eq!(built.adjncy(), &targets[..]);
            prop_assert_eq!(built.adjwgt(), &weights[..]);
            let src = SliceEdgeSource::new(n, &edges);
            for chunk_bytes in [1, CHUNK_BYTES] {
                let streamed = from_source_with_chunk_bytes(&src, TierSpec::Compact, chunk_bytes)
                    .unwrap();
                let TierGraph::Compact(compact) = &streamed else {
                    panic!("asked for the compact store");
                };
                prop_assert_eq!(compact.is_weighted(), weights.iter().any(|&w| w != 1));
                prop_assert_eq!(&streamed.to_csr(), &built);
            }
        }
    }

    #[test]
    fn unit_stream_stays_unweighted() {
        let e: Vec<_> = vec![(0, 1, 1), (1, 2, 1), (2, 0, 1)];
        let src = SliceEdgeSource::new(3, &e);
        let t = from_source_with_chunk_bytes(&src, TierSpec::Compact, CHUNK_BYTES).unwrap();
        assert!(matches!(&t, TierGraph::Compact(c) if !c.is_weighted()));
        assert_eq!(t.to_csr(), graph_from_edges(3, e));
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_in_unit_stream_is_rejected() {
        let e: Vec<_> = vec![(0, 1, 1), (1, 0, 1)];
        let src = SliceEdgeSource::new(2, &e);
        let _ = from_source_with_chunk_bytes(&src, TierSpec::Compact, CHUNK_BYTES);
    }

    #[test]
    fn streamed_paged_decodes_to_the_same_graph() {
        let e = edges();
        let src = SliceEdgeSource::new(6, &e);
        let path = crate::graph::conformance::tmp("build");
        let spec = TierSpec::Paged {
            path: &path,
            cache: PageCacheConfig::default(),
        };
        let mut p = from_source_with_chunk_bytes(&src, spec, 16).unwrap();
        p.set_delete_on_drop(true);
        let reference = graph_from_edges(6, e);
        assert_eq!(p.tier_name(), "paged");
        assert_eq!(p.num_half_edges(), reference.num_half_edges());
        for v in reference.nodes() {
            let a: Vec<_> = reference.edges_of(v).collect();
            let b: Vec<_> = GraphAccess::edges_of(&p, v).collect();
            assert_eq!(a, b, "node {v}");
        }
    }
}
