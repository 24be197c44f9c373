//! Streaming construction: [`EdgeSource`] → a [`TierGraph`] on either store,
//! without ever materialising the full edge list.
//!
//! [`GraphBuilder`](kappa_graph::GraphBuilder) buffers all `2m` half-edge
//! triples (24 bytes each) and sorts them globally — the dominant transient
//! allocation on table-5-class instances. The streaming builder replaces the
//! global sort with **chunked two-pass** construction:
//!
//! 1. one replay counts provisional degrees (Θ(n) `u32`s) and detects
//!    whether any weight differs from 1;
//! 2. the node range is split into chunks whose fill arrays fit a fixed
//!    byte budget, and one replay *per chunk* fills, sorts and merges just
//!    that chunk's adjacency before encoding it to the sink.
//!
//! Peak transient memory is `O(n + CHUNK_BYTES)` instead of `O(m)`; the cost
//! is `1 + ⌈fill bytes / CHUNK_BYTES⌉` replays of the source, which is cheap
//! for generators.
//!
//! Duplicate `{u, v}` pairs in a **weighted** stream are merged by summing,
//! exactly like `GraphBuilder`. In an all-unit stream a duplicate would have
//! to merge to weight 2, contradicting the weightless encoding the first
//! pass committed to — the builder panics on that (generators never emit
//! duplicates; weighted sources are unrestricted). Self-loops are rejected.

use std::io;

use kappa_graph::{EdgeSource, EdgeWeight, NodeId};

use crate::graph::{NodeData, PushRow};
use crate::tier::{TierGraph, TierSpec};

/// Byte budget for one chunk's fill arrays. A smaller budget would mean lower
/// peak RAM but more replays of the source.
const CHUNK_BYTES: usize = 128 << 20;

/// First pass over the source: provisional degrees + weight detection.
struct Plan {
    /// Per-node half-edge counts, duplicates still counted separately.
    provisional_deg: Vec<u32>,
    /// True if every emitted weight was 1 (weights then stay implicit).
    all_unit: bool,
}

fn plan<S: EdgeSource>(src: &S) -> Plan {
    let n = src.num_nodes();
    let mut deg = vec![0u32; n];
    let mut all_unit = true;
    src.for_each_edge(|u, v, w| {
        assert_ne!(u, v, "self-loop on node {u}");
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) out of range for {n} nodes"
        );
        deg[u as usize] += 1;
        deg[v as usize] += 1;
        all_unit &= w == 1;
    });
    Plan {
        provisional_deg: deg,
        all_unit,
    }
}

/// Runs the chunked fill passes, handing each node's final merged, sorted
/// incidence list to `emit` in ascending node order.
fn for_each_node_list<S: EdgeSource>(
    src: &S,
    plan: &Plan,
    chunk_bytes: usize,
    emit: &mut PushRow<'_>,
) -> io::Result<()> {
    let n = src.num_nodes();
    let weighted = !plan.all_unit;
    // Fill-array cost of one half-edge: u32 target, plus u64 weight if kept.
    let entry_bytes = if weighted { 12 } else { 4 };
    let chunk_budget = (chunk_bytes / entry_bytes).max(1) as u64;

    let mut scratch: Vec<(NodeId, EdgeWeight)> = Vec::new();
    let mut lo = 0usize;
    while lo < n {
        // Grow the chunk until the provisional fill arrays hit the budget
        // (always at least one node so huge hubs still go through).
        let mut hi = lo;
        let mut slots = 0u64;
        while hi < n && (hi == lo || slots + plan.provisional_deg[hi] as u64 <= chunk_budget) {
            slots += plan.provisional_deg[hi] as u64;
            hi += 1;
        }
        let slots = slots as usize;

        // Local CSR offsets for the chunk, then cursor-fill from a replay.
        let mut local_off = Vec::with_capacity(hi - lo + 1);
        local_off.push(0usize);
        for v in lo..hi {
            local_off.push(local_off[v - lo] + plan.provisional_deg[v] as usize);
        }
        let mut cursor = local_off.clone();
        let mut targets = vec![0 as NodeId; slots];
        let mut weights = if weighted {
            vec![0 as EdgeWeight; slots]
        } else {
            Vec::new()
        };
        src.for_each_edge(|u, v, w| {
            let mut place = |x: NodeId, y: NodeId| {
                let xi = x as usize;
                if xi >= lo && xi < hi {
                    let c = &mut cursor[xi - lo];
                    assert!(
                        *c < local_off[xi - lo + 1],
                        "EdgeSource emitted more edges on replay than it counted"
                    );
                    targets[*c] = y;
                    if weighted {
                        weights[*c] = w;
                    }
                    *c += 1;
                }
            };
            place(u, v);
            place(v, u);
        });

        for v in lo..hi {
            let (s, e) = (local_off[v - lo], local_off[v - lo + 1]);
            assert_eq!(
                cursor[v - lo],
                e,
                "EdgeSource emitted fewer edges on replay than it counted"
            );
            scratch.clear();
            for i in s..e {
                let w = if weighted { weights[i] } else { 1 };
                scratch.push((targets[i], w));
            }
            scratch.sort_unstable_by_key(|&(t, _)| t);
            // Merge parallel edges in place by summing weights.
            let mut out = 0usize;
            for i in 0..scratch.len() {
                if out > 0 && scratch[out - 1].0 == scratch[i].0 {
                    assert!(
                        weighted,
                        "duplicate edge {{{v}, {}}} in a unit-weight stream",
                        scratch[i].0
                    );
                    scratch[out - 1].1 += scratch[i].1;
                } else {
                    scratch[out] = scratch[i];
                    out += 1;
                }
            }
            scratch.truncate(out);
            emit(&scratch)?;
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
    let p = plan(src);
    spec.build(src.num_nodes(), !p.all_unit, |push| {
        for_each_node_list(src, &p, chunk_bytes, push)?;
        Ok(node_data(src, spec.keeps_coords()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompactCsr, PageCacheConfig};
    use kappa_graph::{graph_from_edges, GraphAccess, SliceEdgeSource};

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

    fn compact_from_source(src: &SliceEdgeSource<'_>, chunk_bytes: usize) -> CompactCsr {
        match from_source_with_chunk_bytes(src, TierSpec::Compact, chunk_bytes).unwrap() {
            TierGraph::Compact(g) => g,
            TierGraph::Paged(_) => panic!("asked for the compact store"),
        }
    }

    #[test]
    fn streamed_compact_equals_builder_then_encode() {
        let e = edges();
        let src = SliceEdgeSource::new(6, &e);
        let streamed = compact_from_source(&src, CHUNK_BYTES);
        let reference = CompactCsr::from_graph(&graph_from_edges(6, e.clone()));
        assert_eq!(streamed, reference);
    }

    #[test]
    fn tiny_chunks_change_nothing() {
        let e = edges();
        let src = SliceEdgeSource::new(6, &e);
        // chunk_bytes = 1 forces one chunk per node — maximum replays.
        let chunked = compact_from_source(&src, 1);
        let whole = compact_from_source(&src, CHUNK_BYTES);
        assert_eq!(chunked, whole);
    }

    #[test]
    fn unit_stream_stays_unweighted() {
        let e: Vec<_> = vec![(0, 1, 1), (1, 2, 1), (2, 0, 1)];
        let src = SliceEdgeSource::new(3, &e);
        let c = compact_from_source(&src, CHUNK_BYTES);
        assert!(!c.is_weighted());
        assert_eq!(c.to_csr(), graph_from_edges(3, e));
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_in_unit_stream_is_rejected() {
        let e: Vec<_> = vec![(0, 1, 1), (1, 0, 1)];
        let src = SliceEdgeSource::new(2, &e);
        compact_from_source(&src, CHUNK_BYTES);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_is_rejected() {
        let e: Vec<_> = vec![(1, 1, 1)];
        let src = SliceEdgeSource::new(2, &e);
        compact_from_source(&src, CHUNK_BYTES);
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
