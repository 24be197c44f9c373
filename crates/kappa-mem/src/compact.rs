//! `CompactCsr` — the in-RAM store of the [`SegmentGraph`].
//!
//! Same adjacency structure as [`CsrGraph`] (sorted neighbour lists, merged
//! parallel edges, every undirected edge stored twice), but the edge arrays
//! are replaced by one byte arena of delta-varint segments
//! ([`segment`](crate::segment)). Unit node weights are elided entirely. On
//! the paper's geometric instances this cuts the resident edge footprint by
//! roughly 4–6× versus the `usize`/`u64` CSR arrays; EXPERIMENTS.md (PR 10)
//! records the traversal cost of decoding.

use std::io;

use kappa_graph::{CsrGraph, EdgeWeight, NodeId};

use crate::graph::{csr_rows, is_weighted, Index, SegmentGraph, SegmentWriter, Store};
use crate::segment::{encode_segment, SegmentIter};

/// A frozen graph whose segments sit concatenated in one RAM arena.
pub type CompactCsr = SegmentGraph<Arena>;

/// Incremental builder of a [`CompactCsr`]; its pushes cannot fail.
pub type CompactWriter = SegmentWriter<Arena>;

/// The RAM store: segments are borrowed straight out of the arena, degrees
/// are read off the segment head, coordinates are kept (this tier is in RAM
/// anyway). It is its own sink — sealing only trims the arena.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Arena {
    bytes: Vec<u8>,
    coords: Option<Vec<[f64; 2]>>,
}

impl Store for Arena {
    type Sink = Arena;

    fn push(sink: &mut Arena, edges: &[(NodeId, EdgeWeight)], weighted: bool) -> io::Result<usize> {
        let start = sink.bytes.len();
        encode_segment(&mut sink.bytes, edges, weighted);
        Ok(sink.bytes.len() - start)
    }

    fn seal(mut sink: Arena, _index: &Index, coords: Option<Vec<[f64; 2]>>) -> io::Result<Arena> {
        sink.bytes.shrink_to_fit();
        sink.coords = coords;
        Ok(sink)
    }

    #[inline]
    fn with_segment<R>(&self, lo: u64, hi: u64, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.bytes[lo as usize..hi as usize])
    }

    #[inline]
    fn segment_edges(
        &self,
        lo: u64,
        hi: u64,
        weighted: bool,
    ) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        SegmentIter::new(&self.bytes[lo as usize..hi as usize], weighted)
    }

    #[inline]
    fn coords(&self) -> Option<&[[f64; 2]]> {
        self.coords.as_deref()
    }
}

impl SegmentWriter<Arena> {
    /// A writer expecting roughly `nodes_hint` nodes.
    pub fn new(nodes_hint: usize, weighted: bool) -> Self {
        SegmentWriter::over(Arena::default(), nodes_hint, weighted)
    }
}

impl SegmentGraph<Arena> {
    /// Re-encodes a plain CSR graph compactly. The result decodes to the
    /// exact same adjacency ([`to_csr`](SegmentGraph::to_csr) round-trips).
    pub fn from_graph(graph: &CsrGraph) -> Self {
        let weighted = is_weighted(graph);
        CompactWriter::new(graph.num_nodes(), weighted)
            .fill(None, |order, push| {
                csr_rows(graph, order, weighted, true, push)
            })
            .expect("arena writes cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TierSpec;

    crate::graph::conformance::store_conformance!(|_| TierSpec::Compact);

    #[test]
    fn compact_is_smaller_than_plain_csr() {
        let g = kappa_gen::rgg::random_geometric_graph(4096, 9);
        let c = CompactCsr::from_graph(&g);
        let csr_bytes = (g.num_nodes() + 1) * 8  // xadj
            + g.num_half_edges() * (4 + 8)       // adjncy + adjwgt
            + g.num_nodes() * 8; // vwgt

        // Coordinates cost the same in both and rgg node weights are unit
        // (elided), so the compact side is its arena plus offsets.
        let compact_bytes = c.store.bytes.len() + c.index.offsets.len() * 8;
        assert!(
            compact_bytes * 2 < csr_bytes,
            "compact {compact_bytes} B not < half of CSR {csr_bytes} B"
        );
        assert_eq!(c.to_csr(), g);
    }
}
