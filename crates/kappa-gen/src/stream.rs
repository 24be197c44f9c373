//! Streaming generator sources for the memory-tiered pipeline.
//!
//! The generator families the out-of-core experiments stream —
//! [`RggSource`](crate::rgg::RggSource) and
//! [`Grid2dSource`](crate::grid::Grid2dSource) — implement [`EdgeSource`],
//! so table-5-class instances can be encoded straight into compact or paged
//! storage without ever holding the `O(m)` edge list: a source keeps only
//! `O(n)` state (points, cell buckets) and replays the scan on each pass.
//!
//! Each of these families is written once, as its source: the in-RAM
//! generator ([`random_geometric_graph`](crate::rgg::random_geometric_graph),
//! [`grid2d`](crate::grid::grid2d)) is one replay of it into
//! [`GraphBuilder`] ([`build`]), so the streamed and the in-RAM graph are
//! the same edge set by construction.

use kappa_graph::{CsrGraph, EdgeSource, GraphBuilder};

/// Replays `src` once into a [`GraphBuilder`], with its coordinates.
pub(crate) fn build<S: EdgeSource>(src: &S) -> CsrGraph {
    let mut b = GraphBuilder::new(src.num_nodes());
    src.for_each_edge(|u, v, w| b.add_edge(u, v, w));
    if let Some(coords) = src.coords() {
        b.set_coords(coords.into_owned());
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use crate::RggSource;
    use kappa_graph::EdgeSource;

    #[test]
    fn sources_replay_identically() {
        let src = RggSource::new(512, 3);
        let mut a = Vec::new();
        src.for_each_edge(|u, v, w| a.push((u, v, w)));
        let mut b = Vec::new();
        src.for_each_edge(|u, v, w| b.push((u, v, w)));
        assert_eq!(a, b);
    }
}
