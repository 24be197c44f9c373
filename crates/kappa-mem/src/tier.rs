//! [`TierGraph`] — one graph, either store — and [`TierSpec`], the one place
//! a store is chosen.
//!
//! The tiered multilevel pipeline works on whatever level a graph currently
//! occupies: the finest levels of a table-5-class instance sit on disk
//! ([`PagedGraph`]), the levels below in compact RAM ([`CompactCsr`]), and
//! the coarsest level is decoded to a plain [`CsrGraph`] for the initial
//! partitioner. `TierGraph` erases the difference behind the same
//! [`GraphAccess`] surface, so hierarchy and refinement code is written
//! once. Both arms decode to the identical sorted adjacency, which is what
//! keeps cross-tier runs bit-identical (`tests/parity.rs`).

use std::io;
use std::path::Path;

use kappa_graph::{
    locality_order, CsrGraph, EdgeWeight, GraphAccess, NodeId, NodeOrder, NodeWeight,
};

use crate::compact::{CompactCsr, CompactWriter};
use crate::graph::{csr_rows, is_weighted, NodeData, PushRow};
use crate::paged::{PageCacheConfig, PagedGraph, PagedWriter};

/// A frozen segment-encoded graph on one of the two stores.
pub enum TierGraph {
    /// Delta-varint arena in RAM at a fraction of the CSR footprint.
    Compact(CompactCsr),
    /// Edge segments on disk behind a fixed-budget page cache.
    Paged(PagedGraph),
}

/// Which store a graph is to be built on.
#[derive(Clone, Copy, Debug)]
pub enum TierSpec<'a> {
    /// Delta-varint arena in RAM.
    Compact,
    /// Paged file at the given path.
    Paged {
        /// File to create (truncated if present).
        path: &'a Path,
        /// Page-cache geometry of the opened graph.
        cache: PageCacheConfig,
    },
}

impl TierSpec<'_> {
    /// Whether a graph built on this store keeps planar coordinates (the
    /// paged store drops them, so producers need not compute any).
    pub fn keeps_coords(&self) -> bool {
        matches!(self, TierSpec::Compact)
    }

    /// Whether a graph built on this store should keep its rows in a
    /// locality order: only the paged store reads rows through pages.
    pub(crate) fn wants_locality(&self) -> bool {
        matches!(self, TierSpec::Paged { .. })
    }

    /// Builds a graph on this store from the rows `rows` pushes — every
    /// node's final incidence list (sorted, merged), in `order` (`None`:
    /// ascending node order), which `rows` is handed — and the node data it
    /// returns. `weighted` says whether any edge weight differs from 1. This
    /// is the one spec → writer → [`TierGraph`] path:
    /// [`TierGraph::from_graph`], [`TierGraph::from_source`] and tiered
    /// contraction all come through here.
    pub fn build(
        self,
        nodes_hint: usize,
        weighted: bool,
        order: Option<NodeOrder>,
        rows: impl FnOnce(Option<&NodeOrder>, &mut PushRow<'_>) -> io::Result<NodeData>,
    ) -> io::Result<TierGraph> {
        Ok(match self {
            TierSpec::Compact => {
                TierGraph::Compact(CompactWriter::new(nodes_hint, weighted).fill(order, rows)?)
            }
            TierSpec::Paged { path, cache } => TierGraph::Paged(
                PagedWriter::create(path, nodes_hint, weighted, cache)?.fill(order, rows)?,
            ),
        })
    }
}

/// Runs `$body` with `$g` bound to whichever graph `$tier` holds.
macro_rules! on_tier {
    ($tier:expr, $g:ident => $body:expr) => {
        match $tier {
            TierGraph::Compact($g) => $body,
            TierGraph::Paged($g) => $body,
        }
    };
}

impl TierGraph {
    /// Re-encodes a plain CSR graph onto the store `spec` names — the route
    /// for inputs without a streaming source; the CSR exists meanwhile. The
    /// paged store keeps a scattered graph's rows in its
    /// [`locality_order`].
    pub fn from_graph(graph: &CsrGraph, spec: TierSpec<'_>) -> io::Result<TierGraph> {
        let weighted = is_weighted(graph);
        let order = spec
            .wants_locality()
            .then(|| locality_order(graph))
            .flatten();
        spec.build(graph.num_nodes(), weighted, order, |order, push| {
            csr_rows(graph, order, weighted, spec.keeps_coords(), push)
        })
    }

    /// Short name for logs and experiment tables.
    pub fn tier_name(&self) -> &'static str {
        match self {
            TierGraph::Compact(_) => "compact",
            TierGraph::Paged(_) => "paged",
        }
    }

    /// Decodes to plain CSR. Meant for the coarsest level only — on a fine
    /// paged level this would defeat the tier.
    pub fn to_csr(&self) -> CsrGraph {
        on_tier!(self, g => g.to_csr())
    }

    /// Marks a paged graph's backing file for removal when the graph drops
    /// (spill files in temp directories); a compact graph has none.
    pub fn set_delete_on_drop(&mut self, delete: bool) {
        if let TierGraph::Paged(g) = self {
            g.set_delete_on_drop(delete);
        }
    }
}

impl GraphAccess for TierGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        on_tier!(self, g => g.num_nodes())
    }

    #[inline]
    fn num_half_edges(&self) -> usize {
        on_tier!(self, g => g.num_half_edges())
    }

    #[inline]
    fn total_node_weight(&self) -> NodeWeight {
        on_tier!(self, g => g.total_node_weight())
    }

    #[inline]
    fn max_node_weight(&self) -> NodeWeight {
        on_tier!(self, g => g.max_node_weight())
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        on_tier!(self, g => g.degree(v))
    }

    #[inline]
    fn node_weight(&self, v: NodeId) -> NodeWeight {
        on_tier!(self, g => g.node_weight(v))
    }

    #[inline]
    fn for_each_edge<F: FnMut(NodeId, EdgeWeight)>(&self, v: NodeId, f: F) {
        on_tier!(self, g => g.for_each_edge(v, f))
    }

    fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        // The two arms return different iterator types; box to unify.
        on_tier!(self, g => Box::new(g.edges_of(v)) as Box<dyn Iterator<Item = _> + '_>)
    }

    #[inline]
    fn coords(&self) -> Option<&[[f64; 2]]> {
        on_tier!(self, g => g.coords())
    }

    #[inline]
    fn storage_order(&self) -> Option<&NodeOrder> {
        on_tier!(self, g => g.storage_order())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_graph::graph_from_edges;

    #[test]
    fn all_tiers_expose_the_same_graph() {
        let g = graph_from_edges(
            5,
            vec![(0, 1, 2), (1, 2, 1), (2, 3, 5), (3, 4, 1), (0, 4, 3)],
        );
        let path = crate::graph::conformance::tmp("tier");
        let mut paged = PagedGraph::from_graph(&g, &path, PageCacheConfig::default()).unwrap();
        paged.set_delete_on_drop(true);
        let tiers = [
            TierGraph::Compact(CompactCsr::from_graph(&g)),
            TierGraph::Paged(paged),
        ];
        for t in &tiers {
            assert_eq!(
                GraphAccess::num_nodes(t),
                g.num_nodes(),
                "{}",
                t.tier_name()
            );
            assert_eq!(t.num_half_edges(), g.num_half_edges());
            assert_eq!(t.total_node_weight(), g.total_node_weight());
            for v in g.nodes() {
                let want: Vec<_> = g.edges_of(v).collect();
                let got: Vec<_> = GraphAccess::edges_of(t, v).collect();
                assert_eq!(want, got, "{} node {v}", t.tier_name());
            }
            // Neither arm carries coordinates here: the source has none.
            assert_eq!(t.to_csr(), g, "{}", t.tier_name());
        }
        assert_eq!(tiers[0].tier_name(), "compact");
        assert_eq!(tiers[1].tier_name(), "paged");
    }
}
