//! The one segment-encoded graph: [`SegmentGraph`], generic over a [`Store`].
//!
//! Everything a delta-varint graph *is* lives here exactly once — the `n + 1`
//! offset table, the row layout, the `weighted` flag, unit-elided node
//! weights, the cached totals, the writer that builds them row by row,
//! `from_graph`'s row loop, `to_csr`, and the only [`GraphAccess`] impl.
//!
//! The rows may be stored in an order other than id order — a
//! [`NodeOrder`], chosen by the writer's caller and kept in the index — so
//! that rows read together sit on the same pages. Node ids are not touched:
//! the offset table is indexed by storage position and read through the
//! order's inverse, while node weights (and a store's resident degrees) stay
//! indexed by id. A store
//! contributes only where keeping the segment bytes in a RAM arena and
//! keeping them in a file behind a page cache really differ, and that list is
//! the whole [`Store`] trait: how a row is appended and the graph sealed, how
//! the bytes of a row are reached, whether its edges can be borrowed, whether
//! degrees are resident, whether coordinates are kept.
//!
//! The graph is generic over the store rather than "always a file, sometimes
//! in RAM" so that the arena keeps handing out borrowed segments: compact
//! levels sit under every matching, contraction and FM pass of a tiered run,
//! and a copy per row read there is what the paged store pays on purpose.

use std::io;

use kappa_graph::{CsrGraph, EdgeWeight, GraphAccess, NodeId, NodeOrder, NodeWeight};

use crate::segment::{decode_degree, decode_segment};

/// What a row producer hands back beside its rows: node weights (`None` ⇒
/// all 1) and planar coordinates.
pub type NodeData = (Option<Vec<NodeWeight>>, Option<Vec<[f64; 2]>>);

/// Where a row producer puts each node's final incidence list (sorted by
/// target, parallel edges merged), in the writer's storage order.
pub type PushRow<'a> = dyn FnMut(&[(NodeId, EdgeWeight)]) -> io::Result<()> + 'a;

/// Everything about a segment-encoded graph except the edge bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct Index {
    /// `offsets[p]..offsets[p + 1]` is the byte segment of the row stored
    /// at position `p`. Length `n + 1`.
    pub(crate) offsets: Vec<u64>,
    /// The node stored at each position; `None` ⇒ id order.
    pub(crate) order: Option<NodeOrder>,
    /// Whether segments carry explicit edge weights (`false` ⇒ all weight 1).
    pub(crate) weighted: bool,
    /// Node weights by id; `None` ⇒ all weight 1.
    pub(crate) vwgt: Option<Vec<NodeWeight>>,
    pub(crate) num_half_edges: usize,
    pub(crate) total_node_weight: NodeWeight,
    pub(crate) max_node_weight: NodeWeight,
}

/// `(c(V), max c(v))` of `n` nodes weighted `vwgt` (`None` ⇒ unit), or
/// `None` if the total does not fit a `NodeWeight`.
pub(crate) fn weight_totals(
    vwgt: Option<&[NodeWeight]>,
    n: usize,
) -> Option<(NodeWeight, NodeWeight)> {
    match vwgt {
        Some(c) => {
            let total = c
                .iter()
                .try_fold(0, |sum: NodeWeight, &w| sum.checked_add(w))?;
            Some((total, c.iter().copied().max().unwrap_or(0)))
        }
        None => Some((n as NodeWeight, NodeWeight::from(n > 0))),
    }
}

/// What a byte store contributes to a [`SegmentGraph`] — every place where
/// the RAM arena and the paged file really differ, and nothing else.
pub trait Store: Sized {
    /// The store while it is being written.
    type Sink;

    /// Appends the segment of one row; returns its encoded length in bytes.
    fn push(
        sink: &mut Self::Sink,
        edges: &[(NodeId, EdgeWeight)],
        weighted: bool,
    ) -> io::Result<usize>;

    /// Seals the store under its finished `index`. A store that does not
    /// keep coordinates drops them here; one that keeps degrees resident
    /// turns the pushed ones from storage order into id order.
    fn seal(sink: Self::Sink, index: &Index, coords: Option<Vec<[f64; 2]>>) -> io::Result<Self>;

    /// Runs `f` on the segment bytes `[lo, hi)`.
    fn with_segment<R>(&self, lo: u64, hi: u64, f: impl FnOnce(&[u8]) -> R) -> R;

    /// The edges encoded in `[lo, hi)`: decoded lazily off a borrowed
    /// segment where the bytes stay put, eagerly where they can be evicted.
    fn segment_edges(
        &self,
        lo: u64,
        hi: u64,
        weighted: bool,
    ) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_;

    /// The degree of `v` if the store keeps degrees resident; `None` sends
    /// the graph to the head of `v`'s segment.
    fn resident_degree(&self, _v: NodeId) -> Option<usize> {
        None
    }

    /// Coordinates, where the store keeps them.
    fn coords(&self) -> Option<&[[f64; 2]]> {
        None
    }
}

/// A frozen graph stored as one delta-varint segment per node
/// ([`segment`](crate::segment)) in the byte store `S`:
/// [`CompactCsr`](crate::CompactCsr) over a RAM arena,
/// [`PagedGraph`](crate::PagedGraph) over a file behind a page cache.
#[derive(Clone, Debug, PartialEq)]
pub struct SegmentGraph<S> {
    pub(crate) index: Index,
    pub(crate) store: S,
}

impl<S: Store> SegmentGraph<S> {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.index.offsets.len() - 1
    }

    /// Whether segments store explicit edge weights.
    pub fn is_weighted(&self) -> bool {
        self.index.weighted
    }

    /// Decodes into plain CSR arrays. Meant for the coarsest level, where
    /// the graph is small and the initial partitioner wants slices — on a
    /// fine level this would defeat the tier.
    pub fn to_csr(&self) -> CsrGraph {
        let n = self.num_nodes();
        let mut rows = CsrGraph::rows(n, self.index.num_half_edges);
        for v in 0..n as NodeId {
            rows.push_node(self.edges_of(v));
        }
        let vwgt = self.index.vwgt.clone().unwrap_or_else(|| vec![1; n]);
        rows.finish(vwgt, self.store.coords().map(<[_]>::to_vec))
    }

    #[inline]
    fn range(&self, v: NodeId) -> (u64, u64) {
        let p = match &self.index.order {
            Some(order) => order.position(v),
            None => v as usize,
        };
        (self.index.offsets[p], self.index.offsets[p + 1])
    }
}

impl<S: Store> GraphAccess for SegmentGraph<S> {
    #[inline]
    fn num_nodes(&self) -> usize {
        SegmentGraph::num_nodes(self)
    }

    #[inline]
    fn num_half_edges(&self) -> usize {
        self.index.num_half_edges
    }

    #[inline]
    fn total_node_weight(&self) -> NodeWeight {
        self.index.total_node_weight
    }

    #[inline]
    fn max_node_weight(&self) -> NodeWeight {
        self.index.max_node_weight
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        self.store.resident_degree(v).unwrap_or_else(|| {
            let (lo, hi) = self.range(v);
            self.store.with_segment(lo, hi, decode_degree)
        })
    }

    #[inline]
    fn node_weight(&self, v: NodeId) -> NodeWeight {
        match &self.index.vwgt {
            Some(c) => c[v as usize],
            None => 1,
        }
    }

    #[inline]
    fn for_each_edge<F: FnMut(NodeId, EdgeWeight)>(&self, v: NodeId, f: F) {
        let (lo, hi) = self.range(v);
        let weighted = self.index.weighted;
        self.store
            .with_segment(lo, hi, |bytes| decode_segment(bytes, weighted, f));
    }

    #[inline]
    fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        let (lo, hi) = self.range(v);
        self.store.segment_edges(lo, hi, self.index.weighted)
    }

    #[inline]
    fn coords(&self) -> Option<&[[f64; 2]]> {
        self.store.coords()
    }

    #[inline]
    fn storage_order(&self) -> Option<&NodeOrder> {
        self.index.order.as_ref()
    }
}

/// Incremental builder of a [`SegmentGraph`]: nodes are pushed in the
/// writer's storage order (id order unless it was given a [`NodeOrder`])
/// with their final merged, sorted incidence lists; only the Θ(n) offset
/// table is held here, the segments go where the store puts them.
pub struct SegmentWriter<S: Store> {
    sink: S::Sink,
    offsets: Vec<u64>,
    order: Option<NodeOrder>,
    weighted: bool,
    num_half_edges: usize,
}

impl<S: Store> SegmentWriter<S> {
    /// A writer into `sink` expecting roughly `nodes_hint` nodes.
    pub(crate) fn over(sink: S::Sink, nodes_hint: usize, weighted: bool) -> Self {
        let mut offsets = Vec::with_capacity(nodes_hint + 1);
        offsets.push(0);
        SegmentWriter {
            sink,
            offsets,
            order: None,
            weighted,
            num_half_edges: 0,
        }
    }

    /// Appends the next node's incidence list (sorted, merged): rows pushed
    /// here are stored in id order.
    pub fn push_node(&mut self, edges: &[(NodeId, EdgeWeight)]) -> io::Result<()> {
        let len = S::push(&mut self.sink, edges, self.weighted)?;
        let end = self.offsets[self.offsets.len() - 1] + len as u64;
        self.offsets.push(end);
        self.num_half_edges += edges.len();
        Ok(())
    }

    /// Seals the graph. `vwgt == None` means unit node weights; `coords`
    /// survive only on a store that keeps them.
    ///
    /// # Panics
    /// Panics if a provided `vwgt`/`coords` length or the storage order's
    /// disagrees with the number of pushed nodes.
    pub fn finish(
        self,
        vwgt: Option<Vec<NodeWeight>>,
        coords: Option<Vec<[f64; 2]>>,
    ) -> io::Result<SegmentGraph<S>> {
        let n = self.offsets.len() - 1;
        if let Some(c) = &vwgt {
            assert_eq!(c.len(), n, "vwgt length mismatch");
        }
        if let Some(c) = &coords {
            assert_eq!(c.len(), n, "coords length mismatch");
        }
        if let Some(o) = &self.order {
            assert_eq!(o.nodes().len(), n, "storage order length mismatch");
        }
        let (total_node_weight, max_node_weight) =
            weight_totals(vwgt.as_deref(), n).expect("total node weight overflows");
        let index = Index {
            offsets: self.offsets,
            order: self.order,
            weighted: self.weighted,
            vwgt,
            num_half_edges: self.num_half_edges,
            total_node_weight,
            max_node_weight,
        };
        let store = S::seal(self.sink, &index, coords)?;
        Ok(SegmentGraph { index, store })
    }

    /// Stores the rows in `order` (`None`: id order): `rows` is handed the
    /// order and pushes the row of each node at its position, in turn; the
    /// graph is sealed with the node data it returns, indexed by id. The one
    /// rows → graph path behind `from_graph`, the streaming builder and
    /// tiered contraction.
    pub(crate) fn fill(
        mut self,
        order: Option<NodeOrder>,
        rows: impl FnOnce(Option<&NodeOrder>, &mut PushRow<'_>) -> io::Result<NodeData>,
    ) -> io::Result<SegmentGraph<S>> {
        let (vwgt, coords) = rows(order.as_ref(), &mut |edges| self.push_node(edges))?;
        self.order = order;
        self.finish(vwgt, coords)
    }
}

/// Whether `graph` needs explicit edge weights in its segments.
pub(crate) fn is_weighted(graph: &CsrGraph) -> bool {
    !graph.has_unit_edge_weights()
}

/// Replays a plain CSR graph as rows in `order` (`None`: id order): the
/// body of every `from_graph`. A unit-weight graph's rows are read without
/// their weights. All-unit node weights are elided; coordinates are copied
/// only for a store that keeps them.
pub(crate) fn csr_rows(
    graph: &CsrGraph,
    order: Option<&NodeOrder>,
    weighted: bool,
    keep_coords: bool,
    push: &mut PushRow<'_>,
) -> io::Result<NodeData> {
    let mut row: Vec<(NodeId, EdgeWeight)> = Vec::new();
    for p in 0..graph.num_nodes() {
        let v = order.map_or(p as NodeId, |o| o.nodes()[p]);
        row.clear();
        if weighted {
            row.extend(graph.edges_of(v));
        } else {
            row.extend(graph.neighbors(v).iter().map(|&u| (u, 1)));
        }
        push(&row)?;
    }
    let vwgt = (!graph.has_unit_node_weights())
        .then(|| graph.nodes().map(|v| graph.node_weight(v)).collect());
    let coords = graph.coords().filter(|_| keep_coords);
    Ok((vwgt, coords.map(<[_]>::to_vec)))
}

/// The store-generic conformance suite: every case takes the [`TierSpec`] of
/// the store under test, and `store_conformance!` turns the list into one
/// `#[test]` per case inside `compact::tests` and `paged::tests`.
#[cfg(test)]
pub(crate) mod conformance {
    use std::path::PathBuf;

    use kappa_graph::{
        graph_from_edges, CsrGraph, EdgeWeight, GraphAccess, GraphBuilder, NodeId, NodeOrder,
        SliceEdgeSource,
    };
    use proptest::prelude::*;

    use super::csr_rows;
    use crate::build::from_source_with_chunk_bytes;
    use crate::{TierGraph, TierSpec};

    /// A scratch file unique to this process and `case`.
    pub(crate) fn tmp(case: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kappa-mem-test-{}-{case}.kpg", std::process::id()));
        p
    }

    /// One `#[test]` per conformance case, each on the store `$spec` (a
    /// `fn(&Path) -> TierSpec`) names, with a scratch file of its own.
    macro_rules! store_conformance {
        ($spec:expr) => {
            crate::graph::conformance::store_conformance!(
                $spec;
                round_trip_preserves_everything,
                unit_graph_elides_weights,
                empty_graph,
                isolated_nodes_have_empty_rows,
                weighted_coarse_graph_round_trips,
                hub_segment_spans_several_pages,
                from_graph_from_source_and_builder_agree,
                explicit_layout_reads_by_id,
            );
        };
        ($spec:expr; $($case:ident),+ $(,)?) => {$(
            #[test]
            fn $case() {
                let path = crate::graph::conformance::tmp(concat!(
                    module_path!(), "-", stringify!($case)
                ));
                crate::graph::conformance::$case(($spec)(&path));
                let _ = std::fs::remove_file(&path);
            }
        )+};
    }
    pub(crate) use store_conformance;

    /// `g` on the store under test, checked against `g` through every read
    /// path: totals, degrees, node weights, both edge walks, `to_csr`.
    fn assert_same_graph(spec: TierSpec<'_>, g: &CsrGraph) -> TierGraph {
        let t = TierGraph::from_graph(g, spec).unwrap();
        assert_eq!(GraphAccess::num_nodes(&t), g.num_nodes());
        assert_eq!(t.num_half_edges(), g.num_half_edges());
        assert_eq!(t.total_node_weight(), g.total_node_weight());
        assert_eq!(t.max_node_weight(), g.max_node_weight());
        for v in g.nodes() {
            let want: Vec<_> = g.edges_of(v).collect();
            let lazy: Vec<_> = GraphAccess::edges_of(&t, v).collect();
            assert_eq!(lazy, want, "edges_of node {v}");
            let mut pushed = Vec::new();
            t.for_each_edge(v, |u, w| pushed.push((u, w)));
            assert_eq!(pushed, want, "for_each_edge node {v}");
            assert_eq!(t.degree(v), g.degree(v), "degree of node {v}");
            assert_eq!(t.node_weight(v), g.node_weight(v), "weight of node {v}");
        }
        let mut want = g.clone();
        if !spec.keeps_coords() {
            want.set_coords(None);
        }
        assert_eq!(GraphAccess::coords(&t), want.coords());
        assert_eq!(t.to_csr(), want);
        t
    }

    fn is_weighted(t: &TierGraph) -> bool {
        match t {
            TierGraph::Compact(g) => g.is_weighted(),
            TierGraph::Paged(g) => g.is_weighted(),
        }
    }

    pub(crate) fn round_trip_preserves_everything(spec: TierSpec<'_>) {
        let mut b = GraphBuilder::with_node_weights(vec![2, 1, 5, 1, 1, 3]);
        for (u, v, w) in [
            (0, 1, 3),
            (0, 5, 1),
            (1, 2, 7),
            (2, 3, 1),
            (3, 4, 2),
            (4, 5, 9),
            (1, 4, 1),
        ] {
            b.add_edge(u, v, w);
        }
        b.set_coords((0..6).map(|i| [i as f64, 0.5 * i as f64]).collect());
        assert!(is_weighted(&assert_same_graph(spec, &b.build())));
    }

    pub(crate) fn unit_graph_elides_weights(spec: TierSpec<'_>) {
        let g = graph_from_edges(4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let t = assert_same_graph(spec, &g);
        assert!(!is_weighted(&t));
        assert_eq!(t.max_node_weight(), 1);
        if let TierGraph::Compact(c) = &t {
            // 4 nodes, 6 half-edges: segments are 1 byte degree + ~1 byte/edge.
            let arena_bytes = c.index.offsets[c.num_nodes()];
            assert!(arena_bytes < 64, "arena unexpectedly large");
        }
    }

    pub(crate) fn empty_graph(spec: TierSpec<'_>) {
        let t = assert_same_graph(spec, &CsrGraph::empty());
        assert_eq!(GraphAccess::num_nodes(&t), 0);
        assert_eq!(t.num_half_edges(), 0);
        assert_eq!(t.total_node_weight(), 0);
        assert_eq!(t.max_node_weight(), 0);
    }

    pub(crate) fn isolated_nodes_have_empty_rows(spec: TierSpec<'_>) {
        // Nodes 0, 3 and 6 (the last) have no edges at all.
        let g = graph_from_edges(7, vec![(1, 2, 4), (4, 5, 1), (2, 5, 2)]);
        let t = assert_same_graph(spec, &g);
        for v in [0, 3, 6] {
            assert_eq!(t.degree(v), 0);
            assert_eq!(GraphAccess::edges_of(&t, v).count(), 0);
        }
    }

    pub(crate) fn weighted_coarse_graph_round_trips(spec: TierSpec<'_>) {
        // What contraction produces: summed node weights, merged edge
        // weights far beyond one varint byte (five bytes for 2^31), with
        // both totals inside the 32-bit domain of a `CsrGraph`.
        let mut b = GraphBuilder::with_node_weights(vec![1 << 31, 3, 700, 1]);
        for (u, v, w) in [(0, 1, 1 << 31), (1, 2, 300), (2, 3, 1 << 30), (0, 3, 128)] {
            b.add_edge(u, v, w);
        }
        let t = assert_same_graph(spec, &b.build());
        assert_eq!(t.max_node_weight(), 1 << 31);
    }

    pub(crate) fn hub_segment_spans_several_pages(spec: TierSpec<'_>) {
        // A weighted star: the hub's segment is > 4 KiB, eight 512-byte pages.
        let leaves: NodeId = 1500;
        let edges: Vec<_> = (1..=leaves).map(|v| (0, v, 1000 + u64::from(v))).collect();
        let t = assert_same_graph(spec, &graph_from_edges(leaves as usize + 1, edges));
        assert_eq!(t.degree(0), leaves as usize);
        let last: Vec<_> = GraphAccess::edges_of(&t, leaves).collect();
        assert_eq!(last, [(0, 1000 + u64::from(leaves))]);
    }

    pub(crate) fn explicit_layout_reads_by_id(spec: TierSpec<'_>) {
        // Degrees 1, 3, 2, 1, 2, 1 and node weights 1..=6: a store that
        // indexed degrees or weights by position would give other answers.
        let mut b = GraphBuilder::with_node_weights(vec![1, 2, 3, 4, 5, 6]);
        for (u, v, w) in [(0, 1, 4), (1, 2, 1), (1, 4, 7), (2, 5, 2), (3, 4, 300)] {
            b.add_edge(u, v, w);
        }
        let g = b.build();
        let order = NodeOrder::new(vec![4, 1, 5, 0, 3, 2]).unwrap();
        let t = spec
            .build(g.num_nodes(), true, order.clone(), |order, push| {
                csr_rows(&g, order, true, spec.keeps_coords(), push)
            })
            .unwrap();
        assert_eq!(t.storage_order(), order.as_ref());
        for v in g.nodes() {
            assert_eq!(t.degree(v), g.degree(v), "degree of node {v}");
            assert_eq!(t.node_weight(v), g.node_weight(v), "weight of node {v}");
            let want: Vec<_> = g.edges_of(v).collect();
            assert_eq!(GraphAccess::edges_of(&t, v).collect::<Vec<_>>(), want);
            let mut pushed = Vec::new();
            t.for_each_edge(v, |u, w| pushed.push((u, w)));
            assert_eq!(pushed, want, "for_each_edge node {v}");
        }
        let stored: Vec<_> = t.stored_nodes().collect();
        assert_eq!(stored, [4, 1, 5, 0, 3, 2]);
        assert_eq!(t.to_csr(), g);
    }

    /// Random edge lists with repeats (merged by summing) and, half the
    /// time, unit weights only.
    fn arbitrary_edges() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId, EdgeWeight)>)> {
        (2usize..120, any::<u64>(), any::<bool>()).prop_map(|(n, mut x, unit)| {
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut edges = Vec::new();
            for _ in 0..2 * n {
                let (u, v) = ((next() % n as u64) as NodeId, (next() % n as u64) as NodeId);
                let repeat = edges
                    .iter()
                    .any(|&(a, b, _)| (a, b) == (u, v) || (a, b) == (v, u));
                if u != v && !(unit && repeat) {
                    edges.push((u, v, if unit { 1 } else { 1 + next() % 300 }));
                }
            }
            (n, edges)
        })
    }

    pub(crate) fn from_graph_from_source_and_builder_agree(spec: TierSpec<'_>) {
        for case in 0..48 {
            let mut rng = TestRng::for_case("kappa-mem::conformance::builders", case);
            let (n, edges) = arbitrary_edges().generate(&mut rng);
            let built = graph_from_edges(n, edges.clone());
            let encoded = assert_same_graph(spec, &built).to_csr();
            let src = SliceEdgeSource::new(n, &edges);
            // One chunk, then a budget small enough for a chunk per few nodes.
            for chunk_bytes in [1 << 20, 64] {
                let streamed = from_source_with_chunk_bytes(&src, spec, chunk_bytes).unwrap();
                assert_eq!(is_weighted(&streamed), edges.iter().any(|e| e.2 != 1));
                assert_eq!(
                    streamed.to_csr(),
                    encoded,
                    "case {case}, chunk {chunk_bytes}"
                );
            }
            assert_eq!(encoded, built, "case {case}");
        }
    }
}
