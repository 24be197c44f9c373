//! Contraction of a matching (§2 of the paper).
//!
//! Contracting an edge `{u, v}` replaces `u` and `v` by a new node `x` with
//! `c(x) = c(u) + c(v)`; parallel edges created this way are merged by summing
//! their weights. Contracting a whole matching does this for every matched pair
//! simultaneously, which at most halves the number of nodes per level.
//!
//! Every coarse row is built by one routine, [`RowMerger::merged_row`],
//! shared with [`contract_to_tier`](crate::contract_to_tier) and with the
//! distributed contraction, which runs it on a rank's shard: it walks the fine
//! rows of the coarse node's fine nodes and sums parallel edges on the fly
//! through a slot array indexed by coarse id (one `u32` per coarse node of
//! the merger's own id range, reset at the row's own entries), then hands the
//! shorter row to [`merge_row`], the workspace's one row rule, which sorts it
//! and sums the parallel edges into ids outside that range.
//!
//! The paper runs contraction per PE; [`contract_matching`] mirrors that by
//! partitioning the coarse-node id space into contiguous per-worker ranges,
//! pushing each range's rows into a [`CsrRows`] of its own, reserved once at
//! the range's fine degree sum (plus node weights and coordinates),
//! independently, with a row merger whose slots cover the
//! worker's own range — `coarse_n` slots in all, at any thread count. The
//! first range's arrays become the coarse graph, the others are joined onto
//! them in range order with [`CsrRows::append`], and the sealed arrays are
//! trimmed to exact size. The result is the same for every thread count —
//! and bit-identical to the test-only sequential `contract_matching_reference`
//! below — because each coarse node's adjacency is derived only from its own
//! fine nodes.

use kappa_graph::{
    merge_row, CsrGraph, CsrRows, EdgeWeight, GraphAccess, NodeId, NodeWeight, INVALID_NODE,
};
use kappa_matching::Matching;
use rayon::prelude::*;

/// The result of contracting a matching: the coarse graph, on whatever
/// storage `G` the contraction wrote it to, plus the mapping from fine nodes
/// to coarse nodes. One of these is one level of a
/// [`MultilevelHierarchy`](crate::MultilevelHierarchy).
#[derive(Clone, Debug)]
pub struct Contraction<G = CsrGraph> {
    /// The contracted (coarse) graph.
    pub coarse_graph: G,
    /// `coarse_of[v]` is the coarse node that fine node `v` was merged into.
    pub coarse_of: Vec<NodeId>,
}

/// The fine representatives `(v, partner-or-INVALID)` of one coarse node,
/// `v` being the smaller fine id.
pub type Reps = (NodeId, NodeId);

/// Assigns coarse ids in ascending order of each coarse node's smallest fine
/// node — matched pairs share one id, everything else keeps its own — and
/// records every coarse node's fine representatives. Sequential, `O(n)`; the
/// one definition of the fine → coarse numbering for every contraction.
pub(crate) fn assign_coarse_ids<G: GraphAccess>(
    graph: &G,
    matching: &Matching,
) -> (Vec<NodeId>, Vec<Reps>) {
    let n = graph.num_nodes();
    debug_assert_eq!(matching.num_nodes(), n);
    let mut coarse_of = vec![NodeId::MAX; n];
    let mut reps: Vec<Reps> = Vec::with_capacity(n);
    for v in graph.nodes() {
        if coarse_of[v as usize] != NodeId::MAX {
            continue;
        }
        let next_id = reps.len() as NodeId;
        coarse_of[v as usize] = next_id;
        match matching.partner_of(v) {
            Some(p) if p > v => {
                coarse_of[p as usize] = next_id;
                reps.push((v, p));
            }
            Some(_) => unreachable!("partner < v must already have been assigned"),
            None => reps.push((v, INVALID_NODE)),
        }
    }
    (coarse_of, reps)
}

/// Marks a coarse id that is not (yet) in the row [`RowMerger`] collects.
const NOT_IN_ROW: u32 = u32::MAX;

/// The reusable scratch of [`RowMerger::merged_row`]: one slot per coarse
/// node of the merger's own id range and one row buffer. Each contraction
/// worker owns one, over the range of coarse nodes it builds, so the slots
/// of all workers together number `coarse_n` whatever the thread count; in
/// the distributed contraction each rank owns one over its coarse ids.
pub struct RowMerger {
    /// The first coarse id with a slot.
    first: NodeId,
    /// `slot[c - first]`: the position of coarse target `c` in `row` while
    /// the row under construction holds it, [`NOT_IN_ROW`] otherwise.
    slot: Vec<u32>,
    row: Vec<(NodeId, EdgeWeight)>,
}

impl RowMerger {
    /// Scratch for rows whose targets `first..first + len` are summed on
    /// the fly.
    pub fn new(first: NodeId, len: usize) -> Self {
        RowMerger {
            first,
            slot: vec![NOT_IN_ROW; len],
            row: Vec::new(),
        }
    }

    /// The adjacency of the coarse node merging `u` and `p`: the union of
    /// the fine lists mapped through `coarse_of`, self loops dropped.
    ///
    /// Parallel edges into the merger's range are summed while the entries
    /// are collected — the slot of a target seen before points at its
    /// entry — so the row holds each such target once, in first-seen order;
    /// targets outside the range are collected as they come. That shorter
    /// row is brought into form by [`merge_row`], the one row rule, which
    /// sums whatever is left. The slots the row set are reset afterwards,
    /// so the cost is the row's, not the range's. Sums commute, so the row
    /// is the same whatever the range.
    pub fn merged_row<G: GraphAccess>(
        &mut self,
        graph: &G,
        coarse_of: &[NodeId],
        (u, p): Reps,
    ) -> &[(NodeId, EdgeWeight)] {
        let c = coarse_of[u as usize];
        let RowMerger { first, slot, row } = self;
        let slot_of = |ct: NodeId| ct.wrapping_sub(*first) as usize;
        row.clear();
        let mut collect = |v: NodeId| {
            graph.for_each_edge(v, |t, w| {
                let ct = coarse_of[t as usize];
                if ct == c {
                    return;
                }
                match slot.get_mut(slot_of(ct)) {
                    Some(at) if *at != NOT_IN_ROW => row[*at as usize].1 += w,
                    Some(at) => {
                        *at = row.len() as u32;
                        row.push((ct, w));
                    }
                    None => row.push((ct, w)),
                }
            })
        };
        collect(u);
        if p != INVALID_NODE {
            collect(p);
        }
        for &(ct, _) in row.iter() {
            if let Some(at) = slot.get_mut(slot_of(ct)) {
                *at = NOT_IN_ROW;
            }
        }
        let len = merge_row(row);
        &row[..len]
    }
}

/// Weight and (where `coords` are kept) position of the coarse node merging
/// `u` and `p`. Coordinates are summed in ascending fine-node order, then
/// divided — the float operation order of the sequential reference, so they
/// are bit-identical on every path.
pub(crate) fn merged_node<G: GraphAccess>(
    graph: &G,
    coords: Option<&[[f64; 2]]>,
    (u, p): Reps,
) -> (NodeWeight, Option<[f64; 2]>) {
    if p == INVALID_NODE {
        return (graph.node_weight(u), coords.map(|all| all[u as usize]));
    }
    let mean = coords.map(|all| {
        let (cu, cp) = (all[u as usize], all[p as usize]);
        [(cu[0] + cp[0]) / 2.0, (cu[1] + cp[1]) / 2.0]
    });
    (graph.node_weight(u) + graph.node_weight(p), mean)
}

/// One worker's share of the coarse graph, a contiguous coarse-id range: its
/// rows, node weights and (where the fine graph has them) coordinates.
type Fragment = (CsrRows, Vec<NodeWeight>, Option<Vec<[f64; 2]>>);

/// Contracts every edge of `matching` in `graph`, in parallel over the coarse
/// node ids.
///
/// Unmatched nodes survive as singleton coarse nodes. Coordinates (if present)
/// are averaged over the merged fine nodes so geometric pre-partitioning keeps
/// working on coarser levels.
///
/// The coarse graph is identical — bit for bit, including coordinate floats —
/// for any worker count.
///
/// ```
/// use kappa_coarsen::contract_matching;
/// use kappa_graph::graph_from_edges;
/// use kappa_matching::Matching;
///
/// // Path 0-1-2-3; contract the matched pairs {0,1} and {2,3}.
/// let g = graph_from_edges(4, vec![(0, 1, 1), (1, 2, 5), (2, 3, 1)]);
/// let mut m = Matching::new(4);
/// m.try_match(0, 1);
/// m.try_match(2, 3);
/// let c = contract_matching(&g, &m);
/// assert_eq!(c.coarse_graph.num_nodes(), 2);
/// assert_eq!(c.coarse_graph.edge_weight_between(0, 1), Some(5));
/// assert_eq!(c.coarse_graph.total_node_weight(), 4);
/// ```
pub fn contract_matching(graph: &CsrGraph, matching: &Matching) -> Contraction {
    // Phase 1 (sequential, O(n)): coarse ids and fine representatives.
    let (coarse_of, reps) = assign_coarse_ids(graph, matching);
    let coarse_n = reps.len();

    // Phase 2 (parallel): one contiguous coarse-id range per worker; each
    // builds its fragment of the coarse graph independently.
    let threads = rayon::current_num_threads().max(1);
    let chunk = coarse_n.div_ceil(threads).max(1);
    let fragments: Vec<Fragment> = reps
        .par_chunks(chunk)
        .map(|range| build_fragment(graph, &coarse_of, range))
        .collect();

    // Phase 3: the first fragment becomes the coarse graph, grown once to
    // the exact total; the others are appended to it in coarse-id order, and
    // the edge arrays are trimmed to their length — so a single fragment is
    // sealed without a copy.
    let mut fragments = fragments.into_iter();
    let (mut rows, mut vwgt, mut coords) = fragments
        .next()
        .unwrap_or_else(|| build_fragment(graph, &coarse_of, &[]));
    let rest_half_edges = fragments.as_slice().iter().map(|f| f.0.num_half_edges());
    rows.reserve_exact(coarse_n - rows.num_rows(), rest_half_edges.sum());
    vwgt.reserve_exact(coarse_n - vwgt.len());
    if let Some(coords) = &mut coords {
        coords.reserve_exact(coarse_n - coords.len());
    }
    for (fragment_rows, fragment_vwgt, fragment_coords) in fragments {
        rows.append(fragment_rows);
        vwgt.extend(fragment_vwgt);
        if let (Some(all), Some(frag)) = (&mut coords, fragment_coords) {
            all.extend(frag);
        }
    }
    rows.shrink_to_fit();
    Contraction {
        coarse_graph: rows.finish(vwgt, coords),
        coarse_of,
    }
}

/// Builds the fragment of one contiguous coarse-id range: for every coarse
/// node, its [merged row](RowMerger::merged_row), its node weight and its
/// averaged coordinates. Its edge arrays are reserved once at the range's
/// fine degree sum, which bounds the coarse rows, so they never grow.
fn build_fragment(graph: &CsrGraph, coarse_of: &[NodeId], range: &[Reps]) -> Fragment {
    let coords = graph.coords();
    let fine = range
        .iter()
        .flat_map(|&(u, p)| [u, p])
        .filter(|&v| v != INVALID_NODE);
    let mut rows = CsrGraph::rows(range.len(), fine.map(|v| graph.degree(v)).sum());
    let mut vwgt = Vec::with_capacity(range.len());
    let mut fragment_coords = coords.map(|_| Vec::with_capacity(range.len()));
    let first = range.first().map_or(0, |&(u, _)| coarse_of[u as usize]);
    let mut merger = RowMerger::new(first, range.len());
    for &reps in range {
        rows.push_node(merger.merged_row(graph, coarse_of, reps).iter().copied());
        let (weight, coord) = merged_node(graph, coords, reps);
        vwgt.push(weight);
        if let (Some(out), Some(coord)) = (&mut fragment_coords, coord) {
            out.push(coord);
        }
    }
    (rows, vwgt, fragment_coords)
}

#[cfg(test)]
use kappa_graph::GraphBuilder;

#[cfg(test)]
/// The sequential reference contraction: one global [`GraphBuilder`] fed every
/// surviving fine edge. The ground truth the parallel [`contract_matching`]
/// is checked against, for every thread count.
pub(crate) fn contract_matching_reference(graph: &CsrGraph, matching: &Matching) -> Contraction {
    let (coarse_of, reps) = assign_coarse_ids(graph, matching);
    let coarse_n = reps.len();

    // Coarse node weights and (optional) averaged coordinates.
    let mut weights = vec![0u64; coarse_n];
    for v in graph.nodes() {
        weights[coarse_of[v as usize] as usize] += graph.node_weight(v);
    }
    let coords = graph.coords().map(|coords| {
        let mut sums = vec![[0.0f64; 2]; coarse_n];
        let mut counts = vec![0usize; coarse_n];
        for v in graph.nodes() {
            let c = coords[v as usize];
            let cv = coarse_of[v as usize] as usize;
            sums[cv][0] += c[0];
            sums[cv][1] += c[1];
            counts[cv] += 1;
        }
        sums.iter()
            .zip(&counts)
            .map(|(s, &c)| [s[0] / c as f64, s[1] / c as f64])
            .collect::<Vec<_>>()
    });

    // Coarse edges: every fine edge whose endpoints land in different coarse
    // nodes survives; the GraphBuilder merges the resulting parallel edges.
    let mut builder = GraphBuilder::with_node_weights(weights);
    builder.reserve_edges(graph.num_edges());
    for (u, v, w) in graph.undirected_edges() {
        let (cu, cv) = (coarse_of[u as usize], coarse_of[v as usize]);
        if cu != cv {
            builder.add_edge(cu, cv, w);
        }
    }
    if let Some(c) = coords {
        builder.set_coords(c);
    }

    Contraction {
        coarse_graph: builder.build(),
        coarse_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary_graph::arbitrary_graph;
    use kappa_graph::graph_from_edges;
    use kappa_graph::Partition;
    use kappa_matching::{compute_matching, EdgeRating, MatchingAlgorithm};
    use proptest::prelude::*;
    use rayon::ThreadPoolBuilder;

    const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

    #[test]
    fn contracting_a_single_edge() {
        // Path 0-1-2; match {0,1}.
        let g = graph_from_edges(3, vec![(0, 1, 2), (1, 2, 3)]);
        let mut m = Matching::new(3);
        m.try_match(0, 1);
        let c = contract_matching(&g, &m);
        assert_eq!(c.coarse_graph.num_nodes(), 2);
        assert_eq!(c.coarse_graph.num_edges(), 1);
        assert_eq!(c.coarse_graph.total_node_weight(), 3);
        // The surviving edge keeps weight 3.
        assert_eq!(c.coarse_graph.total_edge_weight(), 3);
        assert_eq!(c.coarse_of[0], c.coarse_of[1]);
        assert_ne!(c.coarse_of[0], c.coarse_of[2]);
    }

    #[test]
    fn a_graph_of_total_weight_u32_max_contracts_to_one_node() {
        // An 8-cycle whose total edge weight and total node weight are
        // exactly u32::MAX, nearly all of it on the two edges that survive
        // to the 2-node level and on one node. Pairing neighbours halves it
        // three times; every level's stored weights fit, the two surviving
        // edges merge into one of weight u32::MAX − 6, and the last node
        // weighs u32::MAX.
        let max = kappa_graph::MAX_TOTAL_WEIGHT;
        let heavy = |v: u32| match v {
            3 => 1 << 31,
            7 => max - (1 << 31) - 6,
            _ => 1,
        };
        let mut b = GraphBuilder::with_node_weights(
            (0..8).map(|v| if v == 0 { max - 7 } else { 1 }).collect(),
        );
        for v in 0..8u32 {
            b.add_edge(v, (v + 1) % 8, heavy(v));
        }
        let mut g = b.build();
        assert_eq!((g.total_edge_weight(), g.total_node_weight()), (max, max));
        while g.num_nodes() > 1 {
            let mut m = Matching::new(g.num_nodes());
            for v in (0..g.num_nodes() as NodeId).step_by(2) {
                m.try_match(v, v + 1);
            }
            let c = contract_matching(&g, &m);
            assert_eq!(
                c.coarse_graph,
                contract_matching_reference(&g, &m).coarse_graph
            );
            if c.coarse_graph.num_nodes() == 2 {
                assert_eq!(c.coarse_graph.edge_weight_between(0, 1), Some(max - 6));
            }
            g = c.coarse_graph;
        }
        assert_eq!(g.node_weight(0), max);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn parallel_edges_are_merged() {
        // Square 0-1-2-3-0; match {0,1} and {2,3}: the two cut edges {1,2} and
        // {3,0} become parallel and must merge into one edge of weight 2.
        let g = graph_from_edges(4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]);
        let mut m = Matching::new(4);
        m.try_match(0, 1);
        m.try_match(2, 3);
        let c = contract_matching(&g, &m);
        assert_eq!(c.coarse_graph.num_nodes(), 2);
        assert_eq!(c.coarse_graph.num_edges(), 1);
        assert_eq!(c.coarse_graph.edge_weight_between(0, 1), Some(2));
    }

    #[test]
    fn merged_rows_do_not_depend_on_the_merger_range() {
        // Path 0-…-5 plus chords; pairs {0,1}, {2,3}, {4,5}. Coarse node 0
        // reaches coarse node 1 through three fine edges, which a merger
        // sums on the fly when 1 is in its range and `merge_row` otherwise.
        let g = graph_from_edges(
            6,
            vec![
                (0, 1, 1),
                (1, 2, 2),
                (2, 3, 1),
                (3, 4, 3),
                (4, 5, 1),
                (0, 3, 4),
                (1, 3, 5),
                (1, 4, 6),
                (2, 5, 7),
            ],
        );
        let mut m = Matching::new(6);
        m.try_match(0, 1);
        m.try_match(2, 3);
        m.try_match(4, 5);
        let (coarse_of, reps) = assign_coarse_ids(&g, &m);
        let expected: [&[(NodeId, EdgeWeight)]; 3] =
            [&[(1, 11), (2, 6)], &[(0, 11), (2, 10)], &[(0, 6), (1, 10)]];
        for (first, len) in [(0, 3), (0, 0), (1, 1), (2, 1), (1, 2)] {
            let mut merger = RowMerger::new(first, len);
            for (c, &r) in reps.iter().enumerate() {
                let row = merger.merged_row(&g, &coarse_of, r);
                assert_eq!(row, expected[c], "range {first}+{len}, node {c}");
            }
        }
    }

    #[test]
    fn node_weight_is_conserved() {
        let g = kappa_gen::grid::grid2d(8, 8);
        let m = kappa_matching::gpa_matching(&g, kappa_matching::EdgeRating::ExpansionStar2, 1);
        let c = contract_matching(&g, &m);
        assert_eq!(c.coarse_graph.total_node_weight(), g.total_node_weight());
        assert!(c.coarse_graph.validate().is_ok());
        assert_eq!(c.coarse_graph.num_nodes(), g.num_nodes() - m.cardinality());
    }

    #[test]
    fn cut_is_preserved_under_projection() {
        // Any partition of the coarse graph, projected to the fine graph, has
        // the same cut value — the fundamental multilevel invariant.
        let g = kappa_gen::grid::grid2d(10, 6);
        let m = kappa_matching::gpa_matching(&g, kappa_matching::EdgeRating::Weight, 3);
        let c = contract_matching(&g, &m);
        let coarse_n = c.coarse_graph.num_nodes();
        let coarse_part =
            Partition::from_assignment(2, (0..coarse_n).map(|i| (i % 2) as u32).collect());
        let fine_part = coarse_part.project(&c.coarse_of);
        assert_eq!(
            coarse_part.edge_cut(&c.coarse_graph),
            fine_part.edge_cut(&g)
        );
    }

    #[test]
    fn empty_matching_is_an_isomorphic_copy() {
        let g = graph_from_edges(4, vec![(0, 1, 1), (1, 2, 5), (2, 3, 2)]);
        let m = Matching::new(4);
        let c = contract_matching(&g, &m);
        assert_eq!(c.coarse_graph.num_nodes(), 4);
        assert_eq!(c.coarse_graph.num_edges(), 3);
        assert_eq!(c.coarse_graph.total_edge_weight(), 8);
    }

    #[test]
    fn coordinates_are_averaged() {
        let mut g = graph_from_edges(2, vec![(0, 1, 1)]);
        g.set_coords(Some(vec![[0.0, 0.0], [2.0, 4.0]]));
        let mut m = Matching::new(2);
        m.try_match(0, 1);
        let c = contract_matching(&g, &m);
        assert_eq!(c.coarse_graph.coord(0), Some([1.0, 2.0]));
    }

    #[test]
    fn isolated_nodes_survive() {
        let g = graph_from_edges(3, vec![(0, 1, 1)]);
        let mut m = Matching::new(3);
        m.try_match(0, 1);
        let c = contract_matching(&g, &m);
        assert_eq!(c.coarse_graph.num_nodes(), 2);
        assert_eq!(c.coarse_graph.degree(c.coarse_of[2]), 0);
    }

    #[test]
    fn parallel_contraction_matches_reference_for_every_thread_count() {
        let g = kappa_gen::rgg::random_geometric_graph(1500, 11);
        let m = kappa_matching::gpa_matching(&g, kappa_matching::EdgeRating::ExpansionStar2, 5);
        let reference = contract_matching_reference(&g, &m);
        for threads in [1usize, 2, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let parallel = pool.install(|| contract_matching(&g, &m));
            assert_eq!(parallel.coarse_of, reference.coarse_of, "threads {threads}");
            assert_eq!(
                parallel.coarse_graph, reference.coarse_graph,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn empty_graph_contracts_to_empty() {
        let g = CsrGraph::empty();
        let m = Matching::new(0);
        let c = contract_matching(&g, &m);
        assert_eq!(c.coarse_graph.num_nodes(), 0);
        assert!(c.coarse_of.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_contraction_is_bit_identical_to_sequential(
        graph in arbitrary_graph(300),
        seed in any::<u64>(),
    ) {
        let matching = compute_matching(
            &graph,
            MatchingAlgorithm::Gpa,
            EdgeRating::ExpansionStar2,
            seed,
        );
        let reference = contract_matching_reference(&graph, &matching);
        for threads in THREAD_COUNTS {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let parallel = pool.install(|| contract_matching(&graph, &matching));
            prop_assert_eq!(&parallel.coarse_of, &reference.coarse_of, "threads {}", threads);
            prop_assert_eq!(
                &parallel.coarse_graph,
                &reference.coarse_graph,
                "threads {}",
                threads
            );
        }
    }
    }
}
