//! Edge rating functions (§3.1 of the paper).
//!
//! A rating tells the matching algorithm how valuable contracting an edge is.
//! The paper's heuristic principles: contract heavy edges (they disappear from
//! the cut), avoid clusters with many outgoing edges, and prefer light nodes so
//! node weights stay uniform across the hierarchy. The plain edge weight — the
//! rating used by most earlier systems — ignores the node-weight aspect and is
//! measurably worse (Table 3, up to 8.8 %).

use kappa_graph::{EdgeWeight, GraphAccess, NodeId};

/// The edge rating functions evaluated in Table 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeRating {
    /// `ω(e)` — the classical heavy-edge rating.
    Weight,
    /// `expansion({u,v}) = ω({u,v}) / (c(u) + c(v))`.
    Expansion,
    /// `expansion*({u,v}) = ω({u,v}) / (c(u) · c(v))`.
    ExpansionStar,
    /// `expansion*2({u,v}) = ω({u,v})² / (c(u) · c(v))` — the paper's default.
    ExpansionStar2,
    /// `innerOuter({u,v}) = ω({u,v}) / (Out(v) + Out(u) − 2ω(u,v))`.
    InnerOuter,
}

impl EdgeRating {
    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            EdgeRating::Weight => "weight",
            EdgeRating::Expansion => "expansion",
            EdgeRating::ExpansionStar => "expansion*",
            EdgeRating::ExpansionStar2 => "expansion*2",
            EdgeRating::InnerOuter => "innerOuter",
        }
    }

    /// All ratings in the order of Table 3.
    pub fn all() -> [EdgeRating; 5] {
        [
            EdgeRating::ExpansionStar2,
            EdgeRating::ExpansionStar,
            EdgeRating::InnerOuter,
            EdgeRating::Expansion,
            EdgeRating::Weight,
        ]
    }

    /// The three ratings used for the Walshaw-benchmark runs (§6.3).
    pub fn walshaw_set() -> [EdgeRating; 3] {
        [
            EdgeRating::InnerOuter,
            EdgeRating::ExpansionStar,
            EdgeRating::ExpansionStar2,
        ]
    }
}

/// An undirected edge together with its rating, as consumed by the matching
/// algorithms. The edge weight `ω` is folded into the rating and not kept:
/// every matcher reads only the endpoints and the rating, and 16 bytes per
/// edge keep the rate / shuffle / sort passes over all `m` edges cheap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RatedEdge {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
    /// The rating value used for prioritisation.
    pub rating: f64,
}

/// Rates a single edge `{u, v}` of weight `w`.
///
/// `out_u` / `out_v` are the weighted degrees `Out(·)`, only used by
/// `InnerOuter` (pass 0 for the others if unavailable).
pub fn rate_edge(
    rating: EdgeRating,
    w: EdgeWeight,
    c_u: u64,
    c_v: u64,
    out_u: EdgeWeight,
    out_v: EdgeWeight,
) -> f64 {
    let w = w as f64;
    let cu = (c_u as f64).max(1.0);
    let cv = (c_v as f64).max(1.0);
    match rating {
        EdgeRating::Weight => w,
        EdgeRating::Expansion => w / (cu + cv),
        EdgeRating::ExpansionStar => w / (cu * cv),
        EdgeRating::ExpansionStar2 => w * w / (cu * cv),
        EdgeRating::InnerOuter => {
            let denom = (out_u + out_v) as f64 - 2.0 * w;
            if denom <= 0.0 {
                // The edge is the only outgoing weight of both endpoints:
                // contracting it is maximally attractive.
                f64::MAX / 4.0
            } else {
                w / denom
            }
        }
    }
}

/// Rates every undirected edge of `graph` once (`u < v`), in the order the
/// CSR form enumerates them (ascending `u`, then ascending `v`).
///
/// The rows are read in the graph's
/// [`storage_order`](GraphAccess::storage_order). Where that is not id
/// order, a first pass counts each node's edges to larger ids (and sums its
/// weighted degree for innerOuter), prefix sums place each node's edges, and
/// a second pass rates them into place — the same list, bit for bit.
pub fn rated_edges<G: GraphAccess>(graph: &G, rating: EdgeRating) -> Vec<RatedEdge> {
    let inner_outer = rating == EdgeRating::InnerOuter;
    let Some(order) = graph.storage_order() else {
        // Precompute weighted degrees once for innerOuter.
        let out: Vec<EdgeWeight> = if inner_outer {
            GraphAccess::nodes(graph)
                .map(|v| graph.weighted_degree(v))
                .collect()
        } else {
            Vec::new()
        };
        let mut edges = Vec::with_capacity(graph.num_edges());
        for u in GraphAccess::nodes(graph) {
            rate_row(graph, rating, &out, u, |e| edges.push(e));
        }
        return edges;
    };
    let n = graph.num_nodes();
    let mut start = vec![0usize; n + 1];
    let mut out: Vec<EdgeWeight> = vec![0; if inner_outer { n } else { 0 }];
    for &u in order.nodes() {
        let (mut upper, mut weighted_degree) = (0, 0);
        graph.for_each_edge(u, |v, w| {
            upper += usize::from(u < v);
            if inner_outer {
                weighted_degree += w;
            }
        });
        start[u as usize + 1] = upper;
        if inner_outer {
            out[u as usize] = weighted_degree;
        }
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let placeholder = RatedEdge {
        u: 0,
        v: 0,
        rating: 0.0,
    };
    let mut edges = vec![placeholder; start[n]];
    for &u in order.nodes() {
        let mut at = start[u as usize];
        rate_row(graph, rating, &out, u, |e| {
            edges[at] = e;
            at += 1;
        });
    }
    edges
}

/// Rates the edges of `u`'s row to larger ids, in row order; `out` holds the
/// weighted degrees where `rating` is innerOuter.
fn rate_row<G: GraphAccess>(
    graph: &G,
    rating: EdgeRating,
    out: &[EdgeWeight],
    u: NodeId,
    mut emit: impl FnMut(RatedEdge),
) {
    let cu = graph.node_weight(u);
    graph.for_each_edge(u, |v, w| {
        if u < v {
            let (ou, ov) = if rating == EdgeRating::InnerOuter {
                (out[u as usize], out[v as usize])
            } else {
                (0, 0)
            };
            emit(RatedEdge {
                u,
                v,
                rating: rate_edge(rating, w, cu, graph.node_weight(v), ou, ov),
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_graph::GraphBuilder;

    #[test]
    fn weight_rating_is_identity() {
        assert_eq!(rate_edge(EdgeRating::Weight, 7, 3, 5, 0, 0), 7.0);
    }

    #[test]
    fn expansion_family_penalises_heavy_nodes() {
        let light = rate_edge(EdgeRating::Expansion, 4, 1, 1, 0, 0);
        let heavy = rate_edge(EdgeRating::Expansion, 4, 10, 10, 0, 0);
        assert!(light > heavy);

        let star_light = rate_edge(EdgeRating::ExpansionStar, 4, 1, 1, 0, 0);
        let star_heavy = rate_edge(EdgeRating::ExpansionStar, 4, 10, 10, 0, 0);
        assert!(star_light > star_heavy);
        // expansion* penalises products, so it drops faster than expansion.
        assert!(star_heavy / star_light < heavy / light);
    }

    #[test]
    fn expansion_star2_rewards_heavy_edges_quadratically() {
        let w2 = rate_edge(EdgeRating::ExpansionStar2, 2, 1, 1, 0, 0);
        let w4 = rate_edge(EdgeRating::ExpansionStar2, 4, 1, 1, 0, 0);
        assert_eq!(w4 / w2, 4.0);
    }

    #[test]
    fn inner_outer_prefers_isolated_pairs() {
        // Edge is all the weight its endpoints have -> "infinite" attraction.
        let isolated = rate_edge(EdgeRating::InnerOuter, 3, 1, 1, 3, 3);
        assert!(isolated > 1e100);
        // Endpoints with lots of other weight -> small rating.
        let busy = rate_edge(EdgeRating::InnerOuter, 3, 1, 1, 30, 30);
        assert!((busy - 3.0 / 54.0).abs() < 1e-12);
    }

    #[test]
    fn rated_edges_covers_every_edge_once() {
        let mut b = GraphBuilder::with_node_weights(vec![1, 2, 3]);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 2);
        let g = b.build();
        let edges = rated_edges(&g, EdgeRating::ExpansionStar2);
        assert_eq!(edges.len(), 2);
        let e01 = edges.iter().find(|e| e.u == 0 && e.v == 1).unwrap();
        assert!((e01.rating - 25.0 / 2.0).abs() < 1e-12);
        let e12 = edges.iter().find(|e| e.u == 1 && e.v == 2).unwrap();
        assert!((e12.rating - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn inner_outer_uses_weighted_degrees() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 4);
        b.add_edge(1, 2, 2);
        let g = b.build();
        let edges = rated_edges(&g, EdgeRating::InnerOuter);
        let e01 = edges.iter().find(|e| e.u == 0 && e.v == 1).unwrap();
        // Out(0) = 4, Out(1) = 6, denom = 4 + 6 - 8 = 2 -> rating 2.
        assert!((e01.rating - 2.0).abs() < 1e-12);
    }

    #[test]
    fn every_rating_is_finite_and_not_below_positive_zero() {
        // `sort_by_rating_desc` orders by `f64::total_cmp`, which is the
        // numeric order exactly on this range (it puts -0.0 below +0.0 and
        // NaN above everything).
        let big = u64::MAX / 4;
        for rating in EdgeRating::all() {
            for w in [0, 1, u32::MAX as u64, big] {
                for c_u in [0, 1, u64::MAX] {
                    for c_v in [0, 1, u64::MAX] {
                        for (out_u, out_v) in [(w, w), (w, w + 1), (big + 1, big + 1)] {
                            let r = rate_edge(rating, w, c_u, c_v, out_u, out_v);
                            assert!(
                                r.is_finite() && r.total_cmp(&0.0).is_ge(),
                                "{} rates ({w}, {c_u}, {c_v}, {out_u}, {out_v}) as {r}",
                                rating.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// A CSR graph that claims to store its rows in `order`.
    struct LaidOut<'a>(&'a kappa_graph::CsrGraph, kappa_graph::NodeOrder);

    impl GraphAccess for LaidOut<'_> {
        fn num_nodes(&self) -> usize {
            self.0.num_nodes()
        }
        fn num_half_edges(&self) -> usize {
            self.0.num_half_edges()
        }
        fn total_node_weight(&self) -> u64 {
            self.0.total_node_weight()
        }
        fn max_node_weight(&self) -> u64 {
            self.0.max_node_weight()
        }
        fn degree(&self, v: NodeId) -> usize {
            self.0.degree(v)
        }
        fn node_weight(&self, v: NodeId) -> u64 {
            self.0.node_weight(v)
        }
        fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
            self.0.edges_of(v)
        }
        fn storage_order(&self) -> Option<&kappa_graph::NodeOrder> {
            Some(&self.1)
        }
    }

    #[test]
    fn rows_in_storage_order_rate_the_same_list() {
        // A weighted 5-node graph with a hub, rows stored backwards.
        let mut b = GraphBuilder::with_node_weights(vec![3, 1, 4, 1, 5]);
        for (u, v, w) in [
            (0, 1, 2),
            (0, 2, 7),
            (0, 4, 1),
            (1, 2, 3),
            (2, 3, 9),
            (3, 4, 4),
        ] {
            b.add_edge(u, v, w);
        }
        let g = b.build();
        let order = kappa_graph::NodeOrder::new(vec![4, 3, 2, 1, 0])
            .unwrap()
            .unwrap();
        let laid = LaidOut(&g, order);
        for rating in EdgeRating::all() {
            assert_eq!(
                rated_edges(&laid, rating),
                rated_edges(&g, rating),
                "{}",
                rating.name()
            );
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EdgeRating::ExpansionStar2.name(), "expansion*2");
        assert_eq!(EdgeRating::all().len(), 5);
        assert_eq!(EdgeRating::walshaw_set().len(), 3);
    }
}
