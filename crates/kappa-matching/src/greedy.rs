//! The Greedy matching algorithm (§3.2).
//!
//! Edges are sorted by descending rating and scanned; an edge is matched when
//! both endpoints are still free. This guarantees a matching of at least half
//! the maximum weight (w.r.t. the rating used for sorting).

use kappa_graph::GraphAccess;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::matching::Matching;
use crate::rating::{rated_edges, EdgeRating, RatedEdge};

/// Computes a Greedy matching of `graph` under `rating`.
///
/// Ties in the rating are broken randomly (seeded) so repeated runs explore
/// different matchings, as the multilevel algorithm expects.
pub fn greedy_matching<G: GraphAccess>(graph: &G, rating: EdgeRating, seed: u64) -> Matching {
    let mut edges = rated_edges(graph, rating);
    let mut rng = StdRng::seed_from_u64(seed);
    edges.shuffle(&mut rng);
    sort_by_rating_desc(&mut edges);
    greedy_on_edges(graph.num_nodes(), &edges)
}

/// Greedy matching over an explicit pre-sorted (descending) edge list.
pub fn greedy_on_edges(num_nodes: usize, edges_sorted_desc: &[RatedEdge]) -> Matching {
    let mut matching = Matching::new(num_nodes);
    for e in edges_sorted_desc {
        matching.try_match(e.u, e.v);
    }
    matching
}

/// Stable sort by descending rating (callers shuffle first for random
/// tie-breaking).
///
/// Ordered by [`f64::total_cmp`], a total order on every float; on the
/// values [`rate_edge`](crate::rate_edge) produces — finite and at least
/// `+0.0` — it is the numeric order.
pub fn sort_by_rating_desc(edges: &mut [RatedEdge]) {
    edges.sort_by(|a, b| b.rating.total_cmp(&a.rating));
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_graph::GraphBuilder;

    #[test]
    fn picks_heavy_edges_first() {
        // Path 0-1-2-3 with weights 1, 10, 1: greedy takes the middle edge only
        // under the weight rating.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 10);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let m = greedy_matching(&g, EdgeRating::Weight, 0);
        assert_eq!(m.cardinality(), 1);
        assert_eq!(m.partner_of(1), Some(2));
        assert!(m.validate(Some(&g)).is_ok());
    }

    #[test]
    fn half_approximation_on_path() {
        // Path of 5 edges with equal weight: optimum matches 3 edges (weight 3),
        // greedy gets at least 2.
        let mut b = GraphBuilder::new(6);
        for i in 0..5u32 {
            b.add_edge(i, i + 1, 1);
        }
        let g = b.build();
        let m = greedy_matching(&g, EdgeRating::Weight, 1);
        assert!(m.total_weight(&g) >= 2);
        assert!(m.validate(Some(&g)).is_ok());
    }

    #[test]
    fn covers_most_nodes_on_large_cycle() {
        let mut b = GraphBuilder::new(100);
        for i in 0..100u32 {
            b.add_edge(i, (i + 1) % 100, 1);
        }
        let g = b.build();
        let m = greedy_matching(&g, EdgeRating::ExpansionStar2, 7);
        // Greedy on a cycle of even length leaves only few nodes unmatched.
        assert!(m.cardinality() >= 34, "cardinality {}", m.cardinality());
        assert!(m.validate(Some(&g)).is_ok());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = kappa_graph::builder::graph_from_edges(
            6,
            vec![
                (0, 1, 2),
                (1, 2, 2),
                (2, 3, 2),
                (3, 4, 2),
                (4, 5, 2),
                (5, 0, 2),
            ],
        );
        assert_eq!(
            greedy_matching(&g, EdgeRating::Weight, 5).edges(),
            greedy_matching(&g, EdgeRating::Weight, 5).edges()
        );
    }

    #[test]
    fn empty_graph_yields_empty_matching() {
        let g = CsrGraph::empty();
        let m = greedy_matching(&g, EdgeRating::Weight, 0);
        assert_eq!(m.cardinality(), 0);
    }

    use kappa_graph::CsrGraph;
}
