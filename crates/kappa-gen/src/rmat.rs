//! R-MAT graphs standing in for the social-network instances
//! (`coAuthorsDBLP`, `citationCiteseer`).
//!
//! R-MAT (recursive matrix) generators produce graphs with heavy-tailed degree
//! distributions, small diameter and essentially no geometric structure —
//! exactly the properties that make social networks the hardest family in the
//! paper's benchmark (no coordinates, so geometric pre-partitioning is
//! unavailable and matchings rely purely on the rating function).

use kappa_graph::{CsrGraph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates an R-MAT graph with `2^scale` nodes and roughly
/// `edge_factor * 2^scale` undirected edges (duplicates and self loops are
/// dropped, so the realised count is a little lower). Uses the standard
/// Graph500 quadrant probabilities (0.57, 0.19, 0.19, 0.05).
pub fn rmat_graph(scale: u32, edge_factor: usize, seed: u64) -> CsrGraph {
    assert!((2..31).contains(&scale), "scale out of range");
    let n = 1usize << scale;
    let target_edges = edge_factor * n;
    let (a, b, c) = (0.57, 0.19, 0.19);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut builder = GraphBuilder::new(n);
    builder.reserve_edges(target_edges);
    let mut added = std::collections::HashSet::with_capacity(target_edges * 2);
    for _ in 0..target_edges {
        let mut u = 0usize;
        let mut v = 0usize;
        let mut step = n >> 1;
        while step > 0 {
            let r: f64 = rng.gen();
            if r < a {
                // upper-left quadrant: nothing to add
            } else if r < a + b {
                v += step;
            } else if r < a + b + c {
                u += step;
            } else {
                u += step;
                v += step;
            }
            step >>= 1;
        }
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if added.insert(key) {
            builder.add_edge(u as NodeId, v as NodeId, 1);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_and_no_coords() {
        let g = rmat_graph(10, 8, 2);
        assert_eq!(g.num_nodes(), 1024);
        assert!(g.num_edges() > 4 * 1024);
        assert!(g.coords().is_none());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = rmat_graph(11, 8, 7);
        let max_deg = g.max_degree();
        let avg_deg = 2.0 * g.num_edges() as f64 / g.num_nodes() as f64;
        // Power-law-ish: the hub degree dwarfs the average.
        assert!(
            max_deg as f64 > 5.0 * avg_deg,
            "max degree {max_deg} vs avg {avg_deg} not heavy-tailed"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(rmat_graph(9, 6, 1), rmat_graph(9, 6, 1));
        assert_ne!(rmat_graph(9, 6, 1), rmat_graph(9, 6, 2));
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let g = rmat_graph(8, 10, 3);
        assert!(g.validate().is_ok()); // validate() checks both properties
    }
}
