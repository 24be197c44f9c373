//! Random geometric graphs (the `rggX` instances of Table 1).
//!
//! `rggX` is a graph with `2^X` nodes placed uniformly at random in the unit
//! square; two nodes are connected when their Euclidean distance is below
//! `0.55 * sqrt(ln n / n)`, a threshold chosen by the paper so that the graph
//! is almost connected. Neighbour search uses a uniform grid with cells of the
//! connection radius, so generation is `O(n + m)` in expectation.
//!
//! The family is written once, as the streaming [`RggSource`]: the in-RAM
//! [`random_geometric_graph`] is one replay of it into `GraphBuilder`, so the
//! tiered pipeline's bit-identity guarantee holds by construction.

use kappa_graph::{CsrGraph, EdgeSource, EdgeWeight, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stream::build;

/// The paper's connection radius for `n` nodes: `0.55 * sqrt(ln n / n)`.
pub fn rgg_radius(n: usize) -> f64 {
    0.55 * ((n as f64).ln() / n as f64).sqrt()
}

/// Streaming random geometric graph: the points plus the uniform cell grid
/// used for neighbour search. Holds `O(n)` memory (16 B per point, ~8 B per
/// node of bucket index) and replays the edge set on demand — never the
/// `O(m)` edge list.
pub struct RggSource {
    points: Vec<[f64; 2]>,
    /// CSR-style buckets: nodes of cell `c` are
    /// `cell_nodes[cell_start[c]..cell_start[c + 1]]`, in increasing id order.
    cell_start: Vec<u32>,
    cell_nodes: Vec<NodeId>,
    cells_per_side: usize,
    r2: f64,
}

impl RggSource {
    /// The paper's `rggX` instance with `n` nodes (radius
    /// `0.55 * sqrt(ln n / n)`).
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_radius(n, rgg_radius(n), seed)
    }

    /// Explicit connection radius.
    pub fn with_radius(n: usize, radius: f64, seed: u64) -> Self {
        assert!(n >= 2, "need at least two nodes");
        assert!(radius > 0.0 && radius < 1.0, "radius must be in (0, 1)");
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<[f64; 2]> = (0..n)
            .map(|_| [rng.gen::<f64>(), rng.gen::<f64>()])
            .collect();

        let cells_per_side = ((1.0 / radius).floor() as usize).max(1);
        let num_cells = cells_per_side * cells_per_side;
        let cell_of = |p: [f64; 2]| -> usize {
            let cx = ((p[0] * cells_per_side as f64) as usize).min(cells_per_side - 1);
            let cy = ((p[1] * cells_per_side as f64) as usize).min(cells_per_side - 1);
            cy * cells_per_side + cx
        };
        let mut cell_start = vec![0u32; num_cells + 1];
        for &p in &points {
            cell_start[cell_of(p) + 1] += 1;
        }
        for c in 0..num_cells {
            cell_start[c + 1] += cell_start[c];
        }
        let mut cursor: Vec<u32> = cell_start[..num_cells].to_vec();
        let mut cell_nodes = vec![0 as NodeId; n];
        for (i, &p) in points.iter().enumerate() {
            let c = cell_of(p);
            cell_nodes[cursor[c] as usize] = i as NodeId;
            cursor[c] += 1;
        }

        RggSource {
            points,
            cell_start,
            cell_nodes,
            cells_per_side,
            r2: radius * radius,
        }
    }

    fn cell(&self, cx: usize, cy: usize) -> &[NodeId] {
        let c = cy * self.cells_per_side + cx;
        let lo = self.cell_start[c] as usize;
        let hi = self.cell_start[c + 1] as usize;
        &self.cell_nodes[lo..hi]
    }
}

impl EdgeSource for RggSource {
    fn num_nodes(&self) -> usize {
        self.points.len()
    }

    /// Emits every edge once with `u < v`, scanning the 3x3 cell
    /// neighbourhood of every node.
    fn for_each_edge<F: FnMut(NodeId, NodeId, EdgeWeight)>(&self, mut f: F) {
        let side = self.cells_per_side;
        for u in 0..self.points.len() {
            let pu = self.points[u];
            let cx = ((pu[0] * side as f64) as usize).min(side - 1);
            let cy = ((pu[1] * side as f64) as usize).min(side - 1);
            let x_lo = cx.saturating_sub(1);
            let y_lo = cy.saturating_sub(1);
            let x_hi = (cx + 1).min(side - 1);
            let y_hi = (cy + 1).min(side - 1);
            for gy in y_lo..=y_hi {
                for gx in x_lo..=x_hi {
                    for &v in self.cell(gx, gy) {
                        let v = v as usize;
                        if v <= u {
                            continue;
                        }
                        let pv = self.points[v];
                        let dx = pu[0] - pv[0];
                        let dy = pu[1] - pv[1];
                        if dx * dx + dy * dy <= self.r2 {
                            f(u as NodeId, v as NodeId, 1);
                        }
                    }
                }
            }
        }
    }

    fn coords(&self) -> Option<Vec<[f64; 2]>> {
        Some(self.points.clone())
    }
}

/// Generates the paper's random geometric graph family with `n` nodes.
pub fn random_geometric_graph(n: usize, seed: u64) -> CsrGraph {
    build(&RggSource::new(n, seed))
}

/// Random geometric graph with an explicit connection radius.
pub fn random_geometric_graph_with_radius(n: usize, radius: f64, seed: u64) -> CsrGraph {
    build(&RggSource::with_radius(n, radius, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_deterministic_per_seed() {
        let a = random_geometric_graph(512, 7);
        let b = random_geometric_graph(512, 7);
        assert_eq!(a, b);
        let c = random_geometric_graph(512, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn has_expected_size_and_coords() {
        let g = random_geometric_graph(1024, 1);
        assert_eq!(g.num_nodes(), 1024);
        assert!(g.num_edges() > 1024, "rgg should be denser than a tree");
        assert!(g.coords().is_some());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn is_almost_connected() {
        // The paper chooses the radius so the graph is "almost connected": the
        // giant component should dominate.
        let g = random_geometric_graph(2048, 3);
        assert!(g.num_components() < 20);
    }

    #[test]
    fn explicit_radius_controls_density() {
        let sparse = random_geometric_graph_with_radius(512, 0.02, 5);
        let dense = random_geometric_graph_with_radius(512, 0.10, 5);
        assert!(dense.num_edges() > sparse.num_edges());
    }

    #[test]
    fn edges_respect_radius() {
        let g = random_geometric_graph_with_radius(256, 0.08, 11);
        let coords = g.coords().unwrap();
        for (u, v, _) in g.undirected_edges() {
            let a = coords[u as usize];
            let b = coords[v as usize];
            let d2 = (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2);
            assert!(d2 <= 0.08f64 * 0.08 + 1e-12);
        }
    }

    #[test]
    fn layout_replays_the_same_edge_set() {
        let src = RggSource::with_radius(700, 0.06, 4);
        let mut a = Vec::new();
        src.for_each_edge(|u, v, w| a.push((u, v, w)));
        let mut b = Vec::new();
        src.for_each_edge(|u, v, w| b.push((u, v, w)));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
