//! Road-network-like graphs (the `bel`, `nld`, `deu`, `eur` instances).
//!
//! Road networks are near-planar, have very low average degree (≈ 2.4), strong
//! geometric locality, and large-scale inhomogeneity (cities vs. countryside,
//! rivers and borders that act as natural separators). We emulate this with a
//! sparsified jittered grid: start from a 2-D grid, delete a large fraction of
//! edges at random, carve a few long "rivers" (rows/columns whose crossings are
//! mostly removed), and keep the largest connected component. Edge weights are
//! unit, node positions are carried as coordinates.
//!
//! The paper's observation that Metis-style partitioners struggle to find the
//! natural separators of `eur` while KaPPa's pairwise FM does not is exactly
//! the behaviour this family is designed to reproduce.

use kappa_graph::{CsrGraph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a road-network-like graph with roughly `n` nodes.
///
/// `n` is rounded to a `w x h` grid with aspect ratio 2:1 (road networks are
/// wide, not square). The result is the largest connected component of the
/// sparsified grid, so the node count is slightly below the requested value.
pub fn road_network_like(n: usize, seed: u64) -> CsrGraph {
    assert!(n >= 8, "need at least 8 nodes");
    let h = ((n as f64 / 2.0).sqrt()).floor().max(2.0) as usize;
    let w = 2 * h;
    let num_nodes = w * h;
    let mut rng = StdRng::seed_from_u64(seed);

    let id = |x: usize, y: usize| (y * w + x) as NodeId;

    // Rivers: a few vertical and horizontal lines where crossings are rare.
    let num_rivers = 2 + (w / 64);
    let river_cols: Vec<usize> = (0..num_rivers).map(|_| rng.gen_range(1..w)).collect();
    let river_rows: Vec<usize> = (0..num_rivers / 2).map(|_| rng.gen_range(1..h)).collect();

    let keep_prob = 0.62; // overall sparsification: avg degree ~2.5
    let bridge_prob = 0.08; // crossings over rivers are rare

    let mut b = GraphBuilder::new(num_nodes);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                let crosses_river = river_cols.contains(&(x + 1));
                let p = if crosses_river {
                    bridge_prob
                } else {
                    keep_prob
                };
                if rng.gen::<f64>() < p {
                    b.add_edge(id(x, y), id(x + 1, y), 1);
                }
            }
            if y + 1 < h {
                let crosses_river = river_rows.contains(&(y + 1));
                let p = if crosses_river {
                    bridge_prob
                } else {
                    keep_prob
                };
                if rng.gen::<f64>() < p {
                    b.add_edge(id(x, y), id(x, y + 1), 1);
                }
            }
        }
    }
    let coords: Vec<[f64; 2]> = (0..num_nodes)
        .map(|i| {
            let (x, y) = (i % w, i / w);
            [
                x as f64 + rng.gen_range(-0.3..0.3),
                y as f64 + rng.gen_range(-0.3..0.3),
            ]
        })
        .collect();
    b.set_coords(coords);
    let full = b.build();
    largest_component(&full)
}

/// Restricts a graph to its largest connected component (preserving coordinates).
pub fn largest_component(graph: &CsrGraph) -> CsrGraph {
    let n = graph.num_nodes();
    if n == 0 {
        return graph.clone();
    }
    let mut comp = vec![usize::MAX; n];
    let mut sizes = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n {
        if comp[s] != usize::MAX {
            continue;
        }
        let c = sizes.len();
        comp[s] = c;
        let mut size = 1usize;
        queue.push_back(s as NodeId);
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors(u) {
                if comp[v as usize] == usize::MAX {
                    comp[v as usize] = c;
                    size += 1;
                    queue.push_back(v);
                }
            }
        }
        sizes.push(size);
    }
    let best = sizes
        .iter()
        .enumerate()
        .max_by_key(|&(_, s)| *s)
        .map(|(i, _)| i)
        .unwrap();
    let keep: Vec<NodeId> = (0..n as NodeId)
        .filter(|&v| comp[v as usize] == best)
        .collect();
    let sub = kappa_graph::extract_subgraph(graph, &keep);
    sub.graph
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn road_graph_is_sparse_and_connected() {
        let g = road_network_like(4000, 17);
        assert!(g.num_nodes() > 1000);
        assert!(g.is_connected());
        let avg = 2.0 * g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(avg > 1.5 && avg < 3.5, "avg degree {avg} not road-like");
        assert!(g.coords().is_some());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(road_network_like(2000, 3), road_network_like(2000, 3));
        assert_ne!(road_network_like(2000, 3), road_network_like(2000, 4));
    }

    #[test]
    fn largest_component_of_disconnected_graph() {
        let mut b = GraphBuilder::new(7);
        // component {0,1,2,3} and component {4,5}, isolated 6.
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(4, 5, 1);
        let g = b.build();
        let lc = largest_component(&g);
        assert_eq!(lc.num_nodes(), 4);
        assert_eq!(lc.num_edges(), 3);
        assert!(lc.is_connected());
    }

    #[test]
    fn largest_component_of_connected_graph_is_identity_sized() {
        let g = crate::grid::grid2d(5, 5);
        let lc = largest_component(&g);
        assert_eq!(lc.num_nodes(), 25);
        assert_eq!(lc.num_edges(), g.num_edges());
    }
}
