//! Regular mesh generators: 2-D grids and tori and 3-D grids.
//!
//! These stand in for the finite-element meshes of the benchmark set
//! (`4elt`, `fesphere`, `fetooth`, `598a`, `auto`, ...): FEM graphs are
//! near-regular, low-degree, and have small separators, exactly like grid
//! graphs. The 3-D grid covers the volumetric meshes (`m14b`, `598a`), the
//! 2-D grid the planar ones.

use kappa_graph::{CsrGraph, EdgeSource, EdgeWeight, GraphBuilder, NodeId};

use crate::stream::build;

/// Streaming 2-D grid: the edges of [`grid2d`], `O(1)` resident memory.
pub struct Grid2dSource {
    width: usize,
    height: usize,
}

impl Grid2dSource {
    /// A `width x height` grid.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width >= 1 && height >= 1);
        Grid2dSource { width, height }
    }
}

impl EdgeSource for Grid2dSource {
    fn num_nodes(&self) -> usize {
        self.width * self.height
    }

    fn for_each_edge<F: FnMut(NodeId, NodeId, EdgeWeight)>(&self, mut f: F) {
        let id = |x: usize, y: usize| (y * self.width + x) as NodeId;
        for y in 0..self.height {
            for x in 0..self.width {
                if x + 1 < self.width {
                    f(id(x, y), id(x + 1, y), 1);
                }
                if y + 1 < self.height {
                    f(id(x, y), id(x, y + 1), 1);
                }
            }
        }
    }

    fn coords(&self) -> Option<Vec<[f64; 2]>> {
        Some(
            (0..self.num_nodes())
                .map(|i| [(i % self.width) as f64, (i / self.width) as f64])
                .collect(),
        )
    }
}

/// A `width x height` 2-D grid graph with unit weights and grid coordinates.
pub fn grid2d(width: usize, height: usize) -> CsrGraph {
    build(&Grid2dSource::new(width, height))
}

/// A `width x height` 2-D torus (grid with wrap-around edges).
pub fn torus2d(width: usize, height: usize) -> CsrGraph {
    assert!(width >= 3 && height >= 3, "torus needs side length >= 3");
    let n = width * height;
    let id = |x: usize, y: usize| (y * width + x) as NodeId;
    let mut b = GraphBuilder::new(n);
    b.reserve_edges(2 * n);
    for y in 0..height {
        for x in 0..width {
            b.add_edge(id(x, y), id((x + 1) % width, y), 1);
            b.add_edge(id(x, y), id(x, (y + 1) % height), 1);
        }
    }
    let coords = (0..n)
        .map(|i| [(i % width) as f64, (i / width) as f64])
        .collect();
    b.set_coords(coords);
    b.build()
}

/// A `wx x wy x wz` 3-D grid graph (6-connectivity). Coordinates are the
/// projection onto the x/y plane, which is what the geometric pre-partitioner
/// uses.
pub fn grid3d(wx: usize, wy: usize, wz: usize) -> CsrGraph {
    assert!(wx >= 1 && wy >= 1 && wz >= 1);
    let n = wx * wy * wz;
    let id = |x: usize, y: usize, z: usize| (z * wx * wy + y * wx + x) as NodeId;
    let mut b = GraphBuilder::new(n);
    b.reserve_edges(3 * n);
    for z in 0..wz {
        for y in 0..wy {
            for x in 0..wx {
                if x + 1 < wx {
                    b.add_edge(id(x, y, z), id(x + 1, y, z), 1);
                }
                if y + 1 < wy {
                    b.add_edge(id(x, y, z), id(x, y + 1, z), 1);
                }
                if z + 1 < wz {
                    b.add_edge(id(x, y, z), id(x, y, z + 1), 1);
                }
            }
        }
    }
    let coords = (0..n)
        .map(|i| {
            let x = i % wx;
            let y = (i / wx) % wy;
            let z = i / (wx * wy);
            // Slightly offset each z-layer so coordinates stay distinct.
            [x as f64 + 0.1 * z as f64, y as f64 + 0.1 * z as f64]
        })
        .collect();
    b.set_coords(coords);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid2d_size_and_structure() {
        let g = grid2d(4, 3);
        assert_eq!(g.num_nodes(), 12);
        // edges: 3*3 horizontal + 4*2 vertical = 9 + 8 = 17
        assert_eq!(g.num_edges(), 17);
        assert!(g.is_connected());
        assert!(g.validate().is_ok());
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn grid2d_degenerate_line() {
        let g = grid2d(5, 1);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn torus_is_regular() {
        let g = torus2d(4, 4);
        assert_eq!(g.num_nodes(), 16);
        assert_eq!(g.num_edges(), 32);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
        assert!(g.validate().is_ok());
    }

    #[test]
    fn grid3d_size_and_connectivity() {
        let g = grid3d(3, 3, 3);
        assert_eq!(g.num_nodes(), 27);
        // 2*3*3 per direction * 3 directions = 54
        assert_eq!(g.num_edges(), 54);
        assert!(g.is_connected());
        assert_eq!(g.max_degree(), 6);
        assert!(g.coords().is_some());
    }

    #[test]
    fn coordinates_match_grid_positions() {
        let g = grid2d(3, 2);
        assert_eq!(g.coord(0), Some([0.0, 0.0]));
        assert_eq!(g.coord(4), Some([1.0, 1.0]));
    }
}
