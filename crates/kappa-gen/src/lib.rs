//! # kappa-gen
//!
//! Deterministic, seedable graph generators that stand in for the benchmark
//! instances of Table 1 of the paper (Walshaw archive meshes, random geometric
//! graphs, Delaunay triangulations, road networks, sparse matrices and social
//! networks). The real archives are not redistributable, so each *family* is
//! replaced by a synthetic generator that produces graphs with the same
//! structural character (near-planar meshes, geometric locality, long skinny
//! road lattices, heavy-tailed social graphs); see DESIGN.md §2 for the
//! substitution argument.
//!
//! Every generator takes an explicit seed and is reproducible run-to-run.
//!
//! ```
//! use kappa_gen::rgg::random_geometric_graph;
//! let g = random_geometric_graph(1 << 10, 42);
//! assert_eq!(g.num_nodes(), 1024);
//! assert!(g.coords().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delaunay;
pub mod grid;
pub mod rgg;
pub mod rmat;
pub mod road;
mod stream;
pub mod suite;

pub use delaunay::delaunay_like_graph;
pub use grid::{grid2d, grid3d, Grid2dSource};
pub use rgg::{random_geometric_graph, RggSource};
pub use rmat::rmat_graph;
pub use road::road_network_like;
pub use suite::{large_suite, small_suite, Instance, InstanceFamily};

/// Whether `--generate family --nodes nodes` can be served: `Err` names an
/// unknown family, or the family and the smallest `nodes` its generator
/// accepts when `nodes` is below that. [`generate`] starts with this; a
/// caller that builds a family's streaming source ([`RggSource`],
/// [`Grid2dSource`]) itself checks here first.
pub fn check_request(family: &str, nodes: usize) -> Result<(), String> {
    let min = match family {
        "rgg" => 2,
        "delaunay" => 4,
        "road" => 8,
        "grid" | "rmat" => 0,
        _ => {
            return Err(format!(
                "unknown --generate family {family:?} (expected rgg, delaunay, grid, road or rmat)"
            ))
        }
    };
    if nodes < min {
        return Err(format!(
            "--generate {family} needs --nodes >= {min} (got {nodes})"
        ));
    }
    Ok(())
}

/// Generates an instance of about `nodes` nodes by family name — the
/// `--generate` of every command-line tool. `grid` is the nearest square
/// (at least 2 × 2) and `rmat` the scale `⌊log2 nodes⌋` clamped to 4..=24 at
/// edge factor 8; neither draws on `seed`. `Err` as [`check_request`].
pub fn generate(family: &str, nodes: usize, seed: u64) -> Result<kappa_graph::CsrGraph, String> {
    check_request(family, nodes)?;
    Ok(match family {
        "rgg" => random_geometric_graph(nodes, seed),
        "delaunay" => delaunay_like_graph(nodes, seed),
        "grid" => {
            let side = ((nodes as f64).sqrt().round() as usize).max(2);
            grid2d(side, side)
        }
        "road" => road_network_like(nodes, seed),
        // `check_request` admitted the family, so only rmat is left.
        _ => rmat_graph(nodes.max(16).ilog2().clamp(4, 24), 8, seed),
    })
}

#[cfg(test)]
mod tests {
    use super::generate;

    #[test]
    fn rgg_family_is_the_seeded_generator() {
        let g = generate("rgg", 500, 3).unwrap();
        assert_eq!(g.num_nodes(), 500);
        assert_eq!(
            g.num_edges(),
            super::random_geometric_graph(500, 3).num_edges()
        );
    }

    #[test]
    fn delaunay_family_is_the_seeded_generator() {
        let g = generate("delaunay", 400, 2).unwrap();
        assert_eq!(
            g.num_edges(),
            super::delaunay_like_graph(400, 2).num_edges()
        );
    }

    #[test]
    fn grid_family_is_the_nearest_square_and_at_least_two_wide() {
        assert_eq!(generate("grid", 2500, 0).unwrap().num_nodes(), 50 * 50);
        assert_eq!(generate("grid", 2600, 9).unwrap().num_nodes(), 51 * 51);
        assert_eq!(generate("grid", 1, 0).unwrap().num_nodes(), 4);
    }

    #[test]
    fn road_family_is_the_seeded_generator() {
        let g = generate("road", 900, 4).unwrap();
        assert_eq!(g.num_edges(), super::road_network_like(900, 4).num_edges());
    }

    #[test]
    fn rmat_family_maps_nodes_to_a_clamped_scale() {
        assert_eq!(generate("rmat", 5000, 1).unwrap().num_nodes(), 1 << 12);
        assert_eq!(generate("rmat", 3, 1).unwrap().num_nodes(), 1 << 4);
    }

    #[test]
    fn unknown_family_is_none() {
        for family in ["torus", ""] {
            let err = generate(family, 100, 0).unwrap_err();
            assert!(err.contains("unknown --generate family"), "{err}");
        }
    }

    #[test]
    fn every_family_serves_its_minimum_and_refuses_less() {
        for (family, min) in [
            ("rgg", 2),
            ("delaunay", 4),
            ("grid", 0),
            ("road", 8),
            ("rmat", 0),
        ] {
            let g = generate(family, min, 1).unwrap_or_else(|e| panic!("{family} at {min}: {e}"));
            assert!(g.validate().is_ok(), "{family} at {min}");
            if min > 0 {
                let err = generate(family, min - 1, 1).unwrap_err();
                assert!(
                    err.contains(family) && err.contains(&format!(">= {min}")),
                    "{err}"
                );
            }
        }
    }
}
