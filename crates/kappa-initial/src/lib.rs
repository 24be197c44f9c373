//! # kappa-initial
//!
//! Initial partitioning of the coarsest graph (§4 of the paper).
//!
//! The paper delegates this step to pMetis or Scotch, runs the sequential
//! partitioner *on every PE simultaneously with a different seed*, repeats it
//! several times, and broadcasts the best result. Neither tool is available to
//! this reproduction, so the crate provides its own sequential initial
//! partitioner — greedy graph growing (GGGP) — and reproduces the "repeat
//! with different seeds, keep the best" protocol (in parallel over the
//! repeats, standing in for the PEs). A uniformly random assignment is the
//! baselines' fallback for coarsest graphs with fewer than `k` nodes.
//!
//! Quality demands here are modest: the coarsest graph has only
//! `max(20, n/(α·k²))` nodes and the refinement phase fixes most imperfections;
//! what matters is a feasible, reasonable starting point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod best_of;
pub mod graph_growing;

pub use best_of::{best_of_repeats, quality_key, InitialPartitionConfig, QualityKey};
pub use graph_growing::greedy_graph_growing;

use kappa_graph::{CsrGraph, Partition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniformly random block assignment. Mostly useful as a baseline and as the
/// fallback when a graph is so small or disconnected that structured growing
/// degenerates.
pub fn random_partition(graph: &CsrGraph, k: u32, seed: u64) -> Partition {
    let mut rng = StdRng::seed_from_u64(seed);
    let assignment = (0..graph.num_nodes())
        .map(|_| rng.gen_range(0..k))
        .collect();
    Partition::from_assignment(k, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_gen::grid::grid2d;

    #[test]
    fn random_partition_is_complete_and_uses_blocks() {
        let g = grid2d(10, 10);
        let p = random_partition(&g, 4, 7);
        assert!(p.validate(&g).is_ok());
        assert_eq!(p.num_nonempty_blocks(), 4);
    }
}
