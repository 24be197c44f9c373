//! A sequential Metis-like multilevel k-way partitioner (stand-in for kMetis).
//!
//! Pipeline choices mirror the Metis defaults the paper compares against:
//! SHEM matching on the plain edge-weight rating (no node-weight awareness),
//! a single greedy-growing initial partition (no repeated best-of), and greedy
//! k-way boundary refinement without hill climbing. Each of these choices is
//! one of the things KaPPa explicitly improves upon, which is what produces the
//! quality gap reported in Tables 4 and 15–20.

use kappa_coarsen::{CoarseningConfig, MatcherKind, MultilevelHierarchy};
use kappa_graph::{CsrGraph, Partition};
use kappa_initial::{greedy_graph_growing, random_partition};
use kappa_matching::{EdgeRating, MatchingAlgorithm};
use kappa_refine::rebalance_state;

use crate::kway_refine::greedy_kway_refinement_indexed;
use crate::BaselinePartitioner;

/// Coarsening stops at `COARSEN_FACTOR · k` nodes.
const COARSEN_FACTOR: usize = 30;
/// Number of greedy refinement passes per level.
const REFINE_PASSES: usize = 4;

/// Metis-like sequential multilevel k-way partitioner.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetisLike;

impl BaselinePartitioner for MetisLike {
    fn name(&self) -> &'static str {
        "kmetis-like"
    }

    fn partition(&self, graph: &CsrGraph, k: u32, epsilon: f64, seed: u64) -> Partition {
        let k = k.max(1);
        let n = graph.num_nodes();
        if n == 0 || k == 1 {
            return Partition::trivial(k, n);
        }
        let coarsen_config = CoarseningConfig {
            stop_at_nodes: (COARSEN_FACTOR * k as usize).max(32),
            seed,
        };
        let hierarchy = MultilevelHierarchy::build(
            graph,
            MatcherKind::Sequential(MatchingAlgorithm::Shem),
            EdgeRating::Weight,
            &coarsen_config,
        );

        let coarsest = hierarchy.coarsest();
        let current = if coarsest.num_nodes() >= k as usize {
            greedy_graph_growing(coarsest, k, epsilon, seed)
        } else {
            random_partition(coarsest, k, seed)
        };

        // Greedy boundary passes on every level, coarsest included.
        let mut state = hierarchy.uncoarsen(current, |fine, state| {
            let l_max = Partition::l_max(fine, k, epsilon);
            greedy_kway_refinement_indexed(fine, state, l_max, REFINE_PASSES);
        });
        // kMetis honours the balance constraint reasonably well; emulate that
        // with a final repair pass.
        let l_max = Partition::l_max(graph, k, epsilon);
        if !state.is_balanced(l_max) {
            rebalance_state(graph, &mut state, l_max);
        }
        state.into_partition()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_gen::grid::grid2d;
    use kappa_gen::rgg::random_geometric_graph;

    #[test]
    fn produces_feasible_partitions() {
        let g = grid2d(32, 32);
        let p = MetisLike.partition(&g, 8, 0.03, 1);
        assert!(p.validate(&g).is_ok());
        assert!(p.is_balanced(&g, 0.03), "balance {}", p.balance(&g));
        assert_eq!(p.num_nonempty_blocks(), 8);
    }

    #[test]
    fn cut_is_sane_on_geometric_graphs() {
        let g = random_geometric_graph(3000, 2);
        let p = MetisLike.partition(&g, 4, 0.03, 3);
        assert!(p.validate(&g).is_ok());
        assert!(p.edge_cut(&g) < g.total_edge_weight() / 3);
    }

    #[test]
    fn handles_degenerate_inputs() {
        let g = grid2d(2, 2);
        let p = MetisLike.partition(&g, 1, 0.03, 0);
        assert_eq!(p.edge_cut(&g), 0);
        let p = MetisLike.partition(&CsrGraph::empty(), 4, 0.03, 0);
        assert_eq!(p.num_nodes(), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = grid2d(20, 20);
        let a = MetisLike.partition(&g, 4, 0.03, 9);
        let b = MetisLike.partition(&g, 4, 0.03, 9);
        assert_eq!(a.assignment(), b.assignment());
    }
}
