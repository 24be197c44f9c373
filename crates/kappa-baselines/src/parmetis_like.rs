//! A parMetis-like parallel partitioner (stand-in for parMetis).
//!
//! parMetis is the fastest tool in the paper's comparison but pays for it with
//! clearly worse cuts (about 30 % above KaPPa-Strong) and regular violations of
//! the 3 % balance constraint (its average balance in Tables 16/18/20 hovers
//! around 1.047). This stand-in mimics those characteristics: parallel
//! matching with the cheap weight rating, an aggressive coarsening stop, a
//! single initial attempt, and one refinement pass per level against a
//! *relaxed* balance bound. Only an output beyond even that relaxed bound is
//! repaired: parMetis overshoots ε by a few per cent, not by tens.

use kappa_coarsen::{CoarseningConfig, MatcherKind, MultilevelHierarchy};
use kappa_graph::{CsrGraph, Partition};
use kappa_initial::{greedy_graph_growing, random_partition};
use kappa_matching::{EdgeRating, MatchingAlgorithm};
use kappa_refine::rebalance_state;

use crate::kway_refine::greedy_kway_refinement_indexed;
use crate::BaselinePartitioner;

/// Slack added to ε for the internal balance bound (parMetis regularly
/// exceeds the requested imbalance; the paper measured ≈ 4.7 % at ε = 3 %).
const BALANCE_SLACK: f64 = 0.03;

/// parMetis-like parallel multilevel k-way partitioner.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParMetisLike {
    /// Number of parallel matching parts (0 = Rayon's current thread count).
    pub num_parts: usize,
}

impl BaselinePartitioner for ParMetisLike {
    fn name(&self) -> &'static str {
        "parmetis-like"
    }

    fn partition(&self, graph: &CsrGraph, k: u32, epsilon: f64, seed: u64) -> Partition {
        let k = k.max(1);
        let n = graph.num_nodes();
        if n == 0 || k == 1 {
            return Partition::trivial(k, n);
        }
        let num_parts = if self.num_parts == 0 {
            rayon::current_num_threads()
        } else {
            self.num_parts
        };
        let matcher = MatcherKind::Parallel {
            local: MatchingAlgorithm::Greedy,
            num_parts,
        };
        let coarsen_config = CoarseningConfig {
            // Aggressive: stop very early so little work remains.
            stop_at_nodes: (60 * k as usize).max(64),
            seed,
        };
        let hierarchy =
            MultilevelHierarchy::build(graph, matcher, EdgeRating::Weight, &coarsen_config);

        let coarsest = hierarchy.coarsest();
        let current = if coarsest.num_nodes() >= k as usize {
            greedy_graph_growing(coarsest, k, epsilon + BALANCE_SLACK, seed)
        } else {
            random_partition(coarsest, k, seed)
        };

        // Single cheap pass per level against the relaxed bound, on every
        // level but the coarsest.
        let relaxed = epsilon + BALANCE_SLACK;
        let mut coarsest_level = true;
        let mut state = hierarchy.uncoarsen(current, |fine, state| {
            if !std::mem::take(&mut coarsest_level) {
                let l_max = Partition::l_max(fine, k, relaxed);
                greedy_kway_refinement_indexed(fine, state, l_max, 1);
            }
        });
        // The cheap passes never move a node for balance alone, so skewed
        // instances (rmat) can leave the finest level far past the relaxed
        // bound; the tool being imitated does not. Outputs within the bound
        // skip this and stay as they were.
        let l_max = Partition::l_max(graph, k, relaxed);
        if !state.is_balanced(l_max) {
            rebalance_state(graph, &mut state, l_max);
        }
        state.into_partition()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metis_like::MetisLike;
    use kappa_gen::grid::grid2d;
    use kappa_gen::rgg::random_geometric_graph;

    #[test]
    fn produces_complete_partitions() {
        let g = grid2d(32, 32);
        let p = ParMetisLike::default().partition(&g, 8, 0.03, 1);
        assert!(p.validate(&g).is_ok());
        assert_eq!(p.num_nonempty_blocks(), 8);
        // It may exceed 3 %, but must stay within its own relaxed bound + slack.
        assert!(p.balance(&g) < 1.25, "balance {}", p.balance(&g));
    }

    #[test]
    fn is_no_better_than_metis_like_on_average() {
        // The paper's ordering: parMetis cuts are the largest. Averaged over a
        // few seeds the stand-in must reproduce that ordering against the
        // sequential Metis-like tool.
        let g = random_geometric_graph(4000, 11);
        let mut par_total = 0u64;
        let mut seq_total = 0u64;
        for seed in 0..3 {
            par_total += ParMetisLike::default()
                .partition(&g, 8, 0.03, seed)
                .edge_cut(&g);
            seq_total += MetisLike.partition(&g, 8, 0.03, seed).edge_cut(&g);
        }
        assert!(
            par_total as f64 >= 0.9 * seq_total as f64,
            "parmetis-like ({par_total}) unexpectedly much better than kmetis-like ({seq_total})"
        );
    }

    #[test]
    fn degenerate_inputs() {
        let p = ParMetisLike::default().partition(&CsrGraph::empty(), 4, 0.03, 0);
        assert_eq!(p.num_nodes(), 0);
        let g = grid2d(3, 3);
        let p = ParMetisLike::default().partition(&g, 1, 0.03, 0);
        assert_eq!(p.edge_cut(&g), 0);
    }
}
