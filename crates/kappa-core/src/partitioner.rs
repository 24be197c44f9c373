//! The KaPPa multilevel pipeline: parallel coarsening → repeated initial
//! partitioning → parallel pairwise refinement during uncoarsening.
//!
//! The scheme exists once, in the private `multilevel`, generic over the
//! graph store. [`KappaPartitioner::partition`] and
//! [`partition_tiered`](crate::partition_tiered) are its two callers; each
//! supplies a matcher, a contraction step and a repeats multiplier.

use std::borrow::Cow;
use std::convert::Infallible;
use std::time::{Duration, Instant};

use kappa_coarsen::{contract_matching, Contraction, MultilevelHierarchy};
use kappa_graph::{CsrGraph, GraphAccess, Partition};
use kappa_initial::best_of_repeats;
use kappa_matching::{parallel_matching, Matching, ParallelMatchingConfig};
use kappa_refine::{refine_partition, RefinementStats};

use crate::config::KappaConfig;
use crate::metrics::PartitionMetrics;
use crate::prepartition::coordinate_prepartition;

/// Wall-clock time spent in each phase of the pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Contraction phase (matching + contraction over all levels).
    pub coarsening: Duration,
    /// Initial partitioning of the coarsest graph (all repeats).
    pub initial_partitioning: Duration,
    /// Refinement during uncoarsening (all levels).
    pub refinement: Duration,
}

impl PhaseTimings {
    /// Total time across the three phases.
    pub fn total(&self) -> Duration {
        self.coarsening + self.initial_partitioning + self.refinement
    }
}

/// The result of a KaPPa run.
#[derive(Clone, Debug)]
pub struct PartitionResult {
    /// The computed partition of the input graph.
    pub partition: Partition,
    /// Quality metrics (cut, balance, feasibility, runtime).
    pub metrics: PartitionMetrics,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
    /// Number of levels in the multilevel hierarchy (finest included).
    pub hierarchy_levels: usize,
    /// Number of nodes of the coarsest graph.
    pub coarsest_nodes: usize,
    /// Aggregated refinement statistics over all levels.
    pub refinement: RefinementStats,
    /// Number of full `O(n + m)` boundary-index builds the run performed.
    /// Exactly 1 for any non-degenerate run: the coarsest level's; every
    /// finer level seeds its index from the projected coarse boundary.
    pub boundary_full_builds: usize,
}

/// The KaPPa graph partitioner (paper §2–§5 end to end).
#[derive(Clone, Debug)]
pub struct KappaPartitioner {
    config: KappaConfig,
}

impl KappaPartitioner {
    /// Creates a partitioner with the given configuration.
    pub fn new(config: KappaConfig) -> Self {
        KappaPartitioner { config }
    }

    /// The configuration this partitioner runs with.
    pub fn config(&self) -> &KappaConfig {
        &self.config
    }

    /// Partitions `graph` into `config.k` blocks.
    ///
    /// If `config.num_threads > 0` the run executes inside a dedicated Rayon
    /// pool of that size (the shared-memory stand-in for "number of PEs");
    /// otherwise the ambient pool is used.
    pub fn partition(&self, graph: &CsrGraph) -> PartitionResult {
        if self.config.num_threads > 0 {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(self.config.num_threads)
                .build()
                .expect("failed to build thread pool");
            pool.install(|| self.partition_inner(graph))
        } else {
            self.partition_inner(graph)
        }
    }

    /// The in-RAM run: the parallel matcher of §3.3 over a geometric
    /// pre-partition, the parallel fragment contraction, and initial
    /// repeats multiplied by the number of PEs.
    fn partition_inner(&self, graph: &CsrGraph) -> PartitionResult {
        let config = &self.config;
        let num_parts = match config.num_threads {
            0 => rayon::current_num_threads(),
            threads => threads,
        };
        let matcher = |level_graph: &CsrGraph, seed| {
            // Geometric pre-partitioning (recursive coordinate bisection)
            // when coordinates exist; index ranges otherwise (§3.3). One
            // part matches the whole level sequentially and reads none.
            let prepart = (num_parts > 1).then(|| coordinate_prepartition(level_graph, num_parts));
            let pconfig = ParallelMatchingConfig {
                num_parts,
                local_algorithm: config.matching,
                rating: config.rating,
                seed,
            };
            parallel_matching(level_graph, prepart.as_deref(), &pconfig)
        };
        let contract = |level_graph: &CsrGraph, matching: &Matching, _level| {
            Ok::<_, Infallible>(contract_matching(level_graph, matching))
        };
        let Ok(result) = multilevel(config, graph, num_parts, matcher, contract, |coarsest| {
            Cow::Borrowed(coarsest)
        });
        result
    }
}

/// The multilevel scheme (paper §2–§5) on graph store `G`: contract by
/// matchings until the graph is small, partition the coarsest graph
/// repeatedly, then uncoarsen with pairwise refinement on every level
/// ([`MultilevelHierarchy::uncoarsen`]).
///
/// The caller supplies what differs between stores and entry points:
/// `matcher` (level graph, level seed → matching), `contract` (how a
/// matching becomes the next level on `G`), `pes` (the multiplier of the
/// configured initial repeats) and `as_csr` (the coarsest graph as plain CSR
/// for the initial partitioner — borrowed where `G` already is one). The
/// hierarchy borrows `finest`, so no run copies its input, and uncoarsening
/// consumes it, so every coarse level is freed as the walk leaves it.
pub(crate) fn multilevel<G: GraphAccess + Sync, E>(
    config: &KappaConfig,
    finest: &G,
    pes: usize,
    matcher: impl FnMut(&G, u64) -> Matching,
    contract: impl FnMut(&G, &Matching, usize) -> Result<Contraction<G>, E>,
    as_csr: impl Fn(&G) -> Cow<'_, CsrGraph>,
) -> Result<PartitionResult, E> {
    #[expect(clippy::disallowed_methods, reason = "timing for PartitionMetrics")]
    let start = Instant::now();
    let k = config.k.max(1);
    let n = finest.num_nodes();

    // Degenerate inputs (empty graph, k == 1) have one trivial answer.
    if n == 0 || k == 1 {
        let partition = Partition::trivial(k, n);
        let result = PartitionResult {
            metrics: PartitionMetrics::measure(finest, &partition, config.epsilon, start.elapsed()),
            partition,
            timings: PhaseTimings::default(),
            hierarchy_levels: 1,
            coarsest_nodes: n,
            refinement: RefinementStats::default(),
            boundary_full_builds: 0,
        };
        return Ok(result);
    }

    // --- Phase 1: contraction (matching + contraction per level). ---
    #[expect(clippy::disallowed_methods, reason = "timing for PhaseTimings")]
    let coarsen_start = Instant::now();
    let hierarchy =
        MultilevelHierarchy::build_with(finest, &config.coarsening(n), matcher, contract)?;
    let coarsening = coarsen_start.elapsed();

    // --- Phase 2: initial partitioning of the coarsest graph. ---
    #[expect(clippy::disallowed_methods, reason = "timing for PhaseTimings")]
    let initial_start = Instant::now();
    let coarsest = hierarchy.coarsest();
    let initial = best_of_repeats(&as_csr(coarsest), &config.initial_partitioning(pes, 0));
    let initial_partitioning = initial_start.elapsed();
    let hierarchy_levels = hierarchy.num_levels();
    let coarsest_nodes = coarsest.num_nodes();

    // --- Phase 3: uncoarsening with pairwise parallel refinement. ---
    // One persistent PartitionState, built in full once at the coarsest
    // level and carried down by seeded projections; refinement and
    // rebalancing receive it current and return it current.
    #[expect(clippy::disallowed_methods, reason = "timing for PhaseTimings")]
    let refine_start = Instant::now();
    let refinement_config = config.refinement();
    let mut refinement = RefinementStats::default();
    let state = hierarchy.uncoarsen(initial, |graph, state| {
        refinement += refine_partition(graph, state, &refinement_config);
    });
    let timings = PhaseTimings {
        coarsening,
        initial_partitioning,
        refinement: refine_start.elapsed(),
    };

    let boundary_full_builds = state.full_builds();
    let partition = state.into_partition();
    let result = PartitionResult {
        metrics: PartitionMetrics::measure(finest, &partition, config.epsilon, start.elapsed()),
        partition,
        timings,
        hierarchy_levels,
        coarsest_nodes,
        refinement,
        boundary_full_builds,
    };
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigPreset;
    use kappa_gen::grid::grid2d;
    use kappa_gen::rgg::random_geometric_graph;
    use kappa_gen::rmat::rmat_graph;
    use kappa_gen::road::road_network_like;

    #[test]
    fn partitions_a_grid_feasibly_and_well() {
        let g = grid2d(40, 40);
        let result = KappaPartitioner::new(KappaConfig::fast(4).with_seed(1)).partition(&g);
        assert!(result.partition.validate(&g).is_ok());
        assert!(
            result.metrics.feasible,
            "balance {}",
            result.metrics.balance
        );
        // A 4-way partition of a 40x40 grid should be in the vicinity of the
        // ideal two straight cuts (80); anything under 3x is clearly "working".
        assert!(
            result.metrics.edge_cut < 240,
            "cut {}",
            result.metrics.edge_cut
        );
        assert!(result.hierarchy_levels > 1);
        assert!(result.coarsest_nodes < g.num_nodes());
    }

    #[test]
    fn all_presets_are_feasible_and_ordered_in_effort() {
        let g = random_geometric_graph(4000, 5);
        // Every run is feasible; the effort ordering holds for the mean over
        // seeds (one seed's strong run can lose to its minimal run by 20 %).
        let seeds = 0..5u64;
        let mut mean_cuts = Vec::new();
        for preset in ConfigPreset::all() {
            let mut total = 0u64;
            for seed in seeds.clone() {
                let config = KappaConfig::preset(preset, 8).with_seed(seed);
                let result = KappaPartitioner::new(config).partition(&g);
                assert!(result.metrics.feasible, "{preset:?} seed {seed} infeasible");
                total += result.metrics.edge_cut;
            }
            mean_cuts.push(total as f64 / seeds.clone().count() as f64);
        }
        // Strong must not be worse than Minimal by more than a whisker.
        let (minimal, strong) = (mean_cuts[0], mean_cuts[2]);
        assert!(
            strong <= minimal * 1.10,
            "strong {strong} much worse than minimal {minimal}"
        );
    }

    #[test]
    fn works_without_coordinates() {
        let g = rmat_graph(10, 6, 2);
        let result = KappaPartitioner::new(KappaConfig::fast(8).with_seed(2)).partition(&g);
        assert!(result.partition.validate(&g).is_ok());
        assert!(
            result.metrics.feasible,
            "balance {}",
            result.metrics.balance
        );
    }

    #[test]
    fn works_on_road_networks() {
        let g = road_network_like(6000, 7);
        let result = KappaPartitioner::new(KappaConfig::fast(8).with_seed(4)).partition(&g);
        assert!(result.partition.validate(&g).is_ok());
        assert!(result.metrics.feasible);
        // Road networks have tiny separators; the cut should be far below the
        // edge count.
        assert!(result.metrics.edge_cut < g.num_edges() as u64 / 5);
    }

    #[test]
    fn deterministic_for_fixed_seed_and_threads() {
        let g = grid2d(24, 24);
        let config = KappaConfig::fast(4).with_seed(11).with_threads(2);
        let a = KappaPartitioner::new(config).partition(&g);
        let b = KappaPartitioner::new(config).partition(&g);
        assert_eq!(a.partition.assignment(), b.partition.assignment());
    }

    #[test]
    fn explicit_thread_counts_give_valid_results() {
        let g = random_geometric_graph(3000, 9);
        for threads in [1usize, 2, 4] {
            let result =
                KappaPartitioner::new(KappaConfig::fast(8).with_seed(6).with_threads(threads))
                    .partition(&g);
            assert!(result.metrics.feasible, "threads {threads}");
            assert!(result.partition.validate(&g).is_ok());
        }
    }

    #[test]
    fn exactly_one_full_boundary_index_build_per_run() {
        // The acceptance test of the persistent-state refactor: the
        // coarsest level pays the one O(n + m) index build; every finer level
        // seeds from the projected coarse boundary.
        let g = random_geometric_graph(4000, 5);
        for preset in ConfigPreset::all() {
            let result =
                KappaPartitioner::new(KappaConfig::preset(preset, 8).with_seed(3)).partition(&g);
            assert!(result.hierarchy_levels > 1, "{preset:?} did not coarsen");
            assert_eq!(result.boundary_full_builds, 1, "{preset:?}");
        }
        // Degenerate runs never build an index at all.
        let r = KappaPartitioner::new(KappaConfig::fast(1)).partition(&g);
        assert_eq!(r.boundary_full_builds, 0);
    }

    #[test]
    fn phase_timings_add_up() {
        let g = grid2d(30, 30);
        let result = KappaPartitioner::new(KappaConfig::fast(4)).partition(&g);
        assert!(result.timings.total() <= result.metrics.runtime + Duration::from_millis(50));
        assert!(result.timings.coarsening > Duration::ZERO);
    }
}
