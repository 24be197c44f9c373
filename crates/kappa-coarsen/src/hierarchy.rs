//! The multilevel hierarchy: repeated match-and-contract until the graph is
//! "small enough" (§3, §4 of the paper).
//!
//! The paper stops contraction when the number of remaining nodes drops below
//! `max(20, n / (α·k²))` per PE; the caller computes that bound and passes it
//! as [`CoarseningConfig::stop_at_nodes`]. Coarsening also stops when a level
//! fails to shrink the graph appreciably (e.g. on star-like graphs where
//! matchings are tiny) — [`CoarseningConfig::MIN_SHRINK`].
//!
//! There is one hierarchy type for every graph store and caller — a whole
//! graph or one rank's shard of it — walked up one way: take the top level
//! off ([`pop`](MultilevelHierarchy::pop)), project through its `coarse_of`,
//! drop it, then refine the finer graph. [`MultilevelHierarchy::uncoarsen`]
//! is that walk carrying a [`PartitionState`]. Whole graphs coarsen in
//! [`MultilevelHierarchy::build_with`], generic over [`GraphAccess`]; what a
//! store contributes is *how a matching becomes the next level*, passed in
//! beside the matcher: [`contract_matching`] for plain CSR in RAM,
//! [`SpillConfig::contract`](crate::SpillConfig::contract) for the
//! compact/paged tiers. Distributed shards are
//! [`push`](MultilevelHierarchy::push)ed by the SPMD loop of `kappa-dist`,
//! whose every step is a fallible collective.

use std::convert::Infallible;

use kappa_graph::{CsrGraph, GraphAccess, Partition, PartitionState};
use kappa_matching::{
    compute_matching, parallel_matching, EdgeRating, Matching, MatchingAlgorithm,
    ParallelMatchingConfig,
};

use crate::contract::{contract_matching, Contraction};

/// Which matcher drives [`MultilevelHierarchy::build`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatcherKind {
    /// A sequential matcher run on the whole level.
    Sequential(MatchingAlgorithm),
    /// The parallel local+gap matcher of §3.3 with the given number of parts.
    Parallel {
        /// Sequential algorithm used inside every part.
        local: MatchingAlgorithm,
        /// Number of parts (PEs).
        num_parts: usize,
    },
}

/// When coarsening stops and how its per-level seeds are derived — the one
/// copy of that policy, shared by every hierarchy build and by the
/// distributed coarsening loop.
#[derive(Clone, Copy, Debug)]
pub struct CoarseningConfig {
    /// Stop once the coarsest graph has at most this many nodes.
    pub stop_at_nodes: usize,
    /// Seed for the randomised matchers (varied per level).
    pub seed: u64,
}

impl Default for CoarseningConfig {
    fn default() -> Self {
        CoarseningConfig {
            stop_at_nodes: 64,
            seed: 0,
        }
    }
}

impl CoarseningConfig {
    /// Hard cap on the number of levels of any hierarchy (safety against
    /// pathological inputs; no real hierarchy gets near it).
    pub const MAX_LEVELS: usize = 64;

    /// Coarsening stops once a level's matching shrinks the node count by
    /// less than this fraction (0.02 = must lose at least 2 % to continue).
    pub const MIN_SHRINK: f64 = 0.02;

    /// The matcher seed of the `level`-th contraction (0 = finest graph).
    pub fn level_seed(&self, level: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(level as u64)
    }

    /// True if a matching of `matched_pairs` pairs on a graph of `nodes`
    /// nodes shrinks it too little to be worth another level.
    pub fn stalls(&self, matched_pairs: usize, nodes: usize) -> bool {
        let shrink = matched_pairs as f64 / nodes.max(1) as f64;
        matched_pairs == 0 || shrink < Self::MIN_SHRINK
    }
}

/// The full multilevel hierarchy: the finest (input) graph plus every coarser
/// level produced by match-and-contract, all on graph store `G`. The finest
/// graph is borrowed from the caller — a run never copies its input — and
/// the coarse levels are owned.
#[derive(Clone, Debug)]
pub struct MultilevelHierarchy<'g, G = CsrGraph> {
    finest: &'g G,
    /// Level `i + 1`: its graph and the mapping from level `i`'s nodes to it.
    levels: Vec<Contraction<G>>,
}

impl<'g> MultilevelHierarchy<'g> {
    /// Builds an in-RAM hierarchy with one of the stock matchers and the
    /// parallel [`contract_matching`].
    pub fn build(
        finest: &'g CsrGraph,
        matcher: MatcherKind,
        rating: EdgeRating,
        config: &CoarseningConfig,
    ) -> Self {
        let matcher = |graph: &CsrGraph, seed| match matcher {
            MatcherKind::Sequential(alg) => compute_matching(graph, alg, rating, seed),
            MatcherKind::Parallel { local, num_parts } => {
                let pconfig = ParallelMatchingConfig {
                    num_parts,
                    local_algorithm: local,
                    rating,
                    seed,
                };
                parallel_matching(graph, None, &pconfig)
            }
        };
        let Ok(hierarchy) = Self::build_with(finest, config, matcher, |graph, matching, _| {
            Ok::<_, Infallible>(contract_matching(graph, matching))
        });
        hierarchy
    }
}

impl<'g, G> MultilevelHierarchy<'g, G> {
    /// A hierarchy of the finest graph alone.
    pub fn flat(finest: &'g G) -> Self {
        MultilevelHierarchy {
            finest,
            levels: Vec::new(),
        }
    }

    /// Appends the next coarser level: `contraction` contracts the current
    /// coarsest graph.
    pub fn push(&mut self, contraction: Contraction<G>) {
        self.levels.push(contraction);
    }

    /// The input (finest) graph.
    pub fn finest(&self) -> &'g G {
        self.finest
    }

    /// The coarsest graph of the hierarchy (the finest graph if no contraction
    /// happened).
    pub fn coarsest(&self) -> &G {
        self.graph_at(self.levels.len())
    }

    /// Number of graphs in the hierarchy (finest included).
    pub fn num_levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// The graph at `level` (0 = finest, `num_levels() - 1` = coarsest).
    pub fn graph_at(&self, level: usize) -> &G {
        match level {
            0 => self.finest,
            _ => &self.levels[level - 1].coarse_graph,
        }
    }

    /// Every graph of the hierarchy, finest first.
    pub fn graphs(&self) -> impl Iterator<Item = &G> {
        (0..self.num_levels()).map(|level| self.graph_at(level))
    }

    /// Takes the coarsest level off the hierarchy: its graph and the
    /// `coarse_of` that maps the next finer graph — the new
    /// [`coarsest`](Self::coarsest) — onto it; `None` once only the finest
    /// graph is left. One step of the upward walk: project through
    /// `coarse_of`, drop the level, then refine the finer graph.
    pub fn pop(&mut self) -> Option<Contraction<G>> {
        self.levels.pop()
    }
}

impl<'g, G: GraphAccess> MultilevelHierarchy<'g, G> {
    /// The coarsening loop. `matcher` is called once per level with the
    /// current graph and a per-level seed (this is how the core partitioner
    /// plugs in the geometric pre-partitioning of §3.3 without this crate
    /// knowing about coordinates); `contract` turns the matching into the
    /// next level on store `G` and is told which level (1 = first coarse
    /// graph) it is producing.
    pub fn build_with<E>(
        finest: &'g G,
        config: &CoarseningConfig,
        mut matcher: impl FnMut(&G, u64) -> Matching,
        mut contract: impl FnMut(&G, &Matching, usize) -> Result<Contraction<G>, E>,
    ) -> Result<Self, E> {
        let mut hierarchy = Self::flat(finest);
        for level in 0..CoarseningConfig::MAX_LEVELS {
            // Borrow the current (finest or last coarse) graph in place — no
            // per-level clone of the whole graph.
            let current = hierarchy.coarsest();
            if current.num_nodes() <= config.stop_at_nodes {
                break;
            }
            let matching = matcher(current, config.level_seed(level));
            if config.stalls(matching.cardinality(), current.num_nodes()) {
                break;
            }
            let next = contract(current, &matching, level + 1)?;
            hierarchy.push(next);
        }
        Ok(hierarchy)
    }

    /// The upward half of the V-cycle on a [`PartitionState`], consuming
    /// the hierarchy: derives the state of `coarsest` (a partition of the
    /// coarsest graph) on the coarsest level — the run's only full
    /// `O(n + m)` boundary-index build — and hands it to `refine`, then
    /// [`pop`](Self::pop)s each level, projects the state through it and
    /// drops it (a spilled level's file with it) before refining again.
    /// `refine` is told which graph the state describes; a no-op `refine`
    /// makes this the plain projection to the finest level.
    pub fn uncoarsen(
        mut self,
        coarsest: Partition,
        mut refine: impl FnMut(&G, &mut PartitionState),
    ) -> PartitionState {
        let mut state = PartitionState::build(self.coarsest(), coarsest);
        refine(self.coarsest(), &mut state);
        while let Some(level) = self.pop() {
            let fine = self.coarsest();
            state = state.project(fine, &level.coarse_of);
            drop(level);
            refine(fine, &mut state);
        }
        state
    }

    /// Total node weight is invariant across levels; expose it for assertions.
    pub fn node_weight_invariant_holds(&self) -> bool {
        let w = self.finest.total_node_weight();
        self.graphs().all(|g| g.total_node_weight() == w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_gen::grid::grid2d;
    use kappa_gen::rmat::rmat_graph;

    fn build<'g>(g: &'g CsrGraph, config: &CoarseningConfig) -> MultilevelHierarchy<'g> {
        let matcher = MatcherKind::Sequential(MatchingAlgorithm::Gpa);
        MultilevelHierarchy::build(g, matcher, EdgeRating::ExpansionStar2, config)
    }

    #[test]
    fn hierarchy_shrinks_to_target() {
        let g = grid2d(32, 32);
        let config = CoarseningConfig {
            stop_at_nodes: 40,
            ..Default::default()
        };
        let h = build(&g, &config);
        assert!(h.num_levels() > 3);
        assert!(h.coarsest().num_nodes() <= 80); // grids halve nicely
        assert!(h.node_weight_invariant_holds());
        // Monotone node counts.
        for l in 1..h.num_levels() {
            assert!(h.graph_at(l).num_nodes() < h.graph_at(l - 1).num_nodes());
        }
    }

    /// `uncoarsen` with a no-op refine is the level-by-level projection: it
    /// visits every level once, coarsest first, preserves the cut and pays
    /// one full index build.
    #[test]
    fn projection_preserves_cut_through_all_levels() {
        let g = grid2d(20, 20);
        let config = CoarseningConfig {
            stop_at_nodes: 30,
            ..Default::default()
        };
        let h = build(&g, &config);
        let coarsest = h.coarsest();
        let p = Partition::from_assignment(
            2,
            (0..coarsest.num_nodes()).map(|i| (i % 2) as u32).collect(),
        );
        let cut_coarse = p.edge_cut(coarsest);
        let mut projected = p.clone();
        let mut levels = h.clone();
        while let Some(level) = levels.pop() {
            projected = projected.project(&level.coarse_of);
        }
        let want: Vec<_> = h.graphs().map(|graph| graph.num_nodes()).collect();
        let mut visited = Vec::new();
        let state = h.uncoarsen(p, |graph, _| visited.push(graph.num_nodes()));
        visited.reverse();
        assert_eq!(visited, want);
        assert_eq!(state.full_builds(), 1);
        state.verify_exact(&g).unwrap();
        let fine = state.into_partition();
        assert_eq!(fine.assignment(), projected.assignment());
        assert_eq!(fine.edge_cut(&g), cut_coarse);
        assert!(fine.validate(&g).is_ok());
    }

    #[test]
    fn state_projection_matches_a_full_rebuild_on_every_level() {
        let g = grid2d(20, 20);
        let config = CoarseningConfig {
            stop_at_nodes: 30,
            ..Default::default()
        };
        let mut h = build(&g, &config);
        let coarsest = h.coarsest();
        let p = Partition::from_assignment(
            3,
            (0..coarsest.num_nodes()).map(|i| (i % 3) as u32).collect(),
        );
        let mut state = PartitionState::build(coarsest, p.clone());
        let mut partition = p;
        while let Some(level) = h.pop() {
            let fine = h.coarsest();
            state = state.project(fine, &level.coarse_of);
            partition = partition.project(&level.coarse_of);
            assert_eq!(state.partition().assignment(), partition.assignment());
            // Seeded projection never performs another full build…
            assert_eq!(state.full_builds(), 1);
            // …yet every piece of derived state matches a fresh recompute.
            state.verify_exact(fine).unwrap();
        }
    }

    #[test]
    fn parallel_matcher_builds_equivalent_hierarchy() {
        let g = grid2d(24, 24);
        let config = CoarseningConfig {
            stop_at_nodes: 40,
            ..Default::default()
        };
        let matcher = MatcherKind::Parallel {
            local: MatchingAlgorithm::Gpa,
            num_parts: 4,
        };
        let h = MultilevelHierarchy::build(&g, matcher, EdgeRating::ExpansionStar2, &config);
        assert!(h.coarsest().num_nodes() < 200);
        assert!(h.node_weight_invariant_holds());
    }

    #[test]
    fn stops_when_matching_stalls() {
        // A star graph: only one edge can ever be matched per level (1 pair
        // in 101 nodes is below `MIN_SHRINK`), so the shrink guard must
        // terminate coarsening early.
        let mut b = kappa_graph::GraphBuilder::new(101);
        for i in 1..=100u32 {
            b.add_edge(0, i, 1);
        }
        let g = b.build();
        let config = CoarseningConfig {
            stop_at_nodes: 5,
            ..Default::default()
        };
        let h = build(&g, &config);
        assert!(h.num_levels() < 10);
        assert!(h.coarsest().num_nodes() > 5);
    }

    #[test]
    fn small_graph_is_not_contracted() {
        let g = grid2d(4, 4);
        let config = CoarseningConfig {
            stop_at_nodes: 100,
            ..Default::default()
        };
        let h = build(&g, &config);
        assert_eq!(h.num_levels(), 1);
        assert_eq!(h.coarsest().num_nodes(), g.num_nodes());
    }

    #[test]
    fn social_graph_coarsens_without_breaking_invariants() {
        let g = rmat_graph(9, 6, 4);
        let config = CoarseningConfig {
            stop_at_nodes: 64,
            ..Default::default()
        };
        let h = build(&g, &config);
        assert!(h.node_weight_invariant_holds());
        for l in 0..h.num_levels() {
            assert!(h.graph_at(l).validate().is_ok(), "level {l} invalid");
        }
    }
}
