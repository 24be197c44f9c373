//! Parity across representations: the incremental boundary index, the
//! boundary-derived quotient, seeded level projections, the compact encoding
//! and the storage tiers must be deterministic and bit-identical to a
//! recompute-from-scratch of the same thing, across seeded random graphs.
//!
//! The properties that compare a kernel with its retained slow twin —
//! parallel vs sequential contraction, the delta-move scheduler vs the
//! snapshot reference, index vs full-scan band seeds, `rebalance_state` vs
//! the full-scan rebalancer, indexed vs full-sweep k-way refinement — live
//! beside the twins, which are test-only items of their crates
//! (`kappa-coarsen` `contract::tests`, `kappa-refine` `scheduler::tests` /
//! `band::tests`, `kappa-baselines` `kway_refine::tests`); they draw their
//! graphs from the same `tests/common/arbitrary_graph.rs`.

use kappa::coarsen::SpillConfig;
use kappa::coarsen::{CoarseningConfig, MatcherKind, MultilevelHierarchy};
use kappa::core::{default_spill_dir, partition_tiered};
use kappa::graph::boundary::{boundary_nodes, pair_boundary_nodes};
use kappa::graph::{BoundaryIndex, DynamicGraph, PartitionState, QuotientGraph};
use kappa::initial::random_partition;
use kappa::matching::{EdgeRating, MatchingAlgorithm};
use kappa::mem::{CompactCsr, PagedGraph, TierGraph, TierSpec};
use kappa::prelude::*;
use proptest::prelude::*;

mod common;
use common::{arbitrary_graph, xorshift};

const GPA: MatcherKind = MatcherKind::Sequential(MatchingAlgorithm::Gpa);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Satellite of the dist PR: the boundary-derived quotient (the production
    // path of `refine_partition` since this PR) must be bit-identical to the
    // retained full-scan `QuotientGraph::build` after ANY sequence of moves —
    // edge list and total cut alike.
    #[test]
    fn boundary_derived_quotient_is_bit_identical_to_the_full_scan(
        graph in arbitrary_graph(140),
        k in 2u32..7,
        seed in any::<u64>(),
    ) {
        let mut state_struct = PartitionState::build(&graph, random_partition(&graph, k, seed));
        let n = graph.num_nodes() as u64;
        let mut next = xorshift(seed);
        for step in 0..30 {
            let v = (next() % n) as u32;
            let to = (next() % k as u64) as u32;
            state_struct.apply_move(&graph, v, to);
            let derived = state_struct.quotient();
            let reference = kappa::graph::QuotientGraph::build(&graph, state_struct.partition());
            prop_assert_eq!(derived.edges(), reference.edges(), "edges diverged at step {}", step);
            prop_assert_eq!(
                state_struct.edge_cut(),
                state_struct.partition().edge_cut(&graph),
                "cut at step {}",
                step
            );
        }
    }

    // Satellite of the boundary-index PR: after ANY sequence of moves, the
    // incrementally maintained index must agree with a fresh full-graph scan,
    // both on the global boundary and on every pair boundary.
    #[test]
    fn boundary_index_matches_fresh_scans_after_random_moves(
        graph in arbitrary_graph(120),
        k in 2u32..6,
        seed in any::<u64>(),
    ) {
        let mut partition = random_partition(&graph, k, seed);
        let mut index = BoundaryIndex::build(&graph, &partition);
        let n = graph.num_nodes() as u64;
        let mut next = xorshift(seed);
        for step in 0..40 {
            let v = (next() % n) as u32;
            let to = (next() % k as u64) as u32;
            let from = partition.block_of(v);
            partition.assign(v, to);
            index.apply_move(&graph, &partition, v, from, to);
            let foreign = graph.edges_of(v).any(|(u, _)| partition.block_of(u) != to);
            prop_assert_eq!(index.is_boundary(v), foreign);
            prop_assert_eq!(
                index.boundary_nodes_sorted(),
                boundary_nodes(&graph, &partition),
                "global boundary diverged at step {}",
                step
            );
            for a in 0..k {
                for b in (a + 1)..k {
                    prop_assert_eq!(
                        index.pair_boundary_sorted(&partition, a, b),
                        pair_boundary_nodes(&graph, &partition, a, b),
                        "pair ({}, {}) diverged at step {}",
                        a,
                        b,
                        step
                    );
                }
            }
        }
    }

    // One pass per colour class: bucketing the boundary list by pair gives
    // every pair of a block-disjoint class exactly its own pair boundary, in
    // the same order, before and after random moves.
    #[test]
    fn class_boundaries_equal_the_per_pair_boundaries(
        graph in arbitrary_graph(150),
        k in 2u32..9,
        seed in any::<u64>(),
    ) {
        let mut partition = random_partition(&graph, k, seed);
        let mut index = BoundaryIndex::build(&graph, &partition);
        let n = graph.num_nodes() as u64;
        let mut next = xorshift(seed);
        for step in 0..8 {
            // A random block-disjoint class: a shuffled block order paired
            // off, then a random prefix of the pairs.
            let mut blocks: Vec<u32> = (0..k).collect();
            for i in (1..blocks.len()).rev() {
                blocks.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let pairs: Vec<(u32, u32)> = blocks.chunks_exact(2).map(|c| (c[0], c[1])).collect();
            let class = &pairs[..(next() % (pairs.len() as u64 + 1)) as usize];
            let buckets = index.class_boundaries_sorted(&partition, class);
            prop_assert_eq!(buckets.len(), class.len());
            for (&(a, b), bucket) in class.iter().zip(&buckets) {
                prop_assert_eq!(
                    bucket,
                    &index.pair_boundary_sorted(&partition, a, b),
                    "pair ({}, {}) at step {}",
                    a,
                    b,
                    step
                );
            }
            for _ in 0..5 {
                let (v, to) = ((next() % n) as u32, (next() % k as u64) as u32);
                let from = partition.block_of(v);
                partition.assign(v, to);
                index.apply_move(&graph, &partition, v, from, to);
            }
        }
    }

    // The maintained quotient: after every node move, edge insert, delete
    // and reweight absorbed by the state, its per-pair cut weights are the
    // full scan's quotient of the mutated graph.
    #[test]
    fn maintained_quotient_equals_the_full_scan_after_every_mutation(
        graph in arbitrary_graph(100),
        k in 2u32..7,
        seed in any::<u64>(),
    ) {
        let start = random_partition(&graph, k, seed);
        let mut live = DynamicGraph::new(graph);
        let mut state = PartitionState::build(&live, start);
        let n = live.num_nodes() as u64;
        let mut next = xorshift(seed);
        for step in 0..60 {
            let (v, u) = ((next() % n) as u32, (next() % n) as u32);
            let w = 1 + next() % 9;
            match next() % 4 {
                0 => {
                    state.apply_move(&live, v, (next() % k as u64) as u32);
                }
                1 => {
                    if live.insert_edge(v, u, w).is_ok() {
                        state.apply_edge_insert(v, u, w);
                    }
                }
                2 => {
                    if let Ok(old) = live.delete_edge(v, u) {
                        state.apply_edge_delete(v, u, old);
                    }
                }
                _ => {
                    if let Ok(old) = live.update_edge(v, u, w) {
                        state.apply_edge_reweight(v, u, old, w);
                    }
                }
            }
            let expected = QuotientGraph::build(&live, state.partition());
            prop_assert_eq!(state.quotient(), expected, "step {}", step);
            prop_assert_eq!(state.edge_cut(), state.partition().edge_cut(&live), "step {}", step);
        }
    }

    // Satellite of the persistent-state PR: a seeded index projection (edge
    // scans only for fine nodes whose coarse image is boundary) must produce
    // the exact same index a full O(n + m) build would, on every level.
    #[test]
    fn seeded_projection_index_is_identical_to_a_full_build(
        graph in arbitrary_graph(250),
        k in 2u32..6,
        seed in any::<u64>(),
    ) {
        let config = CoarseningConfig { stop_at_nodes: 24, ..Default::default() };
        let mut hierarchy = MultilevelHierarchy::build(&graph, GPA, EdgeRating::ExpansionStar2, &config);
        let coarsest = hierarchy.coarsest();
        let start = random_partition(coarsest, k, seed);
        let mut state = PartitionState::build(coarsest, start);
        while let Some(level) = hierarchy.pop() {
            let fine = hierarchy.coarsest();
            state = state.project(fine, &level.coarse_of);
            let full = BoundaryIndex::build(fine, state.partition());
            prop_assert!(
                full == *state.boundary(),
                "seeded index diverged from full build at level {}",
                hierarchy.num_levels() - 1
            );
            prop_assert_eq!(state.full_builds(), 1);
        }
    }

    // Satellite of the memory-tier PR: the compact delta-varint encoding is
    // a lossless re-encoding of CSR — round-tripping through it, and
    // streaming the same edges through the chunked two-pass builder, both
    // reproduce the original graph bit for bit.
    #[test]
    fn compact_encoding_round_trips_arbitrary_graphs(
        graph in arbitrary_graph(300),
    ) {
        let compact = CompactCsr::from_graph(&graph);
        prop_assert_eq!(&compact.to_csr(), &graph, "to_csr round trip");
        let edges: Vec<_> = graph.undirected_edges().collect();
        let src = kappa::graph::SliceEdgeSource::new(graph.num_nodes(), &edges);
        let streamed = TierGraph::from_source(&src, TierSpec::Compact).expect("compact build");
        prop_assert_eq!(&streamed.to_csr(), &graph, "streamed-build round trip");
    }

    // The full pipeline is *not* invariant across thread counts — the paper's
    // parallel matcher partitions the graph into one part per PE, so the
    // matching (and everything downstream) legitimately depends on the worker
    // count. The documented guarantee is determinism for a fixed seed AND
    // thread count; the two properties above are the stronger per-phase
    // invariances that hold regardless.
    #[test]
    fn full_partitioner_is_deterministic_per_seed_and_thread_count(
        graph in arbitrary_graph(200),
        k in 2u32..6,
        seed in any::<u64>(),
    ) {
        for threads in [1usize, 4] {
            let config = KappaConfig::fast(k).with_seed(seed).with_threads(threads);
            let first = KappaPartitioner::new(config).partition(&graph);
            let config = KappaConfig::fast(k).with_seed(seed).with_threads(threads);
            let second = KappaPartitioner::new(config).partition(&graph);
            prop_assert_eq!(
                first.partition.assignment(),
                second.partition.assignment(),
                "threads {}",
                threads
            );
            prop_assert_eq!(first.metrics.edge_cut, second.metrics.edge_cut);
        }
    }
}

/// Runs the tiered pipeline on `graph` hoisted onto `tier` and asserts the
/// partition is bit-identical to the classic in-RAM pipeline at one thread —
/// the memory-tier PR's headline invariant.
fn assert_tier_matches_classic(context: &str, graph: &CsrGraph, k: u32, seed: u64, tier: &str) {
    let config = KappaConfig::fast(k).with_seed(seed).with_threads(1);
    let classic = KappaPartitioner::new(config).partition(graph);
    let spill = {
        // One directory per call: the tests of this binary run on parallel
        // threads of one process, and each call removes its directory.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut s = SpillConfig::new(default_spill_dir(&format!("parity-{tier}-{call}")));
        // Force real spilling even on small instances.
        s.spill_above_half_edges = 500;
        s
    };
    std::fs::create_dir_all(&spill.spill_dir).expect("spill dir");
    let finest = match tier {
        "compact" => TierGraph::Compact(CompactCsr::from_graph(graph)),
        "paged" => {
            let mut g =
                PagedGraph::from_graph(graph, &spill.spill_dir.join("finest.kpg"), spill.cache)
                    .expect("paged build");
            g.set_delete_on_drop(true);
            TierGraph::Paged(g)
        }
        other => panic!("unknown tier {other}"),
    };
    let tiered = partition_tiered(finest, &config, &spill).expect("tiered run");
    assert_eq!(
        tiered.result.partition.assignment(),
        classic.partition.assignment(),
        "{context}: {tier} partition differs from classic"
    );
    assert_eq!(
        tiered.result.metrics.edge_cut, classic.metrics.edge_cut,
        "{context}: {tier} cut differs"
    );
    let _ = std::fs::remove_dir_all(&spill.spill_dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Satellite of the memory-tier PR: for arbitrary graphs, seeds and k, a
    // run on compact or paged storage is bit-identical to the classic in-RAM
    // run at one thread (the spill threshold is forced low so the paged case
    // really exercises on-disk levels).
    #[test]
    fn tiered_pipeline_is_bit_identical_across_storage_tiers(
        graph in arbitrary_graph(220),
        k in 2u32..7,
        seed in any::<u64>(),
    ) {
        assert_tier_matches_classic("proptest", &graph, k, seed, "compact");
        assert_tier_matches_classic("proptest", &graph, k, seed, "paged");
    }
}

/// The deterministic 2^15 instance of the memory-tier acceptance: paged vs
/// RAM bit-identity on a real rgg, per (seed, preset).
#[test]
fn tiers_match_classic_on_rgg_2e15() {
    let graph = kappa::gen::random_geometric_graph(1 << 15, 19);
    for seed in [0u64, 7] {
        assert_tier_matches_classic("rgg-2^15", &graph, 16, seed, "compact");
        assert_tier_matches_classic("rgg-2^15", &graph, 16, seed, "paged");
    }
}

/// Paged ≡ RAM on the three row layouts a paged file can take: a scattered
/// rgg stored in Morton order over its coordinates, an rmat (scattered, no
/// coordinates) in BFS order, and a grid whose row-major ids are already
/// local, stored in id order. Coarse levels inherit the order (and spill,
/// the threshold is forced low), so every level is read through it.
#[test]
fn laid_out_paged_runs_match_classic() {
    use kappa::graph::order::{bfs_order, morton_order};
    use kappa::graph::{GraphAccess, NodeOrder};
    use kappa::mem::PageCacheConfig;

    let rgg = kappa::gen::random_geometric_graph(1 << 13, 5);
    let rmat = kappa::gen::rmat_graph(12, 8, 5);
    let grid = kappa::gen::grid2d(64, 64);
    let morton = NodeOrder::new(morton_order(rgg.coords().unwrap())).unwrap();
    let bfs = NodeOrder::new(bfs_order(&rmat)).unwrap();
    for (name, graph, layout) in [
        ("rgg-2^13", &rgg, morton.as_ref()),
        ("rmat-2^12", &rmat, bfs.as_ref()),
        ("grid-64x64", &grid, None),
    ] {
        assert_eq!(layout.is_some(), name != "grid-64x64", "{name}");
        let dir = default_spill_dir(&format!("parity-layout-{name}"));
        std::fs::create_dir_all(&dir).expect("spill dir");
        let paged =
            PagedGraph::from_graph(graph, &dir.join("finest.kpg"), PageCacheConfig::default())
                .expect("paged build");
        assert_eq!(paged.storage_order(), layout, "{name}: stored row order");
        drop(paged);
        let _ = std::fs::remove_dir_all(&dir);
        for seed in [1u64, 4] {
            assert_tier_matches_classic(name, graph, 8, seed, "paged");
        }
    }
}

/// Same invariant on the standard small suite trio (rgg, grid, delaunay) —
/// including graphs with coordinates, which the paged tier drops.
#[test]
fn tiers_match_classic_on_suite_instances() {
    for (name, graph) in common::suite_instances() {
        assert_tier_matches_classic(name, &graph, 8, 3, "compact");
        assert_tier_matches_classic(name, &graph, 8, 3, "paged");
    }
}
