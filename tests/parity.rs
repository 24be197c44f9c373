//! Parallel/sequential parity: the parallel contraction, the delta-move
//! refinement scheduler, the incremental boundary index and the persistent
//! `PartitionState` must be deterministic and bit-identical to their
//! sequential / full-scan / recompute-from-scratch reference
//! implementations, across seeded random graphs and worker counts from 1 to
//! 8. (`refine_partition` seeds its bands from the `BoundaryIndex` and the
//! reference re-scans the whole graph, so the delta-vs-snapshot property
//! below doubles as the end-to-end index-on vs. index-off parity proof; the
//! interleaved-mutation property extends it to rebalance moves and seeded
//! level projections, the pieces PR 4 routed through the state.)
//!
//! These properties are what make the parallelisation safe to adopt: a fixed
//! seed reproduces the exact same hierarchy and partition no matter how many
//! threads run the pipeline.

use kappa::baselines::{greedy_kway_refinement, greedy_kway_refinement_indexed};
use kappa::coarsen::SpillConfig;
use kappa::coarsen::{
    contract_matching, contract_matching_reference, CoarseningConfig, MatcherKind,
    MultilevelHierarchy,
};
use kappa::core::{default_spill_dir, partition_tiered};
use kappa::graph::boundary::{band_around_boundary, boundary_nodes, pair_boundary_nodes};
use kappa::graph::{BoundaryIndex, PartitionState};
use kappa::initial::random_partition;
use kappa::matching::{compute_matching, EdgeRating, MatchingAlgorithm};
use kappa::mem::{CompactCsr, PagedGraph, TierGraph, TierSpec};
use kappa::prelude::*;
use kappa::refine::{rebalance, rebalance_state};
use kappa::refine::{refine_partition, refine_partition_reference, RefinementConfig};
use kappa::refine::{BandSeeder, FullScanSeeder, IndexSeeder};
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

mod common;
use common::{arbitrary_graph, xorshift};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const GPA: MatcherKind = MatcherKind::Sequential(MatchingAlgorithm::Gpa);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_contraction_is_bit_identical_to_sequential(
        graph in arbitrary_graph(300),
        seed in any::<u64>(),
    ) {
        let matching = compute_matching(
            &graph,
            MatchingAlgorithm::Gpa,
            EdgeRating::ExpansionStar2,
            seed,
        );
        let reference = contract_matching_reference(&graph, &matching);
        for threads in THREAD_COUNTS {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let parallel = pool.install(|| contract_matching(&graph, &matching));
            prop_assert_eq!(&parallel.coarse_of, &reference.coarse_of, "threads {}", threads);
            prop_assert_eq!(
                &parallel.coarse_graph,
                &reference.coarse_graph,
                "threads {}",
                threads
            );
        }
    }

    #[test]
    fn delta_move_refinement_is_bit_identical_to_snapshot_reference(
        graph in arbitrary_graph(250),
        k in 2u32..9,
        seed in any::<u64>(),
    ) {
        let start = random_partition(&graph, k, seed);
        let config = RefinementConfig {
            max_global_iterations: 3,
            seed,
            ..Default::default()
        };
        let mut expected = start.clone();
        let expected_stats = refine_partition_reference(&graph, &mut expected, &config);
        for threads in THREAD_COUNTS {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let mut state = PartitionState::build(&graph, start.clone());
            let stats = pool.install(|| refine_partition(&graph, &mut state, &config));
            prop_assert_eq!(
                state.partition().assignment(),
                expected.assignment(),
                "threads {}",
                threads
            );
            prop_assert_eq!(stats.total_gain, expected_stats.total_gain);
            prop_assert_eq!(stats.pair_searches, expected_stats.pair_searches);
            prop_assert_eq!(stats.nodes_moved, expected_stats.nodes_moved);
            prop_assert!(state.verify_exact(&graph).is_ok(), "state not returned current");
        }
    }

    // Satellite of the dist PR: the boundary-derived quotient (the production
    // path of `refine_partition` since this PR) must be bit-identical to the
    // retained full-scan `QuotientGraph::build` after ANY sequence of moves —
    // edge list, adjacency and total cut alike.
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
            let derived = state_struct.quotient(&graph);
            let reference = kappa::graph::QuotientGraph::build(&graph, state_struct.partition());
            prop_assert_eq!(derived.edges(), reference.edges(), "edges diverged at step {}", step);
            prop_assert_eq!(derived.total_cut(), state_struct.edge_cut(), "cut at step {}", step);
            for b in 0..k {
                prop_assert_eq!(derived.neighbors(b), reference.neighbors(b));
            }
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
            partition.assign(v, to);
            index.apply_move(&graph, v, to);
            prop_assert_eq!(index.block_of(v), to);
            prop_assert_eq!(
                index.boundary_nodes_sorted(),
                boundary_nodes(&graph, &partition),
                "global boundary diverged at step {}",
                step
            );
            for a in 0..k {
                for b in (a + 1)..k {
                    prop_assert_eq!(
                        index.pair_boundary_sorted(a, b),
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

    // Band seeds drawn from the boundary index must be bit-identical to the
    // retained full-scan reference — initially and after every batch of
    // simulated FM moves the seeder observes — and so must the bands grown
    // from them.
    #[test]
    fn index_seeder_band_seeds_are_bit_identical_to_full_scan(
        graph in arbitrary_graph(150),
        k in 2u32..5,
        seed in any::<u64>(),
    ) {
        let partition = random_partition(&graph, k, seed);
        let index = BoundaryIndex::build(&graph, &partition);
        let n = graph.num_nodes() as u64;
        let (a, b) = (0u32, 1u32);
        let mut with_index = IndexSeeder::new(&graph, &index, a, b);
        let mut full_scan = FullScanSeeder::new(&graph, a, b);
        // `view` plays the DeltaPairView: the pair's live state during the
        // worker's local iterations, diverging from the index by exactly the
        // observed moves.
        let mut view = partition.clone();
        let mut next = xorshift(seed);
        for round in 0..6 {
            let expected = BandSeeder::<Partition>::seeds(&mut full_scan, &view);
            let got = BandSeeder::<Partition>::seeds(&mut with_index, &view);
            prop_assert_eq!(&got, &expected, "seeds diverged in round {}", round);
            for depth in [1usize, 3] {
                prop_assert_eq!(
                    band_around_boundary(&graph, &view, &got, (a, b), depth),
                    band_around_boundary(&graph, &view, &expected, (a, b), depth),
                    "band diverged in round {} depth {}",
                    round,
                    depth
                );
            }
            // Simulate one FM result: a few nodes of the pair switch sides.
            let mut moves = Vec::new();
            for _ in 0..4 {
                let v = (next() % n) as u32;
                let bv = view.block_of(v);
                if bv == a || bv == b {
                    let to = if bv == a { b } else { a };
                    view.assign(v, to);
                    moves.push((v, to));
                }
            }
            BandSeeder::<Partition>::observe_moves(&mut with_index, &moves);
            BandSeeder::<Partition>::observe_moves(&mut full_scan, &moves);
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
        let hierarchy = MultilevelHierarchy::build(graph, GPA, EdgeRating::ExpansionStar2, &config);
        let coarsest = hierarchy.coarsest();
        let start = random_partition(coarsest, k, seed);
        let mut state = PartitionState::build(coarsest, start);
        for level in (1..hierarchy.num_levels()).rev() {
            state = hierarchy.project_state_one_level(level, &state);
            let fine = hierarchy.graph_at(level - 1);
            let full = BoundaryIndex::build(fine, state.partition());
            prop_assert!(
                full == *state.boundary(),
                "seeded index diverged from full build at level {}",
                level - 1
            );
            prop_assert_eq!(state.full_builds(), 1);
        }
    }

    // Tentpole property: arbitrary interleavings of FM delta-moves (through
    // the parallel scheduler), rebalance moves and level projections keep the
    // PartitionState exact — weights, boundary index AND cached cut match a
    // fresh recomputation after every step, for every thread count — and the
    // whole interleaving stays bit-identical to the reference pipeline that
    // re-derives everything from scratch.
    #[test]
    fn partition_state_stays_exact_under_interleaved_mutations(
        graph in arbitrary_graph(160),
        k in 2u32..6,
        seed in any::<u64>(),
    ) {
        let config = CoarseningConfig { stop_at_nodes: 24, ..Default::default() };
        let hierarchy = MultilevelHierarchy::build(graph, GPA, EdgeRating::ExpansionStar2, &config);
        let coarsest = hierarchy.coarsest();
        let start = random_partition(coarsest, k, seed);
        let refine_config = RefinementConfig {
            max_global_iterations: 2,
            seed,
            ..Default::default()
        };
        for threads in THREAD_COUNTS {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let mut state = PartitionState::build(coarsest, start.clone());
            let mut reference = start.clone();
            // FM on the coarsest level…
            pool.install(|| refine_partition(coarsest, &mut state, &refine_config));
            refine_partition_reference(coarsest, &mut reference, &refine_config);
            prop_assert!(state.verify_exact(coarsest).is_ok(), "after coarsest FM");
            prop_assert_eq!(state.partition().assignment(), reference.assignment());
            for level in (1..hierarchy.num_levels()).rev() {
                // …then, per level: project, rebalance against a tight bound
                // (forcing repair moves), and run FM again.
                state = hierarchy.project_state_one_level(level, &state);
                reference = hierarchy.project_one_level(level, &reference);
                let fine = hierarchy.graph_at(level - 1);
                prop_assert!(state.verify_exact(fine).is_ok(), "after projection");

                let l_max = Partition::l_max(fine, k, 0.0);
                let moved_state = rebalance_state(fine, &mut state, l_max);
                let moved_ref = rebalance(fine, &mut reference, l_max);
                prop_assert_eq!(moved_state, moved_ref, "rebalance move counts");
                prop_assert_eq!(state.partition().assignment(), reference.assignment());
                prop_assert!(state.verify_exact(fine).is_ok(), "after rebalance");

                pool.install(|| refine_partition(fine, &mut state, &refine_config));
                refine_partition_reference(fine, &mut reference, &refine_config);
                prop_assert_eq!(state.partition().assignment(), reference.assignment());
                prop_assert!(state.verify_exact(fine).is_ok(), "after FM");
            }
            prop_assert_eq!(state.full_builds(), 1, "more than one full index build");
        }
    }

    // Satellite: the index-backed boundary sweep of the k-way baseline must
    // be bit-identical to the retained full-sweep reference, including the
    // mid-pass boundary growth caused by its own moves.
    #[test]
    fn indexed_kway_refinement_matches_the_full_sweep_reference(
        graph in arbitrary_graph(250),
        k in 2u32..7,
        passes in 1usize..5,
        seed in any::<u64>(),
    ) {
        let start = random_partition(&graph, k, seed);
        let l_max = Partition::l_max(&graph, k, 0.05);
        let mut reference = start.clone();
        let gain_ref = greedy_kway_refinement(&graph, &mut reference, l_max, passes);
        let mut state = PartitionState::build(&graph, start);
        let gain_idx = greedy_kway_refinement_indexed(&graph, &mut state, l_max, passes);
        prop_assert_eq!(gain_idx, gain_ref);
        prop_assert_eq!(state.partition().assignment(), reference.assignment());
        prop_assert!(state.verify_exact(&graph).is_ok());
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

/// Same invariant on the standard small suite trio (rgg, grid, delaunay) —
/// including graphs with coordinates, which the paged tier drops.
#[test]
fn tiers_match_classic_on_suite_instances() {
    for (name, graph) in common::suite_instances() {
        assert_tier_matches_classic(name, &graph, 8, 3, "compact");
        assert_tier_matches_classic(name, &graph, 8, 3, "paged");
    }
}
