//! Acceptance suite of the distributed pipeline (`kappa-dist`):
//!
//! 1. **Rank-1 parity** — `partition_distributed` with one rank is
//!    cut-bit-identical (in fact assignment-bit-identical) to the
//!    shared-memory `KappaPartitioner` at one thread, across instance
//!    families, presets and seeds. Every distributed kernel degenerates to
//!    its shared counterpart, so any divergence is a bug.
//! 2. **Determinism per (seed, ranks)** — repeated runs produce identical
//!    assignments for every rank count.
//! 3. **Quality envelope** — multi-rank runs are feasible (balance ≤ 1 + ε)
//!    and land within 5 % mean cut of the rank-1 run over the
//!    rgg/grid/delaunay suite (geometric mean, the paper's aggregation).
//! 4. **Invariants** — exactly one full boundary-index build per rank, and
//!    zero full `O(n + m)` quotient scans in the production refinement.

use kappa::core::geometric_mean;
use kappa::gen::{delaunay_like_graph, grid2d, random_geometric_graph};
use kappa::graph::CsrGraph;
use kappa::prelude::*;

mod common;
use common::{assert_feasible, suite_instances};

fn dist_run(graph: &CsrGraph, config: KappaConfig, ranks: usize) -> kappa::dist::DistRunResult {
    partition_distributed(graph, &DistConfig::new(config, ranks))
        .expect("fault-free run must not fail")
}

#[test]
fn ranks_1_is_bit_identical_to_the_shared_memory_pipeline() {
    for (name, graph) in suite_instances() {
        for (preset, k, seed) in [
            (ConfigPreset::Fast, 4u32, 1u64),
            (ConfigPreset::Fast, 8, 3),
            (ConfigPreset::Minimal, 8, 5),
            (ConfigPreset::Strong, 4, 7),
        ] {
            let config = KappaConfig::preset(preset, k)
                .with_seed(seed)
                .with_threads(1);
            let shared = KappaPartitioner::new(config).partition(&graph);
            let dist = dist_run(&graph, config, 1);
            assert_eq!(
                dist.partition.assignment(),
                shared.partition.assignment(),
                "{name} {preset:?} k={k} seed={seed}: assignment diverged"
            );
            assert_eq!(
                dist.edge_cut, shared.metrics.edge_cut,
                "{name} {preset:?} k={k} seed={seed}: cut diverged"
            );
            assert_eq!(dist.hierarchy_levels, shared.hierarchy_levels);
            assert_eq!(dist.coarsest_nodes, shared.coarsest_nodes);
        }
    }
}

/// One rank runs the shared scheduler's searches — not merely ones that end
/// in the same assignment: every refinement counter, pair searches and
/// considered pairs included, equals the shared pipeline's at one thread.
#[test]
fn ranks_1_refinement_stats_match_the_shared_pipeline() {
    for (name, graph) in suite_instances() {
        for (preset, k, seed) in [
            (ConfigPreset::Fast, 4u32, 1u64),
            (ConfigPreset::Fast, 8, 3),
            (ConfigPreset::Minimal, 8, 5),
            (ConfigPreset::Strong, 4, 7),
        ] {
            let config = KappaConfig::preset(preset, k)
                .with_seed(seed)
                .with_threads(1);
            let shared = KappaPartitioner::new(config).partition(&graph);
            let dist = dist_run(&graph, config, 1);
            assert_eq!(
                dist.refinement, shared.refinement,
                "{name} {preset:?} k={k} seed={seed}: refinement stats diverged"
            );
        }
    }
}

#[test]
fn every_rank_count_is_deterministic_per_seed() {
    let graph = random_geometric_graph(3000, 11);
    for ranks in [1usize, 2, 4, 8] {
        let config = KappaConfig::fast(8).with_seed(13);
        let a = dist_run(&graph, config, ranks);
        let b = dist_run(&graph, config, ranks);
        assert_eq!(
            a.partition.assignment(),
            b.partition.assignment(),
            "ranks {ranks} not deterministic"
        );
        assert_eq!(a.edge_cut, b.edge_cut);
    }
}

#[test]
fn multi_rank_runs_are_feasible_and_within_the_quality_envelope() {
    let instances = vec![
        ("rgg-4000", random_geometric_graph(4000, 3)),
        ("grid-60x60", grid2d(60, 60)),
        ("delaunay-3000", delaunay_like_graph(3000, 9)),
    ];
    for k in [4u32, 8] {
        let mut ratios: Vec<f64> = Vec::new();
        for (name, graph) in &instances {
            let config = KappaConfig::fast(k).with_seed(2);
            let base = dist_run(graph, config, 1);
            let base_cut = base.edge_cut.max(1) as f64;
            for ranks in [2usize, 4, 8] {
                let dist = dist_run(graph, config, ranks);
                assert_feasible(
                    &format!("{name} ranks {ranks}"),
                    graph,
                    &dist.partition,
                    0.03,
                    dist.edge_cut,
                );
                ratios.push(dist.edge_cut as f64 / base_cut);
            }
        }
        let mean = geometric_mean(&ratios);
        assert!(
            mean <= 1.05,
            "k={k}: mean multi-rank cut ratio {mean:.4} exceeds the 5 % envelope \
             (ratios: {ratios:?})"
        );
    }
}

#[test]
fn exactly_one_full_boundary_index_build_per_rank() {
    let graph = random_geometric_graph(4000, 5);
    for ranks in [1usize, 2, 4, 8] {
        let result = dist_run(&graph, KappaConfig::fast(8).with_seed(3), ranks);
        assert!(result.hierarchy_levels > 1, "ranks {ranks} did not coarsen");
        assert_eq!(
            result.boundary_full_builds_per_rank,
            vec![1; ranks],
            "ranks {ranks}"
        );
    }
    // Degenerate runs build nothing.
    let r = dist_run(&graph, KappaConfig::fast(1), 4);
    assert_eq!(r.boundary_full_builds_per_rank, vec![0; 4]);
}

#[test]
fn production_refinement_performs_zero_full_quotient_scans() {
    let graph = random_geometric_graph(3000, 7);
    // Shared pipeline: the boundary-derived quotient replaced the last full
    // O(n + m) scan per global iteration.
    let shared = KappaPartitioner::new(KappaConfig::fast(8).with_seed(1)).partition(&graph);
    assert!(shared.refinement.global_iterations > 0);
    assert_eq!(shared.refinement.quotient_full_scans, 0);
    // Distributed pipeline: quotients are merged from boundary-priced
    // per-rank shares — the same invariant holds per rank.
    for ranks in [1usize, 4] {
        let dist = dist_run(&graph, KappaConfig::fast(8).with_seed(1), ranks);
        assert!(dist.refinement.global_iterations > 0);
        assert_eq!(dist.refinement.quotient_full_scans, 0, "ranks {ranks}");
    }
}

#[test]
fn rank_folding_is_deterministic_feasible_and_near_the_rank_1_cut() {
    let instances = vec![
        ("rgg-4000", random_geometric_graph(4000, 3)),
        ("grid-60x60", grid2d(60, 60)),
    ];
    let mut ratios: Vec<f64> = Vec::new();
    for (name, graph) in &instances {
        let config = KappaConfig::fast(8).with_seed(2);
        let base = dist_run(graph, config, 1);
        for ranks in [2usize, 8] {
            let folded = DistConfig::new(config, ranks).with_fold_threshold(2048);
            let a = partition_distributed(graph, &folded).expect("fold run");
            let b = partition_distributed(graph, &folded).expect("fold run");
            assert_eq!(
                a.partition.assignment(),
                b.partition.assignment(),
                "{name} ranks {ranks}: folded run not deterministic"
            );
            assert_feasible(
                &format!("{name} folded ranks {ranks}"),
                graph,
                &a.partition,
                0.03,
                a.edge_cut,
            );
            assert_eq!(a.boundary_full_builds_per_rank, vec![1; ranks]);
            ratios.push(a.edge_cut as f64 / base.edge_cut.max(1) as f64);
        }
    }
    let mean = geometric_mean(&ratios);
    assert!(
        mean <= 1.05,
        "folded runs exceed the 5 % envelope: {mean:.4} ({ratios:?})"
    );
}

#[test]
fn comm_stats_cover_every_phase_and_rank_1_sends_no_frames() {
    let graph = random_geometric_graph(3000, 7);
    let solo = dist_run(&graph, KappaConfig::fast(8).with_seed(1), 1);
    assert_eq!(solo.comm_per_rank.len(), 1);
    // One rank never crosses a rank boundary: every collective short-circuits.
    assert_eq!(solo.comm_per_rank[0].total.frames, 0);

    let dist = dist_run(&graph, KappaConfig::fast(8).with_seed(1), 4);
    assert_eq!(dist.comm_per_rank.len(), 4);
    for (rank, stats) in dist.comm_per_rank.iter().enumerate() {
        assert!(stats.total.frames > 0, "rank {rank} sent no frames");
        assert!(
            stats.total.collectives > 0,
            "rank {rank} ran no collectives"
        );
        let phases: Vec<&str> = stats.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            phases,
            ["coarsen", "initial", "refine", "project", "finish"],
            "rank {rank} phase labels"
        );
        let sum: u64 = stats.phases.iter().map(|(_, p)| p.frames).sum();
        assert_eq!(sum, stats.total.frames, "rank {rank} phase frames sum");
    }
}

/// Degenerate inputs, one table: {n = 0, k = 1, n < k, n < 2k} through all
/// four entry points. The single-PE paths (`partition` at one thread,
/// `partition_tiered`, `partition_distributed` at one rank) must agree bit
/// for bit, as must the two 2-rank paths (`partition_distributed` and
/// `partition_with_comm` on a `LocalCluster`); where the input short-circuits
/// (n = 0, k = 1) every path returns the one trivial partition.
#[test]
fn degenerate_inputs_agree_across_all_entry_points() {
    use kappa::coarsen::SpillConfig;
    use kappa::core::{default_spill_dir, partition_tiered};
    use kappa::dist::{partition_with_comm, LocalCluster};
    use kappa::mem::{CompactCsr, TierGraph};

    let path3 = kappa::graph::graph_from_edges(3, vec![(0, 1, 1), (1, 2, 1)]);
    let table: [(&str, CsrGraph, u32); 5] = [
        ("n = 0", CsrGraph::empty(), 4),
        ("k = 1", grid2d(3, 3), 1),
        ("n < k", path3, 4),
        ("n < k, grid", grid2d(3, 3), 16),
        ("n < 2k", grid2d(3, 3), 5),
    ];
    for (case, graph, k) in &table {
        let config = KappaConfig::fast(*k).with_seed(2).with_threads(1);
        let shared = KappaPartitioner::new(config).partition(graph);
        let tiered = partition_tiered(
            TierGraph::Compact(CompactCsr::from_graph(graph)),
            &config,
            &SpillConfig::new(default_spill_dir("degenerate")),
        )
        .expect("compact run");
        let one_rank = dist_run(graph, config, 1);
        let two_ranks = dist_run(graph, config, 2);
        let with_comm = LocalCluster::new(2)
            .run(|comm| partition_with_comm(comm, graph, &DistConfig::new(config, 2)))
            .remove(0)
            .expect("fault-free run must not fail")
            .expect("rank 0 assembles the result");

        let single_pe = [
            ("partition", &shared.partition, shared.hierarchy_levels),
            (
                "partition_tiered",
                &tiered.result.partition,
                tiered.result.hierarchy_levels,
            ),
            (
                "partition_distributed x1",
                &one_rank.partition,
                one_rank.hierarchy_levels,
            ),
        ];
        let two_rank = [
            (
                "partition_distributed x2",
                &two_ranks.partition,
                two_ranks.hierarchy_levels,
            ),
            (
                "partition_with_comm x2",
                &with_comm.partition,
                with_comm.hierarchy_levels,
            ),
        ];
        for group in [&single_pe[..], &two_rank[..]] {
            for (entry, partition, levels) in group {
                assert!(partition.validate(graph).is_ok(), "{case}: {entry}");
                assert_eq!(
                    partition.assignment(),
                    group[0].1.assignment(),
                    "{case}: {entry} diverged from {}",
                    group[0].0
                );
                // No input of this table is large enough to contract.
                assert_eq!(*levels, 1, "{case}: {entry}");
            }
        }
        if graph.num_nodes() == 0 || *k == 1 {
            let trivial = Partition::trivial(*k, graph.num_nodes());
            for (entry, partition, _) in single_pe.iter().chain(&two_rank) {
                assert_eq!(
                    partition.assignment(),
                    trivial.assignment(),
                    "{case}: {entry}"
                );
            }
            assert_eq!(shared.metrics.edge_cut, 0, "{case}");
            assert_eq!(two_ranks.edge_cut, 0, "{case}");
            assert_eq!(tiered.level_tiers, vec!["compact"], "{case}");
            assert_eq!(shared.boundary_full_builds, 0, "{case}");
            assert_eq!(two_ranks.boundary_full_builds_per_rank, vec![0; 2]);
        }
        // More ranks than most blocks have nodes: still a valid partition.
        let many = dist_run(graph, config, 8);
        assert!(many.partition.validate(graph).is_ok(), "{case}: 8 ranks");
    }
}

/// The message sequence in git, not in a CI cache: wire frames and
/// collectives summed over the ranks, and the `refine` phase's share of the
/// frames, as literals recorded before the two class schedules were merged,
/// less the two cut allreduces per refined level that went with the state's
/// cached cut (`4(R−1)` frames and `4R` collectives per level).
/// A schedule change that adds or drops a message moves them.
#[test]
fn refine_frames_are_pinned() {
    let graph = random_geometric_graph(1 << 13, 4);
    for (ranks, pinned) in [
        (2usize, (1849u64, 2684u64, 1614u64)),
        (4, (7773, 5624, 6486)),
    ] {
        let run = dist_run(&graph, KappaConfig::fast(8).with_seed(3), ranks);
        let (mut frames, mut collectives, mut refine_frames) = (0, 0, 0);
        for stats in &run.comm_per_rank {
            frames += stats.total.frames;
            collectives += stats.total.collectives;
            let refine = stats.phases.iter().filter(|(name, _)| name == "refine");
            refine_frames += refine.map(|(_, phase)| phase.frames).sum::<u64>();
        }
        assert_eq!(
            (frames, collectives, refine_frames),
            pinned,
            "ranks {ranks}: (frames, collectives, refine-phase frames)"
        );
    }
}

/// What a folded run produces, so moving the fold cannot change it
/// unnoticed: `refine_frames_are_pinned`'s instance with every level of at
/// most 2 048 global nodes folded onto half the active ranks (8 → 4 → 2 → 1
/// as the hierarchy shrinks), and once with a threshold of 8 192, which
/// folds the finest graph itself. Frames, collectives and refine-phase
/// frames summed over the ranks, the cut and the hierarchy depth, as
/// literals recorded at 82c7a8a, before the coarsening loop moved onto
/// `MultilevelHierarchy`; the message counts less the two cut allreduces
/// per refined level that went with the state's cached cut.
#[test]
fn folded_runs_are_pinned() {
    let graph = random_geometric_graph(1 << 13, 4);
    for (ranks, threshold, pinned) in [
        (
            4usize,
            2048usize,
            (8601u64, 6244u64, 7182u64, 351u64, 9usize),
        ),
        (8, 2048, (31521, 13264, 26012, 352, 8)),
        (4, 8192, (8427, 6148, 7098, 381, 9)),
    ] {
        let config = KappaConfig::fast(8).with_seed(3);
        let folded = DistConfig::new(config, ranks).with_fold_threshold(threshold);
        let run = partition_distributed(&graph, &folded).expect("fold run");
        let (mut frames, mut collectives, mut refine_frames) = (0, 0, 0);
        for stats in &run.comm_per_rank {
            frames += stats.total.frames;
            collectives += stats.total.collectives;
            let refine = stats.phases.iter().filter(|(name, _)| name == "refine");
            refine_frames += refine.map(|(_, phase)| phase.frames).sum::<u64>();
        }
        assert_eq!(
            (
                frames,
                collectives,
                refine_frames,
                run.edge_cut,
                run.hierarchy_levels
            ),
            pinned,
            "ranks {ranks}, threshold {threshold}: (frames, collectives, refine-phase frames, cut, levels)"
        );
    }
}

/// How many FM searches the home ranks run, and what they achieve: the
/// summed refinement counters of `refine_frames_are_pinned`'s instance at
/// `R ≥ 2`, where every pair search runs on a gathered region, as literals
/// recorded while the home search still had a local-iteration loop of its
/// own. The strong rows (depth-20 bands, five local iterations) are where
/// follow-up searches clip their bands to the gathered band most.
#[test]
fn gathered_refinement_stats_are_pinned() {
    let graph = random_geometric_graph(1 << 13, 4);
    for (preset, ranks, pinned) in [
        (
            ConfigPreset::Fast,
            2usize,
            (318usize, 318usize, 158usize, 174i64),
        ),
        (ConfigPreset::Fast, 4, (294, 294, 145, 173)),
        (ConfigPreset::Strong, 2, (562, 562, 306, 114)),
        (ConfigPreset::Strong, 4, (401, 401, 198, 177)),
    ] {
        let config = KappaConfig::preset(preset, 8).with_seed(3);
        let stats = dist_run(&graph, config, ranks).refinement;
        assert_eq!(
            (
                stats.pair_searches,
                stats.bands_built,
                stats.nodes_moved,
                stats.total_gain
            ),
            pinned,
            "{preset:?} ranks {ranks}: (pair searches, bands built, nodes moved, total gain)"
        );
    }
}

/// One rank searches its live view in place: no frame at all, and in the
/// `refine` phase only the `L_max` and quotient allgathers and rebalance
/// selections, no band BFS hops. Measured on `refine_frames_are_pinned`'s
/// instance; before the in-place search the refine phase ran 1 806
/// collectives here (1 934 in total), and 146 (274) before the levels
/// stopped allreducing the cut before and after refining.
#[test]
fn rank_1_refinement_runs_no_band_collectives() {
    let graph = random_geometric_graph(1 << 13, 4);
    let run = dist_run(&graph, KappaConfig::fast(8).with_seed(3), 1);
    let stats = &run.comm_per_rank[0];
    let refine: u64 = stats
        .phases
        .iter()
        .filter(|(name, _)| name == "refine")
        .map(|(_, phase)| phase.collectives)
        .sum();
    assert_eq!(stats.total.frames, 0, "one rank sends no frame");
    assert_eq!(
        (refine, stats.total.collectives),
        (114, 242),
        "(refine-phase, total) collectives"
    );
}
