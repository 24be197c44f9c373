//! Golden fingerprints: the partition every entry point produced at the
//! commit *before* the single-driver refactor, pinned per
//! (instance, preset, k, path).
//!
//! Every other bit-identity suite compares two paths of the same commit;
//! this table is the only thing that notices when all of them move together.
//! A row is the FNV-1a-64 hash of `partition.assignment()` plus
//! `hierarchy_levels`. A second table pins the dynamic path (`DynamicSession`
//! repairs through `refine_local`) the same way, a third the Scotch-like
//! baseline (the one caller of the k-way balance repair outside the KaPPa
//! pipeline), a fourth the kMetis- and parMetis-like baselines. A legitimate
//! algorithmic change regenerates the tables: the failure message prints
//! every row in source form.

use kappa::baselines::{BaselinePartitioner, MetisLike, ParMetisLike, ScotchLike};
use kappa::coarsen::SpillConfig;
use kappa::core::{default_spill_dir, partition_tiered, DynamicConfig, DynamicSession};
use kappa::gen::{grid2d, random_geometric_graph, rmat_graph};
use kappa::graph::CsrGraph;
use kappa::mem::{CompactCsr, PageCacheConfig, PagedGraph, TierGraph};
use kappa::prelude::*;

mod common;
use common::xorshift;

const PATHS: [&str; 6] = [
    "threads1", "threads2", "ranks1", "ranks2", "compact", "paged",
];

fn fnv1a64(blocks: &[u32]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in blocks.iter().flat_map(|b| b.to_le_bytes()) {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs one path and returns `(assignment hash, hierarchy_levels)`.
fn run(graph: &CsrGraph, config: KappaConfig, path: &str, tag: &str) -> (u64, usize) {
    let shared = |threads| {
        let r = KappaPartitioner::new(config.with_threads(threads)).partition(graph);
        (fnv1a64(r.partition.assignment()), r.hierarchy_levels)
    };
    let dist = |ranks| {
        let r = partition_distributed(graph, &DistConfig::new(config, ranks)).expect("dist run");
        (fnv1a64(r.partition.assignment()), r.hierarchy_levels)
    };
    let tiered = |paged: bool| {
        // A forced spill threshold and a small cache, so several levels of
        // even these small instances really live on disk.
        let spill = SpillConfig {
            spill_dir: default_spill_dir(&format!("golden-{}", tag.replace('/', "-"))),
            spill_above_half_edges: 2000,
            cache: PageCacheConfig {
                page_size: 4096,
                cache_pages: 16,
            },
        };
        std::fs::create_dir_all(&spill.spill_dir).expect("spill dir");
        let finest = if paged {
            let file = spill.spill_dir.join("finest.kpg");
            let mut g = PagedGraph::from_graph(graph, &file, spill.cache).expect("paged build");
            g.set_delete_on_drop(true);
            TierGraph::Paged(g)
        } else {
            TierGraph::Compact(CompactCsr::from_graph(graph))
        };
        let r = partition_tiered(finest, &config.with_threads(1), &spill).expect("tiered run");
        if paged {
            assert!(
                r.level_tiers.iter().filter(|t| **t == "paged").count() >= 2,
                "{tag}: levels did not spill: {:?}",
                r.level_tiers
            );
        }
        let _ = std::fs::remove_dir_all(&spill.spill_dir);
        (
            fnv1a64(r.result.partition.assignment()),
            r.result.hierarchy_levels,
        )
    };
    match path {
        "threads1" => shared(1),
        "threads2" => shared(2),
        "ranks1" => dist(1),
        "ranks2" => dist(2),
        "compact" => tiered(false),
        "paged" => tiered(true),
        other => unreachable!("unknown path {other}"),
    }
}

#[test]
fn every_entry_point_reproduces_the_golden_table() {
    let instances = [
        ("rgg12", random_geometric_graph(1 << 12, 17)),
        ("grid64", grid2d(64, 64)),
        ("rmat11", rmat_graph(11, 8, 23)),
    ];
    let mut actual: Vec<(String, u64, usize)> = Vec::new();
    for (name, graph) in &instances {
        for preset in [ConfigPreset::Minimal, ConfigPreset::Fast] {
            for k in [4u32, 16] {
                let config = KappaConfig::preset(preset, k).with_seed(7);
                for path in PATHS {
                    let tag = format!("{name}/{}/k{k}/{path}", preset.name());
                    let (hash, levels) = run(graph, config, path, &tag);
                    actual.push((tag, hash, levels));
                }
            }
        }
    }
    let matches = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN)
            .all(|(a, g)| (a.0.as_str(), a.1, a.2) == *g);
    if !matches {
        let table: String = actual
            .iter()
            .map(|(tag, hash, levels)| format!("    (\"{tag}\", {hash:#018x}, {levels}),\n"))
            .collect();
        panic!("golden table mismatch; the rows this commit produces:\n{table}");
    }
}

/// The dynamic path, which nothing else pins: `tests/dynamic.rs` checks that
/// the maintained state stays exact, not which moves `refine_local` makes.
/// One seeded mutation stream per row — cross-cut chords, reweights, deletes
/// and node inserts — with a manual `refine_now` every 40 mutations; the row
/// is the final assignment's hash plus the summed repair statistics.
#[test]
fn dynamic_sessions_reproduce_the_golden_table() {
    let instances = [
        ("rgg12", random_geometric_graph(1 << 12, 17)),
        ("grid64", grid2d(64, 64)),
    ];
    let mut actual: Vec<(String, u64, usize, usize, i64)> = Vec::new();
    for (name, graph) in &instances {
        for k in [4u32, 16] {
            let kappa = KappaConfig::fast(k).with_seed(7).with_threads(1);
            for (label, config) in [
                ("default", DynamicConfig::default()),
                ("matching", DynamicConfig::matching(&kappa)),
            ] {
                let mut session = DynamicSession::bootstrap(
                    graph.clone(),
                    &kappa,
                    config.with_auto_refine(false),
                );
                let mut next = xorshift(0x9e37_79b9_7f4a_7c15 ^ (u64::from(k) << 32));
                let (mut searches, mut moved, mut gain) = (0usize, 0usize, 0i64);
                for step in 0..480 {
                    let n = session.graph().num_nodes() as u64;
                    let (u, v) = ((next() % n) as u32, (next() % n) as u32);
                    match next() % 8 {
                        0..=3 if u != v => {
                            let _ = session.insert_edge(u, v, 1 + next() % 9);
                        }
                        4 | 5 => {
                            let mut edges = session.graph().edges_of_collected(u);
                            edges.sort_unstable();
                            if !edges.is_empty() {
                                let (t, _) = edges[(next() % edges.len() as u64) as usize];
                                if step % 2 == 0 {
                                    session
                                        .update_edge(u, t, 1 + next() % 20)
                                        .expect("live edge");
                                } else {
                                    session.delete_edge(u, t).expect("live edge");
                                }
                            }
                        }
                        6 => {
                            let id = session.insert_node(1 + next() % 3, None).expect("insert");
                            if session.graph().is_alive(u) {
                                let _ = session.insert_edge(id, u, 1 + next() % 9);
                            }
                        }
                        _ => {}
                    }
                    if step % 40 == 39 {
                        let stats = session.refine_now();
                        searches += stats.pair_searches;
                        moved += stats.nodes_moved;
                        gain += stats.total_gain;
                    }
                }
                session.verify().expect("maintained state is exact");
                let hash = fnv1a64(session.state().partition().assignment());
                actual.push((format!("{name}/k{k}/{label}"), hash, searches, moved, gain));
            }
        }
    }
    let matches = actual.len() == GOLDEN_DYNAMIC.len()
        && actual
            .iter()
            .zip(GOLDEN_DYNAMIC)
            .all(|(a, g)| (a.0.as_str(), a.1, a.2, a.3, a.4) == *g);
    if !matches {
        let table: String = actual
            .iter()
            .map(|(tag, hash, searches, moved, gain)| {
                format!("    (\"{tag}\", {hash:#018x}, {searches}, {moved}, {gain}),\n")
            })
            .collect();
        panic!("dynamic golden table mismatch; the rows this commit produces:\n{table}");
    }
}

/// The Scotch-like baseline: recursive bisection, then the k-way balance
/// repair — which every k = 4 and k = 8 run really performs
/// (`scotch_like::tests::final_repair_fires_on_the_golden_instances` asserts
/// that the bisection tree alone leaves them infeasible). The uneven splits
/// of k = 3, 5 and 6 also run each bisection's proportion repair.
#[test]
fn scotch_like_reproduces_the_golden_table() {
    let instances = [
        ("rgg12", random_geometric_graph(1 << 12, 17)),
        ("grid64", grid2d(64, 64)),
    ];
    let mut actual: Vec<(String, u64, u64)> = Vec::new();
    for (name, graph) in &instances {
        for k in [3u32, 4, 5, 6, 8] {
            let partition = ScotchLike.partition(graph, k, 0.03, 1);
            assert!(partition.is_balanced(graph, 0.03), "{name}/k{k}");
            let hash = fnv1a64(partition.assignment());
            actual.push((format!("{name}/k{k}"), hash, partition.edge_cut(graph)));
        }
    }
    let matches = actual.len() == GOLDEN_SCOTCH_LIKE.len()
        && actual
            .iter()
            .zip(GOLDEN_SCOTCH_LIKE)
            .all(|(a, g)| (a.0.as_str(), a.1, a.2) == *g);
    if !matches {
        let table: String = actual
            .iter()
            .map(|(tag, hash, cut)| format!("    (\"{tag}\", {hash:#018x}, {cut}),\n"))
            .collect();
        panic!("scotch-like golden table mismatch; the rows this commit produces:\n{table}");
    }
}

/// The two k-way baselines, kMetis-like and parMetis-like (the latter with a
/// fixed two matching parts, so the row does not depend on the machine's
/// thread count), on the KaPPa table's three instances.
#[test]
fn metis_family_reproduces_the_golden_table() {
    let instances = [
        ("rgg12", random_geometric_graph(1 << 12, 17)),
        ("grid64", grid2d(64, 64)),
        ("rmat11", rmat_graph(11, 8, 23)),
    ];
    let tools: [(&str, &dyn BaselinePartitioner); 2] = [
        ("kmetis", &MetisLike),
        ("parmetis", &ParMetisLike { num_parts: 2 }),
    ];
    let mut actual: Vec<(String, u64, u64)> = Vec::new();
    for (tool, partitioner) in tools {
        for (name, graph) in &instances {
            for k in [4u32, 16] {
                let partition = partitioner.partition(graph, k, 0.03, 7);
                let hash = fnv1a64(partition.assignment());
                actual.push((
                    format!("{tool}/{name}/k{k}"),
                    hash,
                    partition.edge_cut(graph),
                ));
            }
        }
    }
    let matches = actual.len() == GOLDEN_METIS_FAMILY.len()
        && actual
            .iter()
            .zip(GOLDEN_METIS_FAMILY)
            .all(|(a, g)| (a.0.as_str(), a.1, a.2) == *g);
    if !matches {
        let table: String = actual
            .iter()
            .map(|(tag, hash, cut)| format!("    (\"{tag}\", {hash:#018x}, {cut}),\n"))
            .collect();
        panic!("metis-family golden table mismatch; the rows this commit produces:\n{table}");
    }
}

/// `(tool/instance/k, FNV-1a-64 of the assignment, edge cut)` at ε = 0.03,
/// seed 7. Generated at the commit before the baselines' uncoarsening moved
/// into `MultilevelHierarchy::uncoarsen`.
const GOLDEN_METIS_FAMILY: &[(&str, u64, u64)] = &[
    ("kmetis/rgg12/k4", 0x9919de3095a89195, 204),
    ("kmetis/rgg12/k16", 0xbe277a38cd455b6b, 732),
    ("kmetis/grid64/k4", 0x9c1be269b10e48e5, 237),
    ("kmetis/grid64/k16", 0x7cade68cdcf49abe, 552),
    ("kmetis/rmat11/k4", 0xad9276237cbeb2e5, 7809),
    ("kmetis/rmat11/k16", 0xa1c1edf49a8887a6, 10118),
    ("parmetis/rgg12/k4", 0x2583085d768df174, 278),
    ("parmetis/rgg12/k16", 0x635dbecd67fbe72d, 1029),
    ("parmetis/grid64/k4", 0xeffaa6068155f6d7, 175),
    ("parmetis/grid64/k16", 0x122d63639927105b, 657),
    ("parmetis/rmat11/k4", 0x64dde3a074f70747, 5951),
    ("parmetis/rmat11/k16", 0xc01f3df30e5aad57, 9791),
];

/// `(instance/k, FNV-1a-64 of the assignment, edge cut)` at ε = 0.03, seed 1.
/// Generated at the commit before the final repair moved from the full-scan
/// rebalancer to `rebalance_state`.
/// The uneven splits (k = 3, 5, 6), which run the bisection's proportion
/// repair, were generated at the commit before that repair moved onto the
/// bisection's `PartitionState`.
const GOLDEN_SCOTCH_LIKE: &[(&str, u64, u64)] = &[
    ("rgg12/k3", 0x5127af18dcbcc994, 248),
    ("rgg12/k4", 0x9b0c60a309b34cf7, 171),
    ("rgg12/k5", 0x6bffbf152356ee62, 361),
    ("rgg12/k6", 0x959847e5e2bfcd03, 325),
    ("rgg12/k8", 0xa6de2008938d7ff5, 282),
    ("grid64/k3", 0x3ff7a4c4c7908684, 132),
    ("grid64/k4", 0xdfec1ad402c878d6, 193),
    ("grid64/k5", 0xd4373b66a94bcbd5, 193),
    ("grid64/k6", 0xf6adf8a6875d8751, 271),
    ("grid64/k8", 0x3b96132f08977433, 339),
];

/// `(instance/k/refine config, FNV-1a-64 of the final assignment,
/// pair_searches, nodes_moved, total_gain)` — the last three summed over the
/// session's repairs. Generated at the commit before repairs refined the
/// live graph in place, with edge picks taken from sorted rows.
const GOLDEN_DYNAMIC: &[(&str, u64, usize, usize, i64)] = &[
    ("rgg12/k4/default", 0xa5a588f504399cc5, 205, 136, 351),
    ("rgg12/k4/matching", 0xd12c529fa59db597, 204, 142, 351),
    ("rgg12/k16/default", 0x72294022cebbddd1, 1816, 260, 575),
    ("rgg12/k16/matching", 0xfc5be74c84f5e2b3, 1823, 271, 567),
    ("grid64/k4/default", 0x681ac4ac06156b24, 224, 392, 612),
    ("grid64/k4/matching", 0xa172763a6f4b1b27, 264, 464, 613),
    ("grid64/k16/default", 0x467f2bc1b5e68279, 1802, 396, 806),
    ("grid64/k16/matching", 0x8a281671f4bbdab4, 1872, 363, 804),
];

/// `(instance/preset/k/path, FNV-1a-64 of the assignment, hierarchy_levels)`.
const GOLDEN: &[(&str, u64, usize)] = &[
    ("rgg12/KaPPa-Minimal/k4/threads1", 0xbb99c878717593b5, 9),
    ("rgg12/KaPPa-Minimal/k4/threads2", 0xe27cc8e1eb7f3084, 9),
    ("rgg12/KaPPa-Minimal/k4/ranks1", 0xbb99c878717593b5, 9),
    ("rgg12/KaPPa-Minimal/k4/ranks2", 0x2a87ea0639effa44, 9),
    ("rgg12/KaPPa-Minimal/k4/compact", 0xbb99c878717593b5, 9),
    ("rgg12/KaPPa-Minimal/k4/paged", 0xbb99c878717593b5, 9),
    ("rgg12/KaPPa-Minimal/k16/threads1", 0xb7b6686bd704ffd3, 6),
    ("rgg12/KaPPa-Minimal/k16/threads2", 0x819a12e065cb1fd9, 6),
    ("rgg12/KaPPa-Minimal/k16/ranks1", 0xb7b6686bd704ffd3, 6),
    ("rgg12/KaPPa-Minimal/k16/ranks2", 0xac3776ac98e1f45d, 6),
    ("rgg12/KaPPa-Minimal/k16/compact", 0xb7b6686bd704ffd3, 6),
    ("rgg12/KaPPa-Minimal/k16/paged", 0xb7b6686bd704ffd3, 6),
    ("rgg12/KaPPa-Fast/k4/threads1", 0x73777a1c75bd3a07, 9),
    ("rgg12/KaPPa-Fast/k4/threads2", 0x7c5eb1a714d412e5, 9),
    ("rgg12/KaPPa-Fast/k4/ranks1", 0x73777a1c75bd3a07, 9),
    ("rgg12/KaPPa-Fast/k4/ranks2", 0xc5831bce43c26705, 9),
    ("rgg12/KaPPa-Fast/k4/compact", 0x73777a1c75bd3a07, 9),
    ("rgg12/KaPPa-Fast/k4/paged", 0x73777a1c75bd3a07, 9),
    ("rgg12/KaPPa-Fast/k16/threads1", 0x9b0af1bea0e45af4, 6),
    ("rgg12/KaPPa-Fast/k16/threads2", 0xf3c990ec6c1a256f, 6),
    ("rgg12/KaPPa-Fast/k16/ranks1", 0x9b0af1bea0e45af4, 6),
    ("rgg12/KaPPa-Fast/k16/ranks2", 0x17379289933f08b5, 6),
    ("rgg12/KaPPa-Fast/k16/compact", 0x9b0af1bea0e45af4, 6),
    ("rgg12/KaPPa-Fast/k16/paged", 0x9b0af1bea0e45af4, 6),
    ("grid64/KaPPa-Minimal/k4/threads1", 0x695e4920c469d245, 8),
    ("grid64/KaPPa-Minimal/k4/threads2", 0x6f114193aad658d5, 8),
    ("grid64/KaPPa-Minimal/k4/ranks1", 0x695e4920c469d245, 8),
    ("grid64/KaPPa-Minimal/k4/ranks2", 0x5b1c83f6dd55c157, 8),
    ("grid64/KaPPa-Minimal/k4/compact", 0x695e4920c469d245, 8),
    ("grid64/KaPPa-Minimal/k4/paged", 0x695e4920c469d245, 8),
    ("grid64/KaPPa-Minimal/k16/threads1", 0xab8ab6c52437a239, 6),
    ("grid64/KaPPa-Minimal/k16/threads2", 0x0b2f6b27789dc67a, 6),
    ("grid64/KaPPa-Minimal/k16/ranks1", 0xab8ab6c52437a239, 6),
    ("grid64/KaPPa-Minimal/k16/ranks2", 0xa0dcea60521db6af, 6),
    ("grid64/KaPPa-Minimal/k16/compact", 0xab8ab6c52437a239, 6),
    ("grid64/KaPPa-Minimal/k16/paged", 0xab8ab6c52437a239, 6),
    ("grid64/KaPPa-Fast/k4/threads1", 0xe173b91dc0031d36, 8),
    ("grid64/KaPPa-Fast/k4/threads2", 0xe2907592ef1d4935, 8),
    ("grid64/KaPPa-Fast/k4/ranks1", 0xe173b91dc0031d36, 8),
    ("grid64/KaPPa-Fast/k4/ranks2", 0x8c9f9a8751059755, 8),
    ("grid64/KaPPa-Fast/k4/compact", 0xe173b91dc0031d36, 8),
    ("grid64/KaPPa-Fast/k4/paged", 0xe173b91dc0031d36, 8),
    ("grid64/KaPPa-Fast/k16/threads1", 0x2dac22a66d03196c, 6),
    ("grid64/KaPPa-Fast/k16/threads2", 0x3ccc4676dafa69c2, 6),
    ("grid64/KaPPa-Fast/k16/ranks1", 0x2dac22a66d03196c, 6),
    ("grid64/KaPPa-Fast/k16/ranks2", 0x58a231e43f63ddd6, 6),
    ("grid64/KaPPa-Fast/k16/compact", 0x2dac22a66d03196c, 6),
    ("grid64/KaPPa-Fast/k16/paged", 0x2dac22a66d03196c, 6),
    ("rmat11/KaPPa-Minimal/k4/threads1", 0x2c3e00d2d9de0547, 8),
    ("rmat11/KaPPa-Minimal/k4/threads2", 0xd46e2f7bf1d987e5, 8),
    ("rmat11/KaPPa-Minimal/k4/ranks1", 0x2c3e00d2d9de0547, 8),
    ("rmat11/KaPPa-Minimal/k4/ranks2", 0x011bc5c1e2520aa7, 7),
    ("rmat11/KaPPa-Minimal/k4/compact", 0x2c3e00d2d9de0547, 8),
    ("rmat11/KaPPa-Minimal/k4/paged", 0x2c3e00d2d9de0547, 8),
    ("rmat11/KaPPa-Minimal/k16/threads1", 0x5c8458a56d82b09d, 8),
    ("rmat11/KaPPa-Minimal/k16/threads2", 0x38737bb8f24af84e, 8),
    ("rmat11/KaPPa-Minimal/k16/ranks1", 0x5c8458a56d82b09d, 8),
    ("rmat11/KaPPa-Minimal/k16/ranks2", 0x7bd06c98671e8b89, 7),
    ("rmat11/KaPPa-Minimal/k16/compact", 0x5c8458a56d82b09d, 8),
    ("rmat11/KaPPa-Minimal/k16/paged", 0x5c8458a56d82b09d, 8),
    ("rmat11/KaPPa-Fast/k4/threads1", 0xff279f093dc0bc95, 8),
    ("rmat11/KaPPa-Fast/k4/threads2", 0xc0fc63967205a354, 8),
    ("rmat11/KaPPa-Fast/k4/ranks1", 0xff279f093dc0bc95, 8),
    ("rmat11/KaPPa-Fast/k4/ranks2", 0x1010eb367fda8bf6, 7),
    ("rmat11/KaPPa-Fast/k4/compact", 0xff279f093dc0bc95, 8),
    ("rmat11/KaPPa-Fast/k4/paged", 0xff279f093dc0bc95, 8),
    ("rmat11/KaPPa-Fast/k16/threads1", 0xd57526419d8f82d3, 8),
    ("rmat11/KaPPa-Fast/k16/threads2", 0xdeabedc52b8e1e5f, 8),
    ("rmat11/KaPPa-Fast/k16/ranks1", 0xd57526419d8f82d3, 8),
    ("rmat11/KaPPa-Fast/k16/ranks2", 0x9fd05cafcd31b74d, 7),
    ("rmat11/KaPPa-Fast/k16/compact", 0xd57526419d8f82d3, 8),
    ("rmat11/KaPPa-Fast/k16/paged", 0xd57526419d8f82d3, 8),
];
