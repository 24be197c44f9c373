//! Quality anchor without external data: every preset partitions instances
//! whose best cut is known in closed form, and cut ÷ reference must stay
//! within the bound recorded beside each family.
//!
//! - P × Q grids at k = 2 and 4, against the cheapest straight cut: one line
//!   across the shorter side at k = 2, and at k = 4 the cheaper of three
//!   parallel lines and a cross.
//! - Chains of k equal cliques joined by single unit edges, whose optimum
//!   is the k − 1 joining edges: cutting into a clique of s nodes costs at
//!   least s − 1 edges.
//! - Every `generate` family at `--nodes 20` and graph seeds 1–3 (rgg 20,
//!   delaunay 16, grid 16, road 6 or 9 and rmat 16 nodes) at k = 2,
//!   against the optimum that the test enumerates over every balanced
//!   bisection. Its bound is on the excess `cut − optimum`, so an optimum
//!   of 0 counts like any other.
//!
//! The bounds are the worst ratio over the seeds below, measured when the
//! test was written and rounded up to the next 0.05 (worst grid ratios:
//! minimal 1.521, fast 1.236, strong 1.097; every clique chain is cut at
//! exactly its joining edges), and the worst excess for the generated
//! family (minimal 4, fast 3, strong 3), so a change that makes any preset's
//! partitions worse on these instances fails here first.

use kappa::gen::{generate, grid2d};
use kappa::graph::graph_from_edges;
use kappa::prelude::*;

const SEEDS: [u64; 5] = [1, 2, 3, 4, 5];

/// One instance: name, graph, k and the reference cut.
type Instance = (String, CsrGraph, u32, u64);

fn grid_instances() -> Vec<Instance> {
    let mut out = Vec::new();
    for (p, q) in [(32usize, 32usize), (48, 24), (64, 16)] {
        let short = p.min(q) as u64;
        out.push((format!("grid {p}x{q}"), grid2d(p, q), 2, short));
        let reference = (3 * short).min((p + q) as u64);
        out.push((format!("grid {p}x{q}"), grid2d(p, q), 4, reference));
    }
    out
}

/// `k` cliques of `size` nodes; clique `i`'s last node is joined to clique
/// `i + 1`'s first node.
fn clique_chain(k: u32, size: u32) -> CsrGraph {
    let mut edges = Vec::new();
    for c in 0..k {
        let base = c * size;
        for a in 0..size {
            for b in a + 1..size {
                edges.push((base + a, base + b, 1));
            }
        }
        if c + 1 < k {
            edges.push((base + size - 1, base + size, 1));
        }
    }
    graph_from_edges((k * size) as usize, edges)
}

fn clique_instances() -> Vec<Instance> {
    let mut out = Vec::new();
    for size in [8u32, 16] {
        for k in [2u32, 4, 8] {
            let name = format!("{k} cliques of {size}");
            out.push((name, clique_chain(k, size), k, k as u64 - 1));
        }
    }
    out
}

/// Partitions every instance with `preset` at every seed and returns the
/// worst cut ÷ reference, asserting that every run is feasible.
fn worst_ratio(instances: &[Instance], preset: ConfigPreset) -> f64 {
    let mut worst = 0.0f64;
    for (name, graph, k, reference) in instances {
        for seed in SEEDS {
            let config = KappaConfig::preset(preset, *k).with_seed(seed);
            let r = KappaPartitioner::new(config).partition(graph);
            assert!(
                r.metrics.feasible,
                "{name}, k = {k}, {}, seed {seed}: infeasible",
                preset.name()
            );
            let ratio = r.metrics.edge_cut as f64 / *reference as f64;
            eprintln!(
                "{name}, k = {k}, {}, seed {seed}: cut {} / {reference} = {ratio:.3}",
                preset.name(),
                r.metrics.edge_cut
            );
            worst = worst.max(ratio);
        }
    }
    worst
}

fn assert_bounds(family: &str, instances: &[Instance], bounds: [(ConfigPreset, f64); 3]) {
    for (preset, bound) in bounds {
        let worst = worst_ratio(instances, preset);
        assert!(
            worst <= bound,
            "{family}, {}: worst cut / reference {worst:.3} > {bound}",
            preset.name()
        );
    }
}

#[test]
fn grids_stay_near_the_straight_cut() {
    assert_bounds(
        "grids",
        &grid_instances(),
        [
            (ConfigPreset::Minimal, 1.55),
            (ConfigPreset::Fast, 1.25),
            (ConfigPreset::Strong, 1.10),
        ],
    );
}

#[test]
fn clique_chains_are_cut_at_their_joining_edges() {
    assert_bounds(
        "clique chains",
        &clique_instances(),
        [
            (ConfigPreset::Minimal, 1.0),
            (ConfigPreset::Fast, 1.0),
            (ConfigPreset::Strong, 1.0),
        ],
    );
}

/// The least cut over every assignment of `graph`'s nodes to two blocks
/// that keeps both within `Partition::l_max(graph, 2, 0.03)`, with node 0
/// in block 0. The assignments are visited in Gray-code order: step `i`
/// flips node `1 + trailing_zeros(i)`, so each step costs that node's
/// degree.
fn exhaustive_bisection(graph: &CsrGraph) -> u64 {
    let n = graph.num_nodes();
    let l_max = Partition::l_max(graph, 2, 0.03);
    let total: u64 = (0..n as u32).map(|v| graph.node_weight(v)).sum();
    let mut in_one = vec![false; n];
    let (mut cut, mut weight_one) = (0u64, 0u64);
    let mut best = if total <= l_max { 0 } else { u64::MAX };
    for step in 1u64..1 << (n - 1) {
        let v = 1 + step.trailing_zeros();
        let side = !in_one[v as usize];
        in_one[v as usize] = side;
        for (u, w) in graph.edges_of(v) {
            if in_one[u as usize] == side {
                cut -= w;
            } else {
                cut += w;
            }
        }
        if side {
            weight_one += graph.node_weight(v);
        } else {
            weight_one -= graph.node_weight(v);
        }
        if weight_one <= l_max && total - weight_one <= l_max {
            best = best.min(cut);
        }
    }
    assert_ne!(best, u64::MAX, "no balanced bisection of {n} nodes");
    best
}

#[test]
fn small_generated_graphs_stay_near_their_exhaustive_optimum() {
    let mut instances = Vec::new();
    for family in ["rgg", "delaunay", "grid", "road", "rmat"] {
        for seed in 1..=3 {
            let graph = generate(family, 20, seed).unwrap();
            let name = format!("{family} of {} nodes, seed {seed}", graph.num_nodes());
            let optimum = exhaustive_bisection(&graph);
            instances.push((name, graph, optimum));
        }
    }
    // The worst excess over these instances and the seeds below, measured
    // when the family was added. Every miss is on rmat or on a disconnected
    // rgg whose optimum is 0; delaunay, grid and road are cut optimally.
    for (preset, bound) in [
        (ConfigPreset::Minimal, 4),
        (ConfigPreset::Fast, 3),
        (ConfigPreset::Strong, 3),
    ] {
        let mut worst = 0;
        for (name, graph, optimum) in &instances {
            for seed in SEEDS {
                let config = KappaConfig::preset(preset, 2).with_seed(seed);
                let r = KappaPartitioner::new(config).partition(graph);
                let (cut, preset) = (r.metrics.edge_cut, preset.name());
                assert!(
                    r.metrics.feasible,
                    "{name}, {preset}, seed {seed}: infeasible"
                );
                let excess = cut.checked_sub(*optimum).unwrap_or_else(|| {
                    panic!("{name}, {preset}, seed {seed}: cut {cut} below the optimum {optimum}")
                });
                let ratio = match optimum {
                    0 => "-".to_string(),
                    _ => format!("{:.3}", cut as f64 / *optimum as f64),
                };
                eprintln!(
                    "{name}, k = 2, {preset}, seed {seed}: cut {cut}, optimum {optimum}, \
                     excess {excess}, ratio {ratio}"
                );
                worst = worst.max(excess);
            }
        }
        assert!(
            worst <= bound,
            "small generated graphs, {}: worst excess {worst} > {bound}",
            preset.name()
        );
    }
}
