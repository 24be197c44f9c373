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
//!
//! The bounds are the worst ratio over the seeds below, measured when the
//! test was written and rounded up to the next 0.05 (worst grid ratios:
//! minimal 1.521, fast 1.236, strong 1.097; every clique chain is cut at
//! exactly its joining edges), so a change that makes any preset's
//! partitions worse on these instances fails here first.

use kappa::gen::grid2d;
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
