//! Helpers shared by the integration suites (parity, dist, dynamic, stress,
//! comm conformance): the seeded xorshift generator, the random-graph
//! proptest strategy, the standard rgg/grid/delaunay instance trio, the
//! state-exactness and feasibility assertions that used to be duplicated per
//! suite, and the stopped-rank wrapper.

#![allow(dead_code)] // each suite uses the subset it needs

use kappa::gen::{delaunay_like_graph, grid2d, random_geometric_graph};
use kappa::graph::{BlockWeights, BoundaryIndex, PartitionState};
use kappa::prelude::*;

mod arbitrary_graph;
#[allow(unused_imports)] // as above
pub use arbitrary_graph::{arbitrary_graph, xorshift};
mod stop_at;
#[allow(unused_imports)] // as above
pub use stop_at::StopAt;

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Best-effort reset of `VmHWM` to the current RSS (writing `5` to
/// `/proc/self/clear_refs`), so each run's peak is attributed to that run
/// rather than accumulating monotonically across tests in one process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `peak_rss_bytes` rendered as "NNN MiB", or "unavailable".
pub fn format_peak_rss() -> String {
    peak_rss_bytes()
        .map(|b| format!("{:.0} MiB", b as f64 / (1024.0 * 1024.0)))
        .unwrap_or_else(|| "unavailable".to_string())
}

/// The standard small instance trio (one per family of the paper's suite)
/// used by the dist parity tests and the dynamic exactness suite.
pub fn suite_instances() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("rgg-2000", random_geometric_graph(2000, 5)),
        ("grid-40x40", grid2d(40, 40)),
        ("delaunay-1500", delaunay_like_graph(1500, 7)),
    ]
}

/// Asserts that an incrementally maintained [`PartitionState`] is
/// field-for-field identical to a from-scratch rebuild on `graph`: fresh
/// `BoundaryIndex::build`, recomputed block weights, and a full edge-cut
/// rescan — plus the state's own `verify_exact` cross-check.
pub fn assert_state_matches_rebuild(context: &str, graph: &CsrGraph, state: &PartitionState) {
    let partition = state.partition();
    // `equivalent` is the documented comparison between a *maintained* index
    // and a fresh build over the same assignment: identical per-node
    // neighbour counts and boundary set; only the internal order of the
    // membership list (swap-remove history vs. ascending scan) may differ,
    // and no consumer observes it.
    let fresh_index = BoundaryIndex::build(graph, partition);
    assert!(
        fresh_index.equivalent(state.boundary()),
        "{context}: maintained boundary index differs from a fresh build"
    );
    let fresh_weights = BlockWeights::compute(graph, partition);
    assert_eq!(
        state.weights().as_slice(),
        fresh_weights.as_slice(),
        "{context}: maintained block weights differ from a recomputation"
    );
    assert_eq!(
        state.edge_cut(),
        partition.edge_cut(graph),
        "{context}: the sum of the pair cuts differs from a full rescan"
    );
    if let Err(e) = state.verify_exact(graph) {
        panic!("{context}: verify_exact failed: {e}");
    }
}

/// Asserts that `partition` is a valid, ε-feasible partition of `graph`
/// whose claimed cut matches a recomputation.
pub fn assert_feasible(
    context: &str,
    graph: &CsrGraph,
    partition: &Partition,
    epsilon: f64,
    claimed_cut: u64,
) {
    assert!(
        partition.validate(graph).is_ok(),
        "{context}: invalid partition"
    );
    assert!(
        partition.is_balanced(graph, epsilon),
        "{context}: balance {} exceeds 1 + {epsilon}",
        partition.balance(graph)
    );
    assert_eq!(
        claimed_cut,
        partition.edge_cut(graph),
        "{context}: tracked cut diverged from recomputation"
    );
}
