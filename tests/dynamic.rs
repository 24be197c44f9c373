//! Streaming-mutation exactness — the acceptance suite of the dynamic-graph
//! repartitioning service.
//!
//! The tentpole property: after **any** random interleaving of edge
//! inserts/deletes/reweights, node inserts/deletes, placement queries and
//! localized re-refinements, the incrementally maintained
//! [`PartitionState`] — assignment, block weights, boundary index and
//! pair cut weights, whose sum is its edge cut — is **field-for-field
//! identical** to a from-scratch rebuild
//! (fresh `BoundaryIndex::build`, recomputed weights, full cut rescan) on
//! the compacted graph. Checked over the rgg/grid/delaunay families and
//! random graphs, at 1–8 rayon threads, and after every phase of the
//! interleaving, with exactly one full index build for the whole history.

use kappa::core::{DynamicConfig, DynamicSession, KappaConfig};
use kappa::graph::PartitionState;
use kappa::initial::random_partition;
use kappa::prelude::*;
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

mod common;
use common::{arbitrary_graph, assert_state_matches_rebuild, suite_instances, xorshift};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Replays `ops` operations drawn from `seed` against a fresh session over
/// `graph`, verifying full exactness after every `check_every` operations.
/// Returns the final (assignment, cut, refine count) so callers can compare
/// runs across thread counts.
fn run_interleaving(
    graph: &CsrGraph,
    k: u32,
    seed: u64,
    ops: usize,
    check_every: usize,
    config: DynamicConfig,
) -> (Vec<u32>, u64, u64) {
    let partition = random_partition(graph, k, seed);
    let mut session = DynamicSession::new(graph.clone(), partition, config).unwrap();
    let mut next = xorshift(seed ^ 0x9e37_79b9_7f4a_7c15);
    for step in 0..ops {
        let n = session.graph().num_nodes() as u64;
        match next() % 10 {
            // Placement queries (the common case in a serving mix).
            0..=2 => {
                let v = (next() % (n + 2)) as u32; // sometimes past the end
                let owner = session.query(v);
                assert_eq!(
                    owner.is_some(),
                    session.graph().is_alive(v),
                    "query/liveness mismatch at step {step}"
                );
            }
            // Edge inserts (duplicates and dead endpoints are rejected
            // without corrupting anything — that is part of the property).
            3..=4 => {
                let u = (next() % n) as u32;
                let v = (next() % n) as u32;
                let w = 1 + next() % 9;
                if u != v {
                    let _ = session.insert_edge(u, v, w);
                }
            }
            // Edge deletes of genuinely incident edges.
            5 => {
                let v = (next() % n) as u32;
                let edges = session.graph().edges_of_collected(v);
                if !edges.is_empty() {
                    let (u, _) = edges[(next() % edges.len() as u64) as usize];
                    session.delete_edge(v, u).unwrap();
                }
            }
            // Edge reweights.
            6 => {
                let v = (next() % n) as u32;
                let edges = session.graph().edges_of_collected(v);
                if !edges.is_empty() {
                    let (u, _) = edges[(next() % edges.len() as u64) as usize];
                    session.update_edge(v, u, 1 + next() % 9).unwrap();
                }
            }
            // Node inserts, optionally wired straight into the graph.
            7 => {
                let id = session.insert_node(1 + next() % 3, None).unwrap();
                let u = (next() % n) as u32;
                if session.graph().is_alive(u) && u != id {
                    let _ = session.insert_edge(id, u, 1 + next() % 9);
                }
            }
            // Node deletes (cascading over incident edges).
            8 => {
                let v = (next() % n) as u32;
                if session.graph().is_alive(v) && session.graph().num_live_nodes() > k as usize {
                    session.delete_node(v).unwrap();
                }
            }
            // Explicit localized re-refinements.
            _ => {
                session.refine_now();
            }
        }
        if (step + 1) % check_every == 0 {
            let compacted = session.graph().to_csr();
            assert_state_matches_rebuild(&format!("step {step}"), &compacted, session.state());
        }
    }
    let compacted = session.graph().to_csr();
    assert_state_matches_rebuild("final", &compacted, session.state());
    assert_eq!(
        session.state().full_builds(),
        1,
        "the whole interleaving must reuse the single bootstrap index build"
    );
    (
        session.state().partition().assignment().to_vec(),
        session.edge_cut(),
        session.stats().local_refines,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The headline property on random graphs: every interleaving keeps the
    // state exact, and the whole history is deterministic — bit-identical
    // across every thread count (localized repair is sequential by design,
    // so the pool size must not leak into results).
    #[test]
    fn random_interleavings_stay_exact_at_every_thread_count(
        graph in arbitrary_graph(140),
        k in 2u32..6,
        seed in any::<u64>(),
    ) {
        let config = DynamicConfig::default();
        let mut reference: Option<(Vec<u32>, u64, u64)> = None;
        for threads in THREAD_COUNTS {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let result = pool.install(|| {
                run_interleaving(&graph, k, seed, 120, 30, config)
            });
            match &reference {
                None => reference = Some(result),
                Some(expected) => prop_assert_eq!(
                    &result,
                    expected,
                    "interleaving diverged at {} threads",
                    threads
                ),
            }
        }
    }

    // Auto-refine off: mutations accumulate arbitrary drift with no repair in
    // between, so the state must stay exact purely through the streaming
    // hooks (this isolates the hooks from refine_local).
    #[test]
    fn hooks_alone_keep_the_state_exact_without_any_refinement(
        graph in arbitrary_graph(120),
        k in 2u32..5,
        seed in any::<u64>(),
    ) {
        let config = DynamicConfig::default().with_auto_refine(false);
        let (_, _, refines) = run_interleaving(&graph, k, seed, 150, 50, config);
        // refine ops in the mix still run (op 9 calls refine_now directly);
        // the point is that *no drift-triggered* repair masked a stale state,
        // which the per-phase rebuild comparisons already proved.
        prop_assert!(refines as usize <= 150);
    }
}

// The same property on the paper's instance families, driven harder (one
// deterministic long interleaving each, bootstrap through the real
// pipeline, auto-refine on).
#[test]
fn suite_families_stay_exact_under_long_interleavings() {
    for (name, graph) in suite_instances() {
        let kappa = KappaConfig::fast(4).with_seed(11).with_threads(1);
        let mut session =
            DynamicSession::bootstrap(graph.clone(), &kappa, DynamicConfig::matching(&kappa));
        let mut next = xorshift(0xfeed ^ graph.num_nodes() as u64);
        for step in 0..400 {
            let n = session.graph().num_nodes() as u64;
            match next() % 8 {
                0..=2 => {
                    let u = (next() % n) as u32;
                    let v = (next() % n) as u32;
                    if u != v {
                        let _ = session.insert_edge(u, v, 1 + next() % 9);
                    }
                }
                3..=4 => {
                    let v = (next() % n) as u32;
                    let edges = session.graph().edges_of_collected(v);
                    if !edges.is_empty() {
                        let (u, _) = edges[(next() % edges.len() as u64) as usize];
                        session.delete_edge(v, u).unwrap();
                    }
                }
                5 => {
                    let _ = session.insert_node(1, None);
                }
                6 => {
                    let v = (next() % n) as u32;
                    if session.graph().is_alive(v) && session.graph().num_live_nodes() > 8 {
                        session.delete_node(v).unwrap();
                    }
                }
                _ => {
                    let v = (next() % n) as u32;
                    session.query(v);
                }
            }
            if step % 100 == 99 {
                let compacted = session.graph().to_csr();
                assert_state_matches_rebuild(
                    &format!("{name} step {step}"),
                    &compacted,
                    session.state(),
                );
            }
        }
        assert_eq!(session.state().full_builds(), 1, "{name}");
        session.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

// Field-for-field really means field-for-field: compare the maintained
// state against `PartitionState::build` on the compacted graph via every
// public accessor, not just through verify_exact.
#[test]
fn maintained_state_equals_a_from_scratch_build_component_wise() {
    let graph = kappa::gen::grid2d(20, 20);
    let kappa_cfg = KappaConfig::fast(4).with_seed(3).with_threads(1);
    let mut session =
        DynamicSession::bootstrap(graph, &kappa_cfg, DynamicConfig::matching(&kappa_cfg));
    let mut next = xorshift(77);
    for _ in 0..200 {
        let n = session.graph().num_nodes() as u64;
        let u = (next() % n) as u32;
        let v = (next() % n) as u32;
        if u != v && session.insert_edge(u, v, 1 + next() % 5).is_err() {
            let _ = session.delete_edge(u, v);
        }
    }
    let compacted = session.graph().to_csr();
    let rebuilt = PartitionState::build(&compacted, session.state().partition().clone());
    let state = session.state();
    assert_eq!(
        state.partition().assignment(),
        rebuilt.partition().assignment()
    );
    assert_eq!(state.weights().as_slice(), rebuilt.weights().as_slice());
    assert_eq!(state.edge_cut(), rebuilt.edge_cut());
    assert!(
        rebuilt.boundary().equivalent(state.boundary()),
        "boundary index diverged from the from-scratch build"
    );
}
