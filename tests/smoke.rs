//! Smoke test (ISSUE 1): the smallest end-to-end check that the full pipeline
//! is wired together. Partitions a generated grid graph into k = 4 blocks and
//! asserts the three properties every later PR must preserve: the cut is
//! finite, the partition is feasible at the default 3 % tolerance, and every
//! vertex is assigned to a valid block. Plus one error path of the
//! `kappa-partition` binary itself: a `--generate` request the family cannot
//! serve is a diagnosed `error:`, not a panic.

use kappa::prelude::*;

#[test]
fn grid_into_four_parts_is_finite_feasible_and_complete() {
    let graph = kappa::gen::grid2d(32, 32);
    let k = 4u32;
    let result = KappaPartitioner::new(KappaConfig::fast(k).with_seed(1)).partition(&graph);

    // The cut is finite: bounded by the total edge weight of the graph.
    let total_edge_weight: u64 = graph.nodes().map(|v| graph.weighted_degree(v)).sum::<u64>() / 2;
    assert!(
        result.metrics.edge_cut > 0,
        "a 4-way grid split must cut something"
    );
    assert!(
        result.metrics.edge_cut <= total_edge_weight,
        "cut {} exceeds total edge weight {total_edge_weight}",
        result.metrics.edge_cut
    );

    // The partition is feasible: balance <= 1 + epsilon = 1.03.
    assert!(
        result.partition.is_balanced(&graph, 0.03),
        "balance {:.4} > 1.03",
        result.partition.balance(&graph)
    );
    assert!(result.metrics.feasible);

    // Every vertex is assigned to a valid block and all k blocks are used.
    let assignment = result.partition.assignment();
    assert_eq!(assignment.len(), graph.num_nodes());
    assert!(assignment.iter().all(|&block| block < k));
    assert_eq!(result.partition.num_nonempty_blocks() as u32, k);

    // And the whole thing is internally consistent.
    result.partition.validate(&graph).expect("valid partition");
}

#[test]
fn generate_with_too_few_nodes_is_an_error_not_a_panic() {
    for args in [
        &["--generate", "road", "--nodes", "4", "--k", "2"][..],
        &["--generate", "delaunay", "--nodes", "3", "--k", "2"][..],
        &["--generate", "rgg", "--nodes", "1", "--k", "2"][..],
        &[
            "--generate",
            "rgg",
            "--nodes",
            "1",
            "--k",
            "2",
            "--memory-tier",
            "paged",
        ][..],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_kappa-partition"))
            .args(args)
            .output()
            .expect("run kappa-partition");
        assert_eq!(
            out.status.code(),
            Some(1),
            "args {args:?}: {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error: --generate") && stderr.contains("needs --nodes >="),
            "args {args:?}: {stderr}"
        );
    }
}
