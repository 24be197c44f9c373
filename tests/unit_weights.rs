//! Unit weights are implicit: a graph whose edge (or node) weights are all 1
//! stores no weight array, and no partitioner entry point asks for one.
//! Other weights are stored in 32 bits, and no entry point asks for a
//! widened `u64` copy of them either.
//!
//! `kappa::graph::csr::WEIGHTS_MATERIALIZED` counts the `u64` arrays (ones,
//! or widened copies) the raw accessors (`CsrGraph::adjwgt` /
//! `CsrGraph::vwgt`) have built in this process. No test in this file calls
//! them, so the count must stay 0 however the tests interleave.

use std::sync::atomic::Ordering;

use kappa::coarsen::SpillConfig;
use kappa::core::default_spill_dir;
use kappa::gen::random_geometric_graph;
use kappa::graph::csr::WEIGHTS_MATERIALIZED;
use kappa::graph::{
    graph_from_edges, parse_metis, to_metis_string, to_metis_string_fmt, MetisFormat,
};
use kappa::mem::{CompactCsr, TierGraph};
use kappa::prelude::*;

fn materialized() -> usize {
    WEIGHTS_MATERIALIZED.load(Ordering::Relaxed)
}

#[test]
fn explicit_unit_weights_read_as_the_weightless_file() {
    // A 4-cycle with a chord, once with `fmt 011` and every weight written
    // as 1, once without weights.
    let weighted = "4 5 011\n1 2 1 3 1 4 1\n1 1 1 3 1\n1 1 1 2 1 4 1\n1 1 1 3 1\n";
    let plain = "4 5\n2 3 4\n1 3\n1 2 4\n1 3\n";
    let a = parse_metis(weighted).unwrap();
    let b = parse_metis(plain).unwrap();
    assert_eq!(a, b);
    assert!(a.has_unit_edge_weights() && a.has_unit_node_weights());
    let config = KappaConfig::strong(2).with_seed(3).with_threads(1);
    let pa = KappaPartitioner::new(config).partition(&a).partition;
    let pb = KappaPartitioner::new(config).partition(&b).partition;
    assert_eq!(pa.assignment(), pb.assignment());

    // The writer's default `fmt 011` spells every unit weight out.
    let rgg = random_geometric_graph(2000, 9);
    let explicit = parse_metis(&to_metis_string(&rgg)).unwrap();
    let minimal_fmt = MetisFormat::minimal_for(&rgg);
    let minimal = parse_metis(&to_metis_string_fmt(&rgg, minimal_fmt)).unwrap();
    assert!(explicit.has_unit_edge_weights() && explicit.has_unit_node_weights());
    assert_eq!(explicit, minimal);
    let pa = KappaPartitioner::new(config).partition(&explicit).partition;
    let pb = KappaPartitioner::new(config).partition(&minimal).partition;
    assert_eq!(pa.assignment(), pb.assignment());
    assert_eq!(materialized(), 0);
}

#[test]
fn a_repeated_unit_edge_merges_to_weight_two() {
    let g = graph_from_edges(3, vec![(0, 1, 1), (1, 2, 1), (1, 0, 1)]);
    assert!(!g.has_unit_edge_weights());
    assert_eq!(g.edge_weight_between(0, 1), Some(2));
    assert_eq!(g.edge_weight_between(2, 1), Some(1));
    assert_eq!(g.total_edge_weight(), 3);
    assert!(g.validate().is_ok());
}

#[test]
fn mixed_weights_keep_their_arrays() {
    let mut b = GraphBuilder::with_node_weights(vec![1, 2, 1]);
    b.add_edge(0, 1, 1);
    b.add_edge(1, 2, 3);
    let g = b.build();
    assert!(!g.has_unit_edge_weights() && !g.has_unit_node_weights());
    assert_eq!(g.edges_of(1).collect::<Vec<_>>(), [(0, 1), (2, 3)]);
    assert_eq!((g.node_weight(1), g.total_node_weight()), (2, 4));
    assert_eq!((g.max_node_weight(), g.total_edge_weight()), (2, 4));

    // All-ones arrays handed in explicitly are dropped: one canonical form.
    let mut b = GraphBuilder::with_node_weights(vec![1; 3]);
    b.add_edge(0, 1, 1);
    b.add_edge(1, 2, 1);
    let unit = b.build();
    assert!(unit.has_unit_edge_weights() && unit.has_unit_node_weights());
    assert_eq!(unit, graph_from_edges(3, vec![(0, 1, 1), (1, 2, 1)]));
    assert_eq!((unit.total_node_weight(), unit.max_node_weight()), (3, 1));
    assert_eq!(unit.weighted_degree(1), 2);
}

#[test]
fn no_entry_point_materializes_the_ones_of_a_unit_graph() {
    let graph = random_geometric_graph(3000, 4);
    assert!(graph.has_unit_edge_weights() && graph.has_unit_node_weights());
    let config = KappaConfig::fast(4).with_seed(2).with_threads(1);

    let shared = KappaPartitioner::new(config).partition(&graph);
    assert_eq!(materialized(), 0, "partition");

    let tiered = kappa::core::partition_tiered(
        TierGraph::Compact(CompactCsr::from_graph(&graph)),
        &config,
        &SpillConfig::new(default_spill_dir("unit-weights")),
    )
    .expect("compact run");
    assert_eq!(materialized(), 0, "partition_tiered");
    assert_eq!(
        tiered.result.partition.assignment(),
        shared.partition.assignment()
    );

    for ranks in [1, 2] {
        let run =
            partition_distributed(&graph, &DistConfig::new(config, ranks)).expect("fault-free run");
        assert_eq!(materialized(), 0, "partition_distributed at {ranks} ranks");
        assert!(run.partition.validate(&graph).is_ok());
    }

    let session = DynamicSession::bootstrap(graph, &config, DynamicConfig::matching(&config));
    assert_eq!(materialized(), 0, "DynamicSession::bootstrap");
    session.verify().unwrap();
}

#[test]
fn no_entry_point_widens_the_weights_of_a_weighted_graph() {
    // A weighted METIS input: every node and edge weight of an rgg spelled
    // out, then varied, so both arrays are stored (in 32 bits).
    let rgg = random_geometric_graph(3000, 6);
    let mut text = String::new();
    for (i, line) in to_metis_string(&rgg).lines().enumerate() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let out: Vec<String> = match i {
            0 => tokens.iter().map(|t| t.to_string()).collect(),
            _ => {
                let v = i - 1;
                let mut out = vec![(1 + v % 3).to_string()];
                for pair in tokens[1..].chunks(2) {
                    let u: usize = pair[0].parse().unwrap();
                    out.push(pair[0].to_string());
                    out.push((1 + (v + u) % 5).to_string());
                }
                out
            }
        };
        text.push_str(&out.join(" "));
        text.push('\n');
    }
    let graph = parse_metis(&text).unwrap();
    assert!(!graph.has_unit_edge_weights() && !graph.has_unit_node_weights());
    let config = KappaConfig::fast(4).with_seed(2).with_threads(1);

    let shared = KappaPartitioner::new(config).partition(&graph);
    assert_eq!(materialized(), 0, "partition");
    assert!(shared.partition.validate(&graph).is_ok());

    let tiered = kappa::core::partition_tiered(
        TierGraph::Compact(CompactCsr::from_graph(&graph)),
        &config,
        &SpillConfig::new(default_spill_dir("weighted-no-widening")),
    )
    .expect("compact run");
    assert_eq!(materialized(), 0, "partition_tiered");
    assert_eq!(
        tiered.result.partition.assignment(),
        shared.partition.assignment()
    );

    for ranks in [1, 2] {
        let run =
            partition_distributed(&graph, &DistConfig::new(config, ranks)).expect("fault-free run");
        assert_eq!(materialized(), 0, "partition_distributed at {ranks} ranks");
        assert!(run.partition.validate(&graph).is_ok());
    }
}
