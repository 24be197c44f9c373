//! Property-based tests (proptest) for the core invariants of the substrates:
//! matchings are matchings, contraction conserves weight and projected cuts,
//! partitions returned by every stage are complete and consistent, and the
//! quotient-graph colouring is always proper.

use kappa::coarsen::{contract_matching, CoarseningConfig, MatcherKind, MultilevelHierarchy};
use kappa::graph::PartitionState;
use kappa::graph::{GraphBuilder, Partition, QuotientGraph};
use kappa::initial::greedy_graph_growing;
use kappa::matching::{compute_matching, EdgeRating, MatchingAlgorithm};
use kappa::prelude::*;
use kappa::refine::{color_quotient_edges, refine_partition, RefinementConfig};
use proptest::prelude::*;

/// Strategy: a random connected-ish weighted graph with up to `max_n` nodes.
fn arbitrary_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (2usize..max_n, any::<u64>()).prop_map(|(n, seed)| {
        // Ring backbone (guarantees no isolated nodes) plus random chords.
        let mut builder = GraphBuilder::new(n);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n {
            builder.add_edge(i as u32, ((i + 1) % n) as u32, 1 + next() % 9);
        }
        for _ in 0..n {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            if u != v {
                builder.add_edge(u, v, 1 + next() % 9);
            }
        }
        builder.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matchings_are_valid_for_every_algorithm_and_rating(
        graph in arbitrary_graph(120),
        seed in any::<u64>(),
    ) {
        for algorithm in MatchingAlgorithm::all() {
            for rating in EdgeRating::all() {
                let m = compute_matching(&graph, algorithm, rating, seed);
                prop_assert!(m.validate(Some(&graph)).is_ok());
                prop_assert!(m.cardinality() * 2 <= graph.num_nodes());
            }
        }
    }

    #[test]
    fn contraction_conserves_node_weight_and_projected_cut(
        graph in arbitrary_graph(150),
        seed in any::<u64>(),
    ) {
        let m = compute_matching(&graph, MatchingAlgorithm::Gpa, EdgeRating::ExpansionStar2, seed);
        let c = contract_matching(&graph, &m);
        prop_assert_eq!(c.coarse_graph.total_node_weight(), graph.total_node_weight());
        prop_assert!(c.coarse_graph.validate().is_ok());
        prop_assert_eq!(c.coarse_graph.num_nodes(), graph.num_nodes() - m.cardinality());
        // Any coarse partition projects to a fine partition with identical cut.
        let coarse_n = c.coarse_graph.num_nodes();
        let coarse_part = Partition::from_assignment(
            3,
            (0..coarse_n).map(|i| (i % 3) as u32).collect(),
        );
        let fine_part = coarse_part.project(&c.coarse_of);
        prop_assert_eq!(coarse_part.edge_cut(&c.coarse_graph), fine_part.edge_cut(&graph));
    }

    #[test]
    fn hierarchy_preserves_weight_on_every_level(
        graph in arbitrary_graph(200),
        seed in any::<u64>(),
    ) {
        let config = CoarseningConfig { stop_at_nodes: 16, seed };
        let gpa = MatcherKind::Sequential(MatchingAlgorithm::Gpa);
        let h = MultilevelHierarchy::build(&graph, gpa, EdgeRating::ExpansionStar2, &config);
        prop_assert!(h.node_weight_invariant_holds());
        for level in 0..h.num_levels() {
            prop_assert!(h.graph_at(level).validate().is_ok());
        }
    }

    #[test]
    fn initial_partitions_are_complete_and_use_all_blocks(
        graph in arbitrary_graph(150),
        k in 2u32..6,
        seed in any::<u64>(),
    ) {
        let p = greedy_graph_growing(&graph, k, 0.05, seed);
        prop_assert!(p.validate(&graph).is_ok());
        prop_assert_eq!(p.num_nonempty_blocks() as u32, k.min(graph.num_nodes() as u32));
    }

    #[test]
    fn refinement_never_worsens_the_cut_and_reports_it_exactly(
        graph in arbitrary_graph(150),
        k in 2u32..5,
        seed in any::<u64>(),
    ) {
        let p = greedy_graph_growing(&graph, k, 0.05, seed);
        let before = p.edge_cut(&graph);
        let was_feasible = p.is_balanced(&graph, 0.05);
        let mut state = PartitionState::build(&graph, p);
        let stats = refine_partition(
            &graph,
            &mut state,
            &RefinementConfig { epsilon: 0.05, max_global_iterations: 3, seed, ..Default::default() },
        );
        prop_assert!(state.verify_exact(&graph).is_ok());
        let p = state.into_partition();
        prop_assert!(p.validate(&graph).is_ok());
        prop_assert_eq!(before as i64 - p.edge_cut(&graph) as i64, stats.total_gain);
        // When the input was already feasible, refinement must not make the cut
        // worse (it may trade cut for balance when repairing infeasible inputs).
        if was_feasible {
            prop_assert!(p.edge_cut(&graph) <= before);
        }
    }

    #[test]
    fn quotient_colorings_are_always_proper(
        graph in arbitrary_graph(150),
        k in 2u32..9,
        seed in any::<u64>(),
    ) {
        let p = greedy_graph_growing(&graph, k, 0.10, seed);
        let q = QuotientGraph::build(&graph, &p);
        let coloring = color_quotient_edges(&q, seed);
        prop_assert!(coloring.validate().is_ok());
        prop_assert_eq!(coloring.num_pairs(), q.num_edges());
        prop_assert!(coloring.num_colors() <= (2 * q.max_degree()).max(1));
        prop_assert_eq!(q.edges().iter().map(|&(_, _, w)| w).sum::<u64>(), p.edge_cut(&graph));
    }

    #[test]
    fn full_partitioner_end_to_end_invariants(
        graph in arbitrary_graph(120),
        k in 2u32..5,
        seed in any::<u64>(),
    ) {
        let result = KappaPartitioner::new(KappaConfig::minimal(k).with_seed(seed)).partition(&graph);
        prop_assert!(result.partition.validate(&graph).is_ok());
        prop_assert_eq!(result.metrics.edge_cut, result.partition.edge_cut(&graph));
        prop_assert!(result.metrics.feasible);
    }

    #[test]
    fn metis_roundtrip_is_identity(graph in arbitrary_graph(100)) {
        let text = kappa::graph::to_metis_string(&graph);
        let back = kappa::graph::parse_metis(&text).unwrap();
        prop_assert_eq!(graph, back);
    }

    // Satellite of the dist PR: the METIS writer covers every fmt code and
    // write → read is the identity for every format that can represent the
    // graph; formats that drop a weight kind still round-trip the structure
    // with that weight defaulted to 1.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "compares the raw weight arrays of a METIS round trip"
    )]
    fn metis_writer_roundtrips_every_fmt_code(graph in arbitrary_graph(80)) {
        use kappa::graph::{parse_metis, to_metis_string_fmt, MetisFormat};
        for fmt in MetisFormat::all() {
            let text = to_metis_string_fmt(&graph, fmt);
            let back = parse_metis(&text).unwrap_or_else(|e| panic!("fmt {fmt:?}: {e}"));
            prop_assert_eq!(back.num_nodes(), graph.num_nodes());
            prop_assert_eq!(back.num_edges(), graph.num_edges());
            prop_assert_eq!(back.xadj(), graph.xadj(), "structure diverged under {:?}", fmt);
            prop_assert_eq!(back.adjncy(), graph.adjncy());
            if fmt.vertex_weights {
                prop_assert_eq!(back.vwgt(), graph.vwgt());
            }
            if fmt.edge_weights {
                prop_assert_eq!(back.adjwgt(), graph.adjwgt());
            }
            if fmt.lossless_for(&graph) {
                prop_assert_eq!(&back, &graph, "lossless fmt {:?} was lossy", fmt);
            }
        }
        // The minimal format is always lossless for the graph it was derived
        // from (the ring backbone guarantees no isolated vertices).
        let minimal = MetisFormat::minimal_for(&graph);
        prop_assert!(minimal.lossless_for(&graph));
        let back = parse_metis(&to_metis_string_fmt(&graph, minimal)).unwrap();
        prop_assert_eq!(back, graph);
    }

    // The one row rule against the obvious oracle: a map from target to the
    // sum of its weights, read back in key order. Few distinct targets force
    // repeats; the row is tried both as generated and presorted.
    #[test]
    fn merge_row_sums_equal_targets_like_a_map(len in 0usize..40, seed in any::<u64>()) {
        use std::collections::BTreeMap;
        let mut state = seed | 1;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let row: Vec<(u32, u64)> = (0..len).map(|_| (next(12) as u32, 1 + next(49))).collect();
        let mut oracle: BTreeMap<u32, u64> = BTreeMap::new();
        for &(t, w) in &row {
            *oracle.entry(t).or_default() += w;
        }
        let want: Vec<(u32, u64)> = oracle.into_iter().collect();
        let mut sorted = row.clone();
        sorted.sort_unstable();
        for mut input in [row, sorted] {
            let len = kappa::graph::merge_row(&mut input);
            prop_assert_eq!(&input[..len], &want[..]);
        }
    }
}
