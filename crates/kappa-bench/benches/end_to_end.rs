//! Criterion benches for the end-to-end partitioner: the three presets on one
//! representative instance per family (the per-table experiment binaries cover
//! the full sweeps; these benches track the wall-clock cost of the whole
//! pipeline and of its coarsening building block).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kappa_coarsen::{
    contract_matching, contract_matching_reference, CoarseningConfig, MatcherKind,
    MultilevelHierarchy,
};
use kappa_core::{ConfigPreset, KappaConfig, KappaPartitioner};
use kappa_gen::{delaunay_like_graph, random_geometric_graph, rmat_graph, road_network_like};
use kappa_matching::{gpa_matching, EdgeRating, MatchingAlgorithm};

fn bench_presets_end_to_end(c: &mut Criterion) {
    let graph = random_geometric_graph(1 << 13, 1);
    let mut group = c.benchmark_group("end_to_end_rgg13_k16");
    group.sample_size(10);
    for preset in ConfigPreset::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(preset.name()),
            &preset,
            |b, &p| {
                let partitioner = KappaPartitioner::new(KappaConfig::preset(p, 16).with_seed(3));
                b.iter(|| partitioner.partition(&graph));
            },
        );
    }
    group.finish();
}

fn bench_families_fast(c: &mut Criterion) {
    let instances = vec![
        ("rgg13", random_geometric_graph(1 << 13, 1)),
        ("delaunay13", delaunay_like_graph(1 << 13, 2)),
        ("road13", road_network_like(1 << 13, 3)),
        ("rmat12", rmat_graph(12, 8, 4)),
    ];
    let mut group = c.benchmark_group("end_to_end_fast_k16_by_family");
    group.sample_size(10);
    for (name, graph) in &instances {
        group.bench_with_input(BenchmarkId::from_parameter(*name), graph, |b, g| {
            let partitioner = KappaPartitioner::new(KappaConfig::fast(16).with_seed(5));
            b.iter(|| partitioner.partition(g));
        });
    }
    group.finish();
}

fn bench_coarsening_only(c: &mut Criterion) {
    let graph = random_geometric_graph(1 << 14, 7);
    c.bench_function("coarsening_rgg14_to_1k", |b| {
        let config = CoarseningConfig {
            stop_at_nodes: 1024,
            ..Default::default()
        };
        let gpa = MatcherKind::Sequential(MatchingAlgorithm::Gpa);
        b.iter(|| {
            MultilevelHierarchy::build(graph.clone(), gpa, EdgeRating::ExpansionStar2, &config)
        });
    });
}

/// Parallel range-fragment contraction against the sequential GraphBuilder
/// reference, one full matching contraction of an rgg15 instance.
fn bench_contraction_parallel_vs_reference(c: &mut Criterion) {
    let graph = random_geometric_graph(1 << 15, 9);
    let matching = gpa_matching(&graph, EdgeRating::ExpansionStar2, 2);
    let mut group = c.benchmark_group("contraction_rgg15");
    group.sample_size(10);
    group.bench_function("parallel", |b| {
        b.iter(|| contract_matching(&graph, &matching))
    });
    group.bench_function("reference", |b| {
        b.iter(|| contract_matching_reference(&graph, &matching))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_presets_end_to_end,
    bench_families_fast,
    bench_coarsening_only,
    bench_contraction_parallel_vs_reference
);
criterion_main!(benches);
