//! Domain example: partitioning a road network for parallel route planning.
//!
//! Road networks are the instances where the paper's approach shines the most:
//! their natural separators (rivers, mountain ranges, country borders) are
//! thin but hard to find for purely local heuristics — the paper reports that
//! Metis cuts the European network several times worse than KaPPa. This
//! example partitions a synthetic road-network-like graph with KaPPa and the
//! Metis-like baseline and compares the cuts, then writes the partitioned
//! graph to a METIS file so external tools can pick it up.
//!
//! Run with: `cargo run --release --example road_network`

use kappa::prelude::*;

fn main() {
    let roads = kappa::gen::road_network_like(60_000, 123);
    println!(
        "road network: {} junctions, {} road segments, avg degree {:.2}\n",
        roads.num_nodes(),
        roads.num_edges(),
        2.0 * roads.num_edges() as f64 / roads.num_nodes() as f64
    );

    let k = 16u32;

    // KaPPa fast preset.
    let kappa_result = KappaPartitioner::new(KappaConfig::fast(k).with_seed(1)).partition(&roads);

    // Metis-like baseline for comparison.
    let metis = BaselineKind::MetisLike.build();
    #[expect(
        clippy::disallowed_methods,
        reason = "prints the wall clock of each partitioner"
    )]
    let start = std::time::Instant::now();
    let metis_partition = metis.partition(&roads, k, 0.03, 1);
    let metis_time = start.elapsed();

    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "tool", "cut", "balance", "time [s]"
    );
    println!(
        "{:<14} {:>10} {:>10.3} {:>10.3}",
        "KaPPa-Fast",
        kappa_result.metrics.edge_cut,
        kappa_result.metrics.balance,
        kappa_result.metrics.runtime_secs()
    );
    println!(
        "{:<14} {:>10} {:>10.3} {:>10.3}",
        "kmetis-like",
        metis_partition.edge_cut(&roads),
        metis_partition.balance(&roads),
        metis_time.as_secs_f64()
    );

    let ratio =
        metis_partition.edge_cut(&roads) as f64 / kappa_result.metrics.edge_cut.max(1) as f64;
    println!("\nkmetis-like cuts {ratio:.2}x as many road segments as KaPPa-Fast.");

    // Persist the graph in METIS format next to a partition file — the same
    // interchange format the original tools consume.
    let dir = std::env::temp_dir().join("kappa_road_example");
    std::fs::create_dir_all(&dir).expect("create output dir");
    let graph_path = dir.join("roads.graph");
    kappa::graph::write_metis(&roads, &graph_path).expect("write graph");
    let partition_path = dir.join("roads.part");
    let lines: Vec<String> = kappa_result
        .partition
        .assignment()
        .iter()
        .map(|b| b.to_string())
        .collect();
    std::fs::write(&partition_path, lines.join("\n")).expect("write partition");
    println!(
        "wrote METIS graph to {} and partition to {}",
        graph_path.display(),
        partition_path.display()
    );
}
