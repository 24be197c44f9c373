//! Partition quality metrics as reported in the paper's tables:
//! average/best cut, balance, and running time.

use std::time::Duration;

use kappa_graph::{GraphAccess, Partition};
use serde::{Deserialize, Serialize};

/// Quality metrics of a single partitioning run.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct PartitionMetrics {
    /// Total edge cut `Σ_{i<j} ω(E_ij)`.
    pub edge_cut: u64,
    /// Balance `max_i c(V_i) / (c(V)/k)` — the paper prints e.g. `1.030`.
    pub balance: f64,
    /// Whether the balance constraint `c(V_i) ≤ L_max(ε)` holds for all blocks.
    pub feasible: bool,
    /// Number of boundary nodes.
    pub boundary_nodes: usize,
    /// Wall-clock running time of the run that produced the partition.
    pub runtime: Duration,
}

impl PartitionMetrics {
    /// Computes the metrics of `partition` on `graph` (runtime is supplied by
    /// the caller, since only it knows what was measured). Generic over the
    /// storage tier, so paged runs measure without decoding to plain CSR.
    /// Cut and boundary count come from one `for_each_edge` sweep — equal to
    /// [`Partition::edge_cut`] and [`Partition::num_boundary_nodes`], which
    /// would read every row twice (and allocate one per row on a paged graph).
    pub fn measure<G: GraphAccess>(
        graph: &G,
        partition: &Partition,
        epsilon: f64,
        runtime: Duration,
    ) -> Self {
        debug_assert_eq!(graph.num_nodes(), partition.num_nodes());
        let (mut cut, mut boundary_nodes) = (0, 0);
        for u in graph.stored_nodes() {
            let bu = partition.block_of(u);
            let mut on_boundary = false;
            graph.for_each_edge(u, |v, w| {
                if bu != partition.block_of(v) {
                    cut += w;
                    on_boundary = true;
                }
            });
            boundary_nodes += usize::from(on_boundary);
        }
        PartitionMetrics {
            edge_cut: cut / 2,
            balance: partition.balance(graph),
            feasible: partition.is_balanced(graph, epsilon),
            boundary_nodes,
            runtime,
        }
    }

    /// Runtime in seconds as `f64` (convenient for table output).
    pub fn runtime_secs(&self) -> f64 {
        self.runtime.as_secs_f64()
    }
}

/// Geometric mean of a sequence of positive values — the aggregation the paper
/// uses when averaging over instances "to give every instance the same
/// influence on the final figure".
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|&v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_gen::grid::grid2d;

    #[test]
    fn measure_reports_consistent_values() {
        let g = grid2d(8, 8);
        let p = Partition::from_assignment(
            2,
            (0..64).map(|i| if i % 8 < 4 { 0u32 } else { 1 }).collect(),
        );
        let m = PartitionMetrics::measure(&g, &p, 0.03, Duration::from_millis(5));
        assert_eq!(m.edge_cut, 8);
        assert!((m.balance - 1.0).abs() < 1e-9);
        assert!(m.feasible);
        assert_eq!(m.boundary_nodes, 16);
        assert!((m.runtime_secs() - 0.005).abs() < 1e-9);
    }

    #[test]
    fn fused_sweep_equals_the_partition_counts() {
        let g = kappa_gen::rgg::random_geometric_graph(2000, 3);
        for k in [2u32, 7, 32] {
            let p = Partition::from_assignment(
                k,
                (0..g.num_nodes() as u32)
                    .map(|v| v.wrapping_mul(0x9E37_79B1) % k)
                    .collect(),
            );
            let m = PartitionMetrics::measure(&g, &p, 0.03, Duration::ZERO);
            assert_eq!(m.edge_cut, p.edge_cut(&g), "k = {k}");
            assert_eq!(m.boundary_nodes, p.num_boundary_nodes(&g), "k = {k}");
        }
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        // The geometric mean is dominated less by outliers than the arithmetic mean.
        let values = [10.0, 10.0, 10.0, 10000.0];
        let geo = geometric_mean(&values);
        let arith: f64 = values.iter().sum::<f64>() / 4.0;
        assert!(geo < arith);
    }
}
