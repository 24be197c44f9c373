//! # kappa — a scalable high quality graph partitioner
//!
//! Facade crate of **KaPPa-rs**, a Rust reproduction of Holtgrewe, Sanders and
//! Schulz, *Engineering a Scalable High Quality Graph Partitioner* (2010).
//! It re-exports the workspace crates so applications only need a single
//! dependency:
//!
//! * [`graph`] — CSR graphs, partitions, quotient graphs, METIS I/O
//!   (`kappa-graph`);
//! * [`gen`] — synthetic benchmark-instance generators (`kappa-gen`);
//! * [`matching`] — edge ratings and matching algorithms (`kappa-matching`);
//! * [`coarsen`] — contraction and the multilevel hierarchy (`kappa-coarsen`);
//! * [`initial`] — initial partitioning of the coarsest graph (`kappa-initial`);
//! * [`refine`] — 2-way FM, quotient-graph colouring and the pairwise parallel
//!   refinement scheduler (`kappa-refine`);
//! * [`mem`] — compact and paged (out-of-core) graph storage tiers plus
//!   streaming construction from [`EdgeSource`](crate::graph::EdgeSource)s
//!   (`kappa-mem`);
//! * [`core`] — the [`KappaPartitioner`](crate::core::KappaPartitioner), its
//!   Minimal / Fast / Strong configurations, the memory-tiered
//!   [`partition_tiered`](crate::core::partition_tiered) pipeline behind
//!   `kappa-partition --memory-tier`, and the dynamic-graph
//!   [`DynamicSession`](crate::core::DynamicSession) behind `kappa-serve`
//!   (`kappa-core`);
//! * [`dist`] — the rank-based distributed-memory runtime: message-passing
//!   [`Comm`](crate::dist::Comm) clusters, ghosted [`DistGraph`](crate::dist::DistGraph)s and the
//!   distributed pipeline behind `kappa-partition --ranks` (`kappa-dist`);
//! * [`baselines`] — Metis-/parMetis-/Scotch-like comparison partitioners
//!   (`kappa-baselines`).
//!
//! ## Example
//!
//! ```
//! use kappa::prelude::*;
//!
//! // Generate a small random geometric graph and split it into 8 blocks.
//! let graph = kappa::gen::random_geometric_graph(2_000, 42);
//! let result = KappaPartitioner::new(KappaConfig::fast(8).with_seed(42)).partition(&graph);
//!
//! assert!(result.partition.is_balanced(&graph, 0.03 + 1e-9));
//! println!(
//!     "cut = {}, balance = {:.3}, {} hierarchy levels",
//!     result.metrics.edge_cut, result.metrics.balance, result.hierarchy_levels
//! );
//! ```

#![warn(missing_docs)]

pub use kappa_baselines as baselines;
pub use kappa_coarsen as coarsen;
pub use kappa_core as core;
pub use kappa_dist as dist;
pub use kappa_gen as gen;
pub use kappa_graph as graph;
pub use kappa_initial as initial;
pub use kappa_matching as matching;
pub use kappa_mem as mem;
pub use kappa_refine as refine;

/// The most commonly used types, for `use kappa::prelude::*`.
pub mod prelude {
    pub use kappa_baselines::{BaselineKind, BaselinePartitioner};
    pub use kappa_core::{
        partition_tiered, ConfigPreset, DynamicConfig, DynamicSession, KappaConfig,
        KappaPartitioner, MemoryTier, PartitionMetrics,
    };
    pub use kappa_dist::{partition_distributed, DistConfig};
    pub use kappa_graph::{CsrGraph, DynamicGraph, GraphBuilder, Partition};
    pub use kappa_matching::{EdgeRating, MatchingAlgorithm};
    pub use kappa_refine::QueueSelection;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_full_pipeline() {
        let graph = crate::gen::grid2d(16, 16);
        let result = KappaPartitioner::new(KappaConfig::minimal(4)).partition(&graph);
        assert!(result.partition.validate(&graph).is_ok());
        assert_eq!(result.partition.k(), 4);
    }
}
