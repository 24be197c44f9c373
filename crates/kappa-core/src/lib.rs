//! # kappa-core
//!
//! The KaPPa partitioner itself: the multilevel pipeline that ties the
//! substrates together — coarsening ([`kappa_coarsen`]), initial partitioning
//! ([`kappa_initial`]) and parallel pairwise refinement ([`kappa_refine`]) —
//! plus the named configurations of Table 2 (*Minimal*, *Fast*, *Strong*), the
//! geometric pre-partitioning used to give the parallel matcher locality
//! (§3.3), and quality metrics. The [`dynamic`] module turns a partition
//! into a long-lived [`DynamicSession`] over a mutating graph: streaming
//! inserts/deletes with exact state maintenance and drift-triggered
//! localized re-refinement.
//!
//! ## Quick start
//!
//! ```
//! use kappa_core::{KappaConfig, KappaPartitioner};
//! use kappa_gen::grid::grid2d;
//!
//! let graph = grid2d(32, 32);
//! let partitioner = KappaPartitioner::new(KappaConfig::fast(4));
//! let result = partitioner.partition(&graph);
//! assert!(result.partition.is_balanced(&graph, 0.03 + 1e-9));
//! assert!(result.metrics.edge_cut > 0);
//! println!("cut = {}", result.metrics.edge_cut);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod dynamic;
pub mod metrics;
pub mod partitioner;
pub mod prepartition;
pub mod tiered;

pub use config::{ConfigPreset, KappaConfig};
pub use dynamic::{DynamicConfig, DynamicSession, DynamicStats};
/// What [`KappaConfig::coarsening`] returns, for the drivers that hold one.
pub use kappa_coarsen::CoarseningConfig;
pub use metrics::{geometric_mean, PartitionMetrics};
pub use partitioner::{KappaPartitioner, PartitionResult, PhaseTimings};
pub use prepartition::{coordinate_prepartition, index_prepartition};
pub use tiered::{default_spill_dir, partition_tiered, MemoryTier, TieredPartitionResult};
