//! # kappa-coarsen
//!
//! The contraction (coarsening) phase of the multilevel partitioner (§2–3 of
//! the paper): iteratively compute a matching, contract the matched edges, and
//! record the resulting hierarchy of successively smaller graphs together with
//! the fine-to-coarse node mappings needed to project partitions back down
//! during uncoarsening.
//!
//! Contraction runs in parallel per coarse-id range, mirroring the paper's
//! per-PE contraction: [`contract_matching`] builds per-worker CSR fragments
//! and concatenates them in coarse-id order, producing the same coarse graph
//! for every thread count.
//!
//! ```
//! use kappa_coarsen::{CoarseningConfig, MatcherKind, MultilevelHierarchy};
//! use kappa_gen::grid::grid2d;
//! use kappa_matching::{EdgeRating, MatchingAlgorithm};
//!
//! let g = grid2d(16, 16);
//! let config = CoarseningConfig { stop_at_nodes: 32, ..Default::default() };
//! let matcher = MatcherKind::Sequential(MatchingAlgorithm::Gpa);
//! let hierarchy = MultilevelHierarchy::build(&g, matcher, EdgeRating::ExpansionStar2, &config);
//! assert!(hierarchy.coarsest().num_nodes() <= 64); // may stop early if matchings stall
//! assert!(hierarchy.num_levels() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contract;
pub mod hierarchy;
pub mod tiered;

pub use contract::{contract_matching, Contraction, RowMerger};
pub use hierarchy::{CoarseningConfig, MatcherKind, MultilevelHierarchy};
pub use kappa_mem::TierSpec;
pub use tiered::{contract_to_tier, SpillConfig};

#[cfg(test)]
#[path = "../../../tests/common/arbitrary_graph.rs"]
mod arbitrary_graph;
