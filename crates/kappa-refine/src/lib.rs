//! # kappa-refine
//!
//! The refinement (uncoarsening) phase of the partitioner (§5 of the paper),
//! and the part where KaPPa differs most from earlier parallel systems:
//!
//! * a **2-way FM local search** ([`fm`]) with per-block priority queues,
//!   several **queue-selection strategies** ([`queue_select`], Table 4 left),
//!   adaptive stopping after `α·min(|A|,|B|)` fruitless moves and rollback to
//!   the lexicographically best `(imbalance, cut)` state;
//! * **boundary bands** ([`band`], Figure 2): the search is restricted to a
//!   bounded-BFS neighbourhood of the block-pair boundary so only a small
//!   fraction of each block ever needs to be exchanged between PEs; the
//!   band BFS is the one pass that reads a band node's adjacency row, so it
//!   also takes the node's gain and boundary flag from it ([`PairBand`]) and
//!   the FM search starts without touching the graph; band
//!   seeds come from an incremental
//!   [`BoundaryIndex`](kappa_graph::BoundaryIndex) via [`IndexSeeder`], so
//!   seed extraction costs `O(|boundary|)`, not `O(n + m)`;
//! * a **scratch pool** ([`scratch`]): FM and band-BFS buffers are pooled
//!   per worker and indexed by band position, so a pair search performs no
//!   `O(n)` allocation;
//! * a **parallel greedy edge colouring** of the quotient graph ([`coloring`],
//!   §5.1) whose colour classes are matchings of block pairs;
//! * the **pairwise refinement scheduler** ([`scheduler`]) that walks the
//!   colour classes, refines all pairs of a class concurrently, and iterates
//!   (local iterations per pair, global iterations over all colours);
//! * **delta-move views** ([`delta`]): concurrent pair searches read and
//!   write one shared atomic mirror of the assignment instead of cloning the
//!   partition per pair — exact because write sets are block-disjoint and
//!   cross-pair reads are membership tests — returning only their surviving
//!   moves as per-pair deltas;
//! * a **localized re-refinement** entry point ([`local`]): the dynamic-graph
//!   service re-runs the same banded FM only on block pairs around a touched
//!   region (mutated edges, inserted nodes), routing every move through the
//!   [`PartitionState`](kappa_graph::PartitionState) so streaming exactness
//!   is preserved — no full pipeline re-run per drift repair;
//! * a **k-way greedy balancer** ([`balance`]) that repairs residual balance
//!   violations, needed because the initial partition of the coarsest graph
//!   may be infeasible at node-weight granularity — routed through the
//!   partition state so its moves never desync the boundary index.
//!
//! The scheduler and balancer operate on one persistent
//! [`PartitionState`](kappa_graph::PartitionState) — assignment, incremental
//! block weights, incremental boundary index and per-pair cut weights behind a
//! single exact `apply_move` — which the uncoarsening loop threads across
//! hierarchy levels, so a whole run performs exactly one full boundary-index
//! build (at the coarsest level).
//!
//! ```
//! use kappa_gen::grid::grid2d;
//! use kappa_graph::PartitionState;
//! use kappa_initial::greedy_graph_growing;
//! use kappa_refine::{refine_partition, RefinementConfig};
//!
//! let graph = grid2d(24, 24);
//! let mut state = PartitionState::build(&graph, greedy_graph_growing(&graph, 4, 0.03, 5));
//! let before = state.edge_cut();
//! refine_partition(&graph, &mut state, &RefinementConfig::default());
//! assert!(state.edge_cut() <= before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod band;
pub mod coloring;
pub mod delta;
pub mod fm;
pub mod gather;
pub mod local;
pub mod queue_select;
pub mod scheduler;
pub mod scratch;

pub use balance::{best_move_of, fallback_move_of, fallback_target, rebalance_state};
pub use band::{
    merge_sorted_dedup, pair_band, BandSeeder, FirstBand, IdleBands, IndexSeeder, PairBand,
};
pub use coloring::{color_quotient_edges, EdgeColoring};
pub use delta::{DeltaPairView, SharedAssignment};
pub use fm::{patience_bound, two_way_fm_in, FmConfig, FmResult};
pub use gather::{BandShard, GatheredRegion, ShardError};
pub use local::refine_local;
pub use queue_select::QueueSelection;
pub use scheduler::{
    refine_partition, search_pair, PairDelta, PairSearch, RefinementConfig, RefinementStats,
};
pub use scratch::{FmScratch, ScratchPool};

#[cfg(test)]
#[path = "../../../tests/common/arbitrary_graph.rs"]
mod arbitrary_graph;
#[cfg(test)]
mod gain;
