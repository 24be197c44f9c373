//! # kappa-dist
//!
//! The distributed-memory runtime of KaPPa-rs: the subsystem that turns the
//! shared-memory reproduction of Holtgrewe, Sanders & Schulz (IPDPS 2010)
//! back into what the paper actually is — a *distributed* multilevel graph
//! partitioner running over a partitioned representation of the graph
//! itself.
//!
//! * [`comm`] — the rank/message-passing runtime: the [`Comm`] trait (typed
//!   point-to-point send/recv plus deterministic collectives), its one
//!   implementation [`Endpoint`] (one in-order stream per peer, tag
//!   matching, timeout-guarded receives that fail loudly instead of
//!   deadlocking — written once, over a crate-private link) and the
//!   [`LocalCluster`] harness (one thread per rank, FIFO channel per rank
//!   pair, payloads never serialised).
//! * [`tcp`] — the socket link under the same endpoint: [`TcpCluster`]
//!   (threads over loopback) and [`TcpComm::connect_worker`] (one process
//!   per rank), with the [`codec`] wire format, the versioned handshake and
//!   the launcher's rendezvous.
//! * [`graph`] — [`DistGraph`]: 1D block distribution of the CSR with ghost
//!   (halo) vertices, owner-computes update rules, ghost exchange and pull
//!   protocols.
//! * [`state`] — [`DistState`]: each rank's shard of the partition state
//!   (live local assignment, boundary-index shard, replicated block
//!   weights).
//! * [`matching`] — two-phase distributed matching: sequential matching on
//!   each rank's interior subgraph, then a propose/accept handshake
//!   (locally-heaviest-edge pointing) across rank boundaries.
//! * [`contract`] — distributed contraction with deterministic coarse-id
//!   assignment, producing the next level's [`DistGraph`] with the coarse
//!   rows of `kappa-coarsen`'s `RowMerger`.
//! * [`refine`] — pairwise distributed refinement scheduled over the
//!   quotient-graph edge colouring: each block pair's boundary band is
//!   gathered to a home rank (seeds and shards in one message per peer),
//!   refined with the pooled FM of `kappa-refine`, and the surviving
//!   delta-moves sent back into every rank's state shard.
//! * [`pipeline`] — the end-to-end driver: [`partition_distributed`] runs
//!   coarsening → initial partitioning → uncoarsening over a cluster, keeping
//!   its levels in the shared `MultilevelHierarchy` and walking it up as the
//!   shared pipeline does, and is cut-bit-identical to the shared-memory
//!   [`KappaPartitioner`] for one rank (`tests/dist.rs` at the workspace
//!   root proves it).
//!
//! [`KappaPartitioner`]: kappa_core::KappaPartitioner

#![warn(missing_docs)]
// A panic kills a rank, and its peers then see only timeouts: every failure
// on a communication path is a diagnosed `CommError`. Tests are exempt
// (`clippy.toml`). An `assert!` outside a `Result` function is not flagged.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::panic_in_result_fn
)]

pub mod codec;
pub mod comm;
pub mod contract;
mod endpoint;
pub mod graph;
pub mod matching;
pub mod pipeline;
pub mod refine;
pub mod state;
pub mod tcp;

pub use codec::{Wire, PROTOCOL_VERSION};
pub use comm::{
    allreduce_min_opt, Comm, CommError, CommErrorKind, CommResult, CommStats, LocalCluster,
    LocalClusterConfig, LocalComm, Message, PhaseCommStats, Tag,
};
pub use contract::distributed_contraction;
pub use endpoint::Endpoint;
pub use graph::{DistGraph, LocalAssignment};
pub use matching::{distributed_matching, DistMatching};
pub use pipeline::{partition_distributed, partition_with_comm, DistConfig, DistRunResult};
pub use refine::{dist_rebalance, dist_refine};
pub use state::DistState;
pub use tcp::{rendezvous_serve, TcpCluster, TcpClusterConfig, TcpComm};
