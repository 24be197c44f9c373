//! # kappa-graph
//!
//! Graph substrate for the KaPPa-rs partitioner: a compressed sparse row (CSR)
//! representation of weighted undirected graphs, a builder that deduplicates
//! parallel edges, partitions with balance accounting, quotient graphs,
//! induced subgraphs with back-mappings, boundary/band utilities, an
//! incrementally maintained [`BoundaryIndex`], the persistent
//! [`PartitionState`] (assignment + weights + boundary index + per-pair cut
//! weights behind one exact `apply_move`), the mutating [`DynamicGraph`] of the
//! dynamic service (vertex/edge insert-delete with stable ids, read through
//! the same [`GraphAccess`] seam as every frozen graph), the
//! [`locality_order`] a store keeps a scattered graph's rows in, and
//! METIS-style text I/O.
//!
//! The design follows Section 2 of Holtgrewe, Sanders and Schulz,
//! *Engineering a Scalable High Quality Graph Partitioner* (2010): graphs are
//! undirected with positive edge weights `ω` and non-negative node weights `c`,
//! both of which become non-trivial during multilevel contraction even when the
//! input is unweighted.
//!
//! ## Quick example
//!
//! ```
//! use kappa_graph::{GraphBuilder, Partition};
//!
//! // A 4-cycle.
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 1);
//! b.add_edge(1, 2, 1);
//! b.add_edge(2, 3, 1);
//! b.add_edge(3, 0, 1);
//! let g = b.build();
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.num_edges(), 4);
//!
//! // Split it into two blocks of two nodes: the cut is 2.
//! let p = Partition::from_assignment(2, vec![0, 0, 1, 1]);
//! assert_eq!(p.edge_cut(&g), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod boundary;
pub mod boundary_index;
pub mod builder;
pub mod csr;
pub mod dynamic;
pub mod io;
pub mod order;
pub mod partition;
pub mod partition_state;
pub mod quotient;
pub mod stream;
pub mod subgraph;
pub mod types;

pub use access::GraphAccess;
pub use boundary::{band_around_boundary, boundary_nodes, is_pair_boundary, pair_boundary_nodes};
pub use boundary_index::BoundaryIndex;
pub use builder::{graph_from_edges, merge_row, GraphBuilder};
pub use csr::{CsrGraph, CsrRows, WeightOverflow, MAX_TOTAL_WEIGHT};
pub use dynamic::DynamicGraph;
pub use io::{
    parse_metis, read_metis, to_metis_string, to_metis_string_fmt, write_metis, MetisError,
    MetisFormat,
};
pub use order::{locality_order, IdSpan, NodeOrder};
pub use partition::{BlockAssignment, BlockAssignmentMut, BlockWeights, Partition};
pub use partition_state::PartitionState;
pub use quotient::{sum_cut_weights, QuotientGraph};
pub use stream::{EdgeSource, SliceEdgeSource};
pub use subgraph::{extract_subgraph, ExtractedSubgraph};
pub use types::{BlockId, EdgeWeight, NodeId, NodeWeight, INVALID_BLOCK, INVALID_NODE};
