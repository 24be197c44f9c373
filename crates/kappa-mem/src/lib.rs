//! # kappa-mem
//!
//! Compact and out-of-core graph storage for the table-5-class instances of
//! the paper — graphs whose plain CSR arrays (plus the builder's transient
//! edge list) no longer fit comfortably in RAM.
//!
//! One encoded graph, two byte stores. [`SegmentGraph`] keeps a graph as one
//! delta-varint [`segment`] per node under an `n + 1` offset table and is the
//! only implementor of [`GraphAccess`](kappa_graph::GraphAccess) here; where
//! the segment bytes live is its type parameter:
//!
//! | level | edge storage | RAM per half-edge | coordinates |
//! |---|---|---|---|
//! | `CsrGraph` (kappa-graph) | `u32` + `u64` arrays | 12 B | kept |
//! | [`CompactCsr`] = `SegmentGraph<Arena>` | segments in one RAM arena, read borrowed | ~2 B (unit weights) | kept |
//! | [`PagedGraph`] = `SegmentGraph<PageFile>` | the same segments in a file, read through a page cache | 0 B + fixed cache | dropped |
//!
//! All three decode to the identical sorted, merged adjacency, so the
//! partitioning pipeline produces bit-identical results on every level.
//!
//! A segment graph may keep its rows in a storage order other than id order
//! (a [`NodeOrder`](kappa_graph::NodeOrder); ids are unchanged). The paged
//! store writes a scattered input in its
//! [`locality_order`](kappa_graph::locality_order), and tiered contraction
//! hands each fine level's order down to its coarse level, so the rows a
//! band search or a sweep reads together share pages. The file format is
//! `KMEMPGv2` ([`paged`]).
//! [`TierGraph`] holds either store at runtime and [`TierSpec`] is the one
//! place a store is chosen: [`TierGraph::from_graph`] re-encodes a CSR,
//! [`TierGraph::from_source`] ([`build`]) streams a replayable
//! [`EdgeSource`](kappa_graph::EdgeSource) without ever materialising the
//! full edge list, and tiered contraction feeds [`TierSpec::build`] row by
//! row. No `mmap`, no `unsafe` — paged reads are plain `seek`/`read_exact`
//! behind a deterministic direct-mapped page cache, and
//! [`PagedGraph::open`] validates a file's header and index before it
//! allocates for them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod compact;
mod graph;
pub mod paged;
pub mod segment;
pub mod tier;
pub mod varint;

pub use compact::{CompactCsr, CompactWriter};
pub use graph::{NodeData, PushRow, SegmentGraph, SegmentWriter};
pub use paged::{CacheStats, PageCacheConfig, PagedGraph, PagedWriter};
pub use tier::{TierGraph, TierSpec};
