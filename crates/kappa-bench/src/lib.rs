//! # kappa-bench
//!
//! The experiment harness: the `exp` binary reproduces every table and
//! figure of the paper's evaluation (§6) — `exp --list` names them, `exp
//! <name>` prints a table with the same rows/columns as the paper and
//! optionally a JSON record stream (`--json`) that EXPERIMENTS.md references.
//! Performance is measured elsewhere, by the `perf_profile` package under
//! `perf/` (see BENCHMARK.json).
//!
//! [`experiments`] holds the registry and the drivers the experiments share;
//! [`runner`] runs a tool on an instance a number of times and aggregates
//! average/best cut, average balance and average runtime; [`args`] and
//! [`table`] are the command line and the table formatting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod runner;
pub mod table;

pub use args::Args;
pub use experiments::{run_cli, Experiment, EXPERIMENTS};
pub use runner::{AggregatedRun, Variant};
pub use table::{fmt_f, Table};
