//! Release-profile stress tests on ≥ 2^20-node instances (ROADMAP's
//! "larger-scale stress" item): assert the end-to-end pipeline stays inside
//! a wall-clock and peak-RSS budget instead of silently developing cliffs.
//!
//! Ignored by default — they take seconds-to-minutes and only mean anything
//! under `--release`. CI runs them in a dedicated job:
//!
//! ```console
//! cargo test --release --test stress -- --ignored
//! ```
//!
//! The wall-clock budgets are deliberately loose (several times the
//! currently measured values, which are recorded next to each test) so
//! machine drift does not flake the job, while a genuine `O(n + m)`-per-level
//! regression — the class of bug the persistent `PartitionState` removed —
//! still trips them. The peak-RSS budgets of the three partitioner runs
//! (shared memory on rgg and grid, one distributed rank on rgg) are tight
//! (at most 1.25× the measurement): a run that copies its input again costs
//! one more graph and trips them. In debug builds only the structural
//! assertions run.
//!
//! Every budgeted run executes in a child process of its own (the test
//! binary re-invoked with `--exact <name> --ignored`), so its peak RSS is
//! measured alone: heap that earlier runs left resident in one process no
//! longer counts against the later rows.

use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use kappa::core::{DynamicConfig, DynamicSession};
use kappa::gen::{grid2d, random_geometric_graph};
use kappa::prelude::*;

mod common;
use common::{peak_rss_bytes, reset_peak_rss, xorshift};

/// Serialises the child processes: wall time is a whole-machine
/// measurement, so two budgeted runs must never overlap (the CI job also
/// passes `--test-threads=1`; this guards ad-hoc invocations).
static STRESS_LOCK: Mutex<()> = Mutex::new(());

/// Set in the environment of a child process started by [`in_child`].
const CHILD_ENV: &str = "KAPPA_STRESS_CHILD";

/// True inside the child process that runs `test` alone; in the parent it
/// starts that child — this test binary, filtered to exactly `test` — waits
/// for it and fails unless the child ran that one test and passed, then
/// returns false.
fn in_child(test: &str) -> bool {
    if std::env::var_os(CHILD_ENV).is_some() {
        return true;
    }
    let _guard = STRESS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let exe = std::env::current_exe().expect("path of the test binary");
    let args = [
        "--exact",
        test,
        "--ignored",
        "--nocapture",
        "--test-threads=1",
    ];
    let child = Command::new(exe)
        .args(args)
        .env(CHILD_ENV, "1")
        .stdout(Stdio::piped())
        .spawn()
        .expect("start the child test process");
    let output = child.wait_with_output().expect("wait for the child");
    let summary = String::from_utf8_lossy(&output.stdout);
    print!("{summary}");
    assert!(
        output.status.success() && summary.contains("test result: ok. 1 passed"),
        "{test}: the child process did not run and pass it ({})",
        output.status
    );
    false
}

/// What a budgeted run hands back: its partition and what the pipeline
/// reports about it.
struct Run {
    partition: Partition,
    edge_cut: u64,
    levels: usize,
    /// Full boundary-index builds, one count per rank (one for a
    /// shared-memory run).
    full_builds: Vec<usize>,
}

/// The shared-memory pipeline at its default thread count.
fn shared_memory(graph: &CsrGraph, config: KappaConfig) -> Run {
    let result = KappaPartitioner::new(config).partition(graph);
    Run {
        partition: result.partition,
        edge_cut: result.metrics.edge_cut,
        levels: result.hierarchy_levels,
        full_builds: vec![result.boundary_full_builds],
    }
}

/// The distributed pipeline at one rank.
fn one_rank(graph: &CsrGraph, config: KappaConfig) -> Run {
    let result = partition_distributed(graph, &DistConfig::new(config, 1)).expect("one-rank run");
    Run {
        partition: result.partition,
        edge_cut: result.edge_cut,
        levels: result.hierarchy_levels,
        full_builds: result.boundary_full_builds_per_rank,
    }
}

fn run_stress(
    name: &str,
    graph: &CsrGraph,
    k: u32,
    wall_budget: Duration,
    rss_budget: u64,
    partition: impl FnOnce(&CsrGraph, KappaConfig) -> Run,
) {
    let config = KappaConfig::fast(k).with_seed(7);
    reset_peak_rss();
    #[expect(
        clippy::disallowed_methods,
        reason = "the wall budget is what this test checks"
    )]
    let start = Instant::now();
    let run = partition(graph, config);
    let elapsed = start.elapsed();

    // Structural acceptance, profile-independent.
    assert!(run.partition.validate(graph).is_ok(), "{name}: invalid");
    assert!(
        run.partition.is_balanced(graph, config.epsilon),
        "{name}: infeasible, balance {}",
        run.partition.balance(graph)
    );
    assert!(
        run.full_builds.iter().all(|&builds| builds == 1),
        "{name}: not exactly one full boundary-index build: {:?}",
        run.full_builds
    );

    eprintln!(
        "stress {name}: n = {}, m = {}, cut = {}, {} levels, {:.2?} wall, peak RSS {}",
        graph.num_nodes(),
        graph.num_edges(),
        run.edge_cut,
        run.levels,
        elapsed,
        peak_rss_bytes()
            .map(|b| format!("{:.0} MiB", b as f64 / (1024.0 * 1024.0)))
            .unwrap_or_else(|| "unavailable".to_string()),
    );

    // Budgets only bind under --release; a debug build is legitimately an
    // order of magnitude slower.
    if !cfg!(debug_assertions) {
        assert!(
            elapsed <= wall_budget,
            "{name}: wall-clock budget blown: {elapsed:.2?} > {wall_budget:.2?}"
        );
        if let Some(rss) = peak_rss_bytes() {
            assert!(
                rss <= rss_budget,
                "{name}: peak-RSS budget blown: {} MiB > {} MiB",
                rss / (1024 * 1024),
                rss_budget / (1024 * 1024)
            );
        }
    }
}

#[test]
#[ignore = "release-profile stress: ≥ 2^20-node instance, run via the CI stress job"]
fn stress_rgg_2e20_k16_within_budget() {
    if !in_child("stress_rgg_2e20_k16_within_budget") {
        return;
    }
    // Measured on a 2-vCPU shared x86-64 guest (2026-10-20), release, in its
    // own process: 2.3-2.4 s wall, 311-312 MiB peak RSS since coarse levels
    // store 32-bit weights (340-350 MiB with 64-bit ones; 467 MiB while the
    // input stored its unit edge and node weights; 554-580 MiB in CI order
    // while every run shared one process). Budget: 1.25 x 312 MiB.
    let graph = random_geometric_graph(1 << 20, 11);
    run_stress(
        "rgg 2^20 k=16",
        &graph,
        16,
        Duration::from_secs(45),
        390 * 1024 * 1024,
        shared_memory,
    );
}

#[test]
#[ignore = "release-profile stress: ≥ 2^20-node instance, run via the CI stress job"]
fn stress_dist_rgg_2e20_k16_one_rank_within_budget() {
    if !in_child("stress_dist_rgg_2e20_k16_one_rank_within_budget") {
        return;
    }
    // One rank owns every node, so its shard is the caller's graph.
    // Measured on a 2-vCPU shared x86-64 guest (2026-10-20), release, in its
    // own process: 2.6-2.8 s wall, 229 MiB peak RSS since coarse shards
    // store 32-bit weights (254-257 MiB with 64-bit ones; 367 MiB while the
    // input stored its unit weights; 404-415 MiB after the soak in one
    // process; 587 alone while the shard copied its input). Budget: 1.25 x
    // 229 MiB.
    let graph = random_geometric_graph(1 << 20, 11);
    run_stress(
        "dist rgg 2^20 k=16 r=1",
        &graph,
        16,
        Duration::from_secs(45),
        287 * 1024 * 1024,
        one_rank,
    );
}

/// Soak test of the dynamic repartitioning service: bootstrap on a 2^17-node
/// instance, then absorb a long mixed stream of mutations and queries with
/// drift-triggered localized repairs. Asserts the serving loop stays inside
/// wall and RSS budgets, performs **no full index rebuild after warmup**
/// (`full_builds` stays at the single bootstrap build), and is still exact
/// at the end.
#[test]
#[ignore = "release-profile soak: long mutation/query stream, run via the CI stress job"]
fn soak_dynamic_service_within_budget() {
    // Measured on a 2-vCPU shared x86-64 guest (2026-10-16): 0.6-0.9 s
    // bootstrap + 18.6-22.0 s serving 40k ops (~0.5 ms/op; the 28
    // drift-triggered repairs are most of it), 97-103 MiB peak RSS; 73-75
    // MiB since a build sizes each boundary-index count segment by its
    // entries (2026-10-18, against 91-94 MiB for deg(v) slots, same box).
    // In its own process (2026-10-20): 61 MiB since the live graph stores
    // 32-bit weights (75-76 MiB with 64-bit ones; 79 MiB while the input
    // stored its unit weights). Budget: 1.25 x 61 MiB.
    if !in_child("soak_dynamic_service_within_budget") {
        return;
    }
    reset_peak_rss();
    let graph = random_geometric_graph(1 << 17, 13);
    let kappa = KappaConfig::fast(16).with_seed(7);
    #[expect(
        clippy::disallowed_methods,
        reason = "the wall budget is what this test checks"
    )]
    let start = Instant::now();
    let mut session = DynamicSession::bootstrap(graph, &kappa, DynamicConfig::matching(&kappa));
    let bootstrap_wall = start.elapsed();
    let warmup_full_builds = session.state().full_builds();
    assert_eq!(warmup_full_builds, 1, "bootstrap must build the index once");

    #[expect(
        clippy::disallowed_methods,
        reason = "the wall budget is what this test checks"
    )]
    let serve_start = Instant::now();
    let mut next = xorshift(0x50a4_u64 ^ 0x0a5e);
    let ops: usize = 40_000;
    for _ in 0..ops {
        let n = session.graph().num_nodes() as u64;
        match next() % 10 {
            0..=2 => {
                let v = (next() % n) as u32;
                session.query(v);
            }
            3..=5 => {
                let u = (next() % n) as u32;
                let v = (next() % n) as u32;
                if u != v {
                    let _ = session.insert_edge(u, v, 1 + next() % 9);
                }
            }
            6..=7 => {
                let v = (next() % n) as u32;
                let mut edges = session.graph().edges_of_collected(v);
                edges.sort_unstable();
                if !edges.is_empty() {
                    let (u, _) = edges[(next() % edges.len() as u64) as usize];
                    session.delete_edge(v, u).unwrap();
                }
            }
            8 => {
                let _ = session.insert_node(1, None);
            }
            _ => {
                let v = (next() % n) as u32;
                if session.graph().is_alive(v) && session.graph().num_live_nodes() > 1000 {
                    session.delete_node(v).unwrap();
                }
            }
        }
    }
    let serve_wall = serve_start.elapsed();

    let stats = *session.stats();
    eprintln!(
        "soak dynamic: bootstrap {bootstrap_wall:.2?}, {ops} ops in {serve_wall:.2?} \
         ({:.1} µs/op), {} refines, cut {}, peak RSS {}",
        serve_wall.as_micros() as f64 / ops as f64,
        stats.local_refines,
        session.edge_cut(),
        peak_rss_bytes()
            .map(|b| format!("{:.0} MiB", b as f64 / (1024.0 * 1024.0)))
            .unwrap_or_else(|| "unavailable".to_string()),
    );

    // Structural acceptance, profile-independent: no full rebuild after
    // warmup, and the maintained state is still exact.
    assert_eq!(
        session.state().full_builds(),
        warmup_full_builds,
        "the serving loop performed a full index rebuild after warmup"
    );
    session
        .verify()
        .expect("state diverged from a from-scratch rebuild");

    // Budgets only bind under --release (see run_stress).
    if !cfg!(debug_assertions) {
        let wall_budget = Duration::from_secs(60);
        assert!(
            bootstrap_wall + serve_wall <= wall_budget,
            "soak wall-clock budget blown: {:.2?} > {wall_budget:.2?}",
            bootstrap_wall + serve_wall
        );
        if let Some(rss) = peak_rss_bytes() {
            let rss_budget = 77u64 * 1024 * 1024;
            assert!(
                rss <= rss_budget,
                "soak peak-RSS budget blown: {} MiB > {} MiB",
                rss / (1024 * 1024),
                rss_budget / (1024 * 1024)
            );
        }
    }
}

#[test]
#[ignore = "release-profile stress: ≥ 2^20-node instance, run via the CI stress job"]
fn stress_grid_1024_k32_within_budget() {
    if !in_child("stress_grid_1024_k32_within_budget") {
        return;
    }
    // Measured on a 2-vCPU shared x86-64 guest (2026-10-20), release, in its
    // own process: 1.2 s wall, 204-211 MiB peak RSS since coarse levels
    // store 32-bit weights (235-252 MiB with 64-bit ones; 283-289 MiB while
    // the input stored its unit weights; 314-333 MiB in CI order while every
    // run shared one process). Budget: 1.25 x 211 MiB.
    let graph = grid2d(1024, 1024);
    run_stress(
        "grid 1024x1024 k=32",
        &graph,
        32,
        Duration::from_secs(45),
        264 * 1024 * 1024,
        shared_memory,
    );
}
