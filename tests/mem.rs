//! Memory-tier acceptance tests: the paged (out-of-core) pipeline must
//! partition table-5-class instances in a fraction of the in-RAM footprint
//! while producing **bit-identical** partitions to the classic pipeline at
//! one thread for the same seed.
//!
//! The ≥ 2^22-node tests are ignored by default — they take minutes and only
//! mean anything under `--release`. CI runs them in the dedicated `mem` job:
//!
//! ```console
//! cargo test --release --test mem -- --ignored --test-threads=1
//! ```
//!
//! The headline budget comes straight from the issue's acceptance bar:
//! the 2^20 in-RAM run measures 699 MiB peak RSS, so an in-RAM 2^22 run
//! needs ≈ 2.8 GiB by linear extrapolation — the paged 2^22 run must stay
//! under **half** of that (1.4 GiB). Wall/RSS figures per instance size are
//! recorded next to each test and in EXPERIMENTS.md.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use kappa::coarsen::SpillConfig;
use kappa::core::{default_spill_dir, partition_tiered};
use kappa::gen::{random_geometric_graph, RggSource};
use kappa::mem::{TierGraph, TierSpec};
use kappa::prelude::*;

mod common;
use common::{format_peak_rss, peak_rss_bytes, reset_peak_rss};

/// Serialises the budgeted runs: wall time and peak RSS are process-wide
/// measurements (the CI job also passes `--test-threads=1`).
static MEM_LOCK: Mutex<()> = Mutex::new(());

struct TieredRun {
    partition: Partition,
    edge_cut: u64,
    levels: Vec<&'static str>,
    wall: Duration,
    peak_rss: Option<u64>,
}

/// Streams the `rgg` instance with `n` nodes straight onto the paged tier
/// (the full edge list never exists in RAM) and partitions it, measuring
/// wall clock and peak RSS of the whole build + partition.
fn run_paged_rgg(n: usize, gen_seed: u64, k: u32, part_seed: u64) -> TieredRun {
    let spill = SpillConfig::new(default_spill_dir(&format!("mem-{n}")));
    std::fs::create_dir_all(&spill.spill_dir).expect("spill dir");
    reset_peak_rss();
    let start = Instant::now();
    let src = RggSource::new(n, gen_seed);
    let spec = TierSpec::Paged {
        path: &spill.spill_dir.join("finest.kpg"),
        cache: spill.cache,
    };
    let mut finest = TierGraph::from_source(&src, spec).expect("paged build");
    finest.set_delete_on_drop(true);
    drop(src); // generator state (points + buckets) released before the run
    let config = KappaConfig::fast(k).with_seed(part_seed).with_threads(1);
    let tiered = partition_tiered(finest, &config, &spill).expect("tiered partition");
    let wall = start.elapsed();
    let peak_rss = peak_rss_bytes();
    let _ = std::fs::remove_dir_all(&spill.spill_dir);
    TieredRun {
        partition: tiered.result.partition,
        edge_cut: tiered.result.metrics.edge_cut,
        levels: tiered.level_tiers,
        wall,
        peak_rss,
    }
}

/// Quick structural check in every profile: the paged pipeline on a small
/// instance is bit-identical to the classic in-RAM pipeline at one thread.
#[test]
fn paged_matches_ram_on_small_instance() {
    let _guard = MEM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let n = 1 << 13;
    let paged = run_paged_rgg(n, 11, 8, 7);
    let graph = random_geometric_graph(n, 11);
    let classic =
        KappaPartitioner::new(KappaConfig::fast(8).with_seed(7).with_threads(1)).partition(&graph);
    assert_eq!(
        paged.partition.assignment(),
        classic.partition.assignment(),
        "paged partition differs from the classic in-RAM partition"
    );
    assert_eq!(paged.edge_cut, classic.metrics.edge_cut);
}

/// Deterministic page-miss ceiling on the layer that thrashes (ROADMAP item
/// 2): the last uncoarsening step of an rgg 2^15 — project a solved level-1
/// state, `refine_partition` — straight on a `PagedGraph` whose cache (32
/// pages = 128 KiB) holds about a ninth of the edge region, as
/// `paged_rgg17_k8_thrash`'s does. At one worker the miss count is exact.
///
/// The band BFS is the only pass of a pair search that reads the rows of
/// unmoved nodes (`kappa_refine::PairBand`), the quotient and a first
/// seeding read none, and an unchanged idle pair searches its kept band
/// without a BFS. The file keeps the rows in Morton order (rgg ids are
/// spatially random), so a band's rows share pages: this step takes
/// **985** misses (1 312 in a debug build, whose assertions recount the cut
/// by sweeping the file). With the rows in id order it took **45 856**
/// (46 174), `PARENT` below; while the quotient re-read the boundary rows
/// and every visit grew its band 51 020 (51 338); while the FM search also
/// re-read every band row for its gain and again for its queue 134 403
/// (134 721). The ceiling is the debug count.
#[test]
fn paged_refinement_stays_under_the_page_miss_ceiling() {
    use kappa::coarsen::contract_matching;
    use kappa::graph::PartitionState;
    use kappa::matching::compute_matching;
    use kappa::mem::{PageCacheConfig, PagedGraph};
    use kappa::refine::refine_partition;

    const CEILING: u64 = 1_312;
    const PARENT: u64 = 45_856;
    const { assert!(2 * CEILING < PARENT) };

    let graph = random_geometric_graph(1 << 15, 11);
    let cfg = KappaConfig::fast(8).with_seed(7).with_threads(1);
    let matching = compute_matching(&graph, cfg.matching, cfg.rating, cfg.seed);
    let contraction = contract_matching(&graph, &matching);
    let coarse = &contraction.coarse_graph;
    let coarse_state = PartitionState::build(
        coarse,
        KappaPartitioner::new(cfg).partition(coarse).partition,
    );

    let dir = default_spill_dir("mem-refine-misses");
    std::fs::create_dir_all(&dir).expect("spill dir");
    let cache = PageCacheConfig {
        page_size: 4096,
        cache_pages: 32,
    };
    let paged = PagedGraph::from_graph(&graph, &dir.join("finest.kpg"), cache).expect("spill");

    let one_worker = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the pool builder does not fail");
    let (in_ram, on_disk, misses) = one_worker.install(|| {
        let mut in_ram = coarse_state.project(&graph, &contraction.coarse_of);
        refine_partition(&graph, &mut in_ram, &cfg.refinement());
        let mut on_disk = coarse_state.project(&paged, &contraction.coarse_of);
        paged.reset_cache_stats();
        refine_partition(&paged, &mut on_disk, &cfg.refinement());
        (in_ram, on_disk, paged.cache_stats().misses)
    });
    drop(paged);
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        in_ram.edge_cut() < coarse_state.edge_cut(),
        "nothing refined"
    );
    assert_eq!(
        on_disk.partition().assignment(),
        in_ram.partition().assignment(),
        "refining on the paged tier diverged from refining in RAM"
    );
    assert!(
        misses <= CEILING,
        "paged refinement of rgg 2^15 took {misses} page misses, ceiling {CEILING}"
    );
}

#[test]
#[ignore = "release-profile memory tier: 2^22-node instance, run via the CI mem job"]
fn mem_rgg_2e22_paged_half_ram_and_bit_identical() {
    // Measured on the reference container (2026-08-09, 1 core): paged
    // 277 s wall, 1307 MiB peak RSS, 13 levels (4 paged); the in-RAM run
    // of the same instance measures 3.0 GiB (EXPERIMENTS.md).
    let _guard = MEM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let n = 1 << 22;
    let paged = run_paged_rgg(n, 11, 16, 7);
    eprintln!(
        "mem rgg 2^22 paged: cut = {}, {} levels on [{}], {:.2?} wall, peak RSS {}",
        paged.edge_cut,
        paged.levels.len(),
        paged.levels.join(", "),
        paged.wall,
        paged
            .peak_rss
            .map(|b| format!("{:.0} MiB", b as f64 / (1024.0 * 1024.0)))
            .unwrap_or_else(|| "unavailable".to_string()),
    );
    assert_eq!(paged.levels[0], "paged", "finest level must be on disk");

    if !cfg!(debug_assertions) {
        // The acceptance budget: less than half the ≈ 2.8 GiB an in-RAM 2^22
        // run needs (2^20 measures 699 MiB, extrapolated linearly).
        if let Some(rss) = paged.peak_rss {
            let budget = 14 * 1024 * 1024 * 1024 / 10; // 1.4 GiB
            assert!(
                rss < budget,
                "paged 2^22 peak RSS {} MiB is not under half the in-RAM need ({} MiB)",
                rss / (1024 * 1024),
                budget / (1024 * 1024)
            );
        }
        let wall_budget = Duration::from_secs(600);
        assert!(
            paged.wall <= wall_budget,
            "paged 2^22 wall budget blown: {:.2?} > {wall_budget:.2?}",
            paged.wall
        );
    }

    // Bit-identity against the classic pipeline (same seed, one thread).
    // Runs after the budget asserts so its ~3 GiB footprint cannot pollute
    // the paged measurement.
    let graph = random_geometric_graph(n, 11);
    let classic =
        KappaPartitioner::new(KappaConfig::fast(16).with_seed(7).with_threads(1)).partition(&graph);
    assert_eq!(
        paged.partition.assignment(),
        classic.partition.assignment(),
        "paged 2^22 partition differs from the classic in-RAM partition"
    );
    assert_eq!(paged.edge_cut, classic.metrics.edge_cut);
}

#[test]
#[ignore = "release-profile memory tier: 2^24-node instance, run via the CI mem job"]
fn mem_rgg_2e24_paged_within_budget() {
    // Measured on the reference container (2026-08-09, 1 core): 1691 s
    // wall, 4884 MiB peak RSS, 13 levels (6 paged) — an in-RAM run needs
    // ≈ 11.2 GiB by extrapolation from 2^20's 699 MiB.
    let _guard = MEM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let n = 1 << 24;
    let run = run_paged_rgg(n, 11, 16, 7);
    eprintln!(
        "mem rgg 2^24 paged: cut = {}, {} levels on [{}], {:.2?} wall, peak RSS {}",
        run.edge_cut,
        run.levels.len(),
        run.levels.join(", "),
        run.wall,
        format_peak_rss(),
    );
    assert_eq!(run.levels[0], "paged");
    assert!(run.edge_cut > 0);
    assert_eq!(run.partition.assignment().len(), n);

    if !cfg!(debug_assertions) {
        if let Some(rss) = run.peak_rss {
            // The same bar as 2^22: under half the ≈ 11.2 GiB an
            // in-RAM run needs (measured 4884 MiB).
            let budget = 56 * 1024 * 1024 * 1024 / 10; // 5.6 GiB
            assert!(
                rss < budget,
                "paged 2^24 peak RSS {} MiB > {} MiB budget",
                rss / (1024 * 1024),
                budget / (1024 * 1024)
            );
        }
        let wall_budget = Duration::from_secs(3600); // measured 1691 s
        assert!(
            run.wall <= wall_budget,
            "paged 2^24 wall budget blown: {:.2?} > {wall_budget:.2?}",
            run.wall
        );
    }
}
