//! Every call into a layer crate lives in this file, so the API surface the
//! benchmark freezes is readable in one place (listed in `README.md`).
//!
//! End-to-end path: generators, `io::{write_metis, read_metis}`, `CsrGraph`
//! accessors, `KappaConfig`/`KappaPartitioner::partition`,
//! `partition_distributed`/`DistConfig`, `PagedGraph::from_graph`/
//! `PageCacheConfig`/`TierGraph`/`SpillConfig`/`partition_tiered`, and
//! `.partition.assignment()`. The trace additionally calls the finest-level
//! kernels. Nothing that ROADMAP items 3-4 plan to delete appears
//! (hierarchy types, `*_reference` twins, `FullScanSeeder`, `rebalance`).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use kappa_coarsen::{contract_matching, contract_to_tier, SpillConfig, TierSpec};
use kappa_core::{partition_tiered, KappaConfig, KappaPartitioner};
use kappa_dist::{
    dist_refine, distributed_contraction, distributed_matching, partition_distributed, CommResult,
    DistConfig, DistGraph, DistState, LocalCluster,
};
use kappa_gen::{random_geometric_graph, rmat_graph};
use kappa_graph::{read_metis, write_metis, CsrGraph, GraphAccess, Partition, PartitionState};
use kappa_matching::compute_matching;
use kappa_mem::{PageCacheConfig, PagedGraph, TierGraph};
use kappa_refine::{refine_partition, RefinementConfig, RefinementStats};

use crate::check::RawGraph;
use crate::trace::Tracer;
use crate::workloads::{Family, Path as InputPath, Preset, Workload};

/// 512 KiB of cache: about 1/12 of the edge region of rgg 2^17, so fine
/// levels thrash.
const THRASH_CACHE: PageCacheConfig = PageCacheConfig {
    page_size: 4096,
    cache_pages: 128,
};

/// Runs `f` with every Rayon-parallel kernel pinned to one worker.
pub fn single_threaded<T>(f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the pool builder does not fail")
        .install(f)
}

pub fn config(w: &Workload, seed: u64) -> KappaConfig {
    let base = match w.preset {
        Preset::Minimal => KappaConfig::minimal(w.k),
        Preset::Fast => KappaConfig::fast(w.k),
    };
    base.with_seed(seed).with_threads(1)
}

fn spill(scratch: &Path) -> SpillConfig {
    SpillConfig {
        spill_dir: scratch.join("spill"),
        spill_above_half_edges: 1 << 16,
        cache: THRASH_CACHE,
    }
}

fn refinement_config(cfg: &KappaConfig) -> RefinementConfig {
    RefinementConfig {
        epsilon: cfg.epsilon,
        bfs_depth: cfg.bfs_depth,
        max_global_iterations: cfg.max_global_iterations,
        local_iterations: cfg.local_iterations,
        stop_after_no_change: cfg.stop_after_no_change,
        queue_selection: cfg.queue_selection,
        patience_alpha: cfg.fm_patience,
        seed: cfg.seed,
    }
}

/// A ready-to-partition input: the graph in RAM (the checker always needs
/// it) plus, on the paged path, its spilled form.
pub struct Input {
    graph: CsrGraph,
    paged: Option<TierGraph>,
}

impl Input {
    pub fn raw(&self) -> RawGraph<'_> {
        RawGraph {
            xadj: self.graph.xadj(),
            adjncy: self.graph.adjncy(),
            adjwgt: self.graph.adjwgt(),
            vwgt: self.graph.vwgt(),
        }
    }
}

fn generate(family: Family, seed: u64) -> CsrGraph {
    match family {
        Family::Rgg { log_n } => random_geometric_graph(1 << log_n, seed),
        Family::Rmat { scale, edge_factor } => rmat_graph(scale, edge_factor, seed),
    }
}

/// The METIS writer and parser must hand back the graph they were given.
fn check_round_trip(written: &CsrGraph, read: &CsrGraph) -> Result<(), String> {
    let same = written.xadj() == read.xadj()
        && written.adjncy() == read.adjncy()
        && written.adjwgt() == read.adjwgt()
        && written.vwgt() == read.vwgt();
    same.then_some(())
        .ok_or_else(|| "METIS round trip changed the graph".to_string())
}

/// Seed to ready-to-partition input: what `setup_s` times.
pub fn set_up(w: &Workload, graph_seed: u64, scratch: &Path) -> Result<Input, String> {
    let graph = generate(w.family, graph_seed);
    match w.path {
        InputPath::Ram | InputPath::Dist => Ok(Input { graph, paged: None }),
        InputPath::MetisFile => {
            let file = scratch.join("input.graph");
            write_metis(&graph, &file).map_err(|e| e.to_string())?;
            let read = read_metis(&file).map_err(|e| e.to_string())?;
            check_round_trip(&graph, &read)?;
            Ok(Input {
                graph: read,
                paged: None,
            })
        }
        InputPath::Paged => {
            let mut input = Input { graph, paged: None };
            spill_input(&mut input, scratch)?;
            Ok(input)
        }
    }
}

/// Spills the input under the thrash cache (part of set-up on the paged
/// path; the trace also calls it, untimed, before each tiered call).
pub fn spill_input(input: &mut Input, scratch: &Path) -> Result<(), String> {
    let paged = PagedGraph::from_graph(&input.graph, &scratch.join("input.kpg"), THRASH_CACHE)
        .map_err(|e| e.to_string())?;
    input.paged = Some(TierGraph::Paged(paged));
    Ok(())
}

/// Set-up of the traced run: every workload's graph goes through every
/// input layer (generator, METIS writer and parser; the spill-file build is
/// a span of `paged_step`), so each per-layer set-up metric exists on each
/// workload.
pub fn traced_set_up(
    t: &mut Tracer,
    w: &Workload,
    graph_seed: u64,
    scratch: &Path,
) -> Result<Input, String> {
    let graph = t.span("gen.generate", |_| generate(w.family, graph_seed));
    t.count("gen.nodes", graph.num_nodes() as f64);
    t.count("gen.edges", graph.num_edges() as f64);
    let file = scratch.join("input.graph");
    t.span("graph.metis_write", |_| write_metis(&graph, &file))
        .map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&file).map_err(|e| e.to_string())?.len();
    t.count("graph.metis_bytes", bytes as f64);
    let read = t
        .span("graph.metis_read", |_| read_metis(&file))
        .map_err(|e| e.to_string())?;
    check_round_trip(&graph, &read)?;
    // The arrays are identical; the generated graph also has coordinates.
    Ok(Input { graph, paged: None })
}

/// A computed partition; keeps `Partition`'s accessor inside this file.
pub struct Assignment(Partition);

impl Assignment {
    pub fn blocks(&self) -> &[u32] {
        self.0.assignment()
    }
}

/// The workload's single top-level call. The paged path consumes the
/// spilled graph, so a paged input serves one call.
pub fn partition(
    w: &Workload,
    input: &mut Input,
    seed: u64,
    scratch: &Path,
) -> Result<Assignment, String> {
    match w.path {
        InputPath::Ram | InputPath::MetisFile => Ok(partition_ram(input, &config(w, seed))),
        InputPath::Dist => partition_dist(input, &config(w, seed), 1).map(|(p, _)| p),
        InputPath::Paged => partition_paged(input, &config(w, seed), scratch),
    }
}

pub fn partition_ram(input: &Input, cfg: &KappaConfig) -> Assignment {
    Assignment(
        KappaPartitioner::new(*cfg)
            .partition(&input.graph)
            .partition,
    )
}

/// Exact communication counts of one distributed run, summed over ranks.
pub struct CommCounts {
    pub frames_total: u64,
    pub frames_coarsen: u64,
    pub frames_refine: u64,
    pub collectives_total: u64,
}

pub fn partition_dist(
    input: &Input,
    cfg: &KappaConfig,
    ranks: usize,
) -> Result<(Assignment, CommCounts), String> {
    let result = partition_distributed(&input.graph, &DistConfig::new(*cfg, ranks))
        .map_err(|e| e.to_string())?;
    let phase_frames = |phase: &str| -> u64 {
        result
            .comm_per_rank
            .iter()
            .flat_map(|s| s.phases.iter())
            .filter(|(name, _)| name == phase)
            .map(|(_, p)| p.frames)
            .sum()
    };
    let counts = CommCounts {
        frames_total: result.comm_per_rank.iter().map(|s| s.total.frames).sum(),
        frames_coarsen: phase_frames("coarsen"),
        frames_refine: phase_frames("refine"),
        collectives_total: result
            .comm_per_rank
            .iter()
            .map(|s| s.total.collectives)
            .sum(),
    };
    Ok((Assignment(result.partition), counts))
}

pub fn partition_paged(
    input: &mut Input,
    cfg: &KappaConfig,
    scratch: &Path,
) -> Result<Assignment, String> {
    let tier = input
        .paged
        .take()
        .ok_or("the paged input was already consumed")?;
    partition_tiered(tier, cfg, &spill(scratch))
        .map(|r| Assignment(r.result.partition))
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// The traced finest-level step: the last V-cycle step on the input graph,
// through public kernels, once per storage/distribution variant. The level-1
// solve in the middle is a black box (one `KappaPartitioner` call on the
// coarse graph); the driver is not re-implemented.
// ---------------------------------------------------------------------------

/// What the RAM step hands to the other variants and to the checker.
pub struct FinestStep {
    coarse_of: Vec<u32>,
    coarse_state: PartitionState,
    /// Assignment after projection, before refinement.
    pub projected: Vec<u32>,
    /// Assignment after refinement.
    pub refined: Vec<u32>,
    /// The cut `PartitionState` carried before / after refinement.
    pub claimed_cut_before: u64,
    pub claimed_cut_after: u64,
}

pub fn ram_step(t: &mut Tracer, input: &Input, cfg: &KappaConfig) -> FinestStep {
    let g = &input.graph;
    let matching = t.span("matching.l0", |_| {
        compute_matching(g, cfg.matching, cfg.rating, cfg.seed)
    });
    let pairs = matching.cardinality();
    t.count("matching.l0_pairs", pairs as f64);
    t.count(
        "matching.l0_ratio",
        2.0 * pairs as f64 / g.num_nodes() as f64,
    );

    let contraction = t.span("coarsen.l0_contract", |_| contract_matching(g, &matching));
    let coarse = &contraction.coarse_graph;
    t.count("coarsen.l0_coarse_nodes", coarse.num_nodes() as f64);
    t.count("coarsen.l0_coarse_edges", coarse.num_edges() as f64);

    let coarse_partition = t.span("solve.level1", |_| {
        KappaPartitioner::new(*cfg).partition(coarse).partition
    });
    let coarse_state = t.span("graph.l1_state_build", |_| {
        PartitionState::build(coarse, coarse_partition)
    });
    let mut state = t.span("graph.l0_project", |_| {
        coarse_state.project(g, &contraction.coarse_of)
    });
    let projected = state.partition().assignment().to_vec();
    let claimed_cut_before = state.edge_cut();
    let rcfg = refinement_config(cfg);
    t.span("refine.l0", |_| {
        refine_partition(g, &mut state, &rcfg);
    });
    FinestStep {
        coarse_of: contraction.coarse_of,
        coarse_state,
        projected,
        refined: state.partition().assignment().to_vec(),
        claimed_cut_before,
        claimed_cut_after: state.edge_cut(),
    }
}

/// The same step through the distributed kernels at one rank. Returns the
/// refined assignment.
pub fn dist_step(
    t: &mut Tracer,
    input: &Input,
    cfg: &KappaConfig,
    ram: &FinestStep,
    l_max: u64,
) -> Result<Vec<u32>, String> {
    let g = &input.graph;
    let dg = t.span("dist.graph_build", |_| {
        DistGraph::from_global_ranges(g, vec![0, g.num_nodes() as u32], 0)
    });
    let rcfg = refinement_config(cfg);
    let weights = ram.coarse_state.weights();
    // The rank runs on its own thread and cannot borrow the tracer: it
    // returns the instants between kernels and the spans are added after.
    let mut outcomes = LocalCluster::new(1).run(|comm| -> CommResult<([Instant; 5], Vec<u32>)> {
        let t0 = Instant::now();
        let matching = distributed_matching(comm, &dg, cfg.matching, cfg.rating, cfg.seed)?;
        let t1 = Instant::now();
        black_box(distributed_contraction(comm, &dg, &matching)?);
        let t2 = Instant::now();
        let view: Vec<u32> = (0..dg.local().num_nodes() as u32)
            .map(|l| ram.projected[dg.global_of(l) as usize])
            .collect();
        let mut state = DistState::build(&dg, view, cfg.k, weights.clone());
        let t3 = Instant::now();
        dist_refine(
            comm,
            &dg,
            &mut state,
            &rcfg,
            l_max,
            &mut RefinementStats::default(),
        )?;
        let t4 = Instant::now();
        Ok((
            [t0, t1, t2, t3, t4],
            state.view()[..dg.num_owned()].to_vec(),
        ))
    });
    let (at, refined) = outcomes
        .pop()
        .expect("one rank, one outcome")
        .map_err(|e| e.to_string())?;
    t.add("dist.l0_match", at[0], at[1]);
    t.add("dist.l0_contract", at[1], at[2]);
    t.add("dist.l0_state_build", at[2], at[3]);
    t.add("dist.l0_refine", at[3], at[4]);
    Ok(refined)
}

/// The same step through the RAM kernels' generic code on a paged graph
/// under the thrash cache, with exact miss counts (one thread). Returns the
/// refined assignment.
pub fn paged_step(
    t: &mut Tracer,
    input: &Input,
    cfg: &KappaConfig,
    ram: &FinestStep,
    scratch: &Path,
) -> Result<Vec<u32>, String> {
    let fine_file = scratch.join("trace-fine.kpg");
    let paged = t
        .span("mem.paged_build", |_| {
            PagedGraph::from_graph(&input.graph, &fine_file, THRASH_CACHE)
        })
        .map_err(|e| e.to_string())?;
    let file_bytes = std::fs::metadata(&fine_file)
        .map_err(|e| e.to_string())?
        .len();
    t.count("mem.paged_file_bytes", file_bytes as f64);

    /// Runs `f` in a span and records the page misses and the hit ratio of
    /// the lookups it caused.
    fn counted<T>(t: &mut Tracer, paged: &PagedGraph, name: &str, f: impl FnOnce() -> T) -> T {
        paged.reset_cache_stats();
        let out = t.span(name, |_| f());
        let stats = paged.cache_stats();
        t.count(&format!("{name}_misses"), stats.misses as f64);
        t.count(
            &format!("{name}_hit_ratio"),
            stats.hits as f64 / (stats.hits + stats.misses) as f64,
        );
        out
    }

    // The floor: one pass over every incidence list in id order.
    counted(t, &paged, "mem.seq_sweep", || {
        let mut sum = 0u64;
        for v in paged.nodes() {
            for (_, w) in paged.edges_of(v) {
                sum += w;
            }
        }
        black_box(sum)
    });
    let matching = counted(t, &paged, "mem.l0_match", || {
        compute_matching(&paged, cfg.matching, cfg.rating, cfg.seed)
    });
    let spec = TierSpec::Paged {
        path: &scratch.join("trace-coarse.kpg"),
        cache: THRASH_CACHE,
    };
    counted(t, &paged, "mem.l0_contract", || {
        contract_to_tier(&paged, &matching, spec).map(|c| black_box(c.coarse_of.len()))
    })
    .map_err(|e| e.to_string())?;
    let mut state = t.span("mem.l0_project", |_| {
        ram.coarse_state.project(&paged, &ram.coarse_of)
    });
    let rcfg = refinement_config(cfg);
    counted(t, &paged, "mem.l0_refine", || {
        refine_partition(&paged, &mut state, &rcfg);
    });
    Ok(state.partition().assignment().to_vec())
}
