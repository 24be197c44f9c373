//! `kappa-partition` — command-line front end of the partitioner.
//!
//! Reads a graph in METIS text format (the interchange format of Metis,
//! Scotch, KaHIP and the Walshaw archive), partitions it into `k` blocks and
//! writes one block id per line to an output file, mirroring the interface of
//! the original tools.
//!
//! ```text
//! USAGE:
//!   kappa-partition <GRAPH.metis> --k <K> [options]
//!
//! OPTIONS:
//!   --k <K>               number of blocks (required)
//!   --preset <P>          minimal | fast | strong      [default: fast]
//!   --epsilon <E>         imbalance tolerance           [default: 0.03]
//!   --seed <S>            random seed                   [default: 0]
//!   --threads <T>         worker threads (0 = all)      [default: 0]
//!   --memory-tier <M>     ram | compact | paged         [default: ram]
//!   --ranks <R>           distributed pipeline over R ranks
//!   --transport <T>       local | tcp (with --ranks)    [default: local]
//!   --fold-threshold <N>  fold coarse levels of <= N nodes onto fewer ranks
//!   --stats               print per-rank comm-volume counters (with --ranks)
//!   --output <FILE>       partition output path         [default: <GRAPH>.part.<K>]
//!   --generate <FAMILY>   ignore <GRAPH> and generate an instance instead:
//!                         rgg | delaunay | grid | road | rmat
//!   --nodes <N>           node count for --generate     [default: 100000]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use kappa::prelude::*;

/// Which cluster backend `--ranks` runs over.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Transport {
    /// In-process cluster: one thread per rank, channels in between.
    Local,
    /// Localhost TCP cluster: one OS process per rank, sockets in between.
    Tcp,
}

struct CliArgs {
    graph_path: Option<PathBuf>,
    k: u32,
    preset: ConfigPreset,
    epsilon: f64,
    seed: u64,
    threads: usize,
    memory_tier: MemoryTier,
    ranks: Option<usize>,
    transport: Transport,
    fold_threshold: usize,
    stats: bool,
    output: Option<PathBuf>,
    generate: Option<String>,
    nodes: usize,
    /// Internal: this process is TCP worker rank R of a launched cluster.
    worker_rank: Option<usize>,
    /// Internal: rendezvous address of the launching parent.
    rendezvous: Option<String>,
}

fn parse_args() -> Result<CliArgs, String> {
    let mut args = std::env::args().skip(1).peekable();
    let mut cli = CliArgs {
        graph_path: None,
        k: 0,
        preset: ConfigPreset::Fast,
        epsilon: 0.03,
        seed: 0,
        threads: 0,
        memory_tier: MemoryTier::Ram,
        ranks: None,
        transport: Transport::Local,
        fold_threshold: 0,
        stats: false,
        output: None,
        generate: None,
        nodes: 100_000,
        worker_rank: None,
        rendezvous: None,
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--k" => cli.k = value("--k")?.parse().map_err(|e| format!("bad --k: {e}"))?,
            "--preset" => {
                let preset = value("--preset")?;
                cli.preset = ConfigPreset::parse(&preset)
                    .ok_or_else(|| format!("unknown preset {preset:?}"))?
            }
            "--epsilon" => {
                cli.epsilon = value("--epsilon")?
                    .parse()
                    .map_err(|e| format!("bad --epsilon: {e}"))?
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--threads" => {
                cli.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?
            }
            "--memory-tier" => {
                let tier = value("--memory-tier")?;
                cli.memory_tier = MemoryTier::parse(&tier)
                    .ok_or_else(|| format!("unknown memory tier {tier:?} (ram|compact|paged)"))?
            }
            "--ranks" => {
                let ranks: usize = value("--ranks")?
                    .parse()
                    .map_err(|e| format!("bad --ranks: {e}"))?;
                if ranks < 1 {
                    return Err("--ranks must be >= 1".to_string());
                }
                cli.ranks = Some(ranks);
            }
            "--transport" => {
                cli.transport = match value("--transport")?.as_str() {
                    "local" => Transport::Local,
                    "tcp" => Transport::Tcp,
                    other => return Err(format!("unknown transport {other:?}")),
                }
            }
            "--fold-threshold" => {
                cli.fold_threshold = value("--fold-threshold")?
                    .parse()
                    .map_err(|e| format!("bad --fold-threshold: {e}"))?
            }
            "--stats" => cli.stats = true,
            // Internal flags of the TCP launcher (one process per rank).
            "--_tcp-worker" => {
                cli.worker_rank = Some(
                    value("--_tcp-worker")?
                        .parse()
                        .map_err(|e| format!("bad --_tcp-worker: {e}"))?,
                )
            }
            "--_tcp-rendezvous" => cli.rendezvous = Some(value("--_tcp-rendezvous")?),
            "--output" => cli.output = Some(PathBuf::from(value("--output")?)),
            "--generate" => cli.generate = Some(value("--generate")?),
            "--nodes" => {
                cli.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("bad --nodes: {e}"))?
            }
            "--help" | "-h" => return Err("help".to_string()),
            other if !other.starts_with("--") && cli.graph_path.is_none() => {
                cli.graph_path = Some(PathBuf::from(other));
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if cli.k < 1 {
        return Err("--k is required and must be >= 1".to_string());
    }
    if !(cli.epsilon.is_finite() && cli.epsilon >= 0.0) {
        return Err(format!(
            "--epsilon must be finite and >= 0, got {}",
            cli.epsilon
        ));
    }
    if cli.graph_path.is_none() && cli.generate.is_none() {
        return Err("either a METIS graph file or --generate <family> is required".to_string());
    }
    if cli.transport == Transport::Tcp && cli.ranks.is_none() {
        return Err("--transport tcp requires --ranks".to_string());
    }
    if cli.memory_tier != MemoryTier::Ram && cli.ranks.is_some() {
        return Err(
            "--memory-tier compact|paged is a single-process pipeline and cannot be \
             combined with --ranks"
                .to_string(),
        );
    }
    if cli.fold_threshold > 0 && cli.ranks.is_none() {
        return Err("--fold-threshold requires --ranks".to_string());
    }
    if cli.stats && cli.ranks.is_none() {
        return Err(
            "--stats requires --ranks (comm counters exist only in the distributed pipeline)"
                .to_string(),
        );
    }
    if cli.worker_rank.is_some() != cli.rendezvous.is_some() {
        return Err("--_tcp-worker and --_tcp-rendezvous go together".to_string());
    }
    Ok(cli)
}

fn load_graph(cli: &CliArgs) -> Result<(CsrGraph, String), String> {
    if let Some(family) = &cli.generate {
        let graph = kappa::gen::generate(family, cli.nodes, cli.seed)?;
        Ok((graph, format!("{family}-{}", cli.nodes)))
    } else {
        let path = cli.graph_path.as_ref().unwrap();
        let graph = kappa::graph::read_metis(path)?;
        Ok((graph, path.display().to_string()))
    }
}

/// Full flag reference printed for `--help` (and, in short form, on errors).
/// Kept in sync with `docs/usage.md`.
const HELP: &str = "\
kappa-partition — multilevel graph partitioner (KaPPa-rs)

Reads a graph in METIS text format, partitions it into K blocks minimising
the edge cut under a balance constraint, and writes one block id per line.

USAGE:
  kappa-partition <GRAPH.metis> --k <K> [options]
  kappa-partition --generate <FAMILY> --nodes <N> --k <K> [options]

OPTIONS:
  --k <K>               number of blocks (required, >= 1)
  --preset <P>          minimal | fast | strong            [default: fast]
  --epsilon <E>         imbalance tolerance, e.g. 0.03 = 3% [default: 0.03]
  --seed <S>            random seed (fixed seed + fixed --threads or
                        --ranks => identical output)       [default: 0]
  --threads <T>         worker threads (0 = all cores)     [default: 0]
  --memory-tier <M>     graph storage tier                 [default: ram]
                        ram:     plain CSR in RAM (the classic pipeline)
                        compact: delta-varint encoded CSR in RAM, roughly
                                 half the memory of ram
                        paged:   fine hierarchy levels on disk behind a
                                 fixed 64 MiB page cache — partitions
                                 table-5-class instances in a fraction of
                                 the in-RAM footprint. For --generate rgg
                                 and grid the graph is built streaming and
                                 the full edge list never exists in RAM.
                        compact and paged run matching sequentially and are
                        bit-identical to ram at --threads 1 per seed; not
                        combinable with --ranks
  --ranks <R>           run the distributed-memory pipeline over R
                        message-passing ranks (--ranks 1 is cut-identical
                        to the shared-memory pipeline at --threads 1;
                        supersedes --threads, which is then ignored)
  --transport <T>       cluster backend for --ranks        [default: local]
                        local: in-process, one thread per rank
                        tcp:   one OS process per rank over localhost
                               sockets (same result bit for bit — the
                               pipeline is transport-independent per seed)
  --fold-threshold <N>  with --ranks: fold hierarchy levels of <= N global
                        nodes onto half the active ranks (halving again at
                        N/2, N/4, …), parking the rest — removes the
                        per-rank seams that dominate small coarse levels
                        [default: 0 = off]
  --stats               with --ranks: print per-rank communication volume
                        (frames / bytes / collectives, split by phase) to
                        stderr after the run
  --output <FILE>       partition output path   [default: <GRAPH>.part.<K>]
  --generate <FAMILY>   ignore <GRAPH> and generate an instance instead:
                        rgg | delaunay | grid | road | rmat
  --nodes <N>           node count for --generate          [default: 100000]
  -h, --help            print this help

INPUT:   METIS text format — first line `n m [fmt]`, then one line per node
         listing its (1-indexed) neighbours; fmt 001 adds edge weights,
         010 node weights, 011 both; `%` lines are comments (docs/usage.md).
OUTPUT:  one block id (0..K-1) per line, line i = block of node i.
METRICS: cut, balance, feasibility and wall-clock time go to stderr.
";

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(msg) => {
            return if msg == "help" {
                print!("{HELP}");
                ExitCode::SUCCESS
            } else {
                eprintln!("error: {msg}\n");
                eprintln!(
                    "usage: kappa-partition <GRAPH.metis> --k <K> [--preset minimal|fast|strong] \
                     [--epsilon 0.03] [--seed 0] [--threads 0] [--memory-tier ram|compact|paged] \
                     [--ranks R [--transport local|tcp] [--fold-threshold N] [--stats]] \
                     [--output FILE] \
                     [--generate rgg|delaunay|grid|road|rmat --nodes N]\n\
                     run kappa-partition --help for the full flag reference"
                );
                ExitCode::FAILURE
            };
        }
    };

    let config = KappaConfig::preset(cli.preset, cli.k)
        .with_epsilon(cli.epsilon)
        .with_seed(cli.seed)
        .with_threads(cli.threads);

    // The memory-tiered pipeline builds the graph on its own storage tier,
    // streaming where the family supports it.
    if let Some(status) = run_tiered(&cli, &config) {
        return status;
    }

    // TCP parent mode: launch one worker process per rank, serve the
    // rendezvous, and let rank 0 write the partition. The parent never needs
    // the graph — every worker loads (or generates) its own copy.
    if cli.transport == Transport::Tcp && cli.worker_rank.is_none() {
        let ranks = cli.ranks.expect("checked in parse_args");
        return launch_tcp_cluster(&cli, ranks);
    }

    let (graph, name) = match load_graph(&cli) {
        Ok(g) => g,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    // One banner per run: of a TCP cluster's workers only rank 0 speaks.
    if cli.worker_rank.unwrap_or(0) == 0 {
        eprintln!(
            "graph {name}: {} nodes, {} edges",
            graph.num_nodes(),
            graph.num_edges()
        );
    }

    // TCP worker mode: this process is one rank of a launched cluster.
    if let (Some(rank), Some(rendezvous)) = (cli.worker_rank, &cli.rendezvous) {
        let ranks = cli.ranks.expect("worker implies --ranks");
        return run_tcp_worker(&cli, &graph, &name, config, ranks, rank, rendezvous);
    }

    let partition = if let Some(ranks) = cli.ranks {
        if cli.threads != 0 {
            eprintln!(
                "note: --threads {} is ignored with --ranks {ranks} — the distributed \
                 pipeline's parallelism is one thread per rank",
                cli.threads
            );
        }
        #[expect(clippy::disallowed_methods, reason = "runtime reporting only")]
        let start = std::time::Instant::now();
        let dist_config = DistConfig::new(config, ranks).with_fold_threshold(cli.fold_threshold);
        let result = match partition_distributed(&graph, &dist_config) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("error: distributed run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        report_dist(
            &cli,
            &graph,
            &result,
            &format!(" x{ranks} ranks"),
            start.elapsed(),
        );
        result.partition
    } else {
        let result = KappaPartitioner::new(config).partition(&graph);
        print_summary(&cli, "", &result.metrics);
        result.partition
    };

    write_partition(&cli, &name, &partition)
}

/// The `--memory-tier compact|paged` pipeline: build the finest graph on the
/// requested storage tier, partition with the tier-generic multilevel
/// pipeline (sequential matching — bit-identical to `--threads 1` in RAM per
/// seed), report which tier every hierarchy level ended up on. `None` for
/// `--memory-tier ram`, which is not a tiered run.
fn run_tiered(cli: &CliArgs, config: &KappaConfig) -> Option<ExitCode> {
    use kappa::coarsen::SpillConfig;
    use kappa::core::{default_spill_dir, partition_tiered};
    use kappa::graph::GraphAccess;
    use kappa::mem::TierGraph;

    let spill = SpillConfig::new(default_spill_dir("cli"));
    let finest_file = spill.spill_dir.join("finest.kpg");
    let spec = cli.memory_tier.spec(&finest_file, spill.cache)?;
    // The streaming arms below construct a family's source themselves.
    if let Some(Err(msg)) = cli
        .generate
        .as_deref()
        .map(|family| kappa::gen::check_request(family, cli.nodes))
    {
        eprintln!("error: {msg}");
        return Some(ExitCode::FAILURE);
    }
    if let Err(e) = std::fs::create_dir_all(&spill.spill_dir) {
        eprintln!(
            "error: cannot create spill dir {}: {e}",
            spill.spill_dir.display()
        );
        return Some(ExitCode::FAILURE);
    }

    let built = match cli.generate.as_deref() {
        // Streaming families: the edge list is replayed from O(n) generator
        // state straight into the tier encoding, never held in RAM.
        Some("rgg") => {
            let src = kappa::gen::RggSource::new(cli.nodes, cli.seed);
            TierGraph::from_source(&src, spec).map(|g| (g, format!("rgg-{}", cli.nodes)))
        }
        Some("grid") => {
            let side = ((cli.nodes as f64).sqrt().round() as usize).max(2);
            let src = kappa::gen::Grid2dSource::new(side, side);
            TierGraph::from_source(&src, spec).map(|g| (g, format!("grid-{}", cli.nodes)))
        }
        // Everything else — METIS files and the families without a streaming
        // source — is re-encoded from a transient in-RAM CSR.
        _ => match load_graph(cli) {
            Ok((graph, name)) => TierGraph::from_graph(&graph, spec).map(|g| (g, name)),
            Err(msg) => {
                eprintln!("error: {msg}");
                return Some(ExitCode::FAILURE);
            }
        },
    };
    let (mut finest, name) = match built {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: building the {} tier: {e}", cli.memory_tier.name());
            return Some(ExitCode::FAILURE);
        }
    };
    finest.set_delete_on_drop(true);
    eprintln!(
        "graph {name}: {} nodes, {} edges ({} tier)",
        finest.num_nodes(),
        finest.num_edges(),
        finest.tier_name()
    );

    let tiered = match partition_tiered(finest, config, &spill) {
        Ok(tiered) => tiered,
        Err(e) => {
            eprintln!("error: tiered run failed: {e}");
            return Some(ExitCode::FAILURE);
        }
    };
    let result = &tiered.result;
    print_summary(
        cli,
        &format!(" [{}]", cli.memory_tier.name()),
        &result.metrics,
    );
    eprintln!(
        "hierarchy: {} levels on tiers [{}]",
        result.hierarchy_levels,
        tiered.level_tiers.join(", ")
    );
    let status = write_partition(cli, &name, &result.partition);
    // Spill files delete themselves on drop; clear the (now empty) directory.
    let _ = std::fs::remove_dir_all(&spill.spill_dir);
    Some(status)
}

/// The summary line every run path ends with: `<preset><path>: cut = …`,
/// `path` naming what the preset ran on (`" x4 ranks"`, `" [paged]"`, …).
fn print_summary(cli: &CliArgs, path: &str, metrics: &PartitionMetrics) {
    eprintln!(
        "{}{path}: cut = {}, balance = {:.3}, feasible = {}, time = {:.3} s",
        cli.preset.name(),
        metrics.edge_cut,
        metrics.balance,
        metrics.feasible,
        metrics.runtime_secs()
    );
}

/// Reports a distributed run — in-process, or rank 0 of a TCP cluster: the
/// summary line over freshly measured metrics, then the `--stats` counters.
fn report_dist(
    cli: &CliArgs,
    graph: &CsrGraph,
    result: &kappa::dist::DistRunResult,
    path: &str,
    runtime: std::time::Duration,
) {
    let metrics = PartitionMetrics::measure(graph, &result.partition, cli.epsilon, runtime);
    print_summary(cli, path, &metrics);
    if cli.stats {
        print_comm_stats(result);
    }
}

/// Prints the per-rank communication counters of a distributed run to
/// stderr: one line per rank, the run total followed by the per-phase
/// buckets, each as `frames/bytes/collectives` (bytes are 0 on the
/// in-process transport, which moves payloads unserialised).
fn print_comm_stats(result: &kappa::dist::DistRunResult) {
    eprintln!("comm volume per rank (frames/bytes/collectives):");
    for (rank, stats) in result.comm_per_rank.iter().enumerate() {
        let mut line = format!(
            "  rank {rank}: total {}/{}/{}",
            stats.total.frames, stats.total.bytes, stats.total.collectives
        );
        for (name, p) in &stats.phases {
            line.push_str(&format!(
                " | {name} {}/{}/{}",
                p.frames, p.bytes, p.collectives
            ));
        }
        eprintln!("{line}");
    }
}

/// Writes one block id per line to the configured (or default) output path.
fn write_partition(cli: &CliArgs, name: &str, partition: &kappa::graph::Partition) -> ExitCode {
    let output = cli.output.clone().unwrap_or_else(|| {
        let base = cli
            .graph_path
            .as_ref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| name.to_string());
        PathBuf::from(format!("{base}.part.{}", cli.k))
    });
    let lines: Vec<String> = partition
        .assignment()
        .iter()
        .map(|b| b.to_string())
        .collect();
    if let Err(e) = std::fs::write(&output, lines.join("\n") + "\n") {
        eprintln!("error: cannot write {}: {e}", output.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote partition to {}", output.display());
    ExitCode::SUCCESS
}

/// One rank of a `--transport tcp` cluster: joins the mesh through the
/// parent's rendezvous, runs the SPMD pipeline, and (on rank 0) writes the
/// partition and the run metrics. A communication failure exits non-zero
/// with the diagnosed error on stderr.
fn run_tcp_worker(
    cli: &CliArgs,
    graph: &CsrGraph,
    name: &str,
    config: KappaConfig,
    ranks: usize,
    rank: usize,
    rendezvous: &str,
) -> ExitCode {
    use kappa::dist::{partition_with_comm, TcpClusterConfig, TcpComm};
    #[expect(clippy::disallowed_methods, reason = "runtime reporting only")]
    let start = std::time::Instant::now();
    let mut comm =
        match TcpComm::connect_worker(rendezvous, rank, ranks, TcpClusterConfig::default()) {
            Ok(comm) => comm,
            Err(e) => {
                eprintln!("error: rank {rank} could not join the cluster: {e}");
                return ExitCode::FAILURE;
            }
        };
    let dist_config = DistConfig::new(config, ranks).with_fold_threshold(cli.fold_threshold);
    match partition_with_comm(&mut comm, graph, &dist_config) {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(result)) => {
            let path = format!(" x{ranks} ranks over tcp");
            report_dist(cli, graph, &result, &path, start.elapsed());
            write_partition(cli, name, &result.partition)
        }
        Err(e) => {
            eprintln!("error: rank {rank} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `--transport tcp` launcher: spawns one worker process per rank (the
/// same binary, same arguments, plus the internal worker flags), serves the
/// rendezvous that wires their mesh, and propagates the workers' exit status.
fn launch_tcp_cluster(cli: &CliArgs, ranks: usize) -> ExitCode {
    if cli.threads != 0 {
        eprintln!(
            "note: --threads {} is ignored with --ranks {ranks} — the distributed \
             pipeline's parallelism is one process per rank",
            cli.threads
        );
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("error: cannot bind rendezvous listener: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rendezvous = match listener.local_addr() {
        Ok(addr) => addr.to_string(),
        Err(e) => {
            eprintln!("error: rendezvous address: {e}");
            return ExitCode::FAILURE;
        }
    };
    let forwarded: Vec<String> = std::env::args().skip(1).collect();
    let mut children = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        let child = std::process::Command::new(&exe)
            .args(&forwarded)
            .arg("--_tcp-worker")
            .arg(rank.to_string())
            .arg("--_tcp-rendezvous")
            .arg(&rendezvous)
            .spawn();
        match child {
            Ok(child) => children.push(child),
            Err(e) => {
                eprintln!("error: cannot spawn worker rank {rank}: {e}");
                for mut earlier in children {
                    let _ = earlier.kill();
                }
                return ExitCode::FAILURE;
            }
        }
    }
    // The rendezvous completes once every worker has registered. A worker
    // that dies first (it could not read or generate the graph) never will,
    // so the children are watched while the server waits.
    let server = std::thread::spawn(move || kappa::dist::tcp::rendezvous_serve(&listener, ranks));
    let served = loop {
        if server.is_finished() {
            break server
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("the rendezvous thread panicked")));
        }
        let failed = children
            .iter_mut()
            .position(|c| matches!(c.try_wait(), Ok(Some(status)) if !status.success()));
        if let Some(rank) = failed {
            // The server stays blocked in `accept`; leaving `main` ends it.
            break Err(std::io::Error::other(format!(
                "worker rank {rank} exited before joining the cluster"
            )));
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    if let Err(e) = served {
        eprintln!("error: rendezvous failed: {e}");
        for mut child in children {
            let _ = child.kill();
        }
        return ExitCode::FAILURE;
    }
    let mut all_ok = true;
    for (rank, mut child) in children.into_iter().enumerate() {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("error: worker rank {rank} exited with {status}");
                all_ok = false;
            }
            Err(e) => {
                eprintln!("error: waiting for worker rank {rank}: {e}");
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
