//! `kappa-serve` — long-running dynamic-graph repartitioning service.
//!
//! Bootstraps a partition with the full multilevel pipeline, then serves
//! placement queries and streaming mutations over a stdin/stdout line
//! protocol (see the library docs or send `help`). The maintained partition
//! state stays exact under every mutation; when the cut drifts past
//! `--cut-drift` (or balance breaks), the service repairs with a localized
//! banded re-refinement around the touched region instead of re-running the
//! pipeline.
//!
//! Exit codes: 0 clean shutdown (`quit` or EOF), 2 bad command line.

#![forbid(unsafe_code)]

use std::io::{BufRead, Write};
use std::process::ExitCode;

use kappa_core::{ConfigPreset, DynamicConfig, DynamicSession, KappaConfig};
use kappa_graph::CsrGraph;
use kappa_serve::{Outcome, ServeEngine};

struct CliArgs {
    graph_path: Option<String>,
    generate: Option<String>,
    nodes: usize,
    k: u32,
    preset: ConfigPreset,
    epsilon: f64,
    seed: u64,
    cut_drift: f64,
    band_depth: Option<usize>,
    auto_refine: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<CliArgs, String> {
    let mut args = argv.peekable();
    let mut cli = CliArgs {
        graph_path: None,
        generate: None,
        nodes: 10_000,
        k: 0,
        preset: ConfigPreset::Fast,
        epsilon: 0.03,
        seed: 0,
        cut_drift: 0.10,
        band_depth: None,
        auto_refine: true,
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--k" => cli.k = value("--k")?.parse().map_err(|e| format!("bad --k: {e}"))?,
            "--graph" => cli.graph_path = Some(value("--graph")?),
            "--generate" => cli.generate = Some(value("--generate")?),
            "--nodes" => {
                cli.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("bad --nodes: {e}"))?
            }
            "--preset" => {
                cli.preset = match value("--preset")?.as_str() {
                    "minimal" => ConfigPreset::Minimal,
                    "fast" => ConfigPreset::Fast,
                    "strong" => ConfigPreset::Strong,
                    other => return Err(format!("unknown preset {other:?}")),
                }
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
            "--cut-drift" => {
                cli.cut_drift = value("--cut-drift")?
                    .parse()
                    .map_err(|e| format!("bad --cut-drift: {e}"))?;
                if cli.cut_drift.is_nan() || cli.cut_drift < 0.0 {
                    return Err("--cut-drift must be >= 0".to_string());
                }
            }
            "--band-depth" => {
                cli.band_depth = Some(
                    value("--band-depth")?
                        .parse()
                        .map_err(|e| format!("bad --band-depth: {e}"))?,
                )
            }
            "--no-auto-refine" => cli.auto_refine = false,
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if cli.k < 1 {
        return Err("--k is required and must be >= 1".to_string());
    }
    if cli.graph_path.is_none() && cli.generate.is_none() {
        return Err("either --graph <FILE.metis> or --generate <family> is required".to_string());
    }
    if cli.graph_path.is_some() && cli.generate.is_some() {
        return Err("--graph and --generate are mutually exclusive".to_string());
    }
    Ok(cli)
}

fn load_graph(cli: &CliArgs) -> Result<(CsrGraph, String), String> {
    if let Some(family) = &cli.generate {
        let graph = kappa_gen::generate(family, cli.nodes, cli.seed)?;
        Ok((graph, format!("{family}-{}", cli.nodes)))
    } else {
        let path = cli.graph_path.as_ref().unwrap();
        let graph = kappa_graph::read_metis(std::path::Path::new(path))
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        Ok((graph, path.clone()))
    }
}

/// Full flag reference printed for `--help` (kept in sync with
/// docs/usage.md).
const HELP: &str = "\
kappa-serve — dynamic-graph repartitioning service (KaPPa-rs)

Bootstraps a K-way partition, then answers placement queries and absorbs
streaming graph mutations over a stdin/stdout line protocol, repairing
quality with localized re-refinement when the cut drifts.

USAGE:
  kappa-serve --graph <FILE.metis> --k <K> [options]
  kappa-serve --generate <FAMILY> --nodes <N> --k <K> [options]

OPTIONS:
  --k <K>             number of blocks (required, >= 1)
  --graph <FILE>      METIS text-format input graph
  --generate <F>      generate an instance instead:
                      rgg | delaunay | grid | road | rmat
  --nodes <N>         node count for --generate          [default: 10000]
  --preset <P>        bootstrap preset: minimal | fast | strong [default: fast]
  --epsilon <E>       imbalance tolerance                [default: 0.03]
  --seed <S>          random seed                        [default: 0]
  --cut-drift <D>     re-refine when cut > baseline*(1+D) [default: 0.10]
  --band-depth <B>    band BFS depth of localized repairs
  --no-auto-refine    only re-refine on explicit 'refine' commands
  -h, --help          print this help

Send 'help' on stdin for the protocol; 'quit' or EOF shuts down cleanly.
Replies go to stdout (one line per command), diagnostics to stderr.
";

const USAGE: &str =
    "usage: kappa-serve (--graph FILE.metis | --generate rgg|delaunay|grid|road|rmat \
                    [--nodes N]) --k K [--preset P] [--epsilon E] [--seed S] [--cut-drift D] \
                    [--band-depth B] [--no-auto-refine]\n\
                    run kappa-serve --help for the full flag reference";

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            return if msg == "help" {
                print!("{HELP}");
                ExitCode::SUCCESS
            } else {
                eprintln!("error: {msg}\n{USAGE}");
                ExitCode::from(2)
            };
        }
    };

    let (graph, name) = match load_graph(&cli) {
        Ok(g) => g,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "serving {name}: {} nodes, {} edges, k = {}",
        graph.num_nodes(),
        graph.num_edges(),
        cli.k
    );

    let kappa = KappaConfig::preset(cli.preset, cli.k)
        .with_epsilon(cli.epsilon)
        .with_seed(cli.seed);
    let mut dynamic = DynamicConfig::matching(&kappa)
        .with_cut_drift(cli.cut_drift)
        .with_auto_refine(cli.auto_refine);
    if let Some(depth) = cli.band_depth {
        dynamic.refine.bfs_depth = depth;
    }
    let session = DynamicSession::bootstrap(graph, &kappa, dynamic);
    eprintln!(
        "bootstrap done: cut = {}, drift threshold = {:.0}%",
        session.edge_cut(),
        cli.cut_drift * 100.0
    );

    let mut engine = ServeEngine::new(session);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(out, "ready").and_then(|()| out.flush());
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("stdin error: {e}");
                break;
            }
        };
        match engine.handle_line(&line) {
            Outcome::Silent => {}
            Outcome::Reply(msg) => {
                if writeln!(out, "{msg}").and_then(|()| out.flush()).is_err() {
                    break; // reader hung up
                }
            }
            Outcome::Quit(msg) => {
                let _ = writeln!(out, "{msg}");
                let _ = out.flush();
                break;
            }
        }
    }
    eprintln!("shutdown: {}", engine_summary(&engine));
    ExitCode::SUCCESS
}

fn engine_summary(engine: &ServeEngine) -> String {
    let s = engine.session().stats();
    format!(
        "{} queries, {} mutations, {} localized refines",
        s.queries,
        s.edge_inserts + s.edge_deletes + s.edge_reweights + s.node_inserts + s.node_deletes,
        s.local_refines
    )
}
