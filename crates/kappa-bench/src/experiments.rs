//! The experiment registry: every table and figure of the paper's evaluation
//! (§6) is one row of [`EXPERIMENTS`], run as `exp <name>`.
//!
//! Two drivers carry most rows. The *variant sweep* (`sweep`) runs a list
//! of [`Variant`]s over suite × k and reduces each to geometric means —
//! Tables 2, 3 and 4. The *per-instance* tables print one row per
//! (variant, k, instance) — Tables 5 and 6–20 (`instance_tables`); Tables 1
//! and 21–23 have per-instance rows of their own shape. The three figures are
//! plain functions. The archives the paper used are not redistributable, so
//! all instances are synthetic stand-ins (names carry a trailing prime).

use kappa_baselines::BaselineKind;
use kappa_core::metrics::geometric_mean;
use kappa_core::{ConfigPreset, KappaConfig, KappaPartitioner, PartitionResult};
use kappa_gen::{
    delaunay_like_graph, grid2d, large_suite, random_geometric_graph, road_network_like,
    small_suite, Instance,
};
use kappa_graph::{CsrGraph, NodeId, QuotientGraph};
use kappa_matching::{EdgeRating, MatchingAlgorithm};
use kappa_refine::{color_quotient_edges, pair_band, QueueSelection};
use serde_json::json;

use crate::{fmt_f, AggregatedRun, Args, Table, Variant};

/// One table or figure of the paper, reproducible as `exp <name>`.
pub struct Experiment {
    /// Name on the command line.
    pub name: &'static str,
    /// What it reproduces (shown by `exp --list`).
    pub about: &'static str,
    /// The selector flag (`config` or `tool`) it accepts, if any.
    pub flag: Option<&'static str>,
    /// Column header of every table it prints (empty: it prints none).
    pub header: &'static [&'static str],
    /// What `--scale`, `--reps` and `--k` default to.
    pub defaults: Defaults,
    /// The shape the paper reports, printed after the results.
    pub expected: &'static str,
    body: fn(&Run) -> Result<Vec<Table>, String>,
}

/// Default `--scale`, `--reps` and `--k` of an experiment.
pub struct Defaults(pub f64, pub usize, pub &'static [u32]);

/// An experiment with its parameters resolved against the command line.
struct Run<'a> {
    exp: &'a Experiment,
    args: &'a Args,
    scale: f64,
    reps: usize,
    ks: Vec<u32>,
}

const fn metric_columns(label: &'static str) -> [&'static str; 5] {
    [label, "avg. cut", "best cut", "avg. bal.", "avg. t [s]"]
}

const INSTANCE_COLUMNS: [&str; 5] = [
    "graph",
    "avg. cut",
    "best cut",
    "avg. balance",
    "avg. runtime [s]",
];

/// Every experiment, in the order of the paper.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig1-quotient",
        about: "Fig. 1: a partitioned grid, its quotient graph and the edge colouring of §5.1",
        flag: None,
        header: &[],
        defaults: Defaults(1.0, 1, &[8]),
        expected: "",
        body: fig1_quotient,
    },
    Experiment {
        name: "fig2-band",
        about: "Fig. 2: band size per BFS depth around the heaviest block-pair boundary",
        flag: None,
        header: &["BFS depth", "band nodes", "fraction of pair [%]"],
        defaults: Defaults(1.0, 1, &[8]),
        expected: "Expected shape: the band at the fast setting (depth 5) covers only a small \
                   fraction of the pair; it approaches 100 % only for depths far beyond the \
                   strong setting (20).",
        body: fig2_band,
    },
    Experiment {
        name: "fig3-scalability",
        about: "Fig. 3: total time vs. thread count, KaPPa presets and the parMetis stand-in",
        flag: None,
        header: &[
            "threads",
            "KaPPa-Strong",
            "KaPPa-Fast",
            "KaPPa-Minimal",
            "parmetis-like",
        ],
        defaults: Defaults(0.05, 1, &[64]),
        expected: "Expected shape (paper, Fig. 3): every KaPPa variant keeps getting faster with \
                   more threads; the parMetis stand-in is fastest in absolute terms but its \
                   curve flattens first.",
        body: fig3_scalability,
    },
    Experiment {
        name: "table1-instances",
        about: "Table 1: n and m of the small and the large suite",
        flag: None,
        header: &["graph", "family", "n", "m"],
        defaults: Defaults(0.1, 1, &[]),
        expected: "",
        body: table1_instances,
    },
    Experiment {
        name: "table2-configs",
        about: "Table 2: minimal / fast / strong settings and their cut/time trade-off",
        flag: None,
        header: &["parameter / metric", "minimal", "fast", "strong"],
        defaults: Defaults(0.1, 3, &[2, 8, 32]),
        expected: "Expected shape (paper): cut minimal > fast > strong (2985 / 2910 / 2890), \
                   time minimal < fast < strong (0.67 / 1.29 / 2.10 s).",
        body: table2_configs,
    },
    Experiment {
        name: "table3-ratings",
        about: "Table 3 (left): the five edge ratings under KaPPa-Fast",
        flag: None,
        header: &metric_columns("Edge Rating"),
        defaults: Defaults(0.1, 3, &[2, 8, 32]),
        expected: "Expected shape (paper): weight rating worst by several percent; \
                   expansion*2 / expansion* / innerOuter within ~1 % of each other.",
        body: |run| {
            let title = "Table 3 (left) — edge ratings, KaPPa-Fast";
            let rating = |r: EdgeRating| Variant::fast(r.name(), move |c| c.with_rating(r));
            sweep_table(run, title, small_suite, &EdgeRating::all().map(rating))
        },
    },
    Experiment {
        name: "table3-matchers",
        about: "Table 3 (right): GPA, SHEM and Greedy matching under KaPPa-Fast",
        flag: None,
        header: &metric_columns("Seq. Matching"),
        defaults: Defaults(0.1, 3, &[2, 8, 32]),
        expected: "Expected shape (paper): gpa <= shem <= greedy in cut; comparable total time.",
        body: |run| {
            let title = "Table 3 (right) — sequential matching algorithms, KaPPa-Fast";
            let matcher =
                |m: MatchingAlgorithm| Variant::fast(m.name(), move |c| c.with_matching(m));
            sweep_table(
                run,
                title,
                small_suite,
                &MatchingAlgorithm::all().map(matcher),
            )
        },
    },
    Experiment {
        name: "table4-queues",
        about: "Table 4 (left): FM queue selection strategies under KaPPa-Fast",
        flag: None,
        header: &metric_columns("Queue Sel. Strategy"),
        defaults: Defaults(0.1, 3, &[2, 8, 32]),
        expected: "Expected shape (paper): TopGain best cut; MaxLoad best balance but worst cut.",
        body: |run| {
            let title = "Table 4 (left) — queue selection strategies, KaPPa-Fast";
            let queues =
                |q: QueueSelection| Variant::fast(q.name(), move |c| c.with_queue_selection(q));
            sweep_table(run, title, small_suite, &QueueSelection::all().map(queues))
        },
    },
    Experiment {
        name: "table4-tools",
        about: "Table 4 (right): KaPPa presets against the three baseline stand-ins",
        flag: None,
        header: &[
            "Variant",
            "avg. cut",
            "best cut",
            "avg. bal.",
            "avg. t [s]",
            "feas.",
        ],
        defaults: Defaults(0.05, 2, &[64]),
        expected: "Expected shape (paper, Table 4 right): cut ordering KaPPa-Strong < Fast < \
                   Minimal ≈ scotch < kmetis < parmetis (parmetis ~30 % above Strong); time \
                   ordering reversed.",
        body: |run| {
            let title = "Table 4 (right) — tool comparison on the large suite";
            sweep_table(run, title, large_suite, &Variant::comparison_lineup())
        },
    },
    Experiment {
        name: "table5-large",
        about: "Table 5: the largest graphs with coordinates, all tools",
        flag: None,
        header: &[
            "alg.",
            "k",
            "graph",
            "avg. cut",
            "best cut",
            "avg. balance",
            "avg. runtime [s]",
        ],
        defaults: Defaults(0.05, 2, &[64]),
        expected: "Expected shape (paper, Table 5): KaPPa cuts smallest (several times smaller \
                   than kmetis/parmetis on eur); parmetis fastest; only KaPPa keeps balance <= \
                   1.03 everywhere.",
        body: table5_large,
    },
    Experiment {
        name: "tables6-14-kappa",
        about: "Tables 6-14: per-instance results of the KaPPa presets on the large suite",
        flag: Some("config"),
        header: &INSTANCE_COLUMNS,
        defaults: Defaults(0.05, 2, &[16, 32, 64]),
        expected: "Expected shape (paper, Tables 6-14): for every instance and k, Strong <= Fast \
                   <= Minimal in cut and Minimal < Fast < Strong in runtime; balance <= 1.03.",
        body: |run| {
            let preset = |key, first, p| (key, Some(first), Variant::preset(p));
            let choices = [
                preset("minimal", 6, ConfigPreset::Minimal),
                preset("fast", 9, ConfigPreset::Fast),
                preset("strong", 12, ConfigPreset::Strong),
            ];
            instance_tables(run, "6–14", 1, &choices)
        },
    },
    Experiment {
        name: "tables15-20-baselines",
        about: "Tables 15-20: per-instance results of the kMetis / parMetis stand-ins",
        flag: Some("tool"),
        header: &INSTANCE_COLUMNS,
        defaults: Defaults(0.05, 2, &[16, 32, 64]),
        expected: "Expected shape (paper, Tables 15-20): cuts larger than the corresponding \
                   KaPPa tables (6-14); runtimes much smaller; the parMetis stand-in exceeds \
                   balance 1.03 on some instances.",
        body: |run| {
            // The paper has no per-instance Scotch table: it runs on request only.
            let tool = |first, kind: BaselineKind| (kind.name(), first, Variant::baseline(kind));
            let choices = [
                tool(Some(15), BaselineKind::MetisLike),
                tool(Some(16), BaselineKind::ParMetisLike),
                tool(None, BaselineKind::ScotchLike),
            ];
            instance_tables(run, "15–20", 2, &choices)
        },
    },
    Experiment {
        name: "tables21-23-walshaw",
        about: "Tables 21-23: Walshaw-style best cuts of the strengthened KaPPa-Strong",
        flag: None,
        header: &[
            "graph",
            "k",
            "KaPPa best",
            "rating",
            "baseline best",
            "improved",
        ],
        defaults: Defaults(0.05, 1, &[2, 8, 32]),
        expected: "Expected shape (paper, Tables 21-23): the strengthened KaPPa improves or \
                   matches most cells, with more improvements at eps = 5 % than at eps = 1 %.",
        body: tables21_23_walshaw,
    },
];

impl Experiment {
    /// Runs the experiment, printing to stdout; returns the tables it printed.
    pub fn run(&self, args: &Args) -> Result<Vec<Table>, String> {
        if let Some((flag, _)) = &args.selector {
            if self.flag != Some(flag.as_str()) {
                return Err(format!("`--{flag}` is not a flag of `{}`", self.name));
            }
        }
        let Defaults(scale, reps, ks) = self.defaults;
        let tables = (self.body)(&Run {
            exp: self,
            args,
            scale: args.scale.unwrap_or(scale),
            reps: args.reps.unwrap_or(reps),
            ks: args.ks.clone().unwrap_or_else(|| ks.to_vec()),
        })?;
        if !self.expected.is_empty() {
            println!("\n{}", self.expected);
        }
        Ok(tables)
    }
}

/// `exp`'s whole behaviour after the program name: `--list`, or one
/// experiment. Every `Err` is a command-line error.
pub fn run_cli(args: impl IntoIterator<Item = String>) -> Result<Vec<Table>, String> {
    let args = Args::parse(args)?;
    match &args.experiment {
        Some(name) if !args.list => {
            let found = EXPERIMENTS.iter().find(|e| e.name == name);
            let unknown = format!("unknown experiment `{name}` (see `exp --list`)");
            found.ok_or(unknown)?.run(&args)
        }
        None if args.list => {
            for e in EXPERIMENTS {
                let Defaults(scale, reps, ks) = e.defaults;
                let own = e.flag.map_or(String::new(), |f| format!(" [--{f} <name>]"));
                println!("{:<22} {}", e.name, e.about);
                println!("{:<22}   --scale {scale} --reps {reps} --k {ks:?}{own}", "");
            }
            Ok(Vec::new())
        }
        _ => Err("expected exactly one of <experiment> and --list".to_string()),
    }
}

impl Run<'_> {
    /// Runs `variant` on one instance at `k`; emits the JSON line if asked.
    fn measure(&self, variant: &Variant, name: &str, graph: &CsrGraph, k: u32) -> AggregatedRun {
        let (seed, threads) = (self.args.seed, self.args.threads);
        let agg = variant.run(name, graph, k, seed, threads, self.reps);
        if self.args.json {
            println!("{}", agg.to_json_line());
        }
        agg
    }

    /// `base · scale` nodes, at least `floor`.
    fn scaled(&self, base: usize, floor: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(floor)
    }

    fn print_title(&self, title: &str) {
        let (scale, ks, reps) = (self.scale, &self.ks, self.reps);
        println!("{title} (scale = {scale}, k = {ks:?}, reps = {reps})\n");
    }

    /// The one block count the figures take.
    fn single_k(&self) -> Result<u32, String> {
        match self.ks[..] {
            [k] => Ok(k),
            _ => Err(format!("`{}` takes a single --k", self.exp.name)),
        }
    }

    fn partition_fast(&self, graph: &CsrGraph, k: u32) -> PartitionResult {
        KappaPartitioner::new(KappaConfig::fast(k).with_seed(self.args.seed)).partition(graph)
    }
}

/// The variant sweep: every variant on every (instance, k) of the suite;
/// returns each variant's runs.
fn sweep(run: &Run, suite: &[Instance], variants: &[Variant]) -> Vec<Vec<AggregatedRun>> {
    let runs_of = |variant| {
        let cells = suite
            .iter()
            .flat_map(|inst| run.ks.iter().map(move |&k| (inst, k)));
        cells
            .map(|(inst, k)| run.measure(variant, &inst.name, &inst.graph, k))
            .collect()
    };
    variants.iter().map(runs_of).collect()
}

/// Geometric mean of one metric over a variant's runs.
fn geo(runs: &[AggregatedRun], metric: impl Fn(&AggregatedRun) -> f64) -> f64 {
    geometric_mean(&runs.iter().map(metric).collect::<Vec<f64>>())
}

/// A sweep printed with one row per variant (Tables 3 and 4); the registered
/// header decides whether the share of feasible runs is shown.
fn sweep_table(
    run: &Run,
    title: &str,
    suite: fn(f64, u64) -> Vec<Instance>,
    variants: &[Variant],
) -> Result<Vec<Table>, String> {
    run.print_title(title);
    let mut table = Table::new(run.exp.header);
    let all_runs = sweep(run, &suite(run.scale, run.args.seed), variants);
    for (variant, runs) in variants.iter().zip(&all_runs) {
        let feasible: f64 = runs.iter().map(|r| r.feasible_fraction).sum();
        let mut row = vec![
            variant.name.to_string(),
            fmt_f(geo(runs, |r| r.avg_cut.max(1.0)), 0),
            fmt_f(geo(runs, |r| r.best_cut.max(1) as f64), 0),
            fmt_f(geo(runs, |r| r.avg_balance), 3),
            fmt_f(geo(runs, |r| r.avg_time.max(1e-6)), 3),
            fmt_f(feasible / runs.len().max(1) as f64, 2),
        ];
        row.truncate(run.exp.header.len());
        table.add_row(row);
    }
    table.print();
    Ok(vec![table])
}

/// The settings half of Table 2, as the paper prints it.
const TABLE2_SETTINGS: [[&str; 4]; 8] = [
    ["rating", "expansion*2", "expansion*2", "expansion*2"],
    ["matching", "GPA", "GPA", "GPA"],
    ["init. repeats", "1", "3", "5"],
    ["queue selection", "TopGain", "TopGain", "TopGain"],
    ["BFS search depth", "1", "5", "20"],
    ["max. global iterations", "1", "15", "15"],
    ["local iterations", "1", "3", "5"],
    ["FM patience", "1 %", "5 %", "20 %"],
];

/// Table 2: the sweep over the presets, transposed under their settings.
fn table2_configs(run: &Run) -> Result<Vec<Table>, String> {
    run.print_title("Table 2 — configuration presets on the small suite");
    let mut table = Table::new(run.exp.header);
    for row in TABLE2_SETTINGS {
        table.add_row(row.map(String::from).to_vec());
    }
    let presets = ConfigPreset::all().map(Variant::preset);
    let all_runs = sweep(run, &small_suite(run.scale, run.args.seed), &presets);
    let mut cuts = vec!["avg. cut (geom.)".to_string()];
    let mut times = vec!["avg. time (geom.) [s]".to_string()];
    for runs in &all_runs {
        cuts.push(fmt_f(geo(runs, |r| r.avg_cut.max(1.0)), 0));
        times.push(fmt_f(geo(runs, |r| r.avg_time.max(1e-6)), 3));
    }
    table.add_row(cuts);
    table.add_row(times);
    table.print();
    Ok(vec![table])
}

/// The per-instance cells shared by Tables 5–20.
fn instance_row(agg: &AggregatedRun) -> Vec<String> {
    vec![
        agg.graph.clone(),
        fmt_f(agg.avg_cut, 0),
        agg.best_cut.to_string(),
        fmt_f(agg.avg_balance, 3),
        fmt_f(agg.avg_time, 2),
    ]
}

/// The paper numbers its per-instance tables `first + stride · i` for the
/// i-th of k = 16, 32, 64; other k (and tools without a table) get no number.
fn paper_table(range: &str, first: Option<usize>, stride: usize, k: u32) -> String {
    match (first, [16, 32, 64].iter().position(|&paper_k| paper_k == k)) {
        (Some(first), Some(i)) => format!("Table {}", first + stride * i),
        (Some(_), None) => format!("Tables {range} (k = {k}, not in the paper)"),
        (None, _) => format!("Tables {range} (tool not in the paper's tables)"),
    }
}

/// Tables 6–20: one titled table per (variant, k), one row per instance of
/// the large suite. `choices` are (value of the experiment's flag, first
/// paper table, variant); without the flag, every variant the paper
/// tabulates runs.
fn instance_tables(
    run: &Run,
    range: &str,
    stride: usize,
    choices: &[(&str, Option<usize>, Variant)],
) -> Result<Vec<Table>, String> {
    let wanted = run.args.selector.as_ref().map_or("", |(_, value)| value);
    let keys: Vec<&str> = choices.iter().map(|choice| choice.0).collect();
    if !wanted.is_empty() && !keys.contains(&wanted) {
        return Err(format!("`{wanted}` is not one of {}", keys.join(", ")));
    }
    let suite = large_suite(run.scale, run.args.seed);
    let mut tables = Vec::new();
    for (key, first, variant) in choices {
        let selected = if wanted.is_empty() {
            first.is_some()
        } else {
            *key == wanted
        };
        if !selected {
            continue;
        }
        for &k in &run.ks {
            let (number, name) = (paper_table(range, *first, stride, k), variant.name);
            let (scale, reps) = (run.scale, run.reps);
            println!("\n{number} — {name} k = {k} (scale = {scale}, reps = {reps})");
            let mut table = Table::new(run.exp.header);
            for inst in &suite {
                let agg = run.measure(variant, &inst.name, &inst.graph, k);
                table.add_row(instance_row(&agg));
            }
            table.print();
            tables.push(table);
        }
    }
    Ok(tables)
}

/// Table 5: the instances KaPPa was optimised for — large graphs whose
/// coordinates allow geometric pre-partitioning — under every tool.
fn table5_large(run: &Run) -> Result<Vec<Table>, String> {
    let (n, seed) = (run.scaled(262_144, 512), run.args.seed);
    let suite = [
        ("rgg20'", random_geometric_graph(n, seed)),
        ("Delaunay20'", delaunay_like_graph(n, seed + 1)),
        ("deu'", road_network_like(n, seed + 2)),
        (
            "eur'",
            road_network_like(run.scaled(524_288, 512), seed + 3),
        ),
    ];
    run.print_title("Table 5 — largest graphs with coordinates, all tools");
    let mut table = Table::new(run.exp.header);
    for variant in Variant::comparison_lineup() {
        for &k in &run.ks {
            for (name, graph) in &suite {
                let mut row = vec![variant.name.to_string(), k.to_string()];
                row.extend(instance_row(&run.measure(&variant, name, graph, k)));
                table.add_row(row);
            }
        }
    }
    table.print();
    Ok(vec![table])
}

/// Table 1: `n` and `m` of every instance of the two suites.
fn table1_instances(run: &Run) -> Result<Vec<Table>, String> {
    let (scale, seed) = (run.scale, run.args.seed);
    println!("Table 1 — benchmark instances (scale = {scale}, seed = {seed})\n");
    let mut tables = Vec::new();
    for (title, suite) in [
        (
            "small / medium (configuration suite)",
            small_suite(scale, seed),
        ),
        ("large (comparison suite)", large_suite(scale, seed)),
    ] {
        println!("{title}:");
        let mut table = Table::new(run.exp.header);
        for inst in &suite {
            let (graph, family) = (&inst.name, inst.family.name());
            let (n, m) = (inst.graph.num_nodes(), inst.graph.num_edges());
            table.add_row(vec![
                graph.clone(),
                family.to_string(),
                n.to_string(),
                m.to_string(),
            ]);
            if run.args.json {
                let record = json!({
                    "experiment": "table1", "graph": graph, "family": family, "n": n, "m": m,
                });
                println!("{record}");
            }
        }
        table.print();
        println!();
        tables.push(table);
    }
    Ok(tables)
}

/// Attempts per rating / per baseline for every cell of Tables 21–23.
const WALSHAW_TRIES: u64 = 3;

/// Tables 21–23, the Walshaw-archive protocol: running time does not matter,
/// only the smallest feasible cut per (graph, k, ε) cell. KaPPa-Strong is
/// strengthened (BFS depth 20, FM patience 30 %) and tried with each of
/// innerOuter (`+`), expansion* (`*`) and expansion*2 (`**`); the best of the
/// baseline pool over as many tries stands in for "the previous best known
/// value".
fn tables21_23_walshaw(run: &Run) -> Result<Vec<Table>, String> {
    let (args, scale) = (run.args, run.scale);
    let suite = small_suite(scale, args.seed);
    let mut tables = Vec::new();
    for (number, epsilon) in [(21, 0.01), (22, 0.03), (23, 0.05)] {
        println!(
            "\nTable {number} — Walshaw-style best cuts at eps = {:.0} % (scale = {scale}, tries \
             per rating = {WALSHAW_TRIES})",
            epsilon * 100.0
        );
        let mut improvements = 0usize;
        let mut table = Table::new(run.exp.header);
        for inst in &suite {
            for &k in &run.ks {
                let kappa_cut = |(rating, t): (EdgeRating, u64)| {
                    let config = KappaConfig::walshaw(k, epsilon)
                        .with_rating(rating)
                        .with_seed(args.seed.wrapping_add(t * 101))
                        .with_threads(args.threads);
                    let metrics = KappaPartitioner::new(config).partition(&inst.graph).metrics;
                    metrics.feasible.then_some((metrics.edge_cut, rating))
                };
                let attempts = EdgeRating::walshaw_set()
                    .into_iter()
                    .flat_map(|rating| (0..WALSHAW_TRIES).map(move |t| (rating, t)));
                // `min_by_key` keeps the earliest of equal cuts, as the paper's markers do.
                let best = attempts.filter_map(kappa_cut).min_by_key(|&(cut, _)| cut);
                let (kappa_best, marker) = match best {
                    Some((cut, EdgeRating::ExpansionStar)) => (cut, "*"),
                    Some((cut, EdgeRating::ExpansionStar2)) => (cut, "**"),
                    Some((cut, _)) => (cut, "+"),
                    None => (0, "?"),
                };
                let baseline_cut = |(kind, t): (BaselineKind, u64)| {
                    let tool = kind.build();
                    let p = tool.partition(&inst.graph, k, epsilon, args.seed + t);
                    let cut = p.edge_cut(&inst.graph);
                    p.is_balanced(&inst.graph, epsilon).then_some(cut)
                };
                let pool = BaselineKind::all()
                    .into_iter()
                    .flat_map(|kind| (0..WALSHAW_TRIES).map(move |t| (kind, t)));
                let baseline_best = pool.filter_map(baseline_cut).min();
                let improved = kappa_best <= baseline_best.unwrap_or(u64::MAX);
                improvements += improved as usize;
                if args.json {
                    let record = json!({
                        "experiment": "walshaw", "graph": inst.name, "k": k, "eps": epsilon,
                        "kappa_best": kappa_best, "rating": marker,
                        "baseline_best": baseline_best, "improved": improved,
                    });
                    println!("{record}");
                }
                table.add_row(vec![
                    inst.name.clone(),
                    k.to_string(),
                    kappa_best.to_string(),
                    marker.to_string(),
                    baseline_best.map_or("-".to_string(), |cut| cut.to_string()),
                    if improved { "yes" } else { "no" }.to_string(),
                ]);
            }
        }
        table.print();
        let cells = table.num_rows();
        let share = fmt_f(100.0 * improvements as f64 / cells.max(1) as f64, 1);
        println!(
            "KaPPa matched or improved the baseline pool in {improvements}/{cells} cells \
             ({share} %)."
        );
        tables.push(table);
    }
    Ok(tables)
}

/// Figure 1 as text: partitions a 24 × 24 grid, builds the quotient graph,
/// colours its edges with the greedy protocol of §5.1 and prints each colour
/// class — every class must be a matching (its pairs refine concurrently)
/// and the number of colours at most 2Δ − 1.
fn fig1_quotient(run: &Run) -> Result<Vec<Table>, String> {
    let side = 24;
    let (k, graph) = (run.single_k()?, grid2d(side, side));
    let result = run.partition_fast(&graph, k);
    let quotient = QuotientGraph::build(&graph, &result.partition);
    let coloring = color_quotient_edges(&quotient, run.args.seed);

    println!("Figure 1 — quotient graph and its edge colouring");
    println!(
        "graph: {side}x{side} grid, k = {k}, cut = {}, balance = {:.3}\n",
        result.metrics.edge_cut, result.metrics.balance
    );
    println!(
        "quotient graph Q: {} blocks, {} edges, max degree {}",
        quotient.num_blocks(),
        quotient.num_edges(),
        quotient.max_degree()
    );
    println!("quotient edges (block pairs with their cut weight):");
    for &(a, b, w) in quotient.edges() {
        println!("  ({a}, {b})  cut weight {w}");
    }
    println!(
        "\nedge colouring: {} colours (bound 2*Delta - 1 = {}), valid: {}",
        coloring.num_colors(),
        2 * quotient.max_degree().max(1) - 1,
        coloring.validate().is_ok()
    );
    for c in 0..coloring.num_colors() {
        let class = coloring.class(c);
        let pairs: Vec<String> = class.iter().map(|&(a, b)| format!("({a},{b})")).collect();
        println!(
            "  colour {c}: M({c}) = {{ {} }}  -> {} concurrent pairwise refinements",
            pairs.join(", "),
            class.len()
        );
    }
    assert!(coloring.validate().is_ok());
    assert_eq!(coloring.num_pairs(), quotient.num_edges());
    Ok(Vec::new())
}

/// Figure 2 in numbers: for the heaviest block pair of a partitioned
/// 20 000-node rgg, the band size per BFS depth and the share of the two
/// blocks it covers — "for large graphs, only a small fraction of each block
/// has to be communicated".
fn fig2_band(run: &Run) -> Result<Vec<Table>, String> {
    let (k, graph) = (
        run.single_k()?,
        random_geometric_graph(20_000, run.args.seed),
    );
    let partition = &run.partition_fast(&graph, k).partition;
    let quotient = QuotientGraph::build(&graph, partition);
    let heaviest = quotient.edges().iter().max_by_key(|&&(_, _, w)| w);
    let &(a, b, cut_weight) = heaviest.ok_or(format!("a k = {k} partition has no cut edge"))?;
    let in_pair = |v: &NodeId| partition.block_of(*v) == a || partition.block_of(*v) == b;
    let pair_size = graph.nodes().filter(in_pair).count();

    println!("Figure 2 — boundary-exchange band between blocks {a} and {b}");
    println!(
        "graph: rgg with {} nodes, k = {k}; pair ({a},{b}) holds {pair_size} nodes, cut weight \
         {cut_weight}\n",
        graph.num_nodes()
    );
    let mut table = Table::new(run.exp.header);
    for depth in [1usize, 2, 5, 10, 20, 50] {
        let band = pair_band(&graph, partition, a, b, depth).len();
        let share = fmt_f(100.0 * band as f64 / pair_size.max(1) as f64, 1);
        table.add_row(vec![depth.to_string(), band.to_string(), share]);
    }
    table.print();
    Ok(vec![table])
}

/// Figure 3 on shared memory: total time per Rayon thread count (1, 2, 4, …
/// up to the machine's cores) on the road / rgg / delaunay families. `k`
/// stays fixed while the thread count varies — in the paper k equals the PE
/// count, but decoupling them isolates thread scaling, which is what the
/// figure is about.
fn fig3_scalability(run: &Run) -> Result<Vec<Table>, String> {
    let k = run.single_k()?;
    let cores = rayon::current_num_threads();
    let thread_counts = (0..).map(|i| 1usize << i).take_while(|&t| t <= cores);
    let (n, seed) = (run.scaled(1_048_576, 1024), run.args.seed);
    let instances = [
        ("eur'", road_network_like(n, seed)),
        ("rgg22'", random_geometric_graph(n, seed + 1)),
        ("delaunay22'", delaunay_like_graph(n, seed + 2)),
    ];
    let tools = [
        Variant::preset(ConfigPreset::Strong),
        Variant::preset(ConfigPreset::Fast),
        Variant::preset(ConfigPreset::Minimal),
        Variant::baseline(BaselineKind::ParMetisLike),
    ];
    let (scale, reps) = (run.scale, run.reps);
    println!(
        "Figure 3 — total time [s] vs. number of threads (scale = {scale}, k = {k}, reps = {reps})"
    );
    let mut tables = Vec::new();
    for (name, graph) in &instances {
        let (n, m) = (graph.num_nodes(), graph.num_edges());
        println!("\ninstance {name} (n = {n}, m = {m}):");
        let mut table = Table::new(run.exp.header);
        for threads in thread_counts.clone() {
            let mut row = vec![threads.to_string()];
            for tool in &tools {
                let agg = tool.run(name, graph, k, run.args.seed, threads, reps);
                if run.args.json {
                    let record = json!({
                        "experiment": "fig3", "graph": name, "threads": threads,
                        "tool": tool.name, "avg_time": agg.avg_time, "avg_cut": agg.avg_cut,
                    });
                    println!("{record}");
                }
                row.push(fmt_f(agg.avg_time, 3));
            }
            table.add_row(row);
        }
        table.print();
        tables.push(table);
    }
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(words: &[&str]) -> Result<Vec<Table>, String> {
        run_cli(words.iter().map(|w| w.to_string()))
    }

    /// Every registered experiment runs to the end at a tiny scale and
    /// prints non-empty tables under its registered header.
    #[test]
    fn every_experiment_runs_and_fills_its_registered_table() {
        assert_eq!(EXPERIMENTS.len(), 13);
        for e in EXPERIMENTS {
            let tables = cli(&[e.name, "--scale", "0.01", "--reps", "1", "--k", "4"])
                .unwrap_or_else(|err| panic!("{}: {err}", e.name));
            assert_eq!(tables.is_empty(), e.header.is_empty(), "{}", e.name);
            for table in &tables {
                assert_eq!(table.header(), e.header, "{}", e.name);
                assert!(table.num_rows() > 0, "{}", e.name);
            }
        }
        assert!(cli(&["--list"]).unwrap().is_empty());
    }

    /// What the registry rejects on top of `Args::parse` (the binary's exit
    /// status and usage are checked in `tests/exp_cli.rs`).
    #[test]
    fn unknown_experiments_selectors_and_k_lists_are_errors() {
        for bad in [
            &[][..],
            &["table9-nothing"],
            &["table1-instances", "--list"],
            &["table2-configs", "--tool", "kmetis-like"],
            &["tables6-14-kappa", "--tool", "kmetis-like"],
            &["tables6-14-kappa", "--config", "stronk"],
            &["tables15-20-baselines", "--tool", "metis"],
            &["fig1-quotient", "--k", "2,4"],
            &["fig3-scalability", "--k", "2,4"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn only_the_papers_k_gets_the_papers_table_number() {
        let numbers =
            |first, stride| [16, 32, 64].map(|k| paper_table("6–14", Some(first), stride, k));
        assert_eq!(numbers(9, 1), ["Table 9", "Table 10", "Table 11"]);
        assert_eq!(numbers(16, 2), ["Table 16", "Table 18", "Table 20"]);
        assert_eq!(
            paper_table("6–14", Some(6), 1, 4),
            "Tables 6–14 (k = 4, not in the paper)"
        );
        assert!(paper_table("15–20", None, 2, 16).starts_with("Tables 15–20 (tool not"));
    }
}
