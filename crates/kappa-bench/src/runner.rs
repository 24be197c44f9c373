//! Running tools on instances and aggregating results the way the paper does:
//! average cut, best cut, average balance and average runtime over a number of
//! repetitions with different seeds; geometric means across instances.

use std::time::Instant;

use kappa_baselines::BaselineKind;
use kappa_core::{ConfigPreset, KappaConfig, KappaPartitioner, PartitionMetrics};
use kappa_graph::CsrGraph;
use serde::Serialize;

/// Imbalance tolerance of every comparison run (the paper's 3 %).
const EPSILON: f64 = 0.03;

type Tweak = Box<dyn Fn(KappaConfig) -> KappaConfig + Send + Sync>;

/// One contender of a comparison: a KaPPa configuration or one of the
/// baseline stand-ins.
pub struct Variant {
    /// Row / column label used in the tables.
    pub name: &'static str,
    kind: Kind,
}

enum Kind {
    /// A preset with a change applied on top; JSON rows name the preset.
    Kappa(ConfigPreset, Tweak),
    Baseline(BaselineKind),
}

impl Variant {
    /// KaPPa-Fast with one setting changed (the rows of Tables 3 and 4 left).
    pub fn fast(
        name: &'static str,
        tweak: impl Fn(KappaConfig) -> KappaConfig + Send + Sync + 'static,
    ) -> Self {
        let kind = Kind::Kappa(ConfigPreset::Fast, Box::new(tweak));
        Variant { name, kind }
    }

    /// A KaPPa preset (minimal/fast/strong).
    pub fn preset(preset: ConfigPreset) -> Self {
        let kind = Kind::Kappa(preset, Box::new(|config| config));
        let name = preset.name();
        Variant { name, kind }
    }

    /// One of the baseline stand-ins.
    pub fn baseline(kind: BaselineKind) -> Self {
        let name = kind.name();
        let kind = Kind::Baseline(kind);
        Variant { name, kind }
    }

    /// The tool line-up of Table 4 (right): KaPPa presets then the baselines.
    pub fn comparison_lineup() -> Vec<Variant> {
        let presets = ConfigPreset::all().into_iter().map(Self::preset);
        presets
            .chain(BaselineKind::all().into_iter().map(Self::baseline))
            .collect()
    }

    /// Runs the variant `reps` times on `graph` with different seeds and
    /// aggregates the way the paper does. `threads` (0 = all cores) sets
    /// KaPPa's thread count; the baselines take none, so they run inside a
    /// pool of that size.
    pub fn run(
        &self,
        graph_name: &str,
        graph: &CsrGraph,
        k: u32,
        seed: u64,
        threads: usize,
        reps: usize,
    ) -> AggregatedRun {
        let rep_seed = |rep: usize| seed.wrapping_add(rep as u64 * 7919);
        let reps = 0..reps.max(1);
        let (tool, metrics): (_, Vec<PartitionMetrics>) = match &self.kind {
            Kind::Kappa(preset, tweak) => {
                let config = tweak(KappaConfig::preset(*preset, k))
                    .with_epsilon(EPSILON)
                    .with_threads(threads);
                let run = |rep| {
                    let config = config.with_seed(rep_seed(rep));
                    KappaPartitioner::new(config).partition(graph).metrics
                };
                (preset.name(), reps.map(run).collect())
            }
            Kind::Baseline(kind) => {
                let tool = kind.build();
                let run = |rep| {
                    #[expect(clippy::disallowed_methods, reason = "measuring time is its job")]
                    let start = Instant::now();
                    let partition = tool.partition(graph, k, EPSILON, rep_seed(rep));
                    PartitionMetrics::measure(graph, &partition, EPSILON, start.elapsed())
                };
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads);
                let pool = pool.build().expect("a thread pool of a given size");
                (self.name, pool.install(|| reps.map(run).collect()))
            }
        };
        AggregatedRun::from_metrics(tool, graph_name, k, EPSILON, &metrics)
    }
}

/// Aggregated results of repeated runs of one tool on one instance.
#[derive(Clone, Debug, Serialize)]
pub struct AggregatedRun {
    /// Tool name.
    pub tool: String,
    /// Instance name.
    pub graph: String,
    /// Number of blocks.
    pub k: u32,
    /// Imbalance tolerance used.
    pub epsilon: f64,
    /// Average cut over the repetitions.
    pub avg_cut: f64,
    /// Best (smallest) cut over the repetitions.
    pub best_cut: u64,
    /// Average balance (`1.03` = 3 % over the average block weight).
    pub avg_balance: f64,
    /// Average wall-clock runtime in seconds.
    pub avg_time: f64,
    /// Fraction of repetitions that satisfied the balance constraint.
    pub feasible_fraction: f64,
    /// Number of repetitions.
    pub reps: usize,
}

impl AggregatedRun {
    fn from_metrics(
        tool: &str,
        graph: &str,
        k: u32,
        epsilon: f64,
        metrics: &[PartitionMetrics],
    ) -> Self {
        let reps = metrics.len().max(1);
        AggregatedRun {
            tool: tool.to_string(),
            graph: graph.to_string(),
            k,
            epsilon,
            avg_cut: metrics.iter().map(|m| m.edge_cut as f64).sum::<f64>() / reps as f64,
            best_cut: metrics.iter().map(|m| m.edge_cut).min().unwrap_or(0),
            avg_balance: metrics.iter().map(|m| m.balance).sum::<f64>() / reps as f64,
            avg_time: metrics.iter().map(|m| m.runtime_secs()).sum::<f64>() / reps as f64,
            feasible_fraction: metrics.iter().filter(|m| m.feasible).count() as f64 / reps as f64,
            reps,
        }
    }

    /// Emits the row as a single JSON line (for EXPERIMENTS.md traceability).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("aggregated run serialises")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_gen::grid2d;

    #[test]
    fn aggregation_math_is_correct() {
        let metrics = vec![
            PartitionMetrics {
                edge_cut: 10,
                balance: 1.02,
                feasible: true,
                boundary_nodes: 5,
                runtime: std::time::Duration::from_millis(100),
            },
            PartitionMetrics {
                edge_cut: 20,
                balance: 1.04,
                feasible: false,
                boundary_nodes: 6,
                runtime: std::time::Duration::from_millis(300),
            },
        ];
        let agg = AggregatedRun::from_metrics("t", "g", 4, 0.03, &metrics);
        assert!((agg.avg_cut - 15.0).abs() < 1e-12);
        assert_eq!(agg.best_cut, 10);
        assert!((agg.avg_balance - 1.03).abs() < 1e-12);
        assert!((agg.avg_time - 0.2).abs() < 1e-12);
        assert!((agg.feasible_fraction - 0.5).abs() < 1e-12);
        // JSON line round-trips through serde_json.
        let line = agg.to_json_line();
        let value: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(value["tool"], "t");
        assert_eq!(value["k"], 4);
    }

    #[test]
    fn variants_cover_kappa_and_baselines() {
        let g = grid2d(16, 16);
        let kappa = Variant::preset(ConfigPreset::Minimal).run("grid", &g, 4, 1, 0, 1);
        assert_eq!((kappa.tool.as_str(), kappa.reps), ("KaPPa-Minimal", 1));
        assert!(kappa.avg_cut > 0.0);
        let greedy = Variant::fast("greedy", |c| {
            c.with_matching(kappa_matching::MatchingAlgorithm::Greedy)
        });
        let greedy = greedy.run("grid", &g, 4, 1, 1, 1);
        assert_eq!(
            (greedy.tool.as_str(), greedy.graph.as_str()),
            ("KaPPa-Fast", "grid")
        );
        let metis = Variant::baseline(BaselineKind::MetisLike).run("grid", &g, 4, 1, 1, 2);
        assert_eq!((metis.tool.as_str(), metis.reps), ("kmetis-like", 2));
        assert!(metis.avg_cut > 0.0);
    }

    #[test]
    fn comparison_lineup_has_six_tools() {
        let names: Vec<&str> = Variant::comparison_lineup()
            .iter()
            .map(|v| v.name)
            .collect();
        assert_eq!(names.len(), 6);
        assert_eq!((names[0], names[5]), ("KaPPa-Minimal", "parmetis-like"));
    }
}
