//! The KaPPa configurations of Table 2: *minimal*, *fast* and *strong*.
//!
//! | parameter              | minimal | fast | strong |
//! |------------------------|---------|------|--------|
//! | rating                 | expansion*2 (all)        |
//! | matching               | GPA (all)                |
//! | stop contraction       | n / (60 k²) per PE (all) |
//! | init. repeats          | 1       | 3    | 5      |
//! | queue selection        | TopGain (all)            |
//! | BFS search depth       | 1       | 5    | 20     |
//! | stop refinement        | —       | no change | 2× no change |
//! | max. global iterations | 1       | 15   | 15     |
//! | local iterations       | 1       | 3    | 5      |
//! | FM patience α          | 1 %     | 5 %  | 20 %   |
//!
//! The *Walshaw* preset (§6.3) further strengthens the strong setting: BFS
//! depth 20, patience 30 %, many repetitions over three edge ratings (the
//! repetition loop lives in the experiment harness, not here).

use kappa_coarsen::CoarseningConfig;
use kappa_initial::InitialPartitionConfig;
use kappa_matching::{EdgeRating, MatchingAlgorithm};
use kappa_refine::{QueueSelection, RefinementConfig};
use serde::{Deserialize, Serialize};

/// Named parameter presets (Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConfigPreset {
    /// Smallest possible value for every knob; the "overly crippled" baseline
    /// useful when comparing against fast low-quality solvers.
    Minimal,
    /// Low execution time, still good quality (the default).
    Fast,
    /// Best quality without an outrageous amount of time.
    Strong,
}

impl ConfigPreset {
    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            ConfigPreset::Minimal => "KaPPa-Minimal",
            ConfigPreset::Fast => "KaPPa-Fast",
            ConfigPreset::Strong => "KaPPa-Strong",
        }
    }

    /// All presets in the order of Table 2.
    pub fn all() -> [ConfigPreset; 3] {
        [
            ConfigPreset::Minimal,
            ConfigPreset::Fast,
            ConfigPreset::Strong,
        ]
    }
}

/// The α of the contraction stop `n / (α·k²)` per PE in every preset.
const CONTRACTION_ALPHA: f64 = 60.0;

/// Full configuration of a KaPPa run.
#[derive(Clone, Copy, Debug)]
pub struct KappaConfig {
    /// Number of blocks `k`.
    pub k: u32,
    /// Imbalance tolerance ε (default 3 %, the Metis default and a Walshaw value).
    pub epsilon: f64,
    /// Edge rating for contraction.
    pub rating: EdgeRating,
    /// Sequential matching algorithm (used per part by the parallel matcher).
    pub matching: MatchingAlgorithm,
    /// Number of independent initial-partitioning attempts.
    pub initial_repeats: usize,
    /// FM queue selection strategy.
    pub queue_selection: QueueSelection,
    /// BFS band depth for pairwise refinement.
    pub bfs_depth: usize,
    /// Consecutive unimproved global iterations before refinement stops.
    pub stop_after_no_change: usize,
    /// Maximum global refinement iterations per level.
    pub max_global_iterations: usize,
    /// Local FM iterations per block pair.
    pub local_iterations: usize,
    /// FM patience α (fraction of `min(|A|,|B|)`).
    pub fm_patience: f64,
    /// Number of worker threads (the shared-memory stand-in for PEs). `0`
    /// means "use the current Rayon pool as is".
    pub num_threads: usize,
    /// Master seed; every randomised component derives its own seed from it.
    pub seed: u64,
}

impl KappaConfig {
    /// The *minimal* configuration of Table 2 for `k` blocks.
    pub fn minimal(k: u32) -> Self {
        KappaConfig {
            k,
            epsilon: 0.03,
            rating: EdgeRating::ExpansionStar2,
            matching: MatchingAlgorithm::Gpa,
            initial_repeats: 1,
            queue_selection: QueueSelection::TopGain,
            bfs_depth: 1,
            stop_after_no_change: 1,
            max_global_iterations: 1,
            local_iterations: 1,
            fm_patience: 0.01,
            num_threads: 0,
            seed: 0,
        }
    }

    /// The *fast* configuration of Table 2 for `k` blocks (the default).
    pub fn fast(k: u32) -> Self {
        KappaConfig {
            initial_repeats: 3,
            bfs_depth: 5,
            stop_after_no_change: 1,
            max_global_iterations: 15,
            local_iterations: 3,
            fm_patience: 0.05,
            ..KappaConfig::minimal(k)
        }
    }

    /// The *strong* configuration of Table 2 for `k` blocks.
    pub fn strong(k: u32) -> Self {
        KappaConfig {
            initial_repeats: 5,
            bfs_depth: 20,
            stop_after_no_change: 2,
            max_global_iterations: 15,
            local_iterations: 5,
            fm_patience: 0.20,
            ..KappaConfig::minimal(k)
        }
    }

    /// The strengthened setting used for the Walshaw benchmark (§6.3): strong
    /// plus BFS depth 20 and FM patience 30 % (the harness additionally repeats
    /// the whole run over several ratings and seeds).
    pub fn walshaw(k: u32, epsilon: f64) -> Self {
        KappaConfig {
            epsilon,
            fm_patience: 0.30,
            ..KappaConfig::strong(k)
        }
    }

    /// Instantiates a named preset.
    pub fn preset(preset: ConfigPreset, k: u32) -> Self {
        match preset {
            ConfigPreset::Minimal => KappaConfig::minimal(k),
            ConfigPreset::Fast => KappaConfig::fast(k),
            ConfigPreset::Strong => KappaConfig::strong(k),
        }
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the imbalance tolerance (builder style).
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the edge rating (builder style).
    pub fn with_rating(mut self, rating: EdgeRating) -> Self {
        self.rating = rating;
        self
    }

    /// Sets the sequential matching algorithm (builder style).
    pub fn with_matching(mut self, matching: MatchingAlgorithm) -> Self {
        self.matching = matching;
        self
    }

    /// Sets the queue selection strategy (builder style).
    pub fn with_queue_selection(mut self, qs: QueueSelection) -> Self {
        self.queue_selection = qs;
        self
    }

    /// Sets the number of worker threads (builder style).
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// The node-count threshold at which contraction stops for a graph of `n`
    /// nodes: `k · max(20, n / (60·k²))` (§4 per PE, ×k for the total).
    pub fn contraction_stop_nodes(&self, n: usize) -> usize {
        let per_pe = (n as f64 / (CONTRACTION_ALPHA * (self.k as f64).powi(2))).ceil();
        (self.k as usize) * (per_pe.max(20.0) as usize)
    }

    // The pipeline policy: how every driver — shared-memory, memory-tiered,
    // distributed — derives its three phase configurations from this one.

    /// Coarsening policy for an input of `n` nodes: stop at
    /// [`contraction_stop_nodes`](Self::contraction_stop_nodes) but never
    /// below `2k` nodes; the shrink guard and level cap are the defaults.
    pub fn coarsening(&self, n: usize) -> CoarseningConfig {
        CoarseningConfig {
            stop_at_nodes: self
                .contraction_stop_nodes(n)
                .max(2 * self.k.max(1) as usize),
            seed: self.seed,
        }
    }

    /// Initial partitioning of the coarsest graph by a PE that runs `pes`
    /// times the configured repeats and explores seed window number `window`.
    /// The shared-memory pipeline is one PE with window 0 and `pes` = its
    /// thread count; rank `r` of the distributed pipeline has `pes` = 1 and
    /// window `r`, so rank 0 draws exactly the one-thread seeds.
    pub fn initial_partitioning(&self, pes: usize, window: usize) -> InitialPartitionConfig {
        let repeats = self.initial_repeats.max(1) * pes;
        InitialPartitionConfig {
            k: self.k.max(1),
            epsilon: self.epsilon,
            repeats,
            seed: self
                .seed
                .wrapping_add(0xC0A2)
                .wrapping_add(window as u64 * repeats as u64),
        }
    }

    /// Refinement configuration, identical on every level and every driver.
    pub fn refinement(&self) -> RefinementConfig {
        RefinementConfig {
            epsilon: self.epsilon,
            bfs_depth: self.bfs_depth,
            max_global_iterations: self.max_global_iterations,
            local_iterations: self.local_iterations,
            stop_after_no_change: self.stop_after_no_change,
            queue_selection: self.queue_selection,
            patience_alpha: self.fm_patience,
            seed: self.seed.wrapping_add(0x5EF1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_follow_table_2_ordering() {
        let min = KappaConfig::minimal(8);
        let fast = KappaConfig::fast(8);
        let strong = KappaConfig::strong(8);
        assert!(min.initial_repeats < fast.initial_repeats);
        assert!(fast.initial_repeats < strong.initial_repeats);
        assert!(min.bfs_depth < fast.bfs_depth);
        assert!(fast.bfs_depth < strong.bfs_depth);
        assert!(min.fm_patience < fast.fm_patience);
        assert!(fast.fm_patience < strong.fm_patience);
        assert_eq!(min.max_global_iterations, 1);
        assert_eq!(fast.max_global_iterations, 15);
        assert_eq!(strong.stop_after_no_change, 2);
        // Shared defaults.
        for c in [min, fast, strong] {
            assert_eq!(c.rating, EdgeRating::ExpansionStar2);
            assert_eq!(c.matching, MatchingAlgorithm::Gpa);
            assert_eq!(c.queue_selection, QueueSelection::TopGain);
            assert!((c.epsilon - 0.03).abs() < 1e-12);
        }
    }

    #[test]
    fn contraction_stop_matches_formula() {
        let c = KappaConfig::fast(4);
        // Small n: the per-PE floor of 20 dominates.
        assert_eq!(c.contraction_stop_nodes(1000), 80);
        // Large n: n / (60 k²) per PE.
        let n = 10_000_000;
        let expected_per_pe = (n as f64 / (60.0 * 16.0)).ceil() as usize;
        assert_eq!(c.contraction_stop_nodes(n), 4 * expected_per_pe);
    }

    #[test]
    fn walshaw_preset_strengthens_strong() {
        let s = KappaConfig::strong(16);
        let w = KappaConfig::walshaw(16, 0.01);
        assert!(w.fm_patience > s.fm_patience);
        assert!((w.epsilon - 0.01).abs() < 1e-12);
    }

    #[test]
    fn builder_methods_chain() {
        let c = KappaConfig::fast(2)
            .with_seed(7)
            .with_epsilon(0.05)
            .with_rating(EdgeRating::InnerOuter)
            .with_matching(MatchingAlgorithm::Shem)
            .with_queue_selection(QueueSelection::MaxLoad)
            .with_threads(3);
        assert_eq!(c.seed, 7);
        assert!((c.epsilon - 0.05).abs() < 1e-12);
        assert_eq!(c.rating, EdgeRating::InnerOuter);
        assert_eq!(c.matching, MatchingAlgorithm::Shem);
        assert_eq!(c.queue_selection, QueueSelection::MaxLoad);
        assert_eq!(c.num_threads, 3);
    }

    #[test]
    fn preset_names() {
        assert_eq!(ConfigPreset::Fast.name(), "KaPPa-Fast");
        assert_eq!(ConfigPreset::all().len(), 3);
    }
}
