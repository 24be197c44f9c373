//! The fixed workload matrix. Instance sizes are part of the names later
//! issues cite; do not shrink them.

/// Graph family and size of a workload's instance.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// `random_geometric_graph(2^log_n, seed)`.
    Rgg { log_n: u32 },
    /// `rmat_graph(scale, edge_factor, seed)`.
    Rmat { scale: u32, edge_factor: usize },
}

/// Table-2 preset of the partitioner.
#[derive(Clone, Copy, Debug)]
pub enum Preset {
    Minimal,
    Fast,
}

/// How the input reaches the partitioner, and which top-level call runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// Generated in RAM, `KappaPartitioner::partition`.
    Ram,
    /// Written with `write_metis`, re-read with `read_metis`, then as `Ram`.
    MetisFile,
    /// Generated in RAM, `partition_distributed` at one rank.
    Dist,
    /// Spilled with `PagedGraph::from_graph`, `partition_tiered`.
    Paged,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub family: Family,
    pub k: u32,
    pub preset: Preset,
    pub path: Path,
    /// Timed reps per second of `--seconds`, sized so that a run measures
    /// for about that long on a 2-core shared box (`rmat15_k4_file`: longer). The count, not the clock,
    /// ends a run: the seeds a run uses depend only on its arguments.
    pub reps_per_second: f64,
}

impl Workload {
    /// Timed reps (= distinct partition seeds) of a run of `seconds`.
    pub fn reps(&self, seconds: u64) -> u64 {
        ((self.reps_per_second * seconds as f64).round() as u64).max(4)
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "rgg17_k32_fast",
        why: "refinement workload: at k=32 pairwise band+FM refinement is most of the call, coarsening about a quarter",
        family: Family::Rgg { log_n: 17 },
        k: 32,
        preset: Preset::Fast,
        path: Path::Ram,
        reps_per_second: 1.2,
    },
    Workload {
        name: "rgg18_k8_minimal",
        why: "coarsening workload: matching+contraction dominate, a refinement change must not move it; generator dominates setup_s",
        family: Family::Rgg { log_n: 18 },
        k: 8,
        preset: Preset::Minimal,
        path: Path::Ram,
        reps_per_second: 1.0,
    },
    Workload {
        name: "rmat15_k4_file",
        why: "skewed degrees, no coordinates, dense quotient, big bands (ROADMAP gap c); the only workload reading a METIS file",
        family: Family::Rmat {
            scale: 15,
            edge_factor: 8,
        },
        k: 4,
        preset: Preset::Fast,
        path: Path::MetisFile,
        // 1.6 x the time of the others: its per-seed work varies most (CV 22 %).
        reps_per_second: 1.2,
    },
    Workload {
        name: "dist_rgg17_k8_r1",
        why: "distribution tax (ROADMAP gap a): partition_distributed at one rank, no second thread to add scheduler noise",
        family: Family::Rgg { log_n: 17 },
        k: 8,
        preset: Preset::Fast,
        path: Path::Dist,
        reps_per_second: 0.8,
    },
    Workload {
        name: "paged_rgg17_k8_thrash",
        why: "out-of-core tax (ROADMAP gap b): 512 KiB page cache on a spilled graph, the only workload where kappa-mem works",
        family: Family::Rgg { log_n: 17 },
        k: 8,
        preset: Preset::Fast,
        path: Path::Paged,
        reps_per_second: 0.8,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
