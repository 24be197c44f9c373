//! The metric tables: the single source of the names, units and bounds that
//! `BENCHMARK.json` (printed by `--manifest`), `--selfcheck` and `--compare`
//! all use.

use serde_json::{json, Value};

use crate::workloads::WORKLOADS;

/// Measuring budget of one run, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// All four are better when lower. The bounds are what ten runs with ten
/// different seeds support on a 2-core shared box (`README.md`, "Noise"):
/// `peak_rss_mib` is three times the widest quartile spread seen there, the
/// other three sit at the contract's cap.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "partition_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "edge_cut",
        unit: "edges",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        bound: 0.20,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Named by crate. `README.md` says which end-to-end metric each should
/// move, and on which workload.
pub const PER_LAYER: [PerLayer; 51] = [
    m("gen.generate_s", "s", "lower"),
    m("gen.nodes", "count", "lower"),
    m("gen.edges", "count", "lower"),
    m("graph.metis_write_s", "s", "lower"),
    m("graph.metis_read_s", "s", "lower"),
    m("graph.metis_bytes", "bytes", "lower"),
    m("mem.paged_build_s", "s", "lower"),
    m("mem.paged_file_bytes", "bytes", "lower"),
    m("matching.l0_s", "s", "lower"),
    m("matching.l0_pairs", "count", "higher"),
    m("matching.l0_ratio", "ratio", "higher"),
    m("coarsen.l0_contract_s", "s", "lower"),
    m("coarsen.l0_coarse_nodes", "count", "lower"),
    m("coarsen.l0_coarse_edges", "count", "lower"),
    m("graph.l0_project_s", "s", "lower"),
    m("graph.l0_boundary_nodes", "count", "lower"),
    m("refine.l0_s", "s", "lower"),
    m("refine.l0_cut_before", "edges", "lower"),
    m("refine.l0_cut_after", "edges", "lower"),
    m("refine.l0_gain", "edges", "higher"),
    m("refine.l0_nodes_changed", "count", "lower"),
    m("refine.l0_gain_per_s", "edges/s", "higher"),
    m("dist.graph_build_s", "s", "lower"),
    m("dist.l0_match_s", "s", "lower"),
    m("dist.l0_contract_s", "s", "lower"),
    m("dist.l0_refine_s", "s", "lower"),
    m("dist.l0_match_tax", "ratio", "lower"),
    m("dist.l0_contract_tax", "ratio", "lower"),
    m("dist.l0_refine_tax", "ratio", "lower"),
    m("dist.e2e_tax", "ratio", "lower"),
    m("comm.r2_frames_total", "count", "lower"),
    m("comm.r2_frames_coarsen", "count", "lower"),
    m("comm.r2_frames_refine", "count", "lower"),
    m("comm.r2_collectives_total", "count", "lower"),
    m("comm.r2_partition_s", "s", "lower"),
    m("mem.seq_sweep_s", "s", "lower"),
    m("mem.seq_sweep_misses", "count", "lower"),
    m("mem.l0_match_s", "s", "lower"),
    m("mem.l0_match_misses", "count", "lower"),
    m("mem.l0_contract_s", "s", "lower"),
    m("mem.l0_contract_misses", "count", "lower"),
    m("mem.l0_refine_s", "s", "lower"),
    m("mem.l0_refine_misses", "count", "lower"),
    m("mem.l0_refine_hit_ratio", "ratio", "higher"),
    m("mem.l0_refine_tax", "ratio", "lower"),
    m("mem.e2e_tax", "ratio", "lower"),
    m("env.nproc", "count", "higher"),
    m("env.loadavg_start", "ratio", "lower"),
    m("env.loadavg_end", "ratio", "lower"),
    m("env.pass_spread_max", "ratio", "lower"),
    m("trace.overhead_ratio", "ratio", "lower"),
];

/// Per-layer metrics that count work and so repeat exactly for one commit
/// and one seed.
pub fn is_exact_count(name: &str) -> bool {
    ["_pairs", "_misses", "_nodes", "_edges", "_bytes"]
        .iter()
        .any(|suffix| name.ends_with(suffix))
        || name.starts_with("comm.r2_") && !name.ends_with("_s")
        || name.starts_with("refine.l0_") && !name.ends_with("_s")
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({"name": w.name, "why": w.why}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|e| json!({"name": e.name, "unit": e.unit, "better": "lower", "bound": e.bound}))
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|p| json!({"name": p.name, "unit": p.unit, "better": p.better}))
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "crates/kappa-bench/perf/Cargo.toml",
        "--",
    ];
    Value::Object(vec![
        ("command".to_string(), json!(command.to_vec())),
        ("paths".to_string(), json!(vec!["crates/kappa-bench/perf"])),
        ("run_seconds".to_string(), json!(RUN_SECONDS)),
        ("workloads".to_string(), Value::Array(workloads)),
        ("end_to_end".to_string(), Value::Array(end_to_end)),
        ("per_layer".to_string(), Value::Array(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        names.extend(PER_LAYER.iter().map(|p| p.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
    }

    /// `BENCHMARK.json` at the repo root is `--manifest`'s output; the test
    /// only runs where the repo is around the package.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let on_disk: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, manifest());
    }

    #[test]
    fn exact_counts_are_the_work_counters() {
        assert!(is_exact_count("matching.l0_pairs"));
        assert!(is_exact_count("mem.l0_refine_misses"));
        assert!(is_exact_count("comm.r2_frames_total"));
        assert!(is_exact_count("refine.l0_gain"));
        assert!(!is_exact_count("comm.r2_partition_s"));
        assert!(!is_exact_count("refine.l0_s"));
        assert!(!is_exact_count("refine.l0_gain_per_s"));
        assert!(!is_exact_count("mem.l0_refine_hit_ratio"));
    }
}
