//! The multi-run modes: `--all` (every workload once, each run in a fresh
//! process), `--selfcheck` (two interleaved sets of the same code, the noise
//! gate) and `--compare` (two saved result files).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use serde_json::{json, Value};

use crate::metrics::{is_exact_count, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::WORKLOADS;

/// Settings every child run shares.
pub struct RunArgs<'a> {
    pub seed: u64,
    pub seconds: u64,
    pub out_dir: &'a Path,
}

/// Re-executes this program for one run of one workload and returns the
/// JSON object of its last line. The child's other lines are passed on.
fn child_run(workload: &str, trace: bool, args: &RunArgs<'_>) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(args.out_dir)
        .output()
        .map_err(|e| e.to_string())?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("the run printed nothing")?;
    for line in lines {
        println!("{line}");
    }
    let result: Value = serde_json::from_str(last).map_err(|e| format!("{e}: {last}"))?;
    if !output.status.success() || result["correct"] != true {
        return Err(format!("{workload}: run failed: {last}"));
    }
    Ok(result)
}

/// `--all`: every workload, end to end and traced. True if all runs passed.
pub fn all(args: &RunArgs<'_>) -> bool {
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            if let Err(e) = child_run(w.name, trace, args) {
                eprintln!("FAILED {e}");
                ok = false;
            }
        }
    }
    ok
}

fn first_line_after(text: &str, key: &str) -> Option<String> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn git_head() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// All metric names with the bound that gates them (`None`: not gated).
fn metric_names() -> impl Iterator<Item = (&'static str, Option<f64>)> {
    END_TO_END
        .iter()
        .map(|e| (e.name, Some(e.bound)))
        .chain(PER_LAYER.iter().map(|p| (p.name, None)))
}

fn values_of(set: &Value, workload: &str, metric: &str) -> Vec<f64> {
    match &set[workload][metric] {
        Value::Array(runs) => runs.iter().filter_map(Value::as_f64).collect(),
        _ => Vec::new(),
    }
}

/// `--selfcheck`: runs every workload in two interleaved sets (A B A B),
/// prints each metric's two set medians and their ratio, optionally saves
/// both sets, and passes only if the sets agree within the bounds: timed
/// end-to-end metrics and `peak_rss_mib` within their bound either way,
/// `edge_cut` and every count-type per-layer metric exactly.
pub fn selfcheck(args: &RunArgs<'_>, save: Option<&Path>) -> bool {
    const ROUNDS: usize = 2;
    let mut ok = true;
    // (set, workload, metric) -> one value per round
    let mut runs: BTreeMap<(usize, &str, String), Vec<f64>> = BTreeMap::new();
    for round in 0..ROUNDS {
        for set in 0..2 {
            for w in &WORKLOADS {
                eprintln!(
                    "selfcheck: round {round} set {} {}",
                    ["A", "B"][set],
                    w.name
                );
                for trace in [false, true] {
                    match child_run(w.name, trace, args) {
                        Ok(result) => {
                            let Value::Object(metrics) = &result["metrics"] else {
                                continue;
                            };
                            for (name, m) in metrics {
                                runs.entry((set, w.name, name.clone()))
                                    .or_default()
                                    .push(m["value"].as_f64().unwrap_or(f64::NAN));
                            }
                        }
                        Err(e) => {
                            eprintln!("FAILED {e}");
                            ok = false;
                        }
                    }
                }
            }
        }
    }
    let of = |set: usize, workload: &'static str, metric: &str| -> &[f64] {
        runs.get(&(set, workload, metric.to_string()))
            .map_or(&[], Vec::as_slice)
    };

    println!("workload metric median_A median_B ratio verdict");
    for w in &WORKLOADS {
        for (metric, bound) in metric_names() {
            let (va, vb) = (of(0, w.name, metric), of(1, w.name, metric));
            if va.len() < ROUNDS || vb.len() < ROUNDS {
                println!("{} {metric} missing", w.name);
                ok = false;
                continue;
            }
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let ratio = mb / ma;
            let verdict = if metric == "edge_cut" || is_exact_count(metric) {
                if va.iter().chain(vb).all(|&v| v == va[0]) {
                    "exact"
                } else {
                    "DIFFERS"
                }
            } else {
                match bound {
                    Some(bound) if (ratio - 1.0).abs() > bound => "OUT-OF-BOUND",
                    Some(_) => "within-bound",
                    None => "info",
                }
            };
            ok &= !matches!(verdict, "DIFFERS" | "OUT-OF-BOUND");
            println!("{} {metric} {ma} {mb} {ratio:.4} {verdict}", w.name);
        }
    }

    let set_json = |set: usize| -> Value {
        let workloads = WORKLOADS.iter().map(|w| {
            let metrics = metric_names()
                .map(|(metric, _)| (metric.to_string(), json!(of(set, w.name, metric).to_vec())))
                .collect();
            (w.name.to_string(), Value::Object(metrics))
        });
        Value::Object(workloads.collect())
    };
    if let Some(path) = save {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| first_line_after(&text, "model name"))
            .unwrap_or_else(|| "unknown".to_string());
        let doc = json!({
            "git_head": git_head(),
            "cpu_model": cpu,
            "seed": args.seed,
            "seconds": args.seconds,
            "selfcheck_passed": ok,
            "A": set_json(0),
            "B": set_json(1),
        });
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("{}: {e}", path.display());
            ok = false;
        }
    }
    ok
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// A file's value of a metric: the median over the runs of both its sets.
fn pooled_median(doc: &Value, workload: &str, metric: &str) -> Option<f64> {
    let mut runs = values_of(&doc["A"], workload, metric);
    runs.extend(values_of(&doc["B"], workload, metric));
    (!runs.is_empty()).then(|| stats::median(&runs))
}

/// `--compare OLD NEW`: one row per workload and metric with NEW/OLD and,
/// for the end-to-end metrics (all lower-is-better), the bound verdict.
/// False if any end-to-end metric regressed beyond its bound.
pub fn compare(old: &Path, new: &Path) -> Result<bool, String> {
    let (old, new) = (load(old)?, load(new)?);
    let mut ok = true;
    println!("workload metric old new ratio verdict");
    for w in &WORKLOADS {
        for (metric, bound) in metric_names() {
            let (Some(o), Some(n)) = (
                pooled_median(&old, w.name, metric),
                pooled_median(&new, w.name, metric),
            ) else {
                println!("{} {metric} missing", w.name);
                continue;
            };
            let ratio = n / o;
            let verdict = match bound {
                Some(bound) if ratio > 1.0 + bound => {
                    ok = false;
                    "REGRESSED"
                }
                Some(bound) if ratio < 1.0 - bound => "improved",
                Some(_) => "within-bound",
                None if is_exact_count(metric) && n == o => "same",
                None if is_exact_count(metric) => "changed",
                None => "info",
            };
            println!("{} {metric} {o} {n} {ratio:.4} {verdict}", w.name);
        }
    }
    Ok(ok)
}
