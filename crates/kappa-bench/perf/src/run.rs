//! One run of one workload in this process: the end-to-end measurement
//! (`--trace 0`) or the traced finest-level step (`--trace 1`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use serde_json::{json, Value};

use crate::check::{self, RawGraph};
use crate::layers::{self, Assignment, Input};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Path as InputPath, Workload};

/// Untraced calls of the own path in the traced run.
const UNTRACED_CALLS: usize = 3;

/// What a run reports: the driver's JSON object plus the failure texts.
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn to_json(&self) -> Value {
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| (name.to_string(), json!({"value": value, "unit": unit})))
            .collect();
        json!({
            "correct": self.failures.is_empty(),
            "attempted": self.attempted,
            "failed": self.failures.len(),
            "metrics": Value::Object(metrics),
        })
    }
}

/// Runs the call, turning a panic into a failed operation.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let text = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("non-text panic");
        Err(format!("panicked: {text}"))
    })
}

struct Rep {
    setup_s: f64,
    partition_s: f64,
    /// The recounted cut, or why the rep failed.
    cut: Result<u64, String>,
}

/// Set-up (timed), one top-level call (timed), check (untimed).
fn rep(w: &Workload, graph_seed: u64, partition_seed: u64, scratch: &Path) -> Rep {
    let start = Instant::now();
    let input = guarded(|| layers::set_up(w, graph_seed, scratch));
    let setup_s = start.elapsed().as_secs_f64();
    let mut input = match input {
        Ok(input) => input,
        Err(e) => {
            return Rep {
                setup_s,
                partition_s: f64::NAN,
                cut: Err(format!("set-up: {e}")),
            }
        }
    };
    let start = Instant::now();
    let result = guarded(|| layers::partition(w, &mut input, partition_seed, scratch));
    let partition_s = start.elapsed().as_secs_f64();
    let cut = result.and_then(|a| check::check_partition(input.raw(), w.k, a.blocks()));
    Rep {
        setup_s,
        partition_s,
        cut,
    }
}

/// The end-to-end run: one untimed warm-up rep, then `w.reps(seconds)` timed
/// reps, each with its own partition seed (`S+1`, `S+2`, ...). The first
/// timed rep repeats the warm-up's seed, so their cuts must agree.
pub fn end_to_end(w: &Workload, seed: u64, seconds: u64, scratch: &Path) -> Outcome {
    let mut failures = Vec::new();
    let warm_up = rep(w, seed, seed + 1, scratch);
    // One set-up and one call in a fresh process: what a user of the CLI
    // sees. Later reps only add allocator history to the high-water mark.
    let peak_rss_mib = stats::peak_rss_mib().unwrap_or(f64::NAN);

    let reps = w.reps(seconds);
    let mut setup = Vec::new();
    let mut times = Vec::new();
    let mut cuts = Vec::new();
    for i in 0..reps {
        let r = rep(w, seed, seed + 1 + i, scratch);
        setup.push(r.setup_s);
        times.push(r.partition_s);
        match r.cut {
            Ok(cut) => cuts.push(cut),
            Err(e) => failures.push(format!("rep {i}: {e}")),
        }
    }
    match (warm_up.cut, cuts.first()) {
        (Ok(a), Some(&b)) => {
            if let Err(e) = check::check_pass_cuts(&[a, b]) {
                failures.push(e);
            }
        }
        (Err(e), _) => failures.push(format!("warm-up: {e}")),
        (Ok(_), None) => {}
    }

    let (q1, q3) = stats::quartiles(&times);
    let (fastest, slowest) = stats::min_max(&times);
    println!(
        "{} partition_s over {reps} seeds: min {fastest:.4} q1 {q1:.4} median {:.4} q3 {q3:.4} max {slowest:.4}",
        w.name,
        stats::median(&times),
    );
    let cuts: Vec<f64> = cuts.iter().map(|&c| c as f64).collect();
    let values = [
        stats::median(&setup),
        stats::midmean(&times),
        if cuts.is_empty() {
            f64::NAN
        } else {
            stats::mean(&cuts)
        },
        peak_rss_mib,
    ];
    Outcome {
        attempted: reps + 1,
        failures,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(e, v)| (e.name, v, e.unit))
            .collect(),
    }
}

/// Checks one traced partition and its bit-identity with the reference.
fn check_traced(
    failures: &mut Vec<String>,
    what: &str,
    raw: RawGraph<'_>,
    k: u32,
    blocks: &[u32],
    reference: Option<&[u32]>,
) {
    if let Err(e) = check::check_partition(raw, k, blocks) {
        failures.push(format!("{what}: {e}"));
    }
    if reference.is_some_and(|r| r != blocks) {
        failures.push(format!(
            "{what}: not bit-identical to KappaPartitioner at one thread"
        ));
    }
}

/// One top-level call per path inside spans, checked and compared: the
/// same-process end-to-end taxes and the bit-identity contract
/// (R = 1 == threads 1 == paged).
fn traced_end_to_end(
    t: &mut Tracer,
    w: &Workload,
    input: &mut Input,
    seed: u64,
    scratch: &Path,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let cfg = layers::config(w, seed);
    let ram = t.span("e2e.ram", |_| {
        guarded(|| Ok(layers::partition_ram(input, &cfg)))
    })?;
    check_traced(failures, "e2e.ram", input.raw(), w.k, ram.blocks(), None);
    let (dist, _) = t.span("e2e.dist_r1", |_| {
        guarded(|| layers::partition_dist(input, &cfg, 1))
    })?;
    check_traced(
        failures,
        "e2e.dist_r1",
        input.raw(),
        w.k,
        dist.blocks(),
        Some(ram.blocks()),
    );
    layers::spill_input(input, scratch)?;
    let paged = t.span("e2e.paged", |_| {
        guarded(|| layers::partition_paged(input, &cfg, scratch))
    })?;
    check_traced(
        failures,
        "e2e.paged",
        input.raw(),
        w.k,
        paged.blocks(),
        Some(ram.blocks()),
    );
    // R = 2 is a different (valid) partition; only its counts are metrics.
    let (r2, counts) = t.span("comm.r2_partition", |_| {
        guarded(|| layers::partition_dist(input, &cfg, 2))
    })?;
    check_traced(failures, "comm.r2", input.raw(), w.k, r2.blocks(), None);
    t.count("comm.r2_frames_total", counts.frames_total as f64);
    t.count("comm.r2_frames_coarsen", counts.frames_coarsen as f64);
    t.count("comm.r2_frames_refine", counts.frames_refine as f64);
    t.count("comm.r2_collectives_total", counts.collectives_total as f64);
    Ok(())
}

/// The workload's own top-level call, untraced, a few times: the base of
/// `trace.overhead_ratio` and the drift gauge of the traced run.
fn untraced_own_path(
    w: &Workload,
    input: &mut Input,
    seed: u64,
    scratch: &Path,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    let mut reference: Option<Assignment> = None;
    for _ in 0..UNTRACED_CALLS {
        if w.path == InputPath::Paged {
            layers::spill_input(input, scratch)?;
        }
        let start = Instant::now();
        let a = guarded(|| layers::partition(w, input, seed, scratch))?;
        times.push(start.elapsed().as_secs_f64());
        if reference.as_ref().is_some_and(|r| r.blocks() != a.blocks()) {
            return Err("the own path is not deterministic".to_string());
        }
        reference = Some(a);
    }
    Ok(times)
}

fn traced_inner(
    t: &mut Tracer,
    w: &Workload,
    seed: u64,
    scratch: &Path,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let partition_seed = seed + 1;
    let mut input = guarded(|| layers::traced_set_up(t, w, seed, scratch))?;

    let untraced = untraced_own_path(w, &mut input, partition_seed, scratch)?;
    let (fastest, slowest) = stats::min_max(&untraced);
    t.count("env.pass_spread_max", slowest / fastest);
    traced_end_to_end(t, w, &mut input, partition_seed, scratch, failures)?;
    let own_span = match w.path {
        InputPath::Ram | InputPath::MetisFile => "e2e.ram",
        InputPath::Dist => "e2e.dist_r1",
        InputPath::Paged => "e2e.paged",
    };
    t.count(
        "trace.overhead_ratio",
        t.seconds(own_span) / stats::median(&untraced),
    );
    t.count(
        "dist.e2e_tax",
        t.seconds("e2e.dist_r1") / t.seconds("e2e.ram"),
    );
    t.count("mem.e2e_tax", t.seconds("e2e.paged") / t.seconds("e2e.ram"));

    // The finest-level step through each variant's kernels.
    let cfg = layers::config(w, partition_seed);
    let raw = input.raw();
    let ram = guarded(|| Ok(layers::ram_step(t, &input, &cfg)))?;
    check_traced(failures, "refine.l0", raw, w.k, &ram.refined, None);
    let cut_before = check::edge_cut(raw, &ram.projected);
    let cut_after = check::edge_cut(raw, &ram.refined);
    if (cut_before, cut_after) != (ram.claimed_cut_before, ram.claimed_cut_after) {
        failures.push(format!(
            "PartitionState carried cuts {} -> {}, recounted {cut_before} -> {cut_after}",
            ram.claimed_cut_before, ram.claimed_cut_after
        ));
    }
    let changed = ram
        .projected
        .iter()
        .zip(&ram.refined)
        .filter(|(a, b)| a != b)
        .count();
    let gain = cut_before as f64 - cut_after as f64;
    t.count(
        "graph.l0_boundary_nodes",
        check::boundary_nodes(raw, &ram.projected) as f64,
    );
    t.count("refine.l0_cut_before", cut_before as f64);
    t.count("refine.l0_cut_after", cut_after as f64);
    t.count("refine.l0_gain", gain);
    t.count("refine.l0_nodes_changed", changed as f64);
    t.count("refine.l0_gain_per_s", gain / t.seconds("refine.l0"));

    let l_max = check::l_max(raw.vwgt, w.k);
    let dist = guarded(|| layers::dist_step(t, &input, &cfg, &ram, l_max))?;
    check_traced(
        failures,
        "dist.l0_refine",
        raw,
        w.k,
        &dist,
        Some(ram.refined.as_slice()),
    );
    let paged = guarded(|| layers::paged_step(t, &input, &cfg, &ram, scratch))?;
    check_traced(
        failures,
        "mem.l0_refine",
        raw,
        w.k,
        &paged,
        Some(ram.refined.as_slice()),
    );

    for (tax, variant, base) in [
        ("dist.l0_match_tax", "dist.l0_match", "matching.l0"),
        (
            "dist.l0_contract_tax",
            "dist.l0_contract",
            "coarsen.l0_contract",
        ),
        ("dist.l0_refine_tax", "dist.l0_refine", "refine.l0"),
        ("mem.l0_refine_tax", "mem.l0_refine", "refine.l0"),
    ] {
        t.count(tax, t.seconds(variant) / t.seconds(base));
    }
    Ok(())
}

/// Operations the traced run checks: three untraced own-path calls, four
/// top-level calls in spans, three finest-level steps.
const TRACED_OPS: u64 = 10;

/// The traced run: one extra rep at partition seed `S+1`, never mixed into
/// the end-to-end numbers. Writes `trace_<workload>.json` into `out_dir`.
pub fn traced(w: &Workload, seed: u64, scratch: &Path, out_dir: &Path) -> Outcome {
    let mut t = Tracer::new(w.name);
    let mut failures = Vec::new();
    t.count(
        "env.nproc",
        std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
    );
    t.count("env.loadavg_start", stats::loadavg());
    if let Err(e) = traced_inner(&mut t, w, seed, scratch, &mut failures) {
        failures.push(e);
    }
    t.count("env.loadavg_end", stats::loadavg());

    let metrics = PER_LAYER
        .iter()
        .map(|p| {
            // `x_s` is the duration of span `x`; the rest are counts.
            let value = p
                .name
                .strip_suffix("_s")
                .and_then(|span| t.try_seconds(span))
                .or_else(|| t.get_count(p.name))
                .unwrap_or(f64::NAN);
            (p.name, value, p.unit)
        })
        .collect();
    let file = out_dir.join(format!("trace_{}.json", w.name));
    if let Err(e) = std::fs::write(&file, t.to_json().to_string()) {
        failures.push(format!("{}: {e}", file.display()));
    }
    Outcome {
        attempted: TRACED_OPS,
        failures,
        metrics,
    }
}
