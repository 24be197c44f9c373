//! `perf_profile` — the repo's benchmark. Five long single-core workloads,
//! drift-robust timing, a finest-level kernel trace. See `README.md` beside
//! `Cargo.toml` for the metric and workload definitions.

#![forbid(unsafe_code)]

mod check;
mod layers;
mod metrics;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: perf_profile --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--out DIR]
       perf_profile --all [--seed S] [--seconds N] [--out DIR]
       perf_profile --selfcheck [--save FILE] [--seed S] [--seconds N] [--out DIR]
       perf_profile --compare OLD NEW
       perf_profile --manifest

--workload   one run of one workload in this process; the last line of
             standard output is the result as one JSON object
--all        every workload, end to end and traced, one fresh process each
--selfcheck  every workload in two interleaved sets of the same code; fails
             if the sets disagree beyond the bounds; --save writes both sets
--compare    one row per workload and metric of two saved result files
--manifest   prints BENCHMARK.json from the metric tables
--seed       graph seed S (default 1); partition seeds are S+1, S+2, ...
--seconds    measuring budget of an end-to-end run (default run_seconds)
--out        directory for traces and scratch files, made if missing
             (default crates/kappa-bench/perf/out, relative to the current
             directory)";

enum Mode {
    Workload(String),
    All,
    Selfcheck,
    Compare(PathBuf, PathBuf),
    Manifest,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
    save: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut mode = None;
    let mut seed = 1;
    let mut seconds = metrics::RUN_SECONDS;
    let mut trace = false;
    let mut out_dir = PathBuf::from("crates/kappa-bench/perf/out");
    let mut save = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|e| format!("{flag} {text}: {e}"))
        };
        match flag.as_str() {
            "--workload" => mode = Some(Mode::Workload(value()?)),
            "--all" => mode = Some(Mode::All),
            "--selfcheck" => mode = Some(Mode::Selfcheck),
            "--compare" => mode = Some(Mode::Compare(value()?.into(), value()?.into())),
            "--manifest" => mode = Some(Mode::Manifest),
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?,
            "--trace" => trace = number(value()?)? != 0,
            "--out" => out_dir = value()?.into(),
            "--save" => save = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        mode: mode
            .ok_or("one of --workload, --all, --selfcheck, --compare, --manifest is needed")?,
        seed,
        seconds,
        trace,
        out_dir,
        save,
    })
}

/// One run in this process. Prints `workload metric value unit` per metric,
/// then the JSON object the driver reads.
fn run_workload(name: &str, args: &Args) -> Result<bool, String> {
    let w = workloads::find(name).ok_or(format!("unknown workload {name}"))?;
    let scratch = args.out_dir.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let outcome = layers::single_threaded(|| {
        if args.trace {
            run::traced(w, args.seed, &scratch, &args.out_dir)
        } else {
            run::end_to_end(w, args.seed, args.seconds, &scratch)
        }
    });
    // Best effort: a left-over scratch directory is untracked and harmless.
    let _ = std::fs::remove_dir_all(&scratch);
    for (metric, value, unit) in &outcome.metrics {
        println!("{} {metric} {value} {unit}", w.name);
    }
    for failure in &outcome.failures {
        eprintln!("FAILED {} {failure}", w.name);
    }
    println!(
        "{} ops_attempted {} ops_failed {}",
        w.name,
        outcome.attempted,
        outcome.failures.len()
    );
    println!("{}", outcome.to_json());
    Ok(outcome.failures.is_empty())
}

fn dispatch(args: &Args) -> Result<bool, String> {
    let children = report::RunArgs {
        seed: args.seed,
        seconds: args.seconds,
        out_dir: &args.out_dir,
    };
    match &args.mode {
        Mode::Workload(name) => run_workload(name, args),
        Mode::All => Ok(report::all(&children)),
        Mode::Selfcheck => Ok(report::selfcheck(&children, args.save.as_deref())),
        Mode::Compare(old, new) => report::compare(old, new),
        Mode::Manifest => {
            println!("{}", metrics::manifest());
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
