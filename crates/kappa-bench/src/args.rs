//! Command-line parsing for the `exp` binary: `exp <experiment> [flags]` or
//! `exp --list`.
//!
//! Every experiment accepts
//!
//! * `--scale <f64>`   — instance size multiplier (> 0; the paper's instances
//!   scaled down so a whole sweep runs in seconds);
//! * `--reps <usize>`  — repetitions per configuration (paper: 10);
//! * `--seed <u64>`    — master seed (default 42);
//! * `--k <list>`      — comma-separated list of block counts;
//! * `--threads <n>`   — worker threads (0 = all cores);
//! * `--json`          — additionally emit one JSON line per aggregated row;
//!
//! and two take a selector of their own (`--config`, `--tool`). Anything else
//! — an unknown flag, a missing, unparsable or empty value, a second
//! positional word — is an error, which `exp` reports with its usage and exit
//! status 2.

use std::str::FromStr;

/// Usage text printed with every command-line error.
pub const USAGE: &str = "\
usage: exp <experiment> [--scale <f64>] [--reps <n>] [--seed <u64>] [--k <list>]
           [--threads <n>] [--json] [--config <preset> | --tool <baseline>]
       exp --list        names, default parameters and own flag of all experiments";

/// Parsed command-line arguments.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// The experiment name (the one positional word), if given.
    pub experiment: Option<String>,
    /// `--list` was given.
    pub list: bool,
    /// Whether to emit JSON record lines.
    pub json: bool,
    /// Master seed (default 42).
    pub seed: u64,
    /// Worker threads (default 0 = all cores).
    pub threads: usize,
    /// `--scale`, if given; the default is per experiment.
    pub scale: Option<f64>,
    /// `--reps`, if given (at least 1); the default is per experiment.
    pub reps: Option<usize>,
    /// `--k`, if given; the default is per experiment.
    pub ks: Option<Vec<u32>>,
    /// `--config <value>` or `--tool <value>` as (flag name, value), if given.
    pub selector: Option<(String, String)>,
}

fn parsed<T: FromStr>(flag: &str, value: String) -> Result<T, String> {
    let invalid = format!("`{flag} {value}` is not valid");
    value.trim().parse().map_err(|_| invalid)
}

impl Args {
    /// Parses the arguments after the program name.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut args = args.into_iter();
        let mut out = Args {
            seed: 42,
            ..Args::default()
        };
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or(format!("`{arg}` needs a value"));
            match arg.as_str() {
                "--list" => out.list = true,
                "--json" => out.json = true,
                "--seed" => out.seed = parsed(&arg, value()?)?,
                "--threads" => out.threads = parsed(&arg, value()?)?,
                "--reps" => out.reps = Some(parsed::<usize>(&arg, value()?)?.max(1)),
                "--scale" => {
                    let scale: f64 = parsed(&arg, value()?)?;
                    if !(scale.is_finite() && scale > 0.0) {
                        return Err(format!("`--scale {scale}` is not a positive number"));
                    }
                    out.scale = Some(scale);
                }
                "--k" => {
                    let list = value()?;
                    let ks = list.split(',').map(|k| parsed(&arg, k.to_string()));
                    out.ks = Some(ks.collect::<Result<_, _>>()?);
                }
                "--config" | "--tool" if out.selector.is_none() => {
                    out.selector = Some((arg[2..].to_string(), value()?));
                }
                "--config" | "--tool" => return Err("more than one --config / --tool".into()),
                flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
                _ if out.experiment.is_none() => out.experiment = Some(arg),
                _ => return Err(format!("unexpected argument `{arg}`")),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Result<Args, String> {
        Args::parse(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_experiment_flags_and_switches() {
        let a = args(&[
            "tables6-14-kappa",
            "--scale",
            "0.5",
            "--json",
            "--k",
            "2, 4,8",
            "--config",
            "strong",
        ])
        .unwrap();
        assert_eq!(a.experiment.as_deref(), Some("tables6-14-kappa"));
        assert_eq!(a.scale, Some(0.5));
        assert!(a.json && !a.list);
        assert_eq!(a.ks, Some(vec![2, 4, 8]));
        assert_eq!(a.selector, Some(("config".into(), "strong".into())));
        assert_eq!((a.reps, a.seed, a.threads), (None, 42, 0));
    }

    #[test]
    fn defaults_apply_when_missing() {
        let a = args(&["--list"]).unwrap();
        assert!(a.list && !a.json && a.experiment.is_none() && a.selector.is_none());
        assert_eq!((a.scale, a.reps, a.ks.clone()), (None, None, None));
        assert_eq!(args(&["x", "--reps", "0"]).unwrap().reps, Some(1));
    }

    #[test]
    fn unknown_flags_and_stray_words_are_rejected() {
        let unknown = args(&["x", "--sclae", "0.01"]).unwrap_err();
        assert!(unknown.contains("--sclae"), "{unknown}");
        assert!(args(&["x", "--jsno"]).is_err());
        assert!(args(&["x", "--tries", "3"]).is_err(), "retired flag");
        assert!(args(&["x", "y"]).unwrap_err().contains("`y`"));
        assert!(args(&["x", "--scale"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(args(&["x", "--config", "fast", "--tool", "kmetis-like"]).is_err());
    }

    #[test]
    fn unparsable_values_are_rejected() {
        for bad in [
            ["--scale", "abc"],
            ["--scale", "0"],
            ["--scale", "nan"],
            ["--reps", "-1"],
            ["--seed", "1.5"],
            ["--threads", "two"],
        ] {
            assert!(args(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn k_lists_must_be_non_empty_and_fully_numeric() {
        for bad in ["x", "", ",", "2,x", "2,,4", "-2"] {
            assert!(args(&["t", "--k", bad]).is_err(), "--k {bad:?}");
        }
        assert_eq!(args(&["t", "--k", "16"]).unwrap().ks, Some(vec![16]));
    }
}
