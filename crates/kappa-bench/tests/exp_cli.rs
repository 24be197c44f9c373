//! The `exp` binary's command-line contract, driven through the real
//! executable: a bad command line prints the error and the usage to stderr
//! and exits with status 2 (as `kappa-partition` and `kappa-serve` do), and
//! never prints a result table.

use std::process::Command;

fn exp(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .expect("exp runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn bad_command_lines_exit_2_with_usage_and_print_no_table() {
    for bad in [
        &["table2-configs", "--sclae", "0.01"][..],
        &["table2-configs", "--scale", "abc"],
        &["table2-configs", "--k", "x"],
        &["table2-configs", "stray"],
        &["table2-configs", "--tool", "kmetis-like"],
        &["exp_table2_configs"],
        &[],
    ] {
        let (code, stdout, stderr) = exp(bad);
        assert_eq!(code, Some(2), "{bad:?}");
        assert!(stdout.is_empty(), "{bad:?} printed {stdout}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains("usage: exp"),
            "{bad:?}: {stderr}"
        );
    }
}

#[test]
fn list_names_all_thirteen_experiments() {
    let (code, stdout, _) = exp(&["--list"]);
    assert_eq!(code, Some(0));
    for e in kappa_bench::EXPERIMENTS {
        assert!(stdout.contains(e.name), "{} missing from --list", e.name);
    }
    assert_eq!(kappa_bench::EXPERIMENTS.len(), 13);
    let (code, stdout, _) = exp(&["table1-instances", "--scale", "0.01"]);
    assert_eq!(code, Some(0));
    assert!(stdout.starts_with("Table 1 — benchmark instances (scale = 0.01, seed = 42)"));
}
