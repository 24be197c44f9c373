//! End-to-end smoke test of the `kappa-serve` binary: spawns the real
//! executable, drives a scripted stdin session, and checks the replies,
//! the clean shutdown, and the CLI error paths.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

fn serve_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kappa-serve"))
}

/// Runs a scripted session against `--generate grid --nodes 144 --k 4` and
/// returns the reply lines.
fn scripted(lines: &[&str]) -> (Vec<String>, std::process::ExitStatus) {
    let mut child = serve_cmd()
        .args([
            "--generate",
            "grid",
            "--nodes",
            "144",
            "--k",
            "4",
            "--seed",
            "7",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn kappa-serve");
    {
        let mut stdin = child.stdin.take().expect("stdin");
        for line in lines {
            writeln!(stdin, "{line}").expect("write command");
        }
        // Dropping stdin closes it: EOF must also shut the service down.
    }
    let stdout = child.stdout.take().expect("stdout");
    let replies: Vec<String> = BufReader::new(stdout)
        .lines()
        .map(|l| l.expect("read reply"))
        .collect();
    let status = child.wait().expect("wait");
    (replies, status)
}

#[test]
fn scripted_session_round_trips() {
    let (replies, status) = scripted(&[
        "# warm-up comment",
        "query 0",
        "insert-edge 0 143 3",
        "update-edge 0 143 5",
        "delete-edge 0 143",
        "insert-node 2",
        "query 144",
        "delete-node 144",
        "query 144",
        "cut",
        "stats",
        "verify",
        "quit",
    ]);
    assert!(status.success(), "exit status: {status:?}");
    assert_eq!(replies[0], "ready");
    assert!(replies[1].starts_with("block "), "{:?}", replies[1]);
    assert_eq!(replies[2], "ok");
    assert_eq!(replies[3], "ok 3");
    assert_eq!(replies[4], "ok 5");
    assert_eq!(replies[5], "ok 144");
    assert!(replies[6].starts_with("block "), "{:?}", replies[6]);
    assert_eq!(replies[7], "ok 2");
    assert_eq!(replies[8], "none");
    assert!(replies[9].starts_with("cut "), "{:?}", replies[9]);
    assert!(replies[10].starts_with("stats "), "{:?}", replies[10]);
    assert_eq!(replies[11], "ok exact");
    assert_eq!(replies.last().map(String::as_str), Some("bye"));
}

#[test]
fn bad_commands_get_err_replies_and_eof_shuts_down() {
    let (replies, status) = scripted(&[
        "frobnicate 1",
        "query",
        "insert-edge 0 0 1",
        "verify",
        // no quit: EOF ends the session
    ]);
    assert!(status.success(), "EOF must still exit 0: {status:?}");
    assert_eq!(replies[0], "ready");
    assert!(
        replies[1].starts_with("err unknown command"),
        "{:?}",
        replies[1]
    );
    assert!(replies[2].starts_with("err usage:"), "{:?}", replies[2]);
    assert!(replies[3].starts_with("err "), "{:?}", replies[3]);
    assert_eq!(replies[4], "ok exact");
    assert_eq!(replies.len(), 5, "no reply after EOF: {replies:?}");
}

#[test]
fn cli_parse_errors_exit_2_with_usage() {
    for args in [
        &["--k", "4"][..],                                // no graph source
        &["--generate", "grid"][..],                      // no --k
        &["--generate", "grid", "--k", "zebra"][..],      // bad value
        &["--generate", "grid", "--k", "4", "--wat"][..], // unknown flag
        &["--generate", "grid", "--k"][..],               // missing value
    ] {
        let out = serve_cmd().args(args).output().expect("run kappa-serve");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?}: {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "args {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "args {args:?}: {stderr}");
    }
}

#[test]
fn generate_with_too_few_nodes_is_an_error_not_a_panic() {
    let out = serve_cmd()
        .args(["--generate", "road", "--nodes", "4", "--k", "2"])
        .output()
        .expect("run kappa-serve");
    assert_eq!(out.status.code(), Some(2), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: --generate road needs --nodes >= 8"),
        "{stderr}"
    );
}

#[test]
fn help_prints_the_flag_reference_and_exits_0() {
    let out = serve_cmd().arg("--help").output().expect("run kappa-serve");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--cut-drift"), "{stdout}");
    assert!(stdout.contains("--no-auto-refine"), "{stdout}");
}
