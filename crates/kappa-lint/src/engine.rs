//! The workspace walker and the lint driver: load every source file and
//! manifest, run every rule, filter findings through `allow` annotations,
//! and report what is left — plus the meta-findings (`unused-allow`,
//! `malformed-allow`) that keep the annotation layer itself honest.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::manifest::Manifest;
use crate::rules::{self, Finding};
use crate::source::SourceFile;

/// Directories the walker never descends into.
const SKIP_DIRS: &[&str] = &[".git", "target", "lint_fixtures", "node_modules"];

/// Everything the rules run on.
pub struct Workspace {
    /// Workspace root.
    pub root: PathBuf,
    /// Every `.rs` file, in sorted path order.
    pub files: Vec<SourceFile>,
    /// Every `Cargo.toml`, in sorted path order.
    pub manifests: Vec<Manifest>,
}

impl Workspace {
    /// Recursively loads every `.rs` and `Cargo.toml` under `root`
    /// (deterministic order; `target/`, `.git/` and fixture trees skipped).
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        let mut manifests = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .collect();
            entries.sort();
            for path in entries {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if path.is_dir() {
                    if !SKIP_DIRS.contains(&name) {
                        stack.push(path);
                    }
                    continue;
                }
                let rel = rel_path(root, &path);
                if name == "Cargo.toml" {
                    manifests.push(Manifest::load(&path, &rel)?);
                } else if name.ends_with(".rs") {
                    files.push(SourceFile::load(&path, &rel)?);
                }
            }
        }
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        manifests.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
            manifests,
        })
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The outcome of a lint run.
pub struct LintReport {
    /// Surviving findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of manifests scanned.
    pub manifests_scanned: usize,
    /// Number of findings suppressed by allow annotations.
    pub suppressed: usize,
}

/// Runs `rule_filter`-selected rules over the workspace. `None` runs all.
pub fn run_lint(ws: &Workspace, rule_filter: Option<&BTreeSet<String>>) -> LintReport {
    let enabled = |id: &str| rule_filter.is_none_or(|f| f.contains(id));
    let mut raw: Vec<Finding> = Vec::new();
    for file in &ws.files {
        if enabled("hash-iter") {
            rules::determinism::hash_iter(file, &mut raw);
        }
        if enabled("wall-clock") {
            rules::determinism::wall_clock(file, &mut raw);
        }
        if enabled("dist-no-panic") {
            rules::panic_free::dist_no_panic(file, &mut raw);
        }
        if enabled("tag-pairing") {
            rules::comm_protocol::tag_pairing(file, &mut raw);
        }
        if enabled("tag-reserved") {
            rules::comm_protocol::tag_reserved(file, &mut raw);
        }
        if enabled("rank-branch-collective") {
            rules::comm_protocol::rank_branch_collective(file, &mut raw);
        }
        if enabled("full-materialize") {
            rules::memory::full_materialize(file, &mut raw);
        }
        if enabled("unsafe-forbid") {
            rules::workspace_rules::unsafe_forbid(file, &mut raw);
        }
        if enabled("oracle-in-production") {
            rules::workspace_rules::oracle_in_production(file, &mut raw);
        }
    }
    if enabled("shim-drift") {
        for m in &ws.manifests {
            rules::workspace_rules::shim_drift(m, &mut raw);
        }
    }

    // Allow filtering: a finding is suppressed by a directive in the same
    // file, naming its rule, sitting on the finding's line or the line
    // directly above it.
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    // (file, allow index) pairs that fired at least once.
    let mut used: BTreeSet<(String, usize)> = BTreeSet::new();
    for f in raw {
        let file = ws.files.iter().find(|s| s.rel_path == f.rel_path);
        let mut hit = None;
        if let Some(file) = file {
            for (ai, a) in file.allows.iter().enumerate() {
                let placed = a.line == f.line || a.line + 1 == f.line;
                if placed && a.rules.iter().any(|r| r == f.rule) {
                    hit = Some(ai);
                    break;
                }
            }
        }
        match hit {
            Some(ai) => {
                suppressed += 1;
                used.insert((f.rel_path.clone(), ai));
            }
            None => findings.push(f),
        }
    }

    // Meta rules: every directive must parse and must suppress something.
    let meta = rule_filter.is_none();
    if meta {
        for file in &ws.files {
            for m in &file.malformed {
                findings.push(Finding {
                    rule: "malformed-allow",
                    rel_path: file.rel_path.clone(),
                    line: m.line,
                    message: format!("unparseable kappa-lint directive: {}", m.detail),
                });
            }
            for (ai, a) in file.allows.iter().enumerate() {
                if !used.contains(&(file.rel_path.clone(), ai)) {
                    for r in &a.rules {
                        if !rules::is_known_rule(r) {
                            findings.push(Finding {
                                rule: "malformed-allow",
                                rel_path: file.rel_path.clone(),
                                line: a.line,
                                message: format!("allow names unknown rule `{r}`"),
                            });
                        }
                    }
                    findings.push(Finding {
                        rule: "unused-allow",
                        rel_path: file.rel_path.clone(),
                        line: a.line,
                        message: format!(
                            "allow({}) suppressed nothing — stale annotation, remove it",
                            a.rules.join(", ")
                        ),
                    });
                }
            }
        }
    }

    findings.sort_by(|a, b| {
        (a.rel_path.as_str(), a.line, a.rule).cmp(&(b.rel_path.as_str(), b.line, b.rule))
    });
    LintReport {
        findings,
        files_scanned: ws.files.len(),
        manifests_scanned: ws.manifests.len(),
        suppressed,
    }
}
