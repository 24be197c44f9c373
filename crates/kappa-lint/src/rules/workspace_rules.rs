//! Workspace-shape rules: `unsafe-forbid`, `shim-drift` and
//! `oracle-in-production`.

use crate::lexer::TokenKind;
use crate::manifest::Manifest;
use crate::rules::Finding;
use crate::source::{FileKind, SourceFile};

/// `unsafe-forbid`: every crate root and binary root — shims included —
/// must carry `#![forbid(unsafe_code)]`. The whole workspace is pure safe
/// Rust; making the compiler enforce that at every root keeps it so.
pub fn unsafe_forbid(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.is_crate_root {
        return;
    }
    let toks = &file.tokens;
    let has_attr = toks.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    });
    if !has_attr {
        out.push(Finding {
            rule: "unsafe-forbid",
            rel_path: file.rel_path.clone(),
            line: 1,
            message: "crate/binary root lacks `#![forbid(unsafe_code)]`".to_string(),
        });
    }
}

/// `oracle-in-production`: non-test code of a workspace crate may neither
/// define nor name a `*_reference` item, `FullScanSeeder`, or a module
/// called `oracle`. Every kernel ships one implementation; the slow twin it
/// is checked against is a `cfg(test)` item beside it, so nothing a user
/// links can call it — or pay for compiling it.
///
/// Lexical approximation: any identifier token of those shapes outside a
/// test region (`oracle` only as `mod oracle` or as a path segment
/// `oracle::`). Comments and strings are not tokens, so prose may mention
/// the twins.
pub fn oracle_in_production(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.kind != FileKind::Production {
        return;
    }
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || file.in_test_region(t.line) {
            continue;
        }
        let oracle_module = t.text == "oracle"
            && (i > 0 && toks[i - 1].is_ident("mod")
                || matches!(toks.get(i + 1..i + 3), Some([a, b]) if a.is_punct(':') && b.is_punct(':')));
        if oracle_module || t.text == "FullScanSeeder" || t.text.ends_with("_reference") {
            out.push(Finding {
                rule: "oracle-in-production",
                rel_path: file.rel_path.clone(),
                line: t.line,
                message: format!(
                    "`{}` in non-test code: a reference twin is a `cfg(test)` item beside \
                     the kernel it checks, never defined, exported or called in the shipped \
                     build",
                    t.text
                ),
            });
        }
    }
}

/// The vendored offline stand-ins under `shims/` (see `shims/README.md`).
const SHIMMED: &[&str] = &[
    "rayon",
    "rand",
    "serde",
    "serde_derive",
    "serde_json",
    "proptest",
];

/// `shim-drift`: every dependency in every manifest must be a workspace
/// crate (`kappa*`) or one of the vendored shims, referenced by
/// `path`/`workspace = true`. The build environment has no registry access —
/// a version dependency would only fail later and harder.
pub fn shim_drift(manifest: &Manifest, out: &mut Vec<Finding>) {
    for dep in &manifest.dependencies {
        let name_ok = dep.name.starts_with("kappa") || SHIMMED.contains(&dep.name.as_str());
        if !name_ok {
            out.push(Finding {
                rule: "shim-drift",
                rel_path: manifest.rel_path.clone(),
                line: dep.line,
                message: format!(
                    "dependency `{}` is outside the shimmed set ({}) and the workspace \
                     crates; the build environment is offline — vendor a shim or drop it",
                    dep.name,
                    SHIMMED.join(", ")
                ),
            });
        } else if !dep.is_path_or_workspace {
            out.push(Finding {
                rule: "shim-drift",
                rel_path: manifest.rel_path.clone(),
                line: dep.line,
                message: format!(
                    "dependency `{}` references a registry version ({}); use \
                     `workspace = true` or an explicit `path`",
                    dep.name, dep.spec
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn unsafe_forbid_checks_roots_only() {
        let run = |rel: &str, src: &str| {
            let f = SourceFile::from_source(&PathBuf::from("/x").join(rel), rel, src);
            let mut out = Vec::new();
            unsafe_forbid(&f, &mut out);
            out
        };
        assert_eq!(
            run("crates/kappa-graph/src/lib.rs", "pub fn f() {}").len(),
            1
        );
        assert!(run(
            "crates/kappa-graph/src/lib.rs",
            "//! docs\n#![forbid(unsafe_code)]\npub fn f() {}"
        )
        .is_empty());
        assert!(
            run("crates/kappa-graph/src/csr.rs", "pub fn f() {}").is_empty(),
            "non-root files are not checked"
        );
        assert_eq!(
            run("shims/rand/src/lib.rs", "").len(),
            1,
            "shim roots count"
        );
        assert_eq!(run("src/bin/kappa-partition.rs", "fn main() {}").len(), 1);
    }

    #[test]
    fn oracle_in_production_flags_definitions_and_mentions_outside_tests() {
        let run = |rel: &str, src: &str| {
            let f = SourceFile::from_source(&PathBuf::from("/x").join(rel), rel, src);
            let mut out = Vec::new();
            oracle_in_production(&f, &mut out);
            out.iter().map(|f| f.line).collect::<Vec<u32>>()
        };
        let src = "\
pub use contract::{contract_matching, contract_matching_reference};
pub mod oracle;
fn f(g: &G) { let s = FullScanSeeder::new(g, 0, 1); oracle::check(s); }
// refine_partition_reference is only prose here
#[cfg(test)]
pub(crate) fn refine_partition_reference() {}
#[cfg(test)]
mod tests {
    mod oracle {}
    fn t() { super::refine_partition_reference(); }
}
";
        assert_eq!(run("crates/kappa-refine/src/lib.rs", src), vec![1, 2, 3, 3]);
        assert!(
            run("tests/parity.rs", src).is_empty(),
            "test targets are exempt"
        );
        assert!(
            run(
                "crates/kappa-gen/src/lib.rs",
                "fn f(oracle: u32) -> u32 { oracle }"
            )
            .is_empty(),
            "`oracle` is only a module name"
        );
    }

    #[test]
    fn shim_drift_flags_foreign_names_and_registry_versions() {
        let src = "\
[dependencies]
kappa-graph.workspace = true
rand.workspace = true
regex = \"1.10\"
serde = \"1.0\"
";
        let m = Manifest::from_source(&PathBuf::from("/x/Cargo.toml"), "Cargo.toml", src);
        let mut out = Vec::new();
        shim_drift(&m, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out[0].message.contains("regex"));
        assert!(out[1].message.contains("registry version"));
    }
}
