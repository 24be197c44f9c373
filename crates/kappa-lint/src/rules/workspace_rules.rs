//! Workspace-shape rules: `unsafe-forbid` and `shim-drift`.

use crate::manifest::Manifest;
use crate::rules::Finding;
use crate::source::SourceFile;

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
