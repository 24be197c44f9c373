//! One lexed source file plus everything the rules need to know about it:
//! where it sits in the workspace (crate, shim, test code, crate root), which
//! lines belong to `#[cfg(test)]` / `#[test]` items, which `kappa-lint:`
//! directives it carries, and its local `const NAME: &str = "…"` table (used
//! to resolve message tags passed by name).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Lexed, Token, TokenKind};

/// Where a file sits in the workspace — decides which rules apply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Production source of a workspace crate (`crates/*/src`, root `src/`).
    Production,
    /// Test, bench or example code (`tests/`, `benches/`, `examples/`).
    TestCode,
    /// Offline dependency stand-in under `shims/` — exempt from content
    /// rules (shims mirror external APIs), root attribute still required.
    Shim,
}

/// A parsed `// kappa-lint: allow(rule-a, rule-b) -- reason` directive.
#[derive(Clone, Debug)]
pub struct AllowDirective {
    /// 1-based line of the comment.
    pub line: u32,
    /// Rule ids the directive suppresses.
    pub rules: Vec<String>,
    /// The justification after `--`.
    pub reason: String,
}

/// A directive that could not be parsed (missing reason, bad syntax).
#[derive(Clone, Debug)]
pub struct MalformedDirective {
    /// 1-based line of the comment.
    pub line: u32,
    /// What is wrong with it.
    pub detail: String,
}

/// A lexed, classified source file.
pub struct SourceFile {
    /// Path relative to the workspace root (forward slashes).
    pub rel_path: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
    /// Which rule family applies.
    pub kind: FileKind,
    /// Name of the owning crate (`kappa-dist`, `rayon`, …; the root package
    /// is `kappa`).
    pub crate_name: String,
    /// Is this a crate/binary root (`src/lib.rs`, `src/main.rs`,
    /// `src/bin/*.rs`)?
    pub is_crate_root: bool,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Well-formed allow directives.
    pub allows: Vec<AllowDirective>,
    /// Malformed `kappa-lint:` comments.
    pub malformed: Vec<MalformedDirective>,
    /// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_regions: Vec<(u32, u32)>,
    /// `const NAME: &str = "value";` bindings in this file.
    pub str_consts: BTreeMap<String, String>,
}

impl SourceFile {
    /// Lexes and classifies the file at `abs_path`, `rel_path` relative to
    /// the workspace root.
    pub fn load(abs_path: &Path, rel_path: &str) -> std::io::Result<SourceFile> {
        let src = std::fs::read_to_string(abs_path)?;
        Ok(SourceFile::from_source(abs_path, rel_path, &src))
    }

    /// Builds a [`SourceFile`] from in-memory source (used by unit tests).
    pub fn from_source(abs_path: &Path, rel_path: &str, src: &str) -> SourceFile {
        let Lexed { tokens, comments } = lex(src);
        let mut allows = Vec::new();
        let mut malformed = Vec::new();
        for c in &comments {
            match parse_directive(c.text.trim()) {
                DirectiveParse::None => {}
                DirectiveParse::Allow { rules, reason } => allows.push(AllowDirective {
                    line: c.line,
                    rules,
                    reason,
                }),
                DirectiveParse::Malformed(detail) => malformed.push(MalformedDirective {
                    line: c.line,
                    detail,
                }),
            }
        }
        let test_regions = find_test_regions(&tokens);
        let str_consts = find_str_consts(&tokens);
        let (kind, crate_name, is_crate_root) = classify(rel_path);
        SourceFile {
            rel_path: rel_path.to_string(),
            abs_path: abs_path.to_path_buf(),
            kind,
            crate_name,
            is_crate_root,
            tokens,
            allows,
            malformed,
            test_regions,
            str_consts,
        }
    }

    /// Is `line` inside a `#[cfg(test)]` / `#[test]` item?
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }
}

/// (kind, crate name, is_crate_root) from the workspace-relative path.
fn classify(rel_path: &str) -> (FileKind, String, bool) {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let crate_name = match parts.first() {
        Some(&"crates") | Some(&"shims") if parts.len() > 1 => parts[1].to_string(),
        _ => "kappa".to_string(), // workspace-root package
    };
    let kind = if parts.first() == Some(&"shims") {
        FileKind::Shim
    } else if parts
        .iter()
        .any(|p| *p == "tests" || *p == "benches" || *p == "examples")
    {
        FileKind::TestCode
    } else {
        FileKind::Production
    };
    let n = parts.len();
    let is_crate_root = (n >= 2
        && parts[n - 2] == "src"
        && (parts[n - 1] == "lib.rs" || parts[n - 1] == "main.rs"))
        || (n >= 3
            && parts[n - 3] == "src"
            && parts[n - 2] == "bin"
            && parts[n - 1].ends_with(".rs"));
    (kind, crate_name, is_crate_root)
}

enum DirectiveParse {
    None,
    Allow { rules: Vec<String>, reason: String },
    Malformed(String),
}

/// Parses one trimmed comment body. Directive grammar:
/// `kappa-lint: allow(rule-a, rule-b) -- reason text`.
fn parse_directive(text: &str) -> DirectiveParse {
    let Some(rest) = text.strip_prefix("kappa-lint:") else {
        return DirectiveParse::None;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow") else {
        return DirectiveParse::Malformed(format!(
            "unknown directive {rest:?} (expected `allow(<rule, …>) -- <reason>`)"
        ));
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return DirectiveParse::Malformed("missing `(` after `allow`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return DirectiveParse::Malformed("missing `)` in allow list".to_string());
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return DirectiveParse::Malformed("empty allow list".to_string());
    }
    let tail = rest[close + 1..].trim_start();
    let Some(reason) = tail.strip_prefix("--") else {
        return DirectiveParse::Malformed(
            "missing `-- <reason>` (every suppression must be justified)".to_string(),
        );
    };
    let reason = reason.trim().to_string();
    if reason.is_empty() {
        return DirectiveParse::Malformed("empty reason after `--`".to_string());
    }
    DirectiveParse::Allow { rules, reason }
}

/// Finds the inclusive line ranges of items annotated `#[test]` or
/// `#[cfg(test)]` (including `cfg(all(test, …))`; `cfg(not(test))` does not
/// count). The range runs from the attribute to the item's closing brace (or
/// its `;` for brace-less items).
fn find_test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') {
            i += 1;
            continue;
        }
        let attr_line = tokens[i].line;
        let mut j = i + 1;
        // Inner attributes (`#![…]`) annotate the enclosing item, not the
        // next one; skip them.
        if j < tokens.len() && tokens[j].is_punct('!') {
            i = j + 1;
            continue;
        }
        let mut is_test = false;
        // One or more outer attributes may stack before the item.
        while j < tokens.len() && tokens[j].is_punct('[') {
            let (body_start, body_end) = match bracket_group(tokens, j) {
                Some(range) => range,
                None => return regions, // unterminated attr at EOF
            };
            if attr_tokens_mark_test(&tokens[body_start..body_end]) {
                is_test = true;
            }
            j = body_end + 1;
            // Another `#[…]`?
            if j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[') {
                j += 1;
                continue;
            }
            break;
        }
        if !is_test {
            i = j.max(i + 1);
            continue;
        }
        // The annotated item: runs to the first `;` at depth 0, or to the
        // matching `}` of the first `{` at depth 0.
        let mut depth = 0i32;
        let mut k = j;
        let mut end_line = attr_line;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && t.is_punct(';') {
                end_line = t.line;
                break;
            } else if depth == 0 && t.is_punct('{') {
                let mut braces = 1i32;
                k += 1;
                while k < tokens.len() && braces > 0 {
                    if tokens[k].is_punct('{') {
                        braces += 1;
                    } else if tokens[k].is_punct('}') {
                        braces -= 1;
                    }
                    end_line = tokens[k].line;
                    k += 1;
                }
                break;
            }
            end_line = t.line;
            k += 1;
        }
        regions.push((attr_line, end_line));
        i = j.max(i + 1);
    }
    regions
}

/// Does an attribute token body (`test`, `cfg(test)`, `cfg(all(test, x))`)
/// mark test code? `cfg(not(test))` must not.
fn attr_tokens_mark_test(body: &[Token]) -> bool {
    let mentions_test = body.iter().any(|t| t.is_ident("test"));
    let negated = body
        .windows(3)
        .any(|w| w[0].is_ident("not") && w[1].is_punct('(') && w[2].is_ident("test"));
    mentions_test && !negated
}

/// Returns the token index range `(start, end)` (exclusive `end`, pointing at
/// the matching `]`) of the bracket group opening at `open` (which must be
/// `[`).
fn bracket_group(tokens: &[Token], open: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some((open + 1, k));
            }
        }
    }
    None
}

/// Collects `const NAME: &str = "value";` (any visibility) bindings.
fn find_str_consts(tokens: &[Token]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if tokens[i].is_ident("const") && tokens[i + 1].kind == TokenKind::Ident {
            let name = tokens[i + 1].text.clone();
            // Scan to `=` (before any `;`), then expect a string literal.
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct('=') && !tokens[j].is_punct(';') {
                j += 1;
            }
            if j + 1 < tokens.len()
                && tokens[j].is_punct('=')
                && tokens[j + 1].kind == TokenKind::Str
            {
                out.insert(name, tokens[j + 1].text.clone());
            }
            i = j;
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::from_source(&PathBuf::from("/x").join(rel), rel, src)
    }

    #[test]
    fn classification_covers_crates_shims_tests_and_roots() {
        let f = file("crates/kappa-dist/src/comm.rs", "");
        assert_eq!(f.kind, FileKind::Production);
        assert_eq!(f.crate_name, "kappa-dist");
        assert!(!f.is_crate_root);

        let f = file("crates/kappa-dist/src/lib.rs", "");
        assert!(f.is_crate_root);

        let f = file("shims/rand/src/lib.rs", "");
        assert_eq!(f.kind, FileKind::Shim);
        assert_eq!(f.crate_name, "rand");
        assert!(f.is_crate_root);

        let f = file("tests/parity.rs", "");
        assert_eq!(f.kind, FileKind::TestCode);
        assert_eq!(f.crate_name, "kappa");

        let f = file("crates/kappa-bench/src/bin/exp.rs", "");
        assert!(f.is_crate_root);
        assert_eq!(f.crate_name, "kappa-bench");

        let f = file("src/bin/kappa-partition.rs", "");
        assert!(f.is_crate_root);
        assert_eq!(f.crate_name, "kappa");

        let f = file("crates/kappa-refine/benches/x.rs", "");
        assert_eq!(f.kind, FileKind::TestCode);
    }

    #[test]
    fn allow_directives_parse_and_malformed_ones_are_caught() {
        let f = file(
            "crates/kappa-graph/src/x.rs",
            "// kappa-lint: allow(hash-iter, wall-clock) -- sorted before use\n\
             // kappa-lint: allow(hash-iter)\n\
             // kappa-lint: deny(everything)\n\
             // just a comment\n",
        );
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rules, vec!["hash-iter", "wall-clock"]);
        assert_eq!(f.allows[0].reason, "sorted before use");
        assert_eq!(f.malformed.len(), 2);
        assert_eq!(f.malformed[0].line, 2);
        assert_eq!(f.malformed[1].line, 3);
    }

    #[test]
    fn test_regions_cover_cfg_test_mods_and_test_fns() {
        let src = "\
fn prod() { x.unwrap(); }

#[cfg(test)]
mod tests {
    #[test]
    fn t() { y.unwrap(); }
}

#[cfg(not(test))]
fn also_prod() {}

#[test]
fn bare_test() {
    z.unwrap();
}
";
        let f = file("crates/kappa-dist/src/x.rs", src);
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(3));
        assert!(f.in_test_region(6));
        assert!(f.in_test_region(7));
        assert!(!f.in_test_region(10), "cfg(not(test)) is production");
        assert!(f.in_test_region(12));
        assert!(f.in_test_region(14));
    }

    #[test]
    fn str_consts_are_collected() {
        let f = file(
            "crates/kappa-dist/src/tcp.rs",
            "const BYE_TAG: &str = \"::bye\";\npub(crate) const A: &'static str = \"x\";\nconst N: usize = 3;\n",
        );
        assert_eq!(
            f.str_consts.get("BYE_TAG").map(String::as_str),
            Some("::bye")
        );
        assert_eq!(f.str_consts.get("A").map(String::as_str), Some("x"));
        assert!(!f.str_consts.contains_key("N"));
    }
}
