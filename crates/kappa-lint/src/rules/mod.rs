//! The rule catalogue and the token-pattern helpers the rules share.
//!
//! Every rule is a function from a [`SourceFile`] (or the whole workspace,
//! for cross-file rules) to findings. Rules are lexical by design: they run
//! on the token stream of [`crate::lexer`], not on an AST, which keeps the
//! checker dependency-free and fast — and means each rule documents the
//! approximation it makes (see `docs/linting.md`).

pub mod comm_protocol;
pub mod determinism;
pub mod memory;
pub mod panic_free;
pub mod workspace_rules;

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// One diagnostic: `rel_path:line: [rule] message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`hash-iter`, `dist-no-panic`, …).
    pub rule: &'static str,
    /// Path relative to the workspace root.
    pub rel_path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable diagnostic.
    pub message: String,
}

/// Static description of a rule, for `--list-rules` and the docs.
pub struct RuleInfo {
    /// Rule id as used in `allow(…)`.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every rule the engine runs, in reporting order.
pub const ALL_RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "hash-iter",
        summary: "iteration over a HashMap/HashSet in production code (unordered; breaks \
                  bit-identical determinism unless the result is sorted before use)",
    },
    RuleInfo {
        id: "wall-clock",
        summary: "Instant::now()/SystemTime::now() in production code (wall-clock values \
                  must never feed partition results; kappa-bench is exempt)",
    },
    RuleInfo {
        id: "dist-no-panic",
        summary: "unwrap/expect/panic!/unreachable!/assert! in kappa-dist non-test code \
                  (every comm-path failure must flow through CommResult)",
    },
    RuleInfo {
        id: "tag-pairing",
        summary: "a message tag sent but never received (or received but never sent) in \
                  the same file — the classic lost-message deadlock, caught statically",
    },
    RuleInfo {
        id: "tag-reserved",
        summary: "a user message tag in the reserved `::` control namespace (only the \
                  Comm runtime itself — comm.rs / tcp.rs — may use `::` tags)",
    },
    RuleInfo {
        id: "rank-branch-collective",
        summary: "a collective operation lexically inside a rank-conditioned branch — \
                  the textbook MPI deadlock (not every rank reaches the collective)",
    },
    RuleInfo {
        id: "full-materialize",
        summary: "an edge-iterator call (`edges_of`, `undirected_edges`) collected into a \
                  container in kappa-mem production code — materialising adjacency defeats \
                  the memory tier's whole point",
    },
    RuleInfo {
        id: "unsafe-forbid",
        summary: "a crate or binary root without `#![forbid(unsafe_code)]`",
    },
    RuleInfo {
        id: "shim-drift",
        summary: "a Cargo.toml dependency outside the workspace/shim set, or referencing \
                  a registry version (the build environment is offline)",
    },
    RuleInfo {
        id: "oracle-in-production",
        summary: "a `*_reference` item, `FullScanSeeder` or a module called `oracle` defined \
                  or named in non-test code (a kernel's slow twin is a test-only item beside \
                  it; the shipped build has one implementation per kernel)",
    },
    RuleInfo {
        id: "unused-allow",
        summary: "a `kappa-lint: allow(…)` directive that suppressed nothing",
    },
    RuleInfo {
        id: "malformed-allow",
        summary: "a `kappa-lint:` comment that does not parse (missing reason, bad syntax)",
    },
];

/// Is `id` a known rule id?
pub fn is_known_rule(id: &str) -> bool {
    ALL_RULES.iter().any(|r| r.id == id)
}

// ---------------------------------------------------------------------------
// Shared token-pattern helpers.
// ---------------------------------------------------------------------------

/// Index of the matching closer for the opener at `open` (`(`/`[`/`{`),
/// tracking all three bracket kinds together.
pub(crate) fn matching_close(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Given `i` pointing at a method-name identifier, returns the index of the
/// opening `(` of its call, skipping one turbofish (`::<…>`). `None` when
/// the identifier is not a call.
pub(crate) fn call_open_paren(tokens: &[Token], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if j + 2 < tokens.len()
        && tokens[j].is_punct(':')
        && tokens[j + 1].is_punct(':')
        && tokens[j + 2].is_punct('<')
    {
        // Skip the generic argument list by angle depth. Comparison
        // operators cannot appear inside a turbofish, so counting is safe.
        let mut depth = 0i32;
        j += 2;
        while j < tokens.len() {
            if tokens[j].is_punct('<') {
                depth += 1;
            } else if tokens[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    (j < tokens.len() && tokens[j].is_punct('(')).then_some(j)
}

/// Token index of the start of the `n`-th (0-based) top-level argument of
/// the call whose `(` is at `open`. `None` when the call has fewer args.
pub(crate) fn nth_argument(tokens: &[Token], open: usize, n: usize) -> Option<usize> {
    let close = matching_close(tokens, open)?;
    let mut arg = 0usize;
    let mut start = open + 1;
    if start >= close {
        return None; // empty argument list
    }
    let mut depth = 0i32;
    let mut k = open + 1;
    while k < close {
        let t = &tokens[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && t.is_punct(',') {
            if arg == n {
                break;
            }
            arg += 1;
            start = k + 1;
        }
        k += 1;
    }
    (arg == n && start < close).then_some(start)
}

/// Resolves the token at `i` as a `&'static str` value: a string literal
/// directly, or an identifier bound by a file-local `const NAME: &str`.
pub(crate) fn resolve_str(file: &SourceFile, i: usize) -> Option<String> {
    let t = &file.tokens[i];
    match t.kind {
        TokenKind::Str => Some(t.text.clone()),
        TokenKind::Ident => file.str_consts.get(&t.text).cloned(),
        _ => None,
    }
}
