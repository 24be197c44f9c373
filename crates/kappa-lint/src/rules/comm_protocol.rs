//! Comm protocol discipline: `tag-pairing`, `tag-reserved` and
//! `rank-branch-collective`.
//!
//! The [`Comm`] trait names every receive (source *and* tag, no wildcards) —
//! which makes the send/recv tag relation statically visible. These rules
//! extract every `&'static str` tag passed to `send`/`recv`/`gather`
//! (string literals, plus identifiers resolved through file-local
//! `const NAME: &str` bindings) and check three invariants:
//!
//! * every tag is both sent and received within its file (the SPMD kernels
//!   keep each protocol exchange in one file, so an unpaired tag is either
//!   a typo — two spellings of one tag — or a lost-message deadlock);
//! * user tags stay out of the reserved `::` control namespace, which
//!   belongs to the runtime (`comm.rs` collectives, `tcp.rs` control
//!   frames) — the runtime's own send-path assertion only
//!   runs in debug builds, and only once a message is actually sent;
//! * no collective is called lexically inside a rank-conditioned branch —
//!   a collective only completes when *every* rank reaches it, so a branch
//!   on `rank` around one is the textbook MPI deadlock.
//!
//! [`Comm`]: ../../kappa_dist/comm/trait.Comm.html

use std::collections::BTreeMap;

use crate::lexer::TokenKind;
use crate::rules::{call_open_paren, matching_close, nth_argument, resolve_str, Finding};
use crate::source::{FileKind, SourceFile};

/// Files allowed to use the reserved `::` tag namespace: the runtime itself.
const RUNTIME_FILES: &[&str] = &[
    "crates/kappa-dist/src/comm.rs",
    "crates/kappa-dist/src/tcp.rs",
];

/// How a tag use participates in the pairing relation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Send,
    Recv,
    /// Collectives (`gather`) are both ends at once.
    Both,
}

/// One extracted tag use.
struct TagUse {
    tag: String,
    line: u32,
    role: Role,
}

/// Extracts every statically-resolvable tag passed to `.send(_, TAG, _)`,
/// `.recv(_, TAG)` / `.recv::<T>(_, TAG)` or `.gather(_, TAG, _)`.
fn extract_tags(file: &SourceFile) -> Vec<TagUse> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let role = match t.text.as_str() {
            "send" => Role::Send,
            "recv" => Role::Recv,
            "gather" => Role::Both,
            _ => continue,
        };
        // Method calls only (`comm.send(…)`), not declarations (`fn send…`).
        if i == 0 || !toks[i - 1].is_punct('.') {
            continue;
        }
        let Some(open) = call_open_paren(toks, i) else {
            continue;
        };
        let Some(arg1) = nth_argument(toks, open, 1) else {
            continue;
        };
        if let Some(tag) = resolve_str(file, arg1) {
            out.push(TagUse {
                tag,
                line: toks[arg1].line,
                role,
            });
        }
    }
    out
}

/// `tag-pairing` (see module docs). Pairing is checked per file, over all
/// statically-resolvable tags — including test code, where an unpaired tag
/// deadlocks just as surely (a deliberate mismatch under test carries an
/// annotation).
pub fn tag_pairing(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.kind == FileKind::Shim {
        return;
    }
    let uses = extract_tags(file);
    let mut sends: BTreeMap<&str, u32> = BTreeMap::new();
    let mut recvs: BTreeMap<&str, u32> = BTreeMap::new();
    for u in &uses {
        if matches!(u.role, Role::Send | Role::Both) {
            sends.entry(&u.tag).or_insert(u.line);
        }
        if matches!(u.role, Role::Recv | Role::Both) {
            recvs.entry(&u.tag).or_insert(u.line);
        }
    }
    for (tag, &line) in &sends {
        if !recvs.contains_key(tag) {
            out.push(Finding {
                rule: "tag-pairing",
                rel_path: file.rel_path.clone(),
                line,
                message: format!(
                    "tag {tag:?} is sent but never received in this file — a typo'd tag \
                     or a receiver that will time out"
                ),
            });
        }
    }
    for (tag, &line) in &recvs {
        if !sends.contains_key(tag) {
            out.push(Finding {
                rule: "tag-pairing",
                rel_path: file.rel_path.clone(),
                line,
                message: format!(
                    "tag {tag:?} is received but never sent in this file — this receive \
                     can only end in a timeout diagnosis"
                ),
            });
        }
    }
}

/// `tag-reserved` (see module docs).
pub fn tag_reserved(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.kind == FileKind::Shim || RUNTIME_FILES.contains(&file.rel_path.as_str()) {
        return;
    }
    for u in extract_tags(file) {
        if u.tag.starts_with("::") {
            out.push(Finding {
                rule: "tag-reserved",
                rel_path: file.rel_path.clone(),
                line: u.line,
                message: format!(
                    "tag {:?} is in the reserved `::` control namespace (collectives and \
                     transport control frames); pick a tag without the `::` prefix",
                    u.tag
                ),
            });
        }
    }
}

/// Collective operations: only complete when every rank calls them.
const COLLECTIVE_METHODS: &[&str] = &[
    "barrier",
    "broadcast",
    "gather",
    "allgather",
    "alltoallv",
    "allreduce",
    "allreduce_sum",
];

/// Free functions with collective semantics.
const COLLECTIVE_FNS: &[&str] = &["allreduce_min_opt"];

/// `rank-branch-collective` (see module docs).
///
/// A branch counts as rank-conditioned when its condition (or `match`
/// scrutinee) contains a `.rank()` call or one of the idents `rank`, `me`,
/// `my_rank`, `self_rank` — the divergence signals this codebase uses.
/// Uniform values that merely *mention* ranks (`num_ranks`, a broadcast
/// winner) do not diverge and are not matched.
pub fn rank_branch_collective(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.kind == FileKind::Shim {
        return;
    }
    let toks = &file.tokens;
    // Collect rank-conditioned token regions (body spans of if/while/match).
    let mut regions: Vec<(usize, usize)> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        let is_branch = t.is_ident("if") || t.is_ident("while") || t.is_ident("match");
        if !is_branch {
            continue;
        }
        // Condition / scrutinee: tokens up to the first `{` at bracket
        // depth 0 (struct literals are not legal in conditions, and closure
        // braces sit inside call parens, so this `{` is the body).
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut body_open = None;
        while j < toks.len() {
            let u = &toks[j];
            if u.is_punct('(') || u.is_punct('[') {
                depth += 1;
            } else if u.is_punct(')') || u.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && u.is_punct('{') {
                body_open = Some(j);
                break;
            } else if depth == 0 && (u.is_punct(';') || u.is_punct('}')) {
                break; // expression `if` never materialised (e.g. trailing `match`?)
            }
            j += 1;
        }
        let Some(open) = body_open else { continue };
        if !condition_is_rank_dependent(&toks[i + 1..open]) {
            continue;
        }
        let Some(mut close) = matching_close(toks, open) else {
            continue;
        };
        let start = open;
        // Extend over the `else` / `else if` chain: once any branch of the
        // chain is rank-conditioned, every branch is rank-divergent.
        while let Some(next) = toks.get(close + 1) {
            if !next.is_ident("else") {
                break;
            }
            let mut k = close + 2;
            if toks.get(k).is_some_and(|t| t.is_ident("if")) {
                // Skip the else-if condition to its body `{`.
                let mut d = 0i32;
                k += 1;
                while k < toks.len() {
                    let u = &toks[k];
                    if u.is_punct('(') || u.is_punct('[') {
                        d += 1;
                    } else if u.is_punct(')') || u.is_punct(']') {
                        d -= 1;
                    } else if d == 0 && u.is_punct('{') {
                        break;
                    }
                    k += 1;
                }
            }
            match toks.get(k).is_some_and(|t| t.is_punct('{')) {
                true => match matching_close(toks, k) {
                    Some(c) => close = c,
                    None => break,
                },
                false => break,
            }
        }
        regions.push((start, close));
    }
    if regions.is_empty() {
        return;
    }
    // Flag collectives inside any region.
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let is_method = COLLECTIVE_METHODS.contains(&t.text.as_str())
            && i >= 1
            && toks[i - 1].is_punct('.')
            && call_open_paren(toks, i).is_some();
        let is_free_fn = COLLECTIVE_FNS.contains(&t.text.as_str())
            && (i == 0 || !toks[i - 1].is_punct('.'))
            && call_open_paren(toks, i).is_some();
        if !(is_method || is_free_fn) {
            continue;
        }
        if regions.iter().any(|&(a, b)| a <= i && i <= b) {
            out.push(Finding {
                rule: "rank-branch-collective",
                rel_path: file.rel_path.clone(),
                line: t.line,
                message: format!(
                    "collective `{}` inside a rank-conditioned branch — ranks taking the \
                     other branch never reach it, so the cluster deadlocks; hoist the \
                     collective out of the branch",
                    t.text
                ),
            });
        }
    }
}

/// Does a condition/scrutinee token span carry a rank-divergence signal?
fn condition_is_rank_dependent(cond: &[crate::lexer::Token]) -> bool {
    for (k, t) in cond.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let member = k > 0 && cond[k - 1].is_punct('.');
        let call = cond.get(k + 1).is_some_and(|u| u.is_punct('('));
        match t.text.as_str() {
            // A field `x.rank` is not this rank's id…
            "rank" if member && !call => {}
            // …a method call `x.rank()` reading it is, and so are the
            // conventional names for a cached rank id.
            "rank" | "me" | "my_rank" | "self_rank" => return true,
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::from_source(&PathBuf::from("/x").join(rel), rel, src)
    }

    fn pairing(src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        tag_pairing(&file("crates/kappa-dist/src/x.rs", src), &mut out);
        out
    }

    #[test]
    fn paired_tags_are_silent_unpaired_ones_fire() {
        let clean = "\
fn f(comm: &mut C) {
    comm.send(1, \"ping\", 1u64);
    let _: u64 = comm.recv::<u64>(1, \"ping\").unwrap();
    comm.gather(0, \"sizes\", n);
}
";
        assert!(pairing(clean).is_empty());

        let orphan = "\
fn f(comm: &mut C) {
    comm.send(1, \"ping\", 1u64);
    let _: u64 = comm.recv::<u64>(1, \"pong\").unwrap();
}
";
        let out = pairing(orphan);
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|f| f.message.contains("\"ping\"")));
        assert!(out.iter().any(|f| f.message.contains("\"pong\"")));
    }

    #[test]
    fn const_tags_resolve_through_the_file_local_table() {
        let src = "\
const TAG: &str = \"handoff\";
fn f(comm: &mut C) {
    comm.send(1, TAG, 1u64);
}
fn g(comm: &mut C) -> u64 {
    comm.recv::<u64>(0, TAG).unwrap()
}
";
        assert!(pairing(src).is_empty());
    }

    #[test]
    fn reserved_namespace_fires_outside_the_runtime_files() {
        let src =
            "fn f(comm: &mut C) { comm.send(1, \"::evil\", 0u8); comm.recv::<u8>(0, \"::evil\"); }";
        let mut out = Vec::new();
        tag_reserved(&file("crates/kappa-dist/src/refine.rs", src), &mut out);
        assert_eq!(out.len(), 2);

        let mut out = Vec::new();
        tag_reserved(&file("crates/kappa-dist/src/comm.rs", src), &mut out);
        assert!(out.is_empty(), "the runtime owns the namespace");
    }

    #[test]
    fn collectives_inside_rank_branches_fire() {
        let src = "\
fn f(comm: &mut C) {
    if comm.rank() == 0 {
        comm.barrier().unwrap();
    }
    match comm.rank() {
        0 => { comm.allreduce_sum(1).unwrap(); }
        _ => {}
    }
    if me == 0 {
    } else {
        let _ = allreduce_min_opt(comm, None, |x| x);
    }
}
";
        let mut out = Vec::new();
        rank_branch_collective(&file("crates/kappa-dist/src/y.rs", src), &mut out);
        let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![3, 6, 11]);
    }

    #[test]
    fn uniform_conditions_and_rank_expressions_in_args_are_fine() {
        let src = "\
fn f(comm: &mut C) {
    if comm.num_ranks() > 1 {
        comm.barrier().unwrap();
    }
    let w = comm.broadcast(root, (comm.rank() == root).then_some(x)).unwrap();
    if comm.rank() == 0 {
        comm.send(1, \"a\", 0u8);
    } else {
        let _ = comm.recv::<u8>(0, \"a\");
    }
    for _ in 0..comm.num_ranks() {
        comm.allgather(1u8).unwrap();
    }
}
";
        let mut out = Vec::new();
        rank_branch_collective(&file("crates/kappa-dist/src/y.rs", src), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
