//! # kappa-serve
//!
//! The protocol engine behind the `kappa-serve` binary: a long-running
//! repartitioning service that answers **"which block owns node v"** over a
//! mutating graph. One command per line on stdin, one reply per line on
//! stdout; the engine itself ([`ServeEngine`]) is I/O-free so the protocol
//! is unit-testable without spawning a process.
//!
//! ## Protocol
//!
//! ```text
//! query <v>                -> block <b> | none
//! insert-edge <u> <v> <w>  -> ok
//! delete-edge <u> <v>      -> ok <w>
//! update-edge <u> <v> <w>  -> ok <old_w>
//! insert-node <w> [block]  -> ok <id>
//! delete-node <v>          -> ok <w>
//! cut                      -> cut <c> baseline <b>
//! stats                    -> stats nodes <..> edges <..> cut <..> queries <..>
//!                             (then per-kind mutation and repair counters)
//! refine                   -> refined gain <g> moved <n> pairs <p>
//! verify                   -> ok exact | err <mismatch>
//! help                     -> the command list
//! quit                     -> bye (and the loop exits)
//! ```
//!
//! Blank lines and `#` comments are ignored. Every malformed or failed
//! command replies `err <reason>` — the session survives bad input, which
//! is what a long-running service must do.
//!
//! Mutations keep the partition state exact incrementally (see
//! `kappa_core::dynamic`); when the cut drifts past the configured
//! threshold or balance breaks, the engine repairs with a localized banded
//! re-refinement instead of re-running the pipeline.

#![warn(missing_docs)]

use kappa_core::DynamicSession;
use kappa_graph::{BlockId, EdgeWeight, GraphAccess, NodeId, NodeWeight};

/// What the serving loop should do with the reply to one input line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Write this reply line and keep serving.
    Reply(String),
    /// Nothing to write (blank line or comment); keep serving.
    Silent,
    /// Write this reply line, then shut down cleanly.
    Quit(String),
}

/// The command list printed for `help` (kept in sync with docs/usage.md).
pub const PROTOCOL_HELP: &str = "\
commands:
  query <v>                which block owns node v -> 'block <b>' or 'none'
  insert-edge <u> <v> <w>  insert edge {u,v} with weight w
  delete-edge <u> <v>      delete edge {u,v} -> 'ok <w>'
  update-edge <u> <v> <w>  reweight edge {u,v} -> 'ok <old_w>'
  insert-node <w> [block]  add a node of weight w (lightest block if omitted)
  delete-node <v>          remove node v and its incident edges -> 'ok <w>'
  cut                      current cut and drift baseline
  stats                    nodes, edges, cut, queries, mutations, repairs
  refine                   force a localized re-refinement now
  verify                   check state against a from-scratch rebuild
  help                     this list
  quit                     shut down";

/// Stateless line-protocol wrapper around a [`DynamicSession`].
pub struct ServeEngine {
    session: DynamicSession,
}

impl ServeEngine {
    /// Wraps an already-bootstrapped session.
    pub fn new(session: DynamicSession) -> Self {
        ServeEngine { session }
    }

    /// The wrapped session (for tests and for the binary's startup banner).
    pub fn session(&self) -> &DynamicSession {
        &self.session
    }

    /// Handles one input line and says what to do with it.
    pub fn handle_line(&mut self, line: &str) -> Outcome {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Outcome::Silent;
        }
        let mut parts = it(line);
        let cmd = parts.next().unwrap_or("");
        let reply = match cmd {
            "query" => self.cmd_query(parts),
            "insert-edge" => self.cmd_insert_edge(parts),
            "delete-edge" => self.cmd_delete_edge(parts),
            "update-edge" => self.cmd_update_edge(parts),
            "insert-node" => self.cmd_insert_node(parts),
            "delete-node" => self.cmd_delete_node(parts),
            "cut" => Ok(format!(
                "cut {} baseline {}",
                self.session.edge_cut(),
                self.session.baseline_cut()
            )),
            "stats" => Ok(self.cmd_stats()),
            "refine" => {
                let stats = self.session.refine_now();
                Ok(format!(
                    "refined gain {} moved {} pairs {}",
                    stats.total_gain, stats.nodes_moved, stats.pairs_considered
                ))
            }
            "verify" => match self.session.verify() {
                Ok(()) => Ok("ok exact".to_string()),
                Err(e) => Err(format!("state mismatch: {e}")),
            },
            "help" => Ok(PROTOCOL_HELP.to_string()),
            "quit" | "exit" => return Outcome::Quit("bye".to_string()),
            other => Err(format!("unknown command {other:?} (try 'help')")),
        };
        match reply {
            Ok(msg) => Outcome::Reply(msg),
            Err(msg) => Outcome::Reply(format!("err {msg}")),
        }
    }

    fn cmd_query<'a>(&mut self, mut args: impl Iterator<Item = &'a str>) -> Result<String, String> {
        let v: NodeId = arg(&mut args, "query <v>")?;
        end(args, "query <v>")?;
        Ok(match self.session.query(v) {
            Some(b) => format!("block {b}"),
            None => "none".to_string(),
        })
    }

    fn cmd_insert_edge<'a>(
        &mut self,
        mut args: impl Iterator<Item = &'a str>,
    ) -> Result<String, String> {
        let usage = "insert-edge <u> <v> <w>";
        let u: NodeId = arg(&mut args, usage)?;
        let v: NodeId = arg(&mut args, usage)?;
        let w: EdgeWeight = arg(&mut args, usage)?;
        end(args, usage)?;
        self.session.insert_edge(u, v, w)?;
        Ok("ok".to_string())
    }

    fn cmd_delete_edge<'a>(
        &mut self,
        mut args: impl Iterator<Item = &'a str>,
    ) -> Result<String, String> {
        let usage = "delete-edge <u> <v>";
        let u: NodeId = arg(&mut args, usage)?;
        let v: NodeId = arg(&mut args, usage)?;
        end(args, usage)?;
        let w = self.session.delete_edge(u, v)?;
        Ok(format!("ok {w}"))
    }

    fn cmd_update_edge<'a>(
        &mut self,
        mut args: impl Iterator<Item = &'a str>,
    ) -> Result<String, String> {
        let usage = "update-edge <u> <v> <w>";
        let u: NodeId = arg(&mut args, usage)?;
        let v: NodeId = arg(&mut args, usage)?;
        let w: EdgeWeight = arg(&mut args, usage)?;
        end(args, usage)?;
        let old = self.session.update_edge(u, v, w)?;
        Ok(format!("ok {old}"))
    }

    fn cmd_insert_node<'a>(
        &mut self,
        mut args: impl Iterator<Item = &'a str>,
    ) -> Result<String, String> {
        let usage = "insert-node <w> [block]";
        let w: NodeWeight = arg(&mut args, usage)?;
        let block = match args.next() {
            Some(tok) => Some(
                tok.parse::<BlockId>()
                    .map_err(|e| format!("bad block {tok:?}: {e}"))?,
            ),
            None => None,
        };
        end(args, usage)?;
        let id = self.session.insert_node(w, block)?;
        Ok(format!("ok {id}"))
    }

    fn cmd_delete_node<'a>(
        &mut self,
        mut args: impl Iterator<Item = &'a str>,
    ) -> Result<String, String> {
        let v: NodeId = arg(&mut args, "delete-node <v>")?;
        end(args, "delete-node <v>")?;
        if !self.session.graph().is_alive(v) {
            return Err(format!("node {v} does not exist"));
        }
        let w = self.session.graph().node_weight(v);
        self.session.delete_node(v)?;
        Ok(format!("ok {w}"))
    }

    fn cmd_stats(&self) -> String {
        let g = self.session.graph();
        let s = self.session.stats();
        format!(
            "stats nodes {} edges {} cut {} queries {} \
             edge-inserts {} edge-deletes {} edge-reweights {} \
             node-inserts {} node-deletes {} refines {} \
             refine-gain {} refine-moved {}",
            g.num_live_nodes(),
            g.num_edges(),
            self.session.edge_cut(),
            s.queries,
            s.edge_inserts,
            s.edge_deletes,
            s.edge_reweights,
            s.node_inserts,
            s.node_deletes,
            s.local_refines,
            s.refine_gain_total,
            s.refine_nodes_moved,
        )
    }
}

fn it(line: &str) -> impl Iterator<Item = &str> {
    line.split_whitespace()
}

fn arg<'a, T: std::str::FromStr>(
    args: &mut impl Iterator<Item = &'a str>,
    usage: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let tok = args.next().ok_or_else(|| format!("usage: {usage}"))?;
    tok.parse()
        .map_err(|e| format!("bad argument {tok:?}: {e} (usage: {usage})"))
}

fn end<'a>(mut args: impl Iterator<Item = &'a str>, usage: &str) -> Result<(), String> {
    match args.next() {
        Some(extra) => Err(format!("unexpected argument {extra:?} (usage: {usage})")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_core::{DynamicConfig, KappaConfig};
    use kappa_gen::grid2d;

    fn engine() -> ServeEngine {
        ServeEngine::new(DynamicSession::bootstrap(
            grid2d(12, 12),
            &KappaConfig::fast(4).with_seed(7),
            DynamicConfig::default(),
        ))
    }

    fn reply(e: &mut ServeEngine, line: &str) -> String {
        match e.handle_line(line) {
            Outcome::Reply(s) => s,
            other => panic!("expected a reply to {line:?}, got {other:?}"),
        }
    }

    #[test]
    fn full_scripted_session() {
        let mut e = engine();
        assert!(reply(&mut e, "query 0").starts_with("block "));
        assert_eq!(reply(&mut e, "insert-edge 0 143 3"), "ok");
        assert_eq!(reply(&mut e, "update-edge 0 143 5"), "ok 3");
        assert_eq!(reply(&mut e, "delete-edge 0 143"), "ok 5");
        let id = reply(&mut e, "insert-node 2");
        assert_eq!(id, "ok 144");
        assert_eq!(reply(&mut e, "delete-node 144"), "ok 2");
        assert_eq!(reply(&mut e, "query 144"), "none");
        assert!(reply(&mut e, "cut").starts_with("cut "));
        assert!(reply(&mut e, "stats").contains("queries 2"));
        assert!(reply(&mut e, "refine").starts_with("refined gain "));
        assert_eq!(reply(&mut e, "verify"), "ok exact");
        assert_eq!(e.handle_line("quit"), Outcome::Quit("bye".to_string()));
    }

    #[test]
    fn bad_input_yields_err_not_death() {
        let mut e = engine();
        assert!(reply(&mut e, "frobnicate").starts_with("err unknown command"));
        assert!(reply(&mut e, "query").starts_with("err usage:"));
        assert!(reply(&mut e, "query zebra").starts_with("err bad argument"));
        assert!(reply(&mut e, "query 1 2").starts_with("err unexpected argument"));
        assert!(reply(&mut e, "insert-edge 0 0 1").starts_with("err "));
        assert!(reply(&mut e, "delete-edge 0 9999").starts_with("err "));
        assert!(reply(&mut e, "insert-node 1 99").starts_with("err "));
        assert!(reply(&mut e, "delete-node 100000").starts_with("err "));
        // Weights past the 32-bit totals are refused, not wrapped.
        let over = "err total edge weight exceeds 4294967295 (u32::MAX)";
        assert_eq!(reply(&mut e, "insert-edge 0 143 4294967295"), over);
        assert_eq!(reply(&mut e, "update-edge 0 1 18446744073709551615"), over);
        let over = "err total node weight exceeds 4294967295 (u32::MAX)";
        assert_eq!(reply(&mut e, "insert-node 4294967295"), over);
        // The session is still healthy and exact after all of that.
        assert_eq!(reply(&mut e, "verify"), "ok exact");
    }

    #[test]
    fn stats_reply_pins_its_keys() {
        let mut e = engine();
        let stats = reply(&mut e, "stats");
        let words: Vec<&str> = stats.split_whitespace().collect();
        assert_eq!(words[0], "stats");
        let keys: Vec<&str> = words[1..].iter().step_by(2).copied().collect();
        assert_eq!(
            keys,
            [
                "nodes",
                "edges",
                "cut",
                "queries",
                "edge-inserts",
                "edge-deletes",
                "edge-reweights",
                "node-inserts",
                "node-deletes",
                "refines",
                "refine-gain",
                "refine-moved",
            ]
        );
        for value in words[2..].iter().step_by(2) {
            assert!(value.parse::<i64>().is_ok(), "{value:?} in {stats:?}");
        }
        assert!(
            stats.starts_with("stats nodes 144 edges 264 cut "),
            "{stats}"
        );
    }

    #[test]
    fn blank_lines_and_comments_are_silent() {
        let mut e = engine();
        assert_eq!(e.handle_line(""), Outcome::Silent);
        assert_eq!(e.handle_line("   "), Outcome::Silent);
        assert_eq!(e.handle_line("# a comment"), Outcome::Silent);
    }
}
