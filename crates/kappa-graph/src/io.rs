//! METIS-format text I/O.
//!
//! The METIS graph format is the de-facto interchange format of the graph
//! partitioning community (Walshaw archive, Metis, Scotch, KaHIP all read
//! it): the header line is `n m [fmt [ncon]]` where `fmt` is a flag string of
//! up to three binary digits (`1xx` = vertex sizes present, `x1x` = vertex
//! weights present, `xx1` = edge weights present) and `ncon` is the number of
//! vertex weights (constraints) per vertex. Line `i` then lists the
//! neighbours of node `i` (1-based), each preceded by the edge weight if
//! `xx1`, the whole line prefixed by the vertex size if `1xx` and by the
//! `ncon` vertex weights if `x1x`. Lines starting with `%` are comments.
//!
//! Deviations and tolerances, all documented on [`parse_metis`]: vertex sizes
//! and all but the first vertex weight are parsed and validated but ignored
//! (this partitioner balances a single node-weight constraint), and a file
//! whose adjacency lists contain exactly `m` half-edges is accepted as the
//! "each edge listed once" convention some writers use. Every malformed input
//! is reported as a typed [`MetisError`] — parsing never panics.

use std::fmt;
use std::fs;
use std::io::{BufRead as _, Write as _};
use std::path::{Path, PathBuf};

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::types::NodeId;

/// Everything that can go wrong reading or writing METIS text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetisError {
    /// The file contains no non-comment, non-blank lines.
    Empty,
    /// The header line (`n m [fmt [ncon]]`) is malformed.
    Header {
        /// 1-based physical line number in the file (comments counted).
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The adjacency line of a node could not be parsed.
    Line {
        /// 1-based node id the line belongs to (METIS numbering).
        node: usize,
        /// 1-based physical line number in the file (comments counted).
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The file ends before every node got its adjacency line.
    Truncated {
        /// Number of nodes the header declared.
        expected: usize,
        /// Number of adjacency lines actually present.
        found: usize,
    },
    /// The number of listed half-edges matches neither the symmetric (`2m`)
    /// nor the once-listed (`m`) convention.
    EdgeCount {
        /// Edge count `m` from the header.
        declared: usize,
        /// Half-edges (neighbour entries) found in the body.
        listed: usize,
    },
    /// An edge appears more than once in a file using the once-listed
    /// convention (merging them would silently sum the weights).
    Duplicate {
        /// 1-based lower endpoint.
        u: usize,
        /// 1-based upper endpoint.
        v: usize,
    },
    /// In a file using the symmetric convention, an edge is not listed
    /// exactly once by each endpoint with one weight: one endpoint omits it,
    /// lists it twice, or gives it another weight.
    Asymmetric {
        /// 1-based lower endpoint.
        u: usize,
        /// 1-based upper endpoint.
        v: usize,
    },
    /// An underlying filesystem operation failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The OS error message.
        message: String,
    },
}

impl fmt::Display for MetisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetisError::Empty => write!(f, "empty METIS file (no non-comment lines)"),
            MetisError::Header { line, message } => {
                write!(f, "bad METIS header (line {line}): {message}")
            }
            MetisError::Line {
                node,
                line,
                message,
            } => {
                write!(
                    f,
                    "bad adjacency line for node {node} (line {line}): {message}"
                )
            }
            MetisError::Truncated { expected, found } => write!(
                f,
                "truncated METIS file: header declares {expected} nodes but only {found} \
                 adjacency lines follow"
            ),
            MetisError::EdgeCount { declared, listed } => write!(
                f,
                "edge count mismatch: header declares {declared} edges but the file lists \
                 {listed} half-edges (expected {} or {declared})",
                2 * declared
            ),
            MetisError::Duplicate { u, v } => write!(
                f,
                "edge {{{u}, {v}}} is listed more than once in a once-listed METIS file"
            ),
            MetisError::Asymmetric { u, v } => write!(
                f,
                "edge {{{u}, {v}}} is not listed exactly once by each endpoint with one weight"
            ),
            MetisError::Io { path, message } => write!(f, "cannot access {path:?}: {message}"),
        }
    }
}

impl std::error::Error for MetisError {}

/// Lets callers in `Result<_, String>` contexts keep using `?`.
impl From<MetisError> for String {
    fn from(err: MetisError) -> String {
        err.to_string()
    }
}

/// The flags of a parsed `fmt` field.
#[derive(Clone, Copy, Debug, Default)]
struct FmtFlags {
    has_vsize: bool,
    has_vwgt: bool,
    has_ewgt: bool,
}

fn parse_fmt(fmt: &str, line: usize) -> Result<FmtFlags, MetisError> {
    if fmt.is_empty() || fmt.len() > 3 || !fmt.bytes().all(|b| b == b'0' || b == b'1') {
        return Err(MetisError::Header {
            line,
            message: format!("fmt field {fmt:?} is not 1-3 binary digits"),
        });
    }
    let digit = |i: usize| fmt.len() > i && fmt.as_bytes()[fmt.len() - 1 - i] == b'1';
    Ok(FmtFlags {
        has_ewgt: digit(0),
        has_vwgt: digit(1),
        has_vsize: digit(2),
    })
}

/// Parses a graph from METIS text format.
///
/// Supports all `fmt` codes: vertex sizes (`1xx`) and the 2nd..`ncon`-th
/// vertex weights (`x1x` with an `ncon` header field) are parsed and
/// validated but ignored — this partitioner balances the first node-weight
/// constraint only. `%` comment lines and blank lines are skipped anywhere.
/// Both the symmetric convention (every undirected edge listed from both
/// endpoints with the same weight, `2m` half-edges) and the once-listed
/// convention (`m` half-edges) are accepted; anything else — including a
/// `2m`-entry file that is not symmetric — is a typed [`MetisError`], never
/// a panic.
///
/// Blank lines are skipped everywhere (historical behaviour), so an isolated
/// vertex cannot be written as an empty adjacency line — such a file is now
/// reported as [`MetisError::Truncated`] instead of silently mis-attributing
/// every following line to the wrong node, as earlier revisions did.
pub fn parse_metis(text: &str) -> Result<CsrGraph, MetisError> {
    parse_metis_lines(text.lines().map(Ok))
}

/// Pulls the next non-blank, non-comment line, tagged with its 1-based
/// physical line number.
fn next_content<S: AsRef<str>>(
    lines: &mut impl Iterator<Item = (usize, Result<S, MetisError>)>,
) -> Result<Option<(usize, S)>, MetisError> {
    for (i, line) in lines.by_ref() {
        let line = line?;
        let t = line.as_ref().trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        return Ok(Some((i + 1, line)));
    }
    Ok(None)
}

/// The parser core, generic over a fallible line stream so that
/// [`read_metis`] streams files through a [`BufRead`](std::io::BufRead) line
/// by line — the file text is never resident as a whole — while
/// [`parse_metis`] borrows `&str` lines without copying. Every error carries
/// the 1-based physical line number it was detected on.
fn parse_metis_lines<S, I>(lines: I) -> Result<CsrGraph, MetisError>
where
    S: AsRef<str>,
    I: Iterator<Item = Result<S, MetisError>>,
{
    let mut lines = lines.enumerate();
    let (header_line, header) = next_content(&mut lines)?.ok_or(MetisError::Empty)?;
    let header = header.as_ref().trim();
    let head: Vec<&str> = header.split_whitespace().collect();
    if head.len() < 2 || head.len() > 4 {
        return Err(MetisError::Header {
            line: header_line,
            message: format!("expected `n m [fmt [ncon]]`, got {header:?}"),
        });
    }
    let n: usize = head[0].parse().map_err(|e| MetisError::Header {
        line: header_line,
        message: format!("bad node count {:?}: {e}", head[0]),
    })?;
    let m: usize = head[1].parse().map_err(|e| MetisError::Header {
        line: header_line,
        message: format!("bad edge count {:?}: {e}", head[1]),
    })?;
    let flags = match head.get(2) {
        Some(fmt) => parse_fmt(fmt, header_line)?,
        None => FmtFlags::default(),
    };
    let ncon: usize = match head.get(3) {
        Some(tok) => {
            let ncon = tok.parse().map_err(|e| MetisError::Header {
                line: header_line,
                message: format!("bad ncon field {tok:?}: {e}"),
            })?;
            if !flags.has_vwgt {
                return Err(MetisError::Header {
                    line: header_line,
                    message: format!("ncon = {ncon} given but fmt has no vertex-weight flag (x1x)"),
                });
            }
            if ncon == 0 {
                return Err(MetisError::Header {
                    line: header_line,
                    message: "ncon must be at least 1".to_string(),
                });
            }
            ncon
        }
        None => 1,
    };

    let mut builder = GraphBuilder::new(n);
    // Half-edges as listed; which convention the file uses (symmetric vs
    // once-listed) is only decidable once all of them are counted.
    let mut half_edges: Vec<(NodeId, NodeId, u64)> = Vec::new();
    let mut found = 0usize;
    for u in 0..n {
        let Some((line_no, line)) = next_content(&mut lines)? else {
            break;
        };
        found += 1;
        let node = u + 1; // 1-based, for error messages
        let mut tokens = line.as_ref().split_whitespace();
        if flags.has_vsize {
            let tok = tokens.next().ok_or_else(|| MetisError::Line {
                node,
                line: line_no,
                message: "missing vertex size".to_string(),
            })?;
            // Parsed for validation; sizes are a communication-volume input
            // this partitioner does not use.
            tok.parse::<u64>().map_err(|e| MetisError::Line {
                node,
                line: line_no,
                message: format!("bad vertex size {tok:?}: {e}"),
            })?;
        }
        if flags.has_vwgt {
            for c in 0..ncon {
                let tok = tokens.next().ok_or_else(|| MetisError::Line {
                    node,
                    line: line_no,
                    message: format!("missing vertex weight {} of {ncon}", c + 1),
                })?;
                let w: u64 = tok.parse().map_err(|e| MetisError::Line {
                    node,
                    line: line_no,
                    message: format!("bad vertex weight {tok:?}: {e}"),
                })?;
                // Only the first constraint is balanced.
                if c == 0 {
                    builder.set_node_weight(u as NodeId, w);
                }
            }
        }
        let tokens: Vec<&str> = tokens.collect();
        let mut i = 0usize;
        while i < tokens.len() {
            let v: usize = tokens[i].parse().map_err(|e| MetisError::Line {
                node,
                line: line_no,
                message: format!("bad neighbour id {:?}: {e}", tokens[i]),
            })?;
            if v == 0 || v > n {
                return Err(MetisError::Line {
                    node,
                    line: line_no,
                    message: format!("neighbour id {v} out of range 1..={n}"),
                });
            }
            if v == node {
                return Err(MetisError::Line {
                    node,
                    line: line_no,
                    message: "self loops are not allowed in METIS graphs".to_string(),
                });
            }
            let w = if flags.has_ewgt {
                i += 1;
                let tok = tokens.get(i).ok_or_else(|| MetisError::Line {
                    node,
                    line: line_no,
                    message: format!("missing edge weight after neighbour {v}"),
                })?;
                tok.parse::<u64>().map_err(|e| MetisError::Line {
                    node,
                    line: line_no,
                    message: format!("bad edge weight {tok:?}: {e}"),
                })?
            } else {
                1
            };
            if w == 0 {
                return Err(MetisError::Line {
                    node,
                    line: line_no,
                    message: format!("edge weight of neighbour {v} must be positive"),
                });
            }
            i += 1;
            half_edges.push((u as NodeId, (v - 1) as NodeId, w));
        }
    }
    if found < n {
        return Err(MetisError::Truncated { expected: n, found });
    }
    let symmetric = half_edges.len() == 2 * m;
    if symmetric {
        // Symmetric convention: every undirected edge appears twice; build
        // from the lower-endpoint copies, then check the listing below.
        for &(u, v, w) in &half_edges {
            if u < v {
                builder.add_edge(u, v, w);
            }
        }
    } else if half_edges.len() == m {
        // Once-listed convention: every listed half-edge is one edge,
        // whichever direction it was written in. Reject duplicates — the
        // builder would merge them by summing weights, silently corrupting
        // the graph (a symmetric file with a miscounted header looks exactly
        // like this).
        let mut normalized: Vec<(NodeId, NodeId)> = half_edges
            .iter()
            .map(|&(u, v, _)| (u.min(v), u.max(v)))
            .collect();
        normalized.sort_unstable();
        if let Some(w) = normalized.windows(2).find(|w| w[0] == w[1]) {
            return Err(MetisError::Duplicate {
                u: w[0].0 as usize + 1,
                v: w[0].1 as usize + 1,
            });
        }
        for &(u, v, w) in &half_edges {
            builder.add_edge(u, v, w);
        }
    } else {
        return Err(MetisError::EdgeCount {
            declared: m,
            listed: half_edges.len(),
        });
    }
    let graph = builder.build();
    if symmetric {
        check_symmetric(&graph, &half_edges)?;
    }
    Ok(graph)
}

/// A symmetric file is what it claims iff every node's line lists exactly
/// its row of the graph built from the lower-endpoint copies; otherwise the
/// first entry where a line and its row part ways names the edge.
fn check_symmetric(
    graph: &CsrGraph,
    half_edges: &[(NodeId, NodeId, u64)],
) -> Result<(), MetisError> {
    let mut line: Vec<(NodeId, u64)> = Vec::new();
    let mut rest = half_edges;
    for u in graph.nodes() {
        let len = rest.iter().take_while(|e| e.0 == u).count();
        line.clear();
        line.extend(rest[..len].iter().map(|&(_, v, w)| (v, w)));
        rest = &rest[len..];
        line.sort_unstable();
        let same = graph
            .edges_of(u)
            .zip(&line)
            .take_while(|(a, b)| a == *b)
            .count();
        let listed = line.get(same).map(|e| e.0);
        let built = graph.edges_of(u).nth(same).map(|e| e.0);
        let Some(t) = listed.into_iter().chain(built).min() else {
            continue;
        };
        return Err(MetisError::Asymmetric {
            u: u.min(t) as usize + 1,
            v: u.max(t) as usize + 1,
        });
    }
    Ok(())
}

/// Which optional fields a METIS file carries — the writer-side mirror of the
/// `fmt` flag string (`1xx` vertex sizes, `x1x` vertex weights, `xx1` edge
/// weights).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetisFormat {
    /// Write a vertex-size prefix per line (`1xx`). This partitioner does not
    /// model communication volume, so a unit size `1` is written; the reader
    /// parses and ignores sizes, making the field round-trip-neutral.
    pub vertex_sizes: bool,
    /// Write the node weight per line (`x1x`).
    pub vertex_weights: bool,
    /// Write every neighbour's edge weight (`xx1`).
    pub edge_weights: bool,
}

impl MetisFormat {
    /// All eight flag combinations, in ascending `fmt`-code order.
    pub fn all() -> [MetisFormat; 8] {
        let f = |s, w, e| MetisFormat {
            vertex_sizes: s,
            vertex_weights: w,
            edge_weights: e,
        };
        [
            f(false, false, false),
            f(false, false, true),
            f(false, true, false),
            f(false, true, true),
            f(true, false, false),
            f(true, false, true),
            f(true, true, false),
            f(true, true, true),
        ]
    }

    /// The smallest format that loses nothing of `graph`: vertex weights are
    /// written iff some node weight differs from 1, edge weights iff some
    /// edge weight differs from 1 (absent fields default to 1 on read).
    pub fn minimal_for(graph: &CsrGraph) -> MetisFormat {
        let vertex_weights = graph.vwgt().iter().any(|&w| w != 1)
            // An isolated vertex needs some token on its line (see
            // `lossless_for`); the weight prefix is the cheapest.
            || graph.nodes().any(|v| graph.degree(v) == 0);
        MetisFormat {
            vertex_sizes: false,
            vertex_weights,
            edge_weights: graph.adjwgt().iter().any(|&w| w != 1),
        }
    }

    /// True when a write → read round trip reproduces `graph` exactly: every
    /// field the format omits must be trivial (all-ones) in the graph, and —
    /// because [`parse_metis`] skips blank lines, so an isolated vertex needs
    /// at least one per-line token to keep its line non-empty — a format with
    /// no vertex prefix additionally requires every node to have an edge.
    pub fn lossless_for(&self, graph: &CsrGraph) -> bool {
        (self.vertex_weights || graph.vwgt().iter().all(|&w| w == 1))
            && (self.edge_weights || graph.adjwgt().iter().all(|&w| w == 1))
            && (self.vertex_sizes
                || self.vertex_weights
                || graph.nodes().all(|v| graph.degree(v) > 0))
    }

    /// The `fmt` field as written to the header, `None` when all flags are
    /// off (an absent field and `000` read identically).
    pub fn code(&self) -> Option<&'static str> {
        match (self.vertex_sizes, self.vertex_weights, self.edge_weights) {
            (false, false, false) => None,
            (false, false, true) => Some("001"),
            (false, true, false) => Some("010"),
            (false, true, true) => Some("011"),
            (true, false, false) => Some("100"),
            (true, false, true) => Some("101"),
            (true, true, false) => Some("110"),
            (true, true, true) => Some("111"),
        }
    }
}

/// Serialises a graph to METIS text format with node and edge weights (fmt
/// `011`), the historical default. Use [`to_metis_string_fmt`] to pick the
/// fields explicitly.
pub fn to_metis_string(graph: &CsrGraph) -> String {
    to_metis_string_fmt(
        graph,
        MetisFormat {
            vertex_sizes: false,
            vertex_weights: true,
            edge_weights: true,
        },
    )
}

/// Serialises a graph to METIS text format with exactly the fields `fmt`
/// selects — the inverse of [`parse_metis`] for every fmt code.
///
/// The output follows the symmetric convention (every undirected edge listed
/// from both endpoints, `2m` half-edges). Omitted weights default to 1 on
/// read, so the round trip is exact iff
/// [`fmt.lossless_for(graph)`](MetisFormat::lossless_for).
pub fn to_metis_string_fmt(graph: &CsrGraph, fmt: MetisFormat) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str(&format!("{} {}", graph.num_nodes(), graph.num_edges()));
    if let Some(code) = fmt.code() {
        out.push(' ');
        out.push_str(code);
    }
    out.push('\n');
    for v in graph.nodes() {
        let mut first = true;
        let mut sep = |line: &mut String| {
            if !first {
                line.push(' ');
            }
            first = false;
        };
        let mut line = String::new();
        if fmt.vertex_sizes {
            sep(&mut line);
            line.push('1');
        }
        if fmt.vertex_weights {
            sep(&mut line);
            let _ = write!(line, "{}", graph.node_weight(v));
        }
        for (u, w) in graph.edges_of(v) {
            sep(&mut line);
            let _ = write!(line, "{}", u + 1);
            if fmt.edge_weights {
                let _ = write!(line, " {w}");
            }
        }
        line.push('\n');
        out.push_str(&line);
    }
    out
}

/// Reads a METIS graph from a file, streaming it line by line through a
/// buffered reader — the file text is never held in memory as a whole, so
/// multi-gigabyte instances parse in `O(m)` graph memory plus one line of
/// text. Errors keep the 1-based line number they were detected on.
pub fn read_metis(path: &Path) -> Result<CsrGraph, MetisError> {
    let io_err = |e: std::io::Error| MetisError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    };
    let file = fs::File::open(path).map_err(&io_err)?;
    let reader = std::io::BufReader::with_capacity(1 << 20, file);
    parse_metis_lines(reader.lines().map(|r| r.map_err(&io_err)))
}

/// Writes a graph to a file in METIS format.
pub fn write_metis(graph: &CsrGraph, path: &Path) -> Result<(), MetisError> {
    let io_err = |e: std::io::Error| MetisError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    };
    let mut f = fs::File::create(path).map_err(io_err)?;
    f.write_all(to_metis_string(graph).as_bytes())
        .map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn parse_unweighted() {
        let text = "% a triangle plus a pendant\n4 4\n2 3\n1 3\n1 2 4\n3\n";
        let g = parse_metis(text).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.edge_weight_between(0, 1), Some(1));
        assert_eq!(g.edge_weight_between(2, 3), Some(1));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn parse_with_weights() {
        // fmt 011: node weight then (neighbour, edge weight) pairs.
        let text = "3 2 011\n5 2 7\n1 1 7 3 2\n4 2 2\n";
        let g = parse_metis(text).unwrap();
        assert_eq!(g.node_weight(0), 5);
        assert_eq!(g.node_weight(1), 1);
        assert_eq!(g.node_weight(2), 4);
        assert_eq!(g.edge_weight_between(0, 1), Some(7));
        assert_eq!(g.edge_weight_between(1, 2), Some(2));
    }

    #[test]
    fn parse_with_vertex_sizes() {
        // fmt 100: a vertex size prefixes each line and is otherwise ignored.
        let text = "3 2 100\n9 2\n3 1 3\n1 2\n";
        let g = parse_metis(text).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.node_weight(0), 1); // sizes are not weights
        assert_eq!(g.edge_weight_between(0, 1), Some(1));
    }

    #[test]
    fn parse_all_fmt_flags_with_multiple_constraints() {
        // fmt 111, ncon 2: vertex size, two vertex weights (only the first is
        // balanced), then (neighbour, edge weight) pairs.
        let text = "2 1 111 2\n4 5 50 2 3\n8 6 60 1 3\n";
        let g = parse_metis(text).unwrap();
        assert_eq!(g.node_weight(0), 5);
        assert_eq!(g.node_weight(1), 6);
        assert_eq!(g.edge_weight_between(0, 1), Some(3));
    }

    #[test]
    fn once_listed_edges_are_accepted() {
        // m = 4 half-edges in the body: the once-listed convention, in mixed
        // directions (node 4 lists its edge towards 1).
        let text = "4 4\n2\n3\n4\n1\n";
        let g = parse_metis(text).unwrap();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.edge_weight_between(0, 3), Some(1));
        assert_eq!(g.edge_weight_between(2, 3), Some(1));
    }

    #[test]
    fn writer_covers_every_fmt_code() {
        // A weighted graph: only formats carrying both weight kinds are
        // lossless; the others round-trip the structure with defaulted
        // weights.
        let mut b = GraphBuilder::with_node_weights(vec![2, 1, 3]);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 1);
        let g = b.build();
        for fmt in MetisFormat::all() {
            let text = to_metis_string_fmt(&g, fmt);
            let head: Vec<&str> = text.lines().next().unwrap().split_whitespace().collect();
            match fmt.code() {
                None => assert_eq!(head.len(), 2),
                Some(code) => assert_eq!(head[2], code),
            }
            let g2 = parse_metis(&text).unwrap_or_else(|e| panic!("fmt {fmt:?}: {e}"));
            assert_eq!(g2.num_nodes(), 3);
            assert_eq!(g2.num_edges(), 2);
            if fmt.lossless_for(&g) {
                assert_eq!(g, g2, "fmt {fmt:?} should be lossless");
            }
            if fmt.vertex_weights {
                assert_eq!(g2.vwgt(), g.vwgt());
            }
            if fmt.edge_weights {
                assert_eq!(g2.edge_weight_between(0, 1), Some(5));
            }
        }
        assert!(MetisFormat {
            vertex_sizes: false,
            vertex_weights: true,
            edge_weights: true
        }
        .lossless_for(&g));
        assert_eq!(MetisFormat::minimal_for(&g).code(), Some("011"));
    }

    #[test]
    fn minimal_format_drops_trivial_fields() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        let g = b.build();
        let fmt = MetisFormat::minimal_for(&g);
        assert_eq!(fmt.code(), None);
        assert!(fmt.lossless_for(&g));
        assert_eq!(parse_metis(&to_metis_string_fmt(&g, fmt)).unwrap(), g);
    }

    #[test]
    fn isolated_vertices_force_a_vertex_prefix() {
        let g = GraphBuilder::new(2).build(); // two isolated nodes
        let bare = MetisFormat::default();
        assert!(!bare.lossless_for(&g));
        let fmt = MetisFormat::minimal_for(&g);
        assert!(fmt.vertex_weights);
        assert_eq!(parse_metis(&to_metis_string_fmt(&g, fmt)).unwrap(), g);
    }

    #[test]
    fn vertex_sizes_are_round_trip_neutral() {
        let mut b = GraphBuilder::with_node_weights(vec![4, 7]);
        b.add_edge(0, 1, 3);
        let g = b.build();
        let fmt = MetisFormat {
            vertex_sizes: true,
            vertex_weights: true,
            edge_weights: true,
        };
        let text = to_metis_string_fmt(&g, fmt);
        assert!(text.starts_with("2 1 111\n"));
        assert_eq!(parse_metis(&text).unwrap(), g);
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let mut b = GraphBuilder::with_node_weights(vec![1, 2, 3, 4, 5]);
        b.add_edge(0, 1, 3);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 9);
        b.add_edge(3, 4, 2);
        b.add_edge(4, 0, 6);
        let g = b.build();
        let text = to_metis_string(&g);
        let g2 = parse_metis(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn file_roundtrip() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        let g = b.build();
        let dir = std::env::temp_dir().join("kappa_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.graph");
        write_metis(&g, &path).unwrap();
        let g2 = read_metis(&path).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn typed_errors_identify_the_failure() {
        assert_eq!(parse_metis(""), Err(MetisError::Empty));
        assert_eq!(parse_metis("%only\n% comments\n"), Err(MetisError::Empty));
        assert!(matches!(
            parse_metis("nonsense header"),
            Err(MetisError::Header { .. })
        ));
        assert!(matches!(
            parse_metis("2 1 badfmt\n2\n1\n"),
            Err(MetisError::Header { .. })
        ));
        assert!(matches!(
            parse_metis("2 1 0111\n2\n1\n"), // four fmt digits
            Err(MetisError::Header { .. })
        ));
        assert!(matches!(
            parse_metis("2 1 001 2\n2 1\n1 1\n"), // ncon without x1x
            Err(MetisError::Header { .. })
        ));
        assert!(matches!(
            parse_metis("2 1 011 0\n1 2 1\n1 1 1\n"), // ncon = 0
            Err(MetisError::Header { .. })
        ));
        assert!(matches!(
            parse_metis("2 1\n5\n1\n"), // neighbour id out of range
            Err(MetisError::Line { node: 1, .. })
        ));
        assert!(matches!(
            parse_metis("2 1\n2 2\n1\n"), // node 1 lists node 2 twice: 3 half-edges vs m = 1
            Err(MetisError::EdgeCount { .. })
        ));
        assert!(matches!(
            parse_metis("3 2\n2\n1 3\n2\n\n"), // fine: symmetric 4 = 2m
            Ok(_)
        ));
        assert!(matches!(
            parse_metis("2 1 011\n1 2 0\n1 1 0\n"), // zero edge weight
            Err(MetisError::Line { .. })
        ));
        assert!(matches!(
            parse_metis("3 1\n2\n1\n"), // only 2 of 3 adjacency lines
            Err(MetisError::Truncated {
                expected: 3,
                found: 2
            })
        ));
        // A symmetric listing with a header that miscounts edges as 4 looks
        // like the once-listed convention but contains duplicates — rejected
        // instead of silently summing the weights.
        assert!(matches!(
            parse_metis("4 4\n2\n1\n4\n3\n"),
            Err(MetisError::Duplicate { u: 1, v: 2 })
        ));
        assert!(matches!(
            parse_metis("2 5\n2\n1\n"), // 2 half-edges vs declared 5
            Err(MetisError::EdgeCount {
                declared: 5,
                listed: 2
            })
        ));
        assert!(matches!(
            read_metis(Path::new("/nonexistent/kappa.graph")),
            Err(MetisError::Io { .. })
        ));
    }

    #[test]
    fn errors_carry_physical_line_numbers() {
        // Comments and blank lines shift the physical position: node 2's
        // adjacency line is physical line 5.
        let text = "% header comment\n3 2\n2\n\n% mid comment\nbogus 3\n2\n";
        match parse_metis(text) {
            Err(MetisError::Line { node, line, .. }) => {
                assert_eq!(node, 2);
                assert_eq!(line, 6);
            }
            other => panic!("expected a Line error, got {other:?}"),
        }
        match parse_metis("% c\nnonsense header\n") {
            Err(MetisError::Header { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected a Header error, got {other:?}"),
        }
        let rendered = parse_metis(text).unwrap_err().to_string();
        assert!(rendered.contains("line 6"), "no line span in: {rendered}");
    }

    #[test]
    fn file_reads_stream_with_line_numbers() {
        let dir = std::env::temp_dir().join("kappa_io_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.graph");
        std::fs::write(&path, "2 1\n2\nbroken\n").unwrap();
        match read_metis(&path) {
            Err(MetisError::Line {
                node: 2, line: 3, ..
            }) => {}
            other => panic!("expected a Line error with span, got {other:?}"),
        }
    }

    /// Three files with `2m` entries that are not symmetric, each parsed
    /// without an error before the listing was checked.
    #[test]
    fn edge_listed_by_one_endpoint_only_is_rejected() {
        // Node 2 does not list node 1 (and node 1 does not list node 3).
        let err = parse_metis("3 2\n2\n3\n1 2\n").unwrap_err();
        assert_eq!(err, MetisError::Asymmetric { u: 1, v: 2 });
        assert!(err.to_string().contains("edge {1, 2}"), "{err}");
    }

    #[test]
    fn edge_listed_with_two_weights_is_rejected() {
        let err = parse_metis("2 1 001\n2 3\n1 5\n").unwrap_err();
        assert_eq!(err, MetisError::Asymmetric { u: 1, v: 2 });
    }

    #[test]
    fn edge_listed_twice_from_each_endpoint_is_rejected() {
        let err = parse_metis("2 2\n2 2\n1 1\n").unwrap_err();
        assert_eq!(err, MetisError::Asymmetric { u: 1, v: 2 });
    }

    #[test]
    fn self_loops_are_rejected() {
        assert!(matches!(
            parse_metis("2 2\n1 2\n2 1\n"),
            Err(MetisError::Line { node: 1, .. })
        ));
    }

    #[test]
    fn errors_render_and_convert_to_string() {
        let err = parse_metis("1 0 999").unwrap_err();
        let rendered = err.to_string();
        assert!(rendered.contains("fmt"), "unhelpful message: {rendered}");
        let as_string: String = err.into();
        assert_eq!(as_string, rendered);
        let trunc = MetisError::Truncated {
            expected: 7,
            found: 3,
        };
        assert!(trunc.to_string().contains('7'));
        assert!(std::error::Error::source(&trunc).is_none());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "% comment\n\n2 1\n\n2\n1\n";
        let g = parse_metis(text).unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
    }
}
