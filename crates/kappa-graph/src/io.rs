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
//! Lines are rows: each adjacency line, sorted, is pushed in file order as its
//! node's row of a [`CsrRows`](crate::CsrRows). A symmetric (`2m`-entry) file
//! then costs the graph plus one line; a once-listed (`m`-entry) file also an
//! edge list and the counting build ([`fill_rows`]).

use std::fmt;
use std::fs;
use std::io::{self, BufRead as _, Write};
use std::path::{Path, PathBuf};

use crate::builder::{count_degrees, fill_rows};
use crate::csr::{CsrGraph, WeightOverflow, MAX_TOTAL_WEIGHT};
use crate::stream::SliceEdgeSource;
use crate::types::{EdgeWeight, NodeId};

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
                declared.saturating_mul(2)
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
///
/// Weights must obey the totals rule of [`crate::csr`]: a total node or
/// edge weight above [`MAX_TOTAL_WEIGHT`] is a [`MetisError::Line`] naming
/// the line on which the total passed it.
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

    // Lines are rows. Nothing is sized from the header, so a hostile header
    // allocates nothing.
    let mut rows = CsrGraph::rows(0, 0);
    let mut vwgt: Vec<u32> = Vec::new();
    let mut row: Vec<(NodeId, EdgeWeight)> = Vec::new();
    let mut found = 0usize;
    // The totals rule, checked as lines arrive. The listed half-edges sum
    // to `2ω(E)` in a symmetric file and to `ω(E)` in a once-listed one,
    // which is known only at the end: a weight past the bound or a sum past
    // twice the bound fails either way, a sum past the bound fails a
    // once-listed file at `once_over`.
    let (mut node_total, mut half_edge_total) = (0u64, 0u64);
    let mut once_over: Option<(usize, usize)> = None;
    for u in 0..n {
        let Some((line_no, line)) = next_content(&mut lines)? else {
            break;
        };
        found += 1;
        let node = u + 1; // 1-based, for error messages
        let err = |message: String| MetisError::Line {
            node,
            line: line_no,
            message,
        };
        let mut tokens = line.as_ref().split_whitespace();
        if flags.has_vsize {
            // Parsed for validation; sizes are a communication-volume input
            // this partitioner does not use.
            let missing = || err("missing vertex size".into());
            let tok = tokens.next().ok_or_else(missing)?;
            tok.parse::<u64>()
                .map_err(|e| err(format!("bad vertex size {tok:?}: {e}")))?;
        }
        let mut weight = 1;
        if flags.has_vwgt {
            for c in 0..ncon {
                let missing = || err(format!("missing vertex weight {} of {ncon}", c + 1));
                let tok = tokens.next().ok_or_else(missing)?;
                let w: u64 = tok
                    .parse()
                    .map_err(|e| err(format!("bad vertex weight {tok:?}: {e}")))?;
                // Only the first constraint is balanced.
                if c == 0 {
                    weight = w;
                }
            }
        }
        node_total = node_total.saturating_add(weight);
        if node_total > MAX_TOTAL_WEIGHT {
            return Err(err(WeightOverflow::Nodes.to_string()));
        }
        // Fits: the weight is at most the total, which is at most u32::MAX.
        vwgt.push(weight as u32);
        let tokens: Vec<&str> = tokens.collect();
        row.clear();
        let mut i = 0usize;
        while i < tokens.len() {
            let v: usize = tokens[i]
                .parse()
                .map_err(|e| err(format!("bad neighbour id {:?}: {e}", tokens[i])))?;
            if v == 0 || v > n {
                return Err(err(format!("neighbour id {v} out of range 1..={n}")));
            }
            if v == node {
                return Err(err("self loops are not allowed in METIS graphs".into()));
            }
            let w = if flags.has_ewgt {
                i += 1;
                let missing = || err(format!("missing edge weight after neighbour {v}"));
                let tok = tokens.get(i).ok_or_else(missing)?;
                tok.parse::<u64>()
                    .map_err(|e| err(format!("bad edge weight {tok:?}: {e}")))?
            } else {
                1
            };
            if w == 0 {
                return Err(err(format!(
                    "edge weight of neighbour {v} must be positive"
                )));
            }
            half_edge_total = half_edge_total.saturating_add(w);
            if w > MAX_TOTAL_WEIGHT || half_edge_total > 2 * MAX_TOTAL_WEIGHT {
                return Err(err(WeightOverflow::Edges.to_string()));
            }
            if half_edge_total > MAX_TOTAL_WEIGHT {
                once_over.get_or_insert((node, line_no));
            }
            i += 1;
            row.push(((v - 1) as NodeId, w));
        }
        row.sort_unstable_by_key(|&(t, _)| t);
        rows.push_node(row.iter().copied());
    }
    if found < n {
        return Err(MetisError::Truncated { expected: n, found });
    }
    let listed = rows.num_half_edges();
    if m.checked_mul(2) == Some(listed) {
        // Symmetric convention, one pass in node order: entry (u → v, w) with
        // u < v claims the next entry of row v, which must be (v → u, w). A
        // row departs at its first failed claim, else its first unclaimed
        // lower entry, else its first repeat; the first row to depart fails.
        let (xadj, adjncy) = (&rows.xadj, &rows.adjncy);
        let mut next = xadj[..found].to_vec();
        let mut departs = vec![NodeId::MAX; found];
        for u in 0..found {
            let (start, end) = (xadj[u], xadj[u + 1]);
            let split = start + adjncy[start..end].partition_point(|&t| (t as usize) < u);
            let repeat = (split + 1..end).find(|&i| adjncy[i - 1] == adjncy[i]);
            let t = match (departs[u], next[u] < split) {
                (NodeId::MAX, true) => Some(adjncy[next[u]]),
                (NodeId::MAX, false) => repeat.map(|i| adjncy[i]),
                (t, _) => Some(t),
            };
            if let Some(t) = t.map(|t| t as usize) {
                let (u, v) = (u.min(t) + 1, u.max(t) + 1);
                return Err(MetisError::Asymmetric { u, v });
            }
            for i in split..end {
                let (v, j) = (adjncy[i] as usize, next[adjncy[i] as usize]);
                if j < xadj[v + 1] && adjncy[j] as usize == u && rows.weight(j) == rows.weight(i) {
                    next[v] += 1;
                } else if departs[v] == NodeId::MAX {
                    let listed = if j < xadj[v + 1] {
                        adjncy[j]
                    } else {
                        NodeId::MAX
                    };
                    departs[v] = listed.min(u as NodeId);
                }
            }
        }
        rows.shrink_to_fit();
        Ok(rows.finish_stored(vwgt, None))
    } else if listed == m {
        // Once-listed convention: every entry is one edge, in either
        // direction. Reject duplicates — the counting build would sum them,
        // silently corrupting the graph (a symmetric file with a miscounted
        // header looks exactly like this).
        if let Some((node, line)) = once_over {
            let message = WeightOverflow::Edges.to_string();
            return Err(MetisError::Line {
                node,
                line,
                message,
            });
        }
        let mut edges: Vec<(NodeId, NodeId, EdgeWeight)> = Vec::with_capacity(m);
        for u in 0..found {
            let u = u as NodeId;
            edges.extend(rows.row(u as usize).map(|(v, w)| (u.min(v), u.max(v), w)));
        }
        edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
        if let Some(w) = edges
            .windows(2)
            .find(|w| w[0].0 == w[1].0 && w[0].1 == w[1].1)
        {
            return Err(MetisError::Duplicate {
                u: w[0].0 as usize + 1,
                v: w[0].1 as usize + 1,
            });
        }
        let src = SliceEdgeSource::new(found, &edges);
        Ok(fill_rows(&src, &count_degrees(&src), None, 0..found).finish_stored(vwgt, None))
    } else {
        Err(MetisError::EdgeCount {
            declared: m,
            listed,
        })
    }
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
        std::array::from_fn(|code| MetisFormat {
            vertex_sizes: code & 4 != 0,
            vertex_weights: code & 2 != 0,
            edge_weights: code & 1 != 0,
        })
    }

    /// The smallest format that loses nothing of `graph`: vertex weights are
    /// written iff some node weight differs from 1, edge weights iff some
    /// edge weight differs from 1 (absent fields default to 1 on read).
    pub fn minimal_for(graph: &CsrGraph) -> MetisFormat {
        let vertex_weights = !graph.has_unit_node_weights()
            // An isolated vertex needs some token on its line (see
            // `lossless_for`); the weight prefix is the cheapest.
            || graph.nodes().any(|v| graph.degree(v) == 0);
        MetisFormat {
            vertex_sizes: false,
            vertex_weights,
            edge_weights: !graph.has_unit_edge_weights(),
        }
    }

    /// True when a write → read round trip reproduces `graph` exactly: every
    /// field the format omits must be trivial (all-ones) in the graph, and —
    /// because [`parse_metis`] skips blank lines, so an isolated vertex needs
    /// at least one per-line token to keep its line non-empty — a format with
    /// no vertex prefix additionally requires every node to have an edge.
    pub fn lossless_for(&self, graph: &CsrGraph) -> bool {
        (self.vertex_weights || graph.has_unit_node_weights())
            && (self.edge_weights || graph.has_unit_edge_weights())
            && (self.vertex_sizes
                || self.vertex_weights
                || graph.nodes().all(|v| graph.degree(v) > 0))
    }

    /// The `fmt` field as written to the header, `None` when all flags are
    /// off (an absent field and `000` read identically).
    pub fn code(&self) -> Option<&'static str> {
        let code = [self.vertex_sizes, self.vertex_weights, self.edge_weights]
            .iter()
            .fold(0, |code, &flag| 2 * code + usize::from(flag));
        (code > 0).then(|| ["000", "001", "010", "011", "100", "101", "110", "111"][code])
    }
}

/// The historical default format: node and edge weights (fmt `011`).
const WEIGHTED: MetisFormat = MetisFormat {
    vertex_sizes: false,
    vertex_weights: true,
    edge_weights: true,
};

/// Serialises a graph to METIS text format with node and edge weights (fmt
/// `011`), the historical default. Use [`to_metis_string_fmt`] to pick the
/// fields explicitly.
pub fn to_metis_string(graph: &CsrGraph) -> String {
    to_metis_string_fmt(graph, WEIGHTED)
}

/// Serialises a graph to METIS text format with exactly the fields `fmt`
/// selects — the inverse of [`parse_metis`] for every fmt code.
///
/// The output follows the symmetric convention (every undirected edge listed
/// from both endpoints, `2m` half-edges). Omitted weights default to 1 on
/// read, so the round trip is exact iff
/// [`fmt.lossless_for(graph)`](MetisFormat::lossless_for).
pub fn to_metis_string_fmt(graph: &CsrGraph, fmt: MetisFormat) -> String {
    let mut out = Vec::new();
    write_metis_to(graph, fmt, &mut out).expect("writing into a Vec cannot fail");
    String::from_utf8(out).expect("METIS text is ASCII")
}

/// The one METIS writer: streams `graph` into `out` line by line, with the
/// fields `fmt` selects.
fn write_metis_to(graph: &CsrGraph, fmt: MetisFormat, out: &mut impl Write) -> io::Result<()> {
    write!(out, "{} {}", graph.num_nodes(), graph.num_edges())?;
    if let Some(code) = fmt.code() {
        write!(out, " {code}")?;
    }
    writeln!(out)?;
    for v in graph.nodes() {
        let mut sep = "";
        if fmt.vertex_sizes {
            write!(out, "1")?;
            sep = " ";
        }
        if fmt.vertex_weights {
            write!(out, "{sep}{}", graph.node_weight(v))?;
            sep = " ";
        }
        for (u, w) in graph.edges_of(v) {
            write!(out, "{sep}{}", u + 1)?;
            if fmt.edge_weights {
                write!(out, " {w}")?;
            }
            sep = " ";
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Reads a METIS graph from a file, streaming it line by line through a
/// buffered reader — the file text is never held in memory as a whole, so
/// multi-gigabyte instances parse in `O(m)` graph memory plus one line of
/// text. Errors keep the 1-based line number they were detected on.
pub fn read_metis(path: &Path) -> Result<CsrGraph, MetisError> {
    let io_err = |e: io::Error| MetisError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    };
    let file = fs::File::open(path).map_err(&io_err)?;
    let reader = io::BufReader::with_capacity(1 << 20, file);
    parse_metis_lines(reader.lines().map(|r| r.map_err(&io_err)))
}

/// Writes a graph to a file in METIS format (the fields of
/// [`to_metis_string`]), streamed through a buffered writer as
/// [`read_metis`] reads: the text is never held in memory as a whole.
pub fn write_metis(graph: &CsrGraph, path: &Path) -> Result<(), MetisError> {
    let io_err = |e: io::Error| MetisError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    };
    let file = fs::File::create(path).map_err(io_err)?;
    let mut out = io::BufWriter::with_capacity(1 << 20, file);
    write_metis_to(graph, WEIGHTED, &mut out)
        .and_then(|()| out.flush())
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
                assert!(g.nodes().all(|v| g2.node_weight(v) == g.node_weight(v)));
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
        assert!(parse_metis("3 2\n2\n1 3\n2\n\n").is_ok()); // fine: symmetric 4 = 2m
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

    /// Two faults, `{1, 3}` (node 1 omits node 3) and `{2, 4}` (node 4
    /// omits node 2). Node 2's line is what node 1's implies; node 3's line
    /// lists node 1, which node 1's line does not: the first line that
    /// departs is node 3's, at target 1 — the edge the reader named when it
    /// rebuilt the graph from the lower-endpoint entries.
    #[test]
    fn first_departing_line_names_the_edge() {
        let err = parse_metis("4 3\n2\n1 4\n1 4\n3\n").unwrap_err();
        assert_eq!(err, MetisError::Asymmetric { u: 1, v: 3 });
    }

    #[test]
    fn unsorted_lines_read_like_sorted_ones() {
        // fmt 011: node weight, then (neighbour, edge weight) pairs; the
        // same graph with every line in target order and shuffled.
        let sorted = "4 4 011\n2 2 5 3 1\n1 1 5 3 2 4 1\n3 1 1 2 2\n5 2 1\n";
        let shuffled = "4 4 011\n2 3 1 2 5\n1 4 1 1 5 3 2\n3 2 2 1 1\n5 2 1\n";
        let g = parse_metis(sorted).unwrap();
        assert_eq!(parse_metis(shuffled).unwrap(), g);
        assert!(g.validate().is_ok());
        assert_eq!(to_metis_string(&g), sorted);
    }

    #[test]
    fn once_listed_weighted_edges_in_both_directions() {
        // m = 4 entries: node 1 lists {1, 2}, node 3 lists {2, 3} and
        // {3, 4}, node 4 lists {1, 4}; node 2 lists nothing but its weight.
        let g = parse_metis("4 4 011\n1 2 4\n6\n1 2 7 4 1\n3 1 2\n").unwrap();
        let mut b = GraphBuilder::with_node_weights(vec![1, 6, 1, 3]);
        for (u, v, w) in [(0, 1, 4), (2, 1, 7), (2, 3, 1), (3, 0, 2)] {
            b.add_edge(u, v, w);
        }
        assert_eq!(g, b.build());
    }

    #[test]
    fn an_edge_count_past_half_the_address_space_is_an_error() {
        let err = parse_metis("2 9223372036854775808\n2\n1\n").unwrap_err();
        assert!(matches!(err, MetisError::EdgeCount { listed: 2, .. }));
        assert!(err.to_string().contains("expected 18446744073709551615"));
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
    fn weight_totals_past_u32_max_name_their_line() {
        let over = |text: &str| match parse_metis(text) {
            Err(MetisError::Line {
                node,
                line,
                message,
            }) if message.contains("exceeds 4294967295") => (node, line, message),
            other => panic!("{text:?} gave {other:?}"),
        };
        // Node weights 2^31 + 2^31 pass u32::MAX at node 2, file line 4.
        let (node, line, message) = over("% c\n2 1 010\n2147483648 2\n2147483648 1\n");
        assert_eq!((node, line), (2, 4));
        assert!(message.contains("total node weight"), "{message}");
        // One edge weight past u32::MAX, at its first listing.
        let (node, line, message) = over("2 1 001\n2 4294967296\n1 4294967296\n");
        assert_eq!((node, line), (1, 2));
        assert!(message.contains("total edge weight"), "{message}");
        // Symmetric: ω(E) = 2^31 + 2^31, listed twice, passes 2·u32::MAX
        // at the second edge's mirror (node 3, line 4).
        let symmetric = "3 2 001\n2 2147483648\n1 2147483648 3 2147483648\n2 2147483648\n";
        assert_eq!(over(symmetric).0, 3);
        // Once-listed: the same two edges listed once each; the sum passes
        // u32::MAX at node 2 (line 3), which only the convention decides.
        let once = "3 2 011\n1 2 2147483648\n1 3 2147483648\n1\n";
        assert_eq!(over(once).0, 2);
        // Exactly u32::MAX in both totals is inside the domain.
        let g = parse_metis("2 1 011\n4294967294 2 4294967295\n1 1 4294967295\n").unwrap();
        assert_eq!(g.total_edge_weight(), u64::from(u32::MAX));
        assert_eq!(g.total_node_weight(), u64::from(u32::MAX));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "% comment\n\n2 1\n\n2\n1\n";
        let g = parse_metis(text).unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
    }
}
