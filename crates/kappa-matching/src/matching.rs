//! The matching data structure shared by all matching algorithms.

use kappa_graph::{CsrGraph, EdgeWeight, NodeId, INVALID_NODE};

/// A matching `M ⊆ E`: a set of edges no two of which share a node (§2).
///
/// Stored as a partner array: `partner[v]` is the node matched to `v`, or
/// `INVALID_NODE` if `v` is unmatched. The invariant `partner[partner[v]] == v`
/// holds for every matched node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matching {
    partner: Vec<NodeId>,
}

impl Matching {
    /// The empty matching on `n` nodes.
    pub fn new(n: usize) -> Self {
        Matching {
            partner: vec![INVALID_NODE; n],
        }
    }

    /// Number of nodes this matching is defined over.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.partner.len()
    }

    /// True if `v` is matched.
    #[inline]
    pub fn is_matched(&self, v: NodeId) -> bool {
        self.partner[v as usize] != INVALID_NODE
    }

    /// The partner of `v`, if any.
    #[inline]
    pub fn partner_of(&self, v: NodeId) -> Option<NodeId> {
        let p = self.partner[v as usize];
        if p == INVALID_NODE {
            None
        } else {
            Some(p)
        }
    }

    /// Adds edge `{u, v}` to the matching.
    ///
    /// Returns `false` (and changes nothing) if either endpoint is already
    /// matched or `u == v`.
    pub fn try_match(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || self.is_matched(u) || self.is_matched(v) {
            return false;
        }
        self.partner[u as usize] = v;
        self.partner[v as usize] = u;
        true
    }

    /// Number of matched edges `|M|`.
    pub fn cardinality(&self) -> usize {
        self.partner.iter().filter(|&&p| p != INVALID_NODE).count() / 2
    }

    /// The matched edges, each once with `u < v`.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.cardinality());
        for (u, &p) in self.partner.iter().enumerate() {
            let u = u as NodeId;
            if p != INVALID_NODE && u < p {
                out.push((u, p));
            }
        }
        out
    }

    /// Total weight `ω(M)` of the matched edges in `graph`.
    pub fn total_weight(&self, graph: &CsrGraph) -> EdgeWeight {
        self.edges()
            .iter()
            .map(|&(u, v)| graph.edge_weight_between(u, v).unwrap_or(0))
            .sum()
    }

    /// Merges another matching defined on the same node set into this one.
    /// Edges of `other` whose endpoints are still free here are adopted.
    pub fn absorb(&mut self, other: &Matching) {
        debug_assert_eq!(self.num_nodes(), other.num_nodes());
        for (u, v) in other.edges() {
            self.try_match(u, v);
        }
    }

    /// Checks that the matching is structurally valid and (if a graph is given)
    /// that every matched pair is actually connected by an edge.
    pub fn validate(&self, graph: Option<&CsrGraph>) -> Result<(), String> {
        for (u, &p) in self.partner.iter().enumerate() {
            if p == INVALID_NODE {
                continue;
            }
            if p as usize >= self.partner.len() {
                return Err(format!("partner of {u} out of range"));
            }
            if self.partner[p as usize] != u as NodeId {
                return Err(format!("matching not symmetric at node {u}"));
            }
            if p as usize == u {
                return Err(format!("node {u} matched to itself"));
            }
            if let Some(g) = graph {
                if g.edge_weight_between(u as NodeId, p).is_none() {
                    return Err(format!("matched pair {{{u}, {p}}} is not an edge"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_graph::GraphBuilder;

    #[test]
    fn try_match_respects_existing_matches() {
        let mut m = Matching::new(4);
        assert!(m.try_match(0, 1));
        assert!(!m.try_match(1, 2));
        assert!(m.try_match(2, 3));
        assert_eq!(m.cardinality(), 2);
        assert_eq!(m.partner_of(1), Some(0));
        assert!(m.validate(None).is_ok());
    }

    #[test]
    fn self_match_is_rejected() {
        let mut m = Matching::new(2);
        assert!(!m.try_match(1, 1));
        assert_eq!(m.cardinality(), 0);
    }

    #[test]
    fn edges_and_weight() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 5);
        b.add_edge(2, 3, 7);
        b.add_edge(1, 2, 1);
        let g = b.build();
        let mut m = Matching::new(4);
        m.try_match(1, 0);
        m.try_match(3, 2);
        assert_eq!(m.edges(), vec![(0, 1), (2, 3)]);
        assert_eq!(m.total_weight(&g), 12);
        assert!(m.validate(Some(&g)).is_ok());
    }

    #[test]
    fn validate_detects_non_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        let g = b.build();
        let mut m = Matching::new(3);
        m.try_match(0, 2);
        assert!(m.validate(Some(&g)).is_err());
        assert!(m.validate(None).is_ok());
    }

    #[test]
    fn absorb_merges_compatible_edges() {
        let mut a = Matching::new(6);
        a.try_match(0, 1);
        let mut b = Matching::new(6);
        b.try_match(1, 2); // conflicts with a
        b.try_match(4, 5); // compatible
        a.absorb(&b);
        assert_eq!(a.cardinality(), 2);
        assert!(a.is_matched(4));
        assert!(!a.is_matched(2));
    }
}
