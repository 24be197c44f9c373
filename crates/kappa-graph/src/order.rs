//! Locality orders of the nodes (§3.3 of the paper): which node ids sit
//! close together in space or in the graph, so that a store can keep their
//! rows close together too.
//!
//! [`locality_order`] is the one decision: [`IdSpan`] tells an input whose
//! ids are already local (grid, delaunay, road: mean |u − v| / n ≤ 0.0023)
//! from a scattered one (rgg in generation order ≈ 0.33, rmat ≈ 0.28), and a
//! scattered input gets [`morton_order`] over its coordinates, or
//! [`bfs_order`] over its rows where it has none. [`NodeOrder`] is such an
//! order together with its inverse; the identity is never held as one.

use crate::access::GraphAccess;
use crate::csr::CsrGraph;
use crate::types::NodeId;

/// Mean |u − v| / n above which an input's ids count as scattered: an order
/// of magnitude above the local families, an order below the scattered ones.
const SCATTERED_MEAN_SPAN: f64 = 0.02;

/// A permutation of the nodes `0..n` that is not the identity: the node at
/// each position, and each node's position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeOrder {
    order: Vec<NodeId>,
    position: Vec<NodeId>,
}

impl NodeOrder {
    /// The order listing `order[p]` at position `p`; `None` for the
    /// identity, which needs no table.
    ///
    /// # Errors
    /// If `order` repeats a node or names one `>= order.len()`.
    pub fn new(order: Vec<NodeId>) -> Result<Option<Self>, String> {
        let n = order.len();
        let mut position = vec![NodeId::MAX; n];
        for (p, &v) in order.iter().enumerate() {
            match position.get_mut(v as usize) {
                Some(at) if *at == NodeId::MAX => *at = p as NodeId,
                Some(_) => return Err(format!("node {v} is listed twice")),
                None => return Err(format!("node {v} is out of range for {n} nodes")),
            }
        }
        let identity = order.iter().enumerate().all(|(p, &v)| v as usize == p);
        Ok((!identity).then_some(NodeOrder { order, position }))
    }

    /// The nodes in storage order.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.order
    }

    /// The position of node `v`.
    #[inline]
    pub fn position(&self, v: NodeId) -> usize {
        self.position[v as usize] as usize
    }
}

/// Running sum of |u − v| over a graph's edges: the one-pass locality test
/// of [`locality_order`], also fed by the degree count of a streamed build.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdSpan {
    sum: u128,
    edges: u64,
}

impl IdSpan {
    /// Counts the edge `{u, v}`.
    #[inline]
    pub fn add(&mut self, u: NodeId, v: NodeId) {
        self.sum += u128::from(u.abs_diff(v));
        self.edges += 1;
    }

    /// Whether the mean |u − v| over the counted edges exceeds 0.02 · `n`.
    pub fn is_scattered(&self, n: usize) -> bool {
        self.edges > 0 && self.sum as f64 / self.edges as f64 > SCATTERED_MEAN_SPAN * n as f64
    }
}

/// The order a store should keep `graph`'s rows in: `None` when the ids are
/// already local, else Morton order over the coordinates, or BFS order over
/// the rows when there are none.
pub fn locality_order(graph: &CsrGraph) -> Option<NodeOrder> {
    // Every edge is counted from both ends, which leaves the mean alone.
    let mut span = IdSpan::default();
    for u in graph.nodes() {
        for &v in graph.neighbors(u) {
            span.add(u, v);
        }
    }
    if !span.is_scattered(graph.num_nodes()) {
        return None;
    }
    let order = match graph.coords() {
        Some(coords) => morton_order(coords),
        None => bfs_order(graph),
    };
    NodeOrder::new(order).expect("a locality order is a permutation")
}

/// The nodes sorted by the Morton (Z-order) key of their cell in a grid of
/// about `n` square cells over the coordinates' bounding box, ties by id —
/// a counting sort, `O(n)`.
pub fn morton_order(coords: &[[f64; 2]]) -> Vec<NodeId> {
    let n = coords.len();
    // 4^bits cells, the fewest that are at least n (at most 2^16 per side).
    let bits = (0..16u32).find(|&b| 1usize << (2 * b) >= n).unwrap_or(16);
    let side = 1u64 << bits;
    let finite = |x: f64| if x.is_finite() { x } else { 0.0 };
    let (mut lo, mut hi) = ([f64::MAX; 2], [f64::MIN; 2]);
    for c in coords {
        for d in 0..2 {
            lo[d] = lo[d].min(finite(c[d]));
            hi[d] = hi[d].max(finite(c[d]));
        }
    }
    // Cells per unit of each axis; a flat axis puts every node in cell 0.
    let scale = [0, 1].map(|d| {
        let width = hi[d] - lo[d];
        if width > 0.0 {
            side as f64 / width
        } else {
            0.0
        }
    });
    let cell = |x: f64, d: usize| (((finite(x) - lo[d]) * scale[d]) as u64).min(side - 1);
    let keys: Vec<u32> = coords
        .iter()
        .map(|c| interleave(cell(c[0], 0)) | interleave(cell(c[1], 1)) << 1)
        .collect();
    let mut start = vec![0u32; (1usize << (2 * bits)) + 1];
    for &k in &keys {
        start[k as usize + 1] += 1;
    }
    for i in 1..start.len() {
        start[i] += start[i - 1];
    }
    let mut order = vec![0 as NodeId; n];
    for (v, &k) in keys.iter().enumerate() {
        order[start[k as usize] as usize] = v as NodeId;
        start[k as usize] += 1;
    }
    order
}

/// Spreads the low 16 bits of `x` to the even bit positions.
fn interleave(x: u64) -> u32 {
    let mut x = x & 0xFFFF;
    x = (x | x << 8) & 0x00FF_00FF;
    x = (x | x << 4) & 0x0F0F_0F0F;
    x = (x | x << 2) & 0x3333_3333;
    x = (x | x << 1) & 0x5555_5555;
    x as u32
}

/// Breadth-first order over the rows: each component from its smallest
/// node, neighbours in row order.
pub fn bfs_order<G: GraphAccess>(graph: &G) -> Vec<NodeId> {
    let n = graph.num_nodes();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for s in graph.nodes() {
        if seen[s as usize] {
            continue;
        }
        seen[s as usize] = true;
        let mut head = order.len();
        order.push(s);
        while head < order.len() {
            let u = order[head];
            head += 1;
            graph.for_each_edge(u, |v, _| {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    order.push(v);
                }
            });
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, GraphBuilder};

    #[test]
    fn identity_is_not_an_order_and_bad_tables_are_named() {
        assert_eq!(NodeOrder::new(vec![0, 1, 2]), Ok(None));
        assert_eq!(NodeOrder::new(vec![]), Ok(None));
        let o = NodeOrder::new(vec![2, 0, 1]).unwrap().unwrap();
        assert_eq!(o.nodes(), [2, 0, 1]);
        assert_eq!([0, 1, 2].map(|v| o.position(v)), [1, 2, 0]);
        assert!(NodeOrder::new(vec![1, 1, 0]).unwrap_err().contains("twice"));
        assert!(NodeOrder::new(vec![0, 3, 1]).unwrap_err().contains("range"));
    }

    #[test]
    fn local_ids_get_no_order() {
        // A 64 × 64 grid in row-major ids: mean span ≈ 32.5 / 4096.
        let w = 64;
        let mut edges = Vec::new();
        for y in 0..w {
            for x in 0..w {
                let v = y * w + x;
                if x + 1 < w {
                    edges.push((v, v + 1, 1));
                }
                if y + 1 < w {
                    edges.push((v, v + w, 1));
                }
            }
        }
        assert_eq!(
            locality_order(&graph_from_edges((w * w) as usize, edges)),
            None
        );
    }

    #[test]
    fn scattered_ids_get_morton_or_bfs_order() {
        // A path whose ids alternate ends: 0 – 3 – 1 – 2, spans 3, 2, 1.
        let path = graph_from_edges(4, vec![(0, 3, 1), (3, 1, 1), (1, 2, 1)]);
        let bfs = locality_order(&path).unwrap();
        assert_eq!(bfs.nodes(), [0, 3, 1, 2]);
        // The same path with coordinates along a line, node 2 leftmost: a
        // 2 × 2 grid of cells, nodes 1 and 2 in the left one, 0 and 3 in the
        // right one, ties by id.
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 3), (3, 1), (1, 2)] {
            b.add_edge(u, v, 1);
        }
        b.set_coords(vec![[3.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 0.0]]);
        assert_eq!(locality_order(&b.build()).unwrap().nodes(), [1, 2, 0, 3]);
    }

    #[test]
    fn morton_order_walks_the_quadrants_and_breaks_ties_by_id() {
        // Four quadrants of the unit square, two nodes in the top right.
        let coords = [[0.9, 0.9], [0.1, 0.1], [0.9, 0.1], [0.1, 0.9], [0.8, 0.8]];
        assert_eq!(morton_order(&coords), [1, 2, 3, 0, 4]);
        assert_eq!(morton_order(&[[1.0, 1.0]; 3]), [0, 1, 2]);
        assert!(morton_order(&[]).is_empty());
    }
}
