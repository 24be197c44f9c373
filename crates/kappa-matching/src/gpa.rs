//! The Global Path Algorithm (GPA) of Maue & Sanders (§3.2).
//!
//! GPA scans the edges in order of decreasing rating like Greedy, but instead
//! of matching immediately it grows a collection of *paths and even cycles*:
//! an edge is *applicable* if both endpoints have degree ≤ 1 in the structure
//! built so far and adding it does not close an odd cycle. Afterwards every
//! path/cycle is solved *optimally* by dynamic programming over its two
//! alternating sub-matchings. GPA keeps the ½-approximation guarantee of
//! Greedy but is empirically considerably better — which is why the paper
//! adopts it as the default matcher.
//!
//! The implementation pays per edge, not per path: phase 1 keeps, per node,
//! the `u32` ids of its (at most two) selected edges and the nodes across
//! them, plus a union-find for the odd-cycle test; phase 2 walks every path
//! and cycle node to node through those links into one reused chain buffer
//! and solves it in one reused set of DP buffers. Edges are scanned in list
//! order and every float operation of the DP happens in a fixed order, so
//! the matching is a pure function of the sorted edge list.

use kappa_graph::{GraphAccess, NodeId, INVALID_NODE};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::greedy::sort_by_rating_desc;
use crate::matching::Matching;
use crate::rating::{rated_edges, EdgeRating, RatedEdge};

/// Computes a GPA matching of `graph` under `rating`.
pub fn gpa_matching<G: GraphAccess>(graph: &G, rating: EdgeRating, seed: u64) -> Matching {
    let mut edges = rated_edges(graph, rating);
    let mut rng = StdRng::seed_from_u64(seed);
    edges.shuffle(&mut rng);
    sort_by_rating_desc(&mut edges);
    gpa_on_edges(graph.num_nodes(), &edges)
}

/// Union-find over nodes tracking, per component, the number of selected edges.
/// Used to detect whether an applicable edge would close an odd cycle.
struct PathForest {
    parent: Vec<NodeId>,
    /// Number of selected edges in the component rooted here.
    edge_count: Vec<u32>,
}

impl PathForest {
    fn new(n: usize) -> Self {
        PathForest {
            parent: (0..n as NodeId).collect(),
            edge_count: vec![0; n],
        }
    }

    fn find(&mut self, v: NodeId) -> NodeId {
        let mut root = v;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = v;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: NodeId, b: NodeId) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
            self.edge_count[rb as usize] += self.edge_count[ra as usize] + 1;
        } else {
            self.edge_count[rb as usize] += 1;
        }
    }
}

/// Marks an empty slot of a node's [`Links`].
const NO_EDGE: u32 = u32::MAX;

/// A node's place in the path/cycle structure GPA grows: its selected edges
/// (ids into the sorted edge list) and the node across each. Slot 0 fills
/// first, so the degree is the number of filled slots and a node has degree
/// 2 iff slot 1 is filled. The node across a slot lets phase 2 walk a chain
/// through these 16-byte records alone: the edge list is read for ratings,
/// never to find the next node.
#[derive(Clone, Copy)]
struct Links {
    edge: [u32; 2],
    across: [NodeId; 2],
}

impl Links {
    const NONE: Links = Links {
        edge: [NO_EDGE; 2],
        across: [INVALID_NODE; 2],
    };
}

/// GPA over an explicit pre-sorted (descending) edge list.
///
/// Edges are referred to by their `u32` position in the list, so the list may
/// hold at most `u32::MAX - 1` edges (panics above that — four billion
/// edges, far beyond any graph with `u32` node ids that fits in RAM).
///
/// Phase 2 walks each path from its smaller end node and each cycle from its
/// smallest node, clearing the links of every node it passes, and solves the
/// walked chain with one reused set of DP buffers.
pub fn gpa_on_edges(num_nodes: usize, edges_sorted_desc: &[RatedEdge]) -> Matching {
    assert!(
        edges_sorted_desc.len() < NO_EDGE as usize,
        "GPA numbers edges with u32 ids; {} edges do not fit",
        edges_sorted_desc.len()
    );
    // Phase 1: grow paths and even cycles.
    let mut links = vec![Links::NONE; num_nodes];
    let mut forest = PathForest::new(num_nodes);
    for (idx, e) in edges_sorted_desc.iter().enumerate() {
        let (u, v) = (e.u, e.v);
        let full = |w: NodeId| links[w as usize].edge[1] != NO_EDGE;
        if u == v || full(u) || full(v) {
            continue;
        }
        let (ru, rv) = (forest.find(u), forest.find(v));
        if ru == rv {
            // Same path: adding the edge closes a cycle. Only even cycles are
            // allowed (odd cycles cannot be decomposed into two alternating
            // matchings).
            let len = forest.edge_count[rv as usize];
            if len.is_multiple_of(2) {
                continue; // would close an odd cycle (len edges + 1 is odd)
            }
        }
        forest.union(u, v);
        for (w, across) in [(u, v), (v, u)] {
            let node = &mut links[w as usize];
            let slot = usize::from(node.edge[0] != NO_EDGE);
            node.edge[slot] = idx as u32;
            node.across[slot] = across;
        }
    }

    // Phase 2: decompose the selected structure into paths/cycles and solve
    // each optimally by DP. Paths first, from their end nodes (degree 1);
    // every node left with degree 2 afterwards lies on a cycle.
    let mut matching = Matching::new(num_nodes);
    let mut chain: Vec<RatedEdge> = Vec::new();
    let mut dp = ChainDp::default();
    for cycles in [false, true] {
        for start in 0..num_nodes {
            let [first, second] = links[start].edge;
            let degree_matches = if cycles {
                second != NO_EDGE
            } else {
                first != NO_EDGE && second == NO_EDGE
            };
            if degree_matches {
                walk_chain(&mut links, edges_sorted_desc, start as NodeId, &mut chain);
                dp.apply(&chain, &mut matching);
            }
        }
    }
    matching
}

/// Collects into `chain` the edges of the path or cycle through `start`, in
/// walking order, leaving `start` by its first slot. Every node passed has
/// its links cleared, so the chain is walked once and a cycle ends when it
/// reaches `start` again.
fn walk_chain(links: &mut [Links], edges: &[RatedEdge], start: NodeId, chain: &mut Vec<RatedEdge>) {
    chain.clear();
    let (mut cur, mut arrived_by) = (start, NO_EDGE);
    loop {
        let node = std::mem::replace(&mut links[cur as usize], Links::NONE);
        let slot = usize::from(node.edge[0] == arrived_by);
        let next = node.edge[slot];
        if next == NO_EDGE {
            return;
        }
        chain.push(edges[next as usize]);
        (cur, arrived_by) = (node.across[slot], next);
    }
}

/// The DP buffers of phase 2, shared by every path and cycle of one GPA run.
#[derive(Default)]
struct ChainDp {
    /// `take[i]`: best value of the chain prefix `..=i` taking edge `i`.
    take: Vec<f64>,
    /// `skip[i]`: best value of the chain prefix `..=i` not taking edge `i`.
    skip: Vec<f64>,
    /// Chain positions the last [`ChainDp::best_path_subset`] picked.
    picked: Vec<u32>,
    /// A cycle's other candidate subset.
    other: Vec<u32>,
}

impl ChainDp {
    /// Given the edges of a path or cycle (in traversal order), chooses the
    /// maximum-rating alternating subset and applies it to `matching`.
    ///
    /// For a path the optimal matching is found by a linear DP; for a cycle
    /// we run the path DP twice (once excluding the first edge, once
    /// excluding the last) and keep the better result — the standard
    /// reduction.
    fn apply(&mut self, chain: &[RatedEdge], matching: &mut Matching) {
        // A chain is a cycle iff it has at least 3 edges and the first and
        // last edge share an endpoint (the traversal returned to the start).
        let k = chain.len();
        let is_cycle = k >= 3 && {
            let (first, last) = (&chain[0], &chain[k - 1]);
            first.u == last.u || first.u == last.v || first.v == last.u || first.v == last.v
        };
        if is_cycle {
            self.best_path_subset(chain, 1..k);
            std::mem::swap(&mut self.picked, &mut self.other);
            self.best_path_subset(chain, 0..k - 1);
            let value =
                |subset: &[u32]| -> f64 { subset.iter().map(|&i| chain[i as usize].rating).sum() };
            if value(&self.picked) < value(&self.other) {
                std::mem::swap(&mut self.picked, &mut self.other);
            }
        } else {
            self.best_path_subset(chain, 0..k);
        }
        for &i in &self.picked {
            let e = &chain[i as usize];
            matching.try_match(e.u, e.v);
        }
    }

    /// Fills `picked` with the positions of a maximum-rating independent
    /// subset of the consecutive edges `chain[range]` (no two adjacent edges
    /// may both be picked) — the classic "maximum weight independent set on
    /// a path" DP — in backtracking order, last edge first.
    fn best_path_subset(&mut self, chain: &[RatedEdge], range: std::ops::Range<usize>) {
        self.picked.clear();
        let (offset, path) = (range.start, &chain[range]);
        let k = path.len();
        if k == 0 {
            return;
        }
        let (take, skip) = (&mut self.take, &mut self.skip);
        take.clear();
        take.resize(k, 0.0);
        skip.clear();
        skip.resize(k, 0.0);
        take[0] = path[0].rating;
        for i in 1..k {
            take[i] = skip[i - 1] + path[i].rating;
            skip[i] = take[i - 1].max(skip[i - 1]);
        }
        // Backtrack: at index i, an optimal prefix solution either takes edge
        // i (then continues at i - 2) or skips it (continues at i - 1).
        let mut i = k;
        while i > 0 {
            if take[i - 1] >= skip[i - 1] {
                self.picked.push((offset + i - 1) as u32);
                i = i.saturating_sub(2);
            } else {
                i -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_graph::builder::graph_from_edges;
    use kappa_graph::GraphBuilder;

    #[test]
    fn beats_greedy_on_alternating_path() {
        // Path with weights 2, 3, 2: greedy takes the 3 (total 3), GPA's DP
        // takes the two 2s (total 4).
        let g = graph_from_edges(4, vec![(0, 1, 2), (1, 2, 3), (2, 3, 2)]);
        let gpa = gpa_matching(&g, EdgeRating::Weight, 0);
        assert_eq!(gpa.total_weight(&g), 4);
        let greedy = crate::greedy::greedy_matching(&g, EdgeRating::Weight, 0);
        assert_eq!(greedy.total_weight(&g), 3);
    }

    #[test]
    fn optimal_on_even_cycle() {
        // 6-cycle with unit weights: optimum is 3 edges.
        let g = graph_from_edges(
            6,
            vec![
                (0, 1, 1),
                (1, 2, 1),
                (2, 3, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 0, 1),
            ],
        );
        let m = gpa_matching(&g, EdgeRating::Weight, 1);
        assert_eq!(m.cardinality(), 3);
        assert!(m.validate(Some(&g)).is_ok());
    }

    #[test]
    fn handles_odd_cycles_gracefully() {
        // Triangle: GPA may only select 2 of the 3 edges into its path
        // structure, and the matching has exactly one edge.
        let g = graph_from_edges(3, vec![(0, 1, 5), (1, 2, 4), (2, 0, 3)]);
        let m = gpa_matching(&g, EdgeRating::Weight, 2);
        assert_eq!(m.cardinality(), 1);
        assert!(m.validate(Some(&g)).is_ok());
        // It must pick the heaviest edge available on the path it kept.
        assert!(m.total_weight(&g) >= 4);
    }

    #[test]
    fn matching_is_valid_on_random_geometric_like_grid() {
        let mut b = GraphBuilder::new(64);
        for y in 0..8u32 {
            for x in 0..8u32 {
                let id = y * 8 + x;
                if x + 1 < 8 {
                    b.add_edge(id, id + 1, 1 + ((x + y) % 3) as u64);
                }
                if y + 1 < 8 {
                    b.add_edge(id, id + 8, 1 + ((x * y) % 4) as u64);
                }
            }
        }
        let g = b.build();
        for seed in 0..5 {
            let m = gpa_matching(&g, EdgeRating::ExpansionStar2, seed);
            assert!(m.validate(Some(&g)).is_ok());
            assert!(m.cardinality() >= 20, "cardinality {}", m.cardinality());
        }
    }

    #[test]
    fn gpa_weight_at_least_greedy_on_random_instances() {
        // GPA is empirically at least as good as Greedy; check on a few seeds.
        for seed in 0..4u64 {
            let mut b = GraphBuilder::new(40);
            let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for _ in 0..120 {
                let u = (next() % 40) as NodeId;
                let v = (next() % 40) as NodeId;
                if u != v {
                    b.add_edge(u, v, 1 + next() % 20);
                }
            }
            let g = b.build();
            let gpa = gpa_matching(&g, EdgeRating::Weight, seed).total_weight(&g);
            let greedy =
                crate::greedy::greedy_matching(&g, EdgeRating::Weight, seed).total_weight(&g);
            assert!(
                (gpa as f64) >= 0.95 * greedy as f64,
                "seed {seed}: gpa {gpa} much worse than greedy {greedy}"
            );
        }
    }

    /// The maximum weight of a set of pairwise non-adjacent edges of a path
    /// (or, with `cycle`, a cycle) with edge weights `w`, by exhaustion.
    fn brute_force_optimum(w: &[u64], cycle: bool) -> u64 {
        let k = w.len();
        (0u32..1 << k)
            .filter(|set| set & (set >> 1) == 0)
            .filter(|set| !cycle || (set & 1 == 0 || set >> (k - 1) & 1 == 0))
            .map(|set| (0..k).filter(|i| set >> i & 1 == 1).map(|i| w[i]).sum())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn optimal_on_a_union_of_paths_and_even_cycles() {
        // Every node has degree ≤ 2 and every cycle is even, so phase 1
        // keeps every edge and the DP alone decides. Long and short chains
        // alternate, so each chain is solved in buffers a chain of another
        // length used before.
        let components: [(usize, bool); 12] = [
            (7, false),
            (1, false),
            (10, true),
            (2, false),
            (4, true),
            (9, false),
            (3, false),
            (8, true),
            (5, false),
            (6, true),
            (12, true),
            (4, false),
        ];
        let mut edges = Vec::new();
        let mut optimum = 0;
        let mut first = 0u32;
        for (c, &(len, cycle)) in components.iter().enumerate() {
            let w: Vec<u64> = (0..len)
                .map(|i| 1 + (i as u64 * 7 + c as u64 * 3) % 5)
                .collect();
            optimum += brute_force_optimum(&w, cycle);
            let nodes = if cycle { len } else { len + 1 } as u32;
            for (i, &weight) in w.iter().enumerate() {
                let (a, b) = (i as u32, (i as u32 + 1) % nodes);
                edges.push((first + a, first + b, weight));
            }
            first += nodes;
        }
        let g = graph_from_edges(first as usize, edges);
        for seed in 0..8 {
            let m = gpa_matching(&g, EdgeRating::Weight, seed);
            assert!(m.validate(Some(&g)).is_ok());
            assert_eq!(m.total_weight(&g), optimum, "seed {seed}");
        }
    }

    #[test]
    fn empty_and_single_edge_graphs() {
        let g = graph_from_edges(2, vec![(0, 1, 3)]);
        let m = gpa_matching(&g, EdgeRating::Weight, 0);
        assert_eq!(m.cardinality(), 1);
        let empty = CsrGraph::empty();
        assert_eq!(gpa_matching(&empty, EdgeRating::Weight, 0).cardinality(), 0);
    }

    use kappa_graph::CsrGraph;
}
