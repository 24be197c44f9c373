//! Incremental partition-boundary index.
//!
//! [`boundary_nodes`](crate::boundary::boundary_nodes) and
//! [`pair_boundary_nodes`](crate::boundary::pair_boundary_nodes) rescan the
//! whole graph — `O(n + m)` per call — which makes every band extraction of
//! the pairwise refinement scale with *total* graph size instead of boundary
//! size. KaHIP's line of partitioners keeps an incremental boundary for
//! exactly this reason, and §5.2 of the paper restricts each 2-way search to
//! a band grown from the pair boundary, so the boundary is the natural unit
//! of refinement cost.
//!
//! [`BoundaryIndex`] maintains, for every node, the number of neighbours it
//! has in each adjacent block (a sorted run-length list, at most `deg(v)`
//! entries), and from that a membership list of all current boundary nodes.
//! A single node move is absorbed in `O(deg(v) · log maxdeg)` by
//! [`BoundaryIndex::apply_move`]; extracting the boundary of a block pair
//! costs `O(|boundary| + |pair boundary| · log)` via
//! [`BoundaryIndex::pair_boundary_sorted`] — independent of `n` and `m`. The
//! refinement schedulers extract the boundaries of a whole colour class at
//! once with [`BoundaryIndex::class_boundaries_sorted`]: the class's pairs
//! are block-disjoint, so one pass over the boundary list buckets every node
//! to its pair, and a class costs `O(|boundary|)` plus the bucket sorts
//! instead of `O(|boundary|)` per pair.
//!
//! The index holds no node → block map. Its owner keeps one — a
//! [`PartitionState`](crate::PartitionState) its partition, a distributed
//! shard its committed blocks — and passes it, as a [`BlockAssignment`], to
//! every method that needs a node's block; a mutation sees it *after* the
//! change. Membership is computed: a node is on the boundary when its count
//! segment holds a block other than its own, which the segment's length and
//! first entry answer in `O(1)`. The full-scan functions in
//! [`crate::boundary`] are the ground truth the index is checked against
//! (unit tests here, property and parity tests at the workspace level).
//!
//! ## Storage layout
//!
//! Per node: the arena `start` (8 B), the segment's `cap` and `len` and the
//! boundary-list position `pos` (4 B each) — 20 B. Node `v`'s counts occupy
//! `start[v] .. start[v] + len[v]` of one flat `Vec<(BlockId, u32)>` arena.
//! A build appends each segment as it scans and leaves it exactly full
//! (`cap[v] = len[v]`): an interior node holds its one `(own block, deg)`
//! entry, a boundary node its run-length list, an isolated node nothing.
//! The arena therefore holds `Σ len(v)` slots — about `n` on a typical
//! partition — instead of the `2m` a segment of `deg(v)` slots per node
//! would take (11.2 MiB per projection of rgg 2^17), and a build allocates
//! a constant number of vectors, not one per node.
//!
//! ## Growth and streaming mutations
//!
//! Any new `(block, count)` entry can find its segment full: a move
//! ([`apply_move`](BoundaryIndex::apply_move)) that brings a block next to
//! a node for the first time, or a
//! [`DynamicGraph`](crate::dynamic::DynamicGraph) mutation absorbed by
//! [`edge_inserted`](BoundaryIndex::edge_inserted) /
//! [`edge_deleted`](BoundaryIndex::edge_deleted) /
//! [`node_inserted`](BoundaryIndex::node_inserted) /
//! [`node_deleted`](BoundaryIndex::node_deleted). Both take the one path:
//! the insert relocates the segment to the end of the arena with doubled
//! capacity (minimum 2; amortised `O(1)` per insert), leaving the old slots
//! zeroed and dead. Equality ([`PartialEq`],
//! [`equivalent`](BoundaryIndex::equivalent)) compares live segments only,
//! so a relocated layout and a fresh build still compare equal when their
//! contents agree.

use crate::access::GraphAccess;
use crate::partition::BlockAssignment;
use crate::types::{BlockId, NodeId, INVALID_NODE};

/// Incrementally maintained boundary information for one partition, whose
/// node → block map the caller keeps and passes in.
///
/// ```
/// use kappa_graph::{graph_from_edges, BoundaryIndex, Partition};
///
/// // A path 0 - 1 - 2 - 3 split 2 | 2.
/// let g = graph_from_edges(4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
/// let mut p = Partition::from_assignment(2, vec![0, 0, 1, 1]);
/// let mut index = BoundaryIndex::build(&g, &p);
/// assert_eq!(index.boundary_nodes_sorted(), vec![1, 2]);
///
/// // Move node 2 across the cut: the boundary shifts to {2, 3}.
/// p.assign(2, 0);
/// index.apply_move(&g, &p, 2, 1, 0);
/// assert_eq!(index.boundary_nodes_sorted(), vec![2, 3]);
/// assert_eq!(index.pair_boundary_sorted(&p, 0, 1), vec![2, 3]);
/// ```
#[derive(Clone, Debug)]
pub struct BoundaryIndex {
    /// Arena segment start per node: node `v`'s count slots are
    /// `start[v]..start[v] + cap[v]`, of which the first `len[v]` are live.
    start: Vec<usize>,
    /// Segment capacity per node (`len[v]` after a build; doubled when an
    /// insert finds the segment full).
    cap: Vec<u32>,
    /// Live entries per node segment.
    len: Vec<u32>,
    /// Flat arena of `(block, count)` pairs: for every node, the blocks with
    /// at least one neighbour of the node, sorted by block id within the
    /// node's segment. Dead slots are zeroed.
    counts: Vec<(BlockId, u32)>,
    /// Position of each boundary node inside `list` (`INVALID_NODE` if absent).
    pos: Vec<NodeId>,
    /// The boundary set in unspecified order (swap-remove on leave).
    list: Vec<NodeId>,
}

/// Structural equality: **live** neighbour counts per node and the boundary
/// membership list including its internal order. Dead arena slots are
/// ignored.
impl PartialEq for BoundaryIndex {
    fn eq(&self, other: &Self) -> bool {
        self.pos == other.pos && self.list == other.list && self.same_counts(other)
    }
}

impl Eq for BoundaryIndex {}

impl BoundaryIndex {
    /// Builds the index from scratch in `O(n + m log maxdeg)`: every node is
    /// a candidate of [`build_seeded`](Self::build_seeded), so both builders
    /// share one per-node scan and cannot drift apart.
    pub fn build<G: GraphAccess, A: BlockAssignment>(graph: &G, partition: &A) -> Self {
        Self::build_seeded(graph, partition, |_| true)
    }

    /// Builds the index scanning edges of **candidate** nodes only.
    ///
    /// Precondition: every non-candidate node has all of its neighbours in
    /// its own block (it is interior, and stays so under any assignment the
    /// caller derived the candidate set from). The uncoarsening projection
    /// satisfies this with "candidate ⇔ coarse image is boundary": a fine
    /// node whose coarse image is interior has all coarse-neighbour images in
    /// the same block, hence all fine neighbours too — so the fine boundary
    /// is a subset of the image of the coarse boundary.
    ///
    /// For a non-candidate the neighbour-count list is appended directly as
    /// `[(own block, deg)]` in `O(1)`; candidates get the same `O(deg · log)`
    /// treatment as in [`build`](Self::build). Under the precondition the
    /// result is **identical** to a full build (asserted in debug builds),
    /// but costs `O(n + Σ_{candidates} deg)` instead of `O(n + m)`. Every
    /// segment is built exactly full, so the arena holds `Σ len(v)` slots
    /// (see the module's storage layout).
    pub fn build_seeded<G, A, F>(graph: &G, partition: &A, mut is_candidate: F) -> Self
    where
        G: GraphAccess,
        A: BlockAssignment,
        F: FnMut(NodeId) -> bool,
    {
        let n = graph.num_nodes();
        let mut index = BoundaryIndex {
            start: Vec::with_capacity(n),
            cap: Vec::with_capacity(n),
            len: Vec::with_capacity(n),
            // Every node with a neighbour holds at least one entry.
            counts: Vec::with_capacity(n),
            pos: vec![INVALID_NODE; n],
            list: Vec::new(),
        };
        let mut scratch: Vec<BlockId> = Vec::new();
        for v in GraphAccess::nodes(graph) {
            let start = index.counts.len();
            let own = partition.block_of(v);
            if !is_candidate(v) {
                // Interior by precondition: every neighbour shares v's block.
                debug_assert!(
                    {
                        let mut interior = true;
                        graph.for_each_edge(v, |u, _| interior &= partition.block_of(u) == own);
                        interior
                    },
                    "non-candidate node {v} has a foreign neighbour"
                );
                let deg = graph.degree(v) as u32;
                if deg > 0 {
                    index.counts.push((own, deg));
                }
            } else {
                scratch.clear();
                graph.for_each_edge(v, |u, _| scratch.push(partition.block_of(u)));
                scratch.sort_unstable();
                for &b in scratch.iter() {
                    match index.counts[start..].last_mut() {
                        Some(last) if last.0 == b => last.1 += 1,
                        _ => index.counts.push((b, 1)),
                    }
                }
            }
            // The segment is exactly full: capacity = live entries.
            let entries = (index.counts.len() - start) as u32;
            index.start.push(start);
            index.cap.push(entries);
            index.len.push(entries);
            if index.has_foreign(v, own) {
                index.enter_boundary(v);
            }
        }
        index
    }

    /// The live `(block, count)` entries of node `v`, sorted by block id.
    #[inline]
    fn node_counts(&self, v: NodeId) -> &[(BlockId, u32)] {
        let start = self.start[v as usize];
        &self.counts[start..start + self.len[v as usize] as usize]
    }

    /// Same node count and the same live neighbour counts at every node.
    fn same_counts(&self, other: &Self) -> bool {
        self.len.len() == other.len.len()
            && (0..self.len.len() as NodeId).all(|v| self.node_counts(v) == other.node_counts(v))
    }

    /// Semantic equality: same neighbour counts and boundary *set*, ignoring
    /// the internal order of the membership list (a maintained index
    /// accumulates swap-remove order, a fresh build is ascending — no
    /// consumer observes the difference). The derived `PartialEq` is
    /// stricter and additionally compares that order; freshly built indices
    /// (full or seeded) agree under it.
    pub fn equivalent(&self, other: &Self) -> bool {
        self.same_counts(other) && self.boundary_nodes_sorted() == other.boundary_nodes_sorted()
    }

    /// Number of neighbours of `v` currently in block `b`.
    #[inline]
    pub fn count(&self, v: NodeId, b: BlockId) -> u32 {
        let counts = self.node_counts(v);
        match counts.binary_search_by_key(&b, |&(block, _)| block) {
            Ok(i) => counts[i].1,
            Err(_) => 0,
        }
    }

    /// True if `v` has at least one neighbour in a foreign block.
    #[inline]
    pub fn is_boundary(&self, v: NodeId) -> bool {
        self.pos[v as usize] != INVALID_NODE
    }

    /// True if `v`'s count segment holds a block other than `own`, its own:
    /// one entry is foreign unless it is `own`, two or more always hold one.
    #[inline]
    fn has_foreign(&self, v: NodeId, own: BlockId) -> bool {
        match self.len[v as usize] {
            0 => false,
            1 => self.counts[self.start[v as usize]].0 != own,
            _ => true,
        }
    }

    /// The boundary set in unspecified (membership) order — `O(1)` access to
    /// the live list, for callers that sort or filter themselves.
    #[inline]
    pub fn boundary_nodes_unordered(&self) -> &[NodeId] {
        &self.list
    }

    /// The boundary set sorted by node id — same output as a fresh
    /// [`boundary_nodes`](crate::boundary::boundary_nodes) scan, in
    /// `O(|boundary| log |boundary|)`.
    pub fn boundary_nodes_sorted(&self) -> Vec<NodeId> {
        let mut nodes = self.list.clone();
        nodes.sort_unstable();
        nodes
    }

    /// The boundary of the pair `{a, b}` under `blocks` (the assignment the
    /// index describes), sorted by node id — same output as a fresh
    /// [`pair_boundary_nodes`](crate::boundary::pair_boundary_nodes) scan, in
    /// `O(|boundary|)` plus the sort of the (smaller) result.
    pub fn pair_boundary_sorted<A: BlockAssignment>(
        &self,
        blocks: &A,
        a: BlockId,
        b: BlockId,
    ) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .list
            .iter()
            .copied()
            .filter(|&v| {
                let bv = blocks.block_of(v);
                (bv == a && self.count(v, b) > 0) || (bv == b && self.count(v, a) > 0)
            })
            .collect();
        nodes.sort_unstable();
        nodes
    }

    /// The pair boundaries of a colour class under `blocks`, in class order,
    /// each sorted by node id — one
    /// [`pair_boundary_sorted`](Self::pair_boundary_sorted) per pair, from a
    /// single pass over the boundary list. The pairs of `class` must be
    /// block-disjoint (the pairs of one colour of the quotient's edge
    /// colouring are), so each boundary node belongs to the bucket of at most
    /// one pair: the one holding its own block.
    pub fn class_boundaries_sorted<A: BlockAssignment>(
        &self,
        blocks: &A,
        class: &[(BlockId, BlockId)],
    ) -> Vec<Vec<NodeId>> {
        // Per block: the index of its pair in `class` and the partner block.
        let mut pair_of = vec![(u32::MAX, 0); blocks.k() as usize];
        for (i, &(a, b)) in class.iter().enumerate() {
            debug_assert!(
                pair_of[a as usize].0 == u32::MAX && pair_of[b as usize].0 == u32::MAX,
                "class pairs share a block"
            );
            pair_of[a as usize] = (i as u32, b);
            pair_of[b as usize] = (i as u32, a);
        }
        let mut buckets = vec![Vec::new(); class.len()];
        for &v in &self.list {
            let (i, partner) = pair_of[blocks.block_of(v) as usize];
            if i != u32::MAX && self.count(v, partner) > 0 {
                buckets[i as usize].push(v);
            }
        }
        for bucket in &mut buckets {
            bucket.sort_unstable();
        }
        buckets
    }

    /// Absorbs the move of `v` from block `from` to block `to`, updating the
    /// neighbour counts and boundary membership of `v` and all its
    /// neighbours in `O(deg(v) · log maxdeg)`. `blocks` is the assignment
    /// *after* the move: `v` in `to`, every other node where it was. A no-op
    /// when `from == to`.
    ///
    /// Generic over [`GraphAccess`] so the same code path serves the frozen
    /// [`CsrGraph`](crate::csr::CsrGraph) and a mid-stream
    /// [`DynamicGraph`](crate::dynamic::DynamicGraph).
    pub fn apply_move<G: GraphAccess, A: BlockAssignment>(
        &mut self,
        graph: &G,
        blocks: &A,
        v: NodeId,
        from: BlockId,
        to: BlockId,
    ) {
        if from == to {
            return;
        }
        debug_assert_eq!(
            blocks.block_of(v),
            to,
            "node {v} is not in its target block"
        );
        graph.for_each_edge(v, |u, _w| {
            // Neighbour `u` sees one neighbour (`v`) switch `from` → `to`.
            self.adjust_count(u, from, -1);
            self.adjust_count(u, to, 1);
            self.update_membership(u, blocks.block_of(u));
        });
        // `v`'s neighbour counts are unchanged, but its own block moved.
        self.update_membership(v, to);
    }

    /// Absorbs the insertion of a new edge `{v, u}` in `O(log maxdeg)`
    /// amortised: each endpoint gains one neighbour in the other's block
    /// under `blocks`. The edge weight is irrelevant to boundary structure.
    pub fn edge_inserted<A: BlockAssignment>(&mut self, blocks: &A, v: NodeId, u: NodeId) {
        debug_assert_ne!(v, u, "self-loops cannot be inserted");
        self.edge_delta(blocks, v, u, 1);
    }

    /// Absorbs the deletion of an existing edge `{v, u}` — the exact inverse
    /// of [`edge_inserted`](Self::edge_inserted).
    pub fn edge_deleted<A: BlockAssignment>(&mut self, blocks: &A, v: NodeId, u: NodeId) {
        self.edge_delta(blocks, v, u, -1);
    }

    /// Each endpoint of edge `{v, u}` gained (`delta = 1`) or lost
    /// (`delta = -1`) one neighbour in the other's block.
    fn edge_delta<A: BlockAssignment>(&mut self, blocks: &A, v: NodeId, u: NodeId, delta: i32) {
        let (bv, bu) = (blocks.block_of(v), blocks.block_of(u));
        self.adjust_count(v, bu, delta);
        self.update_membership(v, bv);
        self.adjust_count(u, bv, delta);
        self.update_membership(u, bu);
    }

    /// Appends a fresh isolated node with a zero-capacity count segment (the
    /// first incident [`edge_inserted`](Self::edge_inserted) grows it). Its
    /// id is the previous node count.
    pub fn node_inserted(&mut self) {
        self.start.push(self.counts.len());
        self.cap.push(0);
        self.len.push(0);
        self.pos.push(INVALID_NODE);
    }

    /// Marks node `v` deleted. Ids stay stable — the node remains in every
    /// array as an isolated interior node, exactly what a fresh build on the
    /// mutated graph produces for it — so the only work is checking the
    /// precondition that all incident edges were deleted first.
    pub fn node_deleted(&mut self, v: NodeId) {
        debug_assert_eq!(self.len[v as usize], 0, "node {v} still has incident edges");
        debug_assert!(!self.is_boundary(v), "deleted node {v} on boundary");
    }

    /// Adds `delta` to `count(v, b)`, inserting or removing the run entry by
    /// shifting within `v`'s arena segment. A build leaves every segment
    /// exactly full, so the first new entry of a node — a block that a move
    /// or a streaming edge insert brings next to it — relocates the segment
    /// with room to spare ([`grow_segment`](Self::grow_segment)).
    fn adjust_count(&mut self, v: NodeId, b: BlockId, delta: i32) {
        let mut start = self.start[v as usize];
        let live = self.len[v as usize] as usize;
        match self.counts[start..start + live].binary_search_by_key(&b, |&(block, _)| block) {
            Ok(i) => {
                let c = self.counts[start + i].1 as i64 + delta as i64;
                debug_assert!(c >= 0, "negative neighbour count for node {v}");
                if c == 0 {
                    // Shift the tail left over the removed entry; zero the
                    // vacated slot so dead slots stay in a canonical state.
                    self.counts
                        .copy_within(start + i + 1..start + live, start + i);
                    self.counts[start + live - 1] = (0, 0);
                    self.len[v as usize] -= 1;
                } else {
                    self.counts[start + i].1 = c as u32;
                }
            }
            Err(i) => {
                debug_assert!(delta > 0, "decrement of absent count for node {v}");
                if live == self.cap[v as usize] as usize {
                    start = self.grow_segment(v);
                }
                self.counts
                    .copy_within(start + i..start + live, start + i + 1);
                self.counts[start + i] = (b, delta as u32);
                self.len[v as usize] += 1;
            }
        }
    }

    /// Relocates node `v`'s segment to the end of the arena with doubled
    /// capacity (minimum 2) and returns the new start. The abandoned slots
    /// are zeroed; the arena never shrinks, but growth is amortised `O(1)`
    /// per insert and a fresh build restores the exact-fit layout.
    fn grow_segment(&mut self, v: NodeId) -> usize {
        let vi = v as usize;
        let old_start = self.start[vi];
        let live = self.len[vi] as usize;
        let new_cap = (self.cap[vi] as usize * 2).max(2);
        let new_start = self.counts.len();
        self.counts.resize(new_start + new_cap, (0, 0));
        for i in 0..live {
            self.counts[new_start + i] = self.counts[old_start + i];
            self.counts[old_start + i] = (0, 0);
        }
        self.start[vi] = new_start;
        self.cap[vi] = new_cap as u32;
        new_start
    }

    /// Brings `v`'s list membership in line with its counts, `own` being its
    /// block.
    fn update_membership(&mut self, v: NodeId, own: BlockId) {
        let should = self.has_foreign(v, own);
        if should && !self.is_boundary(v) {
            self.enter_boundary(v);
        } else if !should && self.is_boundary(v) {
            self.leave_boundary(v);
        }
    }

    fn enter_boundary(&mut self, v: NodeId) {
        self.pos[v as usize] = self.list.len() as NodeId;
        self.list.push(v);
    }

    fn leave_boundary(&mut self, v: NodeId) {
        let p = self.pos[v as usize] as usize;
        self.pos[v as usize] = INVALID_NODE;
        let last = *self.list.last().expect("leave from empty boundary list");
        self.list.swap_remove(p);
        if last != v {
            self.pos[last as usize] = p as NodeId;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{boundary_nodes, pair_boundary_nodes};
    use crate::builder::{graph_from_edges, GraphBuilder};
    use crate::csr::CsrGraph;
    use crate::dynamic::DynamicGraph;
    use crate::partition::Partition;

    fn assert_matches_fresh_scan(graph: &CsrGraph, partition: &Partition, index: &BoundaryIndex) {
        assert_eq!(
            index.boundary_nodes_sorted(),
            boundary_nodes(graph, partition),
            "boundary set diverged"
        );
        for a in 0..partition.k() {
            for b in 0..partition.k() {
                if a == b {
                    continue;
                }
                assert_eq!(
                    index.pair_boundary_sorted(partition, a, b),
                    pair_boundary_nodes(graph, partition, a, b),
                    "pair ({a}, {b}) boundary diverged"
                );
            }
        }
    }

    #[test]
    fn build_matches_full_scan_on_a_grid() {
        let mut b = GraphBuilder::new(16);
        for y in 0..4u32 {
            for x in 0..4u32 {
                let v = y * 4 + x;
                if x + 1 < 4 {
                    b.add_edge(v, v + 1, 1);
                }
                if y + 1 < 4 {
                    b.add_edge(v, v + 4, 1);
                }
            }
        }
        let g = b.build();
        let p = Partition::from_assignment(
            4,
            (0..16)
                .map(|i| ((i % 4) / 2 + (i / 8) * 2) as u32)
                .collect(),
        );
        let index = BoundaryIndex::build(&g, &p);
        assert_matches_fresh_scan(&g, &p, &index);
    }

    #[test]
    fn moves_keep_the_index_in_sync() {
        let g = graph_from_edges(
            6,
            vec![
                (0, 1, 1),
                (1, 2, 1),
                (2, 3, 1),
                (3, 4, 1),
                (4, 5, 1),
                (0, 5, 1),
            ],
        );
        let mut p = Partition::from_assignment(3, vec![0, 0, 1, 1, 2, 2]);
        let mut index = BoundaryIndex::build(&g, &p);
        assert_matches_fresh_scan(&g, &p, &index);
        for (v, to) in [(2u32, 0u32), (3, 2), (0, 1), (5, 0), (2, 2), (2, 1)] {
            let from = p.block_of(v);
            p.assign(v, to);
            index.apply_move(&g, &p, v, from, to);
            let foreign = g.edges_of(v).any(|(u, _)| p.block_of(u) != to);
            assert_eq!(index.is_boundary(v), foreign);
            assert_matches_fresh_scan(&g, &p, &index);
        }
    }

    #[test]
    fn move_to_same_block_is_a_no_op() {
        let g = graph_from_edges(3, vec![(0, 1, 1), (1, 2, 1)]);
        let p = Partition::from_assignment(2, vec![0, 0, 1]);
        let mut index = BoundaryIndex::build(&g, &p);
        let before = index.boundary_nodes_sorted();
        index.apply_move(&g, &p, 1, 0, 0);
        assert_eq!(index.boundary_nodes_sorted(), before);
    }

    #[test]
    fn counts_track_neighbour_blocks() {
        let g = graph_from_edges(4, vec![(0, 1, 1), (0, 2, 1), (0, 3, 1)]);
        let mut p = Partition::from_assignment(3, vec![0, 0, 1, 2]);
        let mut index = BoundaryIndex::build(&g, &p);
        assert_eq!(index.count(0, 0), 1);
        assert_eq!(index.count(0, 1), 1);
        assert_eq!(index.count(0, 2), 1);
        p.assign(3, 1);
        index.apply_move(&g, &p, 3, 2, 1);
        assert_eq!(index.count(0, 2), 0);
        assert_eq!(index.count(0, 1), 2);
        assert_eq!(index.count(1, 0), 1);
    }

    #[test]
    fn streaming_edge_hooks_match_a_fresh_build() {
        // Path 0-1-2-3 split 2 | 2; insert a chord, delete a path edge, then
        // append a node and wire it in. After every hook the maintained index
        // must be equivalent to a from-scratch build on the mutated graph.
        let p = Partition::from_assignment(2, vec![0, 0, 1, 1]);
        let g0 = graph_from_edges(4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let mut index = BoundaryIndex::build(&g0, &p);

        index.edge_inserted(&p, 0, 3);
        let g1 = graph_from_edges(4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]);
        assert!(index.equivalent(&BoundaryIndex::build(&g1, &p)));

        index.edge_deleted(&p, 1, 2);
        let g2 = graph_from_edges(4, vec![(0, 1, 1), (2, 3, 1), (0, 3, 1)]);
        assert!(index.equivalent(&BoundaryIndex::build(&g2, &p)));

        let p3 = Partition::from_assignment(2, vec![0, 0, 1, 1, 1]);
        index.node_inserted();
        index.edge_inserted(&p3, 4, 0);
        let g3 = graph_from_edges(5, vec![(0, 1, 1), (2, 3, 1), (0, 3, 1), (0, 4, 1)]);
        assert!(index.equivalent(&BoundaryIndex::build(&g3, &p3)));
    }

    #[test]
    fn segments_grow_past_built_capacity_and_shrink_back() {
        // Node 0 is built with degree 1 (capacity 1); streaming inserts give
        // it neighbours in four more distinct blocks, forcing repeated
        // segment relocation, then deletes walk it back down.
        let g0 = graph_from_edges(6, vec![(0, 1, 1)]);
        let p = Partition::from_assignment(6, (0..6).collect());
        let mut index = BoundaryIndex::build(&g0, &p);
        let mut edges = vec![(0u32, 1u32, 1u64)];
        for u in 2..6u32 {
            index.edge_inserted(&p, 0, u);
            edges.push((0, u, 1));
            let g = graph_from_edges(6, edges.clone());
            assert!(
                index.equivalent(&BoundaryIndex::build(&g, &p)),
                "insert {u}"
            );
        }
        for u in (2..6u32).rev() {
            index.edge_deleted(&p, 0, u);
            edges.pop();
            let g = graph_from_edges(6, edges.clone());
            assert!(
                index.equivalent(&BoundaryIndex::build(&g, &p)),
                "delete {u}"
            );
        }
    }

    /// Slots in the arena, live or dead.
    fn arena_len(index: &BoundaryIndex) -> usize {
        index.counts.len()
    }

    /// Builds `graph`'s index the way a projection does, for a partition
    /// that a contraction of the `mate` pairs could carry: with a coarse node
    /// per pair, the coarse image of `v` is boundary exactly when `v` or its
    /// mate is, so that is the candidate rule. Returns the index after
    /// checking it against a full build.
    fn projected_index(graph: &CsrGraph, partition: &Partition, mate: &[NodeId]) -> BoundaryIndex {
        let mut boundary = vec![false; graph.num_nodes()];
        for v in boundary_nodes(graph, partition) {
            boundary[v as usize] = true;
        }
        let index = BoundaryIndex::build_seeded(graph, partition, |v| {
            boundary[v as usize] || boundary[mate[v as usize] as usize]
        });
        assert_eq!(index, BoundaryIndex::build(graph, partition));
        index
    }

    /// Greedy matching in node order that pairs only nodes of one block;
    /// an unmatched node is its own mate.
    fn block_matching(graph: &CsrGraph, partition: &Partition) -> Vec<NodeId> {
        let mut mate = vec![INVALID_NODE; graph.num_nodes()];
        for v in graph.nodes() {
            if mate[v as usize] != INVALID_NODE {
                continue;
            }
            mate[v as usize] = v;
            if let Some((u, _)) = graph.edges_of(v).find(|&(u, _)| {
                mate[u as usize] == INVALID_NODE && partition.block_of(u) == partition.block_of(v)
            }) {
                mate[v as usize] = u;
                mate[u as usize] = v;
            }
        }
        mate
    }

    fn assert_arena_is_exact_fit(graph: &CsrGraph, partition: &Partition) {
        let index = projected_index(graph, partition, &block_matching(graph, partition));
        let live: usize = graph.nodes().map(|v| index.node_counts(v).len()).sum();
        assert_eq!(arena_len(&index), live, "a built segment has spare slots");
        assert!(
            arena_len(&index) < graph.num_half_edges() / 2,
            "arena of {} slots for {} half-edges",
            arena_len(&index),
            graph.num_half_edges()
        );
    }

    #[test]
    fn a_build_fills_the_arena_exactly_on_a_grid() {
        let side = 64u32;
        let mut b = GraphBuilder::new((side * side) as usize);
        for y in 0..side {
            for x in 0..side {
                let v = y * side + x;
                if x + 1 < side {
                    b.add_edge(v, v + 1, 1);
                }
                if y + 1 < side {
                    b.add_edge(v, v + side, 1);
                }
            }
        }
        let quadrant = |v: u32| (v % side) / (side / 2) + 2 * ((v / side) / (side / 2));
        let p = Partition::from_assignment(4, (0..side * side).map(quadrant).collect());
        assert_arena_is_exact_fit(&b.build(), &p);
    }

    #[test]
    fn a_build_fills_the_arena_exactly_on_a_random_geometric_graph() {
        // 2^12 points in the unit square from a fixed xorshift stream, joined
        // within the radius of an expected degree of 8, cut into quadrants.
        let n = 1usize << 12;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut unit = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let points: Vec<(f64, f64)> = (0..n).map(|_| (unit(), unit())).collect();
        let r2 = 8.0 / (std::f64::consts::PI * n as f64);
        let mut edges = Vec::new();
        for v in 0..n {
            for u in v + 1..n {
                let (dx, dy) = (points[v].0 - points[u].0, points[v].1 - points[u].1);
                if dx * dx + dy * dy < r2 {
                    edges.push((v as NodeId, u as NodeId, 1));
                }
            }
        }
        let g = graph_from_edges(n, edges);
        let quadrant = |&(x, y): &(f64, f64)| (x >= 0.5) as BlockId + 2 * (y >= 0.5) as BlockId;
        let p = Partition::from_assignment(4, points.iter().map(quadrant).collect());
        assert_arena_is_exact_fit(&g, &p);
    }

    #[test]
    fn full_segments_relocate_with_doubled_capacity() {
        // Hub 0 with leaves 1..=8, all in block 0: every segment is built
        // with capacity 1. Moving leaves 2..=8 into blocks 1..=7 (leaf 1
        // stays) gives the hub its 2nd, 3rd and 5th entries with a full
        // segment, which relocates it 1 -> 2 -> 4 -> 8.
        let leaves = 8u32;
        let g = graph_from_edges(leaves as usize + 1, (1..=leaves).map(|u| (0, u, 1)));
        let mut p = Partition::from_assignment(8, vec![0; leaves as usize + 1]);
        let mut index = BoundaryIndex::build(&g, &p);
        assert_eq!(arena_len(&index), leaves as usize + 1);
        assert_eq!(index.cap[0], 1);
        for (leaf, cap) in (2..=leaves).zip([2, 4, 4, 8, 8, 8, 8]) {
            let to = leaf - 1;
            p.assign(leaf, to);
            index.apply_move(&g, &p, leaf, 0, to);
            assert_eq!(index.cap[0], cap, "hub capacity after moving leaf {leaf}");
            for b in 0..p.k() {
                let expected = (1..=leaves).filter(|&u| p.block_of(u) == b).count() as u32;
                assert_eq!(index.count(0, b), expected, "count(hub, {b})");
            }
            assert!(index.equivalent(&BoundaryIndex::build(&g, &p)));
            assert_matches_fresh_scan(&g, &p, &index);
        }

        // A streaming insert between leaves 2 and 3 (blocks 1 and 2) finds
        // both exact-fit segments `[(0, 1)]` full.
        let mut dg = DynamicGraph::new(g);
        let mut index = BoundaryIndex::build(&dg, &p);
        assert_eq!((index.cap[2], index.cap[3]), (1, 1));
        dg.insert_edge(2, 3, 1).unwrap();
        index.edge_inserted(&p, 2, 3);
        assert_eq!((index.cap[2], index.cap[3]), (2, 2));
        assert_eq!((index.count(2, 2), index.count(3, 1)), (1, 1));
        assert!(index.equivalent(&BoundaryIndex::build(&dg, &p)));
    }

    #[test]
    fn interior_and_isolated_nodes_are_not_boundary() {
        let g = graph_from_edges(4, vec![(0, 1, 1), (1, 2, 1)]);
        // Node 3 is isolated; all nodes share one block.
        let p = Partition::trivial(2, 4);
        let index = BoundaryIndex::build(&g, &p);
        assert!(index.boundary_nodes_unordered().is_empty());
        assert!(!index.is_boundary(3));
        assert!(index.pair_boundary_sorted(&p, 0, 1).is_empty());
    }
}
