//! Gathered-band refinement: run one pair search on a *gathered* copy of the
//! band region instead of the full graph.
//!
//! This is the paper's "exchange only the band" step (§5.2, Figure 2) turned
//! into an entry point the distributed scheduler can call: each rank extracts
//! its share of the depth-`d` BFS region around the pair boundary as one flat
//! [`BandShard`], ships it to the pair's home rank, and the home rank
//! assembles a self-contained subgraph from the shards
//! ([`GatheredRegion::assemble`]) and runs the shared local-iteration loop,
//! [`search_pair`], on it ([`GatheredRegion::search`]), re-running the band
//! BFS on the region to recover the *exact* traversal order of the
//! shared-memory scheduler. (One rank never gathers: it runs `search_pair`
//! on its live view.)
//!
//! A shard is a CSR slice in struct-of-arrays form — eight allocations
//! however large the band, eight length-prefixed arrays on the wire — and
//! assembly writes the region's CSR arrays directly, linear in the shard
//! sizes apart from one binary search per edge. Shards come from peers, so
//! every inconsistency is a [`ShardError`], never a panic.
//!
//! ## Why the result is bit-identical to searching the full graph
//!
//! * The region contains the whole band (every node within `depth` hops of
//!   the pair boundary inside blocks `a ∪ b`) plus the *frozen ring* — every
//!   `a ∪ b` neighbour of a band node. Ring nodes are exactly what FM reads
//!   but never moves, so gains, queue initialisation and gain updates see the
//!   same numbers as on the full graph.
//! * Region node ids are assigned in ascending global-id order, a monotone
//!   renumbering: every id comparison (adjacency order, priority-queue
//!   tie-breaks) resolves the same way as on the full graph.
//! * The band BFS is re-run from the same seeds on the region, whose
//!   restriction to `a ∪ b` within `depth` hops equals the full graph's, so
//!   the band's traversal order is identical. The BFS is the fused one
//!   ([`PairBand::around`]): it also yields every band node's gain and
//!   boundary flag, from that node's region row — which holds all of the
//!   node's `a ∪ b` edges, the only ones either number depends on. Order,
//!   gains and flags being equal, so is the whole FM trajectory.
//!
//! The `gathered_region_matches_direct_search` proptest below proves it for
//! random graphs, partitions, pairs, depths and sender splits — the proof a
//! multi-rank search rests on, since `--ranks 1` never gathers.
//!
//! That is the first local iteration. A follow-up re-seeds from the shifted
//! boundary among the gathered band nodes and clips its band to them: moves
//! can bring the boundary next to ring nodes the gather never shipped, and
//! clipping keeps them frozen, as they are for the band that *was* gathered
//! (a ring node's row is partial, so its gain goes with it; band rows are
//! whole). So one gather serves all local iterations.

use std::fmt;

use kappa_graph::{
    is_pair_boundary, merge_row, BlockId, CsrGraph, EdgeWeight, NodeId, NodeWeight, Partition,
};

use crate::band::{BandSeeder, FirstBand, PairBand};
use crate::scheduler::{search_pair, PairDelta, PairSearch};
use crate::scratch::FmScratch;

/// One sender's share of one pair's band, as flat CSR-style arrays: node `i`
/// is `gids[i]` with `weights[i]` and `blocks[i]`, and its edges into
/// `a ∪ b` are the entries `xadj[i]..xadj[i + 1]` of the four edge columns
/// (edges into other blocks never influence a 2-way search). The edge
/// columns carry the target's block and weight so the home rank can
/// materialise a target whose owner sent nothing (the frozen ring).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BandShard {
    /// Global ids of the band nodes.
    pub gids: Vec<NodeId>,
    /// Node weight `c(v)` per band node.
    pub weights: Vec<NodeWeight>,
    /// Current block per band node (`a` or `b`).
    pub blocks: Vec<BlockId>,
    /// Edge ranges: `gids.len() + 1` non-decreasing offsets, from 0 to the
    /// length of the edge columns.
    pub xadj: Vec<usize>,
    /// Global id of each edge's target (in block `a` or `b`).
    pub to: Vec<NodeId>,
    /// Weight of each edge.
    pub edge_weight: Vec<EdgeWeight>,
    /// Current block of each edge's target.
    pub to_block: Vec<BlockId>,
    /// Node weight of each edge's target.
    pub to_weight: Vec<NodeWeight>,
}

impl BandShard {
    /// A shard without nodes, with room for `nodes` nodes and `edges` edges
    /// (a sender knows both bounds before it fills the shard).
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        let mut xadj = Vec::with_capacity(nodes + 1);
        xadj.push(0);
        BandShard {
            gids: Vec::with_capacity(nodes),
            weights: Vec::with_capacity(nodes),
            blocks: Vec::with_capacity(nodes),
            xadj,
            to: Vec::with_capacity(edges),
            edge_weight: Vec::with_capacity(edges),
            to_block: Vec::with_capacity(edges),
            to_weight: Vec::with_capacity(edges),
        }
    }

    /// Appends one band node with its edges into `a ∪ b`, each edge as
    /// `(target gid, edge weight, target block, target weight)`.
    pub fn push_node(
        &mut self,
        gid: NodeId,
        weight: NodeWeight,
        block: BlockId,
        edges: impl IntoIterator<Item = (NodeId, EdgeWeight, BlockId, NodeWeight)>,
    ) {
        self.gids.push(gid);
        self.weights.push(weight);
        self.blocks.push(block);
        for (to, edge_weight, to_block, to_weight) in edges {
            self.to.push(to);
            self.edge_weight.push(edge_weight);
            self.to_block.push(to_block);
            self.to_weight.push(to_weight);
        }
        self.xadj.push(self.to.len());
    }

    /// Checks what [`GatheredRegion::assemble`] indexes by: array lengths,
    /// `xadj` shape, block range.
    fn check(&self, k: BlockId) -> Result<(), String> {
        let (n, m) = (self.gids.len(), self.to.len());
        let per_node = [self.weights.len(), self.blocks.len(), self.xadj.len()];
        let per_edge = [
            self.edge_weight.len(),
            self.to_block.len(),
            self.to_weight.len(),
        ];
        if per_node != [n, n, n + 1] || per_edge != [m; 3] {
            return Err(format!(
                "{n} gids with {per_node:?} weights/blocks/xadj entries, \
                 {m} edge targets with {per_edge:?} edge weights/target blocks/target weights"
            ));
        }
        if self.xadj[0] != 0 || self.xadj[n] != m || self.xadj.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!(
                "xadj does not rise from 0 to the {m} edges it indexes"
            ));
        }
        match self.blocks.iter().chain(&self.to_block).find(|&&b| b >= k) {
            Some(b) => Err(format!("block {b} out of range (k = {k})")),
            None => Ok(()),
        }
    }
}

/// Why gathered shards do not form a searchable band region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardError {
    /// Index (in the slice given to [`GatheredRegion::assemble`]) of the
    /// shard to blame, when the fault lies in one shard.
    pub shard: Option<usize>,
    /// What is wrong.
    pub reason: String,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.shard {
            Some(s) => write!(f, "malformed band shard {s}: {}", self.reason),
            None => write!(f, "inconsistent band gather: {}", self.reason),
        }
    }
}

impl std::error::Error for ShardError {}

/// A gathered band region: a self-contained subgraph of band + ring nodes
/// with a global-id back-mapping, ready for [`GatheredRegion::search`].
#[derive(Debug)]
pub struct GatheredRegion {
    graph: CsrGraph,
    partition: Partition,
    /// Ascending global ids; index = region-local node id.
    gids: Vec<NodeId>,
    /// Region-local ids of the band (movable) nodes.
    band_membership: Vec<bool>,
}

/// Marks an edge target that is no band node, in the first assembly pass.
const RING: u32 = u32::MAX;

impl GatheredRegion {
    /// Assembles the region from the shards of all ranks, in any order.
    ///
    /// Together the shards must cover the entire band, each band node exactly
    /// once; ring nodes are synthesised from edge targets no shard lists as a
    /// node. Rows come out sorted by region id with parallel edges summed and
    /// self loops dropped, as [`kappa_graph::GraphBuilder`] would build them.
    pub fn assemble(k: BlockId, shards: &[BandShard]) -> Result<Self, ShardError> {
        for (s, shard) in shards.iter().enumerate() {
            shard.check(k).map_err(|reason| ShardError {
                shard: Some(s),
                reason,
            })?;
        }

        // Band nodes as (gid, shard, row), ascending by gid. Shards that
        // arrive in rank order already are: ownership ranges ascend.
        let mut band: Vec<(NodeId, usize, usize)> = Vec::new();
        for (s, shard) in shards.iter().enumerate() {
            let rows = shard.gids.iter().enumerate();
            band.extend(rows.map(|(row, &gid)| (gid, s, row)));
        }
        if !band.is_sorted() {
            band.sort_unstable();
        }
        if let Some(w) = band.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(ShardError {
                shard: Some(w[1].1),
                reason: format!("band node {} was gathered twice", w[1].0),
            });
        }
        let band_gids: Vec<NodeId> = band.iter().map(|&(gid, _, _)| gid).collect();
        let edges_of = |&(_, s, row): &(NodeId, usize, usize)| {
            (&shards[s], shards[s].xadj[row]..shards[s].xadj[row + 1])
        };

        // Pass 1: classify every edge target, in band order. A band target
        // resolves to its band position; anything else is a ring node, and
        // resolves once the sorted ring exists.
        let mut targets: Vec<u32> = Vec::with_capacity(shards.iter().map(|s| s.to.len()).sum());
        let mut ring: Vec<NodeId> = Vec::new();
        for b in &band {
            let (shard, edges) = edges_of(b);
            targets.extend(shard.to[edges].iter().map(|to| {
                band_gids.binary_search(to).map_or_else(
                    |_| {
                        ring.push(*to);
                        RING
                    },
                    |position| position as u32,
                )
            }));
        }
        ring.sort_unstable();
        ring.dedup();

        // Region ids: band and ring interleaved into one ascending gid order.
        let n = band.len() + ring.len();
        let (mut gids, mut band_membership) = (vec![0; n], vec![false; n]);
        let ids = |of: &[NodeId], among: &[NodeId]| -> Vec<NodeId> {
            let rank = |gid| among.partition_point(|&other| other < gid);
            (0..of.len()).map(|i| (i + rank(of[i])) as NodeId).collect()
        };
        let (band_id, ring_id) = (ids(&band_gids, &ring), ids(&ring, &band_gids));
        for (&id, &gid) in band_id.iter().zip(&band_gids) {
            gids[id as usize] = gid;
            band_membership[id as usize] = true;
        }
        for (&id, &gid) in ring_id.iter().zip(&ring) {
            gids[id as usize] = gid;
        }

        // Pass 2: band rows in region ids, and the degree of every row — a
        // band row's own length, a ring row's count of band neighbours.
        let (mut vwgt, mut blocks) = (vec![0; n], vec![0; n]);
        let mut rows: Vec<(NodeId, EdgeWeight)> = Vec::with_capacity(targets.len());
        let mut row_end: Vec<usize> = Vec::with_capacity(band.len());
        let mut xadj: Vec<usize> = vec![0; n + 1];
        let mut targets = targets.into_iter();
        for (b, &u) in band.iter().zip(&band_id) {
            let (shard, edges) = edges_of(b);
            vwgt[u as usize] = shard.weights[b.2];
            blocks[u as usize] = shard.blocks[b.2];
            let start = rows.len();
            for (e, position) in edges.zip(&mut targets) {
                let t = if position == RING {
                    let t = ring_id[ring.partition_point(|&gid| gid < shard.to[e])];
                    vwgt[t as usize] = shard.to_weight[e];
                    blocks[t as usize] = shard.to_block[e];
                    t
                } else {
                    band_id[position as usize]
                };
                rows.push((t, shard.edge_weight[e]));
            }
            normalise_row(&mut rows, start, u);
            row_end.push(rows.len());
            xadj[u as usize + 1] = rows.len() - start;
            for &(t, _) in &rows[start..] {
                xadj[t as usize + 1] += !band_membership[t as usize] as usize;
            }
        }
        for id in 0..n {
            xadj[id + 1] += xadj[id];
        }

        // Pass 3: copy the band rows to their place and transpose their ring
        // edges into the ring rows. Band rows are visited in ascending region
        // id, so every ring row fills in ascending order too.
        let (mut adjncy, mut adjwgt) = (vec![0; xadj[n]], vec![0; xadj[n]]);
        let mut free = xadj.clone();
        let mut put = |row: NodeId, to: NodeId, w: EdgeWeight| {
            adjncy[free[row as usize]] = to;
            adjwgt[free[row as usize]] = w;
            free[row as usize] += 1;
        };
        let mut start = 0;
        for (&end, &u) in row_end.iter().zip(&band_id) {
            for &(t, w) in &rows[start..end] {
                put(u, t, w);
                if !band_membership[t as usize] {
                    put(t, u, w);
                }
            }
            start = end;
        }

        // Weights come from peers: past the totals rule they do not fit
        // the region's 32-bit store.
        let graph =
            CsrGraph::try_from_parts(xadj, adjncy, adjwgt, vwgt, None).map_err(|e| ShardError {
                shard: None,
                reason: format!("region weights do not fit: {e}"),
            })?;
        Ok(GatheredRegion {
            graph,
            partition: Partition::from_assignment(k, blocks),
            gids,
            band_membership,
        })
    }

    /// Global id and node weight of region node `l`: what a search's move
    /// of `l` is broadcast as.
    pub fn node(&self, l: NodeId) -> (NodeId, NodeWeight) {
        (self.gids[l as usize], self.graph.node_weight(l))
    }

    /// Runs [`search_pair`] on this region from `seeds`, the gathered pair
    /// boundary (global ids, ascending), `search` carrying the *full* block
    /// weights, and returns the delta, its moves in region ids. A seed, or a
    /// first band node, that is no gathered band node means seeds and shards
    /// disagree: a [`ShardError`].
    pub fn search(
        &mut self,
        seeds: &[NodeId],
        search: &PairSearch,
        scratch: &mut FmScratch,
    ) -> Result<PairDelta, ShardError> {
        let (graph, gids, band_membership) = (&self.graph, &self.gids, &self.band_membership);
        let first = seeds
            .iter()
            .map(|&gid| match gids.binary_search(&gid) {
                Ok(l) if band_membership[l] => Ok(l as NodeId),
                _ => Err(not_gathered(gid, "seed")),
            })
            .collect::<Result<_, _>>()?;
        let mut seeder = RegionSeeder {
            graph,
            gids,
            band_membership,
            pair: (search.a, search.b),
            first: Some(first),
            follow_up: false,
            error: None,
        };
        let partition = &mut self.partition;
        let delta = search_pair(
            graph,
            partition,
            &mut seeder,
            scratch,
            search,
            FirstBand::Grow,
        );
        seeder.error.map_or(Ok(delta), Err)
    }
}

/// The seeder of the searches on one gathered region, in region ids: the
/// gathered seeds first, then the pair boundary among the gathered band
/// nodes. Its clip refuses a first band that leaves the gathered band
/// (recording the error, emptying the band) and clips follow-up bands to it.
struct RegionSeeder<'r> {
    graph: &'r CsrGraph,
    gids: &'r [NodeId],
    band_membership: &'r [bool],
    pair: (BlockId, BlockId),
    first: Option<Vec<NodeId>>,
    follow_up: bool,
    error: Option<ShardError>,
}

impl BandSeeder<Partition> for RegionSeeder<'_> {
    fn seeds(&mut self, view: &Partition) -> Vec<NodeId> {
        if let Some(first) = self.first.take() {
            return first;
        }
        self.follow_up = true;
        let (a, b) = self.pair;
        // Ascending: region ids follow ascending gids by construction.
        (0..self.gids.len() as NodeId)
            .filter(|&l| {
                self.band_membership[l as usize] && is_pair_boundary(self.graph, view, l, a, b)
            })
            .collect()
    }

    fn observe_moves(&mut self, _moves: &[(NodeId, BlockId)]) {}

    fn clip(&mut self, band: &mut PairBand) {
        let gathered = |v: NodeId| self.band_membership[v as usize];
        if self.follow_up {
            band.retain(gathered);
        } else if let Some(&v) = band.nodes().iter().find(|&&v| !gathered(v)) {
            self.error = Some(not_gathered(self.gids[v as usize], "band BFS node"));
            band.retain(|_| false);
        }
    }
}

/// A node the search needs but the gather did not send as a band node.
fn not_gathered(gid: NodeId, role: &str) -> ShardError {
    ShardError {
        shard: None,
        reason: format!("{role} {gid} is not a gathered band node"),
    }
}

/// Brings `rows[start..]`, the row of region node `u`, into CSR form:
/// [`merge_row`], then the self loop a peer's shard may carry dropped.
/// A row copied from a well-formed shard already is, so this is one scan.
fn normalise_row(rows: &mut Vec<(NodeId, EdgeWeight)>, start: usize, u: NodeId) {
    let row = &mut rows[start..];
    if row.windows(2).all(|w| w[0].0 < w[1].0) && row.iter().all(|&(t, _)| t != u) {
        return;
    }
    let len = merge_row(row);
    rows.truncate(start + len);
    if let Some(i) = rows[start..].iter().position(|&(t, _)| t == u) {
        rows.remove(start + i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band::tests::assert_gains_and_flags_match_oracles;
    use crate::fm::two_way_fm_in;
    use crate::scheduler::RefinementConfig;
    use kappa_gen::grid::grid2d;
    use kappa_gen::rgg::random_geometric_graph;
    use kappa_graph::{band_around_boundary, pair_boundary_nodes, BlockWeights, GraphBuilder};
    use kappa_initial::greedy_graph_growing;
    use proptest::prelude::*;

    /// Extracts the depth-`d` band of pair `(a, b)` straight from a full
    /// graph as one shard — the single-process stand-in for what the ranks
    /// ship.
    fn extract_shard(
        graph: &CsrGraph,
        partition: &Partition,
        a: BlockId,
        b: BlockId,
        depth: usize,
    ) -> BandShard {
        let seeds = pair_boundary_nodes(graph, partition, a, b);
        let band = band_around_boundary(graph, partition, &seeds, (a, b), depth);
        let mut shard = BandShard::with_capacity(0, 0);
        for &v in &band {
            let edges = graph.edges_of(v).filter_map(|(u, w)| {
                let bu = partition.block_of(u);
                (bu == a || bu == b).then(|| (u, w, bu, graph.node_weight(u)))
            });
            shard.push_node(v, graph.node_weight(v), partition.block_of(v), edges);
        }
        shard
    }

    /// Appends row `i` of `from` to `onto`.
    fn append_row(onto: &mut BandShard, from: &BandShard, i: usize) {
        let edges = (from.xadj[i]..from.xadj[i + 1]).map(|e| {
            (
                from.to[e],
                from.edge_weight[e],
                from.to_block[e],
                from.to_weight[e],
            )
        });
        onto.push_node(from.gids[i], from.weights[i], from.blocks[i], edges);
    }

    /// Row `i` of `shard` as a shard of its own.
    fn row_of(shard: &BandShard, i: usize) -> BandShard {
        let mut out = BandShard::with_capacity(0, 0);
        append_row(&mut out, shard, i);
        out
    }

    /// The oracle: the region as the retired per-record builder made it —
    /// global sort of all ids, binary-searched renumbering, `GraphBuilder`
    /// (band–band edges once, from the smaller endpoint's record). Returns
    /// `(graph, blocks, gids, band membership)`.
    fn oracle(shards: &[BandShard]) -> (CsrGraph, Vec<BlockId>, Vec<NodeId>, Vec<bool>) {
        let nodes: Vec<BandShard> = shards
            .iter()
            .flat_map(|s| (0..s.gids.len()).map(|i| row_of(s, i)))
            .collect();
        let mut band_gids: Vec<NodeId> = nodes.iter().map(|n| n.gids[0]).collect();
        band_gids.sort_unstable();
        let mut gids = band_gids.clone();
        gids.extend(nodes.iter().flat_map(|n| n.to.iter().copied()));
        gids.sort_unstable();
        gids.dedup();
        let local_of = |gid: NodeId| gids.binary_search(&gid).unwrap() as NodeId;
        let n = gids.len();
        let (mut weights, mut blocks) = (vec![0u64; n], vec![0u32; n]);
        let mut membership = vec![false; n];
        for node in &nodes {
            for e in 0..node.to.len() {
                let lt = local_of(node.to[e]) as usize;
                weights[lt] = node.to_weight[e];
                blocks[lt] = node.to_block[e];
            }
        }
        for node in &nodes {
            let l = local_of(node.gids[0]) as usize;
            weights[l] = node.weights[0];
            blocks[l] = node.blocks[0];
            membership[l] = true;
        }
        let mut builder = GraphBuilder::with_node_weights(weights);
        for node in &nodes {
            for e in 0..node.to.len() {
                let in_band = band_gids.binary_search(&node.to[e]).is_ok();
                if !(in_band && node.to[e] < node.gids[0]) {
                    builder.add_edge(
                        local_of(node.gids[0]),
                        local_of(node.to[e]),
                        node.edge_weight[e],
                    );
                }
            }
        }
        (builder.build(), blocks, gids, membership)
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "compares the raw weight arrays with the oracle's"
    )]
    fn assert_matches_oracle(k: BlockId, shards: &[BandShard]) {
        let region = GatheredRegion::assemble(k, shards).unwrap();
        let (graph, blocks, gids, membership) = oracle(shards);
        assert_eq!(region.graph.xadj(), graph.xadj());
        assert_eq!(region.graph.adjncy(), graph.adjncy());
        assert_eq!(region.graph.adjwgt(), graph.adjwgt());
        assert_eq!(region.graph.vwgt(), graph.vwgt());
        assert_eq!(region.partition.assignment(), &blocks[..]);
        assert_eq!(region.gids, gids);
        assert_eq!(region.band_membership, membership);
        assert!(region.graph.validate().is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Shard assembly equals the retired `GraphBuilder` construction
        /// array for array, however the band is split over senders, in
        /// whatever order the shards and their rows' edges arrive.
        #[test]
        fn shard_assembly_matches_the_graph_builder_oracle(
            n in 30usize..160,
            seed in any::<u64>(),
            k in 2u32..6,
            senders in 1usize..5,
        ) {
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut builder =
                GraphBuilder::with_node_weights((0..n).map(|_| 1 + next() % 9).collect());
            for _ in 0..3 * n {
                let (u, v) = ((next() % n as u64) as NodeId, (next() % n as u64) as NodeId);
                builder.add_edge(u, v, 1 + next() % 20);
            }
            let graph = builder.build();
            let partition =
                Partition::from_assignment(k, (0..n).map(|_| (next() % k as u64) as u32).collect());
            let a = (next() % k as u64) as u32;
            let b = (a + 1 + (next() % (k as u64 - 1)) as u32) % k;
            for depth in [1usize, 3, 8] {
                let whole = extract_shard(&graph, &partition, a, b, depth);
                // Deal the band nodes to the senders at random, then shuffle
                // the edges inside each row and the shards themselves.
                let mut shards = vec![BandShard::with_capacity(0, 0); senders];
                for i in 0..whole.gids.len() {
                    let mut row = row_of(&whole, i);
                    for e in (1..row.to.len()).rev() {
                        let f = (next() % (e as u64 + 1)) as usize;
                        row.to.swap(e, f);
                        row.edge_weight.swap(e, f);
                        row.to_block.swap(e, f);
                        row.to_weight.swap(e, f);
                    }
                    append_row(&mut shards[(next() % senders as u64) as usize], &row, 0);
                }
                for s in (1..senders).rev() {
                    shards.swap(s, (next() % (s as u64 + 1)) as usize);
                }
                assert_matches_oracle(k, &shards);
            }
        }
    }

    #[test]
    fn parallel_edges_are_summed_and_self_loops_dropped() {
        // Path 10 – 20 – 30 with the middle edge {20, 30} sent in two halves
        // by both endpoints, a self loop on 20, and 40 as a ring node.
        let mut shard = BandShard::with_capacity(0, 0);
        shard.push_node(10, 1, 0, [(20, 5, 0, 2)]);
        shard.push_node(
            20,
            2,
            0,
            [(30, 3, 1, 3), (20, 9, 0, 2), (10, 5, 0, 1), (30, 4, 1, 3)],
        );
        shard.push_node(30, 3, 1, [(40, 6, 1, 4), (20, 4, 0, 2), (20, 3, 0, 2)]);
        assert_matches_oracle(2, &[shard.clone()]);
        let region = GatheredRegion::assemble(2, &[shard]).unwrap();
        assert_eq!(region.graph.edge_weight_between(1, 2), Some(7));
        assert_eq!(region.graph.neighbors(1), &[0, 2]);
        assert_eq!(region.graph.neighbors(3), &[2], "ring row is the transpose");
        assert_eq!(region.node(3), (40, 4));
    }

    fn two_node_shard() -> BandShard {
        let mut shard = BandShard::with_capacity(0, 0);
        shard.push_node(10, 1, 0, [(20, 5, 1, 2)]);
        shard.push_node(20, 2, 1, [(10, 5, 0, 1), (30, 1, 1, 1)]);
        shard
    }

    fn assembly_error(k: BlockId, shards: &[BandShard]) -> ShardError {
        GatheredRegion::assemble(k, shards).expect_err("malformed shards must not assemble")
    }

    #[test]
    fn array_length_mismatches_are_errors() {
        let good = two_node_shard();
        assert!(GatheredRegion::assemble(2, std::slice::from_ref(&good)).is_ok());
        let mut bad = good.clone();
        bad.weights.pop();
        let e = assembly_error(2, &[good.clone(), bad]);
        assert_eq!(e.shard, Some(1));
        assert!(e.reason.contains("[1, 2, 3] weights"), "{e}");
        let mut bad = good.clone();
        bad.xadj.push(3);
        assert!(assembly_error(2, &[bad])
            .reason
            .contains("[2, 2, 4] weights"));
        let mut bad = good;
        bad.to_weight.push(7);
        assert!(assembly_error(2, &[bad])
            .reason
            .contains("[3, 3, 4] edge weights"));
    }

    #[test]
    fn broken_xadj_is_an_error() {
        for xadj in [vec![0, 2, 1], vec![1, 1, 3], vec![0, 1, 2], vec![0, 4, 3]] {
            let mut bad = two_node_shard();
            bad.xadj = xadj.clone();
            let e = assembly_error(2, &[bad]);
            assert_eq!(e.shard, Some(0));
            assert!(e.reason.contains("xadj"), "{xadj:?}: {e}");
        }
    }

    #[test]
    fn out_of_range_blocks_are_errors() {
        let e = assembly_error(1, &[two_node_shard()]);
        assert!(e.reason.contains("block 1 out of range"), "{e}");
    }

    #[test]
    fn region_weights_past_the_totals_rule_are_errors() {
        // Each shard alone is a legal slice; together a peer's heavy edge
        // and node weights pass u32::MAX, which the region cannot store.
        let heavy = |w: u64| {
            let mut shard = BandShard::with_capacity(0, 0);
            shard.push_node(10, 1, 0, [(20, w, 1, 2)]);
            shard.push_node(20, 2, 1, [(10, w, 0, 1), (30, w, 1, 1)]);
            shard
        };
        let e = assembly_error(2, &[heavy(1 << 31)]);
        assert_eq!(e.shard, None);
        assert!(e.reason.contains("total edge weight exceeds"), "{e}");
        let mut shard = two_node_shard();
        shard.weights[1] = 1 << 32;
        let e = assembly_error(2, &[shard]);
        assert!(e.reason.contains("total node weight exceeds"), "{e}");
        assert!(GatheredRegion::assemble(2, &[heavy(1 << 30)]).is_ok());
    }

    #[test]
    fn a_band_node_gathered_twice_is_an_error() {
        let mut other = BandShard::with_capacity(0, 0);
        other.push_node(20, 2, 1, []);
        let e = assembly_error(2, &[two_node_shard(), other]);
        assert_eq!(e.shard, Some(1));
        assert!(e.reason.contains("band node 20"), "{e}");
    }

    /// The search of pair `(a, b)` under `config`, from the full block
    /// weights `(w_a, w_b)`, at coordinates (0, 0).
    fn pair_search(
        config: &RefinementConfig,
        (a, b): (BlockId, BlockId),
        (w_a, w_b): (NodeWeight, NodeWeight),
        l_max: NodeWeight,
    ) -> PairSearch<'_> {
        PairSearch {
            a,
            b,
            w_a,
            w_b,
            l_max,
            config,
            global_iter: 0,
            color_idx: 0,
        }
    }

    /// Band depth, local iterations and seed as given, FM patience 0.2.
    fn refinement_config(depth: usize, local_iterations: usize, seed: u64) -> RefinementConfig {
        RefinementConfig {
            bfs_depth: depth,
            local_iterations,
            patience_alpha: 0.2,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn seeds_and_searches_outside_the_gathered_band_are_errors() {
        let mut scratch = FmScratch::new();
        let mut search = |shards: &[BandShard], seeds: &[NodeId], depth| {
            let mut region = GatheredRegion::assemble(2, shards).unwrap();
            let config = refinement_config(depth, 3, 0);
            let search = pair_search(&config, (0, 1), (3, 3), 10);
            region.search(seeds, &search, &mut scratch)
        };
        assert!(search(&[two_node_shard()], &[10, 20], 0).is_ok());
        // 30 is a ring node, 40 is not in the region at all.
        for stranger in [30, 40] {
            let e = search(&[two_node_shard()], &[10, stranger], 0)
                .err()
                .unwrap();
            assert_eq!(e.shard, None);
            assert!(e.reason.contains(&format!("seed {stranger}")), "{e}");
        }
        // A sender that withheld band node 20: the BFS from 10 walks into it,
        // and the first search refuses the band instead of clipping it.
        let mut withheld = BandShard::with_capacity(0, 0);
        withheld.push_node(10, 1, 0, [(20, 5, 1, 2)]);
        let e = search(&[withheld], &[10], 1).err().unwrap();
        assert!(e.reason.contains("band BFS node 20"), "{e}");
    }

    /// Searches pair `(a, b)` of `partition` at `depth` once on the whole
    /// graph and once on the region assembled from `shards` (the pair's
    /// band, dealt over any number of senders), one local iteration each, and
    /// asserts the two searches are one: same moves in the same order, same
    /// gain, and the same assignment of every region node afterwards.
    fn assert_gathered_search_is_direct(
        graph: &CsrGraph,
        partition: &Partition,
        (a, b): (BlockId, BlockId),
        depth: usize,
        shards: &[BandShard],
    ) {
        let seeds = pair_boundary_nodes(graph, partition, a, b);
        if seeds.is_empty() {
            return;
        }
        let k = partition.k();
        let weights = BlockWeights::compute(graph, partition);
        let l_max = Partition::l_max(graph, k, 0.03);
        let config = refinement_config(depth, 1, 0x5EED ^ ((a as u64) << 8 | b as u64));
        let mut direct_partition = partition.clone();
        let mut scratch = FmScratch::new();
        let band = PairBand::around(graph, partition, &seeds, (a, b), depth, &mut scratch);
        let band_len = band.len();
        let (w_a, w_b) = (weights.weight(a), weights.weight(b));
        let direct = two_way_fm_in(
            graph,
            &mut direct_partition,
            a,
            b,
            band,
            w_a,
            w_b,
            &config.fm_config(l_max, 0, 0, 0, a, b),
            &mut scratch,
        );
        let mut region = GatheredRegion::assemble(k, shards).unwrap();
        assert_eq!(
            region.band_membership.iter().filter(|&&b| b).count(),
            band_len
        );
        let search = pair_search(&config, (a, b), (w_a, w_b), l_max);
        let gathered = region
            .search(&seeds, &search, &mut FmScratch::new())
            .unwrap();
        assert_eq!(gathered.searches, 1);
        let moves: Vec<_> = gathered
            .moves
            .iter()
            .map(|&(l, to)| (region.node(l).0, to))
            .collect();
        assert_eq!(moves, direct.moves, "pair ({a},{b}) depth {depth}");
        assert_eq!(gathered.gain, direct.gain);
        for (l, &gid) in region.gids.iter().enumerate() {
            assert_eq!(
                region.partition.block_of(l as NodeId),
                direct_partition.block_of(gid)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The search on a gathered band is the direct full-graph search bit
        /// for bit, for any weighted graph, partition, pair and depth, with
        /// the band dealt over up to four senders at random — what a home
        /// rank's search rests on at `R > 1` (one rank searches its live
        /// view directly and never gathers).
        #[test]
        fn gathered_region_matches_direct_search(
            n in 20usize..160,
            seed in any::<u64>(),
            k in 2u32..6,
            senders in 1usize..5,
        ) {
            let mut next = crate::arbitrary_graph::xorshift(seed);
            let mut builder =
                GraphBuilder::with_node_weights((0..n).map(|_| 1 + next() % 9).collect());
            for _ in 0..3 * n {
                let (u, v) = ((next() % n as u64) as NodeId, (next() % n as u64) as NodeId);
                builder.add_edge(u, v, 1 + next() % 20);
            }
            let graph = builder.build();
            let partition =
                Partition::from_assignment(k, (0..n).map(|_| (next() % k as u64) as u32).collect());
            let a = (next() % k as u64) as u32;
            let b = (a + 1 + (next() % (k as u64 - 1)) as u32) % k;
            for depth in [1usize, 3, 8] {
                let whole = extract_shard(&graph, &partition, a, b, depth);
                let mut shards = vec![BandShard::with_capacity(0, 0); senders];
                for i in 0..whole.gids.len() {
                    append_row(&mut shards[(next() % senders as u64) as usize], &whole, i);
                }
                assert_gathered_search_is_direct(&graph, &partition, (a, b), depth, &shards);
            }
        }
    }

    /// The same on grown (not random) partitions of a grid and an rgg.
    #[test]
    fn gathered_region_matches_direct_search_on_grown_partitions() {
        for (graph, k) in [(grid2d(20, 20), 4u32), (random_geometric_graph(3000, 7), 6)] {
            let partition = greedy_graph_growing(&graph, k, 0.03, 3);
            for (a, b) in [(0u32, 1u32), (1, 2), (0, 3)] {
                for depth in [1usize, 3, 8] {
                    let shard = extract_shard(&graph, &partition, a, b, depth);
                    assert_gathered_search_is_direct(&graph, &partition, (a, b), depth, &[shard]);
                }
            }
        }
    }

    /// The seeder of a region's follow-up searches (its first seeds taken).
    fn follow_up_seeder(region: &GatheredRegion, pair: (BlockId, BlockId)) -> RegionSeeder<'_> {
        RegionSeeder {
            graph: &region.graph,
            gids: &region.gids,
            band_membership: &region.band_membership,
            pair,
            first: None,
            follow_up: false,
            error: None,
        }
    }

    #[test]
    fn follow_up_seeds_skip_ring_nodes_on_the_pair_boundary() {
        // Band 10 (block 0) – 20 (block 1); ring node 30 is in block 0 and
        // next to 20, so it is on the pair boundary, but it was never sent.
        let mut shard = BandShard::with_capacity(0, 0);
        shard.push_node(10, 1, 0, [(20, 5, 1, 2)]);
        shard.push_node(20, 2, 1, [(10, 5, 0, 1), (30, 1, 0, 1)]);
        let region = GatheredRegion::assemble(2, &[shard]).unwrap();
        assert_eq!(
            pair_boundary_nodes(&region.graph, &region.partition, 0, 1),
            [0, 1, 2]
        );
        let mut seeder = follow_up_seeder(&region, (0, 1));
        assert_eq!(seeder.seeds(&region.partition), [0, 1]);
    }

    #[test]
    fn follow_up_iterations_stay_inside_the_gathered_band() {
        let graph = random_geometric_graph(3000, 7);
        let k = 6u32;
        let partition = greedy_graph_growing(&graph, k, 0.03, 3);
        let weights = BlockWeights::compute(&graph, &partition);
        let l_max = Partition::l_max(&graph, k, 0.03);
        let (a, b) = (0u32, 1u32);
        let seeds = pair_boundary_nodes(&graph, &partition, a, b);
        assert!(!seeds.is_empty());
        let shard = extract_shard(&graph, &partition, a, b, 3);
        let full_weights = (weights.weight(a), weights.weight(b));
        let (once, twice) = (
            refinement_config(3, 1, 0xBEEF),
            refinement_config(3, 2, 0xBEEF),
        );
        let mut scratch = FmScratch::new();
        let mut region = GatheredRegion::assemble(k, std::slice::from_ref(&shard)).unwrap();
        let first = region
            .search(
                &seeds,
                &pair_search(&once, (a, b), full_weights, l_max),
                &mut scratch,
            )
            .unwrap();
        assert!(
            first.gain > 0,
            "the first search improves the grown partition"
        );

        // The shifted boundary re-seeds a follow-up search: the pair boundary
        // among the gathered band nodes, ascending, and a band BFS clipped to
        // the originally gathered band.
        let mut seeder = follow_up_seeder(&region, (a, b));
        let again = seeder.seeds(&region.partition);
        let boundary = pair_boundary_nodes(&region.graph, &region.partition, a, b);
        let in_band: Vec<NodeId> = boundary
            .into_iter()
            .filter(|&l| region.band_membership[l as usize])
            .collect();
        assert_eq!(again, in_band);
        assert!(!again.is_empty());
        // The clipped band keeps nodes, gains and flags aligned: it is the
        // region BFS minus the ring, and every kept position holds what the
        // oracles say about that node — on the region and, the first search's
        // moves replayed, on the full graph too (a band node's region row has
        // all its `a ∪ b` edges).
        let mut clipped = PairBand::around(
            &region.graph,
            &region.partition,
            &again,
            (a, b),
            3,
            &mut scratch,
        );
        seeder.clip(&mut clipped);
        assert!(seeder.error.is_none());
        let expected: Vec<NodeId> =
            band_around_boundary(&region.graph, &region.partition, &again, (a, b), 3)
                .into_iter()
                .filter(|&l| region.band_membership[l as usize])
                .collect();
        assert_eq!(clipped.nodes(), expected);
        assert!(clipped.len() <= shard.gids.len());
        assert_gains_and_flags_match_oracles(&region.graph, &region.partition, &clipped, (a, b));
        let mut moved = partition.clone();
        for &(l, to) in &first.moves {
            moved.assign(region.node(l).0, to);
        }
        let on_full_graph = PairBand {
            nodes: clipped
                .nodes()
                .iter()
                .map(|&l| region.gids[l as usize])
                .collect(),
            ..clipped.clone()
        };
        assert_gains_and_flags_match_oracles(&graph, &moved, &on_full_graph, (a, b));
        scratch.spare = clipped;

        // Two local iterations on a fresh region: the first search's moves,
        // then a follow-up that moves only gathered band nodes and never
        // loses gain.
        let mut region = GatheredRegion::assemble(k, std::slice::from_ref(&shard)).unwrap();
        let search = pair_search(&twice, (a, b), full_weights, l_max);
        let pooled = region.search(&seeds, &search, &mut scratch).unwrap();
        assert_eq!(pooled.searches, 2);
        assert_eq!(pooled.moves[..first.moves.len()], first.moves[..]);
        assert!(pooled.gain >= first.gain);
        for &(l, _) in &pooled.moves {
            let gid = region.node(l).0;
            assert!(
                shard.gids.contains(&gid),
                "iteration moved non-band node {gid}"
            );
        }
    }

    #[test]
    fn region_synthesises_ring_nodes() {
        let graph = grid2d(8, 8);
        let assignment = (0..64).map(|i| ((i % 8) / 4) as u32).collect();
        let partition = Partition::from_assignment(2, assignment);
        let shard = extract_shard(&graph, &partition, 0, 1, 1);
        let region = GatheredRegion::assemble(2, &[shard]).unwrap();
        // Depth-1 band = 4 columns; the ring adds the two columns beyond.
        assert_eq!(region.band_membership.iter().filter(|&&b| b).count(), 32);
        assert_eq!(region.gids.len(), 48);
        assert!(region.graph.validate().is_ok());
    }
}
