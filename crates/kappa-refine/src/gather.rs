//! Gathered-band refinement: run one pair's banded FM search on a *gathered*
//! copy of the band region instead of the full graph.
//!
//! This is the paper's "exchange only the band" step (§5.2, Figure 2) turned
//! into an entry point the distributed scheduler can call: each rank extracts
//! its share of the depth-`d` BFS region around the pair boundary as one flat
//! [`BandShard`], ships it to the pair's home rank, and the home rank
//! assembles a self-contained subgraph from the shards
//! ([`GatheredRegion::assemble`]), re-runs the band BFS on it (to recover the
//! *exact* traversal order of the shared-memory scheduler) and performs the
//! pooled 2-way FM search. Surviving moves come back keyed by **global** node
//! id, ready to broadcast. (One rank never gathers: it runs the shared
//! [`search_pair`](crate::search_pair) on its live view.)
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

use std::fmt;

use kappa_graph::{
    is_pair_boundary, merge_row, BlockId, CsrGraph, EdgeWeight, NodeId, NodeWeight, Partition,
};

use crate::band::PairBand;
use crate::fm::{two_way_fm_in, FmConfig, FmResult};
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
/// with a global-id back-mapping, ready for [`refine_gathered_band`].
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

        Ok(GatheredRegion {
            graph: CsrGraph::from_parts(xadj, adjncy, adjwgt, vwgt, None),
            partition: Partition::from_assignment(k, blocks),
            gids,
            band_membership,
        })
    }

    /// Node weight of the region node with global id `gid` — how a search's
    /// surviving moves get their weights back. FM moves gathered nodes only,
    /// so a miss means the moves belong to another region.
    pub fn weight_of(&self, gid: NodeId) -> Result<NodeWeight, ShardError> {
        match self.gids.binary_search(&gid) {
            Ok(l) => Ok(self.graph.node_weight(l as NodeId)),
            Err(_) => Err(ShardError {
                shard: None,
                reason: format!("node {gid} is not in the gathered region"),
            }),
        }
    }

    /// The current pair boundary *within the band*: global ids (ascending) of
    /// band nodes in block `a` or `b` with at least one neighbour in the
    /// other block, under the region's current partition. This is the seed
    /// set for a follow-up search after moves shifted the boundary.
    pub fn boundary_seeds(&self, a: BlockId, b: BlockId) -> Vec<NodeId> {
        let on_boundary = |l: NodeId| is_pair_boundary(&self.graph, &self.partition, l, a, b);
        // Ascending: region ids follow ascending gids by construction.
        (0..self.gids.len())
            .filter(|&l| self.band_membership[l] && on_boundary(l as NodeId))
            .map(|l| self.gids[l])
            .collect()
    }

    /// The band of one search on this region, in region-local ids: the fused
    /// BFS from `seeds` (global ids), which must stay inside the gathered
    /// band on the first search and is clipped to it on a follow-up — see
    /// [`refine_gathered_band`].
    fn band(
        &self,
        a: BlockId,
        b: BlockId,
        seeds: &[NodeId],
        depth: usize,
        scratch: &mut FmScratch,
        follow_up: bool,
    ) -> Result<PairBand, ShardError> {
        let not_gathered = |gid: NodeId, role: &str| ShardError {
            shard: None,
            reason: format!("{role} {gid} is not a gathered band node"),
        };
        let local_seeds = seeds
            .iter()
            .map(|&gid| match self.gids.binary_search(&gid) {
                Ok(l) if self.band_membership[l] => Ok(l as NodeId),
                _ => Err(not_gathered(gid, "seed")),
            })
            .collect::<Result<Vec<NodeId>, ShardError>>()?;
        let mut band = PairBand::around(
            &self.graph,
            &self.partition,
            &local_seeds,
            (a, b),
            depth,
            scratch,
        );
        let gathered = |v: NodeId| self.band_membership[v as usize];
        if follow_up {
            band.retain(gathered);
        } else if let Some(&v) = band.nodes().iter().find(|&&v| !gathered(v)) {
            return Err(not_gathered(self.gids[v as usize], "band BFS node"));
        }
        Ok(band)
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

/// Runs one banded 2-way FM search on a gathered region and returns the
/// surviving moves keyed by **global** node id, plus the achieved gain.
///
/// `seeds` is the pair boundary in ascending global-id order (exactly what
/// `BandSeeder::seeds` produces); `depth` the band BFS depth; `w_a` / `w_b`
/// the *full* current block weights. The first search of a region
/// (`follow_up == false`) is bit-identical to running
/// `PairBand::around` + `two_way_fm_in` on the un-gathered graph with the
/// same parameters; there a seed that is no gathered band node, or a BFS
/// that leaves the gathered band, means seeds and shards disagree — a
/// [`ShardError`].
///
/// A *follow-up* search on the same region clips the band BFS to the
/// originally gathered band set instead: after a first pass moved nodes, the
/// shifted boundary can reach ring nodes the gather never shipped, and
/// clipping keeps them frozen, exactly as they would be for the band that
/// *was* gathered (a ring node's region row is partial, so the gain the BFS
/// computed for it is dropped with it; the kept nodes' rows are whole). The
/// distributed scheduler pools `local_iterations` searches into one gather
/// this way.
#[allow(clippy::too_many_arguments)]
pub fn refine_gathered_band(
    region: &mut GatheredRegion,
    a: BlockId,
    b: BlockId,
    seeds: &[NodeId],
    depth: usize,
    w_a: NodeWeight,
    w_b: NodeWeight,
    fm_config: &FmConfig,
    scratch: &mut FmScratch,
    follow_up: bool,
) -> Result<FmResult, ShardError> {
    let band = region.band(a, b, seeds, depth, scratch, follow_up)?;
    let mut result = two_way_fm_in(
        &region.graph,
        &mut region.partition,
        a,
        b,
        band,
        w_a,
        w_b,
        fm_config,
        scratch,
    );
    for (v, _) in result.moves.iter_mut() {
        *v = region.gids[*v as usize];
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band::tests::assert_gains_and_flags_match_oracles;
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
        assert_eq!(region.weight_of(40), Ok(4));
        assert!(region.weight_of(50).is_err());
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
    fn a_band_node_gathered_twice_is_an_error() {
        let mut other = BandShard::with_capacity(0, 0);
        other.push_node(20, 2, 1, []);
        let e = assembly_error(2, &[two_node_shard(), other]);
        assert_eq!(e.shard, Some(1));
        assert!(e.reason.contains("band node 20"), "{e}");
    }

    #[test]
    fn seeds_and_searches_outside_the_gathered_band_are_errors() {
        let fm_config = FmConfig {
            l_max: 10,
            ..Default::default()
        };
        let mut scratch = FmScratch::new();
        let mut search = |shards: &[BandShard], seeds: &[NodeId], depth| {
            let mut region = GatheredRegion::assemble(2, shards).unwrap();
            refine_gathered_band(
                &mut region,
                0,
                1,
                seeds,
                depth,
                3,
                3,
                &fm_config,
                &mut scratch,
                false,
            )
        };
        assert!(search(&[two_node_shard()], &[10, 20], 0).is_ok());
        // 30 is a ring node, 40 is not in the region at all.
        for stranger in [30, 40] {
            let e = search(&[two_node_shard()], &[10, stranger], 0).unwrap_err();
            assert_eq!(e.shard, None);
            assert!(e.reason.contains(&format!("seed {stranger}")), "{e}");
        }
        // A sender that withheld band node 20: the BFS from 10 walks into it.
        let mut withheld = BandShard::with_capacity(0, 0);
        withheld.push_node(10, 1, 0, [(20, 5, 1, 2)]);
        let e = search(&[withheld], &[10], 1).unwrap_err();
        assert!(e.reason.contains("band BFS node 20"), "{e}");
    }

    /// Searches pair `(a, b)` of `partition` at `depth` once on the whole
    /// graph and once on the region assembled from `shards` (the pair's
    /// band, dealt over any number of senders), and asserts the two searches
    /// are one: same moves in the same order, same gain, same attempts.
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
        let fm_config = FmConfig {
            l_max: Partition::l_max(graph, k, 0.03),
            patience_alpha: 0.2,
            seed: 0x5EED ^ ((a as u64) << 8 | b as u64),
            ..Default::default()
        };
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
            &fm_config,
            &mut scratch,
        );
        let mut region = GatheredRegion::assemble(k, shards).unwrap();
        assert_eq!(
            region.band_membership.iter().filter(|&&b| b).count(),
            band_len
        );
        let gathered = refine_gathered_band(
            &mut region,
            a,
            b,
            &seeds,
            depth,
            w_a,
            w_b,
            &fm_config,
            &mut FmScratch::new(),
            false,
        )
        .unwrap();
        assert_eq!(gathered.moves, direct.moves, "pair ({a},{b}) depth {depth}");
        assert_eq!(gathered.gain, direct.gain);
        assert_eq!(gathered.attempted_moves, direct.attempted_moves);
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
        let mut region = GatheredRegion::assemble(k, std::slice::from_ref(&shard)).unwrap();
        let fm_config = FmConfig {
            l_max,
            patience_alpha: 0.2,
            seed: 0xBEEF,
            ..Default::default()
        };
        let mut scratch = FmScratch::new();
        let (mut wa, mut wb) = (weights.weight(a), weights.weight(b));
        let first = refine_gathered_band(
            &mut region,
            a,
            b,
            &seeds,
            3,
            wa,
            wb,
            &fm_config,
            &mut scratch,
            false,
        )
        .unwrap();
        for &(gid, to) in &first.moves {
            let w = graph.node_weight(gid);
            if to == a {
                wa += w;
                wb -= w;
            } else {
                wb += w;
                wa -= w;
            }
        }
        // The shifted boundary re-seeds a second pass that must stay within
        // the originally gathered band (every move targets a band gid) and
        // never lose gain.
        let again = region.boundary_seeds(a, b);
        assert!(again.windows(2).all(|w| w[0] < w[1]), "seeds ascend");
        if !again.is_empty() {
            // The clipped band keeps nodes, gains and flags aligned: it is
            // the region BFS minus the ring, and every kept position holds
            // what the oracles say about that node — on the region and, the
            // first search's moves replayed, on the full graph too (a band
            // node's region row has all its `a ∪ b` edges).
            let clipped = region.band(a, b, &again, 3, &mut scratch, true).unwrap();
            let locals: Vec<NodeId> = again
                .iter()
                .map(|gid| region.gids.binary_search(gid).unwrap() as NodeId)
                .collect();
            let expected: Vec<NodeId> =
                band_around_boundary(&region.graph, &region.partition, &locals, (a, b), 3)
                    .into_iter()
                    .filter(|&l| region.band_membership[l as usize])
                    .collect();
            assert_eq!(clipped.nodes(), expected);
            assert!(clipped.len() <= shard.gids.len());
            assert_gains_and_flags_match_oracles(
                &region.graph,
                &region.partition,
                &clipped,
                (a, b),
            );
            let mut moved = partition.clone();
            for &(gid, to) in &first.moves {
                moved.assign(gid, to);
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

            let second = refine_gathered_band(
                &mut region,
                a,
                b,
                &again,
                3,
                wa,
                wb,
                &fm_config,
                &mut scratch,
                true,
            )
            .unwrap();
            assert!(second.gain >= 0);
            for &(gid, _) in &second.moves {
                assert!(
                    shard.gids.contains(&gid),
                    "iteration moved non-band node {gid}"
                );
            }
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
