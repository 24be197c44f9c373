//! Contraction onto a storage tier: the coarse graph is streamed node by
//! node into compact RAM ([`kappa_mem::CompactCsr`]) or a paged file
//! ([`kappa_mem::PagedGraph`]), so the plain-CSR form of a fine level never
//! exists.
//!
//! [`contract_to_tier`] is built from the same coarse-id assignment and row
//! merge as [`contract_matching`](crate::contract_matching), so for the same
//! matching the coarse graph decodes bit-identically on every tier — the
//! workspace parity suite runs whole partitions across tiers to prove it.
//! [`SpillConfig::contract`] is the contraction step a
//! [`MultilevelHierarchy`](crate::MultilevelHierarchy) over
//! [`TierGraph`] is built with: it sends each coarse level to disk while it
//! is still big and to compact RAM once it has shrunk.

use std::io;
use std::path::PathBuf;

use kappa_graph::{GraphAccess, NodeId, NodeOrder, NodeWeight};
use kappa_matching::Matching;
use kappa_mem::{PageCacheConfig, TierGraph, TierSpec};

use crate::contract::{assign_coarse_ids, merged_node, Contraction, RowMerger};

/// Contracts `matching` in `fine`, emitting the coarse graph to `spec`.
///
/// Node for node the graph [`contract_matching`](crate::contract_matching)
/// builds: matched pairs share the coarse id assigned at the smaller
/// endpoint, each coarse node's adjacency is the merged (sorted,
/// parallel-edges-summed, self-loops-dropped) union of its fine nodes' lists,
/// node weights are summed and coordinates averaged. The `Paged` tier drops
/// coordinates by contract; everything else is representation-independent.
///
/// The coarse rows are stored in the order the fine storage order induces:
/// each coarse node where its first fine node comes along it. So a fine
/// level kept in a locality order hands its locality down, and one kept in
/// id order induces ascending coarse ids — id order again.
pub fn contract_to_tier<G: GraphAccess>(
    fine: &G,
    matching: &Matching,
    spec: TierSpec<'_>,
) -> io::Result<Contraction<TierGraph>> {
    let (coarse_of, reps) = assign_coarse_ids(fine, matching);
    let coarse_n = reps.len();
    let kept_coords = fine.coords().filter(|_| spec.keeps_coords());
    let mut placed = vec![false; coarse_n];
    let induced: Vec<NodeId> = fine
        .stored_nodes()
        .map(|v| coarse_of[v as usize])
        .filter(|&c| !std::mem::replace(&mut placed[c as usize], true))
        .collect();
    drop(placed);
    let order = NodeOrder::new(induced).expect("every coarse node has a fine node");

    // Coarse graphs are generically weighted (merged parallel edges), so
    // their segments store weights explicitly. Node data is by id and reads
    // no rows.
    let coarse_graph = spec.build(coarse_n, true, order, |order, push| {
        let mut merger = RowMerger::new(0, coarse_n);
        for p in 0..coarse_n {
            let c = order.map_or(p, |o| o.nodes()[p] as usize);
            push(merger.merged_row(fine, &coarse_of, reps[c]))?;
        }
        let mut vwgt: Vec<NodeWeight> = Vec::with_capacity(coarse_n);
        let mut coords = kept_coords.map(|_| Vec::with_capacity(coarse_n));
        for &reps in &reps {
            let (weight, coord) = merged_node(fine, kept_coords, reps);
            vwgt.push(weight);
            if let (Some(out), Some(coord)) = (&mut coords, coord) {
                out.push(coord);
            }
        }
        Ok((Some(vwgt), coords))
    })?;
    Ok(Contraction {
        coarse_graph,
        coarse_of,
    })
}

/// Spill policy: where each coarse level goes.
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Directory for spill files (one `level-<i>.kpg` per paged level);
    /// created if missing, a level's file is deleted when the level drops.
    pub spill_dir: PathBuf,
    /// A coarse level is paged while its *fine* graph still has more than
    /// this many half-edges (the coarse size is bounded by the fine size);
    /// below it the level is built as in-RAM [`kappa_mem::CompactCsr`].
    pub spill_above_half_edges: usize,
    /// Page-cache geometry for every paged level.
    pub cache: PageCacheConfig,
}

impl SpillConfig {
    /// Spill policy writing to `spill_dir` with default thresholds
    /// (levels above 2²³ half-edges stay on disk, 64 MiB cache each).
    pub fn new(spill_dir: PathBuf) -> Self {
        SpillConfig {
            spill_dir,
            spill_above_half_edges: 1 << 23,
            cache: PageCacheConfig::default(),
        }
    }

    /// Contracts `matching` in `fine` into hierarchy level `level` on the
    /// tier this policy assigns it: a delete-on-drop paged file
    /// `level-<level>.kpg` while `fine` is above the threshold, compact RAM
    /// below it.
    pub fn contract(
        &self,
        fine: &TierGraph,
        matching: &Matching,
        level: usize,
    ) -> io::Result<Contraction<TierGraph>> {
        if fine.num_half_edges() <= self.spill_above_half_edges {
            return contract_to_tier(fine, matching, TierSpec::Compact);
        }
        std::fs::create_dir_all(&self.spill_dir)?;
        let spec = TierSpec::Paged {
            path: &self.spill_dir.join(format!("level-{level}.kpg")),
            cache: self.cache,
        };
        let mut contraction = contract_to_tier(fine, matching, spec)?;
        contraction.coarse_graph.set_delete_on_drop(true);
        Ok(contraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::contract_matching;
    use crate::hierarchy::{CoarseningConfig, MultilevelHierarchy};
    use kappa_graph::Partition;
    use kappa_matching::{compute_matching, EdgeRating, MatchingAlgorithm};

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kappa-tiered-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn tiered_contraction_matches_classic_on_every_tier() {
        let g = kappa_gen::rgg::random_geometric_graph(2000, 17);
        let m = compute_matching(&g, MatchingAlgorithm::Gpa, EdgeRating::ExpansionStar2, 5);
        let classic = contract_matching(&g, &m);

        let compact = contract_to_tier(&g, &m, TierSpec::Compact).unwrap();
        assert_eq!(compact.coarse_of, classic.coarse_of);
        // Compact keeps coordinates; decoding must reproduce the classic
        // coarse graph including the averaged floats.
        assert_eq!(compact.coarse_graph.to_csr(), classic.coarse_graph);

        let dir = tmpdir("contract");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("coarse.kpg");
        let paged = contract_to_tier(
            &g,
            &m,
            TierSpec::Paged {
                path: &path,
                cache: PageCacheConfig::default(),
            },
        )
        .unwrap();
        assert_eq!(paged.coarse_of, classic.coarse_of);
        // Paged drops coordinates; everything else must decode identically.
        let mut want = classic.coarse_graph.clone();
        want.set_coords(None);
        assert_eq!(paged.coarse_graph.to_csr(), want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The cross-store check of the single coarsening loop: the same matcher
    /// over plain CSR and over a paged finest graph with spilling levels
    /// yields the same level count and the same decoded graphs.
    #[test]
    fn tiered_hierarchy_mirrors_classic_levels() {
        let g = kappa_gen::grid::grid2d(40, 40);
        let config = CoarseningConfig {
            stop_at_nodes: 50,
            ..Default::default()
        };
        let rating = EdgeRating::ExpansionStar2;
        let classic = MultilevelHierarchy::build(
            &g,
            crate::MatcherKind::Sequential(MatchingAlgorithm::Gpa),
            rating,
            &config,
        );
        let dir = tmpdir("hier");
        std::fs::create_dir_all(&dir).unwrap();
        let spill = SpillConfig {
            spill_dir: dir,
            // Force the first levels onto disk.
            spill_above_half_edges: 2000,
            cache: PageCacheConfig {
                page_size: 4096,
                cache_pages: 16,
            },
        };
        let finest = TierGraph::Paged(
            kappa_mem::PagedGraph::from_graph(&g, &spill.spill_dir.join("finest.kpg"), spill.cache)
                .unwrap(),
        );
        let tiered = MultilevelHierarchy::build_with(
            &finest,
            &config,
            |gr, seed| compute_matching(gr, MatchingAlgorithm::Gpa, rating, seed),
            |gr, m, level| spill.contract(gr, m, level),
        )
        .unwrap();

        assert_eq!(tiered.num_levels(), classic.num_levels());
        assert!(tiered.node_weight_invariant_holds());
        let tiers: Vec<_> = tiered.graphs().map(TierGraph::tier_name).collect();
        assert_eq!(tiers[0], "paged");
        assert!(
            tiers.contains(&"compact"),
            "coarse levels should leave disk: {tiers:?}"
        );
        for l in 0..tiered.num_levels() {
            let a = tiered.graph_at(l).to_csr();
            let b = classic.graph_at(l);
            // The paged finest dropped coordinates, so compare structure.
            assert_eq!(a.num_nodes(), b.num_nodes(), "level {l}");
            assert_eq!(a.num_half_edges(), b.num_half_edges(), "level {l}");
            let mut want = b.clone();
            want.set_coords(None);
            let mut got = a;
            got.set_coords(None);
            assert_eq!(got, want, "level {l}");
        }
        drop(tiered);
        // Spill files are delete-on-drop; the directory empties out.
        let leftovers: Vec<_> = std::fs::read_dir(&spill.spill_dir)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name();
                (name != "finest.kpg").then_some(name)
            })
            .collect();
        assert!(
            leftovers.is_empty(),
            "spill files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&spill.spill_dir).unwrap();
    }

    /// The upward walk frees every level it leaves: when `refine` runs on
    /// level l, no spill file of a coarser level is left on disk.
    #[test]
    fn uncoarsening_drops_each_level_before_refining_the_finer_one() {
        let g = kappa_gen::grid::grid2d(40, 40);
        let config = CoarseningConfig {
            stop_at_nodes: 50,
            ..Default::default()
        };
        let spill = SpillConfig {
            spill_dir: tmpdir("walk"),
            spill_above_half_edges: 500,
            cache: PageCacheConfig {
                page_size: 4096,
                cache_pages: 16,
            },
        };
        let finest = TierGraph::Compact(kappa_mem::CompactCsr::from_graph(&g));
        let hierarchy = MultilevelHierarchy::build_with(
            &finest,
            &config,
            |gr, seed| compute_matching(gr, MatchingAlgorithm::Gpa, EdgeRating::Weight, seed),
            |gr, m, level| spill.contract(gr, m, level),
        )
        .unwrap();
        // The levels on disk, by the `level-<l>.kpg` name of their file.
        let spilled = || -> Vec<usize> {
            let mut levels: Vec<usize> = std::fs::read_dir(&spill.spill_dir)
                .unwrap()
                .filter_map(|e| {
                    let name = e.unwrap().file_name().into_string().unwrap();
                    name.strip_prefix("level-")?
                        .strip_suffix(".kpg")?
                        .parse()
                        .ok()
                })
                .collect();
            levels.sort_unstable();
            levels
        };
        let top = hierarchy.num_levels() - 1;
        assert!(
            spilled().len() >= 2,
            "levels did not spill: {:?}",
            spilled()
        );
        let n = hierarchy.coarsest().num_nodes();
        let coarsest = Partition::from_assignment(2, (0..n).map(|i| (i % 2) as u32).collect());
        let mut visited = Vec::new();
        let state = hierarchy.uncoarsen(coarsest, |graph, _| {
            let level = top - visited.len();
            let left: Vec<_> = spilled().into_iter().filter(|&l| l > level).collect();
            assert!(
                left.is_empty(),
                "refining level {level} while coarser levels {left:?} are on disk"
            );
            visited.push(graph.num_nodes());
        });
        assert_eq!(visited.len(), top + 1);
        assert_eq!(state.partition().num_nodes(), g.num_nodes());
        assert!(spilled().is_empty());
        std::fs::remove_dir_all(&spill.spill_dir).unwrap();
    }
}
