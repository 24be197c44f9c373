//! The memory-tiered entry point: the multilevel pipeline running on compact
//! or paged graph storage (`--memory-tier {ram,compact,paged}`).
//!
//! [`partition_tiered`] runs the same driver as
//! [`KappaPartitioner`](crate::KappaPartitioner) and differs from it in what
//! it hands that driver:
//!
//! 1. **Sequential matching.** The parallel matcher of §3.3 needs the whole
//!    level's rated edge list and (optionally) coordinates; both clash with
//!    out-of-core storage. The tiered path always matches sequentially,
//!    which is *exactly* what the in-RAM path does at `num_threads = 1`
//!    (the parallel matcher short-circuits to [`compute_matching`] for one
//!    part), and likewise runs the configured initial repeats once. Hence
//!    the acceptance invariant, asserted in `tests/mem.rs`: for the same
//!    seed and preset, a paged run is **bit-identical** to the in-RAM run
//!    at one thread.
//! 2. **Spilled hierarchy.** [`SpillConfig::contract`] puts fine levels on
//!    disk and mid levels in compact RAM; only the coarsest level is decoded
//!    to plain CSR for the initial partitioner.
//!
//! Refinement itself is tier-agnostic: it is generic over
//! [`kappa_graph::GraphAccess`] and deterministic for every
//! thread count, so it runs unchanged on paged levels.

use std::borrow::Cow;
use std::io;
use std::path::{Path, PathBuf};

use kappa_coarsen::SpillConfig;
use kappa_matching::compute_matching;
use kappa_mem::{PageCacheConfig, TierGraph, TierSpec};

use crate::config::KappaConfig;
use crate::partitioner::{multilevel, PartitionResult};

/// The storage level a run keeps its graphs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemoryTier {
    /// Plain CSR in RAM — the classic pipeline.
    Ram,
    /// Delta-varint compact encoding in RAM (~half the footprint or better).
    Compact,
    /// Fine levels on disk behind a fixed-budget page cache.
    Paged,
}

impl MemoryTier {
    /// Name as spelled on the command line.
    pub fn name(&self) -> &'static str {
        match self {
            MemoryTier::Ram => "ram",
            MemoryTier::Compact => "compact",
            MemoryTier::Paged => "paged",
        }
    }

    /// Parses a `--memory-tier` value.
    pub fn parse(s: &str) -> Option<MemoryTier> {
        match s {
            "ram" => Some(MemoryTier::Ram),
            "compact" => Some(MemoryTier::Compact),
            "paged" => Some(MemoryTier::Paged),
            _ => None,
        }
    }

    /// The store a tiered run builds its finest graph on — a paged file at
    /// `path` read through `cache`, or compact RAM — or `None` for `Ram`,
    /// which is the classic pipeline and never tiered.
    pub fn spec(self, path: &Path, cache: PageCacheConfig) -> Option<TierSpec<'_>> {
        match self {
            MemoryTier::Ram => None,
            MemoryTier::Compact => Some(TierSpec::Compact),
            MemoryTier::Paged => Some(TierSpec::Paged { path, cache }),
        }
    }
}

/// A tiered run's outcome: the usual [`PartitionResult`] plus which storage
/// tier every hierarchy level ended up on (finest first).
pub struct TieredPartitionResult {
    /// The partition, metrics and phase timings (same shape as a classic run).
    pub result: PartitionResult,
    /// Storage tier per hierarchy level, e.g. `["paged", "paged", "compact", …]`.
    pub level_tiers: Vec<&'static str>,
}

/// Partitions `finest` into `config.k` blocks on its storage tier.
///
/// Seed-compatible with the classic path at one thread (see module docs).
/// `spill` controls where coarse levels go; pass
/// [`SpillConfig::new`]`(dir)` for the defaults. Thread-count settings in
/// `config` affect only refinement parallelism, never the result.
pub fn partition_tiered(
    finest: TierGraph,
    config: &KappaConfig,
    spill: &SpillConfig,
) -> io::Result<TieredPartitionResult> {
    let mut level_tiers = vec![finest.tier_name()];
    let result = multilevel(
        config,
        &finest,
        1,
        |level_graph, seed| compute_matching(level_graph, config.matching, config.rating, seed),
        |level_graph, matching, level| {
            let contraction = spill.contract(level_graph, matching, level);
            contraction.inspect(|coarse| level_tiers.push(coarse.coarse_graph.tier_name()))
        },
        |coarsest| Cow::Owned(coarsest.to_csr()),
    )?;
    Ok(TieredPartitionResult {
        result,
        level_tiers,
    })
}

/// A scratch directory for spill files, namespaced by process id so
/// concurrent runs do not collide: `<tmp>/kappa-spill-<pid>[-<tag>]`.
pub fn default_spill_dir(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    if tag.is_empty() {
        dir.push(format!("kappa-spill-{}", std::process::id()));
    } else {
        dir.push(format!("kappa-spill-{}-{tag}", std::process::id()));
    }
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KappaPartitioner;

    fn spill(tag: &str) -> SpillConfig {
        SpillConfig::new(default_spill_dir(tag))
    }

    #[test]
    fn tier_names_parse_and_print() {
        for t in [MemoryTier::Ram, MemoryTier::Compact, MemoryTier::Paged] {
            assert_eq!(MemoryTier::parse(t.name()), Some(t));
        }
        assert_eq!(MemoryTier::parse("mmap"), None);
    }

    #[test]
    fn compact_tier_is_bit_identical_to_classic_at_one_thread() {
        let g = kappa_gen::rgg::random_geometric_graph(3000, 21);
        let config = KappaConfig::fast(8).with_seed(5).with_threads(1);
        let classic = KappaPartitioner::new(config).partition(&g);
        let tiered = partition_tiered(
            TierGraph::Compact(kappa_mem::CompactCsr::from_graph(&g)),
            &config,
            &spill("compact-parity"),
        )
        .unwrap();
        assert_eq!(
            tiered.result.partition.assignment(),
            classic.partition.assignment()
        );
        assert_eq!(tiered.result.metrics.edge_cut, classic.metrics.edge_cut);
        assert_eq!(tiered.result.hierarchy_levels, classic.hierarchy_levels);
    }

    #[test]
    fn paged_tier_is_bit_identical_to_classic_at_one_thread() {
        let g = kappa_gen::rgg::random_geometric_graph(2500, 33);
        let config = KappaConfig::fast(4).with_seed(9).with_threads(1);
        let classic = KappaPartitioner::new(config).partition(&g);
        let mut sp = spill("paged-parity");
        // Force several levels to actually live on disk.
        sp.spill_above_half_edges = 1000;
        sp.cache = PageCacheConfig {
            page_size: 4096,
            cache_pages: 32,
        };
        std::fs::create_dir_all(&sp.spill_dir).unwrap();
        let edges: Vec<_> = g.undirected_edges().collect();
        let src = kappa_graph::SliceEdgeSource::new(g.num_nodes(), &edges);
        let file = sp.spill_dir.join("finest.kpg");
        let spec = MemoryTier::Paged.spec(&file, sp.cache);
        assert!(MemoryTier::Ram.spec(&file, sp.cache).is_none());
        let paged = TierGraph::from_source(&src, spec.expect("paged is a tier")).unwrap();
        let tiered = partition_tiered(paged, &config, &sp).unwrap();
        assert_eq!(
            tiered.result.partition.assignment(),
            classic.partition.assignment()
        );
        assert!(
            tiered.level_tiers.iter().filter(|t| **t == "paged").count() >= 2,
            "levels did not spill: {:?}",
            tiered.level_tiers
        );
        // The hierarchy dropped inside `partition_tiered`: every spill level
        // is gone, only the caller's finest file (not delete-on-drop) stays.
        let left: Vec<_> = std::fs::read_dir(&sp.spill_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["finest.kpg"]);
        std::fs::remove_dir_all(&sp.spill_dir).unwrap();
    }
}
