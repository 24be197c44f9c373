//! Pinned CSR arrays: the FNV-1a-64 hash of every array of the graph each
//! `kappa_gen::generate` family produces at two sizes, of the rgg/grid
//! streaming sources encoded on the compact store, and of one METIS write →
//! read round trip — generated at the commit *before* the single counting
//! build replaced `GraphBuilder`'s global sort and kappa-mem's own fill.
//!
//! A second table pins every level of the coarsening hierarchy (sequential
//! GPA, expansion*2) of three instances: the hash of each coarse graph and
//! the cardinality of the matching that made it, generated at the commit
//! before GPA and the contraction were rewritten for speed. Each level is
//! also re-contracted at one and four threads and onto the compact tier.
//!
//! `tests/golden.rs` pins partitions, which only move when a graph moves in a
//! way the partitioner notices; these tables notice any byte of `xadj`,
//! `adjncy`, `adjwgt`, `vwgt` or the coordinates. Do not edit a row to make
//! a refactor pass: a mismatch means a graph changed.

use kappa::coarsen::{
    contract_matching, contract_to_tier, CoarseningConfig, MatcherKind, MultilevelHierarchy,
};
use kappa::gen::{generate, Grid2dSource, RggSource};
use kappa::graph::{parse_metis, to_metis_string, CsrGraph};
use kappa::matching::{compute_matching, EdgeRating, MatchingAlgorithm};
use kappa::mem::{TierGraph, TierSpec};

fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One hash over every array of `g`, each length-prefixed so that bytes
/// cannot slide from one array into the next.
#[expect(
    clippy::disallowed_methods,
    reason = "hashes the raw weight arrays, implicit ones included"
)]
fn csr_hash(g: &CsrGraph) -> u64 {
    let mut bytes: Vec<u8> = Vec::new();
    let mut array = |len: usize, data: &mut dyn Iterator<Item = u8>| {
        bytes.extend((len as u64).to_le_bytes());
        bytes.extend(data);
    };
    array(
        g.xadj().len(),
        &mut g.xadj().iter().flat_map(|&x| (x as u64).to_le_bytes()),
    );
    array(
        g.adjncy().len(),
        &mut g.adjncy().iter().flat_map(|x| x.to_le_bytes()),
    );
    array(
        g.adjwgt().len(),
        &mut g.adjwgt().iter().flat_map(|x| x.to_le_bytes()),
    );
    array(
        g.vwgt().len(),
        &mut g.vwgt().iter().flat_map(|x| x.to_le_bytes()),
    );
    let coords = g.coords().unwrap_or(&[]);
    array(
        coords.len(),
        &mut coords
            .iter()
            .flat_map(|c| [c[0].to_bits(), c[1].to_bits()])
            .flat_map(|x| x.to_le_bytes()),
    );
    fnv1a64(bytes)
}

fn compact(src: &impl kappa::graph::EdgeSource) -> CsrGraph {
    TierGraph::from_source(src, TierSpec::Compact)
        .expect("compact build")
        .to_csr()
}

#[test]
fn every_generated_and_read_graph_reproduces_the_pinned_hashes() {
    let mut actual: Vec<(String, u64)> = Vec::new();
    for family in ["rgg", "delaunay", "grid", "road", "rmat"] {
        for nodes in [1000usize, 6000] {
            let g = generate(family, nodes, 11).expect("known family");
            assert!(g.validate().is_ok(), "{family} {nodes}");
            actual.push((format!("generate/{family}/{nodes}"), csr_hash(&g)));
        }
    }
    for nodes in [1000usize, 6000] {
        actual.push((
            format!("compact/rgg/{nodes}"),
            csr_hash(&compact(&RggSource::new(nodes, 11))),
        ));
    }
    actual.push((
        "compact/grid/77x31".to_string(),
        csr_hash(&compact(&Grid2dSource::new(77, 31))),
    ));
    let road = generate("road", 6000, 5).expect("road");
    let read = parse_metis(&to_metis_string(&road)).expect("round trip");
    actual.push(("metis/road/6000".to_string(), csr_hash(&read)));

    let matches = actual.len() == PINNED.len()
        && actual
            .iter()
            .zip(PINNED)
            .all(|(a, p)| (a.0.as_str(), a.1) == *p);
    if !matches {
        let table: String = actual
            .iter()
            .map(|(tag, hash)| format!("    (\"{tag}\", {hash:#018x}),\n"))
            .collect();
        panic!("pinned CSR hash mismatch; the rows this commit produces:\n{table}");
    }
}

const PINNED: &[(&str, u64)] = &[
    ("generate/rgg/1000", 0x0ec9e1be1558cd56),
    ("generate/rgg/6000", 0x545da5a2ef53a980),
    ("generate/delaunay/1000", 0x359dfd134178cd93),
    ("generate/delaunay/6000", 0xde3fbc64009c41ba),
    ("generate/grid/1000", 0xb51004e5955798b0),
    ("generate/grid/6000", 0x6162a1e30c7c25ae),
    ("generate/road/1000", 0xbadec03f612e83f8),
    ("generate/road/6000", 0xe78cc1243552d93e),
    ("generate/rmat/1000", 0xf4eb3d26c123344d),
    ("generate/rmat/6000", 0x9f8cfefb808159f6),
    ("compact/rgg/1000", 0x0ec9e1be1558cd56),
    ("compact/rgg/6000", 0x545da5a2ef53a980),
    ("compact/grid/77x31", 0x47cd0ba2baa2d2d1),
    ("metis/road/6000", 0x8f72db595c50038d),
];

/// One row per coarse level: `(tag, matched pairs, csr_hash of the coarse
/// graph)`. The tag names the instance and the level the matching ran on.
type LevelRow = (String, usize, u64);

/// Every level of the sequential GPA / expansion*2 hierarchy of `g`, each
/// coarse graph hashed, with the cardinality of the matching that made it.
/// Every level is contracted three more times from the same matching —
/// `contract_matching` in a one- and a four-thread pool and
/// `contract_to_tier` on the compact store — and each must hash like the
/// hierarchy's own level.
fn hierarchy_rows(name: &str, g: &CsrGraph, rows: &mut Vec<LevelRow>) {
    let config = CoarseningConfig {
        stop_at_nodes: 64,
        seed: 1,
    };
    let rating = EdgeRating::ExpansionStar2;
    let matcher = MatcherKind::Sequential(MatchingAlgorithm::Gpa);
    let hierarchy = MultilevelHierarchy::build(g, matcher, rating, &config);
    for level in 0..hierarchy.num_levels() - 1 {
        let fine = hierarchy.graph_at(level);
        let coarse = hierarchy.graph_at(level + 1);
        let matching = compute_matching(
            fine,
            MatchingAlgorithm::Gpa,
            rating,
            config.level_seed(level),
        );
        assert!(matching.validate(Some(fine)).is_ok(), "{name} l{level}");
        let hash = csr_hash(coarse);
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool");
            let again = pool.install(|| contract_matching(fine, &matching));
            assert_eq!(
                csr_hash(&again.coarse_graph),
                hash,
                "{name} l{level} threads {threads}"
            );
        }
        let tier =
            contract_to_tier(fine, &matching, TierSpec::Compact).expect("compact contraction");
        assert_eq!(
            csr_hash(&tier.coarse_graph.to_csr()),
            hash,
            "{name} l{level} compact"
        );
        rows.push((format!("{name}/l{level}"), matching.cardinality(), hash));
    }
}

#[test]
fn every_coarsening_level_reproduces_the_pinned_hashes() {
    let mut actual: Vec<LevelRow> = Vec::new();
    hierarchy_rows(
        "rgg/16384",
        &kappa::gen::rgg::random_geometric_graph(1 << 14, 7),
        &mut actual,
    );
    hierarchy_rows(
        "rmat/4096",
        &kappa::gen::rmat::rmat_graph(12, 8, 7),
        &mut actual,
    );
    hierarchy_rows("grid/64x64", &kappa::gen::grid::grid2d(64, 64), &mut actual);

    let matches = actual.len() == PINNED_LEVELS.len()
        && actual
            .iter()
            .zip(PINNED_LEVELS)
            .all(|(a, p)| (a.0.as_str(), a.1, a.2) == *p);
    if !matches {
        let table: String = actual
            .iter()
            .map(|(tag, pairs, hash)| format!("    (\"{tag}\", {pairs}, {hash:#018x}),\n"))
            .collect();
        panic!("pinned hierarchy mismatch; the rows this commit produces:\n{table}");
    }
}

const PINNED_LEVELS: &[(&str, usize, u64)] = &[
    ("rgg/16384/l0", 7890, 0x1945c787abbfe2cf),
    ("rgg/16384/l1", 3898, 0x04881476591e07c3),
    ("rgg/16384/l2", 1995, 0x525ee5b1bb5be9a1),
    ("rgg/16384/l3", 1106, 0x5d1f235696914e58),
    ("rgg/16384/l4", 628, 0x8771b538a9361e07),
    ("rgg/16384/l5", 367, 0xb9a07f1df428c4f7),
    ("rgg/16384/l6", 205, 0xbb7efcf997de6c33),
    ("rgg/16384/l7", 127, 0x24c12d9622c23cd7),
    ("rgg/16384/l8", 72, 0x290c2544050535a0),
    ("rgg/16384/l9", 39, 0x38a516d17c717d51),
    ("rmat/4096/l0", 839, 0xb8fdcee62349d3ad),
    ("rmat/4096/l1", 516, 0xc221193e280deb23),
    ("rmat/4096/l2", 351, 0xb1f9033f88fe28f7),
    ("rmat/4096/l3", 241, 0x58ce9a9d185ea7da),
    ("rmat/4096/l4", 163, 0x55112c328efbfbf3),
    ("rmat/4096/l5", 103, 0x3a3cc80945f16d88),
    ("rmat/4096/l6", 63, 0x9c9822b9b1765940),
    ("rmat/4096/l7", 40, 0xe5cffced5b60643f),
    ("grid/64x64/l0", 1970, 0xe02d0605e9bea86d),
    ("grid/64x64/l1", 956, 0xb604f6df2e613bc7),
    ("grid/64x64/l2", 535, 0x34fabd99efd6942a),
    ("grid/64x64/l3", 290, 0xd2ed87bd5b4f70ce),
    ("grid/64x64/l4", 156, 0x43848b4f26af2178),
    ("grid/64x64/l5", 84, 0x237187546113f177),
    ("grid/64x64/l6", 46, 0xc16c6d47dcdfddb5),
];
