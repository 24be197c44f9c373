//! Pinned CSR arrays: the FNV-1a-64 hash of every array of the graph each
//! `kappa_gen::generate` family produces at two sizes, of the rgg/grid
//! streaming sources encoded on the compact store, and of one METIS write →
//! read round trip — generated at the commit *before* the single counting
//! build replaced `GraphBuilder`'s global sort and kappa-mem's own fill.
//!
//! `tests/golden.rs` pins partitions, which only move when a graph moves in a
//! way the partitioner notices; this table notices any byte of `xadj`,
//! `adjncy`, `adjwgt`, `vwgt` or the coordinates. Do not edit a row to make
//! a refactor pass: a mismatch means a graph changed.

use kappa::gen::{generate, Grid2dSource, RggSource};
use kappa::graph::{parse_metis, to_metis_string, CsrGraph};
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
