//! The random-graph proptest strategy and the xorshift stream under it —
//! one file, declared as a module both by `tests/common` (the workspace
//! suites) and, through `#[path]`, by the test builds of the crates whose
//! in-crate proptests compare a kernel with its oracle twin (kappa-refine,
//! kappa-coarsen, kappa-baselines). Depends on `kappa-graph` and `proptest`
//! only, which all of them have.

use kappa_graph::{CsrGraph, GraphBuilder};
use proptest::prelude::*;

/// The deterministic xorshift64 stream used everywhere a test needs cheap
/// reproducible randomness (`seed` is forced odd so the stream never
/// collapses to zero).
pub fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Strategy: a random connected-ish weighted graph with up to `max_n` nodes
/// (ring backbone plus random chords, weighted 1..=9).
pub fn arbitrary_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (2usize..max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut builder = GraphBuilder::new(n);
        let mut next = xorshift(seed);
        for i in 0..n {
            builder.add_edge(i as u32, ((i + 1) % n) as u32, 1 + next() % 9);
        }
        for _ in 0..n {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            if u != v {
                builder.add_edge(u, v, 1 + next() % 9);
            }
        }
        builder.build()
    })
}
