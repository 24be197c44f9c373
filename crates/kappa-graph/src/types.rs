//! Fundamental index and weight types shared across the workspace.
//!
//! Node and block identifiers are 32-bit: the paper's largest instance
//! (`eur`, 18 M nodes) and anything we generate on a single machine fits
//! comfortably, and halving the index width keeps the CSR arrays cache
//! friendly (cf. the "Smaller Integers" advice in the Rust Performance Book).

/// Identifier of a node (vertex). Nodes are numbered `0..n`.
pub type NodeId = u32;

/// Identifier of a block (partition part). Blocks are numbered `0..k`.
pub type BlockId = u32;

/// Node weight `c(v)`. Unit-weight inputs become weighted during contraction,
/// so weights are accumulated in a wide unsigned integer.
pub type NodeWeight = u64;

/// Edge weight `ω(e)`. Parallel edges created by contraction are merged by
/// summing their weights, so edge weights also grow during coarsening.
pub type EdgeWeight = u64;

/// Sentinel for "no node".
pub const INVALID_NODE: NodeId = NodeId::MAX;

/// Sentinel for "not assigned to any block yet".
pub const INVALID_BLOCK: BlockId = BlockId::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinels_are_distinct_from_small_ids() {
        assert_ne!(INVALID_NODE, 0);
        assert_ne!(INVALID_BLOCK, 0);
        const { assert!(INVALID_NODE > 1_000_000_000) };
    }
}
