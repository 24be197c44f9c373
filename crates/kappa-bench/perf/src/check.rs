//! The independent checker: everything is recounted from the raw CSR arrays
//! and the assignment, with no help from the partitioner's own metrics.

/// Borrowed CSR arrays of the input graph.
#[derive(Clone, Copy)]
pub struct RawGraph<'a> {
    pub xadj: &'a [usize],
    pub adjncy: &'a [u32],
    pub adjwgt: &'a [u64],
    pub vwgt: &'a [u64],
}

/// Imbalance tolerance of every workload (the presets' default).
pub const EPSILON: f64 = 0.03;

/// The paper's balance bound `ceil((1 + eps) * c(V) / k) + max c(v)`.
pub fn l_max(vwgt: &[u64], k: u32) -> u64 {
    let total: u64 = vwgt.iter().sum();
    let max = vwgt.iter().copied().max().unwrap_or(0);
    ((1.0 + EPSILON) * total as f64 / k as f64).ceil() as u64 + max
}

/// Total weight of the edges whose endpoints lie in different blocks.
pub fn edge_cut(g: RawGraph<'_>, assignment: &[u32]) -> u64 {
    let mut twice = 0u64;
    for v in 0..g.vwgt.len() {
        for e in g.xadj[v]..g.xadj[v + 1] {
            if assignment[g.adjncy[e] as usize] != assignment[v] {
                twice += g.adjwgt[e];
            }
        }
    }
    twice / 2
}

/// Number of nodes with at least one neighbour in another block.
pub fn boundary_nodes(g: RawGraph<'_>, assignment: &[u32]) -> usize {
    (0..g.vwgt.len())
        .filter(|&v| {
            (g.xadj[v]..g.xadj[v + 1]).any(|e| assignment[g.adjncy[e] as usize] != assignment[v])
        })
        .count()
}

/// Validates one partition and returns its recounted cut.
pub fn check_partition(g: RawGraph<'_>, k: u32, assignment: &[u32]) -> Result<u64, String> {
    let n = g.vwgt.len();
    if assignment.len() != n {
        return Err(format!(
            "assignment has {} entries for {n} nodes",
            assignment.len()
        ));
    }
    let mut weights = vec![0u64; k as usize];
    for (v, &b) in assignment.iter().enumerate() {
        if b >= k {
            return Err(format!("node {v} is in block {b}, k = {k}"));
        }
        weights[b as usize] += g.vwgt[v];
    }
    let heaviest = weights.iter().copied().max().unwrap_or(0);
    let bound = l_max(g.vwgt, k);
    if heaviest > bound {
        return Err(format!("heaviest block weighs {heaviest}, L_max = {bound}"));
    }
    Ok(edge_cut(g, assignment))
}

/// Reps of one seed repeat identical work, so their cuts must agree.
pub fn check_pass_cuts(cuts: &[u64]) -> Result<(), String> {
    match cuts.iter().find(|&&c| c != cuts[0]) {
        Some(other) => Err(format!(
            "cut differs between passes of one seed: {} vs {other}",
            cuts[0]
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-cycle 0-1-2-3-0 with unit weights.
    const XADJ: [usize; 5] = [0, 2, 4, 6, 8];
    const ADJNCY: [u32; 8] = [1, 3, 0, 2, 1, 3, 2, 0];
    const ONES: [u64; 8] = [1; 8];

    fn cycle() -> RawGraph<'static> {
        RawGraph {
            xadj: &XADJ,
            adjncy: &ADJNCY,
            adjwgt: &ONES,
            vwgt: &ONES[..4],
        }
    }

    #[test]
    fn accepts_a_balanced_bisection_and_recounts_its_cut() {
        assert_eq!(check_partition(cycle(), 2, &[0, 0, 1, 1]), Ok(2));
        assert_eq!(boundary_nodes(cycle(), &[0, 0, 1, 1]), 4);
        assert_eq!(boundary_nodes(cycle(), &[0, 0, 0, 0]), 0);
    }

    #[test]
    fn rejects_a_flipped_block_id() {
        let err = check_partition(cycle(), 2, &[0, 0, 1, 2]).unwrap_err();
        assert!(err.contains("block 2"), "{err}");
    }

    #[test]
    fn rejects_a_short_assignment() {
        assert!(check_partition(cycle(), 2, &[0, 0, 1]).is_err());
    }

    #[test]
    fn rejects_an_overweight_block() {
        // 100 unit nodes, k = 2: L_max = ceil(51.5) + 1 = 53.
        let n = 100usize;
        let xadj = vec![0usize; n + 1];
        let vwgt = vec![1u64; n];
        let g = RawGraph {
            xadj: &xadj,
            adjncy: &[],
            adjwgt: &[],
            vwgt: &vwgt,
        };
        assert_eq!(l_max(&vwgt, 2), 53);
        let mut assignment = vec![0u32; n];
        assignment[..46].fill(1);
        assert!(check_partition(g, 2, &assignment).is_err(), "54 > 53");
        assignment[46] = 1;
        assert_eq!(check_partition(g, 2, &assignment), Ok(0), "53 <= 53");
    }

    #[test]
    fn rejects_a_pass_to_pass_cut_mismatch() {
        assert!(check_pass_cuts(&[7, 7, 7]).is_ok());
        assert!(check_pass_cuts(&[7, 8, 7]).is_err());
    }
}
