#![forbid(unsafe_code)]
//! Clean fixture: the fast path is the only implementation outside test
//! code; `refine_partition_reference` and `FullScanSeeder` exist only as
//! `#[cfg(test)]` items and are named only by tests (and by this prose).

pub use scheduler::refine_partition;

mod scheduler {
    pub fn refine_partition(graph: &Graph, state: &mut State) -> Stats {
        Stats::default()
    }

    #[cfg(test)]
    pub(crate) struct FullScanSeeder;

    #[cfg(test)]
    pub(crate) fn refine_partition_reference(graph: &Graph, partition: &mut Partition) -> Stats {
        let _seeder = FullScanSeeder;
        Stats::default()
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn fast_path_matches_the_reference() {
            let oracle = super::refine_partition_reference(&Graph::new(), &mut Partition::new());
            assert_eq!(super::refine_partition(&Graph::new(), &mut State::new()), oracle);
        }
    }
}
