#![forbid(unsafe_code)]
//! Violation fixture: a reference twin that is test-only where it is
//! defined, but re-exported from the crate root and called on a production
//! path.

pub use scheduler::refine_partition_reference;

pub fn refine(graph: &Graph, partition: &mut Partition) -> Stats {
    scheduler::refine_partition_reference(graph, partition)
}

mod scheduler {
    #[cfg(test)]
    pub fn refine_partition_reference(graph: &Graph, partition: &mut Partition) -> Stats {
        Stats::default()
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn reference_runs() {
            super::refine_partition_reference(&Graph::new(), &mut Partition::new());
        }
    }
}
