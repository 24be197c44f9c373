//! Queue-selection strategies for the 2-way FM search (§5.2, Table 4 left).
//!
//! The FM search keeps one priority queue per block of the pair. Which queue
//! supplies the next move matters surprisingly much (about 3 % cut according
//! to the paper):
//!
//! * `Alternate` — strictly alternate between the two blocks (the original
//!   Fiduccia–Mattheyses rule).
//! * `MaxLoad` — always move a node out of the heavier block (best balance,
//!   worst cut).
//! * `TopGain` — use the queue whose best candidate promises the larger gain;
//!   to stay feasible it falls back to `MaxLoad` whenever a block is
//!   overloaded. This is the paper's default.
//! * `TopGainMaxLoad` — like `TopGain` but breaks gain ties towards the
//!   heavier block.

/// Which of the two per-block priority queues supplies the next FM move.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueueSelection {
    /// Alternate strictly between the two blocks.
    Alternate,
    /// Always move out of the heavier block.
    MaxLoad,
    /// Pick the queue with the larger top gain; fall back to `MaxLoad` when a
    /// block exceeds `L_max` (the paper's default).
    TopGain,
    /// `TopGain` with ties broken towards the heavier block.
    TopGainMaxLoad,
    /// Test-only pathological strategy that insists on block A even when A's
    /// queue is empty — exercises the FM loop's termination guard for
    /// strategies that repeatedly select an emptied queue.
    #[cfg(test)]
    StuckOnA,
}

impl QueueSelection {
    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            QueueSelection::Alternate => "Alternate",
            QueueSelection::MaxLoad => "MaxLoad",
            QueueSelection::TopGain => "TopGain",
            QueueSelection::TopGainMaxLoad => "TopGainMaxLoad",
            #[cfg(test)]
            QueueSelection::StuckOnA => "StuckOnA",
        }
    }

    /// All strategies in the order of Table 4 (left).
    pub fn all() -> [QueueSelection; 4] {
        [
            QueueSelection::TopGain,
            QueueSelection::Alternate,
            QueueSelection::TopGainMaxLoad,
            QueueSelection::MaxLoad,
        ]
    }

    /// Decides which side moves next.
    ///
    /// * `gain_a` / `gain_b`: best available gain per queue (`None` = empty);
    /// * `weight_a` / `weight_b`: current block weights;
    /// * `overloaded`: true if either block currently exceeds `L_max`;
    /// * `last_was_a`: whether the previous move came out of block A.
    ///
    /// Returns `Some(true)` to move from A, `Some(false)` to move from B,
    /// `None` if both queues are exhausted.
    #[allow(clippy::too_many_arguments, reason = "the decision's inputs")]
    pub fn choose(
        &self,
        gain_a: Option<i64>,
        gain_b: Option<i64>,
        weight_a: u64,
        weight_b: u64,
        overloaded: bool,
        last_was_a: bool,
    ) -> Option<bool> {
        // The pathological test strategy bypasses the empty-queue shortcut
        // below on purpose: it selects A as long as *any* queue is non-empty.
        #[cfg(test)]
        if matches!(self, QueueSelection::StuckOnA) {
            return match (gain_a, gain_b) {
                (None, None) => None,
                _ => Some(true),
            };
        }
        match (gain_a, gain_b) {
            (None, None) => None,
            (Some(_), None) => Some(true),
            (None, Some(_)) => Some(false),
            (Some(ga), Some(gb)) => Some(match self {
                QueueSelection::Alternate => !last_was_a,
                QueueSelection::MaxLoad => weight_a >= weight_b,
                QueueSelection::TopGain => {
                    if overloaded {
                        weight_a >= weight_b
                    } else if ga != gb {
                        ga > gb
                    } else {
                        !last_was_a
                    }
                }
                QueueSelection::TopGainMaxLoad => {
                    if overloaded {
                        weight_a >= weight_b
                    } else if ga != gb {
                        ga > gb
                    } else {
                        weight_a >= weight_b
                    }
                }
                #[cfg(test)]
                QueueSelection::StuckOnA => unreachable!("handled before the match"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_queues_return_none() {
        assert_eq!(
            QueueSelection::TopGain.choose(None, None, 10, 10, false, false),
            None
        );
        assert_eq!(
            QueueSelection::Alternate.choose(Some(1), None, 10, 10, false, true),
            Some(true)
        );
        assert_eq!(
            QueueSelection::MaxLoad.choose(None, Some(1), 10, 10, false, true),
            Some(false)
        );
    }

    #[test]
    fn alternate_alternates() {
        let s = QueueSelection::Alternate;
        assert_eq!(s.choose(Some(5), Some(9), 1, 1, false, true), Some(false));
        assert_eq!(s.choose(Some(5), Some(9), 1, 1, false, false), Some(true));
    }

    #[test]
    fn maxload_follows_weight() {
        let s = QueueSelection::MaxLoad;
        assert_eq!(
            s.choose(Some(100), Some(-5), 10, 90, false, false),
            Some(false)
        );
        assert_eq!(
            s.choose(Some(-5), Some(100), 90, 10, false, false),
            Some(true)
        );
    }

    #[test]
    fn topgain_prefers_gain_but_respects_overload() {
        let s = QueueSelection::TopGain;
        assert_eq!(s.choose(Some(7), Some(3), 10, 90, false, false), Some(true));
        // Overloaded: the heavier block must give, regardless of gain.
        assert_eq!(s.choose(Some(7), Some(3), 10, 90, true, false), Some(false));
        // Gain tie without overload: alternate.
        assert_eq!(s.choose(Some(4), Some(4), 10, 90, false, true), Some(false));
    }

    #[test]
    fn topgain_maxload_breaks_ties_by_weight() {
        let s = QueueSelection::TopGainMaxLoad;
        assert_eq!(
            s.choose(Some(4), Some(4), 10, 90, false, false),
            Some(false)
        );
        assert_eq!(s.choose(Some(4), Some(4), 90, 10, false, false), Some(true));
        assert_eq!(s.choose(Some(9), Some(4), 10, 90, false, false), Some(true));
    }

    #[test]
    fn names_and_all() {
        assert_eq!(QueueSelection::all().len(), 4);
        assert_eq!(QueueSelection::TopGain.name(), "TopGain");
    }
}
