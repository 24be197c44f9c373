//! Deterministic fault injection in the send path of the
//! [`Comm`](crate::Comm) endpoint, whatever link it runs over.
//!
//! A [`FaultPlan`] decides, purely from `(seed, from, to, nth)`, what happens
//! to the `nth` message a rank sends to a peer: delivered, dropped,
//! duplicated, delayed, or reordered past the next message on the same
//! channel. Determinism per seed means a faulted run is exactly
//! reproducible regardless of thread or network timing.
//!
//! The endpoint applies the plan **below** sequence-number assignment (see
//! [`FaultInjector`]), which is what makes the non-lossy faults recoverable:
//! a duplicate carries the seq of the original and is discarded by the
//! receiver's dedup, a reordered pair is reassembled by the receiver's
//! sequence buffer, a delay only shifts timing. Only `drop` is unrecoverable
//! — and it must surface as a diagnosed
//! [`CommError`](crate::CommError) naming the stuck rank, peer and tag,
//! never as a hang or a wrong answer. `tests/comm_conformance.rs` holds the
//! property tests pinning exactly that contract over both links.

/// Which message to target with a guaranteed drop (the classic regression
/// shape: "the nth message from rank A to rank B vanishes").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DropSpec {
    /// Sending rank.
    pub from: usize,
    /// Receiving rank.
    pub to: usize,
    /// 0-based index among the messages `from` sends to `to`.
    pub nth: u64,
}

/// What happens to one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// The message vanishes.
    Drop,
    /// The message is delivered twice (same sequence number).
    Duplicate,
    /// Delivery is delayed by a short sleep (ordering preserved).
    Delay,
    /// The message is held back and delivered after the *next* message on the
    /// same channel (adjacent swap; if no further message follows, the held
    /// message is lost, which degrades to a diagnosed drop).
    Reorder,
}

/// A seeded, backend-agnostic fault schedule.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPlan {
    /// Seed of the per-message decision hash.
    pub seed: u64,
    /// Probability a message is dropped.
    pub drop: f64,
    /// Probability a message is duplicated.
    pub duplicate: f64,
    /// Probability a message is delayed.
    pub delay: f64,
    /// Probability a message is reordered past its successor.
    pub reorder: f64,
    /// Guaranteed targeted drop, independent of the probabilities.
    pub drop_exact: Option<DropSpec>,
}

impl FaultPlan {
    /// A plan that drops exactly the `nth` message from `from` to `to` and
    /// nothing else — the generalisation of the old
    /// `LocalClusterConfig::drop_message`.
    pub fn drop_nth(from: usize, to: usize, nth: u64) -> Self {
        FaultPlan {
            drop_exact: Some(DropSpec { from, to, nth }),
            ..FaultPlan::default()
        }
    }

    /// A seeded probabilistic plan. Probabilities are evaluated in the order
    /// drop, duplicate, delay, reorder over one uniform draw per message.
    pub fn seeded(seed: u64, drop: f64, duplicate: f64, delay: f64, reorder: f64) -> Self {
        FaultPlan {
            seed,
            drop,
            duplicate,
            delay,
            reorder,
            drop_exact: None,
        }
    }

    /// The action for the `nth` message from `from` to `to`. Pure function of
    /// the plan and the coordinates.
    pub fn action(&self, from: usize, to: usize, nth: u64) -> FaultAction {
        if let Some(spec) = self.drop_exact {
            if spec.from == from && spec.to == to && spec.nth == nth {
                return FaultAction::Drop;
            }
        }
        let total = self.drop + self.duplicate + self.delay + self.reorder;
        if total <= 0.0 {
            return FaultAction::Deliver;
        }
        // splitmix64 over (seed, from, to, nth) → uniform in [0, 1).
        let mut x = self
            .seed
            .wrapping_add((from as u64).wrapping_mul(0x9E3779B97F4A7C15))
            .wrapping_add((to as u64).wrapping_mul(0xBF58476D1CE4E5B9))
            .wrapping_add(nth.wrapping_mul(0x94D049BB133111EB));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^= x >> 31;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        let mut bound = self.drop;
        if u < bound {
            return FaultAction::Drop;
        }
        bound += self.duplicate;
        if u < bound {
            return FaultAction::Duplicate;
        }
        bound += self.delay;
        if u < bound {
            return FaultAction::Delay;
        }
        bound += self.reorder;
        if u < bound {
            return FaultAction::Reorder;
        }
        FaultAction::Deliver
    }
}

/// Classifies one `emit` callback from [`FaultInjector::dispatch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Emission {
    /// The caller's own envelope for the current send. A delivery failure
    /// here is a real send error (the receiver is gone with the message
    /// undelivered).
    Primary,
    /// An envelope manufactured or rescheduled by the fault plan (a
    /// duplicate twin, or a reorder-held envelope released late). Delivery
    /// failures are tolerated: the real message either already arrived or
    /// was already accounted a fault.
    Artifact,
}

/// Per-endpoint state applying a [`FaultPlan`] inside the send path.
///
/// Generic over the envelope type `E`: the injector tells the endpoint
/// *what* to emit via the `emit` callback; `dup` produces the duplicate twin
/// of an envelope (a byte-level clone over sockets, a same-seq decoy in
/// process — the receiver discards it by sequence number either way).
pub struct FaultInjector<E> {
    plan: FaultPlan,
    rank: usize,
    /// Messages sent so far per destination (the `nth` counter).
    sent: Vec<u64>,
    /// Held-back envelope per destination (a pending adjacent swap).
    held: Vec<Option<E>>,
}

impl<E> FaultInjector<E> {
    /// An injector for `rank` in a cluster of `ranks`.
    pub fn new(plan: FaultPlan, rank: usize, ranks: usize) -> Self {
        FaultInjector {
            plan,
            rank,
            sent: vec![0; ranks],
            held: (0..ranks).map(|_| None).collect(),
        }
    }

    /// Routes one outgoing envelope through the plan. `emit` performs the
    /// actual delivery (possibly called zero, one or two times); `dup` builds
    /// the duplicate twin when the plan asks for one.
    ///
    /// `emit` receives [`Emission::Primary`] exactly when it delivers the
    /// caller's own envelope for this send. Everything else — duplicate
    /// twins, held reorder envelopes released late — is an
    /// [`Emission::Artifact`] of the fault plan. A delivery failure is a send
    /// error **only for the primary**: a receiver that exits right after
    /// consuming the real message may legitimately bounce a trailing twin,
    /// and a held envelope that can no longer be delivered just degrades the
    /// reorder into a drop.
    pub fn dispatch(
        &mut self,
        to: usize,
        env: E,
        dup: impl FnOnce(&E) -> E,
        mut emit: impl FnMut(E, Emission),
    ) {
        let nth = self.sent[to];
        self.sent[to] += 1;
        match self.plan.action(self.rank, to, nth) {
            FaultAction::Deliver => emit(env, Emission::Primary),
            FaultAction::Drop => {}
            FaultAction::Duplicate => {
                let twin = dup(&env);
                emit(env, Emission::Primary);
                emit(twin, Emission::Artifact);
            }
            FaultAction::Delay => {
                std::thread::sleep(std::time::Duration::from_millis(2));
                emit(env, Emission::Primary);
            }
            FaultAction::Reorder => {
                // Hold this envelope; it goes out after the next one.
                if let Some(prev) = self.held[to].replace(env) {
                    emit(prev, Emission::Artifact);
                }
                return;
            }
        }
        if let Some(prev) = self.held[to].take() {
            emit(prev, Emission::Artifact);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_are_deterministic_per_seed() {
        let plan = FaultPlan::seeded(42, 0.05, 0.05, 0.05, 0.05);
        for from in 0..4 {
            for to in 0..4 {
                for nth in 0..200 {
                    assert_eq!(
                        plan.action(from, to, nth),
                        plan.action(from, to, nth),
                        "({from},{to},{nth})"
                    );
                }
            }
        }
        // Different seeds disagree somewhere.
        let other = FaultPlan::seeded(43, 0.05, 0.05, 0.05, 0.05);
        let same = (0..500).all(|nth| plan.action(0, 1, nth) == other.action(0, 1, nth));
        assert!(!same, "seeds 42 and 43 produced identical schedules");
    }

    #[test]
    fn drop_nth_targets_exactly_one_message() {
        let plan = FaultPlan::drop_nth(1, 2, 7);
        for from in 0..4 {
            for to in 0..4 {
                for nth in 0..50 {
                    let expected = if (from, to, nth) == (1, 2, 7) {
                        FaultAction::Drop
                    } else {
                        FaultAction::Deliver
                    };
                    assert_eq!(plan.action(from, to, nth), expected);
                }
            }
        }
    }

    #[test]
    fn probabilities_roughly_hold() {
        let plan = FaultPlan::seeded(7, 0.25, 0.0, 0.0, 0.0);
        let drops = (0..10_000)
            .filter(|&nth| plan.action(0, 1, nth) == FaultAction::Drop)
            .count();
        assert!((2_000..3_000).contains(&drops), "{drops} drops in 10k");
    }

    #[test]
    fn reorder_swaps_adjacent_envelopes() {
        let mut inj: FaultInjector<u32> = FaultInjector::new(
            FaultPlan {
                // Force reorder on every message via probability 1.
                reorder: 1.0,
                ..FaultPlan::default()
            },
            0,
            2,
        );
        let mut out = Vec::new();
        // Every message is held and released by its successor: sending
        // 0,1,2,3 emits 0,1,2 (each released by the next); 3 stays held.
        for v in 0..4u32 {
            inj.dispatch(1, v, |&e| e, |e, _| out.push(e));
        }
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn duplicate_emits_twice() {
        let mut inj: FaultInjector<u32> = FaultInjector::new(
            FaultPlan {
                duplicate: 1.0,
                ..FaultPlan::default()
            },
            0,
            2,
        );
        let mut out = Vec::new();
        inj.dispatch(1, 9, |&e| e, |e, _| out.push(e));
        assert_eq!(out, vec![9, 9]);
    }
}
