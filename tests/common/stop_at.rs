//! The one fault the conformance suite injects: a rank that stops.

use kappa::dist::{Comm, CommError, CommErrorKind, CommResult, CommStats, Message};

/// A [`Comm`] that stops rank `from`: its `n`-th send to `to` (0-based) and
/// every later one fail instead of leaving, so the rank returns early, its
/// endpoint drops and its links close — what a dying process does to its
/// peers. Every other rank, and rank `from` before that send, passes straight
/// through to the wrapped endpoint. Works over any link.
pub struct StopAt<'c, C> {
    comm: &'c mut C,
    stops: bool,
    to: usize,
    n: u64,
    sent: u64,
}

impl<'c, C: Comm> StopAt<'c, C> {
    /// Wraps `comm`; the stop applies only if `comm` is rank `from`.
    pub fn new(comm: &'c mut C, from: usize, to: usize, n: u64) -> Self {
        let stops = comm.rank() == from;
        StopAt {
            comm,
            stops,
            to,
            n,
            sent: 0,
        }
    }

    /// Sends this rank attempted to `to` so far (0 where the rank does not
    /// stop).
    pub fn sent(&self) -> u64 {
        self.sent
    }
}

impl<C: Comm> Comm for StopAt<'_, C> {
    fn rank(&self) -> usize {
        self.comm.rank()
    }

    fn num_ranks(&self) -> usize {
        self.comm.num_ranks()
    }

    fn send<T: Message>(&mut self, to: usize, tag: &'static str, value: T) -> CommResult<()> {
        if self.stops && to == self.to {
            self.sent += 1;
            if self.sent > self.n {
                let detail = format!("stopped at send {} to rank {to}", self.n);
                return Err(CommError::new(
                    self.rank(),
                    to,
                    tag,
                    CommErrorKind::Io(detail),
                ));
            }
        }
        self.comm.send(to, tag, value)
    }

    fn recv<T: Message>(&mut self, from: usize, tag: &'static str) -> CommResult<T> {
        self.comm.recv(from, tag)
    }

    fn stats(&self) -> &CommStats {
        self.comm.stats()
    }

    fn stats_mut(&mut self) -> &mut CommStats {
        self.comm.stats_mut()
    }
}
