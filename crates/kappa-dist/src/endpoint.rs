//! The one [`Comm`] implementation: [`Endpoint`], generic over a [`Link`].
//!
//! Everything the message-passing protocol *is* lives here exactly once —
//! one FIFO queue per peer, tag-matched `recv` with a deadline, the
//! frame/byte counters. A transport contributes only what genuinely differs
//! between moving a message through a channel and through a socket, and that
//! list is the whole [`Link`] trait: the payload form, the byte counter, how
//! one packet reaches a peer and how an arrival is read off the per-peer
//! queue. Both links deliver each sender's messages once and in order, so
//! the endpoint keeps no sequence numbers.
//!
//! The endpoint is generic over the payload rather than fixed to wire frames
//! so that the in-process link keeps moving payloads as `Box<dyn Any>`:
//! serialising there costs about half again the run time of a two-rank
//! partition (EXPERIMENTS.md, PR 19).

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

use crate::comm::{
    Comm, CommError, CommErrorKind, CommResult, CommStats, Message, COLLECTIVE_TAGS,
};

/// One message in flight on a (src → dst) stream. Tags are `'static` on the
/// sending side and owned once they have crossed a socket.
pub struct Packet<P> {
    /// Message tag.
    pub tag: Cow<'static, str>,
    /// The body, in the link's payload form.
    pub payload: P,
}

/// What a transport contributes to an [`Endpoint`] — every place where the
/// channel link and the socket link really differ, and nothing else.
pub trait Link {
    /// A message body in flight: `Box<dyn Any + Send>` or encoded bytes.
    type Payload;
    /// What the per-peer receive queue yields: a packet, or whatever the
    /// socket reader thread made of the byte stream.
    type Arrival;

    /// Puts `value` into payload form.
    fn pack<T: Message>(value: T) -> Self::Payload;

    /// Takes a `T` back out; the kind says why it is not one.
    fn unpack<T: Message>(payload: Self::Payload) -> Result<T, CommErrorKind>;

    /// Bytes this packet occupies on the wire (0 where nothing is encoded).
    fn wire_bytes(tag: &str, payload: &Self::Payload) -> u64;

    /// Hands one packet to peer `to`. Never blocks on the receiver.
    fn put(&self, to: usize, packet: Packet<Self::Payload>) -> Result<(), CommErrorKind>;

    /// Reads one arrival off a per-peer queue.
    fn open(arrival: Self::Arrival) -> Result<Packet<Self::Payload>, CommErrorKind>;
}

/// One rank's endpoint in a cluster: the [`Comm`] state machine over the
/// link `L` ([`LocalComm`](crate::LocalComm) over channels,
/// [`TcpComm`](crate::TcpComm) over sockets).
pub struct Endpoint<L: Link> {
    rank: usize,
    // Declared (hence dropped) before the receive queues: the socket link's
    // drop says goodbye and joins reader threads that still feed them.
    link: L,
    rxs: Vec<Receiver<L::Arrival>>,
    /// Per peer, the arrived messages no `recv` has claimed yet, in arrival
    /// order.
    inboxes: Vec<VecDeque<Packet<L::Payload>>>,
    recv_timeout: Duration,
    stats: CommStats,
}

impl<L: Link> Endpoint<L> {
    /// The endpoint of `rank` sending through `link` and receiving from
    /// `rxs[peer]`, one queue per rank of the cluster (self included).
    pub(crate) fn new(
        rank: usize,
        link: L,
        rxs: Vec<Receiver<L::Arrival>>,
        recv_timeout: Duration,
    ) -> Self {
        Endpoint {
            rank,
            link,
            inboxes: rxs.iter().map(|_| VecDeque::new()).collect(),
            rxs,
            recv_timeout,
            stats: CommStats::default(),
        }
    }

    fn error(&self, peer: usize, tag: &str, kind: CommErrorKind) -> CommError {
        CommError::new(self.rank, peer, tag, kind)
    }

    /// Pops the earliest queued message from `from` carrying `tag`.
    fn claim<T: Message>(&mut self, from: usize, tag: &str) -> Option<CommResult<T>> {
        let inbox = &mut self.inboxes[from];
        let packet = inbox.remove(inbox.iter().position(|p| p.tag == tag)?)?;
        Some(L::unpack(packet.payload).map_err(|kind| self.error(from, tag, kind)))
    }
}

impl<L: Link> Comm for Endpoint<L> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn num_ranks(&self) -> usize {
        self.rxs.len()
    }

    /// Counts one frame and hands `value` to the link.
    fn send<T: Message>(&mut self, to: usize, tag: &'static str, value: T) -> CommResult<()> {
        // The `::` namespace belongs to the runtime: the collectives' own
        // tags pass, anything else is a user tag trespassing on control
        // traffic. The static side of this contract is the `tag-reserved`
        // lint rule.
        debug_assert!(
            !tag.starts_with("::") || COLLECTIVE_TAGS.contains(&tag),
            "tags starting with :: are reserved for the runtime"
        );
        let payload = L::pack(value);
        self.stats.note_frame(L::wire_bytes(tag, &payload));
        let packet = Packet {
            tag: Cow::Borrowed(tag),
            payload,
        };
        // A failed put means the receiver is gone: in a lock-step SPMD
        // program it failed first.
        self.link
            .put(to, packet)
            .map_err(|kind| self.error(to, tag, kind))
    }

    fn recv<T: Message>(&mut self, from: usize, tag: &'static str) -> CommResult<T> {
        // kappa-lint: allow(wall-clock) -- timeout bookkeeping only; the clock decides when to give up, never what a result contains
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            if let Some(done) = self.claim(from, tag) {
                return done;
            }
            // kappa-lint: allow(wall-clock) -- remaining-timeout arithmetic, same as above
            let remaining = deadline.saturating_duration_since(Instant::now());
            let arrival = self.rxs[from].recv_timeout(remaining).map_err(|e| {
                let kind = match e {
                    RecvTimeoutError::Timeout => CommErrorKind::Timeout {
                        waited: self.recv_timeout,
                    },
                    RecvTimeoutError::Disconnected => CommErrorKind::Disconnected,
                };
                self.error(from, tag, kind)
            })?;
            let packet = L::open(arrival).map_err(|kind| self.error(from, tag, kind))?;
            self.inboxes[from].push_back(packet);
        }
    }

    fn stats(&self) -> &CommStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut CommStats {
        &mut self.stats
    }
}

/// Runs `body(rank, seed)` on one scoped thread per seed and returns the
/// results in rank order; a panic in any rank is re-raised on the caller.
pub(crate) fn run_ranks<S: Send, R: Send>(
    seeds: Vec<S>,
    body: impl Fn(usize, S) -> R + Sync,
) -> Vec<R> {
    std::thread::scope(|scope| {
        let body = &body;
        let handles: Vec<_> = seeds
            .into_iter()
            .enumerate()
            .map(|(rank, seed)| scope.spawn(move || body(rank, seed)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}
