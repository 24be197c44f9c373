//! The one [`Comm`] implementation: [`Endpoint`], generic over a [`Link`].
//!
//! Everything the message-passing protocol *is* lives here exactly once —
//! per-peer sequence numbers, [`SeqInbox`] reassembly, tag-matched `recv`
//! with a deadline, `try_recv`, coalesce scopes and their pack frames, the
//! fault-injector hook, the frame/byte counters. A transport contributes only
//! what genuinely differs between moving a message through a channel and
//! through a socket, and that list is the whole [`Link`] trait: the payload
//! form, the coalesced-pack form, the fault plan's duplicate, the byte
//! counter, how one packet reaches a peer and how an arrival is read off the
//! per-peer queue.
//!
//! The endpoint is generic over the payload rather than fixed to wire frames
//! so that the in-process link keeps moving payloads as `Box<dyn Any>`:
//! serialising there costs about half again the run time of a two-rank
//! partition (EXPERIMENTS.md, PR 19).

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

use crate::comm::{
    Comm, CommError, CommErrorKind, CommResult, CommStats, Message, COALESCE_TAG, COLLECTIVE_TAGS,
};
use crate::fault::{Emission, FaultInjector, FaultPlan};

/// One message in flight on a (src → dst) stream. Tags are `'static` on the
/// sending side and owned once they have crossed a socket.
pub struct Packet<P> {
    /// Sequence number on the stream, starting at 0.
    pub seq: u64,
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

    /// The payload of a coalesced pack carrying `inner`.
    fn bundle(inner: Vec<Packet<Self::Payload>>) -> Self::Payload;

    /// The messages inside a coalesced pack's payload.
    fn unbundle(pack: Self::Payload) -> Result<Vec<Packet<Self::Payload>>, CommErrorKind>;

    /// Payload of the duplicate the fault plan injects beside `orig`. The
    /// twin reuses the original's sequence number, so the receiver's dedup
    /// discards it before the payload is ever looked at.
    fn twin(orig: &Self::Payload) -> Self::Payload;

    /// Bytes this packet occupies on the wire (0 where nothing is encoded).
    fn wire_bytes(tag: &str, payload: &Self::Payload) -> u64;

    /// Hands one packet to peer `to`. Never blocks on the receiver.
    fn put(&self, to: usize, packet: Packet<Self::Payload>) -> Result<(), CommErrorKind>;

    /// Reads one arrival off a per-peer queue.
    fn open(arrival: Self::Arrival) -> Result<Packet<Self::Payload>, CommErrorKind>;
}

/// Per-peer receive buffer: reassembles the sequence-numbered stream from one
/// peer, discarding duplicates, then serves tag-matched receives in stream
/// order.
///
/// `accept` is fed raw arrivals in any order; `take` pops the earliest
/// in-sequence message satisfying a predicate (tag match), leaving
/// non-matching messages queued. Early arrivals (sequence gaps) wait in a
/// side map bounded by the transport's reorder window.
pub(crate) struct SeqInbox<M> {
    next_seq: u64,
    early: BTreeMap<u64, M>,
    ready: VecDeque<M>,
}

impl<M> SeqInbox<M> {
    pub(crate) fn new() -> Self {
        SeqInbox {
            next_seq: 0,
            early: BTreeMap::new(),
            ready: VecDeque::new(),
        }
    }

    /// Accepts one arrival with its sequence number. Duplicates (already
    /// delivered, or already waiting in the gap buffer) are discarded before
    /// their payload is ever inspected.
    pub(crate) fn accept(&mut self, seq: u64, msg: M) {
        if seq < self.next_seq {
            return; // duplicate of an already-delivered message
        }
        if seq == self.next_seq {
            self.ready.push_back(msg);
            self.next_seq += 1;
            while let Some(next) = self.early.remove(&self.next_seq) {
                self.ready.push_back(next);
                self.next_seq += 1;
            }
        } else {
            // Gap: park it. `or_insert` keeps the first copy, so a duplicate
            // of an early arrival is discarded too.
            self.early.entry(seq).or_insert(msg);
        }
    }

    /// Removes and returns the earliest ready message matching `pred`.
    pub(crate) fn take(&mut self, pred: impl Fn(&M) -> bool) -> Option<M> {
        let idx = self.ready.iter().position(pred)?;
        self.ready.remove(idx)
    }
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
    inboxes: Vec<SeqInbox<Packet<L::Payload>>>,
    send_seqs: Vec<u64>,
    injector: FaultInjector<Packet<L::Payload>>,
    recv_timeout: Duration,
    /// `Some` while a coalesce scope is open: per-destination buffers of
    /// posted-but-unflushed packets.
    pending: Option<Vec<Vec<Packet<L::Payload>>>>,
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
        fault: FaultPlan,
    ) -> Self {
        let ranks = rxs.len();
        Endpoint {
            rank,
            link,
            rxs,
            inboxes: (0..ranks).map(|_| SeqInbox::new()).collect(),
            send_seqs: vec![0; ranks],
            injector: FaultInjector::new(fault, rank, ranks),
            recv_timeout,
            pending: None,
            stats: CommStats::default(),
        }
    }

    fn error(&self, peer: usize, tag: &str, kind: CommErrorKind) -> CommError {
        CommError::new(self.rank, peer, tag, kind)
    }

    /// Gives `value` the next sequence number of the stream to `to`.
    fn stamp<T: Message>(&mut self, to: usize, tag: &'static str, value: T) -> Packet<L::Payload> {
        // The `::` namespace belongs to the runtime: the collectives' own
        // tags pass, anything else is a user tag trespassing on control
        // traffic. The static side of this contract is the `tag-reserved`
        // lint rule.
        debug_assert!(
            !tag.starts_with("::") || COLLECTIVE_TAGS.contains(&tag),
            "tags starting with :: are reserved for the runtime"
        );
        let seq = self.send_seqs[to];
        self.send_seqs[to] += 1;
        Packet {
            seq,
            tag: Cow::Borrowed(tag),
            payload: L::pack(value),
        }
    }

    /// Counts one frame, then routes it through the fault plan onto the link
    /// — the shared tail of `send` and the coalesce flush. Frames are counted
    /// once per primary emission, before fault injection: the count is a
    /// property of the schedule, not of the injected fault pattern.
    fn emit(&mut self, to: usize, packet: Packet<L::Payload>) -> CommResult<()> {
        self.stats
            .note_frame(L::wire_bytes(&packet.tag, &packet.payload));
        let tag = packet.tag.clone(); // borrowed on the sending side: no allocation
        let link = &self.link;
        let mut failure = None;
        self.injector.dispatch(
            to,
            packet,
            |orig| Packet {
                seq: orig.seq,
                tag: orig.tag.clone(),
                payload: L::twin(&orig.payload),
            },
            // Only the primary packet bouncing is a send error — in a
            // lock-step SPMD program it means the receiver failed first. A
            // peer that exits right after consuming the real message may
            // legitimately reject a trailing twin or a late-released reorder
            // packet.
            |packet, emission| {
                if failure.is_some() {
                    return;
                }
                if let Err(kind) = link.put(to, packet) {
                    if emission == Emission::Primary {
                        failure = Some(kind);
                    }
                }
            },
        );
        match failure {
            Some(kind) => Err(self.error(to, &tag, kind)),
            None => Ok(()),
        }
    }

    /// Feeds one raw arrival into the per-peer inbox, unpacking coalesced
    /// packs back into the ordinary per-message stream. Inner packets carry
    /// their own stream sequence numbers, so dedup and reordering of whole
    /// packs heal at the message level.
    fn absorb(&mut self, from: usize, tag: &str, arrival: L::Arrival) -> CommResult<()> {
        let packet = L::open(arrival).map_err(|kind| self.error(from, tag, kind))?;
        if packet.tag != COALESCE_TAG {
            self.inboxes[from].accept(packet.seq, packet);
            return Ok(());
        }
        let inner = L::unbundle(packet.payload).map_err(|kind| self.error(from, tag, kind))?;
        for packet in inner {
            self.inboxes[from].accept(packet.seq, packet);
        }
        Ok(())
    }

    /// Pops the earliest reassembled message from `from` carrying `tag`.
    fn claim<T: Message>(&mut self, from: usize, tag: &str) -> Option<CommResult<T>> {
        let packet = self.inboxes[from].take(|p| p.tag == tag)?;
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

    fn send<T: Message>(&mut self, to: usize, tag: &'static str, value: T) -> CommResult<()> {
        let packet = self.stamp(to, tag, value);
        self.emit(to, packet)
    }

    fn isend<T: Message>(&mut self, to: usize, tag: &'static str, value: T) -> CommResult<()> {
        let packet = self.stamp(to, tag, value);
        match &mut self.pending {
            Some(buffers) => {
                buffers[to].push(packet);
                Ok(())
            }
            None => self.emit(to, packet),
        }
    }

    fn coalesce_begin(&mut self) {
        debug_assert!(self.pending.is_none(), "coalesce scopes do not nest");
        self.pending = Some(self.rxs.iter().map(|_| Vec::new()).collect());
    }

    fn coalesce_flush(&mut self) -> CommResult<()> {
        for (to, buffer) in self.pending.take().into_iter().flatten().enumerate() {
            let Some(first) = buffer.first() else {
                continue;
            };
            // One frame per peer, riding under the first inner seq. That seq
            // never reaches the inbox (`absorb` unpacks before `accept`), so
            // the inner packets' own seqs keep the stream gapless.
            let pack = Packet {
                seq: first.seq,
                tag: Cow::Borrowed(COALESCE_TAG),
                payload: L::bundle(buffer),
            };
            self.emit(to, pack)?;
        }
        Ok(())
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
            self.absorb(from, tag, arrival)?;
        }
    }

    fn try_recv<T: Message>(&mut self, from: usize, tag: &'static str) -> CommResult<Option<T>> {
        // An empty and a closed queue both end the drain: messages already
        // in the inbox must stay claimable after the peer has gone.
        while let Ok(arrival) = self.rxs[from].try_recv() {
            self.absorb(from, tag, arrival)?;
        }
        self.claim(from, tag).transpose()
    }

    fn stats(&self) -> Option<&CommStats> {
        Some(&self.stats)
    }

    fn stats_mut(&mut self) -> Option<&mut CommStats> {
        Some(&mut self.stats)
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
