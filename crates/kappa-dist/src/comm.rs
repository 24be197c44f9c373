//! The rank-based message-passing runtime.
//!
//! [`Comm`] is the paper's "PE" abstraction: a rank inside a fixed-size
//! cluster with typed point-to-point messages and the handful of collective
//! operations the distributed pipeline needs (barrier, broadcast, gather,
//! allgather, all-to-all-v, allreduce). Every collective is implemented on
//! top of `send`/`recv` with a deterministic communication schedule
//! (gather-to-rank-0 in ascending rank order, then broadcast).
//!
//! One type implements the trait — [`Endpoint`], which holds the whole
//! point-to-point protocol — and it runs over two links:
//!
//! * [`LocalCluster`] — in-process, one `std::thread` per rank, one FIFO
//!   channel per ordered rank pair, payloads moved as `Box<dyn Any>` with no
//!   serialisation on the hot path;
//! * [`TcpCluster`](crate::tcp::TcpCluster) — real sockets, one OS process
//!   (or thread) per rank, payloads framed by the [`codec`](crate::codec)
//!   wire format.
//!
//! Determinism holds by construction — every `recv` names its source, there
//! is no wildcard receive, so the message order a rank observes is
//! independent of thread scheduling and of the transport.
//!
//! ## Message semantics
//!
//! Each ordered rank pair is a *stream*. Both links deliver it as MPI does:
//! every message once, in send order (one FIFO channel per rank pair in
//! process, one TCP connection per rank pair over sockets, never
//! re-established). The receiver queues arrivals per peer and `recv`
//! matches by tag MPI-style: a non-matching message stays queued for a
//! later `recv`.
//!
//! ## Failing loudly
//!
//! A peer that dies or goes silent classically turns an SPMD program into a
//! silent deadlock. Every `recv` therefore bounds its wait with a timeout,
//! and a peer whose link closed is noticed at once; either way `recv`
//! returns a [`CommError`] naming the blocked rank, the expected peer and
//! the expected tag. Payload-type mismatches and codec failures are reported
//! the same way. The whole [`Comm`] surface returns [`CommResult`], and the
//! distributed pipeline propagates it to the caller instead of killing the
//! process (see `tests/comm_conformance.rs`).

use std::any::Any;
use std::sync::mpsc::{channel, Sender};
use std::time::Duration;

use crate::codec::Wire;
use crate::endpoint::{run_ranks, Endpoint, Link, Packet};

/// What went wrong inside a communication primitive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommErrorKind {
    /// No matching message arrived within the receive timeout — the peer went
    /// silent or the cluster's collective schedule deadlocked.
    Timeout {
        /// How long the rank waited before giving up.
        waited: Duration,
    },
    /// The peer's endpoint is gone (rank exited or connection closed).
    Disconnected,
    /// A message matched source and tag but carried the wrong payload type.
    TypeMismatch,
    /// The wire bytes could not be decoded (truncated, corrupted, or the
    /// wrong schema for the expected type), or a frame named another sender
    /// than its connection's handshake did.
    Codec(String),
    /// Version/identity negotiation with a peer failed.
    Handshake(String),
    /// An underlying socket operation failed.
    Io(String),
    /// The collective/exchange protocol itself was violated — a root called
    /// without its value, a part count that does not match the cluster size,
    /// a handshake that failed to terminate. The peers are fine; the call
    /// was wrong, and the caller gets a diagnosis instead of a dead rank.
    Protocol(String),
}

/// A diagnosed communication failure: which rank was stuck, on which peer,
/// waiting for (or sending) which tag, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommError {
    /// The rank reporting the failure.
    pub rank: usize,
    /// The peer it was talking to.
    pub peer: usize,
    /// The message tag in flight.
    pub tag: String,
    /// The failure class.
    pub kind: CommErrorKind,
}

impl CommError {
    /// `rank` failed talking to `peer` about `tag`, for the reason in `kind`.
    pub fn new(rank: usize, peer: usize, tag: &str, kind: CommErrorKind) -> Self {
        CommError {
            rank,
            peer,
            tag: tag.to_string(),
            kind,
        }
    }

    /// A [`CommErrorKind::Protocol`] violation diagnosed by `rank`.
    pub fn protocol(rank: usize, peer: usize, tag: &str, detail: impl Into<String>) -> Self {
        CommError::new(rank, peer, tag, CommErrorKind::Protocol(detail.into()))
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            CommErrorKind::Timeout { waited } => write!(
                f,
                "rank {} timed out after {:?} waiting for {:?} from rank {} — \
                 peer silent or cluster deadlocked",
                self.rank, waited, self.tag, self.peer
            ),
            CommErrorKind::Disconnected => write!(
                f,
                "rank {} lost rank {} while exchanging {:?} — peer exited",
                self.rank, self.peer, self.tag
            ),
            CommErrorKind::TypeMismatch => write!(
                f,
                "rank {} received {:?} from rank {} with an unexpected payload type",
                self.rank, self.tag, self.peer
            ),
            CommErrorKind::Codec(detail) => write!(
                f,
                "rank {} could not decode {:?} from rank {}: {detail}",
                self.rank, self.tag, self.peer
            ),
            CommErrorKind::Handshake(detail) => write!(
                f,
                "rank {} failed the handshake with rank {}: {detail}",
                self.rank, self.peer
            ),
            CommErrorKind::Io(detail) => write!(
                f,
                "rank {} i/o error with rank {} on {:?}: {detail}",
                self.rank, self.peer, self.tag
            ),
            CommErrorKind::Protocol(detail) => write!(
                f,
                "rank {} protocol violation in {:?}: {detail}",
                self.rank, self.tag
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Result alias for every communication primitive.
pub type CommResult<T> = Result<T, CommError>;

/// Anything that can travel between ranks: wire-encodable, sendable, owned.
///
/// Blanket-implemented — defining [`Wire`] for a payload type is all a call
/// site needs. The in-process backend never actually serialises (payloads
/// move as `Box<dyn Any>`), but requiring `Wire` everywhere keeps every
/// message type transport-portable by construction.
pub trait Message: Wire + Send + 'static {}

impl<T: Wire + Send + 'static> Message for T {}

/// A message tag: which exchange a message belongs to. Tags are constants
/// of this type, so a misspelt tag does not compile, and every sent tag is
/// one that some `recv` names. The collectives' own tags live in the
/// reserved `::` namespace and are private to this crate (no `Tag` can be
/// built outside this module), so no user exchange can collide with (and
/// misdeliver against) their traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tag(&'static str);

impl Tag {
    /// Pairwise refinement: the seeds and band shards each rank sends a
    /// pair's home rank, one message per peer.
    pub const BAND_RECS: Tag = Tag("band-recs");
    /// Pairwise refinement: every rank's reports of one colour class.
    pub const CLASS_REPORTS: Tag = Tag("class-reports");
    pub(crate) const BARRIER: Tag = Tag("::barrier");
    pub(crate) const BCAST: Tag = Tag("::bcast");
    pub(crate) const ALLGATHER: Tag = Tag("::allgather");
    pub(crate) const ALLTOALLV: Tag = Tag("::alltoallv");

    /// The tag as it goes on the wire.
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

/// Comm-volume counters of one phase (or of the whole run).
///
/// *Frames* are wire frames leaving this endpoint, one per message sent;
/// *bytes* are the encoded frame bytes on transports that serialise (the
/// in-process backend moves payloads unserialised and reports 0);
/// *collectives* are primitive collective schedules entered (gather /
/// broadcast / all-to-all-v) — compound ops (barrier, allgather, allreduce)
/// count their constituent primitives.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCommStats {
    /// Wire frames sent by this endpoint.
    pub frames: u64,
    /// Encoded bytes sent (0 on the unserialised in-process backend).
    pub bytes: u64,
    /// Primitive collective schedules entered.
    pub collectives: u64,
}

crate::impl_wire_struct!(PhaseCommStats {
    frames,
    bytes,
    collectives
});

/// Per-rank communication counters, split by pipeline phase.
///
/// Counters are recorded at the *sending* endpoint (receives are the mirror
/// image of some peer's sends, so counting both sides would double every
/// frame). [`CommStats::set_phase`] relabels subsequent traffic; re-entering
/// an existing phase name resumes its bucket.
#[derive(Clone, Debug, Default)]
pub struct CommStats {
    /// Whole-run totals.
    pub total: PhaseCommStats,
    /// Per-phase buckets in first-use order.
    pub phases: Vec<(String, PhaseCommStats)>,
    current: Option<usize>,
}

impl PartialEq for CommStats {
    fn eq(&self, other: &Self) -> bool {
        // The current-phase cursor is endpoint bookkeeping, not data.
        self.total == other.total && self.phases == other.phases
    }
}

impl CommStats {
    /// Labels subsequent traffic with `phase`, resuming the bucket if the
    /// name was used before.
    pub fn set_phase(&mut self, phase: &str) {
        if let Some(idx) = self.phases.iter().position(|(name, _)| name == phase) {
            self.current = Some(idx);
        } else {
            self.phases
                .push((phase.to_string(), PhaseCommStats::default()));
            self.current = Some(self.phases.len() - 1);
        }
    }

    fn bump(&mut self, f: impl Fn(&mut PhaseCommStats)) {
        f(&mut self.total);
        if let Some(idx) = self.current {
            f(&mut self.phases[idx].1);
        }
    }

    pub(crate) fn note_frame(&mut self, bytes: u64) {
        self.bump(|p| {
            p.frames += 1;
            p.bytes += bytes;
        });
    }

    pub(crate) fn note_collective(&mut self) {
        self.bump(|p| p.collectives += 1);
    }
}

impl Wire for CommStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.total.encode(buf);
        self.phases.encode(buf);
    }

    fn decode(r: &mut crate::codec::WireReader<'_>) -> Result<Self, crate::codec::CodecError> {
        let total = PhaseCommStats::decode(r)?;
        let phases = Vec::<(String, PhaseCommStats)>::decode(r)?;
        Ok(CommStats {
            total,
            phases,
            current: None,
        })
    }
}

/// The communication interface of one rank.
///
/// [`Endpoint`] supplies the point-to-point half once for every transport;
/// the collectives are the default implementations here, over
/// [`send`](Comm::send) / [`recv`](Comm::recv) with a deterministic schedule.
/// The whole cluster must call each collective collectively (SPMD style), in
/// the same order on every rank. Every operation returns [`CommResult`];
/// callers propagate errors to the pipeline boundary instead of panicking.
pub trait Comm {
    /// This rank's id, `0..num_ranks()`.
    fn rank(&self) -> usize;

    /// Total number of ranks in the cluster.
    fn num_ranks(&self) -> usize;

    /// Sends `value` to rank `to` under `tag`. Never blocks on the receiver.
    fn send<T: Message>(&mut self, to: usize, tag: Tag, value: T) -> CommResult<()>;

    /// Receives the next message from rank `from` carrying `tag` and type
    /// `T`. Messages from `from` with other tags stay queued. Blocks until
    /// it arrives; returns a diagnosed [`CommError`] (never deadlocks) when
    /// it does not.
    fn recv<T: Message>(&mut self, from: usize, tag: Tag) -> CommResult<T>;

    /// Comm-volume counters of this endpoint.
    fn stats(&self) -> &CommStats;

    /// Mutable counters hook used by the default collectives and by
    /// [`set_phase`](Comm::set_phase).
    fn stats_mut(&mut self) -> &mut CommStats;

    /// Labels subsequent traffic with `phase` in the stats.
    fn set_phase(&mut self, phase: &'static str) {
        self.stats_mut().set_phase(phase);
    }

    /// Synchronises all ranks. No pipeline step needs it — every collective
    /// already orders the ranks it involves — but it is public API and the
    /// synchroniser of the transport conformance suite.
    fn barrier(&mut self) -> CommResult<()> {
        self.gather(0, Tag::BARRIER, ())?;
        self.broadcast::<()>(0, Some(()))?;
        Ok(())
    }

    /// Gathers one value per rank at `root` (in rank order). Returns
    /// `Ok(None)` on non-root ranks.
    fn gather<T: Message>(
        &mut self,
        root: usize,
        tag: Tag,
        value: T,
    ) -> CommResult<Option<Vec<T>>> {
        self.stats_mut().note_collective();
        if self.rank() == root {
            let mut all: Vec<T> = Vec::with_capacity(self.num_ranks());
            let mut own = Some(value);
            for src in 0..self.num_ranks() {
                if src == root {
                    #[expect(clippy::expect_used, reason = "src == root is visited once")]
                    all.push(own.take().expect("own value consumed twice"));
                } else {
                    all.push(self.recv(src, tag)?);
                }
            }
            Ok(Some(all))
        } else {
            self.send(root, tag, value)?;
            Ok(None)
        }
    }

    /// Broadcasts `value` (meaningful at `root` only) to every rank. A root
    /// that supplies no value is a protocol violation, diagnosed as an error
    /// — the non-root ranks would otherwise wait on a broadcast that never
    /// happens.
    fn broadcast<T: Message + Clone>(&mut self, root: usize, value: Option<T>) -> CommResult<T> {
        self.stats_mut().note_collective();
        if self.rank() == root {
            let Some(value) = value else {
                return Err(CommError::protocol(
                    self.rank(),
                    root,
                    Tag::BCAST.as_str(),
                    "broadcast root called without a value",
                ));
            };
            for dst in 0..self.num_ranks() {
                if dst != root {
                    self.send(dst, Tag::BCAST, value.clone())?;
                }
            }
            Ok(value)
        } else {
            self.recv(root, Tag::BCAST)
        }
    }

    /// Gathers one value per rank on **every** rank (in rank order). A root
    /// that broadcasts another number of values is a protocol violation.
    fn allgather<T: Message + Clone>(&mut self, value: T) -> CommResult<Vec<T>> {
        let gathered = self.gather(0, Tag::ALLGATHER, value)?;
        let all: Vec<T> = self.broadcast(0, gathered)?;
        let ranks = self.num_ranks();
        if all.len() != ranks {
            let detail = format!("rank 0 broadcast {} values for {ranks} ranks", all.len());
            return Err(CommError::protocol(
                self.rank(),
                0,
                Tag::ALLGATHER.as_str(),
                detail,
            ));
        }
        Ok(all)
    }

    /// Personalised all-to-all: `parts[r]` goes to rank `r`; the result holds
    /// one part per source rank (the own part is moved through untouched).
    /// Zero-length parts are legal and arrive as empty vectors.
    fn alltoallv<T: Message>(&mut self, mut parts: Vec<Vec<T>>) -> CommResult<Vec<Vec<T>>> {
        self.stats_mut().note_collective();
        let (me, ranks) = (self.rank(), self.num_ranks());
        if parts.len() != ranks {
            return Err(CommError::protocol(
                me,
                me,
                Tag::ALLTOALLV.as_str(),
                format!(
                    "alltoallv needs one part per rank: got {} parts for {ranks} ranks",
                    parts.len()
                ),
            ));
        }
        // Post every send first (sends never block), then receive in rank
        // order — a deterministic, deadlock-free schedule.
        let mut own = Some(std::mem::take(&mut parts[me]));
        for (dst, part) in parts.into_iter().enumerate() {
            if dst != me {
                self.send(dst, Tag::ALLTOALLV, part)?;
            }
        }
        let mut out = Vec::with_capacity(ranks);
        for src in 0..ranks {
            if src == me {
                #[expect(clippy::expect_used, reason = "src == me is visited once")]
                out.push(own.take().expect("own part consumed twice"));
            } else {
                out.push(self.recv(src, Tag::ALLTOALLV)?);
            }
        }
        Ok(out)
    }

    /// Allreduce by `op`, folded in ascending rank order (deterministic even
    /// for non-commutative `op`).
    fn allreduce<T, F>(&mut self, value: T, op: F) -> CommResult<T>
    where
        T: Message + Clone,
        F: Fn(T, T) -> T,
    {
        let mut all = self.allgather(value)?.into_iter();
        #[expect(clippy::expect_used, reason = "one value per rank, ranks >= 1")]
        let first = all.next().expect("at least one rank");
        Ok(all.fold(first, op))
    }

    /// Allreduce-sum of a `u64`.
    fn allreduce_sum(&mut self, value: u64) -> CommResult<u64> {
        self.allreduce(value, |a, b| a + b)
    }
}

/// Allreduce-min over optional keyed candidates: every rank contributes its
/// best local candidate (or `None`); all ranks learn the global minimum, with
/// ties resolved towards the lower rank (the fold keeps the earlier value on
/// equal keys — matching the sequential "first minimum wins" convention).
pub fn allreduce_min_opt<C, T, Key, K>(
    comm: &mut C,
    value: Option<T>,
    key: Key,
) -> CommResult<Option<T>>
where
    C: Comm + ?Sized,
    T: Message + Clone,
    Key: Fn(&T) -> K,
    K: Ord,
{
    comm.allreduce(value, |a, b| match (&a, &b) {
        (Some(x), Some(y)) => {
            if key(y) < key(x) {
                b
            } else {
                a
            }
        }
        (Some(_), None) => a,
        (None, _) => b,
    })
}

/// A typed message body moved between threads as is.
type Boxed = Box<dyn Any + Send>;

/// The in-process link: one FIFO channel to every rank, payloads moved as
/// `Box<dyn Any>` and never encoded.
pub struct ChannelLink {
    txs: Vec<Sender<Packet<Boxed>>>,
}

impl Link for ChannelLink {
    type Payload = Boxed;
    type Arrival = Packet<Boxed>;

    fn pack<T: Message>(value: T) -> Boxed {
        Box::new(value)
    }

    fn unpack<T: Message>(payload: Boxed) -> Result<T, CommErrorKind> {
        match payload.downcast::<T>() {
            Ok(value) => Ok(*value),
            Err(_) => Err(CommErrorKind::TypeMismatch),
        }
    }

    fn wire_bytes(_: &str, _: &Boxed) -> u64 {
        0
    }

    fn put(&self, to: usize, packet: Packet<Boxed>) -> Result<(), CommErrorKind> {
        // A channel send only fails when the receiver already exited.
        self.txs[to]
            .send(packet)
            .map_err(|_| CommErrorKind::Disconnected)
    }

    fn open(arrival: Packet<Boxed>) -> Result<Packet<Boxed>, CommErrorKind> {
        Ok(arrival)
    }
}

/// One rank's endpoint inside a [`LocalCluster`].
pub type LocalComm = Endpoint<ChannelLink>;

/// Configuration of a [`LocalCluster`].
#[derive(Clone, Copy, Debug)]
pub struct LocalClusterConfig {
    /// How long a `recv` waits before declaring the peer silent. The
    /// resulting [`CommError`] names the blocked rank, the peer and the tag.
    pub recv_timeout: Duration,
}

impl Default for LocalClusterConfig {
    fn default() -> Self {
        LocalClusterConfig {
            recv_timeout: Duration::from_secs(60),
        }
    }
}

/// The in-process cluster backend: one thread per rank, one FIFO channel per
/// ordered rank pair. Payloads move as `Box<dyn Any>` — no serialisation on
/// the local hot path.
pub struct LocalCluster {
    ranks: usize,
    config: LocalClusterConfig,
}

impl LocalCluster {
    /// A cluster of `ranks` ranks with default configuration.
    pub fn new(ranks: usize) -> Self {
        LocalCluster::with_config(ranks, LocalClusterConfig::default())
    }

    /// A cluster with an explicit receive timeout.
    pub fn with_config(ranks: usize, config: LocalClusterConfig) -> Self {
        // A misconfiguration on the launching process, before any rank
        // exists: aborting here is the diagnosis.
        assert!(ranks >= 1, "a cluster needs at least one rank");
        LocalCluster { ranks, config }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Runs `f` on every rank (one thread per rank) and returns the per-rank
    /// results in rank order. Communication failures are values (`f` usually
    /// returns a [`CommResult`]); genuine panics in any rank propagate.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut LocalComm) -> R + Sync,
    {
        // tx_rows[src][dst] sends into rx_rows[dst][src].
        let mut tx_rows: Vec<Vec<_>> = (0..self.ranks).map(|_| Vec::new()).collect();
        let mut rx_rows: Vec<Vec<_>> = (0..self.ranks).map(|_| Vec::new()).collect();
        for tx_row in &mut tx_rows {
            for rx_row in &mut rx_rows {
                let (tx, rx) = channel();
                tx_row.push(tx);
                rx_row.push(rx);
            }
        }
        let recv_timeout = self.config.recv_timeout;
        run_ranks(
            tx_rows.into_iter().zip(rx_rows).collect(),
            |rank, (txs, rxs)| {
                f(&mut Endpoint::new(
                    rank,
                    ChannelLink { txs },
                    rxs,
                    recv_timeout,
                ))
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(ranks: usize) -> LocalCluster {
        LocalCluster::with_config(
            ranks,
            LocalClusterConfig {
                recv_timeout: Duration::from_secs(10),
            },
        )
    }

    #[test]
    fn allreduce_min_opt_picks_the_global_minimum_with_rank_tie_break() {
        let results = cluster(4).run(|comm| {
            // Ranks 1 and 3 tie on the key; rank 1 must win. Rank 2
            // contributes nothing.
            let mine = match comm.rank() {
                0 => Some((5u64, String::from("rank0"))),
                1 => Some((3, String::from("rank1"))),
                2 => None,
                _ => Some((3, String::from("rank3"))),
            };
            allreduce_min_opt(comm, mine, |&(key, _)| key).unwrap()
        });
        for r in results {
            assert_eq!(r, Some((3, String::from("rank1"))));
        }
    }

    #[test]
    fn single_rank_cluster_runs_all_collectives_trivially() {
        let results = cluster(1).run(|comm| {
            comm.barrier().unwrap();
            let s = comm.allreduce_sum(7).unwrap();
            let parts = comm.alltoallv(vec![vec![1u8, 2, 3]]).unwrap();
            let all = comm.allgather(9u32).unwrap();
            (s, parts, all)
        });
        assert_eq!(results[0], (7, vec![vec![1, 2, 3]], vec![9]));
    }

    #[test]
    fn dropped_message_fails_loudly_not_silently() {
        // Rank 0 sends one message and stops before its second: rank 1's
        // second recv must return a diagnosed error instead of waiting
        // forever.
        let cluster = LocalCluster::with_config(
            2,
            LocalClusterConfig {
                recv_timeout: Duration::from_millis(200),
            },
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "the test bounds how long the diagnosis takes"
        )]
        let started = std::time::Instant::now();
        let results = cluster.run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, Tag::BAND_RECS, 99u64).map(|_| 0)
            } else {
                comm.recv::<u64>(0, Tag::BAND_RECS)?;
                comm.recv::<u64>(0, Tag::BAND_RECS)
            }
        });
        let err = results[1].clone().unwrap_err();
        assert_eq!(
            (err.rank, err.peer, err.tag.as_str()),
            (1, 0, Tag::BAND_RECS.as_str())
        );
        // Usually rank 0 has exited and its channel is closed; if the
        // receive comes first it times out. Both name the missing message.
        assert!(matches!(
            err.kind,
            CommErrorKind::Timeout { .. } | CommErrorKind::Disconnected
        ));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "failure must surface promptly, not hang"
        );
    }

    #[test]
    fn an_allgather_root_that_broadcasts_too_many_values_is_diagnosed() {
        let results = cluster(2).run(|comm| {
            if comm.rank() == 0 {
                // The bad root: gathers honestly, then broadcasts three values.
                comm.gather(0, Tag::ALLGATHER, 1u64).unwrap();
                comm.broadcast(0, Some(vec![1u64, 2, 3])).unwrap();
                return None;
            }
            Some(comm.allgather(2u64).unwrap_err())
        });
        let e = results[1].as_ref().unwrap();
        assert_eq!(
            (e.rank, e.peer, e.tag.as_str()),
            (1, 0, Tag::ALLGATHER.as_str())
        );
        assert!(
            e.to_string().contains("broadcast 3 values for 2 ranks"),
            "{e}"
        );
    }

    #[test]
    fn stats_track_frames_and_collectives_per_phase() {
        let results = cluster(2).run(|comm| {
            comm.set_phase("ping");
            if comm.rank() == 0 {
                comm.send(1, Tag::CLASS_REPORTS, 1u64).unwrap();
            } else {
                comm.recv::<u64>(0, Tag::CLASS_REPORTS).unwrap();
            }
            comm.set_phase("sync");
            comm.barrier().unwrap();
            comm.set_phase("ping");
            if comm.rank() == 0 {
                comm.send(1, Tag::CLASS_REPORTS, 2u64).unwrap();
            } else {
                comm.recv::<u64>(0, Tag::CLASS_REPORTS).unwrap();
            }
            comm.stats().clone()
        });
        let s0 = &results[0];
        assert_eq!(s0.phases.len(), 2, "re-entering a phase resumes its bucket");
        assert_eq!(s0.phases[0].0, "ping");
        assert_eq!(s0.phases[0].1.frames, 2);
        // Barrier = gather + broadcast: two primitive collectives, and rank
        // 0's barrier traffic is one bcast frame to rank 1.
        assert_eq!(s0.phases[1].1.collectives, 2);
        assert_eq!(
            s0.total.frames,
            s0.phases.iter().map(|(_, p)| p.frames).sum::<u64>()
        );
        // Counters are wire-portable.
        let bytes = crate::codec::Wire::to_bytes(s0);
        let back: CommStats = crate::codec::Wire::from_bytes(&bytes).unwrap();
        assert_eq!(&back, s0);
    }
}
