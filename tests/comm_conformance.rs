//! Backend-generic conformance and fault-injection suite for the `Comm`
//! abstraction (`kappa-dist`).
//!
//! Every conformance scenario is written once against the trait and executed
//! against **both** backends — the in-process `LocalCluster` and the
//! socket-backed `TcpCluster`, one endpoint over two links — so the
//! transports cannot drift apart in semantics: point-to-point FIFO per
//! (peer, tag), barrier, broadcast, gather/allgather rank order,
//! all-to-all-v with zero-length segments, allreduce determinism,
//! self-sends, the diagnosis of a wrong payload type or a mismatched tag,
//! the reserved `::` tag namespace.
//!
//! The fault-injection half pins the failure contract of the whole
//! distributed pipeline under a seeded `FaultPlan`:
//!
//! * **recoverable faults** (duplicate, delay) — the run completes
//!   bit-identical to a clean run;
//! * **lossy faults** (drop, reorder past the end of a stream) — the run
//!   either still completes bit-identical (the fault missed every live
//!   channel) or fails with a diagnosed `CommError` naming a stuck rank, a
//!   peer and a tag. It never hangs and never returns a wrong partition.
//!
//! Plus the wire-codec properties (round-trips, truncation and corruption
//! rejection) and the local/tcp end-to-end parity required for
//! `--transport tcp`.

use std::time::Duration;

use kappa::dist::codec::{decode_frame, encode_frame, Wire};
use kappa::dist::{
    partition_distributed, partition_distributed_with, partition_with_comm, Comm, CommErrorKind,
    DistConfig, FaultPlan, LocalCluster, LocalClusterConfig, TcpCluster, TcpClusterConfig,
};
use kappa::gen::{delaunay_like_graph, grid2d, random_geometric_graph};
use kappa::prelude::*;
use proptest::prelude::*;

fn local_cluster(ranks: usize) -> LocalCluster {
    LocalCluster::with_config(
        ranks,
        LocalClusterConfig {
            recv_timeout: Duration::from_secs(20),
            fault: FaultPlan::default(),
        },
    )
}

fn tcp_cluster(ranks: usize) -> TcpCluster {
    TcpCluster::with_config(
        ranks,
        TcpClusterConfig {
            recv_timeout: Duration::from_secs(20),
            connect_timeout: Duration::from_secs(20),
            fault: FaultPlan::default(),
        },
    )
}

// ---------------------------------------------------------------------------
// Conformance scenarios, written once against the Comm trait.
// ---------------------------------------------------------------------------

/// Messages from one peer stay FIFO within a tag, and tags do not steal each
/// other's messages (MPI-style matching).
fn p2p_fifo_per_peer_and_tag<C: Comm>(comm: &mut C) {
    if comm.rank() == 0 {
        for v in 0..8u64 {
            comm.send(1, "even", v * 2).unwrap();
            comm.send(1, "odd", v * 2 + 1).unwrap();
        }
    } else if comm.rank() == 1 {
        // Claim all odd-tagged messages first: the interleaved even-tagged
        // ones must stay queued, then arrive in send order.
        let odds: Vec<u64> = (0..8)
            .map(|_| comm.recv::<u64>(0, "odd").unwrap())
            .collect();
        let evens: Vec<u64> = (0..8)
            .map(|_| comm.recv::<u64>(0, "even").unwrap())
            .collect();
        assert_eq!(odds, vec![1, 3, 5, 7, 9, 11, 13, 15]);
        assert_eq!(evens, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }
}

/// A rank can send to itself; self-messages obey the same FIFO stream rules.
fn self_sends_are_ordinary<C: Comm>(comm: &mut C) {
    let me = comm.rank();
    comm.send(me, "self", me as u64).unwrap();
    comm.send(me, "self", me as u64 + 100).unwrap();
    assert_eq!(comm.recv::<u64>(me, "self").unwrap(), me as u64);
    assert_eq!(comm.recv::<u64>(me, "self").unwrap(), me as u64 + 100);
}

/// No rank observes fewer than `ranks` pre-barrier increments after the
/// barrier, even with deliberately skewed arrival times.
fn barrier_synchronises<C: Comm>(comm: &mut C, counter: &std::sync::atomic::AtomicUsize) {
    use std::sync::atomic::Ordering;
    std::thread::sleep(Duration::from_millis(10 * comm.rank() as u64));
    counter.fetch_add(1, Ordering::SeqCst);
    comm.barrier().unwrap();
    assert_eq!(counter.load(Ordering::SeqCst), comm.num_ranks());
}

/// Broadcast delivers the root's value everywhere, for every root.
fn broadcast_from_every_root<C: Comm>(comm: &mut C) {
    for root in 0..comm.num_ranks() {
        let value = format!("payload-{root}");
        let got = comm
            .broadcast(root, (comm.rank() == root).then(|| value.clone()))
            .unwrap();
        assert_eq!(got, value);
    }
}

/// Gather collects in ascending rank order at the root (and only there);
/// allgather replicates that exact order everywhere.
fn gather_and_allgather_preserve_rank_order<C: Comm>(comm: &mut C) {
    let me = comm.rank() as u64;
    let gathered = comm.gather(2, "g", me * me).unwrap();
    if comm.rank() == 2 {
        let expected: Vec<u64> = (0..comm.num_ranks() as u64).map(|r| r * r).collect();
        assert_eq!(gathered.unwrap(), expected);
    } else {
        assert!(gathered.is_none());
    }
    let all = comm.allgather((me, format!("rank-{me}"))).unwrap();
    let expected: Vec<(u64, String)> = (0..comm.num_ranks() as u64)
        .map(|r| (r, format!("rank-{r}")))
        .collect();
    assert_eq!(all, expected);
}

/// All-to-all-v routes every (src, dst) segment, zero-length ones included.
fn alltoallv_routes_zero_length_segments<C: Comm>(comm: &mut C) {
    let (me, ranks) = (comm.rank(), comm.num_ranks());
    // Rank r sends a segment of length r to every destination: rank 0 sends
    // only empty segments, so every length from 0 up is exercised.
    let parts: Vec<Vec<u64>> = (0..ranks)
        .map(|dst| vec![(me * 10 + dst) as u64; me])
        .collect();
    let received = comm.alltoallv(parts).unwrap();
    assert_eq!(received.len(), ranks);
    for (src, part) in received.into_iter().enumerate() {
        assert_eq!(part, vec![(src * 10 + me) as u64; src], "{src} -> {me}");
    }
}

/// Allreduce folds in ascending rank order — deterministic even for a
/// non-commutative operator — and agrees on every rank.
fn allreduce_is_deterministic<C: Comm>(comm: &mut C) {
    let me = comm.rank() as u64;
    let sum = comm.allreduce_sum(me + 1).unwrap();
    assert_eq!(
        sum,
        (comm.num_ranks() as u64) * (comm.num_ranks() as u64 + 1) / 2
    );
    // Non-commutative fold: string concatenation must come out in rank order.
    let cat = comm
        .allreduce(format!("{me}"), |a, b| format!("{a}{b}"))
        .unwrap();
    let expected: String = (0..comm.num_ranks()).map(|r| r.to_string()).collect();
    assert_eq!(cat, expected);
}

/// Split-phase completion: `try_recv` reports "not yet" without blocking
/// before a matching post exists, drains posted `isend`s in order once they
/// arrive, and goes back to "not yet" when the stream is exhausted.
fn try_recv_completes_isends_without_blocking<C: Comm>(comm: &mut C) {
    if comm.rank() == 1 {
        // Rank 0 posts nothing before the barrier, so this must be None.
        assert!(comm.try_recv::<u64>(0, "later").unwrap().is_none());
    }
    comm.barrier().unwrap();
    if comm.rank() == 0 {
        for v in 0..5u64 {
            comm.isend(1, "later", v).unwrap();
        }
    } else if comm.rank() == 1 {
        let mut got = Vec::new();
        while got.len() < 5 {
            if let Some(v) = comm.try_recv::<u64>(0, "later").unwrap() {
                got.push(v);
            }
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(comm.try_recv::<u64>(0, "later").unwrap().is_none());
    }
}

/// A coalesce scope packs every same-peer post into one frame, and the
/// receiver's ordinary `recv` sees the inner messages as if they had been
/// sent individually: FIFO per tag, no tag stealing, self-sends included.
fn coalesced_isends_unpack_into_ordinary_streams<C: Comm>(comm: &mut C) {
    let (me, ranks) = (comm.rank(), comm.num_ranks());
    comm.coalesce(|c| {
        for dst in 0..ranks {
            c.isend(dst, "ca", (me * 10) as u64)?;
            c.isend(dst, "cb", format!("from-{me}"))?;
            c.isend(dst, "ca", (me * 10 + 1) as u64)?;
        }
        Ok(())
    })
    .unwrap();
    for src in 0..ranks {
        assert_eq!(comm.recv::<u64>(src, "ca").unwrap(), (src * 10) as u64);
        assert_eq!(
            comm.recv::<String>(src, "cb").unwrap(),
            format!("from-{src}")
        );
        assert_eq!(comm.recv::<u64>(src, "ca").unwrap(), (src * 10 + 1) as u64);
    }
}

/// Plain `send`s keep their immediate semantics inside an open coalesce
/// scope — only `isend`s are buffered — and both kinds are delivered.
fn plain_sends_inside_a_coalesce_scope_stay_immediate<C: Comm>(comm: &mut C) {
    if comm.rank() == 0 {
        comm.coalesce(|c| {
            c.isend(1, "packed", 7u64)?;
            c.send(1, "eager", 1u64)?;
            Ok(())
        })
        .unwrap();
    } else if comm.rank() == 1 {
        assert_eq!(comm.recv::<u64>(0, "eager").unwrap(), 1);
        assert_eq!(comm.recv::<u64>(0, "packed").unwrap(), 7);
    }
}

/// Both backends expose sender-side comm counters with the same frame and
/// collective counts (bytes are transport-specific): point-to-point frames,
/// one frame per coalesced pack, two primitive collectives per barrier, and
/// phase buckets that sum to the totals.
fn comm_stats_count_frames_and_collectives<C: Comm>(comm: &mut C) {
    let (me, ranks) = (comm.rank(), comm.num_ranks());
    comm.set_phase("p2p");
    if me == 0 {
        for dst in 1..ranks {
            comm.send(dst, "x", 1u64).unwrap();
        }
    } else {
        comm.recv::<u64>(0, "x").unwrap();
    }
    comm.set_phase("packed");
    comm.coalesce(|c| {
        for dst in 0..ranks {
            for i in 0..4u64 {
                c.isend(dst, "y", i)?;
            }
        }
        Ok(())
    })
    .unwrap();
    for src in 0..ranks {
        for i in 0..4u64 {
            assert_eq!(comm.recv::<u64>(src, "y").unwrap(), i);
        }
    }
    comm.set_phase("sync");
    comm.barrier().unwrap();
    let stats = comm.stats().expect("both backends track stats").clone();
    let phase = |name: &str| {
        stats
            .phases
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| *p)
            .unwrap_or_default()
    };
    let p2p_expected = if me == 0 { ranks as u64 - 1 } else { 0 };
    assert_eq!(phase("p2p").frames, p2p_expected, "rank {me} p2p frames");
    // One frame per destination, however many messages were packed into it.
    assert_eq!(
        phase("packed").frames,
        ranks as u64,
        "rank {me} pack frames"
    );
    // A barrier is a gather followed by a broadcast.
    assert_eq!(
        phase("sync").collectives,
        2,
        "rank {me} barrier collectives"
    );
    let frame_sum: u64 = stats.phases.iter().map(|(_, p)| p.frames).sum();
    assert_eq!(frame_sum, stats.total.frames, "rank {me} frames sum");
}

/// Expands one `#[test]` per backend for each scenario, so a semantic drift
/// between the transports fails with the scenario's name attached.
macro_rules! conformance {
    ($($scenario:ident @ $ranks:expr),+ $(,)?) => {$(
        mod $scenario {
            use super::*;
            #[test]
            fn local() {
                local_cluster($ranks).run(|comm| $scenario(comm));
            }
            #[test]
            fn tcp() {
                tcp_cluster($ranks).run(|comm| $scenario(comm));
            }
        }
    )+};
}

conformance!(
    p2p_fifo_per_peer_and_tag @ 2,
    self_sends_are_ordinary @ 3,
    broadcast_from_every_root @ 4,
    gather_and_allgather_preserve_rank_order @ 4,
    alltoallv_routes_zero_length_segments @ 4,
    allreduce_is_deterministic @ 4,
    try_recv_completes_isends_without_blocking @ 2,
    coalesced_isends_unpack_into_ordinary_streams @ 4,
    plain_sends_inside_a_coalesce_scope_stay_immediate @ 2,
    comm_stats_count_frames_and_collectives @ 4,
);

mod barrier_synchronises {
    use super::*;
    #[test]
    fn local() {
        let counter = std::sync::atomic::AtomicUsize::new(0);
        local_cluster(4).run(|comm| barrier_synchronises(comm, &counter));
    }
    #[test]
    fn tcp() {
        let counter = std::sync::atomic::AtomicUsize::new(0);
        tcp_cluster(4).run(|comm| barrier_synchronises(comm, &counter));
    }
}

/// A message that matches source and tag but not the asked-for type is a
/// diagnosed error at the receiver — the kind is the link's (nothing to
/// downcast to in process, undecodable bytes over sockets), the contract is
/// the endpoint's.
fn wrong_payload_type<C: Comm>(comm: &mut C) -> Option<CommErrorKind> {
    if comm.rank() == 0 {
        comm.send(1, "typed", vec![1u64, 2, 3]).unwrap();
        None
    } else {
        let err = comm.recv::<String>(0, "typed").unwrap_err();
        assert_eq!((err.rank, err.peer, err.tag.as_str()), (1, 0, "typed"));
        Some(err.kind)
    }
}

mod wrong_payload_type_is_diagnosed {
    use super::*;
    #[test]
    fn local() {
        let kinds = local_cluster(2).run(wrong_payload_type);
        assert_eq!(kinds[1], Some(CommErrorKind::TypeMismatch));
    }
    #[test]
    fn tcp() {
        let kinds = tcp_cluster(2).run(wrong_payload_type);
        assert!(
            matches!(kinds[1], Some(CommErrorKind::Codec(_))),
            "{kinds:?}"
        );
    }
}

/// MPI tag matching: "alpha" stays queued, so a receive for "beta" must give
/// up with an error naming the stuck rank, the peer and the tag — a timeout
/// while rank 0 is alive, a disconnect once it has left — never "alpha".
fn mismatched_tag<C: Comm>(comm: &mut C) {
    if comm.rank() == 0 {
        // kappa-lint: allow(tag-pairing) -- the mismatch is the point: "alpha" must stay queued rather than satisfy the "beta" receive
        comm.send(1, "alpha", 1u32).unwrap();
    } else {
        // kappa-lint: allow(tag-pairing) -- deliberately unmatched receive; it must end in a diagnosis
        let err = comm.recv::<u32>(0, "beta").unwrap_err();
        assert_eq!((err.rank, err.peer, err.tag.as_str()), (1, 0, "beta"));
        assert!(
            matches!(
                err.kind,
                CommErrorKind::Timeout { .. } | CommErrorKind::Disconnected
            ),
            "{err}"
        );
        let rendered = err.to_string();
        assert!(rendered.contains("rank 1") && rendered.contains("\"beta\""));
    }
}

mod mismatched_tag_is_diagnosed_with_rank_peer_and_tag {
    use super::*;
    const PATIENCE: Duration = Duration::from_millis(200);
    #[test]
    fn local() {
        let config = LocalClusterConfig {
            recv_timeout: PATIENCE,
            fault: FaultPlan::default(),
        };
        LocalCluster::with_config(2, config).run(mismatched_tag);
    }
    #[test]
    fn tcp() {
        let config = TcpClusterConfig {
            recv_timeout: PATIENCE,
            ..TcpClusterConfig::default()
        };
        TcpCluster::with_config(2, config).run(mismatched_tag);
    }
}

/// The `::` tag namespace is the runtime's: a user tag inside it trips the
/// endpoint's send-path assertion on either link, on the plain and on the
/// coalesced path (debug builds; the static side is the `tag-reserved` lint).
#[cfg(debug_assertions)]
mod reserved_user_tag_trips_the_debug_assertion {
    use super::*;
    fn trespass<C: Comm>(comm: &mut C) {
        // kappa-lint: allow(tag-reserved, tag-pairing) -- the trespass is the point: the send must die on the assertion before anything is sent
        let _ = comm.send(0, "::mine", 1u64);
    }
    fn trespass_coalesced<C: Comm>(comm: &mut C) {
        // kappa-lint: allow(tag-reserved, tag-pairing) -- as above, through the buffered path
        let _ = comm.coalesce(|c| c.isend(0, "::mine", 1u64));
    }
    #[test]
    #[should_panic(expected = "reserved for the runtime")]
    fn local() {
        local_cluster(1).run(trespass);
    }
    #[test]
    #[should_panic(expected = "reserved for the runtime")]
    fn local_coalesced() {
        local_cluster(1).run(trespass_coalesced);
    }
    #[test]
    #[should_panic(expected = "reserved for the runtime")]
    fn tcp() {
        tcp_cluster(1).run(trespass);
    }
    #[test]
    #[should_panic(expected = "reserved for the runtime")]
    fn tcp_coalesced() {
        tcp_cluster(1).run(trespass_coalesced);
    }
}

/// The superstep shape `dist_refine` emits: every superstep, every rank posts
/// `MOVES` small move records to every peer, then drains its inbound queues.
/// `coalesced` routes the posts through a [`Comm::coalesce`] scope — one pack
/// frame per peer per superstep — instead of one frame per record. Returns
/// this endpoint's total frame count.
fn move_broadcast_frames<C: Comm>(comm: &mut C, coalesced: bool) -> u64 {
    const SUPERSTEPS: usize = 8;
    const MOVES: u64 = 24;
    let (me, ranks) = (comm.rank(), comm.num_ranks());
    let peers = move || (0..ranks).filter(move |&peer| peer != me);
    for _ in 0..SUPERSTEPS {
        let post_all = |comm: &mut C| {
            for m in 0..MOVES {
                for peer in peers() {
                    if coalesced {
                        comm.isend(peer, "mv", (me as u64, m))?;
                    } else {
                        comm.send(peer, "mv", (me as u64, m))?;
                    }
                }
            }
            Ok(())
        };
        if coalesced {
            comm.coalesce(post_all).unwrap();
        } else {
            post_all(comm).unwrap();
        }
        for peer in peers() {
            for m in 0..MOVES {
                assert_eq!(
                    comm.recv::<(u64, u64)>(peer, "mv").unwrap(),
                    (peer as u64, m)
                );
            }
        }
    }
    comm.stats()
        .expect("both backends track stats")
        .total
        .frames
}

/// Exact cluster-wide frame totals of the 4-rank, 8-superstep × 24-move
/// broadcast on both backends: 4 ranks × 3 peers × 8 supersteps = 96 packs
/// against × 24 = 2 304 single frames. "Coalescing stopped packing" (or a
/// protocol that grew chattier) fails here, whatever the runner's speed.
#[test]
fn coalescing_packs_each_superstep_into_one_frame_per_peer() {
    for (coalesced, frames) in [(true, 96u64), (false, 2_304)] {
        let local = local_cluster(4).run(|comm| move_broadcast_frames(comm, coalesced));
        let tcp = tcp_cluster(4).run(|comm| move_broadcast_frames(comm, coalesced));
        assert_eq!(
            local.iter().sum::<u64>(),
            frames,
            "local, coalesced = {coalesced}"
        );
        assert_eq!(
            tcp.iter().sum::<u64>(),
            frames,
            "tcp, coalesced = {coalesced}"
        );
    }
}

// ---------------------------------------------------------------------------
// Fault injection against the full distributed pipeline.
// ---------------------------------------------------------------------------

fn fault_workload() -> (CsrGraph, DistConfig) {
    let graph = random_geometric_graph(800, 5);
    let config = DistConfig::new(KappaConfig::fast(4).with_seed(9), 4);
    (graph, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Duplicates and delays are fully recoverable: the sequence-numbered
    /// streams dedup and reassemble them, and the faulted run is
    /// bit-identical to the clean one.
    #[test]
    fn recoverable_faults_leave_the_result_bit_identical(seed in any::<u64>()) {
        let (graph, config) = fault_workload();
        let clean = partition_distributed(&graph, &config).unwrap();
        let faulted = partition_distributed_with(
            &graph,
            &config,
            LocalClusterConfig {
                recv_timeout: Duration::from_secs(20),
                fault: FaultPlan::seeded(seed, 0.0, 0.05, 0.002, 0.0),
            },
        )
        .unwrap();
        prop_assert_eq!(faulted.partition.assignment(), clean.partition.assignment());
        prop_assert_eq!(faulted.edge_cut, clean.edge_cut);
    }

    /// Lossy plans (drops, plus reorders whose held message can fall off the
    /// end of a stream) either miss every live channel — bit-identical result
    /// — or surface as a diagnosed CommError. Never a hang, never a silently
    /// wrong partition.
    #[test]
    fn lossy_faults_are_bit_identical_or_diagnosed(seed in any::<u64>()) {
        let (graph, config) = fault_workload();
        let clean = partition_distributed(&graph, &config).unwrap();
        let started = std::time::Instant::now();
        let outcome = partition_distributed_with(
            &graph,
            &config,
            LocalClusterConfig {
                recv_timeout: Duration::from_secs(2),
                fault: FaultPlan::seeded(seed, 0.0005, 0.01, 0.0, 0.003),
            },
        );
        prop_assert!(
            started.elapsed() < Duration::from_secs(60),
            "faulted run must never hang"
        );
        match outcome {
            Ok(result) => {
                prop_assert_eq!(
                    result.partition.assignment(),
                    clean.partition.assignment(),
                    "a run that completes under faults must be bit-identical"
                );
                prop_assert_eq!(result.edge_cut, clean.edge_cut);
            }
            Err(err) => {
                prop_assert!(err.rank < config.ranks);
                prop_assert!(err.peer < config.ranks);
                prop_assert!(!err.tag.is_empty(), "error must name the tag in flight");
                prop_assert!(matches!(
                    err.kind,
                    CommErrorKind::Timeout { .. } | CommErrorKind::Disconnected
                ));
            }
        }
    }
}

/// The regression shape from the issue: one targeted dropped message in an
/// R = 4 run produces a clean, prompt error naming the stuck rank, the peer
/// and the tag — not a deadlock, not a wrong partition.
#[test]
fn dropped_message_at_four_ranks_is_diagnosed_with_rank_and_tag() {
    let graph = random_geometric_graph(1500, 3);
    let config = DistConfig::new(KappaConfig::fast(8).with_seed(1), 4);
    let started = std::time::Instant::now();
    let err = partition_distributed_with(
        &graph,
        &config,
        LocalClusterConfig {
            recv_timeout: Duration::from_secs(2),
            // The very first frame rank 1 sends to rank 2 vanishes.
            fault: FaultPlan::drop_nth(1, 2, 0),
        },
    )
    .unwrap_err();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the failure must surface promptly"
    );
    // The diagnosis is the timeout of a stuck receiver, not the disconnect
    // cascade it triggers. Usually that is rank 2 waiting on rank 1 (the
    // dropped channel), but one drop stalls several ranks near-simultaneously
    // (rank 2 mid-collective, its peers at their next receive from rank 2),
    // and on a loaded single-core box any of those concurrent timers can
    // expire first — so pin the contract, not the scheduling: a Timeout
    // naming some stuck (rank, peer) pair and the tag in flight.
    assert!(
        matches!(err.kind, CommErrorKind::Timeout { .. }),
        "expected a timeout diagnosis, got {:?}",
        err.kind
    );
    assert!(err.rank < config.ranks, "stuck rank out of range: {err}");
    assert!(err.peer < config.ranks, "peer out of range: {err}");
    assert_ne!(
        err.rank, err.peer,
        "a rank cannot be stuck on itself: {err}"
    );
    assert!(!err.tag.is_empty(), "error must name the tag");
    // The rendered message carries the full story for the CLI user.
    let rendered = err.to_string();
    assert!(
        rendered.contains(&format!("rank {}", err.rank)),
        "{rendered}"
    );
    assert!(
        rendered.contains(&format!("rank {}", err.peer)),
        "{rendered}"
    );
    assert!(rendered.contains(&err.tag), "{rendered}");
}

/// The same drop through the TCP backend: real sockets, same contract.
#[test]
fn dropped_frame_over_tcp_is_diagnosed_not_hung() {
    let cluster = TcpCluster::with_config(
        2,
        TcpClusterConfig {
            recv_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(20),
            fault: FaultPlan::drop_nth(0, 1, 2),
        },
    );
    let started = std::time::Instant::now();
    let results = cluster.run(|comm| -> kappa::dist::CommResult<u64> {
        if comm.rank() == 0 {
            for v in 0..10u64 {
                comm.send(1, "stream", v)?;
            }
            Ok(0)
        } else {
            let mut acc = 0;
            for _ in 0..10 {
                acc += comm.recv::<u64>(0, "stream")?;
            }
            Ok(acc)
        }
    });
    assert!(started.elapsed() < Duration::from_secs(30), "must not hang");
    let err = results[1].clone().unwrap_err();
    assert_eq!((err.rank, err.peer, err.tag.as_str()), (1, 0, "stream"));
    assert!(matches!(
        err.kind,
        CommErrorKind::Timeout { .. } | CommErrorKind::Disconnected
    ));
}

// ---------------------------------------------------------------------------
// Fault injection on coalesced pack frames.
// ---------------------------------------------------------------------------

/// Rank 0 streams 20 coalesced packs (3 messages, 2 tags each) to rank 1;
/// rank 1 receives them through the ordinary stream interface. Every frame
/// on the 0 → 1 channel is a pack, so channel faults hit packs only.
fn pack_stream_workload<C: Comm>(comm: &mut C) -> kappa::dist::CommResult<Vec<u64>> {
    if comm.rank() == 0 {
        for s in 0..20u64 {
            comm.coalesce(|c| {
                c.isend(1, "pa", s)?;
                c.isend(1, "pb", s + 1000)?;
                c.isend(1, "pa", s + 2000)?;
                Ok(())
            })?;
        }
        Ok(Vec::new())
    } else {
        let mut got = Vec::new();
        for _ in 0..20 {
            got.push(comm.recv::<u64>(0, "pa")?);
            got.push(comm.recv::<u64>(0, "pb")?);
            got.push(comm.recv::<u64>(0, "pa")?);
        }
        Ok(got)
    }
}

fn expected_pack_stream() -> Vec<u64> {
    (0..20u64).flat_map(|s| [s, s + 1000, s + 2000]).collect()
}

/// Duplicated and delayed packs are fully recovered on both backends: the
/// inner messages carry their own sequence numbers, so a whole duplicated
/// pack dedups message by message and the stream comes out exact.
#[test]
fn duplicated_and_delayed_coalesced_packs_are_recovered_on_both_backends() {
    for seed in [3u64, 17] {
        let fault = FaultPlan::seeded(seed, 0.0, 0.2, 0.1, 0.0);
        let local = LocalCluster::with_config(
            2,
            LocalClusterConfig {
                recv_timeout: Duration::from_secs(20),
                fault,
            },
        )
        .run(pack_stream_workload);
        assert_eq!(
            local[1].clone().unwrap(),
            expected_pack_stream(),
            "local seed {seed}"
        );
        let tcp = TcpCluster::with_config(
            2,
            TcpClusterConfig {
                recv_timeout: Duration::from_secs(20),
                connect_timeout: Duration::from_secs(20),
                fault,
            },
        )
        .run(pack_stream_workload);
        assert_eq!(
            tcp[1].clone().unwrap(),
            expected_pack_stream(),
            "tcp seed {seed}"
        );
    }
}

/// Dropping one pack loses every message inside it: the receiver must
/// diagnose the stalled stream (naming rank, peer and an inner tag — packs
/// are a transport artefact, so no user-facing error ever says `::coal`),
/// not hang and not skip ahead.
#[test]
fn dropped_coalesced_pack_is_diagnosed_not_hung() {
    let started = std::time::Instant::now();
    let results = TcpCluster::with_config(
        2,
        TcpClusterConfig {
            recv_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(20),
            // The third pack on the 0 -> 1 channel vanishes.
            fault: FaultPlan::drop_nth(0, 1, 2),
        },
    )
    .run(pack_stream_workload);
    assert!(started.elapsed() < Duration::from_secs(30), "must not hang");
    let err = results[1].clone().unwrap_err();
    assert_eq!((err.rank, err.peer), (1, 0));
    assert!(
        err.tag == "pa" || err.tag == "pb",
        "error must name the awaited inner tag, got {:?}",
        err.tag
    );
    assert!(matches!(
        err.kind,
        CommErrorKind::Timeout { .. } | CommErrorKind::Disconnected
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Reordering (and occasionally dropping) whole packs obeys the global
    /// fault contract: the stream either heals at the inner-sequence level —
    /// bit-identical result — or fails diagnosed. Never a hang, never a
    /// wrong or reordered delivery.
    #[test]
    fn reordered_coalesced_packs_are_exact_or_diagnosed(seed in any::<u64>()) {
        let started = std::time::Instant::now();
        let results = LocalCluster::with_config(
            2,
            LocalClusterConfig {
                recv_timeout: Duration::from_secs(2),
                fault: FaultPlan::seeded(seed, 0.002, 0.0, 0.0, 0.05),
            },
        )
        .run(pack_stream_workload);
        prop_assert!(started.elapsed() < Duration::from_secs(60), "must not hang");
        match results[1].clone() {
            Ok(got) => prop_assert_eq!(got, expected_pack_stream()),
            Err(err) => {
                prop_assert_eq!((err.rank, err.peer), (1, 0));
                prop_assert!(matches!(
                    err.kind,
                    CommErrorKind::Timeout { .. } | CommErrorKind::Disconnected
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wire-codec properties over the pipeline's message shapes.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Round-trips of the concrete payload shapes the pipeline sends:
    /// adjacency rows, quality keys, move records, partitions, band regions.
    #[test]
    fn pipeline_message_shapes_round_trip(seed in any::<u64>(), n in 0usize..40) {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Adjacency rows: Vec<(Vec<(NodeId, EdgeWeight)>, NodeWeight)>.
        let rows: Vec<(Vec<(u32, u64)>, u64)> = (0..n)
            .map(|_| {
                let deg = (next() % 6) as usize;
                ((0..deg).map(|_| (next() as u32, next() % 1000)).collect(), next() % 100)
            })
            .collect();
        let bytes = rows.to_bytes();
        prop_assert_eq!(&<Vec<(Vec<(u32, u64)>, u64)>>::from_bytes(&bytes).unwrap(), &rows);

        // Quality keys: (infeasible, cut, balance).
        let key = ((next() % 2) as u8, next() as f64 / 7.0, 1.0 + (next() % 100) as f64 / 1000.0);
        prop_assert_eq!(<(u8, f64, f64)>::from_bytes(&key.to_bytes()).unwrap(), key);

        // Partitions (k, assignment).
        let k = 1 + (next() % 8) as u32;
        let assignment: Vec<u32> = (0..n).map(|_| next() as u32 % k).collect();
        let p = Partition::from_assignment(k, assignment);
        let decoded = Partition::from_bytes(&p.to_bytes()).unwrap();
        prop_assert_eq!(decoded.k(), p.k());
        prop_assert_eq!(decoded.assignment(), p.assignment());

        // Band shards: eight flat arrays per (sender, pair).
        let mut shard = kappa::refine::BandShard::with_capacity(0, 0);
        for _ in 0..n.min(12) {
            let edges: Vec<(u32, u64, u32, u64)> = (0..(next() % 4) as usize)
                .map(|_| (next() as u32, 1 + next() % 9, next() as u32 % k, next() % 50))
                .collect();
            shard.push_node(next() as u32, next() % 50, next() as u32 % k, edges);
        }
        let shards = vec![(3u32, shard), (7u32, kappa::refine::BandShard::with_capacity(0, 0))];
        prop_assert_eq!(
            &Vec::<(u32, kappa::refine::BandShard)>::from_bytes(&shards.to_bytes()).unwrap(),
            &shards
        );
    }

    /// Every truncation of an encoded frame is rejected, and so is every
    /// single-byte corruption — a damaged frame can never decode into a
    /// different valid message.
    #[test]
    fn truncated_and_corrupted_frames_are_rejected(seed in any::<u64>(), len in 0usize..64) {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let payload: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        let bytes = encode_frame(next() as u32 % 64, next() % 1_000, "alltoallv", &payload).unwrap();
        let (frame, consumed) = decode_frame(&bytes).unwrap();
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(&frame.payload, &payload);
        for cut in 0..bytes.len() {
            prop_assert!(decode_frame(&bytes[..cut]).is_err(), "prefix {} decoded", cut);
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << (next() % 8);
            prop_assert!(decode_frame(&bad).is_err(), "corruption at byte {} decoded", i);
        }
    }
}

// ---------------------------------------------------------------------------
// Transport parity: the pipeline is bit-identical across backends.
// ---------------------------------------------------------------------------

/// `--transport tcp` must reproduce the local cluster bit for bit: every
/// decision in the pipeline is seed-driven over deterministic collective
/// schedules, so the transport cannot leak into the result.
#[test]
fn tcp_transport_is_bit_identical_to_local_for_every_rank_count() {
    let instances: Vec<(&str, CsrGraph)> = vec![
        ("rgg-2000", random_geometric_graph(2000, 7)),
        ("grid-45x45", grid2d(45, 45)),
        ("delaunay-1500", delaunay_like_graph(1500, 4)),
    ];
    for (name, graph) in &instances {
        for ranks in [1usize, 2, 4, 8] {
            let config = DistConfig::new(KappaConfig::fast(8).with_seed(5), ranks);
            let local = partition_distributed(graph, &config).unwrap();
            let mut tcp_results =
                tcp_cluster(ranks).run(|comm| partition_with_comm(comm, graph, &config).unwrap());
            let tcp = tcp_results
                .remove(0)
                .expect("rank 0 returns the assembled result");
            for other in tcp_results {
                assert!(other.is_none(), "only rank 0 assembles a result");
            }
            assert_eq!(
                tcp.partition.assignment(),
                local.partition.assignment(),
                "{name} ranks={ranks}: tcp assignment diverged from local"
            );
            assert_eq!(tcp.edge_cut, local.edge_cut, "{name} ranks={ranks}");
            assert_eq!(tcp.hierarchy_levels, local.hierarchy_levels);
            assert_eq!(tcp.coarsest_nodes, local.coarsest_nodes);
            assert_eq!(
                tcp.boundary_full_builds_per_rank,
                local.boundary_full_builds_per_rank
            );
        }
    }
}

/// Rank folding is transport-independent too: a folded run over TCP is
/// bit-identical to the folded local run, and the comm counters (frames,
/// collectives) agree frame for frame across the backends.
#[test]
fn folded_runs_are_bit_identical_across_transports() {
    let graph = random_geometric_graph(2000, 7);
    for ranks in [2usize, 8] {
        let config =
            DistConfig::new(KappaConfig::fast(8).with_seed(5), ranks).with_fold_threshold(1024);
        let local = partition_distributed(&graph, &config).unwrap();
        let mut tcp_results =
            tcp_cluster(ranks).run(|comm| partition_with_comm(comm, &graph, &config).unwrap());
        let tcp = tcp_results.remove(0).expect("rank 0 assembles");
        assert_eq!(
            tcp.partition.assignment(),
            local.partition.assignment(),
            "ranks={ranks}: folded tcp run diverged from local"
        );
        assert_eq!(tcp.edge_cut, local.edge_cut);
        for (rank, (t, l)) in tcp
            .comm_per_rank
            .iter()
            .zip(&local.comm_per_rank)
            .enumerate()
        {
            assert_eq!(t.total.frames, l.total.frames, "rank {rank} frames");
            assert_eq!(
                t.total.collectives, l.total.collectives,
                "rank {rank} collectives"
            );
        }
    }
}

/// `partition_with_comm` over a LocalCluster matches `partition_distributed`
/// too — the redundant per-rank layout computation changes nothing.
#[test]
fn partition_with_comm_matches_the_driver_entry_point_locally() {
    let graph = random_geometric_graph(2000, 2);
    for ranks in [1usize, 4] {
        let config = DistConfig::new(KappaConfig::fast(4).with_seed(11), ranks);
        let driver = partition_distributed(&graph, &config).unwrap();
        let mut results =
            local_cluster(ranks).run(|comm| partition_with_comm(comm, &graph, &config).unwrap());
        let spmd = results.remove(0).expect("rank 0 assembles");
        assert_eq!(spmd.partition.assignment(), driver.partition.assignment());
        assert_eq!(spmd.edge_cut, driver.edge_cut);
    }
}
