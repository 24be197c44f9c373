//! Backend-generic conformance and stopped-rank suite for the `Comm`
//! abstraction (`kappa-dist`).
//!
//! Every conformance scenario is written once against the trait and executed
//! against **both** backends — the in-process `LocalCluster` and the
//! socket-backed `TcpCluster`, one endpoint over two links — so the
//! transports cannot drift apart in semantics: point-to-point FIFO per
//! (peer, tag), barrier, broadcast, gather/allgather rank order,
//! all-to-all-v with zero-length segments, allreduce determinism,
//! self-sends, the diagnosis of a wrong payload type or a mismatched tag.
//! Tags are `Tag` constants, so the reserved `::` namespace needs no test:
//! a user tag inside it does not compile.
//!
//! Both links deliver each sender's messages once and in order, so the one
//! fault injected here is the one a real cluster shows: a rank that stops
//! (`common::StopAt` fails its n-th send to a peer, and the rank returns).
//! Over either link the whole distributed pipeline then either completes
//! bit-identical (the stop came after the rank's last message to that peer)
//! or fails with a diagnosed `CommError` naming a stuck rank, a peer and a
//! tag. It never hangs and never returns a wrong partition.
//!
//! Plus the wire-codec properties (round-trips, truncation and corruption
//! rejection) and the local/tcp end-to-end parity required for
//! `--transport tcp`.

use std::time::Duration;

use kappa::dist::codec::{decode_frame, encode_frame, Wire};
use kappa::dist::{
    partition_distributed, partition_with_comm, Comm, CommErrorKind, CommResult, DistConfig,
    DistRunResult, LocalCluster, LocalClusterConfig, Tag, TcpCluster, TcpClusterConfig,
};
use kappa::gen::{delaunay_like_graph, grid2d, random_geometric_graph};
use kappa::prelude::*;
use proptest::prelude::*;

mod common;
use common::StopAt;

fn local_cluster(ranks: usize) -> LocalCluster {
    local_cluster_waiting(ranks, Duration::from_secs(20))
}

fn tcp_cluster(ranks: usize) -> TcpCluster {
    tcp_cluster_waiting(ranks, Duration::from_secs(20))
}

fn local_cluster_waiting(ranks: usize, recv_timeout: Duration) -> LocalCluster {
    LocalCluster::with_config(ranks, LocalClusterConfig { recv_timeout })
}

fn tcp_cluster_waiting(ranks: usize, recv_timeout: Duration) -> TcpCluster {
    TcpCluster::with_config(
        ranks,
        TcpClusterConfig {
            recv_timeout,
            connect_timeout: Duration::from_secs(20),
        },
    )
}

// ---------------------------------------------------------------------------
// Conformance scenarios, written once against the Comm trait.
// ---------------------------------------------------------------------------

/// Two distinct tags; which exchange they belong to does not matter here.
const EVEN: Tag = Tag::BAND_RECS;
const ODD: Tag = Tag::CLASS_REPORTS;

/// Messages from one peer stay FIFO within a tag, and tags do not steal each
/// other's messages (MPI-style matching).
fn p2p_fifo_per_peer_and_tag<C: Comm>(comm: &mut C) {
    if comm.rank() == 0 {
        for v in 0..8u64 {
            comm.send(1, EVEN, v * 2).unwrap();
            comm.send(1, ODD, v * 2 + 1).unwrap();
        }
    } else if comm.rank() == 1 {
        // Claim all odd-tagged messages first: the interleaved even-tagged
        // ones must stay queued, then arrive in send order.
        let odds: Vec<u64> = (0..8).map(|_| comm.recv::<u64>(0, ODD).unwrap()).collect();
        let evens: Vec<u64> = (0..8).map(|_| comm.recv::<u64>(0, EVEN).unwrap()).collect();
        assert_eq!(odds, vec![1, 3, 5, 7, 9, 11, 13, 15]);
        assert_eq!(evens, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }
}

/// A rank can send to itself; self-messages obey the same FIFO stream rules.
fn self_sends_are_ordinary<C: Comm>(comm: &mut C) {
    let me = comm.rank();
    comm.send(me, EVEN, me as u64).unwrap();
    comm.send(me, EVEN, me as u64 + 100).unwrap();
    assert_eq!(comm.recv::<u64>(me, EVEN).unwrap(), me as u64);
    assert_eq!(comm.recv::<u64>(me, EVEN).unwrap(), me as u64 + 100);
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
    let gathered = comm.gather(2, EVEN, me * me).unwrap();
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

/// Both backends expose sender-side comm counters with the same frame and
/// collective counts (bytes are transport-specific): point-to-point frames,
/// two primitive collectives per barrier, and phase buckets that sum to the
/// totals.
fn comm_stats_count_frames_and_collectives<C: Comm>(comm: &mut C) {
    let (me, ranks) = (comm.rank(), comm.num_ranks());
    comm.set_phase("p2p");
    if me == 0 {
        for dst in 1..ranks {
            comm.send(dst, EVEN, 1u64).unwrap();
        }
    } else {
        comm.recv::<u64>(0, EVEN).unwrap();
    }
    comm.set_phase("sync");
    comm.barrier().unwrap();
    let stats = comm.stats().clone();
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
        comm.send(1, EVEN, vec![1u64, 2, 3]).unwrap();
        None
    } else {
        let err = comm.recv::<String>(0, EVEN).unwrap_err();
        assert_eq!(
            (err.rank, err.peer, err.tag.as_str()),
            (1, 0, EVEN.as_str())
        );
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

/// MPI tag matching: an `EVEN` message stays queued, so a receive for `ODD`
/// must give up with an error naming the stuck rank, the peer and the tag —
/// a timeout while rank 0 is alive, a disconnect once it has left — never
/// `EVEN`.
fn mismatched_tag<C: Comm>(comm: &mut C) {
    if comm.rank() == 0 {
        comm.send(1, EVEN, 1u32).unwrap();
    } else {
        let err = comm.recv::<u32>(0, ODD).unwrap_err();
        assert_eq!((err.rank, err.peer, err.tag.as_str()), (1, 0, ODD.as_str()));
        assert!(
            matches!(
                err.kind,
                CommErrorKind::Timeout { .. } | CommErrorKind::Disconnected
            ),
            "{err}"
        );
        let rendered = err.to_string();
        let quoted = format!("{:?}", ODD.as_str());
        assert!(rendered.contains("rank 1") && rendered.contains(&quoted));
    }
}

mod mismatched_tag_is_diagnosed_with_rank_peer_and_tag {
    use super::*;
    const PATIENCE: Duration = Duration::from_millis(200);
    #[test]
    fn local() {
        local_cluster_waiting(2, PATIENCE).run(mismatched_tag);
    }
    #[test]
    fn tcp() {
        tcp_cluster_waiting(2, PATIENCE).run(mismatched_tag);
    }
}

// ---------------------------------------------------------------------------
// A stopped rank against the full distributed pipeline.
// ---------------------------------------------------------------------------

fn stop_workload() -> (CsrGraph, DistConfig) {
    let graph = random_geometric_graph(800, 5);
    let config = DistConfig::new(KappaConfig::fast(4).with_seed(9), 4);
    (graph, config)
}

/// One rank's pipeline outcome, and the sends it made to the stop's target.
type Stopped = (CommResult<Option<DistRunResult>>, u64);

/// Runs the pipeline on one rank, rank `from` stopping at its `n`-th send to
/// rank `to`.
fn run_stopped<C: Comm>(
    comm: &mut C,
    graph: &CsrGraph,
    config: &DistConfig,
    (from, to, n): (usize, usize, u64),
) -> Stopped {
    let mut stop = StopAt::new(comm, from, to, n);
    let outcome = partition_with_comm(&mut stop, graph, config);
    (outcome, stop.sent())
}

/// The stop contract over one link. A stop at or past the number of
/// messages rank `from` sends to its target (`past`) leaves the run
/// bit-identical to `clean`: the partition, the cut and every rank's frame
/// and collective counts. Any earlier stop fails the run. Every rank that
/// fails besides `from` names itself, another rank and the tag in flight,
/// and at least one of them reports the silent (`Timeout`) or gone
/// (`Disconnected`) peer. Over sockets a send can also meet a peer that
/// has already closed, which is an `Io` error.
fn assert_stop_contract(
    link: &str,
    outcomes: Vec<Stopped>,
    from: usize,
    past: bool,
    clean: &DistRunResult,
) {
    let ranks = outcomes.len();
    if past {
        let mut results = outcomes.into_iter().map(|(outcome, _)| outcome);
        let result = results.next().unwrap().unwrap().expect("rank 0 assembles");
        assert!(results.all(|r| r.is_ok()), "{link}: a late stop failed");
        assert_eq!(result.partition.assignment(), clean.partition.assignment());
        assert_eq!(result.edge_cut, clean.edge_cut);
        for (rank, (got, want)) in result
            .comm_per_rank
            .iter()
            .zip(&clean.comm_per_rank)
            .enumerate()
        {
            assert_eq!(
                got.total.frames, want.total.frames,
                "{} rank {}",
                link, rank
            );
            assert_eq!(got.total.collectives, want.total.collectives);
        }
        return;
    }
    assert!(
        outcomes[from].0.is_err(),
        "{link}: the stopped rank finished"
    );
    let mut diagnosed = false;
    for (rank, (outcome, _)) in outcomes.into_iter().enumerate() {
        let Err(err) = outcome else { continue };
        if rank == from {
            continue;
        }
        assert_eq!(err.rank, rank, "{}: {}", link, err);
        assert!(err.peer < ranks && err.peer != rank, "{link}: {err}");
        assert!(
            !err.tag.is_empty(),
            "{link}: error must name the tag in flight"
        );
        let rendered = err.to_string();
        assert!(rendered.contains(&format!("rank {rank}")), "{rendered}");
        assert!(rendered.contains(&err.tag), "{rendered}");
        match err.kind {
            CommErrorKind::Timeout { .. } | CommErrorKind::Disconnected => diagnosed = true,
            CommErrorKind::Io(_) if link == "tcp" => {}
            _ => panic!("{link}: undiagnosed failure {err}"),
        }
    }
    assert!(diagnosed, "{link}: no rank diagnosed the stopped peer");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A rank stops at a random point `(from, to, n)` of an R = 4 run, over
    /// both links. A stop past its last message to `to` gives the clean
    /// partition bit for bit; any other stop gives a diagnosed error. Never a
    /// hang, never a silently wrong partition.
    #[test]
    fn lossy_faults_are_bit_identical_or_diagnosed(
        from in 0..4usize,
        hop in 1..4usize,
        past in any::<bool>(),
        pick in any::<u64>(),
    ) {
        let (graph, config) = stop_workload();
        let to = (from + hop) % config.ranks;
        let clean = partition_distributed(&graph, &config).unwrap();
        let counted = local_cluster(config.ranks)
            .run(|comm| run_stopped(comm, &graph, &config, (from, to, u64::MAX)));
        let sends = counted[from].1;
        let n = if past || sends == 0 { sends + pick % 3 } else { pick % sends };
        let past = n >= sends;
        let wait = Duration::from_secs(2);
        #[expect(clippy::disallowed_methods, reason = "the test bounds how long the diagnosis takes")]
        let started = std::time::Instant::now();
        let local = local_cluster_waiting(config.ranks, wait)
            .run(|comm| run_stopped(comm, &graph, &config, (from, to, n)));
        assert_stop_contract("local", local, from, past, &clean);
        let tcp = tcp_cluster_waiting(config.ranks, wait)
            .run(|comm| run_stopped(comm, &graph, &config, (from, to, n)));
        assert_stop_contract("tcp", tcp, from, past, &clean);
        prop_assert!(
            started.elapsed() < Duration::from_secs(60),
            "a stopped run must never hang"
        );
    }
}

/// One rank stops at its very first frame to a peer in an R = 4 run: every
/// other rank fails promptly with an error naming itself, a peer and the tag
/// in flight — not a deadlock, not a wrong partition.
#[test]
fn dropped_message_at_four_ranks_is_diagnosed_with_rank_and_tag() {
    let graph = random_geometric_graph(1500, 3);
    let config = DistConfig::new(KappaConfig::fast(8).with_seed(1), 4);
    #[expect(
        clippy::disallowed_methods,
        reason = "the test bounds how long the diagnosis takes"
    )]
    let started = std::time::Instant::now();
    // Rank 1 stops at the first frame it would send to rank 2.
    let outcomes = local_cluster_waiting(4, Duration::from_secs(2))
        .run(|comm| run_stopped(comm, &graph, &config, (1, 2, 0)));
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the failure must surface promptly"
    );
    for (rank, (outcome, _)) in outcomes.into_iter().enumerate() {
        let err = outcome.expect_err("no rank can finish without rank 1");
        if rank == 1 {
            continue;
        }
        assert_eq!(err.rank, rank, "{err}");
        assert!(
            matches!(
                err.kind,
                CommErrorKind::Timeout { .. } | CommErrorKind::Disconnected
            ),
            "expected a timeout or disconnect diagnosis, got {err}"
        );
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
}

/// A stop through the TCP backend: real sockets, same contract.
#[test]
fn dropped_frame_over_tcp_is_diagnosed_not_hung() {
    #[expect(
        clippy::disallowed_methods,
        reason = "the test bounds how long the diagnosis takes"
    )]
    let started = std::time::Instant::now();
    let results = tcp_cluster_waiting(2, Duration::from_secs(2)).run(|comm| -> CommResult<u64> {
        // Rank 0 stops at its third frame to rank 1.
        let mut comm = StopAt::new(comm, 0, 1, 2);
        if comm.rank() == 0 {
            for v in 0..10u64 {
                comm.send(1, EVEN, v)?;
            }
            Ok(0)
        } else {
            let mut acc = 0;
            for _ in 0..10 {
                acc += comm.recv::<u64>(0, EVEN)?;
            }
            Ok(acc)
        }
    });
    assert!(started.elapsed() < Duration::from_secs(30), "must not hang");
    let err = results[1].clone().unwrap_err();
    assert_eq!(
        (err.rank, err.peer, err.tag.as_str()),
        (1, 0, EVEN.as_str())
    );
    assert!(matches!(
        err.kind,
        CommErrorKind::Timeout { .. } | CommErrorKind::Disconnected
    ));
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
        let bytes = encode_frame(next() as u32 % 64, "alltoallv", &payload).unwrap();
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
