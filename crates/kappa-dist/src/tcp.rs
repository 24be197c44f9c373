//! The TCP transport: the socket link under the one [`Comm`](crate::Comm)
//! endpoint.
//!
//! Topology is a full mesh of duplex connections, one per unordered rank
//! pair, built deterministically: every rank owns a listening socket, and the
//! **lower** rank dials the **higher** rank's listener (with bounded retry and
//! exponential backoff), so each pair establishes exactly one connection.
//! Each direction of a connection carries [`Frame`](crate::codec::Frame)s (see
//! [`codec`](crate::codec)); a version-checked handshake
//! (`magic | PROTOCOL_VERSION | cluster size | rank`) runs on every
//! connection before any frame, so mismatched builds are rejected with a
//! diagnosed [`CommErrorKind::Handshake`] instead of garbled decodes.
//!
//! A background reader thread per peer drains the socket into an unbounded
//! in-process queue regardless of what the rank's main thread is doing — this
//! is what makes the deterministic collective schedules of
//! [`Comm`](crate::Comm) deadlock-free over TCP: a writer can never be blocked
//! by a peer that is itself mid-send, because every peer always reads. The
//! reader also checks that each frame names the rank the connection's
//! handshake named. A connection is never re-established once the mesh
//! stands, so each peer's frames reach the queue once and in order.
//! Everything above the queue — MPI-style tag matching and the
//! timeout-guarded failure behaviour — is the shared [`Endpoint`], the same
//! code that runs a [`LocalCluster`](crate::LocalCluster); [`SocketLink`]
//! only encodes payloads, counts wire bytes and writes frames.
//!
//! Shutdown is graceful: dropping a [`TcpComm`] sends a `::bye` control frame
//! on every connection and half-closes it, so peers distinguish a drained,
//! clean exit from a crash (mid-frame EOF), then joins its reader threads.
//!
//! Two ways to stand a cluster up:
//!
//! * [`TcpCluster::run`] — in-process, one thread per rank over loopback
//!   sockets; the TCP twin of [`LocalCluster::run`](crate::LocalCluster::run)
//!   used by the conformance suite and benches.
//! * [`TcpComm::connect_worker`] — one OS process per rank: each worker binds
//!   its own listener and registers it with a rendezvous server
//!   ([`rendezvous_serve`], run by the launching parent), learns every peer's
//!   address, then builds the same mesh. This is the `--transport tcp` path
//!   of `kappa-partition`.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::codec::{
    encode_frame, frame_len, read_frame, CodecError, Wire, FRAME_MAGIC, PROTOCOL_VERSION,
};
use crate::comm::{CommError, CommErrorKind, CommResult, Message};
use crate::endpoint::{run_ranks, Endpoint, Link, Packet};

/// Control tag announcing a graceful shutdown; intercepted by the reader
/// threads, never delivered to `recv`. User tags must not start with `::`.
const BYE_TAG: &str = "::bye";

/// Tag under which mesh-establishment failures are reported.
const HANDSHAKE_TAG: &str = "::handshake";

/// Configuration of a TCP cluster / worker endpoint.
#[derive(Clone, Copy, Debug)]
pub struct TcpClusterConfig {
    /// How long a `recv` waits before declaring the peer silent (also the
    /// per-write timeout, so a send can never block forever either).
    pub recv_timeout: Duration,
    /// Overall deadline for establishing the mesh (dial retries and inbound
    /// accepts both give up past it).
    pub connect_timeout: Duration,
}

impl Default for TcpClusterConfig {
    fn default() -> Self {
        TcpClusterConfig {
            recv_timeout: Duration::from_secs(60),
            connect_timeout: Duration::from_secs(10),
        }
    }
}

/// An in-process TCP cluster: one thread per rank, real loopback sockets in
/// between. Exists so the conformance suite and the benches can drive the
/// genuine wire path without spawning OS processes; the multi-process path
/// shares every line below the rendezvous.
pub struct TcpCluster {
    ranks: usize,
    config: TcpClusterConfig,
}

impl TcpCluster {
    /// A cluster of `ranks` ranks with default configuration.
    pub fn new(ranks: usize) -> Self {
        TcpCluster::with_config(ranks, TcpClusterConfig::default())
    }

    /// A cluster with explicit timeouts.
    pub fn with_config(ranks: usize, config: TcpClusterConfig) -> Self {
        // kappa-lint: allow(dist-no-panic) -- construction-time misconfiguration on the launching process, before any rank exists; aborting here is the diagnosis
        assert!(ranks >= 1, "a cluster needs at least one rank");
        TcpCluster { ranks, config }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Runs `f` on every rank (one thread per rank, sockets in between) and
    /// returns the per-rank results in rank order. Mesh establishment
    /// failures panic (they are harness bugs, not runtime faults);
    /// communication failures are values, like [`LocalCluster::run`].
    ///
    /// [`LocalCluster::run`]: crate::LocalCluster::run
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut TcpComm) -> R + Sync,
    {
        let listeners: Vec<TcpListener> = (0..self.ranks)
            // kappa-lint: allow(dist-no-panic) -- in-process test-harness setup on the launching thread; a loopback bind failure is an environment bug, not a runtime fault (see the doc comment)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback listener"))
            .collect();
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            // kappa-lint: allow(dist-no-panic) -- same harness-setup path as the bind above
            .map(|l| l.local_addr().expect("listener address"))
            .collect();
        let config = self.config;
        run_ranks(listeners, |rank, listener| {
            let mut comm = TcpComm::establish(rank, &addrs, listener, config)
                // kappa-lint: allow(dist-no-panic) -- harness boundary by contract: establishment failures inside TcpCluster::run are harness bugs and abort the test run (see the doc comment); the multi-process path gets them as CommResult
                .unwrap_or_else(|e| panic!("rank {rank}: mesh establishment: {e}"));
            f(&mut comm)
        })
    }
}

/// What a reader thread (or the loopback) puts on a per-peer queue.
type Arrival = Result<Packet<Vec<u8>>, CodecError>;

/// One peer's outgoing half: a socket, or the in-memory loopback for
/// self-sends (a rank does not dial itself).
enum Peer {
    Loopback(Sender<Arrival>),
    Remote(TcpStream),
}

/// The socket link: one duplex connection per peer, payloads encoded by the
/// [`codec`](crate::codec) and written as [`Frame`](crate::codec::Frame)s.
pub struct SocketLink {
    rank: u32,
    peers: Vec<Peer>,
    readers: Vec<JoinHandle<()>>,
}

/// One rank's endpoint in a TCP mesh.
pub type TcpComm = Endpoint<SocketLink>;

impl TcpComm {
    /// Builds the full mesh for `rank`: dials every higher rank's listener
    /// (bounded retry + exponential backoff), accepts one connection from
    /// every lower rank, handshakes each connection both ways, and spawns the
    /// per-peer reader threads.
    pub fn establish(
        rank: usize,
        addrs: &[SocketAddr],
        listener: TcpListener,
        config: TcpClusterConfig,
    ) -> CommResult<TcpComm> {
        let ranks = addrs.len();
        let err =
            |peer: usize, kind: CommErrorKind| CommError::new(rank, peer, HANDSHAKE_TAG, kind);
        if rank >= ranks {
            return Err(CommError::protocol(
                rank,
                rank,
                HANDSHAKE_TAG,
                format!("rank {rank} out of range for {ranks} ranks"),
            ));
        }
        // kappa-lint: allow(wall-clock) -- mesh-establishment deadline only; the clock bounds how long we dial and accept, never what a result contains
        let deadline = Instant::now() + config.connect_timeout;
        let mut streams: Vec<Option<TcpStream>> = (0..ranks).map(|_| None).collect();
        // Dial upwards: the lower rank of each pair is the connector.
        for peer in rank + 1..ranks {
            let stream = connect_with_retry(addrs[peer], deadline)
                .map_err(|e| err(peer, CommErrorKind::Io(e.to_string())))?;
            send_hello(&stream, rank, ranks)
                .map_err(|e| err(peer, CommErrorKind::Io(e.to_string())))?;
            let claimed = read_hello(&stream, ranks)
                .map_err(|detail| err(peer, CommErrorKind::Handshake(detail)))?;
            if claimed != peer {
                return Err(err(
                    peer,
                    CommErrorKind::Handshake(format!(
                        "dialed rank {peer} but the listener answered as rank {claimed}"
                    )),
                ));
            }
            streams[peer] = Some(stream);
        }
        // Accept downwards: one inbound connection per lower rank, in
        // whatever order they arrive — the handshake says who is who.
        for _ in 0..rank {
            let stream = accept_with_deadline(&listener, deadline)
                .map_err(|e| err(rank, CommErrorKind::Io(e.to_string())))?;
            let peer = read_hello(&stream, ranks)
                .map_err(|detail| err(rank, CommErrorKind::Handshake(detail)))?;
            if peer >= rank {
                return Err(err(
                    peer,
                    CommErrorKind::Handshake(format!(
                        "rank {peer} dialed rank {rank}: only lower ranks connect upwards"
                    )),
                ));
            }
            if streams[peer].is_some() {
                return Err(err(
                    peer,
                    CommErrorKind::Handshake(format!("duplicate connection from rank {peer}")),
                ));
            }
            send_hello(&stream, rank, ranks)
                .map_err(|e| err(peer, CommErrorKind::Io(e.to_string())))?;
            streams[peer] = Some(stream);
        }
        TcpComm::from_mesh(rank, streams, config)
    }

    /// The multi-process entry point: binds this worker's listener, registers
    /// it with the rendezvous server at `rendezvous` (the launching parent
    /// running [`rendezvous_serve`]), learns every peer's listener address,
    /// then builds the mesh exactly like [`TcpComm::establish`].
    pub fn connect_worker(
        rendezvous: &str,
        rank: usize,
        ranks: usize,
        config: TcpClusterConfig,
    ) -> CommResult<TcpComm> {
        let err = |kind: CommErrorKind| CommError::new(rank, 0, "::rendezvous", kind);
        let addr: SocketAddr = rendezvous.parse().map_err(|e| {
            err(CommErrorKind::Handshake(format!(
                "bad rendezvous address: {e}"
            )))
        })?;
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| err(CommErrorKind::Io(e.to_string())))?;
        let port = listener
            .local_addr()
            .map_err(|e| err(CommErrorKind::Io(e.to_string())))?
            .port();
        // kappa-lint: allow(wall-clock) -- rendezvous-connect deadline only, same as in establish
        let deadline = Instant::now() + config.connect_timeout;
        let stream = connect_with_retry(addr, deadline)
            .map_err(|e| err(CommErrorKind::Io(e.to_string())))?;
        // Registration: the hello preamble plus this worker's listener port.
        let mut msg = hello_bytes(rank, ranks);
        port.encode(&mut msg);
        write_all(&stream, &msg).map_err(|e| err(CommErrorKind::Io(e.to_string())))?;
        // Reply: preamble (sanity) + the full port map.
        read_preamble(&stream, ranks).map_err(|d| err(CommErrorKind::Handshake(d)))?;
        let mut len_buf = [0u8; 8];
        read_exact(&stream, &mut len_buf).map_err(|e| err(CommErrorKind::Io(e.to_string())))?;
        let count = u64::from_le_bytes(len_buf) as usize;
        if count != ranks {
            return Err(err(CommErrorKind::Handshake(format!(
                "rendezvous published {count} peers for a {ranks}-rank cluster"
            ))));
        }
        let mut ports = vec![0u8; 2 * ranks];
        read_exact(&stream, &mut ports).map_err(|e| err(CommErrorKind::Io(e.to_string())))?;
        drop(stream);
        let addrs: Vec<SocketAddr> = ports
            .chunks_exact(2)
            .map(|c| {
                let p = u16::from_le_bytes([c[0], c[1]]);
                SocketAddr::from(([127, 0, 0, 1], p))
            })
            .collect();
        TcpComm::establish(rank, &addrs, listener, config)
    }

    /// Wraps an established mesh: socket options, loopback link, reader
    /// threads.
    fn from_mesh(
        rank: usize,
        streams: Vec<Option<TcpStream>>,
        config: TcpClusterConfig,
    ) -> CommResult<TcpComm> {
        let io_err = |peer: usize, e: std::io::Error| {
            CommError::new(rank, peer, HANDSHAKE_TAG, CommErrorKind::Io(e.to_string()))
        };
        let mut link = SocketLink {
            rank: rank as u32,
            peers: Vec::with_capacity(streams.len()),
            readers: Vec::new(),
        };
        let mut rxs = Vec::with_capacity(streams.len());
        for (peer, slot) in streams.into_iter().enumerate() {
            let (tx, rx) = channel();
            rxs.push(rx);
            match slot {
                None if peer == rank => link.peers.push(Peer::Loopback(tx)),
                None => {
                    return Err(CommError::protocol(
                        rank,
                        peer,
                        HANDSHAKE_TAG,
                        format!("mesh is missing the connection to rank {peer}"),
                    ));
                }
                Some(stream) => {
                    stream.set_nodelay(true).map_err(|e| io_err(peer, e))?;
                    stream
                        .set_write_timeout(Some(config.recv_timeout))
                        .map_err(|e| io_err(peer, e))?;
                    let reader = stream.try_clone().map_err(|e| io_err(peer, e))?;
                    link.readers
                        .push(std::thread::spawn(move || reader_loop(reader, peer, tx)));
                    link.peers.push(Peer::Remote(stream));
                }
            }
        }
        Ok(Endpoint::new(rank, link, rxs, config.recv_timeout))
    }
}

impl Link for SocketLink {
    type Payload = Vec<u8>;
    type Arrival = Arrival;

    fn pack<T: Message>(value: T) -> Vec<u8> {
        value.to_bytes()
    }

    fn unpack<T: Message>(payload: Vec<u8>) -> Result<T, CommErrorKind> {
        T::from_bytes(&payload).map_err(codec_kind)
    }

    fn wire_bytes(tag: &str, payload: &Vec<u8>) -> u64 {
        frame_len(tag.len(), payload.len()) as u64
    }

    fn put(&self, to: usize, packet: Packet<Vec<u8>>) -> Result<(), CommErrorKind> {
        match &self.peers[to] {
            Peer::Loopback(tx) => {
                // The endpoint owns the other end: it cannot be gone.
                let _ = tx.send(Ok(packet));
                Ok(())
            }
            Peer::Remote(stream) => {
                let bytes =
                    encode_frame(self.rank, &packet.tag, &packet.payload).map_err(codec_kind)?;
                write_all(stream, &bytes).map_err(|e| CommErrorKind::Io(e.to_string()))
            }
        }
    }

    fn open(arrival: Arrival) -> Result<Packet<Vec<u8>>, CommErrorKind> {
        arrival.map_err(codec_kind)
    }
}

fn codec_kind(e: CodecError) -> CommErrorKind {
    CommErrorKind::Codec(e.0)
}

impl Drop for SocketLink {
    /// Graceful drain: announce `::bye` on every connection so peers see a
    /// clean shutdown (not a mid-frame cut), close both halves, and join the
    /// reader threads (which exit promptly on bye, EOF or the local
    /// shutdown).
    fn drop(&mut self) {
        for peer in &self.peers {
            if let Peer::Remote(stream) = peer {
                // Infallible in practice (short tag, empty payload); a drop
                // path has nowhere to report anyway, so best-effort it is.
                if let Ok(bye) = encode_frame(self.rank, BYE_TAG, &[]) {
                    let _ = write_all(stream, &bye);
                }
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        for handle in self.readers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Drains the socket of `peer` into its queue until bye, EOF, or error. A
/// decode failure, or a frame that names another sender than the
/// handshake did, is forwarded as a diagnosed value (the receive path turns
/// it into [`CommErrorKind::Codec`]) and ends the stream — after corruption
/// the frame boundary is unknown, and a peer that lies about its rank is not
/// read further.
fn reader_loop(mut stream: TcpStream, peer: usize, tx: Sender<Arrival>) {
    loop {
        match read_frame(&mut stream) {
            Ok(Some(frame)) if frame.src as usize != peer => {
                let _ = tx.send(Err(CodecError(format!(
                    "frame {:?} claims to come from rank {}, but the connection's \
                     handshake named rank {peer}",
                    frame.tag, frame.src
                ))));
                return;
            }
            Ok(Some(frame)) => {
                if frame.tag == BYE_TAG {
                    return;
                }
                let packet = Packet {
                    tag: frame.tag.into(),
                    payload: frame.payload,
                };
                if tx.send(Ok(packet)).is_err() {
                    return; // local endpoint dropped
                }
            }
            Ok(None) => return, // clean EOF at a frame boundary
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        }
    }
}

/// Dials `addr` until `deadline`, with exponential backoff between attempts —
/// the peer's listener may not be up yet during worker start-up.
fn connect_with_retry(addr: SocketAddr, deadline: Instant) -> std::io::Result<TcpStream> {
    let mut backoff = Duration::from_millis(1);
    loop {
        // kappa-lint: allow(wall-clock) -- dial-retry deadline arithmetic; establishment timing only
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("connect to {addr} timed out"),
            ));
        }
        match TcpStream::connect_timeout(&addr, remaining) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                // kappa-lint: allow(wall-clock) -- backoff-versus-deadline check; establishment timing only
                if deadline.saturating_duration_since(Instant::now()) <= backoff {
                    return Err(e);
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(250));
            }
        }
    }
}

/// Accepts one connection, giving up at `deadline` (a missing peer must not
/// hang establishment forever).
fn accept_with_deadline(listener: &TcpListener, deadline: Instant) -> std::io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // kappa-lint: allow(wall-clock) -- accept-deadline check; establishment timing only
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "timed out waiting for peer connections",
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// The handshake preamble: `magic | version | cluster size | rank`.
fn hello_bytes(rank: usize, ranks: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(14);
    FRAME_MAGIC.encode(&mut buf);
    PROTOCOL_VERSION.encode(&mut buf);
    (ranks as u32).encode(&mut buf);
    (rank as u32).encode(&mut buf);
    buf
}

fn send_hello(stream: &TcpStream, rank: usize, ranks: usize) -> std::io::Result<()> {
    write_all(stream, &hello_bytes(rank, ranks))
}

/// Reads and validates `magic | version | cluster size` from a preamble.
fn read_preamble(stream: &TcpStream, expected_ranks: usize) -> Result<(), String> {
    let mut buf = [0u8; 10];
    read_exact(stream, &mut buf).map_err(|e| format!("preamble read: {e}"))?;
    let magic = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if magic != FRAME_MAGIC {
        return Err(format!(
            "bad handshake magic {magic:#010x} — not a kappa-dist peer"
        ));
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "protocol version mismatch: peer speaks v{version}, this build speaks v{PROTOCOL_VERSION}"
        ));
    }
    let ranks = u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]) as usize;
    if ranks != expected_ranks {
        return Err(format!(
            "cluster size mismatch: peer expects {ranks} ranks, this side {expected_ranks}"
        ));
    }
    Ok(())
}

/// Reads a full hello and returns the peer's claimed rank.
fn read_hello(stream: &TcpStream, expected_ranks: usize) -> Result<usize, String> {
    read_preamble(stream, expected_ranks)?;
    let mut buf = [0u8; 4];
    read_exact(stream, &mut buf).map_err(|e| format!("preamble read: {e}"))?;
    let rank = u32::from_le_bytes(buf) as usize;
    if rank >= expected_ranks {
        return Err(format!("claimed rank {rank} out of range"));
    }
    Ok(rank)
}

fn write_all(stream: &TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    let mut w = stream;
    w.write_all(bytes)
}

fn read_exact(stream: &TcpStream, buf: &mut [u8]) -> std::io::Result<()> {
    let mut r = stream;
    r.read_exact(buf)
}

/// The parent side of the worker rendezvous: accepts one registration per
/// rank (`hello | listener port`), and once all `ranks` workers are in,
/// publishes the full port map to each. Returns after every reply is written.
pub fn rendezvous_serve(listener: &TcpListener, ranks: usize) -> std::io::Result<()> {
    let bad = |detail: String| std::io::Error::new(std::io::ErrorKind::InvalidData, detail);
    let mut registered: Vec<Option<(TcpStream, u16)>> = (0..ranks).map(|_| None).collect();
    for _ in 0..ranks {
        let (stream, _) = listener.accept()?;
        let rank = read_hello(&stream, ranks).map_err(bad)?;
        let mut port_buf = [0u8; 2];
        read_exact(&stream, &mut port_buf)?;
        let port = u16::from_le_bytes(port_buf);
        if registered[rank].is_some() {
            return Err(bad(format!("rank {rank} registered twice")));
        }
        registered[rank] = Some((stream, port));
    }
    let ports: Vec<u16> = registered
        .iter()
        // kappa-lint: allow(dist-no-panic) -- the registration loop above either fills every slot or returns an error first
        .map(|slot| slot.as_ref().expect("all ranks registered").1)
        .collect();
    let mut reply = Vec::with_capacity(10 + 8 + 2 * ranks);
    FRAME_MAGIC.encode(&mut reply);
    PROTOCOL_VERSION.encode(&mut reply);
    (ranks as u32).encode(&mut reply);
    (ports.len() as u64).encode(&mut reply);
    for port in &ports {
        reply.extend_from_slice(&port.to_le_bytes());
    }
    for slot in registered {
        // kappa-lint: allow(dist-no-panic) -- same registration invariant as above
        let (stream, _) = slot.expect("all ranks registered");
        write_all(&stream, &reply)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use std::thread::JoinHandle;

    fn cluster(ranks: usize) -> TcpCluster {
        TcpCluster::with_config(
            ranks,
            TcpClusterConfig {
                recv_timeout: Duration::from_secs(10),
                connect_timeout: Duration::from_secs(10),
            },
        )
    }

    /// A fake rank 0 of a two-rank cluster facing the real rank 1: it dials
    /// rank 1's listener and does the hello handshake by hand, then writes
    /// `bytes`. With `hold` it keeps the connection open until rank 1 says
    /// goodbye; without, it closes right after writing.
    fn fake_rank_0(
        bytes: Vec<u8>,
        hold: bool,
        recv_timeout: Duration,
    ) -> (TcpComm, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(5);
            let stream = connect_with_retry(addr, deadline).unwrap();
            send_hello(&stream, 0, 2).unwrap();
            assert_eq!(read_hello(&stream, 2).unwrap(), 1);
            write_all(&stream, &bytes).unwrap();
            if hold {
                let _ = (&stream).read_to_end(&mut Vec::new());
            }
        });
        let comm = TcpComm::establish(
            1,
            &[SocketAddr::from(([127, 0, 0, 1], 1)), addr],
            listener,
            TcpClusterConfig {
                recv_timeout,
                connect_timeout: Duration::from_secs(5),
            },
        )
        .unwrap();
        (comm, fake)
    }

    #[test]
    fn single_rank_needs_no_sockets() {
        let results = cluster(1).run(|comm| {
            comm.barrier().unwrap();
            comm.allgather(5u32).unwrap()
        });
        assert_eq!(results, vec![vec![5]]);
    }

    #[test]
    fn dropped_frame_surfaces_as_diagnosed_timeout() {
        // Rank 0 sends one frame and stops before its second.
        let cluster = TcpCluster::with_config(
            2,
            TcpClusterConfig {
                recv_timeout: Duration::from_millis(300),
                connect_timeout: Duration::from_secs(10),
            },
        );
        let started = Instant::now();
        let results = cluster.run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, "payload", 7u64).map(|_| 0)
            } else {
                comm.recv::<u64>(0, "payload")?;
                comm.recv::<u64>(0, "payload")
            }
        });
        let err = results[1].clone().unwrap_err();
        assert_eq!((err.rank, err.peer, err.tag.as_str()), (1, 0, "payload"));
        // Rank 0 says goodbye and closes after its send, so the diagnosis is
        // usually Disconnected, a Timeout if the receive comes first; both
        // name the missing message.
        assert!(matches!(
            err.kind,
            CommErrorKind::Timeout { .. } | CommErrorKind::Disconnected
        ));
        assert!(started.elapsed() < Duration::from_secs(5), "must not hang");
    }

    #[test]
    fn a_frame_that_claims_another_sender_is_refused() {
        // The connection's handshake says rank 0; the frame says rank 1.
        let frame = encode_frame(1, "payload", &7u64.to_bytes()).unwrap();
        let (mut comm, fake) = fake_rank_0(frame, true, Duration::from_secs(10));
        let err = comm.recv::<u64>(0, "payload").unwrap_err();
        assert_eq!((err.rank, err.peer, err.tag.as_str()), (1, 0, "payload"));
        let CommErrorKind::Codec(detail) = &err.kind else {
            panic!("expected a codec diagnosis, got {err}");
        };
        assert!(
            detail.contains("rank 1") && detail.contains("named rank 0"),
            "{detail}"
        );
        drop(comm);
        fake.join().unwrap();
    }

    #[test]
    fn a_peer_that_dies_inside_a_frame_is_diagnosed_promptly() {
        let frame = encode_frame(0, "payload", &7u64.to_bytes()).unwrap();
        let half = frame[..frame.len() / 2].to_vec();
        let recv_timeout = Duration::from_secs(30);
        let (mut comm, fake) = fake_rank_0(half, false, recv_timeout);
        let started = Instant::now();
        let err = comm.recv::<u64>(0, "payload").unwrap_err();
        assert_eq!((err.rank, err.peer, err.tag.as_str()), (1, 0, "payload"));
        assert!(
            matches!(&err.kind, CommErrorKind::Codec(d) if d.contains("EOF mid frame")),
            "{err}"
        );
        assert!(
            started.elapsed() < recv_timeout / 6,
            "a cut frame must not wait out the deadline"
        );
        fake.join().unwrap();
    }

    #[test]
    fn wire_bytes_is_the_encoded_frame_length() {
        let cases = [
            ("", Vec::new()),
            (BYE_TAG, Vec::new()),
            ("band-recs", vec![7u8; 300]),
            ("class-reports", (0..=255u8).collect()),
        ];
        for (tag, payload) in cases {
            let encoded = encode_frame(3, tag, &payload).unwrap();
            assert_eq!(
                SocketLink::wire_bytes(tag, &payload),
                encoded.len() as u64,
                "tag {tag:?}, {} payload bytes",
                payload.len()
            );
        }
    }

    #[test]
    fn version_mismatch_is_rejected_before_any_frame() {
        // A fake peer speaking a future protocol version must be turned away
        // with a Handshake error, not a garbled decode later.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut bad = Vec::new();
            FRAME_MAGIC.encode(&mut bad);
            (PROTOCOL_VERSION + 1).encode(&mut bad);
            2u32.encode(&mut bad);
            0u32.encode(&mut bad);
            write_all(&stream, &bad).unwrap();
            // Hold the connection open until the other side decides.
            let mut buf = [0u8; 1];
            let _ = read_exact(&stream, &mut buf);
        });
        let err = TcpComm::establish(
            1,
            &[SocketAddr::from(([127, 0, 0, 1], 1)), addr],
            {
                // Rank 1 accepts from rank 0 on its own listener; reuse the
                // one the fake peer dialed.
                listener
            },
            TcpClusterConfig {
                connect_timeout: Duration::from_secs(5),
                ..TcpClusterConfig::default()
            },
        )
        .err()
        .expect("establishment must fail");
        assert!(
            matches!(err.kind, CommErrorKind::Handshake(_)),
            "got {:?}",
            err.kind
        );
        fake.join().unwrap();
    }

    #[test]
    fn rendezvous_builds_a_working_mesh() {
        // Parent thread serves the rendezvous; two worker threads build the
        // mesh through it — the in-process twin of the multi-process path.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || rendezvous_serve(&listener, 2).unwrap());
        let workers: Vec<_> = (0..2)
            .map(|rank| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut comm =
                        TcpComm::connect_worker(&addr, rank, 2, TcpClusterConfig::default())
                            .unwrap();
                    comm.allreduce_sum(comm.rank() as u64 + 1).unwrap()
                })
            })
            .collect();
        server.join().unwrap();
        for w in workers {
            assert_eq!(w.join().unwrap(), 3);
        }
    }
}
