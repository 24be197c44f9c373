//! The wire codec: how typed messages become bytes and back.
//!
//! Two layers:
//!
//! * [`Wire`] — per-type binary encoding (little-endian fixed-width scalars,
//!   length-prefixed sequences). Every payload a [`Comm`](crate::Comm) backend
//!   carries implements it; the in-process [`LocalCluster`](crate::LocalCluster)
//!   never actually serialises (it moves the value through a channel), but the
//!   shared bound guarantees that any program running over threads also runs
//!   over sockets.
//! * **Frames** — the typed envelope the TCP transport writes to a stream:
//!   magic, source rank, tag length, payload length, tag, payload, and an
//!   FNV-1a checksum over everything behind the magic. A corrupted or
//!   truncated frame decodes to a [`CodecError`], never to a wrong message
//!   and never to a panic ([`read_frame`] / [`decode_frame`]). A frame
//!   carries no sequence number: a TCP stream delivers bytes once and in
//!   order, so the frames of one connection arrive as they were written.
//!
//! The connection handshake (magic + [`PROTOCOL_VERSION`] + rank + cluster
//! size) lives in [`crate::tcp`]; version bumps go through the constant here
//! so both sides reject a mismatch before any frame is exchanged.

use std::fmt;

/// Version of the wire protocol (frames + handshake). Bump on any change to
/// the frame layout or the [`Wire`] encodings of the pipeline's message types.
/// Version 2 added coalesced pack frames (`::coal`); version 3 ships band
/// shards as flat arrays (`band-recs` carries `kappa_refine::BandShard`);
/// version 4 drops the never-read `done` flag from `class-reports`;
/// version 5 drops the `::coal` frame and ships a class's seeds with its band
/// shards (`band-recs` carries `(seeds, shards)`); version 6 drops the
/// per-stream sequence number from the frame header.
pub const PROTOCOL_VERSION: u16 = 6;

/// Frame magic, little-endian `b"KPF1"` on the wire.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"KPF1");

/// Sanity cap on the tag length of a frame (tags are short static strings).
const MAX_TAG_LEN: usize = 256;

/// Sanity cap on a single frame's payload (1 GiB) — a corrupted length field
/// must not turn into an absurd allocation.
const MAX_PAYLOAD_LEN: usize = 1 << 30;

/// A decode failure: truncated input, corrupted frame, or a payload that does
/// not parse as the expected type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Byte-slice reader used by [`Wire::decode`]. Reads never panic; running out
/// of input is a [`CodecError`].
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError(format!(
                "truncated input: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    #[expect(clippy::expect_used, reason = "take(N) returned N bytes")]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("sized take"))
    }
}

/// Binary encoding of one message type. Encoding is infallible; decoding
/// reports truncation / corruption as [`CodecError`].
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes one value, consuming exactly the bytes [`encode`](Self::encode)
    /// produced.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError>;

    /// Encodes `self` into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Decodes a value from `buf`, requiring every byte to be consumed (a
    /// wrong-type payload that happens to parse but leaves trailing bytes is
    /// rejected).
    fn from_bytes(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = WireReader::new(buf);
        let value = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(CodecError(format!(
                "{} trailing bytes after decoding — payload/type mismatch",
                r.remaining()
            )));
        }
        Ok(value)
    }
}

macro_rules! impl_wire_scalar {
    ($($ty:ty),+) => {$(
        impl Wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
                Ok(<$ty>::from_le_bytes(r.array()?))
            }
        }
    )+};
}

impl_wire_scalar!(u8, u16, u32, u64, i64);

impl Wire for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| CodecError(format!("usize overflow: {v}")))
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError(format!("invalid bool byte {other:#04x}"))),
        }
    }
}

impl Wire for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.to_bits().encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Wire for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(())
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let len = usize::decode(r)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| CodecError(format!("invalid utf-8: {e}")))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(CodecError(format!("invalid Option discriminant {other}"))),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let len = usize::decode(r)?;
        // A corrupted length must not drive a huge allocation: each element
        // costs at least one byte, so `remaining` bounds any honest length.
        if len > r.remaining() {
            return Err(CodecError(format!(
                "sequence length {len} exceeds {} remaining bytes",
                r.remaining()
            )));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

macro_rules! impl_wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, buf: &mut Vec<u8>) {
                $( self.$idx.encode(buf); )+
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
                Ok(($( $name::decode(r)?, )+))
            }
        }
    };
}

impl_wire_tuple!(A: 0);
impl_wire_tuple!(A: 0, B: 1);
impl_wire_tuple!(A: 0, B: 1, C: 2);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Implements [`Wire`] for a struct with named fields by encoding the fields
/// in declaration order. Usable for private structs inside their own module.
#[macro_export]
macro_rules! impl_wire_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                $( $crate::codec::Wire::encode(&self.$field, buf); )+
            }
            fn decode(
                r: &mut $crate::codec::WireReader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(Self { $( $field: $crate::codec::Wire::decode(r)? ),+ })
            }
        }
    };
}

// Wire encodings for the shared-crate types the distributed pipeline sends.
// (`Wire` is local to kappa-dist, so coherence allows these impls here.)

impl_wire_struct!(kappa_refine::BandShard {
    gids,
    weights,
    blocks,
    xadj,
    to,
    edge_weight,
    to_block,
    to_weight
});

impl_wire_struct!(kappa_initial::QualityKey {
    infeasible,
    cut,
    balance
});

impl Wire for kappa_graph::Partition {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.k().encode(buf);
        self.assignment().to_vec().encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let k = u32::decode(r)?;
        let assignment: Vec<u32> = Vec::decode(r)?;
        // `from_assignment` asserts its blocks; decoding must not panic.
        let unassigned = kappa_graph::INVALID_BLOCK;
        if let Some(b) = assignment.iter().find(|&&b| b >= k && b != unassigned) {
            return Err(CodecError(format!("partition block {b} is not one of {k}")));
        }
        Ok(kappa_graph::Partition::from_assignment(k, assignment))
    }
}

/// One decoded transport frame: the typed envelope of a single message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Sending rank.
    pub src: u32,
    /// Message tag.
    pub tag: String,
    /// Encoded payload (decoded lazily, after tag matching).
    pub payload: Vec<u8>,
}

/// FNV-1a over `bytes` — cheap, dependency-free corruption detection. Not
/// cryptographic; it guards against truncation and bit rot, not adversaries.
fn checksum(parts: &[&[u8]]) -> u32 {
    let mut hash: u32 = 0x811c9dc5;
    for part in parts {
        for &b in *part {
            hash ^= b as u32;
            hash = hash.wrapping_mul(0x01000193);
        }
    }
    hash
}

/// Encodes a frame: `magic | src | tag_len | payload_len | tag | payload |
/// checksum`, checksum covering everything behind the magic.
///
/// An over-long tag or an oversized payload is a [`CodecError`] — payload
/// size is runtime data (a big enough graph can legitimately exceed the
/// cap), so the sender gets a diagnosis instead of a dead rank.
pub fn encode_frame(src: u32, tag: &str, payload: &[u8]) -> Result<Vec<u8>, CodecError> {
    if tag.len() > MAX_TAG_LEN {
        return Err(CodecError(format!(
            "tag {tag:?} is {} bytes, cap is {MAX_TAG_LEN}",
            tag.len()
        )));
    }
    if payload.len() > MAX_PAYLOAD_LEN {
        return Err(CodecError(format!(
            "payload is {} bytes, cap is {MAX_PAYLOAD_LEN}",
            payload.len()
        )));
    }
    let mut head = Vec::with_capacity(HEADER_LEN + tag.len());
    src.encode(&mut head);
    (tag.len() as u16).encode(&mut head);
    (payload.len() as u32).encode(&mut head);
    head.extend_from_slice(tag.as_bytes());
    let sum = checksum(&[&head, payload]);
    let mut out = Vec::with_capacity(frame_len(tag.len(), payload.len()));
    FRAME_MAGIC.encode(&mut out);
    out.extend_from_slice(&head);
    out.extend_from_slice(payload);
    sum.encode(&mut out);
    Ok(out)
}

/// Bytes of the fixed frame header: magic(4) src(4) tag_len(2)
/// payload_len(4).
const HEADER_LEN: usize = 14;

/// Bytes of a whole frame with a `tag_len`-byte tag and a `payload_len`-byte
/// payload: header, tag, payload and the 4-byte checksum.
pub(crate) fn frame_len(tag_len: usize, payload_len: usize) -> usize {
    HEADER_LEN + tag_len + payload_len + 4
}

/// The fields of a frame header, lengths already checked against the caps.
struct FrameHeader {
    src: u32,
    tag_len: usize,
    payload_len: usize,
}

/// Parses the fixed header off the front of `r` — the one header parser
/// behind [`decode_frame`] and [`read_frame`].
fn parse_header(r: &mut WireReader<'_>) -> Result<FrameHeader, CodecError> {
    let magic = u32::decode(r).map_err(|_| CodecError("truncated frame header".into()))?;
    if magic != FRAME_MAGIC {
        return Err(CodecError(format!(
            "bad frame magic {magic:#010x} (expected {FRAME_MAGIC:#010x})"
        )));
    }
    let src = u32::decode(r)?;
    let tag_len = u16::decode(r)? as usize;
    let payload_len = u32::decode(r)? as usize;
    if tag_len > MAX_TAG_LEN {
        return Err(CodecError(format!("tag length {tag_len} exceeds cap")));
    }
    if payload_len > MAX_PAYLOAD_LEN {
        return Err(CodecError(format!(
            "payload length {payload_len} exceeds cap"
        )));
    }
    Ok(FrameHeader {
        src,
        tag_len,
        payload_len,
    })
}

/// Parses `tag | payload | checksum` off the front of `body` and verifies
/// the checksum in place, over the header bytes `head` (behind the magic)
/// and the body bytes as they lie.
fn parse_body(h: FrameHeader, head: &[u8], body: &[u8]) -> Result<Frame, CodecError> {
    let mut r = WireReader::new(body);
    let tag = std::str::from_utf8(r.take(h.tag_len)?)
        .map_err(|e| CodecError(format!("invalid utf-8 tag: {e}")))?
        .to_string();
    let payload = r.take(h.payload_len)?.to_vec();
    let claimed = u32::decode(&mut r)?;
    let sum = checksum(&[&head[4..], &body[..h.tag_len + h.payload_len]]);
    let src = h.src;
    if claimed != sum {
        return Err(CodecError(format!(
            "frame checksum mismatch: stored {claimed:#010x}, computed {sum:#010x} \
             (src {src}, tag {tag:?})"
        )));
    }
    Ok(Frame { src, tag, payload })
}

/// Decodes one frame from the front of `buf`, returning it and the number of
/// bytes consumed. Truncated or corrupted input is a [`CodecError`].
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), CodecError> {
    let header = parse_header(&mut WireReader::new(buf))?;
    let consumed = frame_len(header.tag_len, header.payload_len);
    let frame = parse_body(header, &buf[..HEADER_LEN], &buf[HEADER_LEN..])?;
    Ok((frame, consumed))
}

/// Reads one frame from a stream. `Ok(None)` means clean EOF at a frame
/// boundary (graceful shutdown); EOF mid-frame is a [`CodecError`].
pub fn read_frame<R: std::io::Read>(reader: &mut R) -> Result<Option<Frame>, CodecError> {
    let mut fixed = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < fixed.len() {
        match reader.read(&mut fixed[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(CodecError("EOF mid frame header".into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(CodecError(format!("read error: {e}"))),
        }
    }
    let header = parse_header(&mut WireReader::new(&fixed))?;
    let mut body = vec![0u8; header.tag_len + header.payload_len + 4];
    std::io::Read::read_exact(reader, &mut body)
        .map_err(|e| CodecError(format!("EOF mid frame body: {e}")))?;
    parse_body(header, &fixed, &body).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), value);
    }

    #[test]
    fn scalars_and_containers_round_trip() {
        round_trip(0u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEADBEEFu32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(std::f64::consts::PI);
        round_trip(());
        round_trip("héllo wörld".to_string());
        round_trip(Option::<u64>::None);
        round_trip(Some((3u32, 4.5f64)));
        round_trip(vec![vec![1u32, 2], vec![], vec![3]]);
        round_trip((1u8, 2.5f64, "k".to_string(), vec![7u64]));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = 7u32.to_bytes();
        bytes.push(0);
        assert!(u32::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_values_are_rejected() {
        let bytes = (vec![1u64, 2, 3]).to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Vec::<u64>::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn corrupt_sequence_length_does_not_allocate() {
        // Claimed length of 2^40 elements with a 4-byte body.
        let mut bytes = Vec::new();
        (1u64 << 40).encode(&mut bytes);
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(Vec::<u8>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn a_partition_with_a_block_past_k_is_a_codec_error() {
        let mut bytes = Vec::new();
        2u32.encode(&mut bytes);
        vec![0u32, 1, 5].encode(&mut bytes);
        let err = kappa_graph::Partition::from_bytes(&bytes).unwrap_err();
        assert!(err.0.contains("block 5 is not one of 2"), "{err}");
    }

    #[test]
    fn frames_round_trip() {
        let payload = vec![1u8, 2, 3, 250];
        let bytes = encode_frame(3, "alltoallv", &payload).unwrap();
        let (frame, consumed) = decode_frame(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(frame.src, 3);
        assert_eq!(frame.tag, "alltoallv");
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn every_truncation_of_a_frame_is_rejected() {
        let bytes = encode_frame(1, "tag", b"payload").unwrap();
        for cut in 0..bytes.len() {
            assert!(decode_frame(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = encode_frame(2, "band", &(0..64u8).collect::<Vec<_>>()).unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            match decode_frame(&bad) {
                Err(_) => {}
                Ok((frame, _)) => panic!("flip at byte {i} decoded as {frame:?}"),
            }
        }
    }

    #[test]
    fn read_frame_handles_streams_and_clean_eof() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(0, "a", b"first").unwrap());
        stream.extend_from_slice(&encode_frame(0, "b", b"second").unwrap());
        let mut r: &[u8] = &stream;
        assert_eq!(read_frame(&mut r).unwrap().unwrap().payload, b"first");
        assert_eq!(read_frame(&mut r).unwrap().unwrap().payload, b"second");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        // EOF mid-frame, in the header or in the body, is an error, not a
        // silent None.
        for end in [HEADER_LEN / 2, HEADER_LEN + 2] {
            let mut cut: &[u8] = &stream[..end];
            assert!(read_frame(&mut cut).is_err(), "cut at {end} read");
        }
    }
}
