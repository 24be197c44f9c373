//! LEB128 variable-length integers — the atom of the compact edge encoding.
//!
//! Little-endian base-128: each byte carries 7 payload bits, the high bit
//! says "more follows". Values below 128 (most delta-encoded neighbour gaps
//! and most edge weights) take a single byte, which is where the memory-tier
//! savings come from.

/// Maximum encoded length of a `u64` (⌈64 / 7⌉ bytes).
pub const MAX_VARINT_LEN: usize = 10;

/// Appends the LEB128 encoding of `value` to `buf`.
#[inline]
pub fn encode_u64(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decodes one LEB128 integer starting at `buf[pos]`; advances `pos` past it.
///
/// # Panics
/// Panics (via slice indexing) on a truncated buffer. The storage tiers only
/// decode segments they encoded themselves, so truncation is a logic error,
/// not an input error.
#[inline]
pub fn decode_u64(buf: &[u8], pos: &mut usize) -> u64 {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = buf[*pos];
        *pos += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return value;
        }
        shift += 7;
        debug_assert!(shift < 64 + 7, "varint longer than 10 bytes");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_edge_cases() {
        let samples = [
            0u64,
            1,
            127,
            128,
            129,
            0x3fff,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &samples {
            encode_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &samples {
            let start = pos;
            assert_eq!(decode_u64(&buf, &mut pos), v);
            // Seven payload bits per byte, at least one byte.
            let bits = (64 - v.leading_zeros() as usize).max(1);
            assert_eq!(pos - start, bits.div_ceil(7), "length of {v}");
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn single_byte_below_128() {
        let len = |v| {
            let mut buf = Vec::new();
            encode_u64(&mut buf, v);
            buf.len()
        };
        for v in 0..128u64 {
            assert_eq!(len(v), 1);
        }
        assert_eq!(len(128), 2);
        assert_eq!(len(u64::MAX), MAX_VARINT_LEN);
    }

    #[test]
    fn dense_round_trip() {
        let mut buf = Vec::new();
        for v in 0..100_000u64 {
            encode_u64(&mut buf, v * v);
        }
        let mut pos = 0;
        for v in 0..100_000u64 {
            assert_eq!(decode_u64(&buf, &mut pos), v * v);
        }
    }
}
