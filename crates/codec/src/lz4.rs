//! The LZ4 block format.
//!
//! This is the codec the paper recommends for bzImage payloads: its
//! byte-oriented sequences decompress far faster than entropy-coded formats,
//! which is what makes `copy + hash + decompress(LZ4)` beat
//! `copy + hash` of the uncompressed kernel in Fig. 5.
//!
//! The block format is implemented as specified upstream:
//! each *sequence* is
//!
//! ```text
//! token(1B: literal_len<<4 | (match_len-4)) | [literal_len ext 255…] |
//! literals | offset(2B LE) | [match_len ext 255…]
//! ```
//!
//! with the spec's end conditions (final sequence is literal-only; matches
//! stop ≥ 12 bytes before the end; the last 5 bytes are literals). A small
//! container header (`"SVL4"` + original length) makes the stream
//! self-describing.

use crate::window::Window;
use crate::{Codec, CodecError};

pub(crate) const MAGIC: &[u8; 4] = b"SVL4";
const MIN_MATCH: usize = 4;
/// Spec: matches must not start within the last 12 bytes of input.
const MF_LIMIT: usize = 12;
/// Spec: the last 5 bytes must be literals.
const LAST_LITERALS: usize = 5;
const MAX_DISTANCE: usize = 65_535;

fn hash4(data: &[u8], pos: usize) -> usize {
    let v = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
    (v.wrapping_mul(2654435761) >> 17) as usize & 0x7fff
}

/// Compresses `data` into an LZ4 block with the "SVL4" container header.
///
/// # Example
///
/// ```
/// let data = vec![7u8; 1000];
/// let packed = sevf_codec::lz4::compress(&data);
/// assert!(packed.len() < 64);
/// assert_eq!(sevf_codec::lz4::decompress(&packed)?, data);
/// # Ok::<(), sevf_codec::CodecError>(())
/// ```
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    compress_block(data, &mut out);
    out
}

fn write_varlen(out: &mut Vec<u8>, mut value: usize) {
    while value >= 255 {
        out.push(255);
        value -= 255;
    }
    out.push(value as u8);
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], match_len: usize, offset: usize) {
    let lit_nibble = literals.len().min(15) as u8;
    let match_nibble = if match_len > 0 {
        (match_len - MIN_MATCH).min(15) as u8
    } else {
        0
    };
    out.push((lit_nibble << 4) | match_nibble);
    if literals.len() >= 15 {
        write_varlen(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if match_len > 0 {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if match_len - MIN_MATCH >= 15 {
            write_varlen(out, match_len - MIN_MATCH - 15);
        }
    }
}

fn compress_block(data: &[u8], out: &mut Vec<u8>) {
    if data.len() < MF_LIMIT + 1 {
        emit_sequence(out, data, 0, 0);
        return;
    }
    let mut table = vec![usize::MAX; 1 << 15];
    let match_limit = data.len() - MF_LIMIT;
    let literal_limit = data.len() - LAST_LITERALS;
    let mut anchor = 0usize;
    let mut pos = 0usize;
    while pos < match_limit {
        let h = hash4(data, pos);
        let candidate = table[h];
        table[h] = pos;
        let found = candidate != usize::MAX
            && pos - candidate <= MAX_DISTANCE
            && data[candidate..candidate + 4] == data[pos..pos + 4];
        if !found {
            pos += 1;
            continue;
        }
        // Extend the match forward, but never into the last-literals zone.
        let mut len = 4usize;
        let max_len = literal_limit - pos;
        while len < max_len && data[candidate + len] == data[pos + len] {
            len += 1;
        }
        emit_sequence(out, &data[anchor..pos], len, pos - candidate);
        // Index a couple of positions inside the match to help later finds.
        let step = (len / 4).max(1);
        let mut p = pos + 1;
        while p + 4 <= data.len() && p < pos + len {
            table[hash4(data, p)] = p;
            p += step;
        }
        pos += len;
        anchor = pos;
    }
    // Final literal-only sequence.
    emit_sequence(out, &data[anchor..], 0, 0);
}

/// Decompresses an "SVL4" container produced by [`compress`]: the
/// [`Codec::decompress_into`] pieces, collected (as [`Codec::decompress`]
/// does).
///
/// # Errors
///
/// Returns a [`CodecError`] for bad magic, truncated streams, invalid
/// offsets, or output that does not match the declared length.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    Codec::Lz4.decompress(data)
}

/// The length an "SVL4" container declares, and its block.
pub(crate) fn header(data: &[u8]) -> Result<(u64, &[u8]), CodecError> {
    if data.len() < 12 || &data[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let orig_len = u64::from_le_bytes(data[4..12].try_into().unwrap());
    Ok((orig_len, &data[12..]))
}

/// How far back an LZ4 offset (16 bits) can reach, rounded up to 64 KiB.
pub(crate) const REACH: usize = 1 << 16;

/// Runs the decode loop of [`Codec::decompress_into`], leaving the window
/// unfinished.
pub(crate) fn decode<S, E>(data: &[u8], sink: S) -> Result<Window<S>, E>
where
    S: FnMut(u64, &[u8]) -> Result<(), E>,
    E: From<CodecError>,
{
    let (orig_len, mut input) = header(data)?;
    let mut out = Window::new(REACH, orig_len, sink);
    loop {
        let (&token, rest) = input.split_first().ok_or(CodecError::Truncated)?;
        input = rest;
        let lit_len = read_varlen(&mut input, (token >> 4) as usize)?;
        if input.len() < lit_len {
            return Err(CodecError::Truncated.into());
        }
        out.literal(&input[..lit_len])?;
        input = &input[lit_len..];
        if input.is_empty() {
            // Literal-only final sequence.
            return Ok(out);
        }
        if input.len() < 2 {
            return Err(CodecError::Truncated.into());
        }
        let offset = u16::from_le_bytes([input[0], input[1]]) as usize;
        input = &input[2..];
        let match_len = read_varlen(&mut input, (token & 0x0f) as usize)? + MIN_MATCH;
        out.copy_back(offset, match_len)?;
    }
}

/// Reads a length whose 4-bit `base` of 15 continues in 255-valued bytes.
fn read_varlen(input: &mut &[u8], base: usize) -> Result<usize, CodecError> {
    let mut value = base;
    if base == 15 {
        loop {
            let (&b, rest) = input.split_first().ok_or(CodecError::Truncated)?;
            *input = rest;
            value += b as usize;
            if b != 255 {
                break;
            }
        }
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_runs() {
        let data = vec![0xaau8; 100_000];
        let packed = compress(&data);
        assert!(packed.len() < 1000, "run should collapse: {}", packed.len());
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn roundtrip_text() {
        let data = b"firecracker boots microvms very fast indeed ".repeat(500);
        let packed = compress(&data);
        assert!(packed.len() < data.len() / 3);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn roundtrip_small_inputs() {
        for len in 0..20usize {
            let data: Vec<u8> = (0..len as u8).collect();
            assert_eq!(decompress(&compress(&data)).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn roundtrip_incompressible() {
        let mut state = 0xdeadbeefu64;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
        // Expansion must be bounded (< 1% for random data).
        assert!(packed.len() < data.len() + data.len() / 64 + 64);
    }

    #[test]
    fn long_matches_use_extended_lengths() {
        let mut data = b"0123456789abcdefghij".to_vec();
        data.extend(std::iter::repeat_n(b'z', 1000));
        data.extend_from_slice(b"0123456789abcdefghij");
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decompress(b"NOPE00000000"), Err(CodecError::BadMagic));
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = b"hello world hello world hello world".repeat(10);
        let packed = compress(&data);
        for cut in [12, packed.len() / 2, packed.len() - 1] {
            assert!(decompress(&packed[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn zero_offset_rejected() {
        // token: 0 literals, match; offset 0x0000.
        let mut stream = MAGIC.to_vec();
        stream.extend_from_slice(&10u64.to_le_bytes());
        stream.push(0x00);
        stream.extend_from_slice(&[0x00, 0x00]);
        assert!(matches!(
            decompress(&stream),
            Err(CodecError::InvalidBackReference { .. })
        ));
    }

    /// The byte-at-a-time decoder `decompress` replaced: every match byte
    /// pushed one by one, the declared length checked after each copy.
    fn reference_decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
        if data.len() < 12 || &data[..4] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let orig_len = u64::from_le_bytes(data[4..12].try_into().unwrap()) as usize;
        let mut out = Vec::with_capacity(orig_len.min(1 << 20));
        let mut input = &data[12..];
        loop {
            let (&token, rest) = input.split_first().ok_or(CodecError::Truncated)?;
            input = rest;
            let lit_len = read_varlen(&mut input, (token >> 4) as usize)?;
            if input.len() < lit_len {
                return Err(CodecError::Truncated);
            }
            out.extend_from_slice(&input[..lit_len]);
            input = &input[lit_len..];
            if input.is_empty() {
                break;
            }
            if input.len() < 2 {
                return Err(CodecError::Truncated);
            }
            let offset = u16::from_le_bytes([input[0], input[1]]) as usize;
            input = &input[2..];
            let match_len = read_varlen(&mut input, (token & 0x0f) as usize)? + MIN_MATCH;
            if offset == 0 || offset > out.len() {
                return Err(CodecError::InvalidBackReference { at: out.len() });
            }
            let start = out.len() - offset;
            for i in 0..match_len {
                let b = out[start + i];
                out.push(b);
            }
            if out.len() > orig_len {
                return Err(CodecError::LengthMismatch {
                    expected: orig_len as u64,
                    actual: out.len() as u64,
                });
            }
        }
        if out.len() != orig_len {
            return Err(CodecError::LengthMismatch {
                expected: orig_len as u64,
                actual: out.len() as u64,
            });
        }
        Ok(out)
    }

    /// Seeded xorshift bytes.
    fn noise(state: &mut u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                *state as u8
            })
            .collect()
    }

    /// A hand-built stream: each `(offset, match_len)` follows 16–47 random
    /// literals; a 5–20 byte literal tail ends it.
    fn stream(seed: u64, matches: &[(usize, usize)]) -> (Vec<u8>, usize) {
        let mut state = seed | 1;
        let mut body = Vec::new();
        let mut len = 0;
        for &(offset, match_len) in matches {
            let n = 16 + noise(&mut state, 1)[0] as usize % 32;
            emit_sequence(&mut body, &noise(&mut state, n), match_len, offset);
            len += n + match_len;
        }
        let n = 5 + noise(&mut state, 1)[0] as usize % 16;
        emit_sequence(&mut body, &noise(&mut state, n), 0, 0);
        len += n;
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&(len as u64).to_le_bytes());
        out.extend_from_slice(&body);
        (out, len)
    }

    #[test]
    fn slice_copies_match_the_byte_at_a_time_decoder() {
        let lengths = [4, 15, 19, 270, 70_000];
        let mut all = Vec::new();
        for offset in 1..=16 {
            for (i, &match_len) in lengths.iter().enumerate() {
                let (packed, len) = stream(offset as u64 * 31 + i as u64, &[(offset, match_len)]);
                let got = decompress(&packed).unwrap();
                assert_eq!(got.len(), len, "offset {offset} length {match_len}");
                assert_eq!(Ok(got), reference_decompress(&packed));
                all.push((offset, match_len));
            }
        }
        // Every case back to back in one stream.
        let (packed, _) = stream(0x5EED, &all);
        assert_eq!(decompress(&packed), reference_decompress(&packed));
        let data = b"firecracker boots microvms very fast indeed ".repeat(500);
        assert_eq!(
            decompress(&compress(&data)),
            reference_decompress(&compress(&data))
        );
    }

    #[test]
    fn hostile_declared_length_is_an_error_not_an_allocation() {
        let mut packed = MAGIC.to_vec();
        packed.extend_from_slice(&(1u64 << 40).to_le_bytes());
        packed.extend_from_slice(&[0x40, 1, 2, 3, 4, 0x0f, 1, 0]);
        assert_eq!(packed.len(), 20);
        assert!(decompress(&packed).is_err());
    }

    #[test]
    fn match_past_the_declared_length_is_refused_before_copying() {
        let mut packed = MAGIC.to_vec();
        packed.extend_from_slice(&16u64.to_le_bytes());
        // 4 literals, then a 4 + 15 + 255 + 10 byte match at offset 1.
        packed.extend_from_slice(&[0x4f, b'a', b'b', b'c', b'd', 1, 0, 255, 10]);
        packed.extend_from_slice(&[0x50, 1, 2, 3, 4, 5]);
        assert!(matches!(
            decompress(&packed),
            Err(CodecError::LengthMismatch { expected: 16, .. })
        ));
    }

    #[test]
    fn overlapping_copy_semantics() {
        // abab... via offset 2.
        let data: Vec<u8> = std::iter::repeat_n([b'a', b'b'], 500).flatten().collect();
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }
}
