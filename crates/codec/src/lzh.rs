//! The LZSS + canonical-Huffman container ("SVLZ").
//!
//! Architecturally a DEFLATE sibling: the [`crate::lzss`] token stream is
//! entropy-coded with two canonical Huffman alphabets — literals/lengths and
//! distances — whose code lengths are stored in the header (4 bits each).
//! One container holds one block.
//!
//! Two window configurations are exposed through [`crate::Codec`]:
//! [`DEFLATE_WINDOW_LOG`] (32 KiB, the gzip stand-in) and
//! [`ZSTD_WINDOW_LOG`] (1 MiB, the zstd stand-in).
//!
//! Layout:
//!
//! ```text
//! "SVLZ" | window_log u8 | orig_len u64le | lit_len_count u16le |
//! dist_count u16le | code lengths (4 bits each, lit/len then dist, padded
//! to a byte) | Huffman bitstream | (end-of-block symbol terminates)
//! ```

use crate::bitio::{BitReader, BitWriter};
use crate::buckets::BucketTable;
use crate::huffman::{build_code_lengths, Decoder, Encoder};
use crate::lzss::{self, Token};
use crate::CodecError;

/// Window log for the deflate-class configuration (32 KiB).
pub const DEFLATE_WINDOW_LOG: u32 = 15;
/// Window log for the zstd-class configuration (1 MiB).
pub const ZSTD_WINDOW_LOG: u32 = 20;

pub(crate) const MAGIC: &[u8; 4] = b"SVLZ";
/// Literal alphabet: 0..=255 literals, 256 end-of-block, then length buckets.
const EOB: usize = 256;

/// Maximum match length for a window configuration: the zstd-class large
/// window also unlocks longer matches, as real zstd does.
fn max_match_for(window_log: u32) -> u32 {
    if window_log >= ZSTD_WINDOW_LOG {
        lzss::ZSTD_MAX_MATCH
    } else {
        lzss::DEFLATE_MAX_MATCH
    }
}

fn length_table(max_match: u32) -> BucketTable {
    BucketTable::new(lzss::MIN_MATCH, max_match, 8, 4)
}

fn distance_table(window_log: u32) -> BucketTable {
    BucketTable::new(1, 1u32 << window_log, 4, 2)
}

/// Compresses `data` with the given window configuration.
///
/// # Example
///
/// ```
/// use sevf_codec::lzh;
///
/// let data = b"kernel text kernel text kernel text".repeat(50);
/// let packed = lzh::compress(&data, lzh::DEFLATE_WINDOW_LOG);
/// assert!(packed.len() < data.len());
/// assert_eq!(lzh::decompress(&packed)?, data);
/// # Ok::<(), sevf_codec::CodecError>(())
/// ```
pub fn compress(data: &[u8], window_log: u32) -> Vec<u8> {
    let max_match = max_match_for(window_log);
    let lengths_tbl = length_table(max_match);
    let dists_tbl = distance_table(window_log);
    let tokens = lzss::tokenize(data, window_log, max_match);

    // Gather symbol frequencies.
    let lit_len_alphabet = 257 + lengths_tbl.symbol_count();
    let mut lit_freqs = vec![0u64; lit_len_alphabet];
    let mut dist_freqs = vec![0u64; dists_tbl.symbol_count()];
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_freqs[b as usize] += 1,
            Token::Match { length, distance } => {
                lit_freqs[257 + lengths_tbl.symbol_for(length)] += 1;
                dist_freqs[dists_tbl.symbol_for(distance)] += 1;
            }
        }
    }
    lit_freqs[EOB] += 1;

    let lit_lengths = build_code_lengths(&lit_freqs);
    let dist_lengths = build_code_lengths(&dist_freqs);
    let lit_enc = Encoder::from_lengths(&lit_lengths);
    let dist_enc = Encoder::from_lengths(&dist_lengths);

    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(window_log as u8);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(&(lit_lengths.len() as u16).to_le_bytes());
    out.extend_from_slice(&(dist_lengths.len() as u16).to_le_bytes());
    // Code lengths, 4 bits each (max length 15 fits).
    let mut header_bits = BitWriter::new();
    for &l in lit_lengths.iter().chain(dist_lengths.iter()) {
        header_bits.write_bits(l as u32, 4);
    }
    out.extend_from_slice(&header_bits.finish());

    let mut body = BitWriter::new();
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_enc.encode(&mut body, b as usize),
            Token::Match { length, distance } => {
                lit_enc.encode(&mut body, 257 + lengths_tbl.symbol_for(length));
                lengths_tbl.write_extra(&mut body, length);
                dist_enc.encode(&mut body, dists_tbl.symbol_for(distance));
                dists_tbl.write_extra(&mut body, distance);
            }
        }
    }
    lit_enc.encode(&mut body, EOB);
    out.extend_from_slice(&body.finish());
    out
}

/// Decompresses an "SVLZ" container.
///
/// # Errors
///
/// Returns a [`CodecError`] for bad magic, malformed Huffman tables,
/// truncated bitstreams, out-of-window back-references, or a payload that
/// does not match the declared length.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    if data.len() < 17 || &data[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let window_log = data[4] as u32;
    if !(8..=30).contains(&window_log) {
        return Err(CodecError::CorruptStream("implausible window size"));
    }
    let orig_len = u64::from_le_bytes(data[5..13].try_into().unwrap());
    let lit_count = u16::from_le_bytes(data[13..15].try_into().unwrap()) as usize;
    let dist_count = u16::from_le_bytes(data[15..17].try_into().unwrap()) as usize;

    let lengths_tbl = length_table(max_match_for(window_log));
    let dists_tbl = distance_table(window_log);
    if lit_count != 257 + lengths_tbl.symbol_count() || dist_count != dists_tbl.symbol_count() {
        return Err(CodecError::CorruptStream("alphabet size mismatch"));
    }

    let header_bytes = (lit_count + dist_count).div_ceil(2);
    if data.len() < 17 + header_bytes {
        return Err(CodecError::Truncated);
    }
    let mut header_bits = BitReader::new(&data[17..17 + header_bytes]);
    let mut lit_lengths = vec![0u8; lit_count];
    for l in lit_lengths.iter_mut() {
        *l = header_bits.read_bits(4)? as u8;
    }
    let mut dist_lengths = vec![0u8; dist_count];
    for l in dist_lengths.iter_mut() {
        *l = header_bits.read_bits(4)? as u8;
    }
    let lit_dec = Decoder::from_lengths(&lit_lengths)?;
    let dist_dec = Decoder::from_lengths(&dist_lengths)?;

    let mut body = BitReader::new(&data[17 + header_bytes..]);
    // Cap the up-front reservation: a corrupted header must not be able to
    // trigger a huge allocation before any payload is validated.
    let mut out: Vec<u8> = Vec::with_capacity((orig_len as usize).min(1 << 20));
    loop {
        let sym = lit_dec.decode(&mut body)? as usize;
        if sym < 256 {
            out.push(sym as u8);
        } else if sym == EOB {
            break;
        } else {
            let length = lengths_tbl.read_value(&mut body, sym - 257)?;
            let dist_sym = dist_dec.decode(&mut body)? as usize;
            let distance = dists_tbl.read_value(&mut body, dist_sym)? as usize;
            if distance == 0 || distance > out.len() {
                return Err(CodecError::InvalidBackReference { at: out.len() });
            }
            let start = out.len() - distance;
            for i in 0..length as usize {
                let b = out[start + i];
                out.push(b);
            }
        }
        if out.len() as u64 > orig_len {
            return Err(CodecError::LengthMismatch {
                expected: orig_len,
                actual: out.len() as u64,
            });
        }
    }
    if out.len() as u64 != orig_len {
        return Err(CodecError::LengthMismatch {
            expected: orig_len,
            actual: out.len() as u64,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_text() {
        let data = b"a moderately compressible kernel-like byte stream ".repeat(200);
        for wlog in [DEFLATE_WINDOW_LOG, ZSTD_WINDOW_LOG] {
            let packed = compress(&data, wlog);
            assert!(packed.len() < data.len() / 2);
            assert_eq!(decompress(&packed).unwrap(), data);
        }
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        for data in [&b""[..], b"a", b"ab", b"abc"] {
            let packed = compress(data, DEFLATE_WINDOW_LOG);
            assert_eq!(decompress(&packed).unwrap(), data.to_vec());
        }
    }

    #[test]
    fn larger_window_never_hurts_much() {
        // Content with long-range repetition: 1 MiB window should win.
        let unit: Vec<u8> = (0..50_000u32).map(|i| (i % 253) as u8).collect();
        let mut data = unit.clone();
        data.extend(vec![0x55; 100_000]);
        data.extend_from_slice(&unit);
        let small = compress(&data, DEFLATE_WINDOW_LOG).len();
        let large = compress(&data, ZSTD_WINDOW_LOG).len();
        assert!(large < small, "zstd-class {large} vs deflate-class {small}");
    }

    #[test]
    fn corrupt_header_rejected() {
        let data = b"hello hello hello".repeat(20);
        let mut packed = compress(&data, DEFLATE_WINDOW_LOG);
        packed[0] = b'X';
        assert_eq!(decompress(&packed), Err(CodecError::BadMagic));
    }

    #[test]
    fn truncated_body_rejected() {
        let data = b"hello hello hello".repeat(50);
        let packed = compress(&data, DEFLATE_WINDOW_LOG);
        let cut = &packed[..packed.len() - 4];
        assert!(decompress(cut).is_err());
    }

    #[test]
    fn declared_length_enforced() {
        let data = b"abcabcabc".repeat(30);
        let mut packed = compress(&data, DEFLATE_WINDOW_LOG);
        // Tamper with the declared length.
        packed[5] ^= 0x01;
        assert!(matches!(
            decompress(&packed),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn window_log_validated() {
        let data = b"x".repeat(100);
        let mut packed = compress(&data, DEFLATE_WINDOW_LOG);
        packed[4] = 99;
        assert!(decompress(&packed).is_err());
    }
}
