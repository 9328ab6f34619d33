//! Canonical, length-limited Huffman coding.
//!
//! The [`lzh`](crate::lzh) container Huffman-codes its literal/length and
//! distance alphabets. Code lengths are built with a binary heap Huffman
//! construction; if the deepest code exceeds the 15-bit limit the symbol
//! frequencies are repeatedly halved (a standard flattening heuristic) until
//! the tree fits. Codes are then assigned canonically so only the *lengths*
//! need to be serialized.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::bitio::{BitReader, BitWriter};
use crate::CodecError;

/// Maximum code length in bits.
const MAX_CODE_LEN: u8 = 15;

/// Builds length-limited Huffman code lengths for the given frequencies.
///
/// Symbols with zero frequency get length 0 (no code). If only one symbol
/// has nonzero frequency it is assigned length 1 so the stream is decodable.
pub(crate) fn build_code_lengths(freqs: &[u64]) -> Vec<u8> {
    let mut freqs = freqs.to_vec();
    loop {
        let lengths = build_unlimited(&freqs);
        let max = lengths.iter().copied().max().unwrap_or(0);
        if max <= MAX_CODE_LEN {
            return lengths;
        }
        // Flatten the distribution and retry.
        for f in freqs.iter_mut() {
            if *f > 0 {
                *f = (*f).div_ceil(2);
            }
        }
    }
}

fn build_unlimited(freqs: &[u64]) -> Vec<u8> {
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Node {
        weight: u64,
        // Tie-break on id for determinism.
        id: usize,
    }
    let mut lengths = vec![0u8; freqs.len()];
    let live: Vec<usize> = freqs
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(i, _)| i)
        .collect();
    match live.len() {
        0 => return lengths,
        1 => {
            lengths[live[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    // parent[i] for internal nodes; leaves are 0..n, internals n..
    let mut heap: BinaryHeap<Reverse<Node>> = BinaryHeap::new();
    let mut parent: Vec<usize> = vec![usize::MAX; freqs.len()];
    for &i in &live {
        heap.push(Reverse(Node {
            weight: freqs[i],
            id: i,
        }));
    }
    let mut next_id = freqs.len();
    while heap.len() > 1 {
        let Reverse(a) = heap.pop().expect("heap has >= 2 items");
        let Reverse(b) = heap.pop().expect("heap has >= 2 items");
        parent.push(usize::MAX);
        let merged = Node {
            weight: a.weight + b.weight,
            id: next_id,
        };
        parent[a.id] = next_id;
        parent[b.id] = next_id;
        next_id += 1;
        heap.push(Reverse(merged));
    }
    let root = heap.pop().expect("one node remains").0.id;
    for &i in &live {
        let mut depth = 0u8;
        let mut node = i;
        while node != root {
            node = parent[node];
            depth += 1;
        }
        lengths[i] = depth.max(1);
    }
    lengths
}

/// Canonical Huffman encoder: maps symbols to (code, length).
#[derive(Debug, Clone)]
pub(crate) struct Encoder {
    codes: Vec<(u32, u8)>,
}

impl Encoder {
    /// Builds an encoder from canonical code lengths.
    pub(crate) fn from_lengths(lengths: &[u8]) -> Self {
        let codes = assign_canonical(lengths);
        Encoder { codes }
    }

    /// Writes the code for `symbol` into `writer`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` has no code (zero frequency at build time).
    pub(crate) fn encode(&self, writer: &mut BitWriter, symbol: usize) {
        let (code, len) = self.codes[symbol];
        assert!(len > 0, "symbol {symbol} has no Huffman code");
        // Canonical codes are MSB-first; emit them bit-reversed so the
        // LSB-first reader sees the most significant code bit first.
        let mut reversed = 0u32;
        for i in 0..len {
            reversed |= ((code >> (len - 1 - i)) & 1) << i;
        }
        writer.write_bits(reversed, len);
    }
}

/// Assigns canonical codes (MSB-first numeric codes) from lengths.
fn assign_canonical(lengths: &[u8]) -> Vec<(u32, u8)> {
    let max_len = lengths.iter().copied().max().unwrap_or(0);
    let mut count = vec![0u32; max_len as usize + 1];
    for &l in lengths {
        if l > 0 {
            count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u32; max_len as usize + 2];
    let mut code = 0u32;
    for len in 1..=max_len as usize {
        code = (code + count[len - 1]) << 1;
        next_code[len] = code;
    }
    let mut codes = vec![(0u32, 0u8); lengths.len()];
    for (sym, &len) in lengths.iter().enumerate() {
        if len > 0 {
            codes[sym] = (next_code[len as usize], len);
            next_code[len as usize] += 1;
        }
    }
    codes
}

/// Canonical Huffman decoder.
#[derive(Debug, Clone)]
pub(crate) struct Decoder {
    /// first_code[len] = numeric value of the first code of that length.
    first_code: Vec<u32>,
    /// first_index[len] = index into `symbols` of the first code of that length.
    first_index: Vec<u32>,
    /// count[len] = number of codes with that length.
    count: Vec<u32>,
    /// Symbols ordered by (length, symbol).
    symbols: Vec<u32>,
    max_len: u8,
}

impl Decoder {
    /// Builds a decoder from canonical code lengths.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::CorruptStream`] if the lengths describe an
    /// over-subscribed code (more codes than a prefix tree can hold).
    pub(crate) fn from_lengths(lengths: &[u8]) -> Result<Self, CodecError> {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        if max_len > MAX_CODE_LEN {
            return Err(CodecError::CorruptStream("code length exceeds limit"));
        }
        let mut count = vec![0u32; max_len as usize + 1];
        for &l in lengths {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        // Kraft inequality check (allow incomplete codes only when there is
        // exactly one symbol, the degenerate single-symbol tree).
        let kraft: u64 = (1..=max_len as usize)
            .map(|len| (count[len] as u64) << (MAX_CODE_LEN as usize - len))
            .sum();
        if kraft > 1u64 << MAX_CODE_LEN {
            return Err(CodecError::CorruptStream("over-subscribed Huffman code"));
        }
        let mut first_code = vec![0u32; max_len as usize + 1];
        let mut first_index = vec![0u32; max_len as usize + 1];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..=max_len as usize {
            code = (code + count[len - 1]) << 1;
            first_code[len] = code;
            first_index[len] = index;
            index += count[len];
        }
        let mut order: Vec<(u8, u32)> = lengths
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > 0)
            .map(|(s, &l)| (l, s as u32))
            .collect();
        order.sort_unstable();
        let symbols = order.into_iter().map(|(_, s)| s).collect();
        Ok(Decoder {
            first_code,
            first_index,
            count,
            symbols,
            max_len,
        })
    }

    /// Decodes one symbol from `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] at end of input or
    /// [`CodecError::CorruptStream`] if the bits match no code.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn decode(&self, reader: &mut BitReader<'_>) -> Result<u32, CodecError> {
        let mut code = 0u32;
        for len in 1..=self.max_len as usize {
            code = (code << 1) | reader.read_bit()?;
            let c = self.count[len];
            if c > 0 && code >= self.first_code[len] && code < self.first_code[len] + c {
                let idx = self.first_index[len] + (code - self.first_code[len]);
                return Ok(self.symbols[idx as usize]);
            }
        }
        Err(CodecError::CorruptStream("bits match no Huffman code"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(freqs: &[u64], stream: &[usize]) {
        let lengths = build_code_lengths(freqs);
        let enc = Encoder::from_lengths(&lengths);
        let dec = Decoder::from_lengths(&lengths).unwrap();
        let mut w = BitWriter::new();
        for &s in stream {
            enc.encode(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in stream {
            assert_eq!(dec.decode(&mut r).unwrap(), s as u32);
        }
    }

    #[test]
    fn simple_roundtrip() {
        roundtrip(&[40, 30, 20, 10], &[0, 1, 2, 3, 3, 2, 1, 0, 0, 0]);
    }

    #[test]
    fn single_symbol_alphabet() {
        roundtrip(&[0, 7, 0], &[1, 1, 1, 1]);
    }

    #[test]
    fn skewed_frequencies_respect_length_limit() {
        // Fibonacci-like frequencies force deep trees in unlimited Huffman.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let next = a + b;
            a = b;
            b = next;
        }
        let lengths = build_code_lengths(&freqs);
        assert!(lengths.iter().all(|&l| l <= MAX_CODE_LEN));
        assert!(lengths.iter().all(|&l| l > 0));
        // Still decodable.
        let stream: Vec<usize> = (0..40).collect();
        roundtrip(&freqs, &stream);
    }

    #[test]
    fn shorter_codes_for_frequent_symbols() {
        let lengths = build_code_lengths(&[1000, 10, 10, 10, 10]);
        assert!(lengths[0] < lengths[1]);
    }

    #[test]
    fn oversubscribed_lengths_rejected() {
        // Three codes of length 1 cannot exist.
        assert!(Decoder::from_lengths(&[1, 1, 1]).is_err());
    }

    #[test]
    fn garbage_bits_yield_corrupt_error() {
        let lengths = build_code_lengths(&[5, 5, 0, 0]);
        let dec = Decoder::from_lengths(&lengths).unwrap();
        // lengths are [1, 1]: every bit decodes, so build a sparser code.
        let lengths2 = build_code_lengths(&[8, 4, 2, 1, 1]);
        let dec2 = Decoder::from_lengths(&lengths2).unwrap();
        let _ = dec; // the 2-symbol decoder accepts any bit; no corrupt case
                     // Feed all-ones; with a complete code this will always decode, so
                     // instead check truncation.
        let mut r = BitReader::new(&[]);
        assert_eq!(dec2.decode(&mut r), Err(CodecError::Truncated));
    }

    #[test]
    fn empty_alphabet_produces_no_codes() {
        let lengths = build_code_lengths(&[0, 0, 0]);
        assert_eq!(lengths, vec![0, 0, 0]);
        assert!(Decoder::from_lengths(&lengths).is_ok());
    }
}
