//! LZSS match finding with hash chains.
//!
//! Produces the token stream that [`crate::lzh`] entropy-codes. The match
//! finder hashes every 4-byte prefix into chains and walks a bounded number
//! of candidates per position (greedy parse with lazy one-step lookahead,
//! the same shape zlib uses at its default level).

/// One LZSS token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `length` bytes starting `distance` bytes back.
    Match {
        /// Match length in bytes (>= [`MIN_MATCH`]).
        length: u32,
        /// Backward distance in bytes (>= 1).
        distance: u32,
    },
}

/// Minimum match length worth emitting.
pub(crate) const MIN_MATCH: u32 = 3;
/// Maximum match length for the deflate-class configuration (DEFLATE's cap).
pub(crate) const DEFLATE_MAX_MATCH: u32 = 258;
/// Maximum match length for the zstd-class configuration.
pub(crate) const ZSTD_MAX_MATCH: u32 = 4096;
/// Candidates examined per position before giving up.
const CHAIN_DEPTH: usize = 32;

fn hash4(data: &[u8], pos: usize) -> usize {
    let v = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
    (v.wrapping_mul(2654435761) >> 16) as usize & 0xffff
}

/// Finds LZSS tokens over `data` with a `1 << window_log` byte window and
/// matches capped at `max_match` bytes.
///
/// # Panics
///
/// Panics if `max_match < MIN_MATCH`.
pub(crate) fn tokenize(data: &[u8], window_log: u32, max_match: u32) -> Vec<Token> {
    assert!(max_match >= MIN_MATCH);
    let window = 1usize << window_log;
    let mut tokens = Vec::new();
    if data.len() < MIN_MATCH as usize + 1 {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }
    let mut head = vec![usize::MAX; 1 << 16];
    let mut chain = vec![usize::MAX; data.len()];
    let mut pos = 0usize;

    let insert = |head: &mut Vec<usize>, chain: &mut Vec<usize>, p: usize| {
        if p + 4 <= data.len() {
            let h = hash4(data, p);
            chain[p] = head[h];
            head[h] = p;
        }
    };

    while pos < data.len() {
        let best = find_match(data, pos, window, max_match, &head, &chain);
        match best {
            Some((len, dist)) if len >= MIN_MATCH => {
                // Lazy matching: if the next position has a strictly better
                // match, emit a literal instead and advance one byte.
                let take_match = if pos + 1 < data.len() {
                    let next = find_match_after_insert(
                        data, pos, window, max_match, &mut head, &mut chain,
                    );
                    !matches!(next, Some((next_len, _)) if next_len > len + 1)
                } else {
                    insert(&mut head, &mut chain, pos);
                    true
                };
                if take_match {
                    tokens.push(Token::Match {
                        length: len,
                        distance: dist,
                    });
                    // Position pos was inserted above; insert the rest of the
                    // matched region.
                    for p in pos + 1..pos + len as usize {
                        insert(&mut head, &mut chain, p);
                    }
                    pos += len as usize;
                } else {
                    tokens.push(Token::Literal(data[pos]));
                    pos += 1;
                }
            }
            _ => {
                insert(&mut head, &mut chain, pos);
                tokens.push(Token::Literal(data[pos]));
                pos += 1;
            }
        }
    }
    tokens
}

/// Inserts `pos` into the chains, then searches for a match at `pos + 1`.
fn find_match_after_insert(
    data: &[u8],
    pos: usize,
    window: usize,
    max_match: u32,
    head: &mut [usize],
    chain: &mut [usize],
) -> Option<(u32, u32)> {
    if pos + 4 <= data.len() {
        let h = hash4(data, pos);
        chain[pos] = head[h];
        head[h] = pos;
    }
    find_match(data, pos + 1, window, max_match, head, chain)
}

fn find_match(
    data: &[u8],
    pos: usize,
    window: usize,
    max_match: u32,
    head: &[usize],
    chain: &[usize],
) -> Option<(u32, u32)> {
    if pos + 4 > data.len() {
        return None;
    }
    let h = hash4(data, pos);
    let mut candidate = head[h];
    let min_pos = pos.saturating_sub(window);
    let max_len = max_match.min((data.len() - pos) as u32);
    let mut best: Option<(u32, u32)> = None;
    let mut depth = 0;
    while candidate != usize::MAX && candidate >= min_pos && depth < CHAIN_DEPTH {
        debug_assert!(candidate < pos);
        let mut len = 0u32;
        while len < max_len && data[candidate + len as usize] == data[pos + len as usize] {
            len += 1;
        }
        if len >= MIN_MATCH && best.is_none_or(|(bl, _)| len > bl) {
            best = Some((len, (pos - candidate) as u32));
            if len == max_len {
                break;
            }
        }
        candidate = chain[candidate];
        depth += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reconstructs the original bytes from a token stream: the oracle
    /// every tokenizer test checks against. `None` if a match refers past
    /// the start of the output.
    fn apply(tokens: &[Token]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        for token in tokens {
            match *token {
                Token::Literal(b) => out.push(b),
                Token::Match { length, distance } => {
                    let dist = distance as usize;
                    if dist == 0 || dist > out.len() {
                        return None;
                    }
                    let start = out.len() - dist;
                    for i in 0..length as usize {
                        let b = out[start + i];
                        out.push(b);
                    }
                }
            }
        }
        Some(out)
    }

    #[test]
    fn roundtrip_text() {
        let data = b"abracadabra abracadabra abracadabra".repeat(10);
        assert_eq!(
            apply(&tokenize(&data, 15, DEFLATE_MAX_MATCH)).unwrap(),
            data
        );
    }

    #[test]
    fn roundtrip_zeros() {
        let data = vec![0u8; 10_000];
        let tokens = tokenize(&data, 15, DEFLATE_MAX_MATCH);
        assert!(tokens.len() < 100, "runs should collapse: {}", tokens.len());
        assert_eq!(apply(&tokens).unwrap(), data);
    }

    #[test]
    fn roundtrip_incompressible() {
        // A simple LCG makes 4-byte-unique content.
        let mut state = 0x12345678u64;
        let data: Vec<u8> = (0..5000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        assert_eq!(
            apply(&tokenize(&data, 15, DEFLATE_MAX_MATCH)).unwrap(),
            data
        );
    }

    #[test]
    fn tiny_inputs() {
        for len in 0..6usize {
            let data: Vec<u8> = (0..len as u8).collect();
            assert_eq!(
                apply(&tokenize(&data, 15, DEFLATE_MAX_MATCH)).unwrap(),
                data
            );
        }
    }

    #[test]
    fn overlapping_match_semantics() {
        // RLE via distance-1 match overlapping itself.
        let tokens = [
            Token::Literal(7),
            Token::Match {
                length: 10,
                distance: 1,
            },
        ];
        assert_eq!(apply(&tokens).unwrap(), vec![7u8; 11]);
    }

    #[test]
    fn invalid_distance_detected() {
        let tokens = [Token::Match {
            length: 5,
            distance: 3,
        }];
        assert_eq!(apply(&tokens), None);
    }

    #[test]
    fn window_limits_distances() {
        // Repeat a block farther apart than a tiny window can reach.
        let mut data = b"0123456789abcdef".to_vec();
        data.extend(vec![b'x'; 5000]);
        data.extend_from_slice(b"0123456789abcdef");
        let window_log = 8; // 256-byte window
        for t in tokenize(&data, window_log, DEFLATE_MAX_MATCH) {
            if let Token::Match { distance, .. } = t {
                assert!(distance <= 1 << window_log);
            }
        }
    }

    #[test]
    fn matches_respect_min_length() {
        for t in tokenize(b"abcdefabcdefabcdef", 15, DEFLATE_MAX_MATCH) {
            if let Token::Match { length, .. } = t {
                assert!(length >= MIN_MATCH);
            }
        }
    }
}
