//! SHA-256 and SHA-384 (FIPS 180-4).
//!
//! The SEVeriFast boot verifier hashes boot components with SHA-256 (the
//! paper picked the `sha2` crate for its use of the x86 SHA extensions — the
//! *speed* of that hardware path lives in the cost model, not here). The PSP
//! computes the SEV-SNP launch digest with SHA-384.
//!
//! Rather than transcribing the 64 + 80 round constants, this module derives
//! them the way FIPS 180-4 defines them: the initial hash values are the
//! first 32/64 bits of the fractional parts of the square roots of the first
//! primes, and the round constants come from the cube roots. The derivation
//! uses exact integer n-th roots ([`crate::bigint::BigUint::nth_root`]); the
//! test suite pins the resulting digests to the official "abc" test vectors.

use std::sync::OnceLock;

use crate::bigint::BigUint;

/// Returns the first `n` prime numbers.
fn first_primes(n: usize) -> Vec<u64> {
    let mut primes = Vec::with_capacity(n);
    let mut candidate = 2u64;
    while primes.len() < n {
        if primes.iter().all(|p| !candidate.is_multiple_of(*p)) {
            primes.push(candidate);
        }
        candidate += 1;
    }
    primes
}

/// First `bits` bits of the fractional part of `prime^(1/degree)`.
///
/// Computed exactly: `floor(p^(1/degree) * 2^bits) mod 2^bits` equals
/// `floor((p << (degree * bits))^(1/degree)) mod 2^bits`.
fn root_fraction_bits(prime: u64, degree: u32, bits: usize) -> u64 {
    let shifted = BigUint::from_u64(prime).shl(degree as usize * bits);
    let root = shifted.nth_root(degree);
    // Keep only the fractional bits (drop the integer part above `bits`).
    let mask_len = bits;
    let frac = root.rem(&BigUint::one().shl(mask_len));
    frac.low_u64()
}

fn sha256_iv() -> &'static [u32; 8] {
    static IV: OnceLock<[u32; 8]> = OnceLock::new();
    IV.get_or_init(|| {
        let primes = first_primes(8);
        let mut iv = [0u32; 8];
        for (i, &p) in primes.iter().enumerate() {
            iv[i] = root_fraction_bits(p, 2, 32) as u32;
        }
        iv
    })
}

fn sha256_k() -> &'static [u32; 64] {
    static K: OnceLock<[u32; 64]> = OnceLock::new();
    K.get_or_init(|| {
        let primes = first_primes(64);
        let mut k = [0u32; 64];
        for (i, &p) in primes.iter().enumerate() {
            k[i] = root_fraction_bits(p, 3, 32) as u32;
        }
        k
    })
}

/// SHA-384 IV: fractional square roots of the 9th through 16th primes.
fn sha384_iv() -> &'static [u64; 8] {
    static IV: OnceLock<[u64; 8]> = OnceLock::new();
    IV.get_or_init(|| {
        let primes = first_primes(16);
        let mut iv = [0u64; 8];
        for (i, &p) in primes[8..].iter().enumerate() {
            iv[i] = root_fraction_bits(p, 2, 64);
        }
        iv
    })
}

fn sha512_k() -> &'static [u64; 80] {
    static K: OnceLock<[u64; 80]> = OnceLock::new();
    K.get_or_init(|| {
        let primes = first_primes(80);
        let mut k = [0u64; 80];
        for (i, &p) in primes.iter().enumerate() {
            k[i] = root_fraction_bits(p, 3, 64);
        }
        k
    })
}

/// Streaming SHA-256 hasher.
///
/// # Example
///
/// ```
/// use sevf_crypto::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"sever");
/// hasher.update(b"ifast");
/// assert_eq!(hasher.finalize(), sevf_crypto::sha256(b"severifast"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: *sha256_iv(),
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                compress256(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }
        // Aligned input compresses straight from the caller's slice — no
        // staging copy per block.
        let mut chunks = data.chunks_exact(64);
        for block in &mut chunks {
            compress256(&mut self.state, block.try_into().expect("64-byte chunk"));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffer_len = rest.len();
        }
    }

    /// Finishes the computation and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update(&[0x80]);
        // `update` also advanced total_len; that's fine, we captured it above.
        while self.buffer_len != 56 {
            self.update(&[0]);
        }
        let mut block = self.buffer;
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        compress256(&mut self.state, &block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

fn compress256(state: &mut [u32; 8], block: &[u8; 64]) {
    let k = sha256_k();
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(k[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Core SHA-512 family state: SHA-384 is SHA-512 with its own IV and a
/// truncated output.
#[derive(Clone, Debug)]
struct Sha512Core {
    state: [u64; 8],
    buffer: [u8; 128],
    buffer_len: usize,
    total_len: u128,
}

impl Sha512Core {
    fn new(iv: [u64; 8]) -> Self {
        Sha512Core {
            state: iv,
            buffer: [0u8; 128],
            buffer_len: 0,
            total_len: 0,
        }
    }

    fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u128);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (128 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 128 {
                compress512(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }
        // Aligned input compresses straight from the caller's slice — no
        // staging copy per block. On the measurement path (one 4 KiB page
        // per update) this removes 32 × 128-byte copies per page.
        let mut chunks = data.chunks_exact(128);
        for block in &mut chunks {
            compress512(&mut self.state, block.try_into().expect("128-byte chunk"));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffer_len = rest.len();
        }
    }

    fn finalize(mut self) -> [u64; 8] {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buffer_len != 112 {
            self.update(&[0]);
        }
        let mut block = self.buffer;
        block[112..128].copy_from_slice(&bit_len.to_be_bytes());
        compress512(&mut self.state, &block);
        self.state
    }
}

fn compress512(state: &mut [u64; 8], block: &[u8; 128]) {
    let k = sha512_k();
    let mut w = [0u64; 80];
    for (i, chunk) in block.chunks_exact(8).enumerate() {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(chunk);
        w[i] = u64::from_be_bytes(bytes);
    }
    for i in 16..80 {
        let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
        let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..80 {
        let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(k[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Lanes processed together by the multi-buffer compressor. Four 64-bit
/// lanes fill a 256-bit vector register; the per-round loops below are
/// written lane-innermost so the compiler can autovectorize them.
const LANES: usize = 4;

/// Compresses one 128-byte block into each of four independent SHA-512
/// states. The message schedule and round state are kept transposed
/// (`[round][lane]`) so each line of the round function is four independent
/// u64 operations.
fn compress512x4(states: &mut [[u64; 8]; LANES], blocks: [&[u8; 128]; LANES]) {
    let k = sha512_k();
    let mut w = [[0u64; LANES]; 80];
    for (l, block) in blocks.iter().enumerate() {
        for (i, chunk) in block.chunks_exact(8).enumerate() {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(chunk);
            w[i][l] = u64::from_be_bytes(bytes);
        }
    }
    for i in 16..80 {
        let mut row = [0u64; LANES];
        for (l, slot) in row.iter_mut().enumerate() {
            let w15 = w[i - 15][l];
            let w2 = w[i - 2][l];
            let s0 = w15.rotate_right(1) ^ w15.rotate_right(8) ^ (w15 >> 7);
            let s1 = w2.rotate_right(19) ^ w2.rotate_right(61) ^ (w2 >> 6);
            *slot = w[i - 16][l]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7][l])
                .wrapping_add(s1);
        }
        w[i] = row;
    }
    let mut v = [[0u64; LANES]; 8];
    for (j, row) in v.iter_mut().enumerate() {
        for l in 0..LANES {
            row[l] = states[l][j];
        }
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = v;
    for i in 0..80 {
        for l in 0..LANES {
            let s1 = e[l].rotate_right(14) ^ e[l].rotate_right(18) ^ e[l].rotate_right(41);
            let ch = (e[l] & f[l]) ^ ((!e[l]) & g[l]);
            let t1 = h[l]
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(k[i])
                .wrapping_add(w[i][l]);
            let s0 = a[l].rotate_right(28) ^ a[l].rotate_right(34) ^ a[l].rotate_right(39);
            let maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
            let t2 = s0.wrapping_add(maj);
            h[l] = g[l];
            g[l] = f[l];
            f[l] = e[l];
            e[l] = d[l].wrapping_add(t1);
            d[l] = c[l];
            c[l] = b[l];
            b[l] = a[l];
            a[l] = t1.wrapping_add(t2);
        }
    }
    let rows = [a, b, c, d, e, f, g, h];
    for (j, row) in rows.iter().enumerate() {
        for l in 0..LANES {
            states[l][j] = states[l][j].wrapping_add(row[l]);
        }
    }
}

/// SHA-384 over four equal-length messages at once through the multi-buffer
/// compressor. Bit-exact with four scalar [`sha384`] calls.
///
/// # Panics
///
/// Panics unless all four messages have the same length (lanes must share
/// one block schedule).
pub fn sha384_x4(msgs: [&[u8]; LANES]) -> [[u8; 48]; LANES] {
    let len = msgs[0].len();
    assert!(
        msgs.iter().all(|m| m.len() == len),
        "multi-buffer lanes must have equal lengths"
    );
    let mut states = [*sha384_iv(); LANES];
    let full = len / 128;
    for b in 0..full {
        compress512x4(
            &mut states,
            [
                msgs[0][b * 128..(b + 1) * 128].try_into().expect("block"),
                msgs[1][b * 128..(b + 1) * 128].try_into().expect("block"),
                msgs[2][b * 128..(b + 1) * 128].try_into().expect("block"),
                msgs[3][b * 128..(b + 1) * 128].try_into().expect("block"),
            ],
        );
    }
    // Padding tail: equal lengths mean every lane has the same tail shape
    // (one block when the 0x80 + 16 length bytes fit, two otherwise).
    let rem = len % 128;
    let tail_blocks = if rem < 112 { 1 } else { 2 };
    let bit_len = (len as u128).wrapping_mul(8);
    let mut tails = [[0u8; 256]; LANES];
    for (l, tail) in tails.iter_mut().enumerate() {
        tail[..rem].copy_from_slice(&msgs[l][full * 128..]);
        tail[rem] = 0x80;
        let end = tail_blocks * 128;
        tail[end - 16..end].copy_from_slice(&bit_len.to_be_bytes());
    }
    for b in 0..tail_blocks {
        compress512x4(
            &mut states,
            [
                tails[0][b * 128..(b + 1) * 128].try_into().expect("block"),
                tails[1][b * 128..(b + 1) * 128].try_into().expect("block"),
                tails[2][b * 128..(b + 1) * 128].try_into().expect("block"),
                tails[3][b * 128..(b + 1) * 128].try_into().expect("block"),
            ],
        );
    }
    let mut out = [[0u8; 48]; LANES];
    for (l, state) in states.iter().enumerate() {
        for (i, word) in state.iter().take(6).enumerate() {
            out[l][i * 8..i * 8 + 8].copy_from_slice(&word.to_be_bytes());
        }
    }
    out
}

/// SHA-384 over a batch of messages. Runs of four equal-length messages go
/// through the 4-lane multi-buffer path ([`sha384_x4`]); stragglers and
/// mixed lengths fall back to the scalar hasher. Output order matches input
/// order and every digest is bit-exact with [`sha384`].
pub fn sha384_batch(msgs: &[&[u8]]) -> Vec<[u8; 48]> {
    let mut out = Vec::with_capacity(msgs.len());
    let mut i = 0;
    while i < msgs.len() {
        if i + LANES <= msgs.len() {
            let len = msgs[i].len();
            if msgs[i + 1..i + LANES].iter().all(|m| m.len() == len) {
                out.extend_from_slice(&sha384_x4([msgs[i], msgs[i + 1], msgs[i + 2], msgs[i + 3]]));
                i += LANES;
                continue;
            }
        }
        out.push(sha384(msgs[i]));
        i += 1;
    }
    out
}

/// Streaming SHA-384 hasher (used for the SEV-SNP launch digest).
///
/// # Example
///
/// ```
/// use sevf_crypto::Sha384;
///
/// let mut hasher = Sha384::new();
/// hasher.update(b"launch page");
/// let digest = hasher.finalize();
/// assert_eq!(digest.len(), 48);
/// ```
#[derive(Clone, Debug)]
pub struct Sha384(Sha512Core);

impl Default for Sha384 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha384 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha384(Sha512Core::new(*sha384_iv()))
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.0.update(data);
    }

    /// Finishes the computation and returns the 48-byte digest.
    pub fn finalize(self) -> [u8; 48] {
        let state = self.0.finalize();
        let mut out = [0u8; 48];
        for (i, word) in state.iter().take(6).enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-256.
///
/// # Example
///
/// ```
/// let d = sevf_crypto::sha256(b"");
/// assert_eq!(d[..4], [0xe3, 0xb0, 0xc4, 0x42]);
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-384.
pub fn sha384(data: &[u8]) -> [u8; 48] {
    let mut h = Sha384::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::to_hex;

    #[test]
    fn derived_sha256_constants_match_fips() {
        // Spot-check the first and last derived constants against FIPS 180-4.
        let iv = sha256_iv();
        assert_eq!(iv[0], 0x6a09e667);
        assert_eq!(iv[7], 0x5be0cd19);
        let k = sha256_k();
        assert_eq!(k[0], 0x428a2f98);
        assert_eq!(k[1], 0x71374491);
        assert_eq!(k[63], 0xc67178f2);
    }

    #[test]
    fn derived_sha384_constants_match_fips() {
        let k = sha512_k();
        assert_eq!(k[0], 0x428a2f98d728ae22);
        let iv384 = sha384_iv();
        assert_eq!(iv384[0], 0xcbbb9d5dc1059ed8);
    }

    #[test]
    fn sha256_empty_vector() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc_vector() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_block_vector() {
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha384_abc_vector() {
        assert_eq!(
            to_hex(&sha384(b"abc")),
            "cb00753f45a35e8bb5a03d699ac65007272c32ab0eded1631a8b605a43ff5bed\
             8086072ba1e7cc2358baeca134c825a7"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn streaming_matches_one_shot_across_block_boundaries() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 129, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");

            let mut h = Sha384::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha384(&data), "sha384 split at {split}");
        }
    }

    #[test]
    fn multi_buffer_matches_scalar_across_lengths() {
        // Cover both tail shapes (1 and 2 padding blocks), the empty
        // message, exact block multiples, and the measurement-path length
        // (48 + 4096 + 8 + 1 and 4096 + 8 + 1).
        for len in [0usize, 1, 111, 112, 127, 128, 129, 255, 256, 4105, 4153] {
            let msgs: Vec<Vec<u8>> = (0..4u8)
                .map(|l| {
                    (0..len)
                        .map(|i| (i as u8).wrapping_mul(3).wrapping_add(l))
                        .collect()
                })
                .collect();
            let refs: [&[u8]; 4] = [&msgs[0], &msgs[1], &msgs[2], &msgs[3]];
            let wide = sha384_x4(refs);
            for l in 0..4 {
                assert_eq!(wide[l], sha384(refs[l]), "len {len} lane {l}");
            }
        }
    }

    #[test]
    fn batch_handles_mixed_lengths_and_stragglers() {
        let msgs: Vec<Vec<u8>> = (0..11usize).map(|i| vec![i as u8; i * 37]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let out = sha384_batch(&refs);
        assert_eq!(out.len(), refs.len());
        for (i, d) in out.iter().enumerate() {
            assert_eq!(*d, sha384(refs[i]), "msg {i}");
        }
        // Equal-length batch exercises the wide path end to end.
        let eq: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 4105]).collect();
        let eq_refs: Vec<&[u8]> = eq.iter().map(|m| m.as_slice()).collect();
        for (i, d) in sha384_batch(&eq_refs).iter().enumerate() {
            assert_eq!(*d, sha384(eq_refs[i]), "eq msg {i}");
        }
        assert!(sha384_batch(&[]).is_empty());
    }

    #[test]
    fn million_a_vector() {
        // FIPS 180-4 long message vector: one million 'a' characters.
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }
}
