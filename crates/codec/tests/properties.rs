//! Property-based tests: every codec must roundtrip arbitrary byte streams,
//! fail cleanly (never panic) on arbitrary garbage input, and stream the
//! same bytes and errors to a sink as it collects into one buffer.
//!
//! Cases are drawn from a local xorshift generator (sevf-sim's RNG lives
//! downstream of this crate), so every run covers the same seeded family.

use sevf_codec::{lzh, Codec, CodecError, FLUSH_QUANTUM};

const CASES: u64 = 64;

/// Minimal xorshift64* generator for deterministic case generation.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len as u64 + 1) as usize;
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// Mix of runs, repeated phrases, and raw bytes — kernel-image-like.
fn compressible(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let chunks = rng.below(max_len as u64 / 16) as usize;
    let mut data = Vec::new();
    for _ in 0..chunks {
        match rng.below(3) {
            0 => data.extend_from_slice(b"init_task"),
            1 => data.extend_from_slice(&[0u8; 37]),
            _ => {
                let n = 1 + rng.below(19) as usize;
                data.extend((0..n).map(|_| rng.next_u64() as u8));
            }
        }
    }
    data
}

#[test]
fn roundtrip_random() {
    let mut rng = Rng::new(0xC0DE_C001);
    for _ in 0..CASES {
        let data = rng.bytes(4096);
        for codec in Codec::ALL {
            let packed = codec.compress(&data);
            assert_eq!(codec.decompress(&packed).unwrap(), data, "{codec}");
        }
    }
}

#[test]
fn roundtrip_compressible() {
    let mut rng = Rng::new(0xC0DE_C002);
    for _ in 0..CASES {
        let data = compressible(&mut rng, 4096);
        for codec in Codec::ALL {
            let packed = codec.compress(&data);
            assert_eq!(codec.decompress(&packed).unwrap(), data, "{codec}");
        }
    }
}

#[test]
fn garbage_never_panics() {
    let mut rng = Rng::new(0xC0DE_C003);
    for _ in 0..CASES {
        let data = rng.bytes(512);
        for codec in Codec::ALL {
            let _ = codec.decompress(&data);
        }
    }
}

#[test]
fn bit_flip_is_detected_or_harmless() {
    // Flipping any bit of a compressed stream must either fail cleanly
    // or (rarely, e.g. inside literals) still decode — never panic.
    let mut rng = Rng::new(0xC0DE_C004);
    for _ in 0..CASES {
        let data = compressible(&mut rng, 2048);
        let byte_index = rng.next_u64() as usize;
        let bit = rng.below(8) as u8;
        for codec in Codec::ALL {
            let mut packed = codec.compress(&data);
            if packed.is_empty() {
                continue;
            }
            let idx = byte_index % packed.len();
            packed[idx] ^= 1 << bit;
            let _ = codec.decompress(&packed);
        }
    }
}

#[test]
fn compressed_size_bounded() {
    // Even on incompressible input, overhead stays modest.
    let mut rng = Rng::new(0xC0DE_C005);
    for _ in 0..CASES {
        let data = rng.bytes(4096);
        for codec in Codec::ALL {
            let packed = codec.compress(&data);
            assert!(
                packed.len() <= data.len() + data.len() / 8 + 1024,
                "{}: {} -> {}",
                codec,
                data.len(),
                packed.len()
            );
        }
    }
}

/// `codec`'s [`Codec::decompress_into`] pieces, checked to arrive back to
/// back, concatenated. Every piece but the last is checked to be a whole
/// [`FLUSH_QUANTUM`] (a stored container is one piece), so the first piece
/// holds the first `min(FLUSH_QUANTUM, len)` bytes: the bootstrap loader
/// reads the ELF layout from it.
fn streamed(codec: Codec, packed: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    let mut sizes = Vec::new();
    let len = codec.decompress_into(packed, |at, piece| {
        assert_eq!(at, out.len() as u64, "{codec}: a piece out of order");
        assert!(!piece.is_empty(), "{codec}: an empty piece");
        out.extend_from_slice(piece);
        sizes.push(piece.len());
        Ok::<_, CodecError>(())
    })?;
    assert_eq!(len, out.len() as u64, "{codec}");
    let whole = sizes.split_last().map_or(&[][..], |(_, whole)| whole);
    match codec {
        Codec::None => assert!(whole.is_empty(), "a stored container in {sizes:?}"),
        _ => assert!(
            whole.iter().all(|&n| n == FLUSH_QUANTUM),
            "{codec}: pieces of {sizes:?} B"
        ),
    }
    Ok(out)
}

#[test]
fn streamed_pieces_concatenate_to_decompress() {
    let mut rng = Rng::new(0xC0DE_C006);
    for case in 0..CASES {
        let data = match case % 2 {
            0 => compressible(&mut rng, 8192),
            _ => rng.bytes(4096),
        };
        for codec in Codec::ALL {
            let packed = codec.compress(&data);
            assert_eq!(streamed(codec, &packed), codec.decompress(&packed));
            assert_eq!(streamed(codec, &packed).unwrap(), data, "{codec}");
        }
    }
    // Past two flushes, so pieces before the last are checked to be whole.
    let mut data = Vec::new();
    while data.len() < 5 * FLUSH_QUANTUM / 2 {
        data.extend(compressible(&mut rng, 1 << 16));
    }
    for codec in Codec::ALL {
        let packed = codec.compress(&data);
        assert_eq!(streamed(codec, &packed).unwrap(), data, "{codec}");
    }
}

#[test]
fn references_at_full_reach_across_a_flush_boundary_stream_intact() {
    // Random bytes, except that a short block straddling the second flush
    // boundary repeats the bytes exactly one reach back: the only match
    // for it is as far back as the codec can refer.
    let mut rng = Rng::new(0xC0DE_C007);
    let boundary = 2 * FLUSH_QUANTUM;
    for (codec, reach) in [
        (Codec::Lz4, 65_535),
        (Codec::Deflate, 1 << lzh::DEFLATE_WINDOW_LOG),
        (Codec::Zstd, 1 << lzh::ZSTD_WINDOW_LOG),
    ] {
        let mut data: Vec<u8> = (0..boundary + 4096).map(|_| rng.next_u64() as u8).collect();
        let at = boundary - 40;
        data.copy_within(at - reach..at - reach + 96, at);
        let packed = codec.compress(&data);
        assert_eq!(streamed(codec, &packed).unwrap(), data, "{codec}");
    }
}

#[test]
fn corruptions_and_truncations_fail_alike_on_both_paths() {
    let mut rng = Rng::new(0xC0DE_C008);
    for _ in 0..CASES / 4 {
        let data = compressible(&mut rng, 4096);
        for codec in Codec::ALL {
            let packed = codec.compress(&data);
            for _ in 0..16 {
                let mut bad = packed.clone();
                let at = rng.below(bad.len() as u64) as usize;
                bad[at] ^= 1 + rng.below(255) as u8;
                assert_eq!(
                    streamed(codec, &bad),
                    codec.decompress(&bad),
                    "{codec}: byte {at}"
                );
                let cut = rng.below(packed.len() as u64) as usize;
                let short = &packed[..cut];
                assert!(codec.decompress(short).is_err(), "{codec}: cut at {cut}");
                assert_eq!(
                    streamed(codec, short),
                    codec.decompress(short),
                    "{codec}: cut at {cut}"
                );
            }
        }
    }
}
