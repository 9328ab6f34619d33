//! From-scratch compression codecs for the SEVeriFast reproduction.
//!
//! The paper's central Fig. 5 trade-off — *measured direct boot favors
//! kernel compression* — depends on real compression ratios: the boot
//! verifier copies and hashes the **compressed** bzImage, then the bootstrap
//! loader decompresses it. This crate implements the codecs whose ratios
//! drive that figure:
//!
//! * [`lz4`] — the LZ4 block format (the winner in the paper; kernels built
//!   with `CONFIG_KERNEL_LZ4`),
//! * [`lzh`] — an LZSS + canonical-Huffman container used in two
//!   configurations: a 32 KiB window "deflate-class" codec (gzip stand-in)
//!   and a 1 MiB window "zstd-class" codec. These are *our own* formats with
//!   the same architectural shape as DEFLATE, documented as substitutions in
//!   DESIGN.md.
//!
//! Every codec has one decode loop, [`Codec::decompress_into`]: it hands
//! its output to a sink as `(offset, bytes)` pieces and holds only the
//! codec's back-reference reach plus [`FLUSH_QUANTUM`] bytes, so a boot's
//! bootstrap loader writes the vmlinux straight into guest pages (§4.4)
//! without a host-side copy of it. Every piece but the last is exactly
//! [`FLUSH_QUANTUM`] bytes (a stored container hands out one piece), so the
//! first piece is the output's first `min(FLUSH_QUANTUM, len)` bytes: the
//! loader reads the ELF layout from it. [`Codec::decompress`] is the sink
//! that collects the pieces into one buffer.
//!
//! Decompression *throughput* (LZ4 ≫ deflate) is part of the virtual-time
//! cost model in `sevf-sim`; this crate is only responsible for real bytes
//! in, real bytes out.
//!
//! # Example
//!
//! ```
//! use sevf_codec::Codec;
//!
//! let data = vec![42u8; 10_000];
//! let compressed = Codec::Lz4.compress(&data);
//! assert!(compressed.len() < data.len() / 10);
//! assert_eq!(Codec::Lz4.decompress(&compressed)?, data);
//!
//! // The same decode, piece by piece.
//! let mut pieces = Vec::new();
//! let len = Codec::Lz4.decompress_into(&compressed, |at, piece| {
//!     assert_eq!(at, pieces.len() as u64);
//!     pieces.extend_from_slice(piece);
//!     Ok::<_, sevf_codec::CodecError>(())
//! })?;
//! assert_eq!((len, pieces), (data.len() as u64, data));
//! # Ok::<(), sevf_codec::CodecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitio;
mod buckets;
mod huffman;
pub mod lz4;
pub mod lzh;
mod lzss;
mod window;

use std::fmt;

pub use window::FLUSH_QUANTUM;

/// Magic of the stored ([`Codec::None`]) container.
const STORED_MAGIC: &[u8; 4] = b"SVST";

/// Errors produced when decoding a compressed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream does not start with the expected magic bytes.
    BadMagic,
    /// The stream ended before the declared payload was decoded.
    Truncated,
    /// A match referenced data before the start of the output window.
    InvalidBackReference {
        /// Byte offset in the output at which the bad reference occurred.
        at: usize,
    },
    /// A Huffman table or symbol in the stream is malformed.
    CorruptStream(&'static str),
    /// The decoded output did not match the declared length.
    LengthMismatch {
        /// Length declared in the header.
        expected: u64,
        /// Length actually produced.
        actual: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "stream does not begin with the codec magic"),
            CodecError::Truncated => write!(f, "compressed stream ended prematurely"),
            CodecError::InvalidBackReference { at } => {
                write!(
                    f,
                    "back-reference before window start at output offset {at}"
                )
            }
            CodecError::CorruptStream(what) => write!(f, "corrupt stream: {what}"),
            CodecError::LengthMismatch { expected, actual } => write!(
                f,
                "decoded length {actual} does not match declared length {expected}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// A kernel/initrd compression codec.
///
/// Mirrors the choices a Linux build offers for `CONFIG_KERNEL_*`; the
/// paper's evaluation compares booting uncompressed images against LZ4 (the
/// recommendation) and slower, denser codecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Codec {
    /// No compression (stored); used for vmlinux direct boot and for the
    /// paper's recommended *uncompressed* initrd.
    None,
    /// LZ4 block format — fastest decompression, moderate ratio.
    Lz4,
    /// Deflate-class LZSS+Huffman, 32 KiB window (gzip stand-in).
    Deflate,
    /// Zstd-class LZSS+Huffman, 1 MiB window — denser, mid-speed.
    Zstd,
}

impl Codec {
    /// All codecs, in the order figures present them.
    pub const ALL: [Codec; 4] = [Codec::None, Codec::Lz4, Codec::Deflate, Codec::Zstd];

    /// Short lowercase name, as used in figure labels ("none", "lz4", ...).
    pub fn name(self) -> &'static str {
        match self {
            Codec::None => "none",
            Codec::Lz4 => "lz4",
            Codec::Deflate => "gzip",
            Codec::Zstd => "zstd",
        }
    }

    /// Compresses `data` into a self-describing container.
    pub fn compress(self, data: &[u8]) -> Vec<u8> {
        match self {
            Codec::None => {
                let mut out = Vec::with_capacity(data.len() + 13);
                out.extend_from_slice(STORED_MAGIC);
                out.extend_from_slice(&(data.len() as u64).to_le_bytes());
                out.extend_from_slice(data);
                out
            }
            Codec::Lz4 => lz4::compress(data),
            Codec::Deflate => lzh::compress(data, lzh::DEFLATE_WINDOW_LOG),
            Codec::Zstd => lzh::compress(data, lzh::ZSTD_WINDOW_LOG),
        }
    }

    /// The codec whose container `bytes` is, or `None` for bytes in no
    /// container (a raw CPIO archive, say).
    pub fn detect(bytes: &[u8]) -> Option<Codec> {
        if bytes.len() < 6 {
            return None;
        }
        match &bytes[..4] {
            m if m == STORED_MAGIC => Some(Codec::None),
            m if m == lz4::MAGIC => Some(Codec::Lz4),
            // The window-log byte tells the two LZH profiles apart.
            m if m == lzh::MAGIC && u32::from(bytes[4]) >= lzh::ZSTD_WINDOW_LOG => {
                Some(Codec::Zstd)
            }
            m if m == lzh::MAGIC => Some(Codec::Deflate),
            _ => None,
        }
    }

    /// The output length a container of this codec declares.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadMagic`] if `data` is not this codec's container.
    pub fn declared_len(self, data: &[u8]) -> Result<u64, CodecError> {
        match self {
            Codec::None => stored_header(data).map(|(len, _)| len),
            Codec::Lz4 => lz4::header(data).map(|(len, _)| len),
            Codec::Deflate | Codec::Zstd => lzh::declared_len(data),
        }
    }

    /// Decompresses a container produced by [`Codec::compress`]: the
    /// pieces of [`Codec::decompress_into`], collected.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the stream is malformed, truncated, or was
    /// produced by a different codec.
    pub fn decompress(self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        // Reserve once: the declared length, capped at what the payload
        // could expand to (LZ4: 255 bytes per input byte; LZH: one flush
        // quantum, then growth), so a corrupted header cannot force a huge
        // allocation before any payload is validated.
        let cap = match self {
            Codec::None => data.len(),
            Codec::Lz4 => data.len().saturating_mul(255),
            Codec::Deflate | Codec::Zstd => FLUSH_QUANTUM,
        };
        let declared = self.declared_len(data).unwrap_or(0);
        let mut out = Vec::with_capacity(usize::try_from(declared).map_or(cap, |d| d.min(cap)));
        self.decompress_into(data, |_, piece| {
            out.extend_from_slice(piece);
            Ok::<_, CodecError>(())
        })?;
        Ok(out)
    }

    /// Decodes a container produced by [`Codec::compress`], handing the
    /// output to `sink` as `(offset, bytes)` pieces, in order and back to
    /// back. A decoder holds only its back-references' reach of output
    /// (64 KiB for LZ4, the container's window for the LZH profiles) plus
    /// at most [`FLUSH_QUANTUM`] bytes not yet handed out, and hands out
    /// exactly [`FLUSH_QUANTUM`] bytes in every piece but the last; a stored
    /// container hands out its payload as one piece of the input. Returns
    /// the output length.
    ///
    /// # Errors
    ///
    /// [`Codec::decompress`]'s, as soon as the stream shows them (the sink
    /// may have taken pieces before), or the first error the sink returns,
    /// which ends the decode.
    pub fn decompress_into<E: From<CodecError>>(
        self,
        data: &[u8],
        mut sink: impl FnMut(u64, &[u8]) -> Result<(), E>,
    ) -> Result<u64, E> {
        match self {
            Codec::None => {
                let (len, payload) = stored_header(data)?;
                if payload.len() as u64 != len {
                    return Err(CodecError::LengthMismatch {
                        expected: len,
                        actual: payload.len() as u64,
                    }
                    .into());
                }
                if !payload.is_empty() {
                    sink(0, payload)?;
                }
                Ok(len)
            }
            Codec::Lz4 => lz4::decode(data, sink)?.finish(),
            Codec::Deflate | Codec::Zstd => lzh::decode(data, sink)?.finish(),
        }
    }
}

/// The length a stored container declares, and its payload.
fn stored_header(data: &[u8]) -> Result<(u64, &[u8]), CodecError> {
    if data.len() < 12 || &data[..4] != STORED_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let len = u64::from_le_bytes(data[4..12].try_into().unwrap());
    Ok((len, &data[12..]))
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Kernel-image-like content: short local repeats, a skewed byte
    /// distribution, and occasional pseudo-random stretches — the regime in
    /// which entropy coding (deflate/zstd-class) out-compresses LZ4.
    fn sample() -> Vec<u8> {
        let words = [
            "sched",
            "futex",
            "vfs_read",
            "memcg",
            "tcp_v4_rcv",
            "kmalloc",
            "rcu",
            "ext4",
        ];
        let mut state = 0x243f6a8885a308d3u64;
        let mut v = Vec::new();
        while v.len() < 200_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (state >> 33) as usize;
            v.extend_from_slice(words[pick % words.len()].as_bytes());
            v.push(b' ');
            // Sprinkle per-site varying bytes so long-range matches are rare.
            v.extend_from_slice(&(state as u32).to_le_bytes()[..2]);
        }
        v
    }

    #[test]
    fn all_codecs_roundtrip() {
        let data = sample();
        for codec in Codec::ALL {
            let compressed = codec.compress(&data);
            assert_eq!(codec.decompress(&compressed).unwrap(), data, "{codec}");
        }
    }

    #[test]
    fn ratio_ordering_on_text() {
        // On repetitive text: zstd-class <= deflate-class <= lz4 < stored.
        let data = sample();
        let lz4 = Codec::Lz4.compress(&data).len();
        let deflate = Codec::Deflate.compress(&data).len();
        let zstd = Codec::Zstd.compress(&data).len();
        let stored = Codec::None.compress(&data).len();
        assert!(lz4 < stored);
        assert!(deflate < lz4, "deflate {deflate} vs lz4 {lz4}");
        // Without long-range structure the two LZH configurations land within
        // a couple percent of each other (the zstd-class pays a slightly
        // larger alphabet); the long-range win is covered in `lzh::tests`.
        assert!(
            zstd <= deflate + deflate / 50,
            "zstd {zstd} vs deflate {deflate}"
        );
    }

    #[test]
    fn detect_names_the_codec_of_each_container() {
        let data = sample();
        for codec in Codec::ALL {
            assert_eq!(Codec::detect(&codec.compress(&data)), Some(codec));
        }
        // A raw newc CPIO archive starts with its own magic, in no container.
        let cpio = [b"070701".as_slice(), &[b'0'; 104]].concat();
        assert_eq!(Codec::detect(&cpio), None);
        assert_eq!(Codec::detect(&Codec::Lz4.compress(&data)[..5]), None);
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let data = sample();
        let lz4 = Codec::Lz4.compress(&data);
        assert_eq!(Codec::None.decompress(&lz4), Err(CodecError::BadMagic));
        assert_eq!(Codec::Deflate.decompress(&lz4), Err(CodecError::BadMagic));
    }

    #[test]
    fn empty_input_roundtrips() {
        for codec in Codec::ALL {
            assert_eq!(codec.decompress(&codec.compress(&[])).unwrap(), vec![]);
        }
    }

    #[test]
    fn no_decoder_holds_more_than_its_reach_and_a_quantum() {
        // Past three flushes, with references across each and a run longer
        // than a quantum (one LZ4 match).
        let mut data = sample().repeat(12);
        data.extend(std::iter::repeat_n(7u8, 3 * FLUSH_QUANTUM / 2));
        data.extend_from_slice(&sample());
        type Sink = fn(u64, &[u8]) -> Result<(), CodecError>;
        let sink: Sink = |_, piece| {
            assert!(piece.len() <= FLUSH_QUANTUM, "a {} B piece", piece.len());
            Ok(())
        };
        for codec in [Codec::Lz4, Codec::Deflate, Codec::Zstd] {
            let packed = codec.compress(&data);
            let (window, reach) = match codec {
                Codec::Lz4 => (lz4::decode(&packed, sink).unwrap(), lz4::REACH),
                _ => (lzh::decode(&packed, sink).unwrap(), 1 << packed[4]),
            };
            let held = window.capacity();
            assert!(
                held <= reach + FLUSH_QUANTUM,
                "{codec}: {held} B for {reach}"
            );
            assert_eq!(window.finish(), Ok(data.len() as u64), "{codec}");
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Codec::Lz4.name(), "lz4");
        assert_eq!(Codec::Deflate.to_string(), "gzip");
    }
}
