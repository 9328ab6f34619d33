//! The bzImage container.
//!
//! A Linux bzImage is a real-mode boot sector + setup code ("the bootstrap
//! loader") with the compressed kernel appended (§2.1). We reproduce the
//! load-bearing parts of the x86 boot protocol:
//!
//! * boot-sector signature `0x55AA` at offset 510;
//! * `setup_sects` at offset 0x1f1;
//! * the `HdrS` header magic at offset 0x202;
//! * `payload_offset` / `payload_length` at 0x248/0x24c (relative to the
//!   start of the protected-mode kernel), which is how the paper's boot
//!   verifier finds the compressed payload without parsing an ELF (§4.4).
//!
//! One extension: the byte at offset 0x250 records which `sevf-codec` codec
//! compressed the payload (real kernels encode this in the payload's own
//! magic; a dedicated field keeps the loader honest and simple).

use std::ops::Range;

use sevf_codec::Codec;

use crate::content::{generate, ContentProfile};
use crate::ImageError;

/// Offset of `setup_sects` in the boot sector.
const SETUP_SECTS_OFFSET: usize = 0x1f1;
/// Offset of the `HdrS` magic.
const HDRS_OFFSET: usize = 0x202;
/// Offset of the boot-protocol version.
const VERSION_OFFSET: usize = 0x206;
/// Offset of `payload_offset` (u32, relative to protected-mode start).
const PAYLOAD_OFFSET_OFFSET: usize = 0x248;
/// Offset of `payload_length` (u32).
const PAYLOAD_LENGTH_OFFSET: usize = 0x24c;
/// Offset of our codec tag byte.
const CODEC_TAG_OFFSET: usize = 0x250;

/// Size of the synthetic real-mode setup code (the bootstrap loader stub):
/// 16 sectors, as in a typical modern bzImage.
const SETUP_SECTS: usize = 16;
/// Size of the synthetic protected-mode decompressor stub preceding the
/// payload (`arch/x86/boot/compressed` in real kernels).
const PM_STUB_SIZE: usize = 24 * 1024;

fn codec_tag(codec: Codec) -> u8 {
    match codec {
        Codec::None => 0,
        Codec::Lz4 => 1,
        Codec::Deflate => 2,
        Codec::Zstd => 3,
    }
}

fn codec_from_tag(tag: u8) -> Option<Codec> {
    Some(match tag {
        0 => Codec::None,
        1 => Codec::Lz4,
        2 => Codec::Deflate,
        3 => Codec::Zstd,
        _ => return None,
    })
}

/// Builds a bzImage holding `vmlinux` compressed with `codec`.
///
/// # Example
///
/// ```
/// use sevf_codec::Codec;
/// use sevf_image::bzimage;
///
/// let vmlinux = vec![0x90u8; 100_000];
/// let bz = bzimage::build(&vmlinux, Codec::Lz4);
/// let (payload, codec) = bzimage::parse(&bz)?;
/// assert_eq!(codec, Codec::Lz4);
/// assert_eq!(Codec::Lz4.decompress(payload)?, vmlinux);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn build(vmlinux: &[u8], codec: Codec) -> Vec<u8> {
    let payload = codec.compress(vmlinux);
    let setup_size = 512 + SETUP_SECTS * 512;
    let payload_offset = PM_STUB_SIZE as u32;

    let mut image = Vec::with_capacity(setup_size + PM_STUB_SIZE + payload.len());
    // Boot sector + setup code, filled with loader-stub content.
    image.extend(generate(
        ContentProfile::aws(),
        setup_size,
        b"bzimage-setup-stub",
    ));
    image[510] = 0x55;
    image[511] = 0xaa;
    image[SETUP_SECTS_OFFSET] = SETUP_SECTS as u8;
    image[HDRS_OFFSET..HDRS_OFFSET + 4].copy_from_slice(b"HdrS");
    image[VERSION_OFFSET..VERSION_OFFSET + 2].copy_from_slice(&0x020fu16.to_le_bytes());
    image[PAYLOAD_OFFSET_OFFSET..PAYLOAD_OFFSET_OFFSET + 4]
        .copy_from_slice(&payload_offset.to_le_bytes());
    image[PAYLOAD_LENGTH_OFFSET..PAYLOAD_LENGTH_OFFSET + 4]
        .copy_from_slice(&(payload.len() as u32).to_le_bytes());
    image[CODEC_TAG_OFFSET] = codec_tag(codec);

    // Protected-mode decompressor stub, then the payload.
    image.extend(generate(
        ContentProfile::aws(),
        PM_STUB_SIZE,
        b"bzimage-pm-stub",
    ));
    image.extend_from_slice(&payload);
    image
}

/// Bytes at the start of a bzImage that hold every setup-header field
/// [`payload_range`] reads.
pub const HEADER_LEN: usize = 0x260;

/// Parses a bzImage, returning the (still compressed) payload, borrowed
/// from `image`, and its codec.
///
/// # Errors
///
/// Returns [`ImageError::BadBzImage`] if the signature, header magic, or
/// offsets are invalid.
pub fn parse(image: &[u8]) -> Result<(&[u8], Codec), ImageError> {
    let (payload, codec) = payload_range(image, image.len())?;
    Ok((&image[payload], codec))
}

/// [`parse`] of a bzImage of `image_len` bytes from its first bytes alone
/// (`head`, at least [`HEADER_LEN`] of them, or the whole image): the
/// payload's byte range in the image, and its codec.
///
/// # Errors
///
/// Those of [`parse`].
pub fn payload_range(head: &[u8], image_len: usize) -> Result<(Range<usize>, Codec), ImageError> {
    if head.len() < HEADER_LEN || image_len < HEADER_LEN {
        return Err(ImageError::BadBzImage("shorter than the setup header"));
    }
    if head[510] != 0x55 || head[511] != 0xaa {
        return Err(ImageError::BadBzImage("missing 0x55AA boot signature"));
    }
    if &head[HDRS_OFFSET..HDRS_OFFSET + 4] != b"HdrS" {
        return Err(ImageError::BadBzImage("missing HdrS magic"));
    }
    let setup_sects = head[SETUP_SECTS_OFFSET] as usize;
    let pm_start = 512 + setup_sects * 512;
    let payload_offset = u32::from_le_bytes(
        head[PAYLOAD_OFFSET_OFFSET..PAYLOAD_OFFSET_OFFSET + 4]
            .try_into()
            .expect("4 bytes"),
    ) as usize;
    let payload_length = u32::from_le_bytes(
        head[PAYLOAD_LENGTH_OFFSET..PAYLOAD_LENGTH_OFFSET + 4]
            .try_into()
            .expect("4 bytes"),
    ) as usize;
    let codec = codec_from_tag(head[CODEC_TAG_OFFSET])
        .ok_or(ImageError::BadBzImage("unknown payload codec tag"))?;
    let start = pm_start + payload_offset;
    let end = start
        .checked_add(payload_length)
        .ok_or(ImageError::BadBzImage("payload range overflows"))?;
    if end > image_len {
        return Err(ImageError::BadBzImage("payload out of bounds"));
    }
    Ok((start..end, codec))
}

/// Extracts and decompresses the vmlinux from a bzImage in one step (what
/// the bootstrap loader does on the critical path).
///
/// # Errors
///
/// Propagates container ([`ImageError::BadBzImage`]) and codec errors.
pub fn unpack_vmlinux(image: &[u8]) -> Result<Vec<u8>, ImageError> {
    let (payload, codec) = parse(image)?;
    Ok(codec.decompress(payload)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_codecs() {
        let vmlinux = generate(ContentProfile::aws(), 200_000, b"kernel");
        for codec in Codec::ALL {
            let bz = build(&vmlinux, codec);
            let (payload, parsed_codec) = parse(&bz).unwrap();
            assert_eq!(parsed_codec, codec);
            assert_eq!(codec.decompress(payload).unwrap(), vmlinux);
            assert_eq!(unpack_vmlinux(&bz).unwrap(), vmlinux);
        }
    }

    #[test]
    fn compressed_is_smaller() {
        let vmlinux = generate(ContentProfile::lupine(), 500_000, b"kernel");
        let bz = build(&vmlinux, Codec::Lz4);
        assert!(bz.len() < vmlinux.len() / 3);
    }

    #[test]
    fn missing_signature_rejected() {
        let vmlinux = vec![0u8; 10_000];
        let mut bz = build(&vmlinux, Codec::Lz4);
        bz[510] = 0;
        assert!(matches!(parse(&bz), Err(ImageError::BadBzImage(_))));
    }

    #[test]
    fn missing_hdrs_rejected() {
        let mut bz = build(&[0u8; 10_000], Codec::Lz4);
        bz[HDRS_OFFSET] = b'X';
        assert!(parse(&bz).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let bz = build(&[7u8; 10_000], Codec::Lz4);
        assert!(parse(&bz[..bz.len() - 10]).is_err());
    }

    #[test]
    fn bad_codec_tag_rejected() {
        let mut bz = build(&[7u8; 10_000], Codec::Lz4);
        bz[CODEC_TAG_OFFSET] = 99;
        assert!(parse(&bz).is_err());
    }

    #[test]
    fn corrupted_payload_never_yields_original() {
        // A flipped payload byte either fails decoding or silently changes
        // the output — it can never reproduce the original vmlinux. (This is
        // why measured direct boot re-hashes after the copy.)
        let vmlinux = generate(ContentProfile::aws(), 50_000, b"k");
        let mut bz = build(&vmlinux, Codec::Lz4);
        let n = bz.len();
        bz[n - 1000] ^= 0xff;
        if let Ok(out) = unpack_vmlinux(&bz) {
            assert_ne!(out, vmlinux)
        }
    }
}
