//! Synthetic guest boot images.
//!
//! The paper evaluates three guest kernels (Fig. 8): a Lupine-based
//! unikernel-style config (23 MB vmlinux / 3.3 MB bzImage), the AWS
//! Firecracker microVM config (43 MB / 7.1 MB), and an Ubuntu-generic config
//! (61 MB / 15 MB). We cannot ship Linux builds, so this crate *manufactures*
//! images with the same externally observable properties:
//!
//! * a real **ELF64** vmlinux ([`elf`]) with loadable segments, parsed and
//!   loaded by the same code paths a real loader would need;
//! * a real **bzImage** container ([`bzimage`]) — boot sector, `HdrS` setup
//!   header, bootstrap-loader stub, and a compressed payload — matching the
//!   paper's observation that loading a bzImage takes *less* verifier code
//!   than parsing a kernel ELF (§4.4);
//! * a real **CPIO newc** initrd ([`cpio`], [`initrd`]) carrying the
//!   attestation tooling (§2.3: the initrd is plain text and secret-free);
//! * deterministic content ([`content`]) whose **compression ratios** under
//!   the from-scratch codecs land on Fig. 8's vmlinux/bzImage size pairs;
//! * an embedded [`kernel::KernelDescriptor`] that tells the guest-kernel
//!   runtime how long each boot phase takes, standing in for actually
//!   executing Linux;
//! * the out-of-band hash tool of §4.3: every image a boot stages is hashed
//!   once, where its cache builds it, and handed out as a [`Component`]
//!   (bytes + SHA-256), so whoever stages it never hashes it again.
//!
//! # Example
//!
//! ```
//! use sevf_image::kernel::KernelConfig;
//! use sevf_codec::Codec;
//!
//! let config = KernelConfig::test_tiny();
//! let image = config.build();
//! let bz = image.bzimage(Codec::Lz4);
//! assert!(bz.len() < image.vmlinux().len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bzimage;
pub mod content;
pub mod cpio;
pub mod elf;
pub mod initrd;
pub mod kernel;

use std::fmt;
use std::sync::Arc;

use sevf_crypto::{sha256, Digest256};

/// A boot component as the VMM stages it: the bytes, and the SHA-256 taken
/// where they were built (§4.3 — the hash tool runs out of band, once per
/// image; whoever stages the component is handed the digest with it).
#[derive(Debug, Clone)]
pub struct Component {
    bytes: Arc<Vec<u8>>,
    digest: Digest256,
}

impl Component {
    /// Takes ownership of `bytes` and hashes them, once.
    pub fn new(bytes: Vec<u8>) -> Self {
        let digest = sha256(&bytes);
        Component {
            bytes: Arc::new(bytes),
            digest,
        }
    }

    /// The component's bytes (shared with the cache that built them).
    pub fn bytes(&self) -> &Arc<Vec<u8>> {
        &self.bytes
    }

    /// SHA-256 of [`Component::bytes`].
    pub fn digest(&self) -> Digest256 {
        self.digest
    }
}

/// Errors raised when parsing or building boot images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// Not a valid ELF file (bad magic/class/shape).
    BadElf(&'static str),
    /// Not a valid bzImage (missing 0x55AA or HdrS, bad offsets).
    BadBzImage(&'static str),
    /// Not a valid CPIO newc archive.
    BadCpio(&'static str),
    /// The embedded kernel descriptor is missing or corrupt.
    BadDescriptor(&'static str),
    /// Decompression of a payload failed.
    Codec(sevf_codec::CodecError),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::BadElf(w) => write!(f, "invalid ELF image: {w}"),
            ImageError::BadBzImage(w) => write!(f, "invalid bzImage: {w}"),
            ImageError::BadCpio(w) => write!(f, "invalid CPIO archive: {w}"),
            ImageError::BadDescriptor(w) => write!(f, "invalid kernel descriptor: {w}"),
            ImageError::Codec(e) => write!(f, "payload decompression failed: {e}"),
        }
    }
}

impl std::error::Error for ImageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImageError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sevf_codec::CodecError> for ImageError {
    fn from(e: sevf_codec::CodecError) -> Self {
        ImageError::Codec(e)
    }
}
