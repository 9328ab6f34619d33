//! The SEVeriFast boot verifier.
//!
//! The paper's core artifact (§4.1, §5): a ~13 KB standalone binary that
//! replaces both the guest firmware and the kernel as the initial,
//! pre-encrypted code of an SEV microVM. Its only jobs are:
//!
//! 1. discover the C-bit position (two `cpuid` calls, §5);
//! 2. `pvalidate` guest memory ([`verify::run`], <1 ms with
//!    2 MiB pages, §6.1);
//! 3. build identity-mapped page tables with the C-bit set in every entry
//!    ([`pagetable`], generated in the guest because the code is smaller
//!    than the structure — Fig. 7);
//! 4. perform **measured direct boot** ([`verify`]): copy each boot
//!    component from shared to encrypted memory, re-hash it with SHA-256,
//!    and compare against the pre-encrypted hash page ([`hashes`]);
//! 5. load the kernel — a bzImage by default (§4.4: less loader code than
//!    parsing an ELF), or an uncompressed vmlinux via the optimized fw_cfg
//!    protocol of §5 ([`loader`]).
//!
//! The [`binary`] module is the code-size ledger: it accounts for each
//! feature's contribution to the binary (Fig. 7's "code size" column) and
//! emits the blob that `LAUNCH_UPDATE_DATA` measures into the root of trust.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
mod drive;
pub mod hashes;
pub mod layout;
pub mod loader;
pub mod pagetable;
pub mod verify;

use std::fmt;

use sevf_mem::MemError;

use sevf_image::ImageError;

/// Errors raised while the boot verifier runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifierError {
    /// A component's hash did not match its pre-encrypted hash — the host
    /// supplied tampered boot components (§2.6, attack 1). Boot is refused.
    HashMismatch {
        /// Which component failed ("kernel", "initrd", "cmdline", ...).
        component: &'static str,
    },
    /// Guest memory fault (RMP violation, #VC, out of range).
    Memory(MemError),
    /// The kernel image was malformed.
    Image(ImageError),
    /// The guest layout is invalid (overlapping or out-of-bounds regions).
    BadLayout(&'static str),
    /// The hash page in pre-encrypted memory is corrupt.
    BadHashPage(&'static str),
}

impl fmt::Display for VerifierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifierError::HashMismatch { component } => {
                write!(
                    f,
                    "measured direct boot: {component} hash mismatch — refusing to boot"
                )
            }
            VerifierError::Memory(e) => write!(f, "memory fault: {e}"),
            VerifierError::Image(e) => write!(f, "bad kernel image: {e}"),
            VerifierError::BadLayout(w) => write!(f, "invalid guest layout: {w}"),
            VerifierError::BadHashPage(w) => write!(f, "corrupt hash page: {w}"),
        }
    }
}

impl std::error::Error for VerifierError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VerifierError::Memory(e) => Some(e),
            VerifierError::Image(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for VerifierError {
    fn from(e: MemError) -> Self {
        VerifierError::Memory(e)
    }
}

impl From<ImageError> for VerifierError {
    fn from(e: ImageError) -> Self {
        VerifierError::Image(e)
    }
}
