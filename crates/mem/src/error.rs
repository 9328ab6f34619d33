//! Memory access errors and fault conditions.

use std::fmt;

/// Faults raised by the simulated memory system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Access beyond the end of guest memory.
    OutOfRange {
        /// Requested guest-physical address.
        addr: u64,
        /// Requested length.
        len: u64,
        /// Size of guest memory.
        size: u64,
    },
    /// The host attempted to write a guest-owned page under SEV-SNP
    /// (RMP check failed).
    HostWriteDenied {
        /// Guest-physical address of the offending page.
        page_addr: u64,
    },
    /// A guest private access touched a page whose RMP entry is not valid —
    /// the VMM Communication Exception (#VC) of §2.2.
    VcException {
        /// Guest-physical address of the faulting page.
        page_addr: u64,
        /// Why the access faulted.
        reason: VcReason,
    },
    /// `pvalidate` on a page that is already validated (double validation).
    AlreadyValidated {
        /// Guest-physical address of the page.
        page_addr: u64,
    },
    /// `pvalidate` on a page the hypervisor has not assigned to this guest.
    NotAssigned {
        /// Guest-physical address of the page.
        page_addr: u64,
    },
    /// An encrypted access was requested but the guest has no memory
    /// encryption key (non-SEV guest).
    EncryptionUnavailable,
    /// `pvalidate` executed on a non-SNP guest (the instruction does not
    /// exist there).
    PvalidateUnsupported,
    /// Misaligned page-granularity operation.
    Unaligned {
        /// The misaligned address.
        addr: u64,
    },
    /// A memory image captured under another launch context (another
    /// memory-encryption key or SEV generation) was restored into this guest.
    ForeignImage,
}

/// Why a #VC was raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcReason {
    /// The page was never validated with `pvalidate`.
    NotValidated,
    /// The hypervisor changed the page's mapping after validation.
    RemappedByHost,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, len, size } => write!(
                f,
                "access [{addr:#x}, {:#x}) outside guest memory of {size:#x} bytes",
                addr + len
            ),
            MemError::HostWriteDenied { page_addr } => {
                write!(
                    f,
                    "RMP denied host write to guest-owned page {page_addr:#x}"
                )
            }
            MemError::VcException { page_addr, reason } => write!(
                f,
                "#VC at page {page_addr:#x}: {}",
                match reason {
                    VcReason::NotValidated => "page not validated",
                    VcReason::RemappedByHost => "mapping changed by hypervisor",
                }
            ),
            MemError::AlreadyValidated { page_addr } => {
                write!(f, "pvalidate: page {page_addr:#x} already validated")
            }
            MemError::NotAssigned { page_addr } => {
                write!(f, "pvalidate: page {page_addr:#x} not assigned to guest")
            }
            MemError::EncryptionUnavailable => {
                write!(f, "encrypted access on a guest without SEV")
            }
            MemError::PvalidateUnsupported => {
                write!(f, "pvalidate is only available to SEV-SNP guests")
            }
            MemError::Unaligned { addr } => write!(f, "address {addr:#x} not page aligned"),
            MemError::ForeignImage => write!(f, "memory image from another launch context"),
        }
    }
}

impl std::error::Error for MemError {}
