//! Simulated SEV-SNP guest physical memory.
//!
//! This crate is the stand-in for the hardware half of SEV (§2.2 of the
//! paper): the AES engine in the memory controller and the Reverse Map
//! Table (RMP) introduced by SEV-SNP. It enforces, in software, the rules
//! the paper's trust model depends on:
//!
//! * the **host** cannot write to guest-owned (private) pages under SNP —
//!   [`GuestMemory::host_write`] fails with [`MemError::HostWriteDenied`];
//! * the host reading private pages sees **ciphertext** (AES-128-XEX with a
//!   physical-address tweak), so identical plaintext at different addresses
//!   has different ciphertext — the property behind KVM's page pinning
//!   (§6.2) and the dedup problem (§7.1);
//! * the **guest** must `pvalidate` a page before using it as private
//!   memory, and a host-initiated remap clears the valid bit so the next
//!   guest access takes a #VC ([`MemError::VcException`]);
//! * under plain SEV/SEV-ES there is no RMP: host writes to private memory
//!   *succeed* and silently corrupt guest data — exactly the integrity gap
//!   SNP closes.
//!
//! ## Representation note
//!
//! DRAM content for private pages is stored as *plaintext* internally; the
//! ciphertext view is produced on demand whenever the host touches a private
//! page (and host writes under SEV store the *decryption* of the written
//! bytes). This is observationally equivalent to storing ciphertext — every
//! actor sees exactly the bytes it would see on hardware — but keeps the
//! guest's own hot path (copy/hash during measured direct boot) at memcpy
//! speed so large experiments stay fast.
//!
//! Pages live in a table indexed by page number: one slot per guest page,
//! empty until the page is first written, then a heap-allocated 4 KiB page.
//! An untouched page is read through one static zero page, so reads never
//! materialize or copy a page. The [`Rmp`] is likewise a dense per-page
//! table, and a [`MemoryImage`] holds the same page table, its pages shared
//! copy-on-write (`Arc`) with the live guest: a snapshot or restore is a
//! table clone, and the first write to a shared page copies that page. The
//! table is deliberately not one flat allocation of the guest's size: every
//! boot would then page-fault a fresh mapping of hundreds of megabytes,
//! where freed page allocations are reused.
//!
//! The verifier's private copy of a staged component
//! ([`GuestMemory::copy_to_private`]) shares the staged pages the same
//! way: each whole page of the private copy is the staged page itself until
//! either side is written, and the copy comes back as a [`PageView`] the
//! verifier hashes page by page. A host write to the staging window after
//! the copy therefore lands in a fresh page and never reaches the private
//! copy or its digest, exactly as with a byte copy.
//!
//! The host stages an image the same way: [`GuestMemory::host_share`] is
//! [`GuestMemory::host_write`] with the same checks, except that each whole
//! destination page that is not guest-owned becomes a page-sized window of
//! the image's own immutable buffer. The window is copied out before the
//! page's first write, so a staged byte exists once, from the image build
//! through the private copy, and a write still lands exactly where it would
//! on a copy.
//!
//! # Example
//!
//! ```
//! use sevf_mem::{GuestMemory, MemError};
//! use sevf_sim::cost::SevGeneration;
//!
//! let mut mem = GuestMemory::new_sev(1 << 20, [7u8; 16], SevGeneration::SevSnp);
//! mem.rmp_assign(0, 4096)?;
//! mem.pvalidate(0, 4096)?;
//! mem.guest_write(0, b"secret", true)?;
//! // The host is denied, and sees only ciphertext.
//! assert!(matches!(mem.host_write(0, b"evil"), Err(MemError::HostWriteDenied { .. })));
//! assert_ne!(&mem.host_read(0, 6)?, b"secret");
//! # Ok::<(), MemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod memory;
mod rmp;

pub use error::MemError;
pub use memory::{GuestMemory, MemoryImage, PageView, PAGE_SIZE};
pub use rmp::{PageState, Rmp};

/// The canonical C-bit position reported by CPUID leaf 0x8000001F on the
/// simulated platform (bit 51, as on real EPYC parts).
pub const C_BIT_POSITION: u32 = 51;
