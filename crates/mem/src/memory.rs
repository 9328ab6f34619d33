//! The guest physical memory model.

use std::ops::Range;
use std::sync::Arc;

use sevf_crypto::{sha256, Digest256, XexCipher};
use sevf_sim::cost::SevGeneration;

use crate::error::{MemError, VcReason};
use crate::rmp::Rmp;

/// Page size used by the RMP, `pvalidate`, and `LAUNCH_UPDATE_DATA`.
pub const PAGE_SIZE: u64 = 4096;

type Page = [u8; PAGE_SIZE as usize];

/// What every untouched page reads as.
static ZERO_PAGE: Page = [0; PAGE_SIZE as usize];

/// A materialized page: the guest's own, or a page-sized window of an
/// immutable image buffer, staged by [`GuestMemory::host_share`] at its byte
/// offset there. A window is copied out before its first write.
#[derive(Debug, Clone)]
enum Slot {
    Own(Arc<Page>),
    Window(Arc<Vec<u8>>, usize),
}

impl Slot {
    fn bytes(&self) -> &Page {
        match self {
            Slot::Own(page) => page,
            Slot::Window(bytes, at) => bytes[*at..].first_chunk().expect("a whole page"),
        }
    }
}

/// One slot per guest page, `None` until the page is first written. A page
/// is shared with the snapshots taken of it until either side writes it.
type PageTable = Vec<Option<Slot>>;

/// The launch context a guest's memory belongs to: a fingerprint of its
/// memory-encryption key (none for a plain guest) and its SEV generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LaunchContext {
    key: Option<Digest256>,
    generation: SevGeneration,
}

/// A captured image of a guest's resident pages plus RMP state, used by
/// warm-start snapshots (§7.1). The content is the internal plaintext
/// representation, so an image restores only into the launch context (key)
/// it came from.
#[derive(Debug, Clone)]
pub struct MemoryImage {
    pages: PageTable,
    rmp: Rmp,
    context: LaunchContext,
}

impl MemoryImage {
    /// Bytes of captured page content.
    pub fn byte_len(&self) -> u64 {
        resident(&self.pages) as u64 * PAGE_SIZE
    }
}

/// The private copy [`GuestMemory::copy_to_private`] made: its pages, shared
/// copy-on-write with guest memory. A later write to either side copies the
/// page first, so the view keeps the bytes that were copied. It is `Send`,
/// so a digest of it can run on another thread.
#[derive(Debug, Clone)]
pub struct PageView(Vec<(Slot, Range<usize>)>);

impl PageView {
    /// The copied bytes, one slice per page, in address order.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.0.iter().map(|(slot, at)| &slot.bytes()[at.clone()])
    }
}

fn resident(pages: &PageTable) -> usize {
    pages.iter().filter(|p| p.is_some()).count()
}

/// Splits `[addr, addr + len)` at page boundaries into
/// `(page, offset in page, length)` pieces.
fn spans(addr: u64, len: u64) -> impl Iterator<Item = (u64, usize, usize)> {
    let end = addr + len;
    let mut cur = addr;
    std::iter::from_fn(move || {
        (cur < end).then(|| {
            let at = cur % PAGE_SIZE;
            let take = (PAGE_SIZE - at).min(end - cur);
            let span = (cur / PAGE_SIZE, at as usize, take as usize);
            cur += take;
            span
        })
    })
}

/// Simulated guest physical memory with SEV semantics.
///
/// Pages are materialized lazily: untouched memory reads as zeros, so VMs
/// with hundreds of megabytes of (mostly untouched) RAM stay cheap.
///
/// See the crate-level docs for the enforcement rules and the plaintext
/// representation note.
pub struct GuestMemory {
    size: u64,
    pages: PageTable,
    rmp: Rmp,
    engine: Option<XexCipher>,
    context: LaunchContext,
}

impl std::fmt::Debug for GuestMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuestMemory")
            .field("size", &self.size)
            .field("generation", &self.context.generation.name())
            .field("resident_pages", &self.resident_pages())
            .field("assigned_pages", &self.rmp.assigned_count())
            .finish()
    }
}

impl GuestMemory {
    fn new(size: u64, key: Option<[u8; 16]>, generation: SevGeneration) -> Self {
        let slots = usize::try_from(size.div_ceil(PAGE_SIZE)).expect("guest memory fits the host");
        GuestMemory {
            size,
            pages: vec![None; slots],
            rmp: Rmp::new(),
            engine: key.as_ref().map(XexCipher::new),
            context: LaunchContext {
                key: key.map(|key| sha256(&key)),
                generation,
            },
        }
    }

    /// Creates unencrypted guest memory (a stock microVM).
    pub fn new_plain(size: u64) -> Self {
        Self::new(size, None, SevGeneration::None)
    }

    /// Creates SEV guest memory with the given memory-encryption key.
    ///
    /// # Panics
    ///
    /// Panics if `generation` is [`SevGeneration::None`] (use
    /// [`GuestMemory::new_plain`]).
    pub fn new_sev(size: u64, key: [u8; 16], generation: SevGeneration) -> Self {
        assert!(generation.is_sev(), "use new_plain for non-SEV guests");
        Self::new(size, Some(key), generation)
    }

    /// Guest memory size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The SEV generation this memory was created with.
    pub fn generation(&self) -> SevGeneration {
        self.context.generation
    }

    /// Read-only view of the RMP (reports, assertions in tests).
    pub fn rmp(&self) -> &Rmp {
        &self.rmp
    }

    /// Number of pages that have been materialized (touched).
    pub fn resident_pages(&self) -> usize {
        resident(&self.pages)
    }

    /// SHA-256 of the host's view of every materialized page, in address
    /// order — what a KSM-style scanner could fingerprint (ciphertext for
    /// private pages, plaintext for shared ones). Untouched pages have no
    /// backing and cost a deduplicator nothing.
    ///
    /// # Errors
    ///
    /// Propagates [`GuestMemory::host_read`] faults.
    pub fn host_page_digests(&self) -> Result<Vec<[u8; 32]>, MemError> {
        (0u64..)
            .zip(&self.pages)
            .filter(|(_, slot)| slot.is_some())
            .map(|(p, _)| Ok(sha256(&self.host_read(p * PAGE_SIZE, PAGE_SIZE)?)))
            .collect()
    }

    fn check_range(&self, addr: u64, len: u64) -> Result<(), MemError> {
        if addr.checked_add(len).is_none_or(|end| end > self.size) {
            return Err(MemError::OutOfRange {
                addr,
                len,
                size: self.size,
            });
        }
        Ok(())
    }

    fn page_of(addr: u64) -> u64 {
        addr / PAGE_SIZE
    }

    /// The stored plaintext of an in-range page.
    fn page(&self, page: u64) -> &Page {
        let slot = &self.pages[page as usize];
        slot.as_ref().map_or(&ZERO_PAGE, Slot::bytes)
    }

    /// The page's slot, materialized as a zero page if it was untouched.
    fn slot_mut(&mut self, page: u64) -> &mut Slot {
        self.pages[page as usize].get_or_insert_with(|| Slot::Own(Arc::new(ZERO_PAGE)))
    }

    /// The page to write: an image window is copied out first, and a page
    /// a snapshot or a view still shares is copied first.
    fn page_mut(&mut self, page: u64) -> &mut Page {
        let slot = self.slot_mut(page);
        if let Slot::Window(..) = slot {
            *slot = Slot::Own(Arc::new(*slot.bytes()));
        }
        let Slot::Own(own) = slot else { unreachable!() };
        Arc::make_mut(own)
    }

    /// True if the page is private (guest-owned / encrypted).
    fn is_private(&self, page: u64) -> bool {
        self.rmp.state(page).assigned
    }

    /// True if the page containing `addr` is already validated (used by the
    /// boot verifier's sweep to skip pages the launch firmware validated).
    pub fn is_validated(&self, addr: u64) -> bool {
        self.rmp.state(Self::page_of(addr)).validated
    }

    /// True if the page containing `addr` is assigned to the guest.
    pub fn is_assigned(&self, addr: u64) -> bool {
        self.rmp.state(Self::page_of(addr)).assigned
    }

    // ---- Host-side operations ------------------------------------------------

    /// Host (VMM) write to guest memory.
    ///
    /// # Errors
    ///
    /// * [`MemError::OutOfRange`] outside guest memory.
    /// * [`MemError::HostWriteDenied`] when a touched page is guest-owned
    ///   under SEV-SNP (the RMP check).
    ///
    /// Under SEV/SEV-ES the write *succeeds* on private pages and corrupts
    /// the guest's plaintext (the written bytes land as ciphertext).
    pub fn host_write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.host_store(addr, data, None)
    }

    /// Host write of `bytes[range]` at `addr`: what
    /// [`GuestMemory::host_write`] of those bytes does, with the same
    /// checks, except that every whole destination page that is not
    /// guest-owned becomes a window of `bytes` instead of a copy. The
    /// window is copied out before the page is first written, so the
    /// buffer is never changed and a later write to the page lands exactly
    /// where it would on a copy. Partial and guest-owned pages are written
    /// as `host_write` writes them.
    ///
    /// # Errors
    ///
    /// Those of [`GuestMemory::host_write`]; nothing is written on an
    /// error.
    ///
    /// # Panics
    ///
    /// Panics if `range` is outside `bytes`, as slicing it would.
    pub fn host_share(
        &mut self,
        addr: u64,
        bytes: &Arc<Vec<u8>>,
        range: Range<usize>,
    ) -> Result<(), MemError> {
        self.host_store(addr, &bytes[range.clone()], Some((bytes, range.start)))
    }

    /// The host write behind [`GuestMemory::host_write`] and
    /// [`GuestMemory::host_share`]: the range and RMP checks, then page by
    /// page. `image` is the buffer `data` lies in and its offset there,
    /// when its whole pages are to be shared.
    fn host_store(
        &mut self,
        addr: u64,
        data: &[u8],
        image: Option<(&Arc<Vec<u8>>, usize)>,
    ) -> Result<(), MemError> {
        self.check_range(addr, data.len() as u64)?;
        // SNP: deny if any touched page is guest-owned.
        if self.context.generation.has_rmp() {
            let first = Self::page_of(addr);
            let last = Self::page_of(addr + data.len().max(1) as u64 - 1);
            for page in first..=last {
                if self.is_private(page) {
                    return Err(MemError::HostWriteDenied {
                        page_addr: page * PAGE_SIZE,
                    });
                }
            }
        }
        let mut from = 0;
        for (page, at, take) in spans(addr, data.len() as u64) {
            let (chunk, private) = (&data[from..from + take], self.is_private(page));
            match (&self.engine, image) {
                (_, Some((bytes, start))) if take == PAGE_SIZE as usize && !private => {
                    self.pages[page as usize] = Some(Slot::Window(Arc::clone(bytes), start + from));
                }
                (Some(engine), _) if private => {
                    // SEV without RMP: the host's bytes become ciphertext;
                    // the guest will observe their decryption. Compute the
                    // new plaintext so every later observer sees consistent
                    // bytes.
                    let page_addr = page * PAGE_SIZE;
                    let mut cipher_view = engine.encrypt(page_addr, self.page(page));
                    cipher_view[at..at + take].copy_from_slice(chunk);
                    let new_plain = engine.decrypt(page_addr, &cipher_view);
                    self.page_mut(page).copy_from_slice(&new_plain);
                }
                _ => self.page_mut(page)[at..at + take].copy_from_slice(chunk),
            }
            from += take;
        }
        Ok(())
    }

    /// Host (VMM) read of guest memory: private pages come back as
    /// ciphertext, shared pages as stored.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] outside guest memory.
    pub fn host_read(&self, addr: u64, len: u64) -> Result<Vec<u8>, MemError> {
        self.check_range(addr, len)?;
        let mut out = Vec::with_capacity(len as usize);
        for (page, at, take) in spans(addr, len) {
            let plain = self.page(page);
            if self.is_private(page) {
                let engine = self.engine.as_ref().expect("private page implies SEV");
                let cipher = engine.encrypt(page * PAGE_SIZE, plain);
                out.extend_from_slice(&cipher[at..at + take]);
            } else {
                out.extend_from_slice(&plain[at..at + take]);
            }
        }
        Ok(out)
    }

    // ---- Hypervisor RMP operations --------------------------------------------

    /// Hypervisor `RMPUPDATE`: assigns `[addr, addr+len)` (page aligned) to
    /// the guest as private memory.
    ///
    /// # Errors
    ///
    /// [`MemError::Unaligned`] / [`MemError::OutOfRange`] on bad ranges.
    pub fn rmp_assign(&mut self, addr: u64, len: u64) -> Result<(), MemError> {
        if !addr.is_multiple_of(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) {
            return Err(MemError::Unaligned { addr });
        }
        self.check_range(addr, len)?;
        for page in Self::page_of(addr)..Self::page_of(addr + len) {
            self.rmp.assign(page);
        }
        Ok(())
    }

    /// Hypervisor changes the mapping of a validated private page (the
    /// attack/remap scenario): hardware clears the valid bit.
    ///
    /// # Errors
    ///
    /// [`MemError::Unaligned`] / [`MemError::OutOfRange`] on bad addresses.
    pub fn remap_by_host(&mut self, addr: u64) -> Result<(), MemError> {
        if !addr.is_multiple_of(PAGE_SIZE) {
            return Err(MemError::Unaligned { addr });
        }
        self.check_range(addr, PAGE_SIZE)?;
        self.rmp.remap_by_host(Self::page_of(addr));
        Ok(())
    }

    // ---- Guest-side operations --------------------------------------------------

    /// Guest `pvalidate` over `[addr, addr+len)` (page aligned). Returns the
    /// number of pages validated.
    ///
    /// # Errors
    ///
    /// * [`MemError::PvalidateUnsupported`] unless the guest is SEV-SNP.
    /// * [`MemError::NotAssigned`] if the hypervisor has not assigned a page.
    /// * [`MemError::AlreadyValidated`] on double validation.
    pub fn pvalidate(&mut self, addr: u64, len: u64) -> Result<u64, MemError> {
        if !self.context.generation.has_rmp() {
            return Err(MemError::PvalidateUnsupported);
        }
        if !addr.is_multiple_of(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) {
            return Err(MemError::Unaligned { addr });
        }
        self.check_range(addr, len)?;
        let mut count = 0;
        for page in Self::page_of(addr)..Self::page_of(addr + len) {
            if !self.rmp.state(page).assigned {
                return Err(MemError::NotAssigned {
                    page_addr: page * PAGE_SIZE,
                });
            }
            if self.rmp.validate(page) {
                return Err(MemError::AlreadyValidated {
                    page_addr: page * PAGE_SIZE,
                });
            }
            count += 1;
        }
        Ok(count)
    }

    fn guest_check(&self, addr: u64, len: u64, encrypted: bool) -> Result<(), MemError> {
        self.check_range(addr, len)?;
        if !encrypted {
            return Ok(());
        }
        if self.engine.is_none() {
            return Err(MemError::EncryptionUnavailable);
        }
        if self.context.generation.has_rmp() {
            let first = Self::page_of(addr);
            let last = Self::page_of(addr + len.max(1) - 1);
            for page in first..=last {
                let state = self.rmp.state(page);
                if !state.validated {
                    return Err(MemError::VcException {
                        page_addr: page * PAGE_SIZE,
                        reason: if state.remapped {
                            VcReason::RemappedByHost
                        } else {
                            VcReason::NotValidated
                        },
                    });
                }
            }
        }
        Ok(())
    }

    /// Guest write; `encrypted` selects a C-bit (private) mapping.
    ///
    /// # Errors
    ///
    /// * [`MemError::OutOfRange`] outside guest memory.
    /// * [`MemError::EncryptionUnavailable`] for an encrypted access on a
    ///   non-SEV guest.
    /// * [`MemError::VcException`] for a private access to an unvalidated or
    ///   remapped page under SNP.
    pub fn guest_write(&mut self, addr: u64, data: &[u8], encrypted: bool) -> Result<(), MemError> {
        self.guest_check(addr, data.len() as u64, encrypted)?;
        // Both mappings store into the plaintext representation.
        let mut rest = data;
        for (page, at, take) in spans(addr, data.len() as u64) {
            let (chunk, tail) = rest.split_at(take);
            rest = tail;
            self.page_mut(page)[at..at + take].copy_from_slice(chunk);
        }
        Ok(())
    }

    /// Guest write of `len` zero bytes through the private mapping: what
    /// [`GuestMemory::guest_write`] of that many zeros (`encrypted = true`)
    /// does, without a buffer of them.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GuestMemory::guest_write`].
    pub fn guest_zero(&mut self, addr: u64, len: u64) -> Result<(), MemError> {
        self.guest_check(addr, len, true)?;
        for (page, at, take) in spans(addr, len) {
            self.page_mut(page)[at..at + take].fill(0);
        }
        Ok(())
    }

    /// Guest read; `encrypted` selects a C-bit (private) mapping.
    ///
    /// Reading a *private* page through a *shared* mapping (`encrypted =
    /// false`) yields ciphertext, exactly as on hardware.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GuestMemory::guest_write`].
    pub fn guest_read(&self, addr: u64, len: u64, encrypted: bool) -> Result<Vec<u8>, MemError> {
        self.guest_check(addr, len, encrypted)?;
        if encrypted {
            // Private mapping: plaintext view.
            let mut out = Vec::with_capacity(len as usize);
            for (page, at, take) in spans(addr, len) {
                out.extend_from_slice(&self.page(page)[at..at + take]);
            }
            Ok(out)
        } else {
            // Shared mapping behaves like the host view (ciphertext for
            // private pages).
            self.host_read(addr, len)
        }
    }

    /// Guest copy of `len` bytes from the shared mapping at `src` to the
    /// private mapping at `dst`: what [`GuestMemory::guest_read`] of `src`
    /// (`encrypted = false`) then [`GuestMemory::guest_write`] of the bytes
    /// to `dst` (`encrypted = true`) would do, with the same checks in the
    /// same order. Returns a view of the private copy.
    ///
    /// A whole destination page whose source is a whole shared page takes
    /// that page copy-on-write (an untouched source gives a fresh zero
    /// page, so as many pages are resident as after a byte copy). Partial
    /// pages, private sources (read as ciphertext) and overlapping ranges
    /// are copied byte by byte.
    ///
    /// # Errors
    ///
    /// Those of [`GuestMemory::guest_read`] on `src`, then those of
    /// [`GuestMemory::guest_write`] on `dst`; nothing is copied on an
    /// error.
    pub fn copy_to_private(&mut self, src: u64, dst: u64, len: u64) -> Result<PageView, MemError> {
        self.guest_check(src, len, false)?;
        self.guest_check(dst, len, true)?;
        if src.abs_diff(dst) < len {
            let staged = self.host_read(src, len)?;
            self.guest_write(dst, &staged, true)?;
        } else {
            for (page, at, take) in spans(dst, len) {
                let from = src + (page * PAGE_SIZE + at as u64 - dst);
                let whole = take == PAGE_SIZE as usize && from.is_multiple_of(PAGE_SIZE);
                if whole && !self.is_private(Self::page_of(from)) {
                    // An untouched source empties the slot, and taking the
                    // view below gives it a fresh zero page.
                    self.pages[page as usize] = self.pages[Self::page_of(from) as usize].clone();
                } else {
                    let bytes = self.host_read(from, take as u64)?;
                    self.page_mut(page)[at..at + take].copy_from_slice(&bytes);
                }
            }
        }
        let view =
            spans(dst, len).map(|(page, at, take)| (self.slot_mut(page).clone(), at..at + take));
        Ok(PageView(view.collect()))
    }

    // ---- Snapshot support (warm-start exploration, paper §7.1) -------------------

    /// Captures the resident pages and RMP state as a [`MemoryImage`]. The
    /// image shares the pages copy-on-write: taking it copies the page
    /// table, not page contents.
    pub fn clone_pages(&self) -> MemoryImage {
        MemoryImage {
            pages: self.pages.clone(),
            rmp: self.rmp.clone(),
            context: self.context,
        }
    }

    /// Replaces this guest's pages and RMP state with a captured image.
    /// Returns the number of bytes installed.
    ///
    /// # Errors
    ///
    /// [`MemError::ForeignImage`] if the image was captured under another
    /// memory-encryption key or SEV generation: on hardware its ciphertext
    /// would decrypt to noise under this guest's key, and the RMP state is
    /// not the host's to move.
    pub fn restore_pages(&mut self, image: &MemoryImage) -> Result<u64, MemError> {
        if image.context != self.context {
            return Err(MemError::ForeignImage);
        }
        self.pages.clone_from(&image.pages);
        self.rmp.clone_from(&image.rmp);
        Ok(image.byte_len())
    }

    // ---- PSP-side operation -----------------------------------------------------

    /// The memory half of `LAUNCH_UPDATE_DATA`: returns the plaintext of the
    /// (page-aligned) region for the PSP to measure, marks the pages
    /// private, and (as SNP firmware does for launch pages) pre-validates
    /// them.
    ///
    /// # Errors
    ///
    /// [`MemError::Unaligned`] / [`MemError::OutOfRange`] on bad ranges, and
    /// [`MemError::EncryptionUnavailable`] for non-SEV guests.
    pub fn pre_encrypt(&mut self, addr: u64, len: u64) -> Result<Vec<u8>, MemError> {
        if self.engine.is_none() {
            return Err(MemError::EncryptionUnavailable);
        }
        if !addr.is_multiple_of(PAGE_SIZE) {
            return Err(MemError::Unaligned { addr });
        }
        // Saturating: an absurd `len` must fail the range check, not wrap.
        let padded = len.div_ceil(PAGE_SIZE).saturating_mul(PAGE_SIZE);
        self.check_range(addr, padded)?;
        let pages = Self::page_of(addr)..Self::page_of(addr + padded);
        let mut plaintext = Vec::with_capacity(padded as usize);
        for page in pages.clone() {
            plaintext.extend_from_slice(self.page(page));
        }
        for page in pages {
            self.rmp.assign(page);
            self.rmp.validate(page);
        }
        Ok(plaintext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    fn snp_mem() -> GuestMemory {
        GuestMemory::new_sev(4 * MB, [9u8; 16], SevGeneration::SevSnp)
    }

    #[test]
    fn plain_memory_roundtrips() {
        let mut mem = GuestMemory::new_plain(MB);
        mem.host_write(100, b"hello").unwrap();
        assert_eq!(mem.host_read(100, 5).unwrap(), b"hello");
        assert_eq!(mem.guest_read(100, 5, false).unwrap(), b"hello");
    }

    #[test]
    fn untouched_memory_reads_zero() {
        let mem = GuestMemory::new_plain(MB);
        assert_eq!(mem.host_read(4000, 200).unwrap(), vec![0u8; 200]);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn out_of_range_rejected() {
        let mem = GuestMemory::new_plain(MB);
        assert!(matches!(
            mem.host_read(MB - 1, 2),
            Err(MemError::OutOfRange { .. })
        ));
    }

    #[test]
    fn snp_blocks_host_writes_to_private_pages() {
        let mut mem = snp_mem();
        mem.rmp_assign(0, PAGE_SIZE).unwrap();
        assert!(matches!(
            mem.host_write(10, b"evil"),
            Err(MemError::HostWriteDenied { .. })
        ));
        // Shared pages still writable.
        mem.host_write(PAGE_SIZE, b"fine").unwrap();
    }

    #[test]
    fn guest_private_access_requires_pvalidate() {
        let mut mem = snp_mem();
        mem.rmp_assign(0, PAGE_SIZE).unwrap();
        assert!(matches!(
            mem.guest_write(0, b"x", true),
            Err(MemError::VcException { .. })
        ));
        mem.pvalidate(0, PAGE_SIZE).unwrap();
        mem.guest_write(0, b"x", true).unwrap();
        assert_eq!(mem.guest_read(0, 1, true).unwrap(), b"x");
    }

    #[test]
    fn host_sees_ciphertext_of_private_pages() {
        let mut mem = snp_mem();
        mem.rmp_assign(0, PAGE_SIZE).unwrap();
        mem.pvalidate(0, PAGE_SIZE).unwrap();
        mem.guest_write(0, b"confidential kernel", true).unwrap();
        let host_view = mem.host_read(0, 19).unwrap();
        assert_ne!(host_view, b"confidential kernel");
        // Shared-mapping guest read sees the same ciphertext.
        assert_eq!(mem.guest_read(0, 19, false).unwrap(), host_view);
    }

    #[test]
    fn identical_plaintext_differs_across_pages() {
        let mut mem = snp_mem();
        mem.rmp_assign(0, 2 * PAGE_SIZE).unwrap();
        mem.pvalidate(0, 2 * PAGE_SIZE).unwrap();
        mem.guest_write(0, &[0x41; 64], true).unwrap();
        mem.guest_write(PAGE_SIZE, &[0x41; 64], true).unwrap();
        let a = mem.host_read(0, 64).unwrap();
        let b = mem.host_read(PAGE_SIZE, 64).unwrap();
        assert_ne!(a, b, "XEX address tweak must separate pages");
    }

    #[test]
    fn remap_raises_vc_on_next_access() {
        let mut mem = snp_mem();
        mem.rmp_assign(0, PAGE_SIZE).unwrap();
        mem.pvalidate(0, PAGE_SIZE).unwrap();
        mem.guest_write(0, b"data", true).unwrap();
        mem.remap_by_host(0).unwrap();
        match mem.guest_read(0, 4, true) {
            Err(MemError::VcException { reason, .. }) => {
                assert_eq!(reason, VcReason::RemappedByHost);
            }
            other => panic!("expected #VC, got {other:?}"),
        }
    }

    #[test]
    fn double_pvalidate_detected() {
        let mut mem = snp_mem();
        mem.rmp_assign(0, PAGE_SIZE).unwrap();
        mem.pvalidate(0, PAGE_SIZE).unwrap();
        assert!(matches!(
            mem.pvalidate(0, PAGE_SIZE),
            Err(MemError::AlreadyValidated { .. })
        ));
    }

    #[test]
    fn pvalidate_requires_assignment_and_snp() {
        let mut mem = snp_mem();
        assert!(matches!(
            mem.pvalidate(0, PAGE_SIZE),
            Err(MemError::NotAssigned { .. })
        ));
        let mut sev = GuestMemory::new_sev(MB, [1u8; 16], SevGeneration::Sev);
        assert_eq!(
            sev.pvalidate(0, PAGE_SIZE),
            Err(MemError::PvalidateUnsupported)
        );
    }

    #[test]
    fn plain_sev_lets_host_corrupt_private_memory() {
        // The integrity gap SNP closes: under base SEV the host CAN write.
        let mut mem = GuestMemory::new_sev(MB, [1u8; 16], SevGeneration::Sev);
        mem.pre_encrypt(0, PAGE_SIZE).unwrap();
        mem.guest_write(0, b"guest data", true).unwrap();
        mem.host_write(0, b"overwrite!").unwrap();
        let seen = mem.guest_read(0, 10, true).unwrap();
        assert_ne!(seen, b"guest data", "write must land");
        assert_ne!(seen, b"overwrite!", "but be scrambled by decryption");
    }

    #[test]
    fn pre_encrypt_returns_plaintext_and_privatizes() {
        let mut mem = snp_mem();
        mem.host_write(0, b"initial boot code").unwrap();
        let measured = mem.pre_encrypt(0, PAGE_SIZE).unwrap();
        assert_eq!(&measured[..17], b"initial boot code");
        assert_eq!(measured.len(), PAGE_SIZE as usize);
        // Now private: host read is ciphertext, guest private read works.
        assert_ne!(&mem.host_read(0, 17).unwrap(), b"initial boot code");
        assert_eq!(mem.guest_read(0, 17, true).unwrap(), b"initial boot code");
    }

    #[test]
    fn encrypted_access_without_sev_fails() {
        let mut mem = GuestMemory::new_plain(MB);
        assert_eq!(
            mem.guest_write(0, b"x", true),
            Err(MemError::EncryptionUnavailable)
        );
    }

    #[test]
    fn cross_page_writes_and_reads() {
        let mut mem = snp_mem();
        mem.rmp_assign(0, 3 * PAGE_SIZE).unwrap();
        mem.pvalidate(0, 3 * PAGE_SIZE).unwrap();
        let data: Vec<u8> = (0..(2 * PAGE_SIZE + 100) as usize)
            .map(|i| (i % 251) as u8)
            .collect();
        mem.guest_write(PAGE_SIZE / 2, &data, true).unwrap();
        assert_eq!(
            mem.guest_read(PAGE_SIZE / 2, data.len() as u64, true)
                .unwrap(),
            data
        );
    }

    #[test]
    fn unaligned_rmp_ops_rejected() {
        let mut mem = snp_mem();
        assert!(matches!(
            mem.rmp_assign(10, PAGE_SIZE),
            Err(MemError::Unaligned { .. })
        ));
        assert!(matches!(
            mem.remap_by_host(10),
            Err(MemError::Unaligned { .. })
        ));
        assert!(matches!(
            mem.pvalidate(10, PAGE_SIZE),
            Err(MemError::PvalidateUnsupported | MemError::Unaligned { .. })
        ));
    }
}
