//! Kernel loaders used by the boot verifier.
//!
//! Two protocols (§4.4 / §5 of the paper):
//!
//! * **bzImage**: the verifier copies the whole image to its private
//!   destination and checks the setup header; the bzImage's own bootstrap
//!   loader later decompresses the vmlinux (the "Bootstrap Loader" phase of
//!   Fig. 11).
//! * **fw_cfg vmlinux**: the ELF header, program headers, and loadable
//!   segments are staged as three pieces; each is copied into encrypted
//!   memory and hashed separately, with segments going *directly* to their
//!   load addresses — avoiding the extra whole-file copy the naive approach
//!   would pay (§5).

use sevf_crypto::Sha256;
use sevf_image::bzimage;
use sevf_image::elf::{self, EHDR_SIZE, PHDR_SIZE};
use sevf_image::ImageError;
use sevf_mem::{GuestMemory, PageView};
use sevf_sim::{CostModel, PhaseKind, Step, Work};

use crate::layout::GuestLayout;
use crate::VerifierError;

/// A step of the verifier's own work: everything it does, the loaders
/// included, is boot verification.
pub(crate) fn step(cost: &CostModel, label: impl Into<String>, work: Work) -> Step {
    cost.step(PhaseKind::BootVerification, label, work)
}

/// Outcome of loading a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedKernel {
    /// Guest-physical entry point.
    pub entry: u64,
    /// Hash(es) the loader computed, in hash-page order.
    pub computed_hashes: Vec<[u8; 32]>,
    /// Priced steps performed.
    pub steps: Vec<Step>,
}

/// SHA-256 of a private copy's pages ([`PageView::chunks`]), absorbed page
/// by page. Every digest is taken over the private copy, not the staged one
/// (§2.5 step 5: hashing the shared one would let the host race the check).
pub(crate) fn digest<'p>(pages: impl Iterator<Item = &'p [u8]>) -> [u8; 32] {
    let mut hasher = Sha256::new();
    pages.for_each(|page| hasher.update(page));
    hasher.finalize()
}

/// The first `len` bytes of a private copy (all of them if it is shorter).
fn leading(private: &PageView, len: usize) -> Vec<u8> {
    private.chunks().flatten().take(len).copied().collect()
}

/// Loads a bzImage: copies the whole image to its private destination,
/// hashes the copy and checks its setup header.
///
/// # Errors
///
/// A fault copying it, then a malformed setup header.
pub(crate) fn load_bzimage(
    mem: &mut GuestMemory,
    layout: &GuestLayout,
    cost: &CostModel,
) -> Result<LoadedKernel, VerifierError> {
    let size = layout.kernel_size;
    let private = mem.copy_to_private(layout.kernel_staging, layout.kernel_dest, size)?;
    let digest = digest(private.chunks());
    bzimage::payload_range(&leading(&private, bzimage::HEADER_LEN), size as usize)?;
    Ok(LoadedKernel {
        entry: layout.kernel_dest,
        computed_hashes: vec![digest],
        steps: vec![
            step(
                cost,
                format!("copy bzImage ({size} B) to encrypted memory"),
                Work::CopyEncrypted(size),
            ),
            step(cost, "SHA-256 bzImage", Work::Sha256(size)),
            step(cost, "parse setup header", Work::SetupHeader),
        ],
    })
}

/// Loads an uncompressed vmlinux via the three-piece fw_cfg protocol. The
/// ELF fields are read through `sevf_image::elf`'s [`elf::header`] and
/// [`elf::load_segments`], so this loader refuses what the host-side reader
/// refuses.
///
/// # Errors
///
/// Memory faults and malformed ELFs surface as [`VerifierError`]s.
pub fn load_vmlinux_fw_cfg(
    mem: &mut GuestMemory,
    layout: &GuestLayout,
    cost: &CostModel,
) -> Result<LoadedKernel, VerifierError> {
    let mut steps = Vec::new();

    // Piece 1: ELF header → encrypted scratch (reuse the destination base).
    let ehdr_len = EHDR_SIZE as u64;
    let private = mem.copy_to_private(layout.kernel_staging, layout.kernel_dest, ehdr_len)?;
    let (ehdr, ehdr_hash) = (leading(&private, EHDR_SIZE), digest(private.chunks()));
    steps.push(step(
        cost,
        "copy + hash ELF header",
        Work::All(vec![
            Work::CopyEncrypted(ehdr_len),
            Work::Sha256(ehdr_len),
            Work::ElfHeader,
        ]),
    ));
    // The program headers follow the ELF header in staging, whatever
    // `e_phoff` says.
    let (entry, _, phnum) = elf::header(&ehdr)?;
    if phnum == 0 || phnum > 64 {
        return Err(ImageError::BadElf("implausible program header count").into());
    }

    // Piece 2: program headers.
    let phdrs_len = (phnum * PHDR_SIZE) as u64;
    let staged = layout.kernel_staging + ehdr_len;
    let private = mem.copy_to_private(staged, layout.kernel_dest + ehdr_len, phdrs_len)?;
    let phdrs = leading(&private, phnum * PHDR_SIZE);
    let phdrs_hash = digest(private.chunks());
    steps.push(step(
        cost,
        "copy + hash program headers",
        Work::All(vec![
            Work::CopyEncrypted(phdrs_len),
            Work::Sha256(phdrs_len),
        ]),
    ));

    // Piece 3: loadable segments, staged back to back in table order (so
    // `p_offset` is not read), copied straight to their run addresses (no
    // intermediate whole-file copy — §5).
    let segments = elf::load_segments(&phdrs, |_, filesz| Ok(filesz))?;
    let mut seg_hasher = Sha256::new();
    let mut staged_cursor = staged + phdrs_len;
    // Encrypted memory receives each segment with its bss; the hash covers
    // only the bytes that were staged.
    let (mut copied_total, mut hashed_total) = (0u64, 0u64);
    for seg in &segments {
        let (filesz, memsz) = (seg.data, seg.data + seg.bss);
        // The host wrote this header: refuse a segment that does not fit
        // in guest memory before reading or zeroing it.
        let end = seg.vaddr.checked_add(memsz);
        if end.is_none_or(|end| end > mem.size()) {
            return Err(ImageError::BadElf("segment outside guest memory").into());
        }
        let private = mem.copy_to_private(staged_cursor, seg.vaddr, filesz)?;
        private.chunks().for_each(|chunk| seg_hasher.update(chunk));
        if seg.bss > 0 {
            mem.guest_zero(seg.vaddr + filesz, seg.bss)?;
        }
        staged_cursor += filesz;
        copied_total += memsz;
        hashed_total += filesz;
    }
    steps.push(step(
        cost,
        format!("copy + hash {phnum} loadable segments"),
        Work::All(vec![
            Work::CopyEncrypted(copied_total),
            Work::Sha256(hashed_total),
            Work::ElfSegments(phnum as u64),
        ]),
    ));

    Ok(LoadedKernel {
        entry,
        computed_hashes: vec![ehdr_hash, phdrs_hash, seg_hasher.finalize()],
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sevf_codec::Codec;
    use sevf_image::kernel::KernelConfig;
    use sevf_sim::cost::SevGeneration;

    const MB: u64 = 1024 * 1024;

    fn staged_guest(image_bytes: &[u8], initrd: &[u8]) -> (GuestMemory, GuestLayout) {
        let mut mem = GuestMemory::new_sev(64 * MB, [5u8; 16], SevGeneration::SevSnp);
        let layout =
            GuestLayout::plan(64 * MB, image_bytes.len() as u64, initrd.len() as u64).unwrap();
        // The hypervisor assigns the private range and (for this test) the
        // verifier has already validated it.
        mem.rmp_assign(0, layout.staging_base).unwrap();
        mem.pvalidate(0, layout.staging_base).unwrap();
        mem.host_write(layout.kernel_staging, image_bytes).unwrap();
        mem.host_write(layout.initrd_staging, initrd).unwrap();
        (mem, layout)
    }

    #[test]
    fn bzimage_load_places_and_hashes() {
        let image = KernelConfig::test_tiny().build();
        let bz = image.bzimage(Codec::Lz4);
        let (mut mem, layout) = staged_guest(&bz, b"initrd");
        let loaded = load_bzimage(&mut mem, &layout, &CostModel::calibrated()).unwrap();
        assert_eq!(loaded.entry, layout.kernel_dest);
        assert_eq!(loaded.computed_hashes, vec![sevf_crypto::sha256(&bz)]);
        // The private copy equals the staged image.
        let private = mem
            .guest_read(layout.kernel_dest, bz.len() as u64, true)
            .unwrap();
        assert_eq!(private, *bz);
    }

    #[test]
    fn bzimage_rejects_garbage() {
        let junk = vec![0u8; 100_000];
        let (mut mem, layout) = staged_guest(&junk, b"initrd");
        assert!(matches!(
            load_bzimage(&mut mem, &layout, &CostModel::calibrated()),
            Err(VerifierError::Image(_))
        ));
    }

    #[test]
    fn fw_cfg_load_reassembles_segments() {
        let image = KernelConfig::test_tiny().build();
        let (ehdr, phdrs, segs) = image.elf().fw_cfg_pieces();
        let mut staged = ehdr.clone();
        staged.extend_from_slice(&phdrs);
        staged.extend_from_slice(&segs);
        let (mut mem, layout) = staged_guest(&staged, b"initrd");
        let loaded = load_vmlinux_fw_cfg(&mut mem, &layout, &CostModel::calibrated()).unwrap();
        assert_eq!(loaded.entry, image.elf().entry);
        assert_eq!(
            loaded.computed_hashes,
            vec![
                sevf_crypto::sha256(&ehdr),
                sevf_crypto::sha256(&phdrs),
                sevf_crypto::sha256(&segs)
            ]
        );
        // First segment is loaded at its vaddr with the descriptor intact.
        let seg0 = &image.elf().segments[0];
        let loaded_bytes = mem
            .guest_read(seg0.vaddr, seg0.data.len() as u64, true)
            .unwrap();
        assert_eq!(loaded_bytes, seg0.data);
    }

    #[test]
    fn fw_cfg_rejects_bad_header() {
        let staged = vec![0u8; 1000];
        let (mut mem, layout) = staged_guest(&staged, b"initrd");
        assert!(load_vmlinux_fw_cfg(&mut mem, &layout, &CostModel::calibrated()).is_err());
    }

    #[test]
    fn loading_into_unvalidated_memory_faults() {
        let image = KernelConfig::test_tiny().build();
        let bz = image.bzimage(Codec::Lz4);
        let mut mem = GuestMemory::new_sev(64 * MB, [5u8; 16], SevGeneration::SevSnp);
        let layout = GuestLayout::plan(64 * MB, bz.len() as u64, 6).unwrap();
        mem.host_write(layout.kernel_staging, &bz).unwrap();
        // No assign/pvalidate of the destination: #VC.
        assert!(matches!(
            load_bzimage(&mut mem, &layout, &CostModel::calibrated()),
            Err(VerifierError::Memory(_))
        ));
    }
}
