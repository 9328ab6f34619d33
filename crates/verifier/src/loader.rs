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
use sevf_image::elf::{EHDR_SIZE, PHDR_SIZE};
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

/// SHA-256 of a private copy, absorbed page by page. Every digest is taken
/// over the private copy, not the staged one (§2.5 step 5: hashing the
/// shared one would let the host race the check).
pub(crate) fn digest(private: &PageView) -> [u8; 32] {
    let mut hasher = Sha256::new();
    private.chunks().for_each(|chunk| hasher.update(chunk));
    hasher.finalize()
}

/// The first `len` bytes of a private copy (all of them if it is shorter).
fn leading(private: &PageView, len: usize) -> Vec<u8> {
    private.chunks().flatten().take(len).copied().collect()
}

/// Finishes a bzImage load once the private copy is made: hashes it,
/// checks the setup header and prices the load.
pub(crate) fn finish_bzimage(
    private: &PageView,
    layout: &GuestLayout,
    cost: &CostModel,
) -> Result<LoadedKernel, VerifierError> {
    let digest = digest(private);
    let size = layout.kernel_size;
    bzimage::payload_range(&leading(private, bzimage::HEADER_LEN), size as usize)?;
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

/// Loads an uncompressed vmlinux via the three-piece fw_cfg protocol.
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
    let (ehdr, ehdr_hash) = (leading(&private, EHDR_SIZE), digest(&private));
    steps.push(step(
        cost,
        "copy + hash ELF header",
        Work::All(vec![
            Work::CopyEncrypted(ehdr_len),
            Work::Sha256(ehdr_len),
            Work::ElfHeader,
        ]),
    ));
    let phnum = usize::from(u16::from_le_bytes([ehdr[56], ehdr[57]]));
    if phnum == 0 || phnum > 64 {
        return Err(ImageError::BadElf("implausible program header count").into());
    }
    let entry = u64::from_le_bytes(ehdr[24..32].try_into().expect("8"));

    // Piece 2: program headers.
    let phdrs_len = (phnum * PHDR_SIZE) as u64;
    let staged = layout.kernel_staging + ehdr_len;
    let private = mem.copy_to_private(staged, layout.kernel_dest + ehdr_len, phdrs_len)?;
    let (phdrs, phdrs_hash) = (leading(&private, phnum * PHDR_SIZE), digest(&private));
    steps.push(step(
        cost,
        "copy + hash program headers",
        Work::All(vec![
            Work::CopyEncrypted(phdrs_len),
            Work::Sha256(phdrs_len),
        ]),
    ));

    // Piece 3: loadable segments, staged back to back, copied straight to
    // their run addresses (no intermediate whole-file copy — §5).
    let mut seg_hasher = Sha256::new();
    let mut staged_cursor = staged + phdrs_len;
    // Encrypted memory receives each segment with its bss; the hash covers
    // only the bytes that were staged.
    let (mut copied_total, mut hashed_total) = (0u64, 0u64);
    for i in 0..phnum {
        let ph = &phdrs[i * PHDR_SIZE..(i + 1) * PHDR_SIZE];
        let p_type = u32::from_le_bytes(ph[0..4].try_into().expect("4"));
        if p_type != 1 {
            continue;
        }
        let vaddr = u64::from_le_bytes(ph[16..24].try_into().expect("8"));
        let filesz = u64::from_le_bytes(ph[32..40].try_into().expect("8"));
        let memsz = u64::from_le_bytes(ph[40..48].try_into().expect("8"));
        // The host wrote this header: refuse a segment that does not fit
        // in guest memory before reading, zeroing or allocating for it.
        if memsz < filesz {
            return Err(ImageError::BadElf("memsz smaller than filesz").into());
        }
        if vaddr.checked_add(memsz).is_none_or(|end| end > mem.size()) {
            return Err(ImageError::BadElf("segment outside guest memory").into());
        }
        let private = mem.copy_to_private(staged_cursor, vaddr, filesz)?;
        private.chunks().for_each(|chunk| seg_hasher.update(chunk));
        // Zero the bss tail the segment declares.
        if memsz > filesz {
            mem.guest_write(vaddr + filesz, &vec![0u8; (memsz - filesz) as usize], true)?;
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

    /// The bzImage load `verify::run` performs.
    fn copy_and_finish(
        mem: &mut GuestMemory,
        layout: &GuestLayout,
    ) -> Result<LoadedKernel, VerifierError> {
        let (staging, dest) = (layout.kernel_staging, layout.kernel_dest);
        let private = mem.copy_to_private(staging, dest, layout.kernel_size)?;
        finish_bzimage(&private, layout, &CostModel::calibrated())
    }

    #[test]
    fn bzimage_load_places_and_hashes() {
        let image = KernelConfig::test_tiny().build();
        let bz = image.bzimage(Codec::Lz4);
        let (mut mem, layout) = staged_guest(&bz, b"initrd");
        let loaded = copy_and_finish(&mut mem, &layout).unwrap();
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
            copy_and_finish(&mut mem, &layout),
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
            copy_and_finish(&mut mem, &layout),
            Err(VerifierError::Memory(_))
        ));
    }
}
