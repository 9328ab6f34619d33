//! The guest-kernel runtime: from kernel entry to `init`.
//!
//! Stands in for executing Linux. Two stages:
//!
//! * **Bootstrap loader** (bzImage boots only, Fig. 11's third bar): the
//!   setup stub decompresses the payload — really decompressed here, with
//!   the codec's calibrated throughput — parses the inner ELF, and places
//!   its segments. The VMM runs it as the verifier's continuation
//!   ([`sevf_verifier::verify::run_then`]): once the kernel's digest is
//!   checked, while the initrd's is still being taken on a second host
//!   thread. Verdicts keep the sequential order — kernel copy fault,
//!   malformed image, hash-page mode, kernel hash, initrd copy fault, initrd
//!   hash — and the loader's own outcome comes after all of them: a refused
//!   initrd discards it.
//! * **Linux boot**: validates `boot_params`, the mptable, and the command
//!   line (all read from pre-encrypted memory), unpacks the initrd CPIO and
//!   checks `/init` is runnable, then replays the boot-phase costs from the
//!   kernel's embedded descriptor, multiplied by the SEV generation factor
//!   (§6.2: ≈ 2.3× under SNP from #VC handling and RMP-checked writes).

use sevf_image::bzimage;
use sevf_image::cpio;
use sevf_image::elf::ElfImage;
use sevf_image::kernel::KernelDescriptor;
use sevf_image::ImageError;
use sevf_mem::{GuestMemory, PAGE_SIZE};
use sevf_sim::cost::{CostModel, SevGeneration, Step, Work};
use sevf_sim::PhaseKind;
use sevf_verifier::layout::{BOOT_PARAMS_ADDR, CMDLINE_ADDR, MPTABLE_ADDR};

use crate::boot_params::BootParams;
use crate::cmdline;
use crate::mptable;

/// Errors from the guest kernel's own boot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuestBootError {
    /// Memory fault while the kernel ran.
    Memory(sevf_mem::MemError),
    /// A boot image failed to decompress or parse: the bzImage payload,
    /// the ELF inside it, or the initrd's CPIO archive.
    Image(ImageError),
    /// A pre-encrypted boot structure failed validation.
    BadStructure(&'static str),
    /// The initrd was unusable (missing or non-executable /init).
    BadInitrd(&'static str),
}

impl std::fmt::Display for GuestBootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuestBootError::Memory(e) => write!(f, "guest memory fault: {e}"),
            GuestBootError::Image(e) => write!(f, "boot image error: {e}"),
            GuestBootError::BadStructure(w) => write!(f, "boot structure invalid: {w}"),
            GuestBootError::BadInitrd(w) => write!(f, "initrd invalid: {w}"),
        }
    }
}

impl std::error::Error for GuestBootError {}

impl From<sevf_mem::MemError> for GuestBootError {
    fn from(e: sevf_mem::MemError) -> Self {
        GuestBootError::Memory(e)
    }
}

impl From<ImageError> for GuestBootError {
    fn from(e: ImageError) -> Self {
        GuestBootError::Image(e)
    }
}

/// Result of the bootstrap-loader stage.
#[derive(Debug, Clone)]
pub struct LoaderStage {
    /// Entry point of the decompressed, placed vmlinux.
    pub vmlinux_entry: u64,
    /// Priced steps.
    pub steps: Vec<Step>,
}

/// Runs the bzImage bootstrap loader: decompress the payload at
/// `bzimage_addr` and place the inner vmlinux's segments (all in private
/// memory).
///
/// # Errors
///
/// Propagates image and memory faults as [`GuestBootError`].
pub fn run_bootstrap_loader(
    mem: &mut GuestMemory,
    bzimage_addr: u64,
    bzimage_len: u64,
    cost: &CostModel,
) -> Result<LoaderStage, GuestBootError> {
    run_bootstrap_loader_kaslr(mem, bzimage_addr, bzimage_len, cost, 0)
}

/// [`run_bootstrap_loader`] with a guest-side KASLR slide: every segment
/// (and the entry point) is placed `slide` bytes above its linked address.
/// The slide is chosen *inside the guest* (§8: unlike in-monitor KASLR,
/// this survives SEV — the host never learns the placement and the launch
/// measurement is unchanged).
///
/// # Errors
///
/// Propagates image and memory faults as [`GuestBootError`].
///
/// # Panics
///
/// Panics if `slide` is not 2 MiB aligned.
pub fn run_bootstrap_loader_kaslr(
    mem: &mut GuestMemory,
    bzimage_addr: u64,
    bzimage_len: u64,
    cost: &CostModel,
    slide: u64,
) -> Result<LoaderStage, GuestBootError> {
    assert!(
        slide.is_multiple_of(2 * 1024 * 1024),
        "KASLR slide must be 2 MiB aligned"
    );
    let mut steps = Vec::new();
    // The staged bzImage is dropped once decompressed, and the segments
    // are placed from slices of the vmlinux: one image-sized buffer at a
    // time beyond the decompression itself.
    let vmlinux = {
        let image = mem.guest_read(bzimage_addr, bzimage_len, true)?;
        let (payload, codec) = bzimage::parse(&image)?;
        let vmlinux = codec.decompress(payload).map_err(ImageError::from)?;
        let (from, to) = (payload.len(), vmlinux.len());
        steps.push(cost.step(
            PhaseKind::BootstrapLoader,
            format!("decompress {codec} payload ({from} → {to} B)"),
            Work::Decompress(codec, to as u64),
        ));
        vmlinux
    };
    let ElfImage { entry, segments } = ElfImage::parse(&vmlinux)?;
    let mut placed = 0u64;
    for seg in &segments {
        let bss_at = seg.vaddr + slide + seg.data.len() as u64;
        mem.guest_write(seg.vaddr + slide, seg.data, true)?;
        if seg.bss > 0 {
            mem.guest_write(bss_at, &vec![0u8; seg.bss as usize], true)?;
        }
        placed += seg.mem_size();
    }
    let kaslr = match slide {
        0 => String::new(),
        slide => format!(", KASLR slide {slide:#x}"),
    };
    steps.push(cost.step(
        PhaseKind::BootstrapLoader,
        format!("place {} ELF segments ({placed} B{kaslr})", segments.len()),
        Work::All(vec![
            Work::CopyEncrypted(placed),
            Work::ElfSegments(segments.len() as u64),
        ]),
    ));
    Ok(LoaderStage {
        vmlinux_entry: entry + slide,
        steps,
    })
}

/// Result of the Linux boot stage.
#[derive(Debug, Clone)]
pub struct KernelStage {
    /// The descriptor found at the entry point.
    pub descriptor: KernelDescriptor,
    /// Number of initrd files unpacked.
    pub initrd_files: usize,
    /// Priced steps.
    pub steps: Vec<Step>,
}

/// Runs the guest kernel from its entry point to `init`.
///
/// `encrypted` is false for non-SEV guests (everything is plain memory).
///
/// # Errors
///
/// [`GuestBootError`] on any validation failure — a kernel that cannot
/// trust its boot structures refuses to come up.
pub fn run_kernel(
    mem: &mut GuestMemory,
    entry: u64,
    generation: SevGeneration,
    cost: &CostModel,
) -> Result<KernelStage, GuestBootError> {
    let encrypted = generation.is_sev();
    let mut steps = Vec::new();
    // Every step of the kernel's own boot runs slower under SEV (§6.2).
    let step = |label: String, work: Work| {
        let work = Work::Linux {
            generation,
            work: Box::new(work),
        };
        cost.step(PhaseKind::LinuxBoot, label, work)
    };

    // The descriptor sits at the kernel entry point.
    let head = mem.guest_read(entry, 256, encrypted)?;
    let descriptor = KernelDescriptor::from_bytes(&head)?;

    // Early boot: paging, consoles, per-CPU. Validates boot_params.
    let bp_bytes = mem.guest_read(BOOT_PARAMS_ADDR, PAGE_SIZE, encrypted)?;
    let boot_params = BootParams::from_page(&bp_bytes).map_err(GuestBootError::BadStructure)?;
    let cl_page = mem.guest_read(boot_params.cmdline_ptr, PAGE_SIZE, encrypted)?;
    let cl = cmdline::from_page(&cl_page);
    cmdline::validate(&cl).map_err(GuestBootError::BadStructure)?;
    if boot_params.cmdline_ptr != CMDLINE_ADDR {
        return Err(GuestBootError::BadStructure("cmdline pointer unexpected"));
    }
    steps.push(step(
        "early boot (paging, boot_params, cmdline)".into(),
        Work::KernelPhase(descriptor.phases.early_us.into()),
    ));

    // Driver init: scans the mptable.
    let mp_bytes = mem.guest_read(MPTABLE_ADDR, PAGE_SIZE, encrypted)?;
    let mp = mptable::validate(&mp_bytes).map_err(GuestBootError::BadStructure)?;
    if u64::from(boot_params.vcpus) != mp.vcpus {
        return Err(GuestBootError::BadStructure(
            "mptable CPU count disagrees with boot_params",
        ));
    }
    steps.push(step(
        format!("driver init ({} CPUs)", mp.vcpus),
        Work::KernelPhase(descriptor.phases.drivers_us.into()),
    ));

    // Late boot: unpack the initrd and exec /init. A compressed initrd
    // (the Fig. 5 comparison point; not the recommended configuration) is
    // decompressed first, paying the codec's calibrated cost.
    let staged = mem.guest_read(boot_params.initrd_addr, boot_params.initrd_size, encrypted)?;
    let initrd = match sevf_codec::Codec::detect(&staged) {
        None => staged,
        Some(codec) => {
            let unpacked = codec.decompress(&staged).map_err(ImageError::from)?;
            steps.push(step(
                format!(
                    "decompress {} initrd ({} → {} B)",
                    codec,
                    staged.len(),
                    unpacked.len()
                ),
                Work::Decompress(codec, unpacked.len() as u64),
            ));
            unpacked
        }
    };
    let entries = cpio::parse(&initrd)?;
    let init = entries
        .iter()
        .find(|e| e.name == "init")
        .ok_or(GuestBootError::BadInitrd("missing /init"))?;
    if init.mode & 0o111 == 0 {
        return Err(GuestBootError::BadInitrd("/init not executable"));
    }
    steps.push(step(
        format!("unpack initrd ({} files)", entries.len()),
        Work::All(vec![
            Work::CopyPlain(initrd.len() as u64),
            Work::CpioEntries(entries.len() as u64),
        ]),
    ));
    steps.push(step(
        "late boot, mount rootfs, exec /init".into(),
        Work::KernelPhase(descriptor.phases.late_us.into()),
    ));

    Ok(KernelStage {
        descriptor,
        initrd_files: entries.len(),
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BootPolicy, VmConfig};
    use sevf_codec::Codec;
    use sevf_sim::Nanos;
    use sevf_verifier::layout::GuestLayout;

    /// Builds a guest where the verifier has already placed everything
    /// (private memory populated directly for unit-testing the kernel).
    fn guest_after_verifier() -> (GuestMemory, u64, u64) {
        let config = VmConfig::test_tiny(BootPolicy::Severifast);
        let image = config.kernel.build();
        let bz = image.bzimage(Codec::Lz4);
        let initrd = sevf_image::initrd::build_initrd(config.initrd_size);
        let layout =
            GuestLayout::plan(config.mem_size, bz.len() as u64, initrd.len() as u64).unwrap();

        let mut mem = GuestMemory::new_sev(config.mem_size, [7u8; 16], SevGeneration::SevSnp);
        mem.rmp_assign(0, layout.staging_base).unwrap();
        mem.pvalidate(0, layout.staging_base).unwrap();
        mem.guest_write(layout.kernel_dest, &bz, true).unwrap();
        mem.guest_write(layout.initrd_dest, &initrd, true).unwrap();
        let bp = BootParams::build(&config, &layout);
        mem.guest_write(BOOT_PARAMS_ADDR, &bp.to_page(), true)
            .unwrap();
        mem.guest_write(MPTABLE_ADDR, &mptable::build(config.vcpus), true)
            .unwrap();
        mem.guest_write(
            CMDLINE_ADDR,
            &cmdline::to_page(&cmdline::default_cmdline()),
            true,
        )
        .unwrap();
        (mem, layout.kernel_dest, bz.len() as u64)
    }

    #[test]
    fn bootstrap_loader_decompresses_and_places() {
        let (mut mem, bz_addr, bz_len) = guest_after_verifier();
        let stage =
            run_bootstrap_loader(&mut mem, bz_addr, bz_len, &CostModel::calibrated()).unwrap();
        assert_eq!(stage.vmlinux_entry, sevf_image::kernel::KERNEL_BASE);
        assert!(stage.steps.iter().any(|s| s.label.contains("decompress")));
        // Descriptor readable at the placed entry.
        let head = mem.guest_read(stage.vmlinux_entry, 128, true).unwrap();
        assert!(KernelDescriptor::from_bytes(&head).is_ok());
    }

    #[test]
    fn kernel_boots_to_init() {
        let (mut mem, bz_addr, bz_len) = guest_after_verifier();
        let cost = CostModel::calibrated();
        let loader = run_bootstrap_loader(&mut mem, bz_addr, bz_len, &cost).unwrap();
        let stage =
            run_kernel(&mut mem, loader.vmlinux_entry, SevGeneration::SevSnp, &cost).unwrap();
        assert_eq!(stage.descriptor.name, "test-tiny");
        assert!(stage.initrd_files >= 5);
        assert!(stage.steps.iter().any(|s| s.label.contains("/init")));
    }

    #[test]
    fn snp_multiplier_slows_kernel_boot() {
        let cost = CostModel::calibrated();
        let (mut mem_a, bz_addr, bz_len) = guest_after_verifier();
        let loader = run_bootstrap_loader(&mut mem_a, bz_addr, bz_len, &cost).unwrap();
        let snp = run_kernel(
            &mut mem_a,
            loader.vmlinux_entry,
            SevGeneration::SevSnp,
            &cost,
        )
        .unwrap();
        let snp_total: Nanos = snp.steps.iter().map(|s| s.duration).sum();
        // §6.2: about 2.3× the baseline.
        let phases = snp.descriptor.phases;
        let baseline =
            Nanos::from_micros((phases.early_us + phases.drivers_us + phases.late_us).into());
        let ratio = snp_total.as_millis_f64() / baseline.as_millis_f64();
        assert!(
            (1.8..2.6).contains(&ratio),
            "SNP multiplier landed at {ratio:.2}"
        );
    }

    #[test]
    fn corrupt_boot_params_refuse_boot() {
        let (mut mem, bz_addr, bz_len) = guest_after_verifier();
        let cost = CostModel::calibrated();
        let loader = run_bootstrap_loader(&mut mem, bz_addr, bz_len, &cost).unwrap();
        mem.guest_write(BOOT_PARAMS_ADDR, &[0xffu8; 64], true)
            .unwrap();
        assert!(matches!(
            run_kernel(&mut mem, loader.vmlinux_entry, SevGeneration::SevSnp, &cost),
            Err(GuestBootError::BadStructure(_))
        ));
    }

    #[test]
    fn corrupt_mptable_refuses_boot() {
        let (mut mem, bz_addr, bz_len) = guest_after_verifier();
        let cost = CostModel::calibrated();
        let loader = run_bootstrap_loader(&mut mem, bz_addr, bz_len, &cost).unwrap();
        let mut mp = mem.guest_read(MPTABLE_ADDR, PAGE_SIZE, true).unwrap();
        mp[50] ^= 0xff;
        mem.guest_write(MPTABLE_ADDR, &mp, true).unwrap();
        assert!(run_kernel(&mut mem, loader.vmlinux_entry, SevGeneration::SevSnp, &cost).is_err());
    }

    /// Boots the kernel over `initrd` in place of the attestation initrd.
    fn run_kernel_with_initrd(initrd: &[u8]) -> Result<KernelStage, GuestBootError> {
        let (mut mem, bz_addr, bz_len) = guest_after_verifier();
        let cost = CostModel::calibrated();
        let loader = run_bootstrap_loader(&mut mem, bz_addr, bz_len, &cost).unwrap();
        let bp_bytes = mem.guest_read(BOOT_PARAMS_ADDR, PAGE_SIZE, true).unwrap();
        let mut bp = BootParams::from_page(&bp_bytes).unwrap();
        mem.guest_write(bp.initrd_addr, initrd, true).unwrap();
        bp.initrd_size = initrd.len() as u64;
        mem.guest_write(BOOT_PARAMS_ADDR, &bp.to_page(), true)
            .unwrap();
        run_kernel(&mut mem, loader.vmlinux_entry, SevGeneration::SevSnp, &cost)
    }

    #[test]
    fn missing_init_refuses_boot() {
        // A valid CPIO that lacks /init.
        let bogus = sevf_image::cpio::build(&[sevf_image::cpio::CpioEntry::file(
            "not-init",
            vec![1, 2, 3],
        )]);
        assert_eq!(
            run_kernel_with_initrd(&bogus).unwrap_err(),
            GuestBootError::BadInitrd("missing /init")
        );
    }

    #[test]
    fn corrupt_cpio_header_keeps_the_parser_error() {
        let mut archive = sevf_image::cpio::build(&[sevf_image::cpio::CpioEntry::executable(
            "init",
            b"#!/bin/sh".to_vec(),
        )]);
        archive[0] = b'9'; // the first record's magic
        assert_eq!(
            run_kernel_with_initrd(&archive).unwrap_err(),
            GuestBootError::Image(ImageError::BadCpio("bad record magic"))
        );
    }

    #[test]
    fn plain_guest_runs_without_encryption() {
        // Stock Firecracker path: same kernel logic, plain memory.
        let config = VmConfig::test_tiny(BootPolicy::StockFirecracker);
        let image = config.kernel.build();
        let initrd = sevf_image::initrd::build_initrd(config.initrd_size);
        let layout = GuestLayout::plan(
            config.mem_size,
            image.vmlinux().len() as u64,
            initrd.len() as u64,
        )
        .unwrap();
        let mut mem = GuestMemory::new_plain(config.mem_size);
        for seg in &image.elf().segments {
            mem.host_write(seg.vaddr, seg.data).unwrap();
        }
        mem.host_write(layout.initrd_dest, &initrd).unwrap();
        let bp = BootParams::build(&config, &layout);
        mem.host_write(BOOT_PARAMS_ADDR, &bp.to_page()).unwrap();
        mem.host_write(MPTABLE_ADDR, &mptable::build(1)).unwrap();
        mem.host_write(CMDLINE_ADDR, &cmdline::to_page(&cmdline::default_cmdline()))
            .unwrap();
        let stage = run_kernel(
            &mut mem,
            image.elf().entry,
            SevGeneration::None,
            &CostModel::calibrated(),
        )
        .unwrap();
        assert_eq!(stage.descriptor.name, "test-tiny");
    }
}
