//! The guest-kernel runtime: from kernel entry to `init`.
//!
//! Stands in for executing Linux. Two stages:
//!
//! * **Bootstrap loader** (bzImage boots only, Fig. 11's third bar): the
//!   setup stub decompresses the payload — really decompressed here, with
//!   the codec's calibrated throughput — straight into guest pages, as the
//!   bzImage's own decompressor does (§4.4): it reads the ELF layout from
//!   the decoder's first piece (the first `FLUSH_QUANTUM` bytes, or the
//!   whole file), writes each piece the decoder hands out
//!   (`Codec::decompress_into`) into the segments it belongs to, and zeroes
//!   bss in place (`GuestMemory::guest_zero`), so the host never holds the
//!   whole vmlinux. The VMM runs it as the verifier's continuation
//!   ([`sevf_verifier::verify::run_then`]): once the kernel's digest is
//!   checked, while the initrd's is still being taken on a second host
//!   thread. `run_then`'s docs give the verdict order, in which the loader's
//!   own outcome comes last.
//! * **Linux boot**: validates `boot_params`, the mptable, and the command
//!   line (all read from pre-encrypted memory), walks the initrd's CPIO
//!   records where they lie (a header and a name at a time) and checks
//!   `/init` is runnable, then replays the boot-phase costs from the
//!   kernel's embedded descriptor, multiplied by the SEV generation factor
//!   (§6.2: ≈ 2.3× under SNP from #VC handling and RMP-checked writes).

use std::ops::Range;

use sevf_codec::CodecError;
use sevf_image::bzimage;
use sevf_image::cpio;
use sevf_image::elf::{ElfImage, Segment};
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

impl From<CodecError> for GuestBootError {
    fn from(e: CodecError) -> Self {
        GuestBootError::Image(e.into())
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
pub(crate) fn run_bootstrap_loader_kaslr(
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
    // The segments are placed over the private bzImage, so the loader
    // reads it before decoding; the vmlinux never exists whole on the host.
    let image = mem.guest_read(bzimage_addr, bzimage_len, true)?;
    let (payload, codec) = bzimage::parse(&image)?;
    let declared = codec.declared_len(payload).map_err(ImageError::from)?;
    let mut placer = Placer {
        mem,
        slide,
        file_len: usize::try_from(declared).unwrap_or(usize::MAX),
        layout: None,
    };
    let to = codec.decompress_into(payload, |at, piece| placer.take(at, piece))?;
    steps.push(cost.step(
        PhaseKind::BootstrapLoader,
        format!("decompress {codec} payload ({} → {to} B)", payload.len()),
        Work::Decompress(codec, to),
    ));
    let ElfImage { entry, segments } = placer.finish()?;
    let placed: u64 = segments.iter().map(|s| s.data.len() as u64 + s.bss).sum();
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

/// Writes `piece`, the vmlinux bytes at `at`, into every segment whose
/// file range it overlaps, so segment order does not matter.
fn place(
    mem: &mut GuestMemory,
    layout: &ElfImage<Range<usize>>,
    slide: u64,
    at: u64,
    piece: &[u8],
) -> Result<(), GuestBootError> {
    let (start, end) = (at as usize, at as usize + piece.len());
    for seg in &layout.segments {
        let (lo, hi) = (start.max(seg.data.start), end.min(seg.data.end));
        if lo < hi {
            let dest = load_addr(seg, slide, lo - seg.data.start)?;
            mem.guest_write(dest, &piece[lo - start..hi - start], true)?;
        }
    }
    Ok(())
}

/// Where `seg`'s file byte `offset` is placed: `slide` above its link
/// address. The address is the image's word, so an overflow is refused.
fn load_addr(seg: &Segment<Range<usize>>, slide: u64, offset: usize) -> Result<u64, ImageError> {
    let addr = seg.vaddr.checked_add(slide + offset as u64);
    addr.ok_or(ImageError::BadElf("segment outside guest memory"))
}

/// The bootstrap loader's sink: places decoded vmlinux bytes into private
/// memory as the decompressor hands them out.
struct Placer<'m> {
    mem: &'m mut GuestMemory,
    slide: u64,
    /// The vmlinux length the payload's container declares.
    file_len: usize,
    /// Read from the first piece.
    layout: Option<ElfImage<Range<usize>>>,
}

impl Placer<'_> {
    /// Takes the decoded bytes at `at..at + piece.len()` into the segments,
    /// reading the layout from the first piece. A decoder hands out whole
    /// flush quanta until its last piece, so the first is the file's first
    /// `FLUSH_QUANTUM` bytes, or all of it: a program header table that
    /// ends past them is refused.
    fn take(&mut self, at: u64, piece: &[u8]) -> Result<(), GuestBootError> {
        if self.layout.is_none() {
            self.layout = Some(ElfImage::parse_layout(piece, self.file_len)?);
        }
        let layout = self.layout.as_ref().expect("read above");
        place(self.mem, layout, self.slide, at, piece)
    }

    /// Once the decode has ended: the layout (an empty file has none, so
    /// it is refused now), with every segment's bss zeroed.
    fn finish(self) -> Result<ElfImage<Range<usize>>, GuestBootError> {
        let layout = match self.layout {
            Some(layout) => layout,
            None => ElfImage::parse_layout(&[], self.file_len)?,
        };
        // A zero-length write still checks the page at its address, so a
        // segment without bss is not touched past its end.
        for seg in layout.segments.iter().filter(|seg| seg.bss > 0) {
            let at = load_addr(seg, self.slide, seg.data.len())?;
            self.mem.guest_zero(at, seg.bss)?;
        }
        Ok(layout)
    }
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

    // Late boot: unpack the initrd and exec /init. The kernel walks an
    // uncompressed initrd where it lies, a header and a name at a time. A
    // compressed one (the Fig. 5 comparison point; not the recommended
    // configuration) is decompressed first, paying the codec's calibrated
    // cost.
    let (addr, size) = (boot_params.initrd_addr, boot_params.initrd_size);
    let magic = mem.guest_read(addr, size.min(16), encrypted)?;
    let (entries, unpacked_len) = match sevf_codec::Codec::detect(&magic) {
        None => {
            let read =
                |r: Range<usize>| mem.guest_read(addr + r.start as u64, r.len() as u64, encrypted);
            let read = |r| read(r).map_err(GuestBootError::from);
            (cpio::walk(size as usize, read)?, size)
        }
        Some(codec) => {
            let staged = mem.guest_read(addr, size, encrypted)?;
            let unpacked = codec.decompress(&staged).map_err(ImageError::from)?;
            let len = unpacked.len() as u64;
            steps.push(step(
                format!("decompress {codec} initrd ({size} → {len} B)"),
                Work::Decompress(codec, len),
            ));
            let read = |r| Ok::<_, ImageError>(&unpacked[r]);
            (cpio::walk(unpacked.len(), read)?, len)
        }
    };
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
            Work::CopyPlain(unpacked_len),
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
    use sevf_image::kernel::KernelConfig;
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

    /// An SNP guest with `kernel`'s bzImage in `codec` in private memory,
    /// as the verifier leaves it: the memory, its address and length.
    fn staged_bzimage(kernel: &KernelConfig, codec: Codec) -> (GuestMemory, u64, u64) {
        staged(&kernel.build().bzimage(codec))
    }

    /// An SNP guest with the bzImage `bz` in private memory.
    fn staged(bz: &[u8]) -> (GuestMemory, u64, u64) {
        let mem_size = 256 << 20;
        let layout = GuestLayout::plan(mem_size, bz.len() as u64, 1 << 20).unwrap();
        let mut mem = GuestMemory::new_sev(mem_size, [7u8; 16], SevGeneration::SevSnp);
        mem.rmp_assign(0, layout.staging_base).unwrap();
        mem.pvalidate(0, layout.staging_base).unwrap();
        mem.guest_write(layout.kernel_dest, bz, true).unwrap();
        (mem, layout.kernel_dest, bz.len() as u64)
    }

    /// The loader this one replaced: decode the whole vmlinux into a
    /// buffer, parse it, then place each segment and a zeroed bss.
    fn decode_then_place(
        mem: &mut GuestMemory,
        addr: u64,
        len: u64,
        cost: &CostModel,
        slide: u64,
    ) -> Result<LoaderStage, GuestBootError> {
        let image = mem.guest_read(addr, len, true)?;
        let (payload, codec) = bzimage::parse(&image)?;
        let vmlinux = codec.decompress(payload)?;
        let (from, to) = (payload.len(), vmlinux.len());
        let mut steps = vec![cost.step(
            PhaseKind::BootstrapLoader,
            format!("decompress {codec} payload ({from} → {to} B)"),
            Work::Decompress(codec, to as u64),
        )];
        let ElfImage { entry, segments } = ElfImage::parse(&vmlinux)?;
        let mut placed = 0;
        for seg in &segments {
            let at = seg.vaddr + slide;
            mem.guest_write(at, seg.data, true)?;
            let bss = vec![0u8; seg.bss as usize];
            mem.guest_write(at + seg.data.len() as u64, &bss, true)?;
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

    #[test]
    fn streamed_placement_equals_decode_then_place() {
        let cost = CostModel::calibrated();
        let kernels = [
            KernelConfig::test_tiny(),
            KernelConfig::lupine().scaled_down(16),
            KernelConfig::aws().scaled_down(16),
        ];
        for kernel in &kernels {
            for codec in Codec::ALL {
                for slide in [0, 2 << 20] {
                    let case = format!("{} {codec} slide {slide:#x}", kernel.name);
                    let (mut streamed, addr, len) = staged_bzimage(kernel, codec);
                    let stage =
                        run_bootstrap_loader_kaslr(&mut streamed, addr, len, &cost, slide).unwrap();
                    let (mut reference, ..) = staged_bzimage(kernel, codec);
                    let want = decode_then_place(&mut reference, addr, len, &cost, slide).unwrap();
                    assert_eq!(stage.vmlinux_entry, want.vmlinux_entry, "{case}");
                    assert_eq!(stage.steps, want.steps, "{case}");
                    assert_eq!(
                        streamed.resident_pages(),
                        reference.resident_pages(),
                        "{case}"
                    );
                    assert!(
                        streamed.host_page_digests() == reference.host_page_digests(),
                        "{case}: the placed pages differ"
                    );
                }
            }
        }
    }

    #[test]
    fn a_malformed_elf_header_wins_over_a_later_codec_fault() {
        // The streaming loader reads the ELF header from the first decoded
        // bytes, so a bad one is refused before the decode reaches a fault
        // at its end (here: a declared length one byte too long). Decoding
        // first reported the codec's fault. A stored payload checks its
        // length before handing out any byte, so its fault still wins.
        let cost = CostModel::calibrated();
        let image = KernelConfig::test_tiny().build();
        let mut vmlinux = image.vmlinux().to_vec();
        vmlinux[0] = 0;
        for codec in Codec::ALL {
            let mut bz = bzimage::build(&vmlinux, codec);
            let (payload, _) = bzimage::payload_range(&bz, bz.len()).unwrap();
            let field = payload.start
                + match codec {
                    Codec::Deflate | Codec::Zstd => 5,
                    Codec::None | Codec::Lz4 => 4,
                };
            let declared = u64::from_le_bytes(bz[field..field + 8].try_into().unwrap());
            bz[field..field + 8].copy_from_slice(&(declared + 1).to_le_bytes());
            let staged = || {
                let (mut mem, addr, _) = staged_bzimage(&KernelConfig::test_tiny(), codec);
                mem.guest_write(addr, &bz, true).unwrap();
                (mem, addr)
            };
            let ((mut mem, addr), (mut reference, _)) = (staged(), staged());
            let len = bz.len() as u64;
            let mismatch = CodecError::LengthMismatch {
                expected: declared + 1,
                actual: declared,
            };
            let codec_fault = GuestBootError::Image(ImageError::Codec(mismatch));
            assert_eq!(
                decode_then_place(&mut reference, addr, len, &cost, 0).unwrap_err(),
                codec_fault,
                "{codec}"
            );
            let streamed = run_bootstrap_loader(&mut mem, addr, len, &cost).unwrap_err();
            match codec {
                Codec::None => assert_eq!(streamed, codec_fault),
                _ => assert_eq!(
                    streamed,
                    GuestBootError::Image(ImageError::BadElf("bad magic")),
                    "{codec}"
                ),
            }
        }
    }

    #[test]
    fn a_program_header_table_past_the_first_piece_is_refused() {
        // The loader reads the ELF layout from the decoder's first piece,
        // the file's first `FLUSH_QUANTUM` bytes. A 1.5 MiB vmlinux carries
        // its program header table twice, at offset 64 and at its end; only
        // `e_phoff` tells the two files apart.
        let cost = CostModel::calibrated();
        let base = sevf_image::kernel::KERNEL_BASE;
        let text: Vec<u8> = (0..3 << 19).map(|i: u32| (i * 7 % 251) as u8).collect();
        let elf = ElfImage {
            entry: base,
            segments: vec![Segment {
                vaddr: base,
                data: text,
                bss: 0x3000,
                flags: sevf_image::elf::SegmentFlags::RX,
            }],
        };
        let mut vmlinux = elf.to_bytes();
        let (ehdr, phdr) = (sevf_image::elf::EHDR_SIZE, sevf_image::elf::PHDR_SIZE);
        let end = vmlinux.len() as u64;
        vmlinux.extend_from_within(ehdr..ehdr + phdr);
        assert!(end > sevf_codec::FLUSH_QUANTUM as u64);
        for codec in [Codec::Lz4, Codec::Zstd] {
            for phoff in [ehdr as u64, end] {
                vmlinux[32..40].copy_from_slice(&phoff.to_le_bytes());
                let (mut mem, addr, len) = staged(&bzimage::build(&vmlinux, codec));
                let loaded = run_bootstrap_loader(&mut mem, addr, len, &cost);
                if phoff == end {
                    let refused = ImageError::BadElf("program headers out of bounds");
                    assert_eq!(loaded.unwrap_err(), GuestBootError::Image(refused));
                } else {
                    assert_eq!(loaded.unwrap().vmlinux_entry, base, "{codec}");
                    let placed = mem.guest_read(base, elf.segments[0].mem_size(), true);
                    let want = [&elf.segments[0].data[..], &[0; 0x3000]].concat();
                    assert_eq!(placed.unwrap(), want, "{codec}");
                }
            }
        }
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
