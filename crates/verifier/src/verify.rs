//! The boot verifier's main sequence: pvalidate, page tables, measured
//! direct boot.
//!
//! This is the code that runs at the guest's (pre-encrypted, measured)
//! entry point. It refuses to boot if any component's hash disagrees with
//! the pre-encrypted hash page — that is the entire defense against attack
//! 1 of §2.6 (host swapping components after their hashes were registered).
//!
//! The sequence is [`Verifier`]'s step methods, called in order:
//! [`Verifier::enter`], [`Verifier::copy_initrd`], [`Verifier::load_kernel`]
//! and [`Verifier::check_initrd`]. Each returns at a step boundary, so a
//! test can act as the host between any two of them. [`run`] and
//! [`run_then`] are the one driver that calls them; this module holds no
//! thread.

use sevf_mem::{GuestMemory, PageView, PAGE_SIZE};
use sevf_sim::{CostModel, Step, Work};

pub use crate::drive::{run, run_then};
use crate::hashes::{HashPage, KernelHashes};
use crate::layout::{GuestLayout, HASH_PAGE_ADDR, PAGE_TABLE_ADDR};
use crate::loader::{self, step};
use crate::pagetable;
use crate::VerifierError;

/// Which kernel artifact the verifier is configured to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// A bzImage (the SEVeriFast default).
    Bzimage,
    /// An uncompressed vmlinux via the fw_cfg protocol.
    Vmlinux,
}

/// Verifier runtime configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifierConfig {
    /// Kernel artifact kind.
    pub kind: KernelKind,
    /// Whether the host backs the guest with 2 MiB pages (§6.1: enabling
    /// huge pages takes the pvalidate sweep from >60 ms to <1 ms).
    pub huge_pages: bool,
    /// C-bit position (from the two `cpuid` calls of §5).
    pub c_bit: u32,
    /// Base address of the pre-encrypted firmware blob (the SEVeriFast
    /// verifier, or OVMF for the baseline path).
    pub firmware_base: u64,
    /// Size of that blob: its pages (and the other launch pages) were
    /// validated by firmware and must be *skipped* by the sweep —
    /// re-validating a page the hypervisor remapped would silently accept
    /// the tampered mapping.
    pub firmware_size: u64,
}

impl VerifierConfig {
    /// The paper's configuration: bzImage, huge pages on, C-bit 51.
    pub fn severifast() -> Self {
        VerifierConfig {
            kind: KernelKind::Bzimage,
            huge_pages: true,
            c_bit: sevf_mem::C_BIT_POSITION,
            firmware_base: crate::layout::VERIFIER_ADDR,
            firmware_size: crate::binary::VerifierFeatures::severifast().binary_size(),
        }
    }
}

/// The outcome of a successful verifier run.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedBoot {
    /// Where to enter the kernel.
    pub kernel_entry: u64,
    /// Guest-physical address of the (now encrypted) initrd.
    pub initrd_addr: u64,
    /// Initrd length in bytes.
    pub initrd_len: u64,
    /// Priced steps, in execution order, for the caller's timeline.
    pub steps: Vec<Step>,
}

/// The verifier between two of its steps: entered, with the hash page read
/// and the steps so far priced. Its methods are called in the order they
/// are declared; each step but the last returns at a boundary where the
/// host may act.
#[derive(Debug)]
pub struct Verifier<'a> {
    layout: &'a GuestLayout,
    cost: &'a CostModel,
    config: VerifierConfig,
    hash_page: HashPage,
    steps: Vec<Step>,
    /// The kernel's entry point, once [`Verifier::load_kernel`] passed it.
    entry: u64,
}

impl<'a> Verifier<'a> {
    /// The first step: discovers the C-bit, sweeps `pvalidate`, builds the
    /// page tables and reads the pre-encrypted hash page.
    ///
    /// # Errors
    ///
    /// [`VerifierError::Memory`] for a fault (a page the host remapped),
    /// [`VerifierError::BadHashPage`] for a corrupt hash page.
    pub fn enter(
        mem: &mut GuestMemory,
        layout: &'a GuestLayout,
        cost: &'a CostModel,
        config: VerifierConfig,
    ) -> Result<Self, VerifierError> {
        // 1. Discover the C-bit position: two cpuid leaves, each a #VC under
        //    SNP (§5).
        let mut steps = vec![step(cost, "cpuid C-bit discovery", Work::VcExits(2))];

        // 2. pvalidate every assigned page the launch firmware did *not*
        //    already validate. The pre-encrypted ranges are skipped by address,
        //    not by RMP state: if the hypervisor remapped one of them, its valid
        //    bit is clear and blindly re-validating would accept the tampered
        //    mapping instead of faulting on it.
        let skip = layout.pre_encrypted_ranges(config.firmware_base, config.firmware_size);
        let skipped = |addr: u64| skip.iter().any(|(b, l)| addr >= *b && addr < b + l);
        let mut pages = 0u64;
        if mem.generation().has_rmp() {
            // `pvalidate` only exists under SEV-SNP (§2.2); SEV/SEV-ES guests
            // have no RMP to populate.
            for (base, len) in layout.private_ranges() {
                for page in (base..base + len).step_by(PAGE_SIZE as usize) {
                    if mem.is_assigned(page) && !mem.is_validated(page) && !skipped(page) {
                        mem.pvalidate(page, PAGE_SIZE)?;
                        pages += 1;
                    }
                }
            }
        }
        let huge_pages = config.huge_pages;
        let granularity = if huge_pages { "2MiB" } else { "4KiB" };
        let label = format!("pvalidate sweep ({pages} pages at {granularity} granularity)");
        steps.push(step(cost, label, Work::Pvalidate { pages, huge_pages }));

        // 3. Build identity-mapped page tables with the C-bit set (§4.2:
        //    generated in C-bit memory, implicitly encrypting them).
        pagetable::build_identity_map(mem, PAGE_TABLE_ADDR, 1 << 30, config.c_bit, true)?;
        steps.push(step(
            cost,
            "build identity-mapped page tables (C-bit set)",
            Work::PageTables,
        ));

        // 4. Read the pre-encrypted hash page.
        let hash_page = HashPage::from_page(&mem.guest_read(HASH_PAGE_ADDR, PAGE_SIZE, true)?)?;
        Ok(Verifier {
            layout,
            cost,
            config,
            hash_page,
            steps,
            entry: 0,
        })
    }

    /// Measured direct boot begins: copies the initrd (uncompressed, §3.3)
    /// into private memory. Its digest is taken over the returned view and
    /// handed to [`Verifier::check_initrd`].
    ///
    /// # Errors
    ///
    /// [`VerifierError::Memory`] for a fault copying it.
    pub fn copy_initrd(&self, mem: &mut GuestMemory) -> Result<PageView, VerifierError> {
        let layout = self.layout;
        Ok(mem.copy_to_private(
            layout.initrd_staging,
            layout.initrd_dest,
            layout.initrd_size,
        )?)
    }

    /// Loads the kernel and checks it: a bzImage is copied into private
    /// memory, hashed and its setup header checked; a vmlinux is placed and
    /// hashed piece by piece by the fw_cfg loader. Then the hash page's
    /// mode and the kernel digest are checked. Returns the kernel's entry.
    ///
    /// # Errors
    ///
    /// In this order: [`VerifierError::Memory`] for a fault copying the
    /// kernel, [`VerifierError::Image`] for a malformed image,
    /// [`VerifierError::BadHashPage`] for a hash page of the other mode, and
    /// [`VerifierError::HashMismatch`] for the kernel digest.
    pub fn load_kernel(&mut self, mem: &mut GuestMemory) -> Result<u64, VerifierError> {
        let (layout, cost) = (self.layout, self.cost);
        let loaded = match self.config.kind {
            KernelKind::Bzimage => loader::load_bzimage(mem, layout, cost)?,
            KernelKind::Vmlinux => loader::load_vmlinux_fw_cfg(mem, layout, cost)?,
        };
        let expected = match (self.hash_page.kernel, self.config.kind) {
            (KernelHashes::WholeImage(h), KernelKind::Bzimage) => vec![h],
            (KernelHashes::FwCfg(d), KernelKind::Vmlinux) => vec![d.ehdr, d.phdrs, d.segments],
            _ => {
                return Err(VerifierError::BadHashPage(
                    "hash mode does not match loader",
                ))
            }
        };
        self.steps.extend(loaded.steps);
        if loaded.computed_hashes != expected {
            return Err(VerifierError::HashMismatch {
                component: "kernel",
            });
        }
        self.steps
            .push(step(cost, "compare kernel hash", Work::HashCompare));
        self.entry = loaded.entry;
        Ok(loaded.entry)
    }

    /// The last step, once [`Verifier::load_kernel`] passed the kernel:
    /// compares the initrd's digest, taken over the view
    /// [`Verifier::copy_initrd`] returned, against the hash page.
    ///
    /// # Errors
    ///
    /// [`VerifierError::HashMismatch`] for the initrd.
    pub fn check_initrd(self, digest: [u8; 32]) -> Result<VerifiedBoot, VerifierError> {
        let (cost, layout, mut steps) = (self.cost, self.layout, self.steps);
        let bytes = layout.initrd_size;
        steps.push(step(
            cost,
            format!("copy initrd ({bytes} B) to encrypted memory"),
            Work::CopyEncrypted(bytes),
        ));
        steps.push(step(cost, "SHA-256 initrd", Work::Sha256(bytes)));
        if digest != self.hash_page.initrd {
            return Err(VerifierError::HashMismatch {
                component: "initrd",
            });
        }
        steps.push(step(cost, "compare initrd hash", Work::HashCompare));
        Ok(VerifiedBoot {
            kernel_entry: self.entry,
            initrd_addr: layout.initrd_dest,
            initrd_len: bytes,
            steps,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::binary::{VerifierBinary, VerifierFeatures};
    use crate::layout::VERIFIER_ADDR;
    use sevf_codec::Codec;
    use sevf_image::kernel::{FwCfgDigests, KernelConfig};
    use sevf_sim::cost::SevGeneration;
    use sevf_sim::PhaseKind;

    const MB: u64 = 1024 * 1024;

    /// Sets up a guest the way the VMM would: staged components, assigned
    /// private range, pre-encrypted hash page + verifier.
    pub(crate) fn prepare(
        kernel_bytes: &[u8],
        initrd: &[u8],
        kernel_hashes: KernelHashes,
    ) -> (GuestMemory, GuestLayout) {
        let mut mem = GuestMemory::new_sev(64 * MB, [5u8; 16], SevGeneration::SevSnp);
        let layout =
            GuestLayout::plan(64 * MB, kernel_bytes.len() as u64, initrd.len() as u64).unwrap();
        mem.host_write(layout.kernel_staging, kernel_bytes).unwrap();
        mem.host_write(layout.initrd_staging, initrd).unwrap();
        let hash_page = HashPage {
            kernel: kernel_hashes,
            initrd: sevf_crypto::sha256(initrd),
        };
        mem.host_write(HASH_PAGE_ADDR, &hash_page.to_page())
            .unwrap();
        let verifier = VerifierBinary::build(VerifierFeatures::severifast());
        mem.host_write(VERIFIER_ADDR, verifier.bytes()).unwrap();
        // Pre-encrypt the root of trust, then assign the private range.
        mem.pre_encrypt(HASH_PAGE_ADDR, PAGE_SIZE).unwrap();
        mem.pre_encrypt(VERIFIER_ADDR, verifier.size()).unwrap();
        for (base, len) in layout.private_ranges() {
            mem.rmp_assign(base, len).unwrap();
        }
        (mem, layout)
    }

    fn bz_setup() -> (GuestMemory, GuestLayout) {
        let image = KernelConfig::test_tiny().build();
        let bz = image.bzimage(Codec::Lz4);
        let initrd = sevf_image::initrd::build_initrd(64 * 1024);
        prepare(
            &bz,
            &initrd,
            KernelHashes::WholeImage(sevf_crypto::sha256(&bz)),
        )
    }

    /// A guest staged for the fw_cfg vmlinux loader, as [`bz_setup`] is for
    /// a bzImage.
    fn vmlinux_setup() -> (GuestMemory, GuestLayout) {
        let image = KernelConfig::test_tiny().build();
        let (ehdr, phdrs, segs) = image.elf().fw_cfg_pieces();
        let initrd = sevf_image::initrd::build_initrd(64 * 1024);
        let hashes = KernelHashes::FwCfg(FwCfgDigests {
            ehdr: sevf_crypto::sha256(&ehdr),
            phdrs: sevf_crypto::sha256(&phdrs),
            segments: sevf_crypto::sha256(&segs),
        });
        prepare(&[ehdr, phdrs, segs].concat(), &initrd, hashes)
    }

    /// The guest of `kind`'s setup and the verifier configured for `kind`.
    fn setup(kind: KernelKind) -> (GuestMemory, GuestLayout, VerifierConfig) {
        let (mem, layout) = match kind {
            KernelKind::Bzimage => bz_setup(),
            KernelKind::Vmlinux => vmlinux_setup(),
        };
        let config = VerifierConfig {
            kind,
            ..VerifierConfig::severifast()
        };
        (mem, layout, config)
    }

    /// Where a one-byte flip lands in each kernel kind's staged image: the
    /// middle of its payload (a bzImage's compressed vmlinux, a vmlinux's
    /// segments), and a byte that makes it malformed (the bzImage's boot
    /// signature, the ELF magic).
    fn payload_and_malformed(kind: KernelKind, layout: &GuestLayout) -> (u64, u64) {
        match kind {
            KernelKind::Bzimage => (layout.kernel_size / 2, 510),
            KernelKind::Vmlinux => (layout.kernel_size / 2, 0),
        }
    }

    #[test]
    fn honest_boot_succeeds() {
        let (mut mem, layout) = bz_setup();
        let boot = run(
            &mut mem,
            &layout,
            &CostModel::calibrated(),
            VerifierConfig::severifast(),
        )
        .unwrap();
        assert_eq!(boot.kernel_entry, layout.kernel_dest);
        assert!(boot
            .steps
            .iter()
            .any(|s| matches!(s.work, Work::Pvalidate { pages, .. } if pages > 0)));
        assert!(boot
            .steps
            .iter()
            .all(|s| s.phase == PhaseKind::BootVerification));
        // Initrd really is in encrypted memory now.
        let initrd = sevf_image::initrd::build_initrd(64 * 1024);
        assert_eq!(
            mem.guest_read(boot.initrd_addr, boot.initrd_len, true)
                .unwrap(),
            *initrd
        );
    }

    #[test]
    fn swapped_kernel_detected() {
        // Attack 1 of §2.6: after hashes are registered, the host stages a
        // different kernel.
        let (mut mem, layout) = bz_setup();
        let evil = sevf_image::bzimage::build(&vec![0x66u8; 100_000], Codec::Lz4);
        let evil_sized = if evil.len() as u64 >= layout.kernel_size {
            evil[..layout.kernel_size as usize].to_vec()
        } else {
            let mut padded = evil;
            padded.resize(layout.kernel_size as usize, 0);
            padded
        };
        mem.host_write(layout.kernel_staging, &evil_sized).unwrap();
        let err = run(
            &mut mem,
            &layout,
            &CostModel::calibrated(),
            VerifierConfig::severifast(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            VerifierError::HashMismatch {
                component: "kernel"
            } | VerifierError::Image(_)
        ));
    }

    #[test]
    fn swapped_initrd_detected() {
        let (mut mem, layout) = bz_setup();
        let evil = vec![0xeeu8; layout.initrd_size as usize];
        mem.host_write(layout.initrd_staging, &evil).unwrap();
        let err = run(
            &mut mem,
            &layout,
            &CostModel::calibrated(),
            VerifierConfig::severifast(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            VerifierError::HashMismatch {
                component: "initrd"
            }
        );
    }

    #[test]
    fn single_bit_flip_in_kernel_detected() {
        let (mut mem, layout) = bz_setup();
        let mut staged = mem
            .host_read(layout.kernel_staging, layout.kernel_size)
            .unwrap();
        let mid = staged.len() / 2;
        staged[mid] ^= 0x01;
        mem.host_write(layout.kernel_staging, &staged).unwrap();
        let err = run(
            &mut mem,
            &layout,
            &CostModel::calibrated(),
            VerifierConfig::severifast(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            VerifierError::HashMismatch { .. } | VerifierError::Image(_)
        ));
    }

    /// `kind`'s [`setup`] after the host flipped the staged kernel's byte
    /// at `kernel_at` and, if asked, the initrd's middle byte. With `remap`,
    /// a page the launch firmware validated at the initrd destination (the
    /// firmware range is what the sweep skips) was then remapped by the
    /// host, so the initrd copy takes #VC.
    fn tampered(
        kind: KernelKind,
        kernel_at: Option<u64>,
        swap_initrd: bool,
        remap: bool,
    ) -> (GuestMemory, GuestLayout, VerifierConfig) {
        let (mut mem, layout, mut config) = setup(kind);
        let mut flip = |at: u64| {
            let byte = mem.host_read(at, 1).unwrap()[0];
            mem.host_write(at, &[byte ^ 0x40]).unwrap();
        };
        if let Some(at) = kernel_at {
            flip(layout.kernel_staging + at);
        }
        if swap_initrd {
            flip(layout.initrd_staging + layout.initrd_size / 2);
        }
        if remap {
            mem.pre_encrypt(layout.initrd_dest, PAGE_SIZE).unwrap();
            mem.remap_by_host(layout.initrd_dest).unwrap();
            config.firmware_base = layout.initrd_dest;
            config.firmware_size = PAGE_SIZE;
        }
        (mem, layout, config)
    }

    /// Runs the verifier on a [`tampered`] guest.
    fn refusal(
        kind: KernelKind,
        kernel_at: Option<u64>,
        swap_initrd: bool,
        remap: bool,
    ) -> VerifierError {
        let (mut mem, layout, config) = tampered(kind, kernel_at, swap_initrd, remap);
        run(&mut mem, &layout, &CostModel::calibrated(), config).unwrap_err()
    }

    /// Runs the verifier on `mem` with a continuation that fails; returns
    /// the outcome and whether the continuation ran.
    fn failing_continuation(
        mut mem: GuestMemory,
        layout: &GuestLayout,
        config: VerifierConfig,
    ) -> (Result<VerifiedBoot, VerifierError>, bool) {
        let mut ran = false;
        let outcome = run_then(
            &mut mem,
            layout,
            &CostModel::calibrated(),
            config,
            |_, _| {
                ran = true;
                Err::<(), _>(VerifierError::BadLayout("the continuation failed"))
            },
        );
        (outcome.map(|(verified, ())| verified), ran)
    }

    #[test]
    fn kernel_verdicts_come_before_the_initrd_outcome() {
        // The initrd is copied and hashed while the kernel is loaded and
        // its digest computed, for either kernel kind, but whatever the
        // initrd copy met is reported only once the kernel has passed every
        // check.
        let kernel = VerifierError::HashMismatch {
            component: "kernel",
        };
        for kind in [KernelKind::Bzimage, KernelKind::Vmlinux] {
            let layout = setup(kind).1;
            let (payload, malformed) = payload_and_malformed(kind, &layout);
            assert_eq!(refusal(kind, Some(payload), true, false), kernel);
            assert!(matches!(
                refusal(kind, Some(malformed), true, false),
                VerifierError::Image(_)
            ));
            assert_eq!(refusal(kind, Some(payload), false, true), kernel);
            assert!(matches!(
                refusal(kind, None, false, true),
                VerifierError::Memory(sevf_mem::MemError::VcException { page_addr, .. })
                    if page_addr == layout.initrd_dest
            ));
        }
    }

    #[test]
    fn a_kernel_copy_fault_is_the_verdict_over_an_initrd_copy_fault() {
        // A firmware range the sweep skips leaves its pages unvalidated, so
        // a copy into it takes #VC. The initrd is copied before the kernel,
        // for either kernel kind, but when both copies fault, the kernel's
        // fault is the verdict.
        for kind in [KernelKind::Bzimage, KernelKind::Vmlinux] {
            let layout = setup(kind).1;
            let (kernel, initrd) = (layout.kernel_dest, layout.initrd_dest);
            let both = initrd + layout.initrd_size - kernel;
            for (base, size, faulting) in [
                (initrd, layout.initrd_size, initrd),
                (kernel, layout.kernel_size, kernel),
                (kernel, both, kernel),
            ] {
                let (mem, layout, config) = setup(kind);
                let config = VerifierConfig {
                    firmware_base: base,
                    firmware_size: size,
                    ..config
                };
                let (outcome, ran) = failing_continuation(mem, &layout, config);
                assert!(
                    matches!(
                        outcome,
                        Err(VerifierError::Memory(sevf_mem::MemError::VcException { page_addr, .. }))
                            if page_addr == faulting
                    ),
                    "{kind:?}, skipping {size} B at {base:#x}: {outcome:?}"
                );
                assert!(!ran);
            }
        }
    }

    #[test]
    fn the_continuation_never_runs_after_a_kernel_refusal() {
        let layout = bz_setup().1;
        let (payload, boot_signature) = (layout.kernel_size / 2, 510);
        for kernel_at in [payload, boot_signature] {
            let (mem, layout, config) =
                tampered(KernelKind::Bzimage, Some(kernel_at), false, false);
            let (outcome, ran) = failing_continuation(mem, &layout, config);
            assert!(matches!(
                outcome,
                Err(VerifierError::HashMismatch {
                    component: "kernel"
                } | VerifierError::Image(_))
            ));
            assert!(
                !ran,
                "the continuation ran on a kernel flipped at {kernel_at}"
            );
        }
        // An honest bzImage under a hash page of the fw_cfg mode.
        let bz = KernelConfig::test_tiny().build().bzimage(Codec::Lz4);
        let initrd = sevf_image::initrd::build_initrd(64 * 1024);
        let digest = sevf_crypto::sha256(&bz);
        let hashes = KernelHashes::FwCfg(FwCfgDigests {
            ehdr: digest,
            phdrs: digest,
            segments: digest,
        });
        let (mem, layout) = prepare(&bz, &initrd, hashes);
        let (outcome, ran) = failing_continuation(mem, &layout, VerifierConfig::severifast());
        assert!(matches!(outcome, Err(VerifierError::BadHashPage(_))));
        assert!(
            !ran,
            "the continuation ran under a hash page of the wrong mode"
        );
    }

    #[test]
    fn a_refused_initrd_overrides_the_continuation() {
        let (mem, layout, config) = tampered(KernelKind::Bzimage, None, true, false);
        let (outcome, ran) = failing_continuation(mem, &layout, config);
        assert_eq!(
            outcome,
            Err(VerifierError::HashMismatch {
                component: "initrd"
            })
        );
        assert!(ran, "an honest kernel hands over to the continuation");
        // An initrd that never reached private memory stops the boot before
        // the continuation, and its fault is the verdict.
        let (mem, layout, config) = tampered(KernelKind::Bzimage, None, false, true);
        let (outcome, ran) = failing_continuation(mem, &layout, config);
        assert!(matches!(
            outcome,
            Err(VerifierError::Memory(sevf_mem::MemError::VcException { page_addr, .. }))
                if page_addr == layout.initrd_dest
        ));
        assert!(!ran);
    }

    #[test]
    fn an_accepted_boot_returns_the_continuation_outcome() {
        let (mut mem, layout) = bz_setup();
        let cost = CostModel::calibrated();
        let config = VerifierConfig::severifast();
        let (boot, entry) = run_then(&mut mem, &layout, &cost, config, |_, entry| {
            Ok::<_, VerifierError>(entry)
        })
        .unwrap();
        assert_eq!(entry, boot.kernel_entry);
        let (mem, layout) = bz_setup();
        let (outcome, ran) = failing_continuation(mem, &layout, config);
        assert_eq!(
            outcome,
            Err(VerifierError::BadLayout("the continuation failed"))
        );
        assert!(ran);
    }

    #[test]
    fn vmlinux_fw_cfg_boot_succeeds() {
        let (mut mem, layout, config) = setup(KernelKind::Vmlinux);
        let boot = run(&mut mem, &layout, &CostModel::calibrated(), config).unwrap();
        let image = KernelConfig::test_tiny().build();
        assert_eq!(boot.kernel_entry, image.elf().entry);
    }

    #[test]
    fn hash_mode_mismatch_rejected() {
        // Each loader, on a valid image of its own kind, under a hash page
        // of the other mode: the mode check refuses it, after the load.
        let image = KernelConfig::test_tiny().build();
        let fw_cfg = image.fw_cfg_staged().0;
        let bz = image.bzimage(Codec::Lz4);
        let initrd = sevf_image::initrd::build_initrd(64 * 1024);
        for (kind, staged) in [(KernelKind::Vmlinux, fw_cfg), (KernelKind::Bzimage, bz)] {
            let digest = sevf_crypto::sha256(&staged);
            let hashes = match kind {
                KernelKind::Vmlinux => KernelHashes::WholeImage(digest),
                KernelKind::Bzimage => KernelHashes::FwCfg(FwCfgDigests {
                    ehdr: digest,
                    phdrs: digest,
                    segments: digest,
                }),
            };
            let (mut mem, layout) = prepare(&staged, &initrd, hashes);
            let config = VerifierConfig {
                kind,
                ..VerifierConfig::severifast()
            };
            let outcome = run(&mut mem, &layout, &CostModel::calibrated(), config);
            assert!(
                matches!(outcome, Err(VerifierError::BadHashPage(_))),
                "{kind:?}: {outcome:?}"
            );
        }
    }

    #[test]
    fn huge_pages_shrink_sweep_cost() {
        let cost = CostModel::calibrated();
        let (mut mem_a, layout_a) = bz_setup();
        let boot_huge = run(&mut mem_a, &layout_a, &cost, VerifierConfig::severifast()).unwrap();
        let (mut mem_b, layout_b) = bz_setup();
        let config_4k = VerifierConfig {
            huge_pages: false,
            ..VerifierConfig::severifast()
        };
        let boot_4k = run(&mut mem_b, &layout_b, &cost, config_4k).unwrap();
        let sweep = |b: &VerifiedBoot| {
            b.steps
                .iter()
                .find(|s| s.label.contains("pvalidate"))
                .expect("sweep step")
                .duration
        };
        assert!(sweep(&boot_4k) > sweep(&boot_huge).scale(100));
    }

    #[test]
    fn remapped_page_faults_the_verifier() {
        // The host remaps a private page after assignment; the verifier's
        // accesses must take #VC instead of reading stale data.
        let (mut mem, layout) = bz_setup();
        // Let the verifier pvalidate first — run once, then remap and rerun
        // the kernel copy by hand: simplest is to remap the hash page, which
        // the verifier reads early.
        mem.remap_by_host(HASH_PAGE_ADDR).unwrap();
        let err = run(
            &mut mem,
            &layout,
            &CostModel::calibrated(),
            VerifierConfig::severifast(),
        )
        .unwrap_err();
        assert!(matches!(err, VerifierError::Memory(_)));
        let _ = layout;
    }
}
