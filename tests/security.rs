//! Workspace integration tests for the §2.6 trust-model guarantees — the
//! five checks DESIGN.md commits to.

use severifast::attest::GuestAttestClient;
use severifast::crypto::sha256;
use severifast::image::elf::{EHDR_SIZE, PHDR_SIZE};
use severifast::image::{initrd, kernel::KernelConfig, ImageError};
use severifast::mem::{GuestMemory, MemError};
use severifast::prelude::*;
use severifast::verifier::binary::{VerifierBinary, VerifierFeatures};
use severifast::verifier::hashes::{HashPage, KernelHashes};
use severifast::verifier::layout::{GuestLayout, HASH_PAGE_ADDR, VERIFIER_ADDR};
use severifast::verifier::verify::{self, KernelKind, Verifier, VerifierConfig};
use severifast::verifier::VerifierError;
use severifast::vmm::config::LaunchMode;
use severifast::vmm::guest_kernel::{self, LoaderStage};

const MB: u64 = 1024 * 1024;

/// Stage a guest the way the VMM would, returning everything needed to run
/// the verifier by hand.
fn staged_guest() -> (Machine, GuestMemory, GuestLayout, Vec<u8>) {
    let mut machine = Machine::new(0x5EC);
    let image = KernelConfig::test_tiny().build();
    let bz = (*image.bzimage(Codec::Lz4)).clone();
    let rd = initrd::build_initrd(64 * 1024);
    let start = machine.psp.launch_start(SevGeneration::SevSnp).unwrap();
    let mut mem = GuestMemory::new_sev(64 * MB, start.memory_key, SevGeneration::SevSnp);
    let layout = GuestLayout::plan(64 * MB, bz.len() as u64, rd.len() as u64).unwrap();

    let hash_page = HashPage {
        kernel: KernelHashes::WholeImage(sha256(&bz)),
        initrd: sha256(&rd),
    };
    mem.host_write(HASH_PAGE_ADDR, &hash_page.to_page())
        .unwrap();
    let verifier = VerifierBinary::build(VerifierFeatures::severifast());
    mem.host_write(VERIFIER_ADDR, verifier.bytes()).unwrap();
    machine
        .psp
        .launch_update_data(start.guest, &mut mem, HASH_PAGE_ADDR, 4096)
        .unwrap();
    machine
        .psp
        .launch_update_data(start.guest, &mut mem, VERIFIER_ADDR, verifier.size())
        .unwrap();
    machine.psp.launch_finish(start.guest).unwrap();

    mem.host_write(layout.kernel_staging, &bz).unwrap();
    mem.host_write(layout.initrd_staging, &rd).unwrap();
    for (base, len) in layout.private_ranges() {
        mem.rmp_assign(base, len).unwrap();
    }
    (machine, mem, layout, bz)
}

#[test]
fn check_1_swapped_components_detected_by_verifier() {
    let (machine, mut mem, layout, bz) = staged_guest();
    let mut tampered = bz.clone();
    let mid = tampered.len() / 2;
    tampered[mid] ^= 0x40;
    mem.host_write(layout.kernel_staging, &tampered).unwrap();
    let err = verify::run(
        &mut mem,
        &layout,
        &machine.cost,
        VerifierConfig::severifast(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        VerifierError::HashMismatch { .. } | VerifierError::Image(_)
    ));
}

/// A §6.2 shared-key guest staged by hand from the VMM's own plan, so the
/// staged bytes can be tampered with between staging and guest entry. The
/// plan's hash page holds the digests that travelled with the images.
fn staged_template_guest(policy: BootPolicy) -> (Machine, GuestMemory, GuestLayout) {
    staged_vm_guest(policy, SevGeneration::SevSnp, LaunchMode::SharedKeyTemplate)
}

/// A guest of `generation` staged by hand from the VMM's own plan: a cold
/// launch takes a fresh key, a template launch the key of a template the
/// VMM filled first.
fn staged_vm_guest(
    policy: BootPolicy,
    generation: SevGeneration,
    mode: LaunchMode,
) -> (Machine, GuestMemory, GuestLayout) {
    let mut machine = Machine::new(0x5EC);
    machine.owner.set_required_generation(generation);
    let mut config = VmConfig::test_tiny(policy);
    config.generation = generation;
    config.launch_mode = mode;
    if !policy.uses_bzimage() {
        config.kernel_codec = Codec::None;
    }
    let vm = MicroVm::new(config.clone()).unwrap();
    let start = match mode {
        LaunchMode::Normal => machine.psp.launch_start(generation).unwrap(),
        LaunchMode::SharedKeyTemplate => {
            vm.register_expected(&mut machine).unwrap();
            let fill = vm.boot(&mut machine).unwrap();
            let template = machine.templates[&fill.measurement.unwrap()];
            machine.psp.launch_start_shared(template).unwrap()
        }
    };
    let mut mem = GuestMemory::new_sev(config.mem_size, start.memory_key, config.generation);
    let image = config.kernel.build();
    let kernel = if policy.uses_bzimage() {
        image.bzimage(config.kernel_codec)
    } else {
        image.fw_cfg_staged().0
    };
    let rd = initrd::build_initrd(config.initrd_size);
    let layout = GuestLayout::plan_with_expansion(
        config.mem_size,
        kernel.len() as u64,
        rd.len() as u64,
        policy.uses_bzimage(),
    )
    .unwrap();
    mem.host_write(layout.kernel_staging, &kernel).unwrap();
    mem.host_write(layout.initrd_staging, &rd).unwrap();
    for item in vm.pre_encryption_plan().unwrap() {
        mem.host_write(item.gpa, &item.data).unwrap();
        mem.pre_encrypt(item.gpa, item.data.len() as u64).unwrap();
    }
    for (base, len) in layout.private_ranges() {
        mem.rmp_assign(base, len).unwrap();
    }
    (machine, mem, layout)
}

#[test]
fn check_1_holds_on_the_template_path_with_carried_digests() {
    // A digest that travelled with an image is only what the hash page
    // says; the guest's own hash of what was actually staged decides.
    for tampered in [None, Some("kernel"), Some("initrd")] {
        let (machine, mut mem, layout) = staged_template_guest(BootPolicy::Severifast);
        let at = match tampered {
            Some("kernel") => Some(layout.kernel_staging + layout.kernel_size / 2),
            Some(_) => Some(layout.initrd_staging + layout.initrd_size / 2),
            None => None,
        };
        if let Some(at) = at {
            flip(&mut mem, at).unwrap();
        }
        let ran = verify::run(
            &mut mem,
            &layout,
            &machine.cost,
            VerifierConfig::severifast(),
        );
        match (tampered, ran) {
            (None, Ok(_)) => {}
            (Some(expected), Err(VerifierError::HashMismatch { component })) => {
                assert_eq!(component, expected)
            }
            (_, other) => panic!("tampered {tampered:?}: {other:?}"),
        }
    }
}

#[test]
fn check_1_holds_on_the_fw_cfg_vmlinux_path() {
    // The fw_cfg loader reads the ELF header through `sevf_image::elf`'s
    // `header` (the magic, the class and `e_phentsize` are checked; it uses
    // `e_entry` and `e_phnum`, not `e_phoff`) and each program header
    // through `load_segments` (type, flags, address and sizes; not
    // `p_offset`, since the segments are staged back to back). The piece
    // hashes must cover the bytes it skips. Pieces are staged back to back:
    // [ehdr][phdrs][segs].
    let image = VmConfig::test_tiny(BootPolicy::SeverifastVmlinux)
        .kernel
        .build();
    let phdrs = EHDR_SIZE as u64;
    let segs = phdrs + (image.elf().segments.len() * PHDR_SIZE) as u64;
    let seg0_middle = segs + image.elf().segments[0].data.len() as u64 / 2;
    let config = vmlinux_verifier();
    for (piece, expected) in [
        ("untampered", None),
        ("e_ident padding", Some("kernel")),
        ("e_flags", Some("kernel")),
        ("p_align", Some("kernel")),
        ("segment", Some("kernel")),
        ("initrd", Some("initrd")),
    ] {
        let (machine, mut mem, layout) = staged_template_guest(BootPolicy::SeverifastVmlinux);
        let at = match piece {
            "e_ident padding" => Some(layout.kernel_staging + 12),
            "e_flags" => Some(layout.kernel_staging + 48),
            "p_align" => Some(layout.kernel_staging + phdrs + 48),
            "segment" => Some(layout.kernel_staging + seg0_middle),
            "initrd" => Some(layout.initrd_staging + layout.initrd_size / 2),
            _ => None,
        };
        if let Some(at) = at {
            flip(&mut mem, at).unwrap();
        }
        match (
            expected,
            verify::run(&mut mem, &layout, &machine.cost, config),
        ) {
            (None, Ok(_)) => {}
            (Some(expected), Err(VerifierError::HashMismatch { component })) => {
                assert_eq!(component, expected, "{piece}")
            }
            (_, other) => panic!("tampered {piece}: {other:?}"),
        }
    }
    // A field the header check reads is refused as a malformed image
    // before any segment is placed, as the host-side reader refuses it.
    for (field, at) in [("ELF magic", 1), ("e_phentsize", 54)] {
        let (machine, mut mem, layout) = staged_template_guest(BootPolicy::SeverifastVmlinux);
        flip(&mut mem, layout.kernel_staging + at).unwrap();
        let outcome = verify::run(&mut mem, &layout, &machine.cost, config);
        assert!(
            matches!(outcome, Err(VerifierError::Image(ImageError::BadElf(_)))),
            "tampered {field}: {outcome:?}"
        );
        for seg in &image.elf().segments {
            let dest = mem.guest_read(seg.vaddr, seg.data.len() as u64, true);
            assert_ne!(
                dest.unwrap(),
                seg.data,
                "tampered {field}: a segment placed"
            );
        }
    }
}

/// The verifier configured for the fw_cfg vmlinux loader.
fn vmlinux_verifier() -> VerifierConfig {
    VerifierConfig {
        kind: KernelKind::Vmlinux,
        firmware_size: VerifierFeatures::severifast_vmlinux().binary_size(),
        ..VerifierConfig::severifast()
    }
}

#[test]
fn fw_cfg_segment_outside_guest_memory_is_a_typed_error() {
    // The loader acts on a program header before any hash is compared, so
    // a host-staged `p_memsz` of 1 TiB must be refused before the loader
    // zeroes (or allocates) its bss.
    let (machine, mut mem, layout) = staged_template_guest(BootPolicy::SeverifastVmlinux);
    let p_memsz = layout.kernel_staging + (EHDR_SIZE + 40) as u64;
    mem.host_write(p_memsz, &(1u64 << 40).to_le_bytes())
        .unwrap();
    assert_eq!(
        verify::run(&mut mem, &layout, &machine.cost, vmlinux_verifier()),
        Err(VerifierError::Image(ImageError::BadElf(
            "segment outside guest memory"
        )))
    );
}

#[test]
fn check_2_malicious_hashes_detected_by_owner() {
    // A self-consistent malicious boot succeeds locally but its digest is
    // not in the owner's expected set.
    let mut m = Machine::new(0x5EC);
    let honest = MicroVm::new(VmConfig::test_tiny(BootPolicy::Severifast)).unwrap();
    honest.register_expected(&mut m).unwrap();

    let mut evil_config = VmConfig::test_tiny(BootPolicy::Severifast);
    evil_config.kernel = KernelConfig {
        name: "evil".into(),
        ..KernelConfig::test_tiny()
    };
    let evil = MicroVm::new(evil_config).unwrap();
    match evil.boot(&mut m) {
        Err(VmmError::Attest(severifast::attest::AttestError::UnexpectedMeasurement { got })) => {
            assert_eq!(got, evil.expected_measurement().unwrap());
        }
        other => panic!("expected owner rejection, got {other:?}"),
    }
}

#[test]
fn check_3_modified_verifier_detected_by_owner() {
    // Different verifier binary ⇒ different launch digest ⇒ rejection.
    let mut m = Machine::new(0x5EC);
    let honest = MicroVm::new(VmConfig::test_tiny(BootPolicy::Severifast)).unwrap();
    honest.register_expected(&mut m).unwrap();

    let mut modified = VmConfig::test_tiny(BootPolicy::SeverifastVmlinux);
    modified.kernel_codec = Codec::None;
    let vm = MicroVm::new(modified).unwrap();
    assert_ne!(
        vm.expected_measurement().unwrap(),
        honest.expected_measurement().unwrap()
    );
    assert!(matches!(vm.boot(&mut m), Err(VmmError::Attest(_))));
}

#[test]
fn check_4_host_cannot_write_guest_pages_under_snp() {
    let (_machine, mut mem, layout, _bz) = staged_guest();
    // The staging window is host-writable...
    mem.host_write(layout.kernel_staging, b"fine").unwrap();
    // ...but any guest-owned page is not.
    assert!(matches!(
        mem.host_write(HASH_PAGE_ADDR, b"evil"),
        Err(MemError::HostWriteDenied { .. })
    ));
    assert!(matches!(
        mem.host_write(0x0, b"evil"),
        Err(MemError::HostWriteDenied { .. })
    ));
}

#[test]
fn check_5_host_reads_only_ciphertext() {
    let (machine, mut mem, layout, bz) = staged_guest();
    let boot = verify::run(
        &mut mem,
        &layout,
        &machine.cost,
        VerifierConfig::severifast(),
    )
    .unwrap();
    // The kernel now sits in encrypted memory; the host's view of it must
    // be ciphertext, and different from the plaintext it staged.
    let host_view = mem.host_read(layout.kernel_dest, 4096).unwrap();
    assert_ne!(host_view, bz[..4096].to_vec());
    // And the guest's private view is the true bytes.
    let guest_view = mem.guest_read(layout.kernel_dest, 4096, true).unwrap();
    assert_eq!(guest_view, bz[..4096].to_vec());
    let _ = boot;
}

#[test]
fn remap_attack_faults_instead_of_reading_stale_data() {
    let (machine, mut mem, layout, _bz) = staged_guest();
    mem.remap_by_host(HASH_PAGE_ADDR).unwrap();
    let err = verify::run(
        &mut mem,
        &layout,
        &machine.cost,
        VerifierConfig::severifast(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        VerifierError::Memory(MemError::VcException { .. })
    ));
}

#[test]
fn memory_image_restores_only_into_its_own_launch_context() {
    // Guest A validates a page and writes a secret; the host captures A.
    let secret = b"guest A's secret";
    let mut a = GuestMemory::new_sev(MB, [1u8; 16], SevGeneration::SevSnp);
    a.rmp_assign(0, 4096).unwrap();
    a.pvalidate(0, 4096).unwrap();
    a.guest_write(0, secret, true).unwrap();
    let snapshot = a.clone_pages();

    // Guest B has another key: on hardware A's ciphertext would decrypt to
    // noise there, and the RMP is not the host's to copy. Nothing moves, so
    // B's page is still unvalidated and B never reads A's plaintext.
    let mut b = GuestMemory::new_sev(MB, [2u8; 16], SevGeneration::SevSnp);
    b.rmp_assign(0, 4096).unwrap();
    assert_eq!(b.restore_pages(&snapshot), Err(MemError::ForeignImage));
    assert!(!b.is_validated(0));
    assert!(matches!(
        b.guest_read(0, secret.len() as u64, true),
        Err(MemError::VcException { .. })
    ));
    // The same key under another generation is another context too.
    let mut es = GuestMemory::new_sev(MB, [1u8; 16], SevGeneration::SevEs);
    assert_eq!(es.restore_pages(&snapshot), Err(MemError::ForeignImage));

    // Back into A's own context the image restores.
    a.guest_write(0, b"overwritten", true).unwrap();
    assert_eq!(a.restore_pages(&snapshot), Ok(4096));
    assert_eq!(a.guest_read(0, secret.len() as u64, true).unwrap(), secret);
}

#[test]
fn identical_pages_have_distinct_ciphertext() {
    // §6.2/§7.1: the XEX address tweak defeats dedup and replay-by-move.
    let (_machine, mut mem, _layout, _bz) = staged_guest();
    mem.pvalidate(0x1000, 2 * 4096).unwrap();
    mem.guest_write(0x1000, &[0x77u8; 4096], true).unwrap();
    mem.guest_write(0x2000, &[0x77u8; 4096], true).unwrap();
    let a = mem.host_read(0x1000, 4096).unwrap();
    let b = mem.host_read(0x2000, 4096).unwrap();
    assert_ne!(a, b);
}

#[test]
fn secret_never_in_plaintext_anywhere_host_readable() {
    // The provisioned secret only ever exists inside the attestation
    // channel's ciphertext and the guest's private memory. Drive the §4.2
    // exchange by hand on a launched context (a template's, so it outlives
    // the boot) and look for the secret in every byte the host relays.
    let mut m = Machine::new(0x5EC);
    let mut config = VmConfig::test_tiny(BootPolicy::Severifast);
    config.launch_mode = severifast::vmm::config::LaunchMode::SharedKeyTemplate;
    let vm = MicroVm::new(config).unwrap();
    vm.register_expected(&mut m).unwrap();
    let measurement = vm.boot(&mut m).unwrap().measurement.unwrap();
    let guest = m.templates[&measurement];

    let client = GuestAttestClient::new(&measurement);
    let (report, _) = m.psp.guest_report(guest, client.report_data()).unwrap();
    let wrapped = m.owner.handle_report(&report).unwrap();
    let secret = b"tenant disk encryption key";
    for (what, relayed) in [
        ("attestation report", report.to_bytes()),
        ("wrapped secret", wrapped.ciphertext.clone()),
    ] {
        let leaks = relayed
            .windows(8)
            .any(|w| secret.windows(8).any(|s| s == w));
        assert!(!leaks, "an 8-byte window of the secret is in the {what}");
    }
    assert_eq!(client.unwrap_secret(&wrapped).unwrap(), secret);
}

/// The launch columns of the mid-boot cells: each SEV generation, launched
/// cold and from a §6.2 template.
fn mid_boot_cells() -> impl Iterator<Item = (SevGeneration, LaunchMode)> {
    [
        SevGeneration::Sev,
        SevGeneration::SevEs,
        SevGeneration::SevSnp,
    ]
    .into_iter()
    .flat_map(|g| [(g, LaunchMode::Normal), (g, LaunchMode::SharedKeyTemplate)])
}

/// Whether private memory holds exactly the measured vmlinux at its load
/// addresses, entered at its entry point.
fn booted_the_measured_vmlinux(mem: &GuestMemory, loader: &LoaderStage) -> bool {
    let image = VmConfig::test_tiny(BootPolicy::Severifast).kernel.build();
    let elf = image.elf();
    loader.vmlinux_entry == elf.entry
        && elf.segments.iter().all(|seg| {
            mem.guest_read(seg.vaddr, seg.data.len() as u64, true)
                .is_ok_and(|placed| placed == seg.data)
        })
}

/// `at`'s byte with one bit flipped, as the host writes it.
fn flip(mem: &mut GuestMemory, at: u64) -> Result<(), MemError> {
    let byte = mem.host_read(at, 1)?[0];
    mem.host_write(at, &[byte ^ 0x40])
}

#[test]
fn mid_boot_staging_writes_never_reach_the_private_copies() {
    // The verifier's private copies share the staged pages until either
    // side is written. A host that writes the staging window once both
    // copies are made (here: while the initrd digest is still being taken
    // and the bootstrap loader runs) changes neither the private copies,
    // nor the initrd verdict, nor the kernel the loader boots.
    for (generation, mode) in mid_boot_cells() {
        let (machine, mut mem, layout) = staged_vm_guest(BootPolicy::Severifast, generation, mode);
        let kernel = mem
            .host_read(layout.kernel_staging, layout.kernel_size)
            .unwrap();
        let initrd = mem
            .host_read(layout.initrd_staging, layout.initrd_size)
            .unwrap();
        let cell = format!("{} {mode:?}", generation.name());
        let (_, (private, loader)) = verify::run_then(
            &mut mem,
            &layout,
            &machine.cost,
            VerifierConfig::severifast(),
            |mem, entry| {
                for (base, size) in [
                    (layout.kernel_staging, layout.kernel_size),
                    (layout.initrd_staging, layout.initrd_size),
                ] {
                    for i in 0..64 {
                        flip(mem, base + size * i / 64)?;
                    }
                }
                // The loader places the vmlinux over the private bzImage:
                // read both private copies before it runs.
                let private = [
                    mem.guest_read(layout.kernel_dest, layout.kernel_size, true)?,
                    mem.guest_read(layout.initrd_dest, layout.initrd_size, true)?,
                ];
                let size = layout.kernel_size;
                let loader = guest_kernel::run_bootstrap_loader(mem, entry, size, &machine.cost)?;
                Ok::<_, VmmError>((private, loader))
            },
        )
        .unwrap_or_else(|e| panic!("{cell}: {e}"));
        assert_ne!(
            mem.host_read(layout.kernel_staging, layout.kernel_size)
                .unwrap(),
            kernel,
            "{cell}: the staging writes landed"
        );
        assert!(private[0] == kernel, "{cell}: the private kernel moved");
        assert!(private[1] == initrd, "{cell}: the private initrd moved");
        assert!(booted_the_measured_vmlinux(&mem, &loader), "{cell}");
    }
}

#[test]
fn a_mid_boot_write_to_the_private_kernel_is_denied_only_under_snp() {
    // SEV-Step's adversary (PAPERS.md) writes once, between the verifier's
    // kernel verdict and the bootstrap loader's decompression, at one of 64
    // offsets across the private bzImage. Under SNP the RMP denies every
    // write and the measured kernel boots. Before SNP, guest memory has no
    // integrity protection: the write lands as ciphertext, and at some
    // offsets the loader boots a vmlinux other than the measured one.
    for (generation, mode) in mid_boot_cells() {
        let (machine, mut mem, layout) = staged_vm_guest(BootPolicy::Severifast, generation, mode);
        let staged = mem.clone_pages();
        let cell = format!("{} {mode:?}", generation.name());
        let mut other_kernels = 0;
        for i in 0..64 {
            mem.restore_pages(&staged).unwrap();
            let at = layout.kernel_dest + layout.kernel_size * i / 64;
            let (_, (write, loader)) = verify::run_then(
                &mut mem,
                &layout,
                &machine.cost,
                VerifierConfig::severifast(),
                |mem, entry| {
                    let write = flip(mem, at);
                    let size = layout.kernel_size;
                    let loader =
                        guest_kernel::run_bootstrap_loader(mem, entry, size, &machine.cost);
                    Ok::<_, VerifierError>((write, loader))
                },
            )
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
            let measured = loader
                .as_ref()
                .is_ok_and(|loader| booted_the_measured_vmlinux(&mem, loader));
            if generation.has_rmp() {
                let page_addr = at / 4096 * 4096;
                assert_eq!(
                    write,
                    Err(MemError::HostWriteDenied { page_addr }),
                    "{cell}"
                );
                assert!(measured, "{cell}: offset {at:#x}");
            } else {
                assert_eq!(write, Ok(()), "{cell}");
                other_kernels += usize::from(loader.is_ok() && !measured);
            }
        }
        if !generation.has_rmp() {
            assert!(other_kernels > 0, "{cell}: no write booted other bytes");
        }
    }
}

/// The verifier's step boundaries, in boot order, at which
/// [`boot_by_steps`] hands the host a turn: before the initrd copy, before
/// the kernel load, between the kernel verdict and the bootstrap loader,
/// and before the initrd verdict.
const BOUNDARIES: [&str; 4] = [
    "before the initrd copy",
    "before the kernel load",
    "between the kernel verdict and the loader",
    "before the initrd verdict",
];

/// Boots a staged bzImage guest through the verifier's steps, in the
/// driver's order, with the initrd's digest taken inline and the bootstrap
/// loader in the gap after the kernel verdict. At the `i`-th of
/// [`BOUNDARIES`] it calls `host(mem, i)`.
fn boot_by_steps(
    mem: &mut GuestMemory,
    layout: &GuestLayout,
    cost: &CostModel,
    mut host: impl FnMut(&mut GuestMemory, usize),
) -> Result<LoaderStage, VmmError> {
    let mut verifier = Verifier::enter(mem, layout, cost, VerifierConfig::severifast())?;
    host(mem, 0);
    let initrd = verifier.copy_initrd(mem);
    host(mem, 1);
    let entry = verifier.load_kernel(mem)?;
    let initrd = initrd?;
    host(mem, 2);
    let loader = guest_kernel::run_bootstrap_loader(mem, entry, layout.kernel_size, cost)?;
    host(mem, 3);
    verifier.check_initrd(sha256(&initrd.chunks().collect::<Vec<_>>().concat()))?;
    Ok(loader)
}

#[test]
fn a_host_write_at_every_step_boundary_is_denied_refused_or_documented() {
    // SEV-Step's adversary (PAPERS.md) may act between any two of the
    // verifier's steps. At each boundary the host flips one byte in the
    // middle of the private kernel or the private initrd. Under SNP the RMP
    // denies the write and the measured boot goes on. Before SNP the write
    // lands: a copy made after it overwrites it, and once a component's
    // private copy is made (the kernel's checked, the initrd's copied) the
    // boot may be refused, or boot other bytes than the measured ones
    // (DESIGN §5, check 1).
    for (generation, mode) in mid_boot_cells() {
        let (machine, mut mem, layout) = staged_vm_guest(BootPolicy::Severifast, generation, mode);
        let initrd = mem
            .host_read(layout.initrd_staging, layout.initrd_size)
            .unwrap();
        let staged = mem.clone_pages();
        let components = [
            ("kernel", layout.kernel_dest + layout.kernel_size / 2, 2),
            ("initrd", layout.initrd_dest + layout.initrd_size / 2, 1),
        ];
        for (component, at, copied_before) in components {
            for (boundary, name) in BOUNDARIES.iter().enumerate() {
                mem.restore_pages(&staged).unwrap();
                let cell = format!("{} {mode:?}: {component} written {name}", generation.name());
                let mut write = None;
                let host = |mem: &mut GuestMemory, now| {
                    if now == boundary {
                        write = Some(flip(mem, at));
                    }
                };
                let boot = boot_by_steps(&mut mem, &layout, &machine.cost, host);
                let write = write.unwrap_or_else(|| panic!("{cell}: {boot:?} before the write"));
                let private_initrd = mem.guest_read(layout.initrd_dest, layout.initrd_size, true);
                let measured = boot.as_ref().is_ok_and(|loader| {
                    booted_the_measured_vmlinux(&mem, loader)
                        && private_initrd.is_ok_and(|bytes| bytes == initrd)
                });
                if generation.has_rmp() {
                    let page_addr = at / 4096 * 4096;
                    let denied = write == Err(MemError::HostWriteDenied { page_addr });
                    assert!(denied && measured || boot.is_err(), "{cell}: {boot:?}");
                } else {
                    assert_eq!(write, Ok(()), "{cell}");
                    // Before its copy, a write is overwritten by the copy.
                    let documented = boundary >= copied_before;
                    assert!(measured || documented, "{cell}: {boot:?}");
                }
            }
        }
    }
}
