//! Property-based tests: measured direct boot must catch *any* tampering.
//!
//! Seeded XorShift64 case generation keeps the sweep deterministic without
//! an external property-testing dependency.

use sevf_codec::Codec;
use sevf_crypto::sha256;
use sevf_image::kernel::{FwCfgDigests, KernelConfig};
use sevf_mem::GuestMemory;
use sevf_sim::cost::SevGeneration;
use sevf_sim::rng::XorShift64;
use sevf_sim::{CostModel, Work};
use sevf_verifier::binary::{VerifierBinary, VerifierFeatures};
use sevf_verifier::hashes::{HashPage, KernelHashes};
use sevf_verifier::layout::{GuestLayout, HASH_PAGE_ADDR, VERIFIER_ADDR};
use sevf_verifier::verify::{self, KernelKind, VerifiedBoot, Verifier, VerifierConfig};
use sevf_verifier::VerifierError;

const MB: u64 = 1024 * 1024;
const CASES: u64 = 24;

struct Staged {
    mem: GuestMemory,
    layout: GuestLayout,
    kernel_len: usize,
    initrd_len: usize,
}

fn stage_honest() -> Staged {
    stage(SevGeneration::SevSnp, KernelKind::Bzimage)
}

/// A guest of `generation` staged for a `kind` kernel the way the VMM
/// stages it: components in the shared window, the hash page and the
/// verifier pre-encrypted, the private range assigned.
fn stage(generation: SevGeneration, kind: KernelKind) -> Staged {
    let image = KernelConfig::test_tiny().build();
    let (kernel, hashes) = match kind {
        KernelKind::Bzimage => {
            let bz = image.bzimage(Codec::Lz4).to_vec();
            let hashes = KernelHashes::WholeImage(sha256(&bz));
            (bz, hashes)
        }
        KernelKind::Vmlinux => {
            let (ehdr, phdrs, segments) = image.elf().fw_cfg_pieces();
            let hashes = KernelHashes::FwCfg(FwCfgDigests {
                ehdr: sha256(&ehdr),
                phdrs: sha256(&phdrs),
                segments: sha256(&segments),
            });
            ([ehdr, phdrs, segments].concat(), hashes)
        }
    };
    let initrd = sevf_image::initrd::build_initrd(64 * 1024);
    let mut mem = GuestMemory::new_sev(64 * MB, [3u8; 16], generation);
    let layout = GuestLayout::plan(64 * MB, kernel.len() as u64, initrd.len() as u64).unwrap();
    mem.host_write(layout.kernel_staging, &kernel).unwrap();
    mem.host_write(layout.initrd_staging, &initrd).unwrap();
    let hash_page = HashPage {
        kernel: hashes,
        initrd: sha256(&initrd),
    };
    mem.host_write(HASH_PAGE_ADDR, &hash_page.to_page())
        .unwrap();
    let verifier = VerifierBinary::build(VerifierFeatures::severifast());
    mem.host_write(VERIFIER_ADDR, verifier.bytes()).unwrap();
    mem.pre_encrypt(HASH_PAGE_ADDR, 4096).unwrap();
    mem.pre_encrypt(VERIFIER_ADDR, verifier.size()).unwrap();
    for (base, len) in layout.private_ranges() {
        mem.rmp_assign(base, len).unwrap();
    }
    Staged {
        mem,
        layout,
        kernel_len: kernel.len(),
        initrd_len: initrd.len(),
    }
}

#[test]
fn any_kernel_byte_flip_is_detected() {
    let mut rng = XorShift64::new(0xE51F_0001);
    for _ in 0..CASES {
        let mut staged = stage_honest();
        let offset = rng.next_below(staged.kernel_len as u64);
        let flip = 1 + (rng.next_u64() % 255) as u8;
        let addr = staged.layout.kernel_staging + offset;
        let mut byte = staged.mem.host_read(addr, 1).unwrap();
        byte[0] ^= flip;
        staged.mem.host_write(addr, &byte).unwrap();
        let err = verify::run(
            &mut staged.mem,
            &staged.layout,
            &CostModel::calibrated(),
            VerifierConfig::severifast(),
        )
        .unwrap_err();
        let detected = matches!(
            err,
            VerifierError::HashMismatch { .. } | VerifierError::Image(_)
        );
        assert!(detected, "flip at {offset} escaped: {err:?}");
    }
}

#[test]
fn any_initrd_byte_flip_is_detected() {
    let mut rng = XorShift64::new(0xE51F_0002);
    for _ in 0..CASES {
        let mut staged = stage_honest();
        let offset = rng.next_below(staged.initrd_len as u64);
        let flip = 1 + (rng.next_u64() % 255) as u8;
        let addr = staged.layout.initrd_staging + offset;
        let mut byte = staged.mem.host_read(addr, 1).unwrap();
        byte[0] ^= flip;
        staged.mem.host_write(addr, &byte).unwrap();
        let err = verify::run(
            &mut staged.mem,
            &staged.layout,
            &CostModel::calibrated(),
            VerifierConfig::severifast(),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                VerifierError::HashMismatch {
                    component: "initrd"
                }
            ),
            "flip at {offset} gave {err:?}"
        );
    }
}

#[test]
fn honest_boot_always_succeeds_regardless_of_sweep_granularity() {
    for huge_pages in [false, true] {
        let mut staged = stage_honest();
        let config = VerifierConfig {
            huge_pages,
            ..VerifierConfig::severifast()
        };
        let boot = verify::run(
            &mut staged.mem,
            &staged.layout,
            &CostModel::calibrated(),
            config,
        )
        .unwrap();
        let swept = |s: &sevf_sim::Step| matches!(s.work, Work::Pvalidate { pages, huge_pages: h } if pages > 0 && h == huge_pages);
        assert!(boot.steps.iter().any(swept));
    }
}

/// The verifier's steps called in order on one thread, with the initrd's
/// digest taken inline once the kernel has passed: the sequential verifier
/// of the paper, which the driver must equal.
fn run_by_steps(
    staged: &mut Staged,
    cost: &CostModel,
    config: VerifierConfig,
) -> Result<VerifiedBoot, VerifierError> {
    let mem = &mut staged.mem;
    let mut verifier = Verifier::enter(mem, &staged.layout, cost, config)?;
    let initrd = verifier.copy_initrd(mem);
    verifier.load_kernel(mem)?;
    let digest = sha256(&initrd?.chunks().collect::<Vec<_>>().concat());
    verifier.check_initrd(digest)
}

#[test]
fn the_driver_equals_the_steps_called_in_sequence() {
    // The same staged guest, with the same one-byte flips (or none), booted
    // through `run_then` and through the steps in sequence: the verdict, the
    // `VerifiedBoot` with its priced steps, and the guest memory left behind
    // are equal.
    let mut rng = XorShift64::new(0xE51F_0004);
    let cost = CostModel::calibrated();
    let generations = [
        SevGeneration::Sev,
        SevGeneration::SevEs,
        SevGeneration::SevSnp,
    ];
    for generation in generations {
        for kind in [KernelKind::Bzimage, KernelKind::Vmlinux] {
            let config = VerifierConfig {
                kind,
                ..VerifierConfig::severifast()
            };
            for case in 0..6 {
                let (mut by_driver, mut by_steps) =
                    (stage(generation, kind), stage(generation, kind));
                // Case 0 flips nothing; each other case flips one byte of
                // the staged kernel, of the initrd, or of both.
                let which = if case == 0 { 0 } else { 1 + rng.next_below(3) };
                let mut flips = Vec::new();
                if which & 1 != 0 {
                    let at = rng.next_below(by_driver.kernel_len as u64);
                    flips.push(by_driver.layout.kernel_staging + at);
                }
                if which & 2 != 0 {
                    let at = rng.next_below(by_driver.initrd_len as u64);
                    flips.push(by_driver.layout.initrd_staging + at);
                }
                let flip = 1 + (rng.next_u64() % 255) as u8;
                for staged in [&mut by_driver, &mut by_steps] {
                    for &at in &flips {
                        let byte = staged.mem.host_read(at, 1).unwrap()[0];
                        staged.mem.host_write(at, &[byte ^ flip]).unwrap();
                    }
                }
                let cell = format!("{} {kind:?}, flips at {flips:x?}", generation.name());
                let driven = verify::run_then(
                    &mut by_driver.mem,
                    &by_driver.layout,
                    &cost,
                    config,
                    |_, entry| Ok::<_, VerifierError>(entry),
                )
                .map(|(boot, entry)| {
                    assert_eq!(entry, boot.kernel_entry, "{cell}");
                    boot
                });
                let stepped = run_by_steps(&mut by_steps, &cost, config);
                assert_eq!(driven, stepped, "{cell}");
                assert!(case > 0 || driven.is_ok(), "{cell}: {driven:?}");
                assert_eq!(
                    by_driver.mem.host_page_digests(),
                    by_steps.mem.host_page_digests(),
                    "{cell}: the guest memory differs"
                );
            }
        }
    }
}
