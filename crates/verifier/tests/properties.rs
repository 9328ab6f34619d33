//! Property-based tests: measured direct boot must catch *any* tampering.
//!
//! Seeded XorShift64 case generation keeps the sweep deterministic without
//! an external property-testing dependency.

use sevf_codec::Codec;
use sevf_crypto::sha256;
use sevf_image::kernel::KernelConfig;
use sevf_mem::GuestMemory;
use sevf_sim::cost::SevGeneration;
use sevf_sim::rng::XorShift64;
use sevf_sim::{CostModel, Work};
use sevf_verifier::binary::{VerifierBinary, VerifierFeatures};
use sevf_verifier::hashes::{HashPage, KernelHashes};
use sevf_verifier::layout::{GuestLayout, HASH_PAGE_ADDR, VERIFIER_ADDR};
use sevf_verifier::verify::{self, VerifierConfig};
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
    let image = KernelConfig::test_tiny().build();
    let bz = image.bzimage(Codec::Lz4);
    let initrd = sevf_image::initrd::build_initrd(64 * 1024);
    let mut mem = GuestMemory::new_sev(64 * MB, [3u8; 16], SevGeneration::SevSnp);
    let layout = GuestLayout::plan(64 * MB, bz.len() as u64, initrd.len() as u64).unwrap();
    mem.host_write(layout.kernel_staging, &bz).unwrap();
    mem.host_write(layout.initrd_staging, &initrd).unwrap();
    let hash_page = HashPage {
        kernel: KernelHashes::WholeImage(sha256(&bz)),
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
        kernel_len: bz.len(),
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
