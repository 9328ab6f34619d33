//! The QEMU/OVMF baseline boot path.
//!
//! The paper's comparison point (§2.5, §3.1): mainstream SEV-SNP boots run
//! the EDK2 Open Virtual Machine Firmware, a UEFI Platform Initialization
//! implementation. OVMF carries everything UEFI requires — device drivers,
//! an EFI shell, the six PI boot phases — none of which a microVM needs, and
//! its smallest build is 1 MB, so pre-encrypting it costs ~256 ms (Fig. 4).
//! Fig. 3 breaks its SNP boot into SEC → PEI → DXE → BDS (> 3 s total) with
//! only the final "Boot Verifier" sliver doing SEV-relevant work.
//!
//! This crate builds the 1 MB firmware blob (plus the SNP metadata pages
//! QEMU also pre-encrypts), models the four timed PI phases, and then runs
//! the *same* measured-direct-boot core as SEVeriFast (`sevf-verifier`) —
//! because that part, the paper shows, is the only part that matters.
//!
//! # Example
//!
//! ```
//! use sevf_ovmf::OvmfImage;
//!
//! let ovmf = OvmfImage::build();
//! assert_eq!(ovmf.bytes().len(), 1024 * 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sevf_image::content::{generate, ContentProfile};
use sevf_mem::GuestMemory;
use sevf_sim::cost::{CostModel, Step, Work};
use sevf_sim::PhaseKind;
use sevf_verifier::layout::GuestLayout;
use sevf_verifier::verify::{self, KernelKind, VerifiedBoot, VerifierConfig};
use sevf_verifier::VerifierError;

/// Guest-physical base address the OVMF image is pre-encrypted at (clear of
/// the page-table region at 1 MB and the kernel base at 16 MB).
pub const OVMF_BASE: u64 = 0x20_0000;

/// Size of the smallest supported OVMF build (§3.1).
pub const OVMF_IMAGE_SIZE: u64 = 1024 * 1024;

/// SNP metadata QEMU additionally pre-encrypts alongside the firmware:
/// CPUID page, secrets page, and assorted DXE/SEC working pages.
pub const OVMF_METADATA_SIZE: u64 = 96 * 1024;

/// The OVMF firmware image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OvmfImage {
    blob: Vec<u8>,
}

impl OvmfImage {
    /// Builds the deterministic 1 MB firmware blob.
    pub fn build() -> Self {
        let mut blob = b"OVMF".to_vec();
        blob.extend(generate(
            ContentProfile::aws(),
            OVMF_IMAGE_SIZE as usize - 4,
            b"edk2-ovmf-build",
        ));
        OvmfImage { blob }
    }

    /// The firmware bytes to pre-encrypt.
    pub fn bytes(&self) -> &[u8] {
        &self.blob
    }

    /// Total bytes QEMU pre-encrypts for this image (blob + metadata).
    pub fn pre_encrypted_size(&self) -> u64 {
        self.blob.len() as u64 + OVMF_METADATA_SIZE
    }
}

/// The four timed phases of Fig. 3, in order. (The PI spec's TSL/RT phases
/// are where the kernel takes over; their time is accounted to boot
/// verification and the kernel itself.)
pub fn pi_phases(cost: &CostModel) -> Vec<Step> {
    [
        (PhaseKind::OvmfSec, "SEC (security)", Work::OvmfSec),
        (
            PhaseKind::OvmfPei,
            "PEI (pre-EFI initialization)",
            Work::OvmfPei,
        ),
        (
            PhaseKind::OvmfDxe,
            "DXE (driver execution environment)",
            Work::OvmfDxe,
        ),
        (
            PhaseKind::OvmfBds,
            "BDS (boot device selection)",
            Work::OvmfBds,
        ),
    ]
    .into_iter()
    .map(|(phase, label, work)| cost.step(phase, label, work))
    .collect()
}

/// Result of the OVMF guest-side boot.
#[derive(Debug, Clone, PartialEq)]
pub struct OvmfBoot {
    /// The timed PI phases.
    pub phases: Vec<Step>,
    /// The embedded boot verifier's outcome (the Fig. 3 "Boot Verifier"
    /// sliver).
    pub verified: VerifiedBoot,
}

/// The configuration of OVMF's embedded verifier: the firmware it skips in
/// the pvalidate sweep is OVMF and its SNP metadata.
pub fn verifier_config(kind: KernelKind, huge_pages: bool) -> VerifierConfig {
    VerifierConfig {
        kind,
        huge_pages,
        c_bit: sevf_mem::C_BIT_POSITION,
        firmware_base: OVMF_BASE,
        firmware_size: OVMF_IMAGE_SIZE + OVMF_METADATA_SIZE,
    }
}

/// Runs the OVMF guest boot: the four PI phases, then measured direct boot
/// with OVMF's embedded verifier ([`verifier_config`]).
///
/// # Errors
///
/// Propagates [`VerifierError`]s from the measured-direct-boot core (hash
/// mismatches, memory faults).
pub fn boot(
    mem: &mut GuestMemory,
    layout: &GuestLayout,
    cost: &CostModel,
    kind: KernelKind,
    huge_pages: bool,
) -> Result<OvmfBoot, VerifierError> {
    let phases = pi_phases(cost);
    let verified = verify::run(mem, layout, cost, verifier_config(kind, huge_pages))?;
    Ok(OvmfBoot { phases, verified })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sevf_codec::Codec;
    use sevf_crypto::sha256;
    use sevf_image::kernel::KernelConfig;
    use sevf_mem::PAGE_SIZE;
    use sevf_sim::cost::SevGeneration;
    use sevf_sim::Nanos;
    use sevf_verifier::hashes::{HashPage, KernelHashes};
    use sevf_verifier::layout::HASH_PAGE_ADDR;

    const MB: u64 = 1024 * 1024;

    fn setup() -> (GuestMemory, GuestLayout) {
        let image = KernelConfig::test_tiny().build();
        let bz = image.bzimage(Codec::Lz4);
        let initrd = sevf_image::initrd::build_initrd(64 * 1024);
        let mut mem = GuestMemory::new_sev(64 * MB, [8u8; 16], SevGeneration::SevSnp);
        let layout = GuestLayout::plan(64 * MB, bz.len() as u64, initrd.len() as u64).unwrap();
        mem.host_write(layout.kernel_staging, &bz).unwrap();
        mem.host_write(layout.initrd_staging, &initrd).unwrap();
        let hash_page = HashPage {
            kernel: KernelHashes::WholeImage(sha256(&bz)),
            initrd: sha256(&initrd),
        };
        mem.host_write(HASH_PAGE_ADDR, &hash_page.to_page())
            .unwrap();
        let ovmf = OvmfImage::build();
        mem.host_write(OVMF_BASE, ovmf.bytes()).unwrap();
        mem.pre_encrypt(HASH_PAGE_ADDR, PAGE_SIZE).unwrap();
        mem.pre_encrypt(OVMF_BASE, ovmf.pre_encrypted_size())
            .unwrap();
        for (base, len) in layout.private_ranges() {
            mem.rmp_assign(base, len).unwrap();
        }
        (mem, layout)
    }

    #[test]
    fn image_is_exactly_one_megabyte() {
        let ovmf = OvmfImage::build();
        assert_eq!(ovmf.bytes().len() as u64, OVMF_IMAGE_SIZE);
        assert_eq!(
            ovmf.pre_encrypted_size(),
            OVMF_IMAGE_SIZE + OVMF_METADATA_SIZE
        );
        assert_eq!(OvmfImage::build(), ovmf, "deterministic build");
    }

    fn total(steps: &[Step]) -> Nanos {
        steps.iter().map(|s| s.duration).sum()
    }

    #[test]
    fn pi_phases_total_matches_fig3() {
        let total: Nanos = pi_phases(&CostModel::calibrated())
            .iter()
            .map(|p| p.duration)
            .sum();
        let s = total.as_secs_f64();
        assert!((2.9..3.4).contains(&s), "PI phases total {s}s");
    }

    #[test]
    fn ovmf_boot_succeeds_and_is_slow() {
        let (mut mem, layout) = setup();
        let boot = super::boot(
            &mut mem,
            &layout,
            &CostModel::calibrated(),
            KernelKind::Bzimage,
            true,
        )
        .unwrap();
        // Fig. 3: firmware dominated by PI phases, > 3 s.
        assert!(total(&boot.phases).as_secs_f64() > 3.0);
        // The boot-verifier sliver is tiny by comparison.
        assert!(total(&boot.verified.steps).as_millis_f64() < 100.0);
        assert_eq!(boot.verified.kernel_entry, layout.kernel_dest);
    }

    #[test]
    fn ovmf_detects_tampering_too() {
        let (mut mem, layout) = setup();
        let evil = vec![0x55u8; layout.kernel_size as usize];
        mem.host_write(layout.kernel_staging, &evil).unwrap();
        assert!(super::boot(
            &mut mem,
            &layout,
            &CostModel::calibrated(),
            KernelKind::Bzimage,
            true,
        )
        .is_err());
    }

    #[test]
    fn preencryption_cost_matches_s3_1() {
        // Pre-encrypting OVMF + metadata should land near Fig. 10's 288 ms.
        let cost = CostModel::calibrated();
        let ovmf = OvmfImage::build();
        let ms = cost
            .price(&Work::LaunchUpdateData(ovmf.pre_encrypted_size()))
            .as_millis_f64();
        assert!((260.0..310.0).contains(&ms), "OVMF pre-encryption {ms} ms");
    }
}
