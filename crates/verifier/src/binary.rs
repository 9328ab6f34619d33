//! The boot-verifier binary and its code-size ledger.
//!
//! §4.1/§5 of the paper: starting from rust-hypervisor-firmware, everything
//! not needed for a secure measured direct boot was stripped (virtio, FAT,
//! PCI, EFI, PVH), leaving a ~13 KB binary. Pre-encryption cost is linear in
//! binary size (Fig. 4), so every feature's footprint matters; Fig. 7 makes
//! the pre-encrypt-vs-generate decision by comparing a structure's size
//! against the size of the code that could generate it. This module is that
//! ledger: [`VerifierFeatures`] selects functionality, [`VerifierBinary`]
//! accounts the bytes and emits the blob that joins the root of trust.

use sevf_image::content::{generate, ContentProfile};

/// Code-size contributions in bytes (the ledger behind Fig. 7 and the
/// "about 13 KB" total of §4.1).
pub mod code_size {
    /// Entry stub, GHCB MSR protocol, #VC plumbing, panic handler.
    pub(crate) const BASE_RUNTIME: u64 = 3_200;
    /// SHA-256 (sha2 crate with x86 SHA intrinsics).
    pub(crate) const SHA256: u64 = 2_500;
    /// Measured-direct-boot driver (copy, hash, compare, refuse).
    pub(crate) const MEASURED_BOOT: u64 = 1_800;
    /// pvalidate sweep over guest memory.
    pub(crate) const PVALIDATE: u64 = 800;
    /// Identity-mapped page-table construction with the C-bit (Fig. 7:
    /// "2.4KB" — generated because the code is smaller than pre-encrypting
    /// tables built by the VMM).
    pub const PAGE_TABLES: u64 = 2_400;
    /// bzImage setup-header parsing and placement (§4.4: small).
    pub(crate) const BZIMAGE_LOADER: u64 = 2_100;
    /// ELF parsing + fw_cfg three-piece load protocol (§5, optional).
    pub(crate) const VMLINUX_LOADER: u64 = 2_600;
    /// mptable generation (Fig. 7: ≈ 4 KB — larger than the 304 B table, so
    /// the paper pre-encrypts the table instead).
    pub const MPTABLE_GEN: u64 = 4_096;
    /// boot_params generation (Fig. 7: ≈ 5 KB vs a 4 KB structure — also
    /// pre-encrypted instead).
    pub const BOOT_PARAMS_GEN: u64 = 5_120;
}

/// Which functionality is compiled into the verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifierFeatures {
    /// Load a bzImage (the SEVeriFast default).
    pub bzimage_loader: bool,
    /// Load an uncompressed vmlinux via fw_cfg (§5's comparison build).
    pub vmlinux_loader: bool,
    /// Generate the mptable in the guest instead of pre-encrypting it.
    pub generate_mptable: bool,
    /// Generate boot_params in the guest instead of pre-encrypting them.
    pub generate_boot_params: bool,
}

impl VerifierFeatures {
    /// The SEVeriFast configuration from the paper: bzImage loader only;
    /// mptable and boot_params are pre-encrypted, page tables generated.
    pub fn severifast() -> Self {
        VerifierFeatures {
            bzimage_loader: true,
            vmlinux_loader: false,
            generate_mptable: false,
            generate_boot_params: false,
        }
    }

    /// The §5 comparison build with the optimized uncompressed-vmlinux
    /// loader.
    pub fn severifast_vmlinux() -> Self {
        VerifierFeatures {
            bzimage_loader: false,
            vmlinux_loader: true,
            generate_mptable: false,
            generate_boot_params: false,
        }
    }

    /// A maximal build (used by the ablation table to show why generating
    /// everything in the guest loses: the binary grows past 24 KB).
    pub fn kitchen_sink() -> Self {
        VerifierFeatures {
            bzimage_loader: true,
            vmlinux_loader: true,
            generate_mptable: true,
            generate_boot_params: true,
        }
    }

    /// Binary size under this feature set.
    pub fn binary_size(&self) -> u64 {
        use code_size::*;
        let mut size = BASE_RUNTIME + SHA256 + MEASURED_BOOT + PVALIDATE + PAGE_TABLES;
        if self.bzimage_loader {
            size += BZIMAGE_LOADER;
        }
        if self.vmlinux_loader {
            size += VMLINUX_LOADER;
        }
        if self.generate_mptable {
            size += MPTABLE_GEN;
        }
        if self.generate_boot_params {
            size += BOOT_PARAMS_GEN;
        }
        size
    }
}

/// Magic prefix of a verifier binary blob.
const VERIFIER_MAGIC: &[u8; 4] = b"SVBV";

/// The built verifier binary: a deterministic blob of exactly
/// [`VerifierFeatures::binary_size`] bytes whose first bytes encode the
/// feature set (so the launch measurement pins *which verifier* ran —
/// attack 3 of §2.6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifierBinary {
    features: VerifierFeatures,
    blob: Vec<u8>,
}

impl VerifierBinary {
    /// Builds the binary for a feature set.
    pub fn build(features: VerifierFeatures) -> Self {
        let size = features.binary_size() as usize;
        let mut blob = Vec::with_capacity(size);
        blob.extend_from_slice(VERIFIER_MAGIC);
        blob.push(1); // version
        blob.push(Self::encode_features(features));
        let body_seed = format!("sevf-verifier-{:02x}", Self::encode_features(features));
        blob.extend(generate(
            ContentProfile::aws(),
            size - blob.len(),
            body_seed.as_bytes(),
        ));
        VerifierBinary { features, blob }
    }

    fn encode_features(f: VerifierFeatures) -> u8 {
        (f.bzimage_loader as u8)
            | (f.vmlinux_loader as u8) << 1
            | (f.generate_mptable as u8) << 2
            | (f.generate_boot_params as u8) << 3
    }

    /// The feature set compiled in.
    pub fn features(&self) -> VerifierFeatures {
        self.features
    }

    /// The binary image to pre-encrypt.
    pub fn bytes(&self) -> &[u8] {
        &self.blob
    }

    /// Binary size in bytes.
    pub fn size(&self) -> u64 {
        self.blob.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severifast_build_is_about_13kb() {
        let size = VerifierFeatures::severifast().binary_size();
        assert!(
            (12_000..14_000).contains(&size),
            "§4.1 says about 13 KB, got {size}"
        );
    }

    #[test]
    fn vmlinux_build_is_slightly_larger() {
        let bz = VerifierFeatures::severifast().binary_size();
        let vm = VerifierFeatures::severifast_vmlinux().binary_size();
        assert!(vm > bz, "ELF loading needs more code than bzImage (§4.4)");
    }

    #[test]
    fn kitchen_sink_shows_why_generation_loses() {
        // Fig. 7's decision rule: generating mptable + boot_params would add
        // ~9 KB of code to save ~4.3 KB of structures.
        let sink = VerifierFeatures::kitchen_sink().binary_size();
        let lean = VerifierFeatures::severifast().binary_size();
        assert!(sink > lean + 9_000);
    }

    #[test]
    fn blob_size_matches_ledger_and_is_deterministic() {
        let a = VerifierBinary::build(VerifierFeatures::severifast());
        let b = VerifierBinary::build(VerifierFeatures::severifast());
        assert_eq!(a, b);
        assert_eq!(a.size(), VerifierFeatures::severifast().binary_size());
    }

    #[test]
    fn different_features_different_blob() {
        let a = VerifierBinary::build(VerifierFeatures::severifast());
        let b = VerifierBinary::build(VerifierFeatures::severifast_vmlinux());
        assert_ne!(a.bytes()[..64], b.bytes()[..64]);
    }
}
