//! The calibrated virtual-time cost model.
//!
//! One struct, [`CostModel`], holds every constant that converts functional
//! work (bytes hashed, pages encrypted, commands dispatched) into virtual
//! time. Each constant's doc comment cites the paper measurement it was
//! derived from, so EXPERIMENTS.md can trace every reproduced number back to
//! its calibration anchor. All fields are public: the ablation table tweaks
//! them to explore the design space (e.g. "what if the PSP were 4× faster?").
//!
//! Calibration anchors (AMD EPYC 7313P, §6.1 of the paper):
//!
//! | anchor | paper value | model value |
//! |---|---|---|
//! | pre-encrypt 23 MB vmlinux (§3.2) | 5.65 s | ≈ 5.8 s |
//! | pre-encrypt 3.3 MB bzImage (§3.2) | 840 ms | ≈ 838 ms |
//! | pre-encrypt 1 MB OVMF (§3.1) | +256.65 ms | ≈ 260 ms |
//! | SEVeriFast pre-encryption (Fig. 10) | 8.07–8.22 ms | ≈ 8 ms |
//! | pvalidate 256 MB, 4 KiB pages (§6.1) | > 60 ms | ≈ 65 ms |
//! | pvalidate 256 MB, 2 MiB pages (§6.1) | < 1 ms | ≈ 0.13 ms |
//! | hash a kernel in the VMM (§4.3) | up to 23 ms | 61 MB ≈ 30 ms |
//! | Linux boot under SNP (§6.2) | ≈ 2.3× | 2.3× |
//! | attestation round trip (§6.1) | ≈ 200 ms | 198 ms |

use sevf_codec::Codec;

use crate::time::Nanos;

/// 4 KiB — the granularity of `LAUNCH_UPDATE_DATA` and `pvalidate`.
pub const PAGE_4K: u64 = 4096;
/// 2 MiB — the huge-page granularity (§6.1: transparent huge pages enabled).
pub const PAGE_2M: u64 = 2 * 1024 * 1024;

/// Every calibrated constant of the simulation, in one place.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    // ---- PSP (Platform Security Processor) ------------------------------
    /// Per-byte cost of `LAUNCH_UPDATE_DATA` hashing+encryption on the PSP,
    /// in picoseconds per byte. Anchor: 23 MB vmlinux → 5.65 s and 3.3 MB
    /// bzImage → 840 ms (§3.2) give ≈ 0.248 ms/KiB ≈ 242 000 ps/B.
    pub psp_encrypt_ps_per_byte: u64,
    /// Fixed dispatch cost per PSP command (mailbox write, doorbell,
    /// completion poll). Fitted intercept of Fig. 4's line.
    pub psp_cmd_dispatch: Nanos,
    /// `SNP_LAUNCH_START`: create guest context, generate the VEK.
    pub psp_launch_start: Nanos,
    /// `SNP_LAUNCH_UPDATE` of one VMSA (per vCPU, SEV-ES/SNP only).
    pub psp_launch_update_vmsa: Nanos,
    /// `SNP_LAUNCH_FINISH`: finalize the measurement.
    pub psp_launch_finish: Nanos,
    /// PSP-mediated RMP/page-state initialization per 2 MiB of guest memory.
    /// Anchor: the Fig. 12 slope — average boot ≈ 1.8 s at 50 concurrent
    /// 256 MB guests, and the paper observes the slope equals the total
    /// SEV launch-command time per VM (⇒ ≈ 36 ms of serialized PSP work
    /// per launch, of which RMP init is the bulk).
    pub psp_rmp_init_per_2mb: Nanos,
    /// `SNP_GUEST_REQUEST` attestation-report generation.
    pub psp_report: Nanos,
    /// Firmware reset/recovery: `SEV_PLATFORM_INIT` after a PSP reboot.
    /// Modeling assumption (no paper anchor): tens of milliseconds, the
    /// order of `DOWNLOAD_FIRMWARE` + platform re-init on EPYC parts.
    pub psp_firmware_reset: Nanos,

    // ---- Guest / host CPU ------------------------------------------------
    /// SHA-256 with x86 SHA extensions, ps/B. Anchor: §4.3 "hashing the
    /// kernel/initrd in the VMM could add up to 23 ms" (≈ 60 MB at 2 GB/s).
    pub cpu_sha256_ps_per_byte: u64,
    /// Copy from shared to C-bit (encrypted) memory, ps/B: every write takes
    /// an RMP check (§6.2), so this is slower than a plain copy.
    pub cpu_copy_encrypted_ps_per_byte: u64,
    /// Plain memcpy within host memory (kernel image warm in buffer cache,
    /// §6.1), ps/B.
    pub cpu_copy_plain_ps_per_byte: u64,
    /// LZ4 decompression, ps per *output* byte.
    pub lz4_decompress_ps_per_byte: u64,
    /// Deflate-class decompression, ps per output byte.
    pub deflate_decompress_ps_per_byte: u64,
    /// Zstd-class decompression, ps per output byte.
    pub zstd_decompress_ps_per_byte: u64,
    /// One `pvalidate` instruction (any page size).
    pub pvalidate_per_page: Nanos,
    /// Building the identity-mapped page tables in the boot verifier
    /// (1 GB with 2 MB pages — Fig. 7).
    pub page_table_setup: Nanos,
    /// Parsing overhead per ELF program header processed by a loader.
    pub elf_segment_overhead: Nanos,
    /// Per-file overhead when unpacking a CPIO archive.
    pub cpio_entry_overhead: Nanos,
    /// One #VC exit (GHCB MSR write or intercepted port I/O).
    pub vc_exit: Nanos,

    // ---- VMM --------------------------------------------------------------
    /// Firecracker process exec + config parse + API handling.
    pub fc_process_spawn: Nanos,
    /// KVM VM + vCPU creation, memory region registration.
    pub kvm_vm_setup: Nanos,
    /// MMIO/legacy device setup (serial, virtio stubs, debug port).
    pub device_setup: Nanos,
    /// Extra KVM work for an SEV guest: registering/pinning encrypted
    /// memory regions (§6.2: "KVM pins guest memory pages during boot").
    pub sev_kvm_extra: Nanos,
    /// QEMU process spawn + machine model construction (heavier than
    /// Firecracker; part of why Fig. 9's QEMU CDF starts so far right).
    pub qemu_process_spawn: Nanos,

    // ---- Guest kernel ------------------------------------------------------
    /// Multiplier on guest-kernel boot phases under SEV-SNP (§6.2: "Linux
    /// Boot takes about 2.3× longer" — #VC handling + RMP-checked writes).
    pub snp_linux_boot_multiplier: f64,
    /// Multiplier under plain SEV (no encrypted register state, no RMP).
    pub sev_linux_boot_multiplier: f64,
    /// Multiplier under SEV-ES.
    pub seves_linux_boot_multiplier: f64,

    // ---- OVMF / UEFI PI phases (Fig. 3) ------------------------------------
    /// SEC (security) phase.
    pub ovmf_sec: Nanos,
    /// PEI (pre-EFI initialization) phase.
    pub ovmf_pei: Nanos,
    /// DXE (driver execution environment) phase — the bulk of Fig. 3.
    pub ovmf_dxe: Nanos,
    /// BDS (boot device selection) phase.
    pub ovmf_bds: Nanos,

    // ---- Attestation (§6.1: ≈ 200 ms end to end) ----------------------------
    /// Network round trip guest ↔ guest-owner server.
    pub attestation_network_rtt: Nanos,
    /// Server-side report validation + secret wrapping.
    pub attestation_server_validate: Nanos,
    /// Guest-side key generation and secret unwrapping.
    pub attestation_guest_crypto: Nanos,
}

impl CostModel {
    /// The model calibrated to the paper's published numbers (see the
    /// module-level anchor table).
    pub fn calibrated() -> Self {
        CostModel {
            psp_encrypt_ps_per_byte: 242_000,
            psp_cmd_dispatch: Nanos::from_micros(18),
            psp_launch_start: Nanos::from_micros(900),
            psp_launch_update_vmsa: Nanos::from_micros(350),
            psp_launch_finish: Nanos::from_micros(350),
            psp_rmp_init_per_2mb: Nanos::from_micros(200),
            psp_report: Nanos::from_millis(1),
            psp_firmware_reset: Nanos::from_millis(50),

            cpu_sha256_ps_per_byte: 520,
            cpu_copy_encrypted_ps_per_byte: 400,
            cpu_copy_plain_ps_per_byte: 100,
            lz4_decompress_ps_per_byte: 357,
            deflate_decompress_ps_per_byte: 2_857,
            zstd_decompress_ps_per_byte: 909,
            pvalidate_per_page: Nanos::from_nanos(1_000),
            page_table_setup: Nanos::from_micros(30),
            elf_segment_overhead: Nanos::from_micros(5),
            cpio_entry_overhead: Nanos::from_micros(2),
            vc_exit: Nanos::from_micros(8),

            fc_process_spawn: Nanos::from_micros(4_500),
            kvm_vm_setup: Nanos::from_micros(1_200),
            device_setup: Nanos::from_micros(400),
            sev_kvm_extra: Nanos::from_micros(2_500),
            qemu_process_spawn: Nanos::from_millis(38),

            snp_linux_boot_multiplier: 2.3,
            sev_linux_boot_multiplier: 1.4,
            seves_linux_boot_multiplier: 1.8,

            ovmf_sec: Nanos::from_millis(85),
            ovmf_pei: Nanos::from_millis(340),
            ovmf_dxe: Nanos::from_millis(1_750),
            ovmf_bds: Nanos::from_millis(975),

            attestation_network_rtt: Nanos::from_millis(180),
            attestation_server_validate: Nanos::from_millis(15),
            attestation_guest_crypto: Nanos::from_millis(3),
        }
    }

    fn per_byte(ps_per_byte: u64, bytes: u64) -> Nanos {
        Nanos::from_nanos(ps_per_byte.saturating_mul(bytes) / 1000)
    }

    // ---- PSP costs ----------------------------------------------------------

    /// Cost of pre-encrypting `bytes` of guest memory through
    /// `LAUNCH_UPDATE_DATA` (4 KiB command granularity), excluding
    /// start/finish.
    pub fn psp_pre_encrypt_bytes(&self, bytes: u64) -> Nanos {
        if bytes == 0 {
            return Nanos::ZERO;
        }
        let commands = bytes.div_ceil(PAGE_4K);
        self.psp_cmd_dispatch.scale(commands) + Self::per_byte(self.psp_encrypt_ps_per_byte, bytes)
    }

    /// PSP-mediated RMP/page-state initialization for a guest of
    /// `guest_mem_bytes`.
    pub fn psp_rmp_init(&self, guest_mem_bytes: u64) -> Nanos {
        self.psp_rmp_init_per_2mb
            .scale(guest_mem_bytes.div_ceil(PAGE_2M))
    }

    /// `LAUNCH_UPDATE_VMSA` for `vcpus` virtual CPUs.
    pub fn psp_update_vmsas(&self, vcpus: u64) -> Nanos {
        (self.psp_launch_update_vmsa + self.psp_cmd_dispatch).scale(vcpus)
    }

    // ---- CPU costs ----------------------------------------------------------

    /// SHA-256 over `bytes` on the guest/host CPU.
    pub fn cpu_sha256(&self, bytes: u64) -> Nanos {
        Nanos::from_micros(2) + Self::per_byte(self.cpu_sha256_ps_per_byte, bytes)
    }

    /// Copy `bytes` from shared pages into C-bit (encrypted) pages.
    pub fn cpu_copy_to_encrypted(&self, bytes: u64) -> Nanos {
        Self::per_byte(self.cpu_copy_encrypted_ps_per_byte, bytes)
    }

    /// Plain copy of `bytes` (e.g. VMM loading the kernel into guest memory).
    pub fn cpu_copy_plain(&self, bytes: u64) -> Nanos {
        Self::per_byte(self.cpu_copy_plain_ps_per_byte, bytes)
    }

    /// Decompression of a payload expanding to `output_bytes` with `codec`.
    pub fn decompress(&self, codec: Codec, output_bytes: u64) -> Nanos {
        let ps = match codec {
            Codec::None => return Nanos::ZERO,
            Codec::Lz4 => self.lz4_decompress_ps_per_byte,
            Codec::Deflate => self.deflate_decompress_ps_per_byte,
            Codec::Zstd => self.zstd_decompress_ps_per_byte,
        };
        Nanos::from_micros(10) + Self::per_byte(ps, output_bytes)
    }

    /// `pvalidate` sweep over `mem_bytes` using the given page size.
    pub fn pvalidate_sweep(&self, mem_bytes: u64, page_size: u64) -> Nanos {
        self.pvalidate_per_page.scale(mem_bytes.div_ceil(page_size))
    }

    /// Boot-phase multiplier for a guest kernel under the given policy
    /// ("none" = 1.0; SEV/SEV-ES/SNP per §6.2).
    pub fn linux_boot_multiplier(&self, snp: SevGeneration) -> f64 {
        match snp {
            SevGeneration::None => 1.0,
            SevGeneration::Sev => self.sev_linux_boot_multiplier,
            SevGeneration::SevEs => self.seves_linux_boot_multiplier,
            SevGeneration::SevSnp => self.snp_linux_boot_multiplier,
        }
    }

    /// End-to-end attestation round trip (network + server + guest crypto +
    /// PSP report), ≈ 200 ms (§6.1).
    pub fn attestation_roundtrip(&self) -> Nanos {
        self.attestation_network_rtt
            + self.attestation_server_validate
            + self.attestation_guest_crypto
            + self.psp_report
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

/// Which SEV generation a guest is launched with.
///
/// SEV-SNP is a superset of SEV-ES which is a superset of SEV (§2.2); all
/// headline experiments in the paper run SEV-SNP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SevGeneration {
    /// No memory encryption (stock microVM).
    None,
    /// Base SEV: memory encryption only.
    Sev,
    /// SEV-ES: + encrypted register state.
    SevEs,
    /// SEV-SNP: + integrity protection (RMP, pvalidate, #VC).
    SevSnp,
}

impl SevGeneration {
    /// True for any generation with memory encryption.
    pub fn is_sev(self) -> bool {
        self != SevGeneration::None
    }

    /// True if guest register state is encrypted (ES and SNP).
    pub fn encrypts_vmsa(self) -> bool {
        matches!(self, SevGeneration::SevEs | SevGeneration::SevSnp)
    }

    /// True if the RMP / pvalidate machinery is active (SNP only).
    pub fn has_rmp(self) -> bool {
        self == SevGeneration::SevSnp
    }

    /// Display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            SevGeneration::None => "none",
            SevGeneration::Sev => "SEV",
            SevGeneration::SevEs => "SEV-ES",
            SevGeneration::SevSnp => "SEV-SNP",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn preencrypt_anchors_match_paper() {
        let m = CostModel::calibrated();
        // §3.2: 23 MB vmlinux → 5.65 s (we land within 5%).
        let vmlinux = m.psp_pre_encrypt_bytes(23 * MB).as_secs_f64();
        assert!((5.3..6.2).contains(&vmlinux), "vmlinux: {vmlinux}");
        // §3.2: 3.3 MB bzImage → 840 ms.
        let bz = m.psp_pre_encrypt_bytes((33 * MB) / 10).as_millis_f64();
        assert!((790.0..900.0).contains(&bz), "bzImage: {bz}");
        // §3.1: 1 MB OVMF → ~256 ms.
        let ovmf = m.psp_pre_encrypt_bytes(MB).as_millis_f64();
        assert!((240.0..280.0).contains(&ovmf), "ovmf: {ovmf}");
    }

    #[test]
    fn severifast_preencryption_is_single_digit_ms() {
        let m = CostModel::calibrated();
        // ~13 KB verifier + ~6 KB of boot structures + hashes page.
        let content = 13 * 1024 + 6 * 1024 + 4096;
        let total = m.psp_launch_start
            + m.psp_pre_encrypt_bytes(content)
            + m.psp_update_vmsas(1)
            + m.psp_launch_finish;
        let ms = total.as_millis_f64();
        assert!((6.0..11.0).contains(&ms), "SEVeriFast pre-encryption: {ms}");
    }

    #[test]
    fn pvalidate_anchors_match_paper() {
        let m = CostModel::calibrated();
        // §6.1: 256 MB with 4 KiB pages > 60 ms; with 2 MiB pages < 1 ms.
        let small = m.pvalidate_sweep(256 * MB, PAGE_4K).as_millis_f64();
        assert!(small > 60.0, "4k sweep: {small}");
        let huge = m.pvalidate_sweep(256 * MB, PAGE_2M).as_millis_f64();
        assert!(huge < 1.0, "2M sweep: {huge}");
    }

    #[test]
    fn hashing_kernel_matches_s4_3() {
        let m = CostModel::calibrated();
        // §4.3: hashing kernel+initrd in the VMM "could add up to 23 ms".
        let t = m.cpu_sha256(43 * MB) + m.cpu_sha256(14 * MB);
        assert!((20.0..32.0).contains(&t.as_millis_f64()), "{t}");
    }

    #[test]
    fn attestation_near_200ms() {
        let m = CostModel::calibrated();
        let t = m.attestation_roundtrip().as_millis_f64();
        assert!((190.0..210.0).contains(&t), "{t}");
    }

    #[test]
    fn ovmf_phases_total_over_3s() {
        let m = CostModel::calibrated();
        let t = m.ovmf_sec + m.ovmf_pei + m.ovmf_dxe + m.ovmf_bds;
        assert!(t.as_secs_f64() > 3.0);
    }

    #[test]
    fn lz4_beats_deflate_decompression() {
        let m = CostModel::calibrated();
        assert!(m.decompress(Codec::Lz4, MB) < m.decompress(Codec::Zstd, MB));
        assert!(m.decompress(Codec::Zstd, MB) < m.decompress(Codec::Deflate, MB));
        assert_eq!(m.decompress(Codec::None, MB), Nanos::ZERO);
    }

    #[test]
    fn rmp_init_drives_fig12_slope() {
        let m = CostModel::calibrated();
        // Serialized PSP work per 256 MB / 1 vCPU SEVeriFast launch.
        let per_vm = m.psp_launch_start
            + m.psp_rmp_init(256 * MB)
            + m.psp_pre_encrypt_bytes(24 * 1024)
            + m.psp_update_vmsas(1)
            + m.psp_launch_finish;
        let ms = per_vm.as_millis_f64();
        // Fig. 12: ≈ 1.8 s average at 50 guests with slope = launch-command
        // time ⇒ ≈ 36 ms serialized per VM.
        assert!((28.0..44.0).contains(&ms), "PSP per VM: {ms}");
    }

    #[test]
    fn generation_predicates() {
        assert!(!SevGeneration::None.is_sev());
        assert!(SevGeneration::Sev.is_sev());
        assert!(!SevGeneration::Sev.encrypts_vmsa());
        assert!(SevGeneration::SevEs.encrypts_vmsa());
        assert!(SevGeneration::SevSnp.has_rmp());
        assert!(!SevGeneration::SevEs.has_rmp());
    }
}
