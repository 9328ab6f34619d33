//! The calibrated virtual-time cost model.
//!
//! Boot code does the work for real and records *what* it did as a
//! [`Work`] value: bytes copied, hashed or pre-encrypted, pages validated,
//! commands dispatched. One function, [`CostModel::price`], turns a `Work`
//! into virtual time, and it is the only reader of [`CostModel`]'s fields.
//! Each field's doc comment cites the paper measurement it was derived
//! from, so EXPERIMENTS.md can trace every reproduced number back to its
//! calibration anchor.
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
//!
//! Durations [`CostModel::price`] charges that are not fields (modeling
//! assumptions, no anchor):
//!
//! | work | duration |
//! |---|---|
//! | one SHA-256 call, before its bytes | 2 µs |
//! | one decompression call, before its bytes | 10 µs |
//! | compare a computed hash with the hash page | 1 µs |
//! | parse a bzImage setup header | 3 µs |
//! | shared-key template start, beyond the dispatch | 200 µs |
//! | generate boot_params/mptable/cmdline in the VMM | 120 µs |
//! | warm invocation, beyond its one exit | 180 µs |
//! | one plain (non-SEV) VM exit | 2 µs |

use sevf_codec::Codec;

use crate::time::Nanos;
use crate::timeline::{PhaseKind, ResourceClass};

/// 4 KiB — the granularity of `LAUNCH_UPDATE_DATA` and `pvalidate`.
const PAGE_4K: u64 = 4096;
/// 2 MiB — the huge-page granularity (§6.1: transparent huge pages enabled).
const PAGE_2M: u64 = 2 * 1024 * 1024;

/// One priced operation, in the units the cost model charges for.
///
/// The guest, the VMM and the PSP build these from what they really did;
/// [`CostModel::price`] is the one place that says what each costs, and
/// [`Work::class`] the one place that says which host resource it occupies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Work {
    // ---- PSP commands ------------------------------------------------------
    /// `LAUNCH_START`: create the guest context, generate the VEK.
    LaunchStart,
    /// Shared-key template start: one mailbox round plus a context copy.
    LaunchStartShared,
    /// `LAUNCH_UPDATE_DATA` measuring and encrypting this many bytes.
    LaunchUpdateData(u64),
    /// `LAUNCH_UPDATE_VMSA` for this many virtual CPUs.
    LaunchUpdateVmsa(u64),
    /// PSP-mediated RMP/page-state initialization of this many bytes of
    /// guest memory (0 when the generation has no RMP).
    RmpInit(u64),
    /// `LAUNCH_FINISH`: freeze the measurement.
    LaunchFinish,
    /// `SNP_GUEST_REQUEST`: sign an attestation report.
    GuestRequest,
    /// `SEV_PLATFORM_INIT` after a firmware reset.
    FirmwareReset,

    // ---- VMM ---------------------------------------------------------------
    /// Firecracker process exec + config parse.
    FirecrackerSpawn,
    /// QEMU process spawn + machine model.
    QemuSpawn,
    /// KVM VM + vCPU creation.
    KvmSetup,
    /// Serial, virtio and debug-port device setup.
    DeviceSetup,
    /// Registering and pinning an SEV guest's encrypted memory.
    PinEncryptedMemory,
    /// The VMM generating boot_params, mptable and cmdline.
    BootStructures,

    // ---- Host or guest CPU -------------------------------------------------
    /// A plain copy of this many bytes (host staging, template install,
    /// initrd unpack).
    CopyPlain(u64),
    /// A copy of this many bytes into C-bit (encrypted) memory,
    /// RMP-checked under SNP.
    CopyEncrypted(u64),
    /// One SHA-256 call over this many bytes.
    Sha256(u64),
    /// Comparing a computed hash with the hash page.
    HashCompare,
    /// One decompression call: the input's codec, the bytes it produced.
    Decompress(Codec, u64),
    /// A `pvalidate` sweep.
    Pvalidate {
        /// 4 KiB pages validated.
        pages: u64,
        /// Whether the host backs them with 2 MiB pages (one instruction
        /// per 2 MiB instead of per 4 KiB).
        huge_pages: bool,
    },
    /// Building the verifier's identity-mapped page tables.
    PageTables,
    /// Parsing a bzImage setup header.
    SetupHeader,
    /// Parsing an ELF file header.
    ElfHeader,
    /// Acting on this many ELF program headers.
    ElfSegments(u64),
    /// Unpacking this many CPIO entries.
    CpioEntries(u64),
    /// This many #VC exits (GHCB MSR write or intercepted I/O).
    VcExits(u64),
    /// One plain VM exit (non-SEV guest).
    PlainExit,
    /// A warm invocation: vCPU kick (one exit), request copy, wakeup.
    WarmInvoke,

    // ---- Firmware and guest kernel -----------------------------------------
    /// OVMF SEC phase.
    OvmfSec,
    /// OVMF PEI phase.
    OvmfPei,
    /// OVMF DXE phase.
    OvmfDxe,
    /// OVMF BDS phase.
    OvmfBds,
    /// A guest-kernel boot phase the kernel's own descriptor times at this
    /// many µs without SEV.
    KernelPhase(u64),
    /// Guest-kernel work under a SEV generation: priced, then multiplied
    /// (§6.2: Linux boots ≈ 2.3× slower under SNP).
    Linux {
        /// The guest's SEV generation.
        generation: SevGeneration,
        /// The work it slows.
        work: Box<Work>,
    },
    /// Several operations priced as one step: the sum of their prices.
    All(Vec<Work>),

    // ---- Attestation ---------------------------------------------------------
    /// Report to the guest owner and back: network plus server validation.
    AttestationRoundTrip,
    /// Guest-side key derivation and secret unwrapping.
    GuestCrypto,
}

impl Work {
    /// The host resource this work occupies: the PSP for launch commands,
    /// the network for the owner round trip, a host core otherwise. A
    /// composite occupies what its first part does.
    pub fn class(&self) -> ResourceClass {
        match self {
            Work::LaunchStart
            | Work::LaunchStartShared
            | Work::LaunchUpdateData(_)
            | Work::LaunchUpdateVmsa(_)
            | Work::RmpInit(_)
            | Work::LaunchFinish
            | Work::GuestRequest
            | Work::FirmwareReset => ResourceClass::Psp,
            Work::AttestationRoundTrip => ResourceClass::Network,
            Work::Linux { work, .. } => work.class(),
            Work::All(parts) => parts.first().map_or(ResourceClass::HostCpu, Work::class),
            _ => ResourceClass::HostCpu,
        }
    }
}

/// One priced step of boot work, before it is placed on a timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Phase bucket for figures.
    pub phase: PhaseKind,
    /// Human-readable description of the work.
    pub label: String,
    /// What was done.
    pub work: Work,
    /// What [`CostModel::price`] charged for it.
    pub duration: Nanos,
}

/// Every calibrated constant of the simulation, in one place. Only
/// [`CostModel::price`] reads them (ci.sh checks); a variant model, such as
/// [`CostModel::with_faster_psp`], is built here too.
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

    /// This model with a PSP `speedup`× faster at what scales with bytes
    /// and memory: `LAUNCH_UPDATE_DATA` encryption and RMP initialization
    /// (the ablation's "how fast must the PSP get" study).
    pub fn with_faster_psp(mut self, speedup: u64) -> Self {
        self.psp_encrypt_ps_per_byte /= speedup;
        self.psp_rmp_init_per_2mb =
            Nanos::from_nanos(self.psp_rmp_init_per_2mb.as_nanos() / speedup);
        self
    }

    /// Prices `work` as one step of `phase`.
    pub fn step(&self, phase: PhaseKind, label: impl Into<String>, work: Work) -> Step {
        Step {
            phase,
            label: label.into(),
            duration: self.price(&work),
            work,
        }
    }

    /// The virtual time `work` takes: the one reader of this model's fields.
    /// A composite is priced part by part and summed; guest-kernel work is
    /// priced, then multiplied by its generation's factor.
    pub fn price(&self, work: &Work) -> Nanos {
        let per_byte = |ps: u64, bytes: u64| Nanos::from_nanos(ps.saturating_mul(bytes) / 1000);
        match work {
            Work::LaunchStart => self.psp_launch_start + self.psp_cmd_dispatch,
            Work::LaunchStartShared => self.psp_cmd_dispatch + Nanos::from_micros(200),
            // One command per 4 KiB page.
            Work::LaunchUpdateData(bytes) => {
                self.psp_cmd_dispatch.scale(bytes.div_ceil(PAGE_4K))
                    + per_byte(self.psp_encrypt_ps_per_byte, *bytes)
            }
            Work::LaunchUpdateVmsa(vcpus) => {
                (self.psp_launch_update_vmsa + self.psp_cmd_dispatch).scale(*vcpus)
            }
            Work::RmpInit(bytes) => self.psp_rmp_init_per_2mb.scale(bytes.div_ceil(PAGE_2M)),
            Work::LaunchFinish => self.psp_launch_finish + self.psp_cmd_dispatch,
            Work::GuestRequest => self.psp_report + self.psp_cmd_dispatch,
            Work::FirmwareReset => self.psp_firmware_reset + self.psp_cmd_dispatch,

            Work::FirecrackerSpawn => self.fc_process_spawn,
            Work::QemuSpawn => self.qemu_process_spawn,
            Work::KvmSetup => self.kvm_vm_setup,
            Work::DeviceSetup => self.device_setup,
            Work::PinEncryptedMemory => self.sev_kvm_extra,
            Work::BootStructures => Nanos::from_micros(120),

            Work::CopyPlain(bytes) => per_byte(self.cpu_copy_plain_ps_per_byte, *bytes),
            Work::CopyEncrypted(bytes) => per_byte(self.cpu_copy_encrypted_ps_per_byte, *bytes),
            Work::Sha256(bytes) => {
                Nanos::from_micros(2) + per_byte(self.cpu_sha256_ps_per_byte, *bytes)
            }
            Work::HashCompare => Nanos::from_micros(1),
            Work::Decompress(codec, bytes) => {
                let ps = match codec {
                    Codec::None => return Nanos::ZERO,
                    Codec::Lz4 => self.lz4_decompress_ps_per_byte,
                    Codec::Deflate => self.deflate_decompress_ps_per_byte,
                    Codec::Zstd => self.zstd_decompress_ps_per_byte,
                };
                Nanos::from_micros(10) + per_byte(ps, *bytes)
            }
            Work::Pvalidate { pages, huge_pages } => {
                let page = if *huge_pages { PAGE_2M } else { PAGE_4K };
                self.pvalidate_per_page
                    .scale((pages * PAGE_4K).div_ceil(page))
            }
            Work::PageTables => self.page_table_setup,
            Work::SetupHeader => Nanos::from_micros(3),
            Work::ElfHeader => self.elf_segment_overhead,
            Work::ElfSegments(count) => self.elf_segment_overhead.scale(*count),
            Work::CpioEntries(count) => self.cpio_entry_overhead.scale(*count),
            Work::VcExits(count) => self.vc_exit.scale(*count),
            Work::PlainExit => Nanos::from_micros(2),
            Work::WarmInvoke => self.vc_exit + Nanos::from_micros(180),

            Work::OvmfSec => self.ovmf_sec,
            Work::OvmfPei => self.ovmf_pei,
            Work::OvmfDxe => self.ovmf_dxe,
            Work::OvmfBds => self.ovmf_bds,
            Work::KernelPhase(micros) => Nanos::from_micros(*micros),
            Work::Linux { generation, work } => self.price(work).scale_f64(match generation {
                SevGeneration::None => 1.0,
                SevGeneration::Sev => self.sev_linux_boot_multiplier,
                SevGeneration::SevEs => self.seves_linux_boot_multiplier,
                SevGeneration::SevSnp => self.snp_linux_boot_multiplier,
            }),
            Work::All(parts) => parts.iter().map(|part| self.price(part)).sum(),

            Work::AttestationRoundTrip => {
                self.attestation_network_rtt + self.attestation_server_validate
            }
            Work::GuestCrypto => self.attestation_guest_crypto,
        }
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

    fn pre_encrypt(m: &CostModel, bytes: u64) -> Nanos {
        m.price(&Work::LaunchUpdateData(bytes))
    }

    #[test]
    fn preencrypt_anchors_match_paper() {
        let m = CostModel::calibrated();
        // §3.2: 23 MB vmlinux → 5.65 s (we land within 5%).
        let vmlinux = pre_encrypt(&m, 23 * MB).as_secs_f64();
        assert!((5.3..6.2).contains(&vmlinux), "vmlinux: {vmlinux}");
        // §3.2: 3.3 MB bzImage → 840 ms.
        let bz = pre_encrypt(&m, (33 * MB) / 10).as_millis_f64();
        assert!((790.0..900.0).contains(&bz), "bzImage: {bz}");
        // §3.1: 1 MB OVMF → ~256 ms.
        let ovmf = pre_encrypt(&m, MB).as_millis_f64();
        assert!((240.0..280.0).contains(&ovmf), "ovmf: {ovmf}");
        assert_eq!(pre_encrypt(&m, 0), Nanos::ZERO);
    }

    #[test]
    fn severifast_preencryption_is_single_digit_ms() {
        let m = CostModel::calibrated();
        // ~13 KB verifier + ~6 KB of boot structures + hashes page.
        let content = 13 * 1024 + 6 * 1024 + 4096;
        let total = m.price(&Work::All(vec![
            Work::LaunchStart,
            Work::LaunchUpdateData(content),
            Work::LaunchUpdateVmsa(1),
            Work::LaunchFinish,
        ]));
        let ms = total.as_millis_f64();
        assert!((6.0..11.0).contains(&ms), "SEVeriFast pre-encryption: {ms}");
    }

    #[test]
    fn pvalidate_anchors_match_paper() {
        let m = CostModel::calibrated();
        // §6.1: 256 MB with 4 KiB pages > 60 ms; with 2 MiB pages < 1 ms.
        let sweep = |huge_pages| {
            m.price(&Work::Pvalidate {
                pages: 256 * MB / 4096,
                huge_pages,
            })
            .as_millis_f64()
        };
        assert!(sweep(false) > 60.0, "4k sweep: {}", sweep(false));
        assert!(sweep(true) < 1.0, "2M sweep: {}", sweep(true));
    }

    #[test]
    fn hashing_kernel_matches_s4_3() {
        let m = CostModel::calibrated();
        // §4.3: hashing kernel+initrd in the VMM "could add up to 23 ms".
        let t = m.price(&Work::Sha256(43 * MB)) + m.price(&Work::Sha256(14 * MB));
        assert!((20.0..32.0).contains(&t.as_millis_f64()), "{t}");
    }

    #[test]
    fn attestation_near_200ms() {
        let m = CostModel::calibrated();
        let t = m
            .price(&Work::All(vec![
                Work::GuestRequest,
                Work::AttestationRoundTrip,
                Work::GuestCrypto,
            ]))
            .as_millis_f64();
        assert!((190.0..210.0).contains(&t), "{t}");
    }

    #[test]
    fn ovmf_phases_total_over_3s() {
        let m = CostModel::calibrated();
        let t = m.price(&Work::All(vec![
            Work::OvmfSec,
            Work::OvmfPei,
            Work::OvmfDxe,
            Work::OvmfBds,
        ]));
        assert!(t.as_secs_f64() > 3.0);
    }

    #[test]
    fn lz4_beats_deflate_decompression() {
        let m = CostModel::calibrated();
        let decompress = |codec| m.price(&Work::Decompress(codec, MB));
        assert!(decompress(Codec::Lz4) < decompress(Codec::Zstd));
        assert!(decompress(Codec::Zstd) < decompress(Codec::Deflate));
        assert_eq!(decompress(Codec::None), Nanos::ZERO);
    }

    #[test]
    fn rmp_init_drives_fig12_slope() {
        let m = CostModel::calibrated();
        // Serialized PSP work per 256 MB / 1 vCPU SEVeriFast launch.
        let per_vm = m.price(&Work::All(vec![
            Work::LaunchStart,
            Work::RmpInit(256 * MB),
            Work::LaunchUpdateData(24 * 1024),
            Work::LaunchUpdateVmsa(1),
            Work::LaunchFinish,
        ]));
        let ms = per_vm.as_millis_f64();
        // Fig. 12: ≈ 1.8 s average at 50 guests with slope = launch-command
        // time ⇒ ≈ 36 ms serialized per VM.
        assert!((28.0..44.0).contains(&ms), "PSP per VM: {ms}");
    }

    #[test]
    fn linux_work_sums_its_parts_before_the_generation_factor() {
        let m = CostModel::calibrated();
        let parts = vec![Work::CopyPlain(12_345), Work::CpioEntries(7)];
        let snp = Work::Linux {
            generation: SevGeneration::SevSnp,
            work: Box::new(Work::All(parts.clone())),
        };
        let summed = m.price(&Work::All(parts));
        assert_eq!(m.price(&snp), summed.scale_f64(m.snp_linux_boot_multiplier));
        let bare = Work::Linux {
            generation: SevGeneration::None,
            work: Box::new(Work::KernelPhase(40)),
        };
        assert_eq!(m.price(&bare), Nanos::from_micros(40));
    }

    #[test]
    fn class_follows_the_engine() {
        assert_eq!(Work::LaunchUpdateData(1).class(), ResourceClass::Psp);
        assert_eq!(Work::RmpInit(0).class(), ResourceClass::Psp);
        assert_eq!(Work::AttestationRoundTrip.class(), ResourceClass::Network);
        assert_eq!(Work::Sha256(1).class(), ResourceClass::HostCpu);
        assert_eq!(Work::All(Vec::new()).class(), ResourceClass::HostCpu);
    }

    #[test]
    fn a_faster_psp_scales_only_byte_and_memory_costs() {
        let m = CostModel::calibrated();
        let fast = m.clone().with_faster_psp(4);
        let rmp = Work::RmpInit(256 * MB);
        assert_eq!(
            fast.price(&rmp),
            Nanos::from_nanos(m.price(&rmp).as_nanos() / 4)
        );
        assert!(fast.price(&Work::LaunchUpdateData(MB)) < pre_encrypt(&m, MB));
        assert_eq!(fast.price(&Work::LaunchStart), m.price(&Work::LaunchStart));
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
