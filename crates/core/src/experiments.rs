//! Drivers that regenerate every table and figure of the paper.
//!
//! Each function returns plain data (the benchmark harness renders and
//! serializes it). All take an [`ExperimentScale`]: [`ExperimentScale::full`]
//! reproduces the paper's exact component sizes and run counts (use a
//! release build), while [`ExperimentScale::quick`] shrinks the functional
//! images 16× so integration tests stay fast — compression ratios and all
//! *relative* results are preserved.

use sevf_codec::Codec;
use sevf_image::kernel::KernelConfig;
use sevf_sim::cost::{CostModel, SevGeneration, Work};
use sevf_sim::rng::Jitter;
use sevf_sim::{Nanos, PhaseKind};
use sevf_vmm::concurrent;
use sevf_vmm::footprint::MemoryFootprint;
use sevf_vmm::{BootPolicy, BootReport, Machine, MicroVm, VmConfig, VmmError};

const MB: u64 = 1024 * 1024;

/// The one seed of every paper experiment (machine RNG and jitter), for
/// exact reproducibility.
pub const SEED: u64 = 0x5EF0;

/// How big to run the experiments.
#[derive(Debug, Clone)]
pub struct ExperimentScale {
    /// Divide functional image sizes by this factor (1 = paper scale).
    pub kernel_div: u64,
    /// Number of jittered samples per CDF series (paper: 100).
    pub cdf_runs: usize,
    /// Concurrency levels for Fig. 12 (paper: 1–50).
    pub concurrency_levels: Vec<usize>,
}

impl ExperimentScale {
    /// Paper-scale: full-size images, 100 runs, concurrency 1–50.
    pub fn full() -> Self {
        ExperimentScale {
            kernel_div: 1,
            cdf_runs: 100,
            concurrency_levels: vec![1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50],
        }
    }

    /// Test-scale: 16× smaller images, 20 runs, shallow sweep.
    pub fn quick() -> Self {
        ExperimentScale {
            kernel_div: 16,
            cdf_runs: 20,
            concurrency_levels: vec![1, 5, 10, 20],
        }
    }

    /// The paper's three kernel configs at this scale.
    pub fn kernels(&self) -> Vec<KernelConfig> {
        KernelConfig::paper_configs()
            .into_iter()
            .map(|k| {
                if self.kernel_div == 1 {
                    k
                } else {
                    k.scaled_down(self.kernel_div)
                }
            })
            .collect()
    }

    fn vm_config(&self, policy: BootPolicy, kernel: KernelConfig) -> VmConfig {
        let mut config = VmConfig::paper_default(policy, kernel);
        config.initrd_size = sevf_image::initrd::FULL_SIZE / self.kernel_div;
        config.mem_size = (256 * MB / self.kernel_div).max(64 * MB);
        if policy == BootPolicy::SeverifastVmlinux {
            config.kernel_codec = Codec::None;
        }
        config
    }

    /// Boots one deterministic (jitter-free) VM of the given shape.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmmError`] from the boot path.
    pub fn boot(
        &self,
        machine: &mut Machine,
        policy: BootPolicy,
        kernel: KernelConfig,
    ) -> Result<BootReport, VmmError> {
        let vm = MicroVm::new(self.vm_config(policy, kernel))?;
        if policy.is_sev() {
            vm.register_expected(machine)?;
        }
        vm.boot(machine)
    }
}

/// Draws `runs` jittered end-to-end samples from a deterministic boot by
/// re-noising each span (the Fig. 9 methodology: same boot, run-to-run
/// variance from the host).
fn resample_totals(report: &BootReport, seed: u64, runs: usize) -> Vec<f64> {
    let mut jitter = Jitter::new(seed);
    (0..runs)
        .map(|_| {
            report
                .timeline
                .spans()
                .iter()
                .map(|s| s.duration.as_millis_f64() * jitter.factor())
                .sum()
        })
        .collect()
}

// --------------------------------------------------------------------------
// Fig. 3 — OVMF boot phase breakdown under SEV-SNP
// --------------------------------------------------------------------------

/// One slice of the Fig. 3 stacked bar.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSlice {
    /// Phase label.
    pub label: String,
    /// Duration in ms.
    pub ms: f64,
}

/// Fig. 3: the OVMF SNP boot broken into PI phases plus the boot verifier.
///
/// # Errors
///
/// Propagates boot failures.
pub fn fig3_ovmf_phases(scale: &ExperimentScale) -> Result<Vec<PhaseSlice>, VmmError> {
    let mut machine = Machine::new(SEED);
    let kernel = scale.kernels().remove(1); // AWS config
    let report = scale.boot(&mut machine, BootPolicy::QemuOvmf, kernel)?;
    let mut slices = Vec::new();
    for phase in [
        PhaseKind::OvmfSec,
        PhaseKind::OvmfPei,
        PhaseKind::OvmfDxe,
        PhaseKind::OvmfBds,
        PhaseKind::BootVerification,
    ] {
        slices.push(PhaseSlice {
            label: phase.label().to_string(),
            ms: report.phase(phase).as_millis_f64(),
        });
    }
    Ok(slices)
}

// --------------------------------------------------------------------------
// Fig. 4 — pre-encryption time vs size
// --------------------------------------------------------------------------

/// A point on the Fig. 4 line: pre-encryption cost of `bytes`.
#[derive(Debug, Clone, PartialEq)]
pub struct PreEncryptionPoint {
    /// Annotated component name ("" for sweep points).
    pub label: String,
    /// Component size in bytes.
    pub bytes: u64,
    /// Pre-encryption time in ms.
    pub ms: f64,
}

/// Fig. 4: pre-encryption is linear in size; annotated with the candidate
/// initial-boot-code components from §3.2 (always at paper scale — these
/// are pure cost-model evaluations).
pub fn fig4_preencryption() -> Vec<PreEncryptionPoint> {
    let cost = CostModel::calibrated();
    let mut points = Vec::new();
    let mut size = 4 * 1024u64;
    while size <= 64 * MB {
        points.push(PreEncryptionPoint {
            label: String::new(),
            bytes: size,
            ms: cost.price(&Work::LaunchUpdateData(size)).as_millis_f64(),
        });
        size *= 2;
    }
    let annotated: [(&str, u64); 6] = [
        ("SEVeriFast boot verifier", 13 * 1024),
        ("OVMF (smallest build)", MB),
        ("Lupine bzImage", (33 * MB) / 10),
        ("compressed initrd", 12 * MB),
        ("Lupine vmlinux", 23 * MB),
        ("Ubuntu vmlinux", 61 * MB),
    ];
    for (label, bytes) in annotated {
        points.push(PreEncryptionPoint {
            label: label.to_string(),
            bytes,
            ms: cost.price(&Work::LaunchUpdateData(bytes)).as_millis_f64(),
        });
    }
    points
}

// --------------------------------------------------------------------------
// Fig. 5 — measured direct boot step costs per codec
// --------------------------------------------------------------------------

/// One bar of Fig. 5: the cost of measured-direct-booting one component
/// compressed with one codec.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredBootRow {
    /// `kernel:<config>` or `initrd`.
    pub component: String,
    /// Codec used.
    pub codec: Codec,
    /// Size actually transferred/hashed (compressed), bytes.
    pub transferred_bytes: u64,
    /// Copy-to-encrypted time, ms.
    pub copy_ms: f64,
    /// SHA-256 time, ms.
    pub hash_ms: f64,
    /// Decompression time, ms.
    pub decompress_ms: f64,
}

impl MeasuredBootRow {
    /// Total measured-direct-boot cost.
    pub fn total_ms(&self) -> f64 {
        self.copy_ms + self.hash_ms + self.decompress_ms
    }
}

/// Fig. 5: per-codec copy/hash/decompress costs for each kernel and for the
/// initrd. The takeaways the paper draws: LZ4 bzImage beats everything for
/// the kernel; the initrd is best left uncompressed.
pub fn fig5_measured_direct_boot(scale: &ExperimentScale) -> Vec<MeasuredBootRow> {
    let cost = CostModel::calibrated();
    let row = |component: String, codec, transferred, raw_len| MeasuredBootRow {
        component,
        codec,
        transferred_bytes: transferred,
        copy_ms: ms(cost.price(&Work::CopyEncrypted(transferred))),
        hash_ms: ms(cost.price(&Work::Sha256(transferred))),
        decompress_ms: ms(cost.price(&Work::Decompress(codec, raw_len))),
    };
    let mut rows = Vec::new();
    for kernel in scale.kernels() {
        let image = kernel.build();
        let raw_len = image.vmlinux().len() as u64;
        for codec in Codec::ALL {
            let transferred = match codec {
                Codec::None => raw_len,
                c => image.bzimage(c).len() as u64,
            };
            rows.push(row(
                format!("kernel:{}", kernel.name),
                codec,
                transferred,
                raw_len,
            ));
        }
    }
    let initrd = sevf_image::initrd::build_initrd(sevf_image::initrd::FULL_SIZE / scale.kernel_div);
    let raw_len = initrd.len() as u64;
    for codec in Codec::ALL {
        let transferred = match codec {
            Codec::None => raw_len,
            c => c.compress(&initrd).len() as u64,
        };
        rows.push(row("initrd".to_string(), codec, transferred, raw_len));
    }
    rows
}

// --------------------------------------------------------------------------
// Fig. 7 — boot data structures: pre-encrypt or generate?
// --------------------------------------------------------------------------

/// A row of the Fig. 7 table.
#[derive(Debug, Clone, PartialEq)]
pub struct StructureRow {
    /// Structure name.
    pub name: &'static str,
    /// Its purpose.
    pub purpose: &'static str,
    /// Structure size in bytes (for 1 vCPU where applicable).
    pub struct_bytes: u64,
    /// Size of the code that could generate it in the verifier.
    pub code_bytes: u64,
    /// The decision the §4.2 rule produces.
    pub decision: &'static str,
}

/// Fig. 7: pre-encrypt a structure iff the generating code is larger.
pub fn fig7_structures() -> Vec<StructureRow> {
    use sevf_verifier::binary::code_size;
    let rows = vec![
        StructureRow {
            name: "mptable",
            purpose: "CPU config",
            struct_bytes: sevf_vmm::mptable::table_size(1),
            code_bytes: code_size::MPTABLE_GEN,
            decision: "pre-encrypt",
        },
        StructureRow {
            name: "cmdline",
            purpose: "kernel args",
            struct_bytes: 155,
            code_bytes: 0, // client-supplied; cannot be generated
            decision: "pre-encrypt",
        },
        StructureRow {
            name: "boot_params",
            purpose: "system info",
            struct_bytes: 4096,
            code_bytes: code_size::BOOT_PARAMS_GEN,
            decision: "pre-encrypt",
        },
        StructureRow {
            name: "page tables",
            purpose: "paging in guest",
            struct_bytes: 4096,
            code_bytes: code_size::PAGE_TABLES,
            decision: "generate",
        },
    ];
    rows
}

// --------------------------------------------------------------------------
// Fig. 8 — kernel configurations
// --------------------------------------------------------------------------

/// A row of the Fig. 8 table.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRow {
    /// Config name.
    pub config: String,
    /// vmlinux size in bytes.
    pub vmlinux_bytes: u64,
    /// LZ4 bzImage size in bytes.
    pub bzimage_bytes: u64,
}

/// Fig. 8: vmlinux and bzImage sizes for the three configs.
pub fn fig8_kernels(scale: &ExperimentScale) -> Vec<KernelRow> {
    scale
        .kernels()
        .into_iter()
        .map(|k| {
            let image = k.build();
            KernelRow {
                config: k.name.clone(),
                vmlinux_bytes: image.vmlinux().len() as u64,
                bzimage_bytes: image.bzimage(Codec::Lz4).len() as u64,
            }
        })
        .collect()
}

// --------------------------------------------------------------------------
// Fig. 9 — end-to-end CDF, SEVeriFast vs QEMU
// --------------------------------------------------------------------------

/// One CDF series of Fig. 9.
#[derive(Debug, Clone, PartialEq)]
pub struct CdfSeries {
    /// Policy booted.
    pub policy: BootPolicy,
    /// Kernel config name.
    pub kernel: String,
    /// End-to-end samples in ms (boot + attestation where applicable).
    pub samples_ms: Vec<f64>,
}

impl CdfSeries {
    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        self.samples_ms.iter().sum::<f64>() / self.samples_ms.len() as f64
    }
}

/// Fig. 9: serial launches of SEVeriFast and QEMU/OVMF across the three
/// kernels, end-to-end including attestation.
///
/// # Errors
///
/// Propagates boot failures.
pub fn fig9_boot_cdfs(scale: &ExperimentScale) -> Result<Vec<CdfSeries>, VmmError> {
    let mut machine = Machine::new(SEED);
    let mut series = Vec::new();
    for policy in [BootPolicy::Severifast, BootPolicy::QemuOvmf] {
        for kernel in scale.kernels() {
            let name = kernel.name.clone();
            let report = scale.boot(&mut machine, policy, kernel)?;
            series.push(CdfSeries {
                policy,
                kernel: name,
                samples_ms: resample_totals(&report, SEED ^ policy as u64, scale.cdf_runs),
            });
        }
    }
    Ok(series)
}

// --------------------------------------------------------------------------
// Fig. 10 — pre-encryption and firmware/boot-verification breakdown
// --------------------------------------------------------------------------

/// A row of the Fig. 10 table.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Row {
    /// Policy booted.
    pub policy: BootPolicy,
    /// Kernel config name.
    pub kernel: String,
    /// Pre-encryption time, ms.
    pub pre_encryption_ms: f64,
    /// Firmware runtime + boot verification, ms.
    pub firmware_ms: f64,
}

/// Fig. 10: where SEVeriFast saves its time relative to QEMU/OVMF.
///
/// # Errors
///
/// Propagates boot failures.
pub fn fig10_breakdown(scale: &ExperimentScale) -> Result<Vec<Fig10Row>, VmmError> {
    let mut machine = Machine::new(SEED);
    let mut rows = Vec::new();
    for policy in [BootPolicy::QemuOvmf, BootPolicy::Severifast] {
        for kernel in scale.kernels() {
            let name = kernel.name.clone();
            let report = scale.boot(&mut machine, policy, kernel)?;
            rows.push(Fig10Row {
                policy,
                kernel: name,
                pre_encryption_ms: report.pre_encryption().as_millis_f64(),
                firmware_ms: report.firmware_total().as_millis_f64(),
            });
        }
    }
    Ok(rows)
}

// --------------------------------------------------------------------------
// Fig. 11 — stock FC vs SEVeriFast (bzImage and vmlinux) breakdown
// --------------------------------------------------------------------------

/// A stacked bar of Fig. 11.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Row {
    /// Policy booted.
    pub policy: BootPolicy,
    /// Kernel config name.
    pub kernel: String,
    /// Time in the VMM, including the SEV launch flow (the paper folds
    /// pre-encryption into its "Firecracker" bar), ms.
    pub vmm_ms: f64,
    /// Boot verification, ms.
    pub verification_ms: f64,
    /// bzImage bootstrap loader, ms.
    pub loader_ms: f64,
    /// Linux boot, ms.
    pub linux_ms: f64,
}

impl Fig11Row {
    /// Total boot time (attestation excluded, as in the figure).
    pub fn total_ms(&self) -> f64 {
        self.vmm_ms + self.verification_ms + self.loader_ms + self.linux_ms
    }
}

/// Fig. 11: the cost SEVeriFast adds over a non-SEV microVM boot.
///
/// # Errors
///
/// Propagates boot failures.
pub fn fig11_breakdown(scale: &ExperimentScale) -> Result<Vec<Fig11Row>, VmmError> {
    let mut machine = Machine::new(SEED);
    let mut rows = Vec::new();
    for policy in [
        BootPolicy::StockFirecracker,
        BootPolicy::Severifast,
        BootPolicy::SeverifastVmlinux,
    ] {
        for kernel in scale.kernels() {
            let name = kernel.name.clone();
            let report = scale.boot(&mut machine, policy, kernel)?;
            rows.push(Fig11Row {
                policy,
                kernel: name,
                vmm_ms: (report.phase(PhaseKind::VmmSetup) + report.pre_encryption())
                    .as_millis_f64(),
                verification_ms: report.phase(PhaseKind::BootVerification).as_millis_f64(),
                loader_ms: report.phase(PhaseKind::BootstrapLoader).as_millis_f64(),
                linux_ms: report.phase(PhaseKind::LinuxBoot).as_millis_f64(),
            });
        }
    }
    Ok(rows)
}

// --------------------------------------------------------------------------
// Fig. 12 — concurrent launches
// --------------------------------------------------------------------------

/// One point of a Fig. 12 series.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrencyRow {
    /// Policy booted.
    pub policy: BootPolicy,
    /// Concurrency level.
    pub concurrency: usize,
    /// Mean boot latency, ms (attestation excluded).
    pub mean_ms: f64,
    /// Max boot latency, ms.
    pub max_ms: f64,
}

/// Fig. 12: average boot time of 1–50 concurrent launches, SEV vs non-SEV.
/// SEV grows linearly (PSP serialization); non-SEV stays nearly flat.
///
/// # Errors
///
/// Propagates boot failures.
pub fn fig12_concurrency(scale: &ExperimentScale) -> Result<Vec<ConcurrencyRow>, VmmError> {
    let mut machine = Machine::new(SEED);
    let mut rows = Vec::new();
    for policy in [BootPolicy::Severifast, BootPolicy::StockFirecracker] {
        let kernel = scale.kernels().remove(1); // AWS config
        let mut report = scale.boot(&mut machine, policy, kernel)?;
        // Boot time, not end-to-end: strip attestation before replaying.
        report.timeline = report.timeline.filtered(|p| p.counts_as_boot());
        for point in concurrent::sweep(&report, &scale.concurrency_levels) {
            rows.push(ConcurrencyRow {
                policy,
                concurrency: point.concurrency,
                mean_ms: point.summary.mean,
                max_ms: point.summary.max,
            });
        }
    }
    Ok(rows)
}

/// Future work (§6.2/§8): the same Fig. 12 sweep with shared-key template
/// launches — the PSP-bottleneck mitigation the paper sketches. One cold
/// template boot pays full cost; subsequent launches bypass the PSP, so the
/// curve flattens toward the non-SEV one.
///
/// # Errors
///
/// Propagates boot failures.
pub fn futurework_shared_key_concurrency(
    scale: &ExperimentScale,
) -> Result<Vec<ConcurrencyRow>, VmmError> {
    use sevf_vmm::config::LaunchMode;
    let mut machine = Machine::new(SEED);
    let kernel = scale.kernels().remove(1); // AWS config
    let mut config = scale.vm_config(BootPolicy::Severifast, kernel);
    config.launch_mode = LaunchMode::SharedKeyTemplate;
    let vm = MicroVm::new(config)?;
    vm.register_expected(&mut machine)?;
    let _cold = vm.boot(&mut machine)?; // warms the template
    let mut warm = vm.boot(&mut machine)?;
    warm.timeline = warm.timeline.filtered(|p| p.counts_as_boot());
    let mut rows = Vec::new();
    for point in concurrent::sweep(&warm, &scale.concurrency_levels) {
        rows.push(ConcurrencyRow {
            policy: BootPolicy::Severifast,
            concurrency: point.concurrency,
            mean_ms: point.summary.mean,
            max_ms: point.summary.max,
        });
    }
    Ok(rows)
}

/// One row of the §7.1 warm-start analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStartRow {
    /// Boot policy.
    pub policy: BootPolicy,
    /// Cold boot time (to init), ms.
    pub cold_boot_ms: f64,
    /// Warm invocation latency into a kept-alive guest, ms.
    pub warm_invoke_ms: f64,
    /// Host memory one keep-alive holds, bytes.
    pub resident_bytes: u64,
    /// Fraction of host-visible pages a KSM-style deduplicator could
    /// reclaim across two identical keep-alives.
    pub dedupable_fraction: f64,
}

/// §7.1: the warm-start trade-off. Keep-alive makes invocations ~1000×
/// faster than cold boot, but under SEV the kept-alive memory cannot be
/// deduplicated, so the rent is paid in full per VM.
///
/// # Errors
///
/// Propagates boot and memory failures.
pub fn warm_start_analysis(scale: &ExperimentScale) -> Result<Vec<WarmStartRow>, VmmError> {
    use sevf_vmm::warm::dedupable_fraction;
    let mut machine = Machine::new(SEED);
    let mut rows = Vec::new();
    for policy in [BootPolicy::Severifast, BootPolicy::StockFirecracker] {
        let kernel = scale.kernels().remove(1); // AWS config
        let vm = MicroVm::new(scale.vm_config(policy, kernel))?;
        if policy.is_sev() {
            vm.register_expected(&mut machine)?;
        }
        let (cold_a, mut alive_a) = vm.boot_keep_alive(&mut machine)?;
        let (_cold_b, alive_b) = vm.boot_keep_alive(&mut machine)?;
        let warm = alive_a.invoke(&machine.cost);
        rows.push(WarmStartRow {
            policy,
            cold_boot_ms: cold_a.boot_time().as_millis_f64(),
            warm_invoke_ms: warm.latency.as_millis_f64(),
            resident_bytes: alive_a.resident_bytes(),
            dedupable_fraction: dedupable_fraction(&[&alive_a, &alive_b]).map_err(VmmError::Mem)?,
        });
    }
    Ok(rows)
}

// --------------------------------------------------------------------------
// §6.3 — memory footprint
// --------------------------------------------------------------------------

/// A row of the memory-footprint table.
#[derive(Debug, Clone, PartialEq)]
pub struct FootprintRow {
    /// Policy.
    pub policy: BootPolicy,
    /// Monitor binary size, bytes.
    pub binary_bytes: u64,
    /// Runtime overhead (pmap minus binary minus guest memory), bytes.
    pub overhead_bytes: u64,
}

/// §6.3: SEV support adds ~50 KB of binary and ~16 KB per guest.
pub fn footprint_table() -> Vec<FootprintRow> {
    [
        BootPolicy::StockFirecracker,
        BootPolicy::Severifast,
        BootPolicy::QemuOvmf,
    ]
    .into_iter()
    .map(|policy| {
        let config = VmConfig::paper_default(policy, KernelConfig::aws());
        let fp = MemoryFootprint::of(&config);
        FootprintRow {
            policy,
            binary_bytes: fp.binary,
            overhead_bytes: fp.overhead(),
        }
    })
    .collect()
}

/// The headline claim of the abstract: SEVeriFast cuts end-to-end SEV boot
/// by 86–93 % relative to QEMU/OVMF. Returns (kernel, reduction) pairs.
///
/// # Errors
///
/// Propagates boot failures.
pub fn headline_reductions(scale: &ExperimentScale) -> Result<Vec<(String, f64)>, VmmError> {
    let mut machine = Machine::new(SEED);
    let mut out = Vec::new();
    for kernel in scale.kernels() {
        let name = kernel.name.clone();
        let sevf = scale.boot(&mut machine, BootPolicy::Severifast, kernel.clone())?;
        let qemu = scale.boot(&mut machine, BootPolicy::QemuOvmf, kernel)?;
        let reduction = 1.0 - sevf.total_time().as_millis_f64() / qemu.total_time().as_millis_f64();
        out.push((name, reduction));
    }
    Ok(out)
}

/// Convenience wrapper for Nanos → ms used in renderers.
pub fn ms(n: Nanos) -> f64 {
    n.as_millis_f64()
}

// --------------------------------------------------------------------------
// Ablations — what-ifs on the design choices DESIGN.md calls out
// --------------------------------------------------------------------------

/// One row of the ablation table.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// The design choice varied.
    pub study: &'static str,
    /// The variant of it.
    pub variant: String,
    /// What `ms` measures.
    pub measure: &'static str,
    /// Virtual time, ms.
    pub ms: f64,
}

/// Four virtual-time what-ifs: what a kitchen-sink verifier (generate
/// everything in the guest, carry both loaders) costs in pre-encryption;
/// the §6.1 pvalidate sweep of 256 MB with 4 KiB vs 2 MiB pages; how much
/// faster the PSP must get before the Fig. 12 bottleneck stops mattering at
/// 50 concurrent guests; and SEV vs SEV-ES vs SEV-SNP boot cost.
///
/// # Errors
///
/// Propagates boot failures.
pub fn ablations(scale: &ExperimentScale) -> Result<Vec<AblationRow>, VmmError> {
    use sevf_verifier::binary::VerifierFeatures;
    let cost = CostModel::calibrated();
    let mut rows = Vec::new();
    let mut push = |study, variant: String, measure, ms| {
        rows.push(AblationRow {
            study,
            variant,
            measure,
            ms,
        });
    };
    for (name, features) in [
        ("severifast (bzImage)", VerifierFeatures::severifast()),
        (
            "severifast (vmlinux)",
            VerifierFeatures::severifast_vmlinux(),
        ),
        ("kitchen sink", VerifierFeatures::kitchen_sink()),
    ] {
        let size = features.binary_size();
        push(
            "verifier features",
            format!("{name}, {size} B"),
            "pre-encryption",
            ms(cost.price(&Work::LaunchUpdateData(size))),
        );
    }
    for (variant, huge_pages) in [("4 KiB pages", false), ("2 MiB pages", true)] {
        let sweep = Work::Pvalidate {
            pages: 256 * MB / 4096,
            huge_pages,
        };
        push(
            "pvalidate 256 MB",
            variant.into(),
            "pvalidate sweep",
            ms(cost.price(&sweep)),
        );
    }
    let aws = || scale.kernels().remove(1);
    for speedup in [1u64, 2, 4, 8] {
        let mut machine = Machine::with_cost_model(SEED, cost.clone().with_faster_psp(speedup));
        let mut report = scale.boot(&mut machine, BootPolicy::Severifast, aws())?;
        report.timeline = report.timeline.filtered(|p| p.counts_as_boot());
        let mean = concurrent::run_concurrent(&report, 50).summary.mean;
        let variant = format!("{speedup}x");
        push("PSP speed", variant.clone(), "mean boot of 50 guests", mean);
        push(
            "PSP speed",
            variant,
            "PSP busy per guest",
            ms(report.psp_busy),
        );
    }
    for generation in [
        SevGeneration::Sev,
        SevGeneration::SevEs,
        SevGeneration::SevSnp,
    ] {
        let mut machine = Machine::new(SEED);
        machine.owner.set_required_generation(generation);
        let mut config = scale.vm_config(BootPolicy::Severifast, aws());
        config.generation = generation;
        let vm = MicroVm::new(config)?;
        vm.register_expected(&mut machine)?;
        let report = vm.boot(&mut machine)?;
        push(
            "SEV generation",
            generation.name().into(),
            "boot",
            ms(report.boot_time()),
        );
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_phases_total_over_3s() {
        let slices = fig3_ovmf_phases(&ExperimentScale::quick()).unwrap();
        let total: f64 = slices.iter().map(|s| s.ms).sum();
        assert!(total > 3000.0, "OVMF total {total} ms");
        // Boot verifier is a small fraction (the paper's key observation).
        let verifier = slices.last().unwrap();
        assert_eq!(verifier.label, "Boot Verification");
        assert!(verifier.ms < total * 0.05);
    }

    #[test]
    fn fig4_is_linear() {
        let points = fig4_preencryption();
        let sweep: Vec<&PreEncryptionPoint> =
            points.iter().filter(|p| p.label.is_empty()).collect();
        // Doubling size roughly doubles cost at the large end.
        let last = sweep.last().unwrap();
        let prev = sweep[sweep.len() - 2];
        let ratio = last.ms / prev.ms;
        assert!((1.9..2.1).contains(&ratio), "ratio {ratio}");
        // §3.2 anchors.
        let vmlinux = points
            .iter()
            .find(|p| p.label.contains("Lupine vmlinux"))
            .unwrap();
        assert!((5000.0..6500.0).contains(&vmlinux.ms), "{}", vmlinux.ms);
        let ovmf = points.iter().find(|p| p.label.contains("OVMF")).unwrap();
        assert!((240.0..280.0).contains(&ovmf.ms), "{}", ovmf.ms);
    }

    #[test]
    fn fig5_lz4_kernel_wins_and_raw_initrd_wins() {
        let rows = fig5_measured_direct_boot(&ExperimentScale::quick());
        for kernel in ["lupine", "aws", "ubuntu"] {
            let component = format!("kernel:{kernel}-div16");
            let of = |codec: Codec| {
                rows.iter()
                    .find(|r| r.component == component && r.codec == codec)
                    .unwrap()
                    .total_ms()
            };
            assert!(of(Codec::Lz4) < of(Codec::None), "{kernel}: lz4 vs none");
            assert!(
                of(Codec::Lz4) < of(Codec::Deflate),
                "{kernel}: lz4 vs deflate"
            );
            assert!(of(Codec::Lz4) < of(Codec::Zstd), "{kernel}: lz4 vs zstd");
        }
        let initrd = |codec: Codec| {
            rows.iter()
                .find(|r| r.component == "initrd" && r.codec == codec)
                .unwrap()
                .total_ms()
        };
        assert!(initrd(Codec::None) < initrd(Codec::Lz4), "raw initrd wins");
        assert!(initrd(Codec::None) < initrd(Codec::Deflate));
    }

    #[test]
    fn fig7_decision_rule_holds() {
        for row in fig7_structures() {
            match row.decision {
                "pre-encrypt" => assert!(
                    row.code_bytes == 0 || row.code_bytes > row.struct_bytes,
                    "{}: should only pre-encrypt when code > struct",
                    row.name
                ),
                "generate" => assert!(row.code_bytes < row.struct_bytes + 4096),
                other => panic!("unknown decision {other}"),
            }
        }
        // Fig. 7's mptable row: 304 B struct vs ~4 KB code.
        let mp = &fig7_structures()[0];
        assert_eq!(mp.struct_bytes, 304);
    }

    #[test]
    fn fig9_severifast_far_left_of_qemu() {
        let series = fig9_boot_cdfs(&ExperimentScale::quick()).unwrap();
        for kernel in ["lupine-div16", "aws-div16", "ubuntu-div16"] {
            let sevf = series
                .iter()
                .find(|s| s.policy == BootPolicy::Severifast && s.kernel == kernel)
                .unwrap();
            let qemu = series
                .iter()
                .find(|s| s.policy == BootPolicy::QemuOvmf && s.kernel == kernel)
                .unwrap();
            let reduction = 1.0 - sevf.mean() / qemu.mean();
            assert!(reduction > 0.8, "{kernel}: reduction {reduction}");
        }
    }

    #[test]
    fn fig12_sev_linear_non_sev_flat() {
        let rows = fig12_concurrency(&ExperimentScale::quick()).unwrap();
        let sev: Vec<&ConcurrencyRow> = rows
            .iter()
            .filter(|r| r.policy == BootPolicy::Severifast)
            .collect();
        let stock: Vec<&ConcurrencyRow> = rows
            .iter()
            .filter(|r| r.policy == BootPolicy::StockFirecracker)
            .collect();
        assert!(sev.last().unwrap().mean_ms > sev[0].mean_ms * 2.0);
        assert!(stock.last().unwrap().mean_ms < stock[0].mean_ms * 1.3);
    }

    #[test]
    fn headline_reduction_in_band() {
        let reductions = headline_reductions(&ExperimentScale::quick()).unwrap();
        for (kernel, r) in reductions {
            assert!((0.80..0.99).contains(&r), "{kernel}: {r}");
        }
    }

    #[test]
    fn shared_key_flattens_the_psp_curve() {
        let scale = ExperimentScale::quick();
        let normal = fig12_concurrency(&scale).unwrap();
        let shared = futurework_shared_key_concurrency(&scale).unwrap();
        let last_normal = normal
            .iter()
            .rfind(|r| r.policy == BootPolicy::Severifast)
            .unwrap();
        let last_shared = shared.last().unwrap();
        assert_eq!(last_normal.concurrency, last_shared.concurrency);
        assert!(
            last_shared.mean_ms < last_normal.mean_ms / 2.0,
            "shared {} vs normal {}",
            last_shared.mean_ms,
            last_normal.mean_ms
        );
    }

    #[test]
    fn warm_start_tradeoff_holds() {
        let rows = warm_start_analysis(&ExperimentScale::quick()).unwrap();
        let sev = rows
            .iter()
            .find(|r| r.policy == BootPolicy::Severifast)
            .unwrap();
        let plain = rows
            .iter()
            .find(|r| r.policy == BootPolicy::StockFirecracker)
            .unwrap();
        // Warm invocation is orders of magnitude faster than cold boot.
        assert!(sev.cold_boot_ms / sev.warm_invoke_ms > 100.0);
        // §7.1: plain VMs dedup well, SEV VMs barely.
        assert!(
            plain.dedupable_fraction > 0.4,
            "{}",
            plain.dedupable_fraction
        );
        assert!(
            sev.dedupable_fraction < plain.dedupable_fraction / 2.0,
            "sev {} plain {}",
            sev.dedupable_fraction,
            plain.dedupable_fraction
        );
    }

    #[test]
    fn footprint_matches_s6_3() {
        let rows = footprint_table();
        let stock = rows
            .iter()
            .find(|r| r.policy == BootPolicy::StockFirecracker)
            .unwrap();
        let sevf = rows
            .iter()
            .find(|r| r.policy == BootPolicy::Severifast)
            .unwrap();
        assert_eq!(sevf.binary_bytes, stock.binary_bytes);
        assert_eq!(sevf.overhead_bytes - stock.overhead_bytes, 16 * 1024);
    }

    #[test]
    fn ablations_order_every_study_the_way_the_paper_argues() {
        let rows = ablations(&ExperimentScale::quick()).unwrap();
        let ms_of = |study: &str, measure: &str| -> Vec<f64> {
            let picked = rows
                .iter()
                .filter(|r| r.study == study && r.measure == measure);
            picked.map(|r| r.ms).collect()
        };
        let rising = |v: &[f64]| v.windows(2).all(|w| w[0] < w[1]);
        // Bigger verifier, more pre-encryption; SEV < SEV-ES < SEV-SNP.
        assert!(rising(&ms_of("verifier features", "pre-encryption")));
        assert!(rising(&ms_of("SEV generation", "boot")));
        // Huge pages make the sweep cheap (§6.1).
        let sweep = ms_of("pvalidate 256 MB", "pvalidate sweep");
        assert!(sweep[0] > 100.0 * sweep[1], "{sweep:?}");
        // A faster PSP helps at every step, and never by as much as it sped up.
        let mean = ms_of("PSP speed", "mean boot of 50 guests");
        assert_eq!(mean.len(), 4);
        assert!(mean.windows(2).all(|w| w[1] < w[0] && w[1] > w[0] / 2.0));
    }
}
