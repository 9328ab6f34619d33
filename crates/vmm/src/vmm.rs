//! The microVM monitor: boot orchestration for all four policies.

use std::sync::Arc;

use sevf_attest::{expected_measurement, AttestError, GuestAttestClient, MeasuredItem};
use sevf_image::kernel::KernelImage;
use sevf_image::ImageError;
use sevf_mem::{GuestMemory, MemError};
use sevf_ovmf::{OvmfImage, OVMF_BASE};
use sevf_psp::{GuestHandle, Psp, PspError};
use sevf_sim::cost::{SevGeneration, Step, Work};
use sevf_sim::rng::{Jitter, XorShift64};
use sevf_sim::{CostModel, EventChannel, PhaseKind, Timeline};
use sevf_verifier::binary::{VerifierBinary, VerifierFeatures};
use sevf_verifier::hashes::{HashPage, KernelHashes};
use sevf_verifier::layout::{
    GuestLayout, BOOT_PARAMS_ADDR, CMDLINE_ADDR, HASH_PAGE_ADDR, MPTABLE_ADDR, VERIFIER_ADDR,
};
use sevf_verifier::verify::{self, KernelKind, VerifierConfig};
use sevf_verifier::VerifierError;

use crate::boot_params::BootParams;
use crate::cmdline;
use crate::config::{BootPolicy, KaslrMode, LaunchMode, VmConfig};
use crate::guest_kernel::{self, GuestBootError, LoaderStage};
use crate::machine::Machine;
use crate::mptable;
use crate::report::{BootOutcome, BootReport};

/// Errors surfaced by a boot attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum VmmError {
    /// The configuration is inconsistent.
    Config(&'static str),
    /// The components do not fit the guest memory map.
    Layout(&'static str),
    /// A PSP command failed.
    Psp(PspError),
    /// A host-side memory operation failed.
    Mem(MemError),
    /// The boot verifier refused to boot.
    Verifier(VerifierError),
    /// The guest kernel refused to boot.
    Guest(GuestBootError),
    /// Remote attestation failed.
    Attest(AttestError),
    /// A boot image could not be built or parsed.
    Image(ImageError),
}

impl std::fmt::Display for VmmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmmError::Config(w) => write!(f, "invalid configuration: {w}"),
            VmmError::Layout(w) => write!(f, "layout error: {w}"),
            VmmError::Psp(e) => write!(f, "PSP error: {e}"),
            VmmError::Mem(e) => write!(f, "memory error: {e}"),
            VmmError::Verifier(e) => write!(f, "boot verifier: {e}"),
            VmmError::Guest(e) => write!(f, "guest kernel: {e}"),
            VmmError::Attest(e) => write!(f, "attestation: {e}"),
            VmmError::Image(e) => write!(f, "image error: {e}"),
        }
    }
}

impl std::error::Error for VmmError {}

macro_rules! from_err {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for VmmError {
            fn from(e: $ty) -> Self {
                VmmError::$variant(e)
            }
        }
    };
}
from_err!(Psp, PspError);
from_err!(Mem, MemError);
from_err!(Verifier, VerifierError);
from_err!(Guest, GuestBootError);
from_err!(Attest, AttestError);
from_err!(Image, ImageError);

/// The channel of a timing mark made before the guest kernel installs its
/// #VC handler (§6.1). Under SEV-ES/SNP an `outb` to the debug port would
/// take a #VC nothing can handle yet, so the mark is a magic value written
/// to the GHCB MSR, which the VMM always intercepts; plain SEV has no GHCB
/// and its port writes exit to the VMM directly. Later marks (`init`,
/// `attested`) always use the debug port.
fn early_channel(generation: SevGeneration) -> EventChannel {
    if generation.encrypts_vmsa() {
        EventChannel::GhcbMsr
    } else {
        EventChannel::DebugPort
    }
}

/// A configured microVM, ready to boot on a [`Machine`].
#[derive(Debug, Clone)]
pub struct MicroVm {
    config: VmConfig,
}

/// A booted guest's live state, for warm-start experiments (§7.1).
pub(crate) struct LiveGuest {
    /// The guest's memory, exactly as left at `init`.
    pub(crate) mem: GuestMemory,
    /// The loaded kernel's entry point.
    pub(crate) kernel_entry: u64,
}

/// A launched SEV guest before it runs: its PSP context, memory, launch
/// digest, and the priced launch steps.
struct Launch {
    guest: GuestHandle,
    mem: GuestMemory,
    measurement: [u8; 48],
    steps: Vec<Step>,
}

/// Everything boot needs that is derivable from the config alone, built
/// once per boot. Components are the image caches' own buffers, never
/// image-sized private copies.
struct Artifacts {
    image: Arc<KernelImage>,
    /// The kernel file the policy boots from.
    kernel_bytes: Arc<Vec<u8>>,
    initrd_bytes: Arc<Vec<u8>>,
    layout: GuestLayout,
    verifier: Option<VerifierBinary>,
    /// The §4.2 pre-encryption plan, in launch order; `None` for a boot
    /// that pre-encrypts nothing.
    plan: Option<Vec<MeasuredItem>>,
}

impl MicroVm {
    /// Validates the configuration and wraps it.
    ///
    /// # Errors
    ///
    /// [`VmmError::Config`] on inconsistent configurations.
    pub fn new(config: VmConfig) -> Result<Self, VmmError> {
        config.validate().map_err(VmmError::Config)?;
        Ok(MicroVm { config })
    }

    /// The configuration.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// The one derivation behind every boot and the §4.2 tools below. The
    /// kernel and initrd digests in the hash page travel with the images
    /// (§4.3): nothing here reads a component's bytes. The page is covered
    /// by the launch measurement and the guest re-hashes what was staged
    /// against it, so a wrong digest refuses the boot or fails attestation.
    fn artifacts(&self) -> Result<Artifacts, VmmError> {
        let policy = self.config.policy;
        let image = self.config.kernel.build();
        let initrd =
            sevf_image::initrd::staged_initrd(self.config.initrd_size, self.config.initrd_codec);
        let (kernel_bytes, kernel_hashes) = match policy {
            BootPolicy::Severifast | BootPolicy::QemuOvmf => {
                let bz = image.hashed_bzimage(self.config.kernel_codec);
                let digest = KernelHashes::WholeImage(bz.digest());
                (Arc::clone(bz.bytes()), Some(digest))
            }
            BootPolicy::SeverifastVmlinux => {
                let (staged, digests) = image.fw_cfg_staged();
                (staged, Some(KernelHashes::FwCfg(digests)))
            }
            // Loaded from the ELF segments; only its length is planned for.
            BootPolicy::StockFirecracker => (image.vmlinux_shared(), None),
        };
        let hash_page = kernel_hashes.map(|kernel| HashPage {
            kernel,
            initrd: initrd.digest(),
        });
        let layout = GuestLayout::plan_with_expansion(
            self.config.mem_size,
            kernel_bytes.len() as u64,
            initrd.bytes().len() as u64,
            policy.uses_bzimage(),
        )
        .map_err(VmmError::Layout)?;
        let verifier = match policy {
            BootPolicy::Severifast => Some(VerifierFeatures::severifast()),
            BootPolicy::SeverifastVmlinux => Some(VerifierFeatures::severifast_vmlinux()),
            BootPolicy::QemuOvmf | BootPolicy::StockFirecracker => None,
        }
        .map(VerifierBinary::build);
        let plan = hash_page.map(|page| self.plan(verifier.as_ref(), page, &layout));
        Ok(Artifacts {
            image,
            kernel_bytes,
            initrd_bytes: Arc::clone(initrd.bytes()),
            layout,
            verifier,
            plan,
        })
    }

    /// The ordered pre-encryption plan of a SEV policy: firmware (the boot
    /// verifier, or OVMF for the one SEV policy without it), hash page,
    /// boot_params, mptable, cmdline.
    fn plan(
        &self,
        verifier: Option<&VerifierBinary>,
        hash_page: HashPage,
        layout: &GuestLayout,
    ) -> Vec<MeasuredItem> {
        let firmware = match verifier {
            Some(verifier) => MeasuredItem {
                gpa: VERIFIER_ADDR,
                data: verifier.bytes().to_vec(),
                label: "boot verifier",
            },
            None => {
                let ovmf = OvmfImage::build();
                let mut data = ovmf.bytes().to_vec();
                data.resize(ovmf.pre_encrypted_size() as usize, 0); // metadata pages
                MeasuredItem {
                    gpa: OVMF_BASE,
                    data,
                    label: "OVMF firmware + SNP metadata",
                }
            }
        };
        vec![
            firmware,
            MeasuredItem {
                gpa: HASH_PAGE_ADDR,
                data: hash_page.to_page().to_vec(),
                label: "kernel/initrd hash page",
            },
            MeasuredItem {
                gpa: BOOT_PARAMS_ADDR,
                data: BootParams::build(&self.config, layout).to_page().to_vec(),
                label: "boot_params",
            },
            MeasuredItem {
                gpa: MPTABLE_ADDR,
                data: mptable::build(self.config.vcpus),
                label: "mptable",
            },
            MeasuredItem {
                gpa: CMDLINE_ADDR,
                data: cmdline::to_page(&cmdline::default_cmdline()).to_vec(),
                label: "kernel command line",
            },
        ]
    }

    /// The launch digest `plan` produces under this VM's VMSA count: the
    /// key a template lookup matches and what §4.2's tool reports.
    fn digest(&self, plan: &[MeasuredItem]) -> [u8; 48] {
        let vmsas = if self.config.generation.encrypts_vmsa() {
            self.config.vcpus
        } else {
            0
        };
        expected_measurement(plan, vmsas)
    }

    /// The ordered pre-encryption plan (firmware, hash page, boot_params,
    /// mptable, cmdline) — the input to the expected-measurement tool
    /// (§4.2) and the exact sequence [`MicroVm::boot`] executes.
    ///
    /// # Errors
    ///
    /// [`VmmError::Config`] for non-SEV policies.
    pub fn pre_encryption_plan(&self) -> Result<Vec<MeasuredItem>, VmmError> {
        self.artifacts()?
            .plan
            .ok_or(VmmError::Config("non-SEV boots pre-encrypt nothing"))
    }

    /// The launch digest a correct boot of this VM must produce (§4.2's
    /// out-of-band tool).
    ///
    /// # Errors
    ///
    /// [`VmmError::Config`] for non-SEV policies.
    pub fn expected_measurement(&self) -> Result<[u8; 48], VmmError> {
        Ok(self.digest(&self.pre_encryption_plan()?))
    }

    /// Registers this VM's expected measurement with the machine's guest
    /// owner (what a real tenant does out of band before launching).
    ///
    /// # Errors
    ///
    /// [`VmmError::Config`] for non-SEV policies.
    pub fn register_expected(&self, machine: &mut Machine) -> Result<(), VmmError> {
        machine
            .owner
            .expect_measurement(self.expected_measurement()?);
        Ok(())
    }

    /// Boots the VM on `machine`, producing a full timeline report.
    ///
    /// # Errors
    ///
    /// Any stage may refuse: layout, PSP commands, the boot verifier, the
    /// guest kernel, or remote attestation.
    pub fn boot(&self, machine: &mut Machine) -> Result<BootReport, VmmError> {
        Ok(self.boot_capturing(machine)?.0)
    }

    /// Like [`MicroVm::boot`], but keeps the booted guest alive for the
    /// §7.1 warm-start exploration: returns the running guest's memory and
    /// PSP context alongside the report.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MicroVm::boot`].
    pub fn boot_keep_alive(
        &self,
        machine: &mut Machine,
    ) -> Result<(BootReport, crate::warm::KeepAliveVm), VmmError> {
        let (report, live) = self.boot_capturing(machine)?;
        Ok((
            report,
            crate::warm::KeepAliveVm::new(self.config.clone(), live),
        ))
    }

    fn boot_capturing(&self, machine: &mut Machine) -> Result<(BootReport, LiveGuest), VmmError> {
        let cost = machine.cost.clone();
        let mut jitter = match self.config.jitter_seed {
            Some(seed) => Jitter::new(seed),
            None => Jitter::disabled(),
        };
        let mut tl = Timeline::new();
        let psp_before = machine.psp.total_busy;
        let artifacts = self.artifacts()?;

        // ---- VMM process + KVM setup -------------------------------------
        let spawn = if self.config.policy == BootPolicy::QemuOvmf {
            Work::QemuSpawn
        } else {
            Work::FirecrackerSpawn
        };
        tl.place(
            [
                ("VMM process spawn + config", spawn),
                ("KVM VM/vCPU setup", Work::KvmSetup),
                (
                    "device setup (serial, virtio, debug port)",
                    Work::DeviceSetup,
                ),
            ]
            .map(|(label, work)| cost.step(PhaseKind::VmmSetup, label, work)),
            &mut jitter,
        );
        tl.mark(EventChannel::VmmLog, "vmm-ready");

        let (mut mem, entry, launched) = match &artifacts.plan {
            None => {
                let (mem, entry) = self.load_stock(machine, &mut tl, &mut jitter, &artifacts)?;
                (mem, entry, None)
            }
            Some(plan) => {
                // ---- SEV launch ---------------------------------------------
                // Only a template lookup needs the digest before the launch;
                // a full launch reports the PSP's own.
                let template = match self.config.launch_mode {
                    LaunchMode::SharedKeyTemplate => {
                        let key = self.digest(plan);
                        machine.templates.get(&key).map(|&template| (template, key))
                    }
                    LaunchMode::Normal => None,
                };
                let (launch, ready) = match template {
                    Some((template, key)) => (
                        self.launch_shared(&mut machine.psp, &cost, &artifacts, template, key)?,
                        "template-launch-ready",
                    ),
                    None => {
                        let launch = self.launch_full(&mut machine.psp, &cost, &artifacts)?;
                        if self.config.launch_mode == LaunchMode::SharedKeyTemplate {
                            machine.templates.insert(launch.measurement, launch.guest);
                        }
                        (launch, "launch-measurement-frozen")
                    }
                };
                tl.place(launch.steps, &mut jitter);
                tl.mark(EventChannel::VmmLog, ready);
                let mut mem = launch.mem;

                // ---- Enter the guest ----------------------------------------
                let early = early_channel(self.config.generation);
                tl.mark(early, "guest-entry");
                let (steps, loader, entry) = self.enter_guest(&mut mem, &artifacts, machine)?;
                tl.place(steps, &mut jitter);
                tl.mark(early, "boot-verification-done");

                // ---- Bootstrap loader (bzImage policies) --------------------
                if let Some(loader) = loader {
                    tl.place(loader.steps, &mut jitter);
                    tl.mark(early, "bootstrap-loader-done");
                }
                (mem, entry, Some((launch.guest, launch.measurement)))
            }
        };

        // ---- Linux boot ---------------------------------------------------------
        let stage = guest_kernel::run_kernel(&mut mem, entry, self.config.generation, &cost)?;
        tl.place(stage.steps, &mut jitter);
        tl.mark(EventChannel::DebugPort, "init");

        // ---- Remote attestation (SEV guests with a network) ---------------------
        let (outcome, secret) = match launched {
            Some((guest, measurement)) if stage.descriptor.has_network => {
                let client = GuestAttestClient::new(&measurement);
                let (report, work) = machine.psp.guest_report(guest, client.report_data())?;
                let wrapped = machine.owner.handle_report(&report)?;
                let secret = client.unwrap_secret(&wrapped)?;
                let request = "SNP_GUEST_REQUEST (report into encrypted memory)";
                tl.place([work.step(PhaseKind::Attestation, request)], &mut jitter);
                tl.place(
                    [
                        (
                            "send report; owner validates and wraps secret",
                            Work::AttestationRoundTrip,
                        ),
                        ("derive session key; unwrap secret", Work::GuestCrypto),
                    ]
                    .map(|(label, work)| cost.step(PhaseKind::Attestation, label, work)),
                    &mut jitter,
                );
                tl.mark(EventChannel::DebugPort, "attested");
                (BootOutcome::Running, Some(secret))
            }
            _ => (BootOutcome::RunningUnattested, None),
        };

        let report = BootReport {
            config: self.config.clone(),
            timeline: tl,
            outcome,
            measurement: launched.map(|(_, measurement)| measurement),
            provisioned_secret: secret,
            psp_busy: machine.psp.total_busy - psp_before,
        };
        Ok((
            report,
            LiveGuest {
                mem,
                kernel_entry: entry,
            },
        ))
    }

    /// Runs the guest from its pre-encrypted entry to the kernel: the boot
    /// verifier (OVMF's PI phases first on the baseline) and, for a bzImage,
    /// the bootstrap loader as the verifier's continuation, which runs while
    /// the initrd digest is still being taken. Returns the verifier's steps,
    /// the loader's stage and the kernel entry.
    ///
    /// Guest-side KASLR draws its slide inside the guest (modeled with the
    /// machine RNG standing in for the guest's RDRAND; the host never
    /// depends on the value). The draw is taken from a copy that is
    /// committed only when the boot is accepted, so a refused boot leaves
    /// `machine.rng` as it found it.
    fn enter_guest(
        &self,
        mem: &mut GuestMemory,
        artifacts: &Artifacts,
        machine: &mut Machine,
    ) -> Result<(Vec<Step>, Option<LoaderStage>, u64), VmmError> {
        let (layout, cost) = (&artifacts.layout, &machine.cost);
        let (bzimage, huge_pages) = (self.config.policy.uses_bzimage(), self.config.huge_pages);
        let kind = if bzimage {
            KernelKind::Bzimage
        } else {
            KernelKind::Vmlinux
        };
        let (mut steps, vconfig) = match &artifacts.verifier {
            Some(verifier) => (
                Vec::new(),
                VerifierConfig {
                    kind,
                    huge_pages,
                    firmware_size: verifier.size(),
                    ..VerifierConfig::severifast()
                },
            ),
            None => (
                sevf_ovmf::pi_phases(cost),
                sevf_ovmf::verifier_config(kind, huge_pages),
            ),
        };
        let mut slide_rng = machine.rng.clone();
        let (verified, loader) = verify::run_then(mem, layout, cost, vconfig, |mem, entry| {
            if !bzimage {
                return Ok(None);
            }
            let slide = self.slide(KaslrMode::GuestSide, &mut slide_rng, artifacts);
            let size = layout.kernel_size;
            let loader = guest_kernel::run_bootstrap_loader_kaslr(mem, entry, size, cost, slide)?;
            Ok::<_, VmmError>(Some(loader))
        })?;
        machine.rng = slide_rng;
        steps.extend(verified.steps);
        let entry = loader
            .as_ref()
            .map_or(verified.kernel_entry, |loader| loader.vmlinux_entry);
        Ok((steps, loader, entry))
    }

    /// The full SEV launch flow (§2.4): LAUNCH_START, RMP init, staging,
    /// the §4.2 pre-encryption plan, VMSAs, LAUNCH_FINISH.
    fn launch_full(
        &self,
        psp: &mut Psp,
        cost: &CostModel,
        artifacts: &Artifacts,
    ) -> Result<Launch, VmmError> {
        let layout = &artifacts.layout;
        let start = psp.launch_start(self.config.generation)?;
        let guest = start.guest;
        let mut steps = vec![start
            .work
            .step(PhaseKind::PreEncryption, "SNP_LAUNCH_START")];
        let mut mem = GuestMemory::new_sev(
            self.config.mem_size,
            start.memory_key,
            self.config.generation,
        );

        let rmp = psp.rmp_init(guest, &mem)?;
        steps.push(rmp.step(PhaseKind::VmmSetup, "KVM RMP/page-state initialization"));
        steps.push(cost.step(
            PhaseKind::VmmSetup,
            "register/pin encrypted memory regions",
            Work::PinEncryptedMemory,
        ));

        // Stage plain-text components in the shared window.
        let (kernel, initrd) = (&artifacts.kernel_bytes, &artifacts.initrd_bytes);
        for (what, addr, bytes) in [
            ("kernel image", layout.kernel_staging, kernel),
            ("initrd", layout.initrd_staging, initrd),
        ] {
            mem.host_share(addr, bytes, 0..bytes.len())?;
            let bytes = bytes.len() as u64;
            steps.push(cost.step(
                PhaseKind::VmmSetup,
                format!("stage {what} ({bytes} B)"),
                Work::CopyPlain(bytes),
            ));
        }

        // Pre-encrypt the root of trust (the §4.2 plan, in order).
        for item in artifacts.plan.iter().flatten() {
            mem.host_write(item.gpa, &item.data)?;
            let work = psp.launch_update_data(guest, &mut mem, item.gpa, item.data.len() as u64)?;
            steps.push(work.step(
                PhaseKind::PreEncryption,
                format!("LAUNCH_UPDATE_DATA: {} ({} B)", item.label, item.data.len()),
            ));
        }
        if self.config.generation.encrypts_vmsa() {
            let work = psp.launch_update_vmsa(guest, self.config.vcpus, &[0u8; 4096])?;
            steps.push(work.step(
                PhaseKind::PreEncryption,
                format!("LAUNCH_UPDATE_VMSA ({} vCPU)", self.config.vcpus),
            ));
        }
        for (base, len) in layout.private_ranges() {
            mem.rmp_assign(base, len)?;
        }
        let finish = psp.launch_finish(guest)?;
        steps.push(
            finish
                .work
                .step(PhaseKind::PreEncryption, "SNP_LAUNCH_FINISH"),
        );
        Ok(Launch {
            guest,
            mem,
            measurement: finish.measurement,
            steps,
        })
    }

    /// The shared-key template launch (future work, §6.2/§8): reuse a
    /// finalized template's key and `measurement`; install the attested
    /// template state with plain copies instead of PSP measurement; skip
    /// RMP re-initialization (page states are cloned copy-on-write from the
    /// template).
    fn launch_shared(
        &self,
        psp: &mut Psp,
        cost: &CostModel,
        artifacts: &Artifacts,
        template: GuestHandle,
        measurement: [u8; 48],
    ) -> Result<Launch, VmmError> {
        let layout = &artifacts.layout;
        let start = psp.launch_start_shared(template)?;
        let mut mem = GuestMemory::new_sev(
            self.config.mem_size,
            start.memory_key,
            self.config.generation,
        );

        // Stage the shared-window components exactly as a full launch does.
        let (kernel, initrd) = (&artifacts.kernel_bytes, &artifacts.initrd_bytes);
        mem.host_share(layout.kernel_staging, kernel, 0..kernel.len())?;
        mem.host_share(layout.initrd_staging, initrd, 0..initrd.len())?;
        let staged = (kernel.len() + initrd.len()) as u64;

        // Install the template's attested root-of-trust state: plain copies
        // under the shared key (no PSP involvement).
        let mut installed = 0u64;
        for item in artifacts.plan.iter().flatten() {
            mem.host_write(item.gpa, &item.data)?;
            mem.pre_encrypt(item.gpa, item.data.len() as u64)?;
            installed += item.data.len() as u64;
        }
        for (base, len) in layout.private_ranges() {
            mem.rmp_assign(base, len)?;
        }
        let steps = vec![
            start.work.step(
                PhaseKind::PreEncryption,
                "shared-key template launch (no per-VM measurement)",
            ),
            cost.step(
                PhaseKind::VmmSetup,
                "stage kernel image + initrd",
                Work::CopyPlain(staged),
            ),
            cost.step(
                PhaseKind::VmmSetup,
                format!("clone template root-of-trust state ({installed} B, CoW)"),
                Work::CopyPlain(installed),
            ),
        ];
        Ok(Launch {
            guest: start.guest,
            mem,
            measurement,
            steps,
        })
    }

    /// Draws a 2 MiB-aligned KASLR slide that keeps the loaded kernel below
    /// the initrd destination when the config's KASLR mode is `mode`; 0,
    /// without a draw, when it is not or there is no room.
    fn slide(&self, mode: KaslrMode, rng: &mut XorShift64, artifacts: &Artifacts) -> u64 {
        const ALIGN: u64 = 2 * 1024 * 1024;
        let end = artifacts
            .image
            .elf()
            .segments
            .iter()
            .map(|s| s.vaddr + s.mem_size())
            .max()
            .unwrap_or(0);
        let slots = artifacts.layout.initrd_dest.saturating_sub(end) / ALIGN;
        if self.config.kaslr != mode || slots == 0 {
            return 0;
        }
        rng.next_below(slots) * ALIGN
    }

    /// The stock Firecracker path up to the kernel: direct load of an
    /// uncompressed vmlinux, no SEV (§2.1's first two steps). Returns the
    /// guest memory and the (possibly slid) 64-bit entry point.
    fn load_stock(
        &self,
        machine: &mut Machine,
        tl: &mut Timeline,
        jitter: &mut Jitter,
        artifacts: &Artifacts,
    ) -> Result<(GuestMemory, u64), VmmError> {
        let cost = &machine.cost;
        let layout = &artifacts.layout;
        let mut mem = GuestMemory::new_plain(self.config.mem_size);

        // 1. Load the kernel ELF in one operation to where it will run —
        //    with in-monitor KASLR the VMM slides the whole image
        //    (Holmes et al., EuroSys'22; only possible without SEV, §8).
        let slide = self.slide(KaslrMode::InMonitor, &mut machine.rng, artifacts);
        let (elf, initrd) = (artifacts.image.elf(), &artifacts.initrd_bytes);
        for seg in &artifacts.image.layout().segments {
            mem.host_share(seg.vaddr + slide, &artifacts.kernel_bytes, seg.data.clone())?;
        }
        let loaded = elf.loadable_bytes();
        mem.host_share(layout.initrd_dest, initrd, 0..initrd.len())?;

        // 2. Set up the data structures Linux needs.
        let bp = BootParams::build(&self.config, layout);
        mem.host_write(BOOT_PARAMS_ADDR, &bp.to_page())?;
        mem.host_write(MPTABLE_ADDR, &mptable::build(self.config.vcpus))?;
        mem.host_write(CMDLINE_ADDR, &cmdline::to_page(&cmdline::default_cmdline()))?;
        let segments = Work::ElfSegments(elf.segments.len() as u64);
        let initrd = initrd.len() as u64;
        tl.place(
            [
                (
                    format!("direct-load vmlinux segments ({loaded} B)"),
                    Work::All(vec![Work::CopyPlain(loaded), segments]),
                ),
                ("load initrd".into(), Work::CopyPlain(initrd)),
                (
                    "generate boot_params/mptable/cmdline".into(),
                    Work::BootStructures,
                ),
            ]
            .map(|(label, work): (String, Work)| cost.step(PhaseKind::VmmSetup, label, work)),
            jitter,
        );
        tl.mark(EventChannel::VmmLog, "direct-boot-entry");
        Ok((mem, elf.entry + slide))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sevf_codec::Codec;
    use sevf_crypto::sha256;
    use sevf_image::elf::{EHDR_SIZE, PHDR_SIZE};
    use sevf_image::kernel::{FwCfgDigests, KernelConfig};
    use sevf_sim::Nanos;

    fn machine() -> Machine {
        Machine::new(1)
    }

    fn booted(policy: BootPolicy) -> BootReport {
        let mut m = machine();
        let mut config = VmConfig::test_tiny(policy);
        if policy == BootPolicy::SeverifastVmlinux {
            config.kernel_codec = Codec::None;
        }
        let vm = MicroVm::new(config).unwrap();
        if policy.is_sev() {
            vm.register_expected(&mut m).unwrap();
        }
        vm.boot(&mut m).unwrap()
    }

    #[test]
    fn severifast_boots_and_attests() {
        let report = booted(BootPolicy::Severifast);
        assert_eq!(report.outcome, BootOutcome::Running);
        assert_eq!(
            report.provisioned_secret.as_deref(),
            Some(&b"tenant disk encryption key"[..])
        );
        assert!(report.measurement.is_some());
        assert!(report.psp_busy > Nanos::ZERO);
        // Attestation excluded from boot time, included in total.
        assert!(report.total_time() > report.boot_time());
    }

    #[test]
    fn stock_is_fastest_and_qemu_slowest_by_far() {
        let [stock, sevf, qemu] = [
            BootPolicy::StockFirecracker,
            BootPolicy::Severifast,
            BootPolicy::QemuOvmf,
        ]
        .map(booted);
        assert_eq!(stock.outcome, BootOutcome::RunningUnattested);
        assert_eq!(stock.psp_busy, Nanos::ZERO);
        assert!(stock.boot_time() < sevf.boot_time());
        // Fig. 9: SEVeriFast cuts boot time by ~86-94%.
        let reduction = 1.0 - sevf.boot_time().as_millis_f64() / qemu.boot_time().as_millis_f64();
        assert!(reduction > 0.8, "reduction {reduction:.3}");
        // Fig. 10: pre-encryption is ~8 ms for SEVeriFast whatever the
        // kernel, ~288 ms for QEMU/OVMF.
        for (report, band) in [(&sevf, 6.0..12.0), (&qemu, 250.0..330.0)] {
            let ms = report.pre_encryption().as_millis_f64();
            let policy = report.config.policy;
            assert!(band.contains(&ms), "{policy}: pre-encryption {ms} ms");
        }
    }

    #[test]
    fn every_phase_present_and_vmlinux_skips_only_the_loader() {
        for policy in [BootPolicy::Severifast, BootPolicy::SeverifastVmlinux] {
            let report = booted(policy);
            assert_eq!(report.outcome, BootOutcome::Running, "{policy}");
            for phase in [
                PhaseKind::VmmSetup,
                PhaseKind::PreEncryption,
                PhaseKind::BootVerification,
                PhaseKind::BootstrapLoader,
                PhaseKind::LinuxBoot,
                PhaseKind::Attestation,
            ] {
                // No bootstrap loader phase for an uncompressed kernel.
                let skipped = !policy.uses_bzimage() && phase == PhaseKind::BootstrapLoader;
                let present = report.phase(phase) > Nanos::ZERO;
                assert_eq!(present, !skipped, "{policy}: phase {phase}");
            }
        }
    }

    #[test]
    fn carried_digests_equal_fresh_hashes_and_every_measurement_agrees() {
        for policy in [
            BootPolicy::Severifast,
            BootPolicy::SeverifastVmlinux,
            BootPolicy::QemuOvmf,
        ] {
            let mut config = VmConfig::test_tiny(policy);
            config.launch_mode = LaunchMode::SharedKeyTemplate;
            if policy == BootPolicy::SeverifastVmlinux {
                config.kernel_codec = Codec::None;
            }
            let vm = MicroVm::new(config).unwrap();

            // The hash file the plan carries, against the staged bytes
            // hashed on the spot.
            let artifacts = vm.artifacts().unwrap();
            let kernel = &artifacts.kernel_bytes[..];
            let fresh = HashPage {
                kernel: if policy == BootPolicy::SeverifastVmlinux {
                    let phdrs_end = EHDR_SIZE + artifacts.image.elf().segments.len() * PHDR_SIZE;
                    KernelHashes::FwCfg(FwCfgDigests {
                        ehdr: sha256(&kernel[..EHDR_SIZE]),
                        phdrs: sha256(&kernel[EHDR_SIZE..phdrs_end]),
                        segments: sha256(&kernel[phdrs_end..]),
                    })
                } else {
                    KernelHashes::WholeImage(sha256(kernel))
                },
                initrd: sha256(&artifacts.initrd_bytes),
            };
            let plan = vm.pre_encryption_plan().unwrap();
            let page = plan.iter().find(|i| i.gpa == HASH_PAGE_ADDR).unwrap();
            assert_eq!(page.data, fresh.to_page(), "{policy}: hash page");

            // One digest, however it is reached: the tool, the plan, a
            // full launch (the PSP's own chain) and a template hit.
            let expected = vm.expected_measurement().unwrap();
            assert_eq!(expected, expected_measurement(&plan, vm.config.vcpus));
            let mut m = machine();
            vm.register_expected(&mut m).unwrap();
            let fill = vm.boot(&mut m).unwrap();
            assert_eq!(m.templates.len(), 1, "{policy}: fill caches a template");
            let hit = vm.boot(&mut m).unwrap();
            assert_eq!(hit.outcome, BootOutcome::Running, "{policy}: hit attests");
            assert!(
                hit.psp_busy.as_millis_f64() < fill.psp_busy.as_millis_f64() / 5.0,
                "{policy}: hit PSP {} vs fill {}",
                hit.psp_busy,
                fill.psp_busy
            );
            assert!(
                hit.boot_time() < fill.boot_time(),
                "{policy}: hit is faster"
            );
            assert_eq!(fill.measurement, Some(expected), "{policy}: fill");
            assert_eq!(hit.measurement, Some(expected), "{policy}: hit");

            // A template fill is a cold launch: a normal-mode boot on a
            // fresh machine of the same seed records the same timeline.
            let mut config = vm.config.clone();
            config.launch_mode = LaunchMode::Normal;
            let normal_vm = MicroVm::new(config).unwrap();
            let mut m = machine();
            normal_vm.register_expected(&mut m).unwrap();
            let normal = normal_vm.boot(&mut m).unwrap();
            assert_eq!(normal.measurement, fill.measurement, "{policy}: normal");
            let shape = |r: &BootReport| {
                let (spans, events) = (r.timeline.spans(), r.timeline.events());
                let spans: Vec<_> = spans
                    .iter()
                    .map(|s| (s.class, s.phase, s.label.clone(), s.duration))
                    .collect();
                let events: Vec<_> = events.iter().map(|e| (e.channel, e.tag.clone())).collect();
                (spans, events)
            };
            assert_eq!(shape(&fill), shape(&normal), "{policy}: fill is cold");
        }
    }

    #[test]
    fn lupine_like_kernel_skips_attestation() {
        let mut m = machine();
        let mut config = VmConfig::test_tiny(BootPolicy::Severifast);
        config.kernel = KernelConfig {
            has_network: false,
            ..KernelConfig::test_tiny()
        };
        let vm = MicroVm::new(config).unwrap();
        vm.register_expected(&mut m).unwrap();
        let report = vm.boot(&mut m).unwrap();
        assert_eq!(report.outcome, BootOutcome::RunningUnattested);
        assert_eq!(report.phase(PhaseKind::Attestation), Nanos::ZERO);
    }

    #[test]
    fn jitter_changes_times_not_outcomes() {
        let mut m = machine();
        let base = VmConfig::test_tiny(BootPolicy::Severifast);
        let vm1 = MicroVm::new(base.clone().with_jitter(1)).unwrap();
        let vm2 = MicroVm::new(base.with_jitter(2)).unwrap();
        vm1.register_expected(&mut m).unwrap();
        let a = vm1.boot(&mut m).unwrap();
        let b = vm2.boot(&mut m).unwrap();
        assert_ne!(a.boot_time(), b.boot_time());
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(
            a.measurement, b.measurement,
            "jitter must not affect crypto"
        );
    }

    #[test]
    fn marks_take_the_channel_the_generation_allows() {
        // Before the kernel's #VC handler, SEV-ES/SNP guests mark through
        // the GHCB MSR; plain SEV and every later mark use the debug port.
        // A stock boot has no verifier or loader, so makes no early mark.
        use EventChannel::{DebugPort as Port, GhcbMsr as Msr};
        let tags = [
            "guest-entry",
            "boot-verification-done",
            "bootstrap-loader-done",
            "init",
            "attested",
        ];
        let encrypted_vmsa = [Some(Msr), Some(Msr), Some(Msr), Some(Port), Some(Port)];
        for (generation, expected) in [
            (SevGeneration::Sev, [Some(Port); 5]),
            (SevGeneration::SevEs, encrypted_vmsa),
            (SevGeneration::SevSnp, encrypted_vmsa),
            (SevGeneration::None, [None, None, None, Some(Port), None]),
        ] {
            let mut m = machine();
            let report = if generation.is_sev() {
                m.owner.set_required_generation(generation);
                let mut config = VmConfig::test_tiny(BootPolicy::Severifast);
                config.generation = generation;
                let vm = MicroVm::new(config).unwrap();
                vm.register_expected(&mut m).unwrap();
                vm.boot(&mut m).unwrap()
            } else {
                booted(BootPolicy::StockFirecracker)
            };
            let events = report.timeline.events();
            let channel = |tag| events.iter().find(|e| e.tag == tag).map(|e| e.channel);
            assert_eq!(tags.map(channel), expected, "{}", generation.name());
        }
    }

    #[test]
    fn in_monitor_kaslr_slides_stock_boots() {
        let mut m = machine();
        let mut config = VmConfig::test_tiny(BootPolicy::StockFirecracker);
        config.kaslr = KaslrMode::InMonitor;
        let vm = MicroVm::new(config).unwrap();
        let mut entries = std::collections::HashSet::new();
        for _ in 0..6 {
            let (report, alive) = vm.boot_keep_alive(&mut m).unwrap();
            assert_eq!(report.outcome, BootOutcome::RunningUnattested);
            let entry = alive.kernel_entry();
            assert!(entry >= sevf_image::kernel::KERNEL_BASE);
            assert_eq!(
                (entry - sevf_image::kernel::KERNEL_BASE) % (2 * 1024 * 1024),
                0,
                "slide must be 2 MiB aligned"
            );
            entries.insert(entry);
        }
        assert!(entries.len() > 1, "KASLR produced no entropy: {entries:?}");
    }

    #[test]
    fn guest_side_kaslr_boots_and_leaves_measurement_unchanged() {
        let mut m = machine();
        let baseline = MicroVm::new(VmConfig::test_tiny(BootPolicy::Severifast)).unwrap();
        let mut config = VmConfig::test_tiny(BootPolicy::Severifast);
        config.kaslr = KaslrMode::GuestSide;
        let kaslr_vm = MicroVm::new(config).unwrap();
        // The slide happens in the guest: the launch measurement (and thus
        // attestation) is identical to the non-KASLR boot.
        assert_eq!(
            kaslr_vm.expected_measurement().unwrap(),
            baseline.expected_measurement().unwrap()
        );
        kaslr_vm.register_expected(&mut m).unwrap();
        let (report, alive_a) = kaslr_vm.boot_keep_alive(&mut m).unwrap();
        assert_eq!(report.outcome, BootOutcome::Running);
        let (_, alive_b) = kaslr_vm.boot_keep_alive(&mut m).unwrap();
        let (_, alive_c) = kaslr_vm.boot_keep_alive(&mut m).unwrap();
        let distinct: std::collections::HashSet<u64> = [
            alive_a.kernel_entry(),
            alive_b.kernel_entry(),
            alive_c.kernel_entry(),
        ]
        .into();
        assert!(distinct.len() > 1, "no slide entropy: {distinct:?}");
    }

    #[test]
    fn guest_side_kaslr_draws_only_for_an_accepted_boot() {
        // The slide is drawn while the initrd digest is still being taken;
        // a refused initrd must leave the machine RNG where it was.
        let mut config = VmConfig::test_tiny(BootPolicy::Severifast);
        config.kaslr = KaslrMode::GuestSide;
        let vm = MicroVm::new(config).unwrap();
        let artifacts = vm.artifacts().unwrap();
        let layout = &artifacts.layout;
        for swap_initrd in [false, true] {
            let mut m = machine();
            let cost = m.cost.clone();
            let mut mem = vm.launch_full(&mut m.psp, &cost, &artifacts).unwrap().mem;
            if swap_initrd {
                let at = layout.initrd_staging + layout.initrd_size / 2;
                let byte = mem.host_read(at, 1).unwrap()[0];
                mem.host_write(at, &[byte ^ 0x40]).unwrap();
            }
            let mut expected = m.rng.clone();
            let entered = vm.enter_guest(&mut mem, &artifacts, &mut m);
            if swap_initrd {
                let initrd = VerifierError::HashMismatch {
                    component: "initrd",
                };
                assert_eq!(entered.unwrap_err(), VmmError::Verifier(initrd));
            } else {
                let slide = vm.slide(KaslrMode::GuestSide, &mut expected, &artifacts);
                let (_, loader, entry) = entered.unwrap();
                assert!(loader.is_some());
                assert_eq!(entry, sevf_image::kernel::KERNEL_BASE + slide);
            }
            assert_eq!(m.rng.next_u64(), expected.next_u64(), "swap {swap_initrd}");
        }
    }

    #[test]
    fn no_boot_leaks_an_image_reference() {
        // A kernel and an initrd size of this test's own, so no other
        // test's boot holds a reference to them meanwhile.
        let kernel = KernelConfig {
            name: "test-image-references".into(),
            ..KernelConfig::test_tiny()
        };
        let config = |policy, launch_mode, kernel_codec| VmConfig {
            kernel: kernel.clone(),
            initrd_size: 68 * 1024,
            launch_mode,
            kernel_codec,
            ..VmConfig::test_tiny(policy)
        };
        let template = config(
            BootPolicy::Severifast,
            LaunchMode::SharedKeyTemplate,
            Codec::Lz4,
        );
        let counts = || {
            let image = kernel.build();
            let initrd =
                sevf_image::initrd::staged_initrd(template.initrd_size, template.initrd_codec);
            [
                image.bzimage(template.kernel_codec),
                image.fw_cfg_staged().0,
                image.vmlinux_shared(),
                Arc::clone(initrd.bytes()),
            ]
            .map(|bytes| Arc::strong_count(&bytes))
        };
        let before = counts();
        let mut m = machine();
        let boots = [
            (template.clone(), "template fill"),
            (template.clone(), "template hit"),
            (
                config(BootPolicy::Severifast, LaunchMode::Normal, Codec::Lz4),
                "cold SEV boot",
            ),
            (
                config(
                    BootPolicy::SeverifastVmlinux,
                    LaunchMode::Normal,
                    Codec::None,
                ),
                "cold vmlinux boot",
            ),
            (
                config(BootPolicy::StockFirecracker, LaunchMode::Normal, Codec::Lz4),
                "stock boot",
            ),
        ];
        for (config, what) in boots {
            let vm = MicroVm::new(config).unwrap();
            if vm.config.policy.is_sev() {
                vm.register_expected(&mut m).unwrap();
            }
            let report = vm.boot(&mut m).unwrap();
            let hit = report
                .timeline
                .events()
                .iter()
                .any(|e| e.tag == "template-launch-ready");
            assert_eq!(hit, what == "template hit", "{what}");
            assert_eq!(counts(), before, "{what} kept an image reference");
        }
        // A guest kept alive holds its staged pages until it is dropped.
        let vm = MicroVm::new(config(
            BootPolicy::Severifast,
            LaunchMode::Normal,
            Codec::Lz4,
        ));
        let (_, live) = vm.unwrap().boot_keep_alive(&mut m).unwrap();
        assert_ne!(counts(), before);
        drop(live);
        assert_eq!(counts(), before);
    }

    #[test]
    fn shared_key_weakens_cross_vm_ciphertext_separation() {
        // The §8 caveat: two guests sharing a key produce identical
        // ciphertext for identical plaintext at identical addresses.
        use sevf_mem::GuestMemory;
        let mut m = machine();
        let mut config = VmConfig::test_tiny(BootPolicy::Severifast);
        config.launch_mode = LaunchMode::SharedKeyTemplate;
        let vm = MicroVm::new(config).unwrap();
        vm.register_expected(&mut m).unwrap();
        vm.boot(&mut m).unwrap();
        let template = *m.templates.values().next().unwrap();
        let a = m.psp.launch_start_shared(template).unwrap();
        let b = m.psp.launch_start_shared(template).unwrap();
        assert_eq!(a.memory_key, b.memory_key);
        let mk = |key| {
            let mut mem = GuestMemory::new_sev(1 << 20, key, SevGeneration::SevSnp);
            mem.pre_encrypt(0x1000, 4096).unwrap();
            mem.guest_write(0x1000, b"same plaintext", true).unwrap();
            mem.host_read(0x1000, 14).unwrap()
        };
        assert_eq!(mk(a.memory_key), mk(b.memory_key), "dedup is now possible");
        // Whereas two *normal* launches differ.
        let c = m.psp.launch_start(SevGeneration::SevSnp).unwrap();
        assert_ne!(mk(a.memory_key), mk(c.memory_key));
    }
}
