//! VM configuration and boot policies.

use sevf_codec::Codec;
use sevf_image::kernel::KernelConfig;
use sevf_sim::cost::SevGeneration;

const MB: u64 = 1024 * 1024;

/// Which boot path a VM takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BootPolicy {
    /// Stock Firecracker: non-SEV, direct uncompressed-vmlinux boot (§2.1).
    StockFirecracker,
    /// SEVeriFast: minimal boot verifier + LZ4 bzImage (§4).
    Severifast,
    /// SEVeriFast with the optimized uncompressed-vmlinux loader (§5).
    SeverifastVmlinux,
    /// The QEMU/OVMF baseline (§2.5).
    QemuOvmf,
}

impl BootPolicy {
    /// Label used in figures.
    pub fn name(self) -> &'static str {
        match self {
            BootPolicy::StockFirecracker => "Stock FC",
            BootPolicy::Severifast => "SEVeriFast",
            BootPolicy::SeverifastVmlinux => "SEVeriFast vmlinux",
            BootPolicy::QemuOvmf => "QEMU/OVMF",
        }
    }

    /// Whether this policy launches an SEV guest.
    pub fn is_sev(self) -> bool {
        !matches!(self, BootPolicy::StockFirecracker)
    }

    /// Whether the kernel image is a compressed bzImage under this policy.
    pub fn uses_bzimage(self) -> bool {
        matches!(self, BootPolicy::Severifast | BootPolicy::QemuOvmf)
    }
}

impl std::fmt::Display for BootPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the SEV launch context is created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaunchMode {
    /// Full launch: fresh key, every root-of-trust byte measured by the PSP
    /// (the paper's design).
    Normal,
    /// Shared-key template launch (the paper's future-work sketch, §6.2):
    /// after one full launch of a configuration, subsequent identical VMs
    /// reuse its key and measurement, skipping almost all PSP work. Weakens
    /// isolation between VMs of the same owner (§8).
    SharedKeyTemplate,
}

/// Kernel address-space layout randomization strategy (§8's related-work
/// discussion: "SEVeriFast breaks in-monitor KASLR").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KaslrMode {
    /// No randomization (the paper's evaluation setting).
    Off,
    /// In-monitor KASLR (Holmes et al., EuroSys'22): the *VMM* picks the
    /// randomized base. Only possible for non-SEV direct boot — under SEV
    /// the relocation would change measured state, and a randomization the
    /// host chooses protects nobody from the host.
    InMonitor,
    /// Guest-side KASLR: the bzImage's bootstrap loader randomizes the
    /// vmlinux placement *inside encrypted memory*, invisible to the host
    /// and to the launch measurement.
    GuestSide,
}

/// Full configuration of one microVM.
#[derive(Debug, Clone, PartialEq)]
pub struct VmConfig {
    /// Boot path.
    pub policy: BootPolicy,
    /// SEV launch-context creation mode.
    pub launch_mode: LaunchMode,
    /// KASLR strategy.
    pub kaslr: KaslrMode,
    /// SEV generation for SEV policies (§6.1: the paper evaluates SNP).
    pub generation: SevGeneration,
    /// Guest kernel.
    pub kernel: KernelConfig,
    /// bzImage payload codec (Fig. 5; LZ4 is the design choice of §4.4).
    pub kernel_codec: Codec,
    /// Initrd codec (§3.3: None — compression does not pay for the initrd).
    pub initrd_codec: Codec,
    /// Uncompressed initrd payload size.
    pub initrd_size: u64,
    /// Number of vCPUs (paper: 1).
    pub vcpus: u64,
    /// Guest memory (paper: 256 MB).
    pub mem_size: u64,
    /// Transparent huge pages on the host (paper: enabled).
    pub huge_pages: bool,
    /// Jitter seed; `None` disables noise (deterministic breakdowns).
    pub jitter_seed: Option<u64>,
}

impl VmConfig {
    /// The paper's standard VM: 1 vCPU, 256 MB, SNP, LZ4 bzImage,
    /// uncompressed initrd, huge pages on.
    pub fn paper_default(policy: BootPolicy, kernel: KernelConfig) -> Self {
        VmConfig {
            policy,
            launch_mode: LaunchMode::Normal,
            kaslr: KaslrMode::Off,
            generation: if policy.is_sev() {
                SevGeneration::SevSnp
            } else {
                SevGeneration::None
            },
            kernel,
            kernel_codec: Codec::Lz4,
            initrd_codec: Codec::None,
            initrd_size: sevf_image::initrd::FULL_SIZE,
            vcpus: 1,
            mem_size: 256 * MB,
            huge_pages: true,
            jitter_seed: None,
        }
    }

    /// A small, fast configuration for tests (tiny kernel, 64 MB guest,
    /// 64 KiB initrd).
    pub fn test_tiny(policy: BootPolicy) -> Self {
        VmConfig {
            initrd_size: 64 * 1024,
            mem_size: 64 * MB,
            ..Self::paper_default(policy, KernelConfig::test_tiny())
        }
    }

    /// Sets the jitter seed (builder style).
    pub fn with_jitter(mut self, seed: u64) -> Self {
        self.jitter_seed = Some(seed);
        self
    }

    /// Validates cross-field constraints.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.vcpus == 0 {
            return Err("at least one vCPU required");
        }
        if self.mem_size < 32 * MB {
            return Err("guest memory must be at least 32 MB");
        }
        if self.policy.is_sev() != self.generation.is_sev() {
            return Err("policy and SEV generation disagree");
        }
        if self.policy == BootPolicy::SeverifastVmlinux && self.kernel_codec != Codec::None {
            return Err("vmlinux policy boots an uncompressed kernel");
        }
        if self.kaslr == KaslrMode::InMonitor && self.policy.is_sev() {
            return Err("in-monitor KASLR is incompatible with SEV (§8): the VMM \
                        cannot relocate measured state, and host-chosen \
                        randomization protects nothing from the host");
        }
        if self.kaslr == KaslrMode::GuestSide && !self.policy.uses_bzimage() {
            return Err("guest-side KASLR lives in the bzImage bootstrap loader");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_evaluation_setup() {
        let c = VmConfig::paper_default(BootPolicy::Severifast, KernelConfig::aws());
        assert_eq!(c.vcpus, 1);
        assert_eq!(c.mem_size, 256 * MB);
        assert_eq!(c.kernel_codec, Codec::Lz4);
        assert_eq!(c.initrd_codec, Codec::None);
        assert!(c.huge_pages);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn stock_policy_is_non_sev() {
        let c = VmConfig::paper_default(BootPolicy::StockFirecracker, KernelConfig::aws());
        assert_eq!(c.generation, SevGeneration::None);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_mismatches() {
        let mut c = VmConfig::paper_default(BootPolicy::Severifast, KernelConfig::aws());
        c.generation = SevGeneration::None;
        assert!(c.validate().is_err());

        let mut c = VmConfig::paper_default(BootPolicy::SeverifastVmlinux, KernelConfig::aws());
        assert!(c.validate().is_err(), "vmlinux policy must use Codec::None");
        c.kernel_codec = Codec::None;
        assert!(c.validate().is_ok());

        let mut c = VmConfig::test_tiny(BootPolicy::Severifast);
        c.vcpus = 0;
        assert!(c.validate().is_err());

        let mut c = VmConfig::test_tiny(BootPolicy::Severifast);
        c.kaslr = KaslrMode::InMonitor;
        assert!(c.validate().is_err(), "in-monitor KASLR under SEV");

        let mut c = VmConfig::test_tiny(BootPolicy::SeverifastVmlinux);
        c.kernel_codec = Codec::None;
        c.kaslr = KaslrMode::GuestSide;
        assert!(c.validate().is_err(), "guest-side KASLR needs a bzImage");
    }

    #[test]
    fn policy_predicates() {
        assert!(!BootPolicy::StockFirecracker.is_sev());
        assert!(BootPolicy::Severifast.uses_bzimage());
        assert!(!BootPolicy::SeverifastVmlinux.uses_bzimage());
        assert_eq!(BootPolicy::QemuOvmf.to_string(), "QEMU/OVMF");
    }
}
