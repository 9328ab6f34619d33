//! Boot reports: the per-boot record every figure is derived from.

use sevf_sim::{Nanos, PhaseKind, Timeline};

use crate::config::VmConfig;

/// How a boot ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootOutcome {
    /// Guest reached `init` (and completed attestation when applicable).
    Running,
    /// Guest reached `init`; attestation was skipped (no networking —
    /// the Lupine config, §6.1).
    RunningUnattested,
}

/// The record of one boot.
#[derive(Debug, Clone)]
pub struct BootReport {
    /// The configuration that booted.
    pub config: VmConfig,
    /// Full phase timeline (VMM → guest → attestation).
    pub timeline: Timeline,
    /// Outcome.
    pub outcome: BootOutcome,
    /// The launch measurement (SEV boots only).
    pub measurement: Option<[u8; 48]>,
    /// The secret provisioned by the guest owner (attested boots only).
    pub provisioned_secret: Option<Vec<u8>>,
    /// Virtual time the PSP was busy for this boot (the serialized portion
    /// in Fig. 12).
    pub psp_busy: Nanos,
}

impl BootReport {
    /// Boot time as the paper defines it: VMM exec to guest `init`,
    /// excluding attestation (§6.1).
    pub fn boot_time(&self) -> Nanos {
        self.timeline.boot_total()
    }

    /// End-to-end time including attestation (Fig. 9).
    pub fn total_time(&self) -> Nanos {
        self.timeline.total()
    }

    /// Time attributed to one figure phase.
    pub fn phase(&self, phase: PhaseKind) -> Nanos {
        self.timeline.phase_total(phase)
    }

    /// The Fig. 10 "Pre-encryption" column.
    pub fn pre_encryption(&self) -> Nanos {
        self.phase(PhaseKind::PreEncryption)
    }

    /// The Fig. 10 "Firmware/Boot Verification" column: OVMF phases plus
    /// boot verification.
    pub fn firmware_total(&self) -> Nanos {
        self.phase(PhaseKind::OvmfSec)
            + self.phase(PhaseKind::OvmfPei)
            + self.phase(PhaseKind::OvmfDxe)
            + self.phase(PhaseKind::OvmfBds)
            + self.phase(PhaseKind::BootVerification)
    }

    /// Renders a human-readable breakdown.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} / {} / {}\n",
            self.config.policy,
            self.config.kernel.name,
            self.config.generation.name()
        );
        out.push_str(&self.timeline.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BootPolicy;
    use sevf_sim::rng::Jitter;
    use sevf_sim::{Step, Work};

    #[test]
    fn report_phase_accessors() {
        let mut tl = Timeline::new();
        let step = |phase, ms| Step {
            phase,
            label: phase.label().into(),
            work: Work::KernelPhase(ms * 1000),
            duration: Nanos::from_millis(ms),
        };
        tl.place(
            [
                step(PhaseKind::VmmSetup, 5),
                step(PhaseKind::PreEncryption, 8),
                step(PhaseKind::BootVerification, 20),
                step(PhaseKind::LinuxBoot, 70),
                step(PhaseKind::Attestation, 200),
            ],
            &mut Jitter::disabled(),
        );
        let report = BootReport {
            config: VmConfig::test_tiny(BootPolicy::Severifast),
            timeline: tl,
            outcome: BootOutcome::Running,
            measurement: Some([0u8; 48]),
            provisioned_secret: None,
            psp_busy: Nanos::from_millis(9),
        };
        assert_eq!(report.boot_time(), Nanos::from_millis(103));
        assert_eq!(report.total_time(), Nanos::from_millis(303));
        assert_eq!(report.pre_encryption(), Nanos::from_millis(8));
        assert_eq!(report.firmware_total(), Nanos::from_millis(20));
        assert!(report.render().contains("SEVeriFast"));
    }
}
