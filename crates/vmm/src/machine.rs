//! The host machine shared by all VMs.
//!
//! One [`Machine`] models one physical server (the paper's EPYC 7313P box):
//! a single PSP that every SEV launch serializes on, a host CPU pool, the
//! cost model, and the guest owner's attestation service. Fig. 12's
//! bottleneck exists precisely because this state is shared.

use std::collections::HashMap;

use sevf_psp::{AmdRootRegistry, GuestHandle, Psp};
use sevf_sim::rng::XorShift64;
use sevf_sim::CostModel;

use sevf_attest::GuestOwner;

/// Number of physical cores on the evaluation machine (EPYC 7313P, §6.1).
pub const HOST_CORES: usize = 32;

/// A host machine: shared PSP, cost model, and attestation service.
#[derive(Debug)]
pub struct Machine {
    /// The platform security processor (single core; §6.2).
    pub psp: Psp,
    /// The calibrated cost model in force.
    pub cost: CostModel,
    /// The guest owner validating this machine's attestation reports.
    pub owner: GuestOwner,
    /// Finalized launch contexts reusable as shared-key templates, keyed by
    /// launch measurement (the future-work path of
    /// [`crate::config::LaunchMode::SharedKeyTemplate`]).
    pub templates: HashMap<[u8; 48], GuestHandle>,
    /// Host entropy source (KASLR draws, etc.), seeded for reproducibility.
    pub rng: XorShift64,
}

impl Machine {
    /// Creates a machine with the calibrated cost model and a guest owner
    /// that trusts this machine's chip.
    pub fn new(machine_seed: u64) -> Self {
        Self::with_cost_model(machine_seed, CostModel::calibrated())
    }

    /// Creates a machine with a custom cost model (ablation experiments).
    pub fn with_cost_model(machine_seed: u64, cost: CostModel) -> Self {
        let psp = Psp::new(cost.clone(), machine_seed);
        let mut registry = AmdRootRegistry::new();
        registry.register(psp.chip().clone());
        let owner = GuestOwner::new(
            registry,
            b"tenant disk encryption key".to_vec(),
            &machine_seed.to_le_bytes(),
        );
        Machine {
            psp,
            cost,
            owner,
            templates: HashMap::new(),
            rng: XorShift64::new(machine_seed ^ 0x4b41_534c_5221),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_owner_trusts_its_chip() {
        let machine = Machine::new(1);
        // A report signed by this machine's PSP should pass signature
        // verification (measurement checks are separate).
        use sevf_sim::cost::SevGeneration;
        let mut machine = machine;
        let start = machine.psp.launch_start(SevGeneration::SevSnp).unwrap();
        machine.psp.launch_finish(start.guest).unwrap();
        let (report, _) = machine.psp.guest_report(start.guest, [0u8; 64]).unwrap();
        machine.owner.expect_measurement(report.measurement);
        assert!(machine.owner.handle_report(&report).is_ok());
    }

    #[test]
    fn distinct_machines_have_distinct_chips() {
        let a = Machine::new(1);
        let b = Machine::new(2);
        assert_ne!(a.psp.chip().chip_id, b.psp.chip().chip_id);
    }

    #[test]
    fn reset_invalidates_templates_and_refill_reproduces_digest() {
        use crate::config::{BootPolicy, LaunchMode, VmConfig};
        use crate::vmm::MicroVm;

        let mut m = Machine::new(7);
        let mut config = VmConfig::test_tiny(BootPolicy::Severifast);
        config.launch_mode = LaunchMode::SharedKeyTemplate;
        let vm = MicroVm::new(config).unwrap();
        vm.register_expected(&mut m).unwrap();

        // Fill the template, then take the cheap shared-key path once.
        let fill = vm.boot(&mut m).unwrap();
        let hit = vm.boot(&mut m).unwrap();
        assert!(hit.psp_busy < fill.psp_busy);

        // Firmware reset: the cached template handle dies with the PSP
        // state, so the machine forgets it too.
        let epoch = m.psp.firmware_epoch();
        m.psp.firmware_reset();
        m.templates.clear();
        assert_eq!(m.psp.firmware_epoch(), epoch + 1);

        // The next boot re-measures from scratch: full fill-grade PSP work
        // again, and the launch digest is bit-identical to the pre-reset one
        // (§6.2: the measurement depends only on content, not on which
        // firmware epoch measured it).
        let refill = vm.boot(&mut m).unwrap();
        assert_eq!(refill.measurement, fill.measurement);
        assert!(
            refill.psp_busy > hit.psp_busy.scale(5),
            "refill {} should pay fill-grade PSP work, not hit-grade {}",
            refill.psp_busy,
            hit.psp_busy
        );
        assert_eq!(m.templates.len(), 1);
    }
}
