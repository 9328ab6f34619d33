//! The timing instrumentation devices of §6.1.
//!
//! The paper measures boot phases by attaching a **debug-port device**
//! (inspired by Cloud Hypervisor's) that records timestamped guest writes
//! to I/O port 0x80 in the VMM log. Under SEV-ES/SNP an `outb` takes a #VC
//! that needs a handler the guest may not have installed yet, so early boot
//! stages instead write **magic values to the GHCB MSR**, which the VMM
//! always intercepts. This module models both channels; the boot path emits
//! its marks through a [`DebugChannels`] and the resulting log is exposed
//! on the final [`crate::report::BootReport`] timeline.

use sevf_sim::cost::{SevGeneration, Work};
use sevf_sim::rng::Jitter;
use sevf_sim::{CostModel, EventChannel, PhaseKind, Timeline};

/// The I/O port the debug device listens on.
pub const DEBUG_PORT: u16 = 0x80;

/// Magic values written to the GHCB MSR to denote boot milestones (the
/// paper's workaround for pre-#VC-handler instrumentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GhcbMagic {
    /// Boot verifier entry.
    VerifierEntry = 0x53_45_56_01,
    /// Boot verification complete.
    VerificationDone = 0x53_45_56_02,
    /// Bootstrap loader handed off to the kernel.
    LoaderDone = 0x53_45_56_03,
}

impl GhcbMagic {
    /// The log tag for a magic value.
    pub fn tag(self) -> &'static str {
        match self {
            GhcbMagic::VerifierEntry => "verifier-entry",
            GhcbMagic::VerificationDone => "boot-verification-done",
            GhcbMagic::LoaderDone => "bootstrap-loader-done",
        }
    }
}

/// The guest-visible instrumentation surface: which channel a mark takes
/// and what the exit costs, given the SEV generation and whether a #VC
/// handler is installed yet.
#[derive(Debug, Clone)]
pub struct DebugChannels {
    generation: SevGeneration,
    vc_handler_installed: bool,
}

impl DebugChannels {
    /// Channels at guest entry: no #VC handler yet.
    pub fn at_guest_entry(generation: SevGeneration) -> Self {
        DebugChannels {
            generation,
            vc_handler_installed: false,
        }
    }

    /// The guest kernel installed its #VC handler; `outb` becomes usable.
    pub fn install_vc_handler(&mut self) {
        self.vc_handler_installed = true;
    }

    /// Whether a port 0x80 write is currently possible without crashing
    /// (under ES/SNP an `outb` needs the #VC handler; base SEV and non-SEV
    /// guests exit to the VMM directly).
    pub fn can_use_debug_port(&self) -> bool {
        !self.generation.encrypts_vmsa() || self.vc_handler_installed
    }

    /// Emits a mark through the best available channel, charging the exit
    /// cost, and returns the channel used.
    pub fn mark(
        &self,
        timeline: &mut Timeline,
        cost: &CostModel,
        tag: impl Into<String>,
    ) -> EventChannel {
        let channel = if self.can_use_debug_port() {
            EventChannel::DebugPort
        } else {
            EventChannel::GhcbMsr
        };
        // Either path is one world switch.
        let exit = if self.generation.is_sev() {
            Work::VcExits(1)
        } else {
            Work::PlainExit
        };
        timeline.place(
            [cost.step(PhaseKind::LinuxBoot, "instrumentation exit", exit)],
            &mut Jitter::disabled(),
        );
        timeline.mark(channel, tag);
        channel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snp_uses_ghcb_before_handler_and_port_after() {
        let mut ch = DebugChannels::at_guest_entry(SevGeneration::SevSnp);
        let mut tl = Timeline::new();
        let cost = CostModel::calibrated();
        assert_eq!(ch.mark(&mut tl, &cost, "early"), EventChannel::GhcbMsr);
        ch.install_vc_handler();
        assert_eq!(ch.mark(&mut tl, &cost, "late"), EventChannel::DebugPort);
        assert_eq!(tl.events().len(), 2);
    }

    #[test]
    fn base_sev_and_plain_guests_use_the_port_immediately() {
        for generation in [SevGeneration::None, SevGeneration::Sev] {
            let ch = DebugChannels::at_guest_entry(generation);
            assert!(ch.can_use_debug_port(), "{}", generation.name());
        }
        // ES encrypts register state: port needs the handler.
        assert!(!DebugChannels::at_guest_entry(SevGeneration::SevEs).can_use_debug_port());
    }

    #[test]
    fn marks_charge_exit_costs() {
        let ch = DebugChannels::at_guest_entry(SevGeneration::SevSnp);
        let mut tl = Timeline::new();
        let cost = CostModel::calibrated();
        ch.mark(&mut tl, &cost, "x");
        let vc_exit = cost.price(&Work::VcExits(1));
        assert_eq!(tl.total(), vc_exit);

        let plain = DebugChannels::at_guest_entry(SevGeneration::None);
        let mut tl2 = Timeline::new();
        plain.mark(&mut tl2, &cost, "x");
        assert!(tl2.total() < vc_exit);
    }

    #[test]
    fn magic_tags_are_distinct() {
        let tags = [
            GhcbMagic::VerifierEntry.tag(),
            GhcbMagic::VerificationDone.tag(),
            GhcbMagic::LoaderDone.tag(),
        ];
        let set: std::collections::HashSet<_> = tags.iter().collect();
        assert_eq!(set.len(), 3);
    }
}
