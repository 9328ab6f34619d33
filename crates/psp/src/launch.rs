//! The PSP command interface and launch state machine.

use std::collections::HashMap;

use sevf_crypto::sha256;
use sevf_mem::GuestMemory;
use sevf_sim::cost::{SevGeneration, Work};
use sevf_sim::{CostModel, Nanos, PhaseKind, Step};

use crate::error::PspError;
use crate::measurement::MeasurementChain;
use crate::report::{AttestationReport, ChipIdentity, GuestPolicy};

/// Opaque handle to a guest launch context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GuestHandle(u64);

/// One PSP command's work and what it cost. All PSP work serializes on the
/// single PSP core — callers must schedule these durations on the PSP
/// resource in concurrency experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PspWork {
    /// What the command did.
    pub work: Work,
    /// Time the PSP core is busy executing the command.
    pub duration: Nanos,
}

impl PspWork {
    /// This command as a step of `phase` on the caller's timeline.
    pub fn step(self, phase: PhaseKind, label: impl Into<String>) -> Step {
        Step {
            phase,
            label: label.into(),
            work: self.work,
            duration: self.duration,
        }
    }
}

/// Result of `LAUNCH_START`.
#[derive(Debug)]
pub struct LaunchOutcome {
    /// Handle for subsequent launch commands.
    pub guest: GuestHandle,
    /// The guest's new memory-encryption key. On hardware this never leaves
    /// the PSP; here it is handed to the [`GuestMemory`] model, which plays
    /// the part of the memory controller.
    pub memory_key: [u8; 16],
    /// PSP time consumed.
    pub work: PspWork,
}

/// Result of `LAUNCH_FINISH`.
#[derive(Debug, Clone)]
pub struct FinishOutcome {
    /// The frozen launch measurement.
    pub measurement: [u8; 48],
    /// PSP time consumed.
    pub work: PspWork,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaunchState {
    Updating,
    Finished,
}

impl LaunchState {
    fn name(self) -> &'static str {
        match self {
            LaunchState::Updating => "updating",
            LaunchState::Finished => "finished",
        }
    }
}

#[derive(Debug)]
struct GuestContext {
    policy: GuestPolicy,
    state: LaunchState,
    chain: MeasurementChain,
    measurement: Option<[u8; 48]>,
    memory_key: [u8; 16],
}

/// The Platform Security Processor.
///
/// One `Psp` per physical machine: a single instance is shared by all
/// concurrently launching guests, and its single core is the contended
/// resource of Fig. 12.
#[derive(Debug)]
pub struct Psp {
    cost: CostModel,
    chip: ChipIdentity,
    guests: HashMap<u64, GuestContext>,
    next_handle: u64,
    key_counter: u64,
    firmware_epoch: u64,
    /// Total PSP-busy time issued so far (observability for experiments).
    pub total_busy: Nanos,
}

impl Psp {
    /// Creates a PSP with the given cost model and machine seed.
    pub fn new(cost: CostModel, machine_seed: u64) -> Self {
        Psp {
            cost,
            chip: ChipIdentity::from_seed(&machine_seed.to_le_bytes()),
            guests: HashMap::new(),
            next_handle: 1,
            key_counter: 0,
            firmware_epoch: 0,
            total_busy: Nanos::ZERO,
        }
    }

    /// The chip identity (register it with an `AmdRootRegistry` so guest
    /// owners can verify this machine's reports).
    pub fn chip(&self) -> &ChipIdentity {
        &self.chip
    }

    /// How many firmware resets this PSP has been through. Guest handles
    /// issued in an earlier epoch are dead.
    pub fn firmware_epoch(&self) -> u64 {
        self.firmware_epoch
    }

    /// Firmware reset: the PSP reboots and loses **all** volatile state —
    /// every guest launch context (in-flight or finalized) is destroyed, so
    /// old handles now fail with [`PspError::UnknownGuest`] and shared-key
    /// template launches must re-measure from scratch (the §6.2 caveat
    /// exercised under failure). Chip identity and endorsement keys live in
    /// fuses and survive. The returned work models `SEV_PLATFORM_INIT` after
    /// the reboot.
    pub fn firmware_reset(&mut self) -> PspWork {
        self.guests.clear();
        self.firmware_epoch += 1;
        self.charge(Work::FirmwareReset)
    }

    /// Prices one mailbox command's work and books it on the PSP core.
    fn charge(&mut self, work: Work) -> PspWork {
        let duration = self.cost.price(&work);
        self.total_busy += duration;
        PspWork { work, duration }
    }

    fn context(&mut self, guest: GuestHandle) -> Result<&mut GuestContext, PspError> {
        self.guests
            .get_mut(&guest.0)
            .ok_or(PspError::UnknownGuest { guest: guest.0 })
    }

    /// `LAUNCH_START`: allocates a guest context and memory-encryption key.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid generations; returns `Result` for
    /// forward compatibility with policy validation.
    pub fn launch_start(&mut self, generation: SevGeneration) -> Result<LaunchOutcome, PspError> {
        self.key_counter += 1;
        let mut seed = b"sevf-vek".to_vec();
        seed.extend_from_slice(&self.chip.chip_id);
        seed.extend_from_slice(&self.key_counter.to_le_bytes());
        let digest = sha256(&seed);
        let mut memory_key = [0u8; 16];
        memory_key.copy_from_slice(&digest[..16]);

        let handle = self.next_handle;
        self.next_handle += 1;
        self.guests.insert(
            handle,
            GuestContext {
                policy: GuestPolicy::for_generation(generation),
                state: LaunchState::Updating,
                chain: MeasurementChain::new(),
                measurement: None,
                memory_key,
            },
        );
        Ok(LaunchOutcome {
            guest: GuestHandle(handle),
            memory_key,
            work: self.charge(Work::LaunchStart),
        })
    }

    /// Shared-key template launch — the PSP-bottleneck mitigation the paper
    /// sketches as future work (§6.2: "allowing multiple VMs to share
    /// encryption keys", cf. the shadow-enclave discussion in §8). The new
    /// guest reuses a *finalized* template's memory-encryption key and
    /// launch measurement, skipping key generation, every
    /// `LAUNCH_UPDATE_DATA`, and `LAUNCH_FINISH`.
    ///
    /// Trust-model caveat (the paper's, §8): all guests sharing a key must
    /// belong to the same owner — identical plaintext at identical guest
    /// addresses now has identical ciphertext across those VMs.
    ///
    /// # Errors
    ///
    /// [`PspError::NotLaunched`] if the template has not executed
    /// `LAUNCH_FINISH`, [`PspError::UnknownGuest`] for a bad handle.
    pub fn launch_start_shared(
        &mut self,
        template: GuestHandle,
    ) -> Result<LaunchOutcome, PspError> {
        let ctx = self.context(template)?;
        let (Some(measurement), key) = (ctx.measurement, ctx.memory_key) else {
            return Err(PspError::NotLaunched);
        };
        let policy = ctx.policy;
        let handle = self.next_handle;
        self.next_handle += 1;
        self.guests.insert(
            handle,
            GuestContext {
                policy,
                state: LaunchState::Finished,
                chain: MeasurementChain::new(),
                measurement: Some(measurement),
                memory_key: key,
            },
        );
        // One mailbox round plus a context copy — no key derivation, no
        // page measurement.
        Ok(LaunchOutcome {
            guest: GuestHandle(handle),
            memory_key: key,
            work: self.charge(Work::LaunchStartShared),
        })
    }

    /// `LAUNCH_UPDATE_DATA`: measures and encrypts `[addr, addr+len)` of
    /// guest memory (page granularity; a partial final page is zero-padded
    /// into the measurement, as [`crate::measurement::measure_region`]).
    ///
    /// # Errors
    ///
    /// * [`PspError::InvalidState`] after `LAUNCH_FINISH`.
    /// * [`PspError::Memory`] for bad ranges.
    pub fn launch_update_data(
        &mut self,
        guest: GuestHandle,
        mem: &mut GuestMemory,
        addr: u64,
        len: u64,
    ) -> Result<PspWork, PspError> {
        let ctx = self.context(guest)?;
        if ctx.state != LaunchState::Updating {
            return Err(PspError::InvalidState {
                command: "LAUNCH_UPDATE_DATA",
                state: ctx.state.name(),
            });
        }
        let plaintext = mem.pre_encrypt(addr, len)?;
        for (i, page) in plaintext.chunks(4096).enumerate() {
            ctx.chain.add_page(addr + i as u64 * 4096, page);
        }
        let bytes = plaintext.len() as u64;
        Ok(self.charge(Work::LaunchUpdateData(bytes)))
    }

    /// `LAUNCH_UPDATE_VMSA`: encrypts and measures the initial register
    /// state of `vcpus` virtual CPUs (SEV-ES and SEV-SNP only, §2.2).
    ///
    /// # Errors
    ///
    /// * [`PspError::VmsaNotSupported`] for plain-SEV guests.
    /// * [`PspError::InvalidState`] after `LAUNCH_FINISH`.
    pub fn launch_update_vmsa(
        &mut self,
        guest: GuestHandle,
        vcpus: u64,
        initial_state: &[u8; 4096],
    ) -> Result<PspWork, PspError> {
        let ctx = self.context(guest)?;
        if ctx.state != LaunchState::Updating {
            return Err(PspError::InvalidState {
                command: "LAUNCH_UPDATE_VMSA",
                state: ctx.state.name(),
            });
        }
        if !ctx.policy.generation.encrypts_vmsa() {
            return Err(PspError::VmsaNotSupported);
        }
        for vcpu in 0..vcpus {
            ctx.chain.add_vmsa(vcpu, initial_state);
        }
        Ok(self.charge(Work::LaunchUpdateVmsa(vcpus)))
    }

    /// SNP RMP initialization for the guest's memory: PSP-mediated
    /// page-state setup proportional to guest memory size. This is the
    /// dominant serialized cost behind the Fig. 12 slope.
    ///
    /// # Errors
    ///
    /// [`PspError::UnknownGuest`] for a bad handle.
    pub fn rmp_init(&mut self, guest: GuestHandle, mem: &GuestMemory) -> Result<PspWork, PspError> {
        let ctx = self.context(guest)?;
        let bytes = if ctx.policy.generation.has_rmp() {
            mem.size()
        } else {
            0
        };
        Ok(self.charge(Work::RmpInit(bytes)))
    }

    /// `LAUNCH_FINISH`: freezes the measurement; later update commands fail.
    ///
    /// # Errors
    ///
    /// [`PspError::InvalidState`] if already finished.
    pub fn launch_finish(&mut self, guest: GuestHandle) -> Result<FinishOutcome, PspError> {
        let ctx = self.context(guest)?;
        if ctx.state != LaunchState::Updating {
            return Err(PspError::InvalidState {
                command: "LAUNCH_FINISH",
                state: ctx.state.name(),
            });
        }
        ctx.state = LaunchState::Finished;
        let measurement = ctx.chain.finalize();
        ctx.measurement = Some(measurement);
        Ok(FinishOutcome {
            measurement,
            work: self.charge(Work::LaunchFinish),
        })
    }

    /// `SNP_GUEST_REQUEST`: produces a signed attestation report carrying
    /// the launch measurement and 64 bytes of guest-chosen `report_data`
    /// (§2.4 step 5/6 — the PSP writes it straight into encrypted guest
    /// memory; our caller does that placement).
    ///
    /// # Errors
    ///
    /// [`PspError::NotLaunched`] before `LAUNCH_FINISH`.
    pub fn guest_report(
        &mut self,
        guest: GuestHandle,
        report_data: [u8; 64],
    ) -> Result<(AttestationReport, PspWork), PspError> {
        let chip_id = self.chip.chip_id;
        let ctx = self.context(guest)?;
        let Some(measurement) = ctx.measurement else {
            return Err(PspError::NotLaunched);
        };
        let mut report = AttestationReport {
            version: 2,
            policy: ctx.policy,
            measurement,
            report_data,
            chip_id,
            signature: [0u8; 48],
        };
        report.signature = self.chip.sign(&report.body_bytes());
        Ok((report, self.charge(Work::GuestRequest)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::AmdRootRegistry;

    fn setup() -> (Psp, GuestHandle, GuestMemory) {
        let mut psp = Psp::new(CostModel::calibrated(), 7);
        let start = psp.launch_start(SevGeneration::SevSnp).unwrap();
        let mem = GuestMemory::new_sev(1 << 22, start.memory_key, SevGeneration::SevSnp);
        (psp, start.guest, mem)
    }

    #[test]
    fn full_launch_flow() {
        let (mut psp, guest, mut mem) = setup();
        mem.host_write(0, b"boot verifier code").unwrap();
        psp.launch_update_data(guest, &mut mem, 0, 4096).unwrap();
        psp.launch_update_vmsa(guest, 1, &[0u8; 4096]).unwrap();
        let finish = psp.launch_finish(guest).unwrap();
        assert_ne!(finish.measurement, [0u8; 48]);
        let (report, _) = psp.guest_report(guest, [1u8; 64]).unwrap();
        assert_eq!(report.measurement, finish.measurement);
    }

    #[test]
    fn update_after_finish_rejected() {
        let (mut psp, guest, mut mem) = setup();
        psp.launch_finish(guest).unwrap();
        assert!(matches!(
            psp.launch_update_data(guest, &mut mem, 0, 4096),
            Err(PspError::InvalidState { .. })
        ));
        assert!(matches!(
            psp.launch_finish(guest),
            Err(PspError::InvalidState { .. })
        ));
    }

    #[test]
    fn report_before_finish_rejected() {
        let (mut psp, guest, _mem) = setup();
        assert!(matches!(
            psp.guest_report(guest, [0u8; 64]),
            Err(PspError::NotLaunched)
        ));
    }

    #[test]
    fn measurement_reflects_content() {
        let (mut psp, guest, mut mem) = setup();
        mem.host_write(0, b"GOOD").unwrap();
        psp.launch_update_data(guest, &mut mem, 0, 4096).unwrap();
        let a = psp.launch_finish(guest).unwrap().measurement;

        let (mut psp2, guest2, mut mem2) = {
            let mut p = Psp::new(CostModel::calibrated(), 7);
            let s = p.launch_start(SevGeneration::SevSnp).unwrap();
            let m = GuestMemory::new_sev(1 << 22, s.memory_key, SevGeneration::SevSnp);
            (p, s.guest, m)
        };
        mem2.host_write(0, b"EVIL").unwrap();
        psp2.launch_update_data(guest2, &mut mem2, 0, 4096).unwrap();
        let b = psp2.launch_finish(guest2).unwrap().measurement;
        assert_ne!(a, b);
    }

    #[test]
    fn reports_verify_through_registry() {
        let (mut psp, guest, _mem) = setup();
        psp.launch_finish(guest).unwrap();
        let (report, _) = psp.guest_report(guest, [9u8; 64]).unwrap();
        let mut registry = AmdRootRegistry::new();
        registry.register(psp.chip().clone());
        assert!(registry.verify(&report));
    }

    #[test]
    fn vmsa_requires_es_or_snp() {
        let mut psp = Psp::new(CostModel::calibrated(), 7);
        let start = psp.launch_start(SevGeneration::Sev).unwrap();
        assert!(matches!(
            psp.launch_update_vmsa(start.guest, 1, &[0u8; 4096]),
            Err(PspError::VmsaNotSupported)
        ));
    }

    #[test]
    fn keys_are_unique_per_guest() {
        let mut psp = Psp::new(CostModel::calibrated(), 7);
        let a = psp.launch_start(SevGeneration::SevSnp).unwrap();
        let b = psp.launch_start(SevGeneration::SevSnp).unwrap();
        assert_ne!(a.memory_key, b.memory_key);
        assert_ne!(a.guest, b.guest);
    }

    #[test]
    fn costs_accumulate_and_scale_with_bytes() {
        let (mut psp, guest, mut mem) = setup();
        let small = psp
            .launch_update_data(guest, &mut mem, 0, 4096)
            .unwrap()
            .duration;
        let large = psp
            .launch_update_data(guest, &mut mem, 0x10000, 64 * 4096)
            .unwrap()
            .duration;
        assert!(large > small.scale(32));
        assert!(psp.total_busy >= small + large);
    }

    #[test]
    fn rmp_init_only_charged_for_snp() {
        let (mut psp, guest, mem) = setup();
        assert!(psp.rmp_init(guest, &mem).unwrap().duration > Nanos::ZERO);
        let start = psp.launch_start(SevGeneration::Sev).unwrap();
        let mem2 = GuestMemory::new_sev(1 << 22, start.memory_key, SevGeneration::Sev);
        assert_eq!(
            psp.rmp_init(start.guest, &mem2).unwrap().duration,
            Nanos::ZERO
        );
    }

    #[test]
    fn firmware_reset_drops_contexts_and_bumps_epoch() {
        let (mut psp, guest, mut mem) = setup();
        psp.launch_finish(guest).unwrap();
        assert_eq!(psp.firmware_epoch(), 0);

        let work = psp.firmware_reset();
        assert!(work.duration > Nanos::ZERO);
        assert_eq!(psp.firmware_epoch(), 1);

        // The finalized context is gone: reports and template launches from
        // the stale handle fail with UnknownGuest.
        assert!(matches!(
            psp.guest_report(guest, [0u8; 64]),
            Err(PspError::UnknownGuest { .. })
        ));
        assert!(matches!(
            psp.launch_start_shared(guest),
            Err(PspError::UnknownGuest { .. })
        ));
        assert!(matches!(
            psp.launch_update_data(guest, &mut mem, 0, 4096),
            Err(PspError::UnknownGuest { .. })
        ));

        // The PSP still works after re-init: a fresh launch succeeds.
        let start = psp.launch_start(SevGeneration::SevSnp).unwrap();
        psp.launch_finish(start.guest).unwrap();
    }

    #[test]
    fn chip_identity_survives_firmware_reset() {
        let (mut psp, guest, _mem) = setup();
        psp.launch_finish(guest).unwrap();
        let chip_before = psp.chip().clone();
        psp.firmware_reset();

        let start = psp.launch_start(SevGeneration::SevSnp).unwrap();
        psp.launch_finish(start.guest).unwrap();
        let (report, _) = psp.guest_report(start.guest, [3u8; 64]).unwrap();
        let mut registry = AmdRootRegistry::new();
        registry.register(chip_before);
        assert!(registry.verify(&report), "fused identity must persist");
    }

    #[test]
    fn every_command_books_its_work_on_total_busy() {
        let (mut psp, guest, mut mem) = setup();
        let started = psp.total_busy;
        assert!(started > Nanos::ZERO, "LAUNCH_START is charged");
        mem.host_write(0, b"payload").unwrap();
        let mut works = vec![
            psp.launch_update_data(guest, &mut mem, 0, 4096).unwrap(),
            psp.launch_update_vmsa(guest, 2, &[0u8; 4096]).unwrap(),
            psp.rmp_init(guest, &mem).unwrap(),
            psp.launch_finish(guest).unwrap().work,
            psp.guest_report(guest, [4u8; 64]).unwrap().1,
        ];
        assert_eq!(psp.firmware_epoch(), 0);
        works.push(psp.firmware_reset());
        // The reset's PLATFORM_INIT is charged in the epoch it creates.
        assert_eq!(psp.firmware_epoch(), 1);

        let kinds: Vec<Work> = works.iter().map(|w| w.work.clone()).collect();
        assert!(matches!(
            kinds[..],
            [
                Work::LaunchUpdateData(4096),
                Work::LaunchUpdateVmsa(2),
                Work::RmpInit(_),
                Work::LaunchFinish,
                Work::GuestRequest,
                Work::FirmwareReset,
            ]
        ));
        let sum: Nanos = works.iter().map(|w| w.duration).sum();
        assert_eq!(started + sum, psp.total_busy, "total_busy is every charge");
    }

    #[test]
    fn unknown_guest_rejected() {
        let mut psp = Psp::new(CostModel::calibrated(), 7);
        assert!(matches!(
            psp.launch_finish(GuestHandle(99)),
            Err(PspError::UnknownGuest { .. })
        ));
    }
}
