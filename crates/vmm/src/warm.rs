//! Warm start for SEV microVMs (§7.1 of the paper).
//!
//! The paper argues cold start must come first, because the obvious warm
//! paths all run into SEV's guarantees:
//!
//! * **Keep-alive** windows are functionally correct but hold the guest's
//!   whole working set, and unlike plain-text VMs the pages **cannot be
//!   deduplicated** — identical plaintext has different ciphertext across
//!   VMs (different VEKs, and an address tweak within a VM), and the host
//!   cannot even *read* plaintext to compare. [`dedupable_fraction`]
//!   measures this directly.
//! * **Snapshot restore** needs the host to place pages, but under SNP the
//!   host cannot write guest-owned pages; every lazy-load scheme needs
//!   guest cooperation. [`KeepAliveVm::restore`] models the functionally
//!   correct variant: restoring *into the same live PSP context* during a
//!   keep-alive window (same key), with the copy cost paid eagerly.
//!
//! [`KeepAliveVm`] holds a booted guest (memory + PSP context) so warm
//! invocations skip the entire boot path; the experiments quantify the
//! memory rent this charges.

use sevf_mem::{MemError, PAGE_SIZE};
use sevf_sim::{CostModel, Nanos, Work};

use crate::config::VmConfig;
use crate::vmm::LiveGuest;

/// A booted guest kept resident for warm invocations.
pub struct KeepAliveVm {
    config: VmConfig,
    live: LiveGuest,
    invocations: u64,
}

impl std::fmt::Debug for KeepAliveVm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeepAliveVm")
            .field("kernel", &self.config.kernel.name)
            .field("resident_bytes", &self.resident_bytes())
            .field("invocations", &self.invocations)
            .finish()
    }
}

/// Timing of one warm invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmInvocation {
    /// Virtual time from request to the function entry point — no VMM
    /// spawn, no launch, no verification, no kernel boot.
    pub latency: Nanos,
}

impl KeepAliveVm {
    pub(crate) fn new(config: VmConfig, live: LiveGuest) -> Self {
        KeepAliveVm {
            config,
            live,
            invocations: 0,
        }
    }

    /// The VM's configuration.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// Host memory this keep-alive holds (its resident guest pages) — the
    /// rent §7.1 warns about.
    pub fn resident_bytes(&self) -> u64 {
        self.live.mem.resident_pages() as u64 * PAGE_SIZE
    }

    /// Dispatches a warm invocation into the running guest: wake the vCPU,
    /// deliver the request, enter the function. No boot path is executed.
    pub fn invoke(&mut self, cost: &CostModel) -> WarmInvocation {
        self.invocations += 1;
        WarmInvocation {
            latency: cost.price(&Work::WarmInvoke),
        }
    }

    /// The running kernel's entry point (differs across boots under KASLR).
    pub fn kernel_entry(&self) -> u64 {
        self.live.kernel_entry
    }

    /// Hashes of every *host-visible* resident page, for dedup analysis:
    /// this is what a KSM-style scanner could see (ciphertext for private
    /// pages, plaintext for shared ones).
    pub fn host_page_digests(&self) -> Result<Vec<[u8; 32]>, MemError> {
        self.live.mem.host_page_digests()
    }

    /// Takes a snapshot of the live guest (memory image + entry point).
    pub fn snapshot(&self) -> VmSnapshot {
        VmSnapshot {
            config: self.config.clone(),
            mem_image: self.live.mem.clone_pages(),
            kernel_entry: self.live.kernel_entry,
        }
    }

    /// Restores a snapshot *into this keep-alive's PSP context* (same
    /// memory-encryption key — the only restore SEV permits without guest
    /// cooperation, §7.1). Returns the virtual-time cost of the eager copy.
    ///
    /// # Errors
    ///
    /// [`MemError::ForeignImage`] for a snapshot taken under another
    /// configuration or launch context; nothing is restored.
    pub fn restore(&mut self, snapshot: &VmSnapshot, cost: &CostModel) -> Result<Nanos, MemError> {
        if snapshot.config != self.config {
            return Err(MemError::ForeignImage);
        }
        let bytes = self.live.mem.restore_pages(&snapshot.mem_image)?;
        self.live.kernel_entry = snapshot.kernel_entry;
        Ok(cost.price(&Work::CopyEncrypted(bytes)))
    }
}

/// A captured guest memory image.
#[derive(Debug, Clone)]
pub struct VmSnapshot {
    config: VmConfig,
    mem_image: sevf_mem::MemoryImage,
    kernel_entry: u64,
}

/// Fraction of host-visible page content shared by at least two of the
/// given VMs — what a KSM-style deduplicator could reclaim. Under SEV this
/// collapses to (nearly) the plain-text staging pages only.
///
/// # Errors
///
/// Propagates memory faults.
///
/// # Panics
///
/// Panics if `vms` is empty.
pub fn dedupable_fraction(vms: &[&KeepAliveVm]) -> Result<f64, MemError> {
    assert!(!vms.is_empty());
    let mut counts: std::collections::HashMap<[u8; 32], u64> = std::collections::HashMap::new();
    let mut total = 0u64;
    for vm in vms {
        for digest in vm.host_page_digests()? {
            *counts.entry(digest).or_insert(0) += 1;
            total += 1;
        }
    }
    if total == 0 {
        return Ok(0.0);
    }
    // A page is "dedupable" if its content appears more than once: all but
    // one copy could be reclaimed.
    let reclaimable: u64 = counts.values().map(|&c| c.saturating_sub(1)).sum();
    Ok(reclaimable as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BootPolicy;
    use crate::machine::Machine;
    use crate::vmm::MicroVm;

    fn keep_alive(policy: BootPolicy, machine: &mut Machine) -> KeepAliveVm {
        let vm = MicroVm::new(VmConfig::test_tiny(policy)).unwrap();
        if policy.is_sev() {
            vm.register_expected(machine).unwrap();
        }
        vm.boot_keep_alive(machine).unwrap().1
    }

    #[test]
    fn warm_invocation_is_orders_of_magnitude_faster_than_cold() {
        let mut m = Machine::new(71);
        let vm = MicroVm::new(VmConfig::test_tiny(BootPolicy::Severifast)).unwrap();
        vm.register_expected(&mut m).unwrap();
        let (cold, mut warm_vm) = vm.boot_keep_alive(&mut m).unwrap();
        let warm = warm_vm.invoke(&m.cost);
        assert!(cold.boot_time() > warm.latency.scale(100));
        assert_eq!(warm_vm.invocations, 1);
    }

    #[test]
    fn keep_alive_charges_memory_rent() {
        let mut m = Machine::new(71);
        let vm = keep_alive(BootPolicy::Severifast, &mut m);
        // The resident set covers at least the kernel + initrd copies.
        assert!(vm.resident_bytes() > 1024 * 1024, "{}", vm.resident_bytes());
    }

    #[test]
    fn sev_keep_alives_barely_dedup_plain_ones_dedup_well() {
        let mut m = Machine::new(71);
        let sev_a = keep_alive(BootPolicy::Severifast, &mut m);
        let sev_b = keep_alive(BootPolicy::Severifast, &mut m);
        let sev_fraction = dedupable_fraction(&[&sev_a, &sev_b]).unwrap();

        let plain_a = keep_alive(BootPolicy::StockFirecracker, &mut m);
        let plain_b = keep_alive(BootPolicy::StockFirecracker, &mut m);
        let plain_fraction = dedupable_fraction(&[&plain_a, &plain_b]).unwrap();

        // §7.1: identical plain-text VMs dedup nearly half their pages
        // (two identical copies), SEV VMs only their shared staging pages.
        assert!(plain_fraction > 0.4, "plain {plain_fraction}");
        assert!(
            sev_fraction < plain_fraction / 2.0,
            "sev {sev_fraction} vs plain {plain_fraction}"
        );
    }

    #[test]
    fn snapshot_restore_roundtrips_into_same_context() {
        let mut m = Machine::new(71);
        let mut vm = keep_alive(BootPolicy::Severifast, &mut m);
        let snapshot = vm.snapshot();
        assert!(snapshot.mem_image.byte_len() > 0);
        // Mutate the live guest, then restore.
        let before = vm.host_page_digests().unwrap();
        vm.invoke(&m.cost);
        let cost = vm.restore(&snapshot, &m.cost).unwrap();
        assert!(cost > Nanos::ZERO);
        assert_eq!(vm.host_page_digests().unwrap(), before);
    }

    #[test]
    fn snapshot_rejects_foreign_configuration() {
        let mut m = Machine::new(71);
        let sev = keep_alive(BootPolicy::Severifast, &mut m);
        let mut plain = keep_alive(BootPolicy::StockFirecracker, &mut m);
        let before = plain.host_page_digests().unwrap();
        let snapshot = sev.snapshot();
        assert_eq!(
            plain.restore(&snapshot, &m.cost),
            Err(MemError::ForeignImage)
        );
        assert_eq!(plain.host_page_digests().unwrap(), before);
        // Same configuration, another guest: another memory-encryption key.
        let mut other = keep_alive(BootPolicy::Severifast, &mut m);
        assert_eq!(
            other.restore(&snapshot, &m.cost),
            Err(MemError::ForeignImage)
        );
    }
}
