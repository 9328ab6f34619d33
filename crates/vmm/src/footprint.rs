//! Memory-footprint accounting (§6.3).
//!
//! The paper measures, with `pmap`, that SEV support adds about 50 KB to
//! the Firecracker binary (total ≈ 4.2 MB) and about 16 KB of runtime
//! overhead per guest — so SEV density on a host is essentially unchanged.

use crate::config::{BootPolicy, VmConfig};

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// Stock Firecracker binary size.
const FC_BINARY_BASE: u64 = 4 * MB + 150 * KB;
/// Binary growth from the SEV support module (§6.3: "about 50K").
const SEV_BINARY_DELTA: u64 = 50 * KB;
/// Runtime (pmap minus binary minus guest memory) overhead of a stock VM —
/// Firecracker's ~3 MB working overhead.
const VMM_RUNTIME_OVERHEAD: u64 = 3 * MB;
/// Extra runtime overhead of an SEV guest (§6.3: "about 16K").
const SEV_RUNTIME_DELTA: u64 = 16 * KB;
/// QEMU's footprint, for contrast (two orders of magnitude heavier).
const QEMU_BINARY: u64 = 38 * MB;
/// QEMU per-VM runtime overhead.
const QEMU_RUNTIME_OVERHEAD: u64 = 90 * MB;

/// The pmap-style decomposition of one running VM's host memory use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Monitor binary (shared across VMs, counted once per VM as pmap does).
    pub binary: u64,
    /// Runtime overhead excluding binary and guest memory.
    pub runtime_overhead: u64,
    /// Guest memory size.
    pub guest_memory: u64,
}

impl MemoryFootprint {
    /// Footprint of a VM under the given configuration.
    pub fn of(config: &VmConfig) -> Self {
        let (binary, runtime_overhead) = match config.policy {
            BootPolicy::StockFirecracker => {
                (FC_BINARY_BASE + SEV_BINARY_DELTA, VMM_RUNTIME_OVERHEAD)
            }
            BootPolicy::Severifast | BootPolicy::SeverifastVmlinux => (
                // Same binary as stock (§6.1: one binary serves both paths),
                // plus the per-guest SEV overhead at runtime.
                FC_BINARY_BASE + SEV_BINARY_DELTA,
                VMM_RUNTIME_OVERHEAD + SEV_RUNTIME_DELTA,
            ),
            BootPolicy::QemuOvmf => (QEMU_BINARY, QEMU_RUNTIME_OVERHEAD + SEV_RUNTIME_DELTA),
        };
        MemoryFootprint {
            binary,
            runtime_overhead,
            guest_memory: config.mem_size,
        }
    }

    /// Total host bytes attributable to the VM.
    pub fn total(&self) -> u64 {
        self.binary + self.runtime_overhead + self.guest_memory
    }

    /// The §6.3 metric: pmap total minus binary minus guest memory.
    pub fn overhead(&self) -> u64 {
        self.runtime_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sev_adds_16k_runtime_overhead() {
        let stock = MemoryFootprint::of(&VmConfig::test_tiny(BootPolicy::StockFirecracker));
        let sevf = MemoryFootprint::of(&VmConfig::test_tiny(BootPolicy::Severifast));
        assert_eq!(sevf.overhead() - stock.overhead(), SEV_RUNTIME_DELTA);
        assert_eq!(sevf.binary, stock.binary, "one binary serves both paths");
    }

    #[test]
    fn binary_is_about_4_2_mb() {
        let fp = MemoryFootprint::of(&VmConfig::test_tiny(BootPolicy::Severifast));
        let mb = fp.binary as f64 / MB as f64;
        assert!((4.1..4.3).contains(&mb), "binary {mb} MB");
    }

    #[test]
    fn density_nearly_unchanged_by_sev() {
        // §6.3: "the number of guests that can run concurrently with our
        // design is roughly the same as the number of stock Firecracker VMs".
        // How many VMs fit in the paper machine's 128 GB, the binary
        // counted once (it is shared).
        let density = |policy| {
            let config = VmConfig::paper_default(policy, sevf_image::kernel::KernelConfig::aws());
            let fp = MemoryFootprint::of(&config);
            (128 * 1024 * MB - fp.binary) / (fp.runtime_overhead + fp.guest_memory)
        };
        let stock = density(BootPolicy::StockFirecracker);
        let sevf = density(BootPolicy::Severifast);
        assert!(stock > 0 && sevf > 0);
        let loss = (stock - sevf) as f64 / stock as f64;
        assert!(loss < 0.001, "density loss {loss}");
    }

    #[test]
    fn qemu_is_much_heavier() {
        let q = MemoryFootprint::of(&VmConfig::test_tiny(BootPolicy::QemuOvmf));
        let f = MemoryFootprint::of(&VmConfig::test_tiny(BootPolicy::Severifast));
        assert!(q.binary + q.runtime_overhead > 10 * (f.binary + f.runtime_overhead));
    }
}
