//! The Linux `boot_params` ("zero page").
//!
//! Fig. 7: a 4 KiB structure carrying system info the kernel needs at
//! entry; generating it takes ~5 KB of code, so SEVeriFast pre-encrypts the
//! one the VMM builds. We reproduce the load-bearing fields: a magic the
//! guest validates, pointers to the cmdline and initrd, the e820-style
//! memory map, and the boot CPU count.

use crate::config::VmConfig;
use sevf_verifier::layout::{GuestLayout, CMDLINE_ADDR};

/// Magic identifying our boot_params page.
const BOOT_PARAMS_MAGIC: u32 = 0x53_56_42_50; // "SVBP"

/// One e820-style memory range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct E820Entry {
    /// Range base.
    pub addr: u64,
    /// Range length.
    pub len: u64,
    /// 1 = usable RAM, 2 = reserved.
    pub kind: u32,
}

/// The decoded boot_params contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BootParams {
    /// Guest-physical pointer to the command line.
    pub cmdline_ptr: u64,
    /// Guest-physical address of the (verified, encrypted) initrd.
    pub initrd_addr: u64,
    /// Initrd size in bytes.
    pub initrd_size: u64,
    /// Number of boot CPUs.
    pub vcpus: u32,
    /// Memory map.
    pub e820: Vec<E820Entry>,
}

impl BootParams {
    /// Builds boot_params for a VM configuration and layout.
    pub(crate) fn build(config: &VmConfig, layout: &GuestLayout) -> Self {
        BootParams {
            cmdline_ptr: CMDLINE_ADDR,
            initrd_addr: layout.initrd_dest,
            initrd_size: layout.initrd_size,
            vcpus: config.vcpus as u32,
            e820: vec![
                // Low 640K usable, legacy hole reserved, rest usable.
                E820Entry {
                    addr: 0,
                    len: 0xA0000,
                    kind: 1,
                },
                E820Entry {
                    addr: 0xA0000,
                    len: 0x60000,
                    kind: 2,
                },
                E820Entry {
                    addr: 0x10_0000,
                    len: layout.mem_size - 0x10_0000,
                    kind: 1,
                },
            ],
        }
    }

    /// Serializes to the 4 KiB pre-encrypted page.
    ///
    /// # Panics
    ///
    /// Panics if more than 128 e820 entries are present.
    pub(crate) fn to_page(&self) -> [u8; 4096] {
        assert!(self.e820.len() <= 128);
        let mut page = [0u8; 4096];
        page[..4].copy_from_slice(&BOOT_PARAMS_MAGIC.to_le_bytes());
        page[8..16].copy_from_slice(&self.cmdline_ptr.to_le_bytes());
        page[16..24].copy_from_slice(&self.initrd_addr.to_le_bytes());
        page[24..32].copy_from_slice(&self.initrd_size.to_le_bytes());
        page[32..36].copy_from_slice(&self.vcpus.to_le_bytes());
        page[36..40].copy_from_slice(&(self.e820.len() as u32).to_le_bytes());
        let mut at = 40;
        for entry in &self.e820 {
            page[at..at + 8].copy_from_slice(&entry.addr.to_le_bytes());
            page[at + 8..at + 16].copy_from_slice(&entry.len.to_le_bytes());
            page[at + 16..at + 20].copy_from_slice(&entry.kind.to_le_bytes());
            at += 20;
        }
        page
    }

    /// Parses the page, as the guest kernel does at entry.
    ///
    /// # Errors
    ///
    /// Returns a static description of the first corruption found.
    pub(crate) fn from_page(page: &[u8]) -> Result<Self, &'static str> {
        if page.len() < 40 {
            return Err("boot_params shorter than header");
        }
        let magic = u32::from_le_bytes(page[..4].try_into().expect("4"));
        if magic != BOOT_PARAMS_MAGIC {
            return Err("boot_params magic mismatch");
        }
        let count = u32::from_le_bytes(page[36..40].try_into().expect("4")) as usize;
        if count > 128 || 40 + count * 20 > page.len() {
            return Err("implausible e820 entry count");
        }
        let mut e820 = Vec::with_capacity(count);
        let mut at = 40;
        for _ in 0..count {
            e820.push(E820Entry {
                addr: u64::from_le_bytes(page[at..at + 8].try_into().expect("8")),
                len: u64::from_le_bytes(page[at + 8..at + 16].try_into().expect("8")),
                kind: u32::from_le_bytes(page[at + 16..at + 20].try_into().expect("4")),
            });
            at += 20;
        }
        Ok(BootParams {
            cmdline_ptr: u64::from_le_bytes(page[8..16].try_into().expect("8")),
            initrd_addr: u64::from_le_bytes(page[16..24].try_into().expect("8")),
            initrd_size: u64::from_le_bytes(page[24..32].try_into().expect("8")),
            vcpus: u32::from_le_bytes(page[32..36].try_into().expect("4")),
            e820,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BootPolicy;

    fn sample() -> BootParams {
        let config = VmConfig::test_tiny(BootPolicy::Severifast);
        let layout = GuestLayout::plan(config.mem_size, 1024 * 1024, 64 * 1024).unwrap();
        BootParams::build(&config, &layout)
    }

    #[test]
    fn roundtrip() {
        let bp = sample();
        assert_eq!(BootParams::from_page(&bp.to_page()).unwrap(), bp);
    }

    #[test]
    fn points_at_layout_addresses() {
        let bp = sample();
        assert_eq!(bp.cmdline_ptr, CMDLINE_ADDR);
        assert!(bp.initrd_addr > 0 && bp.initrd_size == 64 * 1024);
        assert_eq!(bp.vcpus, 1);
    }

    #[test]
    fn e820_covers_most_of_memory() {
        let bp = sample();
        let config = VmConfig::test_tiny(BootPolicy::Severifast);
        let usable: u64 = bp.e820.iter().filter(|e| e.kind == 1).map(|e| e.len).sum();
        assert!(usable > config.mem_size * 9 / 10);
        assert!(usable < config.mem_size);
    }

    #[test]
    fn corruption_detected() {
        let bp = sample();
        let mut page = bp.to_page();
        page[0] ^= 1;
        assert!(BootParams::from_page(&page).is_err());
        let mut page2 = bp.to_page();
        page2[36] = 0xff; // silly e820 count
        assert!(BootParams::from_page(&page2).is_err());
    }
}
