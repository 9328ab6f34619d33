//! The guest physical memory layout shared by the VMM and the boot verifier.
//!
//! The VMM stages plain-text boot components in a **shared** window at the
//! top of guest memory and pre-encrypts the small root-of-trust items at
//! fixed low addresses; the boot verifier copies components into **private**
//! destinations and loads the kernel at its linked base. All parties agree
//! on this map, like the x86 boot protocol's conventions.

use sevf_mem::PAGE_SIZE;

/// Fixed address of the pre-encrypted hash page.
pub const HASH_PAGE_ADDR: u64 = 0x7000;
/// Fixed address of the pre-encrypted `boot_params` page.
pub const BOOT_PARAMS_ADDR: u64 = 0x8000;
/// Fixed address of the pre-encrypted mptable.
pub const MPTABLE_ADDR: u64 = 0x9000;
/// Fixed address of the pre-encrypted kernel command line.
pub const CMDLINE_ADDR: u64 = 0xA000;
/// Fixed address the boot verifier binary is pre-encrypted at.
pub const VERIFIER_ADDR: u64 = 0x10000;
/// Fixed base of the page-table region the verifier builds.
pub(crate) const PAGE_TABLE_ADDR: u64 = 0x10_0000;
/// Kernel load base (matches `sevf_image::kernel::KERNEL_BASE`).
const KERNEL_DEST: u64 = 0x100_0000;

/// The complete per-boot address map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuestLayout {
    /// Total guest memory size.
    pub mem_size: u64,
    /// Shared staging window base (top quarter of guest memory).
    pub staging_base: u64,
    /// Where the kernel image (bzImage or vmlinux) is staged, shared.
    pub kernel_staging: u64,
    /// Where the initrd is staged, shared.
    pub initrd_staging: u64,
    /// Private destination for the kernel image.
    pub kernel_dest: u64,
    /// Private destination for the initrd.
    pub initrd_dest: u64,
    /// Size of the staged kernel image.
    pub kernel_size: u64,
    /// Size of the staged initrd.
    pub initrd_size: u64,
}

fn page_align_up(v: u64) -> u64 {
    v.div_ceil(PAGE_SIZE) * PAGE_SIZE
}

impl GuestLayout {
    /// Computes the layout for a guest of `mem_size` bytes booting a kernel
    /// image of `kernel_size` bytes with an initrd of `initrd_size` bytes.
    ///
    /// # Errors
    ///
    /// Returns a static description of the first constraint violated when
    /// the components cannot fit without overlapping.
    pub fn plan(mem_size: u64, kernel_size: u64, initrd_size: u64) -> Result<Self, &'static str> {
        Self::plan_with_expansion(mem_size, kernel_size, initrd_size, true)
    }

    /// Like [`GuestLayout::plan`], but with explicit control over whether
    /// the staged kernel expands when loaded (`true` for a compressed
    /// bzImage, `false` for an uncompressed vmlinux, which only adds bss).
    ///
    /// # Errors
    ///
    /// Same conditions as [`GuestLayout::plan`].
    pub fn plan_with_expansion(
        mem_size: u64,
        kernel_size: u64,
        initrd_size: u64,
        expands: bool,
    ) -> Result<Self, &'static str> {
        // The staging window is sized to what must be staged (top of guest
        // memory), leaving as much room as possible for private regions.
        let staged_total = kernel_size + initrd_size + 2 * 1024 * 1024;
        if staged_total > mem_size / 2 {
            return Err("staging window too small for kernel + initrd");
        }
        let staging_base = (mem_size - staged_total) / PAGE_SIZE * PAGE_SIZE;
        let kernel_staging = staging_base;
        let initrd_staging = page_align_up(kernel_staging + kernel_size);
        if initrd_staging + initrd_size > mem_size {
            return Err("staging window too small for kernel + initrd");
        }
        let kernel_dest = KERNEL_DEST;
        let initrd_dest = page_align_up(mem_size / 2);
        // The loaded kernel may expand: a bzImage decompresses (up to ~4×
        // here, capped at +64 MiB), while an uncompressed image only adds
        // bss and alignment slack.
        let headroom = if expands {
            (kernel_size * 4).min(kernel_size + 64 * 1024 * 1024)
        } else {
            kernel_size + 4 * 1024 * 1024
        }
        .max(16 * 1024 * 1024);
        if kernel_dest + headroom > initrd_dest {
            return Err("kernel destination would collide with initrd destination");
        }
        if initrd_dest + initrd_size > staging_base {
            return Err("initrd destination would collide with the staging window");
        }
        Ok(GuestLayout {
            mem_size,
            staging_base,
            kernel_staging,
            initrd_staging,
            kernel_dest,
            initrd_dest,
            kernel_size,
            initrd_size,
        })
    }

    /// Page-aligned ranges the hypervisor assigns as private before launch:
    /// everything below the staging window.
    pub fn private_ranges(&self) -> Vec<(u64, u64)> {
        vec![(0, self.staging_base)]
    }

    /// The ranges pre-encrypted by `LAUNCH_UPDATE_DATA` (already validated
    /// by firmware, so the verifier's pvalidate sweep must skip them).
    /// `fw_base`/`fw_size` locate the initial firmware blob — the ~13 KB
    /// SEVeriFast verifier at [`VERIFIER_ADDR`] or the 1 MB OVMF image.
    pub(crate) fn pre_encrypted_ranges(&self, fw_base: u64, fw_size: u64) -> Vec<(u64, u64)> {
        vec![
            (HASH_PAGE_ADDR, PAGE_SIZE),
            (BOOT_PARAMS_ADDR, PAGE_SIZE),
            (MPTABLE_ADDR, PAGE_SIZE),
            (CMDLINE_ADDR, PAGE_SIZE),
            (fw_base, page_align_up(fw_size)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn paper_vm_fits() {
        // 256 MB guest, Ubuntu bzImage 15 MB, initrd 14 MB (the largest
        // configuration in the evaluation).
        let layout = GuestLayout::plan(256 * MB, 15 * MB, 14 * MB).unwrap();
        assert!(layout.staging_base >= 192 * MB);
        assert!(layout.initrd_staging + layout.initrd_size <= 256 * MB);
        assert!(layout.initrd_dest >= 128 * MB);
    }

    #[test]
    fn uncompressed_ubuntu_fits() {
        // 61 MB vmlinux staged whole (vmlinux boot policy): needs
        // staged + 64 MiB of headroom below the initrd destination.
        let layout = GuestLayout::plan(512 * MB, 61 * MB, 14 * MB).unwrap();
        assert!(layout.kernel_dest + 61 * MB + 64 * MB <= layout.initrd_dest);
    }

    #[test]
    fn tiny_test_vm_fits() {
        let layout = GuestLayout::plan(64 * MB, 512 * 1024, 128 * 1024).unwrap();
        assert_eq!(layout.kernel_dest, KERNEL_DEST);
        assert!(layout.staging_base > layout.initrd_dest);
    }

    #[test]
    fn oversized_components_rejected() {
        assert!(GuestLayout::plan(64 * MB, 40 * MB, 14 * MB).is_err());
        assert!(GuestLayout::plan(32 * MB, MB, MB).is_err());
    }

    #[test]
    fn regions_are_page_aligned() {
        let layout = GuestLayout::plan(256 * MB, 7 * MB + 123, 14 * MB + 9).unwrap();
        assert_eq!(layout.staging_base % PAGE_SIZE, 0);
        assert_eq!(layout.initrd_staging % PAGE_SIZE, 0);
        assert_eq!(layout.initrd_dest % PAGE_SIZE, 0);
    }

    #[test]
    fn pre_encrypted_ranges_are_disjoint_and_low() {
        let layout = GuestLayout::plan(256 * MB, 7 * MB, 14 * MB).unwrap();
        let ranges = layout.pre_encrypted_ranges(VERIFIER_ADDR, 13 * 1024);
        for (addr, len) in &ranges {
            assert!(addr + len <= PAGE_TABLE_ADDR);
        }
        let mut sorted = ranges.clone();
        sorted.sort();
        for pair in sorted.windows(2) {
            assert!(pair[0].0 + pair[0].1 <= pair[1].0, "overlap: {pair:?}");
        }
    }
}
