//! x86-64 identity-mapped page tables with the C-bit.
//!
//! The boot verifier builds 1 GiB of identity mapping with 2 MiB pages —
//! PML4 → PDPT → PD, 4 KiB of actual table data (Fig. 7) — setting the
//! encryption bit in every entry so that all kernel accesses go through the
//! memory-encryption engine (§2.4). The tables live in *encrypted* guest
//! memory: generating them there encrypts them implicitly (§4.2).

use sevf_mem::{GuestMemory, MemError, PAGE_SIZE};

/// Entry flag: present.
const PTE_PRESENT: u64 = 1 << 0;
/// Entry flag: writable.
const PTE_WRITABLE: u64 = 1 << 1;
/// Entry flag: page size (2 MiB leaf in a PD entry).
const PTE_HUGE: u64 = 1 << 7;

/// Size mapped by one PD entry.
const HUGE_PAGE: u64 = 2 * 1024 * 1024;

/// Where each table lands relative to the page-table region base.
const PML4_OFF: u64 = 0;
const PDPT_OFF: u64 = PAGE_SIZE;
const PD_OFF: u64 = 2 * PAGE_SIZE;

/// Builds an identity map of `map_size` bytes (rounded up to 2 MiB) at
/// `region_base`, with the C-bit at `c_bit` set in every entry when
/// `encrypted` is true. Writes go through the guest's private mapping, so
/// the region must already be assigned and validated.
///
/// # Errors
///
/// Propagates guest-memory faults (e.g. unvalidated table region).
///
/// # Panics
///
/// Panics if `map_size` exceeds 512 GiB (PDPT fan-out limit of this
/// single-PML4E builder) or `c_bit < 52` is violated in reverse (c_bit must
/// be ≥ 32 to stay clear of the address bits used here).
pub(crate) fn build_identity_map(
    mem: &mut GuestMemory,
    region_base: u64,
    map_size: u64,
    c_bit: u32,
    encrypted: bool,
) -> Result<(), MemError> {
    assert!(c_bit >= 32, "C-bit must be above the mapped address bits");
    let leafs = map_size.div_ceil(HUGE_PAGE);
    let pd_tables = leafs.div_ceil(512);
    assert!(
        pd_tables <= 512,
        "mapping larger than 512 GiB not supported"
    );
    let c = if encrypted { 1u64 << c_bit } else { 0 };

    // PML4: one entry pointing at the PDPT.
    let pml4e = (region_base + PDPT_OFF) | PTE_PRESENT | PTE_WRITABLE | c;
    mem.guest_write(region_base + PML4_OFF, &pml4e.to_le_bytes(), encrypted)?;

    // PDPT: one entry per PD table.
    for t in 0..pd_tables {
        let pd_addr = region_base + PD_OFF + t * PAGE_SIZE;
        let pdpte = pd_addr | PTE_PRESENT | PTE_WRITABLE | c;
        mem.guest_write(
            region_base + PDPT_OFF + t * 8,
            &pdpte.to_le_bytes(),
            encrypted,
        )?;
        // PD: 2 MiB leaf entries.
        let mut entries = Vec::with_capacity(512 * 8);
        for i in 0..512u64 {
            let leaf_index = t * 512 + i;
            if leaf_index >= leafs {
                break;
            }
            let pde = (leaf_index * HUGE_PAGE) | PTE_PRESENT | PTE_WRITABLE | PTE_HUGE | c;
            entries.extend_from_slice(&pde.to_le_bytes());
        }
        mem.guest_write(pd_addr, &entries, encrypted)?;
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sevf_mem::C_BIT_POSITION;
    use sevf_sim::cost::SevGeneration;

    /// Result of a simulated page walk.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Translation {
        /// Physical address the virtual address maps to.
        phys: u64,
        /// Whether the walk saw the C-bit set at the leaf.
        encrypted: bool,
    }

    /// Walks the tables at `region_base` for virtual address `vaddr` (reads
    /// through the same mapping they were written with): the oracle the
    /// tests check a built map against. `Ok(None)` for unmapped addresses,
    /// `Err` for memory faults.
    fn walk(
        mem: &GuestMemory,
        region_base: u64,
        vaddr: u64,
        c_bit: u32,
        encrypted: bool,
    ) -> Result<Option<Translation>, MemError> {
        let c_mask = 1u64 << c_bit;
        let addr_mask = ((1u64 << 52) - 1) & !0xfff & !c_mask;
        let read_entry = |addr: u64| -> Result<u64, MemError> {
            let bytes = mem.guest_read(addr, 8, encrypted)?;
            Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
        };
        let pml4e = read_entry(region_base + PML4_OFF + ((vaddr >> 39) & 0x1ff) * 8)?;
        if pml4e & PTE_PRESENT == 0 {
            return Ok(None);
        }
        let pdpt = pml4e & addr_mask;
        let pdpte = read_entry(pdpt + ((vaddr >> 30) & 0x1ff) * 8)?;
        if pdpte & PTE_PRESENT == 0 {
            return Ok(None);
        }
        let pd = pdpte & addr_mask;
        let pde = read_entry(pd + ((vaddr >> 21) & 0x1ff) * 8)?;
        if pde & PTE_PRESENT == 0 {
            return Ok(None);
        }
        debug_assert!(pde & PTE_HUGE != 0, "only 2 MiB leaves are built");
        let base = pde & addr_mask & !(HUGE_PAGE - 1);
        Ok(Some(Translation {
            phys: base + (vaddr & (HUGE_PAGE - 1)),
            encrypted: pde & c_mask != 0,
        }))
    }

    const MB: u64 = 1024 * 1024;

    fn prepared_mem() -> GuestMemory {
        let mut mem = GuestMemory::new_sev(64 * MB, [3u8; 16], SevGeneration::SevSnp);
        mem.rmp_assign(MB, MB).unwrap();
        mem.pvalidate(MB, MB).unwrap();
        mem
    }

    /// Whether the tables at `MB` map exactly the addresses below `end`.
    fn mapped_up_to(mem: &GuestMemory, end: u64) -> bool {
        let at = |vaddr| walk(mem, MB, vaddr, C_BIT_POSITION, true).unwrap();
        at(end - 1).is_some() && at(end).is_none()
    }

    #[test]
    fn one_gig_map_uses_4k_of_pd() {
        let mut mem = prepared_mem();
        build_identity_map(&mut mem, MB, 1024 * MB, C_BIT_POSITION, true).unwrap();
        assert!(mapped_up_to(&mem, 1024 * MB));
        // Fig. 7: "4KB" of page tables — the PD with 512 leaf entries fills
        // its page (the PML4/PDPT roots ride along in the same region), and
        // nothing is written past it.
        let pd = mem.guest_read(MB + 2 * PAGE_SIZE, PAGE_SIZE, true).unwrap();
        assert!(pd.chunks(8).all(|pde| pde != [0; 8]));
        let past = mem.guest_read(MB + 3 * PAGE_SIZE, PAGE_SIZE, true).unwrap();
        assert!(past.iter().all(|&b| b == 0));
    }

    #[test]
    fn identity_translation_with_c_bit() {
        let mut mem = prepared_mem();
        build_identity_map(&mut mem, MB, 1024 * MB, C_BIT_POSITION, true).unwrap();
        for vaddr in [0u64, 0x1234, 2 * MB + 5, 100 * MB, 1024 * MB - 1] {
            let t = walk(&mem, MB, vaddr, C_BIT_POSITION, true)
                .unwrap()
                .unwrap();
            assert_eq!(t.phys, vaddr, "identity map");
            assert!(t.encrypted, "C-bit must be set at {vaddr:#x}");
        }
    }

    #[test]
    fn unmapped_address_walks_to_none() {
        let mut mem = prepared_mem();
        build_identity_map(&mut mem, MB, 16 * MB, C_BIT_POSITION, true).unwrap();
        assert_eq!(walk(&mem, MB, 32 * MB, C_BIT_POSITION, true).unwrap(), None);
        // A different PML4 slot entirely.
        assert_eq!(
            walk(&mem, MB, 1u64 << 40, C_BIT_POSITION, true).unwrap(),
            None
        );
    }

    #[test]
    fn plain_guest_builds_unencrypted_tables() {
        let mut mem = GuestMemory::new_plain(64 * MB);
        build_identity_map(&mut mem, MB, 64 * MB, C_BIT_POSITION, false).unwrap();
        let t = walk(&mem, MB, 12345, C_BIT_POSITION, false)
            .unwrap()
            .unwrap();
        assert_eq!(t.phys, 12345);
        assert!(!t.encrypted);
    }

    #[test]
    fn tables_in_unvalidated_region_fault() {
        let mut mem = GuestMemory::new_sev(64 * MB, [3u8; 16], SevGeneration::SevSnp);
        // No assign/pvalidate: the encrypted write must raise #VC.
        assert!(build_identity_map(&mut mem, MB, 64 * MB, C_BIT_POSITION, true).is_err());
    }

    #[test]
    fn partial_size_rounds_up_to_huge_pages() {
        let mut mem = prepared_mem();
        build_identity_map(&mut mem, MB, 3 * MB, C_BIT_POSITION, true).unwrap();
        assert!(mapped_up_to(&mem, 4 * MB));
    }

    #[test]
    fn host_sees_tables_as_ciphertext() {
        let mut mem = prepared_mem();
        build_identity_map(&mut mem, MB, 64 * MB, C_BIT_POSITION, true).unwrap();
        let host_view = mem.host_read(MB, 8).unwrap();
        let guest_view = mem.guest_read(MB, 8, true).unwrap();
        assert_ne!(
            host_view, guest_view,
            "tables are implicitly encrypted (§4.2)"
        );
    }
}
