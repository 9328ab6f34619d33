//! The Reverse Map Table (RMP).
//!
//! SEV-SNP's system-wide structure tracking, for every physical page, whether
//! it is assigned to a guest and whether the guest has validated it with
//! `pvalidate` (§2.2). We keep one table per guest (cross-VM aliasing attacks
//! are out of the paper's scope), indexed densely by page number like the
//! hardware table.

/// The SNP-relevant state of one 4 KiB page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageState {
    /// Page is assigned to the guest (private / guest-owned).
    pub assigned: bool,
    /// Guest has executed `pvalidate` on the page.
    pub validated: bool,
    /// The hypervisor changed the mapping after validation (next guest
    /// access must raise #VC).
    pub remapped: bool,
}

/// A dense per-guest RMP, one entry per page up to the highest page ever
/// updated; pages past the end are shared and unvalidated. Updating page
/// `n` grows the table to `n + 1` entries: [`crate::GuestMemory`] bounds
/// `n` by the guest's size before it updates.
#[derive(Debug, Clone, Default)]
pub struct Rmp {
    entries: Vec<PageState>,
}

impl Rmp {
    /// Creates an empty table (all pages shared).
    pub fn new() -> Self {
        Self::default()
    }

    /// State of the page with index `page` (shared if never updated).
    pub fn state(&self, page: u64) -> PageState {
        usize::try_from(page)
            .ok()
            .and_then(|i| self.entries.get(i))
            .copied()
            .unwrap_or_default()
    }

    /// The entry of `page`, growing the table to reach it.
    fn entry(&mut self, page: u64) -> &mut PageState {
        let i = usize::try_from(page).expect("page index fits the address space");
        if i >= self.entries.len() {
            self.entries.resize(i + 1, PageState::default());
        }
        &mut self.entries[i]
    }

    /// Marks a page assigned to the guest (hypervisor `RMPUPDATE`).
    pub fn assign(&mut self, page: u64) {
        self.entry(page).assigned = true;
    }

    /// Sets the validated bit (guest `pvalidate`). Returns the previous
    /// validated state so callers can detect double validation.
    pub fn validate(&mut self, page: u64) -> bool {
        let entry = self.entry(page);
        let was = entry.validated;
        entry.validated = true;
        entry.remapped = false;
        was
    }

    /// Simulates the hypervisor changing a validated page's mapping: the
    /// hardware clears the valid bit, and the next guest access takes #VC.
    pub fn remap_by_host(&mut self, page: u64) {
        let entry = self.entry(page);
        if entry.validated {
            entry.validated = false;
            entry.remapped = true;
        }
    }

    /// Number of pages currently assigned.
    pub fn assigned_count(&self) -> usize {
        self.entries.iter().filter(|e| e.assigned).count()
    }

    /// Number of pages currently validated.
    pub fn validated_count(&self) -> usize {
        self.entries.iter().filter(|e| e.validated).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_state_is_shared() {
        let rmp = Rmp::new();
        let s = rmp.state(42);
        assert!(!s.assigned && !s.validated && !s.remapped);
    }

    #[test]
    fn assign_validate_flow() {
        let mut rmp = Rmp::new();
        rmp.assign(1);
        assert!(rmp.state(1).assigned);
        assert!(!rmp.validate(1), "first validation returns false");
        assert!(rmp.validate(1), "second validation returns true");
        assert_eq!(rmp.validated_count(), 1);
    }

    #[test]
    fn remap_clears_valid_bit() {
        let mut rmp = Rmp::new();
        rmp.assign(5);
        rmp.validate(5);
        rmp.remap_by_host(5);
        let s = rmp.state(5);
        assert!(!s.validated && s.remapped && s.assigned);
    }

    #[test]
    fn remap_of_unvalidated_page_is_noop() {
        let mut rmp = Rmp::new();
        rmp.assign(5);
        rmp.remap_by_host(5);
        assert!(!rmp.state(5).remapped);
    }

    #[test]
    fn revalidation_after_remap_clears_flag() {
        let mut rmp = Rmp::new();
        rmp.assign(2);
        rmp.validate(2);
        rmp.remap_by_host(2);
        rmp.validate(2);
        let s = rmp.state(2);
        assert!(s.validated && !s.remapped);
    }
}
