//! The §7.1 warm-pool manager: keep-alive guests held ready per class.
//!
//! A warm pool trades memory rent for latency: each slot is a booted,
//! resident guest ([`sevf_vmm::warm::KeepAliveVm`] in the one-shot
//! experiments), so a request that finds a slot skips the entire launch and
//! boot path — one vCPU kick and it is running. The manager tracks, per
//! class, how many slots are ready, how many refills are in flight, and a
//! target size; after a take it asks the control plane to start a refill so
//! the pool converges back to target. Slots returned above target are
//! evicted (the rent is the point: §7.1's warning is that resident SEV
//! guests cannot even be deduplicated).

/// Per-class warm-slot accounting.
#[derive(Debug, Clone, Copy, Default)]
struct ClassSlots {
    ready: usize,
    refilling: usize,
}

/// Warm-pool manager: per-class ready slots with target-size/evict logic.
#[derive(Debug, Clone)]
pub struct WarmPool {
    target_per_class: usize,
    slots: Vec<ClassSlots>,
    resident_bytes_per_slot: Vec<u64>,
    hits: u64,
    misses: u64,
    evicted: u64,
}

impl WarmPool {
    /// A pool over `classes` request classes, pre-warmed to
    /// `target_per_class` ready slots each. `resident_bytes_per_slot[c]` is
    /// the memory rent one resident guest of class `c` charges.
    pub(crate) fn prewarmed(
        classes: usize,
        target_per_class: usize,
        resident_bytes_per_slot: Vec<u64>,
    ) -> Self {
        assert_eq!(resident_bytes_per_slot.len(), classes);
        WarmPool {
            target_per_class,
            slots: vec![
                ClassSlots {
                    ready: target_per_class,
                    refilling: 0,
                };
                classes
            ],
            resident_bytes_per_slot,
            hits: 0,
            misses: 0,
            evicted: 0,
        }
    }

    /// Takes a ready slot for `class`. Returns `true` on a warm hit.
    pub fn try_take(&mut self, class: usize) -> bool {
        let slot = &mut self.slots[class];
        if slot.ready > 0 {
            slot.ready -= 1;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Whether `class` is below target counting in-flight refills; call
    /// before starting a refill so concurrent refills do not overshoot.
    pub(crate) fn wants_refill(&self, class: usize) -> bool {
        let slot = &self.slots[class];
        slot.ready + slot.refilling < self.target_per_class
    }

    /// Records a refill launch started for `class`.
    pub(crate) fn refill_started(&mut self, class: usize) {
        self.slots[class].refilling += 1;
    }

    /// Records a refill completion: the new guest becomes a ready slot, or
    /// is evicted immediately if the class is already at target.
    pub fn refill_done(&mut self, class: usize) {
        let slot = &mut self.slots[class];
        slot.refilling = slot.refilling.saturating_sub(1);
        if slot.ready < self.target_per_class {
            slot.ready += 1;
        } else {
            self.evicted += 1;
        }
    }

    /// Records a refill that failed (e.g. its launch died in a PSP reset):
    /// the in-flight count drops but no slot becomes ready.
    pub(crate) fn refill_failed(&mut self, class: usize) {
        let slot = &mut self.slots[class];
        slot.refilling = slot.refilling.saturating_sub(1);
    }

    /// A warm guest of `class` crashes. Returns `true` when a ready slot
    /// actually existed to die; an empty class absorbs nothing.
    pub fn crash(&mut self, class: usize) -> bool {
        let slot = &mut self.slots[class];
        if slot.ready > 0 {
            slot.ready -= 1;
            true
        } else {
            false
        }
    }

    /// Ready slots for `class`.
    pub fn ready(&self, class: usize) -> usize {
        self.slots[class].ready
    }

    /// The per-class target size.
    pub fn target_per_class(&self) -> usize {
        self.target_per_class
    }

    /// Shrinks (or grows) the per-class target; shrinking evicts surplus
    /// ready slots immediately.
    pub fn set_target(&mut self, target_per_class: usize) {
        self.target_per_class = target_per_class;
        for slot in &mut self.slots {
            while slot.ready > target_per_class {
                slot.ready -= 1;
                self.evicted += 1;
            }
        }
    }

    /// Total memory rent the ready slots charge right now (§7.1).
    pub fn resident_bytes(&self) -> u64 {
        self.slots
            .iter()
            .zip(&self.resident_bytes_per_slot)
            .map(|(slot, &bytes)| slot.ready as u64 * bytes)
            .sum()
    }

    /// Warm hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Warm misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Guests evicted (returned or refilled above target).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> WarmPool {
        WarmPool::prewarmed(2, 2, vec![1000, 500])
    }

    #[test]
    fn prewarmed_pool_serves_hits_until_drained() {
        let mut p = pool();
        assert!(p.try_take(0));
        assert!(p.try_take(0));
        assert!(!p.try_take(0));
        assert_eq!(p.hits(), 2);
        assert_eq!(p.misses(), 1);
    }

    #[test]
    fn refill_cycle_restores_target() {
        let mut p = pool();
        assert!(p.try_take(1));
        assert!(p.wants_refill(1));
        p.refill_started(1);
        assert!(!p.wants_refill(1), "in-flight refill counts toward target");
        p.refill_done(1);
        assert_eq!(p.ready(1), 2);
        assert_eq!(p.evicted(), 0);
    }

    #[test]
    fn refill_above_target_evicts() {
        let mut p = pool();
        p.refill_started(0);
        p.refill_done(0); // class 0 already at target
        assert_eq!(p.ready(0), 2);
        assert_eq!(p.evicted(), 1);
    }

    #[test]
    fn shrinking_target_evicts_surplus() {
        let mut p = pool();
        p.set_target(1);
        assert_eq!(p.ready(0), 1);
        assert_eq!(p.ready(1), 1);
        assert_eq!(p.evicted(), 2);
    }

    #[test]
    fn crash_consumes_a_ready_slot_and_failed_refill_frees_the_lease() {
        let mut p = pool();
        assert!(p.crash(0));
        assert_eq!(p.ready(0), 1);
        assert!(p.wants_refill(0));

        // A refill that dies must release its in-flight lease, or the class
        // would believe a refill is forever on the way and never converge.
        p.refill_started(0);
        assert!(!p.wants_refill(0));
        p.refill_failed(0);
        assert!(p.wants_refill(0));
        assert_eq!(p.ready(0), 1, "failed refill adds no slot");

        // Draining the class: crashes on an empty class are no-ops.
        assert!(p.crash(0));
        assert!(!p.crash(0));
    }

    #[test]
    fn resident_bytes_track_ready_slots() {
        let mut p = pool();
        assert_eq!(p.resident_bytes(), 2 * 1000 + 2 * 500);
        p.try_take(0);
        assert_eq!(p.resident_bytes(), 1000 + 2 * 500);
    }
}
