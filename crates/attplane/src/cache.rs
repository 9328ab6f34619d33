//! VCEK cert-chain + verified-report cache.
//!
//! Keyed by *(chip id, TCB version)*: a TCB/firmware rollout bumps the
//! version, so every entry minted under the old firmware silently stops
//! matching — the storm is a wave of misses, not an explicit flush.
//! The cache holds no trust verdicts: which chips are revoked is recorded
//! once, in the plane's [`sevf_psp::AmdRootRegistry`], and the plane asks
//! it before it probes or fills the cache. [`CertCache::revoke`] only
//! purges what was cached under a distrusted chip.

use std::collections::HashMap;

use sevf_sim::Nanos;

/// Cache key: which chip signed, under which TCB version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// The signing chip's public identifier.
    pub chip_id: [u8; 32],
    /// The TCB/firmware version the evidence was produced under.
    pub tcb: u32,
}

/// Outcome of one cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheLookup {
    /// A live entry: skip the KDS fetch.
    Hit,
    /// No entry for this key.
    Miss,
    /// An entry existed but its TTL had lapsed; it was evicted.
    Expired,
}

/// Outcome of a staleness-tolerant probe ([`CertCache::probe_stale`]),
/// used while the verifier is unreachable under a fail-open policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StaleLookup {
    /// A live entry, within TTL: as good as a fresh verification.
    Fresh,
    /// An entry past its TTL but within the staleness budget — usable
    /// under fail-open, must be re-verified once the verifier heals.
    Stale,
    /// Nothing usable even with the staleness allowance.
    Miss,
}

/// The cache itself. TTL runs on the virtual clock, so expiry is
/// deterministic and monotone: once a key has expired at time `t`, it
/// stays expired at every `t' >= t` until re-inserted.
#[derive(Debug, Default)]
pub(crate) struct CertCache {
    entries: HashMap<CacheKey, Nanos>,
    ttl: Nanos,
}

impl CertCache {
    /// An empty cache with the given TTL.
    pub(crate) fn new(ttl: Nanos) -> Self {
        CertCache {
            entries: HashMap::new(),
            ttl,
        }
    }

    /// Probes for a key at `now`; an expired entry is evicted as a side
    /// effect.
    pub(crate) fn probe(&mut self, key: CacheKey, now: Nanos) -> CacheLookup {
        match self.entries.get(&key) {
            Some(&inserted) if now.saturating_sub(inserted) < self.ttl => CacheLookup::Hit,
            Some(_) => {
                self.entries.remove(&key);
                CacheLookup::Expired
            }
            None => CacheLookup::Miss,
        }
    }

    /// Probes with a staleness allowance, for fail-open service during a
    /// verifier blackout. Unlike [`CertCache::probe`] this never evicts:
    /// the blackout ends and the normal probe path resumes TTL policing.
    ///
    /// The exact key is consulted first; failing that, any entry for the
    /// *same chip* under another TCB version counts as stale evidence
    /// (the chip's VCEK chain was trusted recently — a TCB rollout during
    /// the blackout must not turn the whole fleet into misses). Age
    /// boundaries are exact: `age < ttl` is `Fresh`, `ttl <= age <
    /// ttl + budget` is `Stale`, and anything older is `Miss`.
    pub(crate) fn probe_stale(&self, key: CacheKey, now: Nanos, budget: Nanos) -> StaleLookup {
        let horizon = self.ttl + budget;
        if let Some(&inserted) = self.entries.get(&key) {
            let age = now.saturating_sub(inserted);
            if age < self.ttl {
                return StaleLookup::Fresh;
            }
            if age < horizon {
                return StaleLookup::Stale;
            }
        }
        let same_chip_usable = self
            .entries
            .iter()
            .filter(|(k, _)| k.chip_id == key.chip_id)
            .any(|(_, &inserted)| now.saturating_sub(inserted) < horizon);
        if same_chip_usable {
            StaleLookup::Stale
        } else {
            StaleLookup::Miss
        }
    }

    /// Records a fetched cert chain / verified report. The caller keeps
    /// distrusted evidence out: the plane refuses a revoked chip before
    /// it would insert.
    pub(crate) fn insert(&mut self, key: CacheKey, now: Nanos) {
        self.entries.insert(key, now);
    }

    /// Purges everything cached under a distrusted chip key, at every TCB
    /// version.
    pub(crate) fn revoke(&mut self, chip_id: &[u8; 32]) {
        self.entries.retain(|k, _| k.chip_id != *chip_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(chip: u8, tcb: u32) -> CacheKey {
        CacheKey {
            chip_id: [chip; 32],
            tcb,
        }
    }

    #[test]
    fn ttl_expiry_is_monotone_in_virtual_time() {
        // Property: for an entry inserted at t0 with TTL d, a probe at t
        // hits iff t - t0 < d, and once a probe has expired the entry no
        // later probe can resurrect it without a fresh insert.
        let ttl = Nanos::from_millis(10);
        let mut cache = CertCache::new(ttl);
        let k = key(1, 0);
        let t0 = Nanos::from_millis(100);
        cache.insert(k, t0);
        let mut expired_seen = false;
        for step in 0..40u64 {
            let now = t0 + Nanos::from_micros(500 * step);
            let lookup = cache.probe(k, now);
            let within = now.saturating_sub(t0) < ttl;
            if expired_seen {
                assert_eq!(
                    lookup,
                    CacheLookup::Miss,
                    "expiry must be sticky at {now:?}"
                );
            } else if within {
                assert_eq!(lookup, CacheLookup::Hit, "live entry must hit at {now:?}");
            } else {
                assert_eq!(
                    lookup,
                    CacheLookup::Expired,
                    "first lapsed probe at {now:?}"
                );
                expired_seen = true;
            }
        }
        assert!(expired_seen);
    }

    #[test]
    fn revoke_purges_every_tcb_of_that_chip_only() {
        // Chip 2 has evidence cached under two TCB versions, chip 3 under
        // one; all three entries are past their TTL but inside the
        // staleness allowance.
        let ttl = Nanos::from_millis(10);
        let budget = Nanos::from_millis(50);
        let mut cache = CertCache::new(ttl);
        for k in [key(2, 3), key(2, 9), key(3, 0)] {
            cache.insert(k, Nanos::ZERO);
        }
        let now = Nanos::from_millis(20);
        assert_eq!(
            cache.probe_stale(key(2, 3), now, budget),
            StaleLookup::Stale
        );
        cache.revoke(&[2; 32]);
        // Every TCB version of the revoked chip is gone, including the
        // same-chip fallback the stale probe would otherwise find.
        assert_eq!(cache.entries.len(), 1);
        for tcb in [3, 9, 4] {
            assert_eq!(
                cache.probe_stale(key(2, tcb), now, budget),
                StaleLookup::Miss
            );
        }
        // The other chip keeps its entry and its stale allowance.
        assert_eq!(
            cache.probe_stale(key(3, 0), now, budget),
            StaleLookup::Stale
        );
        assert_eq!(
            cache.probe_stale(key(3, 1), now, budget),
            StaleLookup::Stale
        );
        assert_eq!(
            cache.probe(key(3, 0), Nanos::from_millis(5)),
            CacheLookup::Hit
        );
    }

    #[test]
    fn entry_expiring_exactly_on_the_lookup_tick() {
        // Edge case: a probe landing exactly at inserted + ttl. The strict
        // `age < ttl` rule makes that tick Expired for the normal probe
        // and Stale (not Fresh) for the fail-open probe — the two paths
        // must agree on where freshness ends.
        let ttl = Nanos::from_millis(10);
        let budget = Nanos::from_millis(4);
        let t0 = Nanos::from_millis(100);
        let k = key(7, 0);
        let boundary = t0 + ttl;
        let make = || {
            let mut c = CertCache::new(ttl);
            c.insert(k, t0);
            c
        };
        // One tick before the boundary: fresh on both paths.
        let just_before = boundary.saturating_sub(Nanos::from_nanos(1));
        assert_eq!(
            make().probe_stale(k, just_before, budget),
            StaleLookup::Fresh
        );
        assert_eq!(make().probe(k, just_before), CacheLookup::Hit);
        // Exactly on the boundary tick.
        let cache = make();
        assert_eq!(cache.probe_stale(k, boundary, budget), StaleLookup::Stale);
        let mut cache = make();
        assert_eq!(cache.probe(k, boundary), CacheLookup::Expired);
        // And the staleness budget has its own exact boundary.
        let cache = make();
        let stale_end = boundary + budget;
        assert_eq!(
            cache.probe_stale(k, stale_end.saturating_sub(Nanos::from_nanos(1)), budget),
            StaleLookup::Stale
        );
        assert_eq!(cache.probe_stale(k, stale_end, budget), StaleLookup::Miss);
    }

    #[test]
    fn stale_probe_falls_back_to_same_chip_other_tcb() {
        // A TCB rollout during the blackout bumps the key; the chip's
        // old-TCB entry still vouches for it within the allowance.
        let ttl = Nanos::from_millis(10);
        let budget = Nanos::from_millis(10);
        let mut cache = CertCache::new(ttl);
        cache.insert(key(5, 0), Nanos::ZERO);
        let now = Nanos::from_millis(5);
        assert_eq!(
            cache.probe_stale(key(5, 1), now, budget),
            StaleLookup::Stale
        );
        // Past ttl + budget even the fallback refuses.
        let late = Nanos::from_millis(25);
        assert_eq!(
            cache.probe_stale(key(5, 1), late, budget),
            StaleLookup::Miss
        );
        // A different chip never benefits.
        assert_eq!(cache.probe_stale(key(6, 0), now, budget), StaleLookup::Miss);
    }

    #[test]
    fn tcb_bump_changes_the_key() {
        let mut cache = CertCache::new(Nanos::from_secs(60));
        let now = Nanos::from_millis(1);
        cache.insert(key(4, 0), now);
        assert_eq!(cache.probe(key(4, 0), now), CacheLookup::Hit);
        assert_eq!(cache.probe(key(4, 1), now), CacheLookup::Miss);
    }
}
