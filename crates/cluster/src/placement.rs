//! The cluster router: pluggable placement over the live host set.
//!
//! Three policies, three cost models:
//!
//! * [`PlacementPolicy::RoundRobin`] — spread arrivals evenly regardless of
//!   state. Fair, oblivious, and the baseline every smarter policy must
//!   beat.
//! * [`PlacementPolicy::JsqPsp`] — join-shortest-PSP-backlog with
//!   power-of-two-choices sampling: probe two live hosts (seeded draws) and
//!   send the request to the one with less expected serialized PSP work
//!   outstanding. Since the PSP is each host's bottleneck (Fig. 12), two
//!   choices on the bottleneck queue captures most of the benefit of full
//!   JSQ at O(1) probing cost.
//! * [`PlacementPolicy::TemplateAffinity`] — route by the request's template
//!   key through the seeded consistent-hash [`HashRing`]: every class has
//!   one owner host, so its §6.2 template is measured once cluster-wide
//!   instead of once per host, and a membership change re-measures only the
//!   classes whose arc moved.
//! * [`PlacementPolicy::WarmReady`] — pool-aware two-choice JSQ for
//!   elastic fleets. SEV warm slots are pinned to their PSP, so a host
//!   with a ready slot for the class serves in microseconds while a host
//!   without one makes the request wait out a template launch; plain JSQ
//!   is blind to that and dogpiles freshly joined hosts whose pools are
//!   still shallow. Hosts holding a ready slot for the class win outright;
//!   ties fall back to the two-choice PSP-backlog probe.

use sevf_psp::TemplateKey;
use sevf_sim::rng::XorShift64;
use sevf_sim::Nanos;

use crate::ring::HashRing;

/// How the router picks a host for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Rotate over the live hosts.
    #[default]
    RoundRobin,
    /// Join-shortest-PSP-backlog via power-of-two-choices sampling.
    JsqPsp,
    /// Consistent-hash the template key to its owner host.
    TemplateAffinity,
    /// Prefer hosts with a ready warm slot for the class; two-choice
    /// PSP-backlog JSQ among the preferred (or among everyone when no pool
    /// holds the class).
    WarmReady,
}

impl PlacementPolicy {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::RoundRobin => "round-robin",
            PlacementPolicy::JsqPsp => "jsq-psp",
            PlacementPolicy::TemplateAffinity => "affinity",
            PlacementPolicy::WarmReady => "warm-ready",
        }
    }
}

/// The placement router. Membership must be kept in sync by the control
/// plane: `Router::host_left` on outage/departure, `Router::host_joined`
/// on recovery/join — the ring only ever holds routable hosts.
#[derive(Debug)]
pub struct Router {
    policy: PlacementPolicy,
    ring: HashRing,
    cursor: usize,
    rng: XorShift64,
}

impl Router {
    /// A router over hosts `0..hosts`, all initially live. `vnodes` is the
    /// ring's virtual-node count per host (affinity policy only).
    pub fn new(policy: PlacementPolicy, seed: u64, hosts: usize, vnodes: usize) -> Self {
        let mut ring = HashRing::new(seed, vnodes);
        for host in 0..hosts {
            ring.insert(host);
        }
        Router {
            policy,
            ring,
            cursor: 0,
            rng: XorShift64::new(seed ^ 0xC1_05_7E_12),
        }
    }

    /// The policy the router places with.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// A host became routable (recovered from an outage, or joined).
    pub(crate) fn host_joined(&mut self, host: usize) {
        self.ring.insert(host);
    }

    /// A host stopped being routable (outage or departure).
    pub(crate) fn host_left(&mut self, host: usize) {
        self.ring.remove(host);
    }

    /// Picks a host for a request of template `key` among the live `hosts`
    /// (sorted, deduplicated). `psp_backlog` reports a host's outstanding
    /// expected PSP work; `warm_ready` reports whether a host holds a
    /// ready warm slot for the request's class. Returns `None` when no
    /// host is live.
    ///
    /// Only [`PlacementPolicy::JsqPsp`] and [`PlacementPolicy::WarmReady`]
    /// consume randomness, and only when they have at least two candidates
    /// to sample — the other policies leave the router's seeded stream
    /// untouched, so runs stay replayable across policies.
    pub fn place(
        &mut self,
        key: &TemplateKey,
        hosts: &[usize],
        psp_backlog: impl Fn(usize) -> Nanos,
        warm_ready: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        if hosts.is_empty() {
            return None;
        }
        match self.policy {
            PlacementPolicy::RoundRobin => {
                let host = hosts[self.cursor % hosts.len()];
                self.cursor = self.cursor.wrapping_add(1);
                Some(host)
            }
            PlacementPolicy::JsqPsp => {
                if hosts.len() == 1 {
                    return Some(hosts[0]);
                }
                let a = hosts[self.rng.next_below(hosts.len() as u64) as usize];
                let b = hosts[self.rng.next_below(hosts.len() as u64) as usize];
                // Ties (including a == b) break toward the lower host id.
                Some(if (psp_backlog(b), b) < (psp_backlog(a), a) {
                    b
                } else {
                    a
                })
            }
            PlacementPolicy::TemplateAffinity => self.ring.owner(key),
            PlacementPolicy::WarmReady => {
                let warm: Vec<usize> = hosts.iter().copied().filter(|&h| warm_ready(h)).collect();
                let pool: &[usize] = if warm.is_empty() { hosts } else { &warm };
                if pool.len() == 1 {
                    return Some(pool[0]);
                }
                let a = pool[self.rng.next_below(pool.len() as u64) as usize];
                let b = pool[self.rng.next_below(pool.len() as u64) as usize];
                Some(if (psp_backlog(b), b) < (psp_backlog(a), a) {
                    b
                } else {
                    a
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> TemplateKey {
        let mut m = [0u8; 48];
        m[..8].copy_from_slice(&i.to_le_bytes());
        TemplateKey::from_measurement(m)
    }

    #[test]
    fn round_robin_rotates_over_live_hosts() {
        let mut r = Router::new(PlacementPolicy::RoundRobin, 1, 3, 8);
        let hosts = [0, 1, 2];
        let picks: Vec<usize> = (0..6)
            .map(|_| {
                r.place(&key(0), &hosts, |_| Nanos::ZERO, |_| false)
                    .unwrap()
            })
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn jsq_prefers_the_shorter_backlog() {
        let mut r = Router::new(PlacementPolicy::JsqPsp, 1, 2, 8);
        let hosts = [0, 1];
        // Host 1 always has less outstanding PSP work; every two-choice
        // probe that sees both hosts (or either alone) lands on a host, and
        // host 1 must win at least the probes that compare the two.
        let mut ones = 0;
        for _ in 0..200 {
            let h = r
                .place(
                    &key(0),
                    &hosts,
                    |h| Nanos::from_millis(if h == 0 { 50 } else { 1 }),
                    |_| false,
                )
                .unwrap();
            if h == 1 {
                ones += 1;
            }
        }
        assert!(ones > 100, "shorter backlog won only {ones}/200");
    }

    #[test]
    fn affinity_is_sticky_and_survives_unrelated_leave() {
        let mut r = Router::new(PlacementPolicy::TemplateAffinity, 7, 4, 64);
        let hosts = [0, 1, 2, 3];
        let owner = r
            .place(&key(9), &hosts, |_| Nanos::ZERO, |_| false)
            .unwrap();
        for _ in 0..5 {
            assert_eq!(
                r.place(&key(9), &hosts, |_| Nanos::ZERO, |_| false),
                Some(owner)
            );
        }
        let other = (owner + 1) % 4;
        r.host_left(other);
        let live: Vec<usize> = hosts.iter().copied().filter(|&h| h != other).collect();
        assert_eq!(
            r.place(&key(9), &live, |_| Nanos::ZERO, |_| false),
            Some(owner)
        );
    }

    #[test]
    fn warm_ready_prefers_pooled_hosts_and_falls_back_to_jsq() {
        let mut r = Router::new(PlacementPolicy::WarmReady, 1, 3, 8);
        let hosts = [0, 1, 2];
        // Only host 2 holds a ready slot: it must win every probe even
        // with the worst PSP backlog.
        for _ in 0..20 {
            let h = r
                .place(
                    &key(0),
                    &hosts,
                    |h| Nanos::from_millis(h as u64 * 50),
                    |h| h == 2,
                )
                .unwrap();
            assert_eq!(h, 2);
        }
        // Nobody warm: degrades to the two-choice backlog probe, so the
        // short-backlog host must win every probe that sees both hosts.
        let pair = [0, 1];
        let mut zeros = 0;
        for _ in 0..200 {
            let h = r
                .place(
                    &key(0),
                    &pair,
                    |h| Nanos::from_millis(1 + h as u64 * 50),
                    |_| false,
                )
                .unwrap();
            if h == 0 {
                zeros += 1;
            }
        }
        assert!(zeros > 100, "short backlog won only {zeros}/200");
    }

    #[test]
    fn no_live_hosts_places_nowhere() {
        let mut r = Router::new(PlacementPolicy::RoundRobin, 1, 2, 8);
        assert_eq!(r.place(&key(0), &[], |_| Nanos::ZERO, |_| false), None);
    }
}
