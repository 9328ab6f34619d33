//! Lease-based dispatch ownership.
//!
//! Split-brain discipline needs both sides to give something up. The
//! *host* holds a time-bounded lease ([`HostLease`]): when renewals stop
//! arriving — partition, loss streak, or a router that has stopped
//! trusting it — the lease lapses and the host parks: it refuses new
//! dispatches, empties its queue back to the router, and poisons work in
//! flight rather than completing requests the router may already have
//! failed over. The *router* keeps a [`LeaseLedger`]: for every host it
//! tracks the latest instant any lease it ever granted could still be
//! live (`last grant sent + max link delay + lease duration`), and it
//! refuses to fail a suspected host's work over before that instant.
//! Together the two bounds guarantee no request is ever *served* by two
//! hosts under current epochs, which is what keeps the conservation
//! invariant exact through a partition.

use sevf_sim::Nanos;

use crate::NetError;

/// Knobs of the lease protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// How long one grant keeps a host serving.
    pub duration: Nanos,
    /// Gap between consecutive renewals from the router.
    pub renew_every: Nanos,
}

impl LeaseConfig {
    /// Checks the knobs.
    ///
    /// # Errors
    ///
    /// Returns the specific [`LeaseError`].
    pub fn validate(&self) -> Result<(), NetError> {
        if self.duration == Nanos::ZERO {
            return Err(LeaseError::DurationZero.into());
        }
        if self.renew_every == Nanos::ZERO || self.renew_every >= self.duration {
            return Err(LeaseError::RenewTooSlow.into());
        }
        Ok(())
    }
}

/// Why a lease configuration was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseError {
    /// Leases must last a positive duration.
    DurationZero,
    /// Renewals must come strictly faster than leases lapse.
    RenewTooSlow,
}

impl std::fmt::Display for LeaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseError::DurationZero => write!(f, "lease duration must be positive"),
            LeaseError::RenewTooSlow => {
                write!(
                    f,
                    "lease renewals must be positive and faster than the duration"
                )
            }
        }
    }
}

impl std::error::Error for LeaseError {}

/// The host side of one lease: valid until the last delivered grant plus
/// the duration, and not parked.
///
/// A lease that lapses with no grant extending it *parks* (the host
/// empties its queue and refuses work) and stays parked until the next
/// grant lands; repeated expiry checks park it once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostLease {
    until: Nanos,
    parked: bool,
}

impl HostLease {
    /// A lease granted at time zero.
    pub fn initial(config: LeaseConfig) -> Self {
        HostLease {
            until: config.duration,
            parked: false,
        }
    }

    /// A grant delivered at `at` extends the lease to `at + duration`
    /// (grants can arrive out of order through jittered links; the lease
    /// is monotone) and unparks it.
    pub fn renew(&mut self, at: Nanos, config: LeaseConfig) {
        self.until = self.until.max(at + config.duration);
        self.parked = false;
    }

    /// Whether the host may accept and complete dispatches at `now`.
    pub fn valid_at(&self, now: Nanos) -> bool {
        !self.parked && now < self.until
    }

    /// The instant the lease lapses.
    pub fn expiry(&self) -> Nanos {
        self.until
    }

    /// Whether the lease is parked: it lapsed, and no grant has landed
    /// since.
    pub fn parked(&self) -> bool {
        self.parked
    }

    /// An expiry check at `now`: a lease that has lapsed parks. Returns
    /// whether it parked now — false if it is still valid or was already
    /// parked.
    pub fn park_if_lapsed(&mut self, now: Nanos) -> bool {
        if self.parked || now < self.until {
            return false;
        }
        self.parked = true;
        true
    }
}

/// The router side: per host, the latest instant any granted lease could
/// still be live.
#[derive(Debug, Clone)]
pub struct LeaseLedger {
    deadline: Vec<Nanos>,
    duration: Nanos,
    margin: Nanos,
}

impl LeaseLedger {
    /// A ledger for `hosts` hosts whose initial leases were granted at
    /// time zero. `margin` is the worst-case one-way link delay: a grant
    /// sent at `t` cannot make a host's lease outlive
    /// `t + margin + duration`.
    pub fn new(hosts: usize, config: LeaseConfig, margin: Nanos) -> Self {
        LeaseLedger {
            deadline: vec![margin + config.duration; hosts],
            duration: config.duration,
            margin,
        }
    }

    /// Records a renewal *sent* to `host` at `sent_at` (delivery is
    /// irrelevant for safety: the bound covers the delivered case).
    pub fn on_grant(&mut self, host: usize, sent_at: Nanos) {
        let bound = sent_at + self.margin + self.duration;
        self.deadline[host] = self.deadline[host].max(bound);
    }

    /// The instant from which the router may safely assume `host` holds
    /// no live lease (and so cannot complete current-epoch work).
    pub fn safe_at(&self, host: usize) -> Nanos {
        self.deadline[host]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LeaseConfig {
        LeaseConfig {
            duration: Nanos::from_millis(300),
            renew_every: Nanos::from_millis(100),
        }
    }

    #[test]
    fn host_lease_is_monotone_under_reordered_grants() {
        let mut lease = HostLease::initial(cfg());
        assert!(lease.valid_at(Nanos::from_millis(299)));
        assert!(!lease.valid_at(Nanos::from_millis(300)));
        lease.renew(Nanos::from_millis(200), cfg());
        assert_eq!(lease.expiry(), Nanos::from_millis(500));
        // A straggler grant from earlier must not shrink the lease.
        lease.renew(Nanos::from_millis(100), cfg());
        assert_eq!(lease.expiry(), Nanos::from_millis(500));
    }

    #[test]
    fn a_lapsed_lease_parks_once() {
        let mut lease = HostLease::initial(cfg());
        assert!(lease.park_if_lapsed(Nanos::from_millis(300)));
        assert!(lease.parked());
        // A second check, at the same instant or later, parks nothing new.
        assert!(!lease.park_if_lapsed(Nanos::from_millis(300)));
        assert!(!lease.park_if_lapsed(Nanos::from_millis(900)));
    }

    #[test]
    fn a_parked_lease_is_invalid_until_a_grant_unparks_it() {
        let mut lease = HostLease::initial(cfg());
        assert!(lease.park_if_lapsed(Nanos::from_millis(350)));
        // Parked means refused, at every instant, whatever the expiry says.
        assert!(!lease.valid_at(Nanos::ZERO));
        assert!(!lease.valid_at(Nanos::from_millis(200)));
        assert!(!lease.valid_at(Nanos::from_millis(400)));
        lease.renew(Nanos::from_millis(400), cfg());
        assert!(!lease.parked());
        assert_eq!(lease.expiry(), Nanos::from_millis(700));
        assert!(lease.valid_at(Nanos::from_millis(400)));
        assert!(!lease.valid_at(Nanos::from_millis(700)));
    }

    #[test]
    fn an_early_expiry_check_does_not_park() {
        let mut lease = HostLease::initial(cfg());
        lease.renew(Nanos::from_millis(200), cfg());
        // The check scheduled for the initial expiry fires after a grant
        // moved it: the lease is still valid and stays unparked.
        assert!(!lease.park_if_lapsed(Nanos::from_millis(300)));
        assert!(!lease.parked());
        assert!(lease.valid_at(Nanos::from_millis(300)));
        assert!(lease.park_if_lapsed(Nanos::from_millis(500)));
    }

    #[test]
    fn ledger_bound_always_covers_the_host_lease() {
        // Safety property: for any grant the router sent at t, a host
        // that received it at t + d (d <= margin) holds a lease expiring
        // at t + d + duration <= ledger.safe_at(host).
        let margin = Nanos::from_micros(300);
        let mut ledger = LeaseLedger::new(2, cfg(), margin);
        let mut lease = HostLease::initial(cfg());
        for k in 1..=20u64 {
            let sent = Nanos::from_millis(100 * k);
            ledger.on_grant(0, sent);
            let delivered = sent + Nanos::from_micros(50 * (k % 7));
            lease.renew(delivered, cfg());
            assert!(
                lease.expiry() <= ledger.safe_at(0),
                "grant {k}: host outlives the router's bound"
            );
        }
        // The unrenewed host keeps its initial bound.
        assert_eq!(ledger.safe_at(1), margin + cfg().duration);
    }

    #[test]
    fn config_validation_names_the_failure() {
        assert!(cfg().validate().is_ok());
        let bad = LeaseConfig {
            duration: Nanos::ZERO,
            ..cfg()
        };
        assert!(matches!(
            bad.validate(),
            Err(crate::NetError::Lease(LeaseError::DurationZero))
        ));
        let bad = LeaseConfig {
            renew_every: Nanos::from_millis(300),
            ..cfg()
        };
        assert!(bad.validate().is_err());
    }
}
