//! `sevf-net`: a deterministic network layer on the shared virtual clock.
//!
//! Every fault the tree survives elsewhere is local to a host (PSP
//! transients, firmware resets, warm-guest crashes) or scripted as a clean
//! whole-host outage. This crate models the *network between* the router,
//! the hosts, and the attestation verifier, so the control plane can face
//! the hard distributed failure modes a production SEV fleet actually
//! sees: a host that is alive but unreachable, a router whose liveness
//! view is stale, and a verifier cut off mid re-attestation storm.
//!
//! Three pieces, all pure functions of a seed:
//!
//! * [`LinkPlan`] — per-link latency/jitter/loss and scheduled partitions,
//!   in the style of [`sevf_sim::fault::FaultPlan`]: every per-message
//!   draw is a stateless hash of `(seed, link, token)`, so consulting the
//!   plan never perturbs any other random stream, and a
//!   [`NetConfig::none`] plan is a guaranteed no-op (callers bypass the
//!   message layer entirely, replaying pre-net output byte for byte).
//! * [`PhiDetector`] — a deterministic phi-accrual-style failure detector
//!   fed by per-host heartbeats through the lossy links. Suspicion, not
//!   scripted death, drives failover; a slow link under a live host makes
//!   false suspicion a real scenario. State is `Vec`-indexed by host id,
//!   so verdicts are independent of any iteration order.
//! * [`LeaseLedger`] — time-bounded dispatch leases. A host stops
//!   accepting (and completing) work when its lease expires, and the
//!   router only fails a host's work over once every lease it ever
//!   granted that host has provably lapsed — the two sides of the
//!   split-brain bargain that keeps the conservation invariant exact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detector;
pub mod lease;
pub mod link;

pub use detector::{DetectorConfig, PhiDetector};
pub use lease::{HostLease, LeaseConfig, LeaseError, LeaseLedger};
pub use link::{LinkId, LinkPlan, LinkSpec, NetConfig, Partition, PartitionScope};

/// Errors from building the network layer.
#[derive(Debug)]
pub enum NetError {
    /// A network configuration knob failed validation.
    Config(&'static str),
    /// The lease configuration was invalid.
    Lease(LeaseError),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Config(e) => write!(f, "invalid net config: {e}"),
            NetError::Lease(e) => write!(f, "invalid lease config: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Lease(e) => Some(e),
            NetError::Config(_) => None,
        }
    }
}

impl From<LeaseError> for NetError {
    fn from(e: LeaseError) -> Self {
        NetError::Lease(e)
    }
}

/// The common imports for working with the network layer.
pub mod prelude {
    pub use crate::detector::{DetectorConfig, PhiDetector};
    pub use crate::lease::{HostLease, LeaseConfig, LeaseLedger};
    pub use crate::link::{LinkId, LinkPlan, LinkSpec, NetConfig, Partition, PartitionScope};
    pub use crate::NetError;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn net_error_chains_to_its_sources() {
        let err = NetError::from(LeaseError::DurationZero);
        assert!(err.to_string().contains("lease"));
        let source = err.source().expect("lease errors carry their source");
        assert!(!source.to_string().is_empty());

        assert!(NetError::Config("x").source().is_none());
    }
}
