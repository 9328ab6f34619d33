//! # sevf-policy — multi-tenant policy engine and QoS scheduling
//!
//! SEVeriFast's core observation is that SEV launch cost is a scarce,
//! *serialized* resource: every launch-measurement command funnels through
//! the PSP. In a production fleet that scarcity must be **allocated**, not
//! just queued. Tenants differ along three axes:
//!
//! * **isolation tier** — stock → SEV → SEV-ES → SEV-SNP, each buying more
//!   of the threat model at more PSP cost;
//! * **attestation posture** — none, a cached verdict within a staleness
//!   budget, or a fresh verify, plus a minimum TCB version (the
//!   VCEK-seed-extraction attack in PAPERS.md is why a tenant may refuse
//!   hosts below a firmware floor or with a distrusted chip key);
//! * **SLO class** — latency-sensitive vs batch, with a per-class deadline
//!   target and shed priority.
//!
//! This crate is the dependency-light bottom layer (sevf-sim + sevf-obs
//! only) that `sevf-fleet` and `sevf-cluster` thread through their
//! admission→dispatch paths:
//!
//! * [`Tenant`] / [`PolicySpec`] — the per-tenant contract ([`spec`]);
//! * [`PolicyEngine::evaluate`] — the single choke point every dispatch
//!   flows through, returning a [`PolicyDecision`] record
//!   (admit / degrade / reject) ([`engine`]);
//! * [`TokenBucket`] — deterministic per-tenant quota on virtual time
//!   ([`quota`]);
//! * [`WfqQueue`] — virtual-finish-time weighted-fair queueing over
//!   per-tenant backlogs with policy-aware shed ([`wfq`]).
//!
//! Everything is a pure function of (config, seed, virtual clock): no wall
//! time, no global state, no external crates. A disabled policy
//! (`Option::None` in the fleet/cluster configs) consumes zero randomness
//! and leaves the host byte-identical to the pre-policy code path.

pub mod engine;
pub mod quota;
pub mod spec;
pub mod wfq;

pub use engine::{
    HostPosture, PolicyDecision, PolicyEngine, RejectReason, TenantMetrics, TenantRollup,
};
pub use quota::TokenBucket;
pub use spec::{
    IsolationTier, PolicyConfig, PolicySpec, Posture, QuotaSpec, Scheduler, SloClass, Tenant,
};
pub use wfq::{LaneSpec, Offer, WfqQueue};

/// Everything a policy misconfiguration can say for itself.
///
/// `PolicyError` is a chain *leaf*: `ClusterError::Policy` wraps it with
/// `source()` so callers can walk from a failed sweep down to the exact
/// invalid knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// A structurally invalid [`PolicyConfig`] (empty tenant set, zero
    /// weight, zero quota rate, ...). The message names the knob.
    Config(&'static str),
    /// A tenant index outside the registry — always a caller bug.
    UnknownTenant {
        /// The offending index.
        tenant: usize,
        /// How many tenants the registry actually holds.
        tenants: usize,
    },
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::Config(what) => write!(f, "invalid policy config: {what}"),
            PolicyError::UnknownTenant { tenant, tenants } => {
                write!(f, "unknown tenant {tenant} (registry holds {tenants})")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// One-stop imports for consumers.
pub mod prelude {
    pub use crate::engine::{
        HostPosture, PolicyDecision, PolicyEngine, RejectReason, TenantMetrics, TenantRollup,
    };
    pub use crate::quota::TokenBucket;
    pub use crate::spec::{
        IsolationTier, PolicyConfig, PolicySpec, Posture, QuotaSpec, Scheduler, SloClass, Tenant,
    };
    pub use crate::wfq::{LaneSpec, Offer, WfqQueue};
    pub use crate::PolicyError;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_and_are_leaves() {
        use std::error::Error;
        let e = PolicyError::Config("no tenants");
        assert!(e.to_string().contains("no tenants"));
        assert!(e.source().is_none());
        let e = PolicyError::UnknownTenant {
            tenant: 7,
            tenants: 2,
        };
        assert!(e.to_string().contains('7'));
        assert!(e.source().is_none());
    }
}
