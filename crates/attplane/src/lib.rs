//! Fleet-scale attestation control plane.
//!
//! `crates/attest` reproduces §2.4's report → guest-owner → wrapped-secrets
//! handshake for one launch. Real SEV deployments run that handshake
//! against a *verifier service*: certificates come from AMD's KDS, the
//! VCEK cert chain is cached, signature checks are batched across
//! concurrent launches, and a TCB/firmware rollout or a key compromise
//! forces whole hosts back through re-measurement and re-attestation.
//!
//! This crate models that service on the shared virtual clock:
//!
//! - [`CertCache`] — a VCEK cert-chain + verified-report cache keyed by
//!   *(chip id, TCB version)*, with a TTL in virtual time. It holds no
//!   trust verdicts: revocation is asked of the registry first, so it
//!   always wins over a cached hit.
//! - [`AttPlane`] — a deterministic single-server verifier queue. Every
//!   dispatch consults it and receives a [`Verification`]: a verdict plus
//!   the network-class [`WorkStep`](sevf_obs::WorkStep)s (queue wait →
//!   cert fetch/hit → batch window → signature check) that the fleet and
//!   cluster layers splice into the launch's span tree.
//! - [`VerifyMode`] — naive per-launch verification, cached, or
//!   cached + batched, where the first report in a batch window pays the
//!   signature-context setup and later reports share it (the PSP-queue
//!   analogy: amortize the fixed cost across concurrent launches).
//!
//! The chip identities are real [`ChipIdentity`](sevf_psp::ChipIdentity)
//! keys registered in a real [`AmdRootRegistry`](sevf_psp::AmdRootRegistry);
//! revoking a host here revokes it at the root, and the root is the only
//! record of it, so reports the chip signs stop verifying and the plane's
//! own verdicts refuse it — and by §6.2, every launch template derived under that
//! key must die with it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

mod cache;
mod config;
mod plane;

pub use cache::{CacheKey, CacheLookup, CertCache, StaleLookup};
pub use config::{AttPlaneConfig, FailMode, VerifyMode};
pub use plane::{
    AttPlane, AttPlaneMetrics, Verdict, Verification, STEP_BATCH_JOIN, STEP_BATCH_SETUP,
    STEP_CERT_FETCH, STEP_CERT_HIT, STEP_QUEUE_WAIT, STEP_REVOKED, STEP_STALE_HIT,
    STEP_UNAVAILABLE, STEP_VERIFY,
};

/// Errors from the attestation control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttPlaneError {
    /// The plane configuration is invalid.
    Config(&'static str),
    /// A verification named a host the plane holds no chip identity for.
    UnknownHost {
        /// The host index asked for.
        host: usize,
        /// How many hosts the plane was built with.
        hosts: usize,
    },
}

impl fmt::Display for AttPlaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttPlaneError::Config(msg) => write!(f, "invalid attestation plane config: {msg}"),
            AttPlaneError::UnknownHost { host, hosts } => {
                write!(
                    f,
                    "host {host} unknown to attestation plane ({hosts} hosts)"
                )
            }
        }
    }
}

impl Error for AttPlaneError {}

/// One-line imports for examples and downstream crates.
pub mod prelude {
    pub use crate::{
        AttPlane, AttPlaneConfig, AttPlaneError, AttPlaneMetrics, CertCache, FailMode, StaleLookup,
        Verdict, Verification, VerifyMode,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_have_no_source() {
        let e = AttPlaneError::Config("bad");
        assert!(e.to_string().contains("bad"));
        assert!(e.source().is_none());
        let e = AttPlaneError::UnknownHost { host: 7, hosts: 3 };
        assert!(e.to_string().contains("host 7"));
    }
}
