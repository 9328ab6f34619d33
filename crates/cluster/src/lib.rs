//! `sevf-cluster`: sharded multi-host serving with PSP-aware placement.
//!
//! The fleet crate serves launch traffic on *one* host against *one* PSP.
//! This crate scales that out over the same serving core
//! ([`sevf_fleet::front::Front`] + [`sevf_fleet::host::Host`]): N hosts on
//! one shared virtual clock, each an
//! independent fault domain with its own PSP (the Fig. 12 bottleneck does
//! not pool — every host brings its own ~39 req/s cold-launch ceiling), its
//! own §6.2 template cache, and its own §7.1 warm pool. A cluster
//! [`Router`] places each arrival by a pluggable [`PlacementPolicy`]:
//!
//! * round-robin — the oblivious baseline,
//! * join-shortest-PSP-backlog with power-of-two-choices sampling, and
//! * template-affinity over a seeded consistent-hash [`ring::HashRing`],
//!   which measures each class's template once cluster-wide instead of once
//!   per host.
//!
//! The cluster-shaped failure modes live here too: whole-host outages that
//! poison in-flight launches and fail queued requests over to surviving
//! hosts, graceful membership changes, warm-budget rebalancing across the
//! live host set, and the §6.2 trust caveat exercised *across machines* —
//! a template dies with its host and must be re-measured wherever its
//! classes land next.
//!
//! Everything is deterministic: one seed fixes arrivals, class sampling,
//! placement probes, every host's fault domain (via
//! [`sevf_sim::fault::FaultPlan::generate_for_domain`]), and therefore the
//! entire report, byte for byte.
//!
//! ```
//! use sevf_cluster::prelude::*;
//! use sevf_fleet::blueprint::{Catalog, ClassSpec};
//!
//! let catalog = Catalog::build(7, &ClassSpec::quick_test_classes()).unwrap();
//! let config = ClusterConfig::open_loop(4, ServingTier::Template, 200.0, 64);
//! let report = ClusterService::new(catalog, config).unwrap().run();
//! assert!(report.metrics.conserved());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attsweep;
mod autoscale;
pub mod config;
pub mod experiment;
mod member;
pub mod metrics;
mod net;
pub mod netsweep;
pub mod placement;
pub mod policysweep;
pub mod ring;
pub mod scalesweep;
pub mod service;
pub mod tracedemo;

pub use attsweep::{att_sweep, AttSweepConfig};
pub use experiment::{cluster_sweep, ClusterSweepConfig, ClusterSweepReport, SweepCell};
pub use metrics::ClusterMetrics;
pub use netsweep::{net_sweep, NetSweepConfig};
pub use placement::{PlacementPolicy, Router};
pub use policysweep::{policy_sweep, PolicySweepConfig};
pub use ring::HashRing;
pub use scalesweep::{scale_sweep, ScaleSweepConfig};
pub use service::{
    AutoscaleRollup, ClusterConfig, ClusterReport, ClusterService, HostEvent, HostEventKind,
    HostOutage, RevocationDrill, ScaleEvent, TcbRollout,
};
pub use tracedemo::{TraceExemplar, TraceScenarios, TracedRun};

use sevf_fleet::FleetError;

/// Errors from building a cluster.
#[derive(Debug)]
pub enum ClusterError {
    /// A cluster configuration knob failed validation.
    Config(&'static str),
    /// A per-host fault plan could not be generated from its config.
    FaultPlan(&'static str),
    /// The shared recovery configuration failed validation.
    Recovery(&'static str),
    /// Building the shared catalog (or another fleet component) failed.
    Fleet(FleetError),
    /// The attestation control plane rejected its configuration.
    AttPlane(sevf_attplane::AttPlaneError),
    /// The network model rejected its configuration.
    Net(sevf_net::NetError),
    /// The multi-tenant policy engine rejected its configuration.
    Policy(sevf_policy::PolicyError),
    /// The autoscaler or a workload curve rejected its configuration.
    Scale(sevf_scale::ScaleError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Config(e) => write!(f, "invalid cluster config: {e}"),
            ClusterError::FaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            ClusterError::Recovery(e) => write!(f, "invalid recovery config: {e}"),
            ClusterError::Fleet(e) => write!(f, "fleet layer failed: {e}"),
            ClusterError::AttPlane(e) => write!(f, "attestation plane failed: {e}"),
            ClusterError::Net(e) => write!(f, "network model failed: {e}"),
            ClusterError::Policy(e) => write!(f, "policy engine failed: {e}"),
            ClusterError::Scale(e) => write!(f, "autoscaler failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Fleet(e) => Some(e),
            ClusterError::AttPlane(e) => Some(e),
            ClusterError::Net(e) => Some(e),
            ClusterError::Policy(e) => Some(e),
            ClusterError::Scale(e) => Some(e),
            ClusterError::Config(_) | ClusterError::FaultPlan(_) | ClusterError::Recovery(_) => {
                None
            }
        }
    }
}

impl From<FleetError> for ClusterError {
    fn from(e: FleetError) -> Self {
        ClusterError::Fleet(e)
    }
}

impl From<sevf_attplane::AttPlaneError> for ClusterError {
    fn from(e: sevf_attplane::AttPlaneError) -> Self {
        ClusterError::AttPlane(e)
    }
}

impl From<sevf_net::NetError> for ClusterError {
    fn from(e: sevf_net::NetError) -> Self {
        ClusterError::Net(e)
    }
}

impl From<sevf_policy::PolicyError> for ClusterError {
    fn from(e: sevf_policy::PolicyError) -> Self {
        ClusterError::Policy(e)
    }
}

impl From<sevf_scale::ScaleError> for ClusterError {
    fn from(e: sevf_scale::ScaleError) -> Self {
        ClusterError::Scale(e)
    }
}

/// The common imports for working with the cluster control plane.
pub mod prelude {
    pub use crate::attsweep::{att_sweep, AttSweepConfig};
    pub use crate::experiment::{cluster_sweep, ClusterSweepConfig, ClusterSweepReport, SweepCell};
    pub use crate::metrics::ClusterMetrics;
    pub use crate::netsweep::{net_sweep, NetSweepConfig};
    pub use crate::placement::PlacementPolicy;
    pub use crate::policysweep::{policy_sweep, PolicySweepConfig};
    pub use crate::scalesweep::{scale_sweep, ScaleSweepConfig};
    pub use crate::service::{
        AutoscaleRollup, ClusterConfig, ClusterReport, ClusterService, HostEvent, HostEventKind,
        HostOutage, RevocationDrill, ScaleEvent, TcbRollout,
    };
    pub use crate::ClusterError;
    pub use sevf_fleet::service::ServingTier;
    pub use sevf_policy::prelude::*;
    pub use sevf_scale::{AutoscalerConfig, ScalePolicy, Workload};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn cluster_error_chains_to_its_fleet_source() {
        let err = ClusterError::from(FleetError::NoClasses);
        assert!(err.source().is_some());
        assert!(err.to_string().contains("fleet layer"));
        assert!(ClusterError::Config("x").source().is_none());
    }

    #[test]
    fn cluster_error_chains_to_its_net_source() {
        let err = ClusterError::from(sevf_net::NetError::from(sevf_net::LeaseError::DurationZero));
        assert!(err.to_string().contains("network model"));
        let source = err.source().expect("net errors carry their source");
        assert!(source.source().is_some(), "NetError chains to LeaseError");
    }

    #[test]
    fn cluster_error_chains_to_its_attplane_source() {
        let err = ClusterError::from(sevf_attplane::AttPlaneError::Config(
            "fail-open staleness budget must be positive",
        ));
        assert!(err.to_string().contains("attestation plane"));
        let source = err.source().expect("attplane errors carry their source");
        assert!(source.to_string().contains("staleness budget"));
    }
}
