//! A serverless fleet control plane for SEV microVM launch traffic.
//!
//! The paper's scaling result (Fig. 12) is that SEV cold boots serialize on
//! the single-core PSP: every `LAUNCH_*` command of every guest passes
//! through one low-power core, so average startup grows linearly with
//! concurrency. §6.2 sketches shared-key template launches and §7.1
//! analyzes keep-alive warm pools as the two mitigations. This crate turns
//! those one-shot experiments into a *service*: a host agent that accepts a
//! stream of launch requests, admits and schedules them onto the host's DES
//! resources, reuses template measurements through a content-addressed
//! launch cache, keeps a warm pool topped up, and reports service-level
//! metrics.
//!
//! * [`workload`] — seeded open-loop (Poisson) and closed-loop arrival
//!   processes over a configurable request mix.
//! * [`blueprint`] — replayable launch blueprints derived from real boots,
//!   and the content-addressed [`blueprint::LaunchCache`] keyed by
//!   [`sevf_psp::TemplateKey`].
//! * [`admission`] — the admission knobs: a bounded queue with
//!   shed-on-overload behind a bounded dispatch window.
//! * [`pool`] — the §7.1 warm-pool manager with target-size/evict logic.
//! * [`front`] and [`host`] — the serving core, written once: the request
//!   front end (request table, tenant tagging, policy choke point, terminal
//!   accounting, retry/backoff, closed-loop re-issue) and the per-host
//!   machine (ladder → warm pool → admission → dispatch → fault and
//!   attestation splice → settle). `sevf-cluster` drives the same two types
//!   with N hosts behind a router.
//! * [`service`] — the single-host control plane: one front, one host, on
//!   [`sevf_sim::DesEngine::run_dynamic`].
//! * [`metrics`] — latency percentiles/histograms, queue depth over time,
//!   PSP/CPU utilization, shed/hit/miss counters, fault and availability
//!   accounting.
//! * [`recovery`] — retry backoff, per-request deadlines, per-class circuit
//!   breakers driving the degradation ladder, and PSP quiesce across
//!   firmware resets.
//! * [`experiment`] — the serving sweep behind the `figures --table fleet`
//!   output: cold vs template vs warm-pool serving at offered loads.
//! * [`chaos`] — the fault-injection sweep behind `figures --table chaos`:
//!   fault-free vs naive vs resilient fleets under a seeded fault storm.
//!
//! # Example
//!
//! ```
//! use sevf_fleet::prelude::*;
//!
//! let catalog = Catalog::build(7, &ClassSpec::quick_test_classes())?;
//! let mut config = FleetConfig::open_loop(ServingTier::Cold, 40.0, 40);
//! config.seed = 7;
//! let report = FleetService::new(catalog, config).run();
//! assert_eq!(report.metrics.completed + report.metrics.shed as usize, 40);
//! # Ok::<(), sevf_fleet::FleetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod blueprint;
pub mod chaos;
pub mod experiment;
pub mod front;
pub mod host;
pub mod metrics;
pub mod pool;
pub mod recovery;
pub mod service;
pub mod workload;

pub use admission::AdmissionConfig;
pub use blueprint::{Blueprint, Catalog, ClassSpec, LaunchCache};
pub use chaos::{chaos_sweep, ChaosConfig, ChaosReport};
pub use experiment::{serving_sweep, SweepConfig, SweepReport};
pub use front::{Front, ServeJob, Serving};
pub use host::Host;
pub use metrics::{FaultCounters, FleetMetrics};
pub use pool::WarmPool;
pub use recovery::{RecoveryConfig, RetryPolicy};
pub use service::{FleetConfig, FleetReport, FleetService, ServingTier};
pub use workload::{Arrival, RequestMix};

/// Errors from building fleet components.
#[derive(Debug)]
pub enum FleetError {
    /// A fleet configuration knob failed validation.
    Config(&'static str),
    /// A blueprint boot failed.
    Boot(sevf_vmm::VmmError),
    /// The catalog was built with no request classes.
    NoClasses,
    /// A fault plan could not be generated from its config.
    FaultPlan(&'static str),
    /// A recovery configuration failed validation.
    Recovery(&'static str),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Config(e) => write!(f, "invalid fleet config: {e}"),
            FleetError::Boot(e) => write!(f, "blueprint boot failed: {e}"),
            FleetError::NoClasses => write!(f, "catalog needs at least one request class"),
            FleetError::FaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            FleetError::Recovery(e) => write!(f, "invalid recovery config: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Boot(e) => Some(e),
            FleetError::Config(_)
            | FleetError::NoClasses
            | FleetError::FaultPlan(_)
            | FleetError::Recovery(_) => None,
        }
    }
}

impl From<sevf_vmm::VmmError> for FleetError {
    fn from(e: sevf_vmm::VmmError) -> Self {
        FleetError::Boot(e)
    }
}

/// The common imports for working with the fleet control plane.
pub mod prelude {
    pub use crate::admission::AdmissionConfig;
    pub use crate::blueprint::{Catalog, ClassSpec};
    pub use crate::chaos::{chaos_sweep, ChaosConfig, ChaosReport};
    pub use crate::recovery::{RecoveryConfig, RetryPolicy};
    pub use crate::service::{FleetConfig, FleetReport, FleetService, ServingTier};
    pub use crate::workload::{Arrival, RequestMix};
    pub use crate::FleetError;
    pub use sevf_policy::prelude::*;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn boot_errors_chain_their_source() {
        let inner = sevf_vmm::VmmError::Config("no kernel");
        let outer = FleetError::from(inner);
        let source = outer.source().expect("Boot must expose its cause");
        assert!(source.to_string().contains("no kernel"));
        assert!(outer.to_string().contains("blueprint boot failed"));
    }

    #[test]
    fn leaf_errors_have_no_source_but_display() {
        for (err, needle) in [
            (FleetError::Config("bad mix"), "bad mix"),
            (FleetError::NoClasses, "request class"),
            (FleetError::FaultPlan("bad rate"), "bad rate"),
            (FleetError::Recovery("bad jitter"), "bad jitter"),
        ] {
            assert!(err.source().is_none());
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
