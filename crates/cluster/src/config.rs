//! Cluster run configuration: the serving knobs, the fault model, scheduled
//! outages/membership changes/drills, and the optional layers (attestation,
//! net, policy, workload curve, autoscaler) with their cross-checks.

use sevf_attplane::AttPlaneConfig;
use sevf_fleet::front::Serving;
use sevf_fleet::recovery::RecoveryConfig;
use sevf_fleet::service::ServingTier;
use sevf_fleet::workload::{Arrival, RequestMix};
use sevf_fleet::AdmissionConfig;
use sevf_net::NetConfig;
use sevf_policy::{IsolationTier, PolicyConfig};
use sevf_scale::{AutoscalerConfig, Workload};
use sevf_sim::fault::FaultConfig;
use sevf_sim::Nanos;

use crate::placement::PlacementPolicy;
use crate::ClusterError;

/// A scheduled whole-host outage (deterministic drills; random per-domain
/// outages come from the fault config instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostOutage {
    /// Host that dies.
    pub host: usize,
    /// Instant the host drops off the cluster.
    pub start: Nanos,
    /// Instant the host is back (empty cache, empty pool).
    pub end: Nanos,
}

/// What a scheduled membership event does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostEventKind {
    /// Graceful departure: queue drains through the router, in-flight work
    /// finishes, no poisoning.
    Leave,
    /// (Re)join: the host becomes routable again.
    Join,
}

/// One scheduled membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostEvent {
    /// When it happens on the virtual clock.
    pub at: Nanos,
    /// Which host.
    pub host: usize,
    /// Leave or join.
    pub kind: HostEventKind,
}

/// Configuration of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of hosts (fault domains / PSPs).
    pub hosts: usize,
    /// Serving tier every host runs at.
    pub tier: ServingTier,
    /// Arrival process offered to the whole cluster.
    pub arrival: Arrival,
    /// Request mix over catalog classes; `None` = uniform.
    pub mix: Option<RequestMix>,
    /// Total requests to serve.
    pub requests: usize,
    /// Seed for arrivals, class sampling, placement sampling, and the
    /// per-host fault domains.
    pub seed: u64,
    /// Per-host admission-controller knobs.
    pub admission: AdmissionConfig,
    /// Warm-pool target per class *per host*; the cluster-wide warm budget
    /// is `warm_target * hosts` and is what rebalancing re-spreads.
    pub warm_target: usize,
    /// Placement policy of the router.
    pub placement: PlacementPolicy,
    /// Virtual nodes per host on the consistent-hash ring.
    pub vnodes: usize,
    /// Per-host fault model; each host replays its own domain-derived plan.
    pub fault: Option<FaultConfig>,
    /// Horizon the per-host fault schedules cover.
    pub fault_horizon: Nanos,
    /// Scheduled whole-host outages (on top of any fault-domain outages).
    pub outages: Vec<HostOutage>,
    /// Scheduled graceful membership changes.
    pub events: Vec<HostEvent>,
    /// How requests recover from failures (shared by all hosts).
    pub recovery: RecoveryConfig,
    /// Attestation control plane; `None` = no verifier in the dispatch
    /// path (byte-identical to pre-attestation runs).
    pub attestation: Option<AttPlaneConfig>,
    /// Staggered TCB/firmware rollout (re-attestation storm). Requires
    /// `attestation`.
    pub tcb_rollout: Option<TcbRollout>,
    /// Key-compromise revocation drill. Requires `attestation`.
    pub revocation: Option<RevocationDrill>,
    /// Network between the router, the hosts, and the verifier. `None`
    /// (or a [`NetConfig::none`] config) bypasses message indirection
    /// entirely, replaying pre-net output byte for byte.
    pub net: Option<NetConfig>,
    /// Multi-tenant policy: tenant registry, QoS scheduler, quotas, and
    /// attestation-posture placement. `None` consumes zero randomness and
    /// replays pre-policy output byte for byte.
    pub policy: Option<PolicyConfig>,
    /// Trace-driven workload curve shaping open-loop arrivals (diurnal,
    /// flash crowd). `None` uses the fixed-rate generator, replaying
    /// pre-curve output byte for byte.
    pub workload: Option<Workload>,
    /// The autoscaler: drives membership and warm-pool targets from load
    /// between `[min_hosts, max_hosts]`, with `hosts` as the starting
    /// point. `None` keeps membership static and consumes zero randomness,
    /// replaying pre-autoscaler output byte for byte.
    pub autoscaler: Option<AutoscalerConfig>,
}

/// A staggered TCB/firmware rollout: host `h` re-measures at
/// `start + h * stagger`. Each re-measurement bumps the host's TCB
/// version — every cert/report cached under the old version silently
/// stops matching — and invalidates the host's template cache (new
/// firmware, new measurements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcbRollout {
    /// When the first host re-measures.
    pub start: Nanos,
    /// Gap between consecutive hosts.
    pub stagger: Nanos,
}

/// A key-compromise drill: `host`'s chip key is distrusted at `at`. Its
/// templates die with the key (§6.2), its in-flight guests fail over and
/// re-attest on surviving hosts, and the host leaves service for the
/// rest of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RevocationDrill {
    /// The host whose chip is distrusted.
    pub host: usize,
    /// When the revocation lands.
    pub at: Nanos,
}

impl ClusterConfig {
    /// An open-loop cluster at `rate_per_sec` aggregate offered load.
    pub fn open_loop(hosts: usize, tier: ServingTier, rate_per_sec: f64, requests: usize) -> Self {
        ClusterConfig {
            hosts,
            tier,
            arrival: Arrival::Open { rate_per_sec },
            mix: None,
            requests,
            seed: 0xC1_05_7E,
            admission: AdmissionConfig::default(),
            warm_target: 8,
            placement: PlacementPolicy::JsqPsp,
            vnodes: 64,
            fault: None,
            fault_horizon: Nanos::ZERO,
            outages: Vec::new(),
            events: Vec::new(),
            recovery: RecoveryConfig::none(),
            attestation: None,
            tcb_rollout: None,
            revocation: None,
            net: None,
            policy: None,
            workload: None,
            autoscaler: None,
        }
    }

    /// The isolation tier the cluster substrate actually provides: SEV-SNP
    /// when an attestation plane vouches for the hosts (SNP reports, VCEK
    /// chains), plain SEV otherwise.
    pub(crate) fn substrate_isolation(&self) -> IsolationTier {
        if self.attestation.is_some() {
            IsolationTier::SevSnp
        } else {
            IsolationTier::Sev
        }
    }

    /// Checks host indices, arrival shape, vnodes, fault, and recovery
    /// knobs.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self, catalog_classes: usize) -> Result<(), ClusterError> {
        if self.hosts == 0 {
            return Err(ClusterError::Config("cluster needs at least one host"));
        }
        if self.vnodes == 0 {
            return Err(ClusterError::Config("ring needs at least one virtual node"));
        }
        if let Some(mix) = &self.mix {
            if mix.max_class() >= catalog_classes {
                return Err(ClusterError::Config(
                    "mix references a class outside the catalog",
                ));
            }
        }
        self.arrival.validate().map_err(ClusterError::Config)?;
        self.admission.validate().map_err(ClusterError::Config)?;
        for outage in &self.outages {
            if outage.host >= self.hosts {
                return Err(ClusterError::Config(
                    "scheduled outage names an unknown host",
                ));
            }
            if outage.start >= outage.end {
                return Err(ClusterError::Config(
                    "scheduled outage must end after it starts",
                ));
            }
        }
        for event in &self.events {
            if event.host >= self.hosts {
                return Err(ClusterError::Config(
                    "membership event names an unknown host",
                ));
            }
        }
        if let Some(fault) = &self.fault {
            fault.validate().map_err(ClusterError::FaultPlan)?;
            if self.fault_horizon == Nanos::ZERO && !fault.is_none() {
                return Err(ClusterError::Config(
                    "fault config needs a positive fault_horizon",
                ));
            }
        }
        self.recovery.validate().map_err(ClusterError::Recovery)?;
        if let Some(att) = &self.attestation {
            att.validate().map_err(ClusterError::AttPlane)?;
        }
        if self.tcb_rollout.is_some() && self.attestation.is_none() {
            return Err(ClusterError::Config(
                "tcb_rollout needs an attestation plane",
            ));
        }
        if let Some(drill) = &self.revocation {
            if self.attestation.is_none() {
                return Err(ClusterError::Config(
                    "revocation drill needs an attestation plane",
                ));
            }
            if drill.host >= self.hosts {
                return Err(ClusterError::Config(
                    "revocation drill names an unknown host",
                ));
            }
        }
        if let Some(net) = &self.net {
            net.validate(self.hosts).map_err(ClusterError::Net)?;
        }
        if let Some(policy) = &self.policy {
            policy
                .validate(catalog_classes)
                .map_err(ClusterError::Policy)?;
            if policy.posture && self.attestation.is_none() {
                return Err(ClusterError::Config(
                    "posture enforcement needs an attestation plane",
                ));
            }
        }
        if let Some(curve) = &self.workload {
            curve.validate()?;
            curve.check_covers(self.requests)?;
            if !matches!(self.arrival, Arrival::Open { .. }) {
                return Err(ClusterError::Config(
                    "workload curves shape open-loop arrivals only",
                ));
            }
        }
        if let Some(auto) = &self.autoscaler {
            auto.validate()?;
            if !matches!(self.arrival, Arrival::Open { .. }) {
                return Err(ClusterError::Config(
                    "the autoscaler drives open-loop clusters only",
                ));
            }
            if self.hosts < auto.min_hosts || self.hosts > auto.max_hosts {
                return Err(ClusterError::Config(
                    "starting host count must sit within [min_hosts, max_hosts]",
                ));
            }
            // The network and attestation layers size their link plans and
            // per-host ledgers to a fixed fleet; elastic membership would
            // silently leave spare hosts outside those structures.
            if self.net.is_some() || self.attestation.is_some() {
                return Err(ClusterError::Config(
                    "the autoscaler cannot combine with net or attestation layers",
                ));
            }
        }
        Ok(())
    }

    /// The knobs the shared serving core reads.
    pub(crate) fn serving(&self) -> Serving<'_> {
        Serving {
            tier: self.tier,
            arrival: self.arrival,
            mix: self.mix.as_ref(),
            requests: self.requests,
            seed: self.seed,
            admission: self.admission,
            recovery: &self.recovery,
            attestation: self.attestation,
            policy: self.policy.as_ref(),
        }
    }
}
