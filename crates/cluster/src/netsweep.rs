//! The partition-tolerance experiment: deterministic link faults under
//! load, with and without the resilient network control plane.
//!
//! One catalog, three arms, each run twice over the *same* seeded
//! [`sevf_net::LinkPlan`] — identical latency draws, loss draws, and
//! partition windows — so the only difference between the two cells of an
//! arm is the control plane itself:
//!
//! * **partition** — one host's router↔host pair is cut mid-stream and
//!   later heals. The *naive* policy keeps routing into the hole: every
//!   dispatch is lost, burns a `dispatch_timeout`, and re-enters recovery
//!   until the request's retry budget or deadline runs out. The
//!   *resilient* policy suspects the host via phi-accrual heartbeats,
//!   routes around it, expires its lease (the host parks and nacks its
//!   stranded queue), and sweeps its outstanding work over to the
//!   survivors once the lease bound makes that safe.
//! * **island** — two hosts are cut in the same window: a minority
//!   island that keeps "serving" work it can no longer report back.
//!   Epoch fencing discards the island's late completions after the
//!   failover sweep re-dispatches, so the conservation invariant holds
//!   with every request counted exactly once.
//! * **blackout** — the router↔verifier link goes dark during a
//!   staggered TCB rollout. The naive plane fails *closed* (every
//!   dispatch refused until the verifier heals); the resilient plane
//!   fails *open* within a bounded staleness budget, serving same-chip
//!   cached verdicts and queueing re-verification for the heal.
//!
//! Identical configs produce byte-identical reports (the CI replay gate
//! diffs two `--quick --json` runs of `examples/partition_drill.rs`).

use sevf_attplane::{AttPlaneConfig, FailMode};
use sevf_fleet::admission::AdmissionConfig;
use sevf_fleet::blueprint::{Catalog, ClassSpec, MB};
use sevf_fleet::recovery::RecoveryConfig;
use sevf_fleet::service::ServingTier;
use sevf_fleet::workload::RequestMix;
use sevf_net::{DetectorConfig, LeaseConfig, LinkSpec, NetConfig, Partition, PartitionScope};
use sevf_sim::Nanos;

use crate::experiment::SweepCell;
use crate::placement::PlacementPolicy;
use crate::service::{ClusterConfig, ClusterService, TcbRollout};
use crate::ClusterError;

/// Seed for catalog machines, arrivals, placement, and links. Chip
/// identities come from [`AttPlaneConfig::SEED`].
pub const SEED: u64 = 0x4E37;

/// Latency/jitter/loss model shared by every link.
pub const LINK: LinkSpec = LinkSpec::datacenter();

/// Router-side dispatch-ack timeout.
pub const DISPATCH_TIMEOUT: Nanos = Nanos::from_millis(50);

/// Host heartbeat period (resilient policy only).
pub const HEARTBEAT_EVERY: Nanos = Nanos::from_millis(50);

/// Lease-ownership knobs (resilient policy only).
pub const LEASE: LeaseConfig = LeaseConfig {
    duration: Nanos::from_millis(300),
    renew_every: Nanos::from_millis(100),
};

/// Knobs of one partition sweep. Both policies of every arm recover with
/// [`RecoveryConfig::resilient`], so the network control plane is the only
/// variable.
#[derive(Debug, Clone)]
pub struct NetSweepConfig {
    /// Request classes to serve (shared catalog for all arms).
    pub classes: Vec<ClassSpec>,
    /// Mix over those classes; `None` = uniform.
    pub mix: Option<RequestMix>,
    /// Hosts in every arm.
    pub hosts: usize,
    /// Aggregate offered load (req/s).
    pub rps: f64,
    /// Requests per cell.
    pub requests: usize,
    /// Per-host admission knobs.
    pub admission: AdmissionConfig,
    /// Network-schedule horizon; must outlive the run.
    pub horizon: Nanos,
    /// Instant every arm's partition opens.
    pub cut_start: Nanos,
    /// Instant every arm's partition heals.
    pub cut_end: Nanos,
    /// The blackout arm's staggered TCB rollout.
    pub rollout: TcbRollout,
}

impl NetSweepConfig {
    /// The headline partition sweep over the paper mix.
    pub fn paper_partition() -> Self {
        NetSweepConfig {
            classes: ClassSpec::paper_classes(16, 256 * MB),
            mix: Some(RequestMix::paper_mix()),
            hosts: 6,
            rps: 120.0,
            requests: 480,
            admission: AdmissionConfig::default(),
            horizon: Nanos::from_secs(60),
            cut_start: Nanos::from_millis(1000),
            cut_end: Nanos::from_millis(4000),
            rollout: TcbRollout {
                start: Nanos::from_millis(1500),
                stagger: Nanos::from_millis(200),
            },
        }
    }

    /// A fast sweep over the tiny test classes (tests, `--quick`).
    pub fn quick() -> Self {
        NetSweepConfig {
            classes: ClassSpec::quick_test_classes(),
            mix: Some(RequestMix::quick_test_mix()),
            hosts: 5,
            rps: 80.0,
            requests: 240,
            admission: AdmissionConfig::quick_test(),
            horizon: Nanos::from_secs(30),
            cut_start: Nanos::from_millis(500),
            cut_end: Nanos::from_millis(2000),
            rollout: TcbRollout {
                start: Nanos::from_millis(900),
                stagger: Nanos::from_millis(150),
            },
        }
    }

    /// Partition windows of an arm, over this config's cut interval.
    fn windows(&self, arm: &str) -> Vec<Partition> {
        let cut = |scope| Partition {
            scope,
            start: self.cut_start,
            end: self.cut_end,
        };
        match arm {
            "partition" => vec![cut(PartitionScope::Host(self.hosts - 1))],
            "island" => vec![
                cut(PartitionScope::Host(self.hosts - 2)),
                cut(PartitionScope::Host(self.hosts - 1)),
            ],
            _ => vec![cut(PartitionScope::Verifier)],
        }
    }
}

/// The network model of one cell. Both policies share the link model and
/// partition schedule — the same `(seed, config, hosts)` triple replays
/// the same delay and loss draws — and differ only in whether the
/// detector and leases exist.
fn net_for(cfg: &NetSweepConfig, partitions: Vec<Partition>, resilient: bool) -> NetConfig {
    NetConfig {
        link: LINK,
        partitions,
        horizon: cfg.horizon,
        dispatch_timeout: DISPATCH_TIMEOUT,
        heartbeat_every: HEARTBEAT_EVERY,
        detector: resilient.then_some(DetectorConfig),
        lease: resilient.then_some(LEASE),
    }
}

fn base_config(cfg: &NetSweepConfig) -> ClusterConfig {
    ClusterConfig {
        mix: cfg.mix.clone(),
        seed: SEED,
        admission: cfg.admission,
        placement: PlacementPolicy::JsqPsp,
        recovery: RecoveryConfig::resilient(SEED),
        ..ClusterConfig::open_loop(cfg.hosts, ServingTier::Template, cfg.rps, cfg.requests)
    }
}

/// Runs the three-arm partition sweep over one catalog: two cells per arm
/// (partition, island, blackout), labelled "naive" then "resilient".
///
/// # Errors
///
/// Propagates catalog-construction failures ([`ClusterError::Fleet`]) and
/// configuration errors, including [`ClusterError::Net`] for an invalid
/// network model.
pub fn net_sweep(cfg: &NetSweepConfig) -> Result<Vec<SweepCell>, ClusterError> {
    let catalog = Catalog::build(SEED, &cfg.classes)?;
    let mut cells = Vec::new();

    for arm in ["partition", "island", "blackout"] {
        for resilient in [false, true] {
            let mut config = base_config(cfg);
            config.net = Some(net_for(cfg, cfg.windows(arm), resilient));
            if arm == "blackout" {
                // A generous staleness budget: fail-open covers the whole
                // blackout.
                config.attestation = Some(AttPlaneConfig {
                    degrade: if resilient {
                        FailMode::Open {
                            staleness_budget: Nanos::from_secs(120),
                        }
                    } else {
                        FailMode::Closed
                    },
                    ..AttPlaneConfig::cached_batched()
                });
                config.tcb_rollout = Some(cfg.rollout);
            }
            let report = ClusterService::new(catalog.clone(), config)?.run();
            let policy = if resilient { "resilient" } else { "naive" };
            cells.push(SweepCell::new(arm, policy, report));
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ClusterReport;

    fn cell<'a>(cells: &'a [SweepCell], arm: &str, policy: &str) -> &'a ClusterReport {
        &SweepCell::find(cells, arm, policy).unwrap().report
    }

    #[test]
    fn sweep_conserves_and_is_deterministic() {
        let cfg = NetSweepConfig::quick();
        let a = net_sweep(&cfg).unwrap();
        let b = net_sweep(&cfg).unwrap();
        assert!(a.iter().all(|c| c.report.metrics.conserved()));
        assert_eq!(a.len(), 6);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn resilient_beats_naive_in_every_arm() {
        let cells = net_sweep(&NetSweepConfig::quick()).unwrap();
        for arm in ["partition", "island", "blackout"] {
            let naive = cell(&cells, arm, "naive").metrics.completed;
            let resilient = cell(&cells, arm, "resilient").metrics.completed;
            assert!(
                resilient > naive,
                "{arm}: resilient {resilient} must beat naive {naive}"
            );
        }
    }

    #[test]
    fn partition_arm_detects_and_fences_the_cut_host() {
        let cells = net_sweep(&NetSweepConfig::quick()).unwrap();
        let naive = &cell(&cells, "partition", "naive").metrics;
        let resilient = &cell(&cells, "partition", "resilient").metrics;
        // Without a detector the router keeps dispatching into the hole.
        assert!(naive.net_lost > 0, "the cut must lose naive dispatches");
        assert_eq!(naive.suspicions, 0);
        assert_eq!(naive.lease_expiries, 0);
        // The resilient plane suspects, parks, and routes around it.
        assert!(resilient.suspicions > 0, "the cut host must be suspected");
        assert!(
            resilient.suspicions_cleared > 0,
            "the heal must clear the suspicion"
        );
        assert!(resilient.lease_expiries > 0, "the cut host must park");
    }

    #[test]
    fn island_arm_fences_late_completions_exactly_once() {
        let cells = net_sweep(&NetSweepConfig::quick()).unwrap();
        let resilient = &cell(&cells, "island", "resilient").metrics;
        assert!(resilient.conserved());
        // The failover sweep re-dispatches the island's stranded work;
        // whatever the island reports after the heal is epoch-fenced.
        assert!(
            resilient.failovers > 0 || resilient.net_nacks > 0,
            "stranded island work must move or settle as nacks"
        );
    }

    #[test]
    fn blackout_arm_fails_open_within_budget() {
        let cells = net_sweep(&NetSweepConfig::quick()).unwrap();
        let naive = cell(&cells, "blackout", "naive");
        let resilient = cell(&cells, "blackout", "resilient");
        let refused = naive.attestation.unwrap().unavailable_refusals;
        assert!(
            refused > 0,
            "fail-closed must refuse launches during the blackout"
        );
        // Each refusal fails its launch as an attestation timeout, and
        // nothing else faults in this arm.
        assert_eq!(naive.metrics.faults, refused);
        let open = resilient.attestation.unwrap();
        assert!(
            open.stale_serves > 0,
            "fail-open must serve stale cached verdicts"
        );
        assert_eq!(
            open.unavailable_refusals, 0,
            "a generous staleness budget covers the whole blackout"
        );
        assert_eq!(resilient.metrics.faults, 0, "stale serves fail no launch");
    }
}
