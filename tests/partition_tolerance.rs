//! Partition-tolerance acceptance tests: the three-arm drill, the exact
//! conservation ledger through a split-brain, and the full error surface
//! of the network-aware control plane.

use std::error::Error;

use sevf_cluster::netsweep::{net_sweep, NetSweepConfig};
use sevf_cluster::prelude::*;
use sevf_cluster::ClusterError;
use sevf_fleet::blueprint::{Catalog, ClassSpec};
use sevf_fleet::recovery::RecoveryConfig;
use sevf_fleet::workload::RequestMix;
use sevf_fleet::FleetError;
use sevf_net::{
    DetectorConfig, LeaseConfig, LeaseError, LinkSpec, NetConfig, NetError, Partition,
    PartitionScope,
};
use sevf_sim::Nanos;

#[test]
fn resilient_policy_beats_naive_in_every_arm_and_conserves() {
    let cells = net_sweep(&NetSweepConfig::quick()).expect("partition sweep");
    assert_eq!(cells.len(), 6, "three arms, two policies each");
    for cell in &cells {
        assert!(
            cell.report.metrics.conserved(),
            "conservation broke in {}/{}",
            cell.arm,
            cell.label
        );
    }
    let get = |arm, policy| {
        let cell = SweepCell::find(&cells, arm, policy);
        &cell.expect("both policies present").report
    };
    for arm in ["partition", "island", "blackout"] {
        let naive = &get(arm, "naive").metrics;
        let resilient = &get(arm, "resilient").metrics;
        assert!(
            resilient.completed > naive.completed,
            "{arm}: resilient completed {} must strictly beat naive {}",
            resilient.completed,
            naive.completed
        );
        // The naive policy has no detector and no leases, so the
        // resilient machinery must be provably off in its cells.
        assert_eq!(naive.suspicions, 0);
        assert_eq!(naive.lease_expiries, 0);
    }
    // The blackout arm is the degradation story: fail-closed refuses,
    // fail-open serves stale within budget and re-verifies on heal.
    let closed = get("blackout", "naive").attestation.unwrap();
    let open = get("blackout", "resilient").attestation.unwrap();
    assert!(closed.unavailable_refusals > 0);
    assert!(open.stale_serves > 0);
    assert!(open.reverifies > 0, "stale verdicts re-verify on heal");
}

#[test]
fn split_brain_ledger_is_exact_with_zero_double_counted_completions() {
    // A minority island of two hosts keeps serving work it cannot report
    // while the router fails that same work over to the survivor. At the
    // heal the island's late completions arrive under a stale dispatch
    // epoch and must be discarded — the five terminal states partition
    // the issued stream with no remainder and no double counting.
    let cut = |host| Partition {
        scope: PartitionScope::Host(host),
        start: Nanos::from_millis(400),
        end: Nanos::from_millis(1400),
    };
    let config = ClusterConfig {
        mix: Some(RequestMix::quick_test_mix()),
        placement: PlacementPolicy::JsqPsp,
        recovery: RecoveryConfig::resilient(0x4E37),
        net: Some(NetConfig {
            link: LinkSpec::datacenter(),
            partitions: vec![cut(1), cut(2)],
            horizon: Nanos::from_secs(20),
            dispatch_timeout: Nanos::from_millis(50),
            heartbeat_every: Nanos::from_millis(50),
            detector: Some(DetectorConfig),
            lease: Some(LeaseConfig {
                duration: Nanos::from_millis(300),
                renew_every: Nanos::from_millis(100),
            }),
        }),
        ..ClusterConfig::open_loop(3, ServingTier::Template, 120.0, 240)
    };
    let catalog = Catalog::build(0x4E37, &ClassSpec::quick_test_classes()).unwrap();
    let report = ClusterService::new(catalog, config).unwrap().run();
    let m = &report.metrics;
    assert_eq!(
        m.completed as u64 + m.shed + m.breaker_sheds + m.timeouts + m.failed,
        m.issued as u64,
        "split-brain broke the conservation ledger"
    );
    assert!(m.suspicions > 0, "the island must be suspected");
    assert!(m.lease_expiries > 0, "island hosts must park");
    assert!(m.net_lost > 0, "the cut must lose messages");
    assert!(m.completed > 0, "the survivor must keep serving");
    // Whatever duplicates the island produced were attempts the epoch
    // fence suppressed, never extra completions in the ledger above.
    assert!(m.completed <= m.issued);
}

/// Walks a chained error: every hop must render a non-empty Display and
/// the chain must terminate.
fn walk(err: &(dyn Error + 'static)) -> Vec<String> {
    let mut hops = Vec::new();
    let mut cur: Option<&(dyn Error + 'static)> = Some(err);
    while let Some(e) = cur {
        let text = e.to_string();
        assert!(!text.is_empty(), "an error variant rendered empty");
        hops.push(text);
        cur = e.source();
        assert!(hops.len() < 8, "error chain did not terminate");
    }
    hops
}

#[test]
fn every_error_variant_displays_and_chains_to_its_root() {
    // NetError: every variant, with sources where they exist.
    let net_cases: Vec<(NetError, bool, &str)> = vec![
        (NetError::Config("horizon must be positive"), false, "net"),
        (NetError::from(LeaseError::DurationZero), true, "lease"),
        (NetError::from(LeaseError::RenewTooSlow), true, "lease"),
    ];
    for (err, has_source, what) in &net_cases {
        let hops = walk(err);
        assert_eq!(
            err.source().is_some(),
            *has_source,
            "{what}: unexpected source for {err}"
        );
        assert!(hops.len() == if *has_source { 2 } else { 1 });
    }

    // FleetError: every variant.
    let fleet_cases: Vec<(FleetError, bool)> = vec![
        (
            FleetError::Boot(sevf_vmm::VmmError::Config("no kernel")),
            true,
        ),
        (FleetError::NoClasses, false),
        (
            FleetError::Config("closed loop needs at least one user"),
            false,
        ),
        (FleetError::FaultPlan("period must be positive"), false),
        (
            FleetError::Recovery("max_attempts must be at least 1"),
            false,
        ),
    ];
    for (err, has_source) in &fleet_cases {
        walk(err);
        assert_eq!(err.source().is_some(), *has_source, "fleet: {err}");
    }

    // AttPlaneError: every variant.
    let att_cases: Vec<sevf_attplane::AttPlaneError> = vec![
        sevf_attplane::AttPlaneError::Config("fail-open staleness budget must be positive"),
        sevf_attplane::AttPlaneError::UnknownHost { host: 9, hosts: 4 },
    ];
    for err in &att_cases {
        walk(err);
        assert!(err.source().is_none());
    }

    // ClusterError: every variant; the net variant chains two deep
    // (ClusterError -> NetError -> LeaseError).
    let cluster_cases: Vec<(ClusterError, usize)> = vec![
        (ClusterError::Config("at least one host"), 1),
        (ClusterError::FaultPlan("period must be positive"), 1),
        (ClusterError::Recovery("deadline must be positive"), 1),
        (ClusterError::from(FleetError::NoClasses), 2),
        (
            ClusterError::from(sevf_attplane::AttPlaneError::UnknownHost { host: 1, hosts: 1 }),
            2,
        ),
        (
            ClusterError::from(NetError::from(LeaseError::RenewTooSlow)),
            3,
        ),
        (
            ClusterError::from(sevf_policy::PolicyError::Config("tenant registry is empty")),
            2,
        ),
        (
            ClusterError::from(FleetError::Boot(sevf_vmm::VmmError::Config("no kernel"))),
            3,
        ),
        // The autoscaler chains one deep for config knobs and two deep
        // when a workload curve is the root cause
        // (ClusterError -> ScaleError -> CurveError).
        (
            ClusterError::from(sevf_scale::ScaleError::Config(
                "max_hosts must be >= min_hosts",
            )),
            2,
        ),
        (
            ClusterError::from(sevf_scale::ScaleError::Workload(
                sevf_scale::CurveError::PeakBelowBase,
            )),
            3,
        ),
    ];
    for (err, depth) in &cluster_cases {
        let hops = walk(err);
        assert_eq!(hops.len(), *depth, "cluster chain depth for: {err}");
    }

    // PolicyError: a chain leaf — depth 1 on its own, depth 2 behind the
    // cluster wrapper.
    let policy_cases: Vec<sevf_policy::PolicyError> = vec![
        sevf_policy::PolicyError::Config("quota needs rate > 0 and burst >= 1"),
        sevf_policy::PolicyError::UnknownTenant {
            tenant: 3,
            tenants: 1,
        },
    ];
    for err in &policy_cases {
        let hops = walk(err);
        assert_eq!(hops.len(), 1, "policy errors are leaves: {err}");
        assert_eq!(
            walk(&ClusterError::Policy(err.clone())).len(),
            2,
            "cluster wrapper adds exactly one hop"
        );
    }
}
