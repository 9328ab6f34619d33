//! Differential test of the one serving core under both services.
//!
//! `FleetService` and `ClusterService` are thin drivers over the same
//! request front end and per-host machine (`sevf_fleet::front`,
//! `sevf_fleet::host`). A 1-host cluster — round-robin placement, every
//! optional layer off, the fleet's plan generated for fault domain 0 —
//! must therefore replay the fleet exactly: every terminal counter, the
//! host's whole `FleetMetrics` record (faults by kind, cache and warm hits
//! and misses, evictions, degraded dispatches, breaker trips, the deepest
//! queue, time degraded, utilization), the makespan, and the full latency
//! multiset, on one seed, across {cold, template, warm} × {open, closed} ×
//! {fault-free, transient+resilient, transient+naive, storm+resilient,
//! storm+naive}.
//!
//! No cell is skipped. The six storm+resilient cells (resets × quiesce)
//! are where the retry deferral shows: a retry that would fire while every
//! host the router could pick is inside a known PSP reset outage waits for
//! the first of them to be back. That rule lives once, in
//! `Front::handle_failure`; on one host "every candidate" is the one host,
//! so the cluster defers exactly when the fleet does.
//!
//! Both drivers also refuse the same bad arrival shapes up front: an
//! open-loop rate that is not finite and positive is a config error, not
//! a panic halfway through the run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sevf_cluster::prelude::*;
use sevf_fleet::blueprint::{Catalog, ClassSpec};
use sevf_fleet::metrics::FleetMetrics;
use sevf_fleet::recovery::RecoveryConfig;
use sevf_fleet::service::{FleetConfig, FleetService};
use sevf_fleet::workload::Arrival;
use sevf_fleet::FleetError;
use sevf_sim::fault::{FaultConfig, FaultPlan};
use sevf_sim::Nanos;

const SEED: u64 = 0xC0DE;
const REQUESTS: usize = 320;
const HORIZON: Nanos = Nanos::from_secs(12);

/// The storm's per-launch faults without its firmware resets.
fn transient() -> FaultConfig {
    FaultConfig {
        psp_reset_period: None,
        ..FaultConfig::storm()
    }
}

/// Everything the two reports must agree on.
#[derive(Debug, PartialEq)]
struct Digest {
    completed: usize,
    shed: u64,
    breaker_sheds: u64,
    timeouts: u64,
    failed: u64,
    rejected: u64,
    retries: u64,
    faults: u64,
    makespan: Nanos,
    sorted_latencies_ms: Vec<f64>,
    /// The one host's own record: the fleet's report with the front end's
    /// counts taken out, or the cluster's `hosts[0]`.
    host: FleetMetrics,
}

/// The fleet's report as the host alone kept it: the request-level counts
/// the front end keeps are 0 on a cluster host's record.
fn host_record(m: &FleetMetrics) -> FleetMetrics {
    FleetMetrics {
        breaker_sheds: 0,
        timeouts: 0,
        failed: 0,
        rejected: 0,
        retries: 0,
        ..m.clone()
    }
}

fn sorted(mut ms: Vec<f64>) -> Vec<f64> {
    ms.sort_by(f64::total_cmp);
    ms
}

fn fleet_digest(
    catalog: &Catalog,
    tier: ServingTier,
    arrival: Arrival,
    fault: Option<&FaultConfig>,
    recovery: RecoveryConfig,
) -> Digest {
    let config = FleetConfig {
        arrival,
        seed: SEED,
        recovery,
        fault: fault.map(|f| FaultPlan::generate_for_domain(SEED, 0, f.clone(), HORIZON).unwrap()),
        ..FleetConfig::open_loop(tier, 0.0, REQUESTS)
    };
    let m = FleetService::new(catalog.clone(), config).run().metrics;
    assert_eq!(m.completed + m.lost() as usize, REQUESTS, "fleet conserves");
    Digest {
        completed: m.completed,
        shed: m.shed,
        breaker_sheds: m.breaker_sheds,
        timeouts: m.timeouts,
        failed: m.failed,
        rejected: m.rejected,
        retries: m.retries,
        faults: m.faults.total(),
        makespan: m.makespan,
        sorted_latencies_ms: sorted(m.latencies.iter().map(|l| l.as_millis_f64()).collect()),
        host: host_record(&m),
    }
}

fn cluster_digest(
    catalog: &Catalog,
    tier: ServingTier,
    arrival: Arrival,
    fault: Option<&FaultConfig>,
    recovery: RecoveryConfig,
) -> Digest {
    let config = ClusterConfig {
        arrival,
        seed: SEED,
        recovery,
        placement: PlacementPolicy::RoundRobin,
        fault: fault.cloned(),
        fault_horizon: HORIZON,
        ..ClusterConfig::open_loop(1, tier, 0.0, REQUESTS)
    };
    let m = ClusterService::new(catalog.clone(), config)
        .unwrap()
        .run()
        .metrics;
    assert!(m.conserved(), "cluster conserves");
    assert_eq!(m.issued, REQUESTS);
    Digest {
        completed: m.completed,
        shed: m.shed,
        breaker_sheds: m.breaker_sheds,
        timeouts: m.timeouts,
        failed: m.failed,
        rejected: m.rejected,
        retries: m.retries,
        faults: m.faults,
        makespan: m.makespan,
        host: m.hosts[0].clone(),
        sorted_latencies_ms: sorted(m.latencies_ms),
    }
}

#[test]
fn one_host_cluster_replays_the_fleet_on_the_whole_grid() {
    let catalog = Catalog::build(17, &ClassSpec::quick_test_classes()).unwrap();
    let arrivals = [
        ("open", Arrival::Open { rate_per_sec: 60.0 }),
        (
            "closed",
            Arrival::Closed {
                users: 24,
                think: Nanos::from_millis(40),
            },
        ),
    ];
    let resilient = RecoveryConfig::resilient(SEED);
    let naive = RecoveryConfig::none();
    let arms = [
        ("fault-free", None, resilient),
        ("transient+resilient", Some(transient()), resilient),
        ("transient+naive", Some(transient()), naive),
        ("storm+resilient", Some(FaultConfig::storm()), resilient),
        ("storm+naive", Some(FaultConfig::storm()), naive),
    ];
    let mut exact = 0;
    let mut faulted = 0;
    // Trips, degraded dispatches, warm misses, queue depth, and cells with
    // time degraded: the host counters compared below are not all zero.
    // (No cell evicts a warm guest: targets never shrink here.)
    let mut exercised = [0u64; 5];
    for tier in [
        ServingTier::Cold,
        ServingTier::Template,
        ServingTier::WarmPool,
    ] {
        for (loop_name, arrival) in arrivals {
            for (arm, fault, recovery) in &arms {
                let fleet = fleet_digest(&catalog, tier, arrival, fault.as_ref(), *recovery);
                let cluster = cluster_digest(&catalog, tier, arrival, fault.as_ref(), *recovery);
                faulted += fleet.faults.min(1);
                let h = &fleet.host;
                exercised[0] += h.breaker_trips;
                exercised[1] += h.degraded_dispatches;
                exercised[2] += h.warm_misses;
                exercised[3] += h.max_queue_depth as u64;
                exercised[4] += u64::from(h.time_degraded > Nanos::ZERO);
                assert_eq!(fleet, cluster, "{} / {loop_name} / {arm}", tier.name());
                exact += 1;
            }
        }
    }
    assert_eq!(exact, 30);
    assert!(
        exercised.iter().all(|&n| n > 0),
        "a host counter stayed 0 on every cell: {exercised:?}"
    );
    // The faulty arms really exercised the failure paths being compared.
    assert!(
        faulted >= 20,
        "only {faulted} of 24 faulty cells saw a fault"
    );
}

#[test]
fn unusable_open_loop_rates_are_config_errors_in_both_drivers() {
    let catalog = Catalog::build(17, &ClassSpec::quick_test_classes()).unwrap();
    for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let fleet = FleetConfig::open_loop(ServingTier::Template, rate, 10);
        let refused = fleet.validate(catalog.len());
        assert!(
            matches!(refused, Err(FleetError::Config(_))),
            "fleet took {rate}"
        );
        // `FleetService::new` has no `Result`: it panics with the config
        // text at construction, before any arrival gap is drawn.
        let built = catch_unwind(AssertUnwindSafe(|| {
            FleetService::new(catalog.clone(), fleet.clone())
        }));
        let text = *built
            .expect_err("fleet built")
            .downcast::<String>()
            .unwrap();
        assert_eq!(text, refused.unwrap_err().to_string());

        let cluster = ClusterConfig::open_loop(2, ServingTier::Template, rate, 10);
        let refused = ClusterService::new(catalog.clone(), cluster);
        assert!(
            matches!(refused, Err(ClusterError::Config(_))),
            "cluster took {rate}"
        );
    }
}
