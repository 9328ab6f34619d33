//! Cross-layer observability invariants: the span trees `run_traced`
//! assembles must agree — exactly, on the shared virtual clock — with the
//! metrics the fleet and cluster control planes report.
//!
//! The battery ([`sevf_obs::invariants`]) checks, per completed request:
//! one root span, children nested and tiling their parents, PSP spans on
//! capacity-1 resources never overlapping (Fig. 12 structurally), and the
//! root/leaf-sum durations equal to the latency the metrics recorded. The
//! chaos tests replay the seeded fault storm and require every span-side
//! count (retries, sheds, faults, failovers) to match its counter.

use sevf_fleet::blueprint::{Catalog, ClassSpec};
use sevf_fleet::chaos::{self, ChaosConfig};
use sevf_fleet::recovery::RecoveryConfig;
use sevf_fleet::service::{FleetConfig, FleetService, ServingTier};
use sevf_fleet::workload::RequestMix;
use sevf_obs::{invariants, Histogram, MarkerKind, MarkerRec, Outcome, SpanKind, TraceLog};
use sevf_sim::fault::{FaultConfig, FaultKind, FaultPlan};
use sevf_sim::rng::XorShift64;
use sevf_sim::{stats, Nanos, RunTrace};

fn catalog() -> Catalog {
    Catalog::build(17, &ClassSpec::quick_test_classes()).unwrap()
}

/// Requests that terminated with `outcome`.
fn outcomes(log: &TraceLog, outcome: Outcome) -> usize {
    log.requests_with_outcome(outcome).len()
}

/// Retry backoff spans (one per retry dispatched later).
fn backoffs(log: &TraceLog) -> usize {
    log.spans
        .iter()
        .filter(|s| s.kind == SpanKind::Backoff)
        .count()
}

/// Fault markers of any kind.
fn faults(log: &TraceLog) -> usize {
    let fault = |m: &&MarkerRec| matches!(m.kind, MarkerKind::Fault(_));
    log.markers.iter().filter(fault).count()
}

/// Completed requests paired with their metrics latencies. Fleet latencies
/// are recorded in completion order, which is exactly the order terminal
/// outcomes were recorded in, so the zip is positional and exact.
fn completed_pairs(log: &TraceLog, latencies: &[Nanos]) -> Vec<(usize, Nanos)> {
    let requests = log.requests_with_outcome(Outcome::Completed);
    assert_eq!(requests.len(), latencies.len());
    requests
        .into_iter()
        .zip(latencies.iter().copied())
        .collect()
}

#[test]
fn fleet_fault_free_spans_obey_the_battery() {
    let config = FleetConfig {
        mix: Some(RequestMix::quick_test_mix()),
        ..FleetConfig::open_loop(ServingTier::Cold, 40.0, 60)
    };
    let (report, log) = FleetService::new(catalog(), config).run_traced();
    assert!(report.metrics.completed > 0);
    let pairs = completed_pairs(&log, &report.metrics.latencies);
    invariants::check_completed(&log, &pairs).unwrap();
    // Fault-free run: no fault markers, no retries, no backoff spans.
    assert_eq!(faults(&log), 0);
    assert_eq!(backoffs(&log), 0);
}

#[test]
fn fleet_template_and_warm_tiers_also_pass_the_battery() {
    for tier in [ServingTier::Template, ServingTier::WarmPool] {
        let config = FleetConfig {
            warm_target: 8,
            ..FleetConfig::open_loop(tier, 60.0, 80)
        };
        let (report, log) = FleetService::new(catalog(), config).run_traced();
        assert!(report.metrics.completed > 0, "{tier:?} completed nothing");
        let pairs = completed_pairs(&log, &report.metrics.latencies);
        invariants::check_completed(&log, &pairs).unwrap();
    }
}

/// The PR-2 fault storm, replayed traced: every span-side count must equal
/// its metrics counter, and the conservation law must hold on both sides.
#[test]
fn fleet_chaos_spans_match_fault_counters_exactly() {
    let chaos = ChaosConfig::quick();
    let requests = 200;
    let load = 60.0;
    let horizon = Nanos::from_nanos((requests as f64 / load * 2.0 * 1e9) as u64);
    let plan = FaultPlan::generate(chaos::SEED, FaultConfig::storm(), horizon).unwrap();
    let config = FleetConfig {
        mix: chaos.mix.clone(),
        admission: chaos.admission,
        fault: Some(plan),
        recovery: RecoveryConfig::resilient(chaos::SEED),
        ..FleetConfig::open_loop(ServingTier::Template, load, requests)
    };
    let (report, log) = FleetService::new(catalog(), config).run_traced();
    let m = &report.metrics;
    assert!(m.faults.total() > 0, "storm injected nothing");

    // Terminal outcomes, one per issued request (conservation in span form).
    assert_eq!(log.outcomes.len(), requests);
    assert_eq!(outcomes(&log, Outcome::Completed), m.completed);
    assert_eq!(outcomes(&log, Outcome::Shed) as u64, m.shed);
    assert_eq!(outcomes(&log, Outcome::BreakerShed) as u64, m.breaker_sheds);
    assert_eq!(outcomes(&log, Outcome::Timeout) as u64, m.timeouts);
    assert_eq!(outcomes(&log, Outcome::Failed) as u64, m.failed);
    assert_eq!(m.completed + m.lost() as usize, requests);

    // Retries and faults, span-side == counter-side, per kind.
    assert_eq!(backoffs(&log) as u64, m.retries);
    assert_eq!(faults(&log) as u64, m.faults.total());
    let fault = |kind| log.count_marker(MarkerKind::Fault(kind)) as u64;
    assert_eq!(fault(FaultKind::PspTransient), m.faults.psp_transient);
    assert_eq!(fault(FaultKind::PspReset), m.faults.psp_reset);
    assert_eq!(fault(FaultKind::WarmCrash), m.faults.warm_crash);
    assert_eq!(fault(FaultKind::AttestTimeout), m.faults.attest_timeout);
    assert_eq!(fault(FaultKind::AttestError), m.faults.attest_error);

    // Structure still holds under the storm.
    let pairs = completed_pairs(&log, &m.latencies);
    invariants::check_completed(&log, &pairs).unwrap();
}

/// A host counts a breaker trip on the line that records its marker, so
/// under the storm the two agree: on the fleet's one host, and on a 1-host
/// cluster, which replays the fleet exactly (`tests/serving_core.rs`).
#[test]
fn breaker_trips_equal_their_markers_in_the_fleet_and_a_one_host_cluster() {
    use sevf_cluster::{ClusterConfig, ClusterService, PlacementPolicy};

    let (seed, load, requests) = (chaos::SEED, 60.0, 200);
    let horizon = Nanos::from_secs(8);
    let recovery = RecoveryConfig::resilient(seed);
    let plan = FaultPlan::generate_for_domain(seed, 0, FaultConfig::storm(), horizon).unwrap();
    let fleet = FleetConfig {
        seed,
        recovery,
        fault: Some(plan),
        ..FleetConfig::open_loop(ServingTier::Template, load, requests)
    };
    let (report, log) = FleetService::new(catalog(), fleet).run_traced();
    let (trips, completed) = (report.metrics.breaker_trips, report.metrics.completed);
    assert!(trips > 0, "the storm tripped no breaker");
    assert_eq!(log.count_marker(MarkerKind::BreakerTrip) as u64, trips);

    let cluster = ClusterConfig {
        seed,
        recovery,
        placement: PlacementPolicy::RoundRobin,
        fault: Some(FaultConfig::storm()),
        fault_horizon: horizon,
        ..ClusterConfig::open_loop(1, ServingTier::Template, load, requests)
    };
    let (report, log) = ClusterService::new(catalog(), cluster)
        .unwrap()
        .run_traced();
    assert_eq!(
        report.metrics.completed, completed,
        "the cluster replays the fleet"
    );
    let host_trips = report.metrics.hosts[0].breaker_trips;
    assert_eq!(
        host_trips, trips,
        "the cluster's host record keeps its trips"
    );
    assert_eq!(log.count_marker(MarkerKind::BreakerTrip) as u64, host_trips);
}

#[test]
fn cluster_spans_obey_the_battery_and_match_the_rollup() {
    use sevf_cluster::netsweep::{self, NetSweepConfig};
    use sevf_cluster::{ClusterConfig, ClusterService, PlacementPolicy};
    use sevf_net::{DetectorConfig, NetConfig, Partition, PartitionScope};

    // The host-fault storm, then netsweep's quick partition arm under the
    // resilient detector and leases, so the net layer's counters move.
    let storm = ClusterConfig {
        mix: Some(RequestMix::quick_test_mix()),
        placement: PlacementPolicy::TemplateAffinity,
        seed: 0x5EF0,
        fault: Some(FaultConfig::storm()),
        fault_horizon: Nanos::from_secs(8),
        recovery: RecoveryConfig::resilient(0x5EF0),
        ..ClusterConfig::open_loop(3, ServingTier::Template, 120.0, 240)
    };
    let sweep = NetSweepConfig::quick();
    let partition = ClusterConfig {
        mix: sweep.mix.clone(),
        seed: netsweep::SEED,
        admission: sweep.admission,
        placement: PlacementPolicy::JsqPsp,
        recovery: RecoveryConfig::resilient(netsweep::SEED),
        net: Some(NetConfig {
            link: netsweep::LINK,
            partitions: vec![Partition {
                scope: PartitionScope::Host(sweep.hosts - 1),
                start: sweep.cut_start,
                end: sweep.cut_end,
            }],
            horizon: sweep.horizon,
            dispatch_timeout: netsweep::DISPATCH_TIMEOUT,
            heartbeat_every: netsweep::HEARTBEAT_EVERY,
            detector: Some(DetectorConfig),
            lease: Some(netsweep::LEASE),
        }),
        ..ClusterConfig::open_loop(
            sweep.hosts,
            ServingTier::Template,
            sweep.rps,
            sweep.requests,
        )
    };
    for (arm, config) in [("storm", storm), ("partition", partition)] {
        let (report, log) = ClusterService::new(catalog(), config).unwrap().run_traced();
        let m = &report.metrics;
        assert!(m.completed > 0, "{arm}");
        assert!(m.conserved(), "{arm}");

        // Structural battery over every host's trees at once; the "psp"
        // prefix covers psp0..pspN, each serialized independently.
        invariants::spans_nest(&log).unwrap();
        invariants::children_tile(&log).unwrap();
        invariants::capacity1_serialized(&log, "psp").unwrap();
        for request in log.requests_with_outcome(Outcome::Completed) {
            invariants::single_request_root(&log, request).unwrap();
            let root = log.request_root(request).unwrap();
            assert_eq!(
                invariants::leaf_duration_sum(&log, request),
                root.duration()
            );
        }

        // Cluster latencies merge per host (not in completion order), so
        // match them as sorted multisets against the span-side root
        // durations.
        let mut span_ms: Vec<f64> = log
            .requests_with_outcome(Outcome::Completed)
            .into_iter()
            .map(|r| log.request_root(r).unwrap().duration().as_millis_f64())
            .collect();
        let mut metric_ms = m.latencies_ms.clone();
        span_ms.sort_by(f64::total_cmp);
        metric_ms.sort_by(f64::total_cmp);
        assert_eq!(span_ms, metric_ms, "{arm}");

        // Terminal and marker counts equal the rollup's counters.
        assert_eq!(log.outcomes.len(), m.issued);
        assert_eq!(outcomes(&log, Outcome::Completed), m.completed);
        assert_eq!(outcomes(&log, Outcome::Shed) as u64, m.shed);
        assert_eq!(outcomes(&log, Outcome::BreakerShed) as u64, m.breaker_sheds);
        assert_eq!(outcomes(&log, Outcome::Timeout) as u64, m.timeouts);
        assert_eq!(outcomes(&log, Outcome::Failed) as u64, m.failed);
        assert_eq!(backoffs(&log) as u64, m.retries);
        assert_eq!(log.count_marker(MarkerKind::Failover) as u64, m.failovers);
        assert_eq!(log.count_marker(MarkerKind::Rebalance) as u64, m.rebalances);
        assert_eq!(faults(&log) as u64, m.faults);

        // The net layer counts into the rollup where it marks the trace.
        let net = [
            (MarkerKind::Suspected, m.suspicions),
            (MarkerKind::SuspicionCleared, m.suspicions_cleared),
            (MarkerKind::LeaseExpired, m.lease_expiries),
        ];
        for (kind, count) in net {
            assert_eq!(log.count_marker(kind) as u64, count, "{arm} {kind:?}");
            assert_eq!(count > 0, arm == "partition", "{arm} {kind:?}");
        }
    }
}

#[test]
fn tracing_never_changes_the_report() {
    let make = || {
        FleetService::new(
            catalog(),
            FleetConfig {
                fault: Some(
                    FaultPlan::generate(7, FaultConfig::storm(), Nanos::from_secs(6)).unwrap(),
                ),
                recovery: RecoveryConfig::resilient(7),
                ..FleetConfig::open_loop(ServingTier::Template, 80.0, 120)
            },
        )
    };
    let plain = make().run();
    let (traced, _) = make().run_traced();
    assert_eq!(plain.metrics.completed, traced.metrics.completed);
    assert_eq!(plain.metrics.latencies, traced.metrics.latencies);
    assert_eq!(plain.metrics.retries, traced.metrics.retries);
    assert_eq!(plain.metrics.faults.total(), traced.metrics.faults.total());
    assert_eq!(plain.metrics.shed, traced.metrics.shed);
    // Utilization comes from the engine's busy totals, which both runs keep:
    // bit-equal, though only the traced run wrote the occupancy log.
    let bits = |m: &sevf_fleet::metrics::FleetMetrics| {
        (m.psp_utilization.to_bits(), m.cpu_utilization.to_bits())
    };
    assert_eq!(bits(&plain.metrics), bits(&traced.metrics));
    assert!(plain.metrics.psp_utilization > 0.0);
    assert_eq!(plain.metrics.makespan, traced.metrics.makespan);
    assert!(plain.trace.entries().is_empty());
    assert!(!traced.trace.entries().is_empty());
}

#[test]
fn autoscale_markers_match_the_decision_counters_exactly() {
    use sevf_cluster::scalesweep::{ScaleSweepConfig, SEED};
    use sevf_cluster::{ClusterConfig, ClusterService, PlacementPolicy};
    use sevf_fleet::blueprint::Catalog;
    use sevf_scale::{ScalePolicy, Workload};

    let sweep = ScaleSweepConfig::quick();
    let catalog = Catalog::build(SEED, &sweep.classes).unwrap();
    let workload = Workload::FlashCrowd(sweep.crowd);
    let config = ClusterConfig {
        seed: SEED,
        admission: sweep.admission,
        recovery: RecoveryConfig::resilient(SEED),
        warm_target: sweep.warm_budget.div_ceil(sweep.min_hosts),
        placement: PlacementPolicy::WarmReady,
        workload: Some(workload),
        autoscaler: Some(sweep.scaler(ScalePolicy::Predictive {
            window: sweep.window,
            lead: sweep.lead,
        })),
        ..ClusterConfig::open_loop(
            sweep.min_hosts,
            ServingTier::WarmPool,
            sweep.crowd.peak,
            sweep.requests,
        )
    };
    let (report, log) = ClusterService::new(catalog, config).unwrap().run_traced();
    let auto = report
        .autoscale
        .expect("autoscaled run must carry a rollup");

    // One marker per emitted decision, never per affected host: the span
    // log and the control plane must agree to the exact count.
    assert!(
        auto.scale_outs > 0,
        "the crowd must force at least one join"
    );
    assert_eq!(
        log.count_marker(MarkerKind::ScaleOut) as u64,
        auto.scale_outs
    );
    assert_eq!(log.count_marker(MarkerKind::ScaleIn) as u64, auto.scale_ins);
    assert_eq!(log.count_marker(MarkerKind::PreWarm) as u64, auto.prewarms);
    assert!(report.metrics.conserved());
}

#[test]
fn autoscaled_tracing_never_changes_the_report() {
    use sevf_cluster::scalesweep::{ScaleSweepConfig, SEED};
    use sevf_cluster::{ClusterConfig, ClusterService, PlacementPolicy};
    use sevf_fleet::blueprint::Catalog;
    use sevf_scale::{ScalePolicy, Workload};

    let sweep = ScaleSweepConfig::quick();
    let catalog = Catalog::build(SEED, &sweep.classes).unwrap();
    let make = || {
        let config = ClusterConfig {
            seed: SEED,
            admission: sweep.admission,
            recovery: RecoveryConfig::resilient(SEED),
            warm_target: sweep.warm_budget.div_ceil(sweep.min_hosts),
            placement: PlacementPolicy::WarmReady,
            workload: Some(Workload::FlashCrowd(sweep.crowd)),
            autoscaler: Some(sweep.scaler(ScalePolicy::Reactive)),
            ..ClusterConfig::open_loop(
                sweep.min_hosts,
                ServingTier::WarmPool,
                sweep.crowd.peak,
                sweep.requests,
            )
        };
        ClusterService::new(catalog.clone(), config).unwrap()
    };
    let plain = make().run();
    let (traced, _) = make().run_traced();
    assert_eq!(plain.metrics.issued, traced.metrics.issued);
    assert_eq!(plain.metrics.completed, traced.metrics.completed);
    assert_eq!(plain.metrics.latencies_ms, traced.metrics.latencies_ms);
    assert_eq!(plain.metrics.host_seconds, traced.metrics.host_seconds);
    assert_eq!(plain.metrics.makespan, traced.metrics.makespan);
    let psp_bits = |m: &sevf_cluster::ClusterMetrics| -> Vec<u64> {
        m.hosts
            .iter()
            .map(|h| h.psp_utilization.to_bits())
            .collect()
    };
    assert_eq!(psp_bits(&plain.metrics), psp_bits(&traced.metrics));
    assert!(plain.metrics.hosts.iter().any(|h| h.psp_utilization > 0.0));
    assert!(plain.trace.entries().is_empty());
    assert!(!traced.trace.entries().is_empty());
    let (pa, ta) = (plain.autoscale.unwrap(), traced.autoscale.unwrap());
    assert_eq!(pa.events, ta.events);
    assert_eq!(
        (pa.ticks, pa.scale_outs, pa.scale_ins, pa.prewarms),
        (ta.ticks, ta.scale_outs, ta.scale_ins, ta.prewarms)
    );
}

/// The `(start, end)` pairs of every non-network step span, and of every
/// engine occupancy entry, each sorted.
fn step_and_entry_intervals(log: &TraceLog, trace: &RunTrace) -> [Vec<(Nanos, Nanos)>; 2] {
    let mut steps: Vec<(Nanos, Nanos)> = log
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Step && s.resource.as_deref() != Some("network"))
        .map(|s| (s.start, s.end))
        .collect();
    let mut entries: Vec<(Nanos, Nanos)> =
        trace.entries().iter().map(|e| (e.start, e.end)).collect();
    steps.sort();
    entries.sort();
    [steps, entries]
}

#[test]
fn resource_step_spans_are_exactly_the_engine_occupancy() {
    use sevf_attplane::AttPlaneConfig;
    use sevf_cluster::{ClusterConfig, ClusterService, PlacementPolicy};
    use sevf_net::{DetectorConfig, LeaseConfig, LinkSpec, NetConfig, Partition, PartitionScope};

    // Every resource-bound step the trace shows is one segment the engine
    // ran, and every segment the engine ran is shown: under the storm, with
    // warm-pool refills as background trees.
    let config = FleetConfig {
        mix: Some(RequestMix::quick_test_mix()),
        fault: Some(FaultPlan::generate(7, FaultConfig::storm(), Nanos::from_secs(6)).unwrap()),
        recovery: RecoveryConfig::resilient(7),
        ..FleetConfig::open_loop(ServingTier::WarmPool, 80.0, 200)
    };
    let (report, log) = FleetService::new(catalog(), config).run_traced();
    assert!(report.metrics.faults.total() > 0 && report.metrics.retries > 0);
    let [steps, entries] = step_and_entry_intervals(&log, &report.trace);
    assert!(!entries.is_empty());
    assert_eq!(steps, entries);

    // Four hosts, one cut off the network for a second, with the verifier.
    let config = ClusterConfig {
        mix: Some(RequestMix::quick_test_mix()),
        placement: PlacementPolicy::JsqPsp,
        fault: Some(FaultConfig::storm()),
        fault_horizon: Nanos::from_secs(8),
        recovery: RecoveryConfig::resilient(0x5EF0),
        attestation: Some(AttPlaneConfig::cached_batched()),
        net: Some(NetConfig {
            link: LinkSpec::datacenter(),
            partitions: vec![Partition {
                scope: PartitionScope::Host(3),
                start: Nanos::from_millis(400),
                end: Nanos::from_millis(1400),
            }],
            horizon: Nanos::from_secs(20),
            dispatch_timeout: Nanos::from_millis(50),
            heartbeat_every: Nanos::from_millis(50),
            detector: Some(DetectorConfig),
            lease: Some(LeaseConfig {
                duration: Nanos::from_millis(300),
                renew_every: Nanos::from_millis(100),
            }),
        }),
        ..ClusterConfig::open_loop(4, ServingTier::WarmPool, 160.0, 300)
    };
    let (report, log) = ClusterService::new(catalog(), config).unwrap().run_traced();
    assert!(report.metrics.faults > 0 && report.metrics.suspicions > 0);
    let [steps, entries] = step_and_entry_intervals(&log, &report.trace);
    assert!(!entries.is_empty());
    assert_eq!(steps, entries);
}

// ---- histogram properties on seeded samples --------------------------------

fn seeded_samples(seed: u64, n: usize, scale: f64) -> Vec<f64> {
    let mut rng = XorShift64::new(seed);
    (0..n).map(|_| rng.next_f64() * scale).collect()
}

#[test]
fn histogram_percentiles_track_exact_percentiles_within_one_bucket() {
    let width = 5.0;
    for seed in [3, 11, 42] {
        let samples = seeded_samples(seed, 1000, 500.0);
        let mut hist = Histogram::new(width);
        for &v in &samples {
            hist.record(v);
        }
        for pct in [10.0, 25.0, 50.0, 90.0, 99.0] {
            let exact = stats::percentile(&samples, pct);
            let approx = hist.percentile(pct);
            assert!(
                (exact - approx).abs() <= width,
                "seed {seed} p{pct}: exact {exact} vs histogram {approx}"
            );
        }
    }
}

#[test]
fn histogram_merge_is_associative_commutative_and_lossless() {
    let make = |seed: u64| {
        let mut h = Histogram::new(2.5);
        for v in seeded_samples(seed, 400, 200.0) {
            h.record(v);
        }
        h
    };
    let (a, b, c) = (make(1), make(2), make(3));
    let ab_c = a.merged(&b).merged(&c);
    let a_bc = a.merged(&b.merged(&c));
    let cba = c.merged(&b).merged(&a);
    assert_eq!(ab_c.counts(), a_bc.counts());
    assert_eq!(ab_c.counts(), cba.counts());
    assert_eq!(ab_c.count(), a.count() + b.count() + c.count());

    // Splitting a stream across shards and merging loses nothing.
    let samples = seeded_samples(9, 600, 300.0);
    let mut whole = Histogram::new(2.5);
    let mut left = Histogram::new(2.5);
    let mut right = Histogram::new(2.5);
    for (i, &v) in samples.iter().enumerate() {
        whole.record(v);
        if i % 2 == 0 {
            left.record(v);
        } else {
            right.record(v);
        }
    }
    assert_eq!(left.merged(&right).counts(), whole.counts());
}

#[test]
fn histogram_cumulative_counts_are_monotone() {
    let mut hist = Histogram::new(10.0);
    for v in seeded_samples(5, 500, 1000.0) {
        hist.record(v);
    }
    let mut cumulative = 0u64;
    let mut last = 0u64;
    for &count in hist.counts() {
        cumulative += count;
        assert!(cumulative >= last);
        last = cumulative;
    }
    assert_eq!(cumulative, hist.count());
}

// ---- collapsed-accumulator edge cases --------------------------------------

#[test]
fn shared_stats_helpers_handle_empty_input() {
    assert_eq!(sevf_obs::percentile_or_zero(&[], 99.0), 0.0);
    assert_eq!(Histogram::new(1.0).percentile(50.0), 0.0);
}

#[test]
fn registry_absorb_merges_counters_gauges_and_histograms() {
    let mut a = sevf_obs::Registry::new();
    let mut b = sevf_obs::Registry::new();
    a.inc("requests_total", 3);
    b.inc("requests_total", 4);
    b.set_gauge("depth", 2.0);
    a.observe("latency_ms", 10.0, 12.0);
    b.observe("latency_ms", 10.0, 57.0);
    a.absorb(&b);
    assert_eq!(a.counter("requests_total"), 7);
    assert_eq!(a.gauge("depth"), Some(2.0));
    let hist = a.histogram("latency_ms").unwrap();
    assert_eq!(hist.count(), 2);
    assert_eq!(hist.counts()[1], 1);
    assert_eq!(hist.counts()[5], 1);
}

/// A registry exports exactly the named counters and gauges, each equal to
/// the value it was read from, and one latency histogram per completion.
fn assert_exports(
    reg: &sevf_obs::Registry,
    mut counters: Vec<(&str, u64)>,
    mut gauges: Vec<(&str, f64)>,
    latency: (&str, usize),
) {
    counters.sort_unstable();
    gauges.sort_by(|a, b| a.0.cmp(b.0));
    assert_eq!(reg.counters().collect::<Vec<_>>(), counters);
    assert_eq!(reg.gauges().collect::<Vec<_>>(), gauges);
    let histograms: Vec<_> = reg.histograms().map(|(n, h)| (n, h.count())).collect();
    assert_eq!(histograms, [(latency.0, latency.1 as u64)]);
}

#[test]
fn registry_exporters_hold_their_fields() {
    use sevf_attplane::AttPlaneConfig;
    use sevf_cluster::policysweep::PolicySweepConfig;
    use sevf_cluster::{ClusterConfig, ClusterService, PlacementPolicy};
    use sevf_net::{DetectorConfig, LeaseConfig, LinkSpec, NetConfig, Partition, PartitionScope};
    use sevf_policy::PolicyConfig;

    // The fleet under the chaos storm, so the failure counters move.
    let chaos = ChaosConfig::quick();
    let horizon = Nanos::from_secs(8);
    let config = FleetConfig {
        mix: chaos.mix.clone(),
        admission: chaos.admission,
        fault: Some(FaultPlan::generate(chaos::SEED, FaultConfig::storm(), horizon).unwrap()),
        recovery: RecoveryConfig::resilient(chaos::SEED),
        ..FleetConfig::open_loop(ServingTier::WarmPool, 60.0, 200)
    };
    let m = FleetService::new(catalog(), config).run().metrics;
    assert!(
        m.faults.total() > 0 && m.retries > 0,
        "storm injected nothing"
    );
    assert_exports(
        &m.registry(),
        vec![
            ("fleet_completed_total", m.completed as u64),
            ("fleet_shed_total", m.shed),
            ("fleet_breaker_sheds_total", m.breaker_sheds),
            ("fleet_timeouts_total", m.timeouts),
            ("fleet_failed_total", m.failed),
            ("fleet_rejected_total", m.rejected),
            ("fleet_retries_total", m.retries),
            ("fleet_faults_total", m.faults.total()),
            ("fleet_degraded_dispatches_total", m.degraded_dispatches),
            ("fleet_breaker_trips_total", m.breaker_trips),
            ("fleet_cache_hits_total", m.cache_hits),
            ("fleet_cache_misses_total", m.cache_misses),
            ("fleet_warm_hits_total", m.warm_hits),
            ("fleet_warm_misses_total", m.warm_misses),
            ("fleet_evicted_total", m.evicted),
        ],
        vec![
            ("fleet_psp_utilization", m.psp_utilization),
            ("fleet_cpu_utilization", m.cpu_utilization),
            ("fleet_max_queue_depth", m.max_queue_depth as f64),
            ("fleet_makespan_ms", m.makespan.as_millis_f64()),
        ],
        ("fleet_latency_ms", m.completed),
    );

    // Three hosts with the verifier, a partitioned network and the
    // enforced tenant policy, so the layer counters move too.
    let config = ClusterConfig {
        mix: Some(RequestMix::quick_test_mix()),
        placement: PlacementPolicy::JsqPsp,
        recovery: RecoveryConfig::resilient(0x5EF0),
        attestation: Some(AttPlaneConfig::cached_batched()),
        net: Some(NetConfig {
            link: LinkSpec::datacenter(),
            partitions: vec![Partition {
                scope: PartitionScope::Host(2),
                start: Nanos::from_millis(400),
                end: Nanos::from_millis(1400),
            }],
            horizon: Nanos::from_secs(20),
            dispatch_timeout: Nanos::from_millis(50),
            heartbeat_every: Nanos::from_millis(50),
            detector: Some(DetectorConfig),
            lease: Some(LeaseConfig {
                duration: Nanos::from_millis(300),
                renew_every: Nanos::from_millis(100),
            }),
        }),
        policy: Some(PolicyConfig::enforced(PolicySweepConfig::quick().tenants())),
        ..ClusterConfig::open_loop(3, ServingTier::Template, 120.0, 240)
    };
    let m = ClusterService::new(catalog(), config)
        .unwrap()
        .run()
        .metrics;
    assert!(
        m.suspicions > 0 && m.posture_checks > 0,
        "a layer stayed idle"
    );
    assert_exports(
        &m.registry(),
        vec![
            ("cluster_issued_total", m.issued as u64),
            ("cluster_completed_total", m.completed as u64),
            ("cluster_shed_total", m.shed),
            ("cluster_unroutable_total", m.unroutable),
            ("cluster_breaker_sheds_total", m.breaker_sheds),
            ("cluster_timeouts_total", m.timeouts),
            ("cluster_failed_total", m.failed),
            ("cluster_rejected_total", m.rejected),
            ("cluster_retries_total", m.retries),
            ("cluster_failovers_total", m.failovers),
            ("cluster_rebalances_total", m.rebalances),
            ("cluster_suspicions_total", m.suspicions),
            ("cluster_suspicions_cleared_total", m.suspicions_cleared),
            ("cluster_false_suspicions_total", m.false_suspicions),
            ("cluster_lease_expiries_total", m.lease_expiries),
            ("cluster_net_lost_total", m.net_lost),
            ("cluster_net_timeouts_total", m.net_timeouts),
            ("cluster_net_nacks_total", m.net_nacks),
            ("cluster_stale_completions_total", m.stale_completions),
            (
                "cluster_double_completion_attempts_total",
                m.double_completion_attempts,
            ),
            ("cluster_faults_total", m.faults),
            ("cluster_evicted_total", m.evicted),
            ("cluster_posture_checks_total", m.posture_checks),
            ("cluster_posture_redirects_total", m.posture_redirects),
            ("cluster_posture_violations_total", m.posture_violations),
        ],
        vec![
            ("cluster_host_seconds", m.host_seconds),
            ("cluster_psp_skew", m.psp_skew()),
            ("cluster_cache_hit_rate", m.cache_hit_rate()),
            ("cluster_makespan_ms", m.makespan.as_millis_f64()),
        ],
        ("cluster_latency_ms", m.completed),
    );
}
