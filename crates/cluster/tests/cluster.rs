//! Integration tests for the cluster control plane: conservation,
//! determinism, scale-out, failover, and rebalancing.

use sevf_cluster::prelude::*;
use sevf_fleet::blueprint::{Catalog, ClassSpec};
use sevf_fleet::recovery::RecoveryConfig;
use sevf_fleet::workload::RequestMix;
use sevf_obs::{MarkerKind, SpanKind};
use sevf_sim::fault::{FaultConfig, FaultPlan};
use sevf_sim::Nanos;

fn catalog() -> Catalog {
    Catalog::build(0x5EF0, &ClassSpec::quick_test_classes()).unwrap()
}

fn base(hosts: usize, tier: ServingTier) -> ClusterConfig {
    ClusterConfig {
        mix: Some(RequestMix::quick_test_mix()),
        ..ClusterConfig::open_loop(hosts, tier, 120.0, 240)
    }
}

fn run(config: ClusterConfig) -> ClusterReport {
    ClusterService::new(catalog(), config).unwrap().run()
}

#[test]
fn every_tier_and_policy_conserves_requests() {
    for tier in [
        ServingTier::Cold,
        ServingTier::Template,
        ServingTier::WarmPool,
    ] {
        for placement in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::JsqPsp,
            PlacementPolicy::TemplateAffinity,
        ] {
            let config = ClusterConfig {
                placement,
                ..base(3, tier)
            };
            let report = run(config);
            assert!(
                report.metrics.conserved(),
                "conservation broke for {}/{}: {} issued, {} completed, {} lost",
                tier.name(),
                placement.name(),
                report.metrics.issued,
                report.metrics.completed,
                report.metrics.lost()
            );
            assert!(report.metrics.completed > 0);
        }
    }
}

#[test]
fn identical_seeds_are_byte_identical() {
    let config = ClusterConfig {
        placement: PlacementPolicy::JsqPsp,
        ..base(4, ServingTier::WarmPool)
    };
    let a = run(config.clone());
    let b = run(config);
    assert_eq!(a.metrics.completed, b.metrics.completed);
    assert_eq!(a.metrics.latencies_ms, b.metrics.latencies_ms);
    assert_eq!(a.metrics.failovers, b.metrics.failovers);
    assert_eq!(a.metrics.makespan, b.metrics.makespan);
    for (x, y) in a.metrics.hosts.iter().zip(&b.metrics.hosts) {
        assert_eq!(x.completed, y.completed);
        assert_eq!(x.psp_utilization, y.psp_utilization);
    }
}

#[test]
fn template_tier_scales_out_where_cold_cannot() {
    // Same per-host offered load at 1 and 4 hosts: template goodput should
    // roughly quadruple; cold per-host goodput stays pinned at the PSP
    // ceiling at both sizes.
    let small = run(ClusterConfig {
        mix: None,
        ..ClusterConfig::open_loop(1, ServingTier::Template, 80.0, 160)
    });
    let large = run(ClusterConfig {
        mix: None,
        ..ClusterConfig::open_loop(4, ServingTier::Template, 320.0, 640)
    });
    assert!(
        large.metrics.goodput_rps() > small.metrics.goodput_rps() * 2.5,
        "template goodput did not scale: {} -> {}",
        small.metrics.goodput_rps(),
        large.metrics.goodput_rps()
    );
    assert!(small.metrics.conserved() && large.metrics.conserved());
}

#[test]
fn scheduled_outage_fails_over_and_recovers() {
    // Kill the host that owns the heavy class, mid-stream. The ring is a
    // pure function of (seed, vnodes), so the victim the router would pick
    // can be computed up front.
    let cat = catalog();
    let template = base(3, ServingTier::Template);
    let mut ring = sevf_cluster::HashRing::new(template.seed, template.vnodes);
    for h in 0..template.hosts {
        ring.insert(h);
    }
    let victim = ring.owner(&cat.classes()[0].key).unwrap();
    let config = ClusterConfig {
        placement: PlacementPolicy::TemplateAffinity,
        admission: sevf_fleet::AdmissionConfig {
            max_inflight: 2,
            ..sevf_fleet::AdmissionConfig::default()
        },
        outages: vec![HostOutage {
            host: victim,
            start: Nanos::from_millis(500),
            end: Nanos::from_millis(1200),
        }],
        recovery: RecoveryConfig::resilient(7),
        ..template
    };
    let report = ClusterService::new(cat, config).unwrap().run();
    assert!(report.metrics.conserved());
    assert!(report.metrics.failovers > 0, "outage displaced nothing");
    // The survivors re-measured the dead host's templates: more fills
    // cluster-wide than there are classes.
    assert!(report.metrics.cache_misses() > 2);
    assert!(report.metrics.completed > 0);
}

#[test]
fn warm_budget_rebalances_across_membership_changes() {
    let config = ClusterConfig {
        placement: PlacementPolicy::JsqPsp,
        warm_target: 4,
        outages: vec![HostOutage {
            host: 1,
            start: Nanos::from_millis(400),
            end: Nanos::from_millis(900),
        }],
        recovery: RecoveryConfig::resilient(9),
        ..base(3, ServingTier::WarmPool)
    };
    let report = run(config);
    assert!(report.metrics.conserved());
    // One pass when the host drops (survivors absorb its share), one when
    // it returns (targets spread back out).
    assert!(
        report.metrics.rebalances >= 2,
        "expected rebalance passes on both membership edges, got {}",
        report.metrics.rebalances
    );
    // The return shrinks the survivors' targets back: refills they started
    // for the dead host's share land above target and are evicted.
    assert!(
        report.metrics.evicted > 0,
        "no rebalance evicted a warm guest"
    );
}

#[test]
fn graceful_leave_drains_without_poisoning() {
    let config = ClusterConfig {
        events: vec![HostEvent {
            at: Nanos::from_millis(300),
            host: 2,
            kind: HostEventKind::Leave,
        }],
        ..base(3, ServingTier::Template)
    };
    let report = run(config);
    assert!(report.metrics.conserved());
    // A departure never records outage faults: in-flight work finishes.
    assert_eq!(
        report.metrics.hosts[2].faults.total(),
        0,
        "graceful leave poisoned in-flight work"
    );
    assert!(report.metrics.completed > 0);
}

#[test]
fn per_host_fault_domains_stay_decorrelated() {
    let config = ClusterConfig {
        fault: Some(FaultConfig::storm()),
        fault_horizon: Nanos::from_secs(4),
        recovery: RecoveryConfig::resilient(3),
        ..base(3, ServingTier::Template)
    };
    let report = run(config);
    assert!(report.metrics.conserved());
    // Domain-derived plans differ per host, so fault counts should not be
    // identical across all three hosts (same plan everywhere would be).
    let counts: Vec<u64> = report
        .metrics
        .hosts
        .iter()
        .map(|h| h.faults.total())
        .collect();
    assert!(
        !(counts[0] == counts[1] && counts[1] == counts[2] && counts[0] > 0)
            || report.metrics.faults == 0,
        "all hosts recorded identical fault counts: {counts:?}"
    );
    assert!(report.metrics.faults > 0, "storm injected nothing");
}

#[test]
fn a_retry_waits_out_a_psp_outage_only_when_no_routable_host_is_healthy() {
    // Two hosts, each resetting its PSP on its own domain's schedule. The
    // plans are a pure function of (seed, domain), so the test rebuilds
    // them and holds every backoff span of a traced run to the rule: the
    // retry fires at its backoff instant unless *both* hosts are inside a
    // known reset outage then, in which case it fires when the first is
    // back.
    let fault = FaultConfig {
        psp_reset_period: Some(Nanos::from_millis(300)),
        psp_reset_outage: Nanos::from_millis(400),
        ..FaultConfig::none()
    };
    let horizon = Nanos::from_secs(8);
    let recovery = RecoveryConfig::resilient(11);
    let config = ClusterConfig {
        fault: Some(fault.clone()),
        fault_horizon: horizon,
        recovery,
        ..base(2, ServingTier::Cold)
    };
    let plan = |host| FaultPlan::generate_for_domain(config.seed, host, fault.clone(), horizon);
    let plans = [plan(0).unwrap(), plan(1).unwrap()];
    let (report, log) = ClusterService::new(catalog(), config).unwrap().run_traced();
    assert!(report.metrics.conserved());

    let (mut one_healthy, mut landed_healthy, mut none_healthy) = (0, 0, 0);
    for wait in log.spans.iter().filter(|s| s.kind == SpanKind::Backoff) {
        let request = wait.request.unwrap();
        let failures: u32 = wait.name.trim_start_matches("backoff #").parse().unwrap();
        let backoff = recovery.retry.backoff(failures, request as u64).unwrap();
        let due = wait.start + backoff;
        match (plans[0].in_outage(due), plans[1].in_outage(due)) {
            (Some(a), Some(b)) => {
                none_healthy += 1;
                assert_eq!(wait.end, a.min(b), "request {request}: the earlier end");
            }
            (None, None) => assert_eq!(wait.end, due),
            (down0, _) => {
                one_healthy += 1;
                assert_eq!(wait.end, due, "request {request}: a healthy host suffices");
                let healthy = usize::from(down0.is_some());
                let placed = |m: &&sevf_obs::MarkerRec| {
                    m.request == Some(request)
                        && m.at == due
                        && m.kind == MarkerKind::Placement { host: healthy }
                };
                landed_healthy += log.markers.iter().filter(placed).count();
            }
        }
    }
    assert!(none_healthy > 0, "no retry fell due with both PSPs down");
    assert!(one_healthy > 0, "no retry fell due with one PSP down");
    assert!(
        landed_healthy > 0,
        "no such retry landed on the healthy host"
    );
}

#[test]
fn dark_cluster_sheds_unroutable_arrivals() {
    // Every host leaves before traffic ends; the router must shed what it
    // cannot place, and the invariant still holds.
    let config = ClusterConfig {
        events: vec![
            HostEvent {
                at: Nanos::from_millis(100),
                host: 0,
                kind: HostEventKind::Leave,
            },
            HostEvent {
                at: Nanos::from_millis(100),
                host: 1,
                kind: HostEventKind::Leave,
            },
        ],
        ..base(2, ServingTier::Template)
    };
    let report = run(config);
    assert!(report.metrics.conserved());
    assert!(report.metrics.unroutable > 0, "dark cluster shed nothing");
}

#[test]
fn inert_network_model_replays_byte_identically() {
    // `net: Some(NetConfig::none())` must take the exact code paths of
    // `net: None`: no message indirection, no heartbeats, no leases, and
    // therefore the same RNG draws and the same report, byte for byte.
    // This is the replay gate that keeps every pre-net experiment stable.
    let config = ClusterConfig {
        placement: PlacementPolicy::JsqPsp,
        recovery: RecoveryConfig::resilient(7),
        outages: vec![HostOutage {
            host: 1,
            start: Nanos::from_millis(400),
            end: Nanos::from_millis(900),
        }],
        ..base(3, ServingTier::Template)
    };
    let without = run(config.clone());
    let with = run(ClusterConfig {
        net: Some(sevf_net::NetConfig::none()),
        ..config
    });
    assert_eq!(
        format!("{:?}", without.metrics),
        format!("{:?}", with.metrics),
        "an inert network model changed the run"
    );
    assert_eq!(without.metrics.makespan, with.metrics.makespan);
    assert_eq!(with.metrics.net_lost, 0);
    assert_eq!(with.metrics.suspicions, 0);
}

#[test]
fn split_brain_conserves_with_zero_double_counted_completions() {
    use sevf_net::{DetectorConfig, LeaseConfig, LinkSpec, NetConfig, Partition, PartitionScope};
    // Two of three hosts fall into a minority island mid-stream and heal
    // a second later: the island keeps serving work it cannot report,
    // the router sweeps that work over to the survivor, and the island's
    // late completions arrive after the failover. Epoch fencing must
    // discard every one of them — each request reaches exactly one
    // terminal state, so conservation is exact, not approximate.
    let cut = |host| Partition {
        scope: PartitionScope::Host(host),
        start: Nanos::from_millis(400),
        end: Nanos::from_millis(1400),
    };
    let config = ClusterConfig {
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
        ..base(3, ServingTier::Template)
    };
    let report = run(config);
    let m = &report.metrics;
    // The exact ledger: zero double-counted completions means the five
    // terminal states partition the issued stream with no remainder.
    assert_eq!(
        m.completed as u64 + m.shed + m.breaker_sheds + m.timeouts + m.failed,
        m.issued as u64,
        "split-brain broke conservation: {m:?}"
    );
    assert!(m.suspicions > 0, "the island must be suspected");
    assert!(m.net_lost > 0, "the cut must lose messages");
    assert!(
        m.lease_expiries > 0,
        "island hosts must park on expired leases"
    );
    assert!(m.completed > 0, "the survivor must keep serving");
}

#[test]
fn invalid_configs_are_rejected_with_chained_errors() {
    use std::error::Error;
    let bad = ClusterConfig {
        hosts: 0,
        ..base(1, ServingTier::Template)
    };
    let err = ClusterService::new(catalog(), bad).unwrap_err();
    assert!(matches!(err, ClusterError::Config(_)));
    assert!(err.to_string().contains("at least one host"));

    let out_of_range = ClusterConfig {
        outages: vec![HostOutage {
            host: 9,
            start: Nanos::from_millis(1),
            end: Nanos::from_millis(2),
        }],
        ..base(2, ServingTier::Template)
    };
    assert!(ClusterService::new(catalog(), out_of_range).is_err());

    let mut no_slot = base(2, ServingTier::Template);
    no_slot.admission.max_inflight = 0;
    let err = ClusterService::new(catalog(), no_slot).unwrap_err();
    assert!(matches!(
        err,
        ClusterError::Config("max_inflight must be at least 1")
    ));

    // Fail-open with no staleness budget would be fail-open forever.
    let mut att = sevf_attplane::AttPlaneConfig::cached();
    att.degrade = sevf_attplane::FailMode::Open {
        staleness_budget: Nanos::ZERO,
    };
    let no_budget = ClusterConfig {
        attestation: Some(att),
        ..base(1, ServingTier::Cold)
    };
    let err = ClusterService::new(catalog(), no_budget).unwrap_err();
    assert!(matches!(err, ClusterError::AttPlane(_)));
    assert!(err.source().unwrap().to_string().contains("budget"));

    let from_fleet = ClusterError::from(sevf_fleet::FleetError::NoClasses);
    assert!(from_fleet.source().is_some());
}

#[test]
fn a_curve_too_sparse_for_its_requests_is_refused() {
    use sevf_scale::{CurveError, Diurnal, ScaleError, Workload};
    // Valid knobs, but under 0.02 expected arrivals over the whole clock:
    // the generator would issue all 240 requests at the clock's end.
    let sparse = ClusterConfig {
        workload: Some(Workload::Diurnal(Diurnal {
            base: 1e-12,
            amplitude: 0.0,
            period: Nanos::from_secs(1),
        })),
        ..base(2, ServingTier::Template)
    };
    let err = ClusterService::new(catalog(), sparse).unwrap_err();
    assert!(
        matches!(
            err,
            ClusterError::Scale(ScaleError::Workload(CurveError::TooSparse))
        ),
        "{err}"
    );
}

#[test]
fn one_host_verifier_latency_rides_the_launch() {
    use sevf_attplane::AttPlaneConfig;
    let attested = |att: Option<AttPlaneConfig>| {
        run(ClusterConfig {
            attestation: att,
            ..ClusterConfig::open_loop(1, ServingTier::Template, 40.0, 60)
        })
    };
    let cached = attested(Some(AttPlaneConfig::cached()));
    assert!(cached.metrics.conserved());
    let att = cached.attestation.expect("plane configured");
    assert!(att.verifications > 0);
    assert!(att.cert_hits > 0, "one chip should mostly hit");

    // The naive arm pays the full KDS fetch per dispatch and must be
    // slower end-to-end than no verifier at all.
    let naive = attested(Some(AttPlaneConfig::naive()));
    assert!(naive.metrics.conserved());
    let mean = |r: &ClusterReport| {
        let l = &r.metrics.latencies_ms;
        l.iter().sum::<f64>() / l.len() as f64
    };
    assert!(mean(&naive) > mean(&attested(None)));
    assert!(naive.attestation.unwrap().cert_fetches >= att.cert_fetches);
}

#[test]
fn tagged_policy_replays_the_no_policy_run_byte_identically() {
    // A tag-only policy draws tenancy from its own salted RNG stream, so
    // arrivals, class sampling, placement, and every latency must match
    // the policy-free run byte for byte.
    let arm = |policy: Option<PolicyConfig>| {
        let config = ClusterConfig {
            placement: PlacementPolicy::JsqPsp,
            policy,
            ..base(3, ServingTier::Template)
        };
        run(config)
    };
    let bare = arm(None);
    let tagged = arm(Some(PolicyConfig::tagged(vec![
        Tenant::new("a", 3, PolicySpec::permissive()),
        Tenant::new("b", 1, PolicySpec::permissive()),
    ])));
    assert_eq!(
        format!("{:?}", bare.metrics),
        format!("{:?}", tagged.metrics)
    );
    assert!(bare.tenants.is_none());
    let rollup = tagged.tenants.unwrap();
    assert_eq!(rollup.len(), 2);
    let issued: usize = rollup.iter().map(|t| t.metrics.issued).sum();
    assert_eq!(issued, tagged.metrics.issued);
    assert!(rollup.iter().all(|t| t.metrics.conserved()));
}

#[test]
fn wfq_policy_conserves_per_tenant_and_quota_rejects() {
    let mut flood = PolicySpec::permissive();
    flood.slo = SloClass::Batch;
    flood.quota = Some(QuotaSpec {
        rate_per_sec: 20.0,
        burst: 4.0,
    });
    let mut premium = PolicySpec::permissive();
    premium.weight = 8;
    let config = ClusterConfig {
        placement: PlacementPolicy::JsqPsp,
        admission: sevf_fleet::AdmissionConfig {
            max_inflight: 2,
            ..sevf_fleet::AdmissionConfig::default()
        },
        policy: Some(PolicyConfig {
            tenants: vec![
                Tenant::new("premium", 1, premium),
                Tenant::new("flood", 3, flood),
            ],
            scheduler: Scheduler::Wfq,
            quotas: true,
            posture: false,
        }),
        ..base(3, ServingTier::Template)
    };
    let report = run(config);
    let m = &report.metrics;
    assert!(m.conserved(), "{m:?}");
    assert!(m.rejected > 0, "the flood must exceed its bucket");
    let rollup = report.tenants.unwrap();
    let issued: usize = rollup.iter().map(|t| t.metrics.issued).sum();
    assert_eq!(issued, m.issued);
    assert!(rollup.iter().all(|t| t.metrics.conserved()), "{rollup:#?}");
    let flood = rollup.iter().find(|t| t.name == "flood").unwrap();
    assert!(flood.metrics.rejected > 0);
    let premium = rollup.iter().find(|t| t.name == "premium").unwrap();
    assert_eq!(premium.metrics.rejected, 0);
}

#[test]
fn posture_placement_needs_an_attestation_plane() {
    let mut strict = PolicySpec::permissive();
    strict.posture = Posture::Fresh;
    strict.min_tcb = 1;
    let config = ClusterConfig {
        policy: Some(PolicyConfig::enforced(vec![Tenant::new(
            "strict", 1, strict,
        )])),
        ..base(2, ServingTier::Template)
    };
    let err = ClusterService::new(catalog(), config).unwrap_err();
    assert!(matches!(err, ClusterError::Config(_)));
    assert!(err.to_string().contains("attestation plane"));
}

#[test]
fn posture_enforcement_rejects_until_the_rollout_lands_and_never_violates() {
    use sevf_attplane::AttPlaneConfig;
    let mut strict = PolicySpec::permissive();
    strict.isolation = IsolationTier::SevSnp;
    strict.posture = Posture::Fresh;
    strict.min_tcb = 1;
    let config = ClusterConfig {
        placement: PlacementPolicy::JsqPsp,
        attestation: Some(AttPlaneConfig::cached_batched()),
        tcb_rollout: Some(TcbRollout {
            start: Nanos::from_millis(500),
            stagger: Nanos::from_millis(100),
        }),
        policy: Some(PolicyConfig::enforced(vec![
            Tenant::new("strict", 1, strict),
            Tenant::new("lax", 3, PolicySpec::permissive()),
        ])),
        ..base(3, ServingTier::Template)
    };
    let report = run(config);
    let m = &report.metrics;
    assert!(m.conserved(), "{m:?}");
    assert!(m.posture_checks > 0, "the filter must run");
    assert_eq!(m.posture_violations, 0, "{m:?}");
    let rollup = report.tenants.unwrap();
    let strict = rollup.iter().find(|t| t.name == "strict").unwrap();
    // Arrivals before any host reaches TCB 1 find no eligible host and
    // are rejected; later ones complete on patched hosts only.
    assert!(strict.metrics.rejected > 0, "{:#?}", strict.metrics);
    assert!(strict.metrics.completed > 0, "{:#?}", strict.metrics);
    assert!(strict.metrics.conserved());
    let lax = rollup.iter().find(|t| t.name == "lax").unwrap();
    assert_eq!(lax.metrics.rejected, 0);
}
