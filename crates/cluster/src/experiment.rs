//! The cluster experiment: scale-out, placement, and an outage drill.
//!
//! One sweep, three arms, all over the same measured catalog:
//!
//! * **scaling** — offered load and request count grow linearly with the
//!   host count for each serving tier. Template and warm-pool serving
//!   scale out near-linearly; cold SEV serving stays pinned at each host's
//!   PSP ceiling (Fig. 12 per machine), so adding hosts adds goodput but
//!   never lifts the per-host number.
//! * **placement** — same hosts, same load, same template tier, three
//!   routing policies. Template-affinity placement measures each class's
//!   §6.2 template on one owner host instead of every host, so it wins the
//!   cluster cache hit-rate (and the tail that fills would otherwise pay).
//! * **outage** — a mid-stream whole-host outage under affinity placement.
//!   The naive cluster permanently fails everything the dead host was
//!   holding; the resilient cluster retries, fails over to surviving
//!   hosts (re-measuring the dead host's templates there — §6.2 across
//!   machines), rebalances the warm budget, and holds goodput.
//!
//! Rows carry the conservation invariant (`completed + shed +
//! breaker_sheds + timeouts + failed == issued`) so the table can assert
//! it. Identical configs produce byte-identical reports.

use sevf_fleet::admission::AdmissionConfig;
use sevf_fleet::blueprint::{Catalog, ClassSpec, MB};
use sevf_fleet::recovery::RecoveryConfig;
use sevf_fleet::service::ServingTier;
use sevf_fleet::workload::RequestMix;
use sevf_sim::Nanos;

use crate::placement::PlacementPolicy;
use crate::service::{ClusterConfig, ClusterService, HostOutage};
use crate::ClusterError;

/// Knobs of one cluster sweep.
#[derive(Debug, Clone)]
pub struct ClusterSweepConfig {
    /// Seed for catalog machines, arrivals, placement, and fault domains.
    pub seed: u64,
    /// Request classes to serve (shared catalog for all hosts).
    pub classes: Vec<ClassSpec>,
    /// Mix over those classes; `None` = uniform.
    pub mix: Option<RequestMix>,
    /// Host counts of the scaling arm.
    pub host_counts: Vec<usize>,
    /// Offered load *per host* in the scaling arm (total scales with the
    /// host count).
    pub per_host_rps: f64,
    /// Requests *per host* in the scaling arm.
    pub requests_per_host: usize,
    /// Host count of the placement and outage arms.
    pub placement_hosts: usize,
    /// Aggregate offered load of the placement and outage arms.
    pub placement_rps: f64,
    /// Total requests of the placement and outage arms.
    pub placement_requests: usize,
    /// Per-host admission knobs.
    pub admission: AdmissionConfig,
    /// Warm-pool target per class per host.
    pub warm_target: usize,
    /// Virtual nodes per host on the affinity ring.
    pub vnodes: usize,
    /// Recovery policy of the resilient outage arms.
    pub recovery: RecoveryConfig,
}

impl ClusterSweepConfig {
    /// The headline cluster sweep over the paper mix.
    pub fn paper_cluster() -> Self {
        ClusterSweepConfig {
            seed: 0x5EF0,
            classes: ClassSpec::paper_classes(16, 256 * MB),
            mix: Some(RequestMix::paper_mix()),
            host_counts: vec![1, 2, 4, 8],
            // Above the ~39 req/s cold PSP ceiling: cold serving saturates
            // and pins there per host, template/warm track the offered rate.
            per_host_rps: 60.0,
            requests_per_host: 150,
            placement_hosts: 4,
            placement_rps: 100.0,
            placement_requests: 400,
            admission: AdmissionConfig::default(),
            warm_target: 8,
            vnodes: 64,
            recovery: RecoveryConfig::resilient(0x5EF0),
        }
    }

    /// A fast sweep over the tiny test classes (tests, `--quick` example).
    pub fn quick() -> Self {
        ClusterSweepConfig {
            seed: 0x5EF0,
            classes: ClassSpec::quick_test_classes(),
            mix: Some(RequestMix::quick_test_mix()),
            host_counts: vec![1, 2, 4],
            per_host_rps: 60.0,
            requests_per_host: 100,
            placement_hosts: 3,
            placement_rps: 150.0,
            placement_requests: 300,
            admission: AdmissionConfig::quick_test(),
            warm_target: 16,
            vnodes: 32,
            recovery: RecoveryConfig::resilient(0x5EF0),
        }
    }
}

/// One cell of the sweep.
#[derive(Debug, Clone)]
pub struct ClusterRow {
    /// Which arm produced the row ("scaling", "placement", "outage").
    pub arm: &'static str,
    /// Cell label: the tier (scaling), policy (placement), or drill arm.
    pub label: String,
    /// Hosts in the cluster.
    pub hosts: usize,
    /// Serving tier.
    pub tier: ServingTier,
    /// Placement policy.
    pub placement: PlacementPolicy,
    /// Aggregate offered load (req/s).
    pub offered_rps: f64,
    /// Requests served to completion.
    pub completed: usize,
    /// Completed requests per second of makespan, cluster-wide.
    pub goodput_rps: f64,
    /// Goodput divided by the host count (the scale-out signal).
    pub per_host_goodput: f64,
    /// Requests shed (admission queues + unroutable arrivals).
    pub shed: u64,
    /// Of the sheds, arrivals that found no live host.
    pub unroutable: u64,
    /// Requests shed past the bottom of the degradation ladder.
    pub breaker_sheds: u64,
    /// Requests shed on deadline.
    pub timeouts: u64,
    /// Requests permanently failed after exhausting retries.
    pub failed: u64,
    /// Retry launches dispatched.
    pub retries: u64,
    /// Requests displaced off a dead or departing host and re-routed.
    pub failovers: u64,
    /// Warm-budget rebalance passes.
    pub rebalances: u64,
    /// Injected-fault occurrences across all hosts.
    pub faults: u64,
    /// Cluster template-cache hit rate in `[0, 1]`.
    pub cache_hit_rate: f64,
    /// Template fills (measurements) across all hosts.
    pub cache_misses: u64,
    /// Per-host PSP utilization spread (max − min).
    pub psp_skew: f64,
    /// Cluster-wide median latency (ms).
    pub p50_ms: f64,
    /// Cluster-wide 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// Whether the conservation invariant held for the cell.
    pub conserved: bool,
}

/// The sweep's result.
#[derive(Debug, Clone)]
pub struct ClusterSweepReport {
    /// Mix-weighted cold-launch PSP ceiling of one host (req/s): the
    /// Fig. 12 bound the scaling arm's cold per-host goodput cannot exceed.
    pub cold_ceiling_rps: f64,
    /// One row per cell: scaling, then placement, then outage.
    pub rows: Vec<ClusterRow>,
}

/// Mix-weighted mean cold PSP work per request, inverted to req/s.
fn cold_ceiling(catalog: &Catalog, mix: &RequestMix) -> f64 {
    let mut weighted = 0.0;
    let mut total = 0.0;
    for &(class, weight) in mix.entries() {
        weighted += catalog.class(class).cold.psp_work().as_secs_f64() * weight as f64;
        total += weight as f64;
    }
    let mean = weighted / total;
    if mean > 0.0 {
        1.0 / mean
    } else {
        f64::INFINITY
    }
}

fn row_from(
    arm: &'static str,
    label: String,
    report: &crate::service::ClusterReport,
) -> ClusterRow {
    let m = &report.metrics;
    ClusterRow {
        arm,
        label,
        hosts: report.hosts,
        tier: report.tier,
        placement: report.placement,
        offered_rps: report.offered_rps.unwrap_or(0.0),
        completed: m.completed,
        goodput_rps: m.goodput_rps(),
        per_host_goodput: m.goodput_rps() / report.hosts as f64,
        shed: m.shed,
        unroutable: m.unroutable,
        breaker_sheds: m.breaker_sheds,
        timeouts: m.timeouts,
        failed: m.failed,
        retries: m.retries,
        failovers: m.failovers,
        rebalances: m.rebalances,
        faults: m.faults,
        cache_hit_rate: m.cache_hit_rate(),
        cache_misses: m.cache_misses(),
        psp_skew: m.psp_skew(),
        p50_ms: m.p50_ms(),
        p99_ms: m.p99_ms(),
        conserved: m.conserved(),
    }
}

/// Runs the three-arm sweep over one catalog.
///
/// # Errors
///
/// Propagates catalog-construction failures ([`ClusterError::Fleet`]) and
/// configuration errors from the cluster builder.
pub fn cluster_sweep(cfg: &ClusterSweepConfig) -> Result<ClusterSweepReport, ClusterError> {
    let catalog = Catalog::build(cfg.seed, &cfg.classes)?;
    let mix = cfg
        .mix
        .clone()
        .unwrap_or_else(|| RequestMix::uniform(catalog.len()));
    let mut rows = Vec::new();

    // Arm 1: scale-out. Load and requests grow with the host count, so a
    // tier that scales keeps per-host goodput flat at the offered rate.
    for &hosts in &cfg.host_counts {
        for tier in [
            ServingTier::Cold,
            ServingTier::Template,
            ServingTier::WarmPool,
        ] {
            let config = ClusterConfig {
                mix: cfg.mix.clone(),
                admission: cfg.admission,
                warm_target: cfg.warm_target,
                placement: PlacementPolicy::JsqPsp,
                vnodes: cfg.vnodes,
                ..ClusterConfig::open_loop(
                    hosts,
                    tier,
                    cfg.per_host_rps * hosts as f64,
                    cfg.requests_per_host * hosts,
                )
            };
            let config = ClusterConfig {
                seed: cfg.seed,
                ..config
            };
            let report = ClusterService::new(catalog.clone(), config)?.run();
            rows.push(row_from("scaling", tier.name().to_string(), &report));
        }
    }

    // Arm 2: placement. Same cluster, same stream, three routers.
    for placement in [
        PlacementPolicy::RoundRobin,
        PlacementPolicy::JsqPsp,
        PlacementPolicy::TemplateAffinity,
    ] {
        let config = ClusterConfig {
            mix: cfg.mix.clone(),
            admission: cfg.admission,
            warm_target: cfg.warm_target,
            placement,
            vnodes: cfg.vnodes,
            seed: cfg.seed,
            ..ClusterConfig::open_loop(
                cfg.placement_hosts,
                ServingTier::Template,
                cfg.placement_rps,
                cfg.placement_requests,
            )
        };
        let report = ClusterService::new(catalog.clone(), config)?.run();
        rows.push(row_from("placement", placement.name().to_string(), &report));
    }

    // Arm 3: outage drill. The host owning the heaviest class dies a third
    // of the way into the nominal run and comes back at two thirds;
    // affinity placement makes the re-measurement story visible (the dead
    // host's classes get a new ring owner that must fill their templates).
    // The ring is a pure function of (seed, vnodes), so the victim the
    // router would route to is computable up front.
    let mut ring = crate::ring::HashRing::new(cfg.seed, cfg.vnodes);
    for host in 0..cfg.placement_hosts {
        ring.insert(host);
    }
    let heavy = mix
        .entries()
        .iter()
        .max_by_key(|&&(class, weight)| (weight, std::cmp::Reverse(class)))
        .map(|&(class, _)| class)
        .unwrap_or(0);
    let victim = ring.owner(&catalog.class(heavy).key).unwrap_or(0);
    let nominal = cfg.placement_requests as f64 / cfg.placement_rps;
    let outage = HostOutage {
        host: victim,
        start: Nanos::from_nanos((nominal / 3.0 * 1e9) as u64),
        end: Nanos::from_nanos((nominal * 2.0 / 3.0 * 1e9) as u64),
    };
    let drill_arms: [(&'static str, ServingTier, RecoveryConfig); 3] = [
        ("naive", ServingTier::Template, RecoveryConfig::none()),
        ("resilient", ServingTier::Template, cfg.recovery),
        ("resilient-warm", ServingTier::WarmPool, cfg.recovery),
    ];
    for (label, tier, recovery) in drill_arms {
        let config = ClusterConfig {
            mix: cfg.mix.clone(),
            admission: cfg.admission,
            warm_target: cfg.warm_target,
            placement: PlacementPolicy::TemplateAffinity,
            vnodes: cfg.vnodes,
            seed: cfg.seed,
            outages: vec![outage],
            recovery,
            ..ClusterConfig::open_loop(
                cfg.placement_hosts,
                tier,
                cfg.placement_rps,
                cfg.placement_requests,
            )
        };
        let report = ClusterService::new(catalog.clone(), config)?.run();
        rows.push(row_from("outage", label.to_string(), &report));
    }

    Ok(ClusterSweepReport {
        cold_ceiling_rps: cold_ceiling(&catalog, &mix),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_rows_conserve_and_cover_all_arms() {
        let report = cluster_sweep(&ClusterSweepConfig::quick()).unwrap();
        let cfg = ClusterSweepConfig::quick();
        let expected = cfg.host_counts.len() * 3 + 3 + 3;
        assert_eq!(report.rows.len(), expected);
        for row in &report.rows {
            assert!(
                row.conserved,
                "conservation broke in {}/{}",
                row.arm, row.label
            );
        }
        assert!(report.cold_ceiling_rps > 0.0);
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = cluster_sweep(&ClusterSweepConfig::quick()).unwrap();
        let b = cluster_sweep(&ClusterSweepConfig::quick()).unwrap();
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.completed, y.completed);
            assert_eq!(x.p99_ms, y.p99_ms);
            assert_eq!(x.cache_misses, y.cache_misses);
            assert_eq!(x.failovers, y.failovers);
        }
    }

    #[test]
    fn outage_drill_fails_over_and_remeasures() {
        let report = cluster_sweep(&ClusterSweepConfig::quick()).unwrap();
        let resilient = report
            .rows
            .iter()
            .find(|r| r.arm == "outage" && r.label == "resilient")
            .unwrap();
        // The drill kills a host mid-stream: its work fails over and the
        // survivors re-measure its classes (more fills than classes).
        assert!(resilient.failovers > 0, "no failovers in the drill");
        assert!(
            resilient.cache_misses > ClusterSweepConfig::quick().classes.len() as u64,
            "no re-measurement after the outage"
        );
    }
}
