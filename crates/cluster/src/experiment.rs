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
//! A cell of the sweep is its run's own [`ClusterReport`] under the arm and
//! label that produced it ([`SweepCell`], shared by the attestation, net,
//! policy and autoscale sweeps); the exporter in `sevf-bench` names the
//! columns. Every cell must conserve (`completed + shed + breaker_sheds +
//! timeouts + failed == issued`). Identical configs produce byte-identical
//! reports.

use sevf_fleet::admission::AdmissionConfig;
use sevf_fleet::blueprint::{Catalog, ClassSpec, MB};
use sevf_fleet::recovery::RecoveryConfig;
use sevf_fleet::service::ServingTier;
use sevf_fleet::workload::RequestMix;
use sevf_policy::PolicyConfig;
use sevf_sim::Nanos;

use crate::placement::PlacementPolicy;
use crate::service::{ClusterConfig, ClusterReport, ClusterService, HostOutage};
use crate::ClusterError;

/// Seed for catalog machines, arrivals, placement, and fault domains.
pub const SEED: u64 = 0x5EF0;

/// Knobs of one cluster sweep.
#[derive(Debug, Clone)]
pub struct ClusterSweepConfig {
    /// Request classes to serve (shared catalog for all hosts).
    pub classes: Vec<ClassSpec>,
    /// Mix over those classes; `None` = uniform.
    pub mix: Option<RequestMix>,
    /// Host counts of the scaling arm.
    pub host_counts: Vec<usize>,
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
}

impl ClusterSweepConfig {
    /// The headline cluster sweep over the paper mix.
    pub fn paper_cluster() -> Self {
        ClusterSweepConfig {
            classes: ClassSpec::paper_classes(16, 256 * MB),
            mix: Some(RequestMix::paper_mix()),
            host_counts: vec![1, 2, 4, 8],
            requests_per_host: 150,
            placement_hosts: 4,
            placement_rps: 100.0,
            placement_requests: 400,
            admission: AdmissionConfig::default(),
            warm_target: 8,
            vnodes: 64,
        }
    }

    /// A fast sweep over the tiny test classes (tests, `--quick` example).
    pub fn quick() -> Self {
        ClusterSweepConfig {
            classes: ClassSpec::quick_test_classes(),
            mix: Some(RequestMix::quick_test_mix()),
            host_counts: vec![1, 2, 4],
            requests_per_host: 100,
            placement_hosts: 3,
            placement_rps: 150.0,
            placement_requests: 300,
            admission: AdmissionConfig::quick_test(),
            warm_target: 16,
            vnodes: 32,
        }
    }
}

/// One cell of a serving sweep: the arm and label that produced it, and the
/// run's own report.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Which arm of the sweep ran.
    pub arm: &'static str,
    /// The cell within the arm — a tier, a placement policy, a verification
    /// mode, a control-plane policy; empty where an arm is one cell.
    pub label: &'static str,
    /// The tenant policy the arm ran under (the policy sweep's arms).
    pub policy: Option<PolicyConfig>,
    /// What the run reported.
    pub report: ClusterReport,
}

impl SweepCell {
    /// A cell of an arm that runs no tenant policy.
    pub fn new(arm: &'static str, label: &'static str, report: ClusterReport) -> Self {
        SweepCell {
            arm,
            label,
            policy: None,
            report,
        }
    }

    /// The cell `(arm, label)` of `cells`, if present.
    pub fn find<'a>(cells: &'a [SweepCell], arm: &str, label: &str) -> Option<&'a SweepCell> {
        cells.iter().find(|c| c.arm == arm && c.label == label)
    }
}

/// The sweep's result.
#[derive(Debug, Clone)]
pub struct ClusterSweepReport {
    /// Mix-weighted cold-launch PSP ceiling of one host (req/s): the
    /// Fig. 12 bound the scaling arm's cold per-host goodput cannot exceed.
    pub cold_ceiling_rps: f64,
    /// One cell per run: scaling, then placement, then outage.
    pub cells: Vec<SweepCell>,
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

/// Runs the three-arm sweep over one catalog.
///
/// # Errors
///
/// Propagates catalog-construction failures ([`ClusterError::Fleet`]) and
/// configuration errors from the cluster builder.
pub fn cluster_sweep(cfg: &ClusterSweepConfig) -> Result<ClusterSweepReport, ClusterError> {
    let catalog = Catalog::build(SEED, &cfg.classes)?;
    let mix = cfg
        .mix
        .clone()
        .unwrap_or_else(|| RequestMix::uniform(catalog.len()));
    let mut cells = Vec::new();

    // Arm 1: scale-out. Load and requests grow with the host count, so a
    // tier that scales keeps per-host goodput flat at the offered rate.
    // 60 req/s per host is above the ~39 req/s cold PSP ceiling: cold
    // serving saturates and pins there per host, template/warm track the
    // offered rate.
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
                seed: SEED,
                ..ClusterConfig::open_loop(
                    hosts,
                    tier,
                    60.0 * hosts as f64,
                    cfg.requests_per_host * hosts,
                )
            };
            let report = ClusterService::new(catalog.clone(), config)?.run();
            cells.push(SweepCell::new("scaling", tier.name(), report));
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
            seed: SEED,
            ..ClusterConfig::open_loop(
                cfg.placement_hosts,
                ServingTier::Template,
                cfg.placement_rps,
                cfg.placement_requests,
            )
        };
        let report = ClusterService::new(catalog.clone(), config)?.run();
        cells.push(SweepCell::new("placement", placement.name(), report));
    }

    // Arm 3: outage drill. The host owning the heaviest class dies a third
    // of the way into the nominal run and comes back at two thirds;
    // affinity placement makes the re-measurement story visible (the dead
    // host's classes get a new ring owner that must fill their templates).
    // The ring is a pure function of (seed, vnodes), so the victim the
    // router would route to is computable up front.
    let mut ring = crate::ring::HashRing::new(SEED, cfg.vnodes);
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
    let resilient = RecoveryConfig::resilient(SEED);
    let drill_arms: [(&'static str, ServingTier, RecoveryConfig); 3] = [
        ("naive", ServingTier::Template, RecoveryConfig::none()),
        ("resilient", ServingTier::Template, resilient),
        ("resilient-warm", ServingTier::WarmPool, resilient),
    ];
    for (label, tier, recovery) in drill_arms {
        let config = ClusterConfig {
            mix: cfg.mix.clone(),
            admission: cfg.admission,
            warm_target: cfg.warm_target,
            placement: PlacementPolicy::TemplateAffinity,
            vnodes: cfg.vnodes,
            seed: SEED,
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
        cells.push(SweepCell::new("outage", label, report));
    }

    Ok(ClusterSweepReport {
        cold_ceiling_rps: cold_ceiling(&catalog, &mix),
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_cells_conserve_and_cover_all_arms() {
        let report = cluster_sweep(&ClusterSweepConfig::quick()).unwrap();
        let cfg = ClusterSweepConfig::quick();
        let expected = cfg.host_counts.len() * 3 + 3 + 3;
        assert_eq!(report.cells.len(), expected);
        for cell in &report.cells {
            assert!(
                cell.report.metrics.conserved(),
                "conservation broke in {}/{}",
                cell.arm,
                cell.label
            );
        }
        assert!(report.cold_ceiling_rps > 0.0);
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = cluster_sweep(&ClusterSweepConfig::quick()).unwrap();
        let b = cluster_sweep(&ClusterSweepConfig::quick()).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn outage_drill_fails_over_and_remeasures() {
        let report = cluster_sweep(&ClusterSweepConfig::quick()).unwrap();
        let resilient = SweepCell::find(&report.cells, "outage", "resilient").unwrap();
        let m = &resilient.report.metrics;
        // The drill kills a host mid-stream: its work fails over and the
        // survivors re-measure its classes (more fills than classes).
        assert!(m.failovers > 0, "no failovers in the drill");
        assert!(
            m.cache_misses() > ClusterSweepConfig::quick().classes.len() as u64,
            "no re-measurement after the outage"
        );
    }
}
