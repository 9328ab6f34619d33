//! The serving experiment: cold vs template vs warm-pool at offered loads.
//!
//! One sweep builds the class catalog once, then serves the same seeded
//! open-loop request stream at each offered load under each serving tier.
//! The cold tier's throughput ceiling is `1 / psp_ms` — the serialized PSP
//! work per launch (Fig. 12's slope, ≈ 36 ms for a 256 MB SNP guest) —
//! so its p99 and shed counts blow up once the offered load crosses it.
//! Template serving (§6.2) cuts the per-request PSP work to the shared-key
//! activation, and warm pools (§7.1) skip the PSP entirely on hits, so both
//! sustain strictly higher load before their tails degrade.

use crate::admission::AdmissionConfig;
use crate::blueprint::{Catalog, ClassSpec, MB};
use crate::service::{FleetConfig, FleetReport, FleetService, ServingTier};
use crate::workload::RequestMix;
use crate::FleetError;

/// Seed for catalog machines, arrivals, and class sampling.
const SEED: u64 = 0x5EF0;

/// Knobs of one serving sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Request classes to serve.
    pub classes: Vec<ClassSpec>,
    /// Mix over those classes; `None` = uniform.
    pub mix: Option<RequestMix>,
    /// Requests per (tier, load) cell.
    pub requests: usize,
    /// Offered loads to sweep (req/s).
    pub loads_rps: Vec<f64>,
    /// Admission-controller knobs.
    pub admission: AdmissionConfig,
    /// Warm-pool target per class.
    pub warm_target: usize,
}

impl SweepConfig {
    /// The headline serving sweep: the paper-mix classes (three kernels
    /// across SEV generations plus stock) with 256 MB guests and 16×
    /// scaled-down images, SNP-heavy mix, loads spanning the cold tier's
    /// PSP-bound capacity.
    pub fn paper_serving() -> Self {
        SweepConfig {
            classes: ClassSpec::paper_classes(16, 256 * MB),
            // SNP-heavy, as the paper's evaluation is: the two SNP classes
            // carry most of the traffic (and nearly all the PSP work).
            mix: Some(RequestMix::paper_mix()),
            requests: 300,
            loads_rps: vec![2.0, 10.0, 25.0, 40.0, 60.0, 90.0],
            admission: AdmissionConfig::default(),
            warm_target: 24,
        }
    }

    /// A fast sweep over the tiny test classes (unit/integration tests).
    ///
    /// The knobs are chosen so the two loads straddle the cold tier's
    /// PSP ceiling without crossing the template tier's (attestation- and
    /// inflight-bound) capacity: the SNP-heavy mix keeps the ceiling low,
    /// and the stream is long enough for the overloaded queue to actually
    /// fill its bound and shed rather than just absorb the burst.
    pub fn quick() -> Self {
        SweepConfig {
            classes: ClassSpec::quick_test_classes(),
            mix: Some(RequestMix::quick_test_mix()),
            requests: 600,
            loads_rps: vec![20.0, 140.0],
            admission: AdmissionConfig::quick_test(),
            warm_target: 64,
        }
    }
}

/// The sweep's result: the cold PSP cost that caps throughput, plus each
/// `(tier, load)` cell's own report.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Mix-weighted serialized PSP work per cold launch (ms) — the Fig. 12
    /// slope for this mix.
    pub cold_psp_ms: f64,
    /// The PSP-bound cold-serving ceiling, `1000 / cold_psp_ms` (req/s).
    pub cold_capacity_rps: f64,
    /// One report per `(tier, offered load)` cell, tiers outermost.
    pub reports: Vec<FleetReport>,
}

/// Mix-weighted mean of the per-class cold PSP work.
fn weighted_cold_psp_ms(catalog: &Catalog, mix: &RequestMix) -> f64 {
    let mut weighted = 0.0;
    let mut total = 0u64;
    for &(class, weight) in mix.entries() {
        weighted += catalog.class(class).cold.psp_work().as_millis_f64() * weight as f64;
        total += weight;
    }
    weighted / total as f64
}

/// Runs the full `(tier × load)` grid over one catalog.
///
/// # Errors
///
/// Propagates catalog-construction failures ([`FleetError`]).
pub fn serving_sweep(cfg: &SweepConfig) -> Result<SweepReport, FleetError> {
    let catalog = Catalog::build(SEED, &cfg.classes)?;
    let mix = cfg
        .mix
        .clone()
        .unwrap_or_else(|| RequestMix::uniform(catalog.len()));
    let cold_psp_ms = weighted_cold_psp_ms(&catalog, &mix);

    let mut reports = Vec::new();
    for tier in [
        ServingTier::Cold,
        ServingTier::Template,
        ServingTier::WarmPool,
    ] {
        for &load in &cfg.loads_rps {
            let config = FleetConfig {
                tier,
                arrival: crate::workload::Arrival::Open { rate_per_sec: load },
                mix: Some(mix.clone()),
                requests: cfg.requests,
                seed: SEED,
                admission: cfg.admission,
                warm_target: cfg.warm_target,
                fault: None,
                recovery: crate::recovery::RecoveryConfig::none(),
            };
            reports.push(FleetService::new(catalog.clone(), config).run());
        }
    }
    Ok(SweepReport {
        cold_psp_ms,
        cold_capacity_rps: 1000.0 / cold_psp_ms,
        reports,
    })
}

/// Reports of one tier, in load order (convenience for tests and tables).
pub fn tier_reports(report: &SweepReport, tier: ServingTier) -> Vec<&FleetReport> {
    report.reports.iter().filter(|r| r.tier == tier).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_has_full_grid_and_conserves_requests() {
        let cfg = SweepConfig::quick();
        let report = serving_sweep(&cfg).unwrap();
        assert_eq!(report.reports.len(), 3 * cfg.loads_rps.len());
        for cell in &report.reports {
            assert_eq!(
                cell.metrics.completed + cell.metrics.shed as usize,
                cfg.requests,
                "{} @ {:?}",
                cell.tier.name(),
                cell.offered_rps
            );
        }
        assert!(report.cold_psp_ms > 0.0);
        assert!(report.cold_capacity_rps > 0.0);
    }

    #[test]
    fn sweep_is_deterministic() {
        let cfg = SweepConfig::quick();
        let a = serving_sweep(&cfg).unwrap();
        let b = serving_sweep(&cfg).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn psp_utilization_rises_with_cold_load() {
        let cfg = SweepConfig::quick();
        let report = serving_sweep(&cfg).unwrap();
        let cold = tier_reports(&report, ServingTier::Cold);
        assert!(cold[0].metrics.psp_utilization < cold[1].metrics.psp_utilization);
    }
}
