//! The chaos experiment: fleet availability under a seeded fault storm.
//!
//! One sweep serves the same seeded request stream at each offered load
//! three times:
//!
//! * **fault-free** — no fault plan, no recovery: the PR-1 baseline.
//! * **naive** — the fault storm with [`RecoveryConfig::none`]: every fault
//!   is a permanently failed request, dispatches keep feeding the dead PSP
//!   through reset outages, and the template cache's death goes unmanaged.
//! * **resilient** — the same storm (byte-identical [`FaultPlan`]) with
//!   retries, deadlines, circuit-breaker degradation, and PSP quiesce.
//!
//! The table the sweep feeds (`figures --table chaos`) shows the naive
//! fleet's goodput collapsing under PSP-reset storms while the resilient
//! fleet holds it, at a quantified p99 cost. Everything is derived from
//! `(seed, config)` — two sweeps with the same config are identical.

use sevf_sim::fault::{FaultConfig, FaultPlan};
use sevf_sim::Nanos;

use crate::admission::AdmissionConfig;
use crate::blueprint::{ClassSpec, MB};
use crate::recovery::RecoveryConfig;
use crate::service::{FleetConfig, FleetReport, FleetService, ServingTier};
use crate::workload::RequestMix;
use crate::FleetError;

/// How a sweep arm reacts to the storm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosArm {
    /// No faults injected at all (the PR-1 baseline).
    FaultFree,
    /// Faults injected, no recovery: every fault permanently fails.
    Naive,
    /// Faults injected, full recovery: retry + deadline + breaker + quiesce.
    Resilient,
}

impl ChaosArm {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ChaosArm::FaultFree => "fault-free",
            ChaosArm::Naive => "naive",
            ChaosArm::Resilient => "resilient",
        }
    }
}

/// Seed for catalog machines, arrivals, class sampling, fault plans, and
/// backoff jitter.
pub const SEED: u64 = 0x5EF0;

/// Knobs of one chaos sweep. Every arm serves at the template tier; the
/// naive and resilient arms take the [`FaultConfig::storm`], and the
/// resilient arm recovers with [`RecoveryConfig::resilient`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Request classes to serve.
    pub classes: Vec<ClassSpec>,
    /// Mix over those classes; `None` = uniform.
    pub mix: Option<RequestMix>,
    /// Requests per `(arm, load)` cell.
    pub requests: usize,
    /// Offered loads to sweep (req/s).
    pub loads_rps: Vec<f64>,
    /// Admission-controller knobs.
    pub admission: AdmissionConfig,
}

impl ChaosConfig {
    /// The headline chaos sweep: template serving of the paper mix under
    /// [`FaultConfig::storm`].
    pub fn paper_chaos() -> Self {
        ChaosConfig {
            classes: ClassSpec::paper_classes(16, 256 * MB),
            mix: Some(RequestMix::paper_mix()),
            requests: 300,
            loads_rps: vec![10.0, 25.0, 40.0, 60.0],
            admission: AdmissionConfig::default(),
        }
    }

    /// A fast sweep over the tiny test classes (tests, `--quick` example).
    pub fn quick() -> Self {
        ChaosConfig {
            classes: ClassSpec::quick_test_classes(),
            mix: Some(RequestMix::quick_test_mix()),
            requests: 400,
            loads_rps: vec![30.0, 120.0],
            admission: AdmissionConfig::quick_test(),
        }
    }
}

/// The sweep's result: the storm's shape plus each `(arm, load)` cell's own
/// report.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// PSP firmware resets the plan schedules at the *lowest* load's
    /// horizon (the longest-running cell sees the most).
    pub planned_resets: usize,
    /// Warm-guest crashes at the lowest load's horizon.
    pub planned_crashes: usize,
    /// One `(arm, report)` pair per `(arm, offered load)`, loads outermost.
    pub cells: Vec<(ChaosArm, FleetReport)>,
}

/// Plan horizon for one load: twice the nominal run length
/// (`requests / load`), so the storm outlives the run's fault-lengthened
/// tail.
fn horizon(requests: usize, load: f64) -> Nanos {
    Nanos::from_nanos((requests as f64 / load * 2.0 * 1e9) as u64)
}

/// Runs the full `(arm × load)` grid over one catalog.
///
/// # Errors
///
/// Propagates catalog-construction and fault-plan failures.
pub fn chaos_sweep(cfg: &ChaosConfig) -> Result<ChaosReport, FleetError> {
    let catalog = crate::blueprint::Catalog::build(SEED, &cfg.classes)?;

    let mut cells = Vec::new();
    let mut planned_resets = 0;
    let mut planned_crashes = 0;
    for (li, &load) in cfg.loads_rps.iter().enumerate() {
        let plan = FaultPlan::generate(SEED, FaultConfig::storm(), horizon(cfg.requests, load))
            .map_err(FleetError::FaultPlan)?;
        if li == 0 {
            planned_resets = plan.resets().len();
            planned_crashes = plan.warm_crashes().len();
        }
        let arms = [
            (ChaosArm::FaultFree, None, RecoveryConfig::none()),
            (ChaosArm::Naive, Some(plan.clone()), RecoveryConfig::none()),
            (
                ChaosArm::Resilient,
                Some(plan),
                RecoveryConfig::resilient(SEED),
            ),
        ];
        for (arm, fault, recovery) in arms {
            let config = FleetConfig {
                mix: cfg.mix.clone(),
                seed: SEED,
                admission: cfg.admission,
                fault,
                recovery,
                ..FleetConfig::open_loop(ServingTier::Template, load, cfg.requests)
            };
            cells.push((arm, FleetService::new(catalog.clone(), config).run()));
        }
    }
    Ok(ChaosReport {
        planned_resets,
        planned_crashes,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::FleetMetrics;

    fn cell(report: &ChaosReport, arm: ChaosArm, load: f64) -> &FleetMetrics {
        let found = |(a, r): &&(ChaosArm, FleetReport)| *a == arm && r.offered_rps == Some(load);
        &report
            .cells
            .iter()
            .find(found)
            .expect("cell exists")
            .1
            .metrics
    }

    #[test]
    fn resilient_goodput_strictly_beats_naive_at_every_load() {
        let cfg = ChaosConfig::quick();
        let report = chaos_sweep(&cfg).unwrap();
        for &load in &cfg.loads_rps {
            let naive = cell(&report, ChaosArm::Naive, load);
            let resilient = cell(&report, ChaosArm::Resilient, load);
            assert!(naive.failed > 0, "storm must hurt the naive arm at {load}");
            assert!(
                resilient.goodput_rps() > naive.goodput_rps(),
                "at {load} req/s: resilient {:.1} vs naive {:.1}",
                resilient.goodput_rps(),
                naive.goodput_rps()
            );
            assert!(
                resilient.completed > naive.completed,
                "at {load} req/s: resilient {} vs naive {}",
                resilient.completed,
                naive.completed
            );
        }
        assert!(report.planned_resets > 0);
    }

    #[test]
    fn fault_free_arm_matches_the_serving_baseline() {
        let cfg = ChaosConfig::quick();
        let report = chaos_sweep(&cfg).unwrap();
        for &load in &cfg.loads_rps {
            let base = cell(&report, ChaosArm::FaultFree, load);
            assert_eq!(base.faults.total(), 0);
            assert_eq!(base.failed, 0);
            assert_eq!(base.retries, 0);
            assert_eq!(base.completed as u64 + base.shed, cfg.requests as u64);
        }
    }

    #[test]
    fn sweeps_are_deterministic() {
        let cfg = ChaosConfig::quick();
        let a = chaos_sweep(&cfg).unwrap();
        let b = chaos_sweep(&cfg).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
