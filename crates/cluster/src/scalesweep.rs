//! The autoscaling experiment: one flash crowd, three provisioning arms.
//!
//! The workload is the ramp the paper's fast-start machinery exists to
//! absorb: a quiet base rate, then a flash crowd — a fast ramp to many
//! times base decaying exponentially back down. Every arm serves the
//! *same*
//! arrival instants (the curve draws from the shared seed stream before
//! anything else); only who pays for capacity changes:
//!
//! * **static** — `max_hosts` provisioned for the whole run, the
//!   overprovisioned ceiling. The tail holds trivially, and the
//!   host-seconds bill is the worst possible.
//! * **reactive** — starts at `min_hosts`, scales out when PSP backlog
//!   crosses the threshold. By the time the queue hurts, the ramp has
//!   already arrived: the crowd eats the scale-out latency as tail.
//! * **predictive** — starts at `min_hosts`, forecasts the windowed rate
//!   trend and pre-provisions hosts (and re-spreads warm-pool targets)
//!   ahead of the ramp. Warm boots are ~free while cold SEV launches pin
//!   at the per-host ceiling, so arriving *before* the crowd is the whole
//!   game.
//!
//! The sweep emits the cost-vs-p99-vs-shed frontier (`figures --table
//! autoscale`): the headline claim is the predictive arm holding p99 under
//! the flash-crowd SLO at a lower host-seconds cost than static-max
//! provisioning. Conservation (`completed + shed + breaker_sheds +
//! timeouts + failed + rejected == issued`) must hold in every cell, and
//! identical configs replay byte-identically (the CI replay gate diffs two
//! `--quick --json` runs of `examples/autoscale_drill.rs`).

use sevf_fleet::admission::AdmissionConfig;
use sevf_fleet::blueprint::{Catalog, ClassSpec, MB};
use sevf_fleet::recovery::RecoveryConfig;
use sevf_fleet::service::ServingTier;
use sevf_scale::{AutoscalerConfig, FlashCrowd, ScalePolicy, Workload, WorkloadCurve};
use sevf_sim::Nanos;

use crate::experiment::SweepCell;
use crate::placement::PlacementPolicy;
use crate::service::{ClusterConfig, ClusterService};
use crate::ClusterError;

/// Seed for catalog machines, arrivals, and placement.
pub const SEED: u64 = 0x5CA1E;

/// Knobs of one autoscale sweep. Every arm recovers with
/// [`RecoveryConfig::resilient`].
#[derive(Debug, Clone)]
pub struct ScaleSweepConfig {
    /// Request classes to serve (shared catalog for all arms).
    pub classes: Vec<ClassSpec>,
    /// Floor of the elastic arms (their starting host count).
    pub min_hosts: usize,
    /// Ceiling of the elastic arms, and the static arm's fixed size.
    pub max_hosts: usize,
    /// Requests per arm.
    pub requests: usize,
    /// The flash-crowd shape every arm serves.
    pub crowd: FlashCrowd,
    /// Per-host admission knobs.
    pub admission: AdmissionConfig,
    /// Cluster-wide warm slots per class, spread over whoever is live.
    pub warm_budget: usize,
    /// Autoscaler control-loop period.
    pub tick: Nanos,
    /// Minimum spacing between membership changes.
    pub cooldown: Nanos,
    /// Per-host sustainable rate the scaler provisions against (req/s).
    pub host_rps: f64,
    /// Predictive forecast window (ticks).
    pub window: usize,
    /// Predictive forecast lead.
    pub lead: Nanos,
    /// The p99 target (ms) the frontier scores arms against.
    pub slo_ms: f64,
}

impl ScaleSweepConfig {
    /// The headline sweep over the paper mix.
    pub fn paper_scale() -> Self {
        ScaleSweepConfig {
            classes: ClassSpec::paper_classes(16, 256 * MB),
            min_hosts: 2,
            max_hosts: 8,
            requests: 2000,
            crowd: FlashCrowd {
                base: 60.0,
                peak: 800.0,
                at: Nanos::from_millis(2500),
                ramp: Nanos::from_millis(1500),
                decay: Nanos::from_millis(2000),
            },
            admission: AdmissionConfig {
                queue_bound: 256,
                max_inflight: 2,
            },
            warm_budget: 48,
            tick: Nanos::from_millis(150),
            cooldown: Nanos::from_millis(300),
            host_rps: 90.0,
            window: 5,
            lead: Nanos::from_millis(1200),
            slo_ms: 500.0,
        }
    }

    /// A fast sweep over the tiny test classes (tests, `--quick`).
    pub fn quick() -> Self {
        ScaleSweepConfig {
            classes: ClassSpec::quick_test_classes(),
            min_hosts: 2,
            max_hosts: 6,
            requests: 700,
            crowd: FlashCrowd {
                base: 50.0,
                peak: 420.0,
                at: Nanos::from_secs(1),
                ramp: Nanos::from_millis(700),
                decay: Nanos::from_millis(1500),
            },
            admission: AdmissionConfig {
                queue_bound: 192,
                max_inflight: 2,
            },
            warm_budget: 36,
            tick: Nanos::from_millis(100),
            cooldown: Nanos::from_millis(200),
            host_rps: 70.0,
            window: 4,
            lead: Nanos::from_millis(600),
            slo_ms: 600.0,
        }
    }

    /// The autoscaler the elastic arms run, differing only in policy. The
    /// reactive thresholds are `sevf_scale::autoscaler::BACKLOG_OUT` and
    /// `sevf_scale::autoscaler::BACKLOG_IN`.
    pub fn scaler(&self, policy: ScalePolicy) -> AutoscalerConfig {
        AutoscalerConfig {
            min_hosts: self.min_hosts,
            max_hosts: self.max_hosts,
            policy,
            tick: self.tick,
            cooldown: self.cooldown,
            host_rps: self.host_rps,
            warm_budget: self.warm_budget,
        }
    }
}

/// Runs the three-arm autoscale sweep over one catalog: one cell per arm
/// ("static", "reactive", "predictive"). `report.hosts` is the count the arm
/// started with and `report.autoscale` its decision counters and audit log
/// (`None` for the static arm).
///
/// # Errors
///
/// Propagates catalog-construction failures ([`ClusterError::Fleet`]) and
/// invalid curve/scaler knobs ([`ClusterError::Scale`]).
pub fn scale_sweep(cfg: &ScaleSweepConfig) -> Result<Vec<SweepCell>, ClusterError> {
    let catalog = Catalog::build(SEED, &cfg.classes)?;
    let workload = Workload::FlashCrowd(cfg.crowd);
    workload.validate()?;

    let arms: [(&'static str, usize, Option<AutoscalerConfig>); 3] = [
        ("static", cfg.max_hosts, None),
        (
            "reactive",
            cfg.min_hosts,
            Some(cfg.scaler(ScalePolicy::Reactive)),
        ),
        (
            "predictive",
            cfg.min_hosts,
            Some(cfg.scaler(ScalePolicy::Predictive {
                window: cfg.window,
                lead: cfg.lead,
            })),
        ),
    ];

    let mut cells = Vec::new();
    for (arm, hosts, autoscaler) in arms {
        // Every arm spreads the same cluster-wide warm budget over its
        // starting hosts, so no arm begins with an unfair slot advantage.
        let config = ClusterConfig {
            seed: SEED,
            admission: cfg.admission,
            recovery: RecoveryConfig::resilient(SEED),
            warm_target: cfg.warm_budget.div_ceil(hosts),
            placement: PlacementPolicy::WarmReady,
            workload: Some(workload),
            autoscaler,
            ..ClusterConfig::open_loop(
                hosts,
                ServingTier::WarmPool,
                workload.peak_rate(),
                cfg.requests,
            )
        };
        let report = ClusterService::new(catalog.clone(), config)?.run();
        cells.push(SweepCell::new(arm, "", report));
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ClusterReport;

    fn arm<'a>(cells: &'a [SweepCell], arm: &str) -> &'a ClusterReport {
        &SweepCell::find(cells, arm, "").unwrap().report
    }

    #[test]
    fn sweep_conserves_every_arm_and_replays() {
        let cfg = ScaleSweepConfig::quick();
        let a = scale_sweep(&cfg).unwrap();
        let b = scale_sweep(&cfg).unwrap();
        assert_eq!(a.len(), 3);
        for cell in &a {
            assert!(
                cell.report.metrics.conserved(),
                "{:#?}",
                cell.report.metrics
            );
        }
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn predictive_holds_the_slo_cheaper_than_static_max() {
        let cfg = ScaleSweepConfig::quick();
        let cells = scale_sweep(&cfg).unwrap();
        let fixed = &arm(&cells, "static").metrics;
        let predictive = &arm(&cells, "predictive").metrics;
        assert!(
            fixed.completed > 0 && fixed.p99_ms() <= cfg.slo_ms,
            "the overprovisioned ceiling must hold the SLO: p99 {:.1} ms",
            fixed.p99_ms()
        );
        assert!(
            predictive.completed > 0 && predictive.p99_ms() <= cfg.slo_ms,
            "predictive must hold p99 under {} ms through the ramp, got {:.1} ms",
            cfg.slo_ms,
            predictive.p99_ms()
        );
        assert!(
            predictive.host_seconds < fixed.host_seconds,
            "predictive host-seconds {:.2} must undercut static {:.2}",
            predictive.host_seconds,
            fixed.host_seconds
        );
    }

    #[test]
    fn elastic_arms_actually_scale_and_stay_in_bounds() {
        let cfg = ScaleSweepConfig::quick();
        let cells = scale_sweep(&cfg).unwrap();
        for name in ["reactive", "predictive"] {
            let r = arm(&cells, name).autoscale.as_ref().unwrap();
            assert!(r.scale_outs > 0, "{name}: the crowd must force a scale-out");
            assert!(r.ticks > 0);
            assert!(
                r.min_live >= cfg.min_hosts && r.max_live <= cfg.max_hosts,
                "{name}: live hosts [{}, {}] escaped [{}, {}]",
                r.min_live,
                r.max_live,
                cfg.min_hosts,
                cfg.max_hosts
            );
        }
        assert!(arm(&cells, "static").autoscale.is_none());
    }

    #[test]
    fn predictive_scales_out_no_later_than_reactive() {
        // The predictive arm's whole advantage is lead time: its first
        // scale-out must land on or before the reactive arm's.
        let cells = scale_sweep(&ScaleSweepConfig::quick()).unwrap();
        let first_out = |name: &str| {
            let events = &arm(&cells, name).autoscale.as_ref().unwrap().events;
            events.iter().find_map(|e| match e {
                crate::service::ScaleEvent::Out { at, added, .. } if *added > 0 => Some(*at),
                _ => None,
            })
        };
        let reactive = first_out("reactive").expect("reactive must scale out");
        let predictive = first_out("predictive").expect("predictive must scale out");
        assert!(
            predictive <= reactive,
            "predictive first scale-out at {predictive} must not trail reactive at {reactive}"
        );
    }
}
