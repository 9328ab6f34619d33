//! The multi-tenant QoS experiment: one mixed workload, three policy arms.
//!
//! The workload is the collision the policy layer exists for: a **premium**
//! latency-sensitive tenant trickling interactive launches, a **batch**
//! tenant flooding the cluster with heavyweight (SNP-skewed) classes, and a
//! **posture-strict** tenant that refuses any host below the patched TCB
//! floor — while a staggered firmware rollout sweeps the fleet mid-run.
//! All three tenants share the same hosts, the same PSPs, and the same
//! arrival process; only the policy arm changes:
//!
//! * **fifo** — tenants are tagged and accounted but share one FIFO line
//!   per PSP and nothing is enforced. The batch flood queues ahead of the
//!   premium trickle, so premium p99 inflates past its deadline target:
//!   the head-of-line-blocking baseline.
//! * **wfq** — virtual-finish-time weighted-fair queueing over per-tenant
//!   backlogs plus token-bucket quotas. Premium's weight buys it a
//!   protected share of each PSP, so its p99 holds while batch keeps its
//!   throughput (quota rejects replace queue sheds at saturation).
//! * **wfq+posture** — full enforcement: WFQ + quotas + posture-aware
//!   placement. The strict tenant is only ever placed on hosts at or above
//!   its TCB floor — rejected outright while no such host exists, then
//!   steered to patched hosts as the rollout lands. The run counts posture
//!   violations (a launch dispatched onto an ineligible host); the
//!   invariant is that this stays zero.
//!
//! Per-tenant conservation (`completed + shed + breaker_sheds + timeouts +
//! failed + rejected == issued`) must hold for every tenant in every arm,
//! and identical configs replay byte-identically (the CI replay gate diffs
//! two `--quick --json` runs of `examples/tenant_qos.rs`).

use sevf_attplane::AttPlaneConfig;
use sevf_fleet::admission::AdmissionConfig;
use sevf_fleet::blueprint::{Catalog, ClassSpec, MB};
use sevf_fleet::recovery::RecoveryConfig;
use sevf_fleet::service::ServingTier;
use sevf_policy::{
    IsolationTier, PolicyConfig, PolicySpec, Posture, QuotaSpec, Scheduler, SloClass, Tenant,
};
use sevf_sim::Nanos;

use crate::experiment::SweepCell;
use crate::placement::PlacementPolicy;
use crate::service::{ClusterConfig, ClusterService, TcbRollout};
use crate::ClusterError;

/// Seed for catalog machines, arrivals, tenancy tagging, placement, and
/// WFQ tie-breaks.
pub const SEED: u64 = 0x7E4A;

/// Knobs of one policy sweep. Every arm serves 420 requests, recovers with
/// [`RecoveryConfig::resilient`], and runs the calibrated verifier (the
/// posture arm needs an attestation plane; all arms run it so the
/// substrate is identical).
#[derive(Debug, Clone)]
pub struct PolicySweepConfig {
    /// Request classes to serve (shared catalog for all arms).
    pub classes: Vec<ClassSpec>,
    /// Hosts in every arm.
    pub hosts: usize,
    /// Aggregate offered load (req/s), split across tenants by share.
    pub rps: f64,
    /// Per-host admission knobs (queue bound is also the WFQ bound).
    pub admission: AdmissionConfig,
    /// The staggered TCB rollout the strict tenant rides.
    pub rollout: TcbRollout,
    /// Premium tenant's p99 deadline target (ms) — the SLO the sweep
    /// scores FIFO and WFQ against.
    pub premium_deadline_ms: u64,
    /// Batch tenant's token-bucket quota.
    pub batch_quota: QuotaSpec,
    /// Premium tenant's class mix as `(class, weight)` pairs over
    /// [`PolicySweepConfig::classes`].
    pub premium_mix: Vec<(usize, u64)>,
    /// Batch flood's class mix (Zipf-skewed toward the heaviest class).
    pub batch_mix: Vec<(usize, u64)>,
}

impl PolicySweepConfig {
    /// The headline sweep over the paper mix.
    pub fn paper_policy() -> Self {
        PolicySweepConfig {
            classes: ClassSpec::paper_classes(16, 256 * MB),
            hosts: 4,
            rps: 140.0,
            admission: AdmissionConfig {
                queue_bound: 256,
                max_inflight: 2,
            },
            rollout: TcbRollout {
                start: Nanos::from_millis(500),
                stagger: Nanos::from_millis(150),
            },
            premium_deadline_ms: 1800,
            batch_quota: QuotaSpec {
                rate_per_sec: 90.0,
                burst: 24.0,
            },
            // Premium trickles light classes; the batch flood is
            // Zipf-skewed toward the heaviest SNP class.
            premium_mix: vec![(3, 3), (4, 1)],
            batch_mix: vec![(0, 8), (1, 4), (2, 2), (3, 1), (4, 1)],
        }
    }

    /// A fast sweep over the tiny test classes (tests, `--quick`).
    pub fn quick() -> Self {
        PolicySweepConfig {
            classes: ClassSpec::quick_test_classes(),
            hosts: 3,
            rps: 200.0,
            // A tight in-flight window keeps the scheduling decision in
            // the queue (the PSP serializes launches anyway); with a deep
            // window every arrival dispatches immediately and the
            // scheduler never gets to order anything.
            admission: AdmissionConfig {
                queue_bound: 192,
                max_inflight: 2,
            },
            rollout: TcbRollout {
                start: Nanos::from_millis(400),
                stagger: Nanos::from_millis(100),
            },
            premium_deadline_ms: 400,
            batch_quota: QuotaSpec {
                rate_per_sec: 130.0,
                burst: 16.0,
            },
            premium_mix: vec![(1, 1)],
            batch_mix: vec![(0, 3), (1, 1)],
        }
    }

    /// The three-tenant registry every arm shares: a premium
    /// latency-sensitive trickle (weight 8), a batch flood (weight 1,
    /// quota-capped, sheds first), and a posture-strict tenant pinned to
    /// TCB ≥ 1 hosts that launches class 0 only (SNP, in both catalogs).
    pub fn tenants(&self) -> Vec<Tenant> {
        let premium = Tenant {
            name: "premium",
            share: 2,
            spec: PolicySpec {
                isolation: IsolationTier::SevSnp,
                accept_degrade: true,
                posture: Posture::None,
                min_tcb: 0,
                slo: SloClass::LatencySensitive,
                deadline: Nanos::from_millis(self.premium_deadline_ms),
                weight: 8,
                quota: None,
            },
            class_mix: self.premium_mix.clone(),
        };
        let batch = Tenant {
            name: "batch",
            share: 9,
            spec: PolicySpec {
                isolation: IsolationTier::Sev,
                accept_degrade: true,
                posture: Posture::None,
                min_tcb: 0,
                slo: SloClass::Batch,
                deadline: Nanos::from_secs(2),
                weight: 1,
                quota: Some(self.batch_quota),
            },
            class_mix: self.batch_mix.clone(),
        };
        let strict = Tenant {
            name: "strict",
            share: 1,
            spec: PolicySpec {
                isolation: IsolationTier::SevSnp,
                accept_degrade: false,
                posture: Posture::Fresh,
                min_tcb: 1,
                slo: SloClass::LatencySensitive,
                deadline: Nanos::from_millis(400),
                weight: 4,
                quota: None,
            },
            class_mix: vec![(0, 1)],
        };
        vec![premium, batch, strict]
    }
}

/// Runs the three-arm policy sweep over one catalog: one cell per arm
/// ("fifo", "wfq", "wfq+posture"), each carrying the policy it ran under
/// (whose tenants hold the deadline targets) beside the report (whose
/// `tenants` rollup is in the same premium/batch/strict order).
///
/// # Errors
///
/// Propagates catalog-construction failures ([`ClusterError::Fleet`]) and
/// tenant registry mistakes ([`ClusterError::Policy`]).
pub fn policy_sweep(cfg: &PolicySweepConfig) -> Result<Vec<SweepCell>, ClusterError> {
    let catalog = Catalog::build(SEED, &cfg.classes)?;
    let tenants = cfg.tenants();

    let arms: [(&'static str, PolicyConfig); 3] = [
        ("fifo", PolicyConfig::tagged(tenants.clone())),
        (
            "wfq",
            PolicyConfig {
                tenants: tenants.clone(),
                scheduler: Scheduler::Wfq,
                quotas: true,
                posture: false,
            },
        ),
        ("wfq+posture", PolicyConfig::enforced(tenants.clone())),
    ];

    let mut cells = Vec::new();
    for (arm, policy) in arms {
        let config = ClusterConfig {
            seed: SEED,
            admission: cfg.admission,
            placement: PlacementPolicy::JsqPsp,
            recovery: RecoveryConfig::resilient(SEED),
            attestation: Some(AttPlaneConfig::cached_batched()),
            tcb_rollout: Some(cfg.rollout),
            policy: Some(policy.clone()),
            ..ClusterConfig::open_loop(cfg.hosts, ServingTier::Template, cfg.rps, 420)
        };
        let report = ClusterService::new(catalog.clone(), config)?.run();
        cells.push(SweepCell {
            policy: Some(policy),
            ..SweepCell::new(arm, "", report)
        });
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sevf_policy::TenantMetrics;

    /// `tenant`'s terminal accounting in `arm`.
    fn tenant<'a>(cells: &'a [SweepCell], arm: &str, tenant: &str) -> &'a TenantMetrics {
        let cell = SweepCell::find(cells, arm, "").unwrap();
        let rollups = cell.report.tenants.as_ref().unwrap();
        &rollups.iter().find(|t| t.name == tenant).unwrap().metrics
    }

    #[test]
    fn sweep_conserves_every_tenant_in_every_arm_and_replays() {
        let cfg = PolicySweepConfig::quick();
        let a = policy_sweep(&cfg).unwrap();
        let b = policy_sweep(&cfg).unwrap();
        assert_eq!(a.len(), 3);
        for cell in &a {
            assert!(cell.report.metrics.conserved());
            let rollups = cell.report.tenants.as_ref().unwrap();
            assert_eq!(rollups.len(), 3);
            assert!(
                rollups.iter().all(|t| t.metrics.conserved()),
                "{rollups:#?}"
            );
        }
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn fifo_violates_premium_deadline_and_wfq_holds_it() {
        let cfg = PolicySweepConfig::quick();
        let cells = policy_sweep(&cfg).unwrap();
        let deadline_ms = cfg.premium_deadline_ms as f64;
        let fifo = tenant(&cells, "fifo", "premium");
        let wfq = tenant(&cells, "wfq", "premium");
        assert!(
            fifo.p99_ms() > deadline_ms,
            "the batch flood must blow premium's p99 past {deadline_ms} ms under FIFO, got {:.2} ms",
            fifo.p99_ms()
        );
        assert!(
            wfq.completed > 0 && wfq.p99_ms() <= deadline_ms,
            "WFQ must hold premium's p99 under {deadline_ms} ms, got {:.2} ms",
            wfq.p99_ms()
        );
        assert!(wfq.p99_ms() < fifo.p99_ms());
    }

    #[test]
    fn batch_keeps_its_throughput_under_wfq() {
        let cells = policy_sweep(&PolicySweepConfig::quick()).unwrap();
        let goodput = |arm: &str| {
            let makespan = SweepCell::find(&cells, arm, "")
                .unwrap()
                .report
                .metrics
                .makespan;
            tenant(&cells, arm, "batch").goodput_rps(makespan)
        };
        // Protecting premium must not starve batch: goodput within 20%
        // of the FIFO baseline (quota rejects replace queue sheds).
        assert!(
            goodput("wfq") >= 0.8 * goodput("fifo"),
            "batch goodput {:.1} rps vs FIFO {:.1} rps",
            goodput("wfq"),
            goodput("fifo")
        );
        // The quota actually bites in the enforced arm.
        assert!(
            tenant(&cells, "wfq", "batch").rejected > 0,
            "batch quota must reject some of the flood"
        );
    }

    #[test]
    fn posture_arm_never_violates_the_tcb_floor() {
        let cells = policy_sweep(&PolicySweepConfig::quick()).unwrap();
        let arm = &SweepCell::find(&cells, "wfq+posture", "")
            .unwrap()
            .report
            .metrics;
        assert!(arm.posture_checks > 0, "the filter must actually run");
        assert_eq!(
            arm.posture_violations, 0,
            "a strict launch landed on a host below its TCB floor"
        );
        let strict = tenant(&cells, "wfq+posture", "strict");
        // Arrivals before any host reaches TCB 1 are rejected, the rest
        // complete on patched hosts only.
        assert!(strict.completed > 0, "{strict:#?}");
        assert!(strict.conserved());
        // The non-posture arms place strict anywhere (nothing enforced),
        // so no rejects for eligibility there.
        assert_eq!(tenant(&cells, "fifo", "strict").rejected, 0);
    }
}
