//! The policy engine: the single choke point every dispatch flows through.
//!
//! `evaluate` is deliberately shaped like a state-machine transition
//! record (the zero-os exemplar in SNIPPETS.md: "all consequential
//! transitions flow through the Policy Engine"): one call per dispatch
//! decision, one [`PolicyDecision`] out, recorded as an obs marker so
//! traces show *why* a request landed where it did. Host eligibility
//! ([`PolicyEngine::host_eligible`]) is the posture-aware placement
//! filter the cluster applies before its ring/JSQ router runs — and
//! re-checks at dispatch, because a TCB rollout can change a host's
//! firmware between enqueue and pop.

use crate::quota::TokenBucket;
use crate::spec::{IsolationTier, PolicyConfig, PolicySpec, Posture, SloClass};
use crate::PolicyError;
use sevf_obs::metrics::percentile_or_zero;
use sevf_sim::Nanos;

/// What the placement layer knows about a host when policy consults it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostPosture {
    /// The host's current TCB (firmware) version.
    pub tcb_version: u32,
    /// Whether the host's chip key is currently distrusted.
    pub revoked: bool,
}

/// Why a request was turned away at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's token bucket is empty.
    QuotaExceeded,
    /// The substrate runs a weaker isolation tier than the tenant demands
    /// and the tenant refuses degradation.
    IsolationUnavailable,
    /// No live host satisfies the tenant's posture (min TCB / revocation)
    /// requirements right now.
    NoEligibleHost,
}

impl RejectReason {
    /// Short machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::QuotaExceeded => "quota-exceeded",
            RejectReason::IsolationUnavailable => "isolation-unavailable",
            RejectReason::NoEligibleHost => "no-eligible-host",
        }
    }
}

/// The decision record produced by [`PolicyEngine::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyDecision {
    /// Admit at the tenant's SLO class and fair-share weight.
    Admit {
        /// SLO class driving deadline targets and shed priority.
        class: SloClass,
        /// WFQ weight.
        weight: u64,
    },
    /// Admit, but at a weaker isolation tier than requested (the tenant
    /// opted in via `accept_degrade`).
    Degrade {
        /// The tier actually provided.
        to: IsolationTier,
    },
    /// Turn the request away before it consumes any PSP work.
    Reject {
        /// Why.
        reason: RejectReason,
    },
}

/// The policy engine: tenant specs + live quota state.
#[derive(Debug)]
pub struct PolicyEngine {
    substrate: IsolationTier,
    quotas_enforced: bool,
    specs: Vec<PolicySpec>,
    buckets: Vec<Option<TokenBucket>>,
}

impl PolicyEngine {
    /// Build an engine for a validated config against a substrate that
    /// provides `substrate` isolation.
    pub fn new(
        cfg: &PolicyConfig,
        substrate: IsolationTier,
        catalog_classes: usize,
    ) -> Result<Self, PolicyError> {
        cfg.validate(catalog_classes)?;
        Ok(PolicyEngine {
            substrate,
            quotas_enforced: cfg.quotas,
            specs: cfg.tenants.iter().map(|t| t.spec).collect(),
            buckets: cfg
                .tenants
                .iter()
                .map(|t| t.spec.quota.map(|q| TokenBucket::new(q, Nanos::ZERO)))
                .collect(),
        })
    }

    /// How many tenants the engine knows.
    pub fn tenant_count(&self) -> usize {
        self.specs.len()
    }

    /// The spec for one tenant.
    pub fn spec(&self, tenant: usize) -> &PolicySpec {
        &self.specs[tenant]
    }

    /// The single choke point: one call per dispatch decision.
    ///
    /// Order of checks: quota (cheapest, protects the PSP), then
    /// isolation availability. Quota is charged even for decisions that
    /// later fail placement — admission is the contract boundary.
    pub fn evaluate(&mut self, tenant: usize, now: Nanos) -> PolicyDecision {
        debug_assert!(tenant < self.specs.len(), "unknown tenant {tenant}");
        let spec = self.specs[tenant];
        if self.quotas_enforced {
            if let Some(bucket) = &mut self.buckets[tenant] {
                if !bucket.try_take(now) {
                    return PolicyDecision::Reject {
                        reason: RejectReason::QuotaExceeded,
                    };
                }
            }
        }
        if spec.isolation > self.substrate {
            return if spec.accept_degrade {
                PolicyDecision::Degrade { to: self.substrate }
            } else {
                PolicyDecision::Reject {
                    reason: RejectReason::IsolationUnavailable,
                }
            };
        }
        PolicyDecision::Admit {
            class: spec.slo,
            weight: spec.weight,
        }
    }

    /// Whether `tenant`'s bucket is currently dry (quota-violator — sheds
    /// first within its SLO class). Read-only; does not take a token.
    pub fn over_quota(&self, tenant: usize, now: Nanos) -> bool {
        self.quotas_enforced
            && self.buckets[tenant]
                .as_ref()
                .map(|b| b.peek(now) < 1.0)
                .unwrap_or(false)
    }

    /// Posture-aware placement filter: may `tenant`'s guest launch on a
    /// host in this posture? Tenants with [`Posture::None`] accept any
    /// host; everyone else demands an un-revoked chip key and a TCB at or
    /// above their floor.
    pub fn host_eligible(&self, tenant: usize, host: HostPosture) -> bool {
        let spec = &self.specs[tenant];
        match spec.posture {
            Posture::None => true,
            Posture::Cached { .. } | Posture::Fresh => {
                !host.revoked && host.tcb_version >= spec.min_tcb
            }
        }
    }

    /// Per-lane WFQ parameters derived from the specs.
    pub fn lane_specs(&self) -> Vec<crate::wfq::LaneSpec> {
        self.specs
            .iter()
            .map(|s| crate::wfq::LaneSpec {
                weight: s.weight,
                latency_sensitive: s.slo == SloClass::LatencySensitive,
            })
            .collect()
    }
}

/// Per-tenant terminal accounting: the conservation invariant, extended
/// with the `rejected` term, must hold for every tenant individually:
///
/// ```text
/// completed + shed + breaker_sheds + timeouts + failed + rejected == issued
/// ```
#[derive(Debug, Clone, Default)]
pub struct TenantMetrics {
    /// Requests attributed to this tenant.
    pub issued: usize,
    /// Requests that finished a launch.
    pub completed: usize,
    /// Queue-overflow / unroutable sheds.
    pub shed: u64,
    /// Breaker-ladder sheds.
    pub breaker_sheds: u64,
    /// Deadline expirations.
    pub timeouts: u64,
    /// Permanent failures.
    pub failed: u64,
    /// Turned away by policy (quota / isolation / posture).
    pub rejected: u64,
    /// Admitted at a degraded isolation tier.
    pub degraded: u64,
    /// End-to-end latencies of completed requests, milliseconds.
    pub latencies_ms: Vec<f64>,
}

impl TenantMetrics {
    /// Record a completion with its end-to-end latency.
    pub fn complete(&mut self, latency: Nanos) {
        self.completed += 1;
        self.latencies_ms.push(latency.as_millis_f64());
    }

    /// Every issued request reached exactly one terminal.
    pub fn conserved(&self) -> bool {
        self.completed as u64
            + self.shed
            + self.breaker_sheds
            + self.timeouts
            + self.failed
            + self.rejected
            == self.issued as u64
    }

    /// Median completed latency (ms).
    pub fn p50_ms(&self) -> f64 {
        percentile_or_zero(&self.latencies_ms, 50.0)
    }

    /// Tail completed latency (ms).
    pub fn p99_ms(&self) -> f64 {
        percentile_or_zero(&self.latencies_ms, 99.0)
    }

    /// Completed requests per virtual second over `makespan`.
    pub fn goodput_rps(&self, makespan: Nanos) -> f64 {
        if makespan == Nanos::ZERO {
            0.0
        } else {
            self.completed as f64 / makespan.as_secs_f64()
        }
    }
}

/// A tenant's name paired with its terminal accounting — the per-tenant
/// rows fleet and cluster reports carry when policy is active.
#[derive(Debug, Clone)]
pub struct TenantRollup {
    /// Tenant display name.
    pub name: &'static str,
    /// Terminal accounting and latencies.
    pub metrics: TenantMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PolicyConfig, QuotaSpec, Tenant};

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn engine(cfg: &PolicyConfig) -> PolicyEngine {
        PolicyEngine::new(cfg, IsolationTier::Sev, 4).unwrap()
    }

    #[test]
    fn admit_carries_class_and_weight() {
        let mut spec = PolicySpec::permissive();
        spec.weight = 7;
        spec.slo = SloClass::Batch;
        let cfg = PolicyConfig::tagged(vec![Tenant::new("t", 1, spec)]);
        let mut eng = engine(&cfg);
        assert_eq!(
            eng.evaluate(0, Nanos::ZERO),
            PolicyDecision::Admit {
                class: SloClass::Batch,
                weight: 7
            }
        );
    }

    #[test]
    fn quota_rejects_only_when_enforced() {
        let mut spec = PolicySpec::permissive();
        spec.quota = Some(QuotaSpec {
            rate_per_sec: 1.0,
            burst: 2.0,
        });
        let tenants = vec![Tenant::new("t", 1, spec)];
        // Not enforced: the bucket never bites.
        let mut eng = engine(&PolicyConfig::tagged(tenants.clone()));
        for _ in 0..10 {
            assert!(matches!(
                eng.evaluate(0, Nanos::ZERO),
                PolicyDecision::Admit { .. }
            ));
        }
        // Enforced: burst of 2 then rejects, refilling on virtual time.
        let mut cfg = PolicyConfig::tagged(tenants);
        cfg.quotas = true;
        let mut eng = engine(&cfg);
        assert!(matches!(
            eng.evaluate(0, Nanos::ZERO),
            PolicyDecision::Admit { .. }
        ));
        assert!(matches!(
            eng.evaluate(0, Nanos::ZERO),
            PolicyDecision::Admit { .. }
        ));
        assert_eq!(
            eng.evaluate(0, Nanos::ZERO),
            PolicyDecision::Reject {
                reason: RejectReason::QuotaExceeded
            }
        );
        assert!(eng.over_quota(0, Nanos::ZERO));
        assert!(matches!(
            eng.evaluate(0, ms(1000)),
            PolicyDecision::Admit { .. }
        ));
    }

    #[test]
    fn isolation_mismatch_degrades_or_rejects() {
        let mut strict = PolicySpec::permissive();
        strict.isolation = IsolationTier::SevSnp;
        strict.accept_degrade = false;
        let mut flexible = strict;
        flexible.accept_degrade = true;
        let cfg = PolicyConfig::tagged(vec![
            Tenant::new("strict", 1, strict),
            Tenant::new("flexible", 1, flexible),
        ]);
        // Substrate runs plain SEV.
        let mut eng = engine(&cfg);
        assert_eq!(
            eng.evaluate(0, Nanos::ZERO),
            PolicyDecision::Reject {
                reason: RejectReason::IsolationUnavailable
            }
        );
        assert_eq!(
            eng.evaluate(1, Nanos::ZERO),
            PolicyDecision::Degrade {
                to: IsolationTier::Sev
            }
        );
        // Substrate runs SNP: both admit.
        let mut eng = PolicyEngine::new(&cfg, IsolationTier::SevSnp, 4).unwrap();
        assert!(matches!(
            eng.evaluate(0, Nanos::ZERO),
            PolicyDecision::Admit { .. }
        ));
    }

    #[test]
    fn posture_filter_checks_tcb_and_revocation() {
        let mut strict = PolicySpec::permissive();
        strict.posture = Posture::Fresh;
        strict.min_tcb = 2;
        let lax = PolicySpec::permissive();
        let cfg = PolicyConfig::tagged(vec![
            Tenant::new("strict", 1, strict),
            Tenant::new("lax", 1, lax),
        ]);
        let eng = engine(&cfg);
        let old = HostPosture {
            tcb_version: 1,
            revoked: false,
        };
        let patched = HostPosture {
            tcb_version: 2,
            revoked: false,
        };
        let burned = HostPosture {
            tcb_version: 5,
            revoked: true,
        };
        assert!(!eng.host_eligible(0, old));
        assert!(eng.host_eligible(0, patched));
        assert!(!eng.host_eligible(0, burned));
        // Posture::None accepts anything, even revoked hosts.
        assert!(eng.host_eligible(1, old));
        assert!(eng.host_eligible(1, burned));
    }

    #[test]
    fn tenant_metrics_conserve_and_summarize() {
        let mut m = TenantMetrics {
            issued: 10,
            ..Default::default()
        };
        m.complete(ms(10));
        m.complete(ms(30));
        m.shed = 2;
        m.breaker_sheds = 1;
        m.timeouts = 2;
        m.failed = 1;
        m.rejected = 2;
        assert!(m.conserved());
        m.issued += 1;
        assert!(!m.conserved());
        assert!(m.p50_ms() > 0.0);
        assert!(m.p99_ms() >= m.p50_ms());
    }
}
