//! Per-tenant policy contracts: isolation tier, attestation posture, SLO
//! class, quota, and the tenant registry the engine is built from.

use crate::PolicyError;
use sevf_sim::rng::XorShift64;
use sevf_sim::Nanos;

/// Requested confidential-computing isolation level, ordered weakest to
/// strongest. Mirrors the SEV ladder the substrate actually runs
/// (stock → SEV → SEV-ES → SEV-SNP); more isolation means more serialized
/// PSP work per launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IsolationTier {
    /// No memory encryption — a plain microVM.
    Stock,
    /// SEV: encrypted guest memory.
    Sev,
    /// SEV-ES: encrypted memory + register state.
    SevEs,
    /// SEV-SNP: integrity-protected encrypted memory.
    SevSnp,
}

impl IsolationTier {
    /// Short machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            IsolationTier::Stock => "stock",
            IsolationTier::Sev => "sev",
            IsolationTier::SevEs => "sev-es",
            IsolationTier::SevSnp => "sev-snp",
        }
    }
}

/// How much attestation evidence the tenant demands before its guest may
/// serve traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Posture {
    /// No attestation requirement.
    None,
    /// A cached verifier verdict is acceptable if it is younger than the
    /// staleness budget (the attplane's VCEK/report cache provides these).
    Cached {
        /// Maximum acceptable verdict age.
        staleness: Nanos,
    },
    /// Every launch must be freshly verified end-to-end.
    Fresh,
}

/// Service-level class. Shed priority is derived from this: batch traffic
/// sheds before latency-sensitive traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloClass {
    /// Interactive traffic with a tight deadline target.
    LatencySensitive,
    /// Throughput traffic that tolerates queueing and sheds first.
    Batch,
}

impl SloClass {
    /// Short machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SloClass::LatencySensitive => "latency",
            SloClass::Batch => "batch",
        }
    }
}

/// Token-bucket quota parameters (see `TokenBucket`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaSpec {
    /// Sustained admission rate, requests per virtual second.
    pub rate_per_sec: f64,
    /// Burst capacity in requests.
    pub burst: f64,
}

/// The full per-tenant policy contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicySpec {
    /// Requested isolation tier.
    pub isolation: IsolationTier,
    /// If the substrate runs a weaker tier than requested, may the tenant
    /// be admitted at the substrate tier (`Degrade`) instead of rejected?
    pub accept_degrade: bool,
    /// Attestation posture requirement.
    pub posture: Posture,
    /// Minimum acceptable host TCB (firmware) version. Only enforced when
    /// `posture` is not [`Posture::None`]; the VCEK-seed-extraction attack
    /// is why a strict tenant refuses pre-patch firmware.
    pub min_tcb: u32,
    /// SLO class (drives shed priority).
    pub slo: SloClass,
    /// Per-class deadline target, used for SLO reporting (p99 vs target).
    pub deadline: Nanos,
    /// Weighted-fair-queueing weight; must be > 0.
    pub weight: u64,
    /// Optional admission quota.
    pub quota: Option<QuotaSpec>,
}

impl PolicySpec {
    /// A permissive default: SEV isolation, no posture, latency-sensitive,
    /// weight 1, no quota.
    pub fn permissive() -> Self {
        PolicySpec {
            isolation: IsolationTier::Sev,
            accept_degrade: true,
            posture: Posture::None,
            min_tcb: 0,
            slo: SloClass::LatencySensitive,
            deadline: Nanos::from_millis(250),
            weight: 1,
            quota: None,
        }
    }
}

/// A named tenant: its arrival share in the mixed workload plus its policy
/// contract and (optionally) its own request-class mix.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Display name (stable across runs; used in reports and tables).
    pub name: &'static str,
    /// Relative arrival weight in the mixed workload.
    pub share: u64,
    /// The policy contract.
    pub spec: PolicySpec,
    /// Optional per-tenant request-class mix as `(class index, weight)`
    /// pairs; empty means "use the catalog-wide mix".
    pub class_mix: Vec<(usize, u64)>,
}

impl Tenant {
    /// A tenant with the given name/share/spec and the catalog-wide mix.
    pub fn new(name: &'static str, share: u64, spec: PolicySpec) -> Self {
        Tenant {
            name,
            share,
            spec,
            class_mix: Vec::new(),
        }
    }
}

/// Which scheduler fronts each PSP when the policy layer is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// One shared lane: tenants are tagged and accounted, but wait in one
    /// line in arrival order, as without a policy. The "naive" sweep arm.
    Fifo,
    /// Virtual-finish-time weighted-fair queueing over per-tenant
    /// backlogs with policy-aware shed.
    Wfq,
}

impl Scheduler {
    /// Short machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Scheduler::Fifo => "fifo",
            Scheduler::Wfq => "wfq",
        }
    }
}

/// The policy layer's complete configuration: the tenant registry plus
/// which enforcement mechanisms are switched on. Fleet and cluster configs
/// carry this as an `Option` — `None` is the pre-policy byte-identical
/// path.
#[derive(Debug, Clone)]
pub struct PolicyConfig {
    /// The tenant registry; request arrivals are attributed by `share`.
    pub tenants: Vec<Tenant>,
    /// FIFO (naive) or WFQ (policy-aware) scheduling.
    pub scheduler: Scheduler,
    /// Enforce token-bucket quotas (reject on empty bucket, demote
    /// over-quota tenants in the shed order).
    pub quotas: bool,
    /// Enforce posture-aware placement (cluster only: route TCB-strict
    /// tenants exclusively to eligible hosts, re-checked at dispatch).
    pub posture: bool,
}

impl PolicyConfig {
    /// Tag-only config: tenants are sampled and accounted but nothing is
    /// enforced and the FIFO queue is kept. Useful as the baseline arm.
    pub fn tagged(tenants: Vec<Tenant>) -> Self {
        PolicyConfig {
            tenants,
            scheduler: Scheduler::Fifo,
            quotas: false,
            posture: false,
        }
    }

    /// Full enforcement: WFQ scheduling, quotas, posture placement.
    pub fn enforced(tenants: Vec<Tenant>) -> Self {
        PolicyConfig {
            tenants,
            scheduler: Scheduler::Wfq,
            quotas: true,
            posture: true,
        }
    }

    /// Validate every knob; the error message names the offending one.
    pub fn validate(&self, catalog_classes: usize) -> Result<(), PolicyError> {
        if self.tenants.is_empty() {
            return Err(PolicyError::Config("tenant registry is empty"));
        }
        for t in &self.tenants {
            if t.share == 0 {
                return Err(PolicyError::Config("tenant share must be > 0"));
            }
            if t.spec.weight == 0 {
                return Err(PolicyError::Config("tenant weight must be > 0"));
            }
            if let Some(q) = t.spec.quota {
                // Written to reject NaN as well as out-of-range values.
                let rate_ok = q.rate_per_sec > 0.0;
                let burst_ok = q.burst >= 1.0;
                if !rate_ok || !burst_ok {
                    return Err(PolicyError::Config("quota needs rate > 0 and burst >= 1"));
                }
            }
            for &(class, weight) in &t.class_mix {
                if class >= catalog_classes {
                    return Err(PolicyError::Config(
                        "tenant class mix names a class outside the catalog",
                    ));
                }
                if weight == 0 {
                    return Err(PolicyError::Config("tenant class mix weight must be > 0"));
                }
            }
        }
        Ok(())
    }

    /// Sample a tenant index by arrival share. Callers must feed a
    /// *dedicated* RNG stream so tenancy tagging never perturbs the
    /// arrival/class streams the no-policy path draws from.
    pub fn sample_tenant(&self, rng: &mut XorShift64) -> usize {
        let total: u64 = self.tenants.iter().map(|t| t.share).sum();
        let mut draw = rng.next_below(total);
        for (i, t) in self.tenants.iter().enumerate() {
            if draw < t.share {
                return i;
            }
            draw -= t.share;
        }
        self.tenants.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenants() -> Vec<Tenant> {
        vec![
            Tenant::new("a", 3, PolicySpec::permissive()),
            Tenant::new("b", 1, PolicySpec::permissive()),
        ]
    }

    #[test]
    fn validate_catches_each_bad_knob() {
        let cfg = PolicyConfig::tagged(Vec::new());
        assert!(matches!(cfg.validate(4), Err(PolicyError::Config(_))));

        let mut cfg = PolicyConfig::tagged(two_tenants());
        cfg.tenants[0].share = 0;
        assert!(cfg.validate(4).is_err());

        let mut cfg = PolicyConfig::tagged(two_tenants());
        cfg.tenants[1].spec.weight = 0;
        assert!(cfg.validate(4).is_err());

        let mut cfg = PolicyConfig::tagged(two_tenants());
        cfg.tenants[0].spec.quota = Some(QuotaSpec {
            rate_per_sec: 0.0,
            burst: 4.0,
        });
        assert!(cfg.validate(4).is_err());

        let mut cfg = PolicyConfig::tagged(two_tenants());
        cfg.tenants[0].class_mix = vec![(9, 1)];
        assert!(cfg.validate(4).is_err());

        let cfg = PolicyConfig::enforced(two_tenants());
        assert!(cfg.validate(4).is_ok());
    }

    #[test]
    fn tenant_sampling_tracks_shares_and_is_seeded() {
        let cfg = PolicyConfig::tagged(two_tenants());
        let mut rng = XorShift64::new(42);
        let mut counts = [0usize; 2];
        for _ in 0..4000 {
            counts[cfg.sample_tenant(&mut rng)] += 1;
        }
        // 3:1 share split within loose bounds.
        assert!(counts[0] > 2 * counts[1], "{counts:?}");
        // Same seed replays the same tag sequence.
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..100 {
            assert_eq!(cfg.sample_tenant(&mut a), cfg.sample_tenant(&mut b));
        }
    }
}
