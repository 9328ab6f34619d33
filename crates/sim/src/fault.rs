//! Deterministic fault injection on the virtual clock.
//!
//! Real SEV fleets see PSP firmware resets, transient launch-command
//! failures, warm guests that die, and attestation round trips that hang or
//! error. This module pre-computes all of that from a seed so a chaos run is
//! exactly replayable: a [`FaultPlan`] is a pure function of
//! `(seed, config, horizon)` and every per-event draw is *stateless* — a
//! splitmix64-style hash of `(seed, domain, token)` — so consulting the plan
//! never perturbs any other random stream. A fleet simulation driven by the
//! same `(catalog, config, fault_plan)` triple therefore produces
//! byte-identical output on every run.
//!
//! Two kinds of schedule coexist:
//!
//! * **Timed faults** — PSP firmware-reset outage windows and warm-guest
//!   crash instants are generated up front over a caller-supplied horizon
//!   (exponential gaps, non-overlapping windows) and exposed as sorted lists
//!   the caller turns into simulation events.
//! * **Per-event faults** — PSP command transients and attestation
//!   timeouts/errors are Bernoulli draws keyed by a caller-chosen token
//!   (e.g. the launch sequence number), so the verdict for event *n* is
//!   independent of how many other events were probed in between.

use crate::rng::XorShift64;
use crate::time::Nanos;

/// The kinds of fault the plan can inject (counter and display taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A single PSP launch command failed transiently; retry may succeed.
    PspTransient,
    /// Whole-PSP firmware reset: in-flight launch state is lost and shared-key
    /// templates are invalidated (§6.2 trust caveat exercised under failure).
    PspReset,
    /// A keep-alive warm guest crashed and its pool slot is gone.
    WarmCrash,
    /// An attestation round trip hung until the client-side timeout.
    AttestTimeout,
    /// An attestation round trip returned an error immediately.
    AttestError,
    /// Whole-host outage: the machine (PSP, CPUs, warm pool, templates)
    /// drops off the cluster; everything in flight on it is lost.
    HostOutage,
    /// Network partition: the host was alive but fenced — its dispatch
    /// lease lapsed while it was unreachable, so work in flight on it is
    /// aborted rather than completed (split-brain discipline).
    NetPartition,
}

impl FaultKind {
    /// Display name for tables and counters.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::PspTransient => "psp-transient",
            FaultKind::PspReset => "psp-reset",
            FaultKind::WarmCrash => "warm-crash",
            FaultKind::AttestTimeout => "attest-timeout",
            FaultKind::AttestError => "attest-error",
            FaultKind::HostOutage => "host-outage",
            FaultKind::NetPartition => "net-partition",
        }
    }
}

/// How an attestation round trip misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttestFault {
    /// No answer until the client-side timeout elapses (costs the timeout).
    Timeout,
    /// Immediate error from the attestation service (costs one RTT).
    Error,
}

/// Knobs of the fault model. All rates are per-event probabilities in
/// `[0, 1]`; all periods are *mean* gaps on the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability that one PSP-using launch fails transiently mid-command.
    pub psp_transient_rate: f64,
    /// Mean gap between PSP firmware resets (`None` = never).
    pub psp_reset_period: Option<Nanos>,
    /// Outage length per reset: the PSP accepts no commands inside the
    /// window and everything in flight on it is lost.
    pub psp_reset_outage: Nanos,
    /// Mean gap between warm-guest crashes (`None` = never).
    pub warm_crash_period: Option<Nanos>,
    /// Probability an attestation round trip hangs until timeout.
    pub attest_timeout_rate: f64,
    /// Probability an attestation round trip errors immediately.
    pub attest_error_rate: f64,
    /// Client-side attestation timeout (how long a hang costs).
    pub attest_timeout: Nanos,
}

impl FaultConfig {
    /// A config that injects nothing (useful as a base for overrides).
    pub fn none() -> Self {
        FaultConfig {
            psp_transient_rate: 0.0,
            psp_reset_period: None,
            psp_reset_outage: Nanos::ZERO,
            warm_crash_period: None,
            attest_timeout_rate: 0.0,
            attest_error_rate: 0.0,
            attest_timeout: Nanos::from_secs(1),
        }
    }

    /// The chaos-storm preset: frequent firmware resets with a long outage,
    /// a noticeable transient rate, occasional warm crashes, and flaky
    /// attestation. Tuned so a naive (no-retry) fleet visibly collapses on a
    /// ~30 s virtual run while a resilient one keeps serving.
    pub fn storm() -> Self {
        FaultConfig {
            psp_transient_rate: 0.05,
            psp_reset_period: Some(Nanos::from_secs(2)),
            psp_reset_outage: Nanos::from_millis(500),
            warm_crash_period: Some(Nanos::from_millis(400)),
            attest_timeout_rate: 0.02,
            attest_error_rate: 0.03,
            attest_timeout: Nanos::from_secs(1),
        }
    }

    /// Checks that every knob is in range.
    ///
    /// # Errors
    ///
    /// Returns a static description of the first invalid knob.
    pub fn validate(&self) -> Result<(), &'static str> {
        let rate_ok = |r: f64| r.is_finite() && (0.0..=1.0).contains(&r);
        if !rate_ok(self.psp_transient_rate) {
            return Err("psp_transient_rate outside [0, 1]");
        }
        if !rate_ok(self.attest_timeout_rate) || !rate_ok(self.attest_error_rate) {
            return Err("attestation fault rate outside [0, 1]");
        }
        if self.attest_timeout_rate + self.attest_error_rate > 1.0 {
            return Err("attestation fault rates sum past 1");
        }
        if let Some(period) = self.psp_reset_period {
            if period == Nanos::ZERO {
                return Err("psp_reset_period must be positive");
            }
            if self.psp_reset_outage == Nanos::ZERO {
                return Err("psp_reset_outage must be positive when resets are on");
            }
        }
        if self.warm_crash_period == Some(Nanos::ZERO) {
            return Err("warm_crash_period must be positive");
        }
        Ok(())
    }

    /// True if no knob can ever fire.
    pub fn is_none(&self) -> bool {
        self.psp_transient_rate == 0.0
            && self.psp_reset_period.is_none()
            && self.warm_crash_period.is_none()
            && self.attest_timeout_rate == 0.0
            && self.attest_error_rate == 0.0
    }
}

/// One PSP firmware-reset outage: `[start, end)` on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResetWindow {
    /// Instant the firmware reset begins (in-flight state is lost).
    pub start: Nanos,
    /// Instant the PSP accepts commands again.
    pub end: Nanos,
}

impl ResetWindow {
    /// True if `at` falls inside the outage.
    pub fn contains(&self, at: Nanos) -> bool {
        self.start <= at && at < self.end
    }
}

// Domain separators for the stateless per-event draws. Arbitrary odd
// constants; all that matters is that they differ.
const DOM_TRANSIENT: u64 = 0x7E57_FA17_0001;
const DOM_PROGRESS: u64 = 0x7E57_FA17_0003;
const DOM_ATTEST: u64 = 0x7E57_FA17_0005;

// Stream separators for the pre-generated schedules.
const STREAM_RESETS: u64 = 0xFA17_5EED_0001;
const STREAM_CRASHES: u64 = 0xFA17_5EED_0002;

// Domain separator for deriving per-fault-domain (per-host) plan seeds.
const DOM_FAULT_DOMAIN: u64 = 0x7E57_FA17_0007;

/// splitmix64-style finalizer over `(seed, domain, token)`.
fn mix(seed: u64, domain: u64, token: u64) -> u64 {
    let mut z = seed
        .wrapping_add(domain.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(token.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` from the stateless hash over `(seed, domain, token)`.
///
/// Public so seeded-jitter code elsewhere (e.g. retry backoff) can share the
/// plan's statelessness property: the draw for one token is independent of
/// every other draw, so consulting it never perturbs a shared RNG stream.
pub fn unit_draw(seed: u64, domain: u64, token: u64) -> f64 {
    (mix(seed, domain, token) >> 11) as f64 / (1u64 << 53) as f64
}

/// Internal alias kept short for the plan's own draws.
fn unit(seed: u64, domain: u64, token: u64) -> f64 {
    unit_draw(seed, domain, token)
}

/// Non-overlapping `[start, end)` outage windows over `[0, horizon)`:
/// exponential gaps with the given mean, each gap drawn from the end of the
/// previous window so every outage is a distinct event.
fn outage_windows(seed: u64, period: Nanos, length: Nanos, horizon: Nanos) -> Vec<ResetWindow> {
    let mut rng = XorShift64::new(seed);
    let mut windows = Vec::new();
    let mut cursor = Nanos::ZERO;
    loop {
        let start = cursor + exponential_gap(period, &mut rng);
        if start >= horizon {
            break;
        }
        let end = start + length;
        windows.push(ResetWindow { start, end });
        cursor = end;
    }
    windows
}

/// Exponential gap with the given mean, floored at 1 ns so schedules advance.
fn exponential_gap(mean: Nanos, rng: &mut XorShift64) -> Nanos {
    let u = rng.next_f64();
    let gap = mean.scale_f64(-(1.0 - u).ln());
    if gap == Nanos::ZERO {
        Nanos::from_nanos(1)
    } else {
        gap
    }
}

/// A fully pre-computed, seed-deterministic fault schedule.
///
/// # Example
///
/// ```
/// use sevf_sim::fault::{FaultConfig, FaultPlan};
/// use sevf_sim::Nanos;
///
/// let plan = FaultPlan::generate(7, FaultConfig::storm(), Nanos::from_secs(30)).unwrap();
/// let again = FaultPlan::generate(7, FaultConfig::storm(), Nanos::from_secs(30)).unwrap();
/// assert_eq!(plan.resets(), again.resets());
/// assert_eq!(plan.psp_transient(42), again.psp_transient(42));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
    horizon: Nanos,
    resets: Vec<ResetWindow>,
    warm_crashes: Vec<Nanos>,
}

impl FaultPlan {
    /// Builds the plan: validates the config, then pre-generates the
    /// firmware-reset windows (exponential gaps, non-overlapping) and the
    /// warm-crash instants over `[0, horizon)`.
    ///
    /// # Errors
    ///
    /// Returns the [`FaultConfig::validate`] error for an invalid config.
    pub fn generate(seed: u64, config: FaultConfig, horizon: Nanos) -> Result<Self, &'static str> {
        config.validate()?;

        let resets = match config.psp_reset_period {
            Some(period) => outage_windows(
                seed ^ STREAM_RESETS,
                period,
                config.psp_reset_outage,
                horizon,
            ),
            None => Vec::new(),
        };

        let mut warm_crashes = Vec::new();
        if let Some(period) = config.warm_crash_period {
            let mut rng = XorShift64::new(seed ^ STREAM_CRASHES);
            let mut cursor = Nanos::ZERO;
            loop {
                cursor += exponential_gap(period, &mut rng);
                if cursor >= horizon {
                    break;
                }
                warm_crashes.push(cursor);
            }
        }

        Ok(FaultPlan {
            seed,
            config,
            horizon,
            resets,
            warm_crashes,
        })
    }

    /// Derives a decorrelated seed for fault domain `domain` (e.g. one host
    /// of a cluster) from a cluster-level seed. Distinct domains get
    /// independent schedules and per-event draws; the same `(seed, domain)`
    /// always maps to the same derived seed.
    pub fn domain_seed(seed: u64, domain: u64) -> u64 {
        mix(seed, DOM_FAULT_DOMAIN, domain)
    }

    /// [`FaultPlan::generate`] for one fault domain of a multi-domain system:
    /// the plan is generated from [`FaultPlan::domain_seed`]`(seed, domain)`,
    /// so each domain replays its own independent schedule while the whole
    /// ensemble stays a pure function of the cluster seed.
    ///
    /// # Errors
    ///
    /// Returns the [`FaultConfig::validate`] error for an invalid config.
    pub fn generate_for_domain(
        seed: u64,
        domain: u64,
        config: FaultConfig,
        horizon: Nanos,
    ) -> Result<Self, &'static str> {
        Self::generate(Self::domain_seed(seed, domain), config, horizon)
    }

    /// The seed the plan was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The config the plan was generated from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The horizon the timed schedules cover.
    pub fn horizon(&self) -> Nanos {
        self.horizon
    }

    /// The firmware-reset outage windows, sorted and non-overlapping.
    pub fn resets(&self) -> &[ResetWindow] {
        &self.resets
    }

    /// The warm-guest crash instants, sorted.
    pub fn warm_crashes(&self) -> &[Nanos] {
        &self.warm_crashes
    }

    /// If `at` falls inside a reset outage, the instant the outage ends.
    /// `partition_point` finds the first window ending after `at`, the only
    /// one of the sorted, non-overlapping windows that can contain it.
    pub fn in_outage(&self, at: Nanos) -> Option<Nanos> {
        let idx = self.resets.partition_point(|w| w.end <= at);
        match self.resets.get(idx) {
            Some(w) if w.contains(at) => Some(w.end),
            _ => None,
        }
    }

    /// Stateless Bernoulli draw: does PSP-using launch `token` fail
    /// transiently? Independent of every other token.
    pub fn psp_transient(&self, token: u64) -> bool {
        self.config.psp_transient_rate > 0.0
            && unit(self.seed, DOM_TRANSIENT, token) < self.config.psp_transient_rate
    }

    /// Fraction of the launch's work consumed before transient failure
    /// `token` strikes, uniform in `[0, 1)`. Deterministic per token.
    pub fn transient_progress(&self, token: u64) -> f64 {
        unit(self.seed, DOM_PROGRESS, token)
    }

    /// Stateless draw: does attestation round trip `token` misbehave, and
    /// how? The timeout and error rates partition the unit interval.
    pub fn attest_fault(&self, token: u64) -> Option<AttestFault> {
        let timeout = self.config.attest_timeout_rate;
        let error = self.config.attest_error_rate;
        if timeout == 0.0 && error == 0.0 {
            return None;
        }
        let u = unit(self.seed, DOM_ATTEST, token);
        if u < timeout {
            Some(AttestFault::Timeout)
        } else if u < timeout + error {
            Some(AttestFault::Error)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm_plan(seed: u64) -> FaultPlan {
        FaultPlan::generate(seed, FaultConfig::storm(), Nanos::from_secs(30)).unwrap()
    }

    #[test]
    fn same_seed_same_plan() {
        assert_eq!(storm_plan(7), storm_plan(7));
        assert_ne!(storm_plan(7).resets(), storm_plan(8).resets());
    }

    #[test]
    fn reset_windows_sorted_and_disjoint() {
        let plan = storm_plan(11);
        assert!(!plan.resets().is_empty(), "storm over 30 s must reset");
        for pair in plan.resets().windows(2) {
            assert!(pair[0].end <= pair[1].start, "{pair:?} overlap");
        }
        for w in plan.resets() {
            assert!(w.start < w.end);
            assert!(w.start < plan.horizon());
        }
    }

    #[test]
    fn outage_lookup_matches_windows() {
        let plan = storm_plan(13);
        let w = plan.resets()[0];
        assert_eq!(plan.in_outage(w.start), Some(w.end));
        assert_eq!(
            plan.in_outage(w.end.saturating_sub(Nanos::from_nanos(1))),
            Some(w.end)
        );
        assert_eq!(plan.in_outage(w.end), None);
        assert_eq!(plan.in_outage(Nanos::ZERO), None);
    }

    #[test]
    fn transient_rate_is_respected() {
        let mut cfg = FaultConfig::none();
        cfg.psp_transient_rate = 0.5;
        let plan = FaultPlan::generate(3, cfg, Nanos::from_secs(1)).unwrap();
        let hits = (0..4000u64).filter(|&t| plan.psp_transient(t)).count();
        let rate = hits as f64 / 4000.0;
        assert!((0.45..0.55).contains(&rate), "rate {rate}");
    }

    #[test]
    fn zero_rates_never_fire() {
        let plan = FaultPlan::generate(5, FaultConfig::none(), Nanos::from_secs(30)).unwrap();
        assert!(plan.resets().is_empty());
        assert!(plan.warm_crashes().is_empty());
        for t in 0..1000 {
            assert!(!plan.psp_transient(t));
            assert!(plan.attest_fault(t).is_none());
        }
        assert!(plan.config().is_none());
    }

    #[test]
    fn attest_faults_partition_the_unit_interval() {
        let mut cfg = FaultConfig::none();
        cfg.attest_timeout_rate = 0.3;
        cfg.attest_error_rate = 0.3;
        let plan = FaultPlan::generate(9, cfg, Nanos::from_secs(1)).unwrap();
        let (mut timeouts, mut errors, mut clean) = (0, 0, 0);
        for t in 0..3000u64 {
            match plan.attest_fault(t) {
                Some(AttestFault::Timeout) => timeouts += 1,
                Some(AttestFault::Error) => errors += 1,
                None => clean += 1,
            }
        }
        for share in [timeouts, errors] {
            let rate = share as f64 / 3000.0;
            assert!((0.25..0.35).contains(&rate), "rate {rate}");
        }
        assert!(clean > 0);
    }

    #[test]
    fn draws_are_stateless() {
        let plan = storm_plan(21);
        let first = plan.psp_transient(100);
        // Probing other tokens in between must not change token 100's verdict.
        for t in 0..50 {
            let _ = plan.psp_transient(t);
            let _ = plan.attest_fault(t);
        }
        assert_eq!(plan.psp_transient(100), first);
        let p = plan.transient_progress(64);
        assert!((0.0..1.0).contains(&p));
        assert_eq!(plan.transient_progress(64), p);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = FaultConfig::none();
        cfg.psp_transient_rate = 1.5;
        assert!(cfg.validate().is_err());

        let mut cfg = FaultConfig::none();
        cfg.attest_timeout_rate = 0.6;
        cfg.attest_error_rate = 0.6;
        assert!(cfg.validate().is_err());

        let mut cfg = FaultConfig::none();
        cfg.psp_reset_period = Some(Nanos::from_secs(1));
        cfg.psp_reset_outage = Nanos::ZERO;
        assert!(cfg.validate().is_err());

        assert!(FaultConfig::none().validate().is_ok());
        assert!(FaultConfig::storm().validate().is_ok());
    }

    #[test]
    fn domain_seeds_decorrelate_hosts() {
        let cfg = FaultConfig::storm();
        let horizon = Nanos::from_secs(30);
        let a = FaultPlan::generate_for_domain(7, 0, cfg.clone(), horizon).unwrap();
        let b = FaultPlan::generate_for_domain(7, 1, cfg.clone(), horizon).unwrap();
        let a2 = FaultPlan::generate_for_domain(7, 0, cfg, horizon).unwrap();
        assert_eq!(a, a2, "same (seed, domain) must replay");
        assert_ne!(a.resets(), b.resets(), "domains must not share schedules");
        assert_ne!(a.seed(), b.seed());
        assert_eq!(a.seed(), FaultPlan::domain_seed(7, 0));
    }

    #[test]
    fn fault_kind_names_are_distinct() {
        let kinds = [
            FaultKind::PspTransient,
            FaultKind::PspReset,
            FaultKind::WarmCrash,
            FaultKind::AttestTimeout,
            FaultKind::AttestError,
            FaultKind::HostOutage,
            FaultKind::NetPartition,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
