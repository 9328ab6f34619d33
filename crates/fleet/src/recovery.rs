//! Retry, deadline, circuit-breaker, and degradation policies.
//!
//! The recovery machinery turns injected faults ([`sevf_sim::fault`]) into
//! *degraded* service instead of *no* service:
//!
//! * [`RetryPolicy`] — bounded attempts with exponential backoff and seeded
//!   jitter, all in virtual time. The jitter draw is stateless
//!   ([`sevf_sim::fault::unit_draw`]), so two runs with the same seed produce
//!   identical schedules regardless of event interleaving.
//! * Per-request deadlines — a retry that cannot land before the deadline is
//!   shed as a timeout rather than queued forever.
//! * `CircuitBreaker` — per request class. Consecutive failures trip it,
//!   each trip drops the class one serving tier (warm → template → cold →
//!   shed), and a success after the cooldown heals one level.
//! * PSP quiesce — while the PSP is inside a firmware-reset outage, the
//!   resilient fleet holds PSP-needing dispatches in the admission queue and
//!   releases them when the outage ends; the naive fleet keeps dispatching
//!   into the dead PSP and eats the failures.

use sevf_sim::fault::unit_draw;
use sevf_sim::Nanos;

/// Domain separator for backoff-jitter draws (see [`unit_draw`]).
const DOM_BACKOFF: u64 = 0x7E57_BAC0_FF01;

/// Bounded exponential backoff with seeded jitter, in virtual time.
///
/// The delay before retry `f` (1-based failure count) is
/// `min(cap, base · 2^(f-1) · (1 + jitter · u))` with `u` a stateless
/// uniform draw in `[0, 1)` keyed by `(seed, token, f)`. Because
/// `jitter ≤ 1`, the jittered multiplier never exceeds the doubling, so the
/// schedule is monotone non-decreasing up to the cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed per request (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: Nanos,
    /// Upper bound on any single backoff delay.
    pub cap: Nanos,
    /// Jitter amplitude in `[0, 1]`: the delay is stretched by up to this
    /// fraction, never shrunk (so monotonicity survives).
    pub jitter: f64,
    /// Seed for the jitter draws.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries: the first failure is final.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base: Nanos::ZERO,
            cap: Nanos::ZERO,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// The resilient default: four attempts, 10 ms base doubling to a 2 s
    /// cap, 30% jitter.
    pub fn resilient(seed: u64) -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Nanos::from_millis(10),
            cap: Nanos::from_secs(2),
            jitter: 0.3,
            seed,
        }
    }

    /// Checks every knob is in range.
    ///
    /// # Errors
    ///
    /// Returns a static description of the first invalid knob.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.max_attempts == 0 {
            return Err("max_attempts must be at least 1");
        }
        if !self.jitter.is_finite() || !(0.0..=1.0).contains(&self.jitter) {
            return Err("jitter outside [0, 1]");
        }
        if self.max_attempts > 1 && self.base == Nanos::ZERO {
            return Err("base backoff must be positive when retries are on");
        }
        if self.cap < self.base {
            return Err("cap must be at least base");
        }
        Ok(())
    }

    /// The backoff before the retry following failure number `failures`
    /// (1-based), or `None` when the attempt budget is exhausted. `token`
    /// identifies the request so distinct requests jitter independently.
    pub fn backoff(&self, failures: u32, token: u64) -> Option<Nanos> {
        if failures >= self.max_attempts {
            return None;
        }
        let mult = 1u64.checked_shl(failures - 1).unwrap_or(u64::MAX);
        let doubling = Nanos::from_nanos(self.base.as_nanos().saturating_mul(mult));
        let capped = doubling.min(self.cap);
        let u = unit_draw(self.seed, DOM_BACKOFF, token ^ u64::from(failures) << 48);
        Some(capped.scale_f64(1.0 + self.jitter * u).min(self.cap))
    }
}

/// Per-class circuit breaker driving the degradation ladder.
///
/// `level` counts how many serving tiers the class has fallen: 0 is the
/// configured tier, each trip adds one (warm → template → cold → shed), and
/// a success observed after the cooldown heals one level.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CircuitBreaker {
    consecutive: u32,
    level: usize,
    open_until: Nanos,
    trips: u64,
}

impl CircuitBreaker {
    /// Consecutive failures of a class that trip the breaker one level.
    pub(crate) const THRESHOLD: u32 = 3;
    /// How long a trip holds before a success may heal a level.
    const COOLDOWN: Nanos = Nanos::from_millis(500);

    /// A closed breaker at level 0.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records a failure at `now`; returns `true` when this one tripped the
    /// breaker a level deeper.
    ///
    /// While the breaker is open (inside the cooldown of a trip), further
    /// failures do not deepen it: one fault event — e.g. a PSP reset
    /// poisoning every in-flight launch of a class — lands a *burst* of
    /// failures, and counting the whole burst would slam the class several
    /// rungs down the ladder at once. One trip per cooldown window.
    pub(crate) fn on_failure(&mut self, now: Nanos) -> bool {
        if now < self.open_until {
            return false;
        }
        self.consecutive += 1;
        if self.consecutive >= Self::THRESHOLD {
            self.consecutive = 0;
            self.level += 1;
            self.open_until = now + Self::COOLDOWN;
            self.trips += 1;
            true
        } else {
            false
        }
    }

    /// Records a success at `now`: clears the consecutive-failure streak and,
    /// once the cooldown has passed, heals one degradation level (re-arming
    /// the cooldown so healing is paced, not instant).
    pub(crate) fn on_success(&mut self, now: Nanos) {
        self.consecutive = 0;
        if self.level > 0 && now >= self.open_until {
            self.level -= 1;
            self.open_until = now + Self::COOLDOWN;
        }
    }

    /// Time-based healing: each elapsed cooldown period since the last trip
    /// decays one degradation level. Without this, a class degraded past
    /// the bottom of the ladder would shed forever — shedding launches
    /// nothing, so no success could ever heal it (no half-open probes in a
    /// success-only breaker).
    pub(crate) fn heal(&mut self, now: Nanos) {
        while self.level > 0 && now >= self.open_until {
            self.level -= 1;
            self.open_until += Self::COOLDOWN;
        }
    }

    /// Current degradation level (0 = healthy).
    pub(crate) fn level(&self) -> usize {
        self.level
    }

    /// How many times the breaker has tripped.
    pub(crate) fn trips(&self) -> u64 {
        self.trips
    }
}

/// The full recovery configuration of one serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Retry schedule for failed launches.
    pub retry: RetryPolicy,
    /// Per-request deadline from arrival; past it the request is shed as a
    /// timeout instead of retried or dispatched. `None` = no deadline.
    pub deadline: Option<Nanos>,
    /// Per-class `CircuitBreaker`s; `false` disables degradation.
    pub breaker: bool,
    /// Hold PSP-needing dispatches while the PSP is inside a reset outage
    /// (requeue and release at outage end) instead of feeding the dead PSP.
    pub quiesce: bool,
}

impl RecoveryConfig {
    /// The naive fleet: no retries, no deadline, no breaker, no quiesce.
    /// Every fault is a permanently failed request.
    pub fn none() -> Self {
        RecoveryConfig {
            retry: RetryPolicy::none(),
            deadline: None,
            breaker: false,
            quiesce: false,
        }
    }

    /// The resilient fleet: retries with backoff, a deadline, a per-class
    /// breaker, and PSP quiesce across resets.
    pub fn resilient(seed: u64) -> Self {
        RecoveryConfig {
            retry: RetryPolicy::resilient(seed),
            deadline: Some(Nanos::from_secs(10)),
            breaker: true,
            quiesce: true,
        }
    }

    /// Checks the nested policies.
    ///
    /// # Errors
    ///
    /// Returns the first nested validation error.
    pub fn validate(&self) -> Result<(), &'static str> {
        self.retry.validate()?;
        if self.deadline == Some(Nanos::ZERO) {
            return Err("deadline must be positive when set");
        }
        Ok(())
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_monotone_and_capped() {
        let p = RetryPolicy {
            max_attempts: 8,
            base: Nanos::from_millis(10),
            cap: Nanos::from_millis(200),
            jitter: 0.5,
            seed: 42,
        };
        let mut prev = Nanos::ZERO;
        for f in 1..p.max_attempts {
            let d = p.backoff(f, 7).unwrap();
            assert!(d >= prev, "failure {f}: {d} < {prev}");
            assert!(d <= p.cap, "failure {f}: {d} over cap");
            prev = d;
        }
        assert_eq!(p.backoff(p.max_attempts, 7), None);
    }

    #[test]
    fn no_retry_policy_exhausts_immediately() {
        let p = RetryPolicy::none();
        assert_eq!(p.backoff(1, 0), None);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn jitter_stretches_but_never_shrinks() {
        let plain = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::resilient(3)
        };
        let jittered = RetryPolicy::resilient(3);
        for f in 1..3 {
            let a = plain.backoff(f, 11).unwrap();
            let b = jittered.backoff(f, 11).unwrap();
            assert!(b >= a, "failure {f}: jittered {b} below plain {a}");
        }
    }

    #[test]
    fn huge_failure_counts_do_not_overflow() {
        let p = RetryPolicy {
            max_attempts: 64,
            ..RetryPolicy::resilient(1)
        };
        // 2^(f-1) would overflow u64 scaling; the shift clamp + cap keep the
        // delay finite and bounded.
        let d = p.backoff(60, 0).unwrap();
        assert!(d <= p.cap && d > Nanos::ZERO, "delay {d}");
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let mut p = RetryPolicy::resilient(1);
        p.max_attempts = 0;
        assert!(p.validate().is_err());

        let mut p = RetryPolicy::resilient(1);
        p.jitter = 1.5;
        assert!(p.validate().is_err());

        let mut p = RetryPolicy::resilient(1);
        p.cap = Nanos::from_nanos(1);
        assert!(p.validate().is_err());

        let mut r = RecoveryConfig::resilient(1);
        r.deadline = Some(Nanos::ZERO);
        assert!(r.validate().is_err());
        assert!(RecoveryConfig::none().validate().is_ok());
        assert!(RecoveryConfig::resilient(9).validate().is_ok());
    }

    #[test]
    fn breaker_trips_after_threshold_and_heals_after_cooldown() {
        let mut b = CircuitBreaker::new();
        let t0 = Nanos::from_millis(1);
        assert!(!b.on_failure(t0));
        assert!(!b.on_failure(t0));
        assert!(b.on_failure(t0), "third consecutive failure trips");
        assert_eq!(b.level(), 1);
        assert_eq!(b.trips(), 1);

        // Success inside the 500 ms cooldown clears the streak but does not heal.
        b.on_success(Nanos::from_millis(50));
        assert_eq!(b.level(), 1);

        // Success after the cooldown heals one level.
        b.on_success(Nanos::from_millis(600));
        assert_eq!(b.level(), 0);
    }

    #[test]
    fn heal_decays_one_level_per_elapsed_cooldown() {
        let mut b = CircuitBreaker::new();
        let burst = |b: &mut CircuitBreaker, at: u64| {
            (0..CircuitBreaker::THRESHOLD)
                .map(|_| b.on_failure(Nanos::from_millis(at)))
                .collect::<Vec<_>>()
        };
        // A failure burst at one instant trips exactly once: while the
        // breaker is open, stragglers from the same fault event are inert.
        assert_eq!(burst(&mut b, 0), [false, false, true]);
        assert!(!b.on_failure(Nanos::ZERO));
        assert_eq!(b.level(), 1);

        // A burst after the 500 ms cooldown trips a second rung.
        assert_eq!(burst(&mut b, 500), [false, false, true]);
        assert_eq!(b.level(), 2);

        // Inside the new cooldown nothing heals — even with no successes.
        b.heal(Nanos::from_millis(750));
        assert_eq!(b.level(), 2);

        // One cooldown past the trip: one level back. Two past: fully
        // healed. This is what un-wedges a class that was shedding (and so
        // could never record a success).
        b.heal(Nanos::from_millis(1000));
        assert_eq!(b.level(), 1);
        b.heal(Nanos::from_millis(2250));
        assert_eq!(b.level(), 0);
    }

    #[test]
    fn interleaved_failures_do_not_trip_below_threshold() {
        let mut b = CircuitBreaker::new();
        for i in 0..10u64 {
            assert!(!b.on_failure(Nanos::from_millis(i)));
            b.on_success(Nanos::from_millis(i) + Nanos::from_micros(1));
        }
        assert_eq!(b.level(), 0);
        assert_eq!(b.trips(), 0);
    }
}
