//! Deterministic token-bucket quotas on the virtual clock.
//!
//! A bucket refills continuously at `rate_per_sec` up to `burst` tokens;
//! each admitted request takes one token. All arithmetic is a pure
//! function of the virtual timestamps the simulation feeds in, so quota
//! behaviour replays bit-identically from the seed.

use crate::spec::QuotaSpec;
use sevf_sim::Nanos;

/// A continuously-refilling token bucket on virtual time.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last: Nanos,
}

impl TokenBucket {
    /// A bucket that starts full at virtual time `start`.
    pub(crate) fn new(spec: QuotaSpec, start: Nanos) -> Self {
        TokenBucket {
            rate_per_sec: spec.rate_per_sec,
            burst: spec.burst,
            tokens: spec.burst,
            last: start,
        }
    }

    fn refill(&mut self, now: Nanos) {
        if now > self.last {
            let dt = (now.as_nanos() - self.last.as_nanos()) as f64 / 1e9;
            self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
            self.last = now;
        }
    }

    /// Take one token if available. Returns whether the request is within
    /// quota.
    pub(crate) fn try_take(&mut self, now: Nanos) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Current token level after refilling to `now` (read-only peek used
    /// for shed-order demotion: a tenant whose bucket is dry is a
    /// quota-violator and sheds first within its SLO class).
    pub(crate) fn peek(&self, now: Nanos) -> f64 {
        let dt = now.as_nanos().saturating_sub(self.last.as_nanos()) as f64 / 1e9;
        (self.tokens + dt * self.rate_per_sec).min(self.burst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    #[test]
    fn burst_then_throttle_then_refill() {
        let mut b = TokenBucket::new(
            QuotaSpec {
                rate_per_sec: 10.0,
                burst: 3.0,
            },
            Nanos::ZERO,
        );
        // Burst of 3 admitted back-to-back, 4th throttled.
        assert!(b.try_take(Nanos::ZERO));
        assert!(b.try_take(Nanos::ZERO));
        assert!(b.try_take(Nanos::ZERO));
        assert!(!b.try_take(Nanos::ZERO));
        // 100 ms at 10/s refills exactly one token.
        assert!(b.try_take(ms(100)));
        assert!(!b.try_take(ms(100)));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(
            QuotaSpec {
                rate_per_sec: 1000.0,
                burst: 2.0,
            },
            Nanos::ZERO,
        );
        assert!(b.try_take(Nanos::ZERO));
        // A long idle period refills to burst, not beyond.
        assert!((b.peek(Nanos::from_secs(60)) - 2.0).abs() < 1e-9);
        assert!(b.try_take(Nanos::from_secs(60)));
        assert!(b.try_take(Nanos::from_secs(60)));
        assert!(!b.try_take(Nanos::from_secs(60)));
    }

    #[test]
    fn deterministic_on_virtual_time() {
        let spec = QuotaSpec {
            rate_per_sec: 37.5,
            burst: 5.0,
        };
        let run = || {
            let mut b = TokenBucket::new(spec, Nanos::ZERO);
            (0..200).map(|i| b.try_take(ms(i * 7))).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
