//! Trace-driven workload curves: deterministic arrival-rate shapes.
//!
//! The fixed-rate open-loop generator the fleet ships
//! (`sevf_fleet::workload::open_arrivals`) models steady offered load; the
//! ramps the autoscaler exists for do not look like that. This module
//! provides them as *rate curves* — pure functions of `(config, t)` —
//! behind one [`WorkloadCurve`] trait:
//!
//! * [`Diurnal`] — a sinusoidal day/night swing around a base rate.
//! * [`FlashCrowd`] — a fast ramp to a peak at `at`, decaying
//!   exponentially back toward base (the launch-day / breaking-news
//!   shape).
//!
//! Arrival instants are drawn by the inverse time-change of a
//! non-homogeneous Poisson process: unit-rate exponential targets mapped
//! through the inverse cumulative rate [`Workload::cumulative`]. One RNG
//! draw per arrival, so every curve consumes the seed stream identically.

use sevf_sim::rng::XorShift64;
use sevf_sim::Nanos;

use crate::{CurveError, ScaleError};

/// A deterministic arrival-rate curve: offered req/s as a pure function of
/// virtual time.
pub trait WorkloadCurve {
    /// Offered rate (req/s) at instant `t`.
    fn rate_at(&self, t: Nanos) -> f64;

    /// Expected arrivals in `[0, t]` — the analytic integral of
    /// [`WorkloadCurve::rate_at`]. Must be continuous and strictly
    /// increasing (rates are validated positive).
    fn cumulative(&self, t: Nanos) -> f64;

    /// The curve's maximum instantaneous rate (envelope of the shape).
    fn peak_rate(&self) -> f64;

    /// Stable display name.
    fn name(&self) -> &'static str;
}

/// A day/night sinusoid: `base + amplitude * sin(2π t / period)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diurnal {
    /// Mean offered load (req/s).
    pub base: f64,
    /// Swing around the base; must satisfy `0 <= amplitude <= base` so the
    /// rate never goes negative.
    pub amplitude: f64,
    /// One full day on the virtual clock.
    pub period: Nanos,
}

impl WorkloadCurve for Diurnal {
    fn rate_at(&self, t: Nanos) -> f64 {
        let w = std::f64::consts::TAU / self.period.as_secs_f64();
        self.base + self.amplitude * (w * t.as_secs_f64()).sin()
    }

    fn cumulative(&self, t: Nanos) -> f64 {
        let w = std::f64::consts::TAU / self.period.as_secs_f64();
        let secs = t.as_secs_f64();
        self.base * secs + self.amplitude / w * (1.0 - (w * secs).cos())
    }

    fn peak_rate(&self) -> f64 {
        self.base + self.amplitude
    }

    fn name(&self) -> &'static str {
        "diurnal"
    }
}

/// A flash crowd: base rate until `at`, a linear ramp from base to `peak`
/// over `ramp` (crowds spike fast but not in zero time — the rise is what a
/// forecaster can see), then the excess decays exponentially back toward
/// base with time constant `decay`. `ramp == 0` degenerates to an
/// instantaneous step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Quiet-period offered load (req/s).
    pub base: f64,
    /// Rate at the top of the ramp; bounds the curve.
    pub peak: f64,
    /// When the crowd starts building.
    pub at: Nanos,
    /// Rise time from base to peak (0 = instantaneous step).
    pub ramp: Nanos,
    /// Exponential decay time constant of the excess after the peak.
    pub decay: Nanos,
}

impl WorkloadCurve for FlashCrowd {
    fn rate_at(&self, t: Nanos) -> f64 {
        if t < self.at {
            return self.base;
        }
        let excess = self.peak - self.base;
        if t < self.at + self.ramp {
            let frac = (t - self.at).as_secs_f64() / self.ramp.as_secs_f64();
            return self.base + excess * frac;
        }
        let dt = (t - self.at - self.ramp).as_secs_f64();
        self.base + excess * (-dt / self.decay.as_secs_f64()).exp()
    }

    fn cumulative(&self, t: Nanos) -> f64 {
        let base_part = self.base * t.as_secs_f64();
        if t < self.at {
            return base_part;
        }
        let excess = self.peak - self.base;
        let ramp = self.ramp.as_secs_f64();
        if t < self.at + self.ramp {
            let dt = (t - self.at).as_secs_f64();
            return base_part + excess * dt * dt / (2.0 * ramp);
        }
        let dt = (t - self.at - self.ramp).as_secs_f64();
        let tau = self.decay.as_secs_f64();
        base_part + excess * (ramp / 2.0 + tau * (1.0 - (-dt / tau).exp()))
    }

    fn peak_rate(&self) -> f64 {
        self.peak
    }

    fn name(&self) -> &'static str {
        "flash-crowd"
    }
}

/// The config-friendly sum of every curve shape (Clone + compare, so it
/// can sit in a `ClusterConfig` field).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Day/night sinusoid.
    Diurnal(Diurnal),
    /// Step + exponential decay.
    FlashCrowd(FlashCrowd),
}

impl Workload {
    /// Checks the shape's knobs.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ScaleError::Workload`].
    pub fn validate(&self) -> Result<(), ScaleError> {
        let bad = |e| Err(ScaleError::Workload(e));
        match self {
            Workload::Diurnal(c) => {
                if !(c.base.is_finite() && c.base > 0.0) {
                    return bad(CurveError::RateNotPositive);
                }
                if !(c.amplitude.is_finite() && c.amplitude >= 0.0) || c.amplitude > c.base {
                    return bad(CurveError::AmplitudeExceedsBase);
                }
                if c.period == Nanos::ZERO {
                    return bad(CurveError::PeriodZero);
                }
            }
            Workload::FlashCrowd(c) => {
                if !(c.base.is_finite() && c.base > 0.0) {
                    return bad(CurveError::RateNotPositive);
                }
                if !(c.peak.is_finite()) || c.peak < c.base {
                    return bad(CurveError::PeakBelowBase);
                }
                if c.decay == Nanos::ZERO {
                    return bad(CurveError::PeriodZero);
                }
            }
        }
        Ok(())
    }
}

impl WorkloadCurve for Workload {
    fn rate_at(&self, t: Nanos) -> f64 {
        match self {
            Workload::Diurnal(c) => c.rate_at(t),
            Workload::FlashCrowd(c) => c.rate_at(t),
        }
    }

    fn cumulative(&self, t: Nanos) -> f64 {
        match self {
            Workload::Diurnal(c) => c.cumulative(t),
            Workload::FlashCrowd(c) => c.cumulative(t),
        }
    }

    fn peak_rate(&self) -> f64 {
        match self {
            Workload::Diurnal(c) => c.peak_rate(),
            Workload::FlashCrowd(c) => c.peak_rate(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Workload::Diurnal(c) => c.name(),
            Workload::FlashCrowd(c) => c.name(),
        }
    }
}

/// Inverts `curve.cumulative(t) == target` by bisection. The cumulative is
/// strictly increasing (validated rates are positive), so the root is
/// unique; 64 halvings of a nanosecond-granular bracket converge exactly.
fn invert_cumulative(curve: &impl WorkloadCurve, target: f64) -> Nanos {
    let mut hi = Nanos::from_secs(1);
    while curve.cumulative(hi) < target {
        hi = hi.scale(2);
    }
    let mut lo = 0u64;
    let mut hi = hi.as_nanos();
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if curve.cumulative(Nanos::from_nanos(mid)) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Nanos::from_nanos(hi)
}

/// Cumulative arrival instants for `n` requests offered along `curve`.
///
/// Non-homogeneous Poisson sampling by inverse time-change: each arrival
/// draws one unit-rate exponential (`-(1 - u).ln()`), accumulates it into a
/// cumulative target, and maps the target through the inverse of
/// [`WorkloadCurve::cumulative`]. Exactly one `next_f64` per arrival for
/// every shape — curves never perturb downstream seed streams relative to
/// each other.
pub fn curve_arrivals(curve: &Workload, n: usize, rng: &mut XorShift64) -> Vec<Nanos> {
    let mut acc = 0.0;
    let mut last = Nanos::ZERO;
    (0..n)
        .map(|_| {
            let u = rng.next_f64();
            acc += -(1.0 - u).ln();
            let t = invert_cumulative(curve, acc);
            // Monotonicity under f64 rounding: arrivals never go backwards.
            last = last.max(t.max(last + Nanos::from_nanos(1)));
            last
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flash() -> Workload {
        Workload::FlashCrowd(FlashCrowd {
            base: 40.0,
            peak: 400.0,
            at: Nanos::from_secs(1),
            ramp: Nanos::from_millis(600),
            decay: Nanos::from_millis(1500),
        })
    }

    #[test]
    fn cumulative_matches_numeric_integral_of_rate() {
        let curves = [
            Workload::Diurnal(Diurnal {
                base: 100.0,
                amplitude: 60.0,
                period: Nanos::from_secs(4),
            }),
            flash(),
            // The ramp-zero degenerate: an instantaneous step.
            Workload::FlashCrowd(FlashCrowd {
                base: 40.0,
                peak: 400.0,
                at: Nanos::from_secs(1),
                ramp: Nanos::ZERO,
                decay: Nanos::from_millis(1500),
            }),
        ];
        for curve in &curves {
            curve.validate().unwrap();
            let horizon = Nanos::from_secs(5);
            let steps = 50_000;
            let dt = horizon.as_secs_f64() / steps as f64;
            let mut sum = 0.0;
            for i in 0..steps {
                let mid = Nanos::from_nanos((((i as f64) + 0.5) * dt * 1e9) as u64);
                sum += curve.rate_at(mid) * dt;
            }
            let analytic = curve.cumulative(horizon);
            assert!(
                (sum - analytic).abs() < 1e-2 * analytic.max(1.0),
                "{}: numeric {sum} vs analytic {analytic}",
                curve.name()
            );
        }
    }

    #[test]
    fn inversion_round_trips_the_cumulative() {
        let curve = flash();
        for target in [1.0, 37.5, 120.0, 512.0] {
            let t = invert_cumulative(&curve, target);
            let back = curve.cumulative(t);
            assert!(
                (back - target).abs() < 1e-3,
                "target {target} inverted to {t} whose cumulative is {back}"
            );
        }
    }

    #[test]
    fn one_draw_per_arrival_for_every_shape() {
        // Curves must consume the seed stream identically so swapping the
        // shape never perturbs draws made after arrival generation.
        let diurnal = Workload::Diurnal(Diurnal {
            base: 50.0,
            amplitude: 30.0,
            period: Nanos::from_secs(2),
        });
        let mut reference = XorShift64::new(99);
        for _ in 0..64 {
            reference.next_f64();
        }
        let next = reference.next_f64();
        for shape in [diurnal, flash()] {
            let mut rng = XorShift64::new(99);
            let _ = curve_arrivals(&shape, 64, &mut rng);
            assert_eq!(rng.next_f64(), next, "{} drew off-stream", shape.name());
        }
    }

    #[test]
    fn validation_rejects_each_bad_knob() {
        assert!(Workload::Diurnal(Diurnal {
            base: 0.0,
            amplitude: 0.0,
            period: Nanos::from_secs(1),
        })
        .validate()
        .is_err());
        assert!(Workload::Diurnal(Diurnal {
            base: 10.0,
            amplitude: 11.0,
            period: Nanos::from_secs(1),
        })
        .validate()
        .is_err());
        assert!(Workload::FlashCrowd(FlashCrowd {
            base: 10.0,
            peak: 5.0,
            at: Nanos::ZERO,
            ramp: Nanos::ZERO,
            decay: Nanos::from_secs(1),
        })
        .validate()
        .is_err());
    }
}
