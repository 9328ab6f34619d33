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
//! non-homogeneous Poisson process: unit-rate exponential draws,
//! accumulated into targets, mapped through the inverse of the cumulative
//! rate [`WorkloadCurve::cumulative`]. One RNG draw per arrival, so every
//! curve consumes the seed stream identically.
//!
//! # Inverting the cumulative
//!
//! A target lands on the smallest nanosecond `n` with
//! `cumulative(n) >= target`. The cumulative never decreases (validated
//! rates are non-negative), so exactly one `n` has
//! `cumulative(n - 1) < target <= cumulative(n)`, and every search that
//! keeps a bracket `[lo, hi]` with `cumulative(lo) < target <=
//! cumulative(hi)` until `hi == lo + 1` returns that same `n`, however it
//! picks its probes (this module's tests hold it to a bisection from
//! `t = 0` at every arrival, on every shape the repository runs).
//! [`curve_arrivals`] picks them so that an arrival costs a handful of
//! curve evaluations, not a search from `t = 0`:
//!
//! * **Warm start.** Targets never decrease, so the previous arrival's raw
//!   root `r` (not the clamped instant it was issued at) bounds the next
//!   one from below: `cumulative(r - 1) < previous target <= target`.
//! * **Newton.** [`WorkloadCurve::rate_at`] is the exact derivative of the
//!   cumulative. Each step along it is rounded up to a whole nanosecond,
//!   clamped inside the bracket and probed, and tightens one side. From
//!   one arrival gap away, two steps land within a nanosecond of the root
//!   on the smooth shapes and a third closes the bracket: about seven
//!   evaluations per `serve_elastic` arrival, against some fifty from
//!   `t = 0`. Near a trough of the rate (a diurnal at `amplitude ==
//!   base` touches zero) a tangent is nearly flat: a step along it would
//!   land far past the root, and the gallop would walk back from there.
//!   So a forward step goes at most twice as far as the one before it
//!   (the first at most sixteen arrivals' worth of time at the peak rate,
//!   and a zero rate goes exactly that far), and there are steps to spare
//!   for the slow convergence there: at most 29 evaluations a search over
//!   100 000 arrivals on such a curve, against 78 with unbounded steps.
//! * **Gallop, then bisect.** Whatever Newton left open, a step that
//!   doubles from the last probe, away from the side it fell on, closes;
//!   bisection then settles the nanosecond. The answer never depends on
//!   Newton's accuracy, only the number of evaluations does.
//!
//! The bracket's top starts at the clock's end (`u64::MAX` ns), and a probe
//! never passes it: a curve too sparse to reach a target returns the
//! clock's end instead of growing a bracket forever
//! ([`Workload::check_covers`] lets a caller refuse such a curve first). If
//! f64 noise ever broke the warm bound, the same search reruns from
//! `t = 0`.

use sevf_sim::rng::XorShift64;
use sevf_sim::Nanos;

use crate::{CurveError, ScaleError};

/// A deterministic arrival-rate curve: offered req/s as a pure function of
/// virtual time.
pub trait WorkloadCurve {
    /// Offered rate (req/s) at instant `t`.
    fn rate_at(&self, t: Nanos) -> f64;

    /// Expected arrivals in `[0, t]` — the analytic integral of
    /// [`WorkloadCurve::rate_at`]. Must be continuous and non-decreasing
    /// (rates are validated non-negative).
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
                if c.at.as_nanos().checked_add(c.ramp.as_nanos()).is_none() {
                    return bad(CurveError::RampEndOverflows);
                }
            }
        }
        Ok(())
    }

    /// Checks that the curve offers at least `requests` expected arrivals
    /// before the clock's end. A sparser curve would issue its last
    /// arrivals at the clock's end itself.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::TooSparse`] as a [`ScaleError::Workload`].
    pub fn check_covers(&self, requests: usize) -> Result<(), ScaleError> {
        if self.cumulative(Nanos::from_nanos(CLOCK_END)) < requests as f64 {
            return Err(ScaleError::Workload(CurveError::TooSparse));
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

/// The last instant the virtual clock can hold, in nanoseconds.
const CLOCK_END: u64 = u64::MAX;

/// Newton steps before the gallop (module docs, "Inverting the
/// cumulative"): two reach the root's nanosecond on a smooth curve and the
/// third closes the bracket; the rest are for a root near a trough of the
/// rate, where the steps converge slowly.
const NEWTON_STEPS: usize = 16;

/// How far the first forward Newton step may go, in arrivals' worth of
/// time at the curve's peak rate. Each later forward step may go at most
/// twice as far as the one before it.
const FIRST_REACH: f64 = 16.0;

/// The smallest nanosecond `n > start` with `curve.cumulative(n) >=
/// target`, or [`CLOCK_END`] if none is smaller. `start` is a lower bound:
/// `curve.cumulative(start) < target`, or `start == 0`, the origin the
/// from-zero search is anchored at whatever `cumulative(0)` reads.
fn invert_from(curve: &impl WorkloadCurve, target: f64, start: u64) -> u64 {
    let at = |n| curve.cumulative(Nanos::from_nanos(n));
    let (mut lo, mut hi, mut x, mut c) = (start, CLOCK_END, start, at(start));
    if start > 0 && c >= target {
        return invert_from(curve, target, 0);
    }
    let mut reach = FIRST_REACH * (target - c) / curve.peak_rate() * 1e9;
    let (mut newton, mut step) = (NEWTON_STEPS, 1u64);
    while hi - lo > 1 {
        // A Newton step from the last probe `x`, rounded up and kept inside
        // the bracket. A forward step goes at most `reach` (a zero rate, with
        // no tangent to follow, goes exactly that far), and the reach is
        // then twice the step taken. Once the steps run out, a step away
        // from `x` that doubles until the bracket closes behind it and then
        // halves it.
        x = if newton > 0 {
            newton -= 1;
            let ahead = target - c;
            let mut dx = ahead / curve.rate_at(Nanos::from_nanos(x)) * 1e9;
            if ahead > 0.0 {
                dx = dx.min(reach);
                reach = 2.0 * dx;
            }
            ((x as f64 + dx).ceil() as u64).clamp(lo + 1, hi - 1)
        } else {
            let d = step.min((hi - lo) / 2);
            step = step.saturating_mul(2);
            if x == lo {
                lo + d
            } else {
                hi - d
            }
        };
        c = at(x);
        if c < target {
            lo = x;
        } else {
            hi = x;
        }
    }
    hi
}

/// The raw roots of the non-decreasing `targets`. Each search starts one
/// nanosecond below the previous root, where the cumulative is still below
/// the previous target and so below this one.
fn roots<'a>(
    curve: &'a impl WorkloadCurve,
    targets: impl Iterator<Item = f64> + 'a,
) -> impl Iterator<Item = u64> + 'a {
    let mut root = 0u64;
    targets.map(move |target| {
        root = invert_from(curve, target, root.saturating_sub(1));
        root
    })
}

/// Cumulative arrival instants for `n` requests offered along `curve`.
///
/// Non-homogeneous Poisson sampling by inverse time-change: each arrival
/// draws one unit-rate exponential (`-(1 - u).ln()`), accumulates it into a
/// cumulative target, and lands on the smallest nanosecond whose
/// [`WorkloadCurve::cumulative`] reaches the target — unique, because the
/// cumulative never decreases. The search starts one nanosecond below the
/// previous arrival's root, takes Newton steps along
/// [`WorkloadCurve::rate_at`] and settles the nanosecond by galloping and
/// bisection (module docs, "Inverting the cumulative"), so it returns what
/// a bisection from `t = 0` returns in about a seventh of the curve
/// evaluations. Exactly one `next_f64` per arrival for every shape —
/// curves never perturb downstream seed streams relative to each other.
/// Instants strictly increase (two targets can land on one nanosecond),
/// and a curve too sparse to reach a target issues it at the clock's end.
pub fn curve_arrivals(curve: &Workload, n: usize, rng: &mut XorShift64) -> Vec<Nanos> {
    let mut acc = 0.0;
    let targets = (0..n).map(|_| {
        acc += -(1.0 - rng.next_f64()).ln();
        acc
    });
    let mut last = 0u64;
    roots(curve, targets)
        .map(|root| {
            last = root.max(last.saturating_add(1));
            Nanos::from_nanos(last)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn flash() -> Workload {
        Workload::FlashCrowd(FlashCrowd {
            base: 40.0,
            peak: 400.0,
            at: Nanos::from_secs(1),
            ramp: Nanos::from_millis(600),
            decay: Nanos::from_millis(1500),
        })
    }

    /// The from-zero search the warm start replaced, kept as the oracle:
    /// double a bracket from 1 s, then bisect it down to the nanosecond.
    fn invert_cumulative(curve: &impl WorkloadCurve, target: f64) -> u64 {
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
        hi
    }

    /// `serve_elastic`'s curve: a diurnal around 160 req/s swinging by
    /// 120, 25 cycles over 100 000 requests' worth of virtual time.
    fn serve_elastic() -> Workload {
        let stream = Nanos::from_nanos((100_000.0 / 160.0 * 1e9) as u64);
        Workload::Diurnal(Diurnal {
            base: 160.0,
            amplitude: 120.0,
            period: stream.scale_f64(1.0 / 25.0),
        })
    }

    /// A flash crowd with the given knobs (rates in req/s, times in ms).
    fn crowd(base: f64, peak: f64, at: u64, ramp: u64, decay: u64) -> Workload {
        Workload::FlashCrowd(FlashCrowd {
            base,
            peak,
            at: Nanos::from_millis(at),
            ramp: Nanos::from_millis(ramp),
            decay: Nanos::from_millis(decay),
        })
    }

    /// The cumulative targets `curve_arrivals` inverts for `seed`.
    fn targets(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = XorShift64::new(seed);
        let mut acc = 0.0;
        (0..n)
            .map(|_| {
                acc += -(1.0 - rng.next_f64()).ln();
                acc
            })
            .collect()
    }

    /// Asserts that the warm-started roots of `targets` are the oracle's,
    /// and returns them.
    fn assert_matches_oracle(curve: &Workload, targets: &[f64], what: &str) -> Vec<u64> {
        let warm: Vec<u64> = roots(curve, targets.iter().copied()).collect();
        for (i, (&target, &root)) in targets.iter().zip(&warm).enumerate() {
            assert_eq!(
                root,
                invert_cumulative(curve, target),
                "{what}: arrival {i} (target {target})"
            );
        }
        warm
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
            let t = Nanos::from_nanos(invert_from(&curve, target, 0));
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
    fn warm_inversion_returns_the_from_zero_bisection_on_every_shape() {
        for seed in [1, 0x5CA1E, 24304] {
            let ts = targets(100_000, seed);
            let agreed = assert_matches_oracle(&serve_elastic(), &ts, "serve_elastic");
            // The wiring: curve_arrivals issues those roots, clamped to
            // strictly increase.
            let mut last = 0;
            let expected: Vec<Nanos> = agreed
                .iter()
                .map(|&root| {
                    last = root.max(last + 1);
                    Nanos::from_nanos(last)
                })
                .collect();
            let issued = curve_arrivals(&serve_elastic(), ts.len(), &mut XorShift64::new(seed));
            assert_eq!(issued, expected, "serve_elastic arrivals, seed {seed}");
        }
        let shapes = [
            // ScaleSweepConfig::paper_scale's and ::quick's crowds.
            ("paper_scale crowd", crowd(60.0, 800.0, 2500, 1500, 2000)),
            ("quick crowd", crowd(50.0, 420.0, 1000, 700, 1500)),
            // The rate touches zero at every trough.
            (
                "amplitude == base",
                Workload::Diurnal(Diurnal {
                    base: 160.0,
                    amplitude: 160.0,
                    period: Nanos::from_secs(25),
                }),
            ),
            ("ramp == 0 step", crowd(60.0, 800.0, 2500, 0, 2000)),
        ];
        for (what, shape) in &shapes {
            shape.validate().unwrap();
            for seed in [3, 0xDEADBEEF] {
                assert_matches_oracle(shape, &targets(20_000, seed), what);
            }
        }
        // Zero-length gaps: equal consecutive targets, a zero target first.
        let gaps = [0.0, 0.0, 0.5, 0.5, 0.5, 2.0, 2.0, 140.0, 140.0, 141.0];
        for (what, shape) in shapes.iter().chain([&("serve_elastic", serve_elastic())]) {
            assert_matches_oracle(shape, &gaps, what);
        }
    }

    /// A curve that counts its evaluations.
    struct Counting<'a>(&'a Workload, Cell<usize>);

    impl WorkloadCurve for Counting<'_> {
        fn rate_at(&self, t: Nanos) -> f64 {
            self.1.set(self.1.get() + 1);
            self.0.rate_at(t)
        }
        fn cumulative(&self, t: Nanos) -> f64 {
            self.1.set(self.1.get() + 1);
            self.0.cumulative(t)
        }
        fn peak_rate(&self) -> f64 {
            self.0.peak_rate()
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
    }

    #[test]
    fn an_arrival_costs_at_most_twelve_curve_evaluations() {
        // The from-zero search spends about 50 per arrival on this curve:
        // ten doublings from 1 s, then some forty halvings. Each target
        // comes twice, so every other search crosses a zero-length gap.
        let curve = serve_elastic();
        let counting = Counting(&curve, Cell::new(0));
        let ts = targets(100_000, 24304);
        let twice = ts.iter().flat_map(|&t| [t, t]);
        let mut seen = 0;
        for (i, _) in roots(&counting, twice).enumerate() {
            let spent = counting.1.get() - seen;
            seen += spent;
            assert!(spent <= 12, "search {i} took {spent} curve evaluations");
        }
        // A rate that touches zero at every trough. Near one, Newton
        // converges slowly and a search there takes up to 29 evaluations;
        // when a near-zero rate could throw a step toward the clock's end,
        // the walk back took up to 78. The mean stays at about seven.
        let trough = Workload::Diurnal(Diurnal {
            base: 160.0,
            amplitude: 160.0,
            period: Nanos::from_secs(25),
        });
        let counting = Counting(&trough, Cell::new(0));
        let ts = targets(100_000, 5);
        let mut seen = 0;
        for (i, _) in roots(&counting, ts.iter().copied()).enumerate() {
            let spent = counting.1.get() - seen;
            seen += spent;
            assert!(
                spent <= 32,
                "trough search {i} took {spent} curve evaluations"
            );
        }
        assert!(seen < 8 * ts.len(), "{seen} curve evaluations in all");
    }

    #[test]
    fn a_curve_too_sparse_for_its_targets_ends_at_the_clock_end() {
        // Valid knobs, but under 0.02 expected arrivals in the whole clock:
        // the bracket used to double until it wrapped to 0 and loop there.
        let sparse = Workload::Diurnal(Diurnal {
            base: 1e-12,
            amplitude: 0.0,
            period: Nanos::from_secs(1),
        });
        sparse.validate().unwrap();
        assert_eq!(
            sparse.check_covers(3),
            Err(ScaleError::Workload(CurveError::TooSparse))
        );
        let end = Nanos::from_nanos(CLOCK_END);
        let arrivals = curve_arrivals(&sparse, 3, &mut XorShift64::new(7));
        assert_eq!(arrivals, vec![end; 3]);
        assert_eq!(serve_elastic().check_covers(100_000), Ok(()));
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
        // `at + ramp` past the clock's end; a zero ramp is a valid step.
        let late = FlashCrowd {
            base: 10.0,
            peak: 20.0,
            at: Nanos::from_nanos(CLOCK_END - 5),
            ramp: Nanos::from_nanos(10),
            decay: Nanos::from_secs(1),
        };
        assert_eq!(
            Workload::FlashCrowd(late).validate(),
            Err(ScaleError::Workload(CurveError::RampEndOverflows))
        );
        let step = FlashCrowd {
            ramp: Nanos::ZERO,
            ..late
        };
        assert_eq!(Workload::FlashCrowd(step).validate(), Ok(()));
    }
}
