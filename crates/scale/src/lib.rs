//! sevf-scale: trace-driven workload curves and the cluster autoscaler.
//!
//! With static membership and warm-pool targets, no amount of per-request
//! fast-start machinery absorbs a flash crowd — pre-provisioning, not
//! per-request speed, is what holds tail latency through a ramp. This
//! crate supplies both halves:
//!
//! * [`workload`] — deterministic arrival-rate curves (diurnal sinusoid,
//!   flash crowd) as pure functions of `(config, t)` behind the
//!   [`WorkloadCurve`] trait, with non-homogeneous Poisson arrival
//!   sampling that consumes exactly one RNG draw per arrival for every
//!   shape. A cluster with no curve keeps the fleet's fixed-rate
//!   generator.
//! * [`autoscaler`] — a pure, RNG-free decision engine that keeps no
//!   counters, with a reactive (backlog thresholds + cooldown
//!   hysteresis) and a predictive (windowed rate forecast + pool
//!   pre-warming) policy. The cluster layer applies its [`Decision`]s
//!   through the existing graceful join/leave paths.
//!
//! Deliberately dependency-light: sevf-sim only, for time and RNG —
//! obs markers (ScaleOut/ScaleIn/PreWarm) are emitted, and the decisions
//! counted, by the cluster layer when it applies them, so this crate sits
//! under `sevf-cluster` without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

pub mod autoscaler;
pub mod workload;

pub use autoscaler::{
    Autoscaler, AutoscalerConfig, Decision, Observation, ScaleAction, ScalePolicy,
};
pub use workload::{curve_arrivals, Diurnal, FlashCrowd, Workload, WorkloadCurve};

/// Why a workload curve's shape knobs are unusable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CurveError {
    /// A rate knob is zero, negative, or non-finite.
    RateNotPositive,
    /// A diurnal amplitude exceeds its base (the rate would go negative).
    AmplitudeExceedsBase,
    /// A diurnal period or a flash-crowd decay is zero (a zero ramp is a
    /// valid instantaneous step).
    PeriodZero,
    /// A flash-crowd peak sits below its base rate.
    PeakBelowBase,
    /// A flash crowd's `at + ramp` is past the clock's end.
    RampEndOverflows,
    /// The curve's expected arrivals before the clock's end fall short of
    /// the requests asked of it.
    TooSparse,
}

impl fmt::Display for CurveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self {
            CurveError::RateNotPositive => "rate must be positive and finite",
            CurveError::AmplitudeExceedsBase => "amplitude must be within [0, base]",
            CurveError::PeriodZero => "period and decay durations must be positive",
            CurveError::PeakBelowBase => "peak rate must be at least the base rate",
            CurveError::RampEndOverflows => "at + ramp must fall within the clock",
            CurveError::TooSparse => {
                "curve cannot offer the requested arrivals before the clock ends"
            }
        };
        write!(f, "{what}")
    }
}

impl Error for CurveError {}

/// Everything that can go wrong configuring the scaling layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleError {
    /// An autoscaler knob violated a constraint.
    Config(&'static str),
    /// A workload curve's shape knobs are unusable.
    Workload(CurveError),
}

impl fmt::Display for ScaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaleError::Config(what) => write!(f, "invalid autoscaler config: {what}"),
            ScaleError::Workload(e) => write!(f, "invalid workload curve: {e}"),
        }
    }
}

impl Error for ScaleError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScaleError::Config(_) => None,
            ScaleError::Workload(e) => Some(e),
        }
    }
}

impl From<CurveError> for ScaleError {
    fn from(e: CurveError) -> Self {
        ScaleError::Workload(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_chain() {
        let leaf = CurveError::PeakBelowBase;
        let wrapped = ScaleError::from(leaf);
        assert!(wrapped.to_string().contains("invalid workload curve"));
        assert_eq!(
            wrapped.source().unwrap().to_string(),
            leaf.to_string(),
            "the wrapper must expose the leaf as its source"
        );
        assert!(ScaleError::Config("x").source().is_none());
    }
}
