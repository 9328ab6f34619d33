//! The virtual time unit.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A duration or instant on the virtual clock, in nanoseconds.
///
/// All simulated costs are integral nanoseconds so results are exactly
/// reproducible across platforms; floating point only appears at the
/// reporting boundary ([`Nanos::as_millis_f64`]).
///
/// # Example
///
/// ```
/// use sevf_sim::Nanos;
///
/// let t = Nanos::from_millis(40) + Nanos::from_micros(250);
/// assert_eq!(t.as_nanos(), 40_250_000);
/// assert_eq!(format!("{t}"), "40.250ms");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero duration.
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in microseconds (floating point).
    fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in milliseconds (floating point) — the unit the paper reports.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in seconds (floating point).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by an integer factor.
    pub fn scale(self, factor: u64) -> Nanos {
        Nanos(self.0 * factor)
    }

    /// Multiplies the duration by a floating factor (rounded to nearest ns).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    pub fn scale_f64(self, factor: f64) -> Nanos {
        assert!(factor.is_finite() && factor >= 0.0, "bad scale factor");
        Nanos((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(
            self.0
                .checked_sub(rhs.0)
                .expect("Nanos subtraction underflow"),
        )
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}µs", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_secs(1), Nanos::from_millis(1000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1000));
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1000));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Nanos::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Nanos::from_micros(12)), "12.000µs");
        assert_eq!(format!("{}", Nanos::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(2)), "2.000s");
    }

    #[test]
    fn sum_and_scale() {
        let parts = [Nanos::from_millis(1), Nanos::from_millis(2)];
        let total: Nanos = parts.iter().copied().sum();
        assert_eq!(total, Nanos::from_millis(3));
        assert_eq!(total.scale(2), Nanos::from_millis(6));
        assert_eq!(total.scale_f64(0.5), Nanos::from_micros(1500));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = Nanos::from_nanos(1) - Nanos::from_nanos(2);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(
            Nanos::from_nanos(1).saturating_sub(Nanos::from_nanos(5)),
            Nanos::ZERO
        );
    }
}
