//! A tiny deterministic PRNG and the boot-time jitter model.
//!
//! The paper's Fig. 9 CDF and the error bars of Fig. 11 need run-to-run
//! variance. We model it as multiplicative noise on each phase duration,
//! drawn from an approximately normal distribution (Irwin–Hall sum of 12
//! uniforms) with a small σ, using an xorshift64* generator so every
//! experiment is exactly reproducible from its seed.

/// xorshift64* pseudo-random generator.
///
/// # Example
///
/// ```
/// use sevf_sim::rng::XorShift64;
///
/// let mut a = XorShift64::new(42);
/// let mut b = XorShift64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a seed (zero is remapped to a fixed odd value).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Approximately standard-normal value (Irwin–Hall with n = 12).
    pub fn next_gaussian(&mut self) -> f64 {
        let sum: f64 = (0..12).map(|_| self.next_f64()).sum();
        sum - 6.0
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// Multiplicative jitter for phase durations.
///
/// Each sample multiplies a nominal duration by `max(ε, 1 + σ·Z)`; σ defaults
/// to 3%, which reproduces the tight error bars of the paper's Fig. 11 and
/// the spread of its Fig. 9 CDFs.
#[derive(Debug, Clone)]
pub struct Jitter {
    rng: XorShift64,
    sigma: f64,
}

impl Jitter {
    /// Creates a jitter source with the default σ = 0.03.
    pub fn new(seed: u64) -> Self {
        Jitter {
            rng: XorShift64::new(seed),
            sigma: 0.03,
        }
    }

    /// A jitter source that applies no noise (σ = 0), for deterministic
    /// single-run breakdowns.
    pub fn disabled() -> Self {
        Jitter {
            rng: XorShift64::new(1),
            sigma: 0.0,
        }
    }

    /// Samples one multiplicative factor.
    pub fn factor(&mut self) -> f64 {
        (1.0 + self.sigma * self.rng.next_gaussian()).max(0.01)
    }

    /// Applies jitter to a duration.
    pub fn apply(&mut self, nominal: crate::Nanos) -> crate::Nanos {
        nominal.scale_f64(self.factor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Nanos;

    #[test]
    fn deterministic_sequences() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = XorShift64::new(3);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = XorShift64::new(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn jitter_stays_near_one() {
        let mut j = Jitter::new(9);
        for _ in 0..1000 {
            let f = j.factor();
            assert!(f > 0.7 && f < 1.3, "factor {f}");
        }
    }

    #[test]
    fn disabled_jitter_is_identity() {
        let mut j = Jitter::disabled();
        let t = Nanos::from_millis(40);
        assert_eq!(j.apply(t), t);
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut rng = XorShift64::new(0);
        assert_ne!(rng.next_u64(), 0);
    }
}
