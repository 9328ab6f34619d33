//! Seeded load generation: arrival processes and request mixes.
//!
//! The fleet serves a *stream* of launch requests, so the first thing the
//! control plane needs is a reproducible model of that stream. Two standard
//! shapes are provided:
//!
//! * **Open loop** — requests arrive by a Poisson process at a fixed offered
//!   rate, independent of how the system is doing. This is the shape that
//!   exposes overload: when the offered rate exceeds the PSP-bound service
//!   rate, queues grow without bound and the admission controller must shed.
//! * **Closed loop** — a fixed population of users, each issuing the next
//!   request a think-time after the previous one completes. Offered load
//!   self-throttles, so closed loops show latency inflation instead of
//!   collapse.
//!
//! Both are driven by [`sevf_sim::rng::XorShift64`], so a seed fully
//! determines the trace.

use sevf_sim::rng::XorShift64;
use sevf_sim::Nanos;

/// The arrival process of the request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Open loop: Poisson arrivals at `rate_per_sec`, regardless of system
    /// state.
    Open {
        /// Offered load in requests per (virtual) second.
        rate_per_sec: f64,
    },
    /// Closed loop: `users` concurrent clients, each waiting `think` after a
    /// completion before issuing its next request.
    Closed {
        /// Number of concurrent clients.
        users: usize,
        /// Think time between a completion and the client's next request.
        think: Nanos,
    },
}

impl Arrival {
    /// The offered rate for open-loop arrivals; `None` for closed loops
    /// (their rate is an outcome, not an input).
    pub fn offered_rps(&self) -> Option<f64> {
        match self {
            Arrival::Open { rate_per_sec } => Some(*rate_per_sec),
            Arrival::Closed { .. } => None,
        }
    }

    /// Checks the shape: an open loop needs a finite, positive rate, and a
    /// closed loop at least one user.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint.
    pub fn validate(&self) -> Result<(), &'static str> {
        match *self {
            Arrival::Open { rate_per_sec } if !(rate_per_sec.is_finite() && rate_per_sec > 0.0) => {
                Err("open-loop arrival rate must be finite and positive")
            }
            Arrival::Closed { users: 0, .. } => Err("closed loop needs at least one user"),
            _ => Ok(()),
        }
    }
}

/// Draws one exponential inter-arrival gap for rate `rate_per_sec`.
///
/// # Panics
///
/// Panics if the rate is not positive and finite.
pub fn exponential_gap(rate_per_sec: f64, rng: &mut XorShift64) -> Nanos {
    assert!(
        rate_per_sec.is_finite() && rate_per_sec > 0.0,
        "arrival rate must be positive"
    );
    let u = rng.next_f64();
    let secs = -(1.0 - u).ln() / rate_per_sec;
    Nanos::from_nanos((secs * 1e9).round() as u64)
}

/// Cumulative Poisson arrival instants for `n` open-loop requests.
pub fn open_arrivals(rate_per_sec: f64, n: usize, rng: &mut XorShift64) -> Vec<Nanos> {
    let mut t = Nanos::ZERO;
    (0..n)
        .map(|_| {
            t += exponential_gap(rate_per_sec, rng);
            t
        })
        .collect()
}

/// A weighted mix over the catalog's request classes.
///
/// Entries are `(class index, weight)`; sampling is proportional to weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestMix {
    entries: Vec<(usize, u64)>,
    total_weight: u64,
}

impl RequestMix {
    /// A uniform mix over `classes` request classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    pub fn uniform(classes: usize) -> Self {
        assert!(classes > 0, "a mix needs at least one class");
        Self::weighted((0..classes).map(|c| (c, 1)).collect())
    }

    /// A weighted mix; weights need not be normalized.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or all weights are zero.
    pub fn weighted(entries: Vec<(usize, u64)>) -> Self {
        let total_weight: u64 = entries.iter().map(|(_, w)| w).sum();
        assert!(total_weight > 0, "mix weights must sum to a positive value");
        RequestMix {
            entries,
            total_weight,
        }
    }

    /// The SNP-heavy mix every paper-scale sweep serves over
    /// [`ClassSpec::paper_classes`](crate::blueprint::ClassSpec::paper_classes),
    /// as the paper's evaluation is: the two SNP classes carry most of the
    /// traffic (and nearly all the PSP work).
    pub fn paper_mix() -> Self {
        Self::weighted(vec![
            (0, 5), // aws-snp
            (1, 3), // lupine-snp
            (2, 1), // ubuntu-es
            (3, 1), // aws-sev
            (4, 2), // stock
        ])
    }

    /// The 3:1 SNP-to-stock mix every `--quick` sweep serves over
    /// [`ClassSpec::quick_test_classes`](crate::blueprint::ClassSpec::quick_test_classes).
    pub fn quick_test_mix() -> Self {
        Self::weighted(vec![(0, 3), (1, 1)])
    }

    /// The `(class, weight)` entries of the mix.
    pub fn entries(&self) -> &[(usize, u64)] {
        &self.entries
    }

    /// Largest class index the mix can emit.
    pub fn max_class(&self) -> usize {
        self.entries.iter().map(|(c, _)| *c).max().unwrap_or(0)
    }

    /// Samples one class index, proportionally to weight.
    pub fn sample(&self, rng: &mut XorShift64) -> usize {
        let mut ticket = rng.next_below(self.total_weight);
        for &(class, weight) in &self.entries {
            if ticket < weight {
                return class;
            }
            ticket -= weight;
        }
        unreachable!("ticket drawn below total weight")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_arrivals_are_monotone_and_deterministic() {
        let mut a = XorShift64::new(5);
        let mut b = XorShift64::new(5);
        let xs = open_arrivals(20.0, 50, &mut a);
        let ys = open_arrivals(20.0, 50, &mut b);
        assert_eq!(xs, ys);
        for pair in xs.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn open_arrival_rate_is_near_nominal() {
        let mut rng = XorShift64::new(11);
        let n = 4000;
        let xs = open_arrivals(25.0, n, &mut rng);
        let measured = n as f64 / xs.last().unwrap().as_secs_f64();
        assert!((measured / 25.0 - 1.0).abs() < 0.1, "rate {measured}");
    }

    #[test]
    fn weighted_mix_respects_weights() {
        let mix = RequestMix::weighted(vec![(0, 3), (1, 1)]);
        let mut rng = XorShift64::new(3);
        let n = 8000;
        let zeros = (0..n).filter(|_| mix.sample(&mut rng) == 0).count();
        let frac = zeros as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.05, "fraction {frac}");
    }

    #[test]
    fn uniform_mix_covers_all_classes() {
        let mix = RequestMix::uniform(3);
        let mut rng = XorShift64::new(9);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[mix.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(mix.max_class(), 2);
    }

    #[test]
    fn offered_rps_only_for_open_loops() {
        assert_eq!(Arrival::Open { rate_per_sec: 7.0 }.offered_rps(), Some(7.0));
        let closed = Arrival::Closed {
            users: 4,
            think: Nanos::from_millis(10),
        };
        assert_eq!(closed.offered_rps(), None);
    }

    #[test]
    fn validate_refuses_unusable_rates_and_empty_closed_loops() {
        for rate_per_sec in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(Arrival::Open { rate_per_sec }.validate().is_err());
        }
        assert!(Arrival::Open { rate_per_sec: 1e-3 }.validate().is_ok());
        let think = Nanos::from_millis(10);
        assert!(Arrival::Closed { users: 0, think }.validate().is_err());
        assert!(Arrival::Closed { users: 1, think }.validate().is_ok());
    }
}
