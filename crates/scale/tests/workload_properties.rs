//! Seeded property battery over the workload curves.
//!
//! Each property runs over a spread of fixed seeds (no ambient
//! randomness): determinism of the arrival generator, monotone arrivals,
//! agreement between issued arrival counts and the analytic rate
//! integral, and the flash-crowd envelope bounding the empirical arrival
//! rate.

use sevf_scale::{curve_arrivals, Diurnal, FlashCrowd, Workload, WorkloadCurve};
use sevf_sim::rng::XorShift64;
use sevf_sim::Nanos;

const SEEDS: [u64; 5] = [1, 0x5CA1E, 0xDEADBEEF, 42, 7_777_777];

fn shapes() -> Vec<Workload> {
    vec![
        Workload::Diurnal(Diurnal {
            base: 150.0,
            amplitude: 90.0,
            period: Nanos::from_secs(6),
        }),
        Workload::FlashCrowd(FlashCrowd {
            base: 60.0,
            peak: 600.0,
            at: Nanos::from_secs(2),
            ramp: Nanos::from_millis(800),
            decay: Nanos::from_secs(2),
        }),
        Workload::FlashCrowd(FlashCrowd {
            base: 60.0,
            peak: 600.0,
            at: Nanos::from_secs(2),
            ramp: Nanos::ZERO,
            decay: Nanos::from_secs(2),
        }),
    ]
}

#[test]
fn arrivals_are_deterministic_per_seed_for_every_shape() {
    for shape in shapes() {
        shape.validate().unwrap();
        for seed in SEEDS {
            let a = curve_arrivals(&shape, 400, &mut XorShift64::new(seed));
            let b = curve_arrivals(&shape, 400, &mut XorShift64::new(seed));
            assert_eq!(a, b, "{} replayed differently at seed {seed}", shape.name());
            // A different seed must actually produce a different trace —
            // the generator is seeded, not constant.
            let c = curve_arrivals(&shape, 400, &mut XorShift64::new(seed ^ 0xA5A5));
            assert_ne!(a, c, "{} ignored its seed", shape.name());
        }
    }
}

#[test]
fn arrivals_are_strictly_increasing() {
    for shape in shapes() {
        for seed in SEEDS {
            let arrivals = curve_arrivals(&shape, 600, &mut XorShift64::new(seed));
            for w in arrivals.windows(2) {
                assert!(
                    w[0] <= w[1],
                    "{} emitted a time-travelling arrival at seed {seed}",
                    shape.name()
                );
            }
        }
    }
}

/// The inverse time-change construction means the cumulative rate
/// evaluated at the n-th arrival is a unit-rate Poisson sum of n
/// exponentials: mean n, standard deviation sqrt(n). Five standard
/// deviations over five seeds keeps the flake probability negligible
/// while still catching any systematic integral drift.
#[test]
fn issued_count_tracks_the_rate_integral() {
    let n = 1500usize;
    for shape in shapes() {
        for seed in SEEDS {
            let arrivals = curve_arrivals(&shape, n, &mut XorShift64::new(seed));
            let last = *arrivals.last().unwrap();
            let expected = shape.cumulative(last);
            let slack = 5.0 * (n as f64).sqrt();
            assert!(
                (expected - n as f64).abs() < slack,
                "{} at seed {seed}: integral {expected:.1} vs {n} issued (slack {slack:.1})",
                shape.name()
            );
        }
    }
}

/// Over any window, arrivals cannot outpace the curve's analytic
/// cumulative by more than sampling noise: the flash-crowd envelope is a
/// real bound, not a label.
#[test]
fn flash_crowd_windowed_rate_respects_the_envelope() {
    let crowd = Workload::FlashCrowd(FlashCrowd {
        base: 60.0,
        peak: 600.0,
        at: Nanos::from_secs(2),
        ramp: Nanos::from_millis(800),
        decay: Nanos::from_secs(2),
    });
    let window = Nanos::from_millis(250);
    for seed in SEEDS {
        let arrivals = curve_arrivals(&crowd, 1500, &mut XorShift64::new(seed));
        let horizon = *arrivals.last().unwrap();
        let mut start = Nanos::ZERO;
        while start < horizon {
            let end = start + window;
            let count = arrivals.iter().filter(|&&t| start <= t && t < end).count() as f64;
            let expected = crowd.cumulative(end) - crowd.cumulative(start);
            // Poisson tail: mean + 5 sigma (plus a floor for tiny means).
            let bound = expected + 5.0 * expected.sqrt() + 8.0;
            assert!(
                count <= bound,
                "seed {seed}: {count} arrivals in [{start:?}, {end:?}) vs bound {bound:.1}"
            );
            start = end;
        }
        // And the peak really shows up: the busiest window must carry
        // several times the quiet-period load.
        let quiet = crowd.cumulative(window);
        let mut busiest = 0usize;
        let mut s = Nanos::ZERO;
        while s < horizon {
            let e = s + window;
            busiest = busiest.max(arrivals.iter().filter(|&&t| s <= t && t < e).count());
            s = e;
        }
        assert!(
            busiest as f64 > 3.0 * quiet,
            "seed {seed}: busiest window {busiest} never left the base rate ({quiet:.1})"
        );
    }
}
