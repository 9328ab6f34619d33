//! A deterministic phi-accrual-style failure detector.
//!
//! The router feeds the detector every heartbeat that survives the lossy
//! links. Per host it keeps the last arrival instant and a windowed mean
//! of inter-arrival gaps; a host is *suspected* once the silence since
//! its last heartbeat exceeds [`DetectorConfig::THRESHOLD`] mean gaps.
//! That adapts to slow links the way phi accrual does — a host whose
//! heartbeats consistently take longer earns a longer allowance — while
//! staying exactly replayable: state is `Vec`-indexed by host id and the
//! verdict is a pure function of the arrival history, so it cannot depend
//! on any map iteration order.
//!
//! Suspicion is a *router belief*, not ground truth: heartbeats lost to
//! residual link loss can suspect a perfectly live host (false
//! suspicion), and the next heartbeat through clears it.

use sevf_sim::Nanos;

/// Turns the failure detector on in a [`NetConfig`](crate::NetConfig).
/// It has no knobs: the window and threshold are its constants.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DetectorConfig;

impl DetectorConfig {
    /// How many recent inter-arrival gaps the mean averages over.
    pub const WINDOW: usize = 8;
    /// Suspect after this many mean gaps of silence.
    pub const THRESHOLD: f64 = 3.0;
}

/// Per-host heartbeat history and suspicion verdicts.
#[derive(Debug, Clone)]
pub struct PhiDetector {
    /// Expected gap used before a host has any observed gaps.
    expected: Nanos,
    /// Last heartbeat arrival per host.
    last: Vec<Nanos>,
    /// Ring of recent inter-arrival gaps per host.
    gaps: Vec<Vec<Nanos>>,
    /// Write cursor into each host's ring.
    cursor: Vec<usize>,
}

impl PhiDetector {
    /// A detector for `hosts` hosts that treats every host as having
    /// heartbeated at time zero with the given expected gap.
    pub fn new(hosts: usize, _: DetectorConfig, expected_gap: Nanos) -> Self {
        PhiDetector {
            expected: expected_gap,
            last: vec![Nanos::ZERO; hosts],
            gaps: vec![Vec::new(); hosts],
            cursor: vec![0; hosts],
        }
    }

    /// Records a heartbeat from `host` arriving at `at`.
    pub fn heartbeat(&mut self, host: usize, at: Nanos) {
        let gap = at.saturating_sub(self.last[host]);
        self.last[host] = at;
        if gap == Nanos::ZERO {
            return;
        }
        let ring = &mut self.gaps[host];
        if ring.len() < DetectorConfig::WINDOW {
            ring.push(gap);
        } else {
            ring[self.cursor[host]] = gap;
            self.cursor[host] = (self.cursor[host] + 1) % DetectorConfig::WINDOW;
        }
    }

    /// The windowed mean inter-arrival gap for `host` (the expected gap
    /// until the first observed one).
    fn mean_gap(&self, host: usize) -> Nanos {
        let ring = &self.gaps[host];
        if ring.is_empty() {
            return self.expected;
        }
        let total: u64 = ring.iter().map(|g| g.as_nanos()).sum();
        Nanos::from_nanos(total / ring.len() as u64)
    }

    /// The instant silence from `host` crosses the suspicion threshold —
    /// the computable bound by which a dead host is always suspected.
    pub fn deadline(&self, host: usize) -> Nanos {
        self.last[host] + self.allowance(host)
    }

    /// Whether the router should suspect `host` at `now`.
    pub fn suspected(&self, host: usize, now: Nanos) -> bool {
        now >= self.deadline(host)
    }

    fn allowance(&self, host: usize) -> Nanos {
        let a = self.mean_gap(host).scale_f64(DetectorConfig::THRESHOLD);
        if a == Nanos::ZERO {
            Nanos::from_nanos(1)
        } else {
            a
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sevf_sim::fault::unit_draw;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    /// Seeded on-time heartbeat stream: gaps within ±10% of the schedule.
    fn on_time_gap(seed: u64, host: u64, k: u64, base: Nanos) -> Nanos {
        let u = unit_draw(seed, 0xBEA7 ^ host, k);
        base.scale_f64(0.9 + 0.2 * u)
    }

    #[test]
    fn never_suspects_on_time_heartbeats() {
        // Property: with threshold 3 and gaps within ±10% of the base,
        // no probe between consecutive arrivals ever suspects the host.
        for seed in [1u64, 7, 42, 0xDEAD] {
            let mut det = PhiDetector::new(2, DetectorConfig, ms(50));
            let mut now = Nanos::ZERO;
            for k in 0..200u64 {
                let gap = on_time_gap(seed, 0, k, ms(50));
                // Probe right up to the next arrival: still inside the
                // allowance, so never suspected.
                assert!(
                    !det.suspected(0, now + gap),
                    "seed {seed} beat {k}: suspected a live on-time host"
                );
                now += gap;
                det.heartbeat(0, now);
            }
        }
    }

    #[test]
    fn always_suspects_within_the_computable_bound() {
        // Property: after the last heartbeat, the host is suspected at
        // (and forever after) the published deadline, and not before the
        // instant just preceding it.
        for seed in [3u64, 11, 0xBEEF] {
            let mut det = PhiDetector::new(1, DetectorConfig, ms(50));
            let mut now = Nanos::ZERO;
            for k in 0..50u64 {
                now += on_time_gap(seed, 0, k, ms(50));
                det.heartbeat(0, now);
            }
            let bound = det.deadline(0);
            assert!(bound > now);
            assert!(
                bound <= now + det.mean_gap(0).scale_f64(3.0) + Nanos::from_nanos(1),
                "bound must be threshold x mean"
            );
            assert!(!det.suspected(0, bound.saturating_sub(Nanos::from_nanos(1))));
            assert!(det.suspected(0, bound));
            assert!(det.suspected(0, bound + ms(1000)));
        }
    }

    #[test]
    fn verdicts_replay_and_are_host_order_independent() {
        // Property: the same per-host streams produce the same verdicts
        // whether hosts are fed in ascending, descending, or interleaved
        // order — state is Vec-indexed, never iterated from a map.
        let arrivals: Vec<Vec<Nanos>> = (0..4u64)
            .map(|h| {
                let mut now = Nanos::ZERO;
                (0..40u64)
                    .map(|k| {
                        now += on_time_gap(9, h, k, ms(40) + Nanos::from_millis(h * 5));
                        now
                    })
                    .collect()
            })
            .collect();
        let feed = |order: &[usize]| {
            let mut det = PhiDetector::new(4, DetectorConfig, ms(40));
            // Round-major on purpose: host h's k-th beat lands between
            // the other hosts' k-th beats, exercising interleaving.
            #[allow(clippy::needless_range_loop)]
            for k in 0..40 {
                for &h in order {
                    det.heartbeat(h, arrivals[h][k]);
                }
            }
            let probe = ms(2000);
            (0..4)
                .map(|h| (det.deadline(h), det.suspected(h, probe)))
                .collect::<Vec<_>>()
        };
        let asc = feed(&[0, 1, 2, 3]);
        let desc = feed(&[3, 2, 1, 0]);
        let shuffled = feed(&[2, 0, 3, 1]);
        assert_eq!(asc, desc);
        assert_eq!(asc, shuffled);
        assert_eq!(asc, feed(&[0, 1, 2, 3]), "replay must be identical");
    }

    #[test]
    fn slow_links_earn_longer_allowances() {
        let mut det = PhiDetector::new(2, DetectorConfig, ms(50));
        let mut now = Nanos::ZERO;
        for _ in 0..20 {
            now += ms(100); // host 0 consistently arrives slowly
            det.heartbeat(0, now);
        }
        assert!(det.mean_gap(0) >= ms(99));
        assert!(det.deadline(0) >= now + ms(290));
        // Host 1 never beat: its allowance stays at the expected gap.
        assert_eq!(det.mean_gap(1), ms(50));
    }
}
