//! The autoscaling invariant battery: replay the sweep's audit log and
//! hold every scaling invariant against it.
//!
//! The sweep ([`sevf_cluster::scalesweep`]) records every applied
//! membership and warm-pool change as a [`ScaleEvent`]; these tests replay
//! that log instead of peeking at live state, so the invariants constrain
//! what the control plane *actually did*:
//!
//! * scale-in only ever drains idle victims (no in-flight launches, no
//!   queued requests on the host being removed);
//! * the warm-budget overshoot of raise-only prescriptions stays bounded
//!   by one extra budget;
//! * live-host counts never leave `[min_hosts, max_hosts]`;
//! * membership changes respect the cooldown;
//! * and every arm conserves every request.

use sevf_cluster::scalesweep::{scale_sweep, ScaleSweepConfig};
use sevf_cluster::service::{ClusterReport, ScaleEvent};
use sevf_sim::Nanos;

/// The quick sweep's config and each arm's report, in static / reactive /
/// predictive order.
fn quick_sweep() -> (ScaleSweepConfig, Vec<ClusterReport>) {
    let cfg = ScaleSweepConfig::quick();
    let cells = scale_sweep(&cfg).expect("quick sweep");
    let arms: Vec<&str> = cells.iter().map(|c| c.arm).collect();
    assert_eq!(arms, ["static", "reactive", "predictive"]);
    (cfg, cells.into_iter().map(|c| c.report).collect())
}

#[test]
fn scale_in_never_drains_a_busy_victim() {
    let (_, reports) = quick_sweep();
    for arm in &reports {
        let Some(auto) = arm.autoscale.as_ref() else {
            continue;
        };
        for e in &auto.events {
            if let ScaleEvent::In {
                at,
                removed,
                victims_inflight,
                victims_queued,
                ..
            } = *e
            {
                assert_eq!(
                    victims_inflight, 0,
                    "{}: drained {removed} hosts at {at:?} with launches in flight",
                    auto.policy
                );
                assert_eq!(
                    victims_queued, 0,
                    "{}: drained {removed} hosts at {at:?} with queued requests",
                    auto.policy
                );
            }
        }
    }
}

/// Prescriptions are raise-only while a ramp is in progress (shrinking a
/// serving host's pool mid-crowd would evict exactly the warm capacity
/// the ramp needs), so the per-class warm-target sum may transiently
/// exceed the budget — but never by more than one extra budget, and the
/// `div_ceil` spread adds at most one slot per live host on top.
#[test]
fn warm_budget_overshoot_stays_bounded() {
    let (cfg, reports) = quick_sweep();
    for arm in &reports {
        let Some(auto) = arm.autoscale.as_ref() else {
            continue;
        };
        let bound = 2 * cfg.warm_budget + cfg.max_hosts;
        for e in &auto.events {
            let (at, warm_sum) = match *e {
                ScaleEvent::Out { at, warm_sum, .. } => (at, warm_sum),
                ScaleEvent::In { at, warm_sum, .. } => (at, warm_sum),
                ScaleEvent::PreWarm { at, warm_sum, .. } => (at, warm_sum),
            };
            assert!(
                warm_sum <= bound,
                "{}: warm-target sum {warm_sum} exceeded {bound} at {at:?}",
                auto.policy
            );
        }
    }
}

#[test]
fn live_host_count_stays_in_bounds() {
    let (cfg, reports) = quick_sweep();
    for arm in &reports {
        let Some(auto) = arm.autoscale.as_ref() else {
            // The static arm holds its fixed fleet by construction.
            assert_eq!(arm.hosts, cfg.max_hosts);
            continue;
        };
        assert!(
            auto.min_live >= cfg.min_hosts,
            "{}: dipped to {} hosts below the floor {}",
            auto.policy,
            auto.min_live,
            cfg.min_hosts
        );
        assert!(
            auto.max_live <= cfg.max_hosts,
            "{}: grew to {} hosts past the ceiling {}",
            auto.policy,
            auto.max_live,
            cfg.max_hosts
        );
        for e in &auto.events {
            let live = match *e {
                ScaleEvent::Out { live, .. } => live,
                ScaleEvent::In { live, .. } => live,
                ScaleEvent::PreWarm { live, .. } => live,
            };
            assert!(
                live <= cfg.max_hosts,
                "{}: an applied change left {live} hosts live",
                auto.policy
            );
        }
    }
}

#[test]
fn membership_changes_respect_the_cooldown() {
    let (cfg, reports) = quick_sweep();
    for arm in &reports {
        let Some(auto) = arm.autoscale.as_ref() else {
            continue;
        };
        // Only membership changes (join/drain) are cooldown-gated;
        // prewarm prescriptions ride along freely.
        let changes: Vec<Nanos> = auto
            .events
            .iter()
            .filter_map(|e| match *e {
                ScaleEvent::Out { at, added, .. } if added > 0 => Some(at),
                ScaleEvent::In { at, removed, .. } if removed > 0 => Some(at),
                _ => None,
            })
            .collect();
        for pair in changes.windows(2) {
            assert!(
                pair[1] - pair[0] >= cfg.cooldown,
                "{}: membership changed at {:?} then {:?}, inside the {:?} cooldown",
                auto.policy,
                pair[0],
                pair[1],
                cfg.cooldown
            );
        }
    }
}

#[test]
fn every_arm_conserves_and_the_frontier_holds() {
    let (cfg, reports) = quick_sweep();
    for (arm, report) in ["static", "reactive", "predictive"].iter().zip(&reports) {
        let m = &report.metrics;
        assert!(m.conserved(), "{arm} broke conservation");
        assert_eq!(
            m.completed as u64 + m.lost(),
            m.issued as u64,
            "{arm}: terminal states do not sum to issued"
        );
    }
    let (stat, pred) = (&reports[0].metrics, &reports[2].metrics);
    let slo_met = |m: &sevf_cluster::ClusterMetrics| m.completed > 0 && m.p99_ms() <= cfg.slo_ms;
    assert!(slo_met(stat), "static-max must hold the SLO trivially");
    assert!(
        slo_met(pred),
        "predictive must hold the SLO through the ramp"
    );
    assert!(
        pred.host_seconds < stat.host_seconds,
        "predictive ({:.1} host-s) must undercut static ({:.1} host-s)",
        pred.host_seconds,
        stat.host_seconds
    );
}
