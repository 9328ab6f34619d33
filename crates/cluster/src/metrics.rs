//! The cluster's report of one run: the hosts' own [`FleetMetrics`], kept
//! whole, and the cluster-wide figures over them.
//!
//! Each host counts into its own `FleetMetrics` during the run; at the end
//! each record moves into [`ClusterMetrics::hosts`] unchanged, and the
//! cluster sums what hosts count (completions, sheds, faults, evictions,
//! latencies) beside the request-level counts the shared front end kept
//! (breaker sheds, timeouts, failures, rejections, retries). From these
//! come aggregate goodput, cluster-wide p50/p99 over the merged latency
//! samples (computed with [`sevf_obs::percentile_or_zero`], which wraps
//! the tree's single percentile implementation in `sevf_sim::stats`),
//! per-host PSP utilization skew, the cluster cache hit-rate, and the
//! conservation invariant every run must satisfy:
//!
//! ```text
//! completed + shed + breaker_sheds + timeouts + failed + rejected == issued
//! ```

use sevf_fleet::metrics::FleetMetrics;
use sevf_obs::percentile_or_zero;
use sevf_sim::Nanos;

/// The cluster-wide rollup of one run.
#[derive(Debug, Clone, Default)]
pub struct ClusterMetrics {
    /// Requests issued to the cluster.
    pub issued: usize,
    /// Requests served to completion (any host).
    pub completed: usize,
    /// Requests shed: per-host admission-queue sheds plus arrivals that
    /// found no live host at all ([`ClusterMetrics::unroutable`]).
    pub shed: u64,
    /// Of the sheds, arrivals the router could not place anywhere.
    pub unroutable: u64,
    /// Requests shed past the bottom of a host's degradation ladder.
    pub breaker_sheds: u64,
    /// Requests shed on deadline.
    pub timeouts: u64,
    /// Requests permanently failed after exhausting retries.
    pub failed: u64,
    /// Requests the policy engine turned away at the router (quota,
    /// isolation, or no posture-eligible host).
    pub rejected: u64,
    /// Retry launches dispatched cluster-wide.
    pub retries: u64,
    /// Requests displaced off a dead or departing host and re-routed
    /// (queued requests re-placed at the membership change, in-flight
    /// requests whose launch the outage poisoned).
    pub failovers: u64,
    /// Warm-pool rebalance passes triggered by membership changes.
    pub rebalances: u64,
    /// Times the failure detector began suspecting a host.
    pub suspicions: u64,
    /// Suspicions a later heartbeat cleared.
    pub suspicions_cleared: u64,
    /// Failover sweeps that fired after their suspicion had already
    /// cleared: false suspicions that moved no work.
    pub false_suspicions: u64,
    /// Times a host parked on an expired lease.
    pub lease_expiries: u64,
    /// Dispatch messages lost to link loss or a partition.
    pub net_lost: u64,
    /// Dispatches the router timed out and sent back through recovery.
    pub net_timeouts: u64,
    /// Refusals (host parked, fenced, or dead at delivery) that reached
    /// the router.
    pub net_nacks: u64,
    /// Outcome messages discarded because the request had moved to a
    /// newer dispatch epoch.
    pub stale_completions: u64,
    /// Success completions for already-terminal requests — double-service
    /// attempts the epoch fence suppressed (each request still counted
    /// exactly once).
    pub double_completion_attempts: u64,
    /// Injected-fault occurrences across all hosts.
    pub faults: u64,
    /// Warm guests evicted across all hosts: refills that landed at or
    /// above target, and the surplus a target shrink dropped.
    pub evicted: u64,
    /// Posture eligibility checks the policy filter ran (placement plus
    /// dispatch-time re-checks).
    pub posture_checks: u64,
    /// Queued requests re-routed because their host's posture changed
    /// between enqueue and pop.
    pub posture_redirects: u64,
    /// Launches dispatched onto a posture-ineligible host. The policy
    /// filter plus the dispatch-time re-check must keep this at zero.
    pub posture_violations: u64,
    /// Merged request latencies (ms), in completion order per host.
    pub latencies_ms: Vec<f64>,
    /// Host-seconds of availability summed over the fleet — the
    /// provisioning-cost axis of the autoscale frontier. A host accrues
    /// while it is routable (available), whether or not it serves.
    pub host_seconds: f64,
    /// End of the last completion on the shared clock.
    pub makespan: Nanos,
    /// Each host's own record of the run, in host-id order: every counter
    /// it kept (warm misses, degraded dispatches, breaker trips, the
    /// deepest its queue got, faults by kind), its latencies, and what
    /// the run's end set (utilization, makespan, time degraded). The
    /// request-level counts on it are 0: the front end keeps those.
    pub hosts: Vec<FleetMetrics>,
}

impl ClusterMetrics {
    /// Sums what a host counts (completions, admission sheds, faults,
    /// evictions, latencies) into the cluster's figures and keeps the
    /// host's record itself. The request-level counts are the front end's,
    /// not the hosts'.
    pub(crate) fn absorb_host(&mut self, m: FleetMetrics) {
        self.completed += m.completed;
        self.shed += m.shed;
        self.faults += m.faults.total();
        self.evicted += m.evicted;
        self.latencies_ms
            .extend(m.latencies.iter().map(|n| n.as_millis_f64()));
        self.hosts.push(m);
    }

    /// Completed requests per second of makespan, summed over hosts.
    pub fn goodput_rps(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }

    /// Cluster-wide median latency (ms); 0 with no completions.
    pub fn p50_ms(&self) -> f64 {
        percentile_or_zero(&self.latencies_ms, 50.0)
    }

    /// Cluster-wide 99th-percentile latency (ms); 0 with no completions.
    pub fn p99_ms(&self) -> f64 {
        percentile_or_zero(&self.latencies_ms, 99.0)
    }

    /// Exports the rollup into a unified [`sevf_obs::Registry`].
    pub fn registry(&self) -> sevf_obs::Registry {
        let mut reg = sevf_obs::Registry::new();
        reg.inc("cluster_issued_total", self.issued as u64);
        reg.inc("cluster_completed_total", self.completed as u64);
        reg.inc("cluster_shed_total", self.shed);
        reg.inc("cluster_unroutable_total", self.unroutable);
        reg.inc("cluster_breaker_sheds_total", self.breaker_sheds);
        reg.inc("cluster_timeouts_total", self.timeouts);
        reg.inc("cluster_failed_total", self.failed);
        reg.inc("cluster_rejected_total", self.rejected);
        reg.inc("cluster_retries_total", self.retries);
        reg.inc("cluster_failovers_total", self.failovers);
        reg.inc("cluster_rebalances_total", self.rebalances);
        reg.inc("cluster_suspicions_total", self.suspicions);
        reg.inc("cluster_suspicions_cleared_total", self.suspicions_cleared);
        reg.inc("cluster_false_suspicions_total", self.false_suspicions);
        reg.inc("cluster_lease_expiries_total", self.lease_expiries);
        reg.inc("cluster_net_lost_total", self.net_lost);
        reg.inc("cluster_net_timeouts_total", self.net_timeouts);
        reg.inc("cluster_net_nacks_total", self.net_nacks);
        reg.inc("cluster_stale_completions_total", self.stale_completions);
        reg.inc(
            "cluster_double_completion_attempts_total",
            self.double_completion_attempts,
        );
        reg.inc("cluster_faults_total", self.faults);
        reg.inc("cluster_evicted_total", self.evicted);
        reg.inc("cluster_posture_checks_total", self.posture_checks);
        reg.inc("cluster_posture_redirects_total", self.posture_redirects);
        reg.inc("cluster_posture_violations_total", self.posture_violations);
        reg.set_gauge("cluster_host_seconds", self.host_seconds);
        reg.set_gauge("cluster_psp_skew", self.psp_skew());
        reg.set_gauge("cluster_cache_hit_rate", self.cache_hit_rate());
        reg.set_gauge("cluster_makespan_ms", self.makespan.as_millis_f64());
        for ms in &self.latencies_ms {
            reg.observe("cluster_latency_ms", 10.0, *ms);
        }
        reg
    }

    /// Cluster template-cache hit rate in `[0, 1]`; 0 with no lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits: u64 = self.hosts.iter().map(|h| h.cache_hits).sum();
        let misses: u64 = self.hosts.iter().map(|h| h.cache_misses).sum();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Template fills (= measurements) across all hosts. Under affinity
    /// placement this exceeding the class count is re-measurement: a class
    /// measured again on a new owner host after a membership change (§6.2
    /// across machines).
    pub fn cache_misses(&self) -> u64 {
        self.hosts.iter().map(|h| h.cache_misses).sum()
    }

    /// Spread between the busiest and idlest PSP (absolute utilization
    /// difference); 0 for a single host.
    pub fn psp_skew(&self) -> f64 {
        let max = self
            .hosts
            .iter()
            .map(|h| h.psp_utilization)
            .fold(0.0, f64::max);
        let min = self
            .hosts
            .iter()
            .map(|h| h.psp_utilization)
            .fold(f64::INFINITY, f64::min);
        if self.hosts.is_empty() {
            0.0
        } else {
            max - min
        }
    }

    /// Requests that left the system without completing.
    pub fn lost(&self) -> u64 {
        self.shed + self.breaker_sheds + self.timeouts + self.failed + self.rejected
    }

    /// The cluster conservation invariant: every issued request reaches
    /// exactly one terminal state.
    pub fn conserved(&self) -> bool {
        self.completed as u64 + self.lost() == self.issued as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rollup_with(latencies_ms: &[f64]) -> ClusterMetrics {
        ClusterMetrics {
            issued: latencies_ms.len(),
            completed: latencies_ms.len(),
            latencies_ms: latencies_ms.to_vec(),
            makespan: Nanos::from_secs(2),
            ..ClusterMetrics::default()
        }
    }

    #[test]
    fn percentiles_come_from_the_shared_implementation() {
        use sevf_sim::stats::percentile;
        let m = rollup_with(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.p50_ms(), percentile(&[1.0, 2.0, 3.0, 4.0], 50.0));
        assert_eq!(m.p99_ms(), percentile(&[1.0, 2.0, 3.0, 4.0], 99.0));
        assert_eq!(m.goodput_rps(), 2.0);
    }

    #[test]
    fn empty_rollup_reports_zeros() {
        let m = ClusterMetrics::default();
        assert_eq!(m.p50_ms(), 0.0);
        assert_eq!(m.p99_ms(), 0.0);
        assert_eq!(m.goodput_rps(), 0.0);
        assert_eq!(m.cache_hit_rate(), 0.0);
        assert_eq!(m.psp_skew(), 0.0);
        assert!(m.conserved());
    }

    #[test]
    fn absorb_host_merges_counters_and_skew() {
        let mut m = ClusterMetrics::default();
        let mut a = FleetMetrics {
            completed: 3,
            shed: 1,
            cache_hits: 4,
            cache_misses: 2,
            evicted: 3,
            breaker_trips: 2,
            max_queue_depth: 7,
            psp_utilization: 0.9,
            ..FleetMetrics::default()
        };
        a.latencies.push(Nanos::from_millis(10));
        // A request-level count on a host is not the host's to report: the
        // rollup takes those from the front end alone.
        let b = FleetMetrics {
            completed: 2,
            timeouts: 1,
            evicted: 1,
            warm_misses: 5,
            psp_utilization: 0.3,
            ..FleetMetrics::default()
        };
        m.absorb_host(a);
        m.absorb_host(b);
        m.issued = 6;
        assert_eq!(m.completed, 5);
        assert_eq!(m.shed, 1);
        assert_eq!(m.timeouts, 0);
        assert_eq!(m.evicted, 4);
        assert_eq!(m.latencies_ms.len(), 1);
        assert!((m.psp_skew() - 0.6).abs() < 1e-12);
        assert!((m.cache_hit_rate() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(m.cache_misses(), 2);
        assert!(m.conserved());
        // Each host's record survives whole, counters no cluster figure sums
        // included.
        assert_eq!(m.hosts.len(), 2);
        assert_eq!(m.hosts[0].breaker_trips, 2);
        assert_eq!(m.hosts[0].max_queue_depth, 7);
        assert_eq!(m.hosts[0].latencies, [Nanos::from_millis(10)]);
        assert_eq!(m.hosts[1].warm_misses, 5);
        assert_eq!(m.hosts[1].timeouts, 1);
    }
}
