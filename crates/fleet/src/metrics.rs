//! Service-level metrics for one fleet run.
//!
//! Everything the experiment tables print comes from here: request latency
//! percentiles (on [`sevf_sim::stats::Summary`]), queue depth sampled at
//! every enqueue/dequeue, PSP/CPU utilization read off the busy totals the
//! DES keeps in its [`sevf_sim::RunTrace`] (a lookup, whether or not the
//! run recorded occupancy entries), and the shed / cache-hit / warm-hit
//! counters that explain *why* the latencies look the way they do.

use sevf_sim::fault::FaultKind;
use sevf_sim::{Nanos, Summary};

/// Per-fault-kind occurrence counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Transient PSP launch-command failures.
    pub psp_transient: u64,
    /// Launches lost to PSP firmware resets (poisoned in flight or
    /// dispatched into a dead PSP).
    pub psp_reset: u64,
    /// Warm guests that crashed out of the pool.
    pub warm_crash: u64,
    /// Attestation round trips that hung until timeout.
    pub attest_timeout: u64,
    /// Attestation round trips that returned errors.
    pub attest_error: u64,
    /// Launches lost to whole-host outages (cluster fault domain died with
    /// the request in flight on it).
    pub host_outage: u64,
    /// Launches aborted because the host's dispatch lease lapsed during a
    /// network partition (fenced, not served — split-brain discipline).
    pub net_partition: u64,
}

impl FaultCounters {
    /// Counts one occurrence of `kind`.
    pub fn record(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::PspTransient => self.psp_transient += 1,
            FaultKind::PspReset => self.psp_reset += 1,
            FaultKind::WarmCrash => self.warm_crash += 1,
            FaultKind::AttestTimeout => self.attest_timeout += 1,
            FaultKind::AttestError => self.attest_error += 1,
            FaultKind::HostOutage => self.host_outage += 1,
            FaultKind::NetPartition => self.net_partition += 1,
        }
    }

    /// Total faults of every kind.
    pub fn total(&self) -> u64 {
        self.psp_transient
            + self.psp_reset
            + self.warm_crash
            + self.attest_timeout
            + self.attest_error
            + self.host_outage
            + self.net_partition
    }
}

/// Metrics collected over one [`crate::service::FleetService`] run.
#[derive(Debug, Clone, Default)]
pub struct FleetMetrics {
    /// Requests that completed a launch (or warm invocation).
    pub completed: usize,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests shed because the class's circuit breaker degraded past the
    /// bottom of the tier ladder.
    pub breaker_sheds: u64,
    /// Requests shed because their deadline passed (at retry scheduling or
    /// while waiting in the queue).
    pub timeouts: u64,
    /// Requests permanently failed after exhausting the retry budget.
    pub failed: u64,
    /// Requests turned away by the policy engine (quota / isolation)
    /// before consuming any PSP work. Zero without a policy layer.
    pub rejected: u64,
    /// Retry launches dispatched (beyond each request's first attempt).
    pub retries: u64,
    /// Injected-fault occurrences by kind.
    pub faults: FaultCounters,
    /// Launches dispatched below the configured tier (degraded ladder).
    pub degraded_dispatches: u64,
    /// Circuit-breaker trips across all classes.
    pub breaker_trips: u64,
    /// Virtual time the PSP spent inside firmware-reset outages (clipped to
    /// the makespan).
    pub time_degraded: Nanos,
    /// Template-cache hits (template and warm-pool tiers).
    pub cache_hits: u64,
    /// Template-cache misses (fills).
    pub cache_misses: u64,
    /// Warm-pool hits.
    pub warm_hits: u64,
    /// Warm-pool misses (fell through to a launch).
    pub warm_misses: u64,
    /// Warm guests evicted above target.
    pub evicted: u64,
    /// Per-request latency, arrival to completion.
    pub latencies: Vec<Nanos>,
    /// `(instant, depth)` samples taken at every queue transition.
    pub queue_depth: Vec<(Nanos, usize)>,
    /// Deepest the admission queue ever got.
    pub max_queue_depth: usize,
    /// Fraction of the run the PSP spent busy.
    pub psp_utilization: f64,
    /// Fraction of `makespan × cores` the CPU pool spent busy.
    pub cpu_utilization: f64,
    /// Instant the last job finished.
    pub makespan: Nanos,
}

impl FleetMetrics {
    /// Records one completed request's latency.
    pub fn record_latency(&mut self, latency: Nanos) {
        self.completed += 1;
        self.latencies.push(latency);
    }

    /// Records a queue-depth transition.
    pub(crate) fn sample_queue_depth(&mut self, at: Nanos, depth: usize) {
        self.queue_depth.push((at, depth));
        self.max_queue_depth = self.max_queue_depth.max(depth);
    }

    /// Requests that left the system without completing: load sheds,
    /// breaker sheds, deadline timeouts, permanent failures, and policy
    /// rejections.
    pub fn lost(&self) -> u64 {
        self.shed + self.breaker_sheds + self.timeouts + self.failed + self.rejected
    }

    /// Completed requests per second of makespan — the goodput the chaos
    /// tables plot against offered load (0 when the run is empty).
    pub fn goodput_rps(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Latency summary; `None` when nothing completed.
    pub fn summary(&self) -> Option<Summary> {
        if self.latencies.is_empty() {
            None
        } else {
            Some(Summary::from_nanos(&self.latencies))
        }
    }

    /// Mean latency in ms (0 when nothing completed).
    pub fn mean_ms(&self) -> f64 {
        self.summary().map_or(0.0, |s| s.mean)
    }

    /// Median latency in ms (0 when nothing completed).
    pub fn p50_ms(&self) -> f64 {
        self.summary().map_or(0.0, |s| s.p50)
    }

    /// 99th-percentile latency in ms (0 when nothing completed).
    pub fn p99_ms(&self) -> f64 {
        self.summary().map_or(0.0, |s| s.p99)
    }

    /// Mean queue depth weighted by the time each depth was held.
    pub fn mean_queue_depth(&self) -> f64 {
        sevf_obs::time_weighted_mean(&self.queue_depth)
    }

    /// Exports the run's counters, gauges, and latency histogram into a
    /// unified [`sevf_obs::Registry`] (for the Prometheus-style dump).
    pub fn registry(&self) -> sevf_obs::Registry {
        let mut reg = sevf_obs::Registry::new();
        reg.inc("fleet_completed_total", self.completed as u64);
        reg.inc("fleet_shed_total", self.shed);
        reg.inc("fleet_breaker_sheds_total", self.breaker_sheds);
        reg.inc("fleet_timeouts_total", self.timeouts);
        reg.inc("fleet_failed_total", self.failed);
        reg.inc("fleet_rejected_total", self.rejected);
        reg.inc("fleet_retries_total", self.retries);
        reg.inc("fleet_faults_total", self.faults.total());
        reg.inc("fleet_degraded_dispatches_total", self.degraded_dispatches);
        reg.inc("fleet_breaker_trips_total", self.breaker_trips);
        reg.inc("fleet_cache_hits_total", self.cache_hits);
        reg.inc("fleet_cache_misses_total", self.cache_misses);
        reg.inc("fleet_warm_hits_total", self.warm_hits);
        reg.inc("fleet_warm_misses_total", self.warm_misses);
        reg.inc("fleet_evicted_total", self.evicted);
        reg.set_gauge("fleet_psp_utilization", self.psp_utilization);
        reg.set_gauge("fleet_cpu_utilization", self.cpu_utilization);
        reg.set_gauge("fleet_mean_queue_depth", self.mean_queue_depth());
        reg.set_gauge("fleet_max_queue_depth", self.max_queue_depth as f64);
        reg.set_gauge("fleet_makespan_ms", self.makespan.as_millis_f64());
        for l in &self.latencies {
            reg.observe("fleet_latency_ms", 10.0, l.as_millis_f64());
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics_report_zeros_not_panics() {
        let m = FleetMetrics::default();
        assert!(m.summary().is_none());
        assert_eq!(m.p99_ms(), 0.0);
        assert_eq!(m.mean_queue_depth(), 0.0);
    }

    #[test]
    fn latency_percentiles_flow_through() {
        let mut m = FleetMetrics::default();
        for ms in [10u64, 20, 30, 40] {
            m.record_latency(Nanos::from_millis(ms));
        }
        assert_eq!(m.completed, 4);
        assert!((m.mean_ms() - 25.0).abs() < 1e-9);
        assert!((m.p50_ms() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn single_sample_percentiles_all_equal_it() {
        let mut m = FleetMetrics::default();
        m.record_latency(Nanos::from_millis(42));
        assert!((m.mean_ms() - 42.0).abs() < 1e-9);
        assert!((m.p50_ms() - 42.0).abs() < 1e-9);
        assert!((m.p99_ms() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn all_equal_samples_have_flat_percentiles() {
        let mut m = FleetMetrics::default();
        for _ in 0..100 {
            m.record_latency(Nanos::from_millis(7));
        }
        assert!((m.mean_ms() - 7.0).abs() < 1e-9);
        assert!((m.p50_ms() - 7.0).abs() < 1e-9);
        assert!((m.p99_ms() - 7.0).abs() < 1e-9);
        let s = m.summary().unwrap();
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    fn fault_counters_and_lost_accounting() {
        let mut m = FleetMetrics::default();
        m.faults.record(FaultKind::PspTransient);
        m.faults.record(FaultKind::PspReset);
        m.faults.record(FaultKind::PspReset);
        m.faults.record(FaultKind::AttestError);
        assert_eq!(m.faults.total(), 4);
        assert_eq!(m.faults.psp_reset, 2);

        m.shed = 3;
        m.breaker_sheds = 1;
        m.timeouts = 2;
        m.failed = 4;
        assert_eq!(m.lost(), 10);
    }

    #[test]
    fn goodput_is_completed_over_makespan() {
        let mut m = FleetMetrics::default();
        assert_eq!(m.goodput_rps(), 0.0, "empty run divides by nothing");
        m.completed = 30;
        m.makespan = Nanos::from_secs(2);
        assert!((m.goodput_rps() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn queue_depth_time_weighting() {
        let mut m = FleetMetrics::default();
        m.sample_queue_depth(Nanos::ZERO, 0);
        m.sample_queue_depth(Nanos::from_millis(10), 2);
        m.sample_queue_depth(Nanos::from_millis(30), 0);
        // Depth 0 for 10 ms, depth 2 for 20 ms → mean 4/3.
        assert!((m.mean_queue_depth() - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.max_queue_depth, 2);
    }
}
