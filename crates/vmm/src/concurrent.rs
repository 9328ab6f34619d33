//! Concurrent cold boots through the discrete-event engine (Fig. 12).
//!
//! A boot's timeline is converted to a [`Job`] whose segments are placed on
//! the host resource they occupy: PSP launch commands serialize on the
//! single-slot PSP resource; everything else runs on the host's CPU pool;
//! attestation's network wait is a pure delay. Replaying N identical jobs
//! reproduces the paper's finding that **average SEV boot time grows
//! linearly with concurrency** — the slope is the per-launch PSP time —
//! while non-SEV boots stay nearly flat.

use sevf_sim::{DesEngine, Job, Nanos, Segment, Summary};

use crate::machine::HOST_CORES;
use crate::report::BootReport;

/// Converts a boot report into a DES job.
///
/// Each timeline span carries a typed [`sevf_sim::ResourceClass`], taken
/// from the work it paid for, and [`Segment::for_class`] places
/// it: PSP launch commands go onto the single-slot PSP resource, CPU work
/// onto the core pool, and network waits become pure delays. No label
/// parsing is involved, so renaming a span cannot change its placement.
pub fn boot_job(report: &BootReport, cpu: sevf_sim::ResourceId, psp: sevf_sim::ResourceId) -> Job {
    let segments = report
        .timeline
        .spans()
        .iter()
        .map(|span| Segment::for_class(span.class, span.duration, cpu, psp))
        .collect();
    Job::new(segments)
}

/// Result of a concurrency sweep point.
#[derive(Debug, Clone)]
pub struct ConcurrencyPoint {
    /// Number of concurrent launches.
    pub concurrency: usize,
    /// Per-VM boot latencies.
    pub latencies: Vec<Nanos>,
    /// Latency summary (ms).
    pub summary: Summary,
}

/// Launches `n` copies of `report`'s boot concurrently and returns the
/// latency distribution.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn run_concurrent(report: &BootReport, n: usize) -> ConcurrencyPoint {
    assert!(n > 0);
    let mut engine = DesEngine::new();
    let psp = engine.add_resource("psp", 1);
    let cpu = engine.add_resource("host-cpus", HOST_CORES);
    let jobs: Vec<Job> = (0..n).map(|_| boot_job(report, cpu, psp)).collect();
    let outcomes = engine.run(jobs);
    let latencies: Vec<Nanos> = outcomes.iter().map(|o| o.latency()).collect();
    ConcurrencyPoint {
        concurrency: n,
        summary: Summary::from_nanos(&latencies),
        latencies,
    }
}

/// Sweeps concurrency levels (Fig. 12's x axis).
pub fn sweep(report: &BootReport, levels: &[usize]) -> Vec<ConcurrencyPoint> {
    levels.iter().map(|&n| run_concurrent(report, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BootPolicy, VmConfig};
    use crate::machine::Machine;
    use crate::vmm::MicroVm;
    use sevf_sim::{PhaseKind, ResourceClass};

    fn report(policy: BootPolicy) -> BootReport {
        let mut machine = Machine::new(3);
        let vm = MicroVm::new(VmConfig::test_tiny(policy)).unwrap();
        if policy.is_sev() {
            vm.register_expected(&mut machine).unwrap();
        }
        vm.boot(&mut machine).unwrap()
    }

    #[test]
    fn typed_psp_spans_sum_to_psp_busy() {
        // Every nanosecond the PSP accounting saw must be tagged on a span,
        // and nothing else may carry the tag (jitter is off in test_tiny).
        let r = report(BootPolicy::Severifast);
        let tagged: Nanos = r
            .timeline
            .spans()
            .iter()
            .filter(|s| s.class == ResourceClass::Psp)
            .map(|s| s.duration)
            .sum();
        assert_eq!(tagged, r.psp_busy);
    }

    #[test]
    fn single_job_matches_report_total() {
        let r = report(BootPolicy::Severifast);
        let point = run_concurrent(&r, 1);
        assert_eq!(point.latencies[0], r.total_time());
    }

    #[test]
    fn sev_boots_serialize_on_the_psp() {
        let r = report(BootPolicy::Severifast);
        let p1 = run_concurrent(&r, 1);
        let p16 = run_concurrent(&r, 16);
        let p32 = run_concurrent(&r, 32);
        // Linear growth in the batch size.
        let d1 = p16.summary.mean - p1.summary.mean;
        let d2 = p32.summary.mean - p16.summary.mean;
        assert!(d1 > 0.0 && d2 > 0.0);
        assert!(
            (d2 / d1 - 16.0 / 15.0).abs() < 0.3,
            "not linear: {d1} then {d2}"
        );
        // The paper: "average startup time increases linearly with a slope
        // equal to the total time it takes to execute the SEV launch
        // commands" — each job's several PSP segments re-queue behind every
        // other job, so nearly all jobs finish near the batch end.
        let psp_ms = r.psp_busy.as_millis_f64();
        let slope = (p32.summary.mean - p16.summary.mean) / 16.0;
        assert!(
            (slope / psp_ms - 1.0).abs() < 0.35,
            "slope {slope:.2} ms/VM vs psp {psp_ms:.2}"
        );
    }

    #[test]
    fn non_sev_boots_stay_nearly_flat() {
        let r = report(BootPolicy::StockFirecracker);
        let p1 = run_concurrent(&r, 1);
        let p25 = run_concurrent(&r, 25);
        // 25 jobs on 32 cores: no queuing at all.
        assert!(p25.summary.mean < p1.summary.mean * 1.2);
    }

    #[test]
    fn sweep_is_monotone_for_sev() {
        let r = report(BootPolicy::Severifast);
        let points = sweep(&r, &[1, 5, 10, 20]);
        for pair in points.windows(2) {
            assert!(pair[1].summary.mean >= pair[0].summary.mean);
        }
    }

    #[test]
    fn attestation_network_does_not_contend() {
        // The network delay is not a resource: 50 VMs' waits overlap.
        let r = report(BootPolicy::Severifast);
        let network_ms: f64 = r
            .timeline
            .spans()
            .iter()
            .filter(|s| s.phase == PhaseKind::Attestation)
            .map(|s| s.duration.as_millis_f64())
            .sum();
        let p40 = run_concurrent(&r, 40);
        let serialized_estimate = r.psp_busy.as_millis_f64() * 40.0 + network_ms;
        assert!(
            p40.summary.max < serialized_estimate + r.total_time().as_millis_f64(),
            "max {} vs bound {}",
            p40.summary.max,
            serialized_estimate
        );
    }
}
