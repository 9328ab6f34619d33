//! End-to-end serving behavior: the acceptance checks of the fleet
//! experiment, run at test scale (tiny kernels) for speed.

use sevf_fleet::experiment::{serving_sweep, tier_reports, SweepConfig};
use sevf_fleet::service::ServingTier;

fn quick_report() -> sevf_fleet::experiment::SweepReport {
    serving_sweep(&SweepConfig::quick()).expect("sweep")
}

#[test]
fn warm_beats_template_beats_cold_p99_at_high_load() {
    let report = quick_report();
    let high = |tier| {
        tier_reports(&report, tier)
            .last()
            .map(|r| r.metrics.p99_ms())
            .expect("reports")
    };
    let cold = high(ServingTier::Cold);
    let template = high(ServingTier::Template);
    let warm = high(ServingTier::WarmPool);
    assert!(
        warm < template && template < cold,
        "p99 ordering violated: warm {warm:.2} ms, template {template:.2} ms, cold {cold:.2} ms"
    );
    // And not marginally: each reuse tier wins by a wide factor.
    assert!(
        template < cold / 2.0,
        "template {template:.2} vs cold {cold:.2}"
    );
    assert!(
        warm < template / 10.0,
        "warm {warm:.2} vs template {template:.2}"
    );
}

#[test]
fn cold_tier_saturates_at_the_psp_ceiling() {
    let report = quick_report();
    let cold = tier_reports(&report, ServingTier::Cold);
    let low = &cold.first().expect("low load").metrics;
    let high = cold.last().expect("high load");
    assert!(
        high.offered_rps.unwrap() > report.cold_capacity_rps,
        "sweep must cross the ceiling ({:.1} req/s)",
        report.cold_capacity_rps
    );
    let high = &high.metrics;
    // Below the ceiling: healthy. Above: the PSP pins near 100% busy and
    // the tail inflates by an order of magnitude.
    assert!(low.shed == 0, "shed at low load: {}", low.shed);
    assert!(
        high.psp_utilization > 0.9,
        "psp {:.2}",
        high.psp_utilization
    );
    assert!(high.p99_ms() > low.p99_ms() * 5.0, "no tail blowup");
}

#[test]
fn overload_sheds_only_after_the_queue_bound_fills() {
    let report = quick_report();
    let cold = tier_reports(&report, ServingTier::Cold);
    let high = &cold.last().expect("high load").metrics;
    let bound = SweepConfig::quick().admission.queue_bound;
    assert!(high.shed > 0, "expected shedding above the ceiling");
    assert_eq!(
        high.max_queue_depth, bound,
        "shedding implies the bound was reached"
    );
    // Reuse tiers absorb the same load without shedding.
    for tier in [ServingTier::Template, ServingTier::WarmPool] {
        let shed = tier_reports(&report, tier).last().unwrap().metrics.shed;
        assert_eq!(shed, 0, "{} shed {shed}", tier.name());
    }
}

#[test]
fn reuse_tiers_actually_reuse() {
    let report = quick_report();
    let high = |tier| &tier_reports(&report, tier).last().unwrap().metrics;
    let template_high = high(ServingTier::Template);
    let warm_high = high(ServingTier::WarmPool);
    // Template: at most one fill per class, the rest are cache hits.
    assert!(
        template_high.cache_hits as usize >= template_high.completed - 2,
        "cache hits {} of {}",
        template_high.cache_hits,
        template_high.completed
    );
    // Warm pool: most requests are served from resident guests.
    assert!(
        warm_high.warm_hits as usize * 2 > warm_high.completed,
        "warm hits {} of {}",
        warm_high.warm_hits,
        warm_high.completed
    );
}

#[test]
fn whole_sweep_is_deterministic_across_processes_of_the_same_seed() {
    // Two full sweeps in-process; combined with the seeded arrival draws
    // and virtual time only, this pins cross-run determinism.
    assert_eq!(
        format!("{:?}", quick_report()),
        format!("{:?}", quick_report())
    );
}
