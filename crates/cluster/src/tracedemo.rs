//! Exemplar traced runs for the trace explorer and `figures --table trace`.
//!
//! Three deterministic scenarios, each run through the traced control
//! planes ([`sevf_fleet::FleetService::run_traced`] on one host,
//! [`ClusterService::run_traced`] across hosts) and reduced to one
//! exemplar request with its per-phase critical-path breakdown:
//!
//! * **cold** — a full cold SEV launch under contention: the slowest
//!   completed request of a cold-tier open loop, so the queue-wait share
//!   of the Fig. 12 PSP bottleneck is visible next to the boot phases.
//! * **template-hit** — the §6.2 shared-key path: a completed request
//!   that was served from a template hit (pre-encryption amortized away).
//! * **failover-recovered** — a request whose first launch died with its
//!   host mid-outage and that completed anyway on a surviving host; its
//!   tree shows the failed attempt, the failover hop, the backoff, and
//!   the second placement.
//!
//! Everything is a pure function of the seeds baked in here: same build,
//! byte-identical tables and traces.

use sevf_fleet::blueprint::{Catalog, ClassSpec};
use sevf_fleet::service::{FleetConfig, FleetService, ServingTier};
use sevf_fleet::workload::RequestMix;
use sevf_obs::{phase_breakdown, MarkerKind, Outcome, Registry, SpanKind, TraceLog};
use sevf_sim::Nanos;

use crate::placement::PlacementPolicy;
use crate::ring::HashRing;
use crate::service::{ClusterConfig, ClusterService, HostOutage};
use crate::ClusterError;

/// One exemplar request distilled from a traced run.
#[derive(Debug, Clone)]
pub struct TraceExemplar {
    /// Scenario name: `cold`, `template-hit`, or `failover-recovered`.
    pub scenario: &'static str,
    /// The request id inside its run.
    pub request: usize,
    /// End-to-end latency (root span duration).
    pub latency: Nanos,
    /// Launch attempts the request needed.
    pub attempts: usize,
    /// Failover hops the request took (cluster scenario only).
    pub failover_hops: usize,
    /// Per-phase critical-path breakdown, first-seen order; durations sum
    /// to `latency` exactly (children tile their parents).
    pub phases: Vec<(String, Nanos)>,
}

/// A traced scenario run: the full log plus its distilled exemplar.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Scenario name (matches the exemplar's).
    pub scenario: &'static str,
    /// Requests the run completed.
    pub completed: usize,
    /// The assembled span trees, markers, and occupancy.
    pub log: TraceLog,
    /// The run's unified metrics registry.
    pub registry: Registry,
    /// The scenario's exemplar request.
    pub exemplar: TraceExemplar,
}

/// The three exemplar scenarios.
#[derive(Debug, Clone)]
pub struct TraceScenarios {
    /// Cold tier under contention, single host.
    pub cold: TracedRun,
    /// Template tier, single host.
    pub template: TracedRun,
    /// Template tier across hosts with a mid-stream outage.
    pub failover: TracedRun,
}

/// Scenario sizing: `quick` keeps every run under a second of wall time.
fn sizes(quick: bool) -> (usize, f64) {
    if quick {
        (40, 45.0)
    } else {
        (160, 60.0)
    }
}

fn exemplar_from(
    scenario: &'static str,
    log: &TraceLog,
    request: usize,
) -> Result<TraceExemplar, ClusterError> {
    let root = log
        .request_root(request)
        .ok_or(ClusterError::Config("exemplar request has no span tree"))?;
    let attempts = log
        .spans
        .iter()
        .filter(|s| s.request == Some(request) && s.kind == SpanKind::Attempt)
        .count();
    let failover_hops = log
        .markers
        .iter()
        .filter(|m| m.kind == MarkerKind::Failover && m.request == Some(request))
        .count();
    Ok(TraceExemplar {
        scenario,
        request,
        latency: root.duration(),
        attempts,
        failover_hops,
        phases: phase_breakdown(log, request),
    })
}

/// The slowest completed request (ties broken toward the lowest id): the
/// one whose tree shows the most queueing.
fn slowest_completed(log: &TraceLog) -> Option<usize> {
    log.requests_with_outcome(Outcome::Completed)
        .into_iter()
        .filter_map(|r| log.request_root(r).map(|root| (root.duration(), r)))
        .max_by_key(|&(latency, request)| (latency, std::cmp::Reverse(request)))
        .map(|(_, r)| r)
}

/// Runs the three scenarios. `quick` shrinks the streams for tests and
/// `--quick` examples; both sizes pick the same kinds of exemplars.
///
/// # Errors
///
/// Returns [`ClusterError`] if a catalog fails to build or a scenario
/// produces no exemplar of the promised shape (both would be bugs: the
/// seeds and sizes here are chosen so each exemplar exists).
pub fn scenarios(quick: bool) -> Result<TraceScenarios, ClusterError> {
    let catalog = Catalog::build(41, &ClassSpec::quick_test_classes())?;
    let (requests, rps) = sizes(quick);
    let mix = RequestMix::quick_test_mix();

    // Scenario 1: cold tier on one host. The PSP serializes whole launches,
    // so the slowest completion carries a visible queue-wait share.
    let (report, log) = FleetService::new(
        catalog.clone(),
        FleetConfig {
            mix: Some(mix.clone()),
            ..FleetConfig::open_loop(ServingTier::Cold, rps, requests)
        },
    )
    .run_traced();
    let request =
        slowest_completed(&log).ok_or(ClusterError::Config("cold scenario completed nothing"))?;
    let cold = TracedRun {
        scenario: "cold",
        completed: report.metrics.completed,
        registry: report.metrics.registry(),
        exemplar: exemplar_from("cold", &log, request)?,
        log,
    };

    // Scenario 2: template tier on one host. Skip the fills: the exemplar
    // is the first request actually served from a template hit.
    let (report, log) = FleetService::new(
        catalog.clone(),
        FleetConfig {
            mix: Some(mix.clone()),
            ..FleetConfig::open_loop(ServingTier::Template, rps, requests)
        },
    )
    .run_traced();
    let request = log
        .requests_with_outcome(Outcome::Completed)
        .into_iter()
        .find(|&r| {
            log.spans.iter().any(|s| {
                s.request == Some(r)
                    && s.kind == SpanKind::Attempt
                    && s.name.contains("template-hit")
            })
        })
        .ok_or(ClusterError::Config("template scenario had no hit"))?;
    let template = TracedRun {
        scenario: "template-hit",
        completed: report.metrics.completed,
        registry: report.metrics.registry(),
        exemplar: exemplar_from("template-hit", &log, request)?,
        log,
    };

    // Scenario 3: a 3-host cluster under affinity placement; the ring
    // owner of the heavy class dies mid-stream, so its in-flight and
    // queued requests fail over and complete elsewhere.
    let hosts = 3;
    let vnodes = 32;
    let seed = 0x5EF0;
    let mut ring = HashRing::new(seed, vnodes);
    for host in 0..hosts {
        ring.insert(host);
    }
    let victim = ring.owner(&catalog.class(0).key).unwrap_or(0);
    let nominal = requests as f64 / rps;
    let outage = HostOutage {
        host: victim,
        start: Nanos::from_nanos((nominal / 3.0 * 1e9) as u64),
        end: Nanos::from_nanos((nominal * 2.0 / 3.0 * 1e9) as u64),
    };
    let config = ClusterConfig {
        mix: Some(mix),
        placement: PlacementPolicy::TemplateAffinity,
        vnodes,
        seed,
        outages: vec![outage],
        recovery: sevf_fleet::recovery::RecoveryConfig::resilient(seed),
        ..ClusterConfig::open_loop(
            hosts,
            ServingTier::Template,
            rps * hosts as f64,
            requests * hosts,
        )
    };
    let (report, log) = ClusterService::new(catalog, config)?.run_traced();
    // Prefer a request whose *in-flight* launch the outage poisoned (it
    // shows the dead attempt, the backoff, and the second placement) over
    // one that merely failed over out of the dead host's queue.
    let recovered: Vec<usize> = log
        .markers
        .iter()
        .filter(|m| m.kind == MarkerKind::Failover)
        .filter_map(|m| m.request)
        .filter(|&r| {
            log.outcomes
                .iter()
                .any(|&(req, o, _)| req == r && o == Outcome::Completed)
        })
        .collect();
    let attempts_of = |r: usize| {
        log.spans
            .iter()
            .filter(|s| s.request == Some(r) && s.kind == SpanKind::Attempt)
            .count()
    };
    let request = recovered
        .iter()
        .copied()
        .find(|&r| attempts_of(r) >= 2)
        .or_else(|| recovered.first().copied())
        .ok_or(ClusterError::Config("outage scenario recovered nothing"))?;
    let failover = TracedRun {
        scenario: "failover-recovered",
        completed: report.metrics.completed,
        registry: report.metrics.registry(),
        exemplar: exemplar_from("failover-recovered", &log, request)?,
        log,
    };

    Ok(TraceScenarios {
        cold,
        template,
        failover,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scenarios_produce_the_promised_exemplars() {
        let s = scenarios(true).unwrap();
        for run in [&s.cold, &s.template, &s.failover] {
            let e = &run.exemplar;
            assert!(run.completed > 0, "{}: nothing completed", run.scenario);
            assert!(e.latency > Nanos::ZERO, "{}: zero latency", run.scenario);
            assert!(!e.phases.is_empty(), "{}: no phases", run.scenario);
            let total: Nanos = e.phases.iter().map(|(_, d)| *d).sum();
            assert_eq!(total, e.latency, "{}: phases must tile", run.scenario);
        }
        assert_eq!(s.cold.exemplar.attempts, 1);
        assert_eq!(s.template.exemplar.attempts, 1);
        assert!(s.failover.exemplar.attempts >= 2, "failover needs a retry");
        assert!(s.failover.exemplar.failover_hops >= 1);
    }

    #[test]
    fn scenarios_are_deterministic() {
        let a = scenarios(true).unwrap();
        let b = scenarios(true).unwrap();
        assert_eq!(a.cold.exemplar.request, b.cold.exemplar.request);
        assert_eq!(a.template.exemplar.phases, b.template.exemplar.phases);
        assert_eq!(
            a.failover.exemplar.failover_hops,
            b.failover.exemplar.failover_hops
        );
        assert_eq!(a.failover.log.spans.len(), b.failover.log.spans.len());
    }
}
