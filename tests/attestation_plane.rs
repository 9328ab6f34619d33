//! Storm-consistency: the attestation steps `run_traced` records must
//! agree — exactly, label by label — with the counters the attestation
//! plane reports, through a TCB rollout and a key-compromise drill.
//!
//! Mirrors `tests/observability.rs`: every span-side count equals its
//! metrics counter, the structural battery still holds with attestation
//! steps spliced into the launch blueprints, and tracing never changes
//! the report.

use sevf_attplane::{
    AttPlaneConfig, VerifyMode, STEP_BATCH_JOIN, STEP_BATCH_SETUP, STEP_CERT_FETCH, STEP_CERT_HIT,
    STEP_QUEUE_WAIT, STEP_REVOKED, STEP_VERIFY,
};
use sevf_cluster::{ClusterConfig, ClusterService, PlacementPolicy, RevocationDrill, TcbRollout};
use sevf_fleet::blueprint::{Blueprint, Catalog, ClassSpec};
use sevf_fleet::recovery::RecoveryConfig;
use sevf_fleet::service::ServingTier;
use sevf_fleet::workload::RequestMix;
use sevf_obs::{invariants, MarkerKind, Outcome, SpanKind, SpanRec, TraceLog};
use sevf_sim::Nanos;

fn catalog() -> Catalog {
    Catalog::build(17, &ClassSpec::quick_test_classes()).unwrap()
}

fn storm_config(mode: VerifyMode) -> ClusterConfig {
    ClusterConfig {
        mix: Some(RequestMix::quick_test_mix()),
        placement: PlacementPolicy::JsqPsp,
        seed: 0x5EF0,
        recovery: RecoveryConfig::resilient(0x5EF0),
        attestation: Some(AttPlaneConfig::verifier(mode)),
        tcb_rollout: Some(TcbRollout {
            start: Nanos::from_millis(500),
            stagger: Nanos::from_millis(150),
        }),
        ..ClusterConfig::open_loop(3, ServingTier::Template, 120.0, 240)
    }
}

/// Every attestation step label in the trace, counted, against the
/// plane's counter for the same event.
fn assert_steps_match_counters(log: &TraceLog, att: &sevf_attplane::AttPlaneMetrics) {
    let steps = |label: &str| {
        let step = |s: &&SpanRec| s.kind == SpanKind::Step && s.name == label;
        log.spans.iter().filter(step).count() as u64
    };
    assert_eq!(steps(STEP_QUEUE_WAIT), att.queue_waits);
    assert_eq!(steps(STEP_CERT_FETCH), att.cert_fetches);
    assert_eq!(steps(STEP_CERT_HIT), att.cert_hits);
    assert_eq!(steps(STEP_BATCH_SETUP), att.batch_setups);
    assert_eq!(steps(STEP_BATCH_JOIN), att.batch_joins);
    assert_eq!(steps(STEP_VERIFY), att.verifications);
    assert_eq!(steps(STEP_REVOKED), att.revoked_verdicts);
}

#[test]
fn storm_spans_match_plane_counters_exactly() {
    for mode in [
        VerifyMode::Naive,
        VerifyMode::Cached,
        VerifyMode::CachedBatched,
    ] {
        let (report, log) = ClusterService::new(catalog(), storm_config(mode))
            .unwrap()
            .run_traced();
        let m = &report.metrics;
        assert!(m.completed > 0, "{mode:?} completed nothing");
        assert!(m.conserved(), "{mode:?} broke conservation");
        let att = report.attestation.expect("attestation plane was on");
        assert!(att.verifications > 0);
        assert_steps_match_counters(&log, &att);

        // The rollout re-measured every host exactly once, and the plane
        // counted every bump.
        assert_eq!(log.count_marker(MarkerKind::TcbRollout), 3);
        assert_eq!(att.tcb_bumps, 3);
        assert_eq!(log.count_marker(MarkerKind::Revocation), 0);

        // The structural battery still holds with attestation steps
        // spliced into the launch blueprints: spans nest, children tile,
        // and every completed root's leaves sum to its duration.
        invariants::spans_nest(&log).unwrap();
        invariants::children_tile(&log).unwrap();
        invariants::capacity1_serialized(&log, "psp").unwrap();
        for request in log.requests_with_outcome(Outcome::Completed) {
            invariants::single_request_root(&log, request).unwrap();
            let root = log.request_root(request).unwrap();
            assert_eq!(
                invariants::leaf_duration_sum(&log, request),
                root.duration()
            );
        }
    }
}

#[test]
fn revocation_drill_spans_and_counters_agree() {
    let config = ClusterConfig {
        tcb_rollout: None,
        revocation: Some(RevocationDrill {
            host: 1,
            at: Nanos::from_millis(500),
        }),
        ..storm_config(VerifyMode::CachedBatched)
    };
    let (report, log) = ClusterService::new(catalog(), config).unwrap().run_traced();
    let m = &report.metrics;
    assert!(m.conserved(), "conservation broke through the drill");
    assert!(m.failovers > 0, "the revoked host's guests must fail over");
    let att = report.attestation.expect("attestation plane was on");
    assert_eq!(att.revocations, 1);
    assert_eq!(log.count_marker(MarkerKind::Revocation), 1);
    assert_eq!(log.count_marker(MarkerKind::TcbRollout), 0);
    assert_steps_match_counters(&log, &att);
    assert_eq!(log.count_marker(MarkerKind::Failover) as u64, m.failovers);
    invariants::spans_nest(&log).unwrap();
    invariants::children_tile(&log).unwrap();
}

#[test]
fn traced_storm_replays_byte_for_byte() {
    let run = || {
        ClusterService::new(catalog(), storm_config(VerifyMode::CachedBatched))
            .unwrap()
            .run_traced()
    };
    let (a, log_a) = run();
    let (b, log_b) = run();
    assert_eq!(a.metrics.completed, b.metrics.completed);
    assert_eq!(a.metrics.latencies_ms, b.metrics.latencies_ms);
    assert_eq!(a.attestation, b.attestation);
    assert_eq!(log_a.spans.len(), log_b.spans.len());
    assert_eq!(log_a.outcomes.len(), log_b.outcomes.len());
}

#[test]
fn tracing_never_changes_an_attested_report() {
    let plain = ClusterService::new(catalog(), storm_config(VerifyMode::Cached))
        .unwrap()
        .run();
    let (traced, _) = ClusterService::new(catalog(), storm_config(VerifyMode::Cached))
        .unwrap()
        .run_traced();
    assert_eq!(plain.metrics.completed, traced.metrics.completed);
    assert_eq!(plain.metrics.latencies_ms, traced.metrics.latencies_ms);
    assert_eq!(plain.attestation, traced.attestation);
}

/// Dispatch replays the catalog's blueprints in place and hands the
/// verdict's steps over as a tail: every traced attempt records its
/// catalog blueprint's steps, then that launch's verdict steps, in order.
#[test]
fn attested_attempts_record_catalog_steps_then_the_verdict() {
    let catalog = catalog();
    let config = storm_config(VerifyMode::CachedBatched);
    let (report, log) = ClusterService::new(catalog.clone(), config)
        .unwrap()
        .run_traced();
    let replayable: Vec<&Blueprint> = catalog
        .classes()
        .iter()
        .flat_map(|c| [&c.cold, &c.template_hit, &c.warm_invoke])
        .collect();
    let verdict_steps = [
        STEP_QUEUE_WAIT,
        STEP_CERT_FETCH,
        STEP_CERT_HIT,
        STEP_BATCH_SETUP,
        STEP_BATCH_JOIN,
        STEP_VERIFY,
        STEP_REVOKED,
    ];
    let children = log.child_index();
    let mut attempts = 0u64;
    for attempt in log.spans.iter().filter(|s| s.kind == SpanKind::Attempt) {
        let bp = replayable
            .iter()
            .find(|bp| bp.label == attempt.name)
            .expect("a fault-free run replays catalog blueprints only");
        let steps: Vec<&str> = children[attempt.id]
            .iter()
            .map(|&id| &log.spans[id])
            .filter(|s| s.kind == SpanKind::Step)
            .map(|s| s.name.as_str())
            .collect();
        let (head, verdict) = steps.split_at(bp.steps.len());
        let catalog_steps: Vec<&str> = bp.steps.iter().map(|s| s.label.as_ref()).collect();
        assert_eq!(head, catalog_steps, "{}", attempt.name);
        assert!(
            verdict.iter().all(|label| verdict_steps.contains(label)),
            "{}: {verdict:?}",
            attempt.name
        );
        assert!(
            matches!(verdict.last(), Some(&STEP_VERIFY | &STEP_REVOKED)),
            "{}: the verdict closes the attempt, got {verdict:?}",
            attempt.name
        );
        attempts += 1;
    }
    // One verdict per attempt, and the run did verify.
    let att = report.attestation.expect("attestation plane was on");
    assert!(att.verifications > 0);
    assert_eq!(attempts, att.verifications + att.revoked_verdicts);
}
