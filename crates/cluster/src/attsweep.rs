//! The attestation-plane experiment: verification modes under load, a
//! re-attestation storm, and a key-compromise revocation drill.
//!
//! One catalog, three arms:
//!
//! * **load** — the same cluster and stream under naive per-launch
//!   verification, cached verification, and cached + batched
//!   verification (plus a no-attestation baseline). The verifier is a
//!   single shared service: naive verification pays the full KDS fetch +
//!   context setup + signature check per dispatch, so its ceiling sits
//!   far below the cluster's serving capacity — past it, the verifier
//!   queue stretches every launch and p99 collapses (or the deadline
//!   sheds the stream). Caching removes the fetch from the steady state;
//!   batching amortizes the setup across concurrent launches.
//! * **storm** — a staggered TCB/firmware rollout re-measures every
//!   host mid-stream: cached certs stop matching (the key includes the
//!   TCB version) and template caches re-measure, so every arm re-pays
//!   its miss path at once. Batching absorbs the wave best.
//! * **drill** — one host's chip key is distrusted mid-stream. Its
//!   templates die with the key (§6.2), its in-flight and queued guests
//!   fail over, re-launch, and re-attest on the surviving hosts, and the
//!   conservation invariant must hold throughout.
//!
//! Identical configs produce byte-identical reports (the CI replay gate
//! diffs two `--quick --json` runs of `examples/attestation_storm.rs`).

use sevf_attplane::{AttPlaneConfig, VerifyMode};
use sevf_fleet::admission::AdmissionConfig;
use sevf_fleet::blueprint::{Catalog, ClassSpec, MB};
use sevf_fleet::recovery::RecoveryConfig;
use sevf_fleet::service::ServingTier;
use sevf_fleet::workload::RequestMix;
use sevf_sim::Nanos;

use crate::experiment::SweepCell;
use crate::placement::PlacementPolicy;
use crate::service::{ClusterConfig, ClusterService, RevocationDrill, TcbRollout};
use crate::ClusterError;

/// Seed for catalog machines, arrivals and placement. Chip identities
/// come from [`AttPlaneConfig::SEED`].
pub const SEED: u64 = 0x5EF0;

/// Knobs of one attestation sweep.
#[derive(Debug, Clone)]
pub struct AttSweepConfig {
    /// Request classes to serve (shared catalog for all hosts).
    pub classes: Vec<ClassSpec>,
    /// Mix over those classes; `None` = uniform.
    pub mix: Option<RequestMix>,
    /// Hosts in every arm.
    pub hosts: usize,
    /// Aggregate offered loads of the load arm.
    pub loads_rps: Vec<f64>,
    /// Requests per load-arm cell.
    pub requests: usize,
    /// Per-host admission knobs.
    pub admission: AdmissionConfig,
    /// Aggregate offered load of the storm and drill arms.
    pub storm_rps: f64,
    /// Requests of the storm and drill arms.
    pub storm_requests: usize,
    /// The storm's staggered rollout schedule.
    pub rollout: TcbRollout,
    /// The drill's revocation event.
    pub drill: RevocationDrill,
}

impl AttSweepConfig {
    /// The headline attestation sweep over the paper mix.
    pub fn paper_attestation() -> Self {
        AttSweepConfig {
            classes: ClassSpec::paper_classes(16, 256 * MB),
            mix: Some(RequestMix::paper_mix()),
            hosts: 4,
            // The naive verifier's ceiling is 1 / (fetch + setup + check)
            // = 80 verifications/s: the middle load saturates it and the
            // top one buries it, while cached (~400/s) and batched
            // (~2000/s steady-state) still track the offered rate.
            loads_rps: vec![40.0, 80.0, 160.0],
            requests: 400,
            admission: AdmissionConfig::default(),
            storm_rps: 120.0,
            storm_requests: 360,
            rollout: TcbRollout {
                start: Nanos::from_millis(1000),
                stagger: Nanos::from_millis(200),
            },
            drill: RevocationDrill {
                host: 1,
                at: Nanos::from_millis(1000),
            },
        }
    }

    /// A fast sweep over the tiny test classes (tests, `--quick`).
    pub fn quick() -> Self {
        AttSweepConfig {
            classes: ClassSpec::quick_test_classes(),
            mix: Some(RequestMix::quick_test_mix()),
            hosts: 3,
            loads_rps: vec![40.0, 160.0],
            requests: 240,
            admission: AdmissionConfig::quick_test(),
            storm_rps: 100.0,
            storm_requests: 240,
            rollout: TcbRollout {
                start: Nanos::from_millis(600),
                stagger: Nanos::from_millis(150),
            },
            drill: RevocationDrill {
                host: 1,
                at: Nanos::from_millis(600),
            },
        }
    }
}

fn mode_name(mode: Option<VerifyMode>) -> &'static str {
    match mode {
        None => "none",
        Some(m) => m.name(),
    }
}

/// Every arm recovers with retries: the drill needs them to fail guests
/// over.
fn base_config(cfg: &AttSweepConfig, rps: f64, requests: usize) -> ClusterConfig {
    ClusterConfig {
        mix: cfg.mix.clone(),
        seed: SEED,
        admission: cfg.admission,
        placement: PlacementPolicy::JsqPsp,
        recovery: RecoveryConfig::resilient(SEED),
        ..ClusterConfig::open_loop(cfg.hosts, ServingTier::Template, rps, requests)
    }
}

/// Runs the three-arm attestation sweep over one catalog: one cell per run
/// (load, then storm, then drill), labelled by verification mode ("none"
/// for the baseline).
///
/// # Errors
///
/// Propagates catalog-construction failures ([`ClusterError::Fleet`]) and
/// configuration errors from the cluster builder.
pub fn att_sweep(cfg: &AttSweepConfig) -> Result<Vec<SweepCell>, ClusterError> {
    let catalog = Catalog::build(SEED, &cfg.classes)?;
    let mut cells = Vec::new();

    // Arm 1: verification modes across load (plus the no-verifier
    // baseline, which shows what the plane itself costs).
    let modes = [
        None,
        Some(VerifyMode::Naive),
        Some(VerifyMode::Cached),
        Some(VerifyMode::CachedBatched),
    ];
    for &load in &cfg.loads_rps {
        for mode in modes {
            let mut config = base_config(cfg, load, cfg.requests);
            config.attestation = mode.map(AttPlaneConfig::verifier);
            let report = ClusterService::new(catalog.clone(), config)?.run();
            cells.push(SweepCell::new("load", mode_name(mode), report));
        }
    }

    // Arm 2: the re-attestation storm under each verification mode.
    for mode in [
        VerifyMode::Naive,
        VerifyMode::Cached,
        VerifyMode::CachedBatched,
    ] {
        let mut config = base_config(cfg, cfg.storm_rps, cfg.storm_requests);
        config.attestation = Some(AttPlaneConfig::verifier(mode));
        config.tcb_rollout = Some(cfg.rollout);
        let report = ClusterService::new(catalog.clone(), config)?.run();
        cells.push(SweepCell::new("storm", mode.name(), report));
    }

    // Arm 3: the key-compromise drill under the full control plane.
    let mut config = base_config(cfg, cfg.storm_rps, cfg.storm_requests);
    config.attestation = Some(AttPlaneConfig::cached_batched());
    config.revocation = Some(cfg.drill);
    let report = ClusterService::new(catalog, config)?.run();
    let mode = VerifyMode::CachedBatched.name();
    cells.push(SweepCell::new("drill", mode, report));
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_conserves_and_is_deterministic() {
        let cfg = AttSweepConfig::quick();
        let a = att_sweep(&cfg).unwrap();
        let b = att_sweep(&cfg).unwrap();
        assert!(a.iter().all(|c| c.report.metrics.conserved()));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn cached_batched_sustains_load_where_naive_degrades() {
        let cells = att_sweep(&AttSweepConfig::quick()).unwrap();
        let top = AttSweepConfig::quick()
            .loads_rps
            .into_iter()
            .fold(0.0f64, f64::max);
        let at_top = |mode: &str| {
            let found = |c: &&SweepCell| {
                c.arm == "load" && c.label == mode && c.report.offered_rps == Some(top)
            };
            &cells.iter().find(found).unwrap().report
        };
        let (naive, batched) = (at_top("naive"), at_top("cached+batched"));
        let (n, b) = (&naive.metrics, &batched.metrics);
        // Past the naive verifier's ceiling the queue stretches every
        // launch: p99 degrades (or the stream sheds on deadline) while
        // the batched plane still tracks the offered load.
        assert!(
            n.p99_ms() > 2.0 * b.p99_ms() || n.shed + n.timeouts > 0,
            "naive p99 {} vs batched {} (naive lost {})",
            n.p99_ms(),
            b.p99_ms(),
            n.shed + n.timeouts
        );
        assert!(
            b.completed as f64 >= 0.9 * n.completed as f64,
            "batched must not complete less"
        );
        let wait = |r: &crate::service::ClusterReport| r.attestation.unwrap().mean_queue_wait_ms();
        assert!(wait(batched) < wait(naive));
    }

    #[test]
    fn storm_refetches_certs_and_batching_absorbs_the_wave() {
        let cells = att_sweep(&AttSweepConfig::quick()).unwrap();
        let storm = |mode: &str| &SweepCell::find(&cells, "storm", mode).unwrap().report;
        let cached = storm("cached");
        // The rollout bumps every host's TCB, so the cached arm refetches
        // at least once per host beyond its initial warmup.
        let hosts = AttSweepConfig::quick().hosts as u64;
        let fetches = cached.attestation.unwrap().cert_fetches;
        assert!(
            fetches >= 2 * hosts,
            "rollout must force refetches, got {fetches}"
        );
        let batched = storm("cached+batched");
        assert!(batched.attestation.unwrap().batch_joins > 0);
        assert!(batched.metrics.conserved() && cached.metrics.conserved());
    }

    #[test]
    fn revocation_drill_fails_over_and_conserves() {
        let cells = att_sweep(&AttSweepConfig::quick()).unwrap();
        let drill = &cells.iter().find(|c| c.arm == "drill").unwrap().report;
        let m = &drill.metrics;
        assert!(m.conserved(), "conservation must hold through the drill");
        assert!(m.failovers > 0, "the revoked host's guests must fail over");
        assert!(m.completed > 0);
        assert!(
            drill.attestation.unwrap().verifications > 0,
            "survivors must re-attest the re-launched guests"
        );
    }
}
