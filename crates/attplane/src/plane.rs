//! The verifier service: a deterministic single-server queue on the
//! virtual clock.
//!
//! The plane is consulted once per dispatch, in dispatch order (which the
//! DES makes deterministic), and answers with a [`Verification`]: the
//! verdict plus the network-class work steps that ride after the launch's
//! blueprint. Because the steps are pure delays, they splice into the
//! launch's span tree without touching PSP or CPU occupancy — the
//! verifier's queue is modeled here (`free_at`), not as a DES resource,
//! exactly like a remote service whose latency the client observes.

use sevf_attest::GuestOwner;
use sevf_obs::WorkStep;
use sevf_psp::{AmdRootRegistry, AttestationReport, ChipIdentity};
use sevf_sim::{Nanos, PhaseKind, ResourceClass};

use crate::cache::{CacheKey, CacheLookup, CertCache, StaleLookup};
use crate::config::{AttPlaneConfig, FailMode, VerifyMode};
use crate::AttPlaneError;

/// Step label: time spent queued behind other verifications.
pub const STEP_QUEUE_WAIT: &str = "att-queue-wait";
/// Step label: VCEK cert-chain fetch from the KDS (cache miss).
pub const STEP_CERT_FETCH: &str = "att-cert-fetch";
/// Step label: cert chain served from cache (zero-duration marker).
pub const STEP_CERT_HIT: &str = "att-cert-hit";
/// Step label: this report opened a batch window and paid the setup.
pub const STEP_BATCH_SETUP: &str = "att-batch-setup";
/// Step label: this report joined an open batch window (zero-duration).
pub const STEP_BATCH_JOIN: &str = "att-batch-join";
/// Step label: the per-report signature check.
pub const STEP_VERIFY: &str = "att-verify";
/// Step label: verdict refused because the chip key is revoked.
pub const STEP_REVOKED: &str = "att-revoked";
/// Step label: served from a stale cache entry while the verifier was
/// unreachable (fail-open; zero-duration marker).
const STEP_STALE_HIT: &str = "att-stale-hit";
/// Step label: refused because the verifier was unreachable and no
/// usable cached verdict existed (zero-duration marker).
const STEP_UNAVAILABLE: &str = "att-unavailable";

/// The plane's answer for one dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Evidence verified; the launch may serve.
    Ok,
    /// The signing chip's key is distrusted; the launch must not serve.
    Revoked,
    /// The verifier was unreachable and the degradation policy refused to
    /// vouch for the launch (fail-closed, or fail-open past the budget).
    Unavailable,
}

impl Verdict {
    /// Whether the launch may proceed.
    pub fn is_ok(self) -> bool {
        self == Verdict::Ok
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Revoked => "revoked",
            Verdict::Unavailable => "unavailable",
        }
    }
}

/// One verification: verdict, spliceable work steps, and the total
/// latency those steps add to the launch.
#[derive(Debug, Clone)]
pub struct Verification {
    /// Whether the launch may serve.
    pub verdict: Verdict,
    /// Network-class steps (queue wait → cert fetch/hit → batch window →
    /// signature check) that ride after the launch's blueprint.
    pub steps: Vec<WorkStep>,
    /// Sum of the step durations.
    pub added: Nanos,
}

/// Counters the plane keeps; each maps 1:1 to a step label, so trace
/// span counts can be pinned against these exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AttPlaneMetrics {
    /// Completed signature checks (`att-verify` steps).
    pub verifications: u64,
    /// Verifications that waited behind the single verifier server.
    pub queue_waits: u64,
    /// Total virtual time spent queued.
    pub queue_wait_total: Nanos,
    /// KDS cert-chain fetches (cache misses, including TTL expiries).
    pub cert_fetches: u64,
    /// Cert chains served from cache.
    pub cert_hits: u64,
    /// Entries that had expired when probed (subset of `cert_fetches`).
    pub expired: u64,
    /// Batch windows opened (setup paid), batched mode only.
    pub batch_setups: u64,
    /// Reports that shared an open batch window, batched mode only.
    pub batch_joins: u64,
    /// Dispatches refused because the chip key was revoked.
    pub revoked_verdicts: u64,
    /// Chip keys revoked.
    pub revocations: u64,
    /// TCB versions bumped by rollouts.
    pub tcb_bumps: u64,
    /// Launches served from cache while the verifier was unreachable
    /// (`att-stale-hit` steps, fail-open only).
    pub stale_serves: u64,
    /// Launches refused because the verifier was unreachable
    /// (`att-unavailable` steps).
    pub unavailable_refusals: u64,
    /// Full verifications forced on heal for hosts that were served
    /// stale during a blackout.
    pub reverifies: u64,
}

impl AttPlaneMetrics {
    /// Cert-cache hit rate over all cache-consulting verifications.
    pub fn hit_rate(&self) -> f64 {
        let probes = self.cert_hits + self.cert_fetches;
        if probes == 0 {
            0.0
        } else {
            self.cert_hits as f64 / probes as f64
        }
    }

    /// Mean queue wait per verification, in milliseconds.
    pub fn mean_queue_wait_ms(&self) -> f64 {
        let total = self.verifications + self.revoked_verdicts;
        if total == 0 {
            0.0
        } else {
            self.queue_wait_total.as_millis_f64() / total as f64
        }
    }
}

/// The attestation control plane for a set of hosts.
#[derive(Debug)]
pub struct AttPlane {
    config: AttPlaneConfig,
    registry: AmdRootRegistry,
    chips: Vec<[u8; 32]>,
    tcb: Vec<u32>,
    cache: CertCache,
    free_at: Nanos,
    batch_epoch: Option<u64>,
    metrics: AttPlaneMetrics,
    /// Whether the remote verifier is reachable (blackout drills flip it).
    reachable: bool,
    /// Hosts served stale during a blackout, owed a full re-verification
    /// once the verifier heals. `BTreeSet` for deterministic iteration.
    needs_reverify: std::collections::BTreeSet<usize>,
}

impl AttPlane {
    /// A plane for `hosts` hosts, deriving each host's chip identity from
    /// [`AttPlaneConfig::SEED`] (the manufacturing-fuse model) and registering it
    /// with the plane's root-of-trust registry.
    pub fn new(config: AttPlaneConfig, hosts: usize) -> Result<Self, AttPlaneError> {
        let chips = (0..hosts)
            .map(|h| {
                let mut seed = AttPlaneConfig::SEED.to_le_bytes().to_vec();
                seed.extend_from_slice(&(h as u64).to_le_bytes());
                ChipIdentity::from_seed(&seed)
            })
            .collect();
        Self::with_chips(config, chips)
    }

    /// A plane over explicit chip identities (for wiring real PSPs in).
    fn with_chips(config: AttPlaneConfig, chips: Vec<ChipIdentity>) -> Result<Self, AttPlaneError> {
        config.validate()?;
        if chips.is_empty() {
            return Err(AttPlaneError::Config("plane needs at least one host"));
        }
        let mut registry = AmdRootRegistry::new();
        let ids: Vec<[u8; 32]> = chips.iter().map(|c| c.chip_id).collect();
        for chip in chips {
            registry.register(chip);
        }
        let hosts = ids.len();
        Ok(AttPlane {
            cache: CertCache::new(AttPlaneConfig::CACHE_TTL),
            config,
            registry,
            chips: ids,
            tcb: vec![0; hosts],
            free_at: Nanos::ZERO,
            batch_epoch: None,
            metrics: AttPlaneMetrics::default(),
            reachable: true,
            needs_reverify: std::collections::BTreeSet::new(),
        })
    }

    /// How many hosts the plane covers.
    pub fn hosts(&self) -> usize {
        self.chips.len()
    }

    /// The plane's verification mode.
    pub fn mode(&self) -> VerifyMode {
        self.config.mode
    }

    /// A host's chip id.
    pub fn chip_id(&self, host: usize) -> Result<&[u8; 32], AttPlaneError> {
        self.check_host(host)?;
        Ok(&self.chips[host])
    }

    /// A host's current TCB version.
    pub fn tcb_version(&self, host: usize) -> Result<u32, AttPlaneError> {
        self.check_host(host)?;
        Ok(self.tcb[host])
    }

    /// The plane's root-of-trust view.
    pub fn registry(&self) -> &AmdRootRegistry {
        &self.registry
    }

    /// Checks a real attestation report against the plane's registry —
    /// the cryptographic ground truth the latency model stands in for.
    pub fn check_report(&self, report: &AttestationReport) -> bool {
        self.registry.verify(report)
    }

    /// A guest owner holding this plane's current trust view (§2.4): it
    /// will refuse reports from any chip the plane has revoked.
    pub fn owner(&self, secret: Vec<u8>, owner_seed: &[u8]) -> GuestOwner {
        GuestOwner::new(self.registry.clone(), secret, owner_seed)
    }

    /// Counters so far.
    pub fn metrics(&self) -> &AttPlaneMetrics {
        &self.metrics
    }

    /// Flips verifier reachability (partition drills). While unreachable,
    /// [`AttPlane::verify_launch`] answers from the degradation policy
    /// instead of the verifier queue.
    pub fn set_reachable(&mut self, reachable: bool) {
        self.reachable = reachable;
    }

    /// A TCB/firmware rollout re-measures a host: bump its version so
    /// every cached entry minted under the old firmware stops matching.
    /// Returns the new version.
    pub fn bump_tcb(&mut self, host: usize) -> Result<u32, AttPlaneError> {
        self.check_host(host)?;
        self.tcb[host] += 1;
        self.metrics.tcb_bumps += 1;
        Ok(self.tcb[host])
    }

    /// Key-compromise drill: distrust a host's chip at the root and purge
    /// everything cached under it. Reports it signed stop verifying.
    pub fn revoke_host(&mut self, host: usize) -> Result<(), AttPlaneError> {
        self.check_host(host)?;
        let chip = self.chips[host];
        self.registry.revoke(&chip);
        self.cache.revoke(&chip);
        self.metrics.revocations += 1;
        Ok(())
    }

    /// Whether a host's chip key has been revoked.
    pub fn is_revoked(&self, host: usize) -> Result<bool, AttPlaneError> {
        self.check_host(host)?;
        Ok(self.registry.is_revoked(&self.chips[host]))
    }

    /// Verifies one dispatch from `host` at virtual time `now`.
    ///
    /// Deterministic: the result depends only on the plane's state and
    /// the (order, time) of calls, both fixed by the DES. The single
    /// verifier server is modeled by `free_at`: a verification arriving
    /// while the server is busy queues, and the wait surfaces as an
    /// `att-queue-wait` step in the launch's critical path.
    pub fn verify_launch(
        &mut self,
        host: usize,
        now: Nanos,
    ) -> Result<Verification, AttPlaneError> {
        self.check_host(host)?;
        let chip = self.chips[host];
        let key = CacheKey {
            chip_id: chip,
            tcb: self.tcb[host],
        };
        if !self.reachable {
            return Ok(self.verify_degraded(host, &chip, key, now));
        }
        let mut steps = Vec::new();
        let wait = self.free_at.saturating_sub(now);
        if wait > Nanos::ZERO {
            steps.push(self.step(STEP_QUEUE_WAIT, wait));
            self.metrics.queue_waits += 1;
            self.metrics.queue_wait_total += wait;
        }
        let start = now + wait;

        // Revocation wins over everything, including a cached hit, and
        // costs no verifier service time: the refusal is a registry look.
        if self.registry.is_revoked(&chip) {
            self.needs_reverify.remove(&host);
            steps.push(self.step(STEP_REVOKED, Nanos::ZERO));
            self.metrics.revoked_verdicts += 1;
            return Ok(Verification {
                verdict: Verdict::Revoked,
                added: wait,
                steps,
            });
        }
        // A host owed a re-verification (served stale during a blackout)
        // is forced down the full fetch path even if its entry is live.
        let reverify = self.needs_reverify.remove(&host);
        self.metrics.reverifies += u64::from(reverify);
        let lookup = if reverify || self.config.mode == VerifyMode::Naive {
            CacheLookup::Miss
        } else {
            self.cache.probe(key, start)
        };

        let mut service = Nanos::ZERO;
        if lookup == CacheLookup::Hit {
            self.metrics.cert_hits += 1;
            steps.push(self.step(STEP_CERT_HIT, Nanos::ZERO));
        } else {
            if lookup == CacheLookup::Expired {
                self.metrics.expired += 1;
            }
            self.metrics.cert_fetches += 1;
            steps.push(self.step(STEP_CERT_FETCH, AttPlaneConfig::CERT_FETCH));
            service += AttPlaneConfig::CERT_FETCH;
            // Revoked chips returned above, so no distrusted evidence
            // enters the cache here.
            if self.config.mode != VerifyMode::Naive {
                self.cache.insert(key, start);
            }
        }

        if self.config.mode == VerifyMode::CachedBatched {
            let epoch = start.as_nanos() / AttPlaneConfig::BATCH_WINDOW.as_nanos();
            if self.batch_epoch == Some(epoch) {
                self.metrics.batch_joins += 1;
                steps.push(self.step(STEP_BATCH_JOIN, Nanos::ZERO));
            } else {
                self.batch_epoch = Some(epoch);
                self.metrics.batch_setups += 1;
                steps.push(self.step(STEP_BATCH_SETUP, AttPlaneConfig::BATCH_SETUP));
                service += AttPlaneConfig::BATCH_SETUP;
            }
            steps.push(self.step(STEP_VERIFY, AttPlaneConfig::SIG_CHECK));
            service += AttPlaneConfig::SIG_CHECK;
        } else {
            // Unbatched: every report pays its own context setup, folded
            // into the verify step.
            let check = AttPlaneConfig::BATCH_SETUP + AttPlaneConfig::SIG_CHECK;
            steps.push(self.step(STEP_VERIFY, check));
            service += check;
        }
        self.metrics.verifications += 1;
        self.free_at = start + service;
        Ok(Verification {
            verdict: Verdict::Ok,
            added: wait + service,
            steps,
        })
    }

    /// The blackout path: no verifier queue, no service time, verdicts
    /// from the degradation policy alone. Revocation still wins — the
    /// registry is local state, not a verifier round trip.
    fn verify_degraded(
        &mut self,
        host: usize,
        chip: &[u8; 32],
        key: CacheKey,
        now: Nanos,
    ) -> Verification {
        if self.registry.is_revoked(chip) {
            self.metrics.revoked_verdicts += 1;
            return Verification {
                verdict: Verdict::Revoked,
                added: Nanos::ZERO,
                steps: vec![self.step(STEP_REVOKED, Nanos::ZERO)],
            };
        }
        if let FailMode::Open { staleness_budget } = self.config.degrade {
            match self.cache.probe_stale(key, now, staleness_budget) {
                StaleLookup::Fresh | StaleLookup::Stale => {
                    // Served on cached trust: owe a full re-verification
                    // once the verifier heals.
                    self.metrics.stale_serves += 1;
                    self.needs_reverify.insert(host);
                    return Verification {
                        verdict: Verdict::Ok,
                        added: Nanos::ZERO,
                        steps: vec![self.step(STEP_STALE_HIT, Nanos::ZERO)],
                    };
                }
                StaleLookup::Miss => {}
            }
        }
        self.metrics.unavailable_refusals += 1;
        Verification {
            verdict: Verdict::Unavailable,
            added: Nanos::ZERO,
            steps: vec![self.step(STEP_UNAVAILABLE, Nanos::ZERO)],
        }
    }

    fn step(&self, label: &'static str, duration: Nanos) -> WorkStep {
        WorkStep::new(
            ResourceClass::Network,
            PhaseKind::Attestation,
            label,
            duration,
        )
    }

    fn check_host(&self, host: usize) -> Result<(), AttPlaneError> {
        if host >= self.chips.len() {
            return Err(AttPlaneError::UnknownHost {
                host,
                hosts: self.chips.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sevf_sim::rng::XorShift64;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn secs(v: u64) -> Nanos {
        Nanos::from_secs(v)
    }

    #[test]
    fn naive_pays_full_pipeline_every_time() {
        let mut plane = AttPlane::new(AttPlaneConfig::naive(), 2).unwrap();
        for i in 0..4u64 {
            let v = plane.verify_launch(0, ms(100 * i)).unwrap();
            assert!(v.verdict.is_ok());
        }
        let m = plane.metrics();
        assert_eq!(m.cert_fetches, 4);
        assert_eq!(m.cert_hits, 0);
        assert_eq!(m.verifications, 4);
    }

    #[test]
    fn cached_mode_fetches_once_per_chip_and_tcb() {
        let mut plane = AttPlane::new(AttPlaneConfig::cached(), 2).unwrap();
        for i in 0..3u64 {
            plane.verify_launch(0, ms(100 * i)).unwrap();
            plane.verify_launch(1, ms(100 * i + 50)).unwrap();
        }
        let m = plane.metrics();
        assert_eq!(m.cert_fetches, 2, "one fetch per chip");
        assert_eq!(m.cert_hits, 4);
        // A rollout bumps host 0's TCB: its next verification misses.
        plane.bump_tcb(0).unwrap();
        plane.verify_launch(0, ms(1000)).unwrap();
        plane.verify_launch(1, ms(1100)).unwrap();
        let m = plane.metrics();
        assert_eq!(m.cert_fetches, 3);
        assert_eq!(m.cert_hits, 5);
    }

    #[test]
    fn batched_mode_shares_setup_within_a_window() {
        let mut plane = AttPlane::new(AttPlaneConfig::cached_batched(), 1).unwrap();
        // Prime the cache so only batching differs.
        plane.verify_launch(0, Nanos::ZERO).unwrap();
        // Three verifications land in one window: one setup, two joins.
        let base = ms(100);
        for i in 0..3u64 {
            plane
                .verify_launch(0, base + Nanos::from_micros(i))
                .unwrap();
        }
        let m = plane.metrics();
        assert_eq!(m.batch_setups, 2, "prime + window opener");
        assert_eq!(m.batch_joins, 2);
    }

    #[test]
    fn queue_wait_emerges_under_back_to_back_load() {
        let mut plane = AttPlane::new(AttPlaneConfig::naive(), 1).unwrap();
        let first = plane.verify_launch(0, Nanos::ZERO).unwrap();
        assert_eq!(plane.metrics().queue_waits, 0);
        // Arrives while the verifier is still busy with the first.
        let second = plane.verify_launch(0, Nanos::from_micros(1)).unwrap();
        assert_eq!(plane.metrics().queue_waits, 1);
        assert!(second.added > first.added);
        assert_eq!(second.steps[0].label, STEP_QUEUE_WAIT);
    }

    #[test]
    fn revocation_wins_over_cached_hit_and_costs_no_service() {
        for cfg in [
            AttPlaneConfig::naive(),
            AttPlaneConfig::cached(),
            AttPlaneConfig::cached_batched(),
        ] {
            let mode = cfg.mode;
            let mut plane = AttPlane::new(cfg, 2).unwrap();
            plane.verify_launch(0, Nanos::ZERO).unwrap();
            assert!(plane.verify_launch(0, ms(50)).unwrap().verdict.is_ok());
            let hits = u64::from(mode != VerifyMode::Naive);
            assert_eq!(plane.metrics().cert_hits, hits, "{mode:?}");
            plane.revoke_host(0).unwrap();
            assert!(plane.is_revoked(0).unwrap());
            let served = plane.metrics().verifications;
            let v = plane.verify_launch(0, ms(100)).unwrap();
            assert_eq!(v.verdict, Verdict::Revoked, "{mode:?}");
            assert_eq!(v.steps.last().unwrap().label, STEP_REVOKED);
            // The other host still verifies. A rollout after the drill
            // gives the revoked chip a fresh cache key, and it is still
            // refused: distrust is per chip, not per TCB version.
            assert!(plane.verify_launch(1, ms(150)).unwrap().verdict.is_ok());
            plane.bump_tcb(0).unwrap();
            assert_eq!(
                plane.verify_launch(0, ms(200)).unwrap().verdict,
                Verdict::Revoked,
                "{mode:?}"
            );
            let m = plane.metrics();
            assert_eq!(m.revoked_verdicts, 2, "{mode:?}");
            assert_eq!(m.verifications, served + 1, "only host 1 was served");
            // Nothing signed by the revoked chip re-entered the cache, at
            // any TCB version: the plane's early refusal is the only guard.
            let chip = *plane.chip_id(0).unwrap();
            for tcb in 0..=plane.tcb_version(0).unwrap() {
                let key = CacheKey { chip_id: chip, tcb };
                assert_eq!(
                    plane.cache.probe_stale(key, ms(200), secs(3600)),
                    StaleLookup::Miss,
                    "{mode:?}"
                );
            }
        }
    }

    #[test]
    fn hit_rate_is_deterministic_under_a_seeded_stream() {
        // Property: the same seeded (host, inter-arrival) stream drives
        // the plane to identical metrics and identical step sequences.
        let run = |seed: u64| {
            let mut plane = AttPlane::new(AttPlaneConfig::cached_batched(), 4).unwrap();
            let mut rng = XorShift64::new(seed);
            let mut now = Nanos::ZERO;
            let mut labels = Vec::new();
            for _ in 0..200 {
                let host = (rng.next_u64() % 4) as usize;
                now += Nanos::from_micros(rng.next_u64() % 5_000);
                let v = plane.verify_launch(host, now).unwrap();
                labels.extend(v.steps.into_iter().map(|s| s.label));
            }
            (*plane.metrics(), labels)
        };
        let (m1, l1) = run(0xDEAD);
        let (m2, l2) = run(0xDEAD);
        assert_eq!(m1, m2);
        assert_eq!(l1, l2);
        assert!(m1.hit_rate() > 0.5, "hot chips should mostly hit");
        let (m3, _) = run(0xBEEF);
        assert!(m3.verifications > 0);
    }

    #[test]
    fn ttl_expiry_forces_refetch_monotonically() {
        let mut plane = AttPlane::new(AttPlaneConfig::cached(), 1).unwrap();
        plane.verify_launch(0, Nanos::ZERO).unwrap();
        plane.verify_launch(0, secs(40)).unwrap(); // within the 60 s TTL: hit
        plane.verify_launch(0, secs(120)).unwrap(); // lapsed: expired + refetch
        let m = plane.metrics();
        assert_eq!(m.cert_hits, 1);
        assert_eq!(m.cert_fetches, 2);
        assert_eq!(m.expired, 1);
    }

    #[test]
    fn real_reports_verify_until_the_chip_is_revoked() {
        use sevf_mem::GuestMemory;
        use sevf_psp::Psp;
        use sevf_sim::cost::SevGeneration;
        use sevf_sim::CostModel;

        let mut psp = Psp::new(CostModel::calibrated(), 7);
        let plane_chips = vec![psp.chip().clone()];
        let mut plane = AttPlane::with_chips(AttPlaneConfig::cached(), plane_chips).unwrap();

        let start = psp.launch_start(SevGeneration::SevSnp).unwrap();
        let mut mem = GuestMemory::new_sev(1 << 22, start.memory_key, SevGeneration::SevSnp);
        mem.host_write(0x1000, b"boot verifier").unwrap();
        psp.launch_update_data(start.guest, &mut mem, 0x1000, 4096)
            .unwrap();
        psp.launch_update_vmsa(start.guest, 1, &[0u8; 4096])
            .unwrap();
        let finish = psp.launch_finish(start.guest).unwrap();
        let client = sevf_attest::GuestAttestClient::new(b"entropy");
        let (report, _) = psp.guest_report(start.guest, client.report_data()).unwrap();

        // The latency model's ground truth: the plane's registry really
        // verifies the report, and a §2.4 owner built from the plane's
        // trust view provisions the secret.
        assert!(plane.check_report(&report));
        let mut owner = plane.owner(b"secret".to_vec(), b"owner");
        owner.expect_measurement(finish.measurement);
        assert!(owner.handle_report(&report).is_ok());

        // After the drill, the same report is refused everywhere.
        plane.revoke_host(0).unwrap();
        assert!(!plane.check_report(&report));
        let mut owner = plane.owner(b"secret".to_vec(), b"owner");
        owner.expect_measurement(finish.measurement);
        assert!(owner.handle_report(&report).is_err());
        assert_eq!(
            plane.verify_launch(0, Nanos::ZERO).unwrap().verdict,
            Verdict::Revoked
        );
    }

    #[test]
    fn fail_closed_blackout_refuses_everything_and_heals_clean() {
        let mut plane = AttPlane::new(AttPlaneConfig::cached(), 2).unwrap();
        plane.verify_launch(0, Nanos::ZERO).unwrap();
        plane.set_reachable(false);
        // Even the host with a live cache entry is refused: fail-closed
        // means no fresh verdicts, full stop.
        let v = plane.verify_launch(0, ms(10)).unwrap();
        assert_eq!(v.verdict, Verdict::Unavailable);
        assert!(!v.verdict.is_ok());
        assert_eq!(v.steps.last().unwrap().label, STEP_UNAVAILABLE);
        assert_eq!(v.added, Nanos::ZERO, "no verifier service during blackout");
        let before = plane.metrics().verifications;
        plane.set_reachable(true);
        assert!(plane.verify_launch(0, ms(20)).unwrap().verdict.is_ok());
        let m = plane.metrics();
        assert_eq!(m.unavailable_refusals, 1);
        assert_eq!(m.verifications, before + 1);
        assert_eq!(m.reverifies, 0, "fail-closed owes no re-verification");
    }

    #[test]
    fn fail_open_serves_stale_within_budget_and_reverifies_on_heal() {
        let mut cfg = AttPlaneConfig::cached();
        cfg.degrade = FailMode::Open {
            staleness_budget: secs(40),
        };
        let mut plane = AttPlane::new(cfg, 2).unwrap();
        plane.verify_launch(0, Nanos::ZERO).unwrap();
        plane.set_reachable(false);
        // Past the 60 s TTL but inside the budget: served stale.
        let v = plane.verify_launch(0, secs(80)).unwrap();
        assert!(v.verdict.is_ok());
        assert_eq!(v.steps.last().unwrap().label, STEP_STALE_HIT);
        // Host 1 was never verified: nothing to go stale on.
        assert_eq!(
            plane.verify_launch(1, secs(81)).unwrap().verdict,
            Verdict::Unavailable
        );
        // Past ttl + budget even host 0 is refused.
        assert_eq!(
            plane.verify_launch(0, secs(110)).unwrap().verdict,
            Verdict::Unavailable
        );
        // Heal: the stale-served host is forced down the full fetch path
        // even though its entry would still probe fresh after re-insert.
        plane.set_reachable(true);
        let fetches = plane.metrics().cert_fetches;
        assert!(plane.verify_launch(0, secs(120)).unwrap().verdict.is_ok());
        let m = plane.metrics();
        assert_eq!(m.cert_fetches, fetches + 1, "heal forces a refetch");
        assert_eq!(m.reverifies, 1);
        assert_eq!(m.stale_serves, 1);
        assert_eq!(m.unavailable_refusals, 2);
    }

    #[test]
    fn revocation_beats_stale_service_during_a_blackout() {
        let mut cfg = AttPlaneConfig::cached();
        cfg.degrade = FailMode::Open {
            staleness_budget: ms(1000),
        };
        let mut plane = AttPlane::new(cfg, 1).unwrap();
        plane.verify_launch(0, Nanos::ZERO).unwrap();
        plane.set_reachable(false);
        assert!(plane.verify_launch(0, ms(10)).unwrap().verdict.is_ok());
        // The revocation lands mid-blackout: stale trust is void.
        plane.revoke_host(0).unwrap();
        let v = plane.verify_launch(0, ms(20)).unwrap();
        assert_eq!(v.verdict, Verdict::Revoked);
        assert_eq!(v.steps.last().unwrap().label, STEP_REVOKED);
        // And the heal does not resurrect it.
        plane.set_reachable(true);
        assert_eq!(
            plane.verify_launch(0, ms(30)).unwrap().verdict,
            Verdict::Revoked
        );
    }

    #[test]
    fn tcb_rollout_during_blackout_survives_via_same_chip_fallback() {
        let mut cfg = AttPlaneConfig::cached();
        cfg.degrade = FailMode::Open {
            staleness_budget: ms(500),
        };
        let mut plane = AttPlane::new(cfg, 1).unwrap();
        plane.verify_launch(0, Nanos::ZERO).unwrap();
        plane.set_reachable(false);
        // The rollout bumps the key mid-blackout; the chip's old-TCB
        // entry still vouches for it within the allowance.
        plane.bump_tcb(0).unwrap();
        let v = plane.verify_launch(0, ms(10)).unwrap();
        assert!(v.verdict.is_ok());
        assert_eq!(v.steps.last().unwrap().label, STEP_STALE_HIT);
    }

    #[test]
    fn unknown_host_is_an_error() {
        let mut plane = AttPlane::new(AttPlaneConfig::naive(), 1).unwrap();
        assert!(matches!(
            plane.verify_launch(3, Nanos::ZERO),
            Err(AttPlaneError::UnknownHost { host: 3, hosts: 1 })
        ));
    }
}
