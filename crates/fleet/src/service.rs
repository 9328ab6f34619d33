//! The fleet control plane: serving launch traffic over virtual time.
//!
//! [`FleetService`] is the single-host driver of the shared serving core:
//! one request [`Front`], one [`Host`], and "place on host 0", on top of
//! [`DesEngine::run_dynamic`]. Arrivals are zero-segment marker jobs whose
//! completion hands control to the service at the arrival instant; the
//! front end screens each request (deadline) and the host serves it
//! — warm pool first (if serving that tier), then admission control — and
//! injects the chosen launch blueprint as a follow-up job on the PSP/CPU
//! resources. Everything is seeded and runs on the virtual clock, so a
//! `(catalog, config, fault plan)` triple fully determines the outcome.
//!
//! The three serving tiers mirror the paper's options:
//!
//! * [`ServingTier::Cold`] — every request pays the full launch; throughput
//!   caps at `1 / psp_busy` because the PSP serializes (Fig. 12).
//! * [`ServingTier::Template`] — first request of a class fills the §6.2
//!   shared-key template (cold-priced), the rest are cheap hits.
//! * [`ServingTier::WarmPool`] — requests take §7.1 keep-alive guests from
//!   the pool (no launch at all); the pool refills in the background via
//!   template launches, and misses fall through to the template path.
//!
//! # Fault injection and recovery
//!
//! With a [`FaultPlan`] configured, the substrate misbehaves: PSP firmware
//! resets poison every in-flight PSP-using launch and destroy the template
//! cache (each class must re-measure — the §6.2 trust caveat exercised
//! under failure), launch commands fail transiently partway through their
//! work, warm guests crash out of the pool, and attestation round trips
//! hang or error. The [`RecoveryConfig`] decides what happens next: the
//! naive fleet ([`RecoveryConfig::none`]) turns every fault into a
//! permanently failed request, while the resilient fleet retries with
//! backoff, sheds on deadline, degrades tripped classes down the tier
//! ladder (warm → template → cold → shed), and quiesces PSP-needing
//! dispatches across reset outages. Fault verdicts are drawn statelessly
//! from the plan, so a fault-free run consumes exactly the same random
//! stream as a run of the pre-fault control plane.
//!
//! Nothing behavioural stays fleet-shaped: a 1-host `sevf-cluster` run
//! replays this driver exactly (`tests/serving_core.rs`, all 30 cells),
//! the retry deferral across a known PSP outage included — that is
//! [`Front::handle_failure`]'s rule over whatever hosts the driver could
//! route to, here the one. What differs is the config's shape: a ready
//! [`FaultPlan`] where the cluster derives one per host from a
//! `FaultConfig` and a horizon, and no attestation or policy layer (only
//! the cluster's config carries them).

use sevf_obs::{MarkerKind, Outcome as ReqOutcome, Recorder, TraceLog};
use sevf_policy::IsolationTier;
use sevf_sim::fault::FaultPlan;
use sevf_sim::{DesEngine, Job, JobOutcome, Nanos, RunTrace};
use sevf_vmm::machine::HOST_CORES;

use crate::admission::AdmissionConfig;
use crate::blueprint::Catalog;
use crate::front::{Front, ServeJob, Serving};
use crate::host::Host;
use crate::metrics::FleetMetrics;
use crate::recovery::RecoveryConfig;
use crate::workload::{Arrival, RequestMix};
use crate::FleetError;

/// Which reuse tier the fleet serves requests from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingTier {
    /// Full launch per request.
    Cold,
    /// Content-addressed shared-key template launches (§6.2).
    Template,
    /// Pre-warmed keep-alive guests, template-backed refills (§7.1).
    WarmPool,
}

impl ServingTier {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ServingTier::Cold => "cold",
            ServingTier::Template => "template",
            ServingTier::WarmPool => "warm-pool",
        }
    }

    /// Position on the degradation ladder (0 = most cached).
    fn ladder_pos(self) -> usize {
        match self {
            ServingTier::WarmPool => 0,
            ServingTier::Template => 1,
            ServingTier::Cold => 2,
        }
    }

    /// The tier `level` breaker trips below `self`, or `None` once the
    /// ladder (warm → template → cold) is exhausted and the class sheds.
    pub fn degraded(self, level: usize) -> Option<ServingTier> {
        match self.ladder_pos() + level {
            0 => Some(ServingTier::WarmPool),
            1 => Some(ServingTier::Template),
            2 => Some(ServingTier::Cold),
            _ => None,
        }
    }
}

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Serving tier.
    pub tier: ServingTier,
    /// Arrival process.
    pub arrival: Arrival,
    /// Request mix over catalog classes; `None` = uniform over the catalog.
    pub mix: Option<RequestMix>,
    /// Total requests to serve.
    pub requests: usize,
    /// Seed for arrivals and class sampling.
    pub seed: u64,
    /// Admission-controller knobs.
    pub admission: AdmissionConfig,
    /// Warm-pool target size per class (warm-pool tier only).
    pub warm_target: usize,
    /// Injected faults; `None` = the fault-free control plane.
    pub fault: Option<FaultPlan>,
    /// How the fleet reacts to failures.
    pub recovery: RecoveryConfig,
}

impl FleetConfig {
    /// An open-loop run at `rate_per_sec` offered load.
    pub fn open_loop(tier: ServingTier, rate_per_sec: f64, requests: usize) -> Self {
        FleetConfig {
            tier,
            arrival: Arrival::Open { rate_per_sec },
            mix: None,
            requests,
            seed: 0x5EF0,
            admission: AdmissionConfig::default(),
            warm_target: 8,
            fault: None,
            recovery: RecoveryConfig::none(),
        }
    }

    /// A closed-loop run with `users` clients and `think` think time.
    pub fn closed_loop(tier: ServingTier, users: usize, think: Nanos, requests: usize) -> Self {
        FleetConfig {
            arrival: Arrival::Closed { users, think },
            ..Self::open_loop(tier, 0.0, requests)
        }
    }

    /// Checks the mix bound, arrival shape, admission and recovery knobs
    /// against a catalog of `catalog_classes` classes.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self, catalog_classes: usize) -> Result<(), FleetError> {
        if let Some(mix) = &self.mix {
            if mix.max_class() >= catalog_classes {
                return Err(FleetError::Config(
                    "mix references a class outside the catalog",
                ));
            }
        }
        self.arrival.validate().map_err(FleetError::Config)?;
        self.admission.validate().map_err(FleetError::Config)?;
        self.recovery.validate().map_err(FleetError::Recovery)
    }

    /// The knobs the shared serving core reads.
    fn serving(&self) -> Serving<'_> {
        Serving {
            tier: self.tier,
            arrival: self.arrival,
            mix: self.mix.as_ref(),
            requests: self.requests,
            seed: self.seed,
            admission: self.admission,
            recovery: &self.recovery,
            attestation: None,
            policy: None,
        }
    }
}

/// Outcome of one serving run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Tier that served.
    pub tier: ServingTier,
    /// Offered load (open loops only).
    pub offered_rps: Option<f64>,
    /// Collected metrics.
    pub metrics: FleetMetrics,
    /// Memory rent the warm pool held at the end of the run (§7.1).
    pub pool_resident_bytes: u64,
    /// The engine's record of the run: busy totals and makespan always, the
    /// per-segment occupancy entries only from [`FleetService::run_traced`].
    pub trace: RunTrace,
}

/// The control plane: routes a request stream onto the host's resources.
#[derive(Debug)]
pub struct FleetService {
    catalog: Catalog,
    config: FleetConfig,
}

/// The shared serving core, single-host: a request front end and one host.
struct State<'a> {
    front: Front<'a, ServeJob>,
    host: Host,
}

impl FleetService {
    /// Builds a service over a measured catalog.
    ///
    /// # Panics
    ///
    /// Panics with the [`FleetError`]'s text if the config fails
    /// [`FleetConfig::validate`] against the catalog.
    pub fn new(catalog: Catalog, config: FleetConfig) -> Self {
        if let Err(e) = config.validate(catalog.len()) {
            panic!("{e}");
        }
        FleetService { catalog, config }
    }

    /// Serves the configured request stream to completion.
    pub fn run(self) -> FleetReport {
        self.run_with(Recorder::disabled()).0
    }

    /// Serves the stream with span recording on, returning the report and
    /// the assembled [`TraceLog`]. The report is identical to [`run`]'s
    /// (the recorder only observes).
    ///
    /// [`run`]: FleetService::run
    pub fn run_traced(self) -> (FleetReport, TraceLog) {
        self.run_with(Recorder::enabled())
    }

    fn run_with(mut self, rec: Recorder) -> (FleetReport, TraceLog) {
        let mut engine = DesEngine::new();
        let resources = (
            engine.add_resource("psp", 1),
            engine.add_resource("host-cpus", HOST_CORES),
        );
        let plan = self.config.fault.take();
        let config = &self.config;
        let mut front = Front::new(&self.catalog, config.serving(), IsolationTier::Sev, 1, rec);
        let host = Host::new(0, resources, &front, config.warm_target, false, plan);

        let mut seed_jobs = Vec::new();
        front.seed_arrivals(&mut seed_jobs, None);
        host.seed_faults(&mut front, &mut seed_jobs);

        let mut state = State { front, host };
        let (outcomes, trace) = engine.run_dynamic(seed_jobs, state.front.rec.on(), |o, inject| {
            state.on_event(o, inject);
        });
        let State {
            mut front,
            mut host,
        } = state;
        let log = std::mem::take(&mut front.rec).build(&engine, &outcomes, &trace);
        drop(outcomes);

        host.finish_metrics(&trace);
        let metrics = FleetMetrics {
            timeouts: front.timeouts,
            failed: front.failed,
            rejected: front.rejected,
            breaker_sheds: front.breaker_sheds,
            retries: front.retries,
            ..std::mem::take(&mut host.metrics)
        };
        let report = FleetReport {
            tier: config.tier,
            offered_rps: config.arrival.offered_rps(),
            metrics,
            pool_resident_bytes: host.pool.resident_bytes(),
            trace,
        };
        (report, log)
    }
}

impl State<'_> {
    fn on_event(&mut self, outcome: &JobOutcome, inject: &mut Vec<Job>) {
        let now = outcome.finish;
        match self.front.meta[outcome.job] {
            ServeJob::Arrival { request } => {
                self.front.on_arrival(request, now);
                self.route(request, now, inject);
            }
            ServeJob::Retry { request } => self.route(request, now, inject),
            ServeJob::Launch(launch) => {
                let settled = self.host.settle(&mut self.front, outcome.job, now, launch);
                if settled.fault.is_some() {
                    self.front
                        .handle_failure(settled.request, now, inject, [&self.host]);
                    self.drain(now, inject);
                } else {
                    let latency = self
                        .front
                        .finish(settled.request, ReqOutcome::Completed, now);
                    self.host.metrics.record_latency(latency);
                    self.drain(now, inject);
                    self.front.issue_next_closed(now, inject);
                }
            }
            ServeJob::Replenish { class, .. } => {
                self.host
                    .refill_done(&mut self.front, outcome.job, now, class);
            }
            ServeJob::ResetStart { .. } => self.host.reset_start(&mut self.front, now),
            ServeJob::ResetEnd { .. } => {
                // The PSP is back (re-initialized): release quiesced work.
                self.front
                    .rec
                    .marker(MarkerKind::OutageEnd, None, None, now);
                self.drain(now, inject);
            }
            ServeJob::WarmCrash { idx, .. } => {
                self.host.warm_crash(&mut self.front, idx, now, inject);
            }
        }
    }

    /// Routes a request (fresh arrival or retry): the front end's screen,
    /// then the one host.
    fn route(&mut self, request: usize, now: Nanos, inject: &mut Vec<Job>) {
        if self.front.screen(request, now, inject) {
            self.host.assign(&mut self.front, request, now, inject);
        }
    }

    /// Fills the host's freed dispatch slots from its queue.
    fn drain(&mut self, now: Nanos, inject: &mut Vec<Job>) {
        let stray = self.host.drain_queue(&mut self.front, now, inject);
        debug_assert!(stray.is_none(), "posture placement is off on one host");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blueprint::ClassSpec;
    use sevf_sim::fault::FaultConfig;

    fn quick_catalog() -> Catalog {
        Catalog::build(17, &ClassSpec::quick_test_classes()).unwrap()
    }

    fn run(config: FleetConfig) -> FleetReport {
        FleetService::new(quick_catalog(), config).run()
    }

    /// issued == completed + shed + breaker sheds + timeouts + failed.
    fn assert_conserved(report: &FleetReport, issued: usize) {
        let m = &report.metrics;
        assert_eq!(
            m.completed + m.lost() as usize,
            issued,
            "completed {} shed {} breaker {} timeouts {} failed {}",
            m.completed,
            m.shed,
            m.breaker_sheds,
            m.timeouts,
            m.failed
        );
    }

    fn storm_plan(seed: u64) -> FaultPlan {
        FaultPlan::generate(seed, FaultConfig::storm(), Nanos::from_secs(10)).unwrap()
    }

    #[test]
    fn open_loop_conserves_requests() {
        let report = run(FleetConfig::open_loop(ServingTier::Cold, 30.0, 60));
        let m = &report.metrics;
        assert_eq!(m.completed + m.shed as usize, 60);
        assert_eq!(m.latencies.len(), m.completed);
    }

    #[test]
    fn closed_loop_conserves_requests() {
        let config = FleetConfig::closed_loop(ServingTier::Template, 4, Nanos::from_millis(5), 40);
        let report = run(config);
        let m = &report.metrics;
        assert_eq!(m.completed + m.shed as usize, 40);
        assert_eq!(report.offered_rps, None);
    }

    #[test]
    fn runs_are_deterministic_under_a_seed() {
        let a = run(FleetConfig::open_loop(ServingTier::Template, 80.0, 80));
        let b = run(FleetConfig::open_loop(ServingTier::Template, 80.0, 80));
        assert_eq!(a.metrics.latencies, b.metrics.latencies);
        assert_eq!(a.metrics.shed, b.metrics.shed);
        assert_eq!(a.metrics.makespan, b.metrics.makespan);
    }

    #[test]
    fn template_tier_fills_once_per_class_then_hits() {
        let report = run(FleetConfig::open_loop(ServingTier::Template, 40.0, 50));
        let m = &report.metrics;
        // Two classes → at most two fills; everything else hits.
        assert!(m.cache_misses <= 2, "misses {}", m.cache_misses);
        assert!(m.cache_hits >= 48 - m.shed, "hits {}", m.cache_hits);
    }

    #[test]
    fn warm_tier_serves_hits_and_refills() {
        let mut config = FleetConfig::open_loop(ServingTier::WarmPool, 40.0, 50);
        config.warm_target = 4;
        let report = run(config);
        let m = &report.metrics;
        assert!(m.warm_hits > 0);
        assert_eq!(m.completed + m.shed as usize, 50);
        assert!(report.pool_resident_bytes > 0);
    }

    #[test]
    fn overload_sheds_once_queue_bound_hits() {
        let mut config = FleetConfig::open_loop(ServingTier::Cold, 2000.0, 120);
        config.admission.queue_bound = 8;
        config.admission.max_inflight = 4;
        let report = run(config);
        let m = &report.metrics;
        assert!(m.shed > 0, "expected shedding under overload");
        assert_eq!(m.completed + m.shed as usize, 120);
        assert_eq!(m.max_queue_depth, 8);
    }

    #[test]
    fn zero_inflight_is_rejected_and_bound_zero_is_dispatch_or_shed() {
        // No dispatch slot: whatever queued could never drain.
        let mut config = FleetConfig::open_loop(ServingTier::Template, 100.0, 50);
        config.admission.max_inflight = 0;
        config.admission.queue_bound = 8;
        let err = config
            .validate(usize::MAX)
            .expect_err("nothing could dispatch");
        assert!(matches!(
            err,
            crate::FleetError::Config("max_inflight must be at least 1")
        ));

        // No queue is legal: a request dispatches or is shed on arrival.
        let mut config = FleetConfig::open_loop(ServingTier::Cold, 2000.0, 120);
        config.admission.queue_bound = 0;
        config.admission.max_inflight = 4;
        let m = run(config).metrics;
        assert!(m.completed > 0 && m.shed > 0);
        assert_eq!(m.completed + m.shed as usize, 120);
        assert_eq!(m.max_queue_depth, 0);
    }

    #[test]
    fn warm_pool_bypasses_the_psp_for_hits() {
        // Pool big enough that every request is a warm hit: PSP only sees
        // the background refills (template hits), so utilization stays low
        // and every latency is the invoke cost.
        let mut config = FleetConfig::open_loop(ServingTier::WarmPool, 10.0, 30);
        config.warm_target = 32;
        let report = run(config);
        let m = &report.metrics;
        assert_eq!(m.warm_misses, 0);
        let invoke_ms = 1.0; // warm invokes are sub-millisecond
        assert!(m.p99_ms() < invoke_ms, "p99 {}", m.p99_ms());
    }

    // ---- fault injection and recovery ----------------------------------

    #[test]
    fn empty_fault_plan_is_byte_identical_to_no_plan() {
        // The fault machinery must not perturb the fault-free stream: an
        // empty plan (markers absent, rates zero) reproduces PR-1 exactly.
        let base = run(FleetConfig::open_loop(ServingTier::Template, 60.0, 60));
        let mut config = FleetConfig::open_loop(ServingTier::Template, 60.0, 60);
        config.fault =
            Some(FaultPlan::generate(9, FaultConfig::none(), Nanos::from_secs(30)).unwrap());
        config.recovery = RecoveryConfig::resilient(9);
        let with_plan = run(config);
        assert_eq!(base.metrics.latencies, with_plan.metrics.latencies);
        assert_eq!(base.metrics.makespan, with_plan.metrics.makespan);
        assert_eq!(base.metrics.shed, with_plan.metrics.shed);
        assert_eq!(with_plan.metrics.faults.total(), 0);
    }

    #[test]
    fn chaos_runs_conserve_and_are_deterministic() {
        for recovery in [RecoveryConfig::none(), RecoveryConfig::resilient(5)] {
            let mut config = FleetConfig::open_loop(ServingTier::Template, 60.0, 120);
            config.fault = Some(storm_plan(5));
            config.recovery = recovery;
            let a = run(config.clone());
            let b = run(config);
            assert_conserved(&a, 120);
            assert_eq!(a.metrics.latencies, b.metrics.latencies);
            assert_eq!(a.metrics.failed, b.metrics.failed);
            assert_eq!(a.metrics.timeouts, b.metrics.timeouts);
            assert_eq!(a.metrics.faults, b.metrics.faults);
            assert_eq!(a.metrics.retries, b.metrics.retries);
        }
    }

    #[test]
    fn resilient_fleet_completes_more_than_naive_under_storm() {
        let mut naive = FleetConfig::open_loop(ServingTier::Template, 60.0, 120);
        naive.fault = Some(storm_plan(5));
        naive.recovery = RecoveryConfig::none();
        let naive_report = run(naive);

        let mut resilient = FleetConfig::open_loop(ServingTier::Template, 60.0, 120);
        resilient.fault = Some(storm_plan(5));
        resilient.recovery = RecoveryConfig::resilient(5);
        let resilient_report = run(resilient);

        assert!(
            naive_report.metrics.failed > 0,
            "the storm must actually hurt the naive fleet"
        );
        assert!(
            resilient_report.metrics.completed > naive_report.metrics.completed,
            "resilient {} vs naive {}",
            resilient_report.metrics.completed,
            naive_report.metrics.completed
        );
        assert!(resilient_report.metrics.retries > 0);
    }

    #[test]
    fn reset_forces_template_refills() {
        // Resets only — each one kills the template cache, so the fill
        // count exceeds the class count (re-measurement under failure).
        let mut cfg = FaultConfig::none();
        cfg.psp_reset_period = Some(Nanos::from_millis(300));
        cfg.psp_reset_outage = Nanos::from_millis(50);
        let plan = FaultPlan::generate(11, cfg, Nanos::from_secs(3)).unwrap();
        let resets = plan.resets().len();
        assert!(resets >= 2, "plan too tame: {resets} resets");

        let mut config = FleetConfig::open_loop(ServingTier::Template, 100.0, 200);
        config.fault = Some(plan);
        config.recovery = RecoveryConfig::resilient(11);
        let report = run(config);
        assert!(
            report.metrics.cache_misses > 2,
            "expected re-fills after resets, saw {} misses",
            report.metrics.cache_misses
        );
        assert!(report.metrics.faults.psp_reset > 0);
        assert!(report.metrics.time_degraded > Nanos::ZERO);
        assert_conserved(&report, 200);
    }

    #[test]
    fn deadlines_turn_unserved_requests_into_timeouts() {
        let mut config = FleetConfig::open_loop(ServingTier::Template, 60.0, 80);
        config.fault = Some(storm_plan(7));
        let mut recovery = RecoveryConfig::resilient(7);
        recovery.deadline = Some(Nanos::from_millis(400));
        config.recovery = recovery;
        let report = run(config);
        assert!(report.metrics.timeouts > 0, "tight deadline must fire");
        assert_conserved(&report, 80);
    }

    #[test]
    fn breaker_degrades_warm_tier_under_persistent_faults() {
        let mut cfg = FaultConfig::none();
        cfg.psp_transient_rate = 0.9; // template refills keep dying
        let plan = FaultPlan::generate(13, cfg, Nanos::from_secs(30)).unwrap();
        let mut config = FleetConfig::open_loop(ServingTier::WarmPool, 80.0, 150);
        config.warm_target = 1; // drain the pool fast → launches → failures
        config.fault = Some(plan);
        config.recovery = RecoveryConfig::resilient(13);
        let report = run(config);
        assert!(
            report.metrics.breaker_trips > 0,
            "persistent transients must trip the breaker"
        );
        assert!(
            report.metrics.degraded_dispatches > 0,
            "tripped classes must serve degraded"
        );
        assert_conserved(&report, 150);
    }

    #[test]
    fn warm_crashes_deplete_the_pool_and_count() {
        let mut cfg = FaultConfig::none();
        cfg.warm_crash_period = Some(Nanos::from_millis(20));
        let plan = FaultPlan::generate(19, cfg, Nanos::from_secs(3)).unwrap();
        assert!(!plan.warm_crashes().is_empty());
        let mut config = FleetConfig::open_loop(ServingTier::WarmPool, 40.0, 60);
        config.warm_target = 8;
        config.fault = Some(plan);
        config.recovery = RecoveryConfig::resilient(19);
        let report = run(config);
        assert!(report.metrics.faults.warm_crash > 0);
        assert_conserved(&report, 60);
    }

    #[test]
    fn degradation_ladder_bottoms_out_at_shed() {
        assert_eq!(
            ServingTier::WarmPool.degraded(0),
            Some(ServingTier::WarmPool)
        );
        assert_eq!(
            ServingTier::WarmPool.degraded(1),
            Some(ServingTier::Template)
        );
        assert_eq!(ServingTier::WarmPool.degraded(2), Some(ServingTier::Cold));
        assert_eq!(ServingTier::WarmPool.degraded(3), None);
        assert_eq!(ServingTier::Cold.degraded(0), Some(ServingTier::Cold));
        assert_eq!(ServingTier::Cold.degraded(1), None);
    }
}
