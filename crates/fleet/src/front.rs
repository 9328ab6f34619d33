//! The request front end: everything a serving run keeps in front of its
//! hosts.
//!
//! [`Front`] owns the request table (class and tenant tags, arrival
//! instants, attempt counts, terminal flags, dispatch epochs), the policy
//! choke point, terminal accounting, retry/backoff, closed-loop re-issue,
//! the shared attestation plane, the recorder, and the engine-job tag table.
//! Together with [`crate::host::Host`] it is the whole per-host serving
//! machine, written once: [`crate::FleetService`] drives one `Front` and one
//! `Host`; `sevf-cluster` drives one `Front`, a `Vec<Host>`, a router, and
//! its layers. Both are plain state — every transition's effects are the
//! jobs pushed into the engine's reused `inject` buffer (tagged in
//! [`Front::meta`]), the terminal outcomes recorded here, and the values the
//! host functions return (a settled launch, a request to re-route).
//!
//! Determinism hangs on three orders this module keeps: engine job index ==
//! [`Front::meta`] index == injection order ([`Front::push`] is the only
//! writer); one class draw per request on the main stream, tenant draws
//! only on `seed ^ TENANT_SALT`; and one `launch_seq` token per
//! fault-eligible launch per host (in [`crate::host`]).

use sevf_attplane::{AttPlane, AttPlaneConfig};
use sevf_obs::{MarkerKind, Outcome as ReqOutcome, Recorder};
use sevf_policy::{
    HostPosture, IsolationTier, LaneSpec, PolicyConfig, PolicyDecision, PolicyEngine, Scheduler,
    TenantMetrics, TenantRollup,
};
use sevf_sim::fault::FaultKind;
use sevf_sim::rng::XorShift64;
use sevf_sim::{Job, Nanos};

use crate::admission::AdmissionConfig;
use crate::blueprint::Catalog;
use crate::host::Host;
use crate::recovery::RecoveryConfig;
use crate::service::ServingTier;
use crate::workload::{open_arrivals, Arrival, RequestMix};

/// Salt for the dedicated tenant-tagging RNG stream.
const TENANT_SALT: u64 = 0x7E4A_917E_5EF0_11AD;

/// The serving knobs `FleetConfig` and `ClusterConfig` have in common, as a
/// borrowed view of whichever config the driver holds.
#[derive(Debug, Clone, Copy)]
pub struct Serving<'a> {
    /// Serving tier every host runs at.
    pub tier: ServingTier,
    /// Arrival process.
    pub arrival: Arrival,
    /// Request mix over catalog classes; `None` = uniform.
    pub mix: Option<&'a RequestMix>,
    /// Total requests to issue.
    pub requests: usize,
    /// Seed for arrivals, class sampling, tenant tagging, and WFQ ties.
    pub seed: u64,
    /// Per-host admission-controller knobs.
    pub admission: AdmissionConfig,
    /// How requests recover from failures.
    pub recovery: &'a RecoveryConfig,
    /// Attestation control plane, if any.
    pub attestation: Option<AttPlaneConfig>,
    /// Multi-tenant policy layer, if any.
    pub policy: Option<&'a PolicyConfig>,
}

/// Verdict decided for a launch when it was dispatched. Poisoning (a PSP
/// reset, a host outage, a lapsed lease) can still override it at
/// completion — it strikes work already in flight.
#[derive(Debug, Clone, Copy)]
pub enum LaunchFate {
    /// The launch will succeed unless poisoned.
    Ok,
    /// The launch will fail with this fault.
    Fault(FaultKind),
}

/// A launch (or warm invocation) in flight for a request.
#[derive(Debug, Clone, Copy)]
pub struct Launch {
    /// The request being served.
    pub request: usize,
    /// Its class.
    pub class: usize,
    /// The host running it.
    pub host: usize,
    /// The request's dispatch epoch at injection (fences stale outcomes).
    pub epoch: u32,
    /// The verdict dispatch drew.
    pub fate: LaunchFate,
    /// Whether this launch is filling its class's template (the key is
    /// invalidated if it fails).
    pub fill: bool,
}

/// What an engine job index means to the serving core.
#[derive(Debug, Clone, Copy)]
pub enum ServeJob {
    /// Arrival marker for a request (zero segments).
    Arrival {
        /// The arriving request.
        request: usize,
    },
    /// The launch serving a request.
    Launch(Launch),
    /// Backoff marker: when it completes, the request re-enters routing.
    Retry {
        /// The retrying request.
        request: usize,
    },
    /// Background warm-pool refill for `class` on `host`.
    Replenish {
        /// Class being refilled.
        class: usize,
        /// Host the refill runs on.
        host: usize,
    },
    /// `host`'s PSP firmware reset begins (in-flight PSP state dies here).
    ResetStart {
        /// The resetting host.
        host: usize,
    },
    /// `host`'s PSP firmware reset outage ends (quiesced work may drain).
    ResetEnd {
        /// The recovered host.
        host: usize,
    },
    /// A warm guest on `host` crashes; `idx` indexes its crash schedule.
    WarmCrash {
        /// The host losing a guest.
        host: usize,
        /// Index into the plan's crash schedule.
        idx: usize,
    },
}

/// Live policy-layer state: the engine (specs + quota buckets), tenant
/// tags, and per-tenant terminal accounting.
///
/// Tenant tagging draws from its own RNG stream (`seed ^ TENANT_SALT`), so
/// the arrival, class, and placement streams the no-policy path consumes
/// are untouched — FIFO and WFQ arms of a sweep serve the *same* request
/// stream, and disabling policy replays older runs byte-identically.
struct PolicyState<'a> {
    config: &'a PolicyConfig,
    engine: PolicyEngine,
    tenant_rng: XorShift64,
    /// Per-tenant class mixes (`None` = the run-wide mix).
    mixes: Vec<Option<RequestMix>>,
    /// Tenant tag per request id.
    req_tenant: Vec<usize>,
    /// Per-tenant terminal accounting.
    tenants: Vec<TenantMetrics>,
}

/// The request front end and everything the hosts of one run share.
pub struct Front<'a, J> {
    /// The measured catalog (shared by all hosts).
    pub catalog: &'a Catalog,
    /// The serving knobs (tier, admission, recovery, arrival process).
    pub knobs: Serving<'a>,
    /// Whether posture placement is enforced (cluster with a posture
    /// policy; the single-host fleet has nowhere else to place).
    pub posture: bool,
    /// Main RNG stream: arrivals, then one class draw per request.
    pub rng: XorShift64,
    /// Attestation control plane, when configured: every fault-free
    /// dispatch is verified and carries the verifier's latency.
    pub plane: Option<AttPlane>,
    /// Observability recorder. Never touches the RNG, the metrics, or job
    /// injection, so enabling it cannot change a run.
    pub rec: Recorder,
    /// What each engine job index means; index == injection order.
    pub meta: Vec<J>,
    /// Requests shed past the bottom of a class's degradation ladder. This
    /// and the next four are the request-level counts; a host counts what
    /// happens on it into its own `FleetMetrics`.
    pub breaker_sheds: u64,
    /// Requests shed on deadline (at retry scheduling or while queued).
    pub timeouts: u64,
    /// Requests permanently failed after exhausting the retry budget.
    pub failed: u64,
    /// Requests the policy engine turned away (quota, isolation, or no
    /// posture-eligible host).
    pub rejected: u64,
    /// Retry launches scheduled beyond each request's first attempt.
    pub retries: u64,
    /// Posture eligibility checks run (placement plus dispatch re-checks).
    pub posture_checks: u64,
    /// Queued requests re-routed because their host's posture changed.
    pub posture_redirects: u64,
    /// Launches dispatched onto a posture-ineligible host (must stay 0).
    pub posture_violations: u64,
    mix: RequestMix,
    class: Vec<usize>,
    arrived: Vec<Nanos>,
    attempts: Vec<u32>,
    /// Whether each request has reached a terminal state; asserted at
    /// every terminal site and consulted to fence stale net messages.
    done: Vec<bool>,
    /// Dispatch epoch per request: bumped on every routed send so stale
    /// messages from earlier attempts are discarded, not double-counted.
    epoch: Vec<u32>,
    policy: Option<PolicyState<'a>>,
}

impl<'a, J: From<ServeJob>> Front<'a, J> {
    /// Builds the front end for one run. `plane_hosts` sizes the
    /// attestation plane; `isolation` is what the substrate provides.
    ///
    /// # Panics
    ///
    /// Panics if a config the driver was supposed to validate is invalid.
    pub fn new(
        catalog: &'a Catalog,
        knobs: Serving<'a>,
        isolation: IsolationTier,
        plane_hosts: usize,
        rec: Recorder,
    ) -> Self {
        let policy = knobs.policy.map(|config| PolicyState {
            config,
            engine: PolicyEngine::new(config, isolation, catalog.len())
                .expect("policy config validated by the driver"),
            tenant_rng: XorShift64::new(knobs.seed ^ TENANT_SALT),
            mixes: config
                .tenants
                .iter()
                .map(|t| {
                    (!t.class_mix.is_empty()).then(|| RequestMix::weighted(t.class_mix.clone()))
                })
                .collect(),
            req_tenant: Vec::new(),
            tenants: vec![TenantMetrics::default(); config.tenants.len()],
        });
        Front {
            catalog,
            knobs,
            posture: false,
            rng: XorShift64::new(knobs.seed ^ 0x5EF0_F1EE7),
            plane: knobs.attestation.map(|cfg| {
                AttPlane::new(cfg, plane_hosts).expect("attestation config validated by the driver")
            }),
            rec,
            meta: Vec::new(),
            breaker_sheds: 0,
            timeouts: 0,
            failed: 0,
            rejected: 0,
            retries: 0,
            posture_checks: 0,
            posture_redirects: 0,
            posture_violations: 0,
            mix: knobs
                .mix
                .cloned()
                .unwrap_or_else(|| RequestMix::uniform(catalog.len())),
            class: Vec::new(),
            arrived: Vec::new(),
            attempts: Vec::new(),
            done: Vec::new(),
            epoch: Vec::new(),
            policy,
        }
    }

    /// Injects `job` and records what its index means. The only writer of
    /// `inject` and [`Front::meta`], which keeps them in lockstep.
    pub fn push(&mut self, inject: &mut Vec<Job>, job: Job, tag: impl Into<J>) {
        inject.push(job);
        self.meta.push(tag.into());
    }

    /// Injects a zero-segment marker job firing at `at`.
    pub fn mark(&mut self, inject: &mut Vec<Job>, at: Nanos, tag: impl Into<J>) {
        self.push(inject, Job::released_at(at, vec![]), tag);
    }

    /// Seeds the arrival stream: open loops pre-draw every arrival (from
    /// `shaped` instants when a workload curve supplied them, else the
    /// fixed-rate generator), closed loops start one marker per user and
    /// chain the rest on completions. Returns the last seeded instant.
    pub fn seed_arrivals(&mut self, jobs: &mut Vec<Job>, shaped: Option<Vec<Nanos>>) -> Nanos {
        let times = match self.knobs.arrival {
            Arrival::Open { rate_per_sec } => shaped
                .unwrap_or_else(|| open_arrivals(rate_per_sec, self.knobs.requests, &mut self.rng)),
            // Tiny stagger keeps user start order deterministic and
            // distinct.
            Arrival::Closed { users, .. } => (0..users.min(self.knobs.requests))
                .map(|i| Nanos::from_micros(i as u64))
                .collect(),
        };
        let last = times.last().copied().unwrap_or(Nanos::ZERO);
        for at in times {
            let request = self.new_request(at);
            self.mark(jobs, at, ServeJob::Arrival { request });
        }
        last
    }

    /// Allocates a request id, sampling its tenant (policy runs only; from
    /// the dedicated tenant stream) and class (always exactly one draw from
    /// the main stream, so tagging never perturbs the shared streams).
    fn new_request(&mut self, arrival_hint: Nanos) -> usize {
        let request = self.class.len();
        let mix = match self.policy.as_mut() {
            Some(ps) => {
                let tenant = ps.config.sample_tenant(&mut ps.tenant_rng);
                ps.req_tenant.push(tenant);
                ps.tenants[tenant].issued += 1;
                ps.mixes[tenant].as_ref().unwrap_or(&self.mix)
            }
            None => &self.mix,
        };
        self.class.push(mix.sample(&mut self.rng));
        self.arrived.push(arrival_hint);
        self.attempts.push(0);
        self.done.push(false);
        self.epoch.push(0);
        request
    }

    /// An arrival marker fired: stamps the true arrival instant.
    pub fn on_arrival(&mut self, request: usize, now: Nanos) {
        self.arrived[request] = now;
        if self.rec.on() {
            let class = self.class[request];
            self.rec
                .arrival(request, &self.catalog.class(class).name, now);
        }
    }

    /// Requests issued so far.
    pub fn issued(&self) -> usize {
        self.class.len()
    }

    /// `request`'s class.
    pub fn class_of(&self, request: usize) -> usize {
        self.class[request]
    }

    /// Whether `request` has reached a terminal state.
    pub fn is_done(&self, request: usize) -> bool {
        self.done[request]
    }

    /// `request`'s current dispatch epoch.
    pub fn epoch(&self, request: usize) -> u32 {
        self.epoch[request]
    }

    /// Starts a new dispatch epoch for `request` (a routed send).
    pub fn bump_epoch(&mut self, request: usize) -> u32 {
        self.epoch[request] += 1;
        self.epoch[request]
    }

    /// Whether `request` has outlived its deadline at `now`.
    pub(crate) fn past_deadline(&self, request: usize, now: Nanos) -> bool {
        match self.knobs.recovery.deadline {
            Some(d) => now > self.arrived[request] + d,
            None => false,
        }
    }

    /// The policy layer, when the run schedules its host queues by WFQ.
    fn wfq_policy(&self) -> Option<&PolicyState<'a>> {
        self.policy
            .as_ref()
            .filter(|ps| ps.config.scheduler == Scheduler::Wfq)
    }

    /// The lane `request` queues on and whether its tenant is over quota at
    /// `now` (lane 0, in quota, unless the run schedules by WFQ).
    pub(crate) fn wfq_lane(&self, request: usize, now: Nanos) -> (usize, bool) {
        match self.wfq_policy() {
            Some(ps) => {
                let tenant = ps.req_tenant[request];
                (tenant, ps.engine.over_quota(tenant, now))
            }
            None => (0, false),
        }
    }

    /// The lanes of each host's queue: one per tenant when the run
    /// schedules by WFQ, else a single lane — a bounded FIFO.
    pub fn lane_specs(&self) -> Vec<LaneSpec> {
        match self.wfq_policy() {
            Some(ps) => ps.engine.lane_specs(),
            None => vec![LaneSpec {
                weight: 1,
                latency_sensitive: false,
            }],
        }
    }

    /// Marks `request` terminal with its outcome and returns its latency.
    /// Every terminal site lands here exactly once — the conservation
    /// invariant in executable form — and the outcome is attributed to the
    /// request's tenant when a policy is active, so conservation also
    /// holds per tenant. Does not re-issue for closed loops: a completion
    /// re-issues only after its host has drained
    /// ([`Front::issue_next_closed`]); every other outcome goes through
    /// [`Front::terminal`].
    pub fn finish(&mut self, request: usize, outcome: ReqOutcome, now: Nanos) -> Nanos {
        debug_assert!(
            !self.done[request],
            "request {request} reached two terminal states"
        );
        self.done[request] = true;
        let latency = now - self.arrived[request];
        match outcome {
            ReqOutcome::Completed | ReqOutcome::Shed => {}
            ReqOutcome::BreakerShed => self.breaker_sheds += 1,
            ReqOutcome::Timeout => self.timeouts += 1,
            ReqOutcome::Failed => self.failed += 1,
            ReqOutcome::Rejected => self.rejected += 1,
        }
        self.rec.terminal(request, outcome, now);
        if let Some(ps) = self.policy.as_mut() {
            let m = &mut ps.tenants[ps.req_tenant[request]];
            match outcome {
                ReqOutcome::Completed => m.complete(latency),
                ReqOutcome::Shed => m.shed += 1,
                ReqOutcome::BreakerShed => m.breaker_sheds += 1,
                ReqOutcome::Timeout => m.timeouts += 1,
                ReqOutcome::Failed => m.failed += 1,
                ReqOutcome::Rejected => m.rejected += 1,
            }
        }
        latency
    }

    /// A request left the system without completing: terminal accounting,
    /// then the closed-loop client comes back.
    pub fn terminal(
        &mut self,
        request: usize,
        outcome: ReqOutcome,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        self.finish(request, outcome, now);
        self.issue_next_closed(now, inject);
    }

    /// The head of every routing pass (fresh arrival, retry, failover):
    /// deadline first, then the policy choke point. Returns whether the
    /// request may go on to a host; otherwise it has been made terminal.
    pub fn screen(&mut self, request: usize, now: Nanos, inject: &mut Vec<Job>) -> bool {
        if self.past_deadline(request, now) {
            self.terminal(request, ReqOutcome::Timeout, now, inject);
            return false;
        }
        // One decision record per routing pass, ahead of warm pool and
        // admission so *every* dispatch flows through it. Quota is charged
        // per attempt; rejects never reach a host.
        if let Some(PolicyDecision::Reject { .. }) = self.policy_evaluate(request, now) {
            self.terminal(request, ReqOutcome::Rejected, now, inject);
            return false;
        }
        true
    }

    /// Runs the policy engine for `request` — the single choke point —
    /// recording the decision as an obs marker and counting degrades.
    /// `None` without a policy layer.
    fn policy_evaluate(&mut self, request: usize, now: Nanos) -> Option<PolicyDecision> {
        let ps = self.policy.as_mut()?;
        let tenant = ps.req_tenant[request];
        let decision = ps.engine.evaluate(tenant, now);
        let marker = match decision {
            PolicyDecision::Admit { .. } => MarkerKind::PolicyAdmit,
            PolicyDecision::Degrade { .. } => {
                ps.tenants[tenant].degraded += 1;
                MarkerKind::PolicyDegrade
            }
            PolicyDecision::Reject { .. } => MarkerKind::PolicyReject,
        };
        self.rec.marker(marker, Some(request), None, now);
        Some(decision)
    }

    /// Posture check for one (request, host) pair: the placement filter,
    /// the dispatch-time re-check, and the violation counter all land
    /// here. Always true unless [`Front::posture`] is on.
    pub fn posture_ok(&mut self, request: usize, host: usize) -> bool {
        if !self.posture {
            return true;
        }
        let Some(ps) = self.policy.as_ref() else {
            return true;
        };
        // What the attestation plane currently knows about the host.
        let posture = match self.plane.as_ref() {
            Some(plane) => HostPosture {
                tcb_version: plane.tcb_version(host).expect("plane sized to the hosts"),
                revoked: plane.is_revoked(host).expect("plane sized to the hosts"),
            },
            None => HostPosture {
                tcb_version: u32::MAX,
                revoked: false,
            },
        };
        self.posture_checks += 1;
        ps.engine.host_eligible(ps.req_tenant[request], posture)
    }

    /// A launch failed: retry with backoff (fresh routing when the marker
    /// fires) if the budget and deadline allow, else count the request
    /// failed or timed out. `candidates` are the hosts the driver could
    /// route the retry to. Under quiescing recovery, a retry that would
    /// fire while every one of them is inside a known PSP-reset outage
    /// waits for the first to be back; one healthy candidate is enough to
    /// retry on time.
    pub fn handle_failure<'h>(
        &mut self,
        request: usize,
        now: Nanos,
        inject: &mut Vec<Job>,
        candidates: impl IntoIterator<Item = &'h Host>,
    ) {
        self.attempts[request] += 1;
        let failures = self.attempts[request];
        let Some(delay) = self.knobs.recovery.retry.backoff(failures, request as u64) else {
            self.terminal(request, ReqOutcome::Failed, now, inject);
            return;
        };
        let mut at = now + delay;
        if self.knobs.recovery.quiesce {
            // `None` (a healthy candidate) orders before every `Some(end)`,
            // so the minimum is `None` unless all of them are in outage.
            let ends = candidates.into_iter().map(|h| h.psp_outage_end(at));
            at = ends.min().flatten().unwrap_or(at);
        }
        if self.past_deadline(request, at) {
            self.terminal(request, ReqOutcome::Timeout, now, inject);
            return;
        }
        self.retries += 1;
        self.rec.retry_wait(request, failures, now, at);
        self.mark(inject, at, ServeJob::Retry { request });
    }

    /// Closed loops: a completion (or shed) sends the client into think
    /// time, after which it issues the next request — until the budget runs
    /// out.
    pub fn issue_next_closed(&mut self, now: Nanos, inject: &mut Vec<Job>) {
        let Arrival::Closed { think, .. } = self.knobs.arrival else {
            return;
        };
        if self.issued() >= self.knobs.requests {
            return;
        }
        let at = now + think;
        let request = self.new_request(at);
        self.mark(inject, at, ServeJob::Arrival { request });
    }

    /// Per-tenant terminal accounting, when a policy layer ran.
    pub fn tenant_rollups(&self) -> Option<Vec<TenantRollup>> {
        let ps = self.policy.as_ref()?;
        Some(
            ps.config
                .tenants
                .iter()
                .zip(&ps.tenants)
                .map(|(t, m)| TenantRollup {
                    name: t.name,
                    metrics: m.clone(),
                })
                .collect(),
        )
    }
}
