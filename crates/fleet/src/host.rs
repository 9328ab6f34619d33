//! One serving host: an independent PSP fault domain and the per-host half
//! of the serving machine.
//!
//! A host owns what the paper's serving unit owns — a PSP resource
//! (capacity 1, the Fig. 12 bottleneck), a CPU pool, one bounded admission
//! queue (a [`WfqQueue`]: a single arrival-order lane unless the run's
//! policy schedules by WFQ), a §6.2 template cache, a §7.1 warm pool,
//! per-class circuit breakers, and a [`FaultPlan`] for its fault domain —
//! plus the bookkeeping a router needs (outstanding expected PSP work) and
//! one ledger of every in-flight engine job on the machine: the PSP work it
//! holds, and whether a PSP reset, a whole-host outage or a lapsed lease
//! has struck it since dispatch.
//!
//! The serving logic lives here once: degradation ladder → warm pool →
//! admission → dispatch → fault-and-attestation splice → settle, plus
//! refill, drain, PSP reset, and warm-crash handling. Every function takes
//! the run's shared [`Front`] and the engine's `inject` buffer; a
//! single-host fleet and an N-host cluster drive exactly the same code.

use std::borrow::Cow;
use std::collections::BTreeMap;

use sevf_attplane::Verdict;
use sevf_net::HostLease;
use sevf_obs::{MarkerKind, Outcome as ReqOutcome, WorkStep};
use sevf_policy::{Offer, WfqQueue};
use sevf_sim::fault::{AttestFault, FaultKind, FaultPlan};
use sevf_sim::{Job, Nanos, PhaseKind, ResourceClass, ResourceId, RunTrace};
use sevf_vmm::machine::HOST_CORES;

use crate::admission::Pending;
use crate::blueprint::{Blueprint, LaunchCache};
use crate::front::{Front, Launch, LaunchFate, ServeJob};
use crate::metrics::FleetMetrics;
use crate::pool::WarmPool;
use crate::recovery::CircuitBreaker;
use crate::service::ServingTier;

/// Serving state of one host on the shared DES clock.
#[derive(Debug)]
pub struct Host {
    /// Host id (index into the driver's host table).
    pub id: usize,
    /// The host's PSP resource (capacity 1).
    pub psp: ResourceId,
    /// The host's CPU pool.
    pub cpu: ResourceId,
    /// How the recorder names this host: `None` for the single-host
    /// fleet, `Some(id)` in a cluster.
    pub tag: Option<usize>,
    /// Whether the host is inside a whole-host outage window.
    pub out: bool,
    /// Whether the host has gracefully left (or is a cold spare).
    pub departed: bool,
    /// Autoscale-joined spare warming its pool before taking traffic: up
    /// (and billing host-seconds) but not yet routable.
    pub warming: bool,
    /// Lease-based ownership: the host's [`HostLease`], `None` when leases
    /// are off (the host never fences itself). A lapsed lease parks: the
    /// host purged its queue and refuses new work until a fresh grant
    /// arrives.
    pub lease: Option<HostLease>,
    /// §7.1 warm pool.
    pub pool: WarmPool,
    /// §6.2 content-addressed template cache. Dies with the host: an outage
    /// forces every class to re-measure wherever it lands next.
    pub cache: LaunchCache,
    /// This host's fault domain.
    pub plan: Option<FaultPlan>,
    /// Launches currently dispatched (admission slot accounting).
    pub inflight: usize,
    /// Expected serialized PSP work admitted but not yet completed (queued
    /// plus in flight) — the backlog signal JSQ placement samples.
    pub committed_psp: Nanos,
    /// Per-host metrics: completions, latencies, faults, queue depth.
    pub metrics: FleetMetrics,
    /// The bounded admission queue in front of this host's PSP: one lane
    /// per tenant when the run's policy schedules by WFQ, else one lane.
    queue: WfqQueue<Pending>,
    /// Per-class circuit breakers (resilient recovery only).
    breakers: Option<Vec<CircuitBreaker>>,
    /// Every in-flight launch and refill on this host, by engine job id.
    ledger: BTreeMap<usize, InFlight>,
    /// Deterministic token stream for stateless fault draws: one token per
    /// fault-eligible launch, in dispatch order.
    launch_seq: u64,
}

/// What the host knows about one in-flight engine job.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// Serialized PSP work the job holds on the host's backlog. A job
    /// *holds the PSP* while this is non-zero and it is not doomed.
    psp_ns: Nanos,
    /// The PSP reset or host outage that struck the job: its completion is
    /// that failure, whatever verdict dispatch drew.
    doom: Option<FaultKind>,
    /// Whether the host's lease lapsed under the job: unless doomed, its
    /// completion is a [`FaultKind::NetPartition`] refusal.
    fenced: bool,
}

impl InFlight {
    fn holds_psp(&self) -> bool {
        self.psp_ns > Nanos::ZERO && self.doom.is_none()
    }
}

/// What a settled launch reports back to the driver.
#[derive(Debug, Clone, Copy)]
pub struct Settled {
    /// The request the launch served.
    pub request: usize,
    /// The dispatch epoch the launch was injected under.
    pub epoch: u32,
    /// Why the launch failed, if it did (poisoning included).
    pub fault: Option<FaultKind>,
    /// The poisoning that overrode dispatch's verdict, if any.
    pub poison: Option<FaultKind>,
    /// Whether the host's lease lapsed under the launch: the outcome may
    /// only travel back as a refusal, never a completion.
    pub fenced: bool,
}

impl Host {
    /// A host on resources `psp`/`cpu` with fault domain `plan`. A `spare`
    /// starts departed with an empty pool and a cold cache; otherwise a
    /// warm-pool tier starts stocked to `warm_target` with every template
    /// live (the pool's resident guests were launched from them).
    pub fn new<J: From<ServeJob>>(
        id: usize,
        (psp, cpu): (ResourceId, ResourceId),
        cx: &Front<'_, J>,
        warm_target: usize,
        spare: bool,
        plan: Option<FaultPlan>,
    ) -> Self {
        let classes = cx.catalog.classes();
        let stocked = cx.knobs.tier == ServingTier::WarmPool && !spare;
        let mut cache = LaunchCache::new();
        if stocked {
            for (idx, class) in classes.iter().enumerate() {
                cache.prefill(class.key, idx);
            }
        }
        Host {
            id,
            psp,
            cpu,
            tag: None,
            out: false,
            departed: spare,
            warming: false,
            lease: None,
            pool: WarmPool::prewarmed(
                classes.len(),
                if stocked { warm_target } else { 0 },
                classes.iter().map(|c| c.resident_bytes).collect(),
            ),
            cache,
            plan,
            inflight: 0,
            committed_psp: Nanos::ZERO,
            metrics: FleetMetrics::default(),
            queue: WfqQueue::new(
                cx.knobs.admission.queue_bound,
                &cx.lane_specs(),
                cx.knobs.seed.wrapping_add(id as u64),
            )
            .expect("policy config validated by the driver"),
            breakers: cx
                .knobs
                .recovery
                .breaker
                .then(|| vec![CircuitBreaker::new(); classes.len()]),
            ledger: BTreeMap::new(),
            launch_seq: 0,
        }
    }

    /// Seeds this host's fault schedule as marker jobs: PSP reset windows
    /// and warm-guest crashes. Without a plan this adds nothing, so the
    /// fault-free path is byte-identical to the pre-fault control plane.
    pub fn seed_faults<J: From<ServeJob>>(&self, cx: &mut Front<'_, J>, jobs: &mut Vec<Job>) {
        let Some(plan) = &self.plan else {
            return;
        };
        let host = self.id;
        for window in plan.resets() {
            cx.mark(jobs, window.start, ServeJob::ResetStart { host });
            cx.mark(jobs, window.end, ServeJob::ResetEnd { host });
        }
        for (idx, &at) in plan.warm_crashes().iter().enumerate() {
            cx.mark(jobs, at, ServeJob::WarmCrash { host, idx });
        }
    }

    /// Whether the router may send this host traffic.
    pub fn available(&self) -> bool {
        !self.out && !self.departed
    }

    /// If this host's PSP is inside a known firmware-reset outage at `at`,
    /// the instant the outage ends.
    pub(crate) fn psp_outage_end(&self, at: Nanos) -> Option<Nanos> {
        self.plan.as_ref().and_then(|p| p.in_outage(at))
    }

    /// Whether the host is lease-fenced at `now`: its lease is parked or
    /// past its expiry. Never true with leases off.
    pub fn lease_blocked(&self, now: Nanos) -> bool {
        self.lease.is_some_and(|lease| !lease.valid_at(now))
    }

    /// Requests waiting in the dispatch queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// In-flight jobs currently holding this host's PSP.
    pub fn psp_holders(&self) -> usize {
        self.ledger.values().filter(|j| j.holds_psp()).count()
    }

    /// In-flight jobs a PSP reset or a host outage has doomed to fail.
    pub fn poisoned(&self) -> usize {
        self.ledger.values().filter(|j| j.doom.is_some()).count()
    }

    /// Current degradation level of `class` at `now` (0 without breakers).
    /// Applies the breaker's time-based healing first, so a class tripped
    /// off the ladder comes back once the cooldown elapses.
    fn degrade_level(&mut self, class: usize, now: Nanos) -> usize {
        match &mut self.breakers {
            Some(breakers) => {
                breakers[class].heal(now);
                breakers[class].level()
            }
            None => 0,
        }
    }

    /// Whether PSP-needing dispatches are being held (resilient recovery
    /// quiesces across a reset outage; naive keeps dispatching).
    fn quiesce_hold<J>(&self, cx: &Front<'_, J>, now: Nanos) -> bool {
        cx.knobs.recovery.quiesce && self.psp_outage_end(now).is_some()
    }

    /// Serves `request` here: degradation ladder, then the warm pool (warm
    /// tier), then admission control.
    pub fn assign<J: From<ServeJob>>(
        &mut self,
        cx: &mut Front<'_, J>,
        request: usize,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        let class = cx.class_of(request);
        let level = self.degrade_level(class, now);
        let Some(tier) = cx.knobs.tier.degraded(level) else {
            cx.terminal(request, ReqOutcome::BreakerShed, now, inject);
            return;
        };
        if tier == ServingTier::WarmPool && self.pool.try_take(class) {
            // Warm hit: no launch, no admission — one vCPU kick. The freed
            // slot is refilled in the background by a template launch.
            let blueprint = &cx.catalog.class(class).warm_invoke;
            self.inject_launch(cx, request, class, blueprint, false, now, inject);
            self.start_refill(cx, class, now, inject);
            return;
        }
        self.admit(cx, request, class, tier, now, inject);
    }

    /// Expected serialized PSP work of the launch `class` would replay at
    /// `tier` right now (peeks at the cache without counting).
    fn expected_psp<J>(&self, cx: &Front<'_, J>, class: usize, tier: ServingTier) -> Nanos {
        let cb = cx.catalog.class(class);
        match tier {
            ServingTier::Cold => cb.cold.psp_work(),
            _ if self.cache.contains(&cb.key) => cb.template_hit.psp_work(),
            _ => cb.cold.psp_work(),
        }
    }

    /// Admission control: dispatch if a slot is free (and the PSP is not
    /// quiesced), queue if there is room, shed otherwise.
    fn admit<J: From<ServeJob>>(
        &mut self,
        cx: &mut Front<'_, J>,
        request: usize,
        class: usize,
        tier: ServingTier,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        let expected_psp = self.expected_psp(cx, class, tier);
        let quiesced = expected_psp > Nanos::ZERO && self.quiesce_hold(cx, now);
        if !quiesced && self.inflight < cx.knobs.admission.max_inflight {
            self.dispatch(cx, request, class, tier, now, inject);
            return;
        }
        let pending = Pending {
            request,
            class,
            expected_psp,
        };
        // The request waits on its tenant's lane; overflow sheds by policy
        // (batch before latency-sensitive, quota-violators first). With one
        // lane that is the newcomer: no lane out-sheds itself.
        let (tenant, over) = cx.wfq_lane(request, now);
        self.queue.set_over_quota(tenant, over);
        let offer = self.queue.offer(tenant, pending, expected_psp);
        self.metrics.sample_queue_depth(now, self.queue_len());
        let displaced = match offer {
            // Shed: fail fast. A closed-loop client still comes back.
            Offer::Refused(item) => {
                return cx.terminal(item.request, ReqOutcome::Shed, now, inject)
            }
            Offer::Queued => None,
            Offer::Displaced { item, .. } => Some(item),
        };
        self.committed_psp += expected_psp;
        cx.rec.queued(request);
        if let Some(item) = displaced {
            self.committed_psp = self.committed_psp.saturating_sub(item.expected_psp);
            cx.terminal(item.request, ReqOutcome::Shed, now, inject);
        }
    }

    /// Picks the catalog blueprint for a dispatch at `tier` and injects it;
    /// a template tier counts one cache hit or miss. A miss fills the
    /// template, and a fill is a cold launch, so it replays `cold`.
    fn dispatch<J: From<ServeJob>>(
        &mut self,
        cx: &mut Front<'_, J>,
        request: usize,
        class: usize,
        tier: ServingTier,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        if tier != cx.knobs.tier {
            self.metrics.degraded_dispatches += 1;
        }
        let cb = cx.catalog.class(class);
        let (blueprint, fill) = match tier {
            ServingTier::Cold => (&cb.cold, false),
            _ if self.cache.lookup_or_fill(cb.key, class) => (&cb.template_hit, false),
            _ => (&cb.cold, true),
        };
        self.inject_launch(cx, request, class, blueprint, fill, now, inject);
    }

    /// Applies this host's fault domain and the attestation plane to a
    /// catalog blueprint and injects it. Fault verdicts are drawn
    /// statelessly per launch token, so the fault-free path consumes no
    /// randomness at all, and it replays the blueprint in place: only a
    /// faulted launch is rewritten into a copy of its own.
    #[allow(clippy::too_many_arguments)]
    fn inject_launch<J: From<ServeJob>>(
        &mut self,
        cx: &mut Front<'_, J>,
        request: usize,
        class: usize,
        blueprint: &Blueprint,
        fill: bool,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        // The acceptance invariant in executable form: a posture-strict
        // tenant's launch must never reach an ineligible host. The
        // placement filter and the dispatch-time re-check keep this zero.
        if !cx.posture_ok(request, self.id) {
            cx.posture_violations += 1;
        }
        let (blueprint, fault) = match &self.plan {
            Some(plan) => {
                let token = self.launch_seq;
                self.launch_seq += 1;
                apply_launch_faults(blueprint, plan, token, now)
            }
            None => (Cow::Borrowed(blueprint), None),
        };
        let mut fate = fault.map_or(LaunchFate::Ok, LaunchFate::Fault);
        // Every fault-free dispatch carries an attestation verdict: the
        // verifier's latency (queue wait → cert fetch/hit → batch window →
        // signature check) rides the launch as a tail of pure network delay
        // (it never touches the PSP backlog), and a revoked chip turns the
        // dispatch into an attestation failure that retries.
        let mut tail = Vec::new();
        if let (None, Some(plane)) = (fault, cx.plane.as_mut()) {
            let v = plane
                .verify_launch(self.id, now)
                .expect("plane sized to the hosts");
            tail = v.steps;
            match v.verdict {
                Verdict::Ok => {}
                Verdict::Revoked => fate = LaunchFate::Fault(FaultKind::AttestError),
                // The verifier was unreachable and the plane ran
                // fail-closed: the launch is refused and retries.
                Verdict::Unavailable => fate = LaunchFate::Fault(FaultKind::AttestTimeout),
            }
        }
        self.inflight += 1;
        let job = cx.meta.len();
        if cx.rec.on() {
            let steps = blueprint.steps.iter().chain(&tail).cloned().collect();
            cx.rec
                .launch(Some(request), job, &blueprint.label, self.tag, steps, now);
        }
        let tag = ServeJob::Launch(Launch {
            request,
            class,
            host: self.id,
            epoch: cx.epoch(request),
            fate,
            fill,
        });
        let work = blueprint.to_job(&tail, now, self.cpu, self.psp);
        cx.push(inject, work, tag);
        self.track(job, blueprint.psp_work());
    }

    /// Books an injected job against this host: the PSP backlog, and the
    /// ledger resets, outages and lease expiries strike.
    fn track(&mut self, job: usize, psp_ns: Nanos) {
        self.committed_psp += psp_ns;
        let entry = InFlight {
            psp_ns,
            doom: None,
            fenced: false,
        };
        self.ledger.insert(job, entry);
    }

    /// Closes a finished job's ledger entry and takes its PSP work off the
    /// backlog; returns why the job was poisoned (its doom, else a lapsed
    /// lease) and whether it was fenced.
    fn release(&mut self, job: usize) -> (Option<FaultKind>, bool) {
        let InFlight {
            psp_ns,
            doom,
            fenced,
        } = self
            .ledger
            .remove(&job)
            .expect("every injected launch and refill is tracked until it finishes");
        self.committed_psp = self.committed_psp.saturating_sub(psp_ns);
        (doom.or(fenced.then_some(FaultKind::NetPartition)), fenced)
    }

    /// A launch finished: settles the host-side state — poisoning that
    /// struck while it was in flight overrides whatever verdict dispatch
    /// drew — and reports the result. The driver decides what the request
    /// does next (complete, retry, or report over the network).
    pub fn settle<J: From<ServeJob>>(
        &mut self,
        cx: &mut Front<'_, J>,
        job: usize,
        now: Nanos,
        launch: Launch,
    ) -> Settled {
        let Launch { request, class, .. } = launch;
        let (poison, fenced) = self.release(job);
        self.inflight = self.inflight.saturating_sub(1);
        if poison == Some(FaultKind::HostOutage) {
            // The host died under this launch; the request fails over to a
            // surviving host through the retry path.
            cx.rec
                .marker(MarkerKind::Failover, Some(request), self.tag, now);
        }
        let fault = poison.or(match launch.fate {
            LaunchFate::Ok => None,
            LaunchFate::Fault(kind) => Some(kind),
        });
        match fault {
            None => {
                if let Some(breakers) = &mut self.breakers {
                    breakers[class].on_success(now);
                }
            }
            Some(kind) => {
                self.metrics.faults.record(kind);
                cx.rec
                    .marker(MarkerKind::Fault(kind), Some(request), self.tag, now);
                if launch.fill {
                    // The fill died before finalizing its template: the
                    // key must not look live.
                    self.cache.invalidate(&cx.catalog.class(class).key);
                }
                if let Some(breakers) = &mut self.breakers {
                    if breakers[class].on_failure(now) {
                        cx.rec
                            .marker(MarkerKind::BreakerTrip, Some(request), self.tag, now);
                    }
                }
            }
        }
        Settled {
            request,
            epoch: launch.epoch,
            fault,
            poison,
            fenced,
        }
    }

    /// Fills freed dispatch slots from the queue in its pop order.
    /// Held entirely while the host is away, lease-fenced, or quiescing a
    /// PSP outage. Returns a popped request whose host fell below its
    /// posture floor between enqueue and pop (a TCB rollout or revocation
    /// can do that): the driver re-routes it through the placement filter
    /// and calls again.
    pub fn drain_queue<J: From<ServeJob>>(
        &mut self,
        cx: &mut Front<'_, J>,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) -> Option<usize> {
        if !self.available() || self.quiesce_hold(cx, now) || self.lease_blocked(now) {
            return None;
        }
        while self.inflight < cx.knobs.admission.max_inflight {
            let Some((_, next)) = self.queue.pop() else {
                break;
            };
            self.committed_psp = self.committed_psp.saturating_sub(next.expected_psp);
            self.metrics.sample_queue_depth(now, self.queue_len());
            if cx.past_deadline(next.request, now) {
                // Expired while waiting: a timeout shed, not a dispatch.
                cx.terminal(next.request, ReqOutcome::Timeout, now, inject);
                continue;
            }
            if !cx.posture_ok(next.request, self.id) {
                cx.posture_redirects += 1;
                return Some(next.request);
            }
            let level = self.degrade_level(next.class, now);
            let Some(tier) = cx.knobs.tier.degraded(level) else {
                cx.terminal(next.request, ReqOutcome::BreakerShed, now, inject);
                continue;
            };
            self.dispatch(cx, next.request, next.class, tier, now, inject);
        }
        None
    }

    /// Empties the backlog, in pop order, for failover or a lease purge,
    /// releasing its committed PSP work.
    pub fn purge_backlog(&mut self) -> Vec<Pending> {
        let purged: Vec<Pending> = self.queue.drain().into_iter().map(|(_, p)| p).collect();
        for next in &purged {
            self.committed_psp = self.committed_psp.saturating_sub(next.expected_psp);
        }
        purged
    }

    /// Starts a background refill for `class` if the pool is below target
    /// and the host can currently launch: live (or warming), not
    /// lease-fenced, and its PSP accepting work (no refills are launched
    /// into a reset outage — the PSP physically accepts nothing).
    pub fn start_refill<J: From<ServeJob>>(
        &mut self,
        cx: &mut Front<'_, J>,
        class: usize,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        if cx.knobs.tier != ServingTier::WarmPool
            || !(self.available() || self.warming)
            || self.lease_blocked(now)
            || !self.pool.wants_refill(class)
        {
            return;
        }
        let catalog = cx.catalog;
        let refill = &catalog.class(class).template_hit;
        let psp_ns = refill.psp_work();
        if psp_ns > Nanos::ZERO && self.psp_outage_end(now).is_some() {
            return;
        }
        self.pool.refill_started(class);
        let job = cx.meta.len();
        if cx.rec.on() {
            let steps = refill.steps.clone();
            cx.rec
                .launch(None, job, &refill.label, self.tag, steps, now);
        }
        let tag = ServeJob::Replenish {
            class,
            host: self.id,
        };
        cx.push(inject, refill.to_job(&[], now, self.cpu, self.psp), tag);
        self.track(job, psp_ns);
    }

    /// Starts refills for every class below target.
    pub fn kick_refills<J: From<ServeJob>>(
        &mut self,
        cx: &mut Front<'_, J>,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        for class in 0..cx.catalog.len() {
            self.start_refill(cx, class, now, inject);
        }
    }

    /// A background refill finished: the slot becomes ready unless the job
    /// was poisoned in flight.
    pub fn refill_done<J: From<ServeJob>>(
        &mut self,
        cx: &mut Front<'_, J>,
        job: usize,
        now: Nanos,
        class: usize,
    ) {
        match self.release(job).0 {
            Some(kind) => {
                self.metrics.faults.record(kind);
                self.pool.refill_failed(class);
                cx.rec.marker(MarkerKind::Fault(kind), None, self.tag, now);
            }
            None => self.pool.refill_done(class),
        }
    }

    /// A PSP firmware reset begins: every in-flight PSP-using job is
    /// poisoned (its completion becomes a failure), and the template cache
    /// dies with the firmware — each class re-measures on next use (§6.2).
    pub fn reset_start<J: From<ServeJob>>(&mut self, cx: &mut Front<'_, J>, now: Nanos) {
        cx.rec.marker(MarkerKind::OutageStart, None, self.tag, now);
        for job in self.ledger.values_mut().filter(|j| j.holds_psp()) {
            job.doom = Some(FaultKind::PspReset);
        }
        self.cache.invalidate_all();
    }

    /// A scheduled warm-guest crash: pick a class deterministically from the
    /// crash index and kill one ready slot if that class has any.
    pub fn warm_crash<J: From<ServeJob>>(
        &mut self,
        cx: &mut Front<'_, J>,
        idx: usize,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        let classes = cx.catalog.len();
        let class = ((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % classes;
        if self.pool.crash(class) {
            self.metrics.faults.record(FaultKind::WarmCrash);
            cx.rec
                .marker(MarkerKind::Fault(FaultKind::WarmCrash), None, self.tag, now);
            self.start_refill(cx, class, now, inject);
        }
    }

    /// The machine dies: every in-flight job is poisoned, the warm pool
    /// crashes, and the template cache dies with it.
    pub fn crash(&mut self, classes: usize) {
        for job in self.ledger.values_mut() {
            job.doom = Some(FaultKind::HostOutage);
        }
        for class in 0..classes {
            while self.pool.crash(class) {}
        }
        self.cache.invalidate_all();
    }

    /// The host's lease lapsed: in-flight work may no longer complete, only
    /// be refused back to the router.
    pub fn fence(&mut self) {
        for job in self.ledger.values_mut() {
            job.fenced = true;
        }
    }

    /// Folds the end-of-run queue, cache, pool, breaker, and utilization
    /// figures into [`Host::metrics`].
    pub fn finish_metrics(&mut self, trace: &RunTrace) {
        let m = &mut self.metrics;
        m.shed = self.queue.shed();
        m.max_queue_depth = self.queue.max_depth();
        m.cache_hits = self.cache.hits();
        m.cache_misses = self.cache.misses();
        m.warm_hits = self.pool.hits();
        m.warm_misses = self.pool.misses();
        m.evicted = self.pool.evicted();
        m.psp_utilization = trace.utilization(self.psp, 1);
        m.cpu_utilization = trace.utilization(self.cpu, HOST_CORES);
        m.makespan = trace.makespan();
        if let Some(breakers) = &self.breakers {
            m.breaker_trips = breakers.iter().map(|b| b.trips()).sum();
        }
    }
}

/// Applies `plan`'s per-launch fault model to a dispatch at `now`, returning
/// the blueprint to replay and the fault that struck, if any. A rewrite is
/// an owned copy; an unchanged blueprint comes back borrowed.
///
/// This is the single fault-application path every host runs — the fleet's
/// one host and each cluster host alike — so all inject byte-identical
/// faulted work for the same `(plan, token, now)`:
///
/// * PSP-needing work dispatched inside a firmware-reset outage hangs on the
///   network until the outage ends, then errors ([`FaultKind::PspReset`]) —
///   no PSP occupancy, the firmware is rebooting.
/// * Otherwise a stateless per-`token` draw may fail the launch transiently
///   partway through its work ([`FaultKind::PspTransient`]).
/// * Launches with an attestation round trip may hang until the client-side
///   timeout or error immediately ([`FaultKind::AttestTimeout`] /
///   [`FaultKind::AttestError`]).
///
/// Verdicts are stateless per token, so a fault-free plan consumes no
/// randomness and hands the blueprint back borrowed.
fn apply_launch_faults<'b>(
    blueprint: &'b Blueprint,
    plan: &FaultPlan,
    token: u64,
    now: Nanos,
) -> (Cow<'b, Blueprint>, Option<FaultKind>) {
    if blueprint.psp_work() > Nanos::ZERO {
        if let Some(end) = plan.in_outage(now) {
            let dead = Blueprint {
                label: format!("{} (dead psp)", blueprint.label),
                steps: vec![WorkStep::new(
                    ResourceClass::Network,
                    PhaseKind::PreEncryption,
                    "hang on rebooting PSP mailbox",
                    end.saturating_sub(now),
                )],
            };
            return (Cow::Owned(dead), Some(FaultKind::PspReset));
        }
        if plan.psp_transient(token) {
            let truncated = blueprint.truncate_frac(plan.transient_progress(token));
            return (Cow::Owned(truncated), Some(FaultKind::PspTransient));
        }
    }
    let fault = match plan.attest_fault(token).filter(|_| blueprint.has_network()) {
        Some(AttestFault::Timeout) => {
            let mut hung = blueprint.clone();
            hung.steps.push(WorkStep::new(
                ResourceClass::Network,
                PhaseKind::Attestation,
                "attestation round trip times out",
                plan.config().attest_timeout,
            ));
            return (Cow::Owned(hung), Some(FaultKind::AttestTimeout));
        }
        // An immediate error adds no work: the launch replays unchanged.
        Some(AttestFault::Error) => Some(FaultKind::AttestError),
        None => None,
    };
    (Cow::Borrowed(blueprint), fault)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blueprint::{Catalog, ClassSpec};
    use sevf_sim::fault::FaultConfig;
    use PhaseKind::{Attestation, LinuxBoot, PreEncryption};
    use ResourceClass::{HostCpu, Network, Psp};

    /// A step as the pins spell it: class, phase, label, nanoseconds.
    type Pin = (ResourceClass, PhaseKind, &'static str, u64);

    const PROBE_STEPS: [Pin; 3] = [
        (Psp, PreEncryption, "SNP_LAUNCH_UPDATE", 30_000_000),
        (HostCpu, LinuxBoot, "linux boot", 50_000_000),
        (Network, Attestation, "attestation rtt", 2_000_000),
    ];

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn plan(config: FaultConfig) -> FaultPlan {
        FaultPlan::generate(7, config, Nanos::from_secs(30)).unwrap()
    }

    /// Applies `plan` as launch token 3 at `now` to a launch every fault
    /// arm can strike (PSP work, a CPU phase, an attestation round trip),
    /// and checks the fault, the replayed label and steps, and whether the
    /// blueprint came back borrowed.
    #[track_caller]
    fn assert_strike(
        plan: &FaultPlan,
        now: Nanos,
        fault: Option<FaultKind>,
        label: &str,
        steps: &[Pin],
        borrowed: bool,
    ) {
        let probe = Blueprint {
            label: "probe cold".into(),
            steps: PROBE_STEPS
                .iter()
                .map(|&(class, phase, label, ns)| {
                    WorkStep::new(class, phase, label, Nanos::from_nanos(ns))
                })
                .collect(),
        };
        let (bp, got) = apply_launch_faults(&probe, plan, 3, now);
        let got_steps: Vec<_> = bp
            .steps
            .iter()
            .map(|s| (s.class, s.phase, s.label.as_ref(), s.duration.as_nanos()))
            .collect();
        assert_eq!(got, fault);
        assert_eq!(bp.label, label);
        assert_eq!(got_steps, steps);
        let in_place = matches!(bp, Cow::Borrowed(b) if std::ptr::eq(b, &probe));
        assert_eq!(in_place, borrowed, "borrowed");
    }

    #[test]
    fn fault_free_plan_replays_the_catalog_blueprint_in_place() {
        let catalog = Catalog::build(41, &ClassSpec::quick_test_classes()).unwrap();
        let none = plan(FaultConfig::none());
        for class in catalog.classes() {
            for bp in [&class.cold, &class.template_hit] {
                let (replayed, fault) = apply_launch_faults(bp, &none, 9, ms(700));
                assert_eq!(fault, None);
                assert!(matches!(replayed, Cow::Borrowed(b) if std::ptr::eq(b, bp)));
            }
        }
    }

    /// The four fault arms, pinned to the blueprints the by-value
    /// implementation produced: labels, classes, phases and durations.
    #[test]
    fn fault_rewrites_are_pinned() {
        let resets = plan(FaultConfig {
            psp_reset_period: Some(Nanos::from_secs(2)),
            psp_reset_outage: ms(500),
            ..FaultConfig::none()
        });
        let now = resets.resets()[0].start + ms(100);
        let hang = (
            Network,
            PreEncryption,
            "hang on rebooting PSP mailbox",
            400_000_000,
        );
        let label = "probe cold (dead psp)";
        assert_strike(
            &resets,
            now,
            Some(FaultKind::PspReset),
            label,
            &[hang],
            false,
        );

        let transient = plan(FaultConfig {
            psp_transient_rate: 1.0,
            ..FaultConfig::none()
        });
        let aborted = [
            PROBE_STEPS[0],
            (HostCpu, LinuxBoot, "linux boot", 10_446_145),
        ];
        let (fault, label) = (Some(FaultKind::PspTransient), "probe cold (aborted)");
        assert_strike(&transient, ms(1), fault, label, &aborted, false);

        let timeout = plan(FaultConfig {
            attest_timeout_rate: 1.0,
            ..FaultConfig::none()
        });
        let hung = [
            PROBE_STEPS[0],
            PROBE_STEPS[1],
            PROBE_STEPS[2],
            (
                Network,
                Attestation,
                "attestation round trip times out",
                1_000_000_000,
            ),
        ];
        let fault = Some(FaultKind::AttestTimeout);
        assert_strike(&timeout, ms(1), fault, "probe cold", &hung, false);

        // An attestation error adds no work: the launch comes back as it is.
        let error = plan(FaultConfig {
            attest_error_rate: 1.0,
            ..FaultConfig::none()
        });
        let fault = Some(FaultKind::AttestError);
        assert_strike(&error, ms(1), fault, "probe cold", &PROBE_STEPS, true);

        let none = plan(FaultConfig::none());
        assert_strike(&none, ms(1), None, "probe cold", &PROBE_STEPS, true);
    }
}
