//! The cluster control plane: N hosts, one router, one virtual clock.
//!
//! [`ClusterService`] generalizes the single-host fleet to a sharded
//! deployment: every host owns an independent PSP (capacity 1 — the Fig. 12
//! bottleneck does not pool across machines), CPU pool, bounded admission
//! queue, §6.2 template cache, §7.1 warm pool, and a [`FaultPlan`] fault
//! domain derived from the cluster seed via
//! [`FaultPlan::generate_for_domain`]. In front of them a [`Router`] places
//! each arrival by [`PlacementPolicy`]; per-host serving *is* the fleet
//! machinery — the same [`Front`] and [`Host`] `sevf-fleet` drives with one
//! host, so one host of a cluster misbehaves exactly like the single-host
//! fleet does.
//!
//! The driver here is the request front, a `Vec<Host>`, the router, and one
//! module per cluster-shaped layer, each owning its state and its own job
//! enum under `JobKind` — so `State::on_event` is one arm per layer and
//! adding a layer is one module plus one arm:
//!
//! * `member` — **whole-host outages** (scheduled
//!   [`ClusterConfig::outages`]): the host's in-flight launches are
//!   poisoned ([`FaultKind::HostOutage`]), its warm pool crashes, its
//!   template cache dies, and its queued requests **fail over** — they
//!   re-enter the router and land on surviving hosts. Under
//!   template-affinity placement the dead host's classes get a new ring
//!   owner, which must re-measure them — the §6.2 trust argument exercised
//!   *across machines*. Also graceful **membership** changes
//!   ([`ClusterConfig::events`]; departures drain their queue through the
//!   router without poisoning in-flight work), the TCB-rollout and
//!   revocation drills, and **warm rebalancing**: on any membership change
//!   the cluster-wide warm budget is re-spread over the live hosts. SEV
//!   guests are keyed to their host's PSP and cannot migrate, so
//!   rebalancing re-provisions slots via template launches on the new
//!   hosts rather than moving guests.
//! * `net` — the router↔host↔verifier message plane: dispatch
//!   epochs, leases, heartbeats, and the failover sweep.
//! * `autoscale` — the control loop driving membership and warm
//!   targets from load, with warm-before-serve promotion.
//!
//! Everything is a pure function of `(catalog, config)`: same seed, same
//! byte-identical report.

use sevf_attplane::AttPlaneMetrics;
use sevf_fleet::blueprint::Catalog;
use sevf_fleet::front::{Front, ServeJob};
use sevf_fleet::host::Host;
use sevf_fleet::service::ServingTier;
use sevf_net::HostLease;
use sevf_obs::{MarkerKind, Outcome as ReqOutcome, Recorder, TraceLog};
use sevf_policy::TenantRollup;
use sevf_scale::curve_arrivals;
use sevf_sim::fault::{FaultKind, FaultPlan};
use sevf_sim::{DesEngine, Job, JobOutcome, Nanos, RunTrace};
use sevf_vmm::machine::HOST_CORES;

use crate::autoscale::{ScaleJob, ScalerState};
use crate::member::{MemberJob, Membership};
use crate::metrics::ClusterMetrics;
use crate::net::{NetJob, NetRuntime};
use crate::placement::{PlacementPolicy, Router};
use crate::ClusterError;

pub use crate::autoscale::{AutoscaleRollup, ScaleEvent};
pub use crate::config::{
    ClusterConfig, HostEvent, HostEventKind, HostOutage, RevocationDrill, TcbRollout,
};

/// Outcome of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Tier that served.
    pub tier: ServingTier,
    /// Placement policy that routed.
    pub placement: PlacementPolicy,
    /// Host count.
    pub hosts: usize,
    /// Aggregate offered load (open loops only).
    pub offered_rps: Option<f64>,
    /// The cluster-wide rollup.
    pub metrics: ClusterMetrics,
    /// Attestation-plane counters, when a verifier was configured.
    pub attestation: Option<AttPlaneMetrics>,
    /// Per-tenant terminal accounting, when a policy was configured.
    pub tenants: Option<Vec<TenantRollup>>,
    /// Autoscaler decision counters and audit log, when one was configured.
    pub autoscale: Option<AutoscaleRollup>,
    /// The engine's record of the run (per-host PSP/CPU ids interleaved):
    /// busy totals and makespan always, the per-segment occupancy entries
    /// only from [`ClusterService::run_traced`].
    pub trace: RunTrace,
}

/// What an engine job index means to the cluster control plane: the shared
/// serving core's jobs, or one of the cluster layers'.
#[derive(Debug, Clone, Copy)]
pub(crate) enum JobKind {
    /// Arrivals, launches, retries, refills, and per-host fault markers.
    Serve(ServeJob),
    /// Outages, membership changes, and attestation drills.
    Member(MemberJob),
    /// Messages, heartbeats, leases, and verifier blackout edges.
    Net(NetJob),
    /// The autoscaler's control loop.
    Scale(ScaleJob),
}

impl From<ServeJob> for JobKind {
    fn from(job: ServeJob) -> Self {
        JobKind::Serve(job)
    }
}

impl From<MemberJob> for JobKind {
    fn from(job: MemberJob) -> Self {
        JobKind::Member(job)
    }
}

impl From<NetJob> for JobKind {
    fn from(job: NetJob) -> Self {
        JobKind::Net(job)
    }
}

impl From<ScaleJob> for JobKind {
    fn from(job: ScaleJob) -> Self {
        JobKind::Scale(job)
    }
}

/// The cluster control plane.
#[derive(Debug)]
pub struct ClusterService {
    catalog: Catalog,
    config: ClusterConfig,
}

/// Mutable serving state threaded through the DES completion hook: the
/// shared core (request front + hosts), the router, and one field per
/// layer.
pub(crate) struct State<'a> {
    pub(crate) config: &'a ClusterConfig,
    /// The request front end every host reports into.
    pub(crate) front: Front<'a, JobKind>,
    pub(crate) hosts: Vec<Host>,
    pub(crate) router: Router,
    /// The run's rollup. The cluster's own counters (unroutable sheds,
    /// failovers, rebalances, the net layer's) are counted into it where
    /// each event is observed; the per-host and front totals join at the
    /// end of the run.
    pub(crate) metrics: ClusterMetrics,
    /// Availability accounting.
    pub(crate) members: Membership,
    /// The network layer, when a real config is active.
    pub(crate) net: Option<NetRuntime>,
    /// Autoscaler runtime, when configured. Its decision engine is pure
    /// and RNG-free; `None` consumes zero randomness.
    pub(crate) scaler: Option<ScalerState>,
}

impl ClusterService {
    /// Builds a cluster over a measured catalog (shared by all hosts: the
    /// same class measures to the same template key everywhere, which is
    /// what lets affinity placement pick an owner).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Config`], [`ClusterError::FaultPlan`], or
    /// [`ClusterError::Recovery`] for invalid knobs.
    pub fn new(catalog: Catalog, config: ClusterConfig) -> Result<Self, ClusterError> {
        config.validate(catalog.len())?;
        Ok(ClusterService { catalog, config })
    }

    /// Serves the configured request stream to completion.
    pub fn run(self) -> ClusterReport {
        self.run_with(Recorder::disabled()).0
    }

    /// Serves the stream with span recording on: same report (the recorder
    /// never touches the RNG, metrics, or fault plans), plus the assembled
    /// [`TraceLog`] of causal spans and markers.
    pub fn run_traced(self) -> (ClusterReport, TraceLog) {
        self.run_with(Recorder::enabled())
    }

    fn run_with(self, rec: Recorder) -> (ClusterReport, TraceLog) {
        let config = &self.config;
        let mut engine = DesEngine::new();
        let isolation = config.substrate_isolation();
        let mut front = Front::new(
            &self.catalog,
            config.serving(),
            isolation,
            config.hosts,
            rec,
        );
        front.posture = config.policy.as_ref().is_some_and(|p| p.posture);
        let net = config
            .net
            .as_ref()
            .filter(|n| !n.is_none())
            .map(|cfg| NetRuntime::new(cfg, config.seed, config.hosts));
        // Hosts start the run holding a lease granted at time zero.
        let lease = net.as_ref().and_then(NetRuntime::lease_config);
        // With an autoscaler the fleet is built out to max_hosts; hosts
        // beyond the configured starting count begin as cold departed
        // spares (no warm slots, no measured templates) that only the
        // scaler's graceful-join path can bring into service. Without one,
        // fleet == config.hosts and nothing below changes.
        let fleet = config
            .autoscaler
            .as_ref()
            .map_or(config.hosts, |a| a.max_hosts);
        let hosts: Vec<Host> = (0..fleet)
            .map(|id| {
                let resources = (
                    engine.add_resource(format!("psp{id}"), 1),
                    engine.add_resource(format!("cpus{id}"), HOST_CORES),
                );
                let plan = config.fault.as_ref().map(|f| {
                    FaultPlan::generate_for_domain(
                        config.seed,
                        id as u64,
                        f.clone(),
                        config.fault_horizon,
                    )
                    .expect("fault config validated in new()")
                });
                let spare = id >= config.hosts;
                let mut host = Host::new(id, resources, &front, config.warm_target, spare, plan);
                host.tag = Some(id);
                host.lease = lease.map(HostLease::initial);
                host
            })
            .collect();

        // Arrivals: a workload curve shapes open-loop instants; `None`
        // takes the fixed-rate generator's exact path (same draws, same
        // rounding) and replays pre-curve output byte for byte.
        let mut seed_jobs = Vec::new();
        let shaped = config
            .workload
            .as_ref()
            .map(|curve| curve_arrivals(curve, config.requests, &mut front.rng));
        let last_arrival = front.seed_arrivals(&mut seed_jobs, shaped);
        let scaler = config.autoscaler.as_ref().map(|cfg| {
            ScalerState::new(cfg, config.hosts, last_arrival, &mut front, &mut seed_jobs)
        });
        // Per-host fault schedules (each host's domain plan contributes its
        // own resets, warm crashes, and whole-host outage windows), then the
        // scheduled outages, membership events, and attestation drills.
        let members = Membership::new(config, &hosts, &mut front, &mut seed_jobs);
        // Network schedules: heartbeats, detector probes, lease ticks, and
        // verifier blackout edges.
        if let Some(net) = &net {
            net.seed(config.hosts, &mut front, &mut seed_jobs);
        }

        let mut state = State {
            config,
            front,
            hosts,
            router: Router::new(config.placement, config.seed, config.hosts, config.vnodes),
            metrics: ClusterMetrics::default(),
            members,
            net,
            scaler,
        };
        let (outcomes, trace) = engine.run_dynamic(seed_jobs, state.front.rec.on(), |o, inject| {
            state.on_event(o, inject);
        });
        let log = std::mem::take(&mut state.front.rec).build(&engine, &outcomes, &trace);
        drop(outcomes);

        let makespan = trace.makespan();
        let mut metrics = state.metrics;
        metrics.issued = state.front.issued();
        metrics.makespan = makespan;
        metrics.host_seconds = state.members.close(makespan);
        for host in &mut state.hosts {
            host.finish_metrics(&trace);
            let util = host.metrics.psp_utilization;
            metrics.absorb_host(host.id, &host.metrics, util);
        }
        let front = &state.front;
        metrics.timeouts += front.totals.timeouts;
        metrics.failed += front.totals.failed;
        metrics.rejected = front.totals.rejected;
        metrics.breaker_sheds += front.totals.breaker_sheds;
        metrics.retries += front.totals.retries;
        metrics.posture_checks = front.posture_checks;
        metrics.posture_redirects = front.posture_redirects;
        metrics.posture_violations = front.posture_violations;
        let report = ClusterReport {
            tier: config.tier,
            placement: config.placement,
            hosts: config.hosts,
            offered_rps: config.arrival.offered_rps(),
            metrics,
            attestation: front.plane.as_ref().map(|p| *p.metrics()),
            tenants: front.tenant_rollups(),
            autoscale: state.scaler.as_ref().map(ScalerState::rollup),
            trace,
        };
        (report, log)
    }
}

/// The hosts the router may pick from: available and not suspected.
fn routable<'h>(hosts: &'h [Host], net: Option<&'h NetRuntime>) -> impl Iterator<Item = &'h Host> {
    let suspected = net.map(|n| n.suspected.as_slice());
    hosts
        .iter()
        .filter(move |h| h.available() && suspected.is_none_or(|s| !s[h.id]))
}

impl State<'_> {
    fn on_event(&mut self, outcome: &JobOutcome, inject: &mut Vec<Job>) {
        let now = outcome.finish;
        match self.front.meta[outcome.job] {
            JobKind::Serve(job) => self.on_serve(job, outcome.job, now, inject),
            JobKind::Member(job) => self.on_member(job, now, inject),
            JobKind::Net(job) => self.on_net(job, now, inject),
            JobKind::Scale(job) => self.on_scale(job, now, inject),
        }
    }

    /// The shared serving core's jobs: arrivals and retries route, launches
    /// settle on their host, and the per-host fault markers fire.
    fn on_serve(&mut self, serve: ServeJob, job: usize, now: Nanos, inject: &mut Vec<Job>) {
        match serve {
            ServeJob::Arrival { request } => {
                self.front.on_arrival(request, now);
                if let Some(sc) = self.scaler.as_mut() {
                    sc.arrivals_since += 1;
                }
                self.route(request, now, inject);
            }
            // Fresh placement — this is how failed-over requests land on a
            // surviving host.
            ServeJob::Retry { request } => self.route(request, now, inject),
            ServeJob::Launch(launch) => {
                let host = launch.host;
                let settled = self.hosts[host].settle(&mut self.front, job, now, launch);
                let host_died = settled.poison == Some(FaultKind::HostOutage);
                if host_died {
                    self.metrics.failovers += 1;
                }
                if self.net.is_some() && !host_died {
                    // The host settled its local state; the router-side
                    // settle (latency, terminal, recovery) waits for the
                    // outcome message to cross the host→router link.
                    self.drain(host, now, inject);
                    self.report_outcome(host, now, settled, inject);
                } else if settled.fault.is_some() {
                    // The router already knows: the network is inert, or
                    // the host machine itself died (host_left is global).
                    self.fail(settled.request, now, inject);
                    self.drain(host, now, inject);
                } else {
                    self.complete(settled.request, host, now);
                    self.drain(host, now, inject);
                    self.front.issue_next_closed(now, inject);
                }
            }
            ServeJob::Replenish { class, host } => {
                self.hosts[host].refill_done(&mut self.front, job, now, class);
                self.after_refill(host, class, now, inject);
            }
            ServeJob::ResetStart { host } => self.hosts[host].reset_start(&mut self.front, now),
            ServeJob::ResetEnd { host } => {
                self.front
                    .rec
                    .marker(MarkerKind::OutageEnd, None, Some(host), now);
                self.drain(host, now, inject);
            }
            ServeJob::WarmCrash { host, idx } => {
                self.hosts[host].warm_crash(&mut self.front, idx, now, inject);
            }
        }
    }

    /// Counts `request` completed on `host` (terminal accounting plus the
    /// host's latency sample).
    pub(crate) fn complete(&mut self, request: usize, host: usize, now: Nanos) {
        let latency = self.front.finish(request, ReqOutcome::Completed, now);
        self.hosts[host].metrics.record_latency(latency);
    }

    /// Sends a failed request back through recovery. The retry will be
    /// routed afresh when it fires, so the hosts the router could pick now
    /// are the candidates [`Front::handle_failure`]'s deferral rule reads.
    pub(crate) fn fail(&mut self, request: usize, now: Nanos, inject: &mut Vec<Job>) {
        let candidates = routable(&self.hosts, self.net.as_ref());
        self.front.handle_failure(request, now, inject, candidates);
    }

    /// Fills freed dispatch slots on `host` from its queue, re-routing any
    /// popped request the host no longer meets the posture floor of.
    pub(crate) fn drain(&mut self, host: usize, now: Nanos, inject: &mut Vec<Job>) {
        while let Some(request) = self.hosts[host].drain_queue(&mut self.front, now, inject) {
            self.route(request, now, inject);
        }
    }

    /// Routes a request (fresh arrival, retry, or failover): the front
    /// end's screen (deadline, policy), then placement over the live
    /// hosts, then the host's ladder, warm pool, and admission control.
    pub(crate) fn route(&mut self, request: usize, now: Nanos, inject: &mut Vec<Job>) {
        if !self.front.screen(request, now, inject) {
            return;
        }
        let mut live: Vec<usize> = routable(&self.hosts, self.net.as_ref())
            .map(|h| h.id)
            .collect();
        // Posture filter: shrink the candidate set to hosts the tenant's
        // min-TCB / revocation requirements accept, *before* the router
        // runs. An empty result with live hosts present is a policy
        // reject, not an unroutable shed.
        if self.front.posture && !live.is_empty() {
            live.retain(|&h| self.front.posture_ok(request, h));
            if live.is_empty() {
                self.front
                    .rec
                    .marker(MarkerKind::PolicyReject, Some(request), None, now);
                self.front
                    .terminal(request, ReqOutcome::Rejected, now, inject);
                return;
            }
        }
        let class = self.front.class_of(request);
        let key = self.front.catalog.class(class).key;
        let hosts = &self.hosts;
        let placed = self.router.place(
            &key,
            &live,
            |h| hosts[h].committed_psp,
            |h| hosts[h].pool.ready(class) > 0,
        );
        let Some(host) = placed else {
            // Nowhere to run: shed fast (clients of a fully-dark cluster
            // get an immediate error, not an unbounded queue).
            self.metrics.unroutable += 1;
            self.metrics.shed += 1;
            self.front.terminal(request, ReqOutcome::Shed, now, inject);
            return;
        };
        self.front.rec.marker(
            MarkerKind::Placement { host },
            Some(request),
            Some(host),
            now,
        );
        if self.net.is_some() {
            self.send_dispatch(request, host, now, inject);
        } else {
            self.hosts[host].assign(&mut self.front, request, now, inject);
        }
    }
}
