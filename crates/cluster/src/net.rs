//! The network layer: the router↔host↔verifier message plane.
//!
//! Present only when a real [`NetConfig`] is active; absent, the control
//! plane calls hosts directly and replays pre-net output byte for byte.
//! With it, a routed request leaves the router as a message under a fresh
//! dispatch epoch, attempt outcomes travel back over a reliable
//! (partition-buffered) transport, heartbeats feed a phi-accrual detector,
//! leases fence hosts the router can no longer hear, and a failover sweep
//! moves a suspected host's outstanding work once every lease it could
//! hold has provably lapsed. Every schedule is precomputed from the link
//! plan, so the layer stays a pure function of the seed.

use std::collections::BTreeSet;

use sevf_fleet::front::Front;
use sevf_fleet::host::Settled;
use sevf_net::{LeaseConfig, LeaseLedger, LinkId, LinkPlan, NetConfig, PhiDetector};
use sevf_obs::MarkerKind;
use sevf_sim::{Job, Nanos};

use crate::service::{JobKind, State};

/// What every router↔host message names: the request, the dispatch epoch
/// it travels under, and the host end of the link.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Msg {
    request: usize,
    epoch: u32,
    host: usize,
}

/// The network layer's engine jobs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum NetJob {
    /// A dispatch message in flight from the router to the host.
    Dispatch(Msg),
    /// The router's dispatch timeout firing for a message the link lost.
    DispatchLost(Msg),
    /// An attempt outcome (`ok` or failed) in flight from the host back to
    /// the router. Host→router messages ride a reliable transport: a
    /// partition buffers them until the heal instead of dropping them.
    Completion(Msg, bool),
    /// A refusal heading back to the router: the host was parked, fenced,
    /// or dead when the dispatch arrived (transport-level errors are
    /// router-visible). Carries the epoch it refuses — a buffered old
    /// refusal must not cancel a fresh dispatch after the host rejoins.
    Nack(Msg),
    /// A heartbeat from `host` that survived the lossy links.
    Heartbeat { host: usize },
    /// The router probes the failure detector's deadline for `host`.
    SuspectCheck { host: usize },
    /// The router's lease-renewal tick for `host`.
    LeaseRenew { host: usize },
    /// A lease grant delivered to `host`.
    LeaseGrant { host: usize },
    /// `host`'s lease lapses: it parks unless a grant extended it.
    LeaseExpire { host: usize },
    /// The router fails a suspected host's outstanding work over, once
    /// every lease it ever granted that host has provably lapsed.
    FailoverSweep { host: usize },
    /// The router↔verifier link partitions (attestation blackout).
    VerifierDown,
    /// The router↔verifier link heals.
    VerifierUp,
}

/// Runtime state of the network layer.
pub(crate) struct NetRuntime {
    plan: LinkPlan,
    detector: Option<PhiDetector>,
    ledger: Option<LeaseLedger>,
    /// Requests the router believes each host is currently serving.
    outstanding: Vec<BTreeSet<usize>>,
    /// The router's current suspicion verdict per host.
    pub(crate) suspected: Vec<bool>,
    /// Per-message token stream for stateless link draws.
    seq: u64,
}

/// Token offset for heartbeat draws on the host→router links, so the
/// pre-scheduled heartbeat stream never correlates with the `seq`-tokened
/// message draws sharing the link.
const HB_TOKEN_BASE: u64 = 0x4845_0000_0000;

impl NetRuntime {
    pub(crate) fn new(cfg: &NetConfig, seed: u64, hosts: usize) -> Self {
        let plan =
            LinkPlan::generate(seed, cfg.clone(), hosts).expect("net config validated in new()");
        let margin = plan.max_delay();
        NetRuntime {
            detector: cfg
                .detector
                .map(|d| PhiDetector::new(hosts, d, cfg.heartbeat_every)),
            ledger: cfg.lease.map(|l| LeaseLedger::new(hosts, l, margin)),
            plan,
            outstanding: vec![BTreeSet::new(); hosts],
            suspected: vec![false; hosts],
            seq: 0,
        }
    }

    /// The lease protocol's knobs, when leases are on.
    pub(crate) fn lease_config(&self) -> Option<LeaseConfig> {
        self.plan.config().lease
    }

    /// Seeds the layer's schedules: heartbeats, detector probes, lease
    /// ticks, and verifier blackout edges.
    pub(crate) fn seed(&self, hosts: usize, front: &mut Front<'_, JobKind>, jobs: &mut Vec<Job>) {
        let cfg = self.plan.config();
        if let Some(det) = &self.detector {
            let beats = cfg.horizon.as_nanos() / cfg.heartbeat_every.as_nanos();
            for host in 0..hosts {
                for k in 1..=beats {
                    let send = cfg.heartbeat_every.scale(k);
                    let link = LinkId::HostToRouter(host);
                    if self.plan.host_cut(host, send).is_some()
                        || self.plan.lost(link, HB_TOKEN_BASE + k)
                    {
                        continue;
                    }
                    let at = send + self.plan.delay(link, HB_TOKEN_BASE + k);
                    front.mark(jobs, at, NetJob::Heartbeat { host });
                }
                front.mark(jobs, det.deadline(host), NetJob::SuspectCheck { host });
            }
        }
        if let Some(lease) = cfg.lease {
            let renews = cfg.horizon.as_nanos() / lease.renew_every.as_nanos();
            for host in 0..hosts {
                front.mark(jobs, lease.duration, NetJob::LeaseExpire { host });
                for k in 1..=renews {
                    let at = lease.renew_every.scale(k);
                    front.mark(jobs, at, NetJob::LeaseRenew { host });
                }
            }
        }
        for window in self.plan.verifier_windows() {
            front.mark(jobs, window.start, NetJob::VerifierDown);
            front.mark(jobs, window.end, NetJob::VerifierUp);
        }
    }

    /// Draws the next per-message link token.
    fn token(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }
}

impl State<'_> {
    fn net(&mut self) -> &mut NetRuntime {
        self.net.as_mut().expect("net jobs imply a net layer")
    }

    pub(crate) fn on_net(&mut self, job: NetJob, now: Nanos, inject: &mut Vec<Job>) {
        match job {
            NetJob::Dispatch(msg) => self.on_net_dispatch(msg, now, inject),
            NetJob::DispatchLost(msg) => {
                // The router's dispatch timeout fires for a lost message.
                if !self.stale(msg) {
                    self.net().outstanding[msg.host].remove(&msg.request);
                    self.metrics.net_timeouts += 1;
                    self.fail(msg.request, now, inject);
                }
            }
            NetJob::Completion(msg, ok) => self.on_net_completion(msg, ok, now, inject),
            NetJob::Nack(msg) => {
                // A refusal arrives back at the router.
                if !self.stale(msg) && self.net().outstanding[msg.host].remove(&msg.request) {
                    self.metrics.net_nacks += 1;
                    self.fail(msg.request, now, inject);
                }
            }
            NetJob::Heartbeat { host } => self.on_heartbeat(host, now, inject),
            NetJob::SuspectCheck { host } => self.on_suspect_check(host, now, inject),
            NetJob::LeaseRenew { host } => self.on_lease_renew(host, now, inject),
            NetJob::LeaseGrant { host } => self.on_lease_grant(host, now, inject),
            NetJob::LeaseExpire { host } => self.on_lease_expire(host, now, inject),
            NetJob::FailoverSweep { host } => self.on_failover_sweep(host, now, inject),
            NetJob::VerifierDown | NetJob::VerifierUp => {
                // Attestation blackout: the plane degrades by its
                // configured fail mode until the link heals.
                let up = matches!(job, NetJob::VerifierUp);
                let edge = if up {
                    MarkerKind::OutageEnd
                } else {
                    MarkerKind::OutageStart
                };
                self.front.rec.marker(edge, None, None, now);
                if let Some(plane) = self.front.plane.as_mut() {
                    plane.set_reachable(up);
                }
            }
        }
    }

    /// Whether a message is out of date: its request already finished, or
    /// moved to a newer dispatch epoch.
    fn stale(&self, msg: Msg) -> bool {
        self.front.is_done(msg.request) || self.front.epoch(msg.request) != msg.epoch
    }

    /// A routed request leaves the router as a message. Any earlier
    /// attempt's outstanding entry is cleared (queue failovers re-route
    /// without an outcome message), the request's epoch is bumped so stale
    /// messages fence, and the link draws decide whether and when the
    /// dispatch lands.
    pub(crate) fn send_dispatch(
        &mut self,
        request: usize,
        host: usize,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        let msg = Msg {
            request,
            epoch: self.front.bump_epoch(request),
            host,
        };
        let net = self.net.as_mut().expect("net mode");
        for set in &mut net.outstanding {
            set.remove(&request);
        }
        net.outstanding[host].insert(request);
        let token = net.token();
        let link = LinkId::RouterToHost(host);
        if net.plan.host_cut(host, now).is_some() || net.plan.lost(link, token) {
            self.metrics.net_lost += 1;
            let at = now + net.plan.config().dispatch_timeout;
            self.front.mark(inject, at, NetJob::DispatchLost(msg));
        } else {
            let at = now + net.plan.delay(link, token);
            self.front.mark(inject, at, NetJob::Dispatch(msg));
        }
    }

    /// Host→router messages (outcomes, refusals) ride a reliable
    /// transport: a partition buffers them until the heal instead of
    /// dropping them.
    fn send_host_msg(&mut self, host: usize, now: Nanos, job: NetJob, inject: &mut Vec<Job>) {
        let net = self.net.as_mut().expect("net mode");
        let token = net.token();
        let depart = net.plan.host_cut(host, now).unwrap_or(now);
        let at = depart + net.plan.delay(LinkId::HostToRouter(host), token);
        self.front.mark(inject, at, job);
    }

    /// A launch settled on `host`; its outcome crosses the host→router
    /// link. A lease-fenced settle is a refusal — the parked host may no
    /// longer complete this epoch's work — while anything else reports
    /// back as a (possibly failed) completion.
    pub(crate) fn report_outcome(
        &mut self,
        host: usize,
        now: Nanos,
        settled: Settled,
        inject: &mut Vec<Job>,
    ) {
        let msg = Msg {
            request: settled.request,
            epoch: settled.epoch,
            host,
        };
        let job = if settled.fenced {
            NetJob::Nack(msg)
        } else {
            NetJob::Completion(msg, settled.fault.is_none())
        };
        self.send_host_msg(host, now, job, inject);
    }

    /// A dispatch message lands on its host.
    fn on_net_dispatch(&mut self, msg: Msg, now: Nanos, inject: &mut Vec<Job>) {
        if self.stale(msg) {
            return;
        }
        let host = msg.host;
        if !self.hosts[host].available() || self.hosts[host].lease_blocked(now) {
            self.send_host_msg(host, now, NetJob::Nack(msg), inject);
            return;
        }
        self.hosts[host].assign(&mut self.front, msg.request, now, inject);
    }

    /// An attempt outcome arrives back at the router. Epoch fencing is
    /// what keeps conservation exact through split-brain: an outcome for
    /// a request the router already failed over (or finished) is counted
    /// as a suppressed duplicate, never as a second terminal state.
    fn on_net_completion(&mut self, msg: Msg, ok: bool, now: Nanos, inject: &mut Vec<Job>) {
        let Msg {
            request,
            epoch,
            host,
        } = msg;
        let (stale_epoch, done) = (
            self.front.epoch(request) != epoch,
            self.front.is_done(request),
        );
        self.net().outstanding[host].remove(&request);
        if stale_epoch {
            self.metrics.stale_completions += 1;
        } else if done {
            self.metrics.double_completion_attempts += u64::from(ok);
        } else if ok {
            self.complete(request, host, now);
            self.front.issue_next_closed(now, inject);
        } else {
            self.fail(request, now, inject);
        }
    }

    /// A heartbeat survived the links: feed the detector, clear any
    /// suspicion, and probe again at the new silence deadline.
    fn on_heartbeat(&mut self, host: usize, now: Nanos, inject: &mut Vec<Job>) {
        if !self.hosts[host].available() {
            return;
        }
        let net = self.net.as_mut().expect("net mode");
        let Some(det) = net.detector.as_mut() else {
            return;
        };
        det.heartbeat(host, now);
        let deadline = det.deadline(host);
        if std::mem::take(&mut net.suspected[host]) {
            self.metrics.suspicions_cleared += 1;
            self.front
                .rec
                .marker(MarkerKind::SuspicionCleared, None, Some(host), now);
        }
        self.front
            .mark(inject, deadline, NetJob::SuspectCheck { host });
    }

    /// The silence deadline passed without a fresh heartbeat: suspect the
    /// host and schedule the failover sweep for the instant every lease it
    /// could hold has provably lapsed.
    fn on_suspect_check(&mut self, host: usize, now: Nanos, inject: &mut Vec<Job>) {
        if !self.hosts[host].available() {
            return;
        }
        let net = self.net.as_mut().expect("net mode");
        // The heartbeat schedule ends at the horizon; silence past it is
        // the schedule running out, not a failure.
        if now >= net.plan.config().horizon || net.suspected[host] {
            return;
        }
        if !net
            .detector
            .as_ref()
            .is_some_and(|d| d.suspected(host, now))
        {
            return;
        }
        net.suspected[host] = true;
        self.metrics.suspicions += 1;
        let safe = net.ledger.as_ref().map_or(now, |l| l.safe_at(host));
        let sweep_at = safe.max(now) + Nanos::from_nanos(1);
        self.front
            .rec
            .marker(MarkerKind::Suspected, None, Some(host), now);
        self.front
            .mark(inject, sweep_at, NetJob::FailoverSweep { host });
    }

    /// The sweep fires: if the suspicion still stands (and the lease
    /// bound has truly passed), every outstanding request on the host
    /// fails over through fresh placement.
    fn on_failover_sweep(&mut self, host: usize, now: Nanos, inject: &mut Vec<Job>) {
        let net = self.net();
        if !net.suspected[host] {
            // The host heartbeated before the sweep: a false suspicion
            // that moved no work.
            self.metrics.false_suspicions += 1;
            return;
        }
        if net.ledger.as_ref().is_some_and(|l| l.safe_at(host) >= now) {
            // A renewal between suspicion episodes pushed the lease bound
            // past this sweep; the re-suspicion scheduled its own sweep at
            // the new bound.
            return;
        }
        for request in std::mem::take(&mut net.outstanding[host]) {
            if self.front.is_done(request) {
                continue;
            }
            self.metrics.failovers += 1;
            self.front
                .rec
                .marker(MarkerKind::Failover, Some(request), Some(host), now);
            self.route(request, now, inject);
        }
    }

    /// The router's renewal tick: ledger the grant (safety bounds cover
    /// delivery), then race it across the link.
    fn on_lease_renew(&mut self, host: usize, now: Nanos, inject: &mut Vec<Job>) {
        if !self.hosts[host].available() {
            return;
        }
        let net = self.net.as_mut().expect("net mode");
        if net.suspected[host] {
            return;
        }
        let Some(ledger) = net.ledger.as_mut() else {
            return;
        };
        ledger.on_grant(host, now);
        let token = net.token();
        let link = LinkId::RouterToHost(host);
        if net.plan.host_cut(host, now).is_none() && !net.plan.lost(link, token) {
            let at = now + net.plan.delay(link, token);
            self.front.mark(inject, at, NetJob::LeaseGrant { host });
        }
    }

    /// A grant lands on the host: the lease is monotone under reordered
    /// grants, and a parked host resumes serving.
    fn on_lease_grant(&mut self, host: usize, now: Nanos, inject: &mut Vec<Job>) {
        let (Some(config), Some(lease)) =
            (self.net().lease_config(), self.hosts[host].lease.as_mut())
        else {
            return;
        };
        let (before, parked) = (lease.expiry(), lease.parked());
        lease.renew(now, config);
        if lease.expiry() > before {
            self.front
                .mark(inject, lease.expiry(), NetJob::LeaseExpire { host });
        }
        if parked {
            self.drain(host, now, inject);
        }
    }

    /// The lease lapses with no grant extending it: the host parks. It
    /// purges its queue back to the router as refusals (buffered through
    /// any partition — a fenced host may refuse, never complete) and
    /// poisons its in-flight work the same way.
    fn on_lease_expire(&mut self, host: usize, now: Nanos, inject: &mut Vec<Job>) {
        // Renewal ticks end at the horizon; a lapse past it is the
        // schedule running out, not a lost grant.
        if now >= self.net().plan.config().horizon {
            return;
        }
        let h = &mut self.hosts[host];
        if !h.available() || !h.lease.as_mut().is_some_and(|l| l.park_if_lapsed(now)) {
            return;
        }
        self.metrics.lease_expiries += 1;
        self.front
            .rec
            .marker(MarkerKind::LeaseExpired, None, Some(host), now);
        for next in self.hosts[host].purge_backlog() {
            let msg = Msg {
                request: next.request,
                epoch: self.front.epoch(next.request),
                host,
            };
            self.send_host_msg(host, now, NetJob::Nack(msg), inject);
        }
        self.hosts[host].fence();
    }
}
