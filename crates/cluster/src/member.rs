//! The membership layer: whole-host outages, graceful leave/join, the
//! TCB-rollout and revocation drills, warm-budget rebalancing, and the
//! host-seconds availability ledger.

use sevf_fleet::front::Front;
use sevf_fleet::host::Host;
use sevf_fleet::service::ServingTier;
use sevf_obs::MarkerKind;
use sevf_sim::{Job, Nanos};

use crate::config::{ClusterConfig, HostEventKind};
use crate::service::{JobKind, State};

/// The membership layer's engine jobs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MemberJob {
    /// `host` drops off the cluster (outage) or departs (graceful).
    HostDown { host: usize, departure: bool },
    /// `host` comes back from an outage or rejoins after departing.
    HostUp { host: usize, departure: bool },
    /// A TCB/firmware rollout re-measures `host` (re-attestation storm).
    TcbRollout { host: usize },
    /// `host`'s chip key is distrusted (key-compromise drill).
    Revoke { host: usize },
}

/// Availability accounting: pure bookkeeping, no RNG, no metric the
/// serving path reads.
pub(crate) struct Membership {
    /// Virtual instant each host last became available; `None` while the
    /// host is out, departed, or a cold spare.
    live_since: Vec<Option<Nanos>>,
    /// Host-seconds of availability accrued per host.
    host_secs: Vec<f64>,
}

impl Membership {
    /// Opens the ledger (the first `config.hosts` hosts are live from time
    /// zero) and seeds the layer's schedule: per host, its fault domain's
    /// PSP resets and warm crashes (the serving core's own markers); then
    /// the scheduled outages, membership events, the staggered TCB
    /// rollout, and the revocation drill.
    pub(crate) fn new(
        config: &ClusterConfig,
        hosts: &[Host],
        front: &mut Front<'_, JobKind>,
        jobs: &mut Vec<Job>,
    ) -> Self {
        for h in hosts {
            h.seed_faults(front, jobs);
        }
        for o in &config.outages {
            let (host, departure) = (o.host, false);
            front.mark(jobs, o.start, MemberJob::HostDown { host, departure });
            front.mark(jobs, o.end, MemberJob::HostUp { host, departure });
        }
        for event in &config.events {
            let (host, departure) = (event.host, true);
            let job = match event.kind {
                HostEventKind::Leave => MemberJob::HostDown { host, departure },
                HostEventKind::Join => MemberJob::HostUp { host, departure },
            };
            front.mark(jobs, event.at, job);
        }
        // The re-attestation storm: the rollout walks the hosts on a
        // stagger, and the key-compromise drill lands as one marker.
        if let Some(rollout) = &config.tcb_rollout {
            for host in 0..config.hosts {
                let at = rollout.start + rollout.stagger.scale(host as u64);
                front.mark(jobs, at, MemberJob::TcbRollout { host });
            }
        }
        if let Some(drill) = &config.revocation {
            front.mark(jobs, drill.at, MemberJob::Revoke { host: drill.host });
        }
        Membership {
            live_since: hosts
                .iter()
                .map(|h| h.available().then_some(Nanos::ZERO))
                .collect(),
            host_secs: vec![0.0; hosts.len()],
        }
    }

    /// Starts `host`'s host-seconds clock unless it is already running (a
    /// warming spare bills from warm-up start, not from promotion).
    pub(crate) fn open(&mut self, host: usize, now: Nanos) {
        self.live_since[host].get_or_insert(now);
    }

    /// Closes every still-open availability interval against the end of the
    /// run and sums the ledger: the provisioning-cost axis of the frontier.
    pub(crate) fn close(&mut self, makespan: Nanos) -> f64 {
        for host in 0..self.host_secs.len() {
            self.stop(host, makespan);
        }
        self.host_secs.iter().sum()
    }

    fn stop(&mut self, host: usize, now: Nanos) {
        if let Some(since) = self.live_since[host].take() {
            self.host_secs[host] += now.saturating_sub(since).as_secs_f64();
        }
    }
}

impl State<'_> {
    pub(crate) fn on_member(&mut self, job: MemberJob, now: Nanos, inject: &mut Vec<Job>) {
        match job {
            MemberJob::HostDown { host, departure } => {
                self.on_host_down(host, departure, now, inject);
            }
            MemberJob::HostUp { host, departure } => self.on_host_up(host, departure, now, inject),
            MemberJob::TcbRollout { host } => {
                // New firmware: the host's TCB version bumps (every cached
                // cert/report under the old version stops matching) and its
                // templates re-measure on next use.
                self.front
                    .rec
                    .marker(MarkerKind::TcbRollout, None, Some(host), now);
                if let Some(plane) = self.front.plane.as_mut() {
                    plane.bump_tcb(host).expect("plane sized to cluster hosts");
                }
                self.hosts[host].templates.clear();
            }
            MemberJob::Revoke { host } => {
                // Key compromise: distrust the chip at the root, then treat
                // the host like a permanent outage — its templates die with
                // the key (§6.2), its in-flight and queued work fails over,
                // and every re-launched guest re-attests on a survivor.
                self.front
                    .rec
                    .marker(MarkerKind::Revocation, None, Some(host), now);
                if let Some(plane) = self.front.plane.as_mut() {
                    plane
                        .revoke_host(host)
                        .expect("plane sized to cluster hosts");
                }
                self.on_host_down(host, false, now, inject);
            }
        }
    }

    /// Settles availability accounting after `host`'s flags changed: opens
    /// or closes its host-seconds interval.
    fn note_liveness(&mut self, host: usize, was_available: bool, now: Nanos) {
        match (was_available, self.hosts[host].available()) {
            (false, true) => self.members.open(host, now),
            (true, false) => self.members.stop(host, now),
            _ => {}
        }
    }

    /// A host drops out. An outage poisons its in-flight work and destroys
    /// its warm pool and template cache; a graceful departure lets in-flight
    /// work finish. Either way its queued requests fail over through the
    /// router, and the warm budget re-spreads over the survivors.
    pub(crate) fn on_host_down(
        &mut self,
        host: usize,
        departure: bool,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        let was_available = self.hosts[host].available();
        if departure {
            self.hosts[host].departed = true;
        } else {
            self.hosts[host].out = true;
            self.front
                .rec
                .marker(MarkerKind::OutageStart, None, Some(host), now);
        }
        self.note_liveness(host, was_available, now);
        self.router.host_left(host);
        if !departure {
            self.hosts[host].crash(self.front.catalog.len());
        }
        // Fail over the queue: every waiter re-enters the router and lands
        // on a surviving host (or sheds there).
        for next in self.hosts[host].purge_backlog() {
            self.metrics.failovers += 1;
            self.front
                .rec
                .marker(MarkerKind::Failover, Some(next.request), Some(host), now);
            self.route(next.request, now, inject);
        }
        self.rebalance_pools(true, now, inject);
    }

    /// A host comes back (outage over) or rejoins (after a departure). An
    /// outage survivor returns with a cold cache and an empty pool — its
    /// classes re-measure on next use.
    pub(crate) fn on_host_up(
        &mut self,
        host: usize,
        departure: bool,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        let was_available = self.hosts[host].available();
        if departure {
            self.hosts[host].departed = false;
        } else {
            self.hosts[host].out = false;
            self.front
                .rec
                .marker(MarkerKind::OutageEnd, None, Some(host), now);
        }
        self.note_liveness(host, was_available, now);
        if !self.hosts[host].available() {
            // A warming spare recovering from an outage resumes its
            // refills; it still only joins through promotion.
            if self.hosts[host].warming {
                self.hosts[host].kick_refills(&mut self.front, now, inject);
            }
            return;
        }
        self.router.host_joined(host);
        self.rebalance_pools(false, now, inject);
        self.drain(host, now, inject);
    }

    /// Re-spreads the cluster-wide warm budget (`warm_target * hosts` per
    /// class) over the live hosts. SEV guests cannot migrate off their PSP,
    /// so shrunk targets evict and grown targets re-provision via template
    /// launches on the new owners.
    ///
    /// Under an autoscaler a join-triggered re-spread (`shrink == false`)
    /// is raise-only: evicting a serving host's deep pool the moment a
    /// spare promotes would throw away exactly the warm capacity the ramp
    /// is about to need. The transient overshoot (bounded by one extra
    /// budget) is recovered at the next shrinking change — scale-in, leave,
    /// or failure — which re-spreads exactly.
    fn rebalance_pools(&mut self, shrink: bool, now: Nanos, inject: &mut Vec<Job>) {
        if self.config.tier != ServingTier::WarmPool {
            return;
        }
        // With an autoscaler the budget is its own knob (the fleet can
        // grow past `hosts`, so `warm_target * hosts` no longer covers it).
        let budget = match &self.scaler {
            Some(sc) => sc.auto.config().warm_budget,
            None => self.config.warm_target * self.config.hosts,
        };
        // Warming spares hold a budget slice too — zeroing their targets
        // mid-warm-up would strand them un-promotable.
        let keeps = |h: &Host| h.available() || h.warming;
        let live = self.hosts.iter().filter(|h| keeps(h)).count();
        let per_host = if live == 0 { 0 } else { budget.div_ceil(live) };
        let raise_only = !shrink && self.scaler.is_some();
        for h in &mut self.hosts {
            let target = if !keeps(h) {
                0
            } else if raise_only {
                h.pool.target_per_class().max(per_host)
            } else {
                per_host
            };
            h.set_warm_target(target);
        }
        self.metrics.rebalances += 1;
        self.front
            .rec
            .marker(MarkerKind::Rebalance, None, None, now);
        for h in self.hosts.iter_mut().filter(|h| keeps(h)) {
            h.kick_refills(&mut self.front, now, inject);
        }
        // A shrunk target can leave a warming spare already at target with
        // no refill left to complete — promote it here, not never.
        for host in 0..self.hosts.len() {
            if self.hosts[host].warming {
                self.maybe_promote(host, now, inject);
            }
        }
    }
}
