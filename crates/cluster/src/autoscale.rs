//! The autoscaler layer: the control-loop tick, scale-out through
//! warm-before-serve promotion, scale-in through the graceful-leave path,
//! raise-only pre-warming, and the audit log the invariant battery replays.

use sevf_fleet::front::Front;
use sevf_fleet::service::ServingTier;
use sevf_obs::MarkerKind;
use sevf_scale::{Autoscaler, AutoscalerConfig, Observation, ScaleAction};
use sevf_sim::{Job, Nanos};

use crate::service::{JobKind, State};

/// What the autoscaler did over one run: the decisions the cluster applied,
/// counted on the lines that place their obs markers (so the marker counts
/// equal them exactly), plus the full audit log of applied membership and
/// warm-pool changes, which the invariant battery replays.
#[derive(Debug, Clone, Default)]
pub struct AutoscaleRollup {
    /// The policy that ran ("reactive" or "predictive").
    pub policy: &'static str,
    /// Control ticks processed.
    pub ticks: u64,
    /// Scale-out decisions emitted.
    pub scale_outs: u64,
    /// Scale-in decisions emitted.
    pub scale_ins: u64,
    /// Pre-warm prescriptions emitted.
    pub prewarms: u64,
    /// Smallest live-host count observed at a control tick.
    pub min_live: usize,
    /// Largest live-host count observed at a control tick.
    pub max_live: usize,
    /// Applied changes, in virtual-time order.
    pub events: Vec<ScaleEvent>,
}

/// One applied autoscaling change, as the cluster recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleEvent {
    /// Spare hosts joined via the graceful-join path.
    Out {
        /// When the decision was applied.
        at: Nanos,
        /// Hosts actually joined (bounded by the spare supply).
        added: usize,
        /// Live hosts after the join.
        live: usize,
        /// Sum of per-host warm targets after the join.
        warm_sum: usize,
    },
    /// Hosts drained via the graceful-leave path.
    In {
        /// When the decision was applied.
        at: Nanos,
        /// Hosts actually drained (only idle, empty-queue victims qualify).
        removed: usize,
        /// Live hosts after the drain.
        live: usize,
        /// In-flight launches across the chosen victims (must be 0).
        victims_inflight: usize,
        /// Queued requests across the chosen victims (must be 0).
        victims_queued: usize,
        /// Sum of per-host warm targets after the drain.
        warm_sum: usize,
    },
    /// Per-host warm-pool targets re-prescribed ahead of a ramp.
    PreWarm {
        /// When the prescription was applied.
        at: Nanos,
        /// The per-host target applied to every live host.
        per_host: usize,
        /// The cluster-wide warm budget being spread.
        budget: usize,
        /// Live hosts the prescription covered.
        live: usize,
        /// Sum of per-host warm targets after the prescription.
        warm_sum: usize,
    },
}

/// The autoscaler layer's engine jobs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ScaleJob {
    /// The control-loop tick.
    Tick,
}

/// Live autoscaler state: the pure decision engine, the arrivals its next
/// Observation reads, and the run's rollup, which the cluster counts into
/// as it applies each decision and hands over whole at the end.
pub(crate) struct ScalerState {
    pub(crate) auto: Autoscaler,
    /// Requests that arrived since the previous control tick.
    pub(crate) arrivals_since: usize,
    /// The run's rollup, counted into as each decision is applied.
    pub(crate) rollup: AutoscaleRollup,
}

impl ScalerState {
    /// Builds the scaler over `hosts` starting hosts and seeds its control
    /// loop: one tick per period up to the last arrival (serving continues
    /// past it; extending ticks further would stretch every arm's
    /// makespan).
    pub(crate) fn new(
        cfg: &AutoscalerConfig,
        hosts: usize,
        last_arrival: Nanos,
        front: &mut Front<'_, JobKind>,
        jobs: &mut Vec<Job>,
    ) -> Self {
        let mut at = cfg.tick;
        while at <= last_arrival {
            front.mark(jobs, at, ScaleJob::Tick);
            at += cfg.tick;
        }
        ScalerState {
            auto: Autoscaler::new(*cfg).expect("autoscaler config validated in new()"),
            arrivals_since: 0,
            rollup: AutoscaleRollup {
                policy: cfg.policy.name(),
                min_live: hosts,
                max_live: hosts,
                ..AutoscaleRollup::default()
            },
        }
    }
}

impl State<'_> {
    pub(crate) fn on_scale(&mut self, job: ScaleJob, now: Nanos, inject: &mut Vec<Job>) {
        match job {
            ScaleJob::Tick => self.on_autoscale_tick(now, inject),
        }
    }

    /// One autoscaler control tick: build the Observation, run the pure
    /// decision engine, apply the result through the existing graceful
    /// membership paths. One obs marker per emitted decision — never per
    /// host — counted into the rollup on the same line, so marker counts
    /// equal the rollup's counts exactly.
    fn on_autoscale_tick(&mut self, now: Nanos, inject: &mut Vec<Job>) {
        let live: Vec<usize> = self
            .hosts
            .iter()
            .filter(|h| h.available())
            .map(|h| h.id)
            .collect();
        // Launch dispatches only: background warm-pool refills are in
        // flight on the host too, and counting them would read a freshly
        // re-warmed cluster as overloaded.
        let backlog: usize = live.iter().map(|&h| self.hosts[h].inflight).sum();
        let queued: usize = live.iter().map(|&h| self.hosts[h].queue_len()).sum();
        // Provisioned = routable + warming: spares mid-warm-up are capacity
        // already paid for, so the scaler must not order them again.
        let provisioned = self.live_count();
        let sc = self.scaler.as_mut().expect("scale jobs imply a scaler");
        let obs = Observation {
            now,
            live_hosts: provisioned,
            arrivals: std::mem::take(&mut sc.arrivals_since),
            backlog,
            queued,
        };
        let decision = sc.auto.tick(&obs);
        sc.rollup.ticks += 1;
        let min_hosts = sc.auto.config().min_hosts;
        let warm_budget = sc.auto.config().warm_budget;
        let warm_tier = self.config.tier == ServingTier::WarmPool;

        // Pre-warm first: targets move before membership does, so a ramp's
        // refills are already in flight when the new hosts take traffic.
        if let Some(per_host) = decision.prewarm {
            self.front.rec.marker(MarkerKind::PreWarm, None, None, now);
            self.scale_rollup().prewarms += 1;
            if warm_tier {
                // Raise-only: a prescription sized for the post-change
                // fleet must not evict a serving host's slots while the
                // ramp is still on it — shrinking waits for the rebalance
                // that runs when membership actually changes.
                for &h in &live {
                    let target = self.hosts[h].pool.target_per_class().max(per_host);
                    self.hosts[h].set_warm_target(target);
                }
                for &h in &live {
                    self.hosts[h].kick_refills(&mut self.front, now, inject);
                }
            }
            let event = ScaleEvent::PreWarm {
                at: now,
                per_host,
                budget: warm_budget,
                live: live.len(),
                warm_sum: self.warm_target_sum(),
            };
            self.scale_rollup().events.push(event);
        }

        match decision.action {
            ScaleAction::ScaleOut { add } => {
                self.front.rec.marker(MarkerKind::ScaleOut, None, None, now);
                self.scale_rollup().scale_outs += 1;
                // Lowest-id cold spares join first: deterministic order,
                // and a spare felled by a scheduled outage stays out.
                let spares: Vec<usize> = self
                    .hosts
                    .iter()
                    .filter(|h| h.departed && !h.out && !h.warming)
                    .map(|h| h.id)
                    .take(add)
                    .collect();
                // Warm-before-serve: on the warm-pool tier a spare bills
                // host-seconds and fills its pool first, joining the
                // routable set only once warm (promotion happens as its
                // refills complete). JSQ would otherwise dogpile its
                // empty PSP with cold SEV launches — the exact tail the
                // scale-out is trying to avoid. Other tiers have nothing
                // to pre-warm and join directly.
                let target = decision
                    .prewarm
                    .unwrap_or_else(|| warm_budget.div_ceil((live.len() + spares.len()).max(1)));
                for &h in &spares {
                    if warm_tier {
                        self.begin_warming(h, target, now, inject);
                    } else {
                        self.on_host_up(h, true, now, inject);
                    }
                }
                self.record_scale(Some(ScaleEvent::Out {
                    at: now,
                    added: spares.len(),
                    live: self.live_count(),
                    warm_sum: self.warm_target_sum(),
                }));
            }
            ScaleAction::ScaleIn { remove } => {
                self.front.rec.marker(MarkerKind::ScaleIn, None, None, now);
                self.scale_rollup().scale_ins += 1;
                // Highest-id idle victims drain first; a host with
                // in-flight launches or an undrained queue never drains
                // (the invariant battery replays this from the audit log).
                // In-flight *launches* block a drain; background refills do
                // not (a graceful leave lets them finish harmlessly).
                let allowed = provisioned.saturating_sub(min_hosts);
                let victims: Vec<usize> = self
                    .hosts
                    .iter()
                    .rev()
                    .filter(|h| h.available() && h.inflight == 0 && h.queue_len() == 0)
                    .map(|h| h.id)
                    .take(remove.min(allowed))
                    .collect();
                let victims_inflight = victims.iter().map(|&h| self.hosts[h].inflight).sum();
                let victims_queued = victims.iter().map(|&h| self.hosts[h].queue_len()).sum();
                for &h in &victims {
                    self.on_host_down(h, true, now, inject);
                }
                self.record_scale(Some(ScaleEvent::In {
                    at: now,
                    removed: victims.len(),
                    live: self.live_count(),
                    victims_inflight,
                    victims_queued,
                    warm_sum: self.warm_target_sum(),
                }));
            }
            ScaleAction::Hold => self.record_scale(None),
        }
    }

    /// Appends an applied change (if any) to the audit log and folds the
    /// current live count into the observed extrema.
    fn record_scale(&mut self, event: Option<ScaleEvent>) {
        let live_now = self.live_count();
        let rollup = self.scale_rollup();
        rollup.events.extend(event);
        rollup.min_live = rollup.min_live.min(live_now);
        rollup.max_live = rollup.max_live.max(live_now);
    }

    /// The rollup the tick in hand counts into.
    fn scale_rollup(&mut self) -> &mut AutoscaleRollup {
        &mut self
            .scaler
            .as_mut()
            .expect("scale jobs imply a scaler")
            .rollup
    }

    /// Provisioned hosts: routable plus warming spares. This is the count
    /// the autoscaler's bounds, audit events, and host-seconds bill all
    /// speak in — a warming spare is capacity being paid for.
    fn live_count(&self) -> usize {
        self.hosts
            .iter()
            .filter(|h| h.available() || h.warming)
            .count()
    }

    /// Starts warming a cold spare the scaler ordered up: its host-seconds
    /// clock starts and its pool fills toward `target`, but it stays out of
    /// the routable set until [`State::maybe_promote`] sees it warm.
    fn begin_warming(&mut self, host: usize, target: usize, now: Nanos, inject: &mut Vec<Job>) {
        self.hosts[host].warming = true;
        self.members.open(host, now);
        self.hosts[host].set_warm_target(target);
        self.hosts[host].kick_refills(&mut self.front, now, inject);
    }

    /// Promotes a warming spare into the routable set once every class has
    /// a couple of ready slots — enough to serve its first burst warm while
    /// the remaining refills converge in the background. Waiting for the
    /// full target would idle a nearly-warm host through the very ramp it
    /// was ordered up for.
    pub(crate) fn maybe_promote(&mut self, host: usize, now: Nanos, inject: &mut Vec<Job>) {
        let pool = &self.hosts[host].pool;
        let floor = pool.target_per_class().min(2);
        let warm = (0..self.front.catalog.len()).all(|c| pool.ready(c) >= floor);
        if !warm {
            return;
        }
        self.hosts[host].warming = false;
        self.on_host_up(host, true, now, inject);
    }

    /// Sum of per-host warm targets across provisioned hosts — the quantity
    /// the warm-budget conservation invariant bounds.
    fn warm_target_sum(&self) -> usize {
        self.hosts
            .iter()
            .filter(|h| h.available() || h.warming)
            .map(|h| h.pool.target_per_class())
            .sum()
    }

    /// A background refill finished on `host`. A warming spare chains the
    /// next refill (kicks start one per class, so it converges one
    /// completion at a time; this also retries refills a fault poisoned),
    /// then promotes once every class is warm enough.
    pub(crate) fn after_refill(
        &mut self,
        host: usize,
        class: usize,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        if self.hosts[host].warming {
            self.hosts[host].start_refill(&mut self.front, class, now, inject);
            self.maybe_promote(host, now, inject);
        }
    }
}
