//! Seeded property test of the shared serving core at effect level.
//!
//! Drives one [`Front`] and one [`Host`] by hand — no DES engine: the test
//! is the scheduler, firing pending markers and completing in-flight jobs
//! in a seeded random order on a monotone clock — and checks, after every
//! step, what the two services rely on:
//!
//! * every request handed to the host ends in exactly one of {a launch
//!   injected for it, queued, a terminal outcome};
//! * the in-flight ledger: a PSP reset dooms exactly the undoomed PSP
//!   holders and leaves none; an outage dooms everything in flight and no
//!   later reset overwrites that; a lapsed lease fences everything in
//!   flight; every doomed job is still in flight; and each job settles as
//!   what struck it (outage, else reset, else the lease), never otherwise;
//! * queue + in-flight never exceed `queue_bound + max_inflight` (warm
//!   hits bypass admission, so on the warm tier only the queue is bounded);
//! * every request reaches exactly one terminal state, and tags stay in
//!   lockstep with injected jobs;
//! * the host's counters equal what the harness saw it decide: warm hits
//!   plus misses are the warm-tier assignments, cache hits plus misses the
//!   template-tier dispatches (misses the fills), sheds the admission
//!   refusals, breaker trips the model breaker's trips, evictions the
//!   surplus a warm-target shrink drops plus the refills that land at or
//!   above target. The tier a request is served at comes from a model of
//!   the per-class circuit breakers, stepped where the host steps its own.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sevf_fleet::blueprint::{Catalog, ClassSpec};
use sevf_fleet::front::{Front, ServeJob, Serving};
use sevf_fleet::host::Host;
use sevf_fleet::prelude::*;
use sevf_obs::{Outcome, Recorder};
use sevf_sim::fault::FaultKind;
use sevf_sim::rng::XorShift64;
use sevf_sim::{DesEngine, Job, Nanos};

const REQUESTS: usize = 240;

/// The per-class circuit breaker as the host runs it: three consecutive
/// failures trip one level, one trip per 500 ms cooldown, and each elapsed
/// cooldown (or a success past it) heals a level.
#[derive(Debug, Clone, Copy, Default)]
struct Breaker {
    streak: u32,
    level: usize,
    open_until: Nanos,
}

impl Breaker {
    const COOLDOWN: Nanos = Nanos::from_millis(500);

    /// Heals what time has healed and returns the level.
    fn heal(&mut self, now: Nanos) -> usize {
        while self.level > 0 && now >= self.open_until {
            self.level -= 1;
            self.open_until += Self::COOLDOWN;
        }
        self.level
    }

    /// Returns whether this failure tripped a level.
    fn failure(&mut self, now: Nanos) -> bool {
        if now < self.open_until {
            return false;
        }
        self.streak += 1;
        if self.streak < 3 {
            return false;
        }
        self.streak = 0;
        self.level += 1;
        self.open_until = now + Self::COOLDOWN;
        true
    }

    fn success(&mut self, now: Nanos) {
        self.streak = 0;
        if self.level > 0 && now >= self.open_until {
            self.level -= 1;
            self.open_until = now + Self::COOLDOWN;
        }
    }
}

/// What the harness saw the host decide, in the host's counters' terms.
#[derive(Debug, Default, PartialEq)]
struct Seen {
    warm_assigns: u64,
    warm_takes: u64,
    template_dispatches: u64,
    fills: u64,
    sheds: u64,
    trips: u64,
    evicted: u64,
}

struct Harness<'a> {
    front: Front<'a, ServeJob>,
    host: Host,
    inject: Vec<Job>,
    /// Job indices not yet fired/completed.
    pending: Vec<usize>,
    /// How many injected jobs `pending` has taken in so far.
    absorbed: usize,
    /// The ledger's model: what a reset or an outage doomed each
    /// in-flight job to, and which jobs a lapsed lease fenced.
    doomed: BTreeMap<usize, FaultKind>,
    fenced: BTreeSet<usize>,
    doomed_total: usize,
    admission: AdmissionConfig,
    completed: usize,
    now: Nanos,
    /// The model breakers, one per class.
    breakers: Vec<Breaker>,
    /// The host's queue, in its pop order (one lane: FIFO).
    queued: VecDeque<usize>,
    /// Arrival instant per request, for the deadline a pop checks.
    arrived: BTreeMap<usize, Nanos>,
    seen: Seen,
}

impl Harness<'_> {
    /// Moves freshly injected jobs into the pending set.
    fn absorb(&mut self) {
        assert_eq!(self.inject.len(), self.front.meta.len(), "tags in lockstep");
        let fills = self.front.meta[self.absorbed..]
            .iter()
            .filter(|tag| matches!(tag, ServeJob::Launch(l) if l.fill))
            .count();
        self.seen.fills += fills as u64;
        self.pending.extend(self.absorbed..self.front.meta.len());
        self.absorbed = self.front.meta.len();
    }

    /// The tier `class` is served at now, after the model breaker heals —
    /// the step the host takes at every assignment and every pop.
    fn tier(&mut self, class: usize) -> Option<ServingTier> {
        let level = self.breakers[class].heal(self.now);
        self.front.knobs.tier.degraded(level)
    }

    /// How many launches for `request` were injected since tag `since`.
    fn launched(&self, request: usize, since: usize) -> usize {
        self.front.meta[since..]
            .iter()
            .filter(|tag| matches!(tag, ServeJob::Launch(l) if l.request == request))
            .count()
    }

    /// Counts a dispatch at `tier`: every tier but cold looks the template
    /// up.
    fn dispatched(&mut self, tier: ServingTier) {
        if tier != ServingTier::Cold {
            self.seen.template_dispatches += 1;
        }
    }

    /// Routes `request` onto the host and checks the one-of-three effect.
    fn route(&mut self, request: usize) {
        if !self.front.screen(request, self.now, &mut self.inject) {
            assert!(self.front.is_done(request));
            return;
        }
        let class = self.front.class_of(request);
        let tier = self.tier(class);
        let ready = self.host.pool.ready(class);
        let tags_before = self.front.meta.len();
        let queued_before = self.host.queue_len();
        self.host
            .assign(&mut self.front, request, self.now, &mut self.inject);
        let launched = self.launched(request, tags_before);
        let queued = self.host.queue_len() - queued_before;
        let terminal = self.front.is_done(request) as usize;
        assert_eq!(
            launched + queued + terminal,
            1,
            "request {request}: launched {launched} queued {queued} terminal {terminal}"
        );
        let Some(tier) = tier else {
            assert_eq!(terminal, 1, "request {request}: breaker shed");
            return;
        };
        let warm = tier == ServingTier::WarmPool;
        if warm {
            self.seen.warm_assigns += 1;
        }
        if warm && ready > 0 {
            // A warm hit: the launch is the vCPU kick, no dispatch.
            self.seen.warm_takes += 1;
            assert_eq!(launched, 1, "request {request}: warm hit");
        } else if launched == 1 {
            self.dispatched(tier);
        } else if queued == 1 {
            self.queued.push_back(request);
        } else {
            self.seen.sheds += 1;
        }
    }

    /// Drains the host's queue, then replays its pops on the model: each
    /// popped request timed out, was breaker-shed, or was dispatched.
    fn drain(&mut self) {
        let (depth, tags_before) = (self.host.queue_len(), self.front.meta.len());
        let stray = self
            .host
            .drain_queue(&mut self.front, self.now, &mut self.inject);
        assert!(stray.is_none(), "posture is off");
        let deadline = self.front.knobs.recovery.deadline.expect("resilient");
        for _ in self.host.queue_len()..depth {
            let request = self
                .queued
                .pop_front()
                .expect("the model queue holds the pop");
            if self.now > self.arrived[&request] + deadline {
                assert!(self.front.is_done(request), "request {request}: timeout");
                continue;
            }
            match self.tier(self.front.class_of(request)) {
                None => assert!(self.front.is_done(request), "request {request}: shed"),
                Some(tier) => {
                    assert_eq!(self.launched(request, tags_before), 1, "request {request}");
                    self.dispatched(tier);
                }
            }
        }
    }

    /// Fires one pending job.
    fn step(&mut self, job: usize) {
        match self.front.meta[job] {
            ServeJob::Arrival { request } => {
                self.front.on_arrival(request, self.now);
                self.arrived.insert(request, self.now);
                self.route(request);
            }
            ServeJob::Retry { request } => self.route(request),
            ServeJob::Launch(launch) => {
                let settled = self.host.settle(&mut self.front, job, self.now, launch);
                let breaker = &mut self.breakers[launch.class];
                match settled.fault {
                    None => breaker.success(self.now),
                    Some(_) => self.seen.trips += breaker.failure(self.now) as u64,
                }
                let was_fenced = self.fenced.remove(&job);
                let struck = self
                    .doomed
                    .remove(&job)
                    .or(was_fenced.then_some(FaultKind::NetPartition));
                assert_eq!(settled.poison, struck);
                assert_eq!(settled.fenced, was_fenced);
                assert_eq!(settled.fault, struck, "no plan, no plane");
                if struck.is_some() {
                    self.front.handle_failure(
                        settled.request,
                        self.now,
                        &mut self.inject,
                        [&self.host],
                    );
                    self.drain();
                } else {
                    self.front
                        .finish(settled.request, Outcome::Completed, self.now);
                    self.completed += 1;
                    self.drain();
                    self.front.issue_next_closed(self.now, &mut self.inject);
                }
            }
            ServeJob::Replenish { class, .. } => {
                let struck = self.doomed.remove(&job).is_some() | self.fenced.remove(&job);
                let pool = &self.host.pool;
                if !struck && pool.ready(class) >= pool.target_per_class() {
                    self.seen.evicted += 1;
                }
                self.host.refill_done(&mut self.front, job, self.now, class);
            }
            ServeJob::ResetStart { .. }
            | ServeJob::ResetEnd { .. }
            | ServeJob::WarmCrash { .. } => {
                unreachable!("no fault plan seeded")
            }
        }
    }

    /// The warm target moves, as a cluster's rebalance moves it: a shrink
    /// evicts each class's surplus ready slots at once (refills still in
    /// flight land above target later), and a raise starts refills.
    fn retarget(&mut self, target: usize) {
        let pool = &self.host.pool;
        let surplus: usize = (0..self.front.catalog.len())
            .map(|class| pool.ready(class).saturating_sub(target))
            .sum();
        self.seen.evicted += surplus as u64;
        self.host.set_warm_target(target);
        self.host
            .kick_refills(&mut self.front, self.now, &mut self.inject);
    }

    /// The launches and refills in flight on the host.
    fn in_flight(&self) -> Vec<usize> {
        let launched = |job: &usize| {
            matches!(
                self.front.meta[*job],
                ServeJob::Launch(_) | ServeJob::Replenish { .. }
            )
        };
        self.pending.iter().copied().filter(launched).collect()
    }

    /// The undoomed in-flight jobs with work on the PSP, read off the
    /// injected jobs themselves.
    fn psp_holders(&self) -> Vec<usize> {
        let psp = Some(self.host.psp);
        let on_psp = |job: &usize| {
            let mut segments = self.inject[*job].segments.iter();
            segments.any(|s| s.resource == psp && s.duration > Nanos::ZERO)
        };
        let mut jobs = self.in_flight();
        jobs.retain(|job| on_psp(job) && !self.doomed.contains_key(job));
        jobs
    }

    /// A firmware reset strikes now: exactly the undoomed PSP holders are
    /// doomed, and what an earlier outage doomed stays an outage.
    fn reset(&mut self) {
        let holders = self.psp_holders();
        let poisoned_before = self.host.poisoned();
        self.host.reset_start(&mut self.front, self.now);
        assert_eq!(self.host.psp_holders(), 0);
        assert_eq!(self.host.poisoned(), poisoned_before + holders.len());
        self.doomed_total += holders.len();
        for job in holders {
            self.doomed.insert(job, FaultKind::PspReset);
        }
    }

    /// The machine dies and comes straight back: everything in flight is
    /// doomed, overwriting what a reset had doomed.
    fn outage(&mut self) {
        self.host.crash(self.front.catalog.len());
        for job in self.in_flight() {
            self.doomed.insert(job, FaultKind::HostOutage);
        }
        assert_eq!(self.host.psp_holders(), 0);
    }

    /// The lease lapses: everything in flight may only be refused.
    fn fence(&mut self) {
        self.host.fence();
        self.fenced.extend(self.in_flight());
    }

    /// The host's ledger agrees with the model, and the model names only
    /// jobs still in flight.
    fn check_ledger(&self) {
        assert_eq!(self.host.psp_holders(), self.psp_holders().len());
        assert_eq!(self.host.poisoned(), self.doomed.len());
        let in_flight: BTreeSet<usize> = self.in_flight().into_iter().collect();
        assert!(self.doomed.keys().all(|job| in_flight.contains(job)));
        assert!(self.fenced.is_subset(&in_flight));
    }

    /// The host's counters equal what the harness saw it decide.
    fn check_counts(&self) {
        let m = &self.host.metrics;
        let counted = Seen {
            warm_assigns: m.warm_hits + m.warm_misses,
            warm_takes: m.warm_hits,
            template_dispatches: m.cache_hits + m.cache_misses,
            fills: m.cache_misses,
            sheds: m.shed,
            trips: m.breaker_trips,
            evicted: m.evicted,
        };
        assert_eq!(counted, self.seen);
        assert_eq!(self.queued.len(), self.host.queue_len());
    }

    fn check_bounds(&self) {
        assert!(self.host.queue_len() <= self.admission.queue_bound);
        // Warm hits bypass admission (one vCPU kick, no launch), so only
        // the launching tiers bound their in-flight count.
        if self.front.knobs.tier != ServingTier::WarmPool {
            assert!(
                self.host.queue_len() + self.host.inflight
                    <= self.admission.queue_bound + self.admission.max_inflight
            );
            assert!(self.host.inflight <= self.admission.max_inflight);
        }
    }
}

/// Runs one schedule; returns how many jobs resets doomed and what the
/// harness saw the host decide.
fn run(catalog: &Catalog, tier: ServingTier, arrival: Arrival, seed: u64) -> (usize, Seen) {
    let admission = AdmissionConfig {
        queue_bound: 5,
        max_inflight: 3,
    };
    let recovery = RecoveryConfig::resilient(seed);
    let knobs = Serving {
        tier,
        arrival,
        mix: None,
        requests: REQUESTS,
        seed,
        admission,
        recovery: &recovery,
        attestation: None,
        policy: None,
    };
    let mut engine = DesEngine::new();
    let resources = (engine.add_resource("psp", 1), engine.add_resource("cpu", 4));
    let front = Front::new(catalog, knobs, IsolationTier::Sev, 1, Recorder::disabled());
    let host = Host::new(0, resources, &front, 2, false, None);
    let mut h = Harness {
        front,
        host,
        inject: Vec::new(),
        pending: Vec::new(),
        absorbed: 0,
        doomed: BTreeMap::new(),
        fenced: BTreeSet::new(),
        doomed_total: 0,
        admission,
        completed: 0,
        now: Nanos::ZERO,
        breakers: vec![Breaker::default(); catalog.len()],
        queued: VecDeque::new(),
        arrived: BTreeMap::new(),
        seen: Seen::default(),
    };
    h.front.seed_arrivals(&mut h.inject, None);
    h.absorb();

    let mut rng = XorShift64::new(seed ^ 0x0EFF_EC75);
    while !h.pending.is_empty() {
        h.now += Nanos::from_micros(rng.next_below(30_000));
        match rng.next_below(36) {
            0..=2 => h.reset(),
            3 => h.outage(),
            4 => h.fence(),
            draw @ 5..=7 if tier == ServingTier::WarmPool => h.retarget(draw as usize - 4),
            _ => {}
        }
        let pick = rng.next_below(h.pending.len() as u64) as usize;
        let job = h.pending.swap_remove(pick);
        h.step(job);
        h.absorb();
        h.check_bounds();
        h.check_ledger();
        h.check_counts();
    }

    // Everything drained, and every request ended exactly once (a second
    // terminal would have tripped `Front::finish`'s debug assertion).
    assert_eq!(h.front.issued(), REQUESTS);
    assert!((0..REQUESTS).all(|r| h.front.is_done(r)));
    assert_eq!(h.host.inflight + h.host.queue_len(), 0);
    assert_eq!(h.host.poisoned(), 0);
    assert!(h.doomed.is_empty() && h.fenced.is_empty());
    let f = &h.front;
    let lost = h.host.metrics.shed + f.breaker_sheds + f.timeouts + f.failed + f.rejected;
    assert_eq!(h.completed + lost as usize, REQUESTS, "conservation");
    (h.doomed_total, h.seen)
}

#[test]
fn host_core_effects_hold_under_random_schedules() {
    let catalog = Catalog::build(17, &ClassSpec::quick_test_classes()).unwrap();
    let arrivals = [
        Arrival::Open { rate_per_sec: 50.0 },
        Arrival::Closed {
            users: 12,
            think: Nanos::from_millis(5),
        },
    ];
    let (mut doomed, mut shed, mut trips, mut warm_takes, mut evicted) = (0, 0, 0, 0, 0);
    for tier in [
        ServingTier::Cold,
        ServingTier::Template,
        ServingTier::WarmPool,
    ] {
        for arrival in arrivals {
            for seed in 0..6 {
                let (d, seen) = run(&catalog, tier, arrival, 0x5EED + seed);
                doomed += d;
                shed += seen.sheds;
                trips += seen.trips;
                warm_takes += seen.warm_takes;
                evicted += seen.evicted;
            }
        }
    }
    // The schedules really exercised poisoning, overload, breaker trips,
    // warm hits and evictions.
    assert!(doomed > 100 && shed > 100, "doomed {doomed} shed {shed}");
    assert!(
        trips > 10 && warm_takes > 10 && evicted > 10,
        "trips {trips} warm hits {warm_takes} evicted {evicted}"
    );
}
