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
//!   lockstep with injected jobs.

use std::collections::{BTreeMap, BTreeSet};

use sevf_fleet::blueprint::{Catalog, ClassSpec};
use sevf_fleet::front::{Front, ServeJob, Serving};
use sevf_fleet::host::Host;
use sevf_fleet::prelude::*;
use sevf_obs::{Outcome, Recorder};
use sevf_sim::fault::FaultKind;
use sevf_sim::rng::XorShift64;
use sevf_sim::{DesEngine, Job, Nanos};

const REQUESTS: usize = 240;

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
}

impl Harness<'_> {
    /// Moves freshly injected jobs into the pending set.
    fn absorb(&mut self) {
        assert_eq!(self.inject.len(), self.front.meta.len(), "tags in lockstep");
        self.pending.extend(self.absorbed..self.front.meta.len());
        self.absorbed = self.front.meta.len();
    }

    /// Routes `request` onto the host and checks the one-of-three effect.
    fn route(&mut self, request: usize) {
        if !self.front.screen(request, self.now, &mut self.inject) {
            assert!(self.front.is_done(request));
            return;
        }
        let tags_before = self.front.meta.len();
        let queued_before = self.host.queue_len();
        self.host
            .assign(&mut self.front, request, self.now, &mut self.inject);
        let launched = self.front.meta[tags_before..]
            .iter()
            .filter(|tag| matches!(tag, ServeJob::Launch(l) if l.request == request))
            .count();
        let queued = self.host.queue_len() - queued_before;
        let terminal = self.front.is_done(request) as usize;
        assert_eq!(
            launched + queued + terminal,
            1,
            "request {request}: launched {launched} queued {queued} terminal {terminal}"
        );
    }

    fn drain(&mut self) {
        let stray = self
            .host
            .drain_queue(&mut self.front, self.now, &mut self.inject);
        assert!(stray.is_none(), "posture is off");
    }

    /// Fires one pending job.
    fn step(&mut self, job: usize) {
        match self.front.meta[job] {
            ServeJob::Arrival { request } => {
                self.front.on_arrival(request, self.now);
                self.route(request);
            }
            ServeJob::Retry { request } => self.route(request),
            ServeJob::Launch(launch) => {
                let settled = self.host.settle(&mut self.front, job, self.now, launch);
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
                self.doomed.remove(&job);
                self.fenced.remove(&job);
                self.host.refill_done(&mut self.front, job, self.now, class);
            }
            ServeJob::ResetStart { .. }
            | ServeJob::ResetEnd { .. }
            | ServeJob::WarmCrash { .. } => {
                unreachable!("no fault plan seeded")
            }
        }
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

/// Runs one schedule; returns how many jobs resets doomed and how many
/// requests admission shed.
fn run(catalog: &Catalog, tier: ServingTier, arrival: Arrival, seed: u64) -> (usize, u64) {
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
            _ => {}
        }
        let pick = rng.next_below(h.pending.len() as u64) as usize;
        let job = h.pending.swap_remove(pick);
        h.step(job);
        h.absorb();
        h.check_bounds();
        h.check_ledger();
    }

    // Everything drained, and every request ended exactly once (a second
    // terminal would have tripped `Front::finish`'s debug assertion).
    assert_eq!(h.front.issued(), REQUESTS);
    assert!((0..REQUESTS).all(|r| h.front.is_done(r)));
    assert_eq!(h.host.inflight + h.host.queue_len(), 0);
    assert_eq!(h.host.poisoned(), 0);
    assert!(h.doomed.is_empty() && h.fenced.is_empty());
    h.host.finish_metrics(&Default::default());
    let t = &h.front.totals;
    let lost = h.host.metrics.shed + t.breaker_sheds + t.timeouts + t.failed + t.rejected;
    assert_eq!(h.completed + lost as usize, REQUESTS, "conservation");
    (h.doomed_total, h.host.metrics.shed)
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
    let (mut doomed, mut shed) = (0, 0);
    for tier in [
        ServingTier::Cold,
        ServingTier::Template,
        ServingTier::WarmPool,
    ] {
        for arrival in arrivals {
            for seed in 0..6 {
                let (d, s) = run(&catalog, tier, arrival, 0x5EED + seed);
                doomed += d;
                shed += s;
            }
        }
    }
    // The schedules really exercised poisoning and overload.
    assert!(doomed > 100 && shed > 100, "doomed {doomed} shed {shed}");
}
