//! Seeded property test of the shared serving core at effect level.
//!
//! Drives one [`Front`] and one [`Host`] by hand — no DES engine: the test
//! is the scheduler, firing pending markers and completing in-flight jobs
//! in a seeded random order on a monotone clock — and checks, after every
//! step, what the two services rely on:
//!
//! * every request handed to the host ends in exactly one of {a launch
//!   injected for it, queued, a terminal outcome};
//! * a PSP reset poisons exactly the in-flight PSP holders — they and only
//!   they settle as [`FaultKind::PspReset`];
//! * queue + in-flight never exceed `queue_bound + max_inflight` (warm
//!   hits bypass admission, so on the warm tier only the queue is bounded);
//! * every request reaches exactly one terminal state, and tags stay in
//!   lockstep with injected jobs.

use std::collections::BTreeSet;

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
    /// In-flight PSP holders a reset has doomed.
    doomed: BTreeSet<usize>,
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
                let was_doomed = self.doomed.remove(&job);
                assert_eq!(settled.poison == Some(FaultKind::PspReset), was_doomed);
                assert_eq!(settled.fault.is_some(), was_doomed, "no plan, no plane");
                if was_doomed {
                    self.front
                        .handle_failure(settled.request, self.now, &mut self.inject, |at| at);
                    self.drain();
                } else {
                    self.front
                        .finish(settled.request, Outcome::Completed, self.now);
                    self.completed += 1;
                    self.drain();
                    self.front.issue_next_closed(self.now, &mut self.inject);
                }
            }
            ServeJob::Replenish { class, psp_ns, .. } => {
                self.doomed.remove(&job);
                self.host
                    .refill_done(&mut self.front, job, self.now, class, psp_ns);
            }
            ServeJob::ResetStart { .. }
            | ServeJob::ResetEnd { .. }
            | ServeJob::WarmCrash { .. } => {
                unreachable!("no fault plan seeded")
            }
        }
    }

    /// A firmware reset strikes now: exactly the in-flight PSP holders are
    /// poisoned.
    fn reset(&mut self) {
        let holders: BTreeSet<usize> = self
            .pending
            .iter()
            .copied()
            .filter(|&job| match self.front.meta[job] {
                ServeJob::Launch(l) => l.psp_ns > Nanos::ZERO,
                ServeJob::Replenish { psp_ns, .. } => psp_ns > Nanos::ZERO,
                _ => false,
            })
            .filter(|job| !self.doomed.contains(job))
            .collect();
        assert_eq!(self.host.psp_holders(), holders.len());
        let poisoned_before = self.host.poisoned();
        self.host.reset_start(&mut self.front, self.now);
        assert_eq!(self.host.psp_holders(), 0);
        assert_eq!(self.host.poisoned(), poisoned_before + holders.len());
        self.doomed_total += holders.len();
        self.doomed.extend(holders);
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
        policy: SchedPolicy::Fifo,
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
        doomed: BTreeSet::new(),
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
        if rng.next_below(12) == 0 {
            h.reset();
        }
        let pick = rng.next_below(h.pending.len() as u64) as usize;
        let job = h.pending.swap_remove(pick);
        h.step(job);
        h.absorb();
        h.check_bounds();
    }

    // Everything drained, and every request ended exactly once (a second
    // terminal would have tripped `Front::finish`'s debug assertion).
    assert_eq!(h.front.issued(), REQUESTS);
    assert!((0..REQUESTS).all(|r| h.front.is_done(r)));
    assert_eq!(h.host.inflight + h.host.queue_len(), 0);
    assert_eq!(h.host.poisoned(), 0);
    assert!(h.doomed.is_empty());
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
