//! Calendar-queue engine ≡ heap reference engine, on seeded random job sets.
//!
//! The raw-speed pass swapped the DES scheduler from a `BinaryHeap` to an
//! indexed calendar queue. Every downstream result — fleet sweeps, cluster
//! scaling, the byte-diff replay gates in ci.sh — rests on the two engines
//! producing *identical* `(time, seq)` event orders, so these tests compare
//! [`sevf_sim::DesEngine`] against [`sevf_sim::reference::HeapEngine`]
//! outcome-for-outcome, trace-entry-for-trace-entry and busy total for busy
//! total, with workloads
//! crafted to hit the queue's edge paths: simultaneous releases (tie-breaks),
//! duration ties, far-future events (overflow + rebase), zero-duration
//! segments, empty jobs, dynamic injection mid-drain, and a delay-dominated
//! batch whose pending set spans thousands of buckets.

use sevf_sim::reference::HeapEngine;
use sevf_sim::rng::XorShift64;
use sevf_sim::{DesEngine, Job, Nanos, ResourceId, RunTrace, Segment};

/// Resources both engines register, in the same order.
const RESOURCES: &[(&str, usize)] = &[("psp", 1), ("cpu", 4), ("nic", 2)];

fn engines() -> (DesEngine, HeapEngine) {
    let mut cal = DesEngine::new();
    let mut heap = HeapEngine::new();
    for &(name, cap) in RESOURCES {
        let a = cal.add_resource(name, cap);
        let b = heap.add_resource(name, cap);
        assert_eq!(a, b, "engines must hand out identical resource ids");
    }
    (cal, heap)
}

/// The ids an engine that registers `RESOURCES` hands out.
fn resource_ids() -> Vec<ResourceId> {
    let mut e = DesEngine::new();
    RESOURCES
        .iter()
        .map(|&(n, c)| e.add_resource(n, c))
        .collect()
}

/// Each resource's busy total in `trace`, in registration order.
fn busy_totals(trace: &RunTrace) -> Vec<Nanos> {
    resource_ids()
        .into_iter()
        .map(|r| trace.busy_time(r))
        .collect()
}

/// A random job: 0–4 segments over the three resources plus pure delays,
/// with durations drawn from a small lattice so ties are common, and
/// releases drawn from a range wide enough to cross calendar buckets.
fn random_job(rng: &mut XorShift64, release_span_ns: u64) -> Job {
    let release = Nanos::from_nanos(rng.next_below(release_span_ns));
    let n_segs = rng.next_below(5) as usize;
    let ids = resource_ids();
    let segments = (0..n_segs)
        .map(|_| {
            // Lattice of 0/1/2/5/10 µs durations: zero-length segments and
            // exact duration ties both show up constantly.
            let dur = Nanos::from_micros([0, 1, 2, 5, 10][rng.next_below(5) as usize]);
            match rng.next_below(4) {
                0 => Segment::on(ids[0], dur, "psp"),
                1 => Segment::on(ids[1], dur, "cpu"),
                2 => Segment::on(ids[2], dur, "nic"),
                _ => Segment::delay(dur, "net"),
            }
        })
        .collect();
    Job::released_at(release, segments)
}

fn random_batch(seed: u64, n: usize, release_span_ns: u64) -> Vec<Job> {
    let mut rng = XorShift64::new(seed);
    (0..n)
        .map(|_| random_job(&mut rng, release_span_ns))
        .collect()
}

/// The delay-dominated shape: 80 % attestation round trips (two network
/// delays of 1 ms–2 s), 10 % cpu + psp launches, 10 % cpu-only invokes,
/// releases spread over 4 s. The pending set is mostly in-flight delays
/// scattered across thousands of calendar buckets, with short resource
/// segments pushed into the bucket being drained.
fn delay_dominated_batch(seed: u64, n: usize) -> Vec<Job> {
    let mut rng = XorShift64::new(seed);
    let ids = resource_ids();
    let ns = Nanos::from_nanos;
    let net =
        |rng: &mut XorShift64| Segment::delay(ns(1_000_000 + rng.next_below(2_000_000_000)), "net");
    (0..n)
        .map(|_| {
            let release = ns(rng.next_below(4_000_000_000));
            let segments = match rng.next_below(10) {
                0..=7 => vec![net(&mut rng), net(&mut rng)],
                8 => vec![
                    Segment::on(ids[1], ns(500 + rng.next_below(2_000)), "cpu"),
                    Segment::on(ids[0], ns(200 + rng.next_below(800)), "psp"),
                ],
                _ => vec![Segment::on(ids[1], ns(300 + rng.next_below(700)), "cpu")],
            };
            Job::released_at(release, segments)
        })
        .collect()
}

/// Asserts both engines agree on outcomes (order included — outcomes come
/// back in job order, so equality here also pins queue/finish tie-breaking)
/// and on the occupancy trace (order of trace entries is event order) and
/// its busy totals.
fn assert_equivalent(jobs: Vec<Job>) {
    let (mut cal, mut heap) = engines();
    let (a_out, a_trace) = cal.run_traced(jobs.clone());
    let (b_out, b_trace) = heap.run_traced(jobs);
    assert_eq!(a_out.len(), b_out.len());
    for (a, b) in a_out.iter().zip(&b_out) {
        assert_eq!(
            (a.job, a.release, a.finish, a.queued),
            (b.job, b.release, b.finish, b.queued)
        );
    }
    assert_eq!(
        a_trace.entries(),
        b_trace.entries(),
        "occupancy trace order"
    );
    assert_eq!(busy_totals(&a_trace), busy_totals(&b_trace));
    assert_eq!(a_trace.makespan(), b_trace.makespan());
}

#[test]
fn random_batches_match_across_seeds() {
    for seed in 1..=20u64 {
        // Tight release span: heavy contention and constant ties.
        assert_equivalent(random_batch(seed, 200, 50_000));
    }
}

#[test]
fn sparse_far_future_batches_match() {
    for seed in 21..=30u64 {
        // Releases spread over ~100 s of virtual time: every job starts in
        // calendar overflow and arrives via rebase migration.
        assert_equivalent(random_batch(seed, 120, 100_000_000_000));
    }
}

#[test]
fn all_simultaneous_releases_match() {
    // Everything releases at t=0: pure submission-order tie-breaking.
    let mut rng = XorShift64::new(99);
    let jobs: Vec<Job> = (0..300)
        .map(|_| {
            let mut j = random_job(&mut rng, 1);
            j.release = Nanos::ZERO;
            j
        })
        .collect();
    assert_equivalent(jobs);
}

#[test]
fn empty_and_zero_duration_jobs_match() {
    let ids = resource_ids();
    let mut jobs = vec![
        Job::released_at(Nanos::from_millis(1), vec![]),
        Job::new(vec![]),
        Job::new(vec![Segment::on(ids[0], Nanos::ZERO, "z")]),
        Job::new(vec![Segment::delay(Nanos::ZERO, "z")]),
    ];
    jobs.extend(random_batch(5, 50, 2_000_000));
    assert_equivalent(jobs);
}

#[test]
fn dynamic_injection_matches() {
    for seed in 1..=10u64 {
        let jobs = random_batch(seed, 60, 100_000);
        let (mut cal, mut heap) = engines();

        // Each completion of an original job injects a follow-up chain job
        // whose shape depends on the outcome, so any divergence in event
        // order compounds instead of washing out.
        let run = |out: &mut Vec<(usize, Nanos, Nanos, Nanos)>,
                   outcome: &sevf_sim::JobOutcome,
                   inject: &mut Vec<Job>| {
            out.push((outcome.job, outcome.release, outcome.finish, outcome.queued));
            if outcome.job < 60 {
                let ids = resource_ids();
                let which = outcome.job % 3;
                inject.push(Job::released_at(
                    outcome.finish + Nanos::from_nanos(outcome.job as u64 % 2),
                    vec![Segment::on(ids[which], Nanos::from_micros(3), "chain")],
                ));
            }
        };

        let mut a_seen = Vec::new();
        let (a_out, a_trace) =
            cal.run_dynamic(jobs.clone(), true, |o, inj| run(&mut a_seen, o, inj));
        let mut b_seen = Vec::new();
        let (b_out, b_trace) = heap.run_dynamic(jobs, |o, inj| run(&mut b_seen, o, inj));

        // Completion-callback order is the event order itself.
        assert_eq!(a_seen, b_seen, "seed {seed}: completion order");
        assert_eq!(a_out.len(), b_out.len());
        for (a, b) in a_out.iter().zip(&b_out) {
            assert_eq!(
                (a.job, a.release, a.finish, a.queued),
                (b.job, b.release, b.finish, b.queued),
                "seed {seed}"
            );
        }
        assert_eq!(a_trace.entries(), b_trace.entries());
        assert_eq!(busy_totals(&a_trace), busy_totals(&b_trace));
        assert_eq!(a_trace.makespan(), b_trace.makespan());
    }
}

#[test]
fn untraced_run_matches_reference() {
    let random = (31..=40u64).map(|seed| (seed, random_batch(seed, 150, 500_000)));
    let delay_dominated = (42, delay_dominated_batch(42, 20_000));
    for (seed, jobs) in random.chain([delay_dominated]) {
        let (mut cal, mut heap) = engines();
        let (fast, totals) = cal.run_dynamic(jobs.clone(), false, |_, _| {});
        let (slow, traced) = heap.run_traced(jobs);
        // The untraced run keeps the busy totals the reference's log sums to.
        assert_eq!(busy_totals(&totals), busy_totals(&traced), "seed {seed}");
        assert!(totals.entries().is_empty());
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(
                (a.job, a.release, a.finish, a.queued),
                (b.job, b.release, b.finish, b.queued),
                "seed {seed}"
            );
        }
    }
}
