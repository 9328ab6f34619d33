//! Property-based tests for the simulation substrate.
//!
//! Each property runs over a seeded family of randomized cases drawn from
//! [`XorShift64`], so the sweep is deterministic and needs no external
//! property-testing dependency. The DES invariants lean on [`RunTrace`]:
//! the engine's own occupancy record is checked against the capacities it
//! was configured with, and its busy totals against that record.

use sevf_sim::rng::{Jitter, XorShift64};
use sevf_sim::{DesEngine, Job, Nanos, PhaseKind, RunTrace, Segment, Step, Timeline, Work};

const CASES: u64 = 64;

/// A timeline of `durations` (ns), phases taken round-robin from `phases`.
fn timeline_of(durations: &[u64], phases: &[PhaseKind]) -> Timeline {
    let mut tl = Timeline::new();
    tl.place(
        durations.iter().enumerate().map(|(i, &d)| Step {
            phase: phases[i % phases.len()],
            label: "work".into(),
            work: Work::HashCompare,
            duration: Nanos::from_nanos(d),
        }),
        &mut Jitter::disabled(),
    );
    tl
}

/// Random segment durations in `1..5_000_000` ns, `1..max_segments` long.
fn random_durations(rng: &mut XorShift64, max_segments: usize) -> Vec<u64> {
    let len = 1 + rng.next_below(max_segments as u64 - 1) as usize;
    (0..len).map(|_| 1 + rng.next_below(4_999_999)).collect()
}

fn random_job_specs(rng: &mut XorShift64, max_jobs: usize, max_segments: usize) -> Vec<Vec<u64>> {
    let jobs = 1 + rng.next_below(max_jobs as u64 - 1) as usize;
    (0..jobs)
        .map(|_| random_durations(rng, max_segments))
        .collect()
}

fn jobs_on(res: sevf_sim::ResourceId, specs: &[Vec<u64>]) -> Vec<Job> {
    specs
        .iter()
        .map(|durations| {
            Job::new(
                durations
                    .iter()
                    .map(|&d| Segment::on(res, Nanos::from_nanos(d), "seg"))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn des_latency_never_below_service_time() {
    let mut rng = XorShift64::new(0xDE5_0001);
    for _ in 0..CASES {
        let specs = random_job_specs(&mut rng, 12, 5);
        let capacity = 1 + rng.next_below(3) as usize;
        let mut engine = DesEngine::new();
        let res = engine.add_resource("r", capacity);
        let jobs = jobs_on(res, &specs);
        let service: Vec<Nanos> = jobs.iter().map(Job::service_time).collect();
        let outcomes = engine.run(jobs);
        assert_eq!(outcomes.len(), service.len());
        for (outcome, s) in outcomes.iter().zip(&service) {
            assert!(outcome.latency() >= *s, "latency below service time");
        }
    }
}

#[test]
fn des_makespan_bounded_by_total_work() {
    // Single-slot resource: makespan == total demand (work conserving),
    // and the queue never idles while work remains.
    let mut rng = XorShift64::new(0xDE5_0002);
    for _ in 0..CASES {
        let specs = random_job_specs(&mut rng, 10, 4);
        let mut engine = DesEngine::new();
        let res = engine.add_resource("psp", 1);
        let total: u64 = specs.iter().flatten().sum();
        let outcomes = engine.run(jobs_on(res, &specs));
        let makespan = outcomes.iter().map(|o| o.finish).max().unwrap();
        assert_eq!(makespan, Nanos::from_nanos(total));
    }
}

#[test]
fn des_pure_delays_are_independent() {
    let mut rng = XorShift64::new(0xDE5_0003);
    for _ in 0..CASES {
        let delays: Vec<u64> = (0..1 + rng.next_below(19))
            .map(|_| 1 + rng.next_below(999_999))
            .collect();
        let mut engine = DesEngine::new();
        let jobs: Vec<Job> = delays
            .iter()
            .map(|&d| Job::new(vec![Segment::delay(Nanos::from_nanos(d), "net")]))
            .collect();
        let outcomes = engine.run(jobs);
        for (outcome, &d) in outcomes.iter().zip(&delays) {
            assert_eq!(outcome.finish, Nanos::from_nanos(d));
            assert_eq!(outcome.queued, Nanos::ZERO);
        }
    }
}

/// A capacity-`c` resource must never run more than `c` segments at once;
/// in particular a capacity-1 resource never overlaps two segments.
#[test]
fn des_trace_never_exceeds_capacity() {
    let mut rng = XorShift64::new(0xDE5_0004);
    for _ in 0..CASES {
        let specs = random_job_specs(&mut rng, 14, 5);
        let capacity = 1 + rng.next_below(4) as usize;
        let mut engine = DesEngine::new();
        let res = engine.add_resource("r", capacity);
        let (_, trace) = engine.run_traced(jobs_on(res, &specs));
        let max = trace
            .max_concurrency(res)
            .expect("a traced run records its entries");
        assert!(
            max <= capacity,
            "{max} segments overlapped on a capacity-{capacity} resource"
        );
        if capacity == 1 {
            // Stronger form: sorted by start, each segment begins at or
            // after the previous one ends.
            let mut entries: Vec<_> = trace
                .entries()
                .iter()
                .filter(|e| e.resource == res)
                .collect();
            entries.sort_by_key(|e| e.start);
            for pair in entries.windows(2) {
                assert!(pair[1].start >= pair[0].end, "capacity-1 overlap");
            }
        }
    }
}

/// Busy time on a resource can never exceed `makespan × capacity`, and the
/// trace's busy accounting must equal the work the jobs brought.
#[test]
fn des_busy_time_bounded_and_conserved() {
    let mut rng = XorShift64::new(0xDE5_0005);
    for _ in 0..CASES {
        let specs = random_job_specs(&mut rng, 12, 4);
        let capacity = 1 + rng.next_below(3) as usize;
        let mut engine = DesEngine::new();
        let res = engine.add_resource("r", capacity);
        let demand: u64 = specs.iter().flatten().sum();
        let (_, trace) = engine.run_traced(jobs_on(res, &specs));
        let busy = trace.busy_time(res);
        assert_eq!(busy, Nanos::from_nanos(demand), "busy != offered work");
        let cap = Nanos::from_nanos(trace.makespan().as_nanos() * capacity as u64);
        assert!(
            busy <= cap,
            "busy {busy:?} exceeds makespan × capacity {cap:?}"
        );
        let util = trace.utilization(res, capacity);
        assert!((0.0..=1.0).contains(&util), "utilization {util}");
    }
}

/// Latency decomposes exactly: finish − release == service time + queueing,
/// and both parts are non-negative.
#[test]
fn des_latency_is_service_plus_queueing() {
    let mut rng = XorShift64::new(0xDE5_0006);
    for _ in 0..CASES {
        let specs = random_job_specs(&mut rng, 12, 5);
        let capacity = 1 + rng.next_below(3) as usize;
        let mut engine = DesEngine::new();
        let res = engine.add_resource("r", capacity);
        let jobs = jobs_on(res, &specs);
        let service: Vec<Nanos> = jobs.iter().map(Job::service_time).collect();
        let outcomes = engine.run(jobs);
        for (outcome, s) in outcomes.iter().zip(&service) {
            assert!(outcome.finish >= outcome.release);
            assert_eq!(
                outcome.latency(),
                *s + outcome.queued,
                "latency must be service + queued"
            );
        }
    }
}

/// The invariants hold under dynamic injection too: a chain of follow-up
/// jobs spawned from completions still respects capacity and conservation.
#[test]
fn des_dynamic_injection_keeps_invariants() {
    let mut rng = XorShift64::new(0xDE5_0007);
    for _ in 0..CASES {
        let seed_specs = random_job_specs(&mut rng, 6, 3);
        let follow_up = 1 + rng.next_below(4_999) * 1_000;
        let extra = rng.next_below(4) as usize;
        let mut engine = DesEngine::new();
        let res = engine.add_resource("r", 1);
        let seeds = jobs_on(res, &seed_specs);
        let seed_count = seeds.len();
        let demand: u64 =
            seed_specs.iter().flatten().sum::<u64>() + (seed_count * extra) as u64 * follow_up;
        let mut injected = 0usize;
        let (outcomes, trace): (Vec<_>, RunTrace) =
            engine.run_dynamic(seeds, true, |outcome, inject| {
                // Each seed job fans out `extra` follow-ups at its completion.
                if outcome.job < seed_count {
                    for _ in 0..extra {
                        injected += 1;
                        inject.push(Job::released_at(
                            outcome.finish,
                            vec![Segment::on(res, Nanos::from_nanos(follow_up), "chain")],
                        ));
                    }
                }
            });
        assert_eq!(outcomes.len(), seed_count + injected);
        assert_eq!(trace.busy_time(res), Nanos::from_nanos(demand));
        assert_eq!(trace.max_concurrency(res), Some(1));
        for outcome in &outcomes {
            assert!(outcome.finish >= outcome.release);
        }
    }
}

/// Recording the occupancy log only observes a run: on seeded dynamic job
/// sets over two resources and pure delays, the untraced and the traced run
/// give the same outcomes and makespan, every busy total equals the sum of
/// the traced run's entries on that resource, and the untraced run records
/// no entry.
#[test]
fn des_untraced_run_keeps_the_traced_totals() {
    let mut rng = XorShift64::new(0xDE5_0009);
    for _ in 0..CASES {
        let specs = random_job_specs(&mut rng, 10, 6);
        let cpu_slots = 1 + rng.next_below(4) as usize;
        let follow_ups = rng.next_below(3) as usize;
        let run = |record: bool| {
            let mut engine = DesEngine::new();
            let res = [
                engine.add_resource("psp", 1),
                engine.add_resource("cpu", cpu_slots),
            ];
            // Segment `i` of a job lands on the psp, the cpu or a delay by
            // its duration, so both runs place the same work.
            let segment = |i: usize, d: u64| match d % 3 {
                0 => Segment::delay(Nanos::from_nanos(d), "net"),
                r => Segment::on(res[(r as usize + i) % 2], Nanos::from_nanos(d), "seg"),
            };
            let jobs = specs
                .iter()
                .map(|ds| Job::new(ds.iter().enumerate().map(|(i, &d)| segment(i, d)).collect()));
            let seeded = specs.len();
            let (outcomes, trace) = engine.run_dynamic(jobs.collect(), record, |o, inject| {
                if o.job < seeded {
                    for k in 0..follow_ups {
                        let d = 1 + (o.finish.as_nanos() + k as u64) % 2_000_000;
                        inject.push(Job::released_at(o.finish, vec![segment(k, d)]));
                    }
                }
            });
            (res, outcomes, trace)
        };
        let (res, plain, untraced) = run(false);
        let (_, logged, traced) = run(true);
        assert_eq!(plain, logged);
        assert_eq!(untraced.makespan(), traced.makespan());
        assert!(untraced.entries().is_empty());
        for r in res {
            let summed: Nanos = traced
                .entries()
                .iter()
                .filter(|e| e.resource == r)
                .map(|e| e.end - e.start)
                .sum();
            assert_eq!(untraced.busy_time(r), summed, "{r}");
            assert_eq!(traced.busy_time(r), summed, "{r}");
            assert_eq!(untraced.max_concurrency(r), None);
        }
    }
}

#[test]
fn timeline_totals_are_span_sums() {
    let mut rng = XorShift64::new(0xDE5_0008);
    for _ in 0..CASES {
        let durations: Vec<u64> = (0..1 + rng.next_below(29))
            .map(|_| 1 + rng.next_below(9_999_999))
            .collect();
        let phases = [
            PhaseKind::VmmSetup,
            PhaseKind::LinuxBoot,
            PhaseKind::Attestation,
        ];
        let tl = timeline_of(&durations, &phases);
        let total: u64 = durations.iter().sum();
        assert_eq!(tl.total(), Nanos::from_nanos(total));
        let by_phase: u64 = phases.iter().map(|&p| tl.phase_total(p).as_nanos()).sum();
        assert_eq!(by_phase, total);
        // boot_total excludes exactly the attestation spans.
        let attestation: u64 = durations
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 == 2)
            .map(|(_, &d)| d)
            .sum();
        assert_eq!(tl.boot_total(), Nanos::from_nanos(total - attestation));
    }
}

#[test]
fn timeline_filtered_keeps_selected_phases() {
    let mut rng = XorShift64::new(0xDE5_0009);
    for _ in 0..CASES {
        let durations: Vec<u64> = (0..1 + rng.next_below(19))
            .map(|_| 1 + rng.next_below(999_999))
            .collect();
        let tl = timeline_of(&durations, &[PhaseKind::VmmSetup, PhaseKind::Attestation]);
        let filtered = tl.filtered(|p| p.counts_as_boot());
        assert_eq!(filtered.total(), tl.boot_total());
        assert!(filtered
            .spans()
            .iter()
            .all(|s| s.phase != PhaseKind::Attestation));
    }
}

#[test]
fn jitter_preserves_scale() {
    let mut rng = XorShift64::new(0xDE5_000A);
    for _ in 0..CASES {
        let mut j = sevf_sim::rng::Jitter::new(rng.next_u64());
        let nominal = Nanos::from_millis(100);
        let mean: f64 = (0..500)
            .map(|_| j.apply(nominal).as_millis_f64())
            .sum::<f64>()
            / 500.0;
        assert!((mean - 100.0).abs() < 2.0, "mean {mean}");
    }
}

#[test]
fn stats_percentiles_within_bounds() {
    let mut rng = XorShift64::new(0xDE5_000B);
    for _ in 0..CASES {
        let values: Vec<f64> = (0..1 + rng.next_below(199))
            .map(|_| rng.next_f64() * 1e9)
            .collect();
        let s = sevf_sim::Summary::from_values(&values);
        assert!(s.min <= s.p50 && s.p50 <= s.max);
        assert!(s.min <= s.mean && s.mean <= s.max);
        assert!(s.p50 <= s.p99 && s.p99 <= s.max);
        let points = sevf_sim::stats::cdf(&values);
        for pair in points.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
        assert!((points.last().unwrap().1 - 1.0).abs() < 1e-12);
    }
}
