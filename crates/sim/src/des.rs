//! A discrete-event engine with FIFO resources.
//!
//! Fig. 12 of the paper shows that concurrent SEV launches serialize on the
//! PSP — a single low-power core that every `LAUNCH_*` command must pass
//! through — while non-SEV launches scale almost flat. This engine models
//! exactly that: each boot is a [`Job`] made of [`Segment`]s, each segment
//! either occupies a slot of a capacity-limited resource (PSP: capacity 1;
//! host CPU pool: one slot per core) or is a pure delay (network waits).
//!
//! Scheduling is FIFO per resource with deterministic tie-breaking by job
//! arrival order, so results are exactly reproducible.
//!
//! # Engine internals (the raw-speed pass)
//!
//! The event scheduler is an indexed calendar queue
//! (`calendar::CalendarQueue`) instead of a binary heap: pushes into
//! the active window are O(1) and only the bucket being drained is ever
//! sorted. Job segments are flattened into one arena of `(resource,
//! duration)` pairs at submission, so the inner loop walks a flat `Vec`
//! instead of chasing per-job `Vec<Segment>` allocations, and [`Segment`]
//! labels are `Cow<'static, str>` so the common static-label case allocates
//! nothing per dispatch. The arena and the job states are reserved once per
//! run, so a run's resident peak is what it writes, not where reallocation
//! found room.
//!
//! Every run keeps one busy total per resource, added where a segment
//! starts, so [`RunTrace::busy_time`] and [`RunTrace::utilization`] are
//! lookups. The per-segment occupancy log ([`TraceEntry`], one per
//! resource-bound segment: 2.1 M of them, 68 MB, in a 100 000-request
//! serving run) is written only when the caller asks for it —
//! [`DesEngine::run_traced`], or [`DesEngine::run_dynamic`] with `record`
//! set, which the serving layers pass only when a span recorder listens.
//!
//! The pre-calendar heap implementation survives as
//! [`crate::reference::HeapEngine`]; `tests/engine_equivalence.rs` proves the
//! two produce identical outcomes (including tie-breaking order) on seeded
//! random job sets.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;

use crate::calendar::{CalEvent, CalendarQueue};
use crate::time::Nanos;
use crate::timeline::ResourceClass;

/// Identifies a resource registered with a [`DesEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(usize);

impl ResourceId {
    /// Builds an id from a raw index (crate-internal; used by the reference
    /// engine so both engines hand out identical ids).
    pub(crate) fn from_index(index: usize) -> Self {
        ResourceId(index)
    }

    /// Raw index of this id.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// One step of a job: `duration` of work on `resource` (or a pure delay when
/// `resource` is `None`).
#[derive(Debug, Clone)]
pub struct Segment {
    /// Resource this segment occupies; `None` = pure delay.
    pub resource: Option<ResourceId>,
    /// Amount of virtual time the segment takes once running.
    pub duration: Nanos,
    /// Label for reports. `Cow` so the common static-label case is
    /// allocation-free on the dispatch path.
    pub label: Cow<'static, str>,
}

impl Segment {
    /// Creates a resource-bound segment.
    pub fn on(resource: ResourceId, duration: Nanos, label: impl Into<Cow<'static, str>>) -> Self {
        Segment {
            resource: Some(resource),
            duration,
            label: label.into(),
        }
    }

    /// Creates a pure-delay segment.
    pub fn delay(duration: Nanos, label: impl Into<Cow<'static, str>>) -> Self {
        Segment {
            resource: None,
            duration,
            label: label.into(),
        }
    }

    /// Places `duration` of `class` work on a host: PSP commands serialize
    /// on `psp`, CPU work takes a slot of `cpu`, a network wait is a pure
    /// delay. The one span-to-segment mapping every replay shares (Fig. 12's
    /// boot jobs and the fleet's blueprints), so a class can never land on
    /// different resources in different experiments.
    ///
    /// Labels are static class names: the engine never reads them, and a
    /// per-segment `String` clone here was the fleet's hottest allocation.
    pub fn for_class(
        class: ResourceClass,
        duration: Nanos,
        cpu: ResourceId,
        psp: ResourceId,
    ) -> Self {
        match class {
            ResourceClass::Psp => Segment::on(psp, duration, "psp"),
            ResourceClass::HostCpu => Segment::on(cpu, duration, "cpu"),
            ResourceClass::Network => Segment::delay(duration, "net"),
        }
    }
}

/// A sequential list of segments released into the system at `release` time.
#[derive(Debug, Clone, Default)]
pub struct Job {
    /// Time at which the job arrives.
    pub release: Nanos,
    /// Ordered segments the job must execute.
    pub segments: Vec<Segment>,
}

impl Job {
    /// Creates a job released at time zero.
    pub fn new(segments: Vec<Segment>) -> Self {
        Job {
            release: Nanos::ZERO,
            segments,
        }
    }

    /// Creates a job released at `release`.
    pub fn released_at(release: Nanos, segments: Vec<Segment>) -> Self {
        Job { release, segments }
    }

    /// Sum of all segment durations (the job's completion time if it never
    /// had to queue).
    pub fn service_time(&self) -> Nanos {
        self.segments.iter().map(|s| s.duration).sum()
    }
}

/// Completion record for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobOutcome {
    /// Index of the job in the submitted batch.
    pub job: usize,
    /// Release time it was submitted with.
    pub release: Nanos,
    /// Time the final segment finished.
    pub finish: Nanos,
    /// Total time spent waiting in resource queues.
    pub queued: Nanos,
}

impl JobOutcome {
    /// Wall-clock latency of the job (finish − release).
    pub fn latency(&self) -> Nanos {
        self.finish - self.release
    }
}

/// One recorded occupancy of a resource slot during a run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// The occupied resource.
    pub resource: ResourceId,
    /// Index of the job the segment belongs to.
    pub job: usize,
    /// Instant the segment started executing.
    pub start: Nanos,
    /// Instant the segment finishes.
    pub end: Nanos,
}

/// What one engine run did with its resources: each resource's total busy
/// time, the makespan, and — when the caller asked for them — every
/// executed resource-bound segment with its start/end instants. The busy
/// totals feed utilization accounting (fleet metrics); the entries feed the
/// span assembler (`sevf-obs`) and the engine's scheduling invariants.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    entries: Vec<TraceEntry>,
    /// Busy time per resource, indexed by [`ResourceId`].
    busy: Vec<Nanos>,
    makespan: Nanos,
    /// Whether this run recorded `entries`.
    recorded: bool,
}

impl RunTrace {
    /// A trace for a run over `resources` resources that records entries
    /// only when `record` is set (crate-internal; engines only).
    pub(crate) fn new(resources: usize, record: bool) -> Self {
        RunTrace {
            entries: Vec::new(),
            busy: vec![Nanos::ZERO; resources],
            makespan: Nanos::ZERO,
            recorded: record,
        }
    }

    /// All recorded occupancies, in execution-start order: empty unless the
    /// run recorded them.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Instant of the last job completion.
    pub fn makespan(&self) -> Nanos {
        self.makespan
    }

    /// Counts a segment of `job` occupying `resource` from `start` for
    /// `duration`, and records it when the run records entries
    /// (crate-internal; engines only).
    #[inline]
    pub(crate) fn occupy(&mut self, resource: usize, job: usize, start: Nanos, duration: Nanos) {
        self.busy[resource] += duration;
        if self.recorded {
            self.entries.push(TraceEntry {
                resource: ResourceId(resource),
                job,
                start,
                end: start + duration,
            });
        }
    }

    /// Sets the makespan (crate-internal; engines only).
    pub(crate) fn set_makespan(&mut self, makespan: Nanos) {
        self.makespan = makespan;
    }

    /// Total busy time accumulated on `resource` across all its slots (zero
    /// for a resource the run did not have).
    pub fn busy_time(&self, resource: ResourceId) -> Nanos {
        self.busy.get(resource.0).copied().unwrap_or(Nanos::ZERO)
    }

    /// Fraction of `capacity × makespan` the resource spent busy (0 when the
    /// run is empty).
    pub fn utilization(&self, resource: ResourceId, capacity: usize) -> f64 {
        if self.makespan == Nanos::ZERO || capacity == 0 {
            return 0.0;
        }
        self.busy_time(resource).as_nanos() as f64
            / (self.makespan.as_nanos() as f64 * capacity as f64)
    }

    /// Maximum number of segments simultaneously executing on `resource`
    /// (a capacity-`c` resource must never exceed `c`), or `None` when the
    /// run did not record entries and so cannot tell.
    pub fn max_concurrency(&self, resource: ResourceId) -> Option<usize> {
        if !self.recorded {
            return None;
        }
        let mut points: Vec<(Nanos, i64)> = Vec::new();
        for e in self.entries.iter().filter(|e| e.resource == resource) {
            points.push((e.start, 1));
            points.push((e.end, -1));
        }
        // Ends sort before starts at the same instant: back-to-back segments
        // on one slot do not count as overlapping.
        points.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut current = 0i64;
        let mut max = 0i64;
        for (_, delta) in points {
            current += delta;
            max = max.max(current);
        }
        Some(max.max(0) as usize)
    }
}

#[derive(Debug)]
struct Resource {
    name: String,
    capacity: usize,
    busy: usize,
    waiting: VecDeque<u32>, // job indices
}

/// Arena form of a segment: just what the scheduler needs, flat in memory.
/// `resource == DELAY` marks a pure delay.
#[derive(Debug, Clone, Copy)]
struct SegLite {
    resource: u32,
    duration: Nanos,
}

const DELAY: u32 = u32::MAX;

/// Sentinel for "not currently queued".
const NOT_QUEUED: Nanos = Nanos::from_nanos(u64::MAX);

/// Per-job scheduler state, struct-of-everything so the hot loop touches one
/// cache line per job instead of five parallel `Vec`s.
#[derive(Debug, Clone, Copy)]
struct JobState {
    /// Arena index of the segment the job is currently on (or about to
    /// start); advances to `seg_hi` as segments complete.
    cursor: u32,
    /// One past the job's last arena segment.
    seg_hi: u32,
    /// Release time the job was submitted with.
    release: Nanos,
    /// Instant the job entered a resource queue (`NOT_QUEUED` when running).
    queued_since: Nanos,
    /// Accumulated queue wait.
    queued_total: Nanos,
    /// Completion instant (valid once `done`).
    finish: Nanos,
    /// Whether the job has completed.
    done: bool,
}

/// Room a run's big tables get before the first job is admitted: the
/// segment arena [`RESERVED_SEGMENTS`] entries, and so does the occupancy
/// log when the run records it (an unrecorded run reserves none); the job
/// states [`RESERVED_JOBS`] — more than any serving run here fills (a
/// 100 000-request elastic run admits 0.3 M jobs of 2.4 M segments), so the
/// tables never move. A table that doubles its way up to tens of MiB leaves
/// each outgrown copy behind, and whether the allocator has a hole for the
/// next one depends on everything that ran before: the same run peaked at
/// 190 or at 240 MiB resident from one seed to the next. Capacity that is
/// never written is address space, not memory.
const RESERVED_SEGMENTS: usize = 1 << 22;
const RESERVED_JOBS: usize = 1 << 20;

/// Event payloads pack `(job index << 1) | kind`; kind 0 = release,
/// kind 1 = segment-done.
const KIND_SEGMENT_DONE: u64 = 1;

/// The discrete-event engine.
///
/// # Example
///
/// ```
/// use sevf_sim::{DesEngine, Job, Nanos, Segment};
///
/// let mut engine = DesEngine::new();
/// let psp = engine.add_resource("psp", 1);
/// let jobs: Vec<Job> = (0..3)
///     .map(|_| Job::new(vec![Segment::on(psp, Nanos::from_millis(10), "launch")]))
///     .collect();
/// let outcomes = engine.run(jobs);
/// // Three 10 ms launches on a single-slot PSP finish at 10/20/30 ms.
/// assert_eq!(outcomes[2].finish, Nanos::from_millis(30));
/// ```
#[derive(Debug, Default)]
pub struct DesEngine {
    resources: Vec<Resource>,
}

impl DesEngine {
    /// Creates an engine with no resources.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a resource with `capacity` parallel slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: usize) -> ResourceId {
        assert!(capacity > 0, "resource must have at least one slot");
        self.resources.push(Resource {
            name: name.into(),
            capacity,
            busy: 0,
            waiting: VecDeque::new(),
        });
        ResourceId(self.resources.len() - 1)
    }

    /// Name of a resource (for reports).
    pub fn resource_name(&self, id: ResourceId) -> &str {
        &self.resources[id.0].name
    }

    /// Capacity (parallel slots) of a resource.
    pub fn capacity(&self, id: ResourceId) -> usize {
        self.resources[id.0].capacity
    }

    /// Runs a batch of jobs to completion and returns their outcomes in job
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if a segment references a resource not registered with this
    /// engine.
    pub fn run(&mut self, jobs: Vec<Job>) -> Vec<JobOutcome> {
        self.run_dynamic(jobs, false, |_, _| {}).0
    }

    /// Like [`DesEngine::run`], but also returns the run's [`RunTrace`] with
    /// every occupancy entry recorded.
    pub fn run_traced(&mut self, jobs: Vec<Job>) -> (Vec<JobOutcome>, RunTrace) {
        self.run_dynamic(jobs, true, |_, _| {})
    }

    /// Runs jobs to completion with dynamic injection: every time a job
    /// completes, `on_complete` is invoked with its outcome and may push
    /// follow-up jobs into the provided vector. Injected jobs are assigned
    /// the next indices in submission order and released no earlier than the
    /// completion instant (earlier `release` values are clamped forward).
    ///
    /// This is what closed-loop load generation and admission control build
    /// on: arrivals are zero-segment marker jobs whose completion hands
    /// control to the caller at the arrival instant.
    ///
    /// The returned [`RunTrace`] always carries each resource's busy time
    /// and the makespan; it records the occupancy entries only when
    /// `record` is set (a span recorder is listening).
    ///
    /// Event order is exactly `(time, seq)` — identical to the heap
    /// reference engine — so every downstream byte-diff replay gate holds
    /// across the scheduler swap.
    ///
    /// # Panics
    ///
    /// Panics if a segment references a resource not registered with this
    /// engine.
    pub fn run_dynamic(
        &mut self,
        jobs: Vec<Job>,
        record: bool,
        mut on_complete: impl FnMut(&JobOutcome, &mut Vec<Job>),
    ) -> (Vec<JobOutcome>, RunTrace) {
        for r in &mut self.resources {
            r.busy = 0;
            r.waiting.clear();
        }
        let mut arena: Vec<SegLite> = Vec::with_capacity(RESERVED_SEGMENTS);
        let mut states: Vec<JobState> = Vec::with_capacity(jobs.len().max(RESERVED_JOBS));
        let mut trace = RunTrace::new(self.resources.len(), record);
        if record {
            trace.entries.reserve(RESERVED_SEGMENTS);
        }
        let mut queue = CalendarQueue::new();
        let mut seq = 0u64;
        // Reused across completions so dynamic injection is allocation-free
        // in the steady state.
        let mut injected: Vec<Job> = Vec::new();

        for job in jobs {
            admit(job, &mut arena, &mut states, &mut queue, &mut seq);
        }

        while let Some(ev) = queue.pop() {
            let now = ev.time;
            let job_idx = (ev.payload >> 1) as usize;
            if ev.payload & 1 == KIND_SEGMENT_DONE {
                let seg = arena[states[job_idx].cursor as usize];
                if seg.resource != DELAY {
                    let resource = &mut self.resources[seg.resource as usize];
                    resource.busy -= 1;
                    // Wake the longest-waiting job for this resource.
                    if let Some(waiter) = resource.waiting.pop_front() {
                        let waiter = waiter as usize;
                        resource.busy += 1;
                        let ws = &mut states[waiter];
                        if ws.queued_since != NOT_QUEUED {
                            ws.queued_total += now - ws.queued_since;
                            ws.queued_since = NOT_QUEUED;
                        }
                        let dur = arena[ws.cursor as usize].duration;
                        trace.occupy(seg.resource as usize, waiter, now, dur);
                        queue.push(CalEvent {
                            time: now + dur,
                            seq,
                            payload: ((waiter as u64) << 1) | KIND_SEGMENT_DONE,
                        });
                        seq += 1;
                    }
                }
                states[job_idx].cursor += 1;
            }

            // Start the job's next segment, or complete it.
            let st = states[job_idx];
            if st.cursor == st.seg_hi {
                let s = &mut states[job_idx];
                s.finish = now;
                s.done = true;
                if now > trace.makespan {
                    trace.makespan = now;
                }
                let outcome = JobOutcome {
                    job: job_idx,
                    release: st.release,
                    finish: now,
                    queued: st.queued_total,
                };
                on_complete(&outcome, &mut injected);
                for mut job in injected.drain(..) {
                    if job.release < now {
                        job.release = now;
                    }
                    admit(job, &mut arena, &mut states, &mut queue, &mut seq);
                }
                continue;
            }
            let seg = arena[st.cursor as usize];
            if seg.resource == DELAY {
                queue.push(CalEvent {
                    time: now + seg.duration,
                    seq,
                    payload: ((job_idx as u64) << 1) | KIND_SEGMENT_DONE,
                });
                seq += 1;
            } else {
                let resource = self
                    .resources
                    .get_mut(seg.resource as usize)
                    .expect("segment references unknown resource");
                if resource.busy < resource.capacity {
                    resource.busy += 1;
                    trace.occupy(seg.resource as usize, job_idx, now, seg.duration);
                    queue.push(CalEvent {
                        time: now + seg.duration,
                        seq,
                        payload: ((job_idx as u64) << 1) | KIND_SEGMENT_DONE,
                    });
                    seq += 1;
                } else {
                    resource.waiting.push_back(job_idx as u32);
                    states[job_idx].queued_since = now;
                }
            }
        }

        let outcomes = states
            .iter()
            .enumerate()
            .map(|(i, s)| {
                assert!(s.done, "all jobs completed");
                JobOutcome {
                    job: i,
                    release: s.release,
                    finish: s.finish,
                    queued: s.queued_total,
                }
            })
            .collect();
        (outcomes, trace)
    }
}

/// Flattens a job's segments into the arena, records its state, and
/// schedules its release event.
fn admit(
    job: Job,
    arena: &mut Vec<SegLite>,
    states: &mut Vec<JobState>,
    queue: &mut CalendarQueue,
    seq: &mut u64,
) {
    let lo = arena.len() as u32;
    for s in &job.segments {
        arena.push(SegLite {
            resource: s.resource.map_or(DELAY, |r| r.0 as u32),
            duration: s.duration,
        });
    }
    let idx = states.len();
    debug_assert!(idx < u32::MAX as usize, "job count exceeds u32 index space");
    states.push(JobState {
        cursor: lo,
        seg_hi: arena.len() as u32,
        release: job.release,
        queued_since: NOT_QUEUED,
        queued_total: Nanos::ZERO,
        finish: Nanos::ZERO,
        done: false,
    });
    queue.push(CalEvent {
        time: job.release,
        seq: *seq,
        payload: (idx as u64) << 1,
    });
    *seq += 1;
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "resource#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_resource_serializes() {
        let mut engine = DesEngine::new();
        let psp = engine.add_resource("psp", 1);
        let jobs: Vec<Job> = (0..5)
            .map(|_| Job::new(vec![Segment::on(psp, Nanos::from_millis(10), "cmd")]))
            .collect();
        let outcomes = engine.run(jobs);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.finish, Nanos::from_millis(10 * (i as u64 + 1)));
        }
        // Last job queued for 40 ms.
        assert_eq!(outcomes[4].queued, Nanos::from_millis(40));
    }

    #[test]
    fn wide_resource_runs_in_parallel() {
        let mut engine = DesEngine::new();
        let cpu = engine.add_resource("cpu", 8);
        let jobs: Vec<Job> = (0..8)
            .map(|_| Job::new(vec![Segment::on(cpu, Nanos::from_millis(10), "boot")]))
            .collect();
        let outcomes = engine.run(jobs);
        assert!(outcomes.iter().all(|o| o.finish == Nanos::from_millis(10)));
    }

    #[test]
    fn mixed_pipeline_queues_only_on_psp() {
        let mut engine = DesEngine::new();
        let psp = engine.add_resource("psp", 1);
        let cpu = engine.add_resource("cpu", 32);
        let jobs: Vec<Job> = (0..4)
            .map(|_| {
                Job::new(vec![
                    Segment::on(cpu, Nanos::from_millis(5), "vmm"),
                    Segment::on(psp, Nanos::from_millis(20), "launch"),
                    Segment::on(cpu, Nanos::from_millis(30), "guest"),
                ])
            })
            .collect();
        let outcomes = engine.run(jobs);
        // Job i leaves the PSP at 5 + 20·(i+1); finishes 30 ms later.
        for (i, o) in outcomes.iter().enumerate() {
            let expect = Nanos::from_millis(5 + 20 * (i as u64 + 1) + 30);
            assert_eq!(o.finish, expect, "job {i}");
        }
    }

    #[test]
    fn pure_delays_do_not_contend() {
        let mut engine = DesEngine::new();
        let jobs: Vec<Job> = (0..10)
            .map(|_| Job::new(vec![Segment::delay(Nanos::from_millis(200), "network")]))
            .collect();
        let outcomes = engine.run(jobs);
        assert!(outcomes.iter().all(|o| o.finish == Nanos::from_millis(200)));
    }

    #[test]
    fn staggered_releases_respected() {
        let mut engine = DesEngine::new();
        let psp = engine.add_resource("psp", 1);
        let jobs = vec![
            Job::released_at(
                Nanos::from_millis(100),
                vec![Segment::on(psp, Nanos::from_millis(10), "late")],
            ),
            Job::new(vec![Segment::on(psp, Nanos::from_millis(10), "early")]),
        ];
        let outcomes = engine.run(jobs);
        assert_eq!(outcomes[1].finish, Nanos::from_millis(10));
        assert_eq!(outcomes[0].finish, Nanos::from_millis(110));
        assert_eq!(outcomes[0].latency(), Nanos::from_millis(10));
    }

    #[test]
    fn empty_job_finishes_at_release() {
        let mut engine = DesEngine::new();
        let outcomes = engine.run(vec![Job::released_at(Nanos::from_millis(3), vec![])]);
        assert_eq!(outcomes[0].finish, Nanos::from_millis(3));
    }

    #[test]
    fn fifo_order_is_stable() {
        let mut engine = DesEngine::new();
        let psp = engine.add_resource("psp", 1);
        // All released at once: FIFO by submission order.
        let jobs: Vec<Job> = (0..3)
            .map(|i| {
                Job::new(vec![Segment::on(
                    psp,
                    Nanos::from_millis(10 + i as u64),
                    "x",
                )])
            })
            .collect();
        let outcomes = engine.run(jobs);
        assert_eq!(outcomes[0].finish, Nanos::from_millis(10));
        assert_eq!(outcomes[1].finish, Nanos::from_millis(21));
        assert_eq!(outcomes[2].finish, Nanos::from_millis(33));
    }

    #[test]
    fn trace_accounts_busy_time_and_overlap() {
        let mut engine = DesEngine::new();
        let psp = engine.add_resource("psp", 1);
        let cpu = engine.add_resource("cpu", 4);
        let jobs: Vec<Job> = (0..3)
            .map(|_| {
                Job::new(vec![
                    Segment::on(cpu, Nanos::from_millis(5), "setup"),
                    Segment::on(psp, Nanos::from_millis(10), "launch"),
                ])
            })
            .collect();
        let (outcomes, trace) = engine.run_traced(jobs);
        assert_eq!(outcomes.len(), 3);
        assert_eq!(trace.busy_time(psp), Nanos::from_millis(30));
        assert_eq!(trace.busy_time(cpu), Nanos::from_millis(15));
        assert_eq!(trace.max_concurrency(psp), Some(1));
        assert_eq!(trace.max_concurrency(cpu), Some(3));
        // 3 setups overlap, then 3 serialized launches: makespan 5 + 30.
        assert_eq!(trace.makespan(), Nanos::from_millis(35));
        let util = trace.utilization(psp, 1);
        assert!((util - 30.0 / 35.0).abs() < 1e-9);
    }

    #[test]
    fn untraced_run_matches_traced_outcomes() {
        let build = || -> Vec<Job> {
            (0..6)
                .map(|i| {
                    Job::released_at(
                        Nanos::from_millis(i % 3),
                        vec![
                            Segment::delay(Nanos::from_millis(2), "net"),
                            Segment::on(ResourceId(0), Nanos::from_millis(7 + i), "psp"),
                        ],
                    )
                })
                .collect()
        };
        let mut a = DesEngine::new();
        a.add_resource("psp", 1);
        let mut b = DesEngine::new();
        b.add_resource("psp", 1);
        let (fast, totals) = a.run_dynamic(build(), false, |_, _| {});
        let (slow, log) = b.run_traced(build());
        assert_eq!(fast, slow);
        // The totals are kept either way; only the log is skipped.
        let psp = ResourceId(0);
        assert_eq!(totals.busy_time(psp), log.busy_time(psp));
        assert_eq!(totals.busy_time(psp), Nanos::from_millis((7..13).sum()));
        assert_eq!(totals.makespan(), log.makespan());
        assert!(totals.entries().is_empty());
        assert_eq!(totals.max_concurrency(psp), None);
        assert_eq!(log.max_concurrency(psp), Some(1));
    }

    #[test]
    fn dynamic_injection_chains_jobs() {
        let mut engine = DesEngine::new();
        let cpu = engine.add_resource("cpu", 1);
        let seed = vec![Job::new(vec![Segment::on(
            cpu,
            Nanos::from_millis(10),
            "first",
        )])];
        let mut chained = 0;
        let (outcomes, trace) = engine.run_dynamic(seed, true, |outcome, inject| {
            if chained < 2 {
                chained += 1;
                inject.push(Job::released_at(
                    outcome.finish + Nanos::from_millis(1),
                    vec![Segment::on(cpu, Nanos::from_millis(10), "next")],
                ));
            }
        });
        // first at [0,10], injected at [11,21] and [22,32].
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[1].finish, Nanos::from_millis(21));
        assert_eq!(outcomes[2].finish, Nanos::from_millis(32));
        assert_eq!(trace.makespan(), Nanos::from_millis(32));
    }

    #[test]
    fn dynamic_injection_clamps_past_releases() {
        let mut engine = DesEngine::new();
        let cpu = engine.add_resource("cpu", 1);
        let seed = vec![Job::new(vec![Segment::on(
            cpu,
            Nanos::from_millis(10),
            "first",
        )])];
        let mut injected_once = false;
        let (outcomes, _) = engine.run_dynamic(seed, false, |_, inject| {
            if !injected_once {
                injected_once = true;
                // Asks for the past; runs at the completion instant instead.
                inject.push(Job::released_at(
                    Nanos::from_millis(1),
                    vec![Segment::on(cpu, Nanos::from_millis(5), "late")],
                ));
            }
        });
        assert_eq!(outcomes[1].release, Nanos::from_millis(10));
        assert_eq!(outcomes[1].finish, Nanos::from_millis(15));
    }

    #[test]
    fn queued_time_lands_in_outcomes() {
        let mut engine = DesEngine::new();
        let psp = engine.add_resource("psp", 1);
        let jobs: Vec<Job> = (0..3)
            .map(|_| Job::new(vec![Segment::on(psp, Nanos::from_millis(10), "cmd")]))
            .collect();
        let (outcomes, _) = engine.run_traced(jobs);
        assert_eq!(outcomes[0].queued, Nanos::ZERO);
        assert_eq!(outcomes[1].queued, Nanos::from_millis(10));
        assert_eq!(outcomes[2].queued, Nanos::from_millis(20));
        for o in &outcomes {
            assert_eq!(o.latency(), Nanos::from_millis(10) + o.queued);
        }
    }

    #[test]
    fn service_time_sums_segments() {
        let mut engine = DesEngine::new();
        let cpu = engine.add_resource("cpu", 1);
        let job = Job::new(vec![
            Segment::on(cpu, Nanos::from_millis(5), "a"),
            Segment::delay(Nanos::from_millis(7), "b"),
        ]);
        assert_eq!(job.service_time(), Nanos::from_millis(12));
        let outcomes = engine.run(vec![job]);
        assert_eq!(outcomes[0].finish, Nanos::from_millis(12));
    }

    #[test]
    fn owned_labels_still_accepted() {
        let mut engine = DesEngine::new();
        let cpu = engine.add_resource("cpu", 1);
        let label = format!("dispatch-{}", 7);
        let job = Job::new(vec![Segment::on(cpu, Nanos::from_millis(1), label)]);
        assert_eq!(job.segments[0].label, "dispatch-7");
        let outcomes = engine.run(vec![job]);
        assert_eq!(outcomes[0].finish, Nanos::from_millis(1));
    }
}
