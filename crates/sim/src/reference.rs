//! The original binary-heap DES engine, kept as a reference.
//!
//! [`HeapEngine`] is the pre-calendar-queue implementation of
//! [`crate::DesEngine`], preserved byte-for-byte in behavior: same FIFO
//! resources, same `(time, seq)` event order, same dynamic-injection
//! semantics. It exists for differential testing:
//! `tests/engine_equivalence.rs` proves on seeded random job sets that the
//! calendar-queue engine produces identical [`JobOutcome`] sequences —
//! including tie-breaking order — and identical occupancy traces and busy
//! totals.
//!
//! Do not use this engine in serving paths; it allocates per event and its
//! heap costs grow with the pending-event set.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use crate::des::{Job, JobOutcome, ResourceId, RunTrace};
use crate::time::Nanos;

#[derive(Debug)]
struct Resource {
    name: String,
    capacity: usize,
    busy: usize,
    waiting: VecDeque<usize>, // job indices
}

/// The heap-based reference engine. API mirrors [`crate::DesEngine`].
#[derive(Debug, Default)]
pub struct HeapEngine {
    resources: Vec<Resource>,
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Release,
    SegmentDone,
}

impl HeapEngine {
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
        ResourceId::from_index(self.resources.len() - 1)
    }

    /// Name of a resource (for reports).
    pub fn resource_name(&self, id: ResourceId) -> &str {
        &self.resources[id.index()].name
    }

    /// Capacity (parallel slots) of a resource.
    pub fn capacity(&self, id: ResourceId) -> usize {
        self.resources[id.index()].capacity
    }

    /// Runs a batch of jobs to completion and returns their outcomes in job
    /// order.
    pub fn run(&mut self, jobs: Vec<Job>) -> Vec<JobOutcome> {
        self.run_traced(jobs).0
    }

    /// Like [`HeapEngine::run`], but also returns the occupancy trace.
    pub fn run_traced(&mut self, jobs: Vec<Job>) -> (Vec<JobOutcome>, RunTrace) {
        self.run_dynamic(jobs, |_, _| {})
    }

    /// Runs jobs with dynamic injection, always recording the occupancy
    /// entries; see [`crate::DesEngine::run_dynamic`].
    pub fn run_dynamic(
        &mut self,
        jobs: Vec<Job>,
        mut on_complete: impl FnMut(&JobOutcome, &mut Vec<Job>),
    ) -> (Vec<JobOutcome>, RunTrace) {
        for r in &mut self.resources {
            r.busy = 0;
            r.waiting.clear();
        }
        let mut jobs = jobs;
        let mut next_segment = vec![0usize; jobs.len()];
        let mut queued_since = vec![None::<Nanos>; jobs.len()];
        let mut queued_total = vec![Nanos::ZERO; jobs.len()];
        let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
        let mut trace = RunTrace::new(self.resources.len(), true);

        // (time, sequence, job, kind); sequence keeps ordering deterministic.
        let mut calendar: BinaryHeap<Reverse<(Nanos, u64, usize, EventKind)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for (i, job) in jobs.iter().enumerate() {
            calendar.push(Reverse((job.release, seq, i, EventKind::Release)));
            seq += 1;
        }

        while let Some(Reverse((now, _, job_idx, kind))) = calendar.pop() {
            if kind == EventKind::SegmentDone {
                let seg_idx = next_segment[job_idx];
                let segment = &jobs[job_idx].segments[seg_idx];
                if let Some(rid) = segment.resource {
                    let resource = &mut self.resources[rid.index()];
                    resource.busy -= 1;
                    // Wake the longest-waiting job for this resource.
                    if let Some(waiter) = resource.waiting.pop_front() {
                        resource.busy += 1;
                        if let Some(since) = queued_since[waiter].take() {
                            queued_total[waiter] += now - since;
                        }
                        let dur = jobs[waiter].segments[next_segment[waiter]].duration;
                        trace.occupy(rid.index(), waiter, now, dur);
                        calendar.push(Reverse((now + dur, seq, waiter, EventKind::SegmentDone)));
                        seq += 1;
                    }
                }
                next_segment[job_idx] += 1;
            }
            let completed = self.start_next_segment(
                now,
                job_idx,
                &jobs,
                &mut next_segment,
                &mut queued_since,
                &queued_total,
                &mut calendar,
                &mut seq,
                &mut outcomes,
                &mut trace,
            );
            if completed {
                if now > trace.makespan() {
                    trace.set_makespan(now);
                }
                let outcome = outcomes[job_idx].expect("just completed");
                let mut injected = Vec::new();
                on_complete(&outcome, &mut injected);
                for mut job in injected {
                    if job.release < now {
                        job.release = now;
                    }
                    let idx = jobs.len();
                    calendar.push(Reverse((job.release, seq, idx, EventKind::Release)));
                    seq += 1;
                    jobs.push(job);
                    next_segment.push(0);
                    queued_since.push(None);
                    queued_total.push(Nanos::ZERO);
                    outcomes.push(None);
                }
            }
        }

        let outcomes = outcomes
            .into_iter()
            .map(|o| o.expect("all jobs completed"))
            .collect();
        (outcomes, trace)
    }

    /// Starts the job's next segment (or records its completion when none
    /// remain). Returns `true` if the job just completed.
    #[allow(clippy::too_many_arguments)]
    fn start_next_segment(
        &mut self,
        now: Nanos,
        job_idx: usize,
        jobs: &[Job],
        next_segment: &mut [usize],
        queued_since: &mut [Option<Nanos>],
        queued_total: &[Nanos],
        calendar: &mut BinaryHeap<Reverse<(Nanos, u64, usize, EventKind)>>,
        seq: &mut u64,
        outcomes: &mut [Option<JobOutcome>],
        trace: &mut RunTrace,
    ) -> bool {
        let seg_idx = next_segment[job_idx];
        let job = &jobs[job_idx];
        if seg_idx >= job.segments.len() {
            outcomes[job_idx] = Some(JobOutcome {
                job: job_idx,
                release: job.release,
                finish: now,
                queued: queued_total[job_idx],
            });
            return true;
        }
        let segment = &job.segments[seg_idx];
        match segment.resource {
            None => {
                calendar.push(Reverse((
                    now + segment.duration,
                    *seq,
                    job_idx,
                    EventKind::SegmentDone,
                )));
                *seq += 1;
            }
            Some(rid) => {
                let resource = self
                    .resources
                    .get_mut(rid.index())
                    .expect("segment references unknown resource");
                if resource.busy < resource.capacity {
                    resource.busy += 1;
                    trace.occupy(rid.index(), job_idx, now, segment.duration);
                    calendar.push(Reverse((
                        now + segment.duration,
                        *seq,
                        job_idx,
                        EventKind::SegmentDone,
                    )));
                    *seq += 1;
                } else {
                    resource.waiting.push_back(job_idx);
                    queued_since[job_idx] = Some(now);
                }
            }
        }
        false
    }
}
