//! Span recording over the shared virtual clock, and causal trace assembly.
//!
//! The serving layers (`sevf-fleet`, `sevf-cluster`) narrate a run into a
//! [`Recorder`] as it executes: request arrivals, queueing, launches (each
//! an engine job, with its planned [`WorkStep`]s), retry backoffs, terminal
//! outcomes, and point markers (faults, failovers, placement decisions) —
//! only what the engine cannot know. After the DES run finishes the caller
//! hands [`Recorder::build`] the engine and what its run returned: each
//! launch ends where its job finished, and its resource-bound steps land on
//! the job's occupancy entries. The build assembles one causal span tree
//! per request:
//!
//! ```text
//! request ── queue wait ── attempt ──┬── wait psp
//!                                    ├── SNP_LAUNCH_START   (psp)
//!                                    ├── LAUNCH_UPDATE_DATA (psp)
//!                                    └── attestation rtt    (network)
//!         ── backoff #1 ── attempt ── ...
//! ```
//!
//! The children of every composite span tile its interval exactly — waits
//! are materialized, nothing overlaps — so per-request span durations sum
//! to precisely the latency the metrics layer reports. The structural
//! invariants this buys are checked by [`crate::invariants`].
//!
//! A disabled recorder ([`Recorder::disabled`]) is a `None`: every method
//! returns immediately, no allocation, no clock reads — the fault-free
//! serving path replays byte-identically with recording off.

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};

use sevf_sim::fault::FaultKind;
use sevf_sim::{DesEngine, JobOutcome, Nanos, PhaseKind, ResourceClass, RunTrace, TraceEntry};

/// One planned unit of work inside a launch attempt: which resource class
/// it occupies, which boot phase it belongs to, and for how long.
///
/// `sevf-fleet` blueprints are sequences of these; the recorder matches
/// resource-bound steps against the engine's occupancy entries to place
/// them on the clock (network steps are pure delays and self-place).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkStep {
    /// Host resource class the step occupies.
    pub class: ResourceClass,
    /// Boot phase the step belongs to (drives per-phase breakdowns).
    pub phase: PhaseKind,
    /// Human-readable description (PSP command, boot stage, ...): borrowed
    /// when it is a constant, so a per-dispatch step allocates nothing.
    pub label: Cow<'static, str>,
    /// Planned duration of the step.
    pub duration: Nanos,
}

impl WorkStep {
    /// Builds a step.
    pub fn new(
        class: ResourceClass,
        phase: PhaseKind,
        label: impl Into<Cow<'static, str>>,
        duration: Nanos,
    ) -> Self {
        WorkStep {
            class,
            phase,
            label: label.into(),
            duration,
        }
    }
}

/// Terminal state of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served to completion.
    Completed,
    /// Shed by admission (queue full or unroutable).
    Shed,
    /// Shed past the bottom of the degradation ladder.
    BreakerShed,
    /// Shed on deadline.
    Timeout,
    /// Permanently failed after exhausting retries.
    Failed,
    /// Turned away by the policy engine (quota / isolation / posture)
    /// before consuming any PSP work.
    Rejected,
}

impl Outcome {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::Shed => "shed",
            Outcome::BreakerShed => "breaker-shed",
            Outcome::Timeout => "timeout",
            Outcome::Failed => "failed",
            Outcome::Rejected => "rejected",
        }
    }
}

/// A point event on the clock, outside the span hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerKind {
    /// An injected fault struck.
    Fault(FaultKind),
    /// A request was displaced off a dead or departing host and re-routed.
    Failover,
    /// The cluster router placed a request on a host.
    Placement {
        /// The chosen host.
        host: usize,
    },
    /// A circuit breaker tripped a class down the degradation ladder.
    BreakerTrip,
    /// A warm-pool rebalance pass ran after a membership change.
    Rebalance,
    /// A PSP firmware-reset outage window opened.
    OutageStart,
    /// A PSP firmware-reset outage window closed.
    OutageEnd,
    /// A TCB/firmware rollout re-measured a host (re-attestation storm).
    TcbRollout,
    /// A chip key was distrusted mid-stream (key-compromise drill).
    Revocation,
    /// The router's failure detector started suspecting a host.
    Suspected,
    /// A heartbeat got through and cleared a standing suspicion.
    SuspicionCleared,
    /// A host's dispatch lease lapsed and it parked itself.
    LeaseExpired,
    /// The policy engine admitted a request at its asked-for tier.
    PolicyAdmit,
    /// The policy engine admitted a request at a degraded isolation tier.
    PolicyDegrade,
    /// The policy engine turned a request away.
    PolicyReject,
    /// The autoscaler joined spare hosts via the graceful-join path.
    ScaleOut,
    /// The autoscaler drained hosts via the graceful-leave path.
    ScaleIn,
    /// The autoscaler re-prescribed per-host warm-pool targets.
    PreWarm,
}

impl MarkerKind {
    /// Stable label used in exporter output.
    pub fn name(&self) -> String {
        match self {
            MarkerKind::Fault(kind) => format!("fault: {}", kind.name()),
            MarkerKind::Failover => "failover".to_string(),
            MarkerKind::Placement { host } => format!("placement: host {host}"),
            MarkerKind::BreakerTrip => "breaker-trip".to_string(),
            MarkerKind::Rebalance => "rebalance".to_string(),
            MarkerKind::OutageStart => "outage-start".to_string(),
            MarkerKind::OutageEnd => "outage-end".to_string(),
            MarkerKind::TcbRollout => "tcb-rollout".to_string(),
            MarkerKind::Revocation => "revocation".to_string(),
            MarkerKind::Suspected => "suspected".to_string(),
            MarkerKind::SuspicionCleared => "suspicion-cleared".to_string(),
            MarkerKind::LeaseExpired => "lease-expired".to_string(),
            MarkerKind::PolicyAdmit => "policy-admit".to_string(),
            MarkerKind::PolicyDegrade => "policy-degrade".to_string(),
            MarkerKind::PolicyReject => "policy-reject".to_string(),
            MarkerKind::ScaleOut => "scale-out".to_string(),
            MarkerKind::ScaleIn => "scale-in".to_string(),
            MarkerKind::PreWarm => "pre-warm".to_string(),
        }
    }
}

/// One recorded marker.
#[derive(Debug, Clone)]
pub struct MarkerRec {
    /// What happened.
    pub kind: MarkerKind,
    /// The request it concerns, if any.
    pub request: Option<usize>,
    /// The host it concerns, if any (cluster runs).
    pub host: Option<usize>,
    /// When it happened on the virtual clock.
    pub at: Nanos,
}

/// What a span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Root of one request's tree: admission to terminal state.
    Request,
    /// Root of a background job's tree (warm-pool refill).
    Background,
    /// One launch attempt (dispatch to job completion).
    Attempt,
    /// One executed work step (resource occupancy or network delay).
    Step,
    /// Time spent waiting: in the admission queue, or for a resource slot.
    Wait,
    /// Retry backoff between attempts.
    Backoff,
}

impl SpanKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Background => "background",
            SpanKind::Attempt => "attempt",
            SpanKind::Step => "step",
            SpanKind::Wait => "wait",
            SpanKind::Backoff => "backoff",
        }
    }
}

/// One assembled span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Index into [`TraceLog::spans`].
    pub id: usize,
    /// Causal parent (`None` for roots).
    pub parent: Option<usize>,
    /// The request this span serves (`None` for background trees).
    pub request: Option<usize>,
    /// The host it ran on, if the caller is a cluster (`None` on one host).
    pub host: Option<usize>,
    /// What the span represents.
    pub kind: SpanKind,
    /// Display name (class, blueprint label, step label, ...).
    pub name: String,
    /// Boot phase, for [`SpanKind::Step`] spans.
    pub phase: Option<PhaseKind>,
    /// Concrete resource occupied, for steps and resource waits.
    pub resource: Option<String>,
    /// Start instant on the shared virtual clock.
    pub start: Nanos,
    /// End instant.
    pub end: Nanos,
}

impl SpanRec {
    /// Span duration.
    pub fn duration(&self) -> Nanos {
        self.end - self.start
    }
}

/// One launch the recorder lays out: an engine job, a request's attempt or
/// (with no request) a background job.
#[derive(Debug)]
struct LaunchEv {
    request: Option<usize>,
    job: usize,
    label: String,
    host: Option<usize>,
    steps: Vec<WorkStep>,
    at: Nanos,
}

/// Events the recorder buffers during a run (assembled by [`Recorder::build`]).
#[derive(Debug)]
enum Ev {
    Arrival {
        request: usize,
        class: String,
        at: Nanos,
    },
    Queued {
        request: usize,
    },
    Launch(LaunchEv),
    RetryWait {
        request: usize,
        attempt: u32,
        from: Nanos,
        until: Nanos,
    },
    Terminal {
        request: usize,
        outcome: Outcome,
        at: Nanos,
    },
}

#[derive(Debug, Default)]
struct Inner {
    events: Vec<Ev>,
    markers: Vec<MarkerRec>,
}

/// The recording handle the serving layers thread through a run.
///
/// Disabled, it is a `None` behind one pointer-sized check: every method
/// no-ops, and [`Recorder::build`] returns an empty [`TraceLog`]. The
/// recorder never touches the caller's RNG, metrics, or job injection, so
/// enabling it cannot change a run's results — only observe them.
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Option<Box<Inner>>,
}

impl Recorder {
    /// A recorder that records nothing (the default serving path).
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A live recorder.
    pub fn enabled() -> Self {
        Recorder {
            inner: Some(Box::default()),
        }
    }

    /// Whether recording is on. Callers use this to skip building event
    /// arguments (step vectors, labels) on the disabled path.
    pub fn on(&self) -> bool {
        self.inner.is_some()
    }

    /// A request arrived (roots its span tree).
    pub fn arrival(&mut self, request: usize, class: &str, at: Nanos) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(Ev::Arrival {
                request,
                class: class.to_string(),
                at,
            });
        }
    }

    /// A request entered the admission queue (names its next wait span).
    pub fn queued(&mut self, request: usize) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(Ev::Queued { request });
        }
    }

    /// Engine job `job` was injected at `at` to run `steps`: a launch
    /// attempt for `request`, or a background job (warm-pool refill) when
    /// there is none. `steps` are the job's segments, in order (its span
    /// still ends where the engine says the job finished).
    pub fn launch(
        &mut self,
        request: Option<usize>,
        job: usize,
        label: &str,
        host: Option<usize>,
        steps: Vec<WorkStep>,
        at: Nanos,
    ) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(Ev::Launch(LaunchEv {
                request,
                job,
                label: label.to_string(),
                host,
                steps,
                at,
            }));
        }
    }

    /// A retry for `request` (failure number `attempt`) was scheduled:
    /// backoff occupies `[from, until]`.
    pub fn retry_wait(&mut self, request: usize, attempt: u32, from: Nanos, until: Nanos) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(Ev::RetryWait {
                request,
                attempt,
                from,
                until,
            });
        }
    }

    /// A request reached a terminal state.
    pub fn terminal(&mut self, request: usize, outcome: Outcome, at: Nanos) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(Ev::Terminal {
                request,
                outcome,
                at,
            });
        }
    }

    /// Records a point marker.
    pub fn marker(
        &mut self,
        kind: MarkerKind,
        request: Option<usize>,
        host: Option<usize>,
        at: Nanos,
    ) {
        if let Some(inner) = &mut self.inner {
            inner.markers.push(MarkerRec {
                kind,
                request,
                host,
                at,
            });
        }
    }

    /// Assembles the recorded events into span trees against the run that
    /// `engine` made: job ends come from `outcomes` (indexed by job) and
    /// resource-bound steps land on their job's `trace` occupancy entries,
    /// named by `engine`. Returns an empty log for a disabled recorder.
    pub fn build(self, engine: &DesEngine, outcomes: &[JobOutcome], trace: &RunTrace) -> TraceLog {
        let inner = match self.inner {
            Some(inner) => *inner,
            None => return TraceLog::default(),
        };
        Assembler::assemble(inner, engine, outcomes, trace)
    }
}

/// The assembled trace of one run: span trees, markers, and per-request
/// terminal outcomes.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// All spans; a span's `id` is its index here, parents precede children.
    pub spans: Vec<SpanRec>,
    /// Point markers in recording order.
    pub markers: Vec<MarkerRec>,
    /// `(request, outcome, at)` terminal states in recording order.
    pub outcomes: Vec<(usize, Outcome, Nanos)>,
}

impl TraceLog {
    /// The root span of `request`'s tree, if it arrived.
    pub fn request_root(&self, request: usize) -> Option<&SpanRec> {
        self.spans
            .iter()
            .find(|s| s.parent.is_none() && s.request == Some(request))
    }

    /// `children[i]` = direct child ids of span `i` (single pass).
    pub fn child_index(&self) -> Vec<Vec<usize>> {
        let mut index = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                index[parent].push(span.id);
            }
        }
        index
    }

    /// Leaf spans of `request`'s tree in start order — its critical path
    /// (children tile their parents, so the leaves partition the root).
    pub fn leaves(&self, request: usize) -> Vec<&SpanRec> {
        let has_child: std::collections::BTreeSet<usize> =
            self.spans.iter().filter_map(|s| s.parent).collect();
        let mut leaves: Vec<&SpanRec> = self
            .spans
            .iter()
            .filter(|s| s.request == Some(request) && !has_child.contains(&s.id))
            .collect();
        leaves.sort_by_key(|s| (s.start, s.id));
        leaves
    }

    /// Requests whose terminal outcome is `outcome`.
    pub fn requests_with_outcome(&self, outcome: Outcome) -> Vec<usize> {
        self.outcomes
            .iter()
            .filter(|(_, o, _)| *o == outcome)
            .map(|(r, _, _)| *r)
            .collect()
    }

    /// How many markers match `kind` exactly.
    pub fn count_marker(&self, kind: MarkerKind) -> usize {
        self.markers.iter().filter(|m| m.kind == kind).count()
    }
}

/// Turns the flat event list into span trees over one engine run.
struct Assembler<'a> {
    engine: &'a DesEngine,
    outcomes: &'a [JobOutcome],
    /// Each job's occupancy entries, in order.
    occ_by_job: BTreeMap<usize, VecDeque<&'a TraceEntry>>,
    spans: Vec<SpanRec>,
}

impl<'a> Assembler<'a> {
    fn assemble(
        inner: Inner,
        engine: &'a DesEngine,
        outcomes: &'a [JobOutcome],
        trace: &'a RunTrace,
    ) -> TraceLog {
        let mut occ_by_job: BTreeMap<usize, VecDeque<&TraceEntry>> = BTreeMap::new();
        for entry in trace.entries() {
            occ_by_job.entry(entry.job).or_default().push_back(entry);
        }
        let mut terminals = Vec::new();
        let mut per_request: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut backgrounds = Vec::new();
        for (i, ev) in inner.events.iter().enumerate() {
            match ev {
                Ev::Arrival { request, .. }
                | Ev::Queued { request }
                | Ev::Launch(LaunchEv {
                    request: Some(request),
                    ..
                })
                | Ev::RetryWait { request, .. } => per_request.entry(*request).or_default().push(i),
                Ev::Terminal {
                    request,
                    outcome,
                    at,
                } => {
                    terminals.push((*request, *outcome, *at));
                    per_request.entry(*request).or_default().push(i);
                }
                Ev::Launch(launch) => backgrounds.push(launch),
            }
        }

        let mut asm = Assembler {
            engine,
            outcomes,
            occ_by_job,
            spans: Vec::new(),
        };
        for (request, idxs) in &per_request {
            asm.request_tree(*request, idxs, &inner.events);
        }
        for launch in backgrounds {
            asm.launch(None, launch);
        }
        TraceLog {
            spans: asm.spans,
            markers: inner.markers,
            outcomes: terminals,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_span(
        &mut self,
        parent: Option<usize>,
        request: Option<usize>,
        host: Option<usize>,
        kind: SpanKind,
        name: String,
        phase: Option<PhaseKind>,
        resource: Option<String>,
        start: Nanos,
        end: Nanos,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            id,
            parent,
            request,
            host,
            kind,
            name,
            phase,
            resource,
            start,
            end,
        });
        id
    }

    /// Builds one request's tree from its event indices (recording order =
    /// clock order within a request).
    fn request_tree(&mut self, request: usize, idxs: &[usize], events: &[Ev]) {
        let Some((arrived, class)) = idxs.iter().find_map(|&i| match &events[i] {
            Ev::Arrival { at, class, .. } => Some((*at, class)),
            _ => None,
        }) else {
            return;
        };
        let root = self.push_span(
            None,
            Some(request),
            None,
            SpanKind::Request,
            class.clone(),
            None,
            None,
            arrived,
            arrived,
        );
        let mut cursor = arrived;
        let mut queued = false;
        for &idx in idxs {
            match &events[idx] {
                Ev::Arrival { .. } => {}
                Ev::Queued { .. } => queued = true,
                Ev::RetryWait {
                    attempt,
                    from,
                    until,
                    ..
                } => {
                    self.gap(root, request, cursor, *from, queued);
                    self.push_span(
                        Some(root),
                        Some(request),
                        None,
                        SpanKind::Backoff,
                        format!("backoff #{attempt}"),
                        None,
                        None,
                        *from,
                        *until,
                    );
                    cursor = *until;
                    queued = false;
                }
                Ev::Launch(launch) => {
                    self.gap(root, request, cursor, launch.at, queued);
                    cursor = self.launch(Some(root), launch);
                    queued = false;
                }
                Ev::Terminal { at, .. } => {
                    self.gap(root, request, cursor, *at, queued);
                    cursor = *at;
                }
            }
        }
        self.spans[root].end = cursor;
    }

    /// Materializes the wait between `cursor` and `until` (if any) as a
    /// child span, so siblings tile their parent exactly.
    fn gap(&mut self, parent: usize, request: usize, cursor: Nanos, until: Nanos, queued: bool) {
        if until > cursor {
            let name = if queued { "queue wait" } else { "wait" };
            self.push_span(
                Some(parent),
                Some(request),
                None,
                SpanKind::Wait,
                name.to_string(),
                None,
                None,
                cursor,
                until,
            );
        }
    }

    /// Builds one launch span — an Attempt under `root`, or a Background
    /// root when there is none — with its step/wait children, and returns
    /// where its job finished. Resource-bound steps take the job's
    /// occupancy entries in order; a gap before an entry's start becomes a
    /// resource-wait child. Network steps are pure delays and self-place.
    fn launch(&mut self, root: Option<usize>, launch: &LaunchEv) -> Nanos {
        let LaunchEv {
            request,
            job,
            ref label,
            host,
            ref steps,
            at,
        } = *launch;
        let kind = match root {
            Some(_) => SpanKind::Attempt,
            None => SpanKind::Background,
        };
        let span = self.push_span(root, request, host, kind, label.clone(), None, None, at, at);
        let engine = self.engine;
        let mut cur = at;
        for step in steps {
            let (resource, start, end) = if step.class == ResourceClass::Network {
                ("network", cur, cur + step.duration)
            } else {
                let entry = self
                    .occ_by_job
                    .get_mut(&job)
                    .and_then(VecDeque::pop_front)
                    .expect("every resource-bound step is one of its job's engine segments");
                let resource = engine.resource_name(entry.resource);
                if entry.start > cur {
                    self.push_span(
                        Some(span),
                        request,
                        host,
                        SpanKind::Wait,
                        format!("wait {resource}"),
                        None,
                        Some(resource.to_string()),
                        cur,
                        entry.start,
                    );
                }
                (resource, entry.start, entry.end)
            };
            self.push_span(
                Some(span),
                request,
                host,
                SpanKind::Step,
                step.label.to_string(),
                Some(step.phase),
                Some(resource.to_string()),
                start,
                end,
            );
            cur = end;
        }
        let end = self
            .outcomes
            .get(job)
            .expect("every launch is an engine job that finished")
            .finish;
        self.spans[span].end = end;
        end
    }
}

/// Runs one engine job per `(release, steps)` pair on a tiny host — a
/// one-slot "psp" and a two-slot "host-cpus" — and builds `rec` against
/// the run, as the serving drivers do after theirs.
#[cfg(test)]
pub(crate) fn build_on_engine(rec: Recorder, jobs: &[(Nanos, Vec<WorkStep>)]) -> TraceLog {
    use sevf_sim::{Job, Segment};
    let mut engine = DesEngine::new();
    let psp = engine.add_resource("psp", 1);
    let cpu = engine.add_resource("host-cpus", 2);
    let jobs = jobs.iter().map(|(at, steps)| {
        let segments = steps.iter();
        let segments = segments.map(|s| Segment::for_class(s.class, s.duration, cpu, psp));
        Job::released_at(*at, segments.collect())
    });
    let (outcomes, trace) = engine.run_traced(jobs.collect());
    rec.build(&engine, &outcomes, &trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    /// Direct children of span `id`, in start order.
    fn children_of(log: &TraceLog, id: usize) -> Vec<&SpanRec> {
        log.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }

    fn psp_step(label: &'static str, dur: Nanos) -> WorkStep {
        WorkStep::new(ResourceClass::Psp, PhaseKind::PreEncryption, label, dur)
    }

    #[test]
    fn disabled_recorder_builds_an_empty_log() {
        let mut rec = Recorder::disabled();
        assert!(!rec.on());
        rec.arrival(0, "c", ms(0));
        rec.terminal(0, Outcome::Completed, ms(5));
        let log = build_on_engine(rec, &[]);
        assert!(log.spans.is_empty());
        assert!(log.outcomes.is_empty());
    }

    #[test]
    fn one_request_tree_tiles_queue_wait_and_steps() {
        let mut rec = Recorder::enabled();
        rec.arrival(0, "tiny", ms(0));
        rec.queued(0);
        let steps = vec![psp_step("LAUNCH", ms(4))];
        rec.launch(Some(0), 1, "tiny cold", None, steps.clone(), ms(2));
        rec.terminal(0, Outcome::Completed, ms(8));
        // Job 0, unrecorded, holds the psp until t=3: one extra wait inside
        // the attempt. Job 1's engine segments run a 1 ms delay past the
        // step the recorder was told of: the step ends at 7, and the
        // attempt at 8, where the engine says the job finished.
        let tail = WorkStep::new(ResourceClass::Network, PhaseKind::LinuxBoot, "tail", ms(1));
        let jobs = [
            (ms(0), vec![psp_step("other", ms(3))]),
            (ms(2), vec![steps[0].clone(), tail]),
        ];
        let log = build_on_engine(rec, &jobs);

        let root = log.request_root(0).expect("root");
        assert_eq!(root.kind, SpanKind::Request);
        assert_eq!(root.start, ms(0));
        assert_eq!(root.end, ms(8));
        let children = children_of(&log, root.id);
        assert_eq!(children.len(), 2, "queue wait + attempt");
        assert_eq!(children[0].kind, SpanKind::Wait);
        assert_eq!(children[0].name, "queue wait");
        assert_eq!((children[0].start, children[0].end), (ms(0), ms(2)));
        let attempt = children[1];
        assert_eq!(attempt.kind, SpanKind::Attempt);
        assert_eq!((attempt.start, attempt.end), (ms(2), ms(8)));
        let inner = children_of(&log, attempt.id);
        assert_eq!(inner.len(), 2, "resource wait + step");
        assert_eq!(inner[0].name, "wait psp");
        assert_eq!(inner[1].resource.as_deref(), Some("psp"));
        assert_eq!((inner[1].start, inner[1].end), (ms(3), ms(7)));
    }

    #[test]
    fn retry_backoff_appears_between_attempts() {
        let mut rec = Recorder::enabled();
        let steps = vec![psp_step("L", ms(2))];
        rec.arrival(3, "tiny", ms(0));
        rec.launch(Some(3), 0, "try 1", None, steps.clone(), ms(0));
        rec.retry_wait(3, 1, ms(2), ms(5));
        rec.launch(Some(3), 1, "try 2", None, steps.clone(), ms(5));
        rec.terminal(3, Outcome::Completed, ms(7));
        let log = build_on_engine(rec, &[(ms(0), steps.clone()), (ms(5), steps)]);
        let root = log.request_root(3).unwrap();
        let kinds: Vec<SpanKind> = children_of(&log, root.id).iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![SpanKind::Attempt, SpanKind::Backoff, SpanKind::Attempt]
        );
        let backoffs = log.spans.iter().filter(|s| s.kind == SpanKind::Backoff);
        assert_eq!(backoffs.count(), 1);
        let total: Nanos = log.leaves(3).iter().map(|s| s.duration()).sum();
        assert_eq!(total, root.duration(), "leaves partition the root");
    }

    #[test]
    fn shed_request_is_a_zero_length_tree() {
        let mut rec = Recorder::enabled();
        rec.arrival(1, "tiny", ms(4));
        rec.terminal(1, Outcome::Shed, ms(4));
        let log = build_on_engine(rec, &[]);
        let root = log.request_root(1).unwrap();
        assert_eq!(root.duration(), Nanos::ZERO);
        assert_eq!(log.requests_with_outcome(Outcome::Shed), [1]);
        assert!(children_of(&log, root.id).is_empty());
    }

    #[test]
    fn background_trees_carry_no_request() {
        let mut rec = Recorder::enabled();
        let steps = vec![psp_step("L", ms(3))];
        rec.launch(None, 0, "refill tiny", None, steps.clone(), ms(1));
        let log = build_on_engine(rec, &[(ms(1), steps)]);
        let root = log.spans.iter().find(|s| s.parent.is_none()).unwrap();
        assert_eq!(root.kind, SpanKind::Background);
        assert_eq!(root.request, None);
        assert_eq!(root.duration(), ms(3));
    }

    #[test]
    fn markers_count_by_kind() {
        let mut rec = Recorder::enabled();
        let reset = MarkerKind::Fault(FaultKind::PspReset);
        rec.marker(reset, Some(0), None, ms(1));
        rec.marker(reset, None, Some(2), ms(2));
        rec.marker(MarkerKind::Failover, Some(0), Some(1), ms(2));
        rec.marker(MarkerKind::Placement { host: 1 }, Some(0), Some(1), ms(0));
        let log = build_on_engine(rec, &[]);
        assert_eq!(log.count_marker(reset), 2);
        assert_eq!(log.count_marker(MarkerKind::Failover), 1);
        assert_eq!(log.count_marker(MarkerKind::Placement { host: 1 }), 1);
    }
}
